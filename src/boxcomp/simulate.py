"""Monte Carlo reproduction of singlet statistics from scoped resources.

Each trial draws two independent uniform directions t1, t2 on the sphere.
The parties' box inputs are parities of half-space indicators,

    x = sgn(t1.x_hat) xor sgn(t2.x_hat)
    y = sgn((t1+t2).y_hat) xor sgn((t1-t2).y_hat)

with sgn mapping to {0,1} and sgn(0) = 1.  Every strategy of a scope's
catalogue replies (a, b) with a xor b = xy xor mu1 x xor mu2 y xor mu3.  The
parties undo the scope's output relabelling and fold the first indicators
back in, with alpha = sgn(t1.x_hat) and beta = sgn((t1+t2).y_hat):

    X = a xor mu1 x xor mu3 xor alpha          Y = b xor mu2 y xor beta xor 1

so X xor Y = not(x and y) xor alpha xor beta, whichever strategy the
resource picks.  The fraction of trials with X xor Y = 1 estimates
(1 + x_hat.y_hat)/2, the singlet's anticorrelation probability for
measurement axes x_hat, y_hat.  Counts do not depend on the resource's
weights or scope: no strategy is drawn, and a spec is only type-checked.

Sampler (Marsaglia disc points in the (x_hat, y_hat) frame).  Only the
projections of t1 and t2 onto span(x_hat, y_hat) matter, so the kernel never
forms 3-vectors.  It reads the axes through c = x_hat.y_hat, clamped to
[-1, 1], and s = sqrt(1 - c^2), in an orthonormal frame with e1 = x_hat and
y_hat = c e1 + s e2.  Each direction comes from one point (u, v) uniform in
the open unit disc, drawn by rejection from the square [-1, 1)^2, with
q = u^2 + v^2 < 1.  Marsaglia's map (Ann. Math. Stat. 43, 1972)

    t = (2u sqrt(1-q), 2v sqrt(1-q), 1 - 2q)

is exactly uniform on the sphere, so sgn(t.x_hat) = sgn(u) and
t.y_hat / 2 = sqrt(1-q) (c u + s v), with no normalisation or trigonometry.
Every pair has well-defined inputs, a coincident pair t1 = t2 too:
sgn(0) = 1 gives it x = 0 and y = beta xor 1.

Trials are processed in fixed chunks of 65536; chunk i reads one
counter-based Philox stream seeded SeedSequence(entropy=seed, spawn_key=(i,)),
in a fixed order: t1's disc rounds (each a block of m u's, then m v's), then
t2's, and nothing after them.  The first round of an n-trial chunk starts at
word n: words 0 to n - 1, where a sampler that picks each trial's strategy
reads its uniform, are skipped, not drawn, which keeps that sampler's counts
and every estimate published from them.  A round's position in the stream
is fixed by the rounds before it, and any word of the stream can be drawn
from a generator positioned there, so each round is streamed in blocks from
two positioned generators, one for its u's and one for its v's, and stops
drawing once it has its points.  Estimates are integer counts tied to
(seed, chunk index), so they do not depend on the order, or the thread, in
which chunks are evaluated.

The kernel, `_chunk`, fills one worker's workspace: t1's kept points, five
rows of one block of candidates, and the chunk's cell and bit rows.  t2 is
never stored whole: each block of its points is paired with t1's as it is
drawn, every step writes into the workspace in place, and the sign
projections overwrite the points they are taken from.  A chunk's state is
(cell, alpha, beta), with cell = 2x + y.  `chunk_xor_counts`, behind
`simulate_singlet` and `sweep_angles`, counts X xor Y = [cell != 3] xor
alpha xor beta, so the replies and announced bits of single trials are
never formed.  Its chunks run on at most two workers, the caller and one
helper thread, each with its own workspace, about 2.1 MiB for full chunks.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .boxcore import checked_count_and_seed
from .decompose import ResourceSpec
from .errors import DomainError

CHUNK = 1 << 16
MAX_TRIALS = 1 << 36  # the most trials a run accepts: 2**20 chunks, an 8 MiB count list
_CANDIDATES_PER_POINT = 4.0 / math.pi  # square candidates per disc point
_BLOCKS = 4  # blocks in the first disc round of a full chunk


@dataclass(frozen=True)
class Direction:
    """Unit vector in R^3."""

    v: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.v, dtype=np.float64)
        if arr.shape != (3,):
            raise DomainError(f"direction must be a 3-vector, got shape {arr.shape}")
        norm = float(np.linalg.norm(arr))
        if not abs(norm - 1.0) <= 1e-9:
            raise DomainError(f"direction norm {norm} is not 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "v", arr)

    @classmethod
    def polar(cls, theta):
        """Direction at polar angle theta in the x-z plane."""
        return cls(np.array([math.sin(theta), 0.0, math.cos(theta)]))

    def dot(self, other):
        return float(self.v @ other.v)


def _chunk_key(seed, chunk_index):
    """The Philox key of chunk i's stream, seeded SeedSequence(entropy=seed, spawn_key=(i,))."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(chunk_index),))
    return ss.generate_state(2, np.uint64)


def _positioned(key, off):
    """A generator at word off of the stream with this key; each double drawn reads one word.

    Philox4x64 makes four words per counter value, so the counter starts at
    off // 4 and the first off % 4 words are discarded.
    """
    bits = np.random.Philox(counter=off // 4, key=key)
    bits.random_raw(off % 4)
    return np.random.Generator(bits)


class _Workspace:
    """One worker's rows, sized for the call's chunks, and the values they are filled from.

    t1 holds t1's kept points (u, v); rows holds five float rows of one
    block of candidates, with keep beside them; cell and bits (alpha, beta
    and a free row) hold a chunk's state.  c and s are resolved from the
    axes in the calling thread.
    """

    def __init__(self, n_trials, seed, c, s):
        self.n_trials, self.seed, self.c, self.s = n_trials, seed, c, s
        size = min(CHUNK, n_trials)
        width = -(-(int(size * _CANDIDATES_PER_POINT) + 16) // _BLOCKS)
        # one float and one bool buffer: a buffer this size, freed whole, is
        # taken again by the next call without faulting in fresh pages
        floats, flags = np.empty(2 * size + 5 * width), np.empty(3 * size + width, dtype=bool)
        self.t1, self.rows = floats[:2 * size].reshape(2, size), floats[2 * size:].reshape(5, width)
        self.bits, self.keep = flags[:3 * size].reshape(3, size), flags[3 * size:]
        self.cell = np.empty(size, dtype=np.int8)


def _disc_points(key, off, n, ws, out=None, sink=None):
    """Draw n points uniform in the open unit disc, in order; return the next offset.

    A round of m candidates takes u_j from word off + j of the stream and
    v_j from word off + m + j, each uniform on [-1, 1), and keeps candidate
    j, in order, while q_j = u_j^2 + v_j^2 < 1.  About pi/4 of them survive,
    so a shortfall is topped up by another round at off + 2m.  A round is
    drawn in blocks as wide as ws.rows and stops drawing once it has its
    points.  Points k, k + 1, ... of a block go to columns k, k + 1, ... of
    out's rows u and v; without out, they and their q go to rows of ws,
    which the next block writes over.  sink(k, u, v, q) is then handed them.
    """
    width = ws.rows.shape[1]
    k = 0
    while k < n:
        m = int((n - k) * _CANDIDATES_PER_POINT) + 16
        gu, gv = _positioned(key, off), _positioned(key, off + m)
        off += 2 * m
        for lo in range(0, m, width):
            u, v, q, vv = ws.rows[:4, :min(width, m - lo)]
            for g, w in ((gu, u), (gv, v)):
                g.random(out=w)
                w *= 2.0
                w -= 1.0
            np.multiply(u, u, out=q)
            q += np.multiply(v, v, out=vv)
            kept = np.flatnonzero(np.less(q, 1.0, out=ws.keep[:len(q)]))[:n - k]
            if out is None:  # each row is read before it is written
                points = ws.rows[3, :len(kept)], ws.rows[0, :len(kept)], ws.rows[1, :len(kept)]
            else:
                points = tuple(row[k:k + len(kept)] for row in out)
            for src, dst in zip((u, v, q), points):
                np.take(src, kept, out=dst, mode="clip")
            if sink is not None:
                sink(k, *points)
            k += len(kept)
            if k == n:
                break
    return off


def _y_projection(u, v, q, c, s):
    """t.y_hat / 2 = sqrt(1 - q) (c u + s v) for the direction t that (u, v) maps to.

    Works in place: the result is written over q and returned, and u and v
    are written over too.  Each product and sum rounds as in
    (c u + s v) sqrt(1 - q), so every sign test sees the same value.
    """
    u *= c
    v *= s
    u += v
    np.subtract(1.0, q, out=q)
    np.sqrt(q, out=q)
    q *= u
    return q


def _pair_bits(c, s, u1, v1, q1, u2, v2, q2, cell, alpha, beta, free, bit):
    """Write the inputs (x, y) of pairs (t1, t2) into cell as 2x + y, and set alpha and beta.

    t.x_hat = 2 u r and t.y_hat = 2 r (c u + s v), with r = sqrt(1 - q) > 0,
    so alpha = sgn(t1.x_hat), beta = sgn((t1 + t2).y_hat),
    x = alpha xor sgn(t2.x_hat) and y = beta xor sgn((t1 - t2).y_hat),
    each sign test written z >= 0.
    The points are written over; free and bit are scratch rows.
    """
    np.greater_equal(u1, 0.0, out=alpha)
    np.bitwise_xor(np.greater_equal(u2, 0.0, out=bit), alpha, out=cell)
    p1 = _y_projection(u1, v1, q1, c, s)
    p2 = _y_projection(u2, v2, q2, c, s)
    np.greater_equal(np.add(p1, p2, out=free), 0.0, out=beta)
    cell <<= 1
    cell |= np.bitwise_xor(np.greater_equal(np.subtract(p1, p2, out=free), 0.0, out=bit),
                           beta, out=bit)


def _chunk(ws, i):
    """Chunk i's (cell, alpha, beta), as views of ws's rows.

    cell = 2x + y holds the box inputs (x, y).  The chunk's stream gives
    t1's rounds, from word n on, then t2's.  t2's points are paired with
    t1's block by block, so t2 is never stored whole.
    """
    n = min(CHUNK, ws.n_trials - i * CHUNK)
    key = _chunk_key(ws.seed, i)
    cell, (alpha, beta, bit) = ws.cell[:n], ws.bits[:, :n]
    t1 = ws.t1[:, :n]

    def pair(k, u2, v2, q2):
        j = slice(k, k + len(u2))
        u1, v1 = t1[:, j]
        q1, free = ws.rows[2, :len(u2)], ws.rows[4, :len(u2)]
        np.multiply(u1, u1, out=q1)
        q1 += np.multiply(v1, v1, out=free)
        _pair_bits(ws.c, ws.s, u1, v1, q1, u2, v2, q2, cell[j], alpha[j], beta[j], free, bit[j])

    off = _disc_points(key, n, n, ws, out=t1)
    _disc_points(key, off, n, ws, sink=pair)
    return cell, alpha, beta


def _checked_run(spec, n_trials, seed):
    """(n_trials, seed) as ints; DomainError unless spec is a ResourceSpec and
    1 <= n_trials <= MAX_TRIALS, seed >= 0 are integers.

    The spec's weights and scope cannot change a count, so it is only
    type-checked.
    """
    if not isinstance(spec, ResourceSpec):
        raise DomainError(f"spec must be a ResourceSpec, got {type(spec).__name__}")
    return checked_count_and_seed(n_trials, seed, MAX_TRIALS, "trials in [1, 2**36]")


def _settings(spec, x_hat, y_hat, n_trials, seed):
    """What each worker's `_Workspace` reads: (n_trials, seed, c, s)."""
    n_trials, seed = _checked_run(spec, n_trials, seed)
    if not (isinstance(x_hat, Direction) and isinstance(y_hat, Direction)):
        raise DomainError(f"axes must be Directions, got {type(x_hat).__name__} "
                          f"and {type(y_hat).__name__}")
    c = min(max(x_hat.dot(y_hat), -1.0), 1.0)
    return n_trials, seed, c, math.sqrt(1.0 - c * c)


def _workers(n_chunks):
    """min(2, CPUs this process may run on, n_chunks): the caller and at most one helper."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus, n_chunks)


def _share(n_chunks, work):
    """Run work(indices) on the caller and at most one helper thread.

    The workers take chunk indices one at a time from a common pool.  The
    helper is joined before return, and an exception it raised is raised
    again in the caller; a failure in either worker stops the other at its
    next chunk.
    """
    if _workers(n_chunks) < 2:
        work(range(n_chunks))
        return
    tickets, lock, failed = iter(range(n_chunks)), threading.Lock(), []

    def indices():
        while not failed:
            with lock:
                i = next(tickets, None)
            if i is None:
                return
            yield i

    def helper():
        try:
            work(indices())
        except BaseException as exc:
            failed.append(exc)

    thread = threading.Thread(target=helper, name="boxcomp-chunks")
    thread.start()
    try:
        work(indices())
    except BaseException as exc:
        failed.append(exc)
        raise
    finally:
        thread.join()
    if failed:
        raise failed[0]


def chunk_xor_counts(spec, x_hat, y_hat, n_trials, seed):
    """Per-chunk counts of trials with X xor Y = 1; their sum / N is the estimate.

    X xor Y = not(x and y) xor alpha xor beta for every catalogue strategy,
    so the counts do not depend on the spec's weights or scope, and a spec
    that is not a ResourceSpec raises DomainError.  The counts are integers
    tied to fixed chunk indices, so the chunks run on up to two threads,
    each with its own workspace, and give the same counts in any order.
    """
    settings = _settings(spec, x_hat, y_hat, n_trials, seed)
    counts = [0] * -(-settings[0] // CHUNK)

    def work(indices):
        ws = _Workspace(*settings)
        for i in indices:
            cell, alpha, beta = _chunk(ws, i)
            hit = np.not_equal(cell, 3, out=ws.bits[2, :len(cell)])
            hit ^= alpha
            hit ^= beta
            counts[i] = int(np.count_nonzero(hit))

    _share(len(counts), work)
    return counts


def simulate_singlet(spec, x_hat, y_hat, n_trials, seed):
    """Estimate P(X xor Y = 1), which targets (1 + x_hat.y_hat)/2.

    Like the counts it sums, it does not depend on the spec's weights or scope.
    """
    counts = chunk_xor_counts(spec, x_hat, y_hat, n_trials, seed)
    return sum(counts) / int(n_trials)


@dataclass(frozen=True)
class SweepPoint:
    """One angle of `sweep_angles`: the angle between the axes in radians, the
    estimate of P(X xor Y = 1), its singlet target (1 + cos angle)/2, and the
    binomial standard error sqrt(target (1 - target) / N)."""

    angle: float
    estimate: float
    target: float
    stderr: float

    def to_json(self):
        return {"angle_rad": self.angle, "estimate": self.estimate,
                "target": self.target, "stderr": self.stderr}


def sweep_angles(spec, angles, n_trials, seed):
    """Simulate a list of relative angles between the measurement axes.

    x_hat is fixed at the pole and y_hat rotated by each angle; each angle
    runs n_trials on its own derived stream of the master seed.
    """
    n_trials, seed = _checked_run(spec, n_trials, seed)
    angles = [float(angle) for angle in angles]
    for angle in angles:
        if not math.isfinite(angle):
            raise DomainError(f"angle must be finite, got {angle!r}")
    x_hat = Direction.polar(0.0)
    points = []
    for i, theta in enumerate(angles):
        y_hat = Direction.polar(theta)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(0x5EED, i))
        est = simulate_singlet(spec, x_hat, y_hat, n_trials, ss.generate_state(1, np.uint64)[0])
        target = (1.0 + math.cos(theta)) / 2.0
        stderr = math.sqrt(max(target * (1.0 - target), 0.0) / float(n_trials))
        points.append(SweepPoint(angle=theta, estimate=est, target=target, stderr=stderr))
    return points


SWEEP_CSV_HEADER = "angle_rad,estimate,target,stderr,N,seed"


def write_sweep_csv(points, n_trials, seed, fh):
    """Write sweep rows as CSV; float fields use repr so files are byte-stable."""
    fh.write(SWEEP_CSV_HEADER + "\n")
    for p in points:
        fh.write(f"{float(p.angle)!r},{float(p.estimate)!r},{float(p.target)!r},"
                 f"{float(p.stderr)!r},{int(n_trials)},{int(seed)}\n")
