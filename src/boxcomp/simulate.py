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
and every estimate published from them.  Each round is streamed in blocks
from two generators re-keyed to its place in the stream, one for its u's and
one for its v's, and stops drawing once it has its points.  Estimates are
integer counts tied to (seed, chunk index), so they do not depend on the
order, or the thread, in which chunks are evaluated.

The kernel draws at half scale, and every sign it tests is that of the
formulas above to the last bit.  A candidate u/2 = r - 1/2, r a uniform
double (a multiple of 2^-53), is exact.  Nonzero u/2 and v/2 are at least
2^-53 in size, so their squares and sum stay normal and q/4 is exactly a
quarter of q: q/4 < 1/4 keeps the same points.  In the projection
p = [2 sqrt(1/4 - q/4)] [(2c)(u/2) + (2s)(v/2)], the products are the
reals c u and s v, which round alike even below the normal range, and
1/4 - q/4 >= 2^-55 and its root are normal, so the doubled root is
sqrt(1 - q) rounded: p is the formula's value for any axes that Direction
accepts.  p1 >= p2 tests sgn((t1 - t2).y_hat) exactly: with gradual
underflow a rounded difference has the sign of the exact one.

`_chunk_count` counts a chunk in one worker's workspace, which holds t1's
sign bits alpha and projections p1 and one block of candidates.  t2 is
never stored: each block of its L points is projected as it is drawn and
paired with the same columns of t1, adding L - count(((alpha xor a2) and
(beta xor d)) xor alpha xor beta) to the chunk's count, with a2 =
sgn(t2.x_hat), beta = [p1 + p2 >= 0] and d = [p1 >= p2].  The chunks of
`chunk_xor_counts`, behind `simulate_singlet` and `sweep_angles`, run on at
most two workers, the caller and one helper thread, each with its own
workspace of about 2 MiB and two Philox generators.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .boxcore import checked_count_and_seed
from .decompose import ResourceSpec
from .errors import DomainError

CHUNK = 1 << 16
MAX_TRIALS = 1 << 36  # most trials in a run or a whole sweep: 2**20 chunks, an 8 MiB count list
_CANDIDATES_PER_POINT = 4.0 / math.pi  # square candidates per disc point


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


def _positioned(g, key, off):
    """Re-key generator g to word off of the stream with this key, where each double reads one.

    Philox4x64 makes four words per counter value: the counter is set to
    off // 4 with an empty buffer, and off % 4 words are discarded.
    """
    g.bit_generator.state = {"bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4,
                             "state": {"counter": [off // 4, 0, 0, 0], "key": key},
                             "has_uint32": 0, "uinteger": 0}
    g.bit_generator.random_raw(off % 4)


def _workspaces(count, n_trials, seed, c, s):
    """count workers' rows and generators, sized for a call's chunks.

    Each holds t1's sign bits alpha and projections p1, four float and three
    flag rows of one block of candidates, two generators, c2 = 2c and s2 = 2s.
    The rows come from one float and one bool buffer, allocated here in the
    calling thread, so no helper's malloc arena holds them, and freed whole,
    so the next call reuses them without faulting in fresh pages.
    """
    size = min(CHUNK, n_trials)
    width = -(-(int(size * _CANDIDATES_PER_POINT) + 16) // 2)  # a full chunk's round 1 in 2 blocks
    floats = np.empty((count, size + 4 * width))
    flags = np.empty((count, size + 3 * width), dtype=bool)
    return [SimpleNamespace(n_trials=n_trials, seed=seed, c2=2.0 * c, s2=2.0 * s,
                            p1=f[:size], rows=f[size:].reshape(4, width),
                            alpha=b[:size], flags=b[size:].reshape(3, width),
                            gens=[np.random.Generator(np.random.Philox(key=0)) for _ in range(2)])
            for f, b in zip(floats, flags)]


def _disc_points(key, off, n, ws, sink):
    """Draw n points uniform in the open unit disc, in order; return the next offset.

    A round of m candidates takes u_j/2 = r - 1/2 from word off + j of the
    stream and v_j/2 from word off + m + j, r uniform on [0, 1), and keeps
    candidate j, in order, while q_j/4 < 1/4.  About pi/4 of them survive,
    so a shortfall is topped up by another round at off + 2m.  A round is
    drawn in blocks as wide as ws.rows and stops drawing once it has its
    points.  Each block's points k, k + 1, ... are handed, as (u/2, v/2,
    q/4) in rows that the next block writes over, to sink(k, u, v, q).
    """
    width, (gu, gv), k = ws.rows.shape[1], ws.gens, 0
    while k < n:
        m = int((n - k) * _CANDIDATES_PER_POINT) + 16
        _positioned(gu, key, off)
        _positioned(gv, key, off + m)
        off += 2 * m
        for lo in range(0, m, width):
            u, v, q, vv = ws.rows[:, :min(width, m - lo)]
            for g, w in ((gu, u), (gv, v)):
                np.subtract(g.random(out=w), 0.5, out=w)
            np.multiply(u, u, out=q)
            q += np.multiply(v, v, out=vv)
            kept = np.flatnonzero(np.less(q, 0.25, out=ws.flags[0, :len(q)]))[:n - k]
            # each row is read before it is written
            points = ws.rows[3, :len(kept)], ws.rows[0, :len(kept)], ws.rows[1, :len(kept)]
            for src, dst in zip((u, v, q), points):
                np.take(src, kept, out=dst, mode="clip")
            sink(k, *points)
            k += len(kept)
            if k == n:
                break
    return off


def _project(ws, u, v, q, out):
    """p = t.y_hat / 2 = sqrt(1 - q) (c u + s v), written into out and over u, v and q.

    From half-scale points, as [2 sqrt(1/4 - q/4)] [(2c)(u/2) + (2s)(v/2)].
    """
    u *= ws.c2
    v *= ws.s2
    u += v
    np.subtract(0.25, q, out=q)
    np.sqrt(q, out=q)
    q += q
    return np.multiply(q, u, out=out)


def _keep(ws, k, u, v, q):
    """Store t1's half-scale points k, k + 1, ... as sign bits alpha and projections p1."""
    np.greater_equal(u, 0.0, out=ws.alpha[k:k + len(u)])
    _project(ws, u, v, q, ws.p1[k:k + len(u)])


def _pair_count(ws, k, u, v, q):
    """The number of pairs with X xor Y = 1 among t2's half-scale points k, k + 1, ... and t1's.

    With a2 = sgn(t2.x_hat), beta = [p1 + p2 >= 0] and d = [p1 >= p2], the
    inputs are x = alpha xor a2 and y = beta xor d, and X xor Y = not(x and
    y) xor alpha xor beta.  t2's points are written over.
    """
    alpha, p1 = ws.alpha[k:k + len(u)], ws.p1[k:k + len(u)]
    x, beta, y = ws.flags[:, :len(u)]
    np.bitwise_xor(np.greater_equal(u, 0.0, out=x), alpha, out=x)
    p2 = _project(ws, u, v, q, q)
    np.greater_equal(np.add(p1, p2, out=v), 0.0, out=beta)
    np.bitwise_xor(np.greater_equal(p1, p2, out=y), beta, out=y)
    x &= y
    x ^= alpha
    x ^= beta
    return len(u) - int(np.count_nonzero(x))


def _chunk_count(ws, i):
    """The number of chunk i's trials with X xor Y = 1: `_keep` stores t1's rounds,
    from word n on, and `_pair_count` counts the blocks of t2's as they are drawn."""
    n = min(CHUNK, ws.n_trials - i * CHUNK)
    key, counts = _chunk_key(ws.seed, i), []
    off = _disc_points(key, n, n, ws, lambda *block: _keep(ws, *block))
    _disc_points(key, off, n, ws, lambda *block: counts.append(_pair_count(ws, *block)))
    return sum(counts)


def _checked_run(spec, n_trials, seed):
    """(n_trials, seed) as ints; DomainError unless spec is a ResourceSpec and
    1 <= n_trials <= MAX_TRIALS, seed >= 0 are integers.  The spec's weights
    and scope cannot change a count, so it is only type-checked.
    """
    if not isinstance(spec, ResourceSpec):
        raise DomainError(f"spec must be a ResourceSpec, got {type(spec).__name__}")
    return checked_count_and_seed(n_trials, seed, MAX_TRIALS, "trials in [1, 2**36]")


def _settings(spec, x_hat, y_hat, n_trials, seed):
    """What a call's workspaces read: (n_trials, seed, c, s)."""
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
    spaces = _workspaces(_workers(len(counts)), *settings)

    def work(indices):
        ws = spaces.pop()
        for i in indices:
            counts[i] = _chunk_count(ws, i)

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
    runs n_trials on its own derived stream of the master seed.  DomainError
    when the angles and trials multiply to more than MAX_TRIALS.
    """
    n_trials, seed = _checked_run(spec, n_trials, seed)
    try:
        if isinstance(angles, (str, bytes)):
            raise TypeError
        angles = list(angles)
    except TypeError:
        raise DomainError(f"angles must be an iterable of numbers, got {angles!r}") from None
    if len(angles) * n_trials > MAX_TRIALS:
        raise DomainError(f"{len(angles)} angles of {n_trials} trials exceed 2**36 in all")
    for i, angle in enumerate(angles):
        try:
            angles[i] = float(angle)
        except (TypeError, ValueError):
            angles[i] = math.nan
        if not math.isfinite(angles[i]):
            raise DomainError(f"angle must be a finite number, got {angle!r}")
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
