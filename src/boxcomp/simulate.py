"""Monte Carlo reproduction of singlet statistics from scoped resources.

Each trial draws two independent uniform directions t1, t2 on the sphere.
The parties' box inputs are parities of half-space indicators,

    x = sgn(t1.x_hat) xor sgn(t2.x_hat)
    y = sgn((t1+t2).y_hat) xor sgn((t1-t2).y_hat)

with sgn mapping to {0,1} and sgn(0) = 1.  The box replies (a, b), and the
announced bits fold the first indicator back in:

    X = a xor sgn(t1.x_hat)          Y = b xor sgn((t1+t2).y_hat) xor 1

(for scopes other than (0,0,0) the parties first undo the scope's output
relabelling, which keeps the estimator identity intact).  The fraction of
trials with X xor Y = 1 estimates (1 + x_hat.y_hat)/2, the singlet's
anticorrelation probability for measurement axes x_hat, y_hat.

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
A pair with |t1 - t2| < 1e-12, the distance taken from these coordinates,
has no well-defined inputs; both of its directions are redrawn.

Trials are processed in fixed chunks of 65536; chunk i uses a counter-based
Philox generator seeded SeedSequence(entropy=seed, spawn_key=(i,)), and
draws in a fixed order: the strategy uniforms, then t1's disc candidates
(a block of u's, then one of v's), then t2's, then any redraws of
degenerate pairs.  Every top-up comes from the chunk's own generator, and
estimates are integer counts, so results depend only on (seed, chunk index)
and not on the order (or parallelism) in which chunks are evaluated.

One kernel, `_chunks`, allocates its arrays once per call: four rows of
disc candidates, three rows of kept points, and the chunk's cell and bit
rows.  Every step writes into them in place, and the sign projections
overwrite the points they are taken from, so a chunk allocates little more
than its kept-candidate indices.  The kernel yields each chunk's
(cell, alpha, beta), with cell = 4k + 2x + y for strategy k and inputs
(x, y).  `chunk_xor_counts`, behind `simulate_singlet` and `sweep_angles`,
counts X xor Y = T[cell] xor alpha xor beta from one 64-cell table T of
the spec's replies and scope, so the replies and announced bits of single
trials are never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

CHUNK = 1 << 16
DEGENERATE_TOL = 1e-12
_CANDIDATES_PER_POINT = 4.0 / math.pi  # square candidates per disc point


def sgn01(z):
    """Half-space indicator: 0 for z < 0, else 1 (so sgn01(0) = 1), as int8."""
    return (np.asarray(z) >= 0).astype(np.int8)


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


def _strategy_bounds(spec):
    """Bounds that pick strategy k = #{j < 15 : r >= cum_j} for a uniform r.

    This is the inverse CDF of the weights, with strategy 15 taking any
    rounding shortfall.  Bounds of 1 or more are dropped, since r < 1 never
    reaches them.
    """
    cum = np.cumsum(np.asarray(spec.weights, dtype=np.float64))[:15]
    return cum[cum < 1.0]


def _xor_table(spec):
    """T[4k + 2x + y] with X xor Y = T xor alpha xor beta, for strategy k on inputs (x, y).

    Strategy k replies (a, b), and the announced bits are
    X = a ^ (mu1 & x) ^ mu3 ^ alpha and Y = b ^ (mu2 & y) ^ beta ^ 1, so
    T = a ^ b ^ (mu1 & x) ^ (mu2 & y) ^ mu3 ^ 1: 64 bools.
    """
    table = spec.strategies()
    a = np.array([s.fa for s in table]).reshape(16, 2, 2)
    b = np.array([s.fb for s in table]).reshape(16, 2, 2)
    x, y = np.indices((2, 2))
    scope = spec.scope
    return (a ^ b ^ (scope.mu1 & x) ^ (scope.mu2 & y) ^ scope.mu3 ^ 1).ravel().astype(bool)


def _generator(seed, chunk_index):
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(chunk_index),))
    return np.random.Generator(np.random.Philox(seed=ss))


def _disc_points(g, n, cand=None, out=None):
    """(u, v, q): n points uniform in the open unit disc, q = u^2 + v^2.

    Each round draws m uniforms on [-1, 1) for u, then m for v; candidate j
    is (u_j, v_j) and is kept, in order, while q_j < 1.  About pi/4 of them
    survive, so a shortfall is topped up by another round from g.

    The first round works in cand, four float rows of at least m, and takes
    the kept points into out, three rows of at least n; either is allocated
    when not given, and so is every top-up.  out may be (cand[3], cand[0],
    cand[1]), since each of those rows is read before it is written.  The
    returned arrays are views of out.
    """
    if out is None:
        out = np.empty((3, n))
    k = 0
    while k < n:
        m = int((n - k) * _CANDIDATES_PER_POINT) + 16
        if k or cand is None:  # a top-up is small, and out may alias cand
            cand = np.empty((4, m))
        u, v, q, vv = (row[:m] for row in cand)
        for w in (u, v):
            g.random(out=w)
            w *= 2.0
            w -= 1.0
        np.multiply(u, u, out=q)
        q += np.multiply(v, v, out=vv)
        kept = np.flatnonzero(q < 1.0)[:n - k]
        for src, dst in zip((u, v, q), out):
            np.take(src, kept, out=dst[k:k + len(kept)], mode="clip")
        k += len(kept)
    return tuple(row[:n] for row in out)


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


def _chunks(spec, x_hat, y_hat, n_trials, seed):
    """Each chunk's (cell, alpha, beta), in chunk order: the kernel every entry point reads.

    cell = 4k + 2x + y holds strategy k and the box inputs (x, y), with
    alpha = sgn01(t1.x_hat) and beta = sgn01((t1 + t2).y_hat).  The workspace
    is allocated once per call, so a chunk's state is a view that the next
    chunk writes over.
    """
    if n_trials < 1:
        raise DomainError(f"need at least one trial, got {n_trials!r}")
    bounds = _strategy_bounds(spec)
    c = min(max(x_hat.dot(y_hat), -1.0), 1.0)
    s = math.sqrt(1.0 - c * c)
    n_trials = int(n_trials)
    size = min(CHUNK, n_trials)
    cand = np.empty((4, int(size * _CANDIDATES_PER_POINT) + 16))
    kept = np.empty((3, size))
    cells = np.empty(size, dtype=np.int8)
    bits = np.empty((3, size), dtype=bool)
    for i, lo in enumerate(range(0, n_trials, CHUNK)):
        n = min(CHUNK, n_trials - lo)
        g = _generator(seed, i)
        cell, (alpha, beta, bit) = cells[:n], bits[:, :n]
        pick = g.random(out=cand[0, :n])
        cell.fill(0)
        for bound in bounds:
            cell += np.greater_equal(pick, bound, out=bit)
        u1, v1, q1 = _disc_points(g, n, cand, kept)
        u2, v2, q2 = _disc_points(g, n, cand, (cand[3], cand[0], cand[1]))
        free = cand[2, :n]
        # t1 - t2 = 2 (u1 r1 - u2 r2, v1 r1 - v2 r2, q2 - q1) with r = sqrt(1 - q):
        # only pairs with |q1 - q2| < tol can lie closer than tol, so the full
        # distance is taken on those alone
        np.abs(np.subtract(q1, q2, out=free), out=free)
        redo = np.flatnonzero(np.less(free, DEGENERATE_TOL, out=bit))
        while redo.size:
            r1, r2 = np.sqrt(1.0 - q1[redo]), np.sqrt(1.0 - q2[redo])
            dist = 2.0 * np.sqrt((u1[redo] * r1 - u2[redo] * r2) ** 2
                                 + (v1[redo] * r1 - v2[redo] * r2) ** 2
                                 + (q1[redo] - q2[redo]) ** 2)
            redo = redo[dist < DEGENERATE_TOL]
            if redo.size:
                u1[redo], v1[redo], q1[redo] = _disc_points(g, redo.size)
                u2[redo], v2[redo], q2[redo] = _disc_points(g, redo.size)
        # t.x_hat = 2 u r and t.y_hat = 2 r (c u + s v), with r = sqrt(1 - q) > 0
        # x = alpha xor sgn01(t2.x_hat) and y = beta xor sgn01((t1 - t2).y_hat)
        np.greater_equal(u1, 0.0, out=alpha)
        cell <<= 1
        cell |= np.bitwise_xor(np.greater_equal(u2, 0.0, out=bit), alpha, out=bit)
        p1 = _y_projection(u1, v1, q1, c, s)
        p2 = _y_projection(u2, v2, q2, c, s)
        np.greater_equal(np.add(p1, p2, out=free), 0.0, out=beta)
        cell <<= 1
        cell |= np.bitwise_xor(np.greater_equal(np.subtract(p1, p2, out=free), 0.0, out=bit),
                               beta, out=bit)
        yield cell, alpha, beta


def chunk_xor_counts(spec, x_hat, y_hat, n_trials, seed):
    """Per-chunk counts of trials with X xor Y = 1; their sum / N is the estimate.

    Each count is one lookup of the chunk's cells in the 64-cell table of
    `_xor_table`, XORed with alpha and beta.  The counts are integers tied
    to fixed chunk indices, so any processing order (or parallel schedule)
    reproduces the same total.
    """
    table = _xor_table(spec)
    counts = []
    for cell, alpha, beta in _chunks(spec, x_hat, y_hat, n_trials, seed):
        hit = table.take(cell)
        hit ^= alpha
        hit ^= beta
        counts.append(int(np.count_nonzero(hit)))
    return counts


def simulate_singlet(spec, x_hat, y_hat, n_trials, seed):
    """Estimate P(X xor Y = 1), which targets (1 + x_hat.y_hat)/2."""
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


def _angle_seed(seed, index):
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(0x5EED, int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def sweep_angles(spec, angles, n_trials, seed):
    """Simulate a list of relative angles between the measurement axes.

    x_hat is fixed at the pole and y_hat rotated by each angle; each angle
    runs n_trials on its own derived stream of the master seed.
    """
    angles = [float(angle) for angle in angles]
    for angle in angles:
        if not math.isfinite(angle):
            raise DomainError(f"angle must be finite, got {angle!r}")
    x_hat = Direction.polar(0.0)
    points = []
    for i, theta in enumerate(angles):
        y_hat = Direction.polar(theta)
        est = simulate_singlet(spec, x_hat, y_hat, n_trials, _angle_seed(seed, i))
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
