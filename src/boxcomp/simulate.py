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
`chunk_xor_counts`, behind `simulate_singlet` and `sweep_angles`, reads the
per-trial arrays of one per-chunk loop.
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


def _spec_arrays(spec):
    """Strategy bounds, flat output tables indexed 4k + 2x + y, and the scope.

    A uniform r picks strategy k = #{j < 15 : r >= cum_j}, the inverse CDF
    of the weights with strategy 15 taking any rounding shortfall.  Bounds
    of 1 or more are dropped, since r < 1 never reaches them.
    """
    table = spec.strategies()
    a_t = np.array([s.fa for s in table], dtype=np.int8)
    b_t = np.array([s.fb for s in table], dtype=np.int8)
    cum = np.cumsum(np.asarray(spec.weights, dtype=np.float64))[:15]
    mu = (spec.scope.mu1, spec.scope.mu2, spec.scope.mu3)
    return cum[cum < 1.0], a_t.ravel(), b_t.ravel(), mu


def _generator(seed, chunk_index):
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(chunk_index),))
    return np.random.Generator(np.random.Philox(seed=ss))


def _disc_points(g, n):
    """(u, v, q): n points uniform in the open unit disc, q = u^2 + v^2.

    Each round draws m uniforms on [-1, 1) for u, then m for v; candidate j
    is (u_j, v_j) and is kept, in order, while q_j < 1.  About pi/4 of them
    survive, so a shortfall is topped up by another round from g.
    """
    parts = []
    while n > 0:
        m = int(n * _CANDIDATES_PER_POINT) + 16
        u = g.random(m)
        u *= 2.0
        u -= 1.0
        v = g.random(m)
        v *= 2.0
        v -= 1.0
        q = u * u
        q += v * v
        kept = np.flatnonzero(q < 1.0)[:n]
        part = (u.take(kept), v.take(kept), q.take(kept))
        parts.append(part)
        n -= len(part[0])
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(arrs) for arrs in zip(*parts))


def _y_projection(u, v, q, c, s):
    """t.y_hat / 2 for the direction t that the disc point (u, v) maps to."""
    p = c * u
    p += s * v
    p *= np.sqrt(1.0 - q)
    return p


def _strategy_index(bounds, pick):
    """int8 strategy index k = #{bounds <= pick} for each strategy uniform.

    The uniforms are freed on return, before the directions are drawn, which
    keeps a chunk's peak memory down.
    """
    k = np.zeros(len(pick), dtype=np.int8)
    for bound in bounds:
        k += pick >= bound
    return k


def _chunk_trials(arrays, c, s, n, g):
    """Per-trial (x_in, y_in, a, b, alpha, beta, x_out, y_out) of one chunk.

    alpha = sgn01(t1.x_hat) and beta = sgn01((t1 + t2).y_hat).
    """
    bounds, a_t, b_t, (mu1, mu2, mu3) = arrays
    cell = _strategy_index(bounds, g.random(n))
    u1, v1, q1 = _disc_points(g, n)
    u2, v2, q2 = _disc_points(g, n)
    # t1 - t2 = 2 (u1 r1 - u2 r2, v1 r1 - v2 r2, q2 - q1) with r = sqrt(1 - q):
    # only pairs with |q1 - q2| < tol can lie closer than tol, so the full
    # distance is taken on those alone
    redo = np.flatnonzero(np.abs(q1 - q2) < DEGENERATE_TOL)
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
    alpha = sgn01(u1)
    x_in = alpha ^ sgn01(u2)
    p1 = _y_projection(u1, v1, q1, c, s)
    p2 = _y_projection(u2, v2, q2, c, s)
    beta = sgn01(p1 + p2)
    y_in = beta ^ sgn01(p1 - p2)
    cell <<= 2  # output table cell 4k + 2x + y, from the strategy index k
    cell += x_in << 1
    cell += y_in
    a = a_t.take(cell)
    b = b_t.take(cell)
    x_out = a ^ (mu1 & x_in) ^ mu3 ^ alpha
    y_out = b ^ (mu2 & y_in) ^ beta ^ 1
    return x_in, y_in, a, b, alpha, beta, x_out, y_out


def _chunks(spec, x_hat, y_hat, n_trials, seed):
    """Trial arrays of each chunk, in chunk order: the loop every entry point reads."""
    if n_trials < 1:
        raise DomainError(f"need at least one trial, got {n_trials!r}")
    arrays = _spec_arrays(spec)
    c = min(max(x_hat.dot(y_hat), -1.0), 1.0)
    s = math.sqrt(1.0 - c * c)
    n_trials = int(n_trials)
    for i, lo in enumerate(range(0, n_trials, CHUNK)):
        yield _chunk_trials(arrays, c, s, min(CHUNK, n_trials - lo), _generator(seed, i))


def chunk_xor_counts(spec, x_hat, y_hat, n_trials, seed):
    """Per-chunk counts of trials with X xor Y = 1; their sum / N is the estimate.

    The counts are integers tied to fixed chunk indices, so any processing
    order (or parallel schedule) reproduces the same total.
    """
    return [int((out[6] ^ out[7]).sum()) for out in _chunks(spec, x_hat, y_hat, n_trials, seed)]


def simulate_singlet(spec, x_hat, y_hat, n_trials, seed):
    """Estimate P(X xor Y = 1), which targets (1 + x_hat.y_hat)/2."""
    counts = chunk_xor_counts(spec, x_hat, y_hat, n_trials, seed)
    return sum(counts) / int(n_trials)


@dataclass(frozen=True)
class SweepPoint:
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
