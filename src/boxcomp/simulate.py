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

Trials are processed in fixed chunks of 65536; chunk i uses a counter-based
generator seeded SeedSequence(entropy=seed, spawn_key=(i,)), and estimates
are integer counts, so results do not depend on the order (or parallelism)
in which chunks are evaluated.  `chunk_xor_counts` (behind `simulate_singlet`
and `sweep_angles`) and `trial_records` read the same per-chunk loop, so the
per-trial records are exactly the trials that the counts come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

CHUNK = 1 << 16
DEGENERATE_TOL = 1e-12


def sgn01(z):
    """Half-space indicator: 0 for z < 0, else 1 (so sgn01(0) = 1)."""
    if np.isscalar(z):
        return 0 if z < 0 else 1
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
        if abs(norm - 1.0) > 1e-9:
            raise DomainError(f"direction norm {norm} is not 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "v", arr)

    @classmethod
    def from_vector(cls, v):
        arr = np.asarray(v, dtype=np.float64).reshape(3)
        norm = float(np.linalg.norm(arr))
        if norm < DEGENERATE_TOL:
            raise DomainError("cannot normalize a near-zero vector")
        return cls(arr / norm)

    @classmethod
    def polar(cls, theta):
        """Direction at polar angle theta in the x-z plane."""
        return cls(np.array([math.sin(theta), 0.0, math.cos(theta)]))

    def dot(self, other):
        return float(self.v @ other.v)


def _as_direction(value):
    return value if isinstance(value, Direction) else Direction.from_vector(value)


def _unit_rows(g, n):
    v = g.normal(size=(n, 3))
    while True:
        norms = np.linalg.norm(v, axis=1)
        bad = norms < DEGENERATE_TOL
        if not bad.any():
            return v / norms[:, None]
        v[bad] = g.normal(size=(int(bad.sum()), 3))


def _spec_arrays(spec):
    table = spec.strategies()
    a_t = np.array([s.fa for s in table], dtype=np.int8).reshape(16, 2, 2)
    b_t = np.array([s.fb for s in table], dtype=np.int8).reshape(16, 2, 2)
    cum = np.cumsum(np.asarray(spec.weights, dtype=np.float64))
    mu = (spec.scope.mu1, spec.scope.mu2, spec.scope.mu3)
    return cum, a_t, b_t, mu


def _generator(seed, chunk_index):
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(chunk_index),))
    return np.random.Generator(np.random.Philox(seed=ss))


def _chunk_trials(arrays, xhat, yhat, n, g):
    cum, a_t, b_t, (mu1, mu2, mu3) = arrays
    t1 = _unit_rows(g, n)
    t2 = _unit_rows(g, n)
    while True:
        bad = np.linalg.norm(t1 - t2, axis=1) < DEGENERATE_TOL
        if not bad.any():
            break
        m = int(bad.sum())
        t1[bad] = _unit_rows(g, m)
        t2[bad] = _unit_rows(g, m)
    k = np.minimum(np.searchsorted(cum, g.random(n), side="right"), 15)
    alpha = sgn01(t1 @ xhat)
    x_in = alpha ^ sgn01(t2 @ xhat)
    beta = sgn01((t1 + t2) @ yhat)
    y_in = beta ^ sgn01((t1 - t2) @ yhat)
    a = a_t[k, x_in, y_in]
    b = b_t[k, x_in, y_in]
    x_out = a ^ (mu1 & x_in) ^ mu3 ^ alpha
    y_out = b ^ (mu2 & y_in) ^ beta ^ 1
    return x_in, y_in, a, b, alpha, beta, x_out, y_out


def _chunks(spec, x_hat, y_hat, n_trials, seed):
    """Trial arrays of each chunk, in chunk order: the loop every entry point reads."""
    if n_trials < 1:
        raise DomainError(f"need at least one trial, got {n_trials!r}")
    arrays = _spec_arrays(spec)
    xhat = _as_direction(x_hat).v
    yhat = _as_direction(y_hat).v
    n_trials = int(n_trials)
    for i, lo in enumerate(range(0, n_trials, CHUNK)):
        yield _chunk_trials(arrays, xhat, yhat, min(CHUNK, n_trials - lo), _generator(seed, i))


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
class TrialData:
    """Raw per-trial arrays from a simulation run."""

    x_in: np.ndarray
    y_in: np.ndarray
    a: np.ndarray
    b: np.ndarray
    alpha: np.ndarray  # sgn01(t1 . x_hat)
    beta: np.ndarray   # sgn01((t1 + t2) . y_hat)
    x_out: np.ndarray
    y_out: np.ndarray

    def estimate(self):
        return float((self.x_out ^ self.y_out).mean())


def trial_records(spec, x_hat, y_hat, n_trials, seed):
    """TrialData for n_trials, identical to what the counting path simulates."""
    parts = list(_chunks(spec, x_hat, y_hat, n_trials, seed))
    return TrialData(*(np.concatenate([p[j] for p in parts]) for j in range(8)))


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
