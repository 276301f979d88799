"""Shared builders for the test suite."""

import math
from types import SimpleNamespace

import numpy as np

import boxcomp as bc
from boxcomp import boxcore, decompose, simulate


def tsirelson_box():
    """Box with correlators (r, r, r, -r), r = 1/sqrt(2); CHSH = 2 sqrt(2)."""
    r = 1.0 / math.sqrt(2.0)
    p = np.empty((2, 2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            e = -r if (x, y) == (1, 1) else r
            for a in (0, 1):
                for b in (0, 1):
                    sign = 1.0 if a == b else -1.0
                    p[x, y, a, b] = (1.0 + sign * e) / 4.0
    return bc.CorrelationBox(p, label="tsirelson")


def random_resource_spec(rng, scope=bc.PRScope()):
    """Dirichlet-uniform weights over the scope's 16 strategies."""
    return bc.ResourceSpec(scope=scope, weights=tuple(rng.dirichlet(np.ones(16))))


def random_feasible_box(rng):
    """A random mixture of the 112 local and one-way vertices, and the mixture's
    one-way weight, which bounds the box's min_comm_cost from above."""
    boxes, w = decompose._random_feasible_boxes(rng, 1)
    return bc.CorrelationBox(boxes[0]), float(decompose._ONEWAY @ w[0])


def pair_spec(j, p, scope=bc.PRScope()):
    """Weight p on the catalogue's pair-j "+" strategy and 1-p on its "-"."""
    plus = bc.STRATEGY_NAMES[2 * (j - 1)]
    minus = bc.STRATEGY_NAMES[2 * (j - 1) + 1]
    return bc.ResourceSpec.from_mapping({plus: p, minus: 1.0 - p}, scope=scope)


def pair_box(j, p, scope=bc.PRScope()):
    return bc.resource_box(pair_spec(j, p, scope))


def corrupt_catalogue(monkeypatch):
    """Flip the canonical S1+'s B output at x = y = 1 in boxcore's one catalogue table.

    Scope (0,0,0)'s strategies and its box stack are both replaced, so every
    reader of the catalogue (`certify`'s suites, the anchor of
    `decompose._conditional_bounds`) sees the same corrupted table.
    """
    scope = bc.PRScope()
    table = list(boxcore._CATALOGUE[scope])
    fb = table[0].fb
    table[0] = bc.DeterministicStrategy(table[0].fa, (fb[0], fb[1], fb[2], fb[3] ^ 1))
    monkeypatch.setitem(boxcore._CATALOGUE, scope, tuple(table))
    monkeypatch.setitem(boxcore._CATALOGUE_BOXES, scope, bc.strategy_boxes(table))


def _disc_draws(n_trials, seed):
    """Each chunk's (t1, t2) points, drawn by the kernel's `_disc_points`.

    Yields one (2, 2, n) array per chunk: t1 and t2, each as rows u and v
    on the full scale, with q = u^2 + v^2 < 1.  A recording sink copies
    each block as it is handed over; nothing else of the kernel is read.
    """
    (ws,) = simulate._workspaces(1, n_trials, seed, 0.0, 1.0)  # the draw reads no axis
    for i in range(-(-n_trials // bc.CHUNK)):
        n = min(bc.CHUNK, n_trials - i * bc.CHUNK)
        key, points = simulate._chunk_key(seed, i), np.empty((2, 2, n))

        def record(t):
            def sink(k, u, v, q):
                points[t, :, k:k + len(u)] = u, v
            return sink

        simulate._disc_points(key, simulate._disc_points(key, n, n, ws, record(0)), n, ws,
                              record(1))
        yield 2.0 * points  # the kernel hands over u/2 and v/2, exactly


def _direction(u, v):
    """(t.e1, t.e2) of Marsaglia's map t = (2u r, 2v r, 1 - 2q), r = sqrt(1 - q)."""
    r = np.sqrt(1.0 - (u * u + v * v))
    return 2.0 * u * r, 2.0 * v * r


def trial_records(spec, x_hat, y_hat, n_trials, seed):
    """Every trial of a run, as int8 arrays by field name, from a reference in plain numpy.

    Only the points are the kernel's (`_disc_draws`).  Each direction is
    t = (2u r, 2v r, 1 - 2q), r = sqrt(1 - q), in the frame e1 = x_hat,
    y_hat = c e1 + s e2; then x = sgn(t1.x_hat) ^ sgn(t2.x_hat),
    y = sgn((t1 + t2).y_hat) ^ sgn((t1 - t2).y_hat), alpha = sgn(t1.x_hat),
    beta = sgn((t1 + t2).y_hat), with sgn(z) = [z >= 0], and the announced
    parity X ^ Y = not(x & y) ^ alpha ^ beta.  The spec cannot change a
    trial, so it is not read.
    """
    c = min(max(x_hat.dot(y_hat), -1.0), 1.0)
    s = math.sqrt(1.0 - c * c)
    fields = {name: [] for name in ("x_in", "y_in", "alpha", "beta")}
    for (u1, v1), (u2, v2) in _disc_draws(n_trials, seed):
        (a1, b1), (a2, b2) = _direction(u1, v1), _direction(u2, v2)
        plus = c * (a1 + a2) + s * (b1 + b2)
        minus = c * (a1 - a2) + s * (b1 - b2)
        alpha, beta = a1 >= 0, plus >= 0
        fields["x_in"].append(alpha ^ (a2 >= 0))
        fields["y_in"].append(beta ^ (minus >= 0))
        fields["alpha"].append(alpha)
        fields["beta"].append(beta)
    td = SimpleNamespace(**{name: np.concatenate(rows).astype(np.int8)
                            for name, rows in fields.items()})
    td.xor = (td.x_in & td.y_in) ^ td.alpha ^ td.beta ^ 1
    return td


def reconstruct(dec):
    """The box a decomposition's weights mix from its strategies."""
    return bc.mixtures(list(dec.weights.values()), bc.strategy_boxes(list(dec.weights)))


def row_values(rows, cells):
    """(K, R) values of integer table rows (T's cells, then k) on a (K, 16) stack of flat boxes."""
    return cells @ rows[:, :16].T + rows[:, 16]


def lp_matrices():
    """(A_eq, one-way mask) of the 112-vertex LP: cell rows plus a weight-sum row."""
    columns = decompose.VERTEX_BOXES.reshape(len(decompose.VERTICES), 16).T
    oneway = np.array([0.0 if s.kind == "local" else 1.0 for s in decompose.VERTICES])
    return np.vstack([columns, np.ones((1, columns.shape[1]))]), oneway
