"""Shared builders for the test suite."""

import math
from types import SimpleNamespace

import numpy as np

import boxcomp as bc
from boxcomp import decompose, simulate


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


def trial_records(spec, x_hat, y_hat, n_trials, seed):
    """The chunk kernel's trials over all chunks, as int8 arrays by field name.

    The kernel yields each chunk's (cell, alpha, beta), cell = 2x + y; the box
    inputs and the announced parity X ^ Y = (x & y) ^ alpha ^ beta ^ 1, which
    every catalogue strategy gives, are derived here from copies of that
    state.  These are exactly the trials that `chunk_xor_counts` counts.
    """
    ws = simulate._Workspace(*simulate._settings(spec, x_hat, y_hat, n_trials, seed))
    # chunk by chunk on one workspace, which each chunk writes over
    parts = [[arr.astype(np.int8) for arr in simulate._chunk(ws, i)]
             for i in range(-(-ws.n_trials // bc.CHUNK))]
    cell, alpha, beta = (np.concatenate(arrs) for arrs in zip(*parts))
    x_in, y_in = cell >> 1, cell & 1
    return SimpleNamespace(x_in=x_in, y_in=y_in, alpha=alpha, beta=beta,
                           xor=(x_in & y_in) ^ alpha ^ beta ^ 1)


def reconstruct(dec):
    """The box a decomposition's weights mix from its strategies."""
    return bc.mixtures(list(dec.weights.values()), bc.strategy_boxes(list(dec.weights)))


def lp_matrices():
    """(A_eq, one-way mask) of the 112-vertex LP: cell rows plus a weight-sum row."""
    columns = decompose.VERTEX_BOXES.reshape(len(decompose.VERTICES), 16).T
    oneway = np.array([0.0 if s.kind == "local" else 1.0 for s in decompose.VERTICES])
    return np.vstack([columns, np.ones((1, columns.shape[1]))]), oneway
