"""Shared builders for the test suite."""

import math
from types import SimpleNamespace

import numpy as np

import boxcomp as bc
from boxcomp import decompose, simulate

TRIAL_FIELDS = ("x_in", "y_in", "a", "b", "alpha", "beta", "x_out", "y_out")


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


def pair_spec(j, p, scope=bc.PRScope()):
    """Weight p on the catalogue's pair-j "+" strategy and 1-p on its "-"."""
    plus = bc.STRATEGY_NAMES[2 * (j - 1)]
    minus = bc.STRATEGY_NAMES[2 * (j - 1) + 1]
    return bc.ResourceSpec.from_mapping({plus: p, minus: 1.0 - p}, scope=scope)


def pair_box(j, p, scope=bc.PRScope()):
    return bc.resource_box(pair_spec(j, p, scope))


def trial_records(spec, x_hat, y_hat, n_trials, seed):
    """The chunk kernel's per-trial arrays over all chunks, by field name.

    These are exactly the trials that `chunk_xor_counts` counts.
    """
    parts = list(simulate._chunks(spec, x_hat, y_hat, n_trials, seed))
    return SimpleNamespace(**{name: np.concatenate([p[j] for p in parts])
                              for j, name in enumerate(TRIAL_FIELDS)})


def reconstruct(dec):
    """The box a decomposition's weights mix from its strategies."""
    return bc.mixtures(list(dec.weights.values()), bc.strategy_boxes(list(dec.weights)))


def lp_matrices():
    """(A_eq, one-way mask) of the 112-vertex LP: cell rows plus a weight-sum row."""
    columns = decompose.VERTEX_BOXES.reshape(len(decompose.VERTICES), 16).T
    oneway = np.array([0.0 if s.kind == "local" else 1.0 for s in decompose.VERTICES])
    return np.vstack([columns, np.ones((1, columns.shape[1]))]), oneway
