"""Reference computations for checking boxcomp's outputs, independent of it.

Nothing here imports boxcomp.  Deterministic strategies and PR-type
catalogues are enumerated from their definitions, the measures are
recomputed with numpy from the raw probability table, and the communication
cost C is solved with scipy's HiGHS solver over the benchmark's own vertex
set.  Tables are indexed [x][y][a][b]; a strategy is a pair of response
tables (fa, fb) listed over the input pairs (0,0), (0,1), (1,0), (1,1).
"""

from __future__ import annotations

import itertools

import numpy as np

PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
BITS4 = tuple(itertools.product((0, 1), repeat=4))


def strategy_table(fa, fb):
    p = np.zeros((2, 2, 2, 2))
    for i, (x, y) in enumerate(PAIRS):
        p[x, y, fa[i], fb[i]] = 1.0
    return p


def kind(fa, fb):
    a_reads_y = fa[0] != fa[1] or fa[2] != fa[3]
    b_reads_x = fb[0] != fb[2] or fb[1] != fb[3]
    if a_reads_y and b_reads_x:
        return "two_way"
    if a_reads_y:
        return "signal_B_to_A"
    if b_reads_x:
        return "signal_A_to_B"
    return "local"


# the 16 local and 96 one-way deterministic strategies: the 1-bit polytope's vertices
VERTICES = [(fa, fb) for fa in BITS4 for fb in BITS4 if kind(fa, fb) != "two_way"]
VERTEX_CELLS = np.stack([strategy_table(*s).ravel() for s in VERTICES], axis=1)
ONE_WAY = np.array([0.0 if kind(*s) == "local" else 1.0 for s in VERTICES])
LOCAL = [i for i, s in enumerate(VERTICES) if kind(*s) == "local"]

# the one-way half of the canonical catalogue (relation a xor b = x y), by the
# names `decompose --format json` prints for them
NAMED = {
    "S1+": ((0, 0, 0, 0), (0, 0, 0, 1)), "S1-": ((1, 1, 1, 1), (1, 1, 1, 0)),
    "S2+": ((0, 0, 0, 1), (0, 0, 0, 0)), "S2-": ((1, 1, 1, 0), (1, 1, 1, 1)),
    "S3+": ((0, 0, 1, 1), (0, 0, 1, 0)), "S3-": ((1, 1, 0, 0), (1, 1, 0, 1)),
    "S4+": ((0, 1, 0, 0), (0, 1, 0, 1)), "S4-": ((1, 0, 1, 1), (1, 0, 1, 0)),
}


def catalogue(scope):
    """The 16 strategies obeying a xor b = x y xor mu1 x xor mu2 y xor mu3, by kind."""
    mu1, mu2, mu3 = scope
    out = {"one_way": [], "two_way": []}
    for fa in BITS4:
        fb = tuple(fa[i] ^ (x & y) ^ (mu1 & x) ^ (mu2 & y) ^ mu3
                   for i, (x, y) in enumerate(PAIRS))
        out["two_way" if kind(fa, fb) == "two_way" else "one_way"].append((fa, fb))
    return out


def measures(p):
    """CHSH, sign-maximized CHSH, signal strength S and indeterminacy I of a table."""
    p = np.asarray(p, dtype=np.float64)
    e = p[:, :, 0, 0] + p[:, :, 1, 1] - p[:, :, 0, 1] - p[:, :, 1, 0]
    pa = p.sum(axis=3)  # [x, y, a]
    pb = p.sum(axis=2)  # [x, y, b]
    s_ab = np.abs(pb[1] - pb[0]).max()
    s_ba = np.abs(pa[:, 1] - pa[:, 0]).max()
    return {
        "lambda": float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]),
        "lambda_max": float(np.abs(e.sum() - 2.0 * e).max()),
        "S": float(max(s_ab, s_ba)),
        "I": float(np.minimum(pa.min(axis=2), pb.min(axis=2)).max()),
    }


def comm_cost(p):
    """Least one-way weight over decompositions into VERTICES, or None if infeasible."""
    from scipy.optimize import linprog

    a_eq = np.vstack([VERTEX_CELLS, np.ones((1, VERTEX_CELLS.shape[1]))])
    b_eq = np.append(np.asarray(p, dtype=np.float64).ravel(), 1.0)
    res = linprog(ONE_WAY, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def parse_strategy(text):
    """A decomposition row's strategy: a catalogue name or an "ab,ab,ab,ab" table."""
    if text in NAMED:
        return NAMED[text]
    parts = text.split(",")
    return tuple(int(t[0]) for t in parts), tuple(int(t[1]) for t in parts)
