"""Phase-1 LP solver checked against hand solutions and scipy.optimize.linprog."""

import numpy as np
import pytest
from scipy.optimize import linprog

import boxcomp as bc
from _helpers import lp_matrices, random_feasible_box
from boxcomp import decompose, simplex
from boxcomp.simplex import solve_lp


def _assert_fits(x, a, b, tol=1e-12):
    assert x.min() >= 0.0
    assert np.abs(np.asarray(a) @ x - b).max() <= tol


def test_tiny_known_lp():
    # x0 + 2 x1 = 4, x0, x1 >= 0: Bland's rule enters x0 first and stops at (4, 0)
    x = solve_lp([[1.0, 2.0]], [4.0])
    assert x.tolist() == [4.0, 0.0]


def test_degenerate_redundant_rows():
    # second row repeats the first; third is their sum; two artificials stay basic at 0
    a = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]
    b = [1.0, 1.0, 2.0]
    x = solve_lp(a, b)
    _assert_fits(x, a, b)
    assert x[2] == 0.0


def _least_violation(a, b):
    """HiGHS's least total violation of A x = b: min 1's over A x + s = b, x, s >= 0."""
    m, n = a.shape
    ref = linprog(np.append(np.zeros(n), np.ones(m)), A_eq=np.hstack([a, np.eye(m)]), b_eq=b,
                  bounds=(0, None), method="highs")
    assert ref.status == 0
    return ref.fun


def _assert_least_violation(x, a, b, tol=1e-7):
    """x >= 0 overshoots no row of b, and its total shortfall is HiGHS's least, returned."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    least = _least_violation(a, b)
    assert x.min() >= 0.0
    assert (a @ x - b).max() <= tol
    assert abs((b - a @ x).sum() - least) <= tol
    return least


def test_infeasible_lp():
    # no x >= 0 solves these: phase 1 returns the point of least total violation
    a, b = [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0]
    x = solve_lp(a, b)
    _assert_least_violation(x, a, b)
    assert x.sum() == 1.0
    # -x = 1, the b >= 0 form of x = -1: x = 0 falls short by 1
    assert solve_lp([[-1.0]], [1.0]).tolist() == [0.0]


def _random_instance(rng, feasible):
    m = int(rng.integers(2, 9))
    n = int(rng.integers(m, 20))
    a = rng.normal(size=(m, n))
    if feasible:
        x0 = np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
        b = a @ x0
    else:
        b = rng.normal(size=m)
    # solve_lp takes b >= 0: the rows with b < 0 are negated, which keeps every solution
    flip = b < 0.0
    a[flip] *= -1.0
    return a, np.abs(b)


def test_agrees_with_scipy_on_random_instances():
    # the shortfall is HiGHS's least violation, and where that is 0 the x fits
    rng = np.random.default_rng(31)
    verdicts = {True: 0, False: 0}
    for trial in range(200):
        a, b = _random_instance(rng, feasible=trial % 2 == 0)
        x = solve_lp(a, b)
        feasible = _assert_least_violation(x, a, b) <= 1e-9
        if feasible:
            _assert_fits(x, a, b, tol=1e-7)
        verdicts[feasible] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 25, verdicts


def test_box_polytope_instances_match_scipy():
    # min_comm_cost's one-way weight total is HiGHS's optimum of the 112-vertex LP,
    # an oracle for C that does not read the tables
    rng = np.random.default_rng(32)
    a, oneway = lp_matrices()
    vertices = decompose.VERTEX_BOXES
    boxes = [random_feasible_box(rng)[0] for _ in range(30)]
    for _ in range(30):
        k = int(rng.integers(2, 5))
        support = rng.choice(len(vertices), size=k, replace=False)
        boxes.append(bc.mix(rng.dirichlet(np.ones(k)), vertices[support]))
    for box in boxes:
        dec = bc.min_comm_cost(box)
        ref = linprog(oneway, A_eq=a, b_eq=np.append(box.p.ravel(), 1.0), bounds=(0, None),
                      method="highs")
        assert ref.status == 0
        assert abs(sum(w for s, w in dec.weights.items() if s.kind != "local") - ref.fun) <= 1e-8
        assert abs(dec.C - ref.fun) <= 1e-8


def _counted_runs(monkeypatch):
    runs = []

    def counted(*args):
        runs.append(1)
        return run(*args)

    run = simplex._run
    monkeypatch.setattr(simplex, "_run", counted)
    return runs


def test_an_infeasible_box_is_refused_before_phase_1(monkeypatch):
    # a two-way box lies outside the 1-bit polytope: a facet row refuses it, and no
    # phase-1 pivot runs
    two_way = bc.strategy_box(bc.scope_strategies()[8])
    runs = _counted_runs(monkeypatch)
    with pytest.raises(bc.Infeasible, match="^facet row value 1.000e[+]00 exceeds 1.0e-09$"):
        bc.min_comm_cost(two_way)
    assert runs == []
