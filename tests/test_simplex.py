"""LP solver checked against hand solutions and scipy.optimize.linprog."""

import numpy as np
import pytest
from scipy.optimize import linprog

import boxcomp as bc
from _helpers import lp_matrices, random_feasible_box
from boxcomp import decompose, simplex
from boxcomp.simplex import solve_lp


def test_tiny_known_lp():
    # min x0 + x1 with x0 + 2 x1 = 4, x0, x1 >= 0: optimum at (0, 2)
    x, value = solve_lp([1.0, 1.0], [[1.0, 2.0]], [4.0])
    assert abs(value - 2.0) <= 1e-12
    assert np.allclose(x, [0.0, 2.0], atol=1e-12)


def test_degenerate_redundant_rows():
    # second row repeats the first; third is their sum
    a = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]
    b = [1.0, 1.0, 2.0]
    x, value = solve_lp([0.0, 1.0, 5.0], a, b)
    assert abs(value - 0.0) <= 1e-12
    assert abs(x[0] - 1.0) <= 1e-12


def test_infeasible_lp():
    with pytest.raises(bc.Infeasible):
        solve_lp([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    with pytest.raises(bc.Infeasible):
        solve_lp([0.0], [[1.0]], [-1.0])  # x = -1 impossible for x >= 0


def test_negative_rhs_rows_are_handled():
    # -x0 - x1 = -3 is x0 + x1 = 3
    x, value = solve_lp([2.0, 1.0], [[-1.0, -1.0]], [-3.0])
    assert abs(value - 3.0) <= 1e-12
    assert np.allclose(x, [0.0, 3.0], atol=1e-12)


def _random_instance(rng, feasible):
    m = int(rng.integers(2, 9))
    n = int(rng.integers(m, 20))
    a = rng.normal(size=(m, n))
    if feasible:
        x0 = np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
        b = a @ x0
    else:
        b = rng.normal(size=m)
    c = rng.normal(size=n)
    return c, a, b


def test_agrees_with_scipy_on_random_instances():
    rng = np.random.default_rng(31)
    checked = 0
    for trial in range(200):
        c, a, b = _random_instance(rng, feasible=trial % 2 == 0)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        if ref.status == 3:
            continue  # unbounded: our solver targets bounded polytopes only
        if ref.status == 2:
            with pytest.raises(bc.Infeasible):
                solve_lp(c, a, b)
            continue
        assert ref.status == 0
        x, value = solve_lp(c, a, b)
        assert abs(value - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))
        assert np.abs(a @ x - b).max() <= 1e-7
        assert x.min() >= -1e-12
        checked += 1
    assert checked >= 50


def test_box_polytope_instances_match_scipy():
    rng = np.random.default_rng(32)
    a, oneway = lp_matrices()
    for _ in range(30):
        box, _ = random_feasible_box(rng)
        b = np.append(box.p.ravel(), 1.0)
        x, value = solve_lp(oneway, a, b)
        ref = linprog(oneway, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert abs(value - ref.fun) <= 1e-8
        assert np.abs(a @ x - b).max() <= 1e-9


def _counted_runs(monkeypatch):
    runs = []

    def counted(*args):
        runs.append(1)
        return run(*args)

    run = simplex._run
    monkeypatch.setattr(simplex, "_run", counted)
    return runs


def test_an_infeasible_lp_is_refused_after_phase_1(monkeypatch):
    # a two-way box lies outside the 1-bit polytope: phase 1 ends with a residual
    # of 5, and phase 2 never runs
    two_way = bc.strategy_box(bc.scope_strategies()[8])
    runs = _counted_runs(monkeypatch)
    with pytest.raises(bc.Infeasible) as refused:
        solve_lp(decompose._ONEWAY, decompose._A_EQ, np.append(two_way.p.ravel(), 1.0))
    assert len(runs) == 1
    assert str(refused.value) == "phase-1 residual 5.000e+00 exceeds 1.0e-09"
