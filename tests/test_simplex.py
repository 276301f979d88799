"""LP solver checked against hand solutions and scipy.optimize.linprog."""

import re

import numpy as np
import pytest
from scipy.optimize import linprog

import boxcomp as bc
from _helpers import lp_matrices
from boxcomp import decompose
from boxcomp.simplex import CHUNK, solve_lp


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
        box, _ = bc.random_feasible_box(rng)
        b = np.append(box.p.ravel(), 1.0)
        x, value = solve_lp(oneway, a, b)
        ref = linprog(oneway, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert abs(value - ref.fun) <= 1e-8
        assert np.abs(a @ x - b).max() <= 1e-9


def _solve_each(c, a, stack):
    """solve_lp on each right-hand side alone: its (x, value), or the error it raised."""
    out = []
    for b in stack:
        try:
            out.append(solve_lp(c, a, b))
        except (bc.Infeasible, bc.NumericalError) as exc:
            out.append(exc)
    return out


def _assert_stack_is_each(c, a, stack):
    """The lockstep stack gives every LP's own answer bit for bit, or its first error."""
    alone = _solve_each(c, a, stack)
    failed = [k for k, r in enumerate(alone) if isinstance(r, Exception)]
    if failed:
        k = failed[0]
        with pytest.raises(type(alone[k]), match=f"^stack index {k}: {re.escape(str(alone[k]))}$"):
            solve_lp(c, a, stack)
        return False
    x, values = solve_lp(c, a, stack)
    assert x.shape == (len(stack), len(c)) and values.shape == (len(stack),)
    for k, (x_k, value_k) in enumerate(alone):
        assert np.array_equal(x[k], x_k) and x[k].tobytes() == x_k.tobytes(), k
        assert values[k] == value_k, k
    return True


def _sparse_box(rng):
    k = int(rng.integers(1, 5))
    vertices = rng.choice(len(decompose.VERTICES), size=k, replace=False)
    return bc.mixtures(rng.dirichlet(np.ones(k)), decompose.VERTEX_BOXES[vertices])


def test_stack_matches_per_box_solves_bit_for_bit():
    rng = np.random.default_rng(33)
    a, oneway = lp_matrices()
    dense = [bc.random_feasible_box(rng)[0].p for _ in range(200)]
    sparse = [_sparse_box(rng) for _ in range(60)]
    named = [box for scope in bc.all_scopes() for box in bc.scope_boxes(scope)[:8]]
    named += [bc.pr_box(scope).p for scope in bc.all_scopes()]
    for boxes in (dense, sparse, named):
        stack = np.hstack([np.reshape(boxes, (-1, 16)), np.ones((len(boxes), 1))])
        for size in (1, CHUNK, CHUNK + 1, 200):
            assert _assert_stack_is_each(oneway, a, stack[:size])


def test_stack_matches_per_lp_solves_on_shared_random_matrices():
    # a bounded polytope (a weight-sum row) whose other rows have negative right-hand sides;
    # every fourth instance drops the weight-sum row, so some of its members are unbounded
    rng = np.random.default_rng(34)
    solved = 0
    for trial in range(40):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(m + 1, 20))
        a = np.vstack([rng.normal(size=(m, n)), np.ones((1, n))])
        if trial % 4 == 2:
            a = a[:-1]
        c = rng.normal(size=n)
        k = int(rng.integers(1, 40))
        x0 = np.where(rng.random((k, n)) < 0.5, 0.0, rng.random((k, n)))
        stack = x0 @ a.T
        if trial % 4 == 3:  # off the polytope: some members are infeasible
            stack[::3, 0] += 10.0
        assert (stack < 0.0).any()
        solved += _assert_stack_is_each(c, a, stack)
    assert solved >= 20, solved


def test_stack_names_its_infeasible_member():
    rng = np.random.default_rng(35)
    a, oneway = lp_matrices()
    boxes = [bc.random_feasible_box(rng)[0].p for _ in range(2 * CHUNK)]
    two_way = bc.strategy_box(bc.scope_strategies()[8]).p
    for size, k in ((2 * CHUNK, 0), (2 * CHUNK, 5), (2 * CHUNK, CHUNK + 3), (CHUNK + 1, CHUNK), (1, 0)):
        stack = np.hstack([np.reshape(boxes[:size], (-1, 16)), np.ones((size, 1))])
        stack[k, :16] = two_way.ravel()
        with pytest.raises(bc.Infeasible, match=f"^stack index {k}: phase-1 residual"):
            solve_lp(oneway, a, stack)


def test_stack_names_its_first_failing_member_whichever_phase_fails():
    # x0 - x1 = b0, x2 = b1, min -x0: b = (0, 1) is feasible but unbounded (phase 2),
    # b = (0, -1) infeasible (phase 1).  Under one A and c every feasible member is
    # unbounded or none is, so such a stack holds no solvable member.
    c, a = [-1.0, 0.0, 0.0], [[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(bc.NumericalError, match="^stack index 0: unbounded direction"):
        solve_lp(c, a, [[0.0, 1.0], [0.0, -1.0]])
    with pytest.raises(bc.Infeasible, match="^stack index 0: phase-1 residual"):
        solve_lp(c, a, [[0.0, -1.0], [0.0, 1.0]])
