"""Minimum-communication decompositions, resource specs, and signed signals."""

import collections
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import boxcomp as bc
from boxcomp import decompose
from _helpers import (lp_matrices, pair_spec, random_feasible_box, random_resource_spec,
                      reconstruct, tsirelson_box)

SQRT2 = math.sqrt(2.0)

# the LP's column order ("ab" per input pair), on which Bland's rule and so every
# reported decomposition depend
VERTEX_TABLES = """
    00,00,00,00 00,01,00,01 01,00,01,00 01,01,01,01 00,00,10,10 00,01,10,11
    01,00,11,10 01,01,11,11 10,10,00,00 10,11,00,01 11,10,01,00 11,11,01,01
    10,10,10,10 10,11,10,11 11,10,11,10 11,11,11,11 00,00,00,01 00,00,01,00
    00,00,01,01 00,01,00,00 00,01,01,00 00,01,01,01 01,00,00,00 01,00,00,01
    01,00,01,01 01,01,00,00 01,01,00,01 01,01,01,00 00,00,10,11 00,00,11,10
    00,00,11,11 00,01,10,10 00,01,11,10 00,01,11,11 01,00,10,10 01,00,10,11
    01,00,11,11 01,01,10,10 01,01,10,11 01,01,11,10 10,10,00,01 10,10,01,00
    10,10,01,01 10,11,00,00 10,11,01,00 10,11,01,01 11,10,00,00 11,10,00,01
    11,10,01,01 11,11,00,00 11,11,00,01 11,11,01,00 10,10,10,11 10,10,11,10
    10,10,11,11 10,11,10,10 10,11,11,10 10,11,11,11 11,10,10,10 11,10,10,11
    11,10,11,11 11,11,10,10 11,11,10,11 11,11,11,10 00,00,00,10 00,01,00,11
    01,00,01,10 01,01,01,11 00,00,10,00 00,01,10,01 01,00,11,00 01,01,11,01
    00,10,00,00 00,11,00,01 01,10,01,00 01,11,01,01 00,10,00,10 00,11,00,11
    01,10,01,10 01,11,01,11 00,10,10,00 00,11,10,01 01,10,11,00 01,11,11,01
    00,10,10,10 00,11,10,11 01,10,11,10 01,11,11,11 10,00,00,00 10,01,00,01
    11,00,01,00 11,01,01,01 10,00,00,10 10,01,00,11 11,00,01,10 11,01,01,11
    10,00,10,00 10,01,10,01 11,00,11,00 11,01,11,01 10,00,10,10 10,01,10,11
    11,00,11,10 11,01,11,11 10,10,00,10 10,11,00,11 11,10,01,10 11,11,01,11
    10,10,10,00 10,11,10,01 11,10,11,00 11,11,11,01
""".split()


def test_vertex_order_is_pinned():
    assert [s.table_str() for s in decompose.VERTICES] == VERTEX_TABLES


def test_local_box_costs_nothing():
    for s in bc.enumerate_deterministic("local")[:6]:
        dec = bc.min_comm_cost(bc.strategy_box(s))
        assert dec.C == 0.0
        assert np.array_equal(reconstruct(dec), bc.strategy_box(s).p)


def test_pr_box_costs_one_bit():
    dec = bc.min_comm_cost(bc.pr_box())
    assert abs(dec.C - 1.0) <= 1e-9
    assert bc.min_comm_cost(bc.pr_box().p) == dec  # a bare array is read as its box
    with pytest.raises(bc.BoxFormatError):
        bc.min_comm_cost(bc.pr_box().p[0])
    with pytest.raises(bc.BoxInvariantError):
        bc.min_comm_cost(2.0 * bc.pr_box().p)
    assert all(s.kind != "two_way" for s in dec.weights)
    assert np.abs(reconstruct(dec) - bc.pr_box().p).max() <= 1e-9
    for scope in bc.all_scopes():
        assert abs(bc.min_comm_cost(bc.pr_box(scope)).C - 1.0) <= 1e-9


def test_tsirelson_box_cost_is_sqrt2_minus_one():
    dec = bc.min_comm_cost(tsirelson_box())
    assert abs(dec.C - (SQRT2 - 1.0)) <= 1e-9


def test_two_way_box_is_infeasible():
    for s in bc.scope_strategies()[8:]:
        with pytest.raises(bc.Infeasible):
            bc.min_comm_cost(bc.strategy_box(s))


def _mixture(rng, pool):
    """A Dirichlet mixture of 2-13 distinct boxes of a stack."""
    k = int(rng.integers(2, 14))
    return bc.CorrelationBox(bc.mixtures(rng.dirichlet(np.ones(k)),
                                         pool[rng.choice(len(pool), size=k, replace=False)]))


def _cost_or_none(cost, box):
    """cost(box), or None when it raises Infeasible."""
    try:
        return cost(box)
    except bc.Infeasible:
        return None


def test_comm_cost_many_is_min_comm_cost_per_box():
    # within 1e-12, not bit for bit: the tables' sums do not replay the LP's pivots
    rng = np.random.default_rng(47)
    boxes = [random_feasible_box(rng)[0] for _ in range(400)] + [tsirelson_box()]
    boxes += [_mixture(rng, decompose.VERTEX_BOXES) for _ in range(600)]
    costs = bc.comm_cost_many(boxes)
    assert costs.shape == (len(boxes),)
    assert max(abs(c - bc.min_comm_cost(box).C) for c, box in zip(costs, boxes)) <= 1e-12
    assert bc.comm_cost_many(np.stack([box.p for box in boxes])).tolist() == costs.tolist()
    assert bc.comm_cost_many([]).shape == (0,)

    # feasibility is the LP's, also on mixtures that include two-way strategies
    every = bc.strategy_boxes([s for kind in ("local", "all_one_bit", "two_way")
                               for s in bc.enumerate_deterministic(kind)])
    verdicts = collections.Counter()
    for box in (_mixture(rng, every) for _ in range(300)):
        lp = _cost_or_none(lambda b: bc.min_comm_cost(b).C, box)
        table = _cost_or_none(lambda b: bc.comm_cost_many([b])[0], box)
        assert (lp is None) == (table is None)
        assert lp is None or abs(lp - table) <= 1e-12
        verdicts[lp is None] += 1
    assert min(verdicts.values()) >= 30, verdicts

    # exact on the PR boxes, the one-way catalogue strategies and the local vertices
    pr = [bc.pr_box(scope) for scope in bc.all_scopes()]
    one_way = [box for scope in bc.all_scopes() for box in bc.scope_boxes(scope)[:8]]
    assert bc.comm_cost_many(pr + one_way).tolist() == [1.0] * 72
    assert bc.comm_cost_many(decompose.VERTEX_BOXES[:16]).tolist() == [0.0] * 16

    two_way = bc.strategy_box(bc.scope_strategies()[8])
    with pytest.raises(bc.Infeasible, match="^stack index 17: "):
        bc.comm_cost_many(boxes[:17] + [two_way] + boxes[17:])
    with pytest.raises(bc.DomainError):
        bc.comm_cost_many(boxes, tol=1.0)
    with pytest.raises(bc.BoxInvariantError):
        bc.comm_cost_many([2.0 * bc.pr_box().p])


def _near_boundary_boxes(rng, tol, n):
    """n mixtures of 1 to 3 of the 112 vertices, with weight eps in [1e-3 tol, 2 tol] moved
    onto a two-way vertex, as one stack: about 3% of them lie more than tol outside."""
    vertices = decompose.VERTEX_BOXES
    two_way = bc.strategy_boxes(bc.enumerate_deterministic("two_way"))
    w = np.zeros((n, len(vertices) + len(two_way)))
    for row in w:
        k = int(rng.integers(1, 4))
        eps = tol * 10.0 ** rng.uniform(-3.0, math.log10(2.0))
        row[rng.choice(len(vertices), size=k, replace=False)] = (1.0 - eps) * rng.dirichlet(
            np.ones(k))
        row[len(vertices) + int(rng.integers(len(two_way)))] = eps
    return bc.mixtures(w, np.concatenate([vertices, two_way]))


def test_decompose_gives_the_verdict_and_c_of_analyze_near_the_boundary():
    # the facet rows alone decide: min_comm_cost refuses exactly the boxes the report calls
    # infeasible, and decomposes every other box within tol, with the report's C
    rng = np.random.default_rng(2029)
    for tol in (1e-12, 1e-9, 1e-3):
        verdicts = collections.Counter()
        for p in _near_boundary_boxes(rng, tol, 600):
            report = bc.complementarity_report(p, tol)
            try:
                dec = bc.min_comm_cost(p, tol)
            except bc.Infeasible:
                assert not report.feasible
                verdicts["infeasible"] += 1
                continue
            assert report.feasible and dec.C.hex() == report.C_min.hex()
            columns = [decompose.VERTICES.index(s) for s in dec.weights]
            x = np.array(list(dec.weights.values()))
            assert np.abs(decompose._COLUMNS[:, columns] @ x - p.ravel()).max() <= tol
            # the weights fit the box pulled into the polytope, so their one-way total misses
            # C by up to a few tol: at most 2.43 tol over 20,000 such boxes per tol
            assert abs(decompose._ONEWAY[columns] @ x - dec.C) <= 2.5 * tol
            verdicts["decomposed"] += 1
        assert verdicts["decomposed"] >= 500 and verdicts["infeasible"] >= 5, (tol, verdicts)


def _two_way_blends(rng, n):
    """n boxes (1 - t) q + t v, as one stack: q a random 1-bit box or one of the 112 vertices
    (half each), t uniform in [0, 1) and v one of the two-way vertices."""
    vertices = decompose.VERTEX_BOXES
    two_way = bc.strategy_boxes(bc.enumerate_deterministic("two_way"))
    q = np.where((rng.random(n) < 0.5)[:, None], rng.dirichlet(np.ones(len(vertices)), size=n),
                 np.eye(len(vertices))[rng.integers(len(vertices), size=n)])
    t = rng.random(n)[:, None]
    v = np.eye(len(two_way))[rng.integers(len(two_way), size=n)]
    return bc.mixtures(np.hstack([(1.0 - t) * q, t * v]), np.concatenate([vertices, two_way]))


def test_a_box_decomposes_at_tol_its_own_largest_facet_value():
    # the facet rows accept a box at --tol = its largest facet row value, so min_comm_cost
    # must decompose it with the report's C, within tol and 8 ulps of 1.0.  Phase 1 on the
    # box itself missed it by more than that on 6 of these 1,097 boxes; on the box pulled
    # onto the polytope toward the uniform box it misses it by less than the facet value
    decomposed = 0
    for p in _two_way_blends(np.random.default_rng(7), 8000):
        tol = float(decompose._values(p.reshape(1, 16), decompose._FACET_T,
                                      decompose._FACET_K).max())
        if not 0.0 < tol <= 0.2:
            continue
        dec = bc.min_comm_cost(p, tol)
        assert dec.C.hex() == bc.complementarity_report(p, tol).C_min.hex()
        columns = [decompose.VERTICES.index(s) for s in dec.weights]
        x = np.array(list(dec.weights.values()))
        miss = np.abs(decompose._COLUMNS[:, columns] @ x - p.ravel()).max()
        assert miss <= tol + 8.0 * math.ulp(1.0)
        decomposed += 1
    assert decomposed == 1097


def test_decomposition_structure():
    rng = np.random.default_rng(41)
    box, _ = random_feasible_box(rng)
    dec = bc.min_comm_cost(box)
    oneway = sum(w for s, w in dec.weights.items() if s.kind != "local")
    assert abs(oneway - dec.C) <= 1e-12
    assert abs(sum(dec.weights.values()) - 1.0) <= 1e-9
    assert min(dec.weights.values()) > 0.0
    assert np.abs(reconstruct(dec) - box.p).max() <= 1e-9
    data = dec.to_json()
    assert set(data) == {"C", "weights"}
    assert all(set(row) == {"strategy", "kind", "w"} for row in data["weights"])


def test_cost_never_exceeds_generating_weight():
    rng = np.random.default_rng(42)
    for _ in range(150):
        box, generated = random_feasible_box(rng)
        dec = bc.min_comm_cost(box)
        assert dec.C <= generated + 1e-9


def test_cost_matches_scipy_oracle():
    rng = np.random.default_rng(43)
    a, oneway = lp_matrices()
    for _ in range(50):
        box, _ = random_feasible_box(rng)
        dec = bc.min_comm_cost(box)
        ref = linprog(oneway, A_eq=a, b_eq=np.append(box.p.ravel(), 1.0),
                      bounds=(0, None), method="highs")
        assert ref.status == 0
        assert abs(dec.C - ref.fun) <= 1e-8


def test_pironio_bound_values():
    assert bc.pironio_bound(bc.chsh_max(bc.pr_box())) == 1.0
    zero = bc.DeterministicStrategy((0, 0, 0, 0), (0, 0, 0, 0))
    assert bc.pironio_bound(bc.chsh_max(bc.strategy_box(zero))) == 0.0
    assert abs(bc.pironio_bound(bc.chsh_max(tsirelson_box())) - (SQRT2 - 1.0)) <= 1e-12
    for bad in (-0.5, 4.5, math.nan):
        with pytest.raises(bc.DomainError):
            bc.pironio_bound(bad)
    assert bc.pironio_bound(bc.chsh_max(np.empty((0, 2, 2, 2, 2)))).shape == (0,)


def test_cost_dominates_pironio_bound():
    rng = np.random.default_rng(44)
    for _ in range(200):
        box, _ = random_feasible_box(rng)
        assert bc.min_comm_cost(box).C >= bc.pironio_bound(bc.chsh_max(box)) - 1e-9


def test_cost_complementarity_on_random_boxes():
    rng = np.random.default_rng(45)
    for _ in range(200):
        box, _ = random_feasible_box(rng)
        dec = bc.min_comm_cost(box)
        slack = bc.signal(box).S + 2.0 * bc.indeterminacy(box) - dec.C
        assert slack >= -1e-9


def test_resource_box_examples():
    table = bc.scope_strategies()
    spec = bc.ResourceSpec.from_mapping({"S1+": 1.0})
    assert bc.resource_box(spec) == bc.strategy_box(table[0])
    spec = bc.ResourceSpec.from_mapping({"S1+": 0.5, "S1-": 0.5})
    assert bc.resource_box(spec) == bc.pr_box()
    box = bc.resource_box(pair_spec(1, 0.75))
    assert box.p[1, 1, 0, 1] == 0.75
    assert box.p[1, 1, 1, 0] == 0.25


def test_resource_spec_validation():
    with pytest.raises(bc.WeightError):
        bc.ResourceSpec(scope=bc.PRScope(), weights=(1.0,) * 15)
    with pytest.raises(bc.WeightError):
        bc.ResourceSpec.from_mapping({"S1+": 0.5, "S1-": 0.6})
    with pytest.raises(bc.WeightError):
        bc.ResourceSpec.from_mapping({"S1+": 1.5, "S1-": -0.5})
    with pytest.raises(bc.WeightError):
        bc.ResourceSpec.from_mapping({"S9+": 1.0})
    # a sum that mixing could not turn into a box is refused when the spec is made
    with pytest.raises(bc.WeightError):
        bc.ResourceSpec.parse("S1+:0.5,S1-:0.5000000001")
    with pytest.raises(bc.WeightError):  # a sum past float range
        bc.ResourceSpec.parse("S1+:1e308,S1-:1e308")
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(bc.WeightError):
            bc.ResourceSpec.from_mapping({"S1+": bad, "S1-": 1.0})


def test_resource_spec_refuses_a_scope_that_is_not_a_prscope():
    # a label, a tuple of bits or None would reach resource_box as a KeyError,
    # and chunk_xor_counts would count it; the spec refuses it when made
    weights = (1.0 / 16.0,) * 16
    for scope in ("000", (0, 1, 1), None, 0):
        with pytest.raises(bc.DomainError, match="PRScope"):
            bc.ResourceSpec(scope=scope, weights=weights)
        with pytest.raises(bc.DomainError, match="PRScope"):
            bc.ResourceSpec.from_mapping({"S1+": 1.0}, scope=scope)
    assert bc.ResourceSpec(scope=bc.PRScope(0, 1, 1), weights=weights).scope == bc.PRScope(0, 1, 1)


def test_resource_spec_parse_and_format():
    spec = bc.ResourceSpec.parse("scope=000;S1+:0.75,S1-:0.25")
    assert spec.scope == bc.PRScope()
    assert spec.weights[bc.STRATEGY_NAMES.index("S1+")] == 0.75
    assert spec.one_way_support
    # the compact form round-trips: reordered items and spaces spell the same spec
    assert bc.ResourceSpec.parse(" scope=000; S1-:0.25 , S1+:0.75 ") == spec

    spec = bc.ResourceSpec.parse("S5+:0.5,S5-:0.5")  # scope defaults to 000
    assert not spec.one_way_support

    spec = bc.ResourceSpec.parse("scope=101;S2+:1.0")
    assert spec.scope == bc.PRScope(1, 0, 1)

    for text in ("", "scope=000", "S1+", "S1+:x", "S1+:0.5,S1+:0.5", "bad=000;S1+:1",
                 "S1+:nan,S1-:1", "S1+:inf,S1-:1"):
        with pytest.raises(bc.WeightError):
            bc.ResourceSpec.parse(text)
    with pytest.raises(bc.DomainError):
        bc.ResourceSpec.parse("scope=21;S1+:1.0")


def test_signed_signals_examples():
    uniform = bc.ResourceSpec(scope=bc.PRScope(), weights=(1.0 / 16.0,) * 16)
    assert bc.signed_signals(uniform).as_tuple() == (0.0, 0.0, 0.0, 0.0)
    # b = x*y alone: only the y=1 channel from A to B carries signal
    assert bc.signed_signals(bc.ResourceSpec.from_mapping({"S1+": 1.0})).as_tuple() == (0.0, 1.0, 0.0, 0.0)
    # b = x(1+y): flipping x moves B's marginal only at y=0
    assert bc.signed_signals(bc.ResourceSpec.from_mapping({"S3+": 1.0})).as_tuple() == (1.0, 0.0, 0.0, 0.0)
    assert bc.signed_signals(bc.ResourceSpec.from_mapping({"S1-": 1.0})).as_tuple() == (0.0, -1.0, 0.0, 0.0)
    assert bc.signed_signals(pair_spec(1, 0.75)).as_tuple() == (0.0, 0.5, 0.0, 0.0)


def test_signed_signals_match_measured_signals():
    rng = np.random.default_rng(46)
    for scope in (bc.PRScope(), bc.PRScope(0, 1, 1)):
        for _ in range(150):
            spec = random_resource_spec(rng, scope=scope)
            rep = bc.signal(bc.resource_box(spec))
            ss = bc.signed_signals(spec)
            measured = (rep.s_A_to_B_per_y[0], rep.s_A_to_B_per_y[1],
                        rep.s_B_to_A_per_x[0], rep.s_B_to_A_per_x[1])
            for signed, direct in zip(ss.as_tuple(), measured):
                assert abs(abs(signed) - direct) <= 1e-12
    # with sign: the shifts of the canonical-scope box with the same weights,
    # and on the spec's own box s2, s3, s4 flip when mu2, mu3, mu1^mu3 is 1
    for scope in bc.all_scopes():
        flips = np.array([1, 1 - 2 * scope.mu2, 1 - 2 * scope.mu3, 1 - 2 * (scope.mu1 ^ scope.mu3)])
        for _ in range(100):
            spec = random_resource_spec(rng, scope=scope)
            ss = np.array(bc.signed_signals(spec).as_tuple())
            canonical = bc.resource_box(bc.ResourceSpec(bc.PRScope(), spec.weights))
            own = bc.resource_box(spec)
            assert np.abs(ss - _signed_shifts(canonical)).max() <= 1e-12
            assert np.abs(flips * ss - _signed_shifts(own)).max() <= 1e-12
            for x, y, a, b, bound in bc.conditional_lower_bounds(spec):
                assert own.p[x, y, a, b] >= bound - 1e-12


def _signed_shifts(box):
    """(s1, s2, s3, s4) of a box: B's P(b=1) at x = 1 minus x = 0 for y = 0, 1,
    then A's P(a=1) at y = 1 minus y = 0 for x = 0, 1."""
    m = bc.marginals(box)[..., 1]
    return np.array([m[1, 1, 0] - m[1, 0, 0], m[1, 1, 1] - m[1, 0, 1],
                     m[0, 0, 1] - m[0, 0, 0], m[0, 1, 1] - m[0, 1, 0]])


def test_conditional_lower_bounds_hold_under_local_noise():
    rng = np.random.default_rng(47)
    locals_ = bc.enumerate_deterministic("local")
    for _ in range(150):
        spec = random_resource_spec(rng)
        c = float(rng.uniform(0.1, 1.0))
        noise = bc.strategy_box(locals_[int(rng.integers(16))])
        box = bc.mix((c, 1.0 - c), (bc.resource_box(spec), noise))
        for x, y, a, b, bound in bc.conditional_lower_bounds(spec, nonlocal_weight=c):
            assert box.p[x, y, a, b] >= bound - 1e-12


def test_conditional_lower_bounds_are_tight_for_pure_specs():
    # with full weight and no noise the two bounds at each setting add to 1,
    # so both are attained exactly by the mixture probabilities
    spec = pair_spec(1, 0.75)
    box = bc.resource_box(spec)
    for x, y, a, b, bound in bc.conditional_lower_bounds(spec):
        assert abs(box.p[x, y, a, b] - bound) <= 1e-12


def test_conditional_lower_bounds_validation():
    with pytest.raises(bc.DomainError):
        bc.conditional_lower_bounds(pair_spec(1, 0.5), nonlocal_weight=1.5)
    with pytest.raises(bc.DomainError):
        bc.conditional_lower_bounds(pair_spec(1, 0.5), nonlocal_weight=math.nan)


def test_spec_entry_points_refuse_what_is_not_a_spec_or_a_weight():
    spec = pair_spec(1, 0.5)
    for weight in ("x", "0.5", None, np.array([0.5, 0.5]), 0.5j):
        with pytest.raises(bc.DomainError, match=re.escape(repr(weight))):
            bc.conditional_lower_bounds(spec, weight)
    for f in (bc.signed_signals, bc.resource_box, bc.conditional_lower_bounds):
        for bad in (None, spec.weights, "S1+:1.0"):
            with pytest.raises(bc.DomainError,
                               match=f"^spec must be a ResourceSpec, got {type(bad).__name__}$"):
                f(bad)
    # a real number of any type is a weight
    for weight in (np.float64(0.25), 1, True):
        assert (bc.conditional_lower_bounds(spec, weight)
                == bc.conditional_lower_bounds(spec, float(weight)))


def _fsum_or_error(row):
    try:
        return math.fsum(row)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _assert_fsum_rows(rows):
    """_fsum_rows of rows is math.fsum of each, bit for bit, or raises what the first
    row whose fsum raises does."""
    want = [_fsum_or_error(row) for row in rows]
    errors = [w for w in want if isinstance(w, type)]
    if errors:
        with pytest.raises(errors[0]):
            decompose._fsum_rows(np.array(rows))
    else:
        assert decompose._fsum_rows(np.array(rows)).tobytes() == np.array(want).tobytes(), rows


_BIG = 2.0**1023
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 2.0**-53, 2.0**-54,
            -(2.0**-54), 0.25, -0.25, 1.0, -1.0, 1.0 + 2.0**-52, _BIG, -_BIG,
            np.finfo(float).max, math.inf, -math.inf)


@st.composite
def _fsum_stacks(draw):
    """1 to 6 rows of n = 1...8 floats: any floats, special values, dyadic values on a
    fine grid, and a value with multiples of a quarter and a half of its spacing."""
    n = draw(st.integers(1, 8))
    base = draw(st.floats(min_value=-1e300, max_value=1e300).filter(lambda v: v != 0.0))
    near_ties = st.sampled_from((-0.5, -0.25, 0.25, 0.5, 1.5)).map(
        lambda f: f * math.ulp(base))
    element = st.one_of(st.floats(), st.sampled_from(_SPECIAL), near_ties, st.just(base),
                        st.integers(-2**60, 2**60).map(lambda k: k * 2.0**-70))
    return draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=1, max_size=6))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(rows=_fsum_stacks())
def test_fsum_rows_is_math_fsum(rows):
    _assert_fsum_rows(rows)


def test_fsum_rows_is_math_fsum_on_ties_signs_zeros_and_overflow():
    m = np.finfo(float).max
    fixed = [
        [1.0, 2.0**-53], [1.0 + 2.0**-52, 2.0**-53], [1.0, 2.0**-53, 2.0**-106],  # ties
        [-1.0, 2.0**-54], [-1.0, -(2.0**-53)], [0.5, -(2.0**-55)], [-0.5, 2.0**-55, 2.0**-160],
        [2.0**-1000, -(2.0**-1053)], [-(2.0**-1022), 5e-324], [5e-324, -5e-324, 5e-324],
        [-0.0], [-0.0, -0.0], [0.0, -0.0], [], [1e300, 1.0, -1e300], [1e-300, 1e300, -1e300],
        [1.0, 1e100, 1.0, -1e100] * 2, [0.1] * 8, [0.1, 0.2, 0.3, -0.6],
        # the float sum of the errors rounds r + t to within half the gap of r, but not
        # the exact sum: only the bound on that rounding sends this row to fsum
        [0.0037965361041336068, -7.47522376228015e-35, 0.009502577543249936, 6.871435404774911e-35],
        [math.inf, 1.0], [-math.inf, -math.inf], [math.inf, -math.inf], [math.nan, 1.0],
        [1e308, 1e308], [1e308, 1e308, -1e308], [m, 2.0**970], [m, -m, m], [_BIG, _BIG, -_BIG],
    ]
    for row in fixed:
        _assert_fsum_rows([row])
    assert decompose._fsum_rows(np.empty((3, 0))).tolist() == [0.0, 0.0, 0.0]
    assert math.copysign(1.0, decompose._fsum_rows(np.array([[-0.0, -0.0]]))[0]) == 1.0
    rng = np.random.default_rng(2034)
    for n in range(1, 9):
        dirichlet = rng.dirichlet(np.ones(n), size=2000)
        spread = rng.standard_normal((2000, n)) * np.exp2(rng.integers(-1074, 1000, (2000, n)))
        for rows in (dirichlet, spread):
            got = decompose._fsum_rows(rows)
            assert got.tobytes() == np.array([math.fsum(row) for row in rows.tolist()]).tobytes()


def test_fsum_rows_hand_only_the_rows_that_fail_the_check_to_fsum(monkeypatch):
    rng = np.random.default_rng(2035)
    weights = rng.dirichlet(np.ones(16), size=1000)[:, decompose._SIGNAL_TERMS].reshape(-1, 4)
    spread = rng.standard_normal((2000, 4)) * np.exp2(rng.integers(-1074, 1000, (2000, 4)))
    ties = np.array([[1.0, 2.0**-53, 0.0, 0.0], [0.25, -(2.0**-56), 2.0**-80, 0.0]])
    huge = np.array([[_BIG, 1.0, -_BIG, 0.0]])
    seen = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda row: seen.append(list(row)) or fsum(row))

    def fallbacks(rows):
        seen.clear()
        decompose._fsum_rows(rows)
        return list(seen)

    # the suite's weight rows and exact ties are all decided without fsum
    assert fallbacks(weights) == [] and fallbacks(ties) == []
    assert fallbacks(huge) == huge.tolist()
    # a stack hands fsum exactly the rows that it takes alone, in order
    rows = np.concatenate([weights[:500], spread, ties, huge])
    alone = [row for row in rows.tolist() if fallbacks(np.array([row]))]
    assert 1 < len(alone) < 50 and fallbacks(rows) == alone
