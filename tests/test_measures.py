"""CHSH values, signal/indeterminacy, and their entropic counterparts."""

import math
import re

import numpy as np
import pytest

import boxcomp as bc
from _helpers import pair_box, pair_spec, random_feasible_box, tsirelson_box
from boxcomp import decompose

# frozen oracle: -0.25*log2(0.25) - 0.75*log2(0.75)
H_QUARTER = 0.8112781244591328


def test_binary_entropy_edges_and_values():
    assert bc.binary_entropy(0.0) == 0.0
    assert bc.binary_entropy(1.0) == 0.0
    assert bc.binary_entropy(0.5) == 1.0
    assert abs(bc.binary_entropy(0.25) - H_QUARTER) <= 1e-15
    arr = bc.binary_entropy(np.array([0.0, 0.5, 1.0]))
    assert np.array_equal(arr, [0.0, 1.0, 0.0])
    with pytest.raises(bc.DomainError):
        bc.binary_entropy(1.5)
    with pytest.raises(bc.DomainError):
        bc.binary_entropy(-0.2)
    with pytest.raises(bc.DomainError):
        bc.binary_entropy(math.nan)


def test_chsh_values():
    assert bc.chsh(bc.pr_box()) == 4.0
    assert bc.chsh_max(bc.pr_box()) == 4.0
    # constant-output local box: E = 1 everywhere
    zero = bc.DeterministicStrategy((0, 0, 0, 0), (0, 0, 0, 0))
    assert bc.chsh(bc.strategy_box(zero)) == 2.0
    assert bc.chsh_max(bc.strategy_box(zero)) == 2.0
    assert abs(bc.chsh(tsirelson_box()) - 2.0 * math.sqrt(2.0)) <= 1e-12
    assert abs(bc.chsh_max(tsirelson_box()) - 2.0 * math.sqrt(2.0)) <= 1e-12


def test_chsh_max_over_all_sign_variants():
    # every local deterministic box sits on the |CHSH| = 2 shell
    for s in bc.enumerate_deterministic("local"):
        box = bc.strategy_box(s)
        assert bc.chsh_max(box) == 2.0
        assert abs(bc.chsh(box)) == 2.0
    # relabelling the PR box moves the violated combination, chsh_max finds it
    for scope in bc.all_scopes():
        assert bc.chsh_max(bc.pr_box(scope)) == 4.0


def test_correlators_table():
    e = bc.correlators(bc.pr_box())
    assert np.array_equal(e, [[1.0, 1.0], [1.0, -1.0]])


def test_signal_of_nonsignaling_boxes_is_exactly_zero():
    assert bc.signal(bc.pr_box()).S == 0.0
    uni = bc.mix([1.0 / 16.0] * 16, [bc.strategy_box(s) for s in bc.scope_strategies()])
    assert bc.signal(uni).S == 0.0
    for s in bc.enumerate_deterministic("local")[:4]:
        assert bc.signal(bc.strategy_box(s)).S == 0.0


def test_signal_direction_split_for_catalogue_anchor():
    # b = x*y: flipping x moves B's marginal at y=1 by 1, nothing else moves
    rep = bc.signal(bc.strategy_box(bc.scope_strategies()[0]))
    assert rep.s_A_to_B_per_y == (0.0, 1.0)
    assert rep.s_B_to_A_per_x == (0.0, 0.0)
    assert rep.S_A_to_B == 1.0
    assert rep.S_B_to_A == 0.0
    assert rep.S == 1.0


def test_signal_of_pair_mixture():
    box = pair_box(1, 0.75)
    rep = bc.signal(box)
    assert rep.S == 0.5
    assert rep.s_A_to_B_per_y == (0.0, 0.5)
    assert rep.s_B_to_A_per_x == (0.0, 0.0)


def test_indeterminacy_values():
    zero = bc.DeterministicStrategy((0, 0, 0, 0), (0, 0, 0, 0))
    assert bc.indeterminacy(bc.strategy_box(zero)) == 0.0
    assert bc.indeterminacy(bc.pr_box()) == 0.5
    assert bc.indeterminacy(pair_box(1, 0.75)) == 0.25
    per = bc.indeterminacy_per_setting(pair_box(1, 0.75))
    assert np.array_equal(per, np.full((2, 2), 0.25))


def _nonsignaling(box, tol=1e-12):
    """Neither party's outcome marginals move when the other's input flips."""
    m = bc.marginals(box)  # [party, x, y, outcome]
    return bool(np.abs(m[0, :, 1] - m[0, :, 0]).max() <= tol
                and np.abs(m[1, 1] - m[1, 0]).max() <= tol)


def test_signal_zero_iff_nonsignaling():
    rng = np.random.default_rng(21)
    for _ in range(200):
        box, _ = random_feasible_box(rng)
        assert (bc.signal(box).S <= 1e-12) == _nonsignaling(box, 1e-12)
    for s in bc.enumerate_deterministic("all_one_bit"):
        box = bc.strategy_box(s)
        assert bc.signal(box).S == 1.0
        assert not _nonsignaling(box)


def test_entropic_signal_values():
    assert bc.entropic_signal(bc.pr_box()) == 0.0
    assert bc.entropic_signal(bc.strategy_box(bc.scope_strategies()[0])) == 1.0
    expected = 1.0 - H_QUARTER
    assert abs(bc.entropic_signal(pair_box(1, 0.75)) - expected) <= 1e-12
    with pytest.raises(bc.DomainError):
        bc.entropic_signal(bc.pr_box(), prior=(0.7, 0.7))
    with pytest.raises(bc.DomainError):
        bc.entropic_signal(bc.pr_box(), prior=(math.nan, math.nan))


def test_entropic_signal_refuses_a_prior_of_the_wrong_length():
    # a prior of the wrong length, or one that is not a sized pair of numbers,
    # is refused by name
    for prior in ((1.0,), (0.5, 0.5, 7.0), (0.5, 0.5, 0.0), (), 0.5, iter((0.5, 0.5)),
                  ("a", "b"), "01", (10 ** 400, 0.0), (1j, 0.0), np.eye(2)):
        with pytest.raises(bc.DomainError, match=re.escape(repr(prior))):
            bc.entropic_signal(bc.pr_box(), prior=prior)
    assert bc.entropic_signal(bc.pr_box(), prior=np.array([0.25, 0.75])) == 0.0


def test_entropic_signal_with_biased_prior():
    # one party learns the other's input bit perfectly: H_S equals the prior entropy
    box = bc.strategy_box(bc.scope_strategies()[0])
    assert abs(bc.entropic_signal(box, prior=(0.9, 0.1)) - bc.binary_entropy(0.9)) <= 1e-12


def test_entropic_indeterminacy_values():
    zero = bc.DeterministicStrategy((0, 0, 0, 0), (0, 0, 0, 0))
    assert bc.entropic_indeterminacy(bc.strategy_box(zero)) == 0.0
    assert bc.entropic_indeterminacy(bc.pr_box()) == 1.0
    assert abs(bc.entropic_indeterminacy(pair_box(1, 0.75)) - H_QUARTER) <= 1e-15


def test_entropic_indeterminacy_equals_entropy_of_indeterminacy_for_pair_mixtures():
    for k in range(0, 101, 7):
        p = k / 100.0
        box = pair_box(2, p)
        ind = bc.indeterminacy(box)
        assert bc.entropic_indeterminacy(box) == bc.binary_entropy(ind)


def test_entropic_signal_lower_bound():
    assert bc.entropic_signal_lower_bound(0.0) == 0.0
    assert bc.entropic_signal_lower_bound(1.0) == 1.0
    assert abs(bc.entropic_signal_lower_bound(0.5) - (1.0 - H_QUARTER)) <= 1e-15
    with pytest.raises(bc.DomainError):
        bc.entropic_signal_lower_bound(-0.1)
    with pytest.raises(bc.DomainError):
        bc.entropic_signal_lower_bound(1.1)
    with pytest.raises(bc.DomainError):
        bc.entropic_signal_lower_bound(math.nan)


def test_measures_and_bounds_refuse_values_that_are_not_real_numbers():
    calls = ((bc.certified_indeterminacy_bound, ("x", 0.1), "x"),
             (bc.certified_indeterminacy_bound, (4.0, [0.1, "s"]), [0.1, "s"]),
             (bc.pironio_bound, (1j,), 1j),
             (bc.binary_entropy, ("p",), "p"),
             (bc.entropic_signal_lower_bound, ("x",), "x"),
             (bc.entropic_signal_lower_bound, (10**400,), 10**400),
             (bc.two_point_mutual_information, ("a", 0.5), "a"),
             (bc.two_point_mutual_information, (0.5, "a"), "a"),
             (bc.two_point_mutual_information, (np.zeros(3), [0.1, "s", 0.2]), [0.1, "s", 0.2]))
    for f, args, bad in calls:
        with pytest.raises(bc.DomainError) as refused:
            f(*args)
        assert repr(bad) in str(refused.value), (f.__name__, args)


def test_box_measures_refuse_what_is_not_an_array_of_numbers():
    measures = (bc.chsh, bc.chsh_max, bc.correlators, bc.signal, bc.marginals, bc.indeterminacy,
                bc.indeterminacy_per_setting, bc.entropic_indeterminacy, bc.entropic_signal)
    for bad in ("x", [[0.5, "a"]], [[0.5, 0.5], [0.5]], {"P": 1}):
        for f in measures:
            with pytest.raises(bc.BoxFormatError) as refused:
                f(bad)
            assert repr(bad) in str(refused.value), (f.__name__, bad)


def test_box_measures_refuse_arrays_not_shaped_as_boxes():
    measures = (bc.chsh, bc.chsh_max, bc.correlators, bc.signal, bc.marginals, bc.indeterminacy,
                bc.indeterminacy_per_setting, bc.entropic_indeterminacy, bc.entropic_signal)
    # numbers, but no (2,2,2,2) tail: 0-d, 1-d, an axis short, an axis of 3, an axis too many
    for bad in (None, 1.0, [1, 2, 3], np.full((2, 2, 2), 0.5), np.full((2, 2, 2, 3), 0.25),
                np.full((3, 2, 2, 2), 0.25), np.full((5, 2, 2, 2, 1), 0.5)):
        shape = np.shape(np.asarray(bad, dtype=np.float64))
        for f in measures:
            with pytest.raises(bc.BoxFormatError) as refused:
                f(bad)
            assert str(refused.value).endswith(f"got shape {shape}"), (f.__name__, shape)
    # a box, a stack and an empty stack still pass
    for good in (np.full((2, 2, 2, 2), 0.25), np.full((3, 2, 2, 2, 2), 0.25),
                 np.empty((0, 2, 2, 2, 2))):
        for f in measures:
            f(good)


def test_bounds_name_none_rather_than_nan():
    calls = ((bc.certified_indeterminacy_bound, (None, 0.1)),
             (bc.certified_indeterminacy_bound, (4.0, None)),
             (bc.pironio_bound, (None,)),
             (bc.binary_entropy, (None,)),
             (bc.entropic_signal_lower_bound, (None,)),
             (bc.binary_entropy, ([0.5, None],)))
    for f, args in calls:
        with pytest.raises(bc.DomainError) as refused:
            f(*args)
        message = str(refused.value)
        assert "None" in message and "nan" not in message, (f.__name__, message)
    with pytest.raises(bc.DomainError, match=r"^probability outside \[0,1\]: nan$"):
        bc.binary_entropy(math.nan)
    with pytest.raises(bc.DomainError, match=r"^CHSH value outside \[0,4\]: -0.5..4.5$"):
        bc.pironio_bound([-0.5, 4.5])


def test_entropic_signal_lower_bound_is_elementwise():
    s = np.arange(101) / 100.0
    bounds = bc.entropic_signal_lower_bound(s)
    assert bounds.shape == s.shape and type(bc.entropic_signal_lower_bound(0.5)) is float
    assert [v.hex() for v in bounds.tolist()] == [bc.entropic_signal_lower_bound(v).hex()
                                                  for v in s.tolist()]
    for bad in (math.nan, -0.1, 1.1):
        with pytest.raises(bc.DomainError):
            bc.entropic_signal_lower_bound(np.array([0.0, 0.5, bad, 1.0]))


def test_entropic_signal_meets_floor_on_random_and_pair_boxes():
    rng = np.random.default_rng(22)
    for _ in range(300):
        box, _ = random_feasible_box(rng)
        s = bc.signal(box).S
        assert bc.entropic_signal(box) >= bc.entropic_signal_lower_bound(s) - 1e-9
    for k in range(0, 1001, 13):
        box = pair_box(1, k / 1000.0)
        s = bc.signal(box).S
        assert bc.entropic_signal(box) >= bc.entropic_signal_lower_bound(s) - 1e-9


def test_two_point_mutual_information_matches_pair_mixture():
    for p in (0.0, 0.1, 0.25, 0.4):
        # marginal sits at p or p + (1 - 2p) depending on the flipped input
        shift = 1.0 - 2.0 * p
        direct = float(bc.two_point_mutual_information(p, shift))
        assert abs(direct - bc.entropic_signal(pair_box(1, p))) <= 1e-12


def test_measure_ranges_on_random_boxes():
    rng = np.random.default_rng(23)
    for _ in range(200):
        box, _ = random_feasible_box(rng)
        assert abs(bc.chsh(box)) <= 4.0 + 1e-12
        assert 0.0 <= bc.chsh_max(box) <= 4.0 + 1e-12
        assert bc.chsh_max(box) >= abs(bc.chsh(box)) - 1e-12
        assert 0.0 <= bc.indeterminacy(box) <= 0.5 + 1e-12
        assert 0.0 <= bc.signal(box).S <= 1.0 + 1e-12
        assert 0.0 <= bc.entropic_indeterminacy(box) <= 1.0 + 1e-12
        assert 0.0 <= bc.entropic_signal(box) <= 1.0 + 1e-12


def test_measure_report_json_keys():
    data = bc.complementarity_report(pair_box(1, 0.75)).to_json()
    assert data["lambda"] == bc.chsh(pair_box(1, 0.75))
    assert data["S"] == 0.5
    assert data["S_AtoB"] == 0.5
    assert data["S_BtoA"] == 0.0
    assert data["I"] == 0.25
    assert set(data) >= {"lambda", "lambda_max", "S", "S_AtoB", "S_BtoA", "I",
                         "H_S", "H_I", "s_A_to_B_per_y", "s_B_to_A_per_x",
                         "I_per_setting"}


def test_measures_invariant_under_relabellings_and_party_swap():
    rng = np.random.default_rng(24)
    vertices = decompose.VERTEX_BOXES
    boxes = [random_feasible_box(rng)[0] for _ in range(10)]
    for _ in range(10):
        k = int(rng.integers(2, 5))
        support = rng.choice(len(vertices), size=k, replace=False)
        boxes.append(bc.mix(rng.dirichlet(np.ones(k)), vertices[support]))
    stack = np.array([box.p for box in boxes])

    def measures(p):
        sig = bc.signal(p)
        return np.stack([bc.chsh_max(p), sig.S, bc.indeterminacy(p),
                         bc.entropic_signal(p), bc.entropic_indeterminacy(p)])

    base = measures(stack)
    images = [np.array([bc.apply_relabelling(box, rel).p for box in boxes])
              for rel in bc.all_relabellings()]
    images.append(stack.transpose(0, 2, 1, 4, 3))  # A <-> B: swap x with y and a with b
    for image in images:
        assert np.abs(measures(image) - base).max() <= 1e-12

    # the cost and feasibility on a few boxes, the last one two-way
    def cost(box):
        try:
            return bc.min_comm_cost(box).C
        except bc.Infeasible:
            return None

    few = boxes[:2] + boxes[10:13] + [bc.strategy_box(bc.scope_strategies()[8])]
    for box in few:
        c = cost(box)
        moved = [bc.apply_relabelling(box, rel) for rel in bc.all_relabellings()]
        moved.append(bc.CorrelationBox(box.p.transpose(1, 0, 3, 2)))
        for image in moved:
            c_image = cost(image)
            assert (c is None) == (c_image is None)
            if c is not None:
                assert abs(c_image - c) <= 1e-12
    assert cost(few[-1]) is None
