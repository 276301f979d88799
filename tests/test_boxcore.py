"""Boxes, strategies, scopes, relabellings, and their JSON round trips."""

import json
import math
import re

import numpy as np
import pytest

import boxcomp as bc
from _helpers import random_feasible_box
from boxcomp import boxcore
from boxcomp.boxcore import INPUT_PAIRS, check_weights, checked_boxes


def test_strategy_box_cells_for_catalogue_anchor():
    # outputs 00,00,00,01: b echoes x*y, a stays 0
    s = bc.scope_strategies()[0]
    box = bc.strategy_box(s)
    assert box.p[0, 0, 0, 0] == 1.0
    assert box.p[0, 1, 0, 0] == 1.0
    assert box.p[1, 0, 0, 0] == 1.0
    assert box.p[1, 1, 0, 1] == 1.0
    assert box.p.sum() == 4.0


def test_catalogue_rows_match_fixed_tables():
    table = bc.scope_strategies()
    assert table[0].table_str() == "00,00,00,01"
    assert table[1].table_str() == "11,11,11,10"
    assert table[4].table_str() == "00,00,11,10"  # a echoes x, b echoes x(1+y)
    assert bc.strategy_name(table[1]) == "S1-"


def test_catalogue_kinds_and_complements():
    table = bc.scope_strategies()
    for i, s in enumerate(table):
        if i < 8:
            assert s.kind in ("signal_A_to_B", "signal_B_to_A")
        else:
            assert s.kind == "two_way"
    # +/- partners complement every output bit
    for i in range(0, 16, 2):
        plus, minus = table[i], table[i + 1]
        assert all(pa != ma for pa, ma in zip(plus.fa, minus.fa))
        assert all(pb != mb for pb, mb in zip(plus.fb, minus.fb))


def test_catalogue_satisfies_scope_relation_for_all_scopes():
    for scope in bc.all_scopes():
        table = bc.scope_strategies(scope)
        assert len(table) == 16
        assert len(set(table)) == 16
        for s in table:
            assert scope.holds_for(s)
        # kinds survive the relabelling onto the scope
        assert all(s.kind != "two_way" for s in table[:8])
        assert all(s.kind == "two_way" for s in table[8:])


def test_pr_box_from_signaling_pair():
    table = bc.scope_strategies()
    half = bc.mix((0.5, 0.5), (bc.strategy_box(table[0]), bc.strategy_box(table[1])))
    assert half == bc.pr_box()


def test_uniform_catalogue_mixture_is_pr_box():
    for scope in bc.all_scopes():
        table = bc.scope_strategies(scope)
        uni = bc.mix([1.0 / 16.0] * 16, [bc.strategy_box(s) for s in table])
        assert np.abs(uni.p - bc.pr_box(scope).p).max() <= 1e-15


def test_catalogue_functions_refuse_a_scope_that_is_not_a_prscope():
    # a label, a tuple of bits or None once ended in KeyError or AttributeError
    for scope in ("000", (0, 0, 0), None):
        for read in (bc.scope_boxes, bc.scope_strategies, bc.pr_box, bc.scope_relabelling,
                     bc.max_marginal_bias_zero_signal):
            with pytest.raises(bc.DomainError, match=f"PRScope, got {re.escape(repr(scope))}"):
                read(scope)


def test_bit_tables_and_scope_labels_of_the_wrong_type_are_refused():
    # each once ended in TypeError (no len()) or AttributeError (no strip())
    table = (0, 0, 0, 0)
    for bits in (None, 5, np.array(1), "0000", iter(table), [[0, 1]] * 4, np.zeros((4, 2))):
        with pytest.raises(bc.DomainError, match=f"got {re.escape(repr(bits))}$"):
            bc.DeterministicStrategy(bits, table)
        with pytest.raises(bc.DomainError, match=f"got {re.escape(repr(bits))}$"):
            bc.DeterministicStrategy(table, bits)
    for bits in (None, 3, "01", (0, 2), [np.zeros(2), 0]):
        for name in ("a_offset", "b_offset"):
            with pytest.raises(bc.DomainError, match=f"{name} must hold 2 bits"):
                bc.Relabelling(**{name: bits})
    for label in (None, 5, b"000", ("0", "0", "0")):
        with pytest.raises(bc.DomainError, match=f"3 bits, got {re.escape(repr(label))}$"):
            bc.PRScope.from_label(label)
    # a single bit that is an array once ended in ValueError (ambiguous truth value)
    for bit in (np.zeros(2), np.zeros(1), [[0], [0, 1]], None, 2, "1"):
        got = f"must be 0 or 1, got {re.escape(repr(bit))}$"
        with pytest.raises(bc.DomainError, match=f"mu1 {got}"):
            bc.PRScope(bit)
        with pytest.raises(bc.DomainError, match=f"flip_x {got}"):
            bc.Relabelling(flip_x=bit)
    # bit-valued numbers of any type stay bits
    assert (bc.DeterministicStrategy(np.array([0, 1, 0, 1]), [True, False, 0.0, np.int8(1)])
            == bc.DeterministicStrategy((0, 1, 0, 1), (1, 0, 0, 1)))
    assert bc.PRScope(np.array(1), np.int8(1), True) == bc.PRScope(1, 1, 1)
    assert bc.PRScope.from_label(" 101 ") == bc.PRScope(1, 0, 1)


def test_pr_box_entries():
    pr = bc.pr_box()
    for x, y in INPUT_PAIRS:
        for a in (0, 1):
            for b in (0, 1):
                expected = 0.5 if (a ^ b) == (x & y) else 0.0
                assert pr.p[x, y, a, b] == expected


def test_enumeration_counts_and_kinds():
    local = bc.enumerate_deterministic("local")
    ab = bc.enumerate_deterministic("signal_A_to_B")
    ba = bc.enumerate_deterministic("signal_B_to_A")
    both = bc.enumerate_deterministic("all_one_bit")
    assert len(local) == 16 and len(set(local)) == 16
    assert len(ab) == 48 and len(set(ab)) == 48
    assert len(ba) == 48 and len(set(ba)) == 48
    assert len(both) == 96 and len(set(both)) == 96
    assert all(s.kind == "local" for s in local)
    assert all(s.kind == "signal_A_to_B" for s in ab)
    assert all(s.kind == "signal_B_to_A" for s in ba)
    assert set(both) == set(ab) | set(ba)
    assert len(bc.enumerate_deterministic("two_way")) == 144
    with pytest.raises(bc.DomainError):
        bc.enumerate_deterministic("everything")


def test_nonsignaling_iff_local_for_deterministic_boxes():
    for s in bc.enumerate_deterministic("local"):
        assert bc.signal(bc.strategy_box(s)).S <= 1e-12
    for s in bc.enumerate_deterministic("all_one_bit"):
        assert not bc.signal(bc.strategy_box(s)).S <= 1e-12
    for s in bc.scope_strategies()[8:]:
        assert not bc.signal(bc.strategy_box(s)).S <= 1e-12
    assert bc.signal(bc.pr_box()).S <= 1e-12


def test_mix_weight_validation():
    boxes = [bc.pr_box(), bc.pr_box(bc.PRScope(0, 0, 1))]
    with pytest.raises(bc.WeightError):
        bc.mix((0.5,), boxes)
    with pytest.raises(bc.WeightError):
        bc.mix((-0.1, 1.1), boxes)
    with pytest.raises(bc.WeightError):
        bc.mix((0.6, 0.6), boxes)
    with pytest.raises(bc.WeightError):
        bc.mix((), ())
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(bc.WeightError):
            bc.mix((bad, 1.0), boxes)


def test_weight_rows_that_are_not_numbers_are_refused():
    # each once ended in TypeError or ValueError; mix and ResourceSpec share one conversion
    for weights in (None, 5, ["x"] * 16, [None] * 16, [0.5j] * 16, [10 ** 400] + [0.0] * 15):
        with pytest.raises(bc.WeightError, match=re.escape(repr(weights)[:40])):
            bc.ResourceSpec(bc.PRScope(), weights)
    with pytest.raises(bc.WeightError, match="'x'"):
        bc.ResourceSpec.from_mapping({"S1+": "x"})
    # a mapping that is not one once ended in TypeError (set(None)) or AttributeError
    for mapping in (None, 5, ["S1+"]):
        with pytest.raises(bc.WeightError, match=f"got {re.escape(repr(mapping))}$"):
            bc.ResourceSpec.from_mapping(mapping)
    with pytest.raises(bc.WeightError, match=r"unknown strategy names \['S9', 1\]"):
        bc.ResourceSpec.from_mapping({1: 0.5, "S9": 0.5})
    for weights in (None, 5, ["x"], [None], [10 ** 400]):
        with pytest.raises(bc.WeightError, match=re.escape(repr(weights)[:40])):
            bc.mix(weights, [bc.pr_box()])
    # numbers of any type, numeric strings included, are still weights
    assert bc.mix(np.array([1]), [bc.pr_box()]) == bc.mix(["1.0"], [bc.pr_box()]) == bc.pr_box()
    spec = bc.ResourceSpec.from_mapping({"S1+": "0.5", "S1-": np.float32(0.5)})
    assert spec.weights[:2] == (0.5, 0.5) and type(spec.weights) is tuple


def test_mix_checks_its_boxes_as_one_stack():
    pr, other = bc.pr_box(), bc.pr_box(bc.PRScope(0, 0, 1))
    # two invalid boxes whose mixture would be the valid PR box
    with pytest.raises(bc.BoxInvariantError):
        bc.mix((0.5, 0.5), np.array([2.0 * pr.p, 0.0 * pr.p]))
    # tables mix as their boxes do, as comm_cost_many reads them
    assert (bc.mix((0.25, 0.75), [pr.p, other.p]).p.tobytes()
            == bc.mix((0.25, 0.75), [pr, other]).p.tobytes())
    with pytest.raises(bc.BoxInvariantError):
        bc.mix((0.5, 0.5), [pr.p, np.full((2, 2, 2, 2), 0.5)])
    # one box is not a stack of two
    with pytest.raises(bc.BoxFormatError):
        bc.mix((0.5, 0.5), pr.p)
    # nor is no box at all, which once ended in TypeError (len(None))
    for boxes in (None, 5, np.array(0.5)):
        with pytest.raises(bc.BoxFormatError, match=f"got {re.escape(repr(boxes))}$"):
            bc.mix([1.0], boxes)


def test_box_validation():
    with pytest.raises(bc.BoxFormatError):
        bc.CorrelationBox(np.zeros((2, 2, 2)))
    with pytest.raises(bc.BoxFormatError):
        bc.CorrelationBox([["a"] * 4] * 4)
    bad = np.full((2, 2, 2, 2), 0.25)
    bad[0, 0, 0, 0] = -0.01
    with pytest.raises(bc.BoxInvariantError):
        bc.CorrelationBox(bad)
    bad = np.full((2, 2, 2, 2), 0.3)
    with pytest.raises(bc.BoxInvariantError):
        bc.CorrelationBox(bad)


def test_box_is_read_only():
    pr = bc.pr_box()
    with pytest.raises(ValueError):
        pr.p[0, 0, 0, 0] = 1.0


def _images(box):
    """The relabelled tables of a box, keyed by their bytes, for each of the 64 members."""
    return {bc.apply_relabelling(box, rel).p.tobytes(): rel for rel in bc.all_relabellings()}


def test_relabelling_identity_and_inverse():
    pr = bc.pr_box()
    assert bc.apply_relabelling(pr, bc.Relabelling()) == pr
    assert bc.Relabelling() in bc.all_relabellings()
    rng = np.random.default_rng(11)
    box, _ = random_feasible_box(rng)
    # each member is undone by exactly one member
    for rel in bc.all_relabellings():
        moved = bc.apply_relabelling(box, rel)
        undo = [back for back in bc.all_relabellings()
                if bc.apply_relabelling(moved, back) == box]
        assert len(undo) == 1


def test_relabelling_composition_matches_sequential_application():
    # two relabellings in a row act as one member of the group
    rng = np.random.default_rng(12)
    box, _ = random_feasible_box(rng)
    images = _images(box)
    rels = bc.all_relabellings()
    idx = rng.integers(0, len(rels), size=(40, 2))
    for i, j in idx:
        outer, inner = rels[int(i)], rels[int(j)]
        sequential = bc.apply_relabelling(bc.apply_relabelling(box, inner), outer)
        assert sequential.p.tobytes() in images


def test_relabelling_group_is_closed_and_order_64():
    rels = bc.all_relabellings()
    assert len(rels) == 64
    assert len(set(rels)) == 64
    box, _ = random_feasible_box(np.random.default_rng(15))
    images = _images(box)
    assert len(images) == 64  # the members act on a generic box as 64 distinct maps
    for outer in rels[:8]:
        for inner in rels:
            moved = bc.apply_relabelling(bc.apply_relabelling(box, inner), outer)
            assert moved.p.tobytes() in images


def test_all_pr_boxes_reachable_by_relabelling():
    base = bc.pr_box()
    for scope in bc.all_scopes():
        target = bc.pr_box(scope)
        hits = [rel for rel in bc.all_relabellings()
                if bc.apply_relabelling(base, rel) == target]
        assert hits, f"no relabelling reaches {scope}"
        assert bc.apply_relabelling(base, bc.scope_relabelling(scope)) == target


def test_box_relabelling_keeps_the_strategy_kind():
    # a relabelled deterministic box is deterministic, and its strategy, read
    # back off the marginals, signals the same way
    rng = np.random.default_rng(13)
    strategies = bc.enumerate_deterministic("all_one_bit")
    rels = bc.all_relabellings()
    for _ in range(60):
        s = strategies[int(rng.integers(len(strategies)))]
        rel = rels[int(rng.integers(len(rels)))]
        moved = bc.apply_relabelling(bc.strategy_box(s), rel)
        (read,) = boxcore._read_strategies(moved.p)
        assert read.kind == s.kind
        assert bc.strategy_box(read) == moved


def test_box_json_round_trip(tmp_path):
    box = bc.pr_box(label="pr")
    path = tmp_path / "pr.json"
    bc.dump_box(box, path)
    loaded = bc.load_box(path)
    assert loaded == box
    assert loaded.label == "pr"

    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(bc.BoxFormatError):
        bc.load_box(tmp_path / "bad.json")

    (tmp_path / "flat.json").write_text(json.dumps({"P": [0.25] * 16}))
    with pytest.raises(bc.BoxFormatError):
        bc.load_box(tmp_path / "flat.json")

    data = box.to_json()
    data["P"][0][0][0][0] = 0.75  # breaks normalization
    (tmp_path / "unnorm.json").write_text(json.dumps(data))
    with pytest.raises(bc.BoxInvariantError):
        bc.load_box(tmp_path / "unnorm.json")


def test_mix_normalization_stays_tight():
    rng = np.random.default_rng(14)
    for _ in range(50):
        box, _ = random_feasible_box(rng)
        assert np.abs(box.p.sum(axis=(2, 3)) - 1.0).max() <= 1e-12


def _hostile_tables():
    """The hostile tables the tests give boxes, by name: NaN, the infinities, a negative
    cell, sub-tolerance negative dust, normalization off by 1e-9, non-numeric entries and
    wrong shapes."""
    pr = bc.pr_box().p
    tables = {}
    for name, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
        tables[name] = pr.copy()
        tables[name][1, 0, 1, 1] = value
    tables["negative"] = np.full((2, 2, 2, 2), 0.25)
    tables["negative"][0, 1, 0, 0] = -1e-6
    tables["negative"][0, 1, 0, 1] += 1e-6
    tables["dust"] = pr.copy()
    tables["dust"][1, 1, 0, 0] = -1e-13
    tables["dust"][0, 1, 0, 1] = -0.0
    tables["off"] = pr.copy()
    tables["off"][0, 0, 0, 0] += 1e-9
    tables["strings"] = [["a"] * 4] * 4
    tables["flat"] = np.full(16, 0.25)
    tables["short"] = np.zeros((2, 2, 2))
    return tables


def _outcome(fn, p):
    try:
        return fn(p)
    except (bc.BoxFormatError, bc.BoxInvariantError) as exc:
        return exc


def test_stacked_box_rule_is_the_correlation_box_rule():
    for name, p in _hostile_tables().items():
        box = _outcome(bc.CorrelationBox, p)
        stack = _outcome(checked_boxes, p)
        if isinstance(box, Exception):
            assert type(stack) is type(box) and str(stack) == str(box), name
        else:
            assert stack.tobytes() == box.p.tobytes() and not stack.flags.writeable, name
    dust = checked_boxes(_hostile_tables()["dust"])
    assert dust[1, 1, 0, 0] == 0.0 and not np.signbit(dust[1, 1, 0, 0])
    assert np.signbit(dust[0, 1, 0, 1])  # only cells below zero are cleared
    # a leading axis makes a stack, which a single box refuses
    pr = bc.pr_box().p
    assert checked_boxes(pr[None]).tobytes() == pr.tobytes()
    with pytest.raises(bc.BoxFormatError, match=r"got \(1, 2, 2, 2, 2\)"):
        bc.CorrelationBox(pr[None])


def test_a_stack_with_one_bad_box_is_refused():
    rng = np.random.default_rng(2031)
    good = np.array([random_feasible_box(rng)[0].p for _ in range(50)])
    assert checked_boxes(good).tobytes() == good.tobytes()
    for name, p in _hostile_tables().items():
        if np.shape(p) != (2, 2, 2, 2) or name == "dust":
            continue
        stack = good.copy()
        stack[37] = p
        with pytest.raises((bc.BoxFormatError, bc.BoxInvariantError)) as refused:
            checked_boxes(stack)
        assert type(refused.value) is type(_outcome(bc.CorrelationBox, p)), name
    stack = good.copy()
    stack[37] = _hostile_tables()["dust"]
    assert checked_boxes(stack).tobytes() == np.array(
        [bc.CorrelationBox(p).p for p in stack]).tobytes()
    with pytest.raises(bc.BoxFormatError):
        checked_boxes(good[:, :, :, :, :1])


def test_weight_rows_are_checked_like_one_row(monkeypatch):
    rng = np.random.default_rng(2033)
    good = [tuple(rng.dirichlet(np.ones(4))) for _ in range(20)]
    check_weights(good)
    check_weights(np.array(good))
    # sums that miss 1 by just under or just over NORM_TOL, which only fsum can judge
    near = [0.25 + sign * boxcore.NORM_TOL * scale for sign in (1.0, -1.0)
            for scale in (1.0 - 1e-3, 1.0 + 1e-3)]
    for last in near[0], near[2]:
        check_weights((0.25, 0.25, 0.25, last))
        check_weights(good[:13] + [(0.25, 0.25, 0.25, last)] + good[13:])
    for bad in ((0.5, float("nan"), 0.25, 0.25), (float("inf"), 0.0, 0.0, 0.0),
                (-0.1, 0.6, 0.25, 0.25), (0.25, 0.25, 0.25, 0.2500000001),
                (1e308, 1e308, 0.0, 0.0), (0.25, 0.25, 0.25, near[1]),
                (0.25, 0.25, 0.25, near[3])):
        with pytest.raises(bc.WeightError) as one:
            check_weights(bad)
        with pytest.raises(bc.WeightError) as stacked:
            check_weights(good[:13] + [bad] + good[13:])
        assert str(stacked.value) == str(one.value), bad
    # rows whose float sums decide the verdict take no fsum; a row of 100,000 weights,
    # whose float sum cannot, is judged by its fsum alone
    fsum, calls = math.fsum, []
    monkeypatch.setattr(math, "fsum", lambda row: calls.append(len(row)) or fsum(row))
    check_weights(good)
    long = np.full(100_000, 1e-5)
    check_weights(long)
    check_weights(np.stack([long, long]))
    assert calls == [100_000] * 3
    long[7] += 2.0 * boxcore.NORM_TOL
    with pytest.raises(bc.WeightError) as one:
        check_weights(long)
    with pytest.raises(bc.WeightError) as stacked:
        check_weights(np.stack([np.full(100_000, 1e-5), long]))
    assert str(stacked.value) == str(one.value)
