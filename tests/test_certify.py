"""Certificates, entropic complementarity, and the property suites."""

import collections
import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest

import boxcomp as bc
from boxcomp import certify, decompose, measures
from boxcomp.cli import main
from _helpers import (corrupt_catalogue, pair_box, random_feasible_box, random_resource_spec,
                      row_values, tsirelson_box)
from test_cli import _audit_corpus
from test_reference import _same_bytes, ref_signed_signals

SQRT2 = math.sqrt(2.0)
H_QUARTER = 0.8112781244591328


def test_certified_indeterminacy_bound_values():
    assert bc.certified_indeterminacy_bound(4.0, 0.0) == 0.5
    assert bc.certified_indeterminacy_bound(2.0, 0.0) == 0.0
    assert bc.certified_indeterminacy_bound(0.0, 1.0) == 0.0
    assert abs(bc.certified_indeterminacy_bound(2.0 * SQRT2, 0.0)
               - (SQRT2 - 1.0) / 2.0) <= 1e-12
    # signaling eats into the certificate linearly
    assert bc.certified_indeterminacy_bound(4.0, 1.0) == 0.0
    assert abs(bc.certified_indeterminacy_bound(4.0, 0.5) - 0.25) <= 1e-15
    with pytest.raises(bc.DomainError):
        bc.certified_indeterminacy_bound(4.5, 0.0)
    with pytest.raises(bc.DomainError):
        bc.certified_indeterminacy_bound(4.0, -0.5)
    for lam, s in ((math.nan, 0.0), (4.0, math.nan)):
        with pytest.raises(bc.DomainError):
            bc.certified_indeterminacy_bound(lam, s)
    assert bc.certified_indeterminacy_bound(np.empty(0), np.empty(0)).shape == (0,)


def test_certified_bound_is_respected_by_boxes():
    rng = np.random.default_rng(61)
    for _ in range(300):
        box, _ = random_feasible_box(rng)
        bound = bc.certified_indeterminacy_bound(bc.chsh_max(box), bc.signal(box).S)
        assert bc.indeterminacy(box) >= bound - 1e-9


def _relaxed_bell(box):
    cert = bc.complementarity_report(box)
    return cert.relax_lhs, cert.relax_rhs, cert.flags["relaxed_bell"]


def test_relaxed_bell_check():
    lhs, rhs, holds = _relaxed_bell(bc.pr_box())
    assert (lhs, rhs, holds) == (2.0, 2.0, True)
    # deterministic signaling box: maximal CHSH but the signal term covers it
    tb = bc.strategy_box(bc.scope_strategies()[0])
    lhs, rhs, holds = _relaxed_bell(tb)
    assert lhs == 2.0 and rhs == 2.0 and holds
    zero = bc.DeterministicStrategy((0, 0, 0, 0), (0, 0, 0, 0))
    lhs, rhs, holds = _relaxed_bell(bc.strategy_box(zero))
    assert lhs == 0.0 and rhs == 0.0 and holds


def test_complementarity_report_pr_box():
    cert = bc.complementarity_report(bc.pr_box())
    assert bc.complementarity_report(bc.pr_box().p) == cert  # a bare array is read as its box
    with pytest.raises(bc.BoxFormatError):
        bc.complementarity_report(bc.pr_box().p[0])
    with pytest.raises(bc.BoxInvariantError):
        bc.complementarity_report(2.0 * bc.pr_box().p)
    assert cert.feasible
    assert cert.C_min == 1.0
    assert cert.S == 0.0 and cert.I == 0.5
    assert cert.thm1_slack == 0.0
    assert cert.H_S == 0.0 and cert.H_I == 1.0
    assert cert.passed
    assert cert.lambda_fixed == 4.0
    assert "FAIL" not in cert.render_text()


def test_complementarity_report_pair_mixture():
    cert = bc.complementarity_report(pair_box(1, 0.75))
    assert cert.S == 0.5 and cert.I == 0.25
    assert abs(cert.C_min - 1.0) <= 1e-9
    assert abs(cert.thm1_slack) <= 1e-9
    assert cert.passed


def test_complementarity_report_local_mixture():
    locals_ = bc.enumerate_deterministic("local")
    box = bc.mix([1.0 / 16.0] * 16, [bc.strategy_box(s) for s in locals_])
    cert = bc.complementarity_report(box)
    assert cert.lambda_max <= 2.0 + 1e-12
    assert cert.C_min == 0.0
    assert cert.passed


def test_complementarity_report_infeasible_box():
    cert = bc.complementarity_report(bc.strategy_box(bc.scope_strategies()[8]))
    assert not cert.feasible
    assert cert.C_min is None and cert.thm1_slack is None
    assert "cost_complementarity" not in cert.flags
    assert cert.flags["relaxed_bell"] and cert.flags["operational_bell"]
    assert "infeasible" in cert.render_text()


def test_tol_below_the_default_bounds_the_facet_rows(tmp_path, capsys):
    # 5e-10 of a two-way strategy puts the box 5e-10 outside the 1-bit polytope
    zero = bc.strategy_box(bc.DeterministicStrategy((0, 0, 0, 0), (0, 0, 0, 0)))
    box = bc.mix((1.0 - 5e-10, 5e-10), [zero, bc.strategy_box(bc.scope_strategies()[8])])
    excess = float(row_values(decompose.FACET_ROWS, box.p.reshape(1, 16)).max())
    assert 1e-12 < excess < 1e-9
    tight = bc.complementarity_report(box, tol=1e-12)
    assert tight.feasible is False and tight.C_min is None
    assert not {"cost_complementarity", "pironio"} & set(tight.flags)
    assert bc.complementarity_report(box).feasible is True
    path = tmp_path / "edge.json"
    bc.dump_box(box, path)
    assert main(["analyze", "--box", str(path), "--tol", "1e-12", "--format", "json"]) == 0
    assert '"feasible": false' in capsys.readouterr().out


def _entropic_pair(box):
    return bc.entropic_signal(box), bc.entropic_indeterminacy(box)


def test_entropic_complementarity_examples():
    assert _entropic_pair(pair_box(1, 0.5)) == (0.0, 1.0)
    assert _entropic_pair(bc.resource_box(bc.ResourceSpec.from_mapping({"S1+": 1.0}))) == (1.0, 0.0)
    h_s, h_i = _entropic_pair(pair_box(1, 0.75))
    assert abs(h_s - (1.0 - H_QUARTER)) <= 1e-12
    assert abs(h_i - H_QUARTER) <= 1e-12
    assert h_s + h_i >= 1.0 - 1e-9
    assert _entropic_pair(bc.pr_box()) == (0.0, 1.0)


def test_entropic_complementarity_on_random_one_way_specs():
    rng = np.random.default_rng(62)
    for _ in range(200):
        w8 = rng.dirichlet(np.ones(8))
        weights = tuple(w8) + (0.0,) * 8
        spec = bc.ResourceSpec(scope=bc.PRScope(), weights=weights)
        h_s, h_i = _entropic_pair(bc.resource_box(spec))
        assert h_s + h_i >= 1.0 - 1e-9


def test_scalar_complementarity_on_random_specs():
    rng = np.random.default_rng(63)
    for _ in range(300):
        spec = random_resource_spec(rng)
        box = bc.resource_box(spec)
        assert bc.signal(box).S + 2.0 * bc.indeterminacy(box) >= 1.0 - 1e-9


def test_zero_signal_forces_unbiased_marginals():
    assert bc.max_marginal_bias_zero_signal() <= 1e-9
    assert bc.max_marginal_bias_zero_signal(bc.PRScope(1, 1, 1)) <= 1e-9


def test_catalogue_marginals_are_affine_in_the_signed_signals():
    # twice each catalogue strategy's outcome-1 marginal is k + E.SIGNAL_COEFFICIENTS,
    # in integers: per party and setting, exactly one (k, E) with E in {-1, 0, 1}^4
    # fits, and it has k = 1 and E = +/-1, so zero signed signals force marginals 1/2
    coeff = decompose.SIGNAL_COEFFICIENTS.astype(np.int64)
    assert np.array_equal(coeff, decompose.SIGNAL_COEFFICIENTS)
    tables = np.array(list(itertools.product((-1, 0, 1), repeat=4)))
    for scope in bc.all_scopes():
        twice = 2.0 * bc.marginals(bc.scope_boxes(scope))[..., 1].reshape(16, 8).T
        exact = twice.astype(np.int64)
        assert np.array_equal(exact, twice) and set(exact.ravel().tolist()) == {0, 2}
        for row in exact:
            rest = row - tables @ coeff  # per E, what k would have to be at each strategy
            fits = [(int(r[0]), e.tolist()) for r, e in zip(rest, tables) if (r == r[0]).all()]
            assert len(fits) == 1
            (k, e), = fits
            assert k == 1 and set(e) <= {-1, 1}
        bias = bc.max_marginal_bias_zero_signal(scope)
        assert bias == 0.0 and math.copysign(1.0, bias) == 1.0


def test_a_catalogue_that_breaks_the_identity_reads_a_bias(monkeypatch):
    corrupt_catalogue(monkeypatch)
    assert bc.max_marginal_bias_zero_signal() > 1e-9
    assert bc.max_marginal_bias_zero_signal(bc.PRScope(1, 1, 1)) == 0.0  # another scope's table


def test_property_suite_passes_and_is_seeded():
    report = bc.run_property_suite(seed=17, instances=40)
    assert report.passed
    names = [c.name for c in report.checks]
    assert "cost-complementarity" in names
    assert "signed-signal-consistency" in names
    assert "zero-signal-bias" in names
    again = bc.run_property_suite(seed=17, instances=40)
    assert [c.worst for c in report.checks] == [c.worst for c in again.checks]
    text = report.render_text()
    assert "PASS overall" in text
    data = report.to_json()
    assert data["passed"] is True
    assert len(data["checks"]) == len(report.checks)


def test_property_suite_detects_corrupted_catalogue(monkeypatch):
    # one corrupted table reaches every check that reads the catalogue, and none other
    corrupt_catalogue(monkeypatch)
    report = bc.run_property_suite(seed=17, instances=30)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert failed >= {"catalogue-structure", "signed-signal-consistency", "conditional-bounds",
                      "single-pair-saturation", "entropic-pair-saturation", "zero-signal-bias"}
    assert not failed & {"cost-complementarity", "pironio-floor", "relaxed-bell",
                         "certified-indeterminacy", "entropic-signal-floor",
                         "entropic-floor-equality"}
    assert "FAIL overall" in report.render_text()


def test_the_negative_control_does_not_depend_on_the_suites_before_it(monkeypatch):
    # clean, corrupted, clean in one process: each run reads the table it is given
    clean = bc.run_property_suite(seed=17, instances=30)
    with monkeypatch.context() as patched:
        corrupt_catalogue(patched)
        corrupted = bc.run_property_suite(seed=17, instances=30)
    again = bc.run_property_suite(seed=17, instances=30)
    assert {c.name for c in corrupted.checks if not c.passed} == {
        "catalogue-structure", "signed-signal-consistency", "conditional-bounds",
        "single-pair-saturation", "entropic-pair-saturation", "zero-signal-bias"}
    assert all(c.passed for c in clean.checks) and all(c.passed for c in again.checks)
    assert clean.to_json() == again.to_json()


def test_property_suite_validation():
    # seed and instances follow the integer rule of simulate's trials and seed
    for seed, instances in ((0, 0), (-1, 1), (1.5, 1), ("1", 1), (None, 1), (0, 1.5),
                            (0, "3"), (0, None), (0, -(2 ** 70))):
        with pytest.raises(bc.DomainError):
            bc.run_property_suite(seed=seed, instances=instances)
    # numpy integers are integers, and give the report of the same Python ints
    report = bc.run_property_suite(seed=np.int64(3), instances=np.uint8(2))
    assert report.to_json() == bc.run_property_suite(seed=3, instances=2).to_json()
    assert report.seed == 3 and type(report.seed) is int


def test_property_suite_refuses_more_instances_than_its_maximum(monkeypatch):
    # a suite that got past the check fails at its first draw, before sizing anything
    def never_drawn(*args):
        raise AssertionError("instances past the maximum were drawn")

    monkeypatch.setattr(certify, "_random_feasible_boxes", never_drawn)
    for instances in (certify.MAX_INSTANCES + 1, 10 ** 12):
        with pytest.raises(bc.DomainError, match=r"instances in \[1, 2\*\*18\]"):
            bc.run_property_suite(instances=instances)
    assert certify.MAX_INSTANCES == 2 ** 18


def test_tolerances_outside_the_unit_interval_are_refused():
    two_way = bc.strategy_box(bc.scope_strategies()[8])
    for tol in (math.inf, math.nan, 10.0, 1.0, 0.0, -1e-9, "0.5", None, [0.5], 0.5j):
        with pytest.raises(bc.DomainError):
            bc.min_comm_cost(two_way, tol=tol)
        with pytest.raises(bc.DomainError):
            bc.complementarity_report(two_way, tol=tol)
        with pytest.raises(bc.DomainError):
            bc.run_property_suite(instances=1, tol=tol)
    with pytest.raises(bc.Infeasible):
        bc.min_comm_cost(two_way, tol=0.5)


def _count_calls(monkeypatch, names, home=measures):
    """Count calls of the named functions of `home`, wherever a boxcomp module binds them.

    Calls from one of them to another, inside `home`, count too.
    """
    calls = collections.Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "boxcomp"]
    for name in names:
        fn = getattr(home, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_measures_each_box_once(tmp_path, monkeypatch, capsys):
    # every measure of the report, entropies and both CHSH values included, is read
    # from one build of the box's marginals and one of its correlators
    names = ("marginals", "correlators")
    path = tmp_path / "tsirelson.json"
    bc.dump_box(tsirelson_box(), path)
    calls = _count_calls(monkeypatch, names)
    for fmt in ("text", "json"):
        calls.clear()
        assert main(["analyze", "--box", str(path), "--format", fmt]) == 0
        assert calls == dict.fromkeys(names, 1), fmt


def _unlike_the_public_measures(got, sig, p):
    """The names of the values in `got`, and of the fields of SignalReport `sig`, that are
    not byte for byte the public measure of the box or stack p."""
    want_sig, lam_max = bc.signal(p), bc.chsh_max(p)
    want = {"lambda_fixed": bc.chsh(p), "lambda_max": lam_max, "I": bc.indeterminacy(p),
            "I_per_setting": bc.indeterminacy_per_setting(p), "H_S": bc.entropic_signal(p),
            "H_I": bc.entropic_indeterminacy(p),
            "cert_I_bound": bc.certified_indeterminacy_bound(lam_max, want_sig.S)}
    assert got.keys() == want.keys()
    fields = [f.name for f in dataclasses.fields(bc.SignalReport)]
    return ([key for key in want if not _same_bytes(got[key], want[key])]
            + [f for f in fields if not _same_bytes(getattr(sig, f), getattr(want_sig, f))])


def test_the_measured_record_is_the_public_measures_bit_for_bit():
    # the report reads every value from one marginals and one correlators build; each
    # equals its public measure, byte for byte, sign of zero included
    names = ("lambda_fixed", "lambda_max", "I", "I_per_setting", "H_S", "H_I", "cert_I_bound")
    for name, p in _audit_corpus():
        cert = bc.complementarity_report(p)
        got = {key: getattr(cert, key) for key in names}
        assert _unlike_the_public_measures(got, cert.signal, p) == [], name
    # and so does the relation core on the 404-box +/- pair stack, with the pair suite's
    # entropies and the suites' inline Pironio bound
    w = np.stack([np.arange(101) / 100.0, 1.0 - np.arange(101) / 100.0], axis=-1)
    boxes = np.concatenate([bc.mixtures(w, bc.scope_boxes()[2 * j:2 * j + 2]) for j in range(4)])
    r = certify._relations(boxes, cost=1.0)
    got = {key: getattr(r, key) for key in names[1:4] + names[6:]}
    got.update(lambda_fixed=measures._chsh(r.correlators),
               H_S=measures._entropic_signal(r.marginals),
               H_I=measures._entropic_indeterminacy(r.marginals))
    assert len(boxes) == 404 and _unlike_the_public_measures(got, r.signal, boxes) == []
    assert _same_bytes(r.marginals, bc.marginals(boxes))
    assert _same_bytes(r.correlators, bc.correlators(boxes))
    assert _same_bytes(r.pironio_slack, 1.0 - bc.pironio_bound(bc.chsh_max(boxes)))


def test_the_entropic_floor_is_computed_once_per_process(monkeypatch):
    # the floor checks read fixed grids, never the seed or the catalogue, so the
    # first suite computes them and later ones reuse the same two floats.  The cold
    # suite reads the information once at the equality points and once per 8 of the
    # 101 strengths; the warm suite adds no call
    certify._suite_entropic_floor.cache_clear()
    calls = _count_calls(monkeypatch, ("two_point_mutual_information",))
    cold = bc.run_property_suite(seed=17, instances=40).to_json()
    assert calls == {"two_point_mutual_information": 1 + 13}
    warm = bc.run_property_suite(seed=17, instances=40).to_json()
    assert cold == warm
    assert calls == {"two_point_mutual_information": 1 + 13}


def test_a_broken_floor_measure_is_seen_once_the_floor_cache_is_cleared(monkeypatch):
    # a warm suite reports the first call's floor values; cache_clear makes the
    # next suite compute them again, so a raised bound then fails both floor checks
    certify._suite_entropic_floor.cache_clear()
    assert bc.run_property_suite(seed=5, instances=20).passed

    def raised(s):
        return measures.entropic_signal_lower_bound(s) + 1e-6

    try:
        with monkeypatch.context() as patched:
            patched.setattr(certify, "entropic_signal_lower_bound", raised)
            warm = bc.run_property_suite(seed=5, instances=20)
            certify._suite_entropic_floor.cache_clear()
            fresh = bc.run_property_suite(seed=5, instances=20)
    finally:
        certify._suite_entropic_floor.cache_clear()
    assert warm.passed
    assert {c.name for c in fresh.checks if not c.passed} == {
        "entropic-signal-floor", "entropic-floor-equality"}
    assert bc.run_property_suite(seed=5, instances=20).passed


def test_suite_measures_its_box_stack_once(monkeypatch, capsys):
    # one marginals build for the feasible boxes, the specs and the +/- pairs together,
    # whose entropies read the same build; the second is the zero-signal bias's catalogue
    calls = _count_calls(monkeypatch, ("marginals",))
    worst = certify._suite_stacks(np.random.default_rng(5), 20, bc.PRScope())
    assert calls == {"marginals": 1}
    assert len(worst) == 9 and all(math.isfinite(v) for v in worst)
    calls.clear()
    assert main(["verify", "--instances", "200"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert calls == {"marginals": 2}
    # the whole suite reads its costs from the tables in one call, never box by box, and
    # hands its checked stack to the unchecked core, so the boxes are not checked twice
    costs = _count_calls(monkeypatch, ("comm_cost_many", "_comm_costs", "min_comm_cost"),
                         decompose)
    assert bc.run_property_suite(seed=5, instances=20).passed
    assert costs == {"_comm_costs": 1}


def test_suite_draws_and_bounds_its_specs_as_stacks(monkeypatch):
    names = ("signed_signals", "_signed_signal_rows", "conditional_lower_bounds")
    calls = _count_calls(monkeypatch, names, decompose)
    assert bc.run_property_suite(seed=5, instances=20).passed
    # one call of the signed-signal core over the spec stack; the bounds and the boxes
    # are drawn as stacks too, and no spec is built one at a time
    assert calls == {"_signed_signal_rows": 1}
    monkeypatch.undo()
    # the core is the hand-written fsum of each signal's index sets, row by row, bit for bit
    rng = np.random.default_rng(2028)
    specs = [random_resource_spec(rng, scope) for scope in bc.all_scopes() for _ in range(650)]
    specs += [bc.ResourceSpec.from_mapping({name: 1.0}) for name in bc.STRATEGY_NAMES]
    rows = decompose._signed_signal_rows(np.array([spec.weights for spec in specs]))
    reference = np.array([ref_signed_signals(spec) for spec in specs])
    assert rows.shape == (len(specs), 4) and rows.tobytes() == reference.tobytes()


class _CountingGenerator:
    """A np.random.Generator that counts the calls made on it, by method name."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = collections.Counter()

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)
        return counted


def test_spec_suite_draws_in_a_fixed_number_of_generator_calls():
    scope = bc.PRScope()
    counts = []
    for instances in (1, 200, 20000):
        rng = _CountingGenerator(5)
        worst = certify._suite_stacks(rng, instances, scope)
        assert all(math.isfinite(v) for v in worst)
        counts.append(dict(rng.calls))
    # one call per kind of draw, whatever the suite's size: the feasible boxes' Dirichlet
    # weights, then the specs' three draws (their Dirichlet weights, every c, every k)
    assert counts[0] == counts[1] == counts[2]
    assert counts[0] == {"dirichlet": 2, "uniform": 1, "integers": 1}
