"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

Run with -s to see the one-line verdict per criterion.
"""

import math
import time

import numpy as np

import boxcomp as bc
from _helpers import pair_spec, random_feasible_box, random_resource_spec, tsirelson_box

SQRT2 = math.sqrt(2.0)

# one ulp around 1.0: the float weights (p, 1-p) themselves only sum to 1
# within this, so saturation identities cannot be sharper (see the repo's
# decision ledger for the measured analysis)
ULP_TOL = 5e-16


def _run(num, title, limit_s, body):
    t0 = time.perf_counter()
    try:
        body()
    except AssertionError:
        print(f"criterion {num} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < limit_s, f"criterion {num} took {elapsed:.1f}s, limit {limit_s}s"
    print(f"criterion {num} ({title}): PASS ({elapsed:.2f}s < {limit_s:.0f}s)")


def test_criterion_1_pr_box_saturation():
    def body():
        pr = bc.pr_box()
        cert = bc.complementarity_report(pr)
        assert cert.lambda_fixed == 4.0
        assert cert.signal.S == 0.0
        assert cert.I == 0.5
        dec = bc.min_comm_cost(pr)
        assert abs(dec.C - 1.0) <= 1e-9
        assert abs(cert.signal.S + 2.0 * cert.I - dec.C) <= 1e-9

    _run(1, "PR-box saturation", 1.0, body)


def test_criterion_2_single_pair_complementarity():
    def body():
        for k in range(101):
            p = k / 100.0
            spec = pair_spec(1, p)
            box = bc.resource_box(spec)
            s = bc.signal(box).S
            ind = bc.indeterminacy(box)
            assert ind == min(p, 1.0 - p)
            assert abs(s - abs(2.0 * p - 1.0)) <= ULP_TOL
            assert abs(s + 2.0 * ind - 1.0) <= ULP_TOL
            h_s = bc.entropic_signal(box)
            h_i = bc.entropic_indeterminacy(box)
            assert abs(h_s + h_i - 1.0) <= 1e-9
        box = bc.resource_box(pair_spec(1, 0.75))
        assert abs(bc.entropic_signal(box) - 0.18872) <= 1e-5
        assert abs(bc.entropic_indeterminacy(box) - 0.81128) <= 1e-5

    _run(2, "single-pair complementarity", 5.0, body)


def test_criterion_3_cost_complementarity_suite():
    def body():
        rng = np.random.default_rng(np.random.SeedSequence(3))
        worst_thm1 = math.inf
        worst_pir = math.inf
        for _ in range(1000):
            box, _ = random_feasible_box(rng)
            c = bc.min_comm_cost(box).C
            s = bc.signal(box).S
            ind = bc.indeterminacy(box)
            worst_thm1 = min(worst_thm1, s + 2.0 * ind - c)
            worst_pir = min(worst_pir, c - (bc.chsh_max(box) / 2.0 - 1.0))
        assert worst_thm1 >= -1e-9, f"worst S + 2I - C = {worst_thm1}"
        assert worst_pir >= -1e-9, f"worst C - (chsh_max/2 - 1) = {worst_pir}"

    _run(3, "cost complementarity on 1000 random 1-bit boxes", 60.0, body)


def test_criterion_4_singlet_simulation_fidelity():
    def body():
        angles = [0.0, math.pi / 6, math.pi / 3, math.pi / 2,
                  2.0 * math.pi / 3, 5.0 * math.pi / 6, math.pi]
        rng = np.random.default_rng(np.random.SeedSequence(20260819))
        resources = {
            "deterministic": bc.ResourceSpec.from_mapping({"S1+": 1.0}),
            "pr": bc.ResourceSpec.from_mapping({"S1+": 0.5, "S1-": 0.5}),
            "pair-0.7": pair_spec(1, 0.7),
            "random-16": random_resource_spec(rng),
        }
        n = 1_000_000
        for name, spec in resources.items():
            points = bc.sweep_angles(spec, angles, n, seed=404)
            worst = max(abs(p.estimate - p.target) for p in points)
            assert worst <= 3e-3, f"{name}: worst error {worst}"

    _run(4, "singlet-simulation fidelity, 4 resources x 7 angles", 300.0, body)


def test_criterion_5_certified_randomness():
    def body():
        ts = tsirelson_box()
        assert bc.signal(ts).S == 0.0
        bound = bc.certified_indeterminacy_bound(bc.chsh_max(ts), bc.signal(ts).S)
        assert abs(bound - (SQRT2 - 1.0) / 2.0) <= 1e-12
        assert abs(bc.certified_indeterminacy_bound(2.0 * SQRT2, 0.0)
                   - (SQRT2 - 1.0) / 2.0) <= 1e-12
        # one full bit of randomness for the nonsignaling PR resource
        assert bc.entropic_indeterminacy(bc.pr_box()) == 1.0

    _run(5, "certified randomness at the Tsirelson point", 1.0, body)


def test_criterion_6_entropic_signal_floor():
    def body():
        for k in range(101):
            s = k / 100.0
            bound = bc.entropic_signal_lower_bound(s)
            p = np.arange(0.0, 1.0 - s + 1e-12, 1e-3)
            info = bc.two_point_mutual_information(p, s)
            assert float((info - bound).min()) >= -1e-9
            opt = float(bc.two_point_mutual_information((1.0 - s) / 2.0, s))
            assert abs(opt - bound) <= 1e-9

    _run(6, "entropic signal floor over S and p grids", 10.0, body)


def test_criterion_7_signed_signal_consistency():
    def body():
        rng = np.random.default_rng(np.random.SeedSequence(7))
        locals_ = bc.enumerate_deterministic("local")
        for _ in range(1000):
            spec = random_resource_spec(rng)
            box = bc.resource_box(spec)
            rep = bc.signal(box)
            measured = (rep.s_A_to_B_per_y[0], rep.s_A_to_B_per_y[1],
                        rep.s_B_to_A_per_x[0], rep.s_B_to_A_per_x[1])
            for signed, direct in zip(bc.signed_signals(spec).as_tuple(), measured):
                assert abs(abs(signed) - direct) <= 1e-12
            for x, y, a, b, bound in bc.conditional_lower_bounds(spec):
                assert box.p[x, y, a, b] >= bound - 1e-12
            c = float(rng.uniform(0.2, 1.0))
            noise = bc.strategy_box(locals_[int(rng.integers(16))])
            noisy = bc.mix((c, 1.0 - c), (box, noise))
            for x, y, a, b, bound in bc.conditional_lower_bounds(spec, nonlocal_weight=c):
                assert noisy.p[x, y, a, b] >= bound - 1e-12

    _run(7, "signed signals and conditional bounds on 1000 specs", 30.0, body)


def test_criterion_8_negative_controls():
    def body():
        # two-way deterministic box is outside the 1-bit polytope
        infeasible = False
        try:
            bc.min_comm_cost(bc.strategy_box(bc.scope_strategies()[8]))
        except bc.Infeasible:
            infeasible = True
        assert infeasible
        # a biased zero-signal catalogue mixture does not exist: pinning all
        # signed signals to zero forces every marginal to 1/2, so I = 1/2
        assert bc.max_marginal_bias_zero_signal() <= 1e-9
        # and indeed no catalogue mixture beats the complementarity floor
        rng = np.random.default_rng(np.random.SeedSequence(8))
        for _ in range(300):
            spec = random_resource_spec(rng)
            box = bc.resource_box(spec)
            assert bc.signal(box).S + 2.0 * bc.indeterminacy(box) >= 1.0 - 1e-9

    _run(8, "negative controls: two-way box, biased zero-signal spec", 30.0, body)
