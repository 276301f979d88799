"""Complementarity certificates and randomized property suites.

The central trade-off is S + 2I >= C: a box that one bit of communication
simulates at cost C must pay for it in signal S or indeterminacy I, so a
CHSH value certifies indeterminacy even against signaling models.  On the
resources that simulate the singlet it is the conjecture of Hall (PRA 82,
062117, 2010) and Kar et al. (2011) that the paper proves.  It is stated
here only on the classes where it was measured to hold:

- boxes whose one-way vertices all signal in the same direction;
- a scope's one-way catalogue specs (weight on its first 8 strategies
  only), which do mix both directions.

It is not a law of every 1-bit box.  The mixed-direction box
0.75 [a=0, b=1^x^y] + 0.25 [a=xy, b=1] has S = 0.75, I = 0 and C = 1, so
`complementarity_report` fails its `cost_complementarity` flag there.  The
suite's `cost-complementarity` check draws dense mixtures of all 112
vertices, on which no failure has been seen.

Each relation is written once, in `_relations`, as a slack that is
nonnegative exactly when the relation holds.  It measures a box, or a
(..., 2, 2, 2, 2) stack, once: `chsh_max`, `signal` and
`indeterminacy_per_setting`.  The bounds then read those measured values,
never the box.  `complementarity_report` (a stack of one, behind `analyze`)
and the `verify` suites read it; the suites run over stacks of random 1-bit
boxes, catalogue specs with their conditional bounds, +/- pairs (C = 1 for
these two) and entropic-floor grids.  Every floor grid is a prefix of the
1001-point p grid, so the floor reads H(p) from one entropy of that grid.
The suites pass stacks, never box or spec objects: random instances are
drawn into arrays that the suites trust, as every internal stack path
does; the 1-bit boxes are checked once, as a stack, by the rules of a box.
They read the catalogue from boxcore's one table, which
the negative-control test corrupts; the zero-signal check reads an integer
identity of it, not an LP.  `Certificate` is `analyze`'s only record.

Both read C from `comm_cost_many`'s core: the largest value of decompose's 344
integer cost rows, with a box outside the 1-bit polytope when one of the
32 facet rows is positive.  No linear program runs.  The cost rows'
size-8 orbit holds the 8 CHSH rows, so the CHSH floor is one of the
inequalities that define C.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .boxcore import (
    PRScope,
    _mixtures,
    _real,
    check_tolerance,
    checked_boxes,
    checked_count_and_seed,
    scope_boxes,
    scope_strategies,
)
from .decompose import (
    SIGNAL_COEFFICIENTS,
    VERTEX_BOXES,
    _comm_costs,
    _conditional_bounds,
    _random_feasible_boxes,
    _signed_signal_rows,
)
from .errors import Infeasible
from .measures import (
    SignalReport,
    _max2,
    _value,
    binary_entropy,
    chsh,
    chsh_max,
    entropic_indeterminacy,
    entropic_signal,
    entropic_signal_lower_bound,
    indeterminacy_per_setting,
    marginals,
    pironio_bound,
    signal,
    two_point_mutual_information,
)


MAX_INSTANCES = 1 << 18  # the most a suite accepts: ~1 GiB at its peak, ~3.8 KiB per instance


def certified_indeterminacy_bound(lam, s):
    """Indeterminacy certified by a CHSH value under signal strength s.

    Returns max(lam/4 - (1 + s)/2, 0); lam is the sign-maximized CHSH value
    in [0, 4] and s the observed signal strength in [0, 1].  Arrays of
    values give an array of bounds.
    """
    lam = _real(lam, 0, 4, "CHSH value")
    s = _real(s, 0, 1, "signal strength")
    return _value(np.maximum(lam / 4.0 - (1.0 + s) / 2.0, 0.0))


def _relations(box, cost=None):
    """Measure a box or a stack once; the terms and slack of every relation.

    Each slack is nonnegative exactly when its relation holds:
    relaxed Bell chsh_max - 2 <= 2S + 4I, certified I >= chsh_max/4 - (1+S)/2,
    and, given the cost C (a value, or an array over the stack), S + 2I >= C
    and the CHSH floor C >= chsh_max/2 - 1.
    """
    lam_max = chsh_max(box)
    sig = signal(box)
    per = indeterminacy_per_setting(box)
    ind = _value(_max2(_max2(per)))
    bound = certified_indeterminacy_bound(lam_max, sig.S)
    lhs, rhs = lam_max - 2.0, 2.0 * sig.S + 4.0 * ind
    terms = SimpleNamespace(lambda_max=lam_max, signal=sig, I_per_setting=per, I=ind,
                            cert_I_bound=bound, relax_lhs=lhs, relax_rhs=rhs,
                            relax_slack=rhs - lhs, cert_slack=ind - bound,
                            thm1_slack=None, pironio_slack=None)
    if cost is not None:
        terms.thm1_slack = sig.S + 2.0 * ind - cost
        terms.pironio_slack = cost - pironio_bound(lam_max)
    return terms


@dataclass(frozen=True)
class Certificate:
    """Complementarity audit of one box: `analyze`'s report, as text or JSON."""

    lambda_fixed: float
    lambda_max: float
    signal: SignalReport
    I: float
    I_per_setting: tuple
    H_S: float
    H_I: float
    C_min: float | None
    cert_I_bound: float
    relax_lhs: float
    relax_rhs: float
    thm1_slack: float | None
    flags: dict

    @property
    def S(self):
        return self.signal.S

    @property
    def feasible(self):
        return self.C_min is not None

    @property
    def passed(self):
        return all(self.flags.values())

    def to_json(self):
        sig = self.signal
        return {
            "lambda": self.lambda_fixed,
            "lambda_max": self.lambda_max,
            "S": sig.S,
            "S_AtoB": sig.S_A_to_B,
            "S_BtoA": sig.S_B_to_A,
            "I": self.I,
            "H_S": self.H_S,
            "H_I": self.H_I,
            "s_A_to_B_per_y": list(sig.s_A_to_B_per_y),
            "s_B_to_A_per_x": list(sig.s_B_to_A_per_x),
            "I_per_setting": [list(row) for row in self.I_per_setting],
            "flags": dict(self.flags),
            "C_min": self.C_min,
            "feasible": self.feasible,
        }

    def render_text(self):
        lines = [
            f"lambda       = {self.lambda_fixed!r}",
            f"lambda_max   = {self.lambda_max!r}",
            f"S            = {self.S!r}",
            f"I            = {self.I!r}",
            f"H_S          = {self.H_S!r}",
            f"H_I          = {self.H_I!r}",
        ]
        if self.feasible:
            lines.append(f"C_min        = {self.C_min!r}")
            lines.append(f"S + 2I - C   = {self.thm1_slack!r}")
        else:
            lines.append("C_min        = infeasible (outside the 1-bit polytope)")
        lines.append(f"cert I bound = {self.cert_I_bound!r}")
        lines.append(f"relaxed Bell = lhs {self.relax_lhs!r} vs rhs {self.relax_rhs!r}")
        for name, ok in self.flags.items():
            lines.append(f"{'PASS' if ok else 'FAIL'} {name}")
        return "\n".join(lines)


def complementarity_report(box, tol=1e-9):
    """Measure a box and audit every complementarity relation that applies.

    Boxes outside the local + one-way polytope skip the cost-based checks;
    the signal/indeterminacy relations are checked regardless.  Anything but
    a CorrelationBox is first checked as one.
    """
    check_tolerance(tol)
    box = checked_boxes(box, ndim=4)
    try:
        c_min = float(_comm_costs(box.reshape(1, 16), tol)[0])
    except Infeasible:
        c_min = None
    r = _relations(box, c_min)
    flags = {
        "relaxed_bell": bool(r.relax_slack >= -tol),
        "operational_bell": bool(not r.lambda_max > 2.0 + tol or r.signal.S + 2.0 * r.I > 0.0),
        "certified_I": bool(r.cert_slack >= -tol),
    }
    if c_min is not None:
        flags["cost_complementarity"] = bool(r.thm1_slack >= -tol)
        flags["pironio"] = bool(r.pironio_slack >= -tol)
    return Certificate(
        lambda_fixed=chsh(box),
        lambda_max=r.lambda_max,
        signal=r.signal,
        I=r.I,
        I_per_setting=tuple(tuple(row) for row in r.I_per_setting.tolist()),
        H_S=entropic_signal(box),
        H_I=entropic_indeterminacy(box),
        C_min=c_min,
        cert_I_bound=r.cert_I_bound,
        relax_lhs=r.relax_lhs,
        relax_rhs=r.relax_rhs,
        thm1_slack=r.thm1_slack,
        flags=flags,
    )


def max_marginal_bias_zero_signal(scope=PRScope()):
    """Largest |marginal - 1/2| reachable by a zero-signal mixture of the catalogue.

    In every scope, twice each strategy's outcome-1 marginal is k + E.s in
    integers, with s the rows of SIGNAL_COEFFICIENTS, k = 1 and E = +/-1 per
    party and setting.  So a zero-signal mixture's marginals are all 1/2: no
    nonsignaling catalogue mixture is sharper.  The result, max(|k - 1|, the
    exact miss of the rounded fit) / 2, is 0 unless boxcore's catalogue breaks that.
    """
    twice = 2.0 * marginals(scope_boxes(scope))[..., 1].reshape(16, 8).T  # per party and setting
    basis = np.vstack([np.ones(16), SIGNAL_COEFFICIENTS])
    fit = np.rint(np.linalg.solve(basis @ basis.T, basis @ twice.T).T)  # per row: k, then E
    return float(max(np.abs(fit[:, 0] - 1.0).max(), np.abs(fit @ basis - twice).max()) / 2.0)


@dataclass(frozen=True)
class SuiteCheck:
    """One property-suite check: its name, whether it passed, its worst value
    over the instances (a slack held at or above -tol, or an error held at or
    below tol, as the check states), and a one-line note."""

    name: str
    passed: bool
    worst: float
    note: str

    def to_json(self):
        return {"name": self.name, "passed": self.passed,
                "worst": self.worst, "note": self.note}


@dataclass(frozen=True)
class SuiteReport:
    """What `run_property_suite` found: the seed, instance count and tolerance
    it ran with, and its checks in order.  It passes when every check does."""

    seed: int
    instances: int
    tol: float
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        return {
            "seed": self.seed,
            "instances": self.instances,
            "tol": self.tol,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }

    def render_text(self):
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status} {c.name}: worst {c.worst:.3e} ({c.note})")
        lines.append(f"{'PASS' if self.passed else 'FAIL'} overall "
                     f"(seed={self.seed}, instances={self.instances}, tol={self.tol:g})")
        return "\n".join(lines)


def _check_catalogue(scope):
    strategies = scope_strategies(scope)
    bad = 0
    for i, s in enumerate(strategies):
        if not scope.holds_for(s):
            bad += 1
        want_two_way = i >= 8
        if (s.kind == "two_way") != want_two_way:
            bad += 1
    for i in range(0, 16, 2):
        plus, minus = strategies[i], strategies[i + 1]
        if any(pa == ma for pa, ma in zip(plus.fa, minus.fa)):
            bad += 1
        if any(pb == mb for pb, mb in zip(plus.fb, minus.fb)):
            bad += 1
    return bad


def _suite_feasible_boxes(rng, instances):
    boxes, _ = _random_feasible_boxes(rng, instances)
    r = _relations(boxes, _comm_costs(boxes.reshape(-1, 16)))
    return tuple(float(v.min()) for v in (r.thm1_slack, r.pironio_slack, r.relax_slack,
                                           r.cert_slack))


def _suite_specs(rng, instances, scope):
    # three whole-stack draws, in this order: every instance's Dirichlet catalogue
    # weights, every weight c kept under noise, every local vertex k of the noise.
    # rng.dirichlet(ones(16)) scales 16 standard exponential draws by one over their
    # running sum, so the weights are drawn as those exponentials and scaled here.
    # The size= forms run the same per-element C routines as the scalar calls, so
    # unlike a hand-rolled batch (0.2 + 0.8 * rng.random(n), which a compiler may
    # contract into an FMA) they add no platform dependence.  Only the order differs
    # from per-instance draws: all weights, then all c, then all k
    draws = rng.standard_exponential((instances, 16))
    c = rng.uniform(0.2, 1.0, instances)
    k = rng.integers(16, size=instances)
    weights = draws * (1.0 / np.cumsum(draws, axis=1)[:, -1:])
    boxes = _mixtures(weights, scope_boxes(scope))
    r = _relations(boxes, cost=1.0)
    measured = np.concatenate([r.signal.s_A_to_B_per_y, r.signal.s_B_to_A_per_x], axis=-1)
    signed = _signed_signal_rows(weights)
    worst_signed = float(np.abs(np.abs(signed) - measured).max())
    worst_sat = float(r.thm1_slack.min())
    # weight c on the catalogue mixture, the rest on one local vertex (the first 16)
    kept = c[:, None, None, None, None]
    mixed = kept * boxes + (1.0 - kept) * VERTEX_BOXES[k]
    bounds, cells = _conditional_bounds(signed, c, scope)
    worst_cond = float((mixed[(slice(None), *np.transpose(cells))] - bounds).min())
    return worst_signed, worst_cond, worst_sat


def _suite_single_pairs(scope):
    p = np.arange(101) / 100.0
    w = np.stack([p, 1.0 - p], axis=-1)
    table = scope_boxes(scope)
    boxes = np.concatenate([_mixtures(w, table[2 * j:2 * j + 2]) for j in range(4)])
    worst_sat = np.abs(_relations(boxes, cost=1.0).thm1_slack).max()
    worst_ent = np.abs(entropic_signal(boxes) + entropic_indeterminacy(boxes) - 1.0).max()
    return float(worst_sat), float(worst_ent)


def _floor_chunks(s, bound):
    """Per 8 signal strengths: the strengths, the information on their p grids, the bounds.

    The p grid of strength v, np.arange(0, 1 - v + 1e-12, 1e-3), is a prefix
    of v = 0's 1001 points, bit for bit, so H(p) is read from one entropy of
    those; the rest is two_point_mutual_information, term for term.
    """
    base = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    h_base = binary_entropy(base)
    sizes = np.ceil((1.0 - s + 1e-12) / 1e-3).astype(np.intp)  # np.arange's lengths
    # 8 strengths at a time: all 101 at once peak at 3.9 MiB (tracemalloc), not 0.7
    for lo in range(0, len(s), 8):
        n = sizes[lo:lo + 8]
        p = np.concatenate([base[:k] for k in n])
        shift = np.repeat(s[lo:lo + 8], n)
        info = (binary_entropy(p + 0.5 * shift) - 0.5 * np.concatenate([h_base[:k] for k in n])
                - 0.5 * binary_entropy(p + shift))
        yield s[lo:lo + 8], info, np.repeat(bound[lo:lo + 8], n)


@functools.cache  # seed-free: fixed grids, module functions, no catalogue
def _suite_entropic_floor():
    s = np.arange(101) / 100.0
    bound = entropic_signal_lower_bound(s)
    worst_eq = float(np.abs(two_point_mutual_information((1.0 - s) / 2.0, s) - bound).max())
    worst_slack = min(float((info - b).min()) for _, info, b in _floor_chunks(s, bound))
    return worst_slack, worst_eq


def run_property_suite(seed=0, instances=1000, tol=1e-9):
    """Randomized + exhaustive grid checks of every certified relation.

    The suites check the canonical scope (0,0,0), reading its catalogue from
    boxcore's one table on every call, so a corrupted table is seen whatever
    ran before; `seed` drives every random draw.  Each suite draws its
    randomness as whole stacks, in a fixed order, with the same number of
    generator calls at any `instances` (the spec suite: all weights, then
    all kept weights c, then all noise vertices k).  For a given seed this
    samples other specs than the per-instance draws of earlier versions,
    so seeded worst values of the spec checks differ from theirs.  The two
    entropic-floor checks read only fixed S and p grids, so the first call
    in a process computes them and later calls report the first call's two
    values, even if a measure they read has changed since;
    `_suite_entropic_floor.cache_clear()` makes the next call compute them
    again.  DomainError unless seed and instances are integers with
    seed >= 0 and 1 <= instances <= MAX_INSTANCES.
    """
    instances, seed = checked_count_and_seed(instances, seed, MAX_INSTANCES,
                                             "instances in [1, 2**18]")
    check_tolerance(tol)
    scope = PRScope()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    checks = []

    bad = _check_catalogue(scope)
    checks.append(SuiteCheck("catalogue-structure", bad == 0, float(bad),
                             "scope relation, kind split, +/- complements"))

    thm1, pir, relax, cert = _suite_feasible_boxes(rng, instances)
    checks.append(SuiteCheck("cost-complementarity", thm1 >= -tol, thm1,
                             f"min S + 2I - C over {instances} random 1-bit boxes"))
    checks.append(SuiteCheck("pironio-floor", pir >= -tol, pir,
                             f"min C - (chsh_max/2 - 1) over {instances} boxes"))
    checks.append(SuiteCheck("relaxed-bell", relax >= -tol, relax,
                             f"min rhs - lhs over {instances} boxes"))
    checks.append(SuiteCheck("certified-indeterminacy", cert >= -tol, cert,
                             f"min I - bound over {instances} boxes"))

    signed, cond, sat = _suite_specs(rng, instances, scope)
    checks.append(SuiteCheck("signed-signal-consistency", signed <= 1e-12, signed,
                             f"max ||s_k| - measured| over {instances} specs"))
    checks.append(SuiteCheck("conditional-bounds", cond >= -1e-12, cond,
                             f"min P(cell) - bound over {instances} noisy specs"))
    checks.append(SuiteCheck("spec-complementarity", sat >= -tol, sat,
                             f"min S + 2I - 1 over {instances} catalogue mixtures"))

    sat_pair, ent_pair = _suite_single_pairs(scope)
    checks.append(SuiteCheck("single-pair-saturation", sat_pair <= tol, sat_pair,
                             "max |S + 2I - 1| over +/- pair mixtures, 0.01 grid"))
    checks.append(SuiteCheck("entropic-pair-saturation", ent_pair <= tol, ent_pair,
                             "max |H_S + H_I - 1| over +/- pair mixtures, 0.01 grid"))

    floor_slack, floor_eq = _suite_entropic_floor()
    checks.append(SuiteCheck("entropic-signal-floor", floor_slack >= -tol, floor_slack,
                             "min H_S(p) - (1 - H((1-S)/2)) over S, p grids"))
    checks.append(SuiteCheck("entropic-floor-equality", floor_eq <= tol, floor_eq,
                             "bound attained at p = (1-S)/2"))

    bias = max_marginal_bias_zero_signal(scope)
    checks.append(SuiteCheck("zero-signal-bias", bias <= tol, bias,
                             "max |marginal - 1/2| with all signed signals pinned to 0"))

    return SuiteReport(seed=seed, instances=instances, tol=float(tol),
                       checks=tuple(checks))
