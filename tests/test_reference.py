"""The stacked measures against per-setting loop references.

The references below are the loop forms the measures had before they were
written once over stacks: per-INPUT_PAIRS marginals as cell sums, the
signal and indeterminacy read from them, the two entropies with math.log2,
the hand-written signed-signal index sets, and the sequential mixture sum.
On random, sparse and catalogue boxes in all 8 scopes, the stacked code
must give exactly their results.  The one exception is log2-derived values:
np.log2 and math.log2 may differ in the last bit, so those are compared
within 4 ulp.

The property suite is held to its loop forms too: per-box feasible draws,
per-spec conditional bounds with each setting's sum spelled out, and one p
grid per signal strength.  Its worst values must equal theirs exactly, which
the CLI contract test's 1e-12 tolerance could not see.

Relabellings are held to the per-cell loop that `apply_relabelling` once
ran: the box gathers, the 128 cell maps in SYMMETRIES and every scope's
catalogue of strategies and boxes must equal the loop's images.

The cost tables' float matrices are held to the products of the integer
rows, and the feasible-box stack to one product per box, on 5,000 boxes.
CI runs this file on one and on two BLAS threads.

The measures' pairwise maxima and minima over 2-long axes are held to the
`.max(axis=...)`/`.min(axis=...)` reductions they replaced, and the
entropies to the masked log2 over interleaved pairs, byte for byte with the
sign of zero, on stacks whose zero cells carry both signs.
"""

import math

import numpy as np

import boxcomp as bc
from _helpers import random_feasible_box, random_resource_spec, row_values
from boxcomp import certify, decompose
from boxcomp.boxcore import INPUT_PAIRS, STRATEGY_KINDS, SYMMETRIES

# 4 ulp of the values compared; a mutual information is a difference of
# entropies of at most 1 bit, so its unit in the last place is that of 1.0
ULPS = 4


def ref_marginal_a(p, x, y):
    return (float(p[x, y, 0, 0] + p[x, y, 0, 1]), float(p[x, y, 1, 0] + p[x, y, 1, 1]))


def ref_marginal_b(p, x, y):
    return (float(p[x, y, 0, 0] + p[x, y, 1, 0]), float(p[x, y, 0, 1] + p[x, y, 1, 1]))


def ref_marginals(p):
    out = np.empty((2, 2, 2, 2))
    for x, y in INPUT_PAIRS:
        out[0, x, y] = ref_marginal_a(p, x, y)
        out[1, x, y] = ref_marginal_b(p, x, y)
    return out


def ref_signal(p):
    s_ab = []
    for y in (0, 1):
        m0, m1 = ref_marginal_b(p, 0, y), ref_marginal_b(p, 1, y)
        s_ab.append(max(abs(m1[0] - m0[0]), abs(m1[1] - m0[1])))
    s_ba = []
    for x in (0, 1):
        m0, m1 = ref_marginal_a(p, x, 0), ref_marginal_a(p, x, 1)
        s_ba.append(max(abs(m1[0] - m0[0]), abs(m1[1] - m0[1])))
    return tuple(s_ab), tuple(s_ba), max(s_ab), max(s_ba), max(max(s_ab), max(s_ba))


def ref_indeterminacy_per_setting(p):
    out = np.empty((2, 2))
    for x, y in INPUT_PAIRS:
        ma, mb = ref_marginal_a(p, x, y), ref_marginal_b(p, x, y)
        out[x, y] = min(ma[0], ma[1], mb[0], mb[1])
    return out


def ref_entropy_pair(p0, p1):
    h = 0.0
    for v in (p0, p1):
        if v > 0.0:
            h -= v * math.log2(v)
    return h


def ref_entropic_indeterminacy_per_setting(p):
    out = np.empty((2, 2))
    for x, y in INPUT_PAIRS:
        out[x, y] = max(ref_entropy_pair(*ref_marginal_a(p, x, y)),
                        ref_entropy_pair(*ref_marginal_b(p, x, y)))
    return out


def ref_mutual_information(row0, row1, prior):
    pi0, pi1 = prior
    m0 = pi0 * row0[0] + pi1 * row1[0]
    m1 = pi0 * row0[1] + pi1 * row1[1]
    return (ref_entropy_pair(m0, m1)
            - pi0 * ref_entropy_pair(*row0) - pi1 * ref_entropy_pair(*row1))


def ref_entropic_signal(p, prior):
    best = 0.0
    for y in (0, 1):
        best = max(best, ref_mutual_information(ref_marginal_b(p, 0, y),
                                                ref_marginal_b(p, 1, y), prior))
    for x in (0, 1):
        best = max(best, ref_mutual_information(ref_marginal_a(p, x, 0),
                                                ref_marginal_a(p, x, 1), prior))
    return best


# weight index sets whose alternating sums give each signed signal, by name
SIGNED_TERMS = (
    (("S3+", "S6+", "S7+", "S8+"), ("S3-", "S6-", "S7-", "S8-")),  # s1
    (("S1+", "S5-", "S6+", "S8-"), ("S1-", "S5+", "S6-", "S8+")),  # s2
    (("S4+", "S5+", "S7+", "S8+"), ("S4-", "S5-", "S7-", "S8-")),  # s3
    (("S2+", "S5+", "S6-", "S7-"), ("S2-", "S5-", "S6+", "S7+")),  # s4
)


def ref_signed_signals(spec):
    idx = {name: i for i, name in enumerate(bc.STRATEGY_NAMES)}
    return tuple(math.fsum([spec.weights[idx[n]] for n in plus])
                 - math.fsum([spec.weights[idx[n]] for n in minus])
                 for plus, minus in SIGNED_TERMS)


def ref_conditional_lower_bounds(spec, nonlocal_weight=1.0):
    c = float(nonlocal_weight)
    s = decompose.SignedSignals(*ref_signed_signals(spec))
    t_by_setting = {
        (0, 0): s.s1 + s.s2 + s.s3 + s.s4,
        (0, 1): s.s1 + s.s2 - s.s3 + s.s4,
        (1, 0): -s.s1 + s.s2 + s.s3 + s.s4,
        (1, 1): -s.s1 + s.s2 + s.s3 - s.s4,
    }
    anchor = bc.scope_strategies(spec.scope)[0]
    rows = []
    for x, y in INPUT_PAIRS:
        a0, b0 = anchor.a(x, y), anchor.b(x, y)
        t = c * t_by_setting[(x, y)]
        rows.append((x, y, a0, b0, (c + t) / 2.0))
        rows.append((x, y, 1 ^ a0, 1 ^ b0, (c - t) / 2.0))
    return rows


def ref_entropic_floor():
    worst_slack = math.inf
    worst_eq = 0.0
    for k in range(101):
        s = k / 100.0
        bound = 1.0 - bc.binary_entropy((1.0 - s) / 2.0)
        p = np.arange(0.0, 1.0 - s + 1e-12, 1e-3)
        info = bc.two_point_mutual_information(p, s)
        worst_slack = min(worst_slack, float((info - bound).min()))
        opt = bc.two_point_mutual_information((1.0 - s) / 2.0, s)
        worst_eq = max(worst_eq, abs(float(opt) - bound))
    return worst_slack, worst_eq


def ref_suite_worsts(seed, instances):
    """The worst values of the suite's stacked checks, by name, from their loop forms."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    boxes = []
    for _ in range(instances):
        w = rng.dirichlet(np.ones(len(decompose.VERTICES)))
        boxes.append(bc.CorrelationBox((decompose._COLUMNS @ w).reshape(2, 2, 2, 2)))
    r = certify._relations(np.stack([box.p for box in boxes]), bc.comm_cost_many(boxes))
    worst = {"cost-complementarity": r.thm1_slack, "pironio-floor": r.pironio_slack,
             "relaxed-bell": r.relax_slack, "certified-indeterminacy": r.cert_slack}
    worst = {name: float(v.min()) for name, v in worst.items()}
    scope = bc.PRScope()
    # every spec, then every kept weight c, then every noise vertex k
    specs = [random_resource_spec(rng, scope) for _ in range(instances)]
    kept = [float(rng.uniform(0.2, 1.0)) for _ in range(instances)]
    noisy = list(zip(kept, [int(rng.integers(16)) for _ in range(instances)]))
    mixed = bc.mixtures([spec.weights for spec in specs], bc.scope_boxes(scope))
    r = certify._relations(mixed, cost=1.0)
    measured = np.concatenate([r.signal.s_A_to_B_per_y, r.signal.s_B_to_A_per_x], axis=-1)
    signed = np.array([ref_signed_signals(spec) for spec in specs])
    worst["signed-signal-consistency"] = float(np.abs(np.abs(signed) - measured).max())
    worst["spec-complementarity"] = float(r.thm1_slack.min())
    worst_cond = math.inf
    for p, spec, (c, k) in zip(mixed, specs, noisy):
        noisy_box = c * p + (1.0 - c) * decompose.VERTEX_BOXES[k]
        for x, y, a, b, bound in ref_conditional_lower_bounds(spec, c):
            worst_cond = min(worst_cond, float(noisy_box[x, y, a, b] - bound))
    worst["conditional-bounds"] = worst_cond
    worst["entropic-signal-floor"], worst["entropic-floor-equality"] = ref_entropic_floor()
    return worst


def ref_apply_relabelling(p, rel):
    """The relabelled array, cell by cell: Q(a,b|x,y) = P(a ^ ao[x], b ^ bo[y] | x ^ fx, y ^ fy)."""
    q = np.empty_like(p)
    for x, y in INPUT_PAIRS:
        for a in (0, 1):
            for b in (0, 1):
                q[x, y, a, b] = p[x ^ rel.flip_x, y ^ rel.flip_y,
                                  a ^ rel.a_offset[x], b ^ rel.b_offset[y]]
    return q


def ref_strategy_box(strategy):
    p = np.zeros((2, 2, 2, 2))
    for x, y in INPUT_PAIRS:
        p[x, y, strategy.a(x, y), strategy.b(x, y)] = 1.0
    return p


def ref_strategy(q):
    """The strategy of a deterministic array, read off the one full cell per setting."""
    fa, fb = [], []
    for x, y in INPUT_PAIRS:
        (a, b), = [(a, b) for a in (0, 1) for b in (0, 1) if q[x, y, a, b] == 1.0]
        fa.append(a)
        fb.append(b)
    return bc.DeterministicStrategy(tuple(fa), tuple(fb))


def ref_mix(weights, stack):
    acc = np.zeros((2, 2, 2, 2))
    for w, p in zip(weights, stack):
        acc += w * p
    return acc


def _boxes():
    """Dense random, sparse and catalogue boxes over all 8 scopes, as one stack."""
    rng = np.random.default_rng(2024)
    vertices = decompose.VERTEX_BOXES
    p = [random_feasible_box(rng)[0].p for _ in range(300)]
    for _ in range(300):
        k = int(rng.integers(2, 5))
        support = rng.choice(len(vertices), size=k, replace=False)
        p.append(bc.mix(rng.dirichlet(np.ones(k)), vertices[support]).p)
    for scope in bc.all_scopes():
        table = bc.scope_boxes(scope)
        p.extend(table)
        p.append(bc.pr_box(scope).p)
        for _ in range(50):
            p.append(bc.resource_box(random_resource_spec(rng, scope)).p)
        for _ in range(10):
            pair = 2 * int(rng.integers(8))
            q = float(rng.integers(101)) / 100.0
            p.append(bc.mix((q, 1.0 - q), table[pair:pair + 2]).p)
    return np.array(p)


BOXES = _boxes()


def _close_in_ulps(new, ref, scale):
    return bool(np.all(np.abs(new - ref) <= ULPS * np.spacing(np.abs(scale))))


def test_marginals_signal_and_indeterminacy_are_exact():
    assert len(BOXES) >= 1000
    m = bc.marginals(BOXES)
    sig = bc.signal(BOXES)
    per = bc.indeterminacy_per_setting(BOXES)
    ind = bc.indeterminacy(BOXES)
    for i, p in enumerate(BOXES):
        assert np.array_equal(m[i], ref_marginals(p))
        s_ab, s_ba, s_a_to_b, s_b_to_a, s = ref_signal(p)
        assert tuple(sig.s_A_to_B_per_y[i]) == s_ab
        assert tuple(sig.s_B_to_A_per_x[i]) == s_ba
        assert (sig.S_A_to_B[i], sig.S_B_to_A[i], sig.S[i]) == (s_a_to_b, s_b_to_a, s)
        ref_per = ref_indeterminacy_per_setting(p)
        assert np.array_equal(per[i], ref_per)
        assert ind[i] == ref_per.max()


def test_single_box_is_a_stack_of_one():
    for p in BOXES[::37]:
        box = bc.CorrelationBox(p)
        s_ab, s_ba, s_a_to_b, s_b_to_a, s = ref_signal(p)
        rep = bc.signal(box)
        assert (rep.s_A_to_B_per_y, rep.s_B_to_A_per_x) == (s_ab, s_ba)
        assert (rep.S_A_to_B, rep.S_B_to_A, rep.S) == (s_a_to_b, s_b_to_a, s)
        assert type(rep.S) is float and type(bc.indeterminacy(box)) is float
        assert bc.indeterminacy(box) == ref_indeterminacy_per_setting(p).max()
        assert type(bc.entropic_signal(box)) is float
        assert bc.entropic_signal(box) == bc.entropic_signal(p[None])[0]
        assert bc.chsh_max(box) == bc.chsh_max(p[None])[0]


def test_entropies_within_four_ulp():
    per = bc.entropic_indeterminacy_per_setting(BOXES)
    h_i = bc.entropic_indeterminacy(BOXES)
    signal_by_prior = {prior: bc.entropic_signal(BOXES, prior)
                       for prior in ((0.5, 0.5), (0.9, 0.1), (0.25, 0.75))}
    for i, p in enumerate(BOXES):
        ref_per = ref_entropic_indeterminacy_per_setting(p)
        assert _close_in_ulps(per[i], ref_per, ref_per)
        assert _close_in_ulps(h_i[i], ref_per.max(), ref_per.max())
        for prior, h_s in signal_by_prior.items():
            assert _close_in_ulps(h_s[i], ref_entropic_signal(p, prior), 1.0)


def test_signed_signals_match_hand_written_index_sets():
    rng = np.random.default_rng(2025)
    for scope in bc.all_scopes():
        for _ in range(150):
            spec = random_resource_spec(rng, scope)
            assert bc.signed_signals(spec).as_tuple() == ref_signed_signals(spec)
    for name in bc.STRATEGY_NAMES:
        spec = bc.ResourceSpec.from_mapping({name: 1.0})
        assert bc.signed_signals(spec).as_tuple() == ref_signed_signals(spec)


def test_conditional_lower_bounds_match_the_spelled_out_rule():
    rng = np.random.default_rng(2027)
    for scope in bc.all_scopes():
        for _ in range(150):
            spec = random_resource_spec(rng, scope)
            c = float(rng.uniform(0.0, 1.0))
            rows = bc.conditional_lower_bounds(spec, nonlocal_weight=c)
            assert rows == ref_conditional_lower_bounds(spec, c)
            assert all(type(v) is int for row in rows for v in row[:4])
            assert all(type(row[4]) is float for row in rows)
        assert bc.conditional_lower_bounds(spec) == ref_conditional_lower_bounds(spec)


def test_property_suite_worst_values_equal_their_loop_forms():
    for seed in (0, 7):
        report = bc.run_property_suite(seed=seed, instances=200)
        worst = {check.name: check.worst for check in report.checks}
        ref = ref_suite_worsts(seed, 200)
        assert len(ref) == 9
        for name, value in ref.items():
            assert worst[name] == value, name


def test_mixtures_sum_in_vertex_order():
    rng = np.random.default_rng(2026)
    vertices = decompose.VERTEX_BOXES
    weights = rng.dirichlet(np.ones(len(vertices)), size=200)
    stacked = bc.mixtures(weights, vertices)
    for w, p in zip(weights, stacked):
        assert np.array_equal(p, ref_mix(w, vertices))
        assert np.array_equal(bc.mix(w, vertices).p, p)
    for scope in bc.all_scopes():
        spec = random_resource_spec(rng, scope)
        table = [bc.strategy_box(s).p for s in bc.scope_strategies(scope)]
        assert np.array_equal(bc.resource_box(spec).p, ref_mix(spec.weights, table))


def test_apply_relabelling_is_the_per_cell_loop():
    rels = bc.all_relabellings()
    for p in BOXES[::11]:  # dense, sparse and catalogue boxes
        box = bc.CorrelationBox(p)
        for rel in rels:
            moved = bc.apply_relabelling(box, rel)
            assert moved.p.tobytes() == ref_apply_relabelling(p, rel).tobytes()


def test_symmetries_are_the_loop_images_of_the_cell_indices():
    images = [ref_apply_relabelling(np.arange(16).reshape(2, 2, 2, 2), rel)
              for rel in bc.all_relabellings()]
    assert SYMMETRIES.shape == (128, 16) and decompose.SYMMETRIES is SYMMETRIES
    for g, image in enumerate(images):
        assert SYMMETRIES[g].tolist() == image.ravel().tolist()
        assert SYMMETRIES[64 + g].tolist() == image.transpose(1, 0, 3, 2).ravel().tolist()


def test_relabelled_strategies_and_catalogues_are_the_loop_images():
    canonical = [ref_strategy_box(s) for s in bc.scope_strategies()]
    for scope in bc.all_scopes():
        images = [ref_apply_relabelling(p, bc.scope_relabelling(scope)) for p in canonical]
        assert bc.scope_strategies(scope) == [ref_strategy(q) for q in images]
        assert bc.scope_boxes(scope).tobytes() == np.array(images).tobytes()


def test_float_cost_tables_and_box_stacks_are_the_int_row_products():
    rng = np.random.default_rng(2032)
    boxes, w = decompose._random_feasible_boxes(rng, 5000)
    per_box = np.array([decompose._COLUMNS @ row for row in w])
    assert boxes.tobytes() == per_box.tobytes() and not boxes.flags.writeable
    cells = np.concatenate([per_box, BOXES.reshape(-1, 16)])
    excess = row_values(decompose.FACET_ROWS, cells).max(axis=1)
    feasible = cells[excess <= decompose.WEIGHT_TOL]
    assert len(feasible) > 5000
    ref = np.clip(row_values(decompose.COST_ROWS, feasible).max(axis=1), 0.0, 1.0)
    assert bc.comm_cost_many(feasible.reshape(-1, 2, 2, 2, 2)).tobytes() == ref.tobytes()
    assert bc.comm_cost_many(list(feasible.reshape(-1, 2, 2, 2, 2))).tobytes() == ref.tobytes()
    tables = ((decompose.FACET_ROWS, decompose._FACET_T, decompose._FACET_K),
              (decompose.COST_ROWS, decompose._COST_T, decompose._COST_K))
    for rows, table, k in tables:  # products of every stack height give the same bits
        for n in (1, 2, 3, 7, 200):
            ref = row_values(rows, cells[:n]).max(axis=1)
            assert decompose._values(cells[:n], table, k).max(axis=1).tobytes() == ref.tobytes()


def ref_entropy(m):
    """The entropy along the last axis as the measures once wrote it: a masked log2."""
    log = np.zeros_like(m)
    np.log2(m, out=log, where=m > 0.0)
    t = m * log
    return (0.0 - t[..., 0]) - t[..., 1]


def _same_bytes(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    return new.shape == ref.shape and new.tobytes() == ref.tobytes()


def _signed_zero_boxes(rng):
    """Deterministic boxes and dyadic mixtures of two, each zero cell given a random sign."""
    vertices = bc.strategy_boxes([s for kind in STRATEGY_KINDS
                                  for s in bc.enumerate_deterministic(kind)])
    pairs = rng.integers(len(vertices), size=(600, 2))
    q = rng.choice([0.25, 0.5, 0.75], size=(600, 1, 1, 1, 1))
    p = np.concatenate([vertices, q * vertices[pairs[:, 0]] + (1.0 - q) * vertices[pairs[:, 1]]])
    return np.where((p == 0.0) & (rng.random(p.shape) < 0.5), -0.0, p)


def test_pairwise_maxima_and_minima_are_the_reductions_bit_for_bit():
    rng = np.random.default_rng(2033)
    signed = _signed_zero_boxes(rng)
    raw = rng.choice([-0.25, -0.0, 0.0, 0.25, 0.5, 1.0], size=(2000, 2, 2, 2, 2))
    ties = 0
    for p in (BOXES, signed, rng.random((500, 2, 2, 2, 2)), raw):
        m = bc.marginals(p)
        e = bc.correlators(p)
        total = e[..., 0, 0] + e[..., 0, 1] + e[..., 1, 0] + e[..., 1, 1]
        lam = np.abs(total[..., None, None] - 2.0 * e).max(axis=(-2, -1))
        assert _same_bytes(bc.chsh_max(p), lam)
        sig = bc.signal(p)
        s_ab = np.abs(m[..., 1, 1, :, :] - m[..., 1, 0, :, :]).max(axis=-1)
        s_ba = np.abs(m[..., 0, :, 1, :] - m[..., 0, :, 0, :]).max(axis=-1)
        assert _same_bytes(sig.s_A_to_B_per_y, s_ab) and _same_bytes(sig.s_B_to_A_per_x, s_ba)
        assert _same_bytes(sig.S_A_to_B, s_ab.max(axis=-1))
        assert _same_bytes(sig.S_B_to_A, s_ba.max(axis=-1))
        assert _same_bytes(sig.S, np.maximum(s_ab.max(axis=-1), s_ba.max(axis=-1)))
        per = m.min(axis=(-4, -1))
        assert _same_bytes(bc.indeterminacy_per_setting(p), per)
        assert _same_bytes(bc.indeterminacy(p), per.max(axis=(-2, -1)))
        h_per = ref_entropy(m).max(axis=-3)
        assert _same_bytes(bc.entropic_indeterminacy_per_setting(p), h_per)
        assert _same_bytes(bc.entropic_indeterminacy(p), h_per.max(axis=(-2, -1)))
        for pi0, pi1 in ((0.5, 0.5), (0.9, 0.1), (0.0, 1.0)):
            rows0 = np.concatenate([m[..., 1, 0, :, :], m[..., 0, :, 0, :]], axis=-2)
            rows1 = np.concatenate([m[..., 1, 1, :, :], m[..., 0, :, 1, :]], axis=-2)
            info = (ref_entropy(pi0 * rows0 + pi1 * rows1)
                    - pi0 * ref_entropy(rows0) - pi1 * ref_entropy(rows1))
            assert _same_bytes(bc.entropic_signal(p, (pi0, pi1)),
                               np.maximum(0.0, info.max(axis=-1)))
        zeros = per[per == 0.0]
        ties += int(np.signbit(zeros).any() and not np.signbit(zeros).all())
    assert ties >= 2  # the signed stacks do tie +0.0 against -0.0
    for p in (BOXES, signed):  # the relation core reads I the same way
        ind = bc.marginals(p).min(axis=(-4, -1)).max(axis=(-2, -1))
        assert _same_bytes(certify._relations(p).I, ind)
    q = np.concatenate([rng.random(1000), [0.0, -0.0, 1.0, 0.5, 5e-324, -1e-13, 1.0 + 1e-13]])
    for v in (q, q[:7].reshape(7, 1), q[1000], q[1001]):
        arr = np.clip(v, 0.0, 1.0)
        assert _same_bytes(bc.binary_entropy(v), ref_entropy(np.stack([arr, 1.0 - arr], axis=-1)))

