"""Trial records, the announced-parity identity, and the singlet-statistics estimator."""

import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

import boxcomp as bc
from _helpers import random_resource_spec, trial_records
from boxcomp import simulate

PR_SPEC = bc.ResourceSpec.from_mapping({"S1+": 0.5, "S1-": 0.5})
TB_SPEC = bc.ResourceSpec.from_mapping({"S1+": 1.0})


def target(theta):
    return (1.0 + math.cos(theta)) / 2.0


def chunk_stream(seed, chunk_index):
    """Chunk i's whole stream, from its seeding: words are read from the start."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(seed=ss))


def half_scale(points):
    """Rows (u/2, v/2, q/4) of full-scale points (u, v), as the kernel hands them over."""
    u, v = np.array(points, dtype=float).T / 2.0
    return u, v, u * u + v * v


def test_zero_projections_give_sign_bit_one():
    # sgn(0) = 1, fed straight to the per-block counter on perpendicular axes
    # (c = 0, s = 1), where t.x_hat has the sign of u and t.y_hat that of v.
    # Each pair's X ^ Y = not(x & y) ^ alpha ^ beta is 1 with sgn(0) = 1 and
    # would be 0 with sgn(0) = 0, except the coincident pair, the control.
    pairs = [((0.0, 0.5), (-0.25, 0.25)),     # u1 = +0: alpha = 1
             ((-0.0, 0.5), (-0.25, 0.25)),    # u1 = -0: alpha = 1
             ((-0.25, -0.1), (0.0, 0.5)),     # u2 = +0: sgn(t2.x_hat) = 1
             ((-0.25, -0.1), (-0.0, 0.5)),    # u2 = -0: sgn(t2.x_hat) = 1
             ((0.25, 0.5), (0.25, -0.5)),     # (t1 + t2).y_hat = 0: beta = 1
             ((0.25, 0.5), (-0.25, 0.5)),     # (t1 - t2).y_hat = 0: d = 1
             ((0.3, -0.4), (0.3, -0.4))]      # t1 = t2: x = 0, y = beta ^ 1
    (ws,) = simulate._workspaces(1, len(pairs), 0, 0.0, 1.0)
    t1, t2 = zip(*pairs)
    simulate._keep(ws, 0, *half_scale(t1))
    assert ws.alpha.tolist() == [True, True, False, False, True, True, True]
    assert [simulate._pair_count(ws, k, *(row[k:k + 1] for row in half_scale(t2)))
            for k in range(len(pairs))] == [1, 1, 1, 1, 1, 1, 0]
    # the coincident pair: alpha = 1, p1 = p2 < 0, so beta = 0, d = 1 and X ^ Y = 0
    assert simulate._pair_count(ws, 0, *half_scale(t2)) == 6


def test_direction_validation():
    with pytest.raises(bc.DomainError):
        bc.Direction(np.array([1.0, 1.0, 0.0]))
    with pytest.raises(bc.DomainError):
        bc.Direction(np.zeros(2))
    with pytest.raises(bc.DomainError):
        bc.Direction(np.array([math.nan, 0.0, 0.0]))
    d = bc.Direction(np.array([0.6, 0.0, 0.8]))
    assert abs(np.linalg.norm(d.v) - 1.0) <= 1e-12
    assert bc.Direction.polar(0.0).v[2] == 1.0


def workspace(n_trials):
    """A kernel workspace sized for n_trials."""
    (ws,) = simulate._workspaces(1, *simulate._settings(PR_SPEC, bc.Direction.polar(0.0),
                                                        bc.Direction.polar(1.0), n_trials, 0))
    return ws


def drawn(key, n, ws):
    """n disc points drawn from word 0 of a stream, as the half-scale rows
    (u/2, v/2, q/4) the sink is handed, and the offset after them."""
    points = np.empty((3, n))

    def sink(k, *block):
        points[:, k:k + len(block[0])] = block

    return points, simulate._disc_points(key, 0, n, ws, sink)


def test_direction_draw_follows_the_sphere_law():
    # the kernel's own draw; (u, v) maps to t = (2u r, 2v r, 1 - 2q), r = sqrt(1 - q)
    n = 200_000
    key = simulate._chunk_key(21, 0)
    points, off = drawn(key, n, workspace(bc.CHUNK))
    half_u, half_v, quarter_q = points
    assert np.abs(points[:2]).max() <= 0.5 and quarter_q.max() < 0.25
    assert np.array_equal(quarter_q, half_u * half_u + half_v * half_v)
    u, v = 2.0 * half_u, 2.0 * half_v
    q = u * u + v * v
    t_x = 2.0 * u * np.sqrt(1.0 - q)
    # a uniform direction has E[(t.x)^2] = 1/3 and Var[(t.x)^2] = 1/5 - 1/9
    assert abs(float(np.mean(t_x ** 2)) - 1.0 / 3.0) <= 4.0 * math.sqrt((1 / 5 - 1 / 9) / n)
    for theta in (math.pi / 6, math.pi / 2, 5.0 * math.pi / 6):
        c, s = math.cos(theta), math.sin(theta)
        (ws,) = simulate._workspaces(1, n, 0, c, s)
        # the projection works in place, so it gets copies; it is t.y_hat / 2 to the last bit
        t_y = simulate._project(ws, *points.copy(), np.empty(n))
        assert np.array_equal(t_y, np.sqrt(1.0 - q) * (c * u + s * v))
        # random-hyperplane law: the signs of t.x and t.y differ with probability theta/pi
        differ = float(np.mean((t_x >= 0) != (t_y >= 0)))
        p = theta / math.pi
        assert abs(differ - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)
    # narrower blocks draw the same points and end at the same offset
    again, off_again = drawn(key, n, workspace(1000))
    assert off_again == off
    assert np.array_equal(points, again)


def t2_repeats_t1(real, calls):
    """A `_disc_points` that hands t2's pairing t1's points, so every pair coincides.

    t1 is a chunk's first draw, from word n on for n points; calls gets
    (chunk key, n) for each draw.  Safe on the pool's two threads.
    """
    t1 = {}

    def draw(key, off, n, ws, sink):
        chunk = tuple(key.tolist())
        calls.append((chunk, n))
        if off == n:
            t1[chunk] = points = np.empty((3, n))

            def record(k, *block):
                points[:, k:k + len(block[0])] = block  # before the sink writes over it
                sink(k, *block)

            return real(key, off, n, ws, record)

        def repeat(k, *block):
            for dst, src in zip(block, t1[chunk]):
                dst[:] = src[k:k + len(dst)]
            sink(k, *block)

        return real(key, off, n, ws, repeat)

    return draw


def test_per_chunk_counts_disperse_like_a_binomial():
    # Pearson's dispersion statistic of 64 chunk counts about their pooled
    # share is chi-square with 63 degrees of freedom for a sound sampler.
    # Either tail below 1e-4 fails: chunks too alike, or too spread.
    chunks, n = 64, bc.CHUNK
    counts = np.array(bc.chunk_xor_counts(PR_SPEC, bc.Direction.polar(0.0),
                                          bc.Direction.polar(math.pi / 3), chunks * n, seed=31))
    assert counts.shape == (chunks,)
    p = counts.sum() / (chunks * n)
    stat = float(((counts - n * p) ** 2).sum() / (n * p * (1.0 - p)))
    assert chi2.sf(stat, chunks - 1) >= 1e-4
    assert chi2.cdf(stat, chunks - 1) >= 1e-4


def test_sampler_counts_are_pinned():
    # every estimate moves when these do: change them only on purpose, and
    # record the old and new values with the change
    counts = bc.chunk_xor_counts(PR_SPEC, bc.Direction.polar(0.0), bc.Direction.polar(1.0),
                                 3 * bc.CHUNK, seed=2026)
    assert counts == [50385, 50355, 50460]
    mix = bc.ResourceSpec(scope=bc.PRScope(0, 1, 1), weights=tuple(np.arange(1, 17) / 136))
    counts = bc.chunk_xor_counts(mix, bc.Direction.polar(0.0), bc.Direction.polar(2.5),
                                 3 * bc.CHUNK + 1234, seed=2026)
    assert counts == [6441, 6547, 6551, 110]
    # antipodal axes whose dot product rounds to -1 - 2^-52, so c is clamped to -1
    x_hat = bc.Direction(np.ones(3) / math.sqrt(3.0))
    y_hat = bc.Direction(-x_hat.v)
    assert x_hat.dot(y_hat) < -1.0
    counts = bc.chunk_xor_counts(bc.ResourceSpec.parse("scope=110;S6+:0.5,S6-:0.5"),
                                 x_hat, y_hat, 2 * bc.CHUNK, seed=2026)
    assert counts == [0, 0]


def test_announced_parity_is_the_same_for_every_catalogue_strategy():
    # The parties announce X = a ^ (mu1 & x) ^ mu3 ^ alpha and
    # Y = b ^ (mu2 & y) ^ beta ^ 1.  For all 512 cases, 8 scopes x 16
    # catalogue strategies x 4 input pairs, X ^ Y = (x & y) ^ alpha ^ beta ^ 1,
    # the parity that chunk_xor_counts counts.  Of the 256 deterministic
    # strategies, exactly the scope's catalogue gives it on every input pair.
    every = [bc.DeterministicStrategy(fa, fb) for fa in itertools.product((0, 1), repeat=4)
             for fb in itertools.product((0, 1), repeat=4)]
    cases = 0
    for scope in bc.all_scopes():

        def announces_the_singlet_parity(strategy):
            return all((strategy.a(x, y) ^ (scope.mu1 & x) ^ scope.mu3 ^ alpha)
                       ^ (strategy.b(x, y) ^ (scope.mu2 & y) ^ beta ^ 1)
                       == (x & y) ^ alpha ^ beta ^ 1
                       for x, y in bc.INPUT_PAIRS
                       for alpha, beta in itertools.product((0, 1), repeat=2))

        catalogue = bc.scope_strategies(scope)
        assert len(set(catalogue)) == 16
        for strategy in catalogue:
            assert announces_the_singlet_parity(strategy)
            cases += len(bc.INPUT_PAIRS)
        assert set(filter(announces_the_singlet_parity, every)) == set(catalogue)
    assert cases == 512


def _announced(strategy, scope, td):
    """A strategy's replies (a, b) on the recorded box inputs, and the bits
    X = a ^ (mu1 & x) ^ mu3 ^ alpha and Y = b ^ (mu2 & y) ^ beta ^ 1."""
    cell = 2 * td.x_in + td.y_in
    a = np.array(strategy.fa, dtype=np.int8)[cell]
    b = np.array(strategy.fb, dtype=np.int8)[cell]
    x_out = a ^ (scope.mu1 & td.x_in) ^ scope.mu3 ^ td.alpha
    y_out = b ^ (scope.mu2 & td.y_in) ^ td.beta ^ 1
    return a, b, x_out, y_out


def test_trial_records_deterministic_strategy_outputs():
    # S1+ answers a = 0, b = x*y on every sampled trial, and its announced
    # parity is the one the records carry
    td = trial_records(TB_SPEC, bc.Direction.polar(0.0), bc.Direction.polar(1.1),
                       4000, seed=52)
    (s1_plus,) = [s for s, w in zip(bc.scope_strategies(TB_SPEC.scope), TB_SPEC.weights) if w]
    a, b, x_out, y_out = _announced(s1_plus, TB_SPEC.scope, td)
    assert np.array_equal(a, np.zeros_like(a))
    assert np.array_equal(b, td.x_in & td.y_in)
    assert np.array_equal(x_out ^ y_out, td.xor)
    assert set(zip(td.x_in.tolist(), td.y_in.tolist())) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_estimator_identity_chains_through_the_box():
    # X ^ Y = x*y ^ alpha ^ beta ^ 1 on the sampled trials, for each strategy
    # in a resource's support
    rng = np.random.default_rng(55)
    for spec in (PR_SPEC, TB_SPEC, random_resource_spec(rng)):
        td = trial_records(spec, bc.Direction.polar(0.0), bc.Direction.polar(0.9),
                           4000, seed=6)
        rhs = (td.x_in & td.y_in) ^ td.alpha ^ td.beta ^ 1
        assert np.array_equal(td.xor, rhs)
        for strategy, w in zip(bc.scope_strategies(spec.scope), spec.weights):
            if w:
                _, _, x_out, y_out = _announced(strategy, spec.scope, td)
                assert np.array_equal(x_out ^ y_out, rhs)


def test_box_inputs_respect_resource_relation_in_simulation():
    # every strategy of the resource's scope answers a ^ b = relation(x, y)
    # on the sampled box inputs, and announces the recorded parity
    rng = np.random.default_rng(56)
    spec = random_resource_spec(rng, scope=bc.PRScope(1, 0, 1))
    td = trial_records(spec, bc.Direction.polar(0.0), bc.Direction.polar(2.0),
                       2000, seed=7)
    rel = np.array([[spec.scope.relation(x, y) for y in (0, 1)] for x in (0, 1)])
    for strategy in bc.scope_strategies(spec.scope):
        a, b, x_out, y_out = _announced(strategy, spec.scope, td)
        assert np.array_equal(a ^ b, rel[td.x_in, td.y_in])
        assert np.array_equal(x_out ^ y_out, td.xor)


def _benchmark_shaped_specs(scope):
    """The five resource shapes of the benchmark's sweep, in one scope."""
    mix = random_resource_spec(np.random.default_rng(59), scope=scope)
    return [bc.ResourceSpec.from_mapping(weights, scope=scope) for weights in (
        {"S1+": 1.0}, {"S1+": 0.5, "S1-": 0.5}, {"S2+": 0.7, "S2-": 0.3},
        {"S6+": 0.5, "S6-": 0.5})] + [mix]


def test_counts_do_not_depend_on_the_resource(monkeypatch):
    # the five shapes in all 8 scopes, on one worker and on two
    n = bc.CHUNK + 300
    specs = [spec for scope in bc.all_scopes() for spec in _benchmark_shaped_specs(scope)]
    assert len(specs) == 40
    for theta, seed in ((0.3, 1), (1.9, 2), (3.0, 3)):
        x_hat, y_hat = bc.Direction.polar(0.0), bc.Direction.polar(theta)
        seen = set()
        for workers in (1, 2):
            monkeypatch.setattr(simulate, "_workers", lambda chunks, w=workers: min(w, chunks))
            seen.update(tuple(bc.chunk_xor_counts(spec, x_hat, y_hat, n, seed))
                        for spec in specs)
        assert len(seen) == 1
        (counts,) = seen
        assert len(counts) == 2 and 0 < sum(counts) < n


def test_a_spec_that_is_not_a_resource_spec_is_refused():
    x_hat, y_hat = bc.Direction.polar(0.0), bc.Direction.polar(1.0)
    for spec in (None, "S1+:1.0", {"S1+": 1.0}, PR_SPEC.weights):
        for run in (bc.simulate_singlet, bc.chunk_xor_counts):
            with pytest.raises(bc.DomainError, match="ResourceSpec"):
                run(spec, x_hat, y_hat, 10, 0)
        for angles in ([1.0], []):
            with pytest.raises(bc.DomainError, match="ResourceSpec"):
                bc.sweep_angles(spec, angles, 10, 0)


def test_simulation_is_deterministic_and_chunk_order_free():
    x_hat, y_hat = bc.Direction.polar(0.0), bc.Direction.polar(1.0)
    n = 3 * bc.CHUNK + 1234
    est1 = bc.simulate_singlet(PR_SPEC, x_hat, y_hat, n, seed=9)
    est2 = bc.simulate_singlet(PR_SPEC, x_hat, y_hat, n, seed=9)
    assert est1 == est2
    counts = bc.chunk_xor_counts(PR_SPEC, x_hat, y_hat, n, seed=9)
    assert len(counts) == 4
    assert sum(counts) / n == est1
    assert sum(reversed(counts)) / n == est1  # processing order cannot matter
    assert bc.simulate_singlet(PR_SPEC, x_hat, y_hat, n, seed=10) != est1


def _sweep_like_specs():
    """Resources shaped like the benchmark's sweep: one strategy, the PR pair,
    an unbalanced pair, a two-way pair and a 16-way mix, over four scopes."""
    mix = random_resource_spec(np.random.default_rng(58), scope=bc.PRScope(0, 1, 1))
    return [bc.ResourceSpec.parse(text) for text in (
        "scope=000;S1+:1.0", "scope=000;S1+:0.5,S1-:0.5", "scope=101;S2+:0.7,S2-:0.3",
        "scope=110;S6+:0.5,S6-:0.5")] + [mix]


def _records_counts(td):
    """Per-chunk counts of X ^ Y = 1 in a trial record."""
    return [int(td.xor[lo:lo + bc.CHUNK].sum()) for lo in range(0, len(td.xor), bc.CHUNK)]


def test_trial_records_match_counting_path():
    # chunk_xor_counts counts X ^ Y block by block on the pooled path;
    # trial_records derives it in plain numpy from the drawn points.  They
    # agree chunk by chunk.
    x_hat, y_hat = bc.Direction.polar(0.0), bc.Direction.polar(0.7)
    n = bc.CHUNK + 500
    for spec in [PR_SPEC] + _sweep_like_specs():
        td = trial_records(spec, x_hat, y_hat, n, seed=5)
        assert len(td.xor) == n
        counts = bc.chunk_xor_counts(spec, x_hat, y_hat, n, seed=5)
        assert counts == _records_counts(td)
        assert int(td.xor.sum()) == sum(counts)
        assert float(td.xor.mean()) == sum(counts) / n


def test_coincident_pairs_get_the_sgn_zero_inputs(monkeypatch):
    # t2 := t1 as t2's blocks reach the pairing, so every pair coincides; with
    # sgn(0) = 1, x = sgn(t1.x_hat) ^ sgn(t2.x_hat) = 0 and y = beta ^ sgn(0) = beta ^ 1
    calls = []
    monkeypatch.setattr(simulate, "_disc_points", t2_repeats_t1(simulate._disc_points, calls))
    x_hat, y_hat = bc.Direction.polar(0.0), bc.Direction.polar(2.0)
    n = 2 * bc.CHUNK + 999
    for spec in _sweep_like_specs():
        calls.clear()
        td = trial_records(spec, x_hat, y_hat, n, seed=16)
        # per chunk: t1, then t2, and no draw after them
        assert [size for _, size in calls] == [bc.CHUNK] * 4 + [999] * 2
        assert not td.x_in.any()
        assert np.array_equal(td.y_in, td.beta ^ 1)


def test_table_counts_match_records_when_every_pair_coincides(monkeypatch):
    # the same hook on the counting path: two draws per chunk, and the counts
    # give the same X ^ Y as the records, chunk by chunk
    calls = []
    monkeypatch.setattr(simulate, "_disc_points", t2_repeats_t1(simulate._disc_points, calls))
    x_hat, y_hat = bc.Direction.polar(0.0), bc.Direction.polar(2.0)
    n = 2 * bc.CHUNK + 999
    for spec in _sweep_like_specs():
        td = trial_records(spec, x_hat, y_hat, n, seed=16)
        calls.clear()
        assert bc.chunk_xor_counts(spec, x_hat, y_hat, n, seed=16) == _records_counts(td)
        assert sorted(size for _, size in calls) == [999] * 2 + [bc.CHUNK] * 4


def test_pooled_counts_match_one_worker_and_records(monkeypatch):
    # chunk i's count depends on (seed, i) alone, whichever worker draws it
    x_hat, y_hat = bc.Direction.polar(0.0), bc.Direction.polar(2.2)
    for n in (1, 17, bc.CHUNK - 1, bc.CHUNK + 1, 3 * bc.CHUNK + 1234):
        for spec in _sweep_like_specs():
            counts = {}
            for workers in (1, 2):
                monkeypatch.setattr(simulate, "_workers", lambda chunks, w=workers: min(w, chunks))
                counts[workers] = bc.chunk_xor_counts(spec, x_hat, y_hat, n, seed=23)
            assert counts[1] == counts[2] == _records_counts(trial_records(spec, x_hat, y_hat,
                                                                           n, seed=23))
            assert len(counts[1]) == -(-n // bc.CHUNK)


def test_kernel_counts_match_the_reference(monkeypatch):
    # every per-chunk count, on one worker and on two, against the plain-numpy
    # reference, at five angles and on clamped antipodal axes (c = -1, s = 0)
    pole, diagonal = bc.Direction.polar(0.0), bc.Direction(np.ones(3) / math.sqrt(3.0))
    axes = [(pole, bc.Direction.polar(theta)) for theta in (0.0, 1.0, math.pi / 2, 2.5, math.pi)]
    axes.append((diagonal, bc.Direction(-diagonal.v)))
    for (x_hat, y_hat), seed in zip(axes, itertools.count(61)):
        for n in (1, 17, bc.CHUNK - 1, bc.CHUNK + 1, 3 * bc.CHUNK + 1234):
            reference = _records_counts(trial_records(PR_SPEC, x_hat, y_hat, n, seed))
            for workers in (1, 2):
                monkeypatch.setattr(simulate, "_workers", lambda chunks, w=workers: min(w, chunks))
                assert bc.chunk_xor_counts(PR_SPEC, x_hat, y_hat, n, seed) == reference


def test_positioned_stream_is_the_chunk_stream_tail():
    # every residue mod 4, at the ends of the skipped words and of t1's u and
    # v blocks; one generator is re-keyed to each offset, after a draw at the last
    n = 1000
    m = int(n * 4.0 / math.pi) + 16
    seed, chunk = 44, 3
    key = simulate._chunk_key(seed, chunk)
    offsets = {0, 1, 2, 3, n - 1, n, n + 1, n + 2, n + m - 1, n + m, n + m + 1, n + m + 2,
               n + 2 * m - 1, n + 2 * m, n + 2 * m + 3, 10**6 + 1}
    assert {off % 4 for off in offsets} == {0, 1, 2, 3}
    stream = chunk_stream(seed, chunk).random(max(offsets) + 64)
    g = np.random.Generator(np.random.Philox(key=0))
    for off in sorted(offsets) + sorted(offsets, reverse=True):
        simulate._positioned(g, key, off)
        assert np.array_equal(g.random(64), stream[off:off + 64])


def test_helper_thread_exception_reaches_the_caller(monkeypatch):
    class HelperFailure(RuntimeError):
        pass

    real = simulate._chunk_count
    helpers, callers = [], []
    helper_failed = threading.Event()

    def fail_off_the_main_thread(ws, i):
        if threading.current_thread() is not threading.main_thread():
            helpers.append(threading.current_thread())
            helper_failed.set()
            raise HelperFailure(i)
        callers.append(i)
        # the helper fails on its first chunk and ends before this one does
        assert helper_failed.wait(30)
        helpers[0].join(30)
        assert not helpers[0].is_alive()
        return real(ws, i)

    monkeypatch.setattr(simulate, "_chunk_count", fail_off_the_main_thread)
    monkeypatch.setattr(simulate, "_workers", lambda chunks: min(2, chunks))
    threads = threading.active_count()
    with pytest.raises(HelperFailure):
        bc.chunk_xor_counts(PR_SPEC, bc.Direction.polar(0.0), bc.Direction.polar(1.0),
                            4 * bc.CHUNK, seed=1)
    # the failure stops the caller too, at its next chunk
    assert len(helpers) == 1 and len(callers) <= 1
    assert threading.active_count() == threads


def test_pool_hands_out_each_chunk_once(monkeypatch):
    # two workers share one pool of indices; a frequent thread switch would
    # expose an index handed out twice or lost
    monkeypatch.setattr(simulate, "_workers", lambda chunks: min(2, chunks))
    taken = []

    def work(indices):
        for i in indices:
            taken.append((threading.get_ident(), i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        simulate._share(5000, work)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(i for _, i in taken) == list(range(5000))


def test_kernel_memory_peak_is_bounded():
    # The kernel allocates its arrays once per call.  Its tracemalloc peak on
    # 1M trials is 4.68 MiB with two workers: two workspaces of about 2 MiB,
    # carved from one float and one bool buffer, and each worker's
    # kept-candidate indices of one block.  The per-chunk temporaries of an
    # older loop took 5.98 MiB.  A 10-trial call first does the lazy imports
    # of a first call, which would add about 0.7 MiB.
    spec = bc.ResourceSpec(scope=bc.PRScope(0, 1, 1), weights=tuple(np.arange(1, 17) / 136))
    bc.chunk_xor_counts(spec, bc.Direction.polar(0.0), bc.Direction.polar(1.0), 10, seed=1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        bc.chunk_xor_counts(spec, bc.Direction.polar(0.0), bc.Direction.polar(1.0),
                            1_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 2**20


def test_aligned_axes_give_certain_anticorrelation():
    est = bc.simulate_singlet(PR_SPEC, bc.Direction.polar(0.0), bc.Direction.polar(0.0),
                              50_000, seed=1)
    assert est == 1.0
    est = bc.simulate_singlet(PR_SPEC, bc.Direction.polar(0.0), bc.Direction.polar(math.pi),
                              50_000, seed=1)
    assert est == 0.0


def test_estimates_track_singlet_statistics():
    n = 200_000
    tol = 4.0 * math.sqrt(0.25 / n)
    for spec in (PR_SPEC, TB_SPEC):
        for theta in (math.pi / 3, math.pi / 2, 2.0 * math.pi / 3):
            est = bc.simulate_singlet(spec, bc.Direction.polar(0.0),
                                      bc.Direction.polar(theta), n, seed=8)
            assert abs(est - target(theta)) <= tol


def test_non_canonical_scope_resources_reproduce_the_same_statistics():
    n = 200_000
    tol = 4.0 * math.sqrt(0.25 / n)
    for scope in (bc.PRScope(1, 0, 1), bc.PRScope(0, 1, 1)):
        spec = bc.ResourceSpec.from_mapping({"S1+": 0.5, "S1-": 0.5}, scope=scope)
        est = bc.simulate_singlet(spec, bc.Direction.polar(0.0),
                                  bc.Direction.polar(math.pi / 3), n, seed=12)
        assert abs(est - target(math.pi / 3)) <= tol


def test_arbitrary_axes_not_just_polar():
    n = 200_000
    x_hat, y_hat = (bc.Direction(v / np.linalg.norm(v))
                    for v in (np.array([1.0, 2.0, -0.5]), np.array([-0.3, 0.4, 1.1])))
    est = bc.simulate_singlet(PR_SPEC, x_hat, y_hat, n, seed=13)
    assert abs(est - (1.0 + x_hat.dot(y_hat)) / 2.0) <= 4.0 * math.sqrt(0.25 / n)


def test_sweep_angles_rows_and_targets():
    angles = [0.0, math.pi / 2, math.pi]
    points = bc.sweep_angles(PR_SPEC, angles, 50_000, seed=3)
    assert [p.angle for p in points] == angles
    assert points[0].target == 1.0 and points[0].stderr == 0.0
    assert points[1].target == 0.5
    assert abs(points[1].stderr - math.sqrt(0.25 / 50_000)) <= 1e-15
    assert abs(points[1].estimate - 0.5) <= 5.0 * points[1].stderr
    again = bc.sweep_angles(PR_SPEC, angles, 50_000, seed=3)
    assert [p.estimate for p in points] == [p.estimate for p in again]


def test_write_sweep_csv_is_byte_stable(tmp_path):
    points = bc.sweep_angles(TB_SPEC, [0.0, 1.0], 20_000, seed=4)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (out1, out2):
        with open(path, "w") as fh:
            bc.write_sweep_csv(points, 20_000, 4, fh)
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert lines[0] == "angle_rad,estimate,target,stderr,N,seed"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.0
    assert fields[4] == "20000" and fields[5] == "4"


def test_trial_count_validation():
    with pytest.raises(bc.DomainError):
        bc.simulate_singlet(PR_SPEC, bc.Direction.polar(0.0), bc.Direction.polar(1.0),
                            0, seed=1)


# (n_trials, seed) pairs that are not an integer count in [1, MAX_TRIALS] and an
# integer seed >= 0; none of them starts a run
MALFORMED_RUNS = ((10, -1), (10, 1.5), (2.5, 1), (10, "1"), (10, None), (-(2 ** 70), 1),
                  (10 ** 30, 1), (simulate.MAX_TRIALS + 1, 1))


def test_simulate_singlet_refuses_malformed_seeds_and_trial_counts():
    x_hat, y_hat = bc.Direction.polar(0.0), bc.Direction.polar(1.0)
    for n_trials, seed in MALFORMED_RUNS:
        for run in (bc.simulate_singlet, bc.chunk_xor_counts):
            with pytest.raises(bc.DomainError):
                run(PR_SPEC, x_hat, y_hat, n_trials, seed)
    # numpy integers are integers, and give the counts of the same Python ints
    assert (bc.chunk_xor_counts(PR_SPEC, x_hat, y_hat, np.int64(17), np.uint64(3))
            == bc.chunk_xor_counts(PR_SPEC, x_hat, y_hat, 17, 3))


def test_axes_must_be_directions():
    pole = bc.Direction.polar(0.0)
    for axes, kind in (((pole.v.copy(), pole), "ndarray"), ((pole, [0.0, 0.0, 1.0]), "list")):
        for run in (bc.simulate_singlet, bc.chunk_xor_counts):
            with pytest.raises(bc.DomainError, match=kind):
                run(PR_SPEC, *axes, 10, 0)


def test_sweep_angles_refuses_malformed_angle_lists():
    # a list that is not iterable or is a string, and entries that are not
    # finite numbers, are refused by name before any angle runs
    for angles, shown in ((None, "None"), (1.0, "1.0"), (np.array(2.0), "array"), ("123", "'123'"),
                          (["x"], "'x'"), ([0.5, None], "None"), ([1.0, math.inf], "inf"),
                          ([math.nan], "nan")):
        with pytest.raises(bc.DomainError, match=shown):
            bc.sweep_angles(PR_SPEC, angles, 10, 0)
    # numeric strings and numpy scalars are numbers, as before
    assert ([p.estimate for p in bc.sweep_angles(PR_SPEC, ("0.5", np.float64(1.0)), 100, 2)]
            == [p.estimate for p in bc.sweep_angles(PR_SPEC, [0.5, 1.0], 100, 2)])


def test_sweep_angles_refuses_malformed_seeds_and_trial_counts():
    for n_trials, seed in MALFORMED_RUNS + ((10, -3),):
        for angles in ([0.0, 1.0], []):
            with pytest.raises(bc.DomainError):
                bc.sweep_angles(PR_SPEC, angles, n_trials, seed)


def test_sweep_angles_counts_its_trials_over_all_angles(monkeypatch):
    # angles x trials may reach MAX_TRIALS and not pass it; the runs are stubbed
    ran = []
    monkeypatch.setattr(simulate, "simulate_singlet", lambda *run: ran.append(run[3]) or 0.5)
    half = simulate.MAX_TRIALS // 2
    assert len(bc.sweep_angles(PR_SPEC, [0.0, 1.0], half, 0)) == 2 and ran == [half, half]
    for angles, n_trials in (([0.0, 1.0], half + 1), ([0.0] * 3, half), ([0.0] * 5, half // 2)):
        with pytest.raises(bc.DomainError, match=r"exceed 2\*\*36 in all"):
            bc.sweep_angles(PR_SPEC, angles, n_trials, 0)
    assert ran == [half, half]


def test_two_way_specs_also_simulate():
    # the estimator identity only needs the scope relation, so two-way
    # support reproduces the same statistics
    spec = bc.ResourceSpec.from_mapping({"S5+": 0.5, "S5-": 0.5})
    n = 200_000
    est = bc.simulate_singlet(spec, bc.Direction.polar(0.0),
                              bc.Direction.polar(math.pi / 2), n, seed=14)
    assert abs(est - 0.5) <= 4.0 * math.sqrt(0.25 / n)
    assert not spec.one_way_support
