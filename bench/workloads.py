"""Seeded inputs for each workload and the checks on its outputs.

`plan(workload, seed, workdir)` writes the workload's input files under
`workdir` and returns (plan, expect).  The plan is what the worker runs: a
fixed list of ops that it cycles through, so that every op is repeated at
points spread over the run.  `expect[i]` holds what the check of op i needs
to know about its inputs.  `check(workload, op, expect)` returns a list of
problems with that op's outputs; an empty list means correct.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import oracle

NAMES = ("S1+", "S1-", "S2+", "S2-", "S3+", "S3-", "S4+", "S4-",
         "S5+", "S5-", "S6+", "S6-", "S7+", "S7-", "S8+", "S8-")
SCOPES = [tuple(int(c) for c in f"{k:03b}") for k in range(8)]

SWEEP_TRIALS = 1_000_000       # the CLI default, so it is not passed
SWEEP_FIDELITY = 3e-3          # the acceptance suite's bound at 1M trials
VERIFY_INSTANCES = 200
VERIFY_OPS = 5                 # suite seeds per run
VERIFY_TOL = 1e-9              # the CLI default
AUDIT_TOL = 1e-7               # C against the reference LP
MEASURE_TOL = 1e-12            # S, I, CHSH against the numpy recomputation
PROPERTY_TOL = 1e-9

# box classes of one audit round, in order: (class, count)
AUDIT_MIX = (("dense", 20), ("sparse", 10), ("catalogue", 16), ("two-way", 4))

# verify's named checks: (relation the worst value must satisfy, threshold)
VERIFY_CHECKS = {
    "catalogue-structure": ("==", 0.0),
    "cost-complementarity": (">=", -VERIFY_TOL),
    "pironio-floor": (">=", -VERIFY_TOL),
    "relaxed-bell": (">=", -VERIFY_TOL),
    "certified-indeterminacy": (">=", -VERIFY_TOL),
    "signed-signal-consistency": ("<=", 1e-12),
    "conditional-bounds": (">=", -1e-12),
    "spec-complementarity": (">=", -VERIFY_TOL),
    "single-pair-saturation": ("<=", VERIFY_TOL),
    "entropic-pair-saturation": ("<=", VERIFY_TOL),
    "entropic-signal-floor": (">=", -VERIFY_TOL),
    "entropic-floor-equality": ("<=", VERIFY_TOL),
    "zero-signal-bias": ("<=", VERIFY_TOL),
}


def _rng(workload, seed):
    tag = {"sweep": 1, "audit": 2, "verify": 3}[workload]
    return np.random.default_rng([tag, int(seed)])


def _op(calls, outs, ok_rc):
    return {"calls": calls, "outs": outs, "ok_rc": ok_rc}


def sweep_resources(rng):
    """The five resources a sweep round cycles through."""
    w = rng.dirichlet(np.ones(16))
    mix16 = ",".join(f"{name}:{float(v)!r}" for name, v in zip(NAMES, w))
    return [
        "scope=000;S1+:1.0",                # deterministic one-way strategy
        "scope=000;S1+:0.5,S1-:0.5",        # the PR pair
        "scope=101;S2+:0.7,S2-:0.3",        # unbalanced pair, non-zero scope
        "scope=011;" + mix16,               # Dirichlet mix, two-way support
        "scope=110;S6+:0.5,S6-:0.5",        # two-way-only pair
    ]


def _plan_sweep(rng, workdir):
    resources = sweep_resources(rng)
    ops, expect = [], []
    for spec in resources:
        theta = float(rng.uniform(0.0, math.pi))
        seed = int(rng.integers(2**31))
        out = os.path.join(workdir, f"sweep-{len(ops)}.csv")
        ops.append(_op([["simulate", "--resource", spec, "--angle", repr(theta),
                         "--seed", str(seed), "--out", out]], [out], [[0]]))
        expect.append({"angle": theta, "seed": seed})
    warm = os.path.join(workdir, "warmup.csv")
    warmup = [["simulate", "--resource", resources[1], "--angle", "1.0",
               "--trials", "65536", "--seed", "0", "--out", warm]]
    return {"ops": ops, "work_per_op": SWEEP_TRIALS, "warmup": warmup}, expect


# Sparse supports draw from the local vertices plus one direction of one-way
# vertices.  Mixing both directions breaks S + 2I >= C on some seeds, a fault
# of `certify.complementarity_report` named by a FOUND line in CHANGES.md;
# an op that fails on some seeds only cannot be counted steadily.  Once that
# fault is mended, or the relation is limited to single-direction boxes, draw
# from all 112 vertices again.
SPARSE_POOLS = tuple(
    np.array([i for i, v in enumerate(oracle.VERTICES) if oracle.kind(*v) != other])
    for other in ("signal_B_to_A", "signal_A_to_B"))


def _audit_box(rng, cls, j):
    """(table, one-way weight of the generating mixture or None, label)."""
    cells, one_way = oracle.VERTEX_CELLS, oracle.ONE_WAY
    if cls == "dense":
        w = rng.dirichlet(np.ones(cells.shape[1]))
        return cells @ w, float(one_way @ w), "dense"
    if cls == "sparse":
        pool = SPARSE_POOLS[j % 2]
        idx = rng.choice(pool, size=int(rng.integers(2, 5)), replace=False)
        w = rng.dirichlet(np.ones(idx.size))
        return cells[:, idx] @ w, float(one_way[idx] @ w), "sparse"
    if cls == "catalogue":
        scope = SCOPES[j // 2]
        tables = [oracle.strategy_table(*s).ravel() for s in oracle.catalogue(scope)["one_way"]]
        local = cells[:, oracle.LOCAL[int(rng.integers(16))]]
        if j % 2 == 0:
            # the PR box (the uniform mixture of the one-way half), exact or noisy
            v = 1.0 if j % 4 == 0 else float(rng.uniform(0.3, 1.0))
            noise = cells[:, oracle.LOCAL].mean(axis=1)
            return v * np.mean(tables, axis=0) + (1.0 - v) * noise, v, "pr" if v == 1.0 else "noisy-pr"
        v = float(rng.uniform(0.5, 1.0))
        w = rng.dirichlet(np.ones(8))
        return v * (w @ np.array(tables)) + (1.0 - v) * local, v, "catalogue"
    scope = SCOPES[int(rng.integers(8))]
    two_way = oracle.catalogue(scope)["two_way"]
    return oracle.strategy_table(*two_way[int(rng.integers(8))]).ravel(), None, "two-way"


def _write_box(path, table, label):
    p = np.asarray(table, dtype=np.float64).reshape(2, 2, 2, 2)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"P": p.tolist(), "label": label}, fh)


def _plan_audit(rng, workdir):
    ops, expect = [], []
    for cls, count in AUDIT_MIX:
        for j in range(count):
            table, bound, label = _audit_box(rng, cls, j)
            i = len(ops)
            box = os.path.join(workdir, f"box-{i}.json")
            _write_box(box, table, label)
            an = os.path.join(workdir, f"box-{i}.analyze.json")
            de = os.path.join(workdir, f"box-{i}.decompose.json")
            ops.append(_op([["analyze", "--box", box, "--format", "json", "--out", an],
                            ["decompose", "--box", box, "--format", "json", "--out", de]],
                           [an, de], [[0], [0, 3]]))
            expect.append({"box": box, "bound": bound})
    warm_box = os.path.join(workdir, "warmup-box.json")
    _write_box(warm_box, oracle.VERTEX_CELLS[:, oracle.LOCAL[:2]].mean(axis=1), "warm-up")
    warm = os.path.join(workdir, "warmup.json.out")
    warmup = [["analyze", "--box", warm_box, "--format", "json", "--out", warm],
              ["decompose", "--box", warm_box, "--format", "json", "--out", warm]]
    return {"ops": ops, "work_per_op": 1, "warmup": warmup}, expect


def _plan_verify(rng, workdir):
    ops, expect = [], []
    for i in range(VERIFY_OPS):
        seed = int(rng.integers(2**31))
        out = os.path.join(workdir, f"verify-{i}.json")
        ops.append(_op([["verify", "--instances", str(VERIFY_INSTANCES), "--format", "json",
                         "--seed", str(seed), "--out", out]], [out], [[0]]))
        expect.append({"seed": seed})
    warm = os.path.join(workdir, "warmup.json.out")
    warmup = [["verify", "--instances", "10", "--seed", "0", "--format", "json", "--out", warm]]
    return {"ops": ops, "work_per_op": VERIFY_INSTANCES, "warmup": warmup}, expect


_PLANS = {"sweep": _plan_sweep, "audit": _plan_audit, "verify": _plan_verify}
WORKLOADS = tuple(_PLANS)


def plan(workload, seed, workdir):
    return _PLANS[workload](_rng(workload, seed), workdir)


def _check_sweep(op, exp):
    with open(op["outs"][0], encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    row = rows[0]
    problems = []
    est, n = float(row["estimate"]), int(row["N"])
    target = (1.0 + math.cos(exp["angle"])) / 2.0
    if float(row["angle_rad"]) != exp["angle"]:
        problems.append(f"angle {row['angle_rad']} is not {exp['angle']!r}")
    if n != SWEEP_TRIALS or int(row["seed"]) != exp["seed"]:
        problems.append(f"N/seed {n}/{row['seed']} do not echo {SWEEP_TRIALS}/{exp['seed']}")
    if abs(est * n - round(est * n)) > 1e-6:
        problems.append(f"estimate {est!r} x N is not an integer")
    if not abs(est - target) <= SWEEP_FIDELITY:
        problems.append(f"estimate {est!r} misses (1 + cos)/2 = {target!r} by over {SWEEP_FIDELITY}")
    if not abs(float(row["target"]) - target) <= 1e-12:
        problems.append(f"target {row['target']} is not {target!r}")
    return problems


def _check_decomposition(dec, p, c):
    problems = []
    recon = np.zeros(16)
    total = one_way = 0.0
    for row in dec["weights"]:
        fa, fb = oracle.parse_strategy(row["strategy"])
        k = oracle.kind(fa, fb)
        if k != row["kind"] or k == "two_way":
            problems.append(f"strategy {row['strategy']} is {k}, reported {row['kind']}")
        if row["w"] < 0.0:
            problems.append(f"negative weight {row['w']!r}")
        recon += row["w"] * oracle.strategy_table(fa, fb).ravel()
        total += row["w"]
        one_way += row["w"] if k != "local" else 0.0
    if np.abs(recon - p.ravel()).max() > AUDIT_TOL or abs(total - 1.0) > AUDIT_TOL:
        problems.append("weights do not reconstruct the box")
    if abs(one_way - c) > AUDIT_TOL:
        problems.append(f"one-way weight {one_way!r} is not C = {c!r}")
    return problems


def _check_audit(op, exp):
    with open(exp["box"], encoding="utf-8") as fh:
        p = np.array(json.load(fh)["P"], dtype=np.float64)
    with open(op["outs"][0], encoding="utf-8") as fh:
        an = json.load(fh)
    with open(op["outs"][1], encoding="utf-8") as fh:
        dec = json.load(fh)
    problems = []
    ref = oracle.measures(p)
    for key, want in ref.items():
        if not abs(an[key] - want) <= MEASURE_TOL:
            problems.append(f"{key} = {an[key]!r}, recomputed {want!r}")
    c_ref = oracle.comm_cost(p)
    if (c_ref is not None) != an["feasible"] or (c_ref is not None) != dec.get("feasible", True):
        return problems + [f"feasibility disagrees with the reference LP (C = {c_ref!r})"]
    if not all(an["flags"].values()):
        problems.append(f"analyze flags a failed relation: {an['flags']}")
    if c_ref is None:
        if dec != {"feasible": False, "infeasible": True, "detail": dec.get("detail")}:
            problems.append(f"unexpected infeasible report {dec}")
        return problems
    for name, c in (("analyze C_min", an["C_min"]), ("decompose C", dec["C"])):
        if not abs(c - c_ref) <= AUDIT_TOL:
            problems.append(f"{name} = {c!r}, reference LP {c_ref!r}")
    c = dec["C"]
    if not ref["S"] + 2.0 * ref["I"] >= c - PROPERTY_TOL:
        problems.append(f"S + 2I = {ref['S'] + 2.0 * ref['I']!r} < C = {c!r}")
    if not c >= ref["lambda_max"] / 2.0 - 1.0 - PROPERTY_TOL:
        problems.append(f"C = {c!r} < chsh_max/2 - 1")
    if exp["bound"] is not None and not c <= exp["bound"] + AUDIT_TOL:
        problems.append(f"C = {c!r} exceeds the generating one-way weight {exp['bound']!r}")
    return problems + _check_decomposition(dec, p, c)


def _check_verify(op, exp):
    with open(op["outs"][0], encoding="utf-8") as fh:
        rep = json.load(fh)
    problems = []
    if (rep["seed"], rep["instances"], rep["tol"]) != (exp["seed"], VERIFY_INSTANCES, VERIFY_TOL):
        problems.append("seed, instances or tol not echoed")
    if rep["passed"] is not True:
        problems.append("suite reports a failure")
    names = [c["name"] for c in rep["checks"]]
    if sorted(names) != sorted(VERIFY_CHECKS):
        problems.append(f"checks {names} are not the documented set")
    for c in rep["checks"]:
        rel, limit = VERIFY_CHECKS.get(c["name"], ("==", math.nan))
        w = c["worst"]
        holds = {"==": w == limit, ">=": w >= limit, "<=": w <= limit}[rel]
        if not (holds and c["passed"] is True and math.isfinite(w)):
            problems.append(f"{c['name']}: worst {w!r} vs {rel} {limit!r}, passed {c['passed']}")
    return problems


_CHECKS = {"sweep": _check_sweep, "audit": _check_audit, "verify": _check_verify}


def check(workload, op, exp):
    try:
        return _CHECKS[workload](op, exp)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
