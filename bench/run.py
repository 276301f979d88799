"""boxcomp benchmark: one workload per call, checked outputs, one JSON result line.

    python3 bench/run.py --workload sweep|audit|verify|all --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; boxcomp is imported from ./src.  The
benchmark writes the workload's inputs under bench/out/ and times fresh
interpreters up to `import boxcomp` plus the workload's warm-up call, five
before the workload and four after it.  The workload runs in one more fresh
process (bench/worker.py) for S seconds of whole rounds; a round runs each op
of the seed's fixed op list once.  Afterwards every op's outputs are checked
against references that do not use boxcomp (bench/oracle.py).

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from bench/tracer.py plus the tracing overhead.  See
bench/README.md for the workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES_BEFORE = 5
SETUP_PROBES_AFTER = 4
PROBE_TIMEOUT_S = 30.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env():
    """Environment for boxcomp processes: one BLAS thread.

    boxcomp's own work is single-threaded; a BLAS pool only spins on its
    tiny matrix-vector products and makes op times depend on what else runs
    on the other cores.
    """
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _setup_times(workdir, env, probes):
    """Wall times of fresh interpreters up to import plus warm-up."""
    times = []
    for _ in range(probes):
        # the probe prints time.monotonic() when ready; the clock is system-wide
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, WORKER, "--probe", workdir], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def _work(workdir, seconds, trace, env):
    timeout = seconds * 1.5 + 60.0
    proc = subprocess.run([sys.executable, WORKER, "--run", workdir, "--seconds", str(seconds),
                           "--trace", str(int(trace))], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def best_of_repeats(ops, work_per_op):
    """(median op ms, work per second), both from each op's fastest repeat.

    The host only ever adds time to an op, so an op's fastest repeat is the
    steadiest estimate of its cost; the median is over the distinct ops.
    """
    best = {}
    for i, wall, ok, *_ in ops:
        if ok:
            best[i] = min(wall, best.get(i, wall))
    if not best:
        return 0.0, 0.0
    return (statistics.median(best.values()) * 1e3,
            len(best) * work_per_op / sum(best.values()))


def run_workload(workload, seed, seconds, trace):
    env = _child_env()
    workdir = os.path.join(OUT, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        plan, expect = workloads.plan(workload, seed, workdir)
        plan["trace_path"] = os.path.join(OUT, f"trace-{workload}-{seed}.jsonl.gz")
        with open(os.path.join(workdir, "plan.json"), "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        with open(os.path.join(workdir, "warmup.json"), "w", encoding="utf-8") as fh:
            json.dump(plan["warmup"], fh)
        # probes before and after the workload, so that set-up is sampled at
        # two moments of the host's load
        setup = [] if trace else _setup_times(workdir, env, SETUP_PROBES_BEFORE)
        res = _work(workdir, seconds, trace, env)
        setup += [] if trace else _setup_times(workdir, env, SETUP_PROBES_AFTER)

        correct = True
        for err in res["errors"]:
            print(f"{workload}: failed op {err}", file=sys.stderr)
        if res["mismatches"]:
            print(f"{workload}: {res['mismatches']} repeated ops wrote different outputs",
                  file=sys.stderr)
            correct = False
        for i in res["succeeded"]:
            problems = workloads.check(workload, plan["ops"][i], expect[i])
            for problem in problems:
                print(f"{workload} op {i}: {problem}", file=sys.stderr)
            correct = correct and not problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = res["ops"]
    failed = sum(1 for op in ops if not op[2])
    if trace:
        for call, n in res["untraced_calls"].items():
            print(f"{workload}: untraced call {call} ({n}x)", file=sys.stderr)
            correct = False
        metrics = res["layer_metrics"]
        _, plain = best_of_repeats([op for op in ops if not op[3]], plan["work_per_op"])
        _, traced = best_of_repeats([op for op in ops if op[3]], plan["work_per_op"])
        metrics["trace.overhead_pct"] = ((plain / traced - 1.0) * 100.0 if traced else 0.0, "%")
    else:
        op_ms, rate = best_of_repeats(ops, plan["work_per_op"])
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "work_per_s": (rate, "1/s"),
            "op_ms_p50": (op_ms, "ms"),
            "peak_rss_mb": (res["peak_rss_mib"], "MiB"),
        }
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "boxcomp", "cli.py")):
        print(f"error: no boxcomp source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if args.workload == "all":
            res = results[name]
            print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
                  f"correct {res['correct']}")
            for metric, m in res["metrics"].items():
                print(f"  {metric:<40} {m['value']:>16.6g} {m['unit']}")
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
