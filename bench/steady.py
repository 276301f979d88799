"""Steadiness check: two independent sets of benchmark runs of the same code.

    python3 bench/steady.py

For every workload in BENCHMARK.json, runs `bench/run.py` ten times per set
for `run_seconds`, each run with its own seed (set A uses 1001-1010, set B
2001-2010), alternating the sets so that drift in machine load hits both
alike.  For every workload and end-to-end metric it prints each set's median,
quartiles and spread (interquartile distance over the median), and whether
  - each spread is within the metric's bound in BENCHMARK.json, and within a
    third of it (the target margin), and
  - set B's median is no worse than set A's by more than the bound.
It also checks that every run is correct and that the share of failed
operations is the same in both sets.  The raw results go to
bench/out/steady.json.  It exits 0 only if every check holds.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SEED_BASE = {"A": 1000, "B": 2000}


def _run(workload, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]

    runs = {w: {"A": [], "B": []} for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            for s in ("AB" if i % 2 == 0 else "BA"):
                res = _run(w, SEED_BASE[s] + i + 1, bench["run_seconds"])
                runs[w][s].append(res)
                vals = " ".join(f"{k}={m['value']:.5g}" for k, m in res["metrics"].items())
                print(f"[{i + 1}/{RUNS}] {w} set {s}: {vals}", flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)

    ok = True
    print(f"\n{'workload':<8} {'metric':<12} {'set':<3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {s: _summary([r["metrics"][name]["value"] for r in runs[w][s]]) for s in "AB"}
            for s in "AB":
                st = stats[s]
                if st["spread"] <= bound / 3:
                    verdict = "steady"
                elif st["spread"] <= bound:
                    verdict = "within bound, above a third of it"
                else:
                    verdict, ok = "SPREAD OVER BOUND", False
                if s == "B":
                    a, b = stats["A"]["median"], st["median"]
                    worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                    agree = worse <= bound
                    ok = ok and agree
                    verdict += f"; B vs A {worse:+.1%} {'agrees' if agree else 'DISAGREES'}"
                print(f"{w:<8} {name:<12} {s:<3} {st['median']:>12.6g} {st['q1']:>12.6g} "
                      f"{st['q3']:>12.6g} {st['spread']:>7.2%} {bound:>6.2f}  {verdict}")
        shares = {s: sum(r["failed"] for r in runs[w][s]) / sum(r["attempted"] for r in runs[w][s])
                  for s in "AB"}
        correct = all(r["correct"] for s in "AB" for r in runs[w][s])
        same = shares["A"] == shares["B"]
        ok = ok and correct and same
        print(f"{w:<8} failed share {shares}; all runs correct: {correct}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
