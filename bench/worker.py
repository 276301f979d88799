"""One workload process: import boxcomp from the checkout, warm up, run timed ops.

    python3 bench/worker.py --probe DIR
        import boxcomp and make the warm-up calls of DIR/warmup.json, print
        time.monotonic() and exit; the parent times this as the set-up.
    python3 bench/worker.py --run DIR --seconds S --trace 0|1
        warm up, then run whole rounds of the ops in DIR/plan.json for S
        seconds and write every op's wall time to DIR/result.json.  With
        --trace 1 the rounds alternate between untraced and traced by the
        span recorder, and one more round checks that every call from one
        boxcomp module into another is traced.

Every op calls `boxcomp.cli.main` in-process with its output sent to a file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_cli():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from boxcomp import cli

    return cli


def _warm_up(cli, calls):
    with contextlib.redirect_stderr(io.StringIO()):
        for argv in calls:
            cli.main(argv)


def _peak_rss_mib():
    """This process's peak resident set, from VmHWM.

    ru_maxrss is no good here: Linux carries the parent's resident set at
    fork time over into the child's ru_maxrss.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Runner:
    """Runs the plan's ops in rounds; checks that repeats rewrite the same bytes."""

    def __init__(self, cli, plan):
        self.cli = cli
        self.plan_ops = plan["ops"]
        self.ops = []          # [op index, wall_s, ok, traced] per attempt
        self.first = {}        # op index -> bytes of its output files on first success
        self.mismatches = 0
        self.errors = []

    def _run_op(self, i, err, traced):
        op = self.plan_ops[i]
        t0 = time.perf_counter()
        try:
            rcs = [self.cli.main(argv) for argv in op["calls"]]
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rcs = [f"{type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - t0
        ok = len(rcs) == len(op["ok_rc"]) and all(
            rc in allowed for rc, allowed in zip(rcs, op["ok_rc"]))
        if not ok and len(self.errors) < 5:
            self.errors.append({"op": i, "rcs": rcs, "stderr": err.getvalue()[-500:]})
        err.seek(0)
        err.truncate()
        self.ops.append([i, wall, ok, traced])
        if ok:
            outs = []
            for path in op["outs"]:
                with open(path, "rb") as fh:
                    outs.append(fh.read())
            if i not in self.first:
                self.first[i] = outs
            elif self.first[i] != outs:
                self.mismatches += 1

    def round(self, tracer=None):
        """Every op once, in order; under `tracer` if one is given."""
        err = io.StringIO()
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stderr(err):
                for i in range(len(self.plan_ops)):
                    if tracer is not None:
                        tracer.op = len(self.ops)
                    self._run_op(i, err, tracer is not None)
        finally:
            if tracer is not None:
                tracer.uninstall()

    def run_for(self, seconds, tracer=None):
        """Whole rounds until `seconds` have passed; every second one traced if given."""
        t0 = time.perf_counter()
        traced = False
        while True:
            self.round(tracer if traced else None)
            traced = tracer is not None and not traced
            # a traced run ends after a traced round: as many of each kind
            if time.perf_counter() - t0 >= seconds and not traced:
                return


def run(workdir, seconds, trace):
    with open(os.path.join(workdir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    cli = _import_cli()
    _warm_up(cli, plan["warmup"])
    runner = Runner(cli, plan)
    result = {}
    if not trace:
        runner.run_for(seconds)
        result["peak_rss_mib"] = _peak_rss_mib()
    else:
        from tracer import Tracer, layer_metrics, untraced_calls

        tracer = Tracer()
        runner.run_for(seconds, tracer)
        n_traced = sum(1 for op in runner.ops if op[3])
        result["layer_metrics"] = layer_metrics(tracer, n_traced)
        tracer.write(plan["trace_path"])
        # one more round, not timed, under a fresh tracer and sys.settrace
        attempted = len(runner.ops)
        result["untraced_calls"] = untraced_calls(lambda: runner.round(Tracer()))
        del runner.ops[attempted:]
    result.update(ops=runner.ops, mismatches=runner.mismatches, errors=runner.errors,
                  succeeded=sorted(runner.first))
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def probe(workdir):
    with open(os.path.join(workdir, "warmup.json"), encoding="utf-8") as fh:
        calls = json.load(fh)
    _warm_up(_import_cli(), calls)
    sys.stdout.write(f"{time.monotonic()!r}\n")
    sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser()
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--probe")
    mode.add_argument("--run")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.probe:
        probe(args.probe)
    else:
        run(args.run, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
