"""Command-line interface.

Subcommands: analyze (measure a box file), decompose (minimum-cost 1-bit
decomposition), simulate (one angle), sweep (angle grid to CSV), verify
(randomized property suites).  Exit codes: 0 ok, 1 invariant violation,
failed analyze check or failed verification, 2 malformed input or usage,
3 infeasible decomposition, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

from .boxcore import _write_text, checked_count_and_seed, load_box
from .certify import complementarity_report, run_property_suite
from .decompose import ResourceSpec, min_comm_cost
from .errors import (
    BoxFormatError,
    BoxInvariantError,
    DomainError,
    Infeasible,
    NumericalError,
    WeightError,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

# exception types and the exit code each ends in, after one `error:` line
_EXIT_CODES = (
    ((OSError, BoxFormatError, WeightError, DomainError), EXIT_USAGE),
    ((BoxInvariantError,), EXIT_INVARIANT),
    ((Infeasible,), EXIT_INFEASIBLE),
    ((NumericalError,), EXIT_NUMERICAL),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="boxcomp",
        description="Measure, decompose, verify, and simulate two-input binary correlation boxes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="report all measures of a box JSON file")
    p_an.add_argument("--box", required=True, help="path to a box JSON file")
    p_an.add_argument("--tol", type=float, default=1e-9,
                      help="largest facet-row value a 1-bit box may have, and the flags' slack")
    p_an.add_argument("--out", help="write the report here instead of stdout")
    p_an.add_argument("--format", choices=("text", "json"), default="text")

    p_de = sub.add_parser("decompose", help="minimum-communication 1-bit decomposition")
    p_de.add_argument("--box", required=True)
    p_de.add_argument("--tol", type=float, default=1e-9,
                      help="largest facet-row value a 1-bit box may have, and the largest "
                           "phase-1 residual and reconstruction error of its weights")
    p_de.add_argument("--out")
    p_de.add_argument("--format", choices=("text", "json"), default="text")

    p_si = sub.add_parser("simulate", help="singlet-statistics run at one angle")
    p_si.add_argument("--resource", required=True,
                      help='compact spec, e.g. "scope=000;S1+:0.5,S1-:0.5"')
    p_si.add_argument("--angle", required=True,
                      help="angle between measurement axes, radians")
    p_si.add_argument("--trials", type=int, default=1_000_000)
    p_si.add_argument("--seed", type=int, default=0)
    p_si.add_argument("--out")
    p_si.add_argument("--format", choices=("csv", "json", "text"), default="csv")

    p_sw = sub.add_parser("sweep", help="singlet-statistics sweep over angles")
    p_sw.add_argument("--resource", required=True)
    grid = p_sw.add_mutually_exclusive_group(required=True)
    grid.add_argument("--angles",
                      help='comma-separated radians, e.g. "0,0.7853981633974483,1.5707963267948966"')
    grid.add_argument("--angle-grid", type=int,
                      help="K evenly spaced angles covering [0, pi]")
    p_sw.add_argument("--trials", type=int, default=1_000_000)
    p_sw.add_argument("--seed", type=int, default=0)
    p_sw.add_argument("--out")
    p_sw.add_argument("--format", choices=("csv", "json", "text"), default="csv")

    p_ve = sub.add_parser("verify", help="run the randomized property suites")
    p_ve.add_argument("--seed", type=int, default=0)
    p_ve.add_argument("--instances", type=int, default=200)
    p_ve.add_argument("--tol", type=float, default=1e-9,
                      help="slack allowed to each check")
    p_ve.add_argument("--out")
    p_ve.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _emit(text, out_path):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        _write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _json_dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def cmd_analyze(args):
    box = load_box(args.box)
    cert = complementarity_report(box, tol=args.tol)
    nonsig = cert.S <= max(args.tol, 1e-12)
    if args.format == "json":
        _emit(_json_dumps(dict(cert.to_json(), nonsignaling=nonsig, label=box.label)), args.out)
    else:
        # a path byte that is not UTF-8 is shown as a \xNN escape, never as a lone surrogate
        name = box.label or os.fsencode(args.box).decode("utf-8", "backslashreplace")
        lines = [f"box          = {name}",
                 f"nonsignaling = {nonsig}",
                 cert.render_text()]
        _emit("\n".join(lines), args.out)
    return EXIT_OK if cert.passed else EXIT_INVARIANT


def cmd_decompose(args):
    box = load_box(args.box)
    try:
        dec = min_comm_cost(box, tol=args.tol)
    except Infeasible as exc:
        if args.format == "json":
            _emit(_json_dumps({"feasible": False, "infeasible": True,
                               "detail": str(exc)}), args.out)
        else:
            _emit(f"infeasible: {exc}", args.out)
        return EXIT_INFEASIBLE
    if args.format == "json":
        _emit(_json_dumps(dec.to_json()), args.out)
    else:
        lines = [f"C = {dec.C!r}"]
        for row in dec.to_json()["weights"]:
            lines.append(f"  {row['strategy']:<12} {row['kind']:<14} w = {row['w']!r}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def _sweep_common(args, angles):
    from .simulate import sweep_angles, write_sweep_csv

    spec = ResourceSpec.parse(args.resource)
    points = sweep_angles(spec, angles, args.trials, args.seed)
    worst = max(abs(p.estimate - p.target) for p in points)
    support = "one-way-pairs" if spec.one_way_support else "includes-two-way"
    if args.format == "json":
        payload = {
            "rows": [p.to_json() for p in points],
            "N": args.trials,
            "seed": args.seed,
            "max_abs_error": worst,
            "support": support,
        }
        _emit(_json_dumps(payload), args.out)
    elif args.format == "text":
        lines = [f"{'angle_rad':>12} {'estimate':>12} {'target':>12} {'stderr':>12}"]
        for p in points:
            lines.append(f"{p.angle:>12.6f} {p.estimate:>12.6f} {p.target:>12.6f} {p.stderr:>12.2e}")
        lines.append(f"max |estimate - target| = {worst!r} (support: {support})")
        _emit("\n".join(lines), args.out)
    else:
        buf = io.StringIO()
        write_sweep_csv(points, args.trials, args.seed, buf)
        _emit(buf.getvalue(), args.out)
    sys.stderr.write(f"max |estimate - target| = {worst!r} over {len(points)} angle(s); "
                     f"support: {support}\n")
    return EXIT_OK


def cmd_simulate(args):
    return _sweep_common(args, [args.angle])


def cmd_sweep(args):
    if args.angles is not None:
        angles = [part for part in args.angles.split(",") if part.strip()]
    else:
        from .simulate import MAX_TRIALS

        # the grid is built here, so its size is checked first, as sweep_angles counts it
        n, seed = checked_count_and_seed(args.trials, args.seed, MAX_TRIALS, "trials in [1, 2**36]")
        k, _ = checked_count_and_seed(args.angle_grid, seed, MAX_TRIALS // n,
                                      f"--angle-grid in [1, 2**36 // {n}]")
        angles = [math.pi * i / max(k - 1, 1) for i in range(k)]
    return _sweep_common(args, angles)


def cmd_verify(args):
    report = run_property_suite(seed=args.seed, instances=args.instances, tol=args.tol)
    if args.format == "json":
        _emit(_json_dumps(report.to_json()), args.out)
    else:
        _emit(report.render_text(), args.out)
    return EXIT_OK if report.passed else EXIT_INVARIANT


_COMMANDS = {
    "analyze": cmd_analyze,
    "decompose": cmd_decompose,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


# built once and never mutated; parse_args only reads it
_PARSER = build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        for kinds, code in _EXIT_CODES:
            if isinstance(exc, kinds):
                sys.stderr.write(f"error: {exc}\n")
                return code
        raise


def entry():
    sys.exit(main())
