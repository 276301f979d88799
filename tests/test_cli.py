"""End-to-end CLI behaviour: formats, files, and exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boxcomp as bc
from _helpers import corrupt_catalogue, random_feasible_box
from boxcomp import simulate
from boxcomp.cli import main
from boxcomp.simulate import MAX_TRIALS


@pytest.fixture()
def box_files(tmp_path):
    paths = {}
    paths["pr"] = tmp_path / "pr.json"
    bc.dump_box(bc.pr_box(label="pr"), paths["pr"])
    paths["sp"] = tmp_path / "sp.json"
    spec = bc.ResourceSpec.parse("scope=000;S1+:0.75,S1-:0.25")
    bc.dump_box(bc.resource_box(spec, label="sp-0.75"), paths["sp"])
    paths["two_way"] = tmp_path / "s5.json"
    bc.dump_box(bc.strategy_box(bc.scope_strategies()[8], label="s5+"), paths["two_way"])
    paths["local"] = tmp_path / "local.json"
    zero = bc.DeterministicStrategy((0, 0, 0, 0), (0, 0, 0, 0))
    bc.dump_box(bc.strategy_box(zero, label="zeros"), paths["local"])
    return paths


def test_analyze_json(box_files, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["analyze", "--box", str(box_files["pr"]), "--format", "json",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["lambda"] == 4.0
    assert data["S"] == 0.0
    assert data["I"] == 0.5
    assert data["H_I"] == 1.0
    assert data["nonsignaling"] is True
    assert data["C_min"] == 1.0
    assert data["label"] == "pr"


def test_analyze_text_to_stdout(box_files, capsys):
    rc = main(["analyze", "--box", str(box_files["sp"])])
    assert rc == 0
    text = capsys.readouterr().out
    assert "S            = 0.5" in text
    assert "I            = 0.25" in text
    assert "nonsignaling = False" in text


def test_analyze_text_names_an_unlabelled_box_by_a_non_utf8_path(tmp_path):
    # the byte 0xff reaches Python as the lone surrogate \udcff, which strict UTF-8 cannot encode
    path = os.fsdecode(os.fsencode(tmp_path) + b"/box-\xff.json")
    bc.dump_box(bc.pr_box(), path)
    report = tmp_path / "report.txt"
    assert main(["analyze", "--box", path, "--out", str(report)]) == 0
    first = report.read_bytes().split(b"\n", 1)[0]
    assert first == b"box          = " + os.fsencode(tmp_path) + b"/box-\\xff.json"
    # a strict UTF-8 stdout, as under PYTHONIOENCODING=utf-8, gets the same bytes
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    with contextlib.redirect_stdout(stdout):
        assert main(["analyze", "--box", path]) == 0
    stdout.flush()
    assert stdout.buffer.getvalue() == report.read_bytes()


# analyze's text report on 0.75 [a=0, b=1^x^y] + 0.25 [a=xy, b=1], labelled "mixed"
MIXED_REPORT = """\
box          = mixed
nonsignaling = False
lambda       = 0.5
lambda_max   = 1.5
S            = 0.75
I            = 0.0
H_S          = 0.5487949406953987
H_I          = 0.8112781244591328
C_min        = 1.0
S + 2I - C   = -0.25
cert I bound = 0.0
relaxed Bell = lhs -0.5 vs rhs 1.5
PASS relaxed_bell
PASS operational_bell
PASS certified_I
FAIL cost_complementarity
PASS pironio
"""


def test_analyze_exits_1_when_a_check_fails(tmp_path, capsys):
    # one-way vertices of both directions: S + 2I >= C fails on their mixture
    a_to_b = bc.DeterministicStrategy((0, 0, 0, 0), (1, 0, 0, 1))
    b_to_a = bc.DeterministicStrategy((0, 0, 0, 1), (1, 1, 1, 1))
    path = tmp_path / "mixed.json"
    bc.dump_box(bc.mix((0.75, 0.25), bc.strategy_boxes([a_to_b, b_to_a]), label="mixed"), path)
    assert main(["analyze", "--box", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    got, want = captured.out.splitlines(), MIXED_REPORT.splitlines()
    assert len(got) == len(want)
    for line, expected in zip(got, want):
        if line.startswith("H_"):  # entropies: allow libm's last-digit rounding
            name, _, value = line.partition("=")
            assert name == expected.partition("=")[0]
            assert abs(float(value) - float(expected.partition("=")[2])) <= 1e-12
        else:
            assert line == expected
    assert main(["analyze", "--box", str(path), "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["flags"]["cost_complementarity"] is False


def _refused_by_the_parser(captured):
    """Exit-2 refusals from argparse: usage lines, then one `error:` line, no stdout."""
    lines = captured.err.splitlines()
    return (captured.out == "" and "Traceback" not in captured.err
            and [line for line in lines if "error:" in line] == lines[-1:])


def test_analyze_error_codes(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["analyze", "--box", str(missing)]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["analyze", "--box", str(bad)]) == 2

    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"P": [0.25] * 16}))
    assert main(["analyze", "--box", str(flat)]) == 2

    unnorm = tmp_path / "unnorm.json"
    data = bc.pr_box().to_json()
    data["P"][0][0][0][0] = 0.75
    unnorm.write_text(json.dumps(data))
    assert main(["analyze", "--box", str(unnorm)]) == 1
    capsys.readouterr()

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"P": [], "label": "\xe9"}')
    strings = tmp_path / "strings.json"
    strings.write_text(json.dumps({"P": [[[["0.25"] * 2] * 2] * 2] * 2}))
    bools = tmp_path / "bools.json"
    data = bc.pr_box().to_json()
    data["P"][0][0][0][0] = True
    bools.write_text(json.dumps(data))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    deep_p = tmp_path / "deep_p.json"
    deep_p.write_text('{"P": ' + "[" * 900 + "]" * 900 + "}")
    huge = tmp_path / "huge.json"  # an int past float range
    data = bc.pr_box().to_json()
    data["P"][0][0][0][0] = 10 ** 399
    huge.write_text(json.dumps(data))
    too_long = tmp_path / "too_long.json"  # an int past Python's 4300-digit parse limit
    too_long.write_text('{"P": [[[[' + "1" * 5001 + "]]]]}")
    for path in (tmp_path, latin1, strings, bools, deep, deep_p, huge, too_long):
        assert main(["analyze", "--box", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    for path in (huge, too_long):
        assert main(["decompose", "--box", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


# JSON tokens for the leaves of a box file: numbers (cell-like ones, ints past
# float range with up to 5,000 digits, floats with NaN and the infinities),
# then strings, bools and null
_NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "0.25", "0.5", "-0.25", "-1e-13", "1e-300"]),
    st.builds(lambda sign, digit, n: sign + digit * n, st.sampled_from(["", "-"]),
              st.sampled_from("19"), st.sampled_from([309, 400, 4300, 4301, 5000])),
    st.floats().map(json.dumps),
)
# labels include lone surrogates, which JSON's \u escapes can spell but UTF-8 cannot encode
_LABELS = (st.text(max_size=4) | st.sampled_from(["\ud800", "x\udfff", "\udc00\ud800"])).map(json.dumps)
_LEAVES = _NUMBERS | _LABELS | st.sampled_from(["true", "false", "null"])
# one setting's [a][b] table, normalized up to dust
_SETTINGS = st.sampled_from(["[[0.25, 0.25], [0.25, 0.25]]", "[[0.5, 0], [0, 0.5]]",
                             "[[0, 0.5], [0.5, 0]]", "[[1, 0], [0, 0]]", "[[0, 0], [-1e-13, 1]]"])


@st.composite
def _nesting(draw, depth):
    """JSON text of nested lists, mostly of shape (2,) * depth.

    A level is sometimes a leaf or has 0, 1 or 3 items; at depth 2 it is
    mostly one setting's table, and leaves are mostly numbers.
    """
    roll = draw(st.integers(0, 49))
    if depth == 0:
        return draw(_NUMBERS if roll < 45 else _LEAVES)
    if roll == 0:
        return draw(_LEAVES)
    if depth == 2 and roll < 40:
        return draw(_SETTINGS)
    n = draw(st.sampled_from([2] * 30 + [0, 1, 3]))
    return "[" + ", ".join(draw(_nesting(depth - 1)) for _ in range(n)) + "]"


@st.composite
def _box_files(draw):
    """JSON text of a box file: mostly an object with "P", maybe "label", and extra keys."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_nesting(2))
    fields = {}
    if draw(st.integers(0, 9)):
        fields["P"] = draw(_nesting(4))
    if draw(st.booleans()):
        fields["label"] = draw(_LEAVES if draw(st.integers(0, 4)) == 0 else _LABELS)
    if draw(st.integers(0, 4)) == 0:
        fields["extra"] = draw(_LEAVES)
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}"


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(text=_box_files())
def test_hostile_box_files_end_in_documented_exit_codes(text, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "hostile.json"
    path.write_text(text, encoding="utf-8")
    # a StringIO stdout never encodes, so the text report also goes to a file
    report = tmp_path_factory.getbasetemp() / "hostile.txt"
    for command in ("analyze", "decompose"):
        for out_args in ([], ["--out", str(report)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--box", str(path)] + out_args)
            assert code in (0, 1, 2, 3, 4)
            assert err.getvalue().count("error:") <= 1


# option values for simulate, sweep and verify, as (valid, hostile) strategies: valid
# ones include extremes but keep trial and instance counts small, so no run is long
_ANGLES = (["0", "1", "3.141592653589793", "-2", "1e308", "-1e308", "5e-324"],
           ["1e400", "nan", "inf", "-inf", "abc", ""])
_ITEMS = st.builds("{}:{}".format, st.sampled_from(["S1+", "S1-", "S5+", "S8-", "S9+", "s1+", ""]),
                   st.sampled_from(["0.5", "1", "0", "-0.5", "1e308", "-1e308", "5e-324", "nan",
                                    "inf", "abc", "", "1_0"]))
_OPTIONS = {
    "--resource": (
        st.sampled_from(["S1+:0.5,S1-:0.5", "scope=101;S2+:1", "S5+:0.25,S5-:0.75",
                         " S3- : 1 ,", "S1+:5e-324,S1-:1"]),
        st.sampled_from(["S1+:1e308,S1-:1e308", "S1+:1e308,S1-:-1e308", "scope=000"])
        | st.builds(lambda scope, items, sep: scope + sep.join(items),
                    st.sampled_from(["", "scope=111;", "scope=2;", "scope=;", "junk;"]),
                    st.lists(_ITEMS, max_size=4), st.sampled_from([",", ",,", ";"]))),
    "--angle": (st.sampled_from(_ANGLES[0]), st.sampled_from(_ANGLES[1])),
    "--angles": (st.lists(st.sampled_from(_ANGLES[0]), min_size=1, max_size=3).map(",".join),
                 st.lists(st.sampled_from(_ANGLES[0] + _ANGLES[1]), max_size=3).map(",".join)),
    "--angle-grid": (st.sampled_from(["1", "5"]), st.sampled_from(["0", "-1", "2.5"])),
    "--trials": (st.sampled_from(["1", "10", "1000", "1_000"]),
                 st.sampled_from(["0", "-1", "1e3", "x", ""])),
    "--instances": (st.sampled_from(["1", "5"]), st.sampled_from(["0", "-3", "x"])),
    "--seed": (st.sampled_from(["0", "7", str(2 ** 64), "9" * 40]),
               st.sampled_from(["-1", "0.5", "x", ""])),
    "--tol": (st.sampled_from(["1e-9", "0.5", "0.999", "1e-300", "5e-324"]),
              st.sampled_from(["0", "1", "-1e-9", "1e400", "nan", "inf", "x", ""])),
}


@st.composite
def _run_args(draw):
    """argv for one simulate, sweep or verify run with up to two hostile option values."""
    command = draw(st.sampled_from(["simulate", "sweep", "verify"]))
    if command == "verify":
        flags = ["--instances", "--tol"]
    else:
        flags = ["--resource", "--trials",
                 "--angle" if command == "simulate" else draw(st.sampled_from(["--angles",
                                                                               "--angle-grid"]))]
    flags.append("--seed")
    hostile = draw(st.sets(st.sampled_from(flags), max_size=2))
    options = [(flag, draw(_OPTIONS[flag][flag in hostile])) for flag in flags]
    # "--opt=value" hands any value to its parser; "--opt value" reads "-inf" as an option
    joined = draw(st.booleans())
    return [command] + [arg for flag, value in options
                        for arg in ([f"{flag}={value}"] if joined else [flag, value])]


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@example(argv=["simulate", "--resource", "S1+:1e308,S1-:1e308", "--angle", "1", "--trials", "10"])
@given(argv=_run_args())
def test_hostile_run_arguments_end_in_documented_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    assert err.getvalue().count("error:") <= 1
    assert "Traceback" not in err.getvalue()


def test_decompose_json(box_files, tmp_path, capsys):
    out = tmp_path / "dec.json"
    rc = main(["decompose", "--box", str(box_files["pr"]), "--format", "json",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert abs(data["C"] - 1.0) <= 1e-9
    assert abs(sum(row["w"] for row in data["weights"]) - 1.0) <= 1e-9
    names = {row["strategy"] for row in data["weights"]}
    assert names <= set(bc.STRATEGY_NAMES) | {s.table_str() for s in
                                              bc.enumerate_deterministic("all_one_bit")}

    rc = main(["decompose", "--box", str(box_files["local"])])
    assert rc == 0
    assert "C = 0.0" in capsys.readouterr().out


def test_decompose_infeasible_exit_code(box_files, capsys):
    rc = main(["decompose", "--box", str(box_files["two_way"])])
    assert rc == 3
    assert "infeasible" in capsys.readouterr().out.lower()
    rc = main(["decompose", "--box", str(box_files["two_way"]), "--format", "json"])
    assert rc == 3
    assert json.loads(capsys.readouterr().out)["infeasible"] is True
    assert main(["decompose", "--box", str(box_files["two_way"]), "--tol", "0.5"]) == 3
    capsys.readouterr()
    # a tolerance of 1 or more let the LP accept this two-way box with C = 1.0
    for tol in ("inf", "nan", "10", "1", "0"):
        for command in ("analyze", "decompose"):
            assert main([command, "--box", str(box_files["two_way"]), "--tol", tol]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_simulate_csv(capsys):
    rc = main(["simulate", "--resource", "scope=000;S1+:0.5,S1-:0.5",
               "--angle", str(math.pi / 2), "--trials", "65536", "--seed", "2"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "angle_rad,estimate,target,stderr,N,seed"
    angle, est, target, stderr, n, seed = lines[1].split(",")
    assert float(angle) == math.pi / 2
    assert abs(float(est) - 0.5) <= 0.01
    assert float(target) == 0.5
    assert n == "65536" and seed == "2"
    assert "max |estimate - target|" in captured.err
    assert "one-way-pairs" in captured.err


def test_simulate_rejects_bad_resource(capsys):
    assert main(["simulate", "--resource", "junk", "--angle", "0"]) == 2
    assert main(["simulate", "--resource", "scope=000;S1+:0.7,S1-:0.7", "--angle", "0"]) == 2
    assert main(["simulate", "--resource", "scope=000;S1+:1.0", "--angle", "0",
                 "--trials", "0"]) == 2
    assert main(["simulate", "--resource", "scope=000;S1+:1.0"]) == 2  # no angle
    capsys.readouterr()
    assert main(["simulate", "--resource", "S1+:1.0", "--angle", "0", "--trials", "10",
                 "--seed", "-1"]) == 2
    assert _refused_by_the_parser(capsys.readouterr())
    for resource, angle in (("S1+:nan,S1-:1", "0"), ("S1+:1.0", "nan"), ("S1+:1.0", "inf"),
                            ("S1+:0.5,S1-:0.5000000001", "1.0")):
        assert main(["simulate", "--resource", resource, "--angle", angle,
                     "--trials", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _never_run(*args):
    raise AssertionError("a run past the trial maximum was started")


def test_trial_counts_above_the_maximum_are_refused(capsys, monkeypatch):
    # a run that got past the check fails at once instead of running for hours
    monkeypatch.setattr(simulate, "simulate_singlet", _never_run)
    cases = [grid + ["--resource", "S1+:1.0", "--trials", trials]
             for trials in (str(10 ** 30), str(MAX_TRIALS + 1))
             for grid in (["simulate", "--angle", "1.0"], ["sweep", "--angle-grid", "2"])]
    # a sweep runs at most MAX_TRIALS in all, and verify at most MAX_INSTANCES
    cases += [["sweep", "--resource", "S1+:1.0", "--angles", "0,1",
               "--trials", str(MAX_TRIALS // 2 + 1)],
              ["sweep", "--resource", "S1+:1.0", "--angle-grid", "3",
               "--trials", str(MAX_TRIALS // 2)],
              ["verify", "--instances", str(10 ** 12)]]
    for argv in cases:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # a grid built before its trials were counted would fill the child's address
    # space, capped at 1 GiB, and end in MemoryError; so would one sized by
    # trials that are out of range themselves, as 0 is
    code = ("import resource, sys; cap = resource.RLIMIT_AS; "
            "resource.setrlimit(cap, (1 << 30, resource.getrlimit(cap)[1])); "
            "from boxcomp.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
    for grid, trials in ((str(10 ** 11), "1"), (str(10 ** 11), "0"), ("0", "1")):
        done = subprocess.run([sys.executable, "-c", code, "sweep", "--resource", "S1+:1",
                               "--angle-grid", grid, "--trials", trials],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2 and done.stdout == "", (grid, trials)
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_sweep_csv_files_are_byte_identical(tmp_path, capsys):
    args = ["sweep", "--resource", "scope=000;S5+:0.25,S5-:0.25,S1+:0.25,S1-:0.25",
            "--angle-grid", "4", "--trials", "65536", "--seed", "6"]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert len(lines) == 5
    assert "includes-two-way" in capsys.readouterr().err


def test_sweep_angles_list_and_json(capsys):
    rc = main(["sweep", "--resource", "scope=000;S1+:1.0",
               "--angles", "0,3.141592653589793", "--trials", "65536",
               "--seed", "1", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert [row["angle_rad"] for row in data["rows"]] == [0.0, math.pi]
    assert data["rows"][0]["estimate"] == 1.0
    assert data["rows"][1]["estimate"] == 0.0
    assert data["max_abs_error"] == 0.0
    assert data["support"] == "one-way-pairs"


def test_sweep_requires_exactly_one_grid_flag(capsys):
    assert main(["sweep", "--resource", "scope=000;S1+:1.0"]) == 2
    assert main(["sweep", "--resource", "scope=000;S1+:1.0",
                 "--angles", "0", "--angle-grid", "3"]) == 2
    capsys.readouterr()
    assert main(["sweep", "--resource", "scope=000;S1+:1.0", "--angle-grid", "2",
                 "--trials", "10", "--seed", "-1"]) == 2
    assert _refused_by_the_parser(capsys.readouterr())
    assert main(["sweep", "--resource", "scope=000;S1+:1.0", "--angles", "0,x",
                 "--trials", "10"]) == 2
    assert _refused_by_the_parser(capsys.readouterr())
    for angles in ("0,nan", "-inf,1"):
        assert main(["sweep", "--resource", "scope=000;S1+:1.0", f"--angles={angles}",
                     "--trials", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_verify_ok_and_corrupted(tmp_path, capsys, monkeypatch):
    out = tmp_path / "verify.txt"
    rc = main(["verify", "--seed", "5", "--instances", "8", "--out", str(out)])
    assert rc == 0
    assert "PASS overall" in out.read_text()

    # the corruption hook is gone from the CLI: the flag is refused as unknown
    assert main(["verify", "--seed", "5", "--instances", "8", "--corrupt-table"]) == 2
    assert _refused_by_the_parser(capsys.readouterr())

    with monkeypatch.context() as patched:
        corrupt_catalogue(patched)
        rc = main(["verify", "--seed", "5", "--instances", "8", "--format", "json"])
    assert rc == 1
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is False
    failed = {c["name"] for c in data["checks"] if not c["passed"]}
    assert {"catalogue-structure", "signed-signal-consistency", "zero-signal-bias"} <= failed

    for tol in ("inf", "nan", "10"):
        assert main(["verify", "--instances", "2", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert main(["verify", "--instances", "2", "--seed", "-1"]) == 2
    assert _refused_by_the_parser(capsys.readouterr())


# sha256 of `verify --format json` stdout, recorded when the spec suite first drew its
# randomness as whole stacks (all weights, then all c, then all k).  A one-instance suite
# draws in that order either way, so (0, 1) holds the bytes of the per-instance draws
VERIFY_DIGESTS = {
    (0, 200): "3cf7a17528a62624cb315fea20b8f65b41593c1bfa894d17cf797bf8117b05dc",
    (1, 200): "d07c3833b15ef6a84f821d552ef2e4ae4537fb48293c6816729b7a037c9bd733",
    (2, 200): "c8c41994700ea4382f448428d6f9acb10f2f60d4d2787f9105df23dec83f5425",
    (0, 1): "8f32c27780c8b4034a8a58394a2c2dcb768c3a21f33f46a8e6fc903c655a46f1",
    (3, 20000): "f149f89f079cb970048d9770fa19ea922a1b9f17f9661e5376ebb4fb0b4fbcd4",
}


def test_verify_json_bytes_are_pinned(capsys):
    for (seed, instances), digest in VERIFY_DIGESTS.items():
        argv = ["verify", "--format", "json", "--instances", str(instances), "--seed", str(seed)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (seed, instances)


# sha256 of `simulate` and `sweep` stdout; the counts are integers tied to
# (seed, chunk index), so the bytes are the same on one CPU or two
SIMULATION_DIGESTS = {
    ("simulate", "--resource", "S1+:0.5,S1-:0.5", "--angle", "1.0", "--trials", "100000",
     "--seed", "7"): "a114584f8af729f0ddbb6be8772197c8ef157dea5462574139c9931f22d53470",
    ("sweep", "--resource", "S1+:0.5,S1-:0.5", "--angle-grid", "5", "--trials", "100000",
     "--seed", "0"): "3daa5c729b5c888117aa3bd13a5547d5a93d15efe752d9c9e45ca853fa5869b8",
}


def test_simulate_and_sweep_bytes_are_pinned(capsys):
    for argv, digest in SIMULATION_DIGESTS.items():
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv[0]


# sha256 of `simulate` and `sweep` stdout in the text and json formats, over
# resources of three scopes, one of them two-way
REPORT_DIGESTS = {
    ("simulate", "--resource", "S1+:0.5,S1-:0.5", "--angle", "1.0", "--trials", "100000",
     "--seed", "7", "--format", "text"):
        "0948f325b5a6b65a6318c0931d540a992857475fe1c0903657e33bec92961c1a",
    ("simulate", "--resource", "scope=011;S5+:0.25,S5-:0.25,S2+:0.5", "--angle", "2.5",
     "--trials", "100000", "--seed", "3", "--format", "json"):
        "5b1220bd566e350d24e56407e2978d5c284d673b036de9bfdce5d4aa16472c7b",
    ("sweep", "--resource", "scope=101;S2+:0.7,S2-:0.3", "--angle-grid", "5", "--trials",
     "100000", "--seed", "0", "--format", "text"):
        "c9a922ffef913d35179634160615c0a768cbccd002f586b72baf77597e73fd8a",
    ("sweep", "--resource", "S1+:0.5,S1-:0.5", "--angles", "0,0.5,1.5,3.0", "--trials",
     "100000", "--seed", "11", "--format", "json"):
        "42b80a0a8ec7cffcd67a067e734a19cb5b67eb51e5ddf307c4124917e92ddbf2",
}


def test_simulate_and_sweep_text_and_json_bytes_are_pinned(capsys):
    for argv, digest in REPORT_DIGESTS.items():
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv


def _audit_corpus():
    """About 60 named boxes: dense, sparse, catalogue, PR, two-way, -0.0 cells, marginal ties."""
    rng = np.random.default_rng(4242)
    vertices = bc.strategy_boxes(bc.enumerate_deterministic("local")
                                 + bc.enumerate_deterministic("all_one_bit"))
    boxes = [(f"dense-{i}", random_feasible_box(rng)[0].p) for i in range(16)]
    for i in range(12):
        k = int(rng.integers(2, 5))
        support = rng.choice(len(vertices), size=k, replace=False)
        boxes.append((f"sparse-{i}", bc.mix(rng.dirichlet(np.ones(k)), vertices[support]).p))
    boxes += [(f"cat-000-{i}", p) for i, p in enumerate(bc.scope_boxes())]
    scopes = bc.all_scopes()
    boxes += [(f"cat-{i}-0", bc.scope_boxes(scope)[0]) for i, scope in enumerate(scopes[3:])]
    boxes += [(f"pr-{i}", bc.pr_box(scope).p) for i, scope in enumerate(scopes[::2])]
    two_way = bc.strategy_boxes(bc.enumerate_deterministic("two_way")[::40])
    boxes += [(f"two-way-{i}", p) for i, p in enumerate(two_way)]
    boxes.append(("two-way-mix", bc.mix((0.75, 0.25), np.stack([vertices[0], two_way[0]])).p))
    # zero cells written as -0.0: the A and B marginals of an absent outcome then
    # tie at -0.0 and +0.0, so the order of every min and max shows in the sign
    for name, p, axis in (("neg-zero-a", vertices[5], 2), ("neg-zero-b", vertices[5], 3),
                          ("neg-zero-one-way", vertices[40], 3),
                          ("neg-zero-pair", bc.mix((0.5, 0.5), bc.scope_boxes()[:2]).p, 3)):
        boxes.append((name, np.where((p == 0.0) & (np.indices(p.shape)[axis] == 1), -0.0, p)))
    boxes.append(("ties-local", bc.mix((0.75, 0.25), vertices[[0, 15]]).p))
    boxes.append(("ties-pair", bc.mix((0.25, 0.75), bc.scope_boxes()[2:4]).p))
    return boxes


# sha256 of the `--format json` output of `analyze` and of `decompose` over
# `_audit_corpus`, each box's name and exit code before its report
AUDIT_DIGESTS = {
    "analyze": "f183c7e43cf07f15cd5f2efbb0678620fd697c2e648f85935d9d907955dbdb15",
    "decompose": "81e6d69a73928ea16092dd73985ae8ccdba0de61a9153c3c64b79ce1bfa73bc6",
}


def test_analyze_and_decompose_json_bytes_are_pinned(tmp_path, capsys):
    corpus = _audit_corpus()
    assert len(corpus) >= 60
    for name, p in corpus:
        bc.dump_box(bc.CorrelationBox(p, label=name), tmp_path / f"{name}.json")
    for command, digest in AUDIT_DIGESTS.items():
        stream = hashlib.sha256()
        for name, _ in corpus:
            rc = main([command, "--box", str(tmp_path / f"{name}.json"), "--format", "json"])
            captured = capsys.readouterr()
            assert captured.err == ""
            stream.update(f"{name} {rc}\n{captured.out}".encode("utf-8"))
        assert stream.hexdigest() == digest, command


def _json_report(argv, capsys):
    rc = main(argv + ["--format", "json"])
    captured = capsys.readouterr()
    assert captured.err == ""
    return rc, json.loads(captured.out)


def test_decompose_reports_the_verdict_and_c_of_analyze(tmp_path, capsys):
    # one C: decompose reads its verdict and C from analyze's tables, so the two agree
    # bit for bit on every box of the corpus, feasible or not
    feasible = 0
    for name, p in _audit_corpus():
        path = str(tmp_path / f"{name}.json")
        bc.dump_box(bc.CorrelationBox(p, label=name), path)
        rc_an, an = _json_report(["analyze", "--box", path], capsys)
        rc_de, de = _json_report(["decompose", "--box", path], capsys)
        assert rc_an == 0, name
        assert rc_de == (0 if an["feasible"] else 3), name
        if an["feasible"]:
            assert de["C"].hex() == an["C_min"].hex(), name
            feasible += 1
    assert feasible >= 50


def test_boundary_box_decomposes_with_the_c_of_analyze(tmp_path, capsys):
    # (1 - 5e-10) [a=0, b=0] + 5e-10 S5+ lies just outside the 1-bit polytope; at tol 1e-8
    # the LP over all 112 vertices reported C = 1.000000082740371e-09, the tables 1.5e-9
    corner = bc.strategy_box(bc.DeterministicStrategy((0, 0, 0, 0), (0, 0, 0, 0)))
    s5 = bc.strategy_box(bc.scope_strategies()[8])
    path = str(tmp_path / "boundary.json")
    bc.dump_box(bc.mix((1.0 - 5e-10, 5e-10), np.stack([corner.p, s5.p])), path)
    rc_an, an = _json_report(["analyze", "--box", path, "--tol", "1e-8"], capsys)
    rc_de, de = _json_report(["decompose", "--box", path, "--tol", "1e-8"], capsys)
    assert (rc_an, rc_de) == (0, 0)
    assert de["C"] == an["C_min"] == 1.5000000000000002e-09


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def _stdout(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_out_overwrites_in_place_and_cuts_to_length(box_files, tmp_path, capsys):
    """A report over a longer or a shorter one leaves exactly its own bytes, in the same inode."""
    box = ["analyze", "--box", str(box_files["sp"])]
    text, js = _stdout(box, capsys), _stdout(box + ["--format", "json"], capsys)
    assert len(js) > len(text)
    out, link = tmp_path / "report", tmp_path / "hard-link"
    assert main(box + ["--format", "json", "--out", str(out)]) == 0
    os.link(out, link)
    for report, argv in ((text, box), (js, box + ["--format", "json"])):  # shorter, then longer
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == report.encode("utf-8")
        assert os.path.samefile(out, link)
    assert main(box + ["--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""


def test_out_through_a_symlink_writes_the_target_and_keeps_the_link(box_files, tmp_path, capsys):
    text = _stdout(["analyze", "--box", str(box_files["pr"])], capsys)
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("x" * (2 * len(text)))
    link.symlink_to(target)
    assert main(["analyze", "--box", str(box_files["pr"]), "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == text.encode("utf-8")


def test_out_creates_a_file_with_the_mode_open_gives(box_files, tmp_path):
    for mask in (0o022, 0o077, 0o002):
        old = os.umask(mask)
        try:
            reference, out = tmp_path / f"open-{mask:o}", tmp_path / f"out-{mask:o}"
            with open(reference, "w", encoding="utf-8"):
                pass
            assert main(["analyze", "--box", str(box_files["pr"]), "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


def test_out_to_a_directory_or_under_a_missing_one_fails_as_open_does(box_files, tmp_path,
                                                                       capsys):
    for target in (str(tmp_path), str(tmp_path / "missing" / "report.txt")):
        with pytest.raises(OSError) as opened:
            open(target, "w", encoding="utf-8")
        assert main(["analyze", "--box", str(box_files["pr"]), "--out", target]) == 2
        assert tuple(capsys.readouterr()) == ("", f"error: {opened.value}\n")


def test_dump_box_over_a_longer_file_round_trips(tmp_path):
    box = bc.resource_box(bc.ResourceSpec.parse("S1+:0.75,S1-:0.25"), label="sp")
    path = tmp_path / "box.json"
    path.write_text(" " * 10_000 + "{}")
    bc.dump_box(box, path)
    loaded = bc.load_box(path)
    assert loaded.label == "sp" and loaded.p.tobytes() == box.p.tobytes()
    assert path.read_text(encoding="utf-8") == json.dumps(box.to_json(), indent=2,
                                                          sort_keys=True) + "\n"
