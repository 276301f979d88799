"""The CLI's output contract, pinned byte for byte.

`analyze` and `decompose` are checked in both formats on three boxes whose
every reported value is exact in binary: the PR box, the two-way S5+ box
(outside the 1-bit polytope) and the local box a = x, b = y.  `verify`'s JSON
report is pinned by its check names, `passed` flags and keys, with each
`worst` within 1e-12 of its recorded value.
"""

import json

import pytest

import boxcomp as bc
from boxcomp.cli import main

PR_REPORT = """\
box          = pr
nonsignaling = True
lambda       = 4.0
lambda_max   = 4.0
S            = 0.0
I            = 0.5
H_S          = 0.0
H_I          = 1.0
C_min        = 1.0
S + 2I - C   = 0.0
cert I bound = 0.5
relaxed Bell = lhs 2.0 vs rhs 2.0
PASS relaxed_bell
PASS operational_bell
PASS certified_I
PASS cost_complementarity
PASS pironio
"""

S5_REPORT = """\
box          = s5+
nonsignaling = False
lambda       = 4.0
lambda_max   = 4.0
S            = 1.0
I            = 0.0
H_S          = 1.0
H_I          = 0.0
C_min        = infeasible (outside the 1-bit polytope)
cert I bound = 0.0
relaxed Bell = lhs 2.0 vs rhs 2.0
PASS relaxed_bell
PASS operational_bell
PASS certified_I
"""

LOCAL_REPORT = """\
box          = local
nonsignaling = True
lambda       = -2.0
lambda_max   = 2.0
S            = 0.0
I            = 0.0
H_S          = 0.0
H_I          = 0.0
C_min        = 0.0
S + 2I - C   = 0.0
cert I bound = 0.0
relaxed Bell = lhs 0.0 vs rhs 0.0
PASS relaxed_bell
PASS operational_bell
PASS certified_I
PASS cost_complementarity
PASS pironio
"""

ALL_FLAGS = {"certified_I": True, "cost_complementarity": True, "operational_bell": True,
             "pironio": True, "relaxed_bell": True}
SIGNAL_FLAGS = {"certified_I": True, "operational_bell": True, "relaxed_bell": True}


def _measures(label, lam, lam_max, s_ab, s_ba, ind, h_s, h_i, c_min, flags):
    return {
        "C_min": c_min, "H_I": h_i, "H_S": h_s, "I": ind,
        "I_per_setting": [[ind, ind], [ind, ind]],
        "S": max(s_ab + s_ba), "S_AtoB": max(s_ab), "S_BtoA": max(s_ba),
        "feasible": c_min is not None, "flags": flags, "label": label,
        "lambda": lam, "lambda_max": lam_max, "nonsignaling": max(s_ab + s_ba) == 0.0,
        "s_A_to_B_per_y": s_ab, "s_B_to_A_per_x": s_ba,
    }


ANALYZE_JSON = {
    "pr": _measures("pr", 4.0, 4.0, [0.0, 0.0], [0.0, 0.0], 0.5, 0.0, 1.0, 1.0, ALL_FLAGS),
    "s5": _measures("s5+", 4.0, 4.0, [0.0, 1.0], [1.0, 1.0], 0.0, 1.0, 0.0, None, SIGNAL_FLAGS),
    "local": _measures("local", -2.0, 2.0, [0.0, 0.0], [0.0, 0.0], 0.0, 0.0, 0.0, 0.0,
                       ALL_FLAGS),
}

INFEASIBLE_DETAIL = "facet row value 1.000e+00 exceeds 1.0e-09"

DECOMPOSE = {
    "pr": (0, "C = 1.0\n"
              "  S3+          signal_A_to_B  w = 0.5\n"
              "  S3-          signal_A_to_B  w = 0.5\n",
           {"C": 1.0, "weights": [
               {"kind": "signal_A_to_B", "strategy": "S3+", "w": 0.5},
               {"kind": "signal_A_to_B", "strategy": "S3-", "w": 0.5}]}),
    "s5": (3, f"infeasible: {INFEASIBLE_DETAIL}\n",
           {"detail": INFEASIBLE_DETAIL, "feasible": False, "infeasible": True}),
    "local": (0, "C = 0.0\n"
                 "  00,01,10,11  local          w = 1.0\n",
              {"C": 0.0, "weights": [{"kind": "local", "strategy": "00,01,10,11", "w": 1.0}]}),
}

# verify --format json --seed 0 --instances 200: (name, note, worst), all passed
VERIFY_SEED_0 = (
    ("catalogue-structure", "scope relation, kind split, +/- complements", 0.0),
    ("cost-complementarity", "min S + 2I - C over 200 random 1-bit boxes", 0.788502396246002),
    ("pironio-floor", "min C - (chsh_max/2 - 1) over 200 boxes", 0.02298918787352966),
    ("relaxed-bell", "min rhs - lhs over 200 boxes", 3.3847687502052057),
    ("certified-indeterminacy", "min I - bound over 200 boxes", 0.42714762812005275),
    ("signed-signal-consistency", "max ||s_k| - measured| over 200 specs",
     2.220446049250313e-16),
    ("conditional-bounds", "min P(cell) - bound over 200 noisy specs", -2.220446049250313e-16),
    ("spec-complementarity", "min S + 2I - 1 over 200 catalogue mixtures",
     0.0013719019128373144),
    ("single-pair-saturation", "max |S + 2I - 1| over +/- pair mixtures, 0.01 grid",
     1.1102230246251565e-16),
    ("entropic-pair-saturation", "max |H_S + H_I - 1| over +/- pair mixtures, 0.01 grid",
     1.1102230246251565e-16),
    ("entropic-signal-floor", "min H_S(p) - (1 - H((1-S)/2)) over S, p grids",
     -2.220446049250313e-16),
    ("entropic-floor-equality", "bound attained at p = (1-S)/2", 1.1102230246251565e-16),
    ("zero-signal-bias", "max |marginal - 1/2| with all signed signals pinned to 0", 0.0),
)


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def contract_boxes(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    boxes = {
        "pr": bc.pr_box(label="pr"),
        "s5": bc.strategy_box(bc.scope_strategies()[8], label="s5+"),
        "local": bc.strategy_box(bc.DeterministicStrategy((0, 0, 1, 1), (0, 1, 0, 1)),
                                 label="local"),
    }
    for name, box in boxes.items():
        bc.dump_box(box, root / f"{name}.json")
    return root


def _run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("name, report", [("pr", PR_REPORT), ("s5", S5_REPORT),
                                          ("local", LOCAL_REPORT)])
def test_analyze_output_contract(contract_boxes, capsys, name, report):
    path = str(contract_boxes / f"{name}.json")
    assert _run(["analyze", "--box", path], capsys) == (0, report, "")
    assert _run(["analyze", "--box", path, "--format", "json"], capsys) == (
        0, _json_text(ANALYZE_JSON[name]), "")


@pytest.mark.parametrize("name", ["pr", "s5", "local"])
def test_decompose_output_contract(contract_boxes, capsys, name):
    path = str(contract_boxes / f"{name}.json")
    rc, text, payload = DECOMPOSE[name]
    assert _run(["decompose", "--box", path], capsys) == (rc, text, "")
    assert _run(["decompose", "--box", path, "--format", "json"], capsys) == (
        rc, _json_text(payload), "")


def test_verify_json_contract(capsys):
    rc, out, err = _run(["verify", "--format", "json", "--seed", "0", "--instances", "200"],
                        capsys)
    assert (rc, err) == (0, "")
    data = json.loads(out)
    assert data.keys() == {"checks", "instances", "passed", "seed", "tol"}
    assert (data["instances"], data["passed"], data["seed"], data["tol"]) == (200, True, 0, 1e-9)
    assert [c["name"] for c in data["checks"]] == [name for name, _, _ in VERIFY_SEED_0]
    for check, (_, note, worst) in zip(data["checks"], VERIFY_SEED_0):
        assert check.keys() == {"name", "note", "passed", "worst"}
        assert check["passed"] is True
        assert check["note"] == note
        assert abs(check["worst"] - worst) <= 1e-12, check["name"]
