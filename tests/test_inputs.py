"""Every public name refuses hostile input with a documented error that names it.

One table gives each public function, constructor and input classmethod a
call with valid arguments.  Each hostile value then takes each argument
slot in turn, the others staying valid.  The call must either end in one
of the documented input errors, with the value named in its message by its
repr or its type, or return a result that holds no NaN, with no warning.
"""

import dataclasses
import io
import math
import os
import re
import warnings

import numpy as np
import pytest

import boxcomp as bc

HOSTILE = (None, "x", np.array(0.5), [[[1]]], math.nan, math.inf, True, 10 ** 400, object())
INPUT_ERRORS = (bc.DomainError, bc.WeightError, bc.BoxFormatError, bc.BoxInvariantError)
# the records functions return; their fields are results, not inputs
RESULT_RECORDS = {"Certificate", "Decomposition", "SignalReport", "SignedSignals", "SuiteCheck",
                  "SuiteReport", "SweepPoint"}


def _calls(tmp_path):
    """(name, function, valid positional arguments) per public function and input constructor."""
    pr = bc.pr_box(label="pr")
    path = str(tmp_path / "pr.json")
    bc.dump_box(pr, path)
    spec = bc.ResourceSpec.parse("S1+:0.5,S1-:0.5")
    pole, axis = bc.Direction.polar(0.0), bc.Direction.polar(1.0)
    strategy, scope = bc.scope_strategies()[0], bc.PRScope()
    pair = bc.scope_boxes()[:2]
    points = bc.sweep_angles(spec, [0.5], 10, 0)
    calls = [
        ("CorrelationBox", bc.CorrelationBox, (pr.p, "pr")),
        ("CorrelationBox.from_json", bc.CorrelationBox.from_json, (pr.to_json(),)),
        ("DeterministicStrategy", bc.DeterministicStrategy, ((0, 0, 1, 1), (0, 1, 0, 1))),
        ("PRScope", bc.PRScope, (0, 1, 0)),
        ("PRScope.from_label", bc.PRScope.from_label, ("010",)),
        ("Relabelling", bc.Relabelling, (1, 0, (0, 1), (1, 1))),
        ("all_relabellings", bc.all_relabellings, ()),
        ("all_scopes", bc.all_scopes, ()),
        ("apply_relabelling", bc.apply_relabelling, (pr, bc.Relabelling(1), "moved")),
        ("dump_box", bc.dump_box, (pr, str(tmp_path / "out.json"))),
        ("enumerate_deterministic", bc.enumerate_deterministic, ("local",)),
        ("load_box", bc.load_box, (path,)),
        ("mix", bc.mix, ((0.25, 0.75), pair, "mixed")),
        ("mixtures", bc.mixtures, ([[0.5, 0.5], [0.9, 0.1]], pair)),
        ("pr_box", bc.pr_box, (scope, "pr")),
        ("scope_boxes", bc.scope_boxes, (scope,)),
        ("scope_relabelling", bc.scope_relabelling, (scope,)),
        ("scope_strategies", bc.scope_strategies, (scope,)),
        ("strategy_box", bc.strategy_box, (strategy, "s")),
        ("strategy_boxes", bc.strategy_boxes, ([strategy],)),
        ("strategy_name", bc.strategy_name, (strategy,)),
        ("binary_entropy", bc.binary_entropy, (0.25,)),
        ("chsh", bc.chsh, (pr,)),
        ("chsh_max", bc.chsh_max, (pr,)),
        ("correlators", bc.correlators, (pr,)),
        ("entropic_indeterminacy", bc.entropic_indeterminacy, (pr,)),
        ("entropic_indeterminacy_per_setting", bc.entropic_indeterminacy_per_setting, (pr,)),
        ("entropic_signal", bc.entropic_signal, (pr, (0.5, 0.5))),
        ("entropic_signal_lower_bound", bc.entropic_signal_lower_bound, (0.5,)),
        ("indeterminacy", bc.indeterminacy, (pr,)),
        ("indeterminacy_per_setting", bc.indeterminacy_per_setting, (pr,)),
        ("marginals", bc.marginals, (pr,)),
        ("pironio_bound", bc.pironio_bound, (3.0,)),
        ("signal", bc.signal, (pr,)),
        # p + shift is a probability too: at p = shift = 0 a hostile value in either slot
        # is the only fault, not a sum that it pushes past 1
        ("two_point_mutual_information", bc.two_point_mutual_information, (0.0, 0.0)),
        ("ResourceSpec", bc.ResourceSpec, (scope, spec.weights)),
        ("ResourceSpec.from_mapping", bc.ResourceSpec.from_mapping, ({"S1+": 1.0}, scope)),
        ("ResourceSpec.parse", bc.ResourceSpec.parse, ("S1+:1.0",)),
        ("comm_cost_many", bc.comm_cost_many, ([pr], 1e-9)),
        ("conditional_lower_bounds", bc.conditional_lower_bounds, (spec, 1.0)),
        ("min_comm_cost", bc.min_comm_cost, (pr, 1e-9)),
        ("resource_box", bc.resource_box, (spec, "r")),
        ("signed_signals", bc.signed_signals, (spec,)),
        ("certified_indeterminacy_bound", bc.certified_indeterminacy_bound, (3.0, 0.1)),
        ("complementarity_report", bc.complementarity_report, (pr, 1e-9)),
        ("max_marginal_bias_zero_signal", bc.max_marginal_bias_zero_signal, (scope,)),
        ("run_property_suite", bc.run_property_suite, (0, 2, 1e-9)),
        ("Direction", bc.Direction, ([0.0, 0.0, 1.0],)),
        ("Direction.polar", bc.Direction.polar, (0.5,)),
        ("chunk_xor_counts", bc.chunk_xor_counts, (spec, pole, axis, 10, 0)),
        ("simulate_singlet", bc.simulate_singlet, (spec, pole, axis, 10, 0)),
        ("sweep_angles", bc.sweep_angles, (spec, [0.5], 10, 0)),
        ("write_sweep_csv", bc.write_sweep_csv, (points, 10, 0, io.StringIO())),
    ]
    calls += [(name, getattr(bc, name), ("message",)) for name in
              ("BoxFormatError", "BoxInvariantError", "DomainError", "Infeasible",
               "NumericalError", "WeightError")]
    return calls


def _has_nan(value):
    if isinstance(value, bc.CorrelationBox):
        value = value.p
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.astuple(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any(_has_nan(v) for v in value)
    if isinstance(value, (float, np.floating)) or (isinstance(value, np.ndarray)
                                                   and value.dtype.kind in "fc"):
        return bool(np.isnan(value).any())
    return False


def _named(value, message):
    """True when the message shows the value's repr (its first 20 characters) or its type.

    A list is also named by its first entry, the one a refusal of each entry names.
    """
    return (repr(value)[:20] in message
            or re.search(rf"\b{re.escape(type(value).__name__)}\b", message) is not None
            or (isinstance(value, list) and _named(value[0], message)))


def test_every_public_input_refuses_hostile_values_by_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a path slot given "x" reads or writes ./x
    calls = _calls(tmp_path)
    covered = {name.split(".")[0] for name, _, _ in calls}
    constants = {name for name in bc.__all__ if not callable(getattr(bc, name))}
    assert covered | RESULT_RECORDS | constants == set(bc.__all__)
    wrong = []
    for name, fn, valid in calls:
        for slot in range(len(valid)):
            for value in HOSTILE:
                if name == "load_box" and value is True:
                    continue  # open(True) is stdout's descriptor; the pipe test covers ints
                args = list(valid)
                args[slot] = value
                shown = f"{name} slot {slot} <- {repr(value)[:20]}"
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args)
                except INPUT_ERRORS as exc:
                    if not _named(value, str(exc)):
                        wrong.append(f"{shown}: {type(exc).__name__} does not name it: {exc}")
                    continue
                except OSError as exc:  # a path that names no file: open's error names it
                    if name not in ("load_box", "dump_box") or not _named(value, str(exc)):
                        wrong.append(f"{shown}: {type(exc).__name__}: {exc}")
                    continue
                except Exception as exc:
                    wrong.append(f"{shown}: {type(exc).__name__}: {str(exc)[:80]}")
                    continue
                if caught:
                    wrong.append(f"{shown}: warned {caught[0].message}")
                elif _has_nan(result):
                    wrong.append(f"{shown}: returned NaN")
    assert not wrong, "\n".join(wrong)


def test_load_box_refuses_a_file_descriptor():
    # an int was read as a descriptor and closed, so load_box(1) closed stdout
    read_end, write_end = os.pipe()
    os.close(write_end)  # so that a read of the pipe ends at once
    try:
        for fd in (read_end, np.int64(read_end)):
            with pytest.raises(bc.DomainError, match=re.escape(repr(fd))):
                bc.load_box(fd)
            os.fstat(read_end)  # still open
    finally:
        os.close(read_end)
