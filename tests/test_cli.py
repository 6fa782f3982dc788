import contextlib
import copy
import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flownet
import helpers
from flownet import cli
from flownet.cli import build_parser, main
from flownet.scenario import scenario_from_dict


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_example1_passes(capsys):
    code, out, _ = run(capsys, ["validate", "--scenario", "example1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["stochastic"]["passed"] is True


def test_validate_example2_reports_three_patterns(capsys):
    code, out, _ = run(capsys, ["validate", "--scenario", "example2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["support"]["distinct_patterns"] == 3


def test_validate_bad_column_sum_fails(tmp_path, capsys):
    doc = helpers.base_flow_scenario()
    doc["weights"]["1,1"] = "0.9"
    path = helpers.write_scenario(tmp_path, doc)
    code, out, _ = run(capsys, ["validate", "--scenario", str(path)])
    assert code == 1
    payload = json.loads(out)
    assert payload["stochastic"]["checks"][1]["witness_value"] == pytest.approx(0.9)


def test_simulate_writes_field_and_mass_summary(tmp_path, capsys):
    out_path = tmp_path / "field.csv"
    code, out, _ = run(
        capsys,
        ["simulate", "--scenario", "example1", "--t-end", "5.0", "--out", str(out_path)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 6 * 400
    assert payload["relative_drift"] <= 1e-9
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 6 * 400


def test_simulate_example2(tmp_path, capsys):
    out_path = tmp_path / "field.csv"
    code, out, _ = run(
        capsys,
        ["simulate", "--scenario", "example2", "--t-end", "5.0", "--out", str(out_path)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 10 * 400
    assert payload["relative_drift"] <= 1e-9
    assert len(out_path.read_text().strip().splitlines()) == 1 + 10 * 400


def test_simulate_at_start_time_returns_initial(tmp_path, capsys):
    out_path = tmp_path / "field.csv"
    code, out, _ = run(
        capsys,
        ["simulate", "--scenario", "example1", "--t-end", "0.0", "--out", str(out_path)],
    )
    assert code == 0
    values = {float(line.split(",")[2]) for line in out_path.read_text().splitlines()[1:]}
    assert values == {1.0}


def test_simulate_rejects_past_t_end(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["simulate", "--scenario", "example1", "--t-end", "-1.0",
         "--out", str(tmp_path / "x.csv")],
    )
    assert code == 2
    assert "precedes" in err


def test_period_example1(capsys):
    code, out, _ = run(capsys, ["period", "--scenario", "example1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == 1
    assert payload["shortcut_applicable"] is True
    assert payload["shortcut_tau"] == 1


def test_period_example2(capsys):
    code, out, _ = run(capsys, ["period", "--scenario", "example2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == 2
    assert payload["shortcut_applicable"] is False
    assert len(payload["distinct_patterns"]) == 3


def test_period_single_cycle(tmp_path, capsys):
    doc = {
        "graph": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]},
        "mode": "flow",
        "weights": {f"{i},{i}": "1" for i in range(1, 5)},
        "initial": {str(j): "1" for j in range(1, 5)},
    }
    path = helpers.write_scenario(tmp_path, doc)
    code, out, _ = run(capsys, ["period", "--scenario", str(path)])
    assert code == 0
    assert json.loads(out)["tau"] == 4


def test_period_with_an_edge_that_never_receives_inflow(tmp_path, capsys):
    # Edge 1 leaves vertex 1, which no edge enters: the scenario validates,
    # and its period comes from the active edges 2 and 3.
    doc = {
        "graph": {"n": 3, "edges": [[1, 2], [2, 3], [3, 2]]},
        "mode": "flow",
        "weights": {"1,1": "1", "2,2": "1", "3,3": "1"},
        "initial": {str(j): "1" for j in range(1, 4)},
    }
    path = helpers.write_scenario(tmp_path, doc)
    code, _, _ = run(capsys, ["validate", "--scenario", str(path)])
    assert code == 0
    code, out, err = run(capsys, ["period", "--scenario", str(path)])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["tau"] == 2
    assert payload["shortcut_applicable"] is True
    assert payload["shortcut_tau"] == 2


def test_converge_writes_trace(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys,
        ["converge", "--scenario", "example1", "--tau", "1",
         "--horizon", "5", "--out", str(out_path)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == 1
    assert out_path.read_text().startswith("t,delta")


def test_converge_defaults_tau_to_computed_period(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys,
        ["converge", "--scenario", "example2", "--horizon", "6",
         "--stride", "2", "--out", str(out_path)],
    )
    assert code == 0
    assert json.loads(out)["tau"] == 2


def test_converge_wrong_period_is_diagnostic_not_failure(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys,
        ["converge", "--scenario", "example2", "--tau", "1",
         "--horizon", "10", "--stride", "2", "--out", str(out_path)],
    )
    assert code == 0  # non-convergence is reported, not an error
    assert json.loads(out)["min_delta"] > 1e-3


def test_converge_rejects_short_horizon(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["converge", "--scenario", "example1", "--tau", "3", "--horizon", "4",
         "--out", str(tmp_path / "t.csv")],
    )
    assert code == 1
    assert "horizon" in err


def test_commands_guard_on_invalid_scenario_unless_forced(tmp_path, capsys):
    doc = helpers.base_flow_scenario()
    doc["weights"]["1,1"] = "0.9"
    path = helpers.write_scenario(tmp_path, doc)
    out_path = tmp_path / "field.csv"
    code, _, err = run(
        capsys,
        ["simulate", "--scenario", str(path), "--t-end", "1.0", "--out", str(out_path)],
    )
    assert code == 1
    assert "validation" in err
    code, _, _ = run(
        capsys,
        ["simulate", "--scenario", str(path), "--t-end", "1.0",
         "--out", str(out_path), "--force"],
    )
    assert code == 0


def test_scenario_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = run(capsys, ["validate", "--scenario", str(path)])
    assert code == 2
    assert "error" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# --samples feeds only the period survey and --force only the validity gate,
# so commands that read neither refuse them; the periodicity gate has no off
# switch.
@pytest.mark.parametrize("argv", [
    ["validate", "--samples", "8"],
    ["simulate", "--samples", "8", "--t-end", "1.0", "--out", "field.csv"],
    ["validate", "--force"],
    ["validate", "--allow-nonperiodic"],
    ["simulate", "--allow-nonperiodic", "--t-end", "1.0", "--out", "field.csv"],
    ["period", "--allow-nonperiodic"],
    ["converge", "--allow-nonperiodic", "--out", "trace.csv"],
])
def test_flags_a_command_does_not_read_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--scenario", "example1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--force", "--t-end", "1", "--out", "field.csv"],
    ["period", "--force", "--samples", "8"],
    ["converge", "--force", "--samples", "8", "--out", "trace.csv"],
])
def test_force_and_samples_parse_where_read(argv):
    args = build_parser().parse_args(argv + ["--scenario", "example1"])
    assert args.force and getattr(args, "samples", 8) == 8


def test_outputs_are_deterministic(tmp_path, capsys):
    _, out1, _ = run(capsys, ["period", "--scenario", "example2"])
    _, out2, _ = run(capsys, ["period", "--scenario", "example2"])
    assert out1 == out2

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, ["simulate", "--scenario", "example2", "--t-end", "3.3", "--out", str(a)])
    run(capsys, ["simulate", "--scenario", "example2", "--t-end", "3.3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_grid_override(tmp_path, capsys):
    out_path = tmp_path / "field.csv"
    code, out, _ = run(
        capsys,
        ["simulate", "--scenario", "example1", "--t-end", "1.0",
         "--grid", "50", "--out", str(out_path)],
    )
    assert code == 0
    assert json.loads(out)["rows"] == 6 * 50


def test_tol_override_can_fail_a_passing_scenario(tmp_path, capsys):
    doc = helpers.base_flow_scenario()
    doc["weights"]["1,1"] = "1 - 0.000001"
    path = helpers.write_scenario(tmp_path, doc)
    code, _, _ = run(capsys, ["validate", "--scenario", str(path), "--tol", "1e-2"])
    assert code == 0
    code, _, _ = run(capsys, ["validate", "--scenario", str(path), "--tol", "1e-9"])
    assert code == 1


def test_validate_out_writes_json_copy(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["validate", "--scenario", "example1", "--out", str(out_path)]
    )
    assert code == 0
    assert json.loads(out_path.read_text()) == json.loads(out)


def test_simulate_without_out_is_usage_error(capsys):
    # argparse refuses the command before the scenario, here a missing file, loads
    for argv in (["simulate", "--t-end", "1.0"], ["converge"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--scenario", "no-such-scenario.json"])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err


def run_process(argv, cwd):
    """The CLI in a child process, so that a hang fails the test by timeout."""
    src = str(Path(flownet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "flownet", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory)


def _limit_memory():
    # a hang that also grows a list or a set must not take the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv,code,needle", [
    (["simulate", "--t-end", "nan"], 2, "finite"),
    (["simulate", "--t-end", "inf"], 2, "finite"),
    (["simulate", "--t-end", "1e300"], 2, "2**53"),
    (["converge", "--horizon", "inf"], 1, "finite"),
    (["converge", "--horizon", "nan"], 1, "finite"),
    (["converge", "--stride", "nan"], 1, "finite"),
    (["converge", "--tau", "0"], 1, "tau"),
    (["simulate", "--grid", "0", "--t-end", "1"], 2, "--grid"),
    (["validate", "--grid", "-3"], 2, "--grid"),
    (["period", "--grid", "0"], 2, "--grid"),
    (["converge", "--grid", "0"], 2, "--grid"),
    (["converge", "--grid", "1", "--horizon", "1e300"], 1, "2**53"),
    (["converge", "--grid", "1", "--stride", "1e-300"], 1, "does not advance"),
    (["simulate", "--grid", "1000001", "--t-end", "1"], 2, "--grid"),
    (["period", "--samples", "-3"], 2, "--samples"),
    (["period", "--samples", "0"], 2, "--samples"),
    (["converge", "--samples", "1000001"], 2, "--samples"),
    (["converge", "--tau", "1", "--samples", "0"], 2, "--samples"),
    (["simulate", "--t-end", "2", "--out", "/nonexistent/x.csv"], 2,
     "error: /nonexistent/x.csv: No such file or directory"),
    (["converge", "--horizon", "3", "--out", "/"], 2, "error: /: Is a directory"),
    (["period", "--out", "/nonexistent/x.json"], 2,
     "error: /nonexistent/x.json: No such file or directory"),
    (["validate", "--out", "/"], 2, "error: /: Is a directory"),
    (["converge", "--grid", "1", "--horizon", "1e9"], 1, "more than 10**6 base times"),
    (["converge", "--tau", "1", "--horizon", "3", "--stride", "0.5",
      "--scenario", "s-2**52.json"], 1, "coincide"),
    (["validate", "--tol", "inf"], 2, "--tol"),
    (["validate", "--tol", "nan"], 2, "--tol"),
    (["simulate", "--tol", "0", "--t-end", "1"], 2, "--tol"),
    (["period", "--tol", "-1"], 2, "--tol"),
])
def test_degenerate_arguments_fail_in_one_line(tmp_path, argv, code, needle):
    if argv[0] in ("simulate", "converge") and "--out" not in argv:
        argv = argv + ["--out", "out.csv"]
    if "--scenario" not in argv:
        argv = argv + ["--scenario", "example1"]
    # example1 from s = 2**52, where floats are 1 apart: s + j*0.5 repeats base times
    helpers.write_scenario(tmp_path, dict(_BUNDLED["example1"], s=2.0 ** 52), "s-2**52.json")
    done = run_process(argv, tmp_path)
    assert done.returncode == code, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert needle in done.stderr


_BIG = "1" + "0" * 300


@pytest.mark.parametrize("pointer,value,needle", [
    ("/graph/n", "x", "/graph/n"),
    ("/graph/n", None, "/graph/n"),
    ("/graph/n", 2.7, "/graph/n"),
    ("/tolerances/stochastic", "a", "/tolerances/stochastic"),
    ("/initial/1", {"breaks": [0, [1]], "values": [1]}, "/initial/1"),
    ("/weights/1,1", "1²", "/weights/1,1"),
    ("/weights/1,1", "2^100000", "/weights/1,1: bad expression '2^100000': 2.0^100000 overflows"),
    ("/initial/1", "2^100000", "/initial/1: bad expression '2^100000': 2.0^100000 overflows"),
    ("/weights/1,1", "cos(pi*t)^2 + 1/(2-2)", "/weights/1,1: bad expression "
     "'cos(pi*t)^2 + 1/(2-2)': division by zero"),
    ("/weights/1,1", f"sin(2*pi*t + {_BIG}*{_BIG})", "1-periodic"),
    ("/weights/1,1", "cos(t/sin(pi))^2*0 + 1", "1-periodic"),
    ("/weights/1,1", "(" * 400 + "1" + ")" * 400, "deeper than 64 levels"),
    ("/weights/1,1", "1" + "+0" * 5000, "deeper than 64 levels"),
    ("/weights/1,1", "-" * 2000 + "1", "deeper than 64 levels"),
    ("/weights/1,1", f"cos(2*pi*t + 1{'0' * 308})^2*0 + 1", "1-periodic"),
    ("/weights/1,1", "cos(1000000000*pi*t)^2*0 + 1",
     "/weights: weight (1,1): 'cos(1000000000 * pi * t)^2 * 0 + 1' has a sin/cos with more "
     "than 4096 quarter-period points"),
    ("/graph/n", 10 ** 400, "/graph/n"),
    ("/graph/edges", [[True, 2], [2, 1]], "/graph/edges/0"),
    ("/weights/١,١", "1", "key '١,١' must hold two integers"),
    ("/weights/+1,1", "1", "key '+1,1' must hold two integers"),
    ("/initial/1", {"breaks": [0, 10 ** 400], "values": [1]}, "/initial/1"),
    ("/initial/1", {"breaks": ["0", True], "values": ["2"]},
     "/initial/1: breaks[0] must be a finite number"),
    ("/weights/1,1", "٠.٥ + ٠.٥*cos(pi*t)^٢", "/weights/1,1: bad expression "
     "'٠.٥ + ٠.٥*cos(pi*t)^٢': unknown character '٠' (offset 0)"),
], ids=["n-string", "n-null", "n-fraction", "stochastic-string", "breaks-list", "weight-superscript",
        "weight-power-overflow", "initial-power-overflow", "weight-constant-divisor-zero",
        "weight-infinite-intercept", "weight-slope-past-2**49",
        "weight-400-parentheses", "weight-5000-term-sum", "weight-2000-minus-signs",
        "weight-huge-intercept", "weight-huge-slope", "n-huge", "edge-true",
        "weight-key-arabic-indic", "weight-key-plus", "breaks-huge", "breaks-string-and-true",
        "weight-arabic-indic-digits"])
def test_malformed_scenario_fails_in_one_line(tmp_path, pointer, value, needle):
    doc = helpers.set_at(helpers.base_flow_scenario(), pointer, value)
    helpers.write_scenario(tmp_path, doc)
    done = run_process(["validate", "--scenario", "scenario.json"], tmp_path)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert needle in done.stderr


@pytest.mark.parametrize("pointer,source,fault", [
    ("/initial/1", "x^" + "9" * 5000, "exponent must be below 2^53 in magnitude (offset 2)"),
    ("/weights/1,1", "1" + "+0" * 5000, "expression nests deeper than 64 levels (offset 127)"),
], ids=["initial-5000-digit-exponent", "weight-5000-term-sum"])
def test_a_long_bad_expression_is_quoted_shortened(tmp_path, pointer, source, fault):
    doc = helpers.set_at(helpers.base_flow_scenario(), pointer, source)
    helpers.write_scenario(tmp_path, doc)
    done = run_process(["validate", "--scenario", "scenario.json"], tmp_path)
    assert done.returncode == 2, done.stderr
    assert done.stderr == (f"error: {pointer}: bad expression {source[:60]!r}… "
                           f"({len(source)} characters): {fault}\n")
    assert len(done.stderr.encode()) < 200


def test_a_60_character_bad_expression_is_quoted_whole():
    source = "1" + "+" * 59
    with pytest.raises(flownet.ScenarioError) as err:
        scenario_from_dict(helpers.set_at(helpers.base_flow_scenario(), "/initial/1", source))
    assert f"bad expression {source!r}: " in str(err.value)


# Mutations of the bundled scenarios. A mutation replaces one member with a
# JSON text fragment, through a sentinel string, so that nesting can go
# deeper than json.dumps would write.
_BUNDLED = {name: json.loads(Path(flownet.bundled_scenario_path(name)).read_text())
            for name in ("example1", "example2", "junction")}
# No bundled scenario has a piecewise initial profile: one that does.
_BUNDLED["example1-piecewise"] = helpers.set_at(
    copy.deepcopy(_BUNDLED["example1"]), "/initial/2", {"breaks": [0, 0.25, 1], "values": [1, 0.5]})
_SENTINEL = "\x00mutation %d\x00"
_DIGITS = (0x660, 0x966, 0xFF10, 0x1D7CE)  # Arabic-Indic, Devanagari, fullwidth, bold zero
_SUPERSCRIPTS = "⁰¹²³⁴⁵⁶⁷⁸⁹"


def _set(doc, pointer, value):
    """Replace the member of doc at a JSON pointer such as /graph/edges/0."""
    *outer, last = pointer.split("/")[1:]
    for part in outer:
        doc = doc[int(part)] if isinstance(doc, list) else doc[part]
    doc[int(last) if isinstance(doc, list) else last] = value


def _text(doc, fragments):
    """doc as JSON text, with the i-th sentinel in it replaced by fragments[i - 1]."""
    text = json.dumps(doc)
    for i in range(len(fragments), 0, -1):  # a later fragment may hold an earlier sentinel
        text = text.replace(json.dumps(_SENTINEL % i), fragments[i - 1])
    return text


def _foreign_digits(value, digits):
    text = json.dumps(value) if not isinstance(value, str) else value
    return "".join(digits[int(c)] if c.isascii() and c.isdigit() else c for c in text)


@st.composite
def _fragments(draw, old):
    """One JSON fragment to put in place of the value old."""
    kind = draw(st.sampled_from(["type", "int", "float", "nest", "digits", "trig", "exponent"]))
    if kind == "type":
        value = draw(st.sampled_from([None, True, False, 0, -1, 0.5, "", "x", "1", [], {},
                                      [old], {"a": old}, json.dumps(old)]))
        return json.dumps(value)
    if kind == "int":
        return str(draw(st.sampled_from([2 ** 53 + 1, 2 ** 63, 2 ** 64, -2 ** 63, 10 ** 20,
                                         10 ** 400, -10 ** 400])))
    if kind == "float":
        return draw(st.sampled_from(["1e308", "-1e308", "1.7976931348623157e308", "1e400",
                                     "-1e400", "5e-324", "Infinity", "-Infinity", "NaN"]))
    if kind == "nest":
        depth = draw(st.sampled_from([63, 64, 65, 999, 5000, 100000]))
        opening, inner, closing, expression = draw(st.sampled_from([
            ("[", "1", "]", False), ('{"a": ', "1", "}", False), ("(", "1", ")", True),
            ("sin(", "pi*t", ")", True), ("-", "1", "", True), ("1", "", "+1", True),
        ]))
        text = opening * depth + inner + closing * depth
        return json.dumps(text) if expression else text
    if kind == "digits":
        zero = draw(st.sampled_from(_DIGITS))
        digits = draw(st.sampled_from([[chr(zero + d) for d in range(10)], list(_SUPERSCRIPTS)]))
        if isinstance(old, dict):
            return json.dumps({_foreign_digits(k, digits): v for k, v in old.items()})
        return json.dumps(_foreign_digits(old, digits))
    if kind == "exponent":  # each side of 2^53, and past the 4300 digits int() reads
        exponent = draw(st.sampled_from([str(2 ** 53 - 1), str(2 ** 53), f"-{2 ** 53}", "9" * 20,
                                         "9" * 309, "9" * 5000, "0" * 5000 + "3"]))
        return json.dumps(f"({old})^{exponent}" if isinstance(old, str) else f"t^{exponent}")
    slope = draw(st.sampled_from(["2047", "2048", "2049", str(2 ** 49 - 1), str(2 ** 49),
                                  "10^20", "1e300", "2^1000"]))
    intercept = draw(st.sampled_from(["0", "1e15", "2^49*pi", "1e300", "-2^60", "10^400"]))
    argument = f"{slope}*pi*t + {intercept}"
    if isinstance(old, str) and "pi*t" in old:
        return json.dumps(old.replace("pi*t", argument))
    return json.dumps(f"0.5 + 0.5*cos({argument})^2")


@st.composite
def _mutated_scenarios(draw):
    """(JSON text of a bundled scenario with one to three mutations, command)."""
    doc = copy.deepcopy(_BUNDLED[draw(st.sampled_from(sorted(_BUNDLED)))])
    fragments = []
    for _ in range(draw(st.integers(1, 3))):
        # a walk from the root that stops at each member below it with
        # chance 1/3, so that every field is as likely as the edge list
        pointer, node = "", doc
        while isinstance(node, (dict, list)) and node and (not pointer or draw(st.integers(0, 2))):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            pointer, node = f"{pointer}/{key}", node[key]
        fragments.append(draw(_fragments(node)))
        _set(doc, pointer, _SENTINEL % len(fragments))
    return _text(doc, fragments), draw(st.sampled_from(_FUZZ_COMMANDS))


_FUZZ_COMMANDS = [
    ("validate",),
    ("period", "--samples", "8"),
    ("simulate", "--grid", "16", "--t-end", "2.5", "--out", "field.csv"),
    ("converge", "--grid", "16", "--tau", "1", "--horizon", "3", "--out", "trace.csv"),
]


def _outcome_is_one_line(code, err):
    """Exit 0, 1 or 2, and stderr empty or one `error:` line (always one for 2, none for 0)."""
    lines = err.splitlines(keepends=True)
    assert code in (0, 1, 2), (code, err)
    assert all(line.startswith("error: ") for line in lines) and len(lines) <= 1, err
    assert code != 0 or not lines, err
    assert code != 2 or lines, err


def _bundled_with(name, members):
    """JSON text of a bundled scenario with the members at the given pointers replaced."""
    doc = copy.deepcopy(_BUNDLED[name])
    for pointer, value in members.items():
        _set(doc, pointer, value)
    return json.dumps(doc)


# An odd exponent of 20 digits, which a float reads as the even 10^20, making
# a weight of period 2 look 1-periodic; and one of 309 digits, past the float
# range.
_ODD_POWER = "cos(pi*t)^99999999999999999999"
_EXPONENT_REPRODUCERS = {
    "exponent-20-digits": _bundled_with("example1", {"/weights/4,4": f"0.5 + 0.25*{_ODD_POWER}",
                                                     "/weights/4,5": f"0.5 - 0.25*{_ODD_POWER}"}),
    "exponent-309-digits": _bundled_with("example1", {"/initial/1": "x^" + "9" * 309}),
}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_mutated_scenarios())
@example(("[" * 100000 + "]" * 100000, ("validate",)))
@example(('{"graph": ' + '{"a": ' * 5000 + "1" + "}" * 5000 + "}", ("validate",)))
@example((_EXPONENT_REPRODUCERS["exponent-20-digits"], ("period", "--samples", "8")))
@example((_EXPONENT_REPRODUCERS["exponent-309-digits"], ("validate",)))
def test_mutated_bundled_scenarios_fail_in_at_most_one_line(tmp_path_factory, case):
    text, command = case
    work = tmp_path_factory.mktemp("mutated")
    (work / "scenario.json").write_text(text)
    argv = [a if not a.endswith(".csv") else str(work / a) for a in command]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv + ["--scenario", str(work / "scenario.json")])
    _outcome_is_one_line(code, err.getvalue())
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("text,pointer", [
    (_EXPONENT_REPRODUCERS["exponent-20-digits"], "/weights/4,4"),
    (_EXPONENT_REPRODUCERS["exponent-309-digits"], "/initial/1"),
    (_bundled_with("example1", {"/initial/1": "x^" + "9" * 5000}), "/initial/1"),
    (_bundled_with("junction", {f"/junctions/{i}/vertex": 99 for i in range(4)}),
     "/junctions/0/vertex"),
], ids=["exponent-20-digits", "exponent-309-digits", "exponent-5000-digits", "junction-vertex-99"])
def test_refused_exponents_and_junction_vertices_fail_in_one_line(tmp_path, text, pointer):
    (tmp_path / "scenario.json").write_text(text)
    for command in _FUZZ_COMMANDS:
        done = run_process(list(command) + ["--scenario", "scenario.json"], tmp_path)
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr.startswith(f"error: {pointer}: ") and done.stderr.count("\n") == 1
        assert ("exponent must be below 2^53 in magnitude" in done.stderr
                or "'vertex' must be the head of every 'in' edge" in done.stderr), done.stderr


@pytest.mark.parametrize("pointer,fragment,command", [
    ("/graph", "[" * 100000 + "]" * 100000, _FUZZ_COMMANDS[0]),
    ("/weights/4,4", '"0.25 + 0.5*cos(2049*pi*t + 2^49*pi)^2"', _FUZZ_COMMANDS[1]),
    ("/N", "1e400", _FUZZ_COMMANDS[2]),
    ("/initial/2", '"' + "sin(" * 5000 + "x" + ")" * 5000 + '"', _FUZZ_COMMANDS[2]),
    ("/weights", json.dumps({"٤,٤": "1"}), _FUZZ_COMMANDS[3]),
], ids=["graph-nested-100000", "trig-slope-2049", "N-1e400", "initial-sin-5000", "weights-arabic-key"])
def test_mutated_scenario_in_a_process_fails_in_at_most_one_line(tmp_path, pointer, fragment,
                                                                  command):
    doc = copy.deepcopy(_BUNDLED["example1"])
    _set(doc, pointer, _SENTINEL % 1)
    (tmp_path / "scenario.json").write_text(_text(doc, [fragment]))
    done = run_process(list(command) + ["--scenario", "scenario.json"], tmp_path)
    _outcome_is_one_line(done.returncode, done.stderr)


@pytest.mark.parametrize("command", [["validate"], ["simulate", "--t-end", "2", "--out", "o.csv"]])
def test_weight_of_an_overflowing_constant_fails_without_traceback(tmp_path, command):
    # cos(sin(inf)) is var-free, so the gate passes it; it evaluates to nan.
    # (2^600)*(2^600) is inf. Each fails the report, which shows the value,
    # and numpy's warnings about it stay off stderr.
    for weight in (f"cos(pi*t)^2*cos(sin({_BIG}*{_BIG}))", "(2^600)*(2^600)"):
        doc = helpers.base_flow_scenario()
        doc["weights"]["1,1"] = weight
        helpers.write_scenario(tmp_path, doc)
        done = run_process(command + ["--scenario", "scenario.json"], tmp_path)
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr, done.stderr
        if command == ["validate"]:
            assert done.stderr == ""
            assert json.loads(done.stdout)["passed"] is False
        else:
            assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


def test_nan_schedule_value_fails_forced_commands_in_one_line(tmp_path):
    # 0.5 + x - x with x = (2cos(2 pi t))^2000: inf - inf is NaN at t = 0
    doc = {"graph": {"n": 2, "edges": [[1, 2], [2, 1], [2, 1]]}, "mode": "flow",
           "weights": {"1,1": "1", "2,3": "0.5",
                       "2,2": "0.5 + (2*cos(2*pi*t))^2000 - (2*cos(2*pi*t))^2000"},
           "initial": {"1": "1", "2": "1", "3": "1"}}
    helpers.write_scenario(tmp_path, doc)
    done = run_process(["validate", "--scenario", "scenario.json"], tmp_path)
    assert (done.returncode, done.stderr) == (1, ""), done.stderr
    negative, columns = json.loads(done.stdout)["stochastic"]["checks"]
    assert negative["name"] == "nonnegative_entries" and negative["passed"] is False
    assert math.isnan(negative["witness_value"]) and math.isnan(negative["worst"])
    assert math.isnan(columns["worst"])
    for command in (["period"], ["converge", "--out", "c.csv"]):
        done = run_process(command + ["--force", "--scenario", "scenario.json"], tmp_path)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == ("error: matrix is not column-stochastic "
                               "(column sum off by nan)\n"), done.stderr


@pytest.mark.parametrize("command", ["validate", "period"])
def test_report_of_a_150_edge_ring_is_the_json_module_bytes(tmp_path, capsys, monkeypatch, command):
    # the golden files cover the bundled scenarios; this report holds three
    # 150 x 150 support patterns
    path = helpers.write_scenario(tmp_path, helpers.load_perfbench("gen").ring_scenario(1, 50))
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload, out=None: (payloads.append(payload),
                                                                   emit(payload, out)))
    out = tmp_path / "report.json"
    code, text, err = run(capsys, [command, "--scenario", str(path), "--out", str(out)])
    assert (code, err) == (0, "")
    [payload] = payloads
    patterns = payload["distinct_patterns"] if command == "period" else payload["support"]["patterns"]
    assert len(patterns) == 3
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert out.read_text() == text
