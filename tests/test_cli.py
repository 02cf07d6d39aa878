"""Command-line tests: `cli.main` runs in-process with stdin and stdout captured."""

import io
import json
import math
import shlex
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import quasilocal as ql
from quasilocal import cli
from quasilocal.fileio import (box_object, fixture_path, format_box, format_measures,
                               measures_object, parse_box)
from conftest import (HUGE_LOCAL, OVERFLOWING, OVERFLOWING_FACE, OVERFLOWING_LOCAL,
                      OVERFLOWING_NAN_CHSH, boxes_consistent_at_eps_0)


@pytest.fixture
def run(monkeypatch, capsys):
    """Run `quasilocal <argv>` with `stdin` as standard input; returns
    (exit code, stdout, stderr)."""
    def invoke(argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejected the command line
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err
    return invoke


def born_box(state_text, angles):
    state = ql.TwoQubitState(cli._amplitudes(state_text))
    dirs = (ql.MeasurementDirection.from_xz_angle(t) for t in angles)
    return ql.generate_probability_set(ql.QubitScenario(state, *dirs))


def box_object_text(p):
    return json.dumps(box_object(p))


def comment_field(text, prefix):
    return next(line[len(prefix):] for line in text.splitlines() if line.startswith(prefix))


@pytest.mark.parametrize("state", ["singlet", "0.6,0,0,0.8", "0.5,0.5j,0.5,-0.5"])
def test_qm_maximize_text_reports_a_reproducible_box(run, state):
    code, out, _ = run(["qm", "--state", state, "--maximize"])
    assert code == 0
    best = float(comment_field(out, "# best |delta| = "))
    angles = [float(field.split("=")[1])
              for field in comment_field(out, "# angles_deg: ").split()]
    p = parse_box(out)
    assert np.array_equal(p, born_box(state, angles))
    assert ql.chsh_report(p).max_abs_delta == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize("state", ["singlet", "0.6,0,0,0.8", "0.5,0.5j,0.5,-0.5"])
def test_qm_maximize_json_reports_a_reproducible_box(run, state):
    code, out, _ = run(["qm", "--state", state, "--maximize", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    p = parse_box(out)
    assert np.array_equal(p, born_box(state, doc["angles_deg"]))
    assert ql.chsh_report(p).max_abs_delta == pytest.approx(doc["best_delta"], abs=1e-9)


def test_qm_maximize_angles_reproduce_the_box_through_qm_angles(run):
    _, maximized, _ = run(["qm", "--state", "singlet", "--maximize", "--format", "json"])
    doc = json.loads(maximized)
    assert doc["best_delta"] == pytest.approx(2 * np.sqrt(2), abs=1e-12)
    code, replayed, _ = run(["qm", "--state", "singlet", "--angles",
                             *map(str, doc["angles_deg"])])
    assert code == 0
    assert np.array_equal(parse_box(replayed), parse_box(maximized))


def test_qm_resolution_is_not_an_option(run):
    # --maximize is a closed form; the grid step it once took is gone
    code, out, err = run(["qm", "--state", "singlet", "--maximize", "--resolution", "5"])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --resolution 5" in err


@pytest.mark.parametrize("mode", [["--angles", "0", "90", "45", "135"], ["--maximize"]],
                         ids=["angles", "maximize"])
@pytest.mark.parametrize("state, norm_sq", [("1e200,1e200,0,0", "inf"), ("2,0,0,0", "4.0")],
                         ids=["huge", "two"])
def test_an_unnormalized_state_is_a_domain_failure(run, mode, state, norm_sq):
    # squaring 1e200 overflowed into an OverflowError traceback
    code, out, err = run(["qm", "--state", state, *mode])
    assert code == 1
    assert out == ""
    assert err == f"error: state is not normalized: |amplitudes|^2 = {norm_sq}\n"


@pytest.mark.parametrize("argv, flag", [
    (["solve", "--free", "nan", "0", "0", "0", "0", "0", "0"], "--free"),
    (["solve", "--perfect-correlation", "nan"], "--perfect-correlation"),
    (["qm", "--state", "singlet", "--angles", "inf", "0", "0", "0"], "--angles"),
    (["qm", "--state", "nan,0,0,0", "--maximize"], "--state"),
    # argparse took a leading -inf or -nan for an option name: "expected N argument(s)"
    (["solve", "--free", "0", "0", "0", "0", "0", "0", "-inf"], "--free"),
    (["solve", "--perfect-correlation", "-inf"], "--perfect-correlation"),
    (["qm", "--state", "singlet", "--angles", "-Infinity", "0", "0", "0"], "--angles"),
    (["qm", "--state", "-NaN,0,0,0", "--maximize"], "--state"),
], ids=["free", "perfect-correlation", "angles", "state", "free-neg-inf",
        "perfect-correlation-neg-inf",
        "angles-neg-infinity", "state-neg-nan"])
def test_non_finite_numbers_are_usage_errors(run, argv, flag):
    code, out, err = run(argv, box_object_text(ql.pr_box()))
    assert code == 2
    assert out == ""
    assert f"argument {flag}: must be a finite number" in err


R = "7.071067811865476e-1"


@pytest.mark.parametrize("argv, spelled_out", [
    (["solve", "--free", "0", "0", "0", "-1e-3", "0", "0", "0"],
     ["solve", "--free", "0", "0", "0", "-0.001", "0", "0", "0"]),
    (["solve", "--perfect-correlation", "-2.5e-1"],
     ["solve", "--perfect-correlation", "-0.25"]),
    (["qm", "--state", "singlet", "--angles", "0", "90", "-4.5e1", "135"],
     ["qm", "--state", "singlet", "--angles", "0", "90", "-45", "135"]),
    (["qm", "--state", f"-{R},0,0,-{R}", "--maximize"],
     ["qm", f"--state=-{R},0,0,-{R}", "--maximize"]),
], ids=["free", "perfect-correlation", "angles", "state"])
def test_negative_numbers_in_scientific_notation_are_values(run, argv, spelled_out):
    code, out, err = run(argv, box_object_text(ql.pr_box()))
    assert (code, err) == (0, "")
    assert out == run(spelled_out, box_object_text(ql.pr_box()))[1]


@pytest.mark.parametrize("argv, message", [
    (["validate", "--eps", "nan"], "--eps: must be a finite number, got 'nan'"),
    (["validate", "--eps", "inf"], "--eps: must be a finite number, got 'inf'"),
    (["validate", "--eps", "-1e-3"], "--eps: must be >= 0, got '-1e-3'"),
    (["validate", "--eps", "-inf"], "--eps: must be a finite number, got '-inf'"),
    (["validate", "--eps", "-INFINITY"], "--eps: must be a finite number, got '-INFINITY'"),
    (["validate", "--eps", "-nan"], "--eps: must be a finite number, got '-nan'"),
    (["validate", "--eps=--"], "--eps: invalid float value: '--'"),
    (["qm", "--state", "1,0,0", "--maximize"],
     "--state: needs 'singlet' or 4 comma-separated amplitudes, got '1,0,0'"),
    (["qm", "--state", "1,0,0,x", "--maximize"],
     "--state: needs 'singlet' or 4 comma-separated amplitudes, got '1,0,0,x'"),
    (["qm", "--state", "nan,0,0,0", "--maximize"], "--state: must be a finite number, got 'nan'"),
    # before Python 3.13 argparse handed --state=-- the list [], which has no strip()
    (["qm", "--state=--", "--maximize"],
     "--state: needs 'singlet' or 4 comma-separated amplitudes, got '--'"),
], ids=["eps-nan", "eps-inf", "eps-negative", "eps-neg-inf", "eps-neg-infinity", "eps-neg-nan",
        "eps-double-dash", "state-of-3", "state-unparsable", "state-nan", "state-double-dash"])
def test_a_bad_flag_value_is_an_argparse_usage_error(run, argv, message):
    # --eps was checked in the handler and --state in qm's: each wrote its own
    # "error: ..." line, without the usage line
    code, out, err = run(argv, box_object_text(ql.pr_box()))
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: quasilocal {argv[0]} ")
    assert err.endswith(f"\nquasilocal {argv[0]}: error: argument {message}\n")


def test_qm_solve_forward_round_trip(run):
    _, box, _ = run(["qm", "--state", "0.6,0,0,0.8", "--maximize"])
    code, measures, _ = run(["solve"], box)
    assert code == 0
    code, back, _ = run(["forward"], measures)
    assert code == 0
    assert np.abs(parse_box(back) - parse_box(box)).max() <= 1e-12


def test_readme_maximize_limitation_example_prints_what_it_shows(run):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Limitation of `qm --maximize`")[1].split("\n## ")[0]
    lines = section.splitlines()
    command = next(line for line in lines if line.startswith("quasilocal qm "))
    shown = next(line for line in lines if line.startswith("# best |delta| = "))
    assert shown == "# best |delta| = 2.0000000000000004"
    code, out, _ = run(shlex.split(command)[1:])
    assert code == 0
    assert shown in out.splitlines()


@pytest.mark.parametrize("command", ["validate", "negativity"])
@pytest.mark.parametrize("eps", ["nan", "inf", "-1e-9"])
def test_bad_eps_is_a_usage_error(run, command, eps):
    path = str(fixture_path("broken-signaling.box"))
    code, out, err = run([command, path, f"--eps={eps}"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage: quasilocal {command} ")
    assert f"quasilocal {command}: error: argument --eps: must be " in err


@pytest.mark.parametrize("env", ["1e-3", "nan", "abc"])
def test_the_environment_does_not_set_eps(run, monkeypatch, env):
    # QUASILOCAL_EPS=1e-3 made validate accept a box off by 1e-4
    p = ql.uniform_box()
    p[[0, 1]] = [0.2501, 0.2499]
    monkeypatch.setenv("QUASILOCAL_EPS", env)
    code, out, err = run(["validate"], format_box(p))
    assert (code, err) == (1, "")
    assert out.endswith("inconsistent (eps = 1e-09)\n")


@pytest.mark.parametrize("command, line", [
    ("validate", "consistent (eps = 0.001)"),
    ("chsh", "max |delta| = 2.8284271247461898 (eps = 0.001)"),
    ("solve", "# consistent at eps = 0.001"),
    ("negativity", "feasible       : no (eps = 0.001)"),
])
def test_every_gated_verdict_reports_its_eps(run, command, line):
    # chsh's text, solve and negativity gave no eps: a verdict could not be checked
    path = str(fixture_path("tsirelson.box"))
    code, out, err = run([command, path, "--eps", "1e-3"])
    assert (code, err) == (0, "")
    assert line in out.splitlines()
    code, out, err = run([command, path, "--eps", "1e-3", "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["eps"] == 1e-3


def test_a_deterministic_box_violates_nothing_at_eps_0(run):
    # every |delta| is exactly 2, the bound itself
    path = str(fixture_path("deterministic.box"))
    code, out, err = run(["chsh", path, "--eps", "0"])
    assert (code, err) == (0, "")
    assert "VIOLATED" not in out
    code, out, err = run(["chsh", path, "--eps", "0", "--format", "json"])
    assert (code, err) == (0, "")
    assert not any(variant["violated"] for variant in json.loads(out)["variants"])


def test_signalling_box_is_inconsistent_at_the_default_eps(run):
    code, out, _ = run(["validate", str(fixture_path("broken-signaling.box"))])
    assert code == 1
    assert "inconsistent" in out


@pytest.mark.parametrize("command, document, key", [
    ("validate", box_object(ql.uniform_box()), "probabilities"),
    ("forward", measures_object(np.full(16, 1 / 16)), "measures"),
])
def test_json_booleans_are_parse_errors(run, command, document, key):
    first = next(iter(document[key]))
    document[key][first] = True
    code, out, err = run([command], json.dumps(document))
    assert code == 2
    assert out == ""
    assert "non-numeric value True" in err


def test_bad_json_label_is_a_parse_error(run):
    # a bad outcome character in a JSON label escaped as a ValueError traceback
    document = box_object(ql.uniform_box())
    document["probabilities"]["a1xb1+"] = document["probabilities"].pop("a1+b1+")
    code, out, err = run(["validate"], json.dumps(document))
    assert code == 2
    assert out == ""
    assert err == "parse error: bad probability label 'a1xb1+'\n"


UNIFORM = box_object(ql.uniform_box())["probabilities"]
NO_FREE = ["--free", "0", "0", "0", "0", "0", "0", "0"]


@pytest.mark.parametrize("argv, stdin, message", [
    (["validate"], {"probabilities": {**UNIFORM, "A1+B1+": 0.25}},
     "parse error: duplicate probability label 'a1+b1+'\n"),
    (["forward"], {"probabilities": UNIFORM},
     'parse error: JSON measure document needs a "measures" object\n'),
    (["forward"], {"measures": {"+++-": 0.5, "+++\u2212": 0.5}},
     "parse error: duplicate pattern '+++-'\n"),
    # a JSON key has no line: these said "line 0: "
    (["forward"], {"measures": {"+++": 1}}, "parse error: bad pattern '+++'\n"),
    (["forward"], {"measures": {"++x+": 1}}, "parse error: bad pattern '++x+'\n"),
    (["forward"], "+++ 1\n", "parse error: line 1: bad pattern '+++'\n"),
], ids=["json-label-twice", "json-measures-missing",
        "json-pattern-twice", "json-pattern-of-3", "json-bad-pattern", "text-pattern-of-3"])
def test_usage_and_parse_errors_name_their_cause(run, argv, stdin, message):
    code, out, err = run(argv, stdin if isinstance(stdin, str) else json.dumps(stdin))
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("flag", ["--out", "--free-file"])
def test_solve_has_no_second_input_or_output_channel(run, tmp_path, flag):
    # the measure document goes to stdout and the 7 weights come through
    # --free; `run` catches only argparse's SystemExit, so a traceback fails
    path = tmp_path / "measures"
    code, out, err = run(["solve", flag, str(path)], box_object_text(ql.tsirelson_box()))
    assert (code, out) == (2, "")
    assert err.startswith("usage: quasilocal ")
    assert err.endswith(f"quasilocal: error: unrecognized arguments: {flag}\n")
    assert not path.exists()


@pytest.mark.parametrize("argv, message", [
    (["validate", "--eps=--"], "argument --eps: invalid float value: '--'"),
    (["validate", "--format=--"], "argument --format: invalid choice: '--'"),
    (["solve", "--perfect-correlation=--"],
     "argument --perfect-correlation: invalid float value: '--'"),
], ids=["eps", "format", "perfect-correlation"])
def test_a_double_dash_flag_value_is_a_usage_error(run, argv, message):
    # before Python 3.13 argparse dropped the '--' and handed the flag [],
    # which its type never saw: --eps died in np.isfinite with a traceback
    code, out, err = run(argv, box_object_text(ql.pr_box()))
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("argv", [
    ["validate", "--e", "1e-3"],
    ["solve", "--perf", "0"],
    ["solve", "--fre", "0.5", "0", "0", "0", "0", "0", "0"],
    ["qm", "--st", "singlet", "--max"],
], ids=["eps", "perfect-correlation", "free", "state-maximize"])
def test_a_prefix_of_a_long_option_is_a_usage_error(run, argv):
    # argparse's allow_abbrev read each as the option it starts: a prefix
    # that is unique today is ambiguous, or another option, tomorrow
    box = box_object_text(ql.pr_box() if "--perf" in argv else ql.tsirelson_box())
    code, out, err = run(argv, box)
    assert (code, out) == (2, "")
    assert "error: " in err


def test_an_unreadable_input_is_a_usage_error(run, tmp_path):
    path = tmp_path / "missing.box"
    code, out, err = run(["validate", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {path}: [Errno 2] No such file or directory: '{path}'\n"


def test_an_m16_that_is_not_a_number_is_a_usage_error(run):
    code, out, err = run(["solve", "--perfect-correlation", "abc"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: quasilocal solve ")
    assert err.endswith("\nquasilocal solve: error: "
                        "argument --perfect-correlation: invalid float value: 'abc'\n")


def test_forward_warns_on_measures_that_do_not_sum_to_1(run):
    m = np.full(16, 1 / 32)
    code, out, err = run(["forward"], format_measures(m))
    assert (code, out) == (0, format_box(ql.forward_map(m)))
    assert err == "warning: measures sum to 0.5, not 1\n"


def test_forward_at_eps_0_does_not_warn_on_measures_that_sum_to_1(run):
    m = np.zeros(16)
    m[0] = 1.0
    code, out, err = run(["forward", "--eps", "0"], format_measures(m))
    assert (code, out, err) == (0, format_box(ql.deterministic_box(0)), "")


@pytest.mark.parametrize("argv, box", [
    (["--free", "1.7e308", "1.7e308", "0", "0", "0", "0", "0"], ql.pr_box().tolist()),
    (["--perfect-correlation", "1.7e308", "--eps", "1.7e308"], OVERFLOWING_FACE),
], ids=["free", "perfect-correlation"])
def test_free_weights_whose_solution_overflows_are_usage_errors(run, argv, box):
    # finite weights overflowed in the family's product: solve returned inf
    # weights and total_negativity died on them with a traceback, and the face
    # family's product warned and then died in total_negativity
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(["solve", *argv], box_object_text(box))
    assert (code, out) == (2, "")
    assert err == f"error: argument {argv[0]}: the solution at these free weights is not finite\n"


@pytest.mark.parametrize("box", [OVERFLOWING_LOCAL, OVERFLOWING_NAN_CHSH],
                         ids=["local", "nan-chsh"])
def test_a_witness_that_overflows_is_a_domain_failure(run, box):
    # a witness whose negative weights sum past the float maximum: a total
    # negativity of inf would be printed as a minimum, and as Infinity in JSON
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(["negativity", "--eps", "1.7e308"], box_object_text(box))
    assert (code, out) == (1, "")
    assert err == "error: the witness model of this box is not finite (eps = 1.7e+308)\n"


def test_a_box_whose_magnitudes_overflow_gets_a_finite_witness(run):
    # Fine's model of this box overflowed in its repair product, so negativity
    # refused it; the model of the cell that holds it is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(["negativity", "--eps", "1.7e308", "--format", "json"],
                             box_object_text(HUGE_LOCAL))
    assert (code, err) == (0, "")
    report = json.loads(out)
    witness = [report["witness"]["measures"][label] for label in ql.STRATEGY_PATTERNS]
    assert all(map(math.isfinite, witness)) and math.isfinite(report["min_negativity"])


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("flag", ["--perfect-correlation", "--free"])
def test_weights_whose_total_negativity_overflows_are_usage_errors(run, flag, fmt):
    # exited 0 after a numpy overflow warning, reporting a total negativity of
    # inf, which the JSON report wrote as Infinity, not JSON
    argv = {"--perfect-correlation": ["--perfect-correlation", "1e308"],
            "--free": ["--free", "-1e308", "0", "0", "0", "0", "0", "0"]}[flag]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(["solve", *argv, "--format", fmt, str(fixture_path("prbox.box"))])
    assert (code, out) == (2, "")
    assert err == f"error: argument {flag}: the total negativity at these weights is not finite\n"


def test_a_json_report_holding_a_non_finite_number_is_a_domain_failure(run):
    # validate wrote "expected": Infinity, which no JSON parser accepts
    box = box_object_text(OVERFLOWING)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(["validate", "--eps", "1e300", "--format", "json"], box)
        assert (code, out) == (1, "")
        assert err == "error: the report holds a non-finite number, which JSON cannot represent\n"
        code, out, err = run(["validate", "--eps", "1e300"], box)
    assert (code, err) == (1, "")
    assert "but the independent entries imply inf" in out


@pytest.mark.parametrize("command, eps", [("validate", "1e300"), ("chsh", "1e300"),
                                          ("negativity", "1e300"), ("solve", "0")])
def test_block_sums_that_overflow_are_reported_without_a_warning(run, command, eps):
    # each block sums to inf: numpy's reduce printed "overflow encountered in
    # reduce" on stderr before the report
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run([command, "--eps", eps], format_box(np.full(16, 1.5e308)))
    assert code == 1
    assert "block (a1,b1) sums to inf, expected 1" in out + err


def test_marginals_whose_difference_is_nan_fail_no_signaling(run):
    # inf - inf is NaN and abs(nan) > eps is False: validate printed
    # "no-signaling ok" for a box whose marginals all sum to inf
    code, out, err = run(["validate", "--eps", "1e300"], format_box(np.full(16, 1.5e308)))
    assert (code, err) == (1, "")
    assert "no-signaling       FAIL\n  marginal p(a1+) depends on the b-setting: inf vs inf" in out
    assert "p2 (a1+b1-) = 1.5e+308, but the independent entries imply nan" in out


def test_negativity_at_eps_0_accepts_a_box_that_validates_at_eps_0(run):
    # exited 1 with "cannot evaluate CHSH on an unnormalized probability set"
    box = format_box(boxes_consistent_at_eps_0()[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["validate", "--eps", "0"], box)[0] == 0
        code, out, err = run(["negativity", "--eps", "0", "--format", "json"], box)
    assert (code, err) == (0, "")
    assert json.loads(out)["feasible"] is True


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_forward_of_overflowing_weights_is_a_domain_failure(run, fmt):
    # exited 0 after two numpy overflow warnings, with inf entries in its box
    m = np.zeros(16)
    m[[0, 1]] = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(["forward", "--format", fmt], json.dumps(measures_object(m)))
    assert (code, out) == (1, "")
    assert err == "error: the forward image is not finite: the weights overflow\n"


def test_perfect_correlation_takes_m16_as_its_value(run):
    code, out, _ = run(["solve", "--perfect-correlation", "0.25", "--format", "json"],
                       box_object_text(ql.pr_box()))
    assert code == 0
    m = ql.parse_measures(out)
    assert np.array_equal(m, ql.perfect_correlation_solution(ql.pr_box(), 0.25))
    # no default value, and no second flag for it
    code, out, err = run(["solve", "--perfect-correlation"], box_object_text(ql.pr_box()))
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --perfect-correlation: expected one argument\n")
    code, out, err = run(["solve", "--m16", "0"], box_object_text(ql.pr_box()))
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --m16\n")


class UnreadableStdin(io.StringIO):
    def read(self, *args):
        pytest.fail("standard input was read")


@pytest.mark.parametrize("input_path", [None, str(fixture_path("broken-parse.box"))],
                         ids=["stdin", "broken-parse"])
@pytest.mark.parametrize("first, second", [
    (["--perfect-correlation", "0"], NO_FREE),
    (NO_FREE, ["--perfect-correlation", "0"]),
], ids=["perfect-correlation-first", "free-first"])
def test_free_and_perfect_correlation_exclude_each_other_before_any_input_is_read(
        monkeypatch, capsys, first, second, input_path):
    # exited 2 only after the box was read: a malformed box gave its parse error
    monkeypatch.setattr(sys, "stdin", UnreadableStdin())
    argv = ["solve", *first, *second] + ([] if input_path is None else [input_path])
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exit_.value.code, out) == (2, "")
    assert err.startswith("usage: quasilocal solve ")
    assert err.endswith(f"quasilocal solve: error: argument {second[0]}: "
                        f"not allowed with argument {first[0]}\n")


def test_solve_range_checks_at_the_given_eps(run):
    # F m with m(++++) = 1 + 5e-7 and m(----) = -5e-7: p1 = 1 + 5e-7 is in
    # range at eps 1e-5 but not at the default eps
    m = np.zeros(16)
    m[0], m[15] = 1.0 + 5e-7, -5e-7
    box = box_object_text(ql.forward_map(m))
    code, out, err = run(["solve", "--eps", "1e-5"], box)
    assert code == 0, err
    assert np.abs(ql.forward_map(ql.parse_measures(out)) - ql.forward_map(m)).max() <= 1e-5
    code, out, err = run(["solve"], box)
    assert code == 1
    assert out == ""
    assert "p1 (a1+b1+) = 1.0000005" in err


def test_inconsistent_box_reports_every_violation(run):
    p = np.linspace(-0.5, 1.5, 16)
    violations = [v for vs in ql.check_consistency(p).values() for v in vs]
    for command in ("chsh", "solve", "negativity"):
        code, out, err = run([command], box_object_text(p))
        assert code == 1
        assert out == ""
        assert all(v.describe() in err for v in violations)


def box_document(p, fmt):
    return format_box(p) if fmt == "text" else box_object_text(p)


def corrupted(document, fmt, k):
    """The document with data entry k made unparseable."""
    if fmt == "json":
        return document.replace(f'"{ql.PROB_LABELS[k]}"', '"a1xb1+"')
    lines = document.splitlines()
    lines[k] = lines[k].replace("b", "c", 1)
    return "\n".join(lines) + "\n"


# `run` resets stdin and reads the captured output on every call, so one
# fixture instance serves all of hypothesis's examples
@pytest.mark.parametrize("expected", [0, 1, 2], ids=["consistent", "inconsistent", "malformed"])
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(weights=st.lists(st.floats(0, 1), min_size=16, max_size=16).filter(lambda w: sum(w) > 0),
       free=st.lists(st.floats(-1000, 1000), min_size=7, max_size=7),
       fmt=st.sampled_from(["text", "json"]),
       k=st.integers(0, 15),
       shift=st.floats(1e-6, 0.5))
def test_solve_forward_validate_round_trip(run, expected, weights, free, fmt, k, shift):
    """box -> solve -> forward -> validate: a consistent box comes back within
    eps and passes (exit 0); a box with one entry moved is rejected by solve
    and validate (exit 1); a box with an unreadable entry is a parse error of
    both (exit 2)."""
    p = ql.forward_map(np.array(weights) / sum(weights))
    if expected == 1:
        p[k] += shift
    box = box_document(p, fmt)
    if expected == 2:
        box = corrupted(box, fmt, k)
    code, measures, err = run(["solve", "--free", *map(repr, free), "--format", fmt], box)
    assert code == expected, err
    if expected:
        assert measures == ""
        assert err.startswith("error: " if expected == 1 else "parse error: ")
        code, _, _ = run(["validate"], box)
        assert code == expected
        return
    code, back, _ = run(["forward", "--format", fmt], measures)
    assert code == 0
    code, report, _ = run(["validate"], back)
    assert code == 0, report
    assert np.abs(parse_box(back) - p).max() <= 1e-9
