"""Command-line tests: `cli.main` runs in-process with stdin and stdout captured."""

import io
import json
import sys

import numpy as np
import pytest

import quasilocal as ql
from quasilocal import cli
from quasilocal.fileio import box_object, fixture_path, measures_object, parse_box


@pytest.fixture
def run(monkeypatch, capsys):
    """Run `quasilocal <argv>` with `stdin` as standard input; returns
    (exit code, stdout, stderr)."""
    def invoke(argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out, err
    return invoke


def born_box(state_text, angles):
    state = cli._parse_state(state_text)
    dirs = (ql.MeasurementDirection.from_xz_angle(t) for t in angles)
    return ql.generate_probability_set(ql.QubitScenario(state, *dirs))


def comment_field(text, prefix):
    return next(line[len(prefix):] for line in text.splitlines() if line.startswith(prefix))


@pytest.mark.parametrize("state", ["singlet", "0.6,0,0,0.8", "0.5,0.5j,0.5,-0.5"])
def test_qm_maximize_text_reports_a_reproducible_box(run, state):
    code, out, _ = run(["qm", "--state", state, "--maximize", "--resolution", "15"])
    assert code == 0
    best = float(comment_field(out, "# best |delta| = "))
    angles = [float(field.split("=")[1])
              for field in comment_field(out, "# angles_deg: ").split()]
    p = parse_box(out)
    assert np.array_equal(p, born_box(state, angles))
    assert ql.max_abs_chsh(p) == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize("state", ["singlet", "0.6,0,0,0.8", "0.5,0.5j,0.5,-0.5"])
def test_qm_maximize_json_reports_a_reproducible_box(run, state):
    code, out, _ = run(["qm", "--state", state, "--maximize", "--resolution", "15",
                        "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    p = parse_box(out)
    assert np.array_equal(p, born_box(state, doc["angles_deg"]))
    assert ql.max_abs_chsh(p) == pytest.approx(doc["best_delta"], abs=1e-9)


def test_qm_maximize_angles_reproduce_the_box_through_qm_angles(run):
    _, maximized, _ = run(["qm", "--state", "singlet", "--maximize", "--format", "json"])
    doc = json.loads(maximized)
    assert doc["angles_deg"] == [0.0, 90.0, 45.0, 135.0]
    code, replayed, _ = run(["qm", "--state", "singlet", "--angles",
                             *map(str, doc["angles_deg"])])
    assert code == 0
    assert np.array_equal(parse_box(replayed), parse_box(maximized))


def test_qm_bad_resolution_is_a_domain_failure(run):
    code, out, err = run(["qm", "--state", "singlet", "--maximize", "--resolution", "50"])
    assert code == 1
    assert out == ""
    assert "resolution" in err


def test_qm_solve_forward_round_trip(run):
    _, box, _ = run(["qm", "--state", "0.6,0,0,0.8", "--maximize", "--resolution", "15"])
    code, measures, _ = run(["solve"], box)
    assert code == 0
    code, back, _ = run(["forward"], measures)
    assert code == 0
    assert np.abs(parse_box(back) - parse_box(box)).max() <= 1e-12


@pytest.mark.parametrize("command", ["validate", "negativity"])
@pytest.mark.parametrize("eps", ["nan", "inf", "-1e-9"])
def test_bad_eps_is_a_usage_error(run, command, eps):
    path = str(fixture_path("broken-signaling.box"))
    code, out, err = run([command, path, f"--eps={eps}"])
    assert code == 2
    assert out == ""
    assert "--eps must be a finite number >= 0" in err


def test_bad_eps_from_the_environment_is_a_usage_error(run, monkeypatch):
    monkeypatch.setenv("QUASILOCAL_EPS", "nan")
    code, _, err = run(["validate", str(fixture_path("broken-signaling.box"))])
    assert code == 2
    assert "QUASILOCAL_EPS must be a finite number >= 0" in err


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
