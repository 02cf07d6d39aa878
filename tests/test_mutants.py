"""The mutation gate's table still applies: tests/mutants.py runs it."""

import ast
import subprocess

import pytest
from hypothesis import Phase, settings

from mutants import MUTANTS, PACKAGE, ROOT, verdict


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.reason)
def test_each_mutant_replaces_text_that_occurs_exactly_once(mutant):
    assert mutant.new != mutant.old
    assert (PACKAGE / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.reason)
def test_each_killer_names_a_test_file_or_function(mutant):
    path, _, function = mutant.killer.partition("::")
    assert path.startswith("tests/test_") and path.endswith(".py")
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    if function:
        assert function in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_a_stale_killer_still_ends_in_a_kill():
    runs = []

    def fails(mutant, target):
        runs.append(target)
        return target == "tests"        # the killer passes, the whole suite fails

    mutant = MUTANTS[0]
    assert verdict(mutant, fails) == "killed, stale killer"
    assert runs == [mutant.killer, "tests"]
    assert verdict(mutant, lambda mutant, target: target == mutant.killer) == "killed"
    assert verdict(mutant, lambda mutant, target: False) == "SURVIVED"


def test_the_mutants_profile_skips_only_the_phases_after_a_failure():
    default, mutants = settings.get_profile("default"), settings.get_profile("mutants")
    assert set(default.phases) - set(mutants.phases) == {Phase.shrink, Phase.explain}
    assert set(mutants.phases) < set(default.phases)
    for name in ("deadline", "derandomize", "max_examples", "suppress_health_check"):
        assert getattr(mutants, name) == getattr(default, name)


@pytest.mark.parametrize("suite_code", [1, 4])
def test_a_killer_that_cannot_run_leaves_the_verdict_to_the_whole_suite(monkeypatch, suite_code):
    # a mutant that breaks the package's import makes pytest exit 4 on a killer
    # that names a test function, as it cannot collect it: that ended the gate
    mutant = MUTANTS[0]
    runs = []

    def run(argv, **kwargs):
        runs.append(argv[-1])
        return subprocess.CompletedProcess(argv, {"tests": suite_code}.get(argv[-1], 4), "", "")

    monkeypatch.setattr(subprocess, "run", run)
    if suite_code == 1:
        assert verdict(mutant) == "killed, stale killer"
    else:       # the whole suite must run: an exit it cannot read still ends the gate
        with pytest.raises(SystemExit):
            verdict(mutant)
    assert runs == [mutant.killer, "tests"]
