"""The mutation gate's table still applies: tests/mutants.py runs it."""

import ast

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
