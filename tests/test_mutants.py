"""The mutation gate's table still applies: tests/mutants.py runs it."""

import pytest

from mutants import MUTANTS, PACKAGE


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.reason)
def test_each_mutant_replaces_text_that_occurs_exactly_once(mutant):
    assert mutant.new != mutant.old
    assert (PACKAGE / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
