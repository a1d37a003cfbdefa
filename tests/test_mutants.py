"""The mutation gate's table (``mutants.py``) still fits the code: each
mutant's old text occurs exactly once in its file, so it applies where
it was meant to.  ``mutation_gate.py`` runs the mutants themselves."""

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_mutant_old_text_occurs_exactly_once(mutant):
    assert mutant.old != mutant.new and mutant.reason
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
