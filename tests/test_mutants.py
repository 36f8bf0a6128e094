"""The mutant list of ``tests/mutants.py`` still points at the code: each old
text occurs exactly once in its file. Running the mutants is a CI step
(``python tests/mutants.py``), not a tier-1 test."""

from mutants import MUTANTS, ROOT


def test_each_old_text_occurs_exactly_once():
    for mutant in MUTANTS:
        text = (ROOT / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.tests, mutant.name  # no test ids would run the whole suite
