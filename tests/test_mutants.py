"""The mutant list of ``tests/mutants.py`` still points at the code and the
tests: each old text occurs exactly once in its file, and each named test's
file defines its test function. Running the mutants is a CI step
(``python tests/mutants.py``), not a tier-1 test."""

from mutants import MUTANTS, ROOT


def test_each_old_text_occurs_exactly_once():
    for mutant in MUTANTS:
        text = (ROOT / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.tests, mutant.name  # no test ids would run the whole suite


def test_each_named_test_is_defined_in_its_file():
    for mutant in MUTANTS:
        for node in mutant.tests:
            path, function = node.split("::")
            name = function.partition("[")[0]  # a parametrized id names one case
            assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), node
