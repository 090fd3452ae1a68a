"""The mutation table of tests/mutants.py applies to today's src/: each row's old text occurs exactly
once in the package, in the row's file, and each test file the row names exists. The mutants
themselves run only on demand (python tests/mutants.py)."""

import pytest

from mutants import MUTANTS, PACKAGE, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_row_applies_once_and_names_existing_tests(mutant):
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert sources[mutant.file].count(mutant.old) == 1
    assert sum(text.count(mutant.old) for text in sources.values()) == 1
    assert mutant.old != mutant.new and mutant.tests
    for node in mutant.tests:
        assert (ROOT / node.split("::")[0]).is_file(), node
