"""The kept mutant table, ``tools/mutants.json``, stays in step with the
source: every mutant still applies (its snippet occurs exactly once in its
file) and every test it names is defined.  ``tools/mutation_check.py`` runs
the mutants themselves, one pytest per mutant, as a CI step."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutation_check",
                                               ROOT / "tools" / "mutation_check.py")
mutation_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutation_check)
TABLE = mutation_check.load_table()


@pytest.mark.parametrize("row", TABLE, ids=[row["name"] for row in TABLE])
def test_mutant_applies_and_names_defined_tests(row):
    mutation_check.mutated(ROOT, row)
    for test in row["tests"]:
        path, name = test.split("::")
        name = name.split("[")[0]
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(encoding="utf-8"),
                         re.M), test
