"""The mutation catalogue in ``mutants.py`` stays applicable: each
mutant's text occurs exactly once in its file, and each test it lists
exists. ``python tests/mutants.py`` runs the catalogue itself."""

import ast
from pathlib import Path

import pytest
from mutants import MUTANTS, ROOT


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_text_occurs_once_and_tests_exist(mutant):
    source = (ROOT / "src" / mutant.file).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old
    for test in mutant.tests:
        path, *names = test.split("::")
        tree = ast.parse(Path(ROOT / path).read_text(encoding="utf-8"))
        scope = tree.body
        for name in names:
            name = name.split("[")[0]
            found = [
                node for node in scope
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
            ]
            assert found, f"{test}: no {name}"
            scope = found[0].body
