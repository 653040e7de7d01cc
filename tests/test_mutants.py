"""The mutant catalogue has not rotted: each old text is still in its file
once and each killing test still exists.  Nothing is applied."""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).parents[1]


def _test_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_killing_tests_exist(mutant):
    assert mutant.killed_by
    for node_id in mutant.killed_by:
        path, _, name = node_id.partition("::")
        assert name.split("[")[0] in _test_names(ROOT / path), node_id
