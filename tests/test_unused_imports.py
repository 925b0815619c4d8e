"""Every name that a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "actidist"

# names a module imports without using, each with its reason
UNUSED_ON_PURPOSE = {
    # perfbench's tracer test reads them as names of evaluation (ROADMAP item 11)
    "evaluation.py": {"krr_loo", "median_heuristic_sigma_from_matrix"},
}


def unused_imports(source: str) -> set:
    """The names bound by the import statements of `source` that no other
    name in it reads; `from __future__` imports bind none."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_finds_an_unused_import():
    assert unused_imports("import warnings\nimport numpy as np\nnp.sum\n") == {"warnings"}
    assert unused_imports("from a.b import c, d as e\nc\n") == {"e"}
    assert unused_imports("from __future__ import annotations\n") == set()


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_module_imports_only_what_it_uses(name):
    found = unused_imports((SRC / name).read_text(encoding="utf-8"))
    assert found == UNUSED_ON_PURPOSE.get(name, set())
