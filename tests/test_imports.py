"""Every name a package module or script imports is used or exported."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*ROOT.glob("src/hallcanon/*.py"), *ROOT.glob("scripts/*.py")])


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads.

    A name counts as read when it occurs as an identifier anywhere in the
    module or is listed in ``__all__``; ``__future__`` imports are exempt.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_unused_import_detector():
    src = "from __future__ import annotations\nimport os, sys\nfrom a import b, c as d\n"
    src += "__all__ = ['b']\nprint(sys.argv)\n"
    assert unused_imports(src) == [(2, "os"), (3, "d")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
