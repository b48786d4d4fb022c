"""Source checks that need no linter: every import in the library is used."""

import ast
from pathlib import Path
from typing import List, Set

import leaselab

SOURCES = sorted(Path(leaselab.__file__).parent.glob("*.py"))


def read_names(tree: ast.AST) -> Set[str]:
    """Every name the code reads, also inside string annotations such as -> "Instance"."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= read_names(ast.parse(part.value, mode="eval"))
    return names


def unused_imports(source: str) -> List[str]:
    """'line: name' for each name an import binds that the module never reads."""
    tree = ast.parse(source)
    used, unused = read_names(tree), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{node.lineno}: {bound}")
    return unused


def test_unused_imports_finds_only_the_unread_name():
    source = "from __future__ import annotations\nimport os, os.path as p\nfrom fractions import Fraction\n"
    assert unused_imports(source + "def f() -> 'Fraction':\n    return p\n") == ["2: os"]


def test_library_has_no_unused_import():
    assert SOURCES
    found = [f"{path.name}:{entry}" for path in SOURCES for entry in unused_imports(path.read_text())]
    assert found == []
