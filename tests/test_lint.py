"""Source checks that need no linter: every import in the library is used, no
method only reads a field that callers can read themselves, no library code
branches on an algorithm's name or leaser class, and every file the library,
scripts and tests open as text is opened with an explicit encoding."""

import ast
from pathlib import Path
from typing import List, Set

import leaselab
from leaselab.harness import ALGORITHMS

SOURCES = sorted(Path(leaselab.__file__).parent.glob("*.py"))
SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


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
    found = [f"{path.name}:{entry}" for path in SOURCES for entry in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def _reads_self_field(expr: ast.expr, params: Set[str]) -> bool:
    """self.f, self.f[param] or self.f[param].g."""
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Subscript):
        expr = expr.value
    if isinstance(expr, ast.Subscript):
        if not (isinstance(expr.slice, ast.Name) and expr.slice.id in params):
            return False
        expr = expr.value
    return isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) and expr.value.id == "self"


def field_wrappers(source: str) -> List[str]:
    """'Class.method' for each method whose body, docstring aside, returns self.f,
    self.f[param], self.f[param].g or range(self.f); dunders and properties are exempt."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("__"):
                continue
            decorators = {getattr(d, "id", getattr(d, "attr", None)) for d in fn.decorator_list}
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            if decorators & {"property", "cached_property"} or len(body) != 1:
                continue
            if not isinstance(body[0], ast.Return):
                continue
            value, params = body[0].value, {a.arg for a in fn.args.args[1:]}
            is_range = isinstance(value, ast.Call) and getattr(value.func, "id", None) == "range"
            if is_range and len(value.args) == 1:
                value, params = value.args[0], set()
            if _reads_self_field(value, params):
                found.append(f"{cls.name}.{fn.name}")
    return found


def test_field_wrappers_finds_only_the_plain_reads():
    source = """
class A:
    def a(self):
        \"\"\"Doc.\"\"\"
        return self.x
    def b(self, i):
        return self.x[i]
    def c(self, i):
        return self.x[i].y
    def d(self):
        return range(self.n)
    def e(self, i):
        return self.x[i + 1]
    def f(self):
        return self.x.total()
    def g(self):
        return self.x[0]
    def __len__(self):
        return self.n
    @property
    def h(self):
        return self.x
    @cached_property
    def k(self):
        return self.x
"""
    assert field_wrappers(source) == ["A.a", "A.b", "A.c", "A.d"]


def test_library_has_no_field_wrapper():
    found = [f"{path.name}:{entry}" for path in SOURCES for entry in field_wrappers(path.read_text(encoding="utf-8"))]
    assert found == []


LEASER_CLASSES = {"OcdslState", "DualState", "PermitLeaser"}


def algorithm_branches(source: str) -> List[str]:
    """'line: name' for each comparison of a string with an algorithm name, also inside a
    tuple, list or set it is compared against, and for each isinstance() against a leaser
    class: the library reads an algorithm's variant and parts from its ALGORITHMS row."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                parts = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
                for part in parts:
                    if isinstance(part, ast.Constant) and part.value in ALGORITHMS:
                        found.append(f"{node.lineno}: {part.value}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            for part in ast.walk(node.args[1]):
                name = getattr(part, "id", getattr(part, "attr", None))
                if isinstance(part, (ast.Name, ast.Attribute)) and name in LEASER_CLASSES:
                    found.append(f"{node.lineno}: {name}")
    return found


def test_algorithm_branches_finds_only_name_tests_and_leaser_class_tests():
    source = """
if algorithm == "pp": pass
if "ocdsl" != name: pass
if name in ("odsl-rr", "x"): pass
if mode == "cds": pass
if isinstance(state, OcdslState): pass
if isinstance(state, (int, primal_dual.DualState)): pass
if isinstance(state, PermitState): pass
row = ALGORITHMS["pp"]
"""
    assert algorithm_branches(source) == [
        "2: pp", "3: ocdsl", "4: odsl-rr", "6: OcdslState", "7: DualState"
    ]


def test_library_has_no_algorithm_branch():
    found = [f"{path.name}:{entry}" for path in SOURCES for entry in algorithm_branches(path.read_text(encoding="utf-8"))]
    assert found == []


TEXT_OPENERS = ("open", "read_text", "write_text")


def calls_without_encoding(source: str) -> List[str]:
    """'line: name' for each open(), .open(), .read_text() or .write_text() call that
    passes no encoding=, so the text's encoding would follow the locale. Binary files
    go through read_bytes() and write_bytes()."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in TEXT_OPENERS and "encoding" not in {kw.arg for kw in node.keywords}:
                found.append(f"{node.lineno}: {name}")
    return found


def test_calls_without_encoding_finds_only_the_locale_dependent_calls():
    source = """
open(a)
open(a, "w", encoding="utf-8")
p.open()
p.open(encoding="utf-8")
p.read_text()
p.read_text(encoding="utf-8")
p.write_text(s)
p.write_text(s, encoding="utf-8")
p.read_bytes()
p.write_bytes(b)
reopen(a)
"""
    assert calls_without_encoding(source) == ["2: open", "4: open", "6: read_text", "8: write_text"]


def test_library_and_scripts_open_text_with_an_explicit_encoding():
    assert SCRIPTS and TESTS
    found = [
        f"{path.parent.name}/{path.name}:{entry}"
        for path in SOURCES + SCRIPTS + TESTS
        for entry in calls_without_encoding(path.read_text(encoding="utf-8"))
    ]
    assert found == []
