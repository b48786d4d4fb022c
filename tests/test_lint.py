"""Source checks that need no linter: every import in the library is used, no
method only reads a field or calls a field's method, which callers can do themselves,
no library code branches on an algorithm's name or leaser class, every leaser keeps its graph,
catalog, ledger, request rule and purchase price on the one ``OnlineLeaser``
base, only ``harness.run_algorithm`` serves requests, and every file the
library, scripts and tests open as text is opened with an explicit encoding."""

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

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
    self.f[param], self.f[param].g, range(self.f) or a call of a method of self.f, such as
    self.f.g(...); dunders and properties are exempt."""
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
            func = value.func if isinstance(value, ast.Call) else None
            if getattr(func, "id", None) == "range" and len(value.args) == 1:
                value, params = value.args[0], set()
            elif isinstance(func, ast.Attribute):  # self.f.g(...) asks self.f what callers can ask it
                value, params = func.value, set()
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
    def m(self, u, slots):
        \"\"\"Doc.\"\"\"
        return self.ledger.holds(self.graph.closed[u], slots)
    def n(self, i):
        return self.x[i].total()
    def p(self):
        return self.total() + len(self.x)
    def q(self):
        return self.x.y.total()
    def __len__(self):
        return self.n
    @property
    def h(self):
        return self.x
    @cached_property
    def k(self):
        return self.x
"""
    assert field_wrappers(source) == ["A.a", "A.b", "A.c", "A.d", "A.f", "A.m"]


# perfbench calls it (ROADMAP item 2a drops it together with that call)
FIELD_WRAPPERS_KEPT = {"ocdsl.py:OcdslState.total_cost"}


def test_library_has_no_field_wrapper():
    found = [f"{path.name}:{entry}" for path in SOURCES for entry in field_wrappers(path.read_text(encoding="utf-8"))]
    assert set(found) - FIELD_WRAPPERS_KEPT == set()


LEASER_CLASSES = {"OnlineLeaser", "OcdslState", "DualState", "PermitLeaser"}


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


def scoped_nodes(node: ast.AST, scope: str = "") -> Iterator[Tuple[str, ast.AST]]:
    """Each node below ``node`` with the dotted names of the classes and functions around it."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from scoped_nodes(child, f"{scope}.{child.name}".lstrip(".") if named else scope)


# one place per kind of caller that prices a purchase: an online leaser's (one decision's triplets,
# or the nodes of one path, which are its ``buy`` and ``buy_nodes``), the oracle's and the ledger reader's
PRICE_SITES = {"OnlineLeaser.buy", "OnlineLeaser.buy_nodes", "_offline", "_read_ledger_csv"}


def priced_adds(source: str) -> List[str]:
    """'line: scope' for each .add() call that passes a cost (three positional arguments or
    cost=), and each .add_nodes() call, which always does, outside PRICE_SITES: an online
    leaser buys through OnlineLeaser.buy or OnlineLeaser.buy_nodes."""
    found = []
    for scope, node in scoped_nodes(ast.parse(source)):
        if not isinstance(node, ast.Call) or scope in PRICE_SITES:
            continue
        method = getattr(node.func, "attr", None)
        if method == "add_nodes" or method == "add" and (
            len(node.args) == 3 or "cost" in {kw.arg for kw in node.keywords}
        ):
            found.append(f"{node.lineno}: {scope}")
    return found


def test_priced_adds_finds_only_the_purchases_priced_outside_the_three_sites():
    source = """
class OnlineLeaser:
    def buy(self, tr, t):
        self.ledger.add(tr, step=t, cost=1)
    def buy_nodes(self, nodes, lease, start, t):
        self.ledger.add_nodes(nodes, lease, start, t, 1)
class A(OnlineLeaser):
    def f(self, tr, t):
        self.ledger.add(tr, t, 1)
        self.ledger.add(tr, step=t, cost=2)
        seen.add(tr)
        self.buy(tr, t)
        self.ledger.add_nodes([0, 1], 1, t, t, 1)
        self.ledger.add_nodes(*row)
        self.buy_nodes([0, 1], 1, t, t)
def _offline(ledger, tr):
    ledger.add(tr, step=0, cost=1)
def _read_ledger_csv(ledger, tr):
    def inner():
        ledger.add(tr, 0, 1)
"""
    assert priced_adds(source) == [
        "9: A.f", "10: A.f", "13: A.f", "14: A.f", "20: _read_ledger_csv.inner"
    ]


def test_library_prices_purchases_only_at_the_three_sites():
    found = [f"{path.name}:{entry}" for path in SOURCES for entry in priced_adds(path.read_text(encoding="utf-8"))]
    assert found == []


BASE_FIELDS = {"ledger", "last_time"}
# the base also sets these; classes that are not leasers (OsflState, PermitState) keep their own
LEASER_FIELDS = {"graph", "catalog"}


def base_field_writes(source: str) -> List[str]:
    """'line: scope' for each store to self.ledger or self.last_time outside OnlineLeaser,
    and to self.graph or self.catalog in a class that extends it: the base sets all four,
    so every leaser keeps the request rule, its node range and one ledger."""
    tree = ast.parse(source)
    leasers = {
        cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        and any(getattr(base, "id", getattr(base, "attr", None)) == "OnlineLeaser" for base in cls.bases)
    }
    found = []
    for scope, node in scoped_nodes(tree):
        if (
            isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) == "self" and not scope.startswith("OnlineLeaser.")
            and (node.attr in BASE_FIELDS or node.attr in LEASER_FIELDS and scope.split(".")[0] in leasers)
        ):
            found.append(f"{node.lineno}: {scope}.{node.attr}")
    return found


def test_base_field_writes_finds_only_stores_outside_the_base():
    source = """
class OnlineLeaser:
    def __init__(self, graph):
        self.ledger = {}
        self.last_time: int = 0
        self.graph = graph
class A(OnlineLeaser):
    def __init__(self):
        self.ledger = {}
        self.last_time: int = 0
    def f(self, t):
        self.last_time += 1
        self.ledger[t] = 1
        other.ledger = self.ledger
        self.weights = {}
        self.graph.x = 1
class B(instances.OnlineLeaser):
    def __init__(self, graph, catalog):
        self.graph = graph
        self.catalog: object = catalog
class C:
    def __init__(self, graph, catalog):
        self.graph, self.catalog = graph, catalog
        self.ledger = {}
"""
    assert base_field_writes(source) == [
        "9: A.__init__.ledger", "10: A.__init__.last_time", "12: A.f.last_time",
        "19: B.__init__.graph", "20: B.__init__.catalog", "24: C.__init__.ledger",
    ]


def test_only_the_leaser_base_sets_a_ledger_or_the_last_request_time():
    found = [f"{path.name}:{entry}" for path in SOURCES for entry in base_field_writes(path.read_text(encoding="utf-8"))]
    assert found == []


# the one loop that serves an instance's requests, as "<file>:<scope>"
SERVING_LOOP = "harness.py:run_algorithm"


def serve_request_calls(filename: str, source: str) -> List[str]:
    """'line: scope' for each .serve_request() call outside harness.run_algorithm: every
    request the library serves goes through run_trial's one loop, and so is verified."""
    found = []
    for scope, node in scoped_nodes(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "serve_request":
            if f"{filename}:{scope}" != SERVING_LOOP:
                found.append(f"{node.lineno}: {scope}")
    return found


def test_serve_request_calls_finds_only_the_calls_outside_the_serving_loop():
    source = """
def run_algorithm(state, inst):
    return [state.serve_request(nodes, t) for t, nodes in inst.requests]
def cmd_pp(leaser, rainy):
    for t in rainy:
        leaser.serve_request([0], t)
class A:
    def f(self, t):
        serve = self.serve_request
        serve_request([0], t)
        return self.serve_request([0], t)
"""
    assert serve_request_calls("harness.py", source) == ["6: cmd_pp", "11: A.f"]
    assert serve_request_calls("cli.py", source) == ["3: run_algorithm", "6: cmd_pp", "11: A.f"]


def test_only_run_algorithm_serves_requests():
    found = [
        f"{path.name}:{entry}" for path in SOURCES
        for entry in serve_request_calls(path.name, path.read_text(encoding="utf-8"))
    ]
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
