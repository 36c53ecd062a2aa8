"""Source hygiene: every name a module of the package imports is used in it,
and one module owns switching the cyclic garbage collector.

A re-export counts as a use when the module lists the name in `__all__`."""
import ast
import pathlib

import pytest

import nakasim

PACKAGE = pathlib.Path(nakasim.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def names_in(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def annotations_of(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.arg):
        return [node.annotation] if node.annotation else []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = names_in(tree)
    for node in ast.walk(tree):
        # a quoted annotation uses the names inside its string
        for ann in annotations_of(node):
            for part in ast.walk(ann):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= names_in(ast.parse(part.value, mode="eval"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import math\n"
              "from typing import Callable as C, Optional\n"
              "from typing import Iterable, Sequence\n"
              "x: Optional[int] = math.pi\n"
              "def f(a: 'Iterable[int]') -> \"list[Sequence]\": pass\n")
    assert unused_imports(source) == ["line 4: C", "line 2: os"]


# trace.collector_paused is the one place that switches the collector
GC_SWITCHES = {"enable", "disable"}


def gc_switches(source: str) -> list[str]:
    """Lines that turn the cyclic collector on or off: `gc.enable`,
    `gc.disable`, or either imported from `gc`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in GC_SWITCHES
                and isinstance(node.value, ast.Name) and node.value.id == "gc"):
            out.append(f"line {node.lineno}: gc.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            out += [f"line {node.lineno}: from gc import {alias.name}"
                    for alias in node.names if alias.name in GC_SWITCHES]
    return out


def test_only_the_trace_module_switches_the_collector():
    switching = {path.name for path in MODULES
                 if gc_switches(path.read_text(encoding="utf-8"))}
    assert switching == {"trace.py"}


def test_the_check_sees_collector_switches():
    source = ("import gc\n"
              "from gc import disable as off, collect\n"
              "gc.isenabled()\n"
              "gc.enable()\n")
    assert gc_switches(source) == ["line 2: from gc import disable",
                                   "line 4: gc.enable"]
