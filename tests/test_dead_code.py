"""Every top-level function, class, table and constant of the package earns
its keep: it is used by the package, the scripts or the benchmark, or exported
from ``solitonlab/__init__.py`` (a key of its ``_EXPORTS`` table).  A wrapper
that only tests call, or a table that only tests read, fails here.  So does a
method of a top-level class that the package, the scripts and the benchmark
never read as an attribute, unless it overrides a base class's method."""

import ast
import importlib
from pathlib import Path

import solitonlab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "solitonlab"


def _names_used(tree: ast.AST) -> set:
    """Names a module reads: bare names, attributes and the names it imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _sources():
    for folder in ("src", "scripts", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            yield ast.parse(path.read_text(), str(path))


def _assigned_names(node: ast.stmt) -> list:
    """The names a top-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def test_every_top_level_definition_is_used_or_exported():
    used = set(solitonlab._EXPORTS)
    for tree in _sources():
        used |= _names_used(tree)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("__") and node.name not in used:
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "defined but used nowhere outside tests: " + ", ".join(unused)


def test_every_top_level_assignment_is_read_or_exported():
    read = set()
    for tree in _sources():
        read |= {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    exported = set(solitonlab._EXPORTS)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                unread += [f"{path.name}:{node.lineno} {name}" for name in _assigned_names(node)
                           if not name.startswith("__") and name not in read | exported]
    assert not unread, "assigned but read nowhere outside tests: " + ", ".join(unread)


def test_every_method_is_read_or_overrides_a_base_method():
    read = set()
    for tree in _sources():
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem.startswith("__"):
            continue
        module = importlib.import_module(f"solitonlab.{path.stem}")
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = getattr(module, node.name).__mro__[1:]
            unread += [f"{path.name}:{f.lineno} {node.name}.{f.name}" for f in node.body
                       if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not f.name.startswith("__") and f.name not in read
                       and not any(hasattr(base, f.name) for base in bases)]
    assert not unread, "methods read nowhere outside tests: " + ", ".join(unread)
