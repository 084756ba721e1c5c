"""Every top-level function and class of the package earns its keep: it is
used by the package, the scripts or the benchmark, or exported from
``solitonlab/__init__.py``.  A wrapper that only tests call fails here."""

import ast
from pathlib import Path

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


def test_every_top_level_definition_is_used_or_exported():
    used = set()
    for folder in ("src", "scripts", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            used |= _names_used(ast.parse(path.read_text(), str(path)))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name not in used:
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "defined but used nowhere outside tests: " + ", ".join(unused)
