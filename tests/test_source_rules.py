"""Rules about the source tree itself, checked by parsing it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blochjac"


def _library_table_names():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Library layout", 1)[1].split("\n\n", 2)[1]
    return set(re.findall(r"`([^`]+)`", table))


def _used_names(node):
    """Names a syntax tree reads, as bare names or as attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_no_src_definition_exists_only_for_tests():
    # every module-level def or class is used in src outside its own
    # definition, or is named in the README library table, or is a fixture
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    statements = [(name, stmt) for name, tree in trees.items() for stmt in tree.body]
    used_by = [(name, stmt, _used_names(stmt)) for name, stmt in statements]
    documented = _library_table_names()
    unused = []
    for module, stmt in statements:
        if module == "fixtures.py" or not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if stmt.name in documented:
            continue
        if not any(stmt.name in names for _, other, names in used_by if other is not stmt):
            unused.append(f"{module}:{stmt.name}")
    assert unused == []
