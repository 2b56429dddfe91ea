"""Source hygiene a linter would check.  No linter runs in CI, so Tier-1
checks it with the stdlib parser."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "pedacc").glob("*.py"))
# __init__.py imports names to re-export them, not to read them
SOURCES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read]


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport json as js\n"
              "from a import b, c as d\n"
              "b = 1\nprint(os.sep, d)\n")
    assert unread_imports(source) == ["line 3: js", "line 4: b"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def local_imports(source: str) -> list[str]:
    """The imports `source` makes inside a function, with their lines."""
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if in_function and isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append(f"line {child.lineno}")
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse(source), False)
    return found


def test_local_imports_are_found():
    source = ("import os\n"
              "def f():\n    def g():\n        from a import b\n    return os\n")
    assert local_imports(source) == ["line 4"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_the_package_imports_at_module_level(path):
    # a function-local import works round a circular import between modules
    assert local_imports(path.read_text(encoding="utf-8")) == []
