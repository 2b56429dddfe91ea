"""Source hygiene a linter would check.  No linter runs in CI, so Tier-1
checks it with the stdlib parser."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# __init__.py imports names to re-export them, not to read them
SOURCES = sorted(p for p in [*(ROOT / "src" / "pedacc").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
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
