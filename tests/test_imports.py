"""Offline lint: every module-level import in ``src/fedkit`` is used.

An import that is kept on purpose (a name other modules or tools look up on
this module) carries ``# noqa: F401`` on its line.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fedkit"
MODULES = sorted(SRC.glob("*.py"))


def _module_imports(body):
    """(bound name, line) of each import at module level, including under if/try."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            yield from _module_imports(node.body)
            yield from _module_imports(node.orelse)
            for handler in getattr(node, "handlers", ()):
                yield from _module_imports(handler.body)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [
        (name, line)
        for name, line in _module_imports(tree.body)
        if name not in used and "noqa: F401" not in lines[line - 1]
    ]


def test_modules_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from dataclasses import dataclass, field\n"
        "from typing import (\n"
        "    Optional,  # noqa: F401\n"
        "    Union,\n"
        ")\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    json = None\n"
        "@dataclass\n"
        "class A:\n"
        "    x: Union[int, str] = 0\n"
        "def f():\n"
        "    return os.getcwd()\n"
    )
    assert unused_imports(source) == [("osp", 3), ("field", 4), ("json", 10)]
