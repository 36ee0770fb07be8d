"""Tests for the package namespace."""

import ast
import inspect
from pathlib import Path

import ilvseq


def test_all_lists_every_public_name():
    # ``__init__`` keeps its imports and ``__all__`` in sync by hand.
    bound = {
        name for name, obj in vars(ilvseq).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert sorted(ilvseq.__all__) == sorted(set(ilvseq.__all__))
    assert set(ilvseq.__all__) == bound


def test_no_module_imports_an_unread_name():
    # The project depends on no linter, so dead imports are caught here.
    # ``__init__`` is skipped: it imports only to re-export.
    unread = []
    for path in sorted(Path(ilvseq.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == []
