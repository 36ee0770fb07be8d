"""Tests for the package namespace."""

import ast
import inspect
from collections import Counter
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


def _defined_names(node):
    # The names a top-level statement binds.
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _reads(tree):
    # Every name a tree reads, by bare name or as an attribute.
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_module_defines_an_unread_private_name():
    # A deletion can leave a private helper without callers; a top-level
    # name with one leading underscore must be read somewhere in the
    # package other than inside its own definition.
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(ilvseq.__file__).parent.glob("*.py"))
    }
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined_names(node):
                own = sum(1 for read in _reads(node) if read == name)
                if name.startswith("_") and not name.startswith("__") and reads[name] == own:
                    unread.append(f"{module}:{node.lineno} {name}")
    assert unread == []


def test_interleaving_reads_one_private_name_of_correlation():
    # The column identity is the engine's: interleaving reads it through
    # _identity_grid, and no other helper of correlation.
    tree = ast.parse(Path(ilvseq.interleaving.__file__).read_text())
    imported = [
        alias.name for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "correlation" and node.level == 1
        for alias in node.names
    ]
    assert [name for name in imported if name.startswith("_")] == ["_identity_grid"]


def test_condition_reports_use_no_fast_path():
    # The reports are the oracle that the block verdicts and the search are
    # tested against, so they compute without numpy and the block verdict:
    # the count table, the rows and profiles built from the entries, the
    # reports and every method of their lazily built checks.
    tree = ast.parse(Path(ilvseq.conditions.__file__).read_text())
    names = ("_count_table", "_row", "_profile", "_check")
    bodies = {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in names
    }
    assert sorted(bodies) == sorted(names)
    classes = {
        node.name: node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ShiftChecks"
    }
    assert sorted(classes) == ["ShiftChecks"]
    methods = {
        f"{cls.name}.{node.name}": node
        for cls in classes.values() for node in cls.body if isinstance(node, ast.FunctionDef)
    }
    assert {"ShiftChecks._tuple", "ShiftChecks.__getitem__", "ShiftChecks.__len__"} <= set(methods)
    bodies.update(methods)
    for name, body in bodies.items():
        read = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
        read |= {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
        assert not read & {"np", "holds_rows"}, name
