"""Tests for the package namespace."""

import inspect

import ilvseq


def test_all_lists_every_public_name():
    # ``__init__`` keeps its imports and ``__all__`` in sync by hand.
    bound = {
        name for name, obj in vars(ilvseq).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert sorted(ilvseq.__all__) == sorted(set(ilvseq.__all__))
    assert set(ilvseq.__all__) == bound
