"""Tests for exhaustive enumeration, backtracking, and the census helpers."""

import itertools

import pytest

import ilvseq.search as search_mod
from ilvseq import (
    BudgetExceededError,
    SearchOutcome,
    CONDITIONS,
    SearchSpec,
    ShiftSequence,
    backtrack,
    enumerate_space,
    find_B_not_A,
    run_search,
    sample_random,
    verify_open_nonexistence,
)


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(1, "A")
    with pytest.raises(ValueError):
        SearchSpec(3, "A", limit=-1)
    with pytest.raises(ValueError):
        SearchSpec(3, "A", strategy="sideways")


def test_unknown_predicate_name():
    with pytest.raises(ValueError):
        enumerate_space(SearchSpec(3, "shiny"))


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(search_mod, "BUDGET_MAX_V", 3)
    with pytest.raises(BudgetExceededError):
        enumerate_space(SearchSpec(4, "A"))
    with pytest.raises(BudgetExceededError):
        backtrack(SearchSpec(4, "A", strategy="backtrack"))
    forced = enumerate_space(SearchSpec(4, "A", force=True))
    assert forced.examined == 4**3


def test_enumerate_v3_distinctness_census():
    out = enumerate_space(SearchSpec(3, "A"))
    assert out.examined == 3**2
    assert out.satisfying == 6
    assert out.exhaustive
    assert out.witnesses == ()  # limit=0 counts only


def test_enumerate_witness_collection_and_order():
    out = enumerate_space(SearchSpec(3, "A", limit=10))
    assert len(out.witnesses) == 6
    assert out.exhaustive  # limit above the hit count consumes the space
    assert out.witnesses[0].entries == (0, 0, 1)
    assert [w.entries for w in out.witnesses] == sorted(w.entries for w in out.witnesses)


def test_enumerate_early_stop():
    out = enumerate_space(SearchSpec(3, "A", limit=2))
    assert len(out.witnesses) == 2
    assert out.satisfying == 2
    assert not out.exhaustive
    assert out.examined < 9


def test_enumerate_unnormalized_counts_translations():
    out = enumerate_space(SearchSpec(3, "A", normalize=False))
    assert out.examined == 27
    assert out.satisfying == 18  # 6 classes times 3 translations


def test_enumerate_callable_predicate():
    out = enumerate_space(SearchSpec(3, lambda ent: True))
    assert out.satisfying == 9


def test_v3_multiplicity_without_distinctness():
    out = enumerate_space(SearchSpec(3, "B-not-A", limit=10))
    assert out.satisfying == 3
    assert [w.entries for w in out.witnesses] == [(0, 0, 0), (0, 1, 2), (0, 2, 1)]


def test_v2_completeness_witnesses():
    out = enumerate_space(SearchSpec(2, "open", limit=5))
    assert out.satisfying == 2
    assert [w.entries for w in out.witnesses] == [(0, 0), (0, 1)]


def _reference_hits(v, pred, normalize):
    # Per-candidate oracle: lexicographic product and the scalar verdict.
    a, b, complete = (CONDITIONS[c].holds for c in ("A", "B", "OPEN"))
    fn = {"A": a, "B": b, "B-not-A": lambda e: b(e) and not a(e), "OPEN": complete}[pred]
    space = itertools.product(range(v), repeat=v - normalize)
    return [(n, (0,) * normalize + tail) for n, tail in enumerate(space, 1)
            if fn((0,) * normalize + tail)]


def test_block_enumeration_matches_per_candidate_reference(monkeypatch):
    v = 6
    block = v ** max(L for L in range(1, v) if v**L <= search_mod.BLOCK_ROWS)
    interval = 1000
    assert interval % block and block % interval
    monkeypatch.setattr(search_mod, "PROGRESS_INTERVAL", interval)
    for normalize in (True, False):
        size = v ** (v - normalize)
        for pred in ("A", "B", "B-not-A", "OPEN"):
            hits = _reference_hits(v, pred, normalize)
            # The first hit past the first block that is not a block's last row.
            stops = [k for k, (n, _) in enumerate(hits, 1) if n > block and n % block]
            for limit in [0, 10**9] + stops[:1]:
                ticks = []
                out = enumerate_space(
                    SearchSpec(v, pred, normalize=normalize, limit=limit), progress=ticks.append
                )
                kept = hits[:limit] if limit else []
                examined = kept[-1][0] if 0 < limit <= len(hits) else size
                assert [w.entries for w in out.witnesses] == [e for _, e in kept]
                assert out.examined == examined
                assert out.satisfying == (len(kept) if 0 < limit <= len(hits) else len(hits))
                assert out.exhaustive == (examined == size)
                assert ticks == list(range(interval, examined + 1, interval))
            if pred != "OPEN":
                assert stops, "a limit must stop inside a later block"


def test_backtrack_agrees_with_enumeration():
    cases = [(v, True) for v in (2, 3, 4, 5)] + [(v, False) for v in (2, 3, 4)]
    for v, normalize in cases:
        for pred in ("A", "B", "B-not-A", "open"):
            full = enumerate_space(SearchSpec(v, pred, normalize=normalize, limit=10**6))
            pruned = backtrack(
                SearchSpec(v, pred, normalize=normalize, limit=10**6, strategy="backtrack")
            )
            assert pruned.satisfying == full.satisfying
            assert pruned.witnesses == full.witnesses


def test_normalized_witnesses_represent_all_translates():
    from ilvseq import condition_b_holds, condition_a_holds

    v = 4
    pred = "B-not-A"
    normalized = enumerate_space(SearchSpec(v, pred, limit=10**6))
    # Every translate of every witness satisfies the predicate too.
    for w in normalized.witnesses:
        for c in range(v):
            moved = tuple((x + c) % v for x in w.entries)
            assert condition_b_holds(moved) and not condition_a_holds(moved)
    # And the unnormalized census is exactly v copies of the normalized one.
    unnormalized = enumerate_space(SearchSpec(v, pred, normalize=False))
    assert unnormalized.satisfying == v * normalized.satisfying


def test_backtrack_v7_completeness_frozen_counts():
    out = backtrack(SearchSpec(7, "open", strategy="backtrack"))
    assert out.satisfying == 0
    assert out.examined == 6132
    assert out.exhaustive


def test_backtrack_requires_named_predicate():
    with pytest.raises(ValueError):
        backtrack(SearchSpec(3, lambda ent: True, strategy="backtrack"))


def test_backtrack_first_witness_v7():
    out = find_B_not_A(7, limit=1)
    assert out.witnesses[0].entries == (0, 0, 0, 1, 0, 2, 3)
    assert out.examined == 12
    assert not out.exhaustive


def test_run_search_dispatch():
    spec = SearchSpec(3, "A", strategy="backtrack")
    assert run_search(spec).satisfying == 6
    assert run_search(SearchSpec(3, "A")).examined == 9


def test_progress_callback(monkeypatch):
    monkeypatch.setattr(search_mod, "PROGRESS_INTERVAL", 16)
    ticks = []
    enumerate_space(SearchSpec(4, "A"), progress=ticks.append)
    assert ticks == [16, 32, 48, 64]
    ticks.clear()
    backtrack(SearchSpec(4, "A", strategy="backtrack"), progress=ticks.append)
    assert all(t % 16 == 0 for t in ticks)


def test_verify_open_nonexistence_table():
    table = verify_open_nonexistence(4)
    assert sorted(table) == [2, 3, 4]
    two = table[2]
    assert two.exists
    assert [w.entries for w in two.witnesses] == [(0, 0), (0, 1)]
    assert two.witness.entries == (0, 0)
    assert two.examined == 2
    for v in (3, 4):
        entry = table[v]
        assert not entry.exists
        assert entry.witnesses == ()
        assert entry.witness is None
        assert entry.examined == v ** (v - 1)
        assert entry.exhaustive
    with pytest.raises(ValueError):
        verify_open_nonexistence(1)


def test_sample_random_deterministic():
    one = sample_random(7, "B", 200, seed=42, limit=5)
    two = sample_random(7, "B", 200, seed=42, limit=5)
    assert one == two
    other = sample_random(7, "B", 200, seed=43, limit=5)
    assert isinstance(other, SearchOutcome)
    assert one.examined == 200
    assert not one.exhaustive
    assert len(one.witnesses) <= 5
    assert [w.entries for w in one.witnesses] == sorted(w.entries for w in one.witnesses)


def test_sample_random_hits_are_real():
    out = sample_random(5, "A", 300, seed=0, limit=300)
    from ilvseq import condition_a_holds

    assert out.satisfying >= len(out.witnesses) > 0
    for w in out.witnesses:
        assert condition_a_holds(w.entries)
        assert w.entries[0] == 0


def test_sample_random_validation():
    with pytest.raises(ValueError):
        sample_random(3, "A", 0)
    with pytest.raises(ValueError):
        sample_random(1, "A", 10)
    with pytest.raises(ValueError, match="limit must be nonnegative"):
        sample_random(5, "B", 50, limit=-1)
