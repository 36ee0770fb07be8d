"""Tests for the backtracking walk, its "full" sweep, sampling and the census."""

import dataclasses
import itertools
import random
import tracemalloc

import numpy as np
import pytest

import ilvseq.conditions as conditions_mod
import ilvseq.search as search_mod
from ilvseq import (
    PRIMITIVE_POLYS,
    BudgetExceededError,
    LfsrSpec,
    PeriodicSequence,
    SearchOutcome,
    CONDITIONS,
    SearchSpec,
    ShiftSequence,
    backtrack,
    build_signal_set,
    check_condition_A,
    check_condition_B,
    check_condition_open,
    gen_mseq,
    is_two_level,
    sample_random,
    signal_set_delta,
    twisted_rotation,
    verify_open_nonexistence,
)
from search_oracle import finite_term_open, reference_hits


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(1, "A")
    with pytest.raises(ValueError):
        SearchSpec(3, "A", limit=-1)
    with pytest.raises(ValueError):
        SearchSpec(3, "A", strategy="sideways")
    # Every search is normalized: the constant stays readable, the option is gone.
    assert SearchSpec(3, "A").normalize is True
    with pytest.raises(TypeError):
        SearchSpec(3, "A", normalize=False)


def test_unknown_predicate_name():
    # Rejected when the spec is built, before any search or sample starts.
    for name in ("shiny", "b-not-b", None):
        with pytest.raises(ValueError, match="unknown predicate"):
            SearchSpec(3, name)
    with pytest.raises(ValueError, match="unknown predicate"):
        sample_random(3, "shiny", 10)
    assert SearchSpec(3, "b-NOT-a").predicate == "b-NOT-a"


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(search_mod, "BUDGET_MAX_V", 3)
    with pytest.raises(BudgetExceededError):
        backtrack(SearchSpec(4, "A"))
    with pytest.raises(BudgetExceededError):
        backtrack(SearchSpec(4, "A", strategy="backtrack"))
    forced = backtrack(SearchSpec(4, "A", force=True))
    assert forced.examined == 4**3
    assert forced.satisfying == len(reference_hits(4, "A"))


def test_enumerate_v3_distinctness_census():
    out = backtrack(SearchSpec(3, "A"))
    assert out.examined == 3**2
    assert out.satisfying == 6 == len(reference_hits(3, "A"))
    assert out.exhaustive
    assert out.witnesses == ()  # limit=0 counts only


def test_enumerate_witness_collection_and_order():
    out = backtrack(SearchSpec(3, "A", limit=10))
    assert [w.entries for w in out.witnesses] == [e for _, e in reference_hits(3, "A")]
    assert len(out.witnesses) == 6
    assert out.exhaustive  # limit above the hit count consumes the space
    assert out.witnesses[0].entries == (0, 0, 1)
    assert [w.entries for w in out.witnesses] == sorted(w.entries for w in out.witnesses)


def test_enumerate_early_stop():
    out = backtrack(SearchSpec(3, "A", limit=2))
    assert len(out.witnesses) == 2
    assert out.satisfying == 2
    assert not out.exhaustive
    assert out.examined == reference_hits(3, "A")[1][0] < 9


def test_enumerate_unnormalized_counts_translations():
    # The 18 A-vectors of all Z_3^3 are the 6 normalized witnesses' translates.
    out = backtrack(SearchSpec(3, "A", limit=10))
    translates = {tuple((x + c) % 3 for x in w.entries) for w in out.witnesses for c in range(3)}
    every = itertools.product(range(3), repeat=3)
    assert translates == {e for e in every if check_condition_A(ShiftSequence(e)).verdict}
    assert len(translates) == 3 * out.satisfying == 18


def test_v3_multiplicity_without_distinctness():
    out = backtrack(SearchSpec(3, "B-not-A", limit=10))
    assert out.satisfying == 3
    assert [w.entries for w in out.witnesses] == [(0, 0, 0), (0, 1, 2), (0, 2, 1)]
    assert [e for _, e in reference_hits(3, "B-not-A")] == [(0, 0, 0), (0, 1, 2), (0, 2, 1)]


def test_v2_completeness_witnesses():
    out = backtrack(SearchSpec(2, "open", limit=5))
    assert out.satisfying == 2
    assert [w.entries for w in out.witnesses] == [(0, 0), (0, 1)]
    assert [e for _, e in reference_hits(2, "OPEN")] == [(0, 0), (0, 1)]


def test_block_enumeration_matches_per_candidate_reference(monkeypatch):
    # The "full" sweep against the enumeration oracle: witnesses in order,
    # ``examined`` the rank of the limit-th hit plus one (the whole space
    # when the limit is not met), and a tick at every multiple of the
    # interval up to it. 1000 divides no power of v, so ticks fall inside
    # blocks; the limits stop at the first hits, the 1000th, one in the
    # middle and the last one. Keeping a quarter million witnesses takes
    # seconds, so at v = 8 no run keeps more than 2000.
    interval = 1000
    monkeypatch.setattr(search_mod, "PROGRESS_INTERVAL", interval)
    for v in (6, 8):
        size = v ** (v - 1)
        for pred in ("A", "B", "B-not-A", "OPEN"):
            hits = reference_hits(v, pred)
            limits = {0, 1, 7, 1000, max(1, len(hits) // 2), max(1, len(hits)), 10**9}
            for limit in sorted(k for k in limits if v < 8 or min(k, len(hits)) <= 2000):
                ticks = []
                out = backtrack(SearchSpec(v, pred, limit=limit), progress=ticks.append)
                kept = hits[:limit] if limit else []
                examined = kept[-1][0] if 0 < limit <= len(hits) else size
                assert [w.entries for w in out.witnesses] == [e for _, e in kept]
                assert out.examined == examined
                assert out.satisfying == (len(kept) if 0 < limit <= len(hits) else len(hits))
                assert out.exhaustive == (examined == size)
                assert out.nodes_by_depth == ()
                assert ticks == list(range(interval, examined + 1, interval))


def test_backtrack_agrees_with_enumeration():
    # Both strategies find the enumeration oracle's witnesses, in its order.
    for v in (2, 3, 4, 5):
        for pred in ("A", "B", "B-not-A", "open"):
            want = [e for _, e in reference_hits(v, pred)]
            for strategy in ("full", "backtrack"):
                spec = SearchSpec(v, pred, limit=10**6, strategy=strategy)
                out = backtrack(spec)
                assert out.satisfying == len(want)
                assert [w.entries for w in out.witnesses] == want


def test_normalized_witnesses_represent_all_translates():
    v = 4
    pred = "B-not-A"
    normalized = backtrack(SearchSpec(v, pred, limit=10**6))
    assert [w.entries for w in normalized.witnesses] == [e for _, e in reference_hits(v, pred)]
    # Every translate of every witness satisfies the predicate too.
    for w in normalized.witnesses:
        for c in range(v):
            moved = ShiftSequence(tuple((x + c) % v for x in w.entries))
            assert check_condition_B(moved).verdict and not check_condition_A(moved).verdict
    # And the census of all Z_v^v is exactly v copies of the normalized one.
    every = [ShiftSequence(e) for e in itertools.product(range(v), repeat=v)]
    hits = [e for e in every if check_condition_B(e).verdict and not check_condition_A(e).verdict]
    assert len(hits) == v * normalized.satisfying


class _StopSearch(Exception):
    pass


def _terms(v, extended):
    # The difference terms by definition, shift by shift: term j of shift s
    # is e_i - e_k - t mod v with i = j, k = (j + s) mod v and t = [k < i],
    # for j in [0, v) extended and in [0, v - s) unextended.
    for s in range(1, v):
        for i in range(v if extended else v - s):
            k = (i + s) % v
            yield s, i, k, int(k < i)


def _reference_backtrack(spec, progress=None, firsts=None):
    """The scalar depth-first walk, one node at a time: the oracle of the
    block walk's witnesses, node counts and progress ticks. ``firsts``, if
    given, gets the count on reaching each first child (entry 0)."""
    name = search_mod._resolve_predicate(spec)
    v = spec.v
    limit = spec.limit
    b_not_a = name == "B-not-A"
    extended, cap = CONDITIONS["B" if b_not_a else name]
    later = [[] for _ in range(v)]
    for s, i, k, t in _terms(v, extended):
        later[max(i, k)].append((s * v, i, k, t))
    counts = [0] * (v * v)
    counts_a = [0] * (v * v)
    a_pairs = 0  # equal pairs among the t = 0 differences of one shift
    entries = [0] * v
    nodes = [0] * v
    witnesses = []
    examined = 0
    satisfying = 0

    def place(m):
        nonlocal examined, satisfying, a_pairs
        terms = later[m]
        last = m == v - 1
        for val in range(v):
            entries[m] = val
            examined += 1
            nodes[m] += 1
            if progress is not None and examined % search_mod.PROGRESS_INTERVAL == 0:
                progress(examined)
            if firsts is not None and val == 0:
                firsts.append(examined)
            added = []
            added_a = []
            for base, i, k, t in terms:
                slot = base + (entries[i] - entries[k] - t) % v
                counts[slot] += 1
                added.append(slot)
                if counts[slot] > cap:
                    break
                if b_not_a and not t:
                    a_pairs += counts_a[slot]
                    counts_a[slot] += 1
                    added_a.append(slot)
            else:
                if not last:
                    place(m + 1)
                elif not b_not_a or a_pairs:
                    ent = tuple(entries)
                    if name == "OPEN":
                        search_mod._crosscheck_open_hit(ent)
                    satisfying += 1
                    if limit:
                        witnesses.append(ShiftSequence(ent))
                        if len(witnesses) >= limit:
                            raise _StopSearch
            for slot in added:
                counts[slot] -= 1
            for slot in added_a:
                counts_a[slot] -= 1
                a_pairs -= counts_a[slot]

    exhaustive = True
    try:
        place(1)  # e_0 stays 0
    except _StopSearch:
        exhaustive = False
    return SearchOutcome(tuple(witnesses), examined, satisfying, exhaustive, tuple(nodes[1:]))


_REFERENCE = {}


def _reference_run(v, pred, limit):
    # Cached oracle outcome and ticks. An exhaustive run with limit 0 is the
    # limit-10^9 run without its witnesses, so only the latter is walked.
    key = (v, pred, min(limit or 10**9, 10**9), search_mod.PROGRESS_INTERVAL)
    if key not in _REFERENCE:
        ticks = []
        spec = SearchSpec(v, pred, limit=key[2], strategy="backtrack")
        _REFERENCE[key] = _reference_backtrack(spec, ticks.append), ticks
    out, ticks = _REFERENCE[key]
    return (dataclasses.replace(out, witnesses=()) if not limit else out), ticks


_BLOCK_CASES = [(v, rows) for v in range(2, 7) for rows in (8, 64)] + [(7, 64), (7, 4096)]


# "-True-" in an id marks the normalized walk (e_0 = 0), the only one there is.
@pytest.mark.parametrize(
    "v, rows, word",
    [pytest.param(v, rows, None, id=f"{v}-True-{rows}") for v, rows in _BLOCK_CASES]
    + [
        pytest.param(v, 64, word, id=f"{v}-True-64-{word.__name__}")
        for v in range(2, 7)
        for word in (np.uint16, np.uint32, np.uint64)
    ],
)
def test_block_backtrack_matches_depth_first_reference(monkeypatch, v, rows, word):
    # Small blocks make limit stops land inside a block and after several;
    # with 8 rows and v >= 5 a block holds one parent. Larger v runs only the
    # larger blocks, since the one-parent walk of v=7 takes half a minute.
    # A wider mask word than v needs must leave every count as it is.
    monkeypatch.setattr(search_mod, "BLOCK_ROWS", rows)
    if word is not None:
        monkeypatch.setattr(search_mod, "_mask_dtype", lambda v: np.dtype(word))
    monkeypatch.setattr(search_mod, "PROGRESS_INTERVAL", 37)
    for pred in ("A", "B", "B-not-A", "OPEN"):
        for limit in (0, 1, 7, 50, 10**9):
            ticks = []
            spec = SearchSpec(v, pred, limit=limit, strategy="backtrack")
            out = backtrack(spec, progress=ticks.append)
            want, want_ticks = _reference_run(v, pred, limit)
            assert out == want, (pred, limit)
            assert out.nodes_by_depth == want.nodes_by_depth, (pred, limit)
            assert sum(out.nodes_by_depth) == out.examined
            assert ticks == want_ticks, (pred, limit)


@pytest.mark.parametrize(
    "v, pred, limit, satisfying, examined",
    [(9, "A", 0, 1998, 372690), (9, "OPEN", 0, 0, 126774)]
    + [(9, pred, limit, limit, None) for pred in ("B", "B-not-A") for limit in (1, 7)]
    + [(13, "A", 1, 1, 6801), (19, "B-not-A", 1, 1, 88), (26, "B-not-A", 1, 1, 27718)],
)
def test_wide_mask_words_match_depth_first_reference(v, pred, limit, satisfying, examined):
    # Real uint16 (v = 9, 13) and uint32 (v = 19, 26) masks, against the
    # scalar walk and the counts that walk gives.
    spec = SearchSpec(v, pred, limit=limit, strategy="backtrack", force=True)
    assert search_mod._mask_dtype(v) == (np.uint16 if v <= 16 else np.uint32)
    ticks, want_ticks = [], []
    out = backtrack(spec, progress=ticks.append)
    want = _reference_backtrack(spec, want_ticks.append)
    assert out == want
    assert out.nodes_by_depth == want.nodes_by_depth
    assert ticks == want_ticks
    assert out.satisfying == satisfying
    assert out.exhaustive == (limit == 0)
    if examined is not None:
        assert out.examined == examined


def test_backtrack_v8_frozen_counts():
    counts = {
        "A": (1600, (8, 64, 448, 2688, 11136, 27648, 32768)),
        "B": (275328, (8, 64, 512, 4032, 30464, 206976, 982272)),
        "B-not-A": (273728, (8, 64, 512, 4032, 30464, 206976, 982272)),
        "OPEN": (0, (8, 64, 448, 2688, 11136, 16640, 2048)),
    }
    for pred, (satisfying, nodes) in counts.items():
        out = backtrack(SearchSpec(8, pred, strategy="backtrack"))
        assert (out.satisfying, out.exhaustive) == (satisfying, True)
        assert out.nodes_by_depth == nodes
        assert out.examined == sum(nodes)
        # The same walk as a "full" sweep covers all 8^7 candidates.
        full = backtrack(SearchSpec(8, pred))
        assert (full.examined, full.satisfying, full.exhaustive) == (8**7, satisfying, True)
        assert full.nodes_by_depth == ()
    assert sum(counts["A"][1]) == 74760 and sum(counts["OPEN"][1]) == 33032
    assert sum(counts["B"][1]) == 1224328


def test_backtrack_v7_and_v9_frozen_counts():
    # Rows v = 7 and 9 of README's "more shift sequences" table (v = 8 above).
    for pred, satisfying in [("A", 672), ("B", 24598), ("B-not-A", 23926)]:
        assert backtrack(SearchSpec(7, pred)).satisfying == satisfying
    a = backtrack(SearchSpec(9, "A", strategy="backtrack", force=True))
    assert (a.satisfying, a.examined, a.exhaustive) == (1998, 372690, True)
    b = backtrack(SearchSpec(9, "B", strategy="backtrack", force=True))
    assert (b.satisfying, b.examined, b.exhaustive) == (2657691, 16272180, True)


def test_first_v15_a_vector_and_its_rotation():
    # v = 15 is not prime, so no quadratic vector exists there; the walk's
    # first A-vector does. It and its twisted rotation, which fails A and
    # passes B, both reach the A bound 2v+3 = 33 on an m-sequence and its
    # reversal.
    out = backtrack(SearchSpec(15, "A", limit=1, strategy="backtrack", force=True))
    e = ShiftSequence((0, 0, 1, 0, 7, 2, 11, 0, 6, 14, 2, 4, 9, 7, 3))
    assert (out.witnesses, out.examined) == ((e,), 282635)
    rotated = twisted_rotation(e)
    assert not check_condition_A(rotated).verdict
    assert check_condition_B(rotated).verdict
    a = gen_mseq(LfsrSpec(4, tuple(int(c) for c in PRIMITIVE_POLYS[4]), (1, 0, 0, 0)))
    b = PeriodicSequence(2, a.values[::-1])
    assert is_two_level(a) and is_two_level(b)
    for vector in (e, rotated):
        report = signal_set_delta(build_signal_set(a, b, vector).members, method="fast")
        assert (report.delta, len(report.witnesses)) == (33, 1920)


def test_mask_dtype_is_the_narrowest_word():
    widths = {2: np.uint8, 8: np.uint8, 9: np.uint16, 16: np.uint16, 17: np.uint32,
              32: np.uint32, 33: np.uint64, 64: np.uint64}
    for v, word in widths.items():
        assert search_mod._mask_dtype(v) == word


def test_runs_cover_the_difference_terms_by_later_index():
    # Expanded term by term, depth m's runs are exactly the terms whose later
    # index is m, as (shift, other column, kind); at every shift they keep
    # the definition's order by j, so the unwrapped term comes first. At most
    # two runs per depth are needed.
    for v in range(2, 65):
        for extended in (False, True):
            want = [[] for _ in range(v)]
            for s, i, k, t in _terms(v, extended):
                want[max(i, k)].append((s, min(i, k), t))
            runs = search_mod._runs(v, extended)
            assert len(runs) == v
            for m, depth in enumerate(runs):
                assert len(depth) <= 2
                got = []
                for t, rows, cols in depth:
                    shifts = range(1, v)[rows]
                    assert len(shifts) == len(range(v)[cols]) > 0
                    got += [(s, c, t) for s, c in zip(shifts, range(v)[cols])]
                # A stable sort by shift keeps each shift's terms in run order.
                assert sorted(got, key=lambda term: term[0]) == want[m]


def test_backtrack_refuses_v_above_64(monkeypatch):
    # One bit per difference: v = 65 is refused before any work, by a
    # "full" sweep as by the node-counting one, since both are the same
    # walk; v = 64 is walked in uint64 words, and sampling takes any v.
    with pytest.raises(ValueError, match="v <= 64"):
        search_mod._mask_dtype(65)
    calls = []
    monkeypatch.setattr(search_mod, "_runs", lambda v, ext: calls.append((v, ext)) or [[]] * v)
    for v in (65, 200):
        for strategy in ("full", "backtrack"):
            with pytest.raises(ValueError, match="v <= 64"):
                backtrack(SearchSpec(v, "A", limit=1, strategy=strategy, force=True))
    assert calls == []
    # With no terms nothing is pruned, so the walk dives straight to its
    # first leaf, the all-zero vector.
    out = backtrack(SearchSpec(64, "A", limit=1, strategy="backtrack", force=True))
    assert calls == [(64, False)]
    assert [w.entries for w in out.witnesses] == [(0,) * 64]
    assert out.nodes_by_depth == (1,) * 63
    monkeypatch.undo()
    assert sample_random(65, "B", 3, seed=1).examined == 3


def _record_verdicts(monkeypatch):
    # Record (condition, block shape) of every block verdict.
    calls = []
    holds_rows = conditions_mod.Condition.holds_rows

    def recorded(self, rows):
        calls.append((self, rows.shape))
        return holds_rows(self, rows)

    monkeypatch.setattr(conditions_mod.Condition, "holds_rows", recorded)
    return calls


def test_sample_random_refuses_v_above_its_bound(monkeypatch):
    # A v past SAMPLE_MAX_V is refused before any draw is judged: the
    # recorded block verdict stays unused. At the bound it judges one row.
    calls = _record_verdicts(monkeypatch)
    bound = search_mod.SAMPLE_MAX_V
    for v in (bound + 1, 100_000):
        for pred in ("A", "B-not-A"):
            with pytest.raises(ValueError, match=f"v <= {bound}"):
                sample_random(v, pred, 1)
    assert calls == []
    assert sample_random(bound, "B", 1).examined == 1
    assert calls == [(CONDITIONS["B"], (1, bound))]


def test_sample_random_blocks_are_bounded_by_entries(monkeypatch):
    # A block holds at most 64 BLOCK_ROWS entries: BLOCK_ROWS rows up to
    # v = 64 and fewer above, so a sample's memory does not grow with v.
    # The 8 MB bound is a third of one 1,024-row block drawn as a Python list.
    calls = _record_verdicts(monkeypatch)
    sample_random(64, "B", 5000)
    sample_random(65, "B", 5000)
    rows = search_mod.BLOCK_ROWS
    assert [shape for _, shape in calls] == [
        (rows, 64), (5000 - rows, 64), (rows * 64 // 65, 65), (5000 - rows * 64 // 65, 65)
    ]
    monkeypatch.undo()
    out, peak = _traced_peak(lambda: sample_random(512, "B", 1024, seed=2))
    assert out.examined == 1024
    assert peak < 8_000_000


def test_backtrack_v7_completeness_frozen_counts():
    out = backtrack(SearchSpec(7, "open", strategy="backtrack"))
    assert out.satisfying == 0
    assert out.examined == 6132
    assert out.exhaustive


def test_backtrack_crosschecks_every_open_hit(monkeypatch):
    seen = []
    monkeypatch.setattr(search_mod, "_crosscheck_open_hit", seen.append)
    out = backtrack(SearchSpec(2, "OPEN", strategy="backtrack"))
    assert out.satisfying == 2
    assert seen == [(0, 0), (0, 1)]


def test_row_dtype_holds_the_modulus():
    # At v = 128 every entry fits int8, but the modulus of the differences
    # does not; a block of that dtype used to raise OverflowError.
    for v in (3, 127, 128, 300):
        rows = np.zeros((1, v), dtype=search_mod._row_dtype(v))
        assert np.iinfo(rows.dtype).max >= v and np.iinfo(rows.dtype).min <= -v
        assert not CONDITIONS["A"].holds_rows(rows)[0]
    assert search_mod._row_dtype(127) == np.int8


def test_backtrack_requires_named_predicate():
    # A callable is no predicate name; the spec refuses it when built.
    with pytest.raises(ValueError, match="unknown predicate"):
        SearchSpec(3, lambda ent: True, strategy="backtrack")


def test_backtrack_first_witness_v7():
    out = backtrack(SearchSpec(7, "B-not-A", limit=1, strategy="backtrack"))
    assert out.witnesses[0].entries == (0, 0, 0, 1, 0, 2, 3)
    assert out.examined == 12
    assert not out.exhaustive


def test_progress_callback(monkeypatch):
    monkeypatch.setattr(search_mod, "PROGRESS_INTERVAL", 16)
    ticks = []
    backtrack(SearchSpec(4, "A"), progress=ticks.append)
    assert ticks == [16, 32, 48, 64]
    ticks.clear()
    out = backtrack(SearchSpec(4, "A", strategy="backtrack"), progress=ticks.append)
    assert ticks == list(range(16, out.examined + 1, 16))


def test_verify_open_nonexistence_table():
    table = verify_open_nonexistence(4)
    assert sorted(table) == [2, 3, 4]
    two = table[2]
    assert two.exists
    assert [w.entries for w in two.witnesses] == [(0, 0), (0, 1)]
    assert two.witnesses[0].entries == (0, 0)
    assert two.examined == 2
    for v in (3, 4):
        entry = table[v]
        assert not entry.exists
        assert entry.witnesses == ()
        assert entry.examined == v ** (v - 1)
        assert entry.exhaustive
    with pytest.raises(ValueError):
        verify_open_nonexistence(1)


def test_verify_open_nonexistence_refuses_before_enumerating(monkeypatch):
    # The census's walker is patched, so a census that did any work before
    # its refusal leaves a call behind.
    calls = []
    monkeypatch.setattr(search_mod, "backtrack", lambda *a, **k: calls.append(a))
    limit = search_mod.BUDGET_MAX_V
    for v_max in (limit + 1, limit + 5):
        with pytest.raises(BudgetExceededError, match=f"v={limit + 1} exceeds"):
            verify_open_nonexistence(v_max)
    # Forced, the census still refuses a period past the walk's 64 bits.
    with pytest.raises(ValueError, match="v <= 64"):
        verify_open_nonexistence(65, force=True)
    assert calls == []


def test_verify_open_nonexistence_matches_enumeration():
    # The census walks by backtracking; the enumeration oracle of every
    # v <= 8 rebuilds the same table, as does the walk's "full" sweep, and
    # ``nodes`` is the walk's node count.
    table = verify_open_nonexistence(8)
    assert sorted(table) == list(range(2, 9))
    for v, entry in table.items():
        size = v ** (v - 1)
        hits = reference_hits(v, "OPEN")
        full = backtrack(SearchSpec(v, "OPEN", limit=size))
        assert full.examined == entry.examined == size
        assert full.exhaustive and entry.exhaustive
        assert [w.entries for w in entry.witnesses] == [e for _, e in hits]
        assert entry.witnesses == full.witnesses
        assert entry.exists == (len(hits) > 0) == (full.satisfying > 0)
        assert entry.nodes == backtrack(SearchSpec(v, "OPEN", strategy="backtrack")).examined
    assert [table[v].nodes for v in table] == [2, 12, 68, 330, 1590, 6132, 33032]


def test_one_infinity_count_matches_brute_force():
    # The census reads the one-∞ count off its walk's last depth; a brute
    # force over the definition counts the same vectors with ∞ last and
    # e_0 = 0 at v <= 7, and at every ∞ position at v <= 5, where all v
    # translates of each normalized hit are counted.
    table = verify_open_nonexistence(8)
    assert [table[v].one_infinity for v in table] == [1, 3, 12, 40, 108, 140, 256]
    for v in range(2, 8):
        tails = itertools.product(range(v), repeat=v - 2)
        hits = sum(finite_term_open((0, *tail, None), v - 1) for tail in tails)
        assert hits == table[v].one_infinity, v
    for v in range(2, 6):
        for p in range(v):
            hits = 0
            for finite in itertools.product(range(v), repeat=v - 1):
                hits += finite_term_open(finite[:p] + (None,) + finite[p:], p)
            assert hits == v * table[v].one_infinity, (v, p)


def test_one_infinity_refuses_a_ragged_last_depth(monkeypatch):
    # A last depth that is not v nodes per survivor breaks the identity, so
    # the census raises rather than report a count.
    walk = search_mod.backtrack

    def ragged(spec, *args, **kwargs):
        out = walk(spec, *args, **kwargs)
        nodes = out.nodes_by_depth[:-1] + (out.nodes_by_depth[-1] + 1,)
        return dataclasses.replace(out, nodes_by_depth=nodes)

    monkeypatch.setattr(search_mod, "backtrack", ragged)
    with pytest.raises(RuntimeError, match="v=2"):
        verify_open_nonexistence(3)


def test_backtrack_exhaustive_flag_matches_enumeration():
    # A limit met on the walk's last node, the last candidate, covers
    # the whole space, as it does for the enumeration oracle; met on any
    # other node, even the last child of the last block judged, it does not.
    agreed = []
    for v in range(2, 7):
        size = v ** (v - 1)
        for pred in ("A", "B", "B-not-A", "OPEN"):
            want = reference_hits(v, pred)
            hits = len(want)
            for limit in {max(1, hits - 1), max(1, hits), hits + 1}:
                case = (v, pred, limit)
                examined = want[limit - 1][0] if limit <= hits else size
                spec = SearchSpec(v, pred, limit=limit)
                full = backtrack(spec)
                walk = backtrack(dataclasses.replace(spec, strategy="backtrack"))
                assert full.examined == examined, case
                for out in (full, walk):
                    assert [w.entries for w in out.witnesses] == [e for _, e in want[:limit]]
                    assert out.satisfying == min(limit, hits), case
                    assert out.exhaustive == (examined == size), case
                agreed.append(limit == hits and examined == size)
    assert any(agreed)  # some limits are met exactly on the last candidate


def test_backtrack_reports_progress_before_any_leaf(monkeypatch):
    # Every popped block reports its first child's count, so a raising
    # callback stops the walk at its first block: before any survivor is
    # expanded, and also at v = 64, whose first leaf is far away.
    def stop(tick):
        raise _StopSearch(tick)

    expanded = []
    children = search_mod._children
    monkeypatch.setattr(
        search_mod, "_children", lambda *a: expanded.append(a[1]) or children(*a)
    )
    monkeypatch.setattr(search_mod, "PROGRESS_INTERVAL", 1)
    for v in (8, 64):
        with pytest.raises(_StopSearch) as raised:
            backtrack(SearchSpec(v, "A", limit=1, strategy="backtrack", force=True), progress=stop)
        assert raised.value.args == (1,)
        assert expanded == []


def test_full_sweep_reports_progress_before_any_leaf(monkeypatch):
    # A "full" sweep reports a candidate count only once every earlier
    # candidate is decided. For A the first, the all-zero vector, is pruned
    # with (0, 0, 0) at column 2, so a raising callback stops the sweep at
    # its first tick, on popping the first block of depth 3: before any
    # deeper survivor is expanded, and also at v = 64.
    def stop(tick):
        raise _StopSearch(tick)

    expanded = []
    children = search_mod._children
    monkeypatch.setattr(
        search_mod, "_children", lambda *a: expanded.append(a[1]) or children(*a)
    )
    monkeypatch.setattr(search_mod, "PROGRESS_INTERVAL", 1)
    for v in (8, 64):
        expanded.clear()
        with pytest.raises(_StopSearch) as raised:
            backtrack(SearchSpec(v, "A", limit=1, force=True), progress=stop)
        assert raised.value.args == (1,)
        assert expanded == [1, 2]


# "-True" in an id marks the normalized walk (e_0 = 0), the only one there is.
@pytest.mark.parametrize("v", [4, 5, 6], ids=lambda v: f"{v}-True")
def test_backtrack_block_reports_are_first_child_counts(monkeypatch, v):
    # With one parent per block every surviving prefix is popped alone, so
    # its block's report is the depth-first count on reaching its first
    # child: the reference walk's count at every node with entry 0, in
    # order. The leaf blocks' own reports (their last child, entry v - 1)
    # are never such a count.
    monkeypatch.setattr(search_mod, "BLOCK_ROWS", 1)
    reports = []
    tick = search_mod._tick
    monkeypatch.setattr(
        search_mod, "_tick", lambda *args: reports.append(args[2]) or tick(*args)
    )
    for pred in ("A", "B", "B-not-A", "OPEN"):
        spec = SearchSpec(v, pred, strategy="backtrack")
        firsts = []
        want = _reference_backtrack(spec, firsts=firsts)
        reports.clear()
        out = backtrack(spec, progress=lambda tick: None)
        assert out == want
        assert [r for r in reports if r in set(firsts)] == firsts, pred
        assert reports == sorted(reports) and reports[-1] == out.examined


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


def test_search_witnesses_equal_validated_shift_sequences():
    # The walk and the sampler build witnesses without re-validating entries
    # they produced; each must still be the ShiftSequence of its entries.
    outcomes = [
        (7, backtrack(SearchSpec(7, "B-not-A", limit=50))),
        (6, backtrack(SearchSpec(6, "A", limit=50, strategy="full"))),
        (7, sample_random(7, "B", 500, seed=3, limit=20)),
    ]
    for v, out in outcomes:
        assert out.witnesses
        for w in out.witnesses:
            built = ShiftSequence(w.entries)
            assert type(w) is ShiftSequence and w == built and hash(w) == hash(built)
            assert w.v == v and all(type(x) is int for x in w.entries)
            with pytest.raises(dataclasses.FrozenInstanceError):
                w.entries = ()


def test_sample_random_hits_are_real():
    out = sample_random(5, "A", 300, seed=0, limit=300)
    assert out.satisfying >= len(out.witnesses) > 0
    for w in out.witnesses:
        assert check_condition_A(w).verdict
        assert w.entries[0] == 0


def test_sample_random_validation():
    with pytest.raises(ValueError):
        sample_random(3, "A", 0)
    with pytest.raises(ValueError):
        sample_random(1, "A", 10)
    with pytest.raises(ValueError, match="limit must be nonnegative"):
        sample_random(5, "B", 50, limit=-1)


def _traced_peak(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_random_without_limit_keeps_no_hits():
    # At v=10 about 3% of the draws pass B and nearly all hits are distinct,
    # so a kept set of hits would grow with n; the draw blocks do not.
    small, small_peak = _traced_peak(lambda: sample_random(10, "B", 50_000, seed=1))
    large, large_peak = _traced_peak(lambda: sample_random(10, "B", 200_000, seed=1))
    assert small.witnesses == large.witnesses == ()
    assert large.satisfying > 3 * small.satisfying > 0
    assert large_peak <= 1.1 * small_peak
    kept = sample_random(10, "B", 50_000, seed=1, limit=10**9)
    assert kept.satisfying == small.satisfying
    assert len(kept.witnesses) > 0.9 * small.satisfying
    assert dataclasses.replace(kept, witnesses=()) == small


def _replay(v, holds, n, seed, limit):
    # The seeded draw stream of sample_random, judged one draw at a time.
    rng = random.Random(seed)
    hits = []
    for _ in range(n):
        entries = (0,) + tuple(rng.randrange(v) for _ in range(v - 1))
        if holds(ShiftSequence(entries)):
            hits.append(entries)
    witnesses = tuple(ShiftSequence(ent) for ent in sorted(set(hits))[:limit])
    return SearchOutcome(witnesses, n, len(hits), False)


_SAMPLE_CASES = {
    "A": (5, lambda e: check_condition_A(e).verdict),
    "B": (5, lambda e: check_condition_B(e).verdict),
    "B-not-A": (5, lambda e: check_condition_B(e).verdict and not check_condition_A(e).verdict),
    "OPEN": (2, lambda e: check_condition_open(e).verdict),
}


@pytest.mark.parametrize("limit", [0, 1, 10**9])
# "-True" in an id marks the normalized draw (e_0 = 0), the only one there is.
@pytest.mark.parametrize("predicate", list(_SAMPLE_CASES), ids=[f"{p}-True" for p in _SAMPLE_CASES])
def test_sample_random_matches_replay(monkeypatch, predicate, limit):
    # Blocks of 7 rows split the 60 draws into 9 blocks, the last one short.
    monkeypatch.setattr(search_mod, "BLOCK_ROWS", 7)
    checked = []
    crosscheck = search_mod._crosscheck_open_hit
    monkeypatch.setattr(
        search_mod, "_crosscheck_open_hit", lambda e: checked.append(e) or crosscheck(e)
    )
    v, holds = _SAMPLE_CASES[predicate]
    out = sample_random(v, predicate, 60, seed=17, limit=limit)
    want = _replay(v, holds, 60, 17, limit)
    assert out == want
    assert want.satisfying > 0
    # Every completeness hit is cross-checked against the sum identity.
    assert len(checked) == (want.satisfying if predicate == "OPEN" else 0)
