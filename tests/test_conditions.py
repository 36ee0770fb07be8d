"""Tests for the distinctness, multiplicity, and completeness conditions."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ilvseq.search as search_mod
from ilvseq import (
    CONDITIONS,
    INFINITY,
    ConditionReport,
    DifferenceProfile,
    ShiftCheck,
    ShiftSequence,
    check_condition_A,
    check_condition_B,
    check_condition_open,
    cond2_sum_residue,
    differences,
    extended_entry,
    quadratic_shifts,
)
import ilvseq.conditions as conditions_mod
from ilvseq.conditions import Condition, ShiftChecks, _count_table

E7 = ShiftSequence((0, 0, 1, 0, 6, 3, 5))

entries7 = st.lists(st.integers(0, 6), min_size=7, max_size=7).map(tuple)


CHECKERS = {"A": check_condition_A, "B": check_condition_B, "OPEN": check_condition_open}


def shift7(entries):
    return ShiftSequence(entries)


def verdict(name, entries):
    # The block verdict of one raw entry tuple.
    return bool(CONDITIONS[name].holds_rows(np.array([entries]))[0])


def test_differences_A_worked_example():
    prof = differences(E7, 1, False)
    assert prof.values == (0, 6, 1, 1, 3, 5)
    assert len(prof.multiplicity) == 5
    assert max(c for _, c in prof.multiplicity) == 2
    assert prof.multiplicity == ((0, 1), (1, 2), (3, 1), (5, 1), (6, 1))
    assert dict(prof.multiplicity)[1] == 2
    assert (prof.v, prof.s, prof.extended) == (7, 1, False)


def test_differences_B_worked_example():
    prof = differences(E7, 1, True)
    assert prof.values == (0, 6, 1, 1, 3, 5, 4)
    assert max(c for _, c in prof.multiplicity) == 2
    assert differences(E7, 1, np.True_) == prof


def test_differences_B_length_two_vector():
    prof = differences(ShiftSequence((0, 1)), 1, True)
    assert prof.values == (1, 0)


def test_shift_range_validation():
    for extended in (False, True):
        with pytest.raises(ValueError):
            differences(E7, 0, extended)
        with pytest.raises(ValueError):
            differences(E7, 7, extended)
        with pytest.raises(ValueError):
            differences(ShiftSequence((0, INFINITY)), 1, extended)
    for s in (0, 7, -1):
        with pytest.raises(ValueError, match=r"shift s must lie in \[1, 7\)"):
            cond2_sum_residue(E7, s)


def test_check_condition_A_worked_example():
    report = check_condition_A(E7)
    assert not report.verdict
    assert report.first_failure_s == 1
    assert report.condition == "A"
    assert [c.s for c in report.checks] == list(range(1, 7))
    first = report.checks[0]
    assert (first.observed, first.required, first.passed) == (5, 6, False)
    assert all(c.passed for c in report.checks[1:])


def test_check_condition_B_worked_example():
    report = check_condition_B(E7)
    assert report.verdict
    assert report.first_failure_s is None
    assert all(c.required == 2 for c in report.checks)
    assert max(c.observed for c in report.checks) == 2


def test_check_condition_open_worked_example():
    report = check_condition_open(E7)
    assert not report.verdict
    assert report.checks[0].observed == 6
    assert report.checks[0].required == 7


def test_completeness_at_length_two():
    # Both normalized length-2 vectors cover Z_2.
    assert check_condition_open(ShiftSequence((0, 1))).verdict
    assert check_condition_open(ShiftSequence((0, 0))).verdict


def test_fast_forms_accept_raw_tuples():
    assert verdict("B", (0, 0, 1, 0, 6, 3, 5))
    assert not verdict("A", (0, 0, 1, 0, 6, 3, 5))
    assert verdict("OPEN", (0, 1))


def test_fast_forms_match_reports_exhaustively_v3_v4():
    for v in (3, 4):
        space = list(itertools.product(range(v), repeat=v))
        for name, check in CHECKERS.items():
            mask = CONDITIONS[name].holds_rows(np.array(space))
            assert mask.tolist() == [check(ShiftSequence(e)).verdict for e in space]


@given(entries7)
def test_fast_forms_match_reports_sampled_v7(entries):
    e = ShiftSequence(entries)
    for name, check in CHECKERS.items():
        assert verdict(name, entries) == check(e).verdict


@st.composite
def row_blocks(draw):
    # A block of rows for one v; each drawn row is followed by a copy whose
    # entry 1 repeats entry 0, so every block holds repeated entries.
    v = draw(st.integers(2, 9))
    drawn = draw(st.lists(
        st.lists(st.integers(0, v - 1), min_size=v, max_size=v), min_size=1, max_size=12
    ))
    rows = []
    for row in drawn:
        rows += [row, [row[0], row[0]] + row[2:]]
    return np.array(rows, dtype=draw(st.sampled_from([np.int8, np.int64])))


@given(row_blocks())
def test_block_verdict_matches_scalar(rows):
    # Row by row, the block verdict is the verdict of the diagnostic report.
    vectors = [ShiftSequence(tuple(r)) for r in rows.tolist()]
    for cond, check in CHECKERS.items():
        mask = CONDITIONS[cond].holds_rows(rows)
        assert mask.dtype == bool
        assert mask.tolist() == [check(e).verdict for e in vectors]


INTEGER_DTYPES = [
    np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64
]


@pytest.mark.parametrize("v", [4, 5])
def test_block_verdict_on_every_integer_dtype(v):
    # Unsigned rows must not wrap below zero before the reduction mod v.
    space = list(itertools.product(range(v), repeat=v))
    expected = {
        name: [check(ShiftSequence(e)).verdict for e in space]
        for name, check in CHECKERS.items()
    }
    for dtype in INTEGER_DTYPES:
        rows = np.array(space, dtype=dtype)
        for name, want in expected.items():
            assert CONDITIONS[name].holds_rows(rows).tolist() == want, (dtype, name)


@pytest.mark.parametrize("v, dtype", [(127, np.int8), (128, np.int16), (131, np.int16)])
def test_block_verdict_at_row_dtype_edges(v, dtype):
    # v = 127 is the last v with int8 rows and v = 128 the first int16 one,
    # where the extended entries e + 1 reach v = 128 itself; v = 131 is the
    # first wide prime. The block holds quadratic vectors (A at a prime v),
    # ones with e_0 set to v - 1 (B-not-A at a prime v), rows at the top of
    # the range and seeded random rows.
    assert search_mod._row_dtype(v) == dtype
    rng = np.random.default_rng(v)
    rows = [quadratic_shifts(v, c, l).entries for c, l in ((1, 0), (3, 5), (v - 1, v - 2))]
    rows += [(v - 1,) + quadratic_shifts(v, 1, 0).entries[1:]]
    rows += [(v - 1,) * v, tuple(range(v - 1, -1, -1)), tuple(j % 2 * (v - 1) for j in range(v))]
    rows += [(v - 1,) * (v // 2) + (0,) * (v - v // 2)]
    rows += [tuple(r) for r in rng.integers(0, v, size=(4, v)).tolist()]
    block = np.array(rows, dtype=dtype)
    for name, check in CHECKERS.items():
        mask = CONDITIONS[name].holds_rows(block).tolist()
        assert mask == [check(ShiftSequence(r)).verdict for r in rows], name
    if v % 2:
        assert CONDITIONS["A"].holds_rows(block)[:4].tolist() == [True, True, True, False]
        assert CONDITIONS["B"].holds_rows(block)[:4].all()
    # Caps near v count the extended differences, wrapped ones included, up
    # to v - 1 of a kind, against the reports' multiplicities.
    top = [
        max(c for s in range(1, v) for _, c in differences(ShiftSequence(r), s, True).multiplicity)
        for r in rows
    ]
    for cap in (v - 2, v - 1):
        mask = Condition(extended=True, cap=cap).holds_rows(block).tolist()
        assert mask == [t <= cap for t in top], cap


@pytest.mark.parametrize("name", ["A", "B", "OPEN"])
def test_block_verdict_of_an_empty_block(name):
    mask = CONDITIONS[name].holds_rows(np.zeros((0, 7), dtype=np.int8))
    assert mask.dtype == bool and mask.shape == (0,)


@pytest.mark.parametrize("v", [1, 2, 3, 8, 31])
def test_report_types_keep_their_names_and_fields(v):
    # Every report, check and profile is an instance of its named tuple with
    # that type's fields, and equals both a plainly built copy and the plain
    # tuple of its values.
    rng = random.Random(v)
    e = ShiftSequence(tuple(rng.randrange(v) for _ in range(v)))
    for name, check in CHECKERS.items():
        report = check(e)
        reference = _reference_report(e, name)
        assert type(report.checks) is ShiftChecks and len(report.checks) == v - 1
        # The checks read as the reference's tuple: by index from either
        # end, by slice, as a whole, and in repr and hash.
        for k in range(-(v - 1), v - 1):
            assert report.checks[k] == reference.checks[k]
        for k in (slice(None), slice(1, None), slice(-2, None), slice(None, None, -2)):
            assert report.checks[k] == reference.checks[k]
            assert type(report.checks[k]) is tuple
        with pytest.raises(IndexError):
            report.checks[v - 1]
        assert report.checks == reference.checks and reference.checks == report.checks
        assert report.checks == check(e).checks and list(report.checks) == list(reference.checks)
        assert repr(report) == repr(reference) and hash(report) == hash(reference)
        parts = [(report, ConditionReport)]
        parts += [(c, ShiftCheck) for c in report.checks]
        parts += [(c.profile, DifferenceProfile) for c in report.checks]
        assert len(parts) == 1 + 2 * (v - 1)
        for part, kind in parts:
            assert type(part) is kind
            assert kind._fields == tuple(part._asdict())
            assert list(part._asdict().values()) == list(part)
            assert part == tuple(part) and part == kind(*part)
            assert type(kind(*part)) is kind
        assert report == _reference_report(e, name)


def _reference_differences(e, s, extended):
    # The definition one shift at a time, independent of the profile table.
    v = e.v
    ext = [extended_entry(e, k) for k in range(2 * v)]
    values = tuple((ext[j] - ext[j + s]) % v for j in range(v if extended else v - s))
    counts = {}
    for d in values:
        counts[d] = counts.get(d, 0) + 1
    return DifferenceProfile(v, s, extended, values, tuple(sorted(counts.items())))


def _reference_report(e, name):
    extended, cap = CONDITIONS[name]
    checks = []
    for s in range(1, e.v):
        prof = _reference_differences(e, s, extended)
        top = max(c for _, c in prof.multiplicity)
        if cap == 1:
            observed, required = len(prof.multiplicity), len(prof.values)
        else:
            observed, required = top, cap
        checks.append(ShiftCheck(s, top <= cap, observed, required, prof))
    failures = [c.s for c in checks if not c.passed]
    return ConditionReport(name, not failures, tuple(checks), failures[0] if failures else None)


@st.composite
def vector_pairs(draw):
    v = draw(st.integers(2, 11))
    vector = st.lists(st.integers(0, v - 1), min_size=v, max_size=v).map(tuple)
    return ShiftSequence(draw(vector)), ShiftSequence(draw(vector))


@given(
    vector_pairs(),
    st.permutations([(k, call) for k in (0, 1) for call in ("A", "B", "OPEN", "differences")]),
)
def test_profile_table_matches_definition(pair, calls):
    # Two vectors of one v, their reports and profiles asked for in any
    # order (OPEN before B, the vectors interleaved): no cached table may
    # answer for the wrong vector or the wrong extension.
    for k, call in calls:
        e = pair[k]
        if call == "differences":
            for extended in (False, True):
                for s in range(1, e.v):
                    assert differences(e, s, extended) == _reference_differences(e, s, extended)
        else:
            report = CHECKERS[call](e)
            assert report == _reference_report(e, call)
            assert report.verdict == verdict(call, e.entries)


@given(st.integers(2, 11).flatmap(
    lambda v: st.lists(st.integers(0, v - 1), min_size=v, max_size=v).map(tuple)
))
def test_unextended_profile_is_a_prefix(entries):
    # The unextended differences at s are the first v-s extended ones.
    v = len(entries)
    e = ShiftSequence(entries)
    for s in range(1, v):
        assert differences(e, s, False).values == differences(e, s, True).values[: v - s]


def test_one_table_per_vector():
    # Every report, every check and every profile of one fresh vector come
    # from one evaluation of the table.
    e = ShiftSequence((0, 3, 1, 4, 2, 2, 0, 5, 6, 1, 9, 7, 8))
    before = _count_table.cache_info().misses
    for check in CHECKERS.values():
        list(check(e).checks)
    for extended in (False, True):
        for s in range(1, e.v):
            differences(e, s, extended)
            cond2_sum_residue(e, s)
    assert _count_table.cache_info().misses == before + 1


@pytest.mark.parametrize("name", ["A", "B", "OPEN"])
def test_reports_are_frozen_tuples(name):
    report = CHECKERS[name](E7)
    reference = _reference_report(E7, name)
    assert len(report.checks) == 6
    assert report.checks[-1] == reference.checks[-1] and report.checks[-6] == reference.checks[0]
    assert report.checks[2:] == reference.checks[2:] and report.checks[::-1] == reference.checks[::-1]
    assert report == reference
    assert repr(report) == repr(reference) and hash(report) == hash(reference)
    assert repr(report.checks) == repr(reference.checks)
    assert hash(report.checks) == hash(reference.checks)
    condition, passed, checks, first_failure_s = report
    assert (condition, passed, first_failure_s) == (name, report.verdict, report.first_failure_s)
    assert report == (name, passed, checks, first_failure_s)
    check = checks[0]
    for obj, field in ((report, "verdict"), (check, "passed"), (check.profile, "values")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        assert hash(obj) == hash(tuple(obj))
    with pytest.raises(TypeError):
        checks[0] = check
    with pytest.raises(AttributeError):
        checks.extra = None


def test_verdict_only_reports_build_no_checks(monkeypatch):
    # A report read for its verdict, first failure and number of shifts
    # builds no ShiftCheck and no DifferenceProfile; reading one check
    # builds all of them, once.
    built = []

    def profile(row, s, extended, _profile=conditions_mod._profile):
        built.append(("profile", s))
        return _profile(row, s, extended)

    def checks(self, _tuple=ShiftChecks._tuple):
        if self._checks is None:
            built.append(("checks", len(self)))
        return _tuple(self)

    monkeypatch.setattr(conditions_mod, "_profile", profile)
    monkeypatch.setattr(ShiftChecks, "_tuple", checks)
    reports = [check(E7) for check in CHECKERS.values()]
    assert [(r.verdict, r.first_failure_s, len(r.checks)) for r in reports] == [
        (False, 1, 6), (True, None, 6), (False, 1, 6)
    ]
    assert built == []
    assert reports[1].checks[3] == _reference_report(E7, "B").checks[3]
    assert built == [("checks", 6)] + [("profile", s) for s in range(1, 7)]
    assert reports[1] == _reference_report(E7, "B")
    assert len(built) == 7


@pytest.mark.parametrize("v", [2, 8, 31])
def test_each_profile_is_built_once_per_vector(monkeypatch, v):
    # A report builds each of its profiles, unextended for A and extended
    # for B and OPEN, once: on the first read of its checks, which it keeps,
    # so reading them again builds none.
    built = []

    def profile(x, s, extended, _profile=conditions_mod._profile):
        built.append((s, extended))
        return _profile(x, s, extended)

    monkeypatch.setattr(conditions_mod, "_profile", profile)
    rng = random.Random(v)
    e = ShiftSequence(tuple(rng.randrange(v) for _ in range(v)))
    for name, check in CHECKERS.items():
        built.clear()
        report = check(e)
        for _ in range(2):
            assert report == _reference_report(e, name)
        assert built == [(s, CONDITIONS[name].extended) for s in range(1, v)]


def _phi(d, v):
    # The map of the mirror identity on Z_v.
    return (-1 - d) % v


@given(st.integers(2, 11).flatmap(
    lambda v: st.lists(st.integers(0, v - 1), min_size=v, max_size=v).map(tuple)
))
def test_wrapped_term_is_phi_of_an_unextended_term(entries):
    # Mirror identity, step 1: wrapped term j = v - s + k at shift s is
    # e_(v-s+k) - (e_k + 1) = -1 - (e_k - e_(k+v-s)), phi of unextended
    # term k at shift v - s, for k in [0, s).
    v = len(entries)
    e = ShiftSequence(entries)
    for s in range(1, v):
        wrapped = _reference_differences(e, s, True).values[v - s :]
        mirror = _reference_differences(e, v - s, False).values[:s]
        assert wrapped == tuple(_phi(d, v) for d in mirror)
        assert differences(e, s, True).values[v - s :] == wrapped


@pytest.mark.parametrize("v", range(1, 14))
def test_phi_is_an_involution(v):
    # Step 2: phi(phi(d)) = d, so phi is a bijection of Z_v onto itself.
    assert [_phi(_phi(d, v), v) for d in range(v)] == list(range(v))
    assert sorted(_phi(d, v) for d in range(v)) == list(range(v))


@given(st.integers(1, 11).flatmap(
    lambda v: st.lists(st.integers(0, v - 1), min_size=v, max_size=v).map(tuple)
))
def test_extended_tops_at_s_and_v_minus_s_are_equal(entries):
    # Step 3: by steps 1 and 2 the extended multiset at v - s is the
    # phi-image of the one at s, so the two have equal multiplicities.
    v = len(entries)
    e = ShiftSequence(entries)
    _, tops = _count_table(e)
    for s in range(1, v):
        here = _reference_differences(e, s, True).multiplicity
        there = _reference_differences(e, v - s, True).multiplicity
        assert sorted((_phi(d, v), c) for d, c in here) == list(there)
        assert tops[True][s - 1] == tops[True][v - s - 1] == max(c for _, c in here)


def _full_shift_sort(rows, extended, cap):
    # The block verdict as defined: sort every shift's differences, at all
    # of s = 1 .. v-1, and reject a row where a value occurs more than cap
    # times; no shift is skipped and no row is dropped early.
    rows = np.asarray(rows, dtype=np.int16)
    n, v = rows.shape
    ext = np.concatenate((rows, rows + 1), axis=1)
    ok = np.ones(n, dtype=bool)
    for s in range(1, v):
        w = v if extended else v - s
        d = np.sort((ext[:, :w] - ext[:, s : s + w]) % v, axis=1)
        ok &= ~(d[:, cap:] == d[:, :-cap]).any(axis=1)
    return ok


@given(st.integers(1, 11).flatmap(
    lambda v: st.lists(st.integers(0, v - 1), min_size=v, max_size=v).map(tuple)
))
def test_table_reports_and_block_verdict_match_the_definition(entries):
    # The table's tops, every report and the block verdict against the
    # one-shift-at-a-time reference and the full-shift sort.
    v = len(entries)
    e = ShiftSequence(entries)
    _, tops = _count_table(e)
    for extended in (False, True):
        assert list(tops[extended]) == [
            max(c for _, c in _reference_differences(e, s, extended).multiplicity)
            for s in range(1, v)
        ]
    for name, check in CHECKERS.items():
        reference = _reference_report(e, name)
        assert check(e) == reference
        assert verdict(name, entries) == reference.verdict
        assert _full_shift_sort([entries], *CONDITIONS[name]).tolist() == [reference.verdict]


@pytest.mark.parametrize("v", range(1, 8))
def test_block_verdict_matches_the_full_shift_sort_exhaustively(v):
    # Every vector at v <= 7, 823,543 of them at v = 7: the block verdict,
    # which judges B and OPEN on shifts up to v/2 only, equals the sort
    # over every shift. Slices of 2^16 rows keep the blocks small.
    rows = np.indices((v,) * v, dtype=np.int8).reshape(v, -1).T
    for start in range(0, len(rows), 1 << 16):
        part = rows[start : start + (1 << 16)]
        for name in CHECKERS:
            want = _full_shift_sort(part, *CONDITIONS[name])
            assert np.array_equal(CONDITIONS[name].holds_rows(part), want), (name, start)


@pytest.mark.parametrize("call", [*CHECKERS, "sum"])
def test_infinity_entry_raises_when_the_report_is_made(call):
    # The table is built when the report is made, so bad input raises then,
    # not when the report's checks are first read.
    e = ShiftSequence((0, INFINITY, 1))
    with pytest.raises(ValueError, match="INFINITY"):
        if call == "sum":
            cond2_sum_residue(e, 1)
        else:
            CHECKERS[call](e)


def test_sum_residue_builds_no_count_table():
    # The sum reads one shift's row and builds neither the vector's count
    # table nor any multiplicity; the row is the extended profile's.
    e = ShiftSequence((0, 3, 1, 4, 2, 2, 0, 5, 6, 1, 9, 7, 8, 11))
    before = _count_table.cache_info()
    for s in range(1, e.v):
        assert cond2_sum_residue(e, s) == (-s) % e.v
    assert _count_table.cache_info() == before
    for s in range(1, e.v):
        assert cond2_sum_residue(e, s) == sum(differences(e, s, True).values) % e.v


@given(entries7, st.integers(1, 6))
def test_sum_identity(entries, s):
    e = ShiftSequence(entries)
    assert cond2_sum_residue(e, s) == (-s) % 7


@given(entries7, st.integers(0, 6))
def test_conditions_translation_invariant(entries, c):
    moved = tuple((x + c) % 7 for x in entries)
    for name in CONDITIONS:
        assert verdict(name, entries) == verdict(name, moved)


@given(entries7)
def test_distinctness_implies_multiplicity(entries):
    if verdict("A", entries):
        assert verdict("B", entries)


def _max_zero_count(e):
    # Most columns j with a vanishing shift E(j+s) - e_j + r, over all (s, r).
    v = e.v
    return max(
        sum((extended_entry(e, j + s) - e.entries[j] + r) % v == 0 for j in range(v))
        for s in range(1, v)
        for r in range(v)
    )


def test_multiplicity_matches_zero_counts_exhaustively_v3():
    # The worst per-(s, r) count of vanishing column shifts is the worst
    # multiplicity among the extended differences, so the two gates agree.
    for entries in itertools.product(range(3), repeat=3):
        e = ShiftSequence(entries)
        assert verdict("B", entries) == (_max_zero_count(e) <= 2)


@given(entries7)
def test_multiplicity_matches_zero_counts_sampled_v7(entries):
    e = ShiftSequence(entries)
    assert verdict("B", entries) == (_max_zero_count(e) <= 2)
