"""Tests for interleaving, signal-set construction, and the column identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilvseq import (
    INFINITY,
    PeriodicSequence,
    ShiftSequence,
    autocorrelation,
    build_signal_set,
    coincident_members,
    cross_correlation,
    decompose_tau,
    extended_entry,
    format_shift_sequence,
    interleave,
    left_shift,
    lemma_correlation,
    lemma_terms,
    matrix_form,
    parse_shift_sequence,
    recover_shifts,
    shift_equivalence,
    signal_set_delta,
    zero_count,
)

A7 = PeriodicSequence(2, (1, 0, 0, 1, 1, 1, 0))
B7 = PeriodicSequence(2, (1, 0, 0, 1, 0, 1, 1))
E7 = ShiftSequence((0, 0, 1, 0, 6, 3, 5))

entries7 = st.lists(st.integers(0, 6), min_size=7, max_size=7).map(
    lambda v: ShiftSequence(tuple(v))
)


def test_shift_sequence_validation():
    with pytest.raises(ValueError):
        ShiftSequence(())
    with pytest.raises(ValueError):
        ShiftSequence((0, 7))  # 7 outside [0, 2)
    with pytest.raises(ValueError):
        ShiftSequence((0, -1))
    e = ShiftSequence((0, INFINITY))
    assert not e.is_finite
    assert E7.is_finite
    assert E7.v == 7


def test_parse_format_shift_sequence():
    assert parse_shift_sequence("0,0,1,0,6,3,5") == E7
    assert format_shift_sequence(E7) == "0,0,1,0,6,3,5"
    e = parse_shift_sequence("0, inf, 1")
    assert e.entries == (0, INFINITY, 1)
    assert format_shift_sequence(e) == "0,inf,1"
    with pytest.raises(ValueError):
        parse_shift_sequence("0,x,1")


def test_extended_entry():
    assert [extended_entry(E7, k) for k in range(7)] == [0, 0, 1, 0, 6, 3, 5]
    assert extended_entry(E7, 7) == 1
    assert [extended_entry(E7, 7 + j) for j in range(7)] == [1, 1, 2, 1, 0, 4, 6]
    with pytest.raises(ValueError):
        extended_entry(E7, 14)
    with pytest.raises(ValueError):
        extended_entry(E7, -1)
    with pytest.raises(ValueError):
        extended_entry(ShiftSequence((0, INFINITY)), 3)


def test_interleave_known_first_row():
    u = interleave(A7, E7)
    assert u.period == 49
    mat = matrix_form(u, 7, 7)
    assert tuple(mat[0]) == (1, 1, 0, 1, 0, 1, 1)
    # Column j of the matrix is the base shifted by e_j.
    for j, entry in enumerate(E7.entries):
        assert tuple(mat[:, j]) == left_shift(A7, entry).values


def test_interleave_zero_column():
    e = ShiftSequence((0, INFINITY, 1))
    base = PeriodicSequence(2, (1, 0, 1))
    u = interleave(base, e)
    mat = matrix_form(u, 3, 3)
    assert not mat[:, 1].any()
    assert recover_shifts(u, base, 3) == e


def test_matrix_form_validation():
    u = interleave(A7, E7)
    with pytest.raises(ValueError):
        matrix_form(u, 6, 8)
    with pytest.raises(ValueError):
        matrix_form(u, 0, 49)
    assert matrix_form(u, 7, 7).shape == (7, 7)
    assert isinstance(matrix_form(u, 7, 7), np.ndarray)


def test_recover_shifts_rejects_foreign_column():
    u = interleave(A7, E7)
    broken = list(u.values)
    broken[0] ^= 1  # damage column 0 so it is no shift of the base
    with pytest.raises(ValueError):
        recover_shifts(PeriodicSequence(2, tuple(broken)), A7, 7)


@given(entries7)
def test_recover_inverts_interleave(e):
    assert recover_shifts(interleave(A7, e), A7, 7) == e


def test_build_signal_set_shape():
    ss = build_signal_set(A7, B7, E7)
    assert ss.v == 7
    assert ss.period == 49
    assert len(ss.members) == 8
    assert ss.members[0] == interleave(A7, E7)
    for j in range(7):
        expected = tuple(
            (ss.members[0][i] + B7[j + i]) % 2 for i in range(49)
        )
        assert ss.members[1 + j].values == expected
    assert ss.notes == ()


def test_build_signal_set_validation():
    with pytest.raises(ValueError):
        build_signal_set(PeriodicSequence(3, (0, 1, 2)), B7, E7)
    with pytest.raises(ValueError):
        build_signal_set(A7, PeriodicSequence(2, (1, 0)), E7)
    with pytest.raises(ValueError):
        build_signal_set(A7, B7, ShiftSequence((0, 1, 2)))
    with pytest.raises(ValueError):
        build_signal_set(
            A7, B7, ShiftSequence((0, 0, 1, 0, 6, 3, INFINITY))
        )


def test_build_signal_set_advisory_notes():
    spike = PeriodicSequence(2, (1, 0, 0, 0, 0, 0, 0))
    ss = build_signal_set(spike, B7, E7)
    assert any("base a" in note for note in ss.notes)
    ss2 = build_signal_set(A7, spike, E7)
    assert any("offset b" in note for note in ss2.notes)


def test_build_with_b_equal_a_flags_shift_but_no_coincidence():
    ss = build_signal_set(A7, A7, E7)
    assert any("b is a shift of a" in note for note in ss.notes)
    assert not any("coincide (" in note for note in ss.notes)
    assert signal_set_delta(ss.members).delta == 17


def test_coincident_members():
    assert coincident_members([A7, left_shift(A7, 2)]) == [(0, 1, 5)]
    assert coincident_members([A7, B7]) == []
    with pytest.raises(ValueError):
        coincident_members([A7, PeriodicSequence(2, (1, 0))])


@st.composite
def planted_members(draw):
    """Shifts of a few small bases (some of short minimal period), shuffled."""
    p = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 8))
    bases = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.integers(0, len(bases) - 1), st.integers(0, n - 1)), max_size=8))
    members = [left_shift(PeriodicSequence(p, tuple(bases[b])), k) for b, k in picks]
    return draw(st.permutations(members))


@given(planted_members())
def test_coincident_members_matches_pairwise_scan(members):
    pairwise = [
        (i, j, k)
        for i in range(len(members))
        for j in range(i + 1, len(members))
        if (k := shift_equivalence(members[i], members[j])) is not None
    ]
    assert coincident_members(members) == pairwise


def test_worked_set_delta():
    ss = build_signal_set(A7, B7, E7)
    report = signal_set_delta(ss.members)
    assert report.delta == 17
    assert len(report.witnesses) == 80
    # Every witness lies off the diagonal phase s = 0.
    assert all(w.tau % 7 != 0 for w in report.witnesses)


def test_degenerate_shift_vectors_delta():
    for entries in [(0,) * 7, tuple(range(7))]:
        ss = build_signal_set(A7, B7, ShiftSequence(entries))
        assert signal_set_delta(ss.members).delta == 41


def test_decompose_tau():
    dec = decompose_tau(8, 7)
    assert (dec.tau, dec.r, dec.s) == (8, 1, 1)
    assert decompose_tau(0, 7).r == 0
    assert decompose_tau(48, 7) == decompose_tau(48, 7)
    with pytest.raises(ValueError):
        decompose_tau(49, 7)
    with pytest.raises(ValueError):
        decompose_tau(-1, 7)


def test_lemma_terms_known_vector():
    terms = lemma_terms(E7, B7, 0, 1, 1)
    assert terms.t == (0, 1, 6, 6, 4, 2, 3)
    assert terms.v == 7
    # t depends only on (s, r), not on the member indices.
    assert lemma_terms(E7, B7, 3, 5, 1).t == terms.t


def test_lemma_terms_validation():
    with pytest.raises(ValueError):
        lemma_terms(E7, B7, 7, 0, 1)
    with pytest.raises(ValueError):
        lemma_terms(E7, PeriodicSequence(2, (1, 0)), 0, 1, 1)
    with pytest.raises(ValueError):
        lemma_terms(ShiftSequence((0, INFINITY)), PeriodicSequence(2, (1, 0)), 0, 1, 1)


def test_lemma_correlation_frozen_values():
    prof = autocorrelation(A7)
    assert lemma_correlation(prof, B7, E7, 0, 1, 0) == -7
    assert lemma_correlation(prof, B7, E7, 0, 1, 7) == 1
    assert lemma_correlation(prof, B7, E7, 0, 1, 8) == 17


def test_lemma_matches_direct_spot_checks():
    ss = build_signal_set(A7, B7, E7)
    prof = autocorrelation(A7)
    for h, k, tau in [(0, 1, 8), (2, 5, 17), (6, 6, 30), (4, 0, 0)]:
        direct = cross_correlation(ss.members[1 + h], ss.members[1 + k])[tau]
        assert lemma_correlation(prof, B7, E7, h, k, tau) == direct


def test_lemma_profile_period_validation():
    short = autocorrelation(PeriodicSequence(2, (1, 0)))
    with pytest.raises(ValueError):
        lemma_correlation(short, B7, E7, 0, 1, 8)


def test_zero_count_worked_example():
    zc = zero_count(E7, 1, 0)
    assert zc.n0 == 1
    assert zc.bound == 9


def test_zero_count_linear_vector():
    v = 7
    linear = ShiftSequence(tuple(range(v)))
    for s in range(1, v):
        assert zero_count(linear, s, (v - s) % v).n0 == v - s
        assert zero_count(linear, s, (v - s - 1) % v).n0 == s


def test_zero_count_validation():
    with pytest.raises(ValueError):
        zero_count(E7, 7, 0)
    with pytest.raises(ValueError):
        zero_count(E7, 0, -1)
    with pytest.raises(ValueError):
        zero_count(ShiftSequence((0, INFINITY)), 1, 0)


@given(entries7)
@settings(max_examples=25, deadline=None)
def test_magnitude_bound_off_diagonal_phases(e):
    ss = build_signal_set(A7, B7, e)
    bounds = {
        (s, r): zero_count(e, s, r).bound for s in range(1, 7) for r in range(7)
    }
    for h in range(7):
        for k in range(7):
            prof = cross_correlation(ss.members[1 + h], ss.members[1 + k])
            for s in range(1, 7):
                if (h - k) % 7 == s:
                    continue
                for r in range(7):
                    assert abs(prof[r * 7 + s]) <= bounds[s, r]


@given(entries7, st.integers(0, 6))
def test_lemma_terms_translation_invariant(e, c):
    shifted = ShiftSequence(tuple((x + c) % 7 for x in e.entries))
    for s, r in [(1, 0), (3, 2)]:
        tau = r * 7 + s
        assert lemma_terms(e, B7, 0, 1, tau).t == lemma_terms(shifted, B7, 0, 1, tau).t


@given(entries7, st.integers(1, 6), st.integers(0, 6))
def test_zero_count_counts_t_zeros(e, s, r):
    terms = lemma_terms(e, B7, 0, 0, r * 7 + s)
    assert zero_count(e, s, r).n0 == terms.t.count(0)
