"""Tests for interleaving, signal-set construction, and the column identity."""

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilvseq import (
    CONDITIONS,
    INFINITY,
    PRIMITIVE_POLYS,
    LfsrSpec,
    PeriodicSequence,
    ShiftSequence,
    autocorrelation,
    build_signal_set,
    column_correlations,
    cross_correlation,
    differences,
    extended_entry,
    format_shift_sequence,
    gen_legendre,
    gen_mseq,
    interleave,
    is_two_level,
    left_shift,
    matrix_form,
    parse_shift_sequence,
    quadratic_shifts,
    recover_shifts,
    shift_equivalence,
    signal_set_delta,
    twisted_rotation,
)
from ilvseq import interleaving
from ilvseq.conditions import Condition, _count_table
from ilvseq.correlation import _extension
from delta_oracle import reference_delta

A7 = PeriodicSequence(2, (1, 0, 0, 1, 1, 1, 0))
B7 = PeriodicSequence(2, (1, 0, 0, 1, 0, 1, 1))
E7 = ShiftSequence((0, 0, 1, 0, 6, 3, 5))
M31 = gen_mseq(LfsrSpec(5, tuple(int(c) for c in PRIMITIVE_POLYS[5]), (1, 0, 0, 0, 0)))
REV31 = PeriodicSequence(2, M31.values[::-1])

entries7 = st.lists(st.integers(0, 6), min_size=7, max_size=7).map(
    lambda v: ShiftSequence(tuple(v))
)


def _two_level_bases(v):
    return [
        seq for bits in np.ndindex(*(2,) * v)
        if is_two_level(seq := PeriodicSequence(2, bits))
    ]


#: Every two-level binary base at v = 3 and 7 (v = 2 has none).
TWO_LEVEL = {v: _two_level_bases(v) for v in (3, 7)}


def _coincident_pairs(members):
    # Every (i, j, k) with i < j and member i equal to member j shifted by k.
    return [
        (i, j, k)
        for i, j in itertools.combinations(range(len(members)), 2)
        if (k := shift_equivalence(members[i], members[j])) is not None
    ]


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


def test_shift_sequence_rejects_non_integral_entries():
    # Truncation would turn (0, 1.7, -0.5) into 0,1,0; -inf is no zero column.
    for entries in [(0, 1.7, -0.5), (0, -INFINITY), (0, float("nan")), (0, "1"), (0, None)]:
        with pytest.raises(ValueError, match="not an integer"):
            ShiftSequence(entries)
    e = ShiftSequence((np.int8(0), np.int64(2), INFINITY))
    assert e.entries == (0, 2, INFINITY)
    assert [type(x) for x in e.entries] == [int, int, float]


@given(st.integers(1, 12).flatmap(
    lambda v: st.lists(st.integers(0, v - 1), min_size=v, max_size=v).map(tuple)
))
def test_extension_matches_extended_entry(entries):
    e = ShiftSequence(entries)
    assert _extension(e) == tuple(extended_entry(e, k) for k in range(2 * e.v))


def test_parse_format_shift_sequence():
    assert parse_shift_sequence("0,0,1,0,6,3,5") == E7
    assert format_shift_sequence(E7) == "0,0,1,0,6,3,5"
    e = parse_shift_sequence("0, inf, 1")
    assert e.entries == (0, INFINITY, 1)
    assert format_shift_sequence(e) == "0,inf,1"
    with pytest.raises(ValueError):
        parse_shift_sequence("0,x,1")


def test_quadratic_shifts():
    assert quadratic_shifts(7, 1, 0).entries == (0, 1, 4, 2, 2, 4, 1)
    assert quadratic_shifts(11, 1, 3) == ShiftSequence(
        tuple((j * j + 3 * j) % 11 for j in range(11))
    )
    # 9 is not prime: at s = 3 the difference 6j + 9 repeats, so A fails.
    assert not CONDITIONS["A"].holds_rows(np.array([quadratic_shifts(9, 1, 0).entries]))[0]


@pytest.mark.parametrize("v", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_quadratic_shifts_satisfy_A_at_primes(v):
    rows = np.array([quadratic_shifts(v, c, l).entries for c in range(1, v) for l in range(v)])
    assert CONDITIONS["A"].holds_rows(rows).all()


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
    with pytest.raises(ValueError, match="finite"):
        _extension(ShiftSequence((0, INFINITY)))


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


def _interleave_reference(a, e):
    # Row by row: entry i*t + j is a shifted by e_j read at row i, or 0.
    values = []
    for i in range(a.period):
        for entry in e.entries:
            values.append(0 if entry == INFINITY else a[entry % a.period + i])
    return PeriodicSequence(2, tuple(values))


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=6).map(
        lambda vals: PeriodicSequence(2, tuple(vals))
    ),
    st.integers(1, 6).flatmap(
        lambda t: st.lists(st.one_of(st.integers(0, t - 1), st.just(INFINITY)), min_size=t, max_size=t)
    ),
)
def test_interleave_matches_double_loop(a, entries):
    e = ShiftSequence(tuple(entries))
    u = interleave(a, e)
    assert u == _interleave_reference(a, e)
    # A nonzero base whose shifts are all distinct reads its columns back.
    if any(a.values) and len({left_shift(a, k).values for k in range(a.period)}) == a.period:
        assert recover_shifts(u, a, e.v) == ShiftSequence(
            tuple(x if x == INFINITY else x % a.period for x in e.entries)
        )


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


def test_built_members_read_as_a_plain_tuple():
    # The members carry (a, b, e) for the delta, and otherwise are the tuple.
    ss = build_signal_set(A7, B7, E7)
    plain = tuple(ss.members)
    assert type(plain) is tuple and type(ss.members[:]) is tuple
    assert ss.members == plain and plain == ss.members and hash(ss.members) == hash(plain)
    assert repr(ss.members) == repr(plain) and str(ss.members) == str(plain)
    copy = dataclasses.replace(ss, members=plain)
    assert ss == copy and copy == ss and hash(ss) == hash(copy) and repr(ss) == repr(copy)
    assert ss.members + () == plain and type(ss.members + ()) is tuple


def test_build_signal_set_validation():
    # A ternary base never reaches the construction: it is refused when built.
    with pytest.raises(ValueError, match="binary"):
        PeriodicSequence(3, (0, 1, 2))
    with pytest.raises(ValueError):
        build_signal_set(A7, PeriodicSequence(2, (1, 0)), E7)
    with pytest.raises(ValueError):
        build_signal_set(A7, B7, ShiftSequence((0, 1, 2)))
    with pytest.raises(ValueError):
        build_signal_set(
            A7, B7, ShiftSequence((0, 0, 1, 0, 6, 3, INFINITY))
        )


SPIKE7 = PeriodicSequence(2, (1, 0, 0, 0, 0, 0, 0))


@pytest.mark.parametrize(
    "a, b, name",
    [
        (SPIKE7, B7, "base a"),
        (A7, SPIKE7, "offset b"),
        (SPIKE7, SPIKE7, "base a"),
        (A7, PeriodicSequence(2, (0,) * 7), "offset b"),
        (A7, PeriodicSequence(2, (1,) * 7), "offset b"),
    ],
    ids=["a-not-two-level", "b-not-two-level", "both", "b-zero", "b-one"],
)
def test_build_refuses_non_two_level_bases(monkeypatch, a, b, name):
    # Refused before the member table: the build reaches no numpy call.
    monkeypatch.setattr(interleaving, "np", None)
    with pytest.raises(ValueError, match=f"^{name} fails the two-level autocorrelation test$"):
        build_signal_set(a, b, E7)


@pytest.mark.parametrize("v", [1, 2])
def test_build_refuses_periods_below_3(monkeypatch, v):
    # Every length-1 base passes the vacuous two-level test, and a = 1, b = 0
    # would give members 0 and 1 equal, so v = 1 is refused outright; no
    # length-2 base is two-level.
    monkeypatch.setattr(interleaving, "np", None)
    e = ShiftSequence((0,) * v)
    for a, b in itertools.product(itertools.product((0, 1), repeat=v), repeat=2):
        with pytest.raises(ValueError, match="period 1" if v == 1 else "two-level"):
            build_signal_set(PeriodicSequence(2, a), PeriodicSequence(2, b), e)


def test_build_tests_each_base_once(monkeypatch):
    calls = []

    def counting(base):
        calls.append(base)
        return is_two_level(base)

    monkeypatch.setattr(interleaving, "is_two_level", counting)
    interleaving._two_level.cache_clear()
    for e in (E7, twisted_rotation(E7), E7):
        build_signal_set(A7, B7, e)
    ss = build_signal_set(A7, A7, E7)  # b = a: both two-level, so accepted
    assert _coincident_pairs(ss.members) == []
    for _ in range(2):
        with pytest.raises(ValueError, match="base a"):
            build_signal_set(SPIKE7, B7, E7)
    assert calls == [A7, B7, SPIKE7]


@pytest.fixture(scope="module")
def v7_space():
    # Every normalized v=7 vector (e_0 = 0), and the heavy ones: some extended
    # difference occurs v-1 = 6 or more times at some shift.
    tails = np.indices((7,) * 6).reshape(6, -1).T
    rows = np.hstack([np.zeros((len(tails), 1), dtype=tails.dtype), tails])
    return rows, ~Condition(extended=True, cap=5).holds_rows(rows)


def _profile_mu(e):
    _, tops = _count_table(e)
    return max(tops[True])


def test_heavy_v7_vectors_are_the_cap_v_minus_2_failures(v7_space):
    rows, heavy = v7_space
    assert heavy.sum() == 147
    assert {_profile_mu(ShiftSequence(tuple(row))) for row in rows[heavy].tolist()} == {6}


@pytest.mark.parametrize("v", range(2, 8))
def test_no_difference_occurs_v_times(v):
    # The step of the no-coincidence proof at s >= 1: the v extended
    # differences at a shift sum to s != 0 mod v, so they are never all equal.
    rows = np.indices((v,) * v, dtype=np.int8).reshape(v, -1).T
    assert Condition(extended=True, cap=v - 1).holds_rows(rows).all()


def test_two_level_bases_never_give_coincident_members(v7_space):
    # Every ordered pair of two-level bases (b = a and b a shift of a too),
    # with a pairwise scan and the full correlation table: no two distinct
    # members coincide, and no off-trivial correlation reaches v^2.
    bases3 = TWO_LEVEL[3]
    assert len(bases3) == 6
    for a in bases3:
        for b in bases3:
            for entries in np.ndindex(3, 3, 3):
                e = ShiftSequence(entries)
                assert _coincident_pairs(build_signal_set(a, b, e).members) == []
                assert _off_trivial_max(a, b, e) < 9
    bases7 = TWO_LEVEL[7]
    assert len(bases7) == 28
    rows, heavy = v7_space
    heavy_rows = rows[heavy].tolist()
    rng = random.Random(17)
    for a in bases7:
        for b in bases7:
            e = ShiftSequence(tuple(rng.choice(heavy_rows)))
            assert _coincident_pairs(build_signal_set(a, b, e).members) == []
            assert _off_trivial_max(a, b, e) < 49


def test_light_vectors_have_no_coincident_members(v7_space):
    # Vectors below the heavy mark on the worked bases, and random vectors on
    # Legendre bases at v = 11: a pairwise scan finds nothing, and at v = 7 no
    # off-trivial correlation reaches v^2.
    rows, heavy = v7_space
    light = rows[~heavy]
    rng = random.Random(16)
    sample = [ShiftSequence(tuple(light[i].tolist())) for i in rng.sample(range(len(light)), 500)]
    for e in sample:
        assert _coincident_pairs(build_signal_set(A7, B7, e).members) == []
    assert max(_off_trivial_max(A7, B7, e) for e in sample) < 49
    a, b = gen_legendre(11, 0), gen_legendre(11, 1)
    for _ in range(20):
        e = ShiftSequence(tuple(rng.randrange(11) for _ in range(11)))
        assert _coincident_pairs(build_signal_set(a, b, e).members) == []


@pytest.mark.parametrize(
    "a, b, e",
    [(A7, B7, E7), (M31, REV31, quadratic_shifts(31, 1, 3))],
    ids=["worked", "v31-quadratic"],
)
def test_built_members_equal_checked_sequences(a, b, e):
    members = build_signal_set(a, b, e).members
    assert all("value_bytes" in vars(m) for m in members)  # filled by the build
    assert_members_checked((*members, interleave(a, e)))


def assert_members_checked(members, want=None):
    # Members are built without re-validation; they must be indistinguishable
    # from sequences that went through every check, built from want when given.
    # Their cached bytes hold one byte per value; a checked sequence computes
    # its own on first use, and the cache takes no part in eq, hash or repr.
    for k, m in enumerate(members):
        checked = PeriodicSequence(2, m.values if want is None else tuple(want[k]))
        assert m == checked
        assert hash(m) == hash(checked)
        assert "value_bytes" not in vars(checked)
        assert checked.value_bytes == bytes(checked.values)
        assert vars(checked)["value_bytes"] is checked.value_bytes
        assert m.value_bytes == bytes(m.values)
        # Both caches filled: still equal, with equal hashes and reprs.
        assert m == checked
        assert hash(m) == hash(checked)
        assert repr(m) == repr(checked)
        assert [f.name for f in dataclasses.fields(m)] == ["modulus", "values"]
        assert type(m.values) is tuple
        assert all(type(x) is int for x in m.values)


@st.composite
def construction_inputs(draw):
    # Two-level a and b of one period v in (3, 7) and a finite length-v vector e.
    v = draw(st.sampled_from(sorted(TWO_LEVEL)))
    entries = st.lists(st.integers(0, v - 1), min_size=v, max_size=v)
    a, b = (draw(st.sampled_from(TWO_LEVEL[v])) for _ in range(2))
    return a, b, ShiftSequence(tuple(draw(entries)))


@given(construction_inputs())
def test_built_members_match_double_loop(inputs):
    # The definition, entry by entry: u_(i*v + j) = a_((e_j + i) mod v), and
    # member 1+k at t is u_t + b_((t+k) mod v), mod 2.
    a, b, e = inputs
    v = a.period
    u = [a.values[(e.entries[j] + i) % v] for i in range(v) for j in range(v)]
    want = [u] + [[u[t] ^ b.values[(t + k) % v] for t in range(v * v)] for k in range(v)]
    members = build_signal_set(a, b, e).members
    assert [m.values for m in members] == [tuple(row) for row in want]
    assert [vars(m)["value_bytes"] for m in members] == [bytes(row) for row in want]
    assert members[0] == interleave(a, e)
    assert_members_checked(members, want)


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


def test_column_correlations_frozen_values():
    kernel = column_correlations(A7, B7, E7)
    assert kernel.dtype == np.int64
    assert kernel.shape == (8, 8, 49)
    assert kernel[1, 2, 0] == -7
    assert kernel[1, 2, 7] == 1
    assert kernel[1, 2, 8] == 17


def test_column_correlations_known_vector():
    # At tau = 1 (r = 0, s = 1) column j's C_a argument is t_j = E(j+1) - e_j,
    # the negated extended differences; the members only set the signs.
    t = tuple((-d) % 7 for d in differences(E7, 1, True).values)
    assert t == (0, 1, 6, 6, 4, 2, 3)
    c_a = autocorrelation(A7).values
    sigma = [[1] * 7] + [[(-1) ** B7[j + k] for j in range(7)] for k in range(7)]
    kernel = column_correlations(A7, B7, E7)
    for m in range(8):
        for n in range(8):
            expected = sum(sigma[m][j] * sigma[n][(j + 1) % 7] * c_a[t[j]] for j in range(7))
            assert kernel[m, n, 1] == expected


def _assert_kernel_is_direct(a, b, e):
    ss = build_signal_set(a, b, e)
    direct = [[cross_correlation(x, y).values for y in ss.members] for x in ss.members]
    assert column_correlations(a, b, e).tolist() == [[list(p) for p in row] for row in direct]


@given(entries7)
@settings(max_examples=25, deadline=None)
def test_column_correlations_match_direct(e):
    _assert_kernel_is_direct(A7, B7, e)


def test_column_correlations_match_direct_legendre_v11():
    rng = random.Random(11)
    e = ShiftSequence(tuple(rng.randrange(11) for _ in range(11)))
    _assert_kernel_is_direct(gen_legendre(11, 0), gen_legendre(11, 1), e)


def test_column_correlations_validation():
    with pytest.raises(ValueError, match="binary"):
        PeriodicSequence(3, (0, 1, 2))
    with pytest.raises(ValueError, match="period mismatch: 7 vs 2"):
        column_correlations(A7, PeriodicSequence(2, (1, 0)), E7)
    with pytest.raises(ValueError):
        column_correlations(A7, B7, ShiftSequence((0, 1, 2)))
    with pytest.raises(ValueError):
        column_correlations(A7, B7, ShiftSequence((0, 0, 1, 0, 6, 3, INFINITY)))


def test_zero_count_worked_example():
    # n0(s=1, r=0) = 1 column, so |C| <= 1 + 8 * 1 = 9 at tau = 1 off the
    # diagonal phase.
    assert dict(differences(E7, 1, True).multiplicity)[0] == 1
    kernel = column_correlations(A7, B7, E7)
    assert max(abs(kernel[1 + h, 1 + k, 1]) for h in range(7) for k in range(7) if (h - k) % 7 != 1) <= 9


def test_zero_count_linear_vector():
    v = 7
    linear = ShiftSequence(tuple(range(v)))
    for s in range(1, v):
        n0 = dict(differences(linear, s, True).multiplicity)
        assert n0[(v - s) % v] == v - s
        assert n0[(v - s - 1) % v] == s


@given(entries7)
@settings(max_examples=25, deadline=None)
def test_magnitude_bound_off_diagonal_phases(e):
    kernel = column_correlations(A7, B7, e)
    for s in range(1, 7):
        n0 = dict(differences(e, s, True).multiplicity)
        for h in range(7):
            for k in range(7):
                if (h - k) % 7 == s:
                    continue
                for r in range(7):
                    assert abs(kernel[1 + h, 1 + k, r * 7 + s]) <= 1 + 8 * n0.get(r, 0)


@given(entries7, st.integers(0, 6))
@settings(deadline=None)
def test_column_correlations_translation_invariant(e, c):
    # The terms E(j+s) - e_j + r do not see a common translation of e.
    shifted = ShiftSequence(tuple((x + c) % 7 for x in e.entries))
    assert np.array_equal(column_correlations(A7, B7, e), column_correlations(A7, B7, shifted))


@given(entries7, st.integers(1, 6), st.integers(0, 6))
def test_zero_count_counts_t_zeros(e, s, r):
    zeros = sum((extended_entry(e, j + s) - e.entries[j] + r) % 7 == 0 for j in range(7))
    assert dict(differences(e, s, True).multiplicity).get(r, 0) == zeros


def _off_trivial_max(a, b, e):
    kernel = column_correlations(a, b, e)
    for m in range(len(kernel)):
        kernel[m, m, 0] = 0
    return int(np.abs(kernel).max())


def test_distinctness_delta_is_2v_plus_3_at_v7_and_2v_plus_1_at_v3():
    # Every normalized distinctness vector gives 17 = 2v + 3 at v = 7 with
    # the worked bases, so "delta = 2v + 1" holds at v = 3 only, where all
    # nine normalized vectors give 7.
    tails = np.indices((7,) * 6).reshape(6, -1).T
    rows = np.hstack([np.zeros((len(tails), 1), dtype=tails.dtype), tails])
    a_vectors = [ShiftSequence(tuple(row)) for row in rows[CONDITIONS["A"].holds_rows(rows)].tolist()]
    assert len(a_vectors) == 672
    assert {_off_trivial_max(A7, B7, e) for e in a_vectors} == {17}
    a3, b3 = PeriodicSequence(2, (1, 1, 0)), PeriodicSequence(2, (0, 1, 1))
    v3 = [ShiftSequence((0, x, y)) for x in range(3) for y in range(3)]
    assert {_off_trivial_max(a3, b3, e) for e in v3} == {7}
    rng = random.Random(7)
    sample = [(A7, B7, e) for e in rng.sample(a_vectors, 12)] + [(a3, b3, e) for e in rng.sample(v3, 4)]
    for a, b, e in sample:
        assert _off_trivial_max(a, b, e) == signal_set_delta(build_signal_set(a, b, e).members).delta


def test_twisted_rotation_entries():
    e = ShiftSequence((0, 2, INFINITY, 1))
    assert twisted_rotation(e) == ShiftSequence((2, INFINITY, 1, 1))
    assert twisted_rotation(e, 0) == e
    # Rotating v times adds 1 to every finite entry.
    assert twisted_rotation(e, 4) == ShiftSequence((1, 3, INFINITY, 2))
    once = e
    for k in range(1, 13):
        once = twisted_rotation(once)
        assert twisted_rotation(e, k) == once
        assert twisted_rotation(once, -k) == e


def assert_rotation_maps_the_set(a, b, e, oracle=True):
    # Each step of the proof, exactly: the members, the delta, the witnesses.
    # The original set's witnesses come from the oracle, or from the engine
    # on the Legendre sets at v = 31 and 59, too large for the oracle here.
    pi = np.array([0] + [1 + (j + 1) % e.v for j in range(e.v)])  # pi(1+j) = 1 + (j+1 mod v)
    original = build_signal_set(a, b, e)
    rotated = build_signal_set(a, b, twisted_rotation(e))
    for m, member in enumerate(original.members):
        assert rotated.members[pi[m]] == left_shift(member, 1)
    if oracle:
        delta, hits = reference_delta(original.members)
        i, j, tau, value = np.array(hits, np.int64).T
    else:
        want = signal_set_delta(original.members)
        delta, (i, j, tau, value) = want.delta, want.witnesses.columns()
    got = signal_set_delta(rotated.members)
    assert got.delta == delta
    i, j = pi[i], pi[j]
    order = np.lexsort((tau, j, i))  # pi reorders (i, j): sort the image again
    mapped = (i[order], j[order], tau[order], value[order])
    columns = (got.witnesses.i, got.witnesses.j, got.witnesses.tau, got.witnesses.value)
    assert all(map(np.array_equal, columns, mapped))
    return got


def test_twisted_rotation_maps_every_small_set():
    # Every vector at v = 3 with every pair of the 6 two-level bases.
    for entries in itertools.product(range(3), repeat=3):
        e = ShiftSequence(entries)
        for a, b in itertools.product(TWO_LEVEL[3], repeat=2):
            assert_rotation_maps_the_set(a, b, e)


def test_twisted_rotation_maps_seeded_v7_sets():
    rng = random.Random(8)
    for _ in range(24):
        a, b = (rng.choice(TWO_LEVEL[7]) for _ in "ab")
        e = ShiftSequence(tuple(rng.randrange(7) for _ in range(7)))
        assert_rotation_maps_the_set(a, b, e)


@pytest.mark.parametrize("v, count", [(31, 35840), (59, 470400)])
def test_twisted_rotation_of_legendre_sets(v, count):
    # The rotated quadratic vector fails A but keeps B, and its set keeps
    # the quadratic set's delta 2v+3 with every witness mapped.
    e = quadratic_shifts(v, 1, 3)
    rows = np.array([e.entries, twisted_rotation(e).entries])
    assert CONDITIONS["A"].holds_rows(rows).tolist() == [True, False]
    assert CONDITIONS["B"].holds_rows(rows).tolist() == [True, True]
    got = assert_rotation_maps_the_set(gen_legendre(v, 0), gen_legendre(v, 1), e, oracle=False)
    assert got.delta == 2 * v + 3 and len(got.witnesses) == count


#: The two-level bases of acceptance criterion 12 (two or more INFINITY
#: columns): the v = 3 pair, the worked pair and the v = 11 Legendre pair.
CRITERION_12_BASES = [
    PeriodicSequence(2, (1, 1, 0)),
    PeriodicSequence(2, (0, 1, 1)),
    A7,
    B7,
    gen_legendre(11, 0),
    gen_legendre(11, 1),
]


def test_two_level_sign_sum_is_plus_or_minus_one():
    # With beta = (-1)^b, (sum of beta)^2 = sum over tau of C_b(tau) =
    # v - (v - 1) = 1 for two-level b.
    for b in CRITERION_12_BASES:
        assert is_two_level(b)
        total = int((1 - 2 * np.array(b.values)).sum())
        assert total * total == sum(autocorrelation(b).values) == 1
        assert total in (1, -1)


def test_infinity_sign_sums_square_to_m_v_minus_m_plus_1():
    # G(k) = sum over the m INFINITY columns p of beta(p + k). Summed over k,
    # G(k)^2 = m*C_b(0) + (m^2 - m)*(-1) = m(v - m + 1) > v for 2 <= m <= v-1,
    # so some k has |G(k)| >= 2. Every column set, for every base.
    for b in CRITERION_12_BASES:
        v = b.period
        beta = 1 - 2 * np.array(b.values)
        shifted = beta[np.add.outer(np.arange(v), np.arange(v)) % v]  # [p, k] = beta(p + k)
        for m in range(2, v):
            for columns in itertools.combinations(range(v), m):
                g = shifted[list(columns)].sum(axis=0)
                assert int((g * g).sum()) == m * (v - m + 1)
                assert np.abs(g).max() >= 2
