"""Tests for interleaving, signal-set construction, and the column identity."""

import dataclasses
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

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
    fast_cross_correlation,
    format_sequence,
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
from ilvseq import correlation, interleaving
from ilvseq.conditions import Condition, _count_table
from ilvseq.correlation import _kernel_index
from delta_oracle import reference_delta, reference_grid
from search_oracle import finite_term_open

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
    # The kernel's row index, one gather from the cached table of circulant
    # rows, is E(j+s) - e_j mod v, E the extension, at every s and j.
    e = ShiftSequence(entries)
    v = e.v
    index = _kernel_index(e)
    assert index.dtype == np.int64 and index.shape == (v, v)
    assert index.tolist() == [
        [(extended_entry(e, j + s) - e.entries[j]) % v for j in range(v)] for s in range(v)
    ]


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
    # An INFINITY column has no extension: the kernel reads row v (S_a) for a
    # pair with one INFINITY side, row v + 1 (v) for two.
    assert _kernel_index(ShiftSequence((0, INFINITY))).tolist() == [[0, 3], [2, 2]]


def test_circulant_rows_past_v_are_S_a_and_v():
    # S_a = sum of (-1)^(a_i) is -1 for the worked a and +1 for the v = 11
    # Legendre sequence of zero convention 0: it is read from a's bits.
    for a, s_a in [(A7, -1), (gen_legendre(11, 0), 1), (gen_legendre(11, 1), -1)]:
        v = a.period
        circulant, _ = correlation._identity_operands(a, a, v + 1)
        assert circulant.shape == (v + 2, v)
        assert circulant[:v].tolist() == [[autocorrelation(a)[d + q] for q in range(v)] for d in range(v)]
        assert circulant[v:].tolist() == [[s_a] * v, [v] * v]


@pytest.mark.parametrize("position", range(7))
def test_identity_rows_read_an_infinite_entry(position):
    # A zero column reads the circulant's constant rows: the identity's
    # rows of a vector with one INFINITY entry equal the oracle's grid, in
    # one block, and in member 0 alone then blocks of three.
    entries = list(E7.entries)
    entries[position] = INFINITY
    e = ShiftSequence(tuple(entries))
    grid = reference_grid(build_signal_set(A7, B7, e).members)
    for step, starts in ((8, [0]), (3, [0, 1, 4, 7])):
        operands = correlation._identity_operands(A7, B7, step)
        blocks = list(correlation._identity_rows(*operands, e))
        assert [lo for lo, _ in blocks] == starts
        for (lo, rows), end in zip(blocks, starts[1:] + [8]):
            assert np.array_equal(rows.transpose(0, 2, 3, 1).reshape(end - lo, 8 - lo, 49), grid[lo:end, lo:])


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
    with pytest.raises(ValueError, match="finite entry"):
        build_signal_set(A7, B7, ShiftSequence((INFINITY,) * 7))


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


@pytest.mark.parametrize(
    "a, b, e",
    [(A7, B7, E7), (M31, REV31, quadratic_shifts(31, 1, 3))],
    ids=["worked", "v31-quadratic"],
)
def test_built_members_decode_values_only_when_read(a, b, e):
    # A built member holds its row's bytes alone. The delta and every reader
    # that needs only bytes leave its values undecoded; the first read of
    # values decodes them from those bytes, and keeps them.
    members = build_signal_set(a, b, e).members
    u = interleave(a, e)
    signal_set_delta(members)
    n = u.period
    for m in (*members, u):
        assert shift_equivalence(m, u) in (None, 0)
        assert len(format_sequence(m)) == len(str(m)) == len(m) == m.period == n
        assert (m[0], m[n], m[-1]) == (m.value_bytes[0], m.value_bytes[0], m.value_bytes[-1])
        assert list(m) == list(m.value_bytes) and len(left_shift(m, 3)) == n
        assert cross_correlation(m, u) == fast_cross_correlation(m, u)
    assert all("values" not in vars(m) for m in (*members, u))
    for m in (*members, u):
        assert m.values == tuple(m.value_bytes) and "values" in vars(m)
        assert vars(m)["values"] is m.values
        assert format_sequence(m) == "".join(str(x) for x in m.values)
        assert list(m) == list(m.values) and m[-1] == m.values[-1]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_v255_build_stays_small():
    # The 256 members of a v = 255 set hold 16.6 MB of row bytes. Decoded to
    # tuples of ints they held about 330 MB; bytes-first, the whole process
    # stays under 150 MB at its peak. The child reads its own VmHWM (kB):
    # its ru_maxrss would carry over the peak of the test runner's image,
    # which its exec replaced.
    script = (
        "import re\n"
        "from ilvseq import LfsrSpec, PRIMITIVE_POLYS, PeriodicSequence, build_signal_set, gen_mseq, "
        "quadratic_shifts\n"
        "m = gen_mseq(LfsrSpec(8, tuple(int(c) for c in PRIMITIVE_POLYS[8]), (1,) + (0,) * 7))\n"
        "ss = build_signal_set(m, PeriodicSequence(2, m.values[::-1]), quadratic_shifts(255, 1, 0))\n"
        "assert len(ss.members) == 256 and ss.period == 65025\n"
        "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read()).group(1))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 150 * 1024


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
    with pytest.raises(ValueError, match="finite entry"):
        column_correlations(A7, B7, ShiftSequence((INFINITY,) * 7))


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


def _infinity_vectors(rng, v, count):
    # count seeded length-v vectors, each with 1 to v - 1 INFINITY columns.
    vectors = []
    for _ in range(count):
        columns = rng.sample(range(v), rng.randint(1, v - 1))
        vectors.append(ShiftSequence(tuple(INFINITY if j in columns else rng.randrange(v) for j in range(v))))
    return vectors


#: Every v = 3 vector with an INFINITY entry and a finite one.
INFINITY_V3 = [
    ShiftSequence(x) for x in itertools.product((0, 1, 2, INFINITY), repeat=3) if 0 < x.count(INFINITY) < 3
]

#: Built sets with INFINITY columns, by v: every v = 3 vector on a = 110,
#: b = 011; seeded vectors on the worked pair, on the v = 11 Legendre pair
#: in both orders (S_a = +1 and -1), on the v = 19 Legendre pair, and on
#: the v = 31 m-sequence and its reversal, which the identity reads in
#: blocks of four members.
INFINITY_SETS = {
    3: [(PeriodicSequence(2, (1, 1, 0)), PeriodicSequence(2, (0, 1, 1)), e) for e in INFINITY_V3],
    7: [(A7, B7, e) for e in _infinity_vectors(random.Random(7), 7, 60)],
    11: [
        (gen_legendre(11, zero), gen_legendre(11, 1 - zero), e)
        for zero in (0, 1)
        for e in _infinity_vectors(random.Random(11 + zero), 11, 25)
    ],
    19: [(gen_legendre(19, 0), gen_legendre(19, 1), e) for e in _infinity_vectors(random.Random(19), 19, 10)],
    31: [(M31, REV31, e) for e in _infinity_vectors(random.Random(31), 31, 2)],
}


@pytest.mark.parametrize("v", sorted(INFINITY_SETS))
def test_identity_reads_infinity_columns(v, monkeypatch):
    # With the transform out of reach, the delta of each built set and
    # every witness equal the oracle's: the column identity reads them all.
    monkeypatch.setattr(correlation, "_transform_rows", None)
    for a, b, e in INFINITY_SETS[v]:
        members = build_signal_set(a, b, e).members
        delta, hits = reference_delta(members)
        report = signal_set_delta(members)
        assert report.delta == delta and list(report.witnesses) == hits


@pytest.mark.parametrize("v", [3, 7, 11])
def test_column_correlations_read_infinity_columns(v):
    for a, b, e in INFINITY_SETS[v]:
        assert np.array_equal(column_correlations(a, b, e), reference_grid(build_signal_set(a, b, e).members))


def test_infinity_sets_have_distinct_members():
    # build_signal_set proves distinctness for finite e; with INFINITY
    # columns it is checked: every two-level v = 3 pair on every v = 3
    # vector with an INFINITY entry, and 500 seeded v = 7 sets.
    cases = [(a, b, e) for a, b in itertools.product(TWO_LEVEL[3], repeat=2) for e in INFINITY_V3]
    rng = random.Random(46)
    for e in _infinity_vectors(rng, 7, 500):
        cases.append((rng.choice(TWO_LEVEL[7]), rng.choice(TWO_LEVEL[7]), e))
    assert len(cases) == 1796
    for a, b, e in cases:
        assert _coincident_pairs(build_signal_set(a, b, e).members) == []


def test_twisted_rotation_maps_seeded_infinity_sets():
    # INFINITY entries stay INFINITY, and the members, delta and witnesses map.
    rng = random.Random(10)
    for e in _infinity_vectors(rng, 7, 300):
        a, b = (rng.choice(TWO_LEVEL[7]) for _ in "ab")
        assert_rotation_maps_the_set(a, b, e, oracle=False)


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


def test_one_infinity_rule_needs_s_a_minus_one():
    # The premise of the one-infinity v + 2 rule (README, acceptance
    # criterion 14), as measured where S_a = +1. At v = 7 the complement
    # of the worked a is two-level with S_a = +1: with the worked b, the
    # 140 finite-term-OPEN vectors with e_0 = 0 and INFINITY last give
    # delta 13, where the worked a (S_a = -1) gives 9. At v = 3, a = 110
    # (S_a = -1) and its complement 001 (S_a = +1), with b = 011, give 5 on
    # all 27 one-INFINITY vectors.
    def deltas(a, b, vectors):
        found = {}
        for entries in vectors:
            delta = signal_set_delta(build_signal_set(a, b, ShiftSequence(entries)).members).delta
            found[delta] = found.get(delta, 0) + 1
        return found

    def s_a(a):
        return int((1 - 2 * np.array(a.values)).sum())

    complement = PeriodicSequence(2, tuple(1 - x for x in A7.values))
    assert is_two_level(complement) and (s_a(A7), s_a(complement)) == (-1, 1)
    hits7 = [
        (0, *tail, INFINITY) for tail in itertools.product(range(7), repeat=5)
        if finite_term_open((0, *tail, None), 6)
    ]
    assert len(hits7) == 140
    assert deltas(complement, B7, hits7) == {13: 140}
    assert deltas(A7, B7, hits7) == {9: 140}
    one_infinity3 = [
        finite[:p] + (INFINITY,) + finite[p:] for p in range(3) for finite in itertools.product(range(3), repeat=2)
    ]
    b3 = PeriodicSequence(2, (0, 1, 1))
    for bits, sign in (((1, 1, 0), -1), ((0, 0, 1), 1)):
        a3 = PeriodicSequence(2, bits)
        assert is_two_level(a3) and s_a(a3) == sign
        assert deltas(a3, b3, one_infinity3) == {5: 27}
