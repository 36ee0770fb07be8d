"""Tests for correlation profiles, two-level detection, and delta sweeps."""

import dataclasses
import hashlib
import random
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ilvseq import (
    PRIMITIVE_POLYS,
    LfsrSpec,
    PeriodicSequence,
    SearchSpec,
    ShiftSequence,
    Witness,
    autocorrelation,
    backtrack,
    build_signal_set,
    column_correlations,
    correlation,
    cross_correlation,
    fast_cross_correlation,
    gen_legendre,
    gen_mseq,
    is_two_level,
    left_shift,
    parse_sequence,
    quadratic_shifts,
    signal_set_delta,
)
from ilvseq.cli import main
from delta_oracle import reference_delta, reference_grid

A7 = PeriodicSequence(2, (1, 0, 0, 1, 1, 1, 0))
B7 = PeriodicSequence(2, (1, 0, 0, 1, 0, 1, 1))

binary7 = st.lists(st.integers(0, 1), min_size=7, max_size=7).map(
    lambda v: PeriodicSequence(2, tuple(v))
)


@st.composite
def member_sets(draw):
    n = draw(st.integers(1, 12))
    r = draw(st.integers(2 if n == 1 else 1, 5))
    return [
        PeriodicSequence(2, tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))))
        for _ in range(r)
    ]


def test_autocorrelation_two_level_bases():
    for base in (A7, B7):
        prof = autocorrelation(base)
        assert prof.values == (7, -1, -1, -1, -1, -1, -1)
        assert is_two_level(base)


def test_profile_cyclic_indexing():
    prof = autocorrelation(A7)
    assert prof[7] == prof[0] == 7
    assert prof[-1] == prof[6]
    assert prof.period == 7


def test_cross_correlation_known_value():
    # At tau = 0 the bases agree in 5 places and differ in 2.
    prof = cross_correlation(A7, B7)
    assert prof[0] == 3
    assert isinstance(prof[0], int)


def test_not_two_level():
    spike = PeriodicSequence(2, (1, 0, 0, 0, 0, 0, 0))
    assert not is_two_level(spike)
    assert autocorrelation(spike)[1] == 3


def test_pair_validation():
    with pytest.raises(ValueError):
        cross_correlation(A7, PeriodicSequence(2, (1, 0)))
    # A ternary partner never reaches the engine: it is refused when built.
    with pytest.raises(ValueError, match="binary"):
        PeriodicSequence(3, (0,) * 7)


def test_legendre_two_level_exactly_for_3_mod_4():
    for conv in (0, 1):
        assert is_two_level(gen_legendre(11, conv))
        assert is_two_level(gen_legendre(19, conv))
        assert not is_two_level(gen_legendre(13, conv))
        assert not is_two_level(gen_legendre(17, conv))


def test_non_binary_input_is_refused(capsys):
    # The one alphabet rule: PeriodicSequence refuses every modulus but 2 and
    # every value outside {0, 1}, so no engine entry ever sees another.
    for p in (0, 1, 3, 4, 257):
        with pytest.raises(ValueError, match="binary"):
            PeriodicSequence(p, (0, 1, 0))
    with pytest.raises(ValueError, match=r"value 2 is outside \[0, 2\)"):
        parse_sequence("10122021")
    for argv in (
        ["correlate", "--a", "1021110", "--b", "1001011"],
        ["build", "--a", "1001110", "--b", "1001021", "--e", "0,0,1,0,6,3,5"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: value 2 is outside [0, 2)\n"


@given(binary7, binary7, st.integers(0, 6))
def test_binary_conjugate_symmetry(a, b, tau):
    assert cross_correlation(a, b)[tau] == cross_correlation(b, a)[(7 - tau) % 7]


@given(binary7, binary7)
def test_binary_parity_and_total(a, b):
    prof = cross_correlation(a, b)
    # Each value is a sum of 7 terms of +-1.
    assert all(val % 2 == 1 for val in prof.values)
    assert all(-7 <= val <= 7 for val in prof.values)
    # Summing over tau factorizes into the two lifted row sums.
    row = lambda s: s.period - 2 * sum(s.values)
    assert sum(prof.values) == row(a) * row(b)


@given(binary7, binary7)
def test_fast_matches_direct_binary(a, b):
    assert fast_cross_correlation(a, b).values == cross_correlation(a, b).values


def test_fast_profile_values_are_python_ints():
    # The transform computes in float64; the profile must hold exact ints,
    # as cross_correlation's does, at odd, even and v=31 member periods.
    pairs = [(A7, B7), (parse_sequence("0110"), parse_sequence("1100")), (A7, A7)]
    members = build_signal_set(*V31_QUADRATIC).members
    pairs.append((members[0], members[5]))
    for a, b in pairs:
        values = fast_cross_correlation(a, b).values
        assert all(type(c) is int for c in values)
        assert values == cross_correlation(a, b).values


def test_delta_of_shifted_pair():
    report = signal_set_delta([A7, left_shift(A7, 1)])
    assert report.delta == 7
    assert isinstance(report.delta, int)
    assert report.period == 7
    assert report.member_count == 2
    assert report.witnesses == (Witness(0, 1, 6, 7), Witness(1, 0, 1, 7))


def test_delta_single_two_level_member():
    report = signal_set_delta([A7])
    assert report.delta == 1
    assert len(report.witnesses) == 6  # all tau != 0


def test_delta_direct_and_fast_agree():
    # method is accepted for the bench and selects nothing: both values give
    # the oracle's report.
    members = [A7, B7, left_shift(A7, 3)]
    delta, hits = reference_delta(members)
    for method in ("direct", "fast"):
        report = signal_set_delta(members, method=method)
        assert report.delta == delta and report.witnesses == tuple(hits)


def test_delta_invariant_under_common_shift():
    members = [A7, B7, left_shift(A7, 3)]
    base = signal_set_delta(members).delta
    for c in range(1, 7):
        moved = [left_shift(m, c) for m in members]
        assert signal_set_delta(moved).delta == base


def test_two_level_profile_sums_to_one():
    for seq in (A7, B7, gen_legendre(11), gen_legendre(19, 1)):
        assert is_two_level(seq)
        assert sum(autocorrelation(seq).values) == 1


def test_delta_validation():
    with pytest.raises(ValueError):
        signal_set_delta([])
    with pytest.raises(ValueError):
        signal_set_delta([A7, PeriodicSequence(2, (1, 0))])
    with pytest.raises(ValueError):
        signal_set_delta([A7], method="magic")
    with pytest.raises(ValueError):
        # A single period-1 member admits no (pair, offset) at all.
        signal_set_delta([PeriodicSequence(2, (1,))])


def assert_engine_matches_reference(members):
    delta, hits = reference_delta(members)
    report = signal_set_delta(members)
    assert type(report.delta) is int and report.delta == delta
    assert [(w.i, w.j, w.tau, w.value) for w in report.witnesses] == hits
    assert (np.diff(report.witnesses.code) > 0).all()  # sorted, each code once
    assert all(column.dtype == np.int64 for column in report.witnesses.columns())
    assert all(type(w.value) is int for w in report.witnesses)


def test_engine_matches_reference_on_v7_a_vectors():
    a_vectors = backtrack(SearchSpec(7, "A", limit=1000, strategy="backtrack")).witnesses
    assert len(a_vectors) == 672
    for e in random.Random(2).sample(a_vectors, 24):
        ss = build_signal_set(A7, B7, e)
        assert_engine_matches_reference(ss.members)


MSEQ31 = gen_mseq(LfsrSpec(5, tuple(int(c) for c in PRIMITIVE_POLYS[5]), (1, 0, 1, 1, 0)))
# a, b and e of a v=31 set: 32 members of period 961, one member per block.
V31_QUADRATIC = (MSEQ31, PeriodicSequence(2, MSEQ31.values[::-1]), quadratic_shifts(31, 2, 7))


def test_engine_matches_reference_on_v31_quadratic_set():
    ss = build_signal_set(*V31_QUADRATIC)
    assert_engine_matches_reference(ss.members)


# sha256 of `ilvseq build --delta` standard output for V31_QUADRATIC up to
# its timing key (3,926,198 bytes), recorded from the engine that computed all
# r^2 ordered pairs.
V31_BUILD_DELTA_SHA256 = "6526b0a9d804792207d256bb699fc08ba81047f68c67afe1d5aa6f2fc76262d6"


def test_build_delta_json_of_v31_set_is_byte_identical(capsys):
    a, b, e = V31_QUADRATIC
    assert main(["build", "--a", str(a), "--b", str(b), "--e", str(e), "--delta"]) == 0
    head, timing, _ = capsys.readouterr().out.partition('  "timing"')
    assert timing and len(head) == 3926198
    assert hashlib.sha256(head.encode()).hexdigest() == V31_BUILD_DELTA_SHA256


DEFAULT_BLOCK_VALUES = correlation._BLOCK_VALUES


@settings(max_examples=60, deadline=None)
@given(member_sets())
# Every offset attains delta between two distinct members here, tau = 0 and
# tau = n/2 among them: the two offsets that -tau mod n leaves in place.
@example([parse_sequence("0101"), parse_sequence("1010")])
@example([A7, B7, left_shift(A7, 3)])  # an odd period
def test_engine_matches_reference_binary(members):
    # A plain list reads the transform. Default blocks hold a whole small
    # set, so nothing is mirrored; blocks of one member, at a bound of 1 or
    # 3n, fill in every pair (i, j) with j < i from its mirror (j, i).
    n = members[0].period
    for block_values in (DEFAULT_BLOCK_VALUES, 1, 3 * n):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(correlation, "_BLOCK_VALUES", block_values)
            assert_engine_matches_reference(members)


def test_reference_delta_is_the_cross_correlation_scan():
    # The oracle against cross_correlation on every ordered pair of the
    # worked set: the whole set, and each pair of its members alone.
    profiles = [[cross_correlation(a, b).values for b in WORKED_SET] for a in WORKED_SET]

    def scan(labels):
        cells = [
            (i, j, tau, c)
            for i, a in enumerate(labels)
            for j, b in enumerate(labels)
            for tau, c in enumerate(profiles[a][b])
            if i != j or tau
        ]
        delta = max(abs(c) for *_, c in cells)
        return delta, [cell for cell in cells if abs(cell[3]) == delta]

    want = scan(range(8))
    assert want[0] == 17 and reference_delta(WORKED_SET) == want
    for a in range(8):
        for b in range(a + 1, 8):
            assert reference_delta([WORKED_SET[a], WORKED_SET[b]]) == scan([a, b])


def assert_same_witnesses(got, want):
    # Positions and values exactly, every field a Python int.
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is Witness and all(type(field) is int for field in g)
        assert g == w


WORKED_ABE = (A7, B7, ShiftSequence((0, 0, 1, 0, 6, 3, 5)))
WORKED_SET = build_signal_set(*WORKED_ABE).members


@pytest.mark.parametrize("members", [WORKED_SET], ids=["p2-worked"])
def test_witness_sequence_reads_as_the_tuple(members):
    seq = signal_set_delta(members).witnesses
    want = tuple(Witness(*hit) for hit in reference_delta(members)[1])
    assert len(seq) == len(want) == 80 and seq
    assert (np.diff(seq.code) > 0).all()  # one block: sorted, each code once
    assert_same_witnesses(seq, want)
    assert_same_witnesses([seq[0], seq[-1]], [want[0], want[-1]])
    assert_same_witnesses(seq[1:-1:2], want[1:-1:2])
    assert seq == want and want == seq and seq[1:-1:2] == want[1:-1:2]
    assert seq[0] == want[0] and seq[-1] == want[-1]
    every = range(-len(seq), len(seq))  # a tuple's indices, negative ones too
    assert_same_witnesses([seq[k] for k in every], [want[k] for k in every])
    assert seq != want[1:] and seq != list(want)
    # Reading does not consume it.
    assert tuple(seq) == tuple(seq) and list(seq) == list(iter(seq))
    for column in (seq.i, seq.j, seq.tau, seq.value, seq[::2].tau):
        with pytest.raises(ValueError):
            column[0] = column[0]
    for k in (len(seq), -len(seq) - 1):
        with pytest.raises(IndexError):
            seq[k]


def test_witness_sequences_compare_by_columns():
    # Two reports of one set, each over its own code array.
    report, again = signal_set_delta(WORKED_SET), signal_set_delta(WORKED_SET)
    assert report.witnesses == again.witnesses and report == again
    assert hash(report) == hash(again)
    assert report.witnesses != again.witnesses[:-1]
    # Reordering the members relabels i and j: same delta and count, other columns.
    relabelled = signal_set_delta(WORKED_SET[::-1])
    assert relabelled.delta == report.delta and len(relabelled.witnesses) == 80
    assert relabelled.witnesses != report.witnesses


def test_witness_sequences_compare_decoded_columns_across_shapes():
    # The same (i, j, tau, value) columns packed for other (r, n) are other
    # codes, and still compare equal; the same codes under another delta
    # decode to other values, and do not.
    seq = signal_set_delta(WORKED_SET).witnesses
    i, j, tau, value = seq.columns()
    assert all(map(np.array_equal, (seq.i, seq.j, seq.tau, seq.value), (i, j, tau, value)))
    assert not any(c.flags.writeable for c in (seq.i, seq.j, seq.tau, seq.value, i, j, tau, value))
    r, n = seq.r + 3, seq.n + 5
    repacked = correlation.WitnessSequence(((i * r + j) * n + tau) << 1 | (value < 0), seq.delta, r, n)
    assert not np.array_equal(repacked.code, seq.code)
    assert repacked == seq and seq == repacked and hash(repacked) == hash(seq)
    assert repacked[3:9] == seq[3:9] and repacked[3:9] != seq[4:10]
    other_delta = correlation.WitnessSequence(seq.code.copy(), seq.delta + 2, seq.r, seq.n)
    assert other_delta != seq and seq != other_delta
    assert all(map(np.array_equal, other_delta.columns()[:3], seq.columns()[:3]))


def test_witness_is_a_named_tuple():
    w = Witness(0, 1, 6, 7)
    assert Witness._fields == ("i", "j", "tau", "value")
    assert w == Witness(i=0, j=1, tau=6, value=7) == (0, 1, 6, 7)
    assert (w.i, w.j, w.tau, w.value) == (0, 1, 6, 7)
    i, j, tau, value = w
    assert (i, j, tau, value) == (0, 1, 6, 7)
    assert repr(w) == "Witness(i=0, j=1, tau=6, value=7)"


def test_delta_report_holds_witnesses_as_arrays():
    # 35,840 witnesses: a tuple of Witness objects held about 96 bytes each,
    # four int64 columns 32, and one packed int64 code holds 8.
    mseq = gen_mseq(LfsrSpec(5, tuple(int(c) for c in PRIMITIVE_POLYS[5]), (1, 0, 0, 0, 0)))
    rev = PeriodicSequence(2, mseq.values[::-1])
    members = build_signal_set(mseq, rev, quadratic_shifts(31, 1, 3)).members
    signal_set_delta(members)  # let numpy's lazy set-up finish
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = signal_set_delta(members)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(report.witnesses) == 35840
    assert held <= 10 * len(report.witnesses)
    # Read across many batches, every witness still attains delta.
    assert sum(abs(w.value) == report.delta for w in report.witnesses) == 35840


# Five binary members, so blocks of three members split the set 3 + 2. Half
# of its 8 witnesses, of both signs, pair a member of the second block with
# one of the first, so there the split reads them off their mirrors.
BINARY_SET_5 = [
    parse_sequence(bits) for bits in ("01100111", "00110010", "10111111", "01101011", "00000110")
]


def witness_columns(members, block_values, monkeypatch):
    """(delta, columns) of the members' delta under the given block bound."""
    monkeypatch.setattr(correlation, "_BLOCK_VALUES", block_values)
    report = signal_set_delta(members)
    return report.delta, report.witnesses.columns()


@pytest.mark.parametrize("members", [WORKED_SET, BINARY_SET_5], ids=["p2-worked", "p2-five"])
def test_block_boundaries_do_not_move_witnesses(members, monkeypatch):
    # One member per block at bounds 1 and 3n; uneven blocks of three; and
    # the whole set in one block. At every bound the worked set reads the
    # column identity and the five members the transform.
    r, n = len(members), members[0].period
    sizes = (1, 3 * n, 3 * r * n, 1 << 30)
    runs = [witness_columns(members, size, monkeypatch) for size in sizes]
    for delta, columns in runs:
        assert type(delta) is int and all(column.dtype == np.int64 for column in columns)
    for delta, columns in runs[1:]:
        assert delta == runs[0][0]
        assert all(map(np.array_equal, columns, runs[0][1]))
    want_delta, hits = reference_delta(members)
    delta, columns = runs[0]
    assert delta == want_delta
    assert list(zip(*(column.tolist() for column in columns))) == hits
    if members is BINARY_SET_5:
        assert len(hits) == 8 and sum(i >= 3 > j for i, j, _, _ in hits) == 4


def _random_members(r, n, seed):
    rng = random.Random(seed)
    return [PeriodicSequence(2, tuple(rng.randrange(2) for _ in range(n))) for _ in range(r)]


def interleaved_members(alpha, e, flips):
    """Members of period v^2 whose column j is alpha from e_j on, complemented where flips[m][j]."""
    v = len(alpha)
    return [PeriodicSequence(2, tuple(alpha[(i + e[j]) % v] ^ f[j] for i in range(v) for j in range(v))) for f in flips]


def _random_interleaved(v, r, seed):
    rng = random.Random(seed)
    alpha = [rng.randrange(2) for _ in range(v)]
    e = [rng.randrange(v) for _ in range(v)]
    flips = [[rng.randrange(2) for _ in range(v)] for _ in range(r)]
    return interleaved_members(alpha, e, flips)


@pytest.mark.parametrize(
    "members",
    [
        _random_members(3, 1, 1),  # period 1: each row is one value
        _random_members(1, 8, 2),  # a single member
        # r*n = 2^15 - 2: blocks of 2^15 // (r*n) = 1 member; r*n = 2^15 + 2:
        # blocks of max(1, 0) = 1 member. Either way the transform reads the
        # pair, and the second member is read off its mirror.
        _random_members(2, DEFAULT_BLOCK_VALUES // 2 - 1, 3),
        _random_members(2, DEFAULT_BLOCK_VALUES // 2 + 1, 4),
    ],
    ids=["n1", "one-member", "rn-below-block", "rn-above-block"],
)
def test_direct_path_edge_shapes(members):
    # The engine at its edge shapes, against the oracle: a period of one
    # value, a single member, and block bounds met within two values. The
    # caller's members are read, never written.
    before = [m.values for m in members]
    assert_engine_matches_reference(members)
    assert [m.values for m in members] == before


def test_block_scan_drops_hits_of_earlier_blocks(monkeypatch):
    # The all-zero member correlates to 7 with itself at every tau != 0; the
    # first three members stay below that, so every earlier block's hits drop.
    zero = PeriodicSequence(2, (0,) * 7)
    members = [A7, B7, PeriodicSequence(2, (1, 0, 0, 0, 0, 0, 0)), zero]
    assert signal_set_delta(members[:3]).delta < 7
    want = [Witness(3, 3, tau, 7) for tau in range(1, 7)]
    assert reference_delta(members) == (7, [tuple(w) for w in want])
    for size in (1, 3 * 4 * 7, 1 << 30):
        monkeypatch.setattr(correlation, "_BLOCK_VALUES", size)
        report = signal_set_delta(members)
        assert report.delta == 7 and list(report.witnesses) == want


def inverse_rows(members, name):
    """Pair rows that one delta hands to the inverse transform np.fft.<name>."""
    inverse = getattr(np.fft, name)
    rows = []

    def counting(a, *args, **kwargs):
        rows.append(a.shape[0] * a.shape[1])
        return inverse(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlation.np.fft, name, counting)
        signal_set_delta(members)
    return sum(rows)


def assert_rows_match_grid(blocks, grid, step):
    """Each block (lo, rows) equals the oracle's grid[lo : lo+c, lo:], c = step or fewer."""
    starts = []
    for lo, rows in blocks:
        starts.append(lo)
        assert np.array_equal(by_offset(rows), grid[lo : lo + step, lo:])
    assert starts == list(range(0, len(grid), step))


def by_offset(rows):
    """Any row source's block [h, s, k, q] as [h, k, tau], with tau = q * m + s.

    m = rows.shape[1]: v for the column identity, 1 for the other sources.
    """
    c, m, w, length = rows.shape
    out = np.empty((c, w, m * length), rows.dtype)
    for s in range(m):
        out[:, :, s::m] = rows[:, s]
    return out


def flip_one_bit(members, m=-1, index=0):
    """The members with bit ``index`` of member ``m`` flipped."""
    members = list(members)
    values = list(members[m].values)
    values[index] ^= 1
    members[m] = PeriodicSequence(2, tuple(values))
    return members


def fast_route(members):
    """The row sources, by name, that one delta of the members reads."""
    called = []

    def spy(name):
        source = getattr(correlation, name)

        def counting(*args):
            called.append(name)
            return source(*args)

        return counting

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_identity_rows", "_transform_rows"):
            patch.setattr(correlation, name, spy(name))
        signal_set_delta(members)
    return called


V11_ABE = (gen_legendre(11, 0), gen_legendre(11, 1), quadratic_shifts(11, 1, 3))
V11_LEGENDRE = build_signal_set(*V11_ABE).members


def test_engine_matches_reference_on_members_and_complements(monkeypatch):
    # 24 members of period 121, a plain list: it reads the transform. Read
    # by the column identity in blocks of 11, with the complements' signs
    # negated, the first block's member operand is 24 members wide, more
    # than 2v = 22, and the later blocks read earlier pairs off their mirrors.
    complements = [PeriodicSequence(2, tuple(1 - x for x in m.values)) for m in V11_LEGENDRE]
    members = list(V11_LEGENDRE) + complements
    assert fast_route(members) == ["_transform_rows"]
    assert_engine_matches_reference(members)
    a, b, e = V11_ABE
    alpha, sigma = correlation._base_parts(a, b)
    operands = correlation._identity_operands(alpha, np.concatenate([sigma, -sigma]), 11)
    identity = partial(correlation._identity_rows, *operands, e, 11)
    monkeypatch.setattr(correlation, "_correlation_rows", lambda members: identity())
    assert_engine_matches_reference(members)


def test_fast_path_transforms_each_binary_pair_once(monkeypatch):
    # One member per block: r(r+1)/2 pairs, each (i, j) with i <= j once. A
    # set one bit away from interleaved has that shape and takes the transform.
    members = build_signal_set(*V31_QUADRATIC).members
    r = len(members)
    assert inverse_rows(flip_one_bit(members), "irfft") == r * (r + 1) // 2 == 528
    # The interleaved set itself reads the column identity: no transform.
    assert inverse_rows(members, "irfft") == 0
    # The worked set, one block, reads its column identity too.
    assert fast_route(WORKED_SET) == ["_identity_rows"]
    assert inverse_rows(WORKED_SET, "irfft") == 0
    # One block holds the flipped v = 11 set, and every ordered pair is computed.
    assert inverse_rows(flip_one_bit(V11_LEGENDRE), "irfft") == 12 * 12
    # Split one member per block, a set again computes each pair once.
    monkeypatch.setattr(correlation, "_BLOCK_VALUES", 1)
    assert inverse_rows(flip_one_bit(WORKED_SET), "irfft") == 8 * 9 // 2
    assert inverse_rows(BINARY_SET_5, "irfft") == 5 * 6 // 2


def test_transform_residue_is_checked_on_every_block(monkeypatch):
    # Only the last block, the last member against itself alone, is skewed.
    # The flipped list is plain, so it reads the transform.
    monkeypatch.setattr(correlation, "_BLOCK_VALUES", 1)
    irfft = np.fft.irfft

    def skewed(a, *args, **kwargs):
        out = irfft(a, *args, **kwargs)
        return out + 0.25 if a.shape[1] == 1 else out

    monkeypatch.setattr(correlation.np.fft, "irfft", skewed)
    with pytest.raises(RuntimeError, match="transform residue"):
        signal_set_delta(flip_one_bit(WORKED_SET))


@st.composite
def interleaved_lists(draw):
    """(alpha, e, flips, step): r members whose column j is alpha from e_j on,
    complemented where flips[m][j], and a block size that splits them."""
    v = draw(st.integers(1, 9))
    alpha = draw(st.lists(st.integers(0, 1), min_size=v, max_size=v))
    e = draw(st.lists(st.integers(0, v - 1), min_size=v, max_size=v))
    r = draw(st.integers(2, 5))
    # Member 0's columns are complemented too, column 0 among them.
    flips = draw(st.lists(st.lists(st.integers(0, 1), min_size=v, max_size=v), min_size=r, max_size=r))
    return alpha, e, flips, draw(st.integers(1, r - 1))


@settings(max_examples=80, deadline=None)
@given(interleaved_lists())
@example(([1, 1, 1, 1], [0, 0, 0, 0], [[0, 1, 0, 1]] * 3, 1))  # a periodic alpha: members (1, 0, 1, 0) * 4
def test_column_identity_matches_reference(case):
    # Any alpha, e and signs, two-level or not: the column identity's rows,
    # fed the draw's own (alpha, e, sigma) through the uncached builder,
    # equal the oracle's grid block by block, in blocks of step < r members
    # and folded whole in one block. As a plain list the members read the
    # transform and match the oracle exactly.
    alpha, e, flips, step = case
    members = interleaved_members(alpha, e, flips)
    r, n, v = len(members), members[0].period, len(alpha)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlation, "_BLOCK_VALUES", step * r * n)
        assert fast_route(members) == ["_transform_rows"]
        assert_engine_matches_reference(members)
    sigma = 1 - 2 * np.array(flips, np.float32)
    grid = reference_grid(members)
    for size in (step, r):
        operands = correlation._identity_operands(np.array(alpha, np.uint8), sigma, size)
        identity = correlation._identity_rows(*operands, ShiftSequence(tuple(e)), size)
        assert_rows_match_grid(identity, grid, size)


@pytest.mark.parametrize("m, index", [(0, 0), (0, 9), (-1, 48)], ids=["alpha", "member-0", "last"])
def test_one_bit_from_interleaved_takes_the_transform(m, index, monkeypatch):
    # The worked set reads its column identity, in one block or one member
    # per block. A bit flipped in column 0 or 2 of member 0 or in the last
    # member's last column leaves a plain list, and every pair is transformed.
    assert fast_route(WORKED_SET) == ["_identity_rows"]
    monkeypatch.setattr(correlation, "_BLOCK_VALUES", 1)
    assert fast_route(WORKED_SET) == ["_identity_rows"]
    members = flip_one_bit(WORKED_SET, m, index)
    assert inverse_rows(members, "irfft") == 8 * 9 // 2
    assert_engine_matches_reference(members)


V59_LEGENDRE = (gen_legendre(59, 0), gen_legendre(59, 1), quadratic_shifts(59, 1, 3))


@pytest.mark.parametrize("abe", [V31_QUADRATIC, V59_LEGENDRE], ids=["v31", "v59"])
def test_column_identity_rows_equal_the_transform_rows(abe, monkeypatch):
    # Built sets, one member per block: every block's rows, and then every
    # witness code, equal the transform's.
    members = build_signal_set(*abe).members
    step = 1
    identity = list(correlation._correlation_rows(members))
    assert [lo for lo, _ in identity] == list(range(len(members)))
    for (lo, rows), (_, rows_t) in zip(identity, correlation._transform_rows(members, step)):
        assert rows.dtype == np.float32 and np.array_equal(by_offset(rows), by_offset(rows_t))
    del identity
    report = signal_set_delta(members)
    monkeypatch.setattr(correlation, "_correlation_rows", lambda members: correlation._transform_rows(members, step))
    transform = signal_set_delta(members)
    assert report.delta == transform.delta and len(report.witnesses) > 0
    assert np.array_equal(report.witnesses.code, transform.witnesses.code)


V3_ABE = (gen_legendre(3, 0), gen_legendre(3, 1), quadratic_shifts(3, 1, 1))
WORKED_SET_ON_LEGENDRE = build_signal_set(gen_legendre(7, 0), gen_legendre(7, 1), WORKED_ABE[2]).members
V3_SET = build_signal_set(*V3_ABE).members


@pytest.mark.parametrize(
    "members, route",
    [
        (_random_members(2, 128, 5), "_transform_rows"),
        (_random_members(2, 129, 6), "_transform_rows"),
        (V3_SET, "_identity_rows"),
        (WORKED_SET, "_identity_rows"),
        (V11_LEGENDRE, "_identity_rows"),
        (flip_one_bit(V11_LEGENDRE), "_transform_rows"),
        (build_signal_set(*V31_QUADRATIC).members, "_identity_rows"),
    ],
    ids=["pair-128", "pair-129", "v3", "v7-worked", "v11", "v11-flipped", "v31"],
)
def test_fast_delta_picks_its_row_source_by_cost(members, route):
    # By what the list is, whatever its size: a built set's members, in one
    # block (v = 3, 7, 11) or many (v = 31), read the column identity, and a
    # plain list, a pair of period 128 or a set one bit off, the transform.
    assert fast_route(members) == [route]
    assert_engine_matches_reference(members)


@pytest.mark.parametrize(
    "members",
    [V11_LEGENDRE[:3], _random_interleaved(16, 2, 7), _random_interleaved(91, 2, 8), _random_interleaved(91, 4, 9)],
    ids=["v11-three", "v16-pair", "v91-pair", "v91-four"],
)
def test_at_most_sqrt_v_interleaved_members_keep_the_transform(members):
    # Interleaved lists of r^2 <= v members, the v = 91 ones one block a
    # member: like every plain list, whatever its shape, they read the
    # transform.
    assert fast_route(members) == ["_transform_rows"]
    assert_engine_matches_reference(members)


@pytest.mark.parametrize("abe", [V3_ABE, WORKED_ABE, V11_ABE, V31_QUADRATIC], ids=["v3", "v7", "v11", "v31"])
def test_plain_copies_of_a_built_set_read_the_transform(abe):
    # Only the built set's own members tuple carries (a, b, e). A list, a
    # tuple, a whole slice and the members of a dataclasses.replace copy are
    # plain, read the transform, and give the set's exact report.
    ss = build_signal_set(*abe)
    report = signal_set_delta(ss.members)
    copies = [
        list(ss.members),
        tuple(ss.members),
        ss.members[:],
        dataclasses.replace(ss, members=list(ss.members)).members,
    ]
    for members in copies:
        assert fast_route(members) == ["_transform_rows"]
        again = signal_set_delta(members)
        assert again.delta == report.delta and np.array_equal(again.witnesses.code, report.witnesses.code)
    # A replace that keeps the members keeps their (a, b, e).
    assert fast_route(dataclasses.replace(ss, e=ss.e).members) == ["_identity_rows"]


def test_one_block_operands_are_kept_per_base_pair():
    # A set that one block holds (v <= 12) reads identity operands kept per
    # (a, b), read-only; column_correlations builds its own, and a larger
    # set keeps none.
    cache = correlation._set_operands
    cache.cache_clear()
    for e in (WORKED_ABE[2], quadratic_shifts(7, 1, 0)):
        signal_set_delta(build_signal_set(A7, B7, e).members)
    assert cache.cache_info()[:2] == (1, 1)  # (hits, misses): one entry for two calls
    column_correlations(*WORKED_ABE)
    assert cache.cache_info()[:2] == (1, 1)
    circulant, (folded,) = cache(A7, B7)
    for array in (circulant, folded):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0
    # Two base pairs at one v, read in turn, give what each gives from an
    # empty cache, as in a fresh process, and what the oracle gives.
    sets = [build_signal_set(A7, B7, WORKED_ABE[2]).members, WORKED_SET_ON_LEGENDRE]
    fresh = []
    for members in sets:
        cache.cache_clear()
        fresh.append(signal_set_delta(members))
    for _ in range(2):
        for members, want in zip(sets, fresh):
            report = signal_set_delta(members)
            assert report.delta == want.delta and np.array_equal(report.witnesses.code, want.witnesses.code)
    assert cache.cache_info().currsize == 2
    for members in sets:
        assert_engine_matches_reference(members)
    # v = 15, 16 members of period 225, reads its operands per call.
    mseq = gen_mseq(LfsrSpec(4, tuple(int(c) for c in PRIMITIVE_POLYS[4]), (1, 0, 0, 0)))
    members = build_signal_set(mseq, PeriodicSequence(2, mseq.values[::-1]), quadratic_shifts(15, 1, 3)).members
    assert fast_route(members) == ["_identity_rows"]
    assert cache.cache_info().currsize == 2


def test_row_sources_give_equal_rows_and_codes(monkeypatch):
    # Each source on its own, whatever the engine would pick: the worked
    # set and seeded v = 7 A and B-not-A sets, in one block and in uneven
    # blocks of three, some pairs read off their mirrors. Every block equals
    # the oracle's grid, and both sources give one report.
    a_vectors = backtrack(SearchSpec(7, "A", limit=1000, strategy="backtrack")).witnesses
    b_not_a = backtrack(SearchSpec(7, "B-not-A", limit=1000, strategy="backtrack")).witnesses
    rng = random.Random(39)
    vectors = rng.sample(a_vectors, 6) + rng.sample(b_not_a, 6)
    alpha, sigma = correlation._base_parts(A7, B7)
    for e in [WORKED_ABE[2]] + vectors:
        members = build_signal_set(A7, B7, e).members
        grid = reference_grid(members)
        for step in (len(members), 3):
            sources = [
                lambda: correlation._identity_rows(*correlation._identity_operands(alpha, sigma, step), e, step),
                partial(correlation._transform_rows, members, step),
            ]
            for source in sources:
                assert_rows_match_grid(source(), grid, step)
            reports = []
            for source in sources:
                monkeypatch.setattr(correlation, "_correlation_rows", lambda members, rows=source: rows())
                reports.append(signal_set_delta(members))
            identity, transform = reports
            assert len(identity.witnesses) > 0 and transform.delta == identity.delta
            assert np.array_equal(transform.witnesses.code, identity.witnesses.code)


def test_interleaved_list_above_the_float32_bound_reads_the_transform(monkeypatch):
    # float32 holds every integer up to 2^24, and 2^24 + 1 is the first it rounds.
    assert correlation._FLOAT32_EXACT == 1 << 24
    assert int(np.float32(2**24)) == 2**24 and int(np.float32(2**24 + 1)) != 2**24 + 1
    # A lowered bound stands in for period 2^24: no test builds a member that
    # long. A built set reads its column identity up to the bound, and the
    # transform one period above it.
    for members in (WORKED_SET, V11_LEGENDRE):
        n = members[0].period
        monkeypatch.setattr(correlation, "_FLOAT32_EXACT", n)
        assert fast_route(members) == ["_identity_rows"]
        monkeypatch.setattr(correlation, "_FLOAT32_EXACT", n - 1)
        assert fast_route(members) == ["_transform_rows"]
        assert_engine_matches_reference(members)


@pytest.mark.parametrize("block_values", [DEFAULT_BLOCK_VALUES, 1])
def test_largest_magnitude_correlations_are_exact(block_values, monkeypatch):
    # An all-0 and an all-1 member of period 961: every correlation is +-961,
    # the largest any pair of that period reaches, so every admissible
    # (i, j, tau) is a witness, mirrored ones too when a block is one member.
    n = 961
    members = [PeriodicSequence(2, (0,) * n), PeriodicSequence(2, (1,) * n)]
    want_delta, hits = reference_delta(members)
    assert want_delta == n and len(hits) == 4 * n - 2
    monkeypatch.setattr(correlation, "_BLOCK_VALUES", block_values)
    assert_engine_matches_reference(members)
