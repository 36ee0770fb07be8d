"""Tests for periodic sequences, shifts, and the base-sequence generators."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ilvseq import (
    PRIMITIVE_POLYS,
    LfsrSpec,
    PeriodicSequence,
    ShiftSequence,
    format_sequence,
    gen_legendre,
    gen_mseq,
    is_prime,
    left_shift,
    parse_sequence,
    shift_equivalence,
)

A7 = PeriodicSequence(2, (1, 0, 0, 1, 1, 1, 0))
B7 = PeriodicSequence(2, (1, 0, 0, 1, 0, 1, 1))


def test_is_prime_small_values():
    primes = [i for i in range(60) if is_prime(i)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(7919)
    assert not is_prime(7917)


def test_periodic_sequence_validation():
    with pytest.raises(ValueError, match="binary"):
        PeriodicSequence(4, (0, 1, 2, 3))
    with pytest.raises(ValueError, match=r"value 2 is outside \[0, 2\)"):
        PeriodicSequence(2, (0, 1, 2))
    with pytest.raises(ValueError):
        PeriodicSequence(2, ())


def test_periodic_sequence_rejects_non_integral_values():
    # Truncation would turn (1.9, 0, -0.3) into 100.
    for values in [(1.9, 0, -0.3), (1, float("inf")), (1, float("nan")), (1, "0"), (1, None)]:
        with pytest.raises(ValueError, match="not an integer"):
            PeriodicSequence(2, values)
    seq = PeriodicSequence(2, (np.int8(1), np.int64(0), True, False, np.bool_(True)))
    assert seq.values == (1, 0, 1, 0, 1)
    assert all(type(x) is int for x in seq.values)
    assert PeriodicSequence(2, np.array([1, 0, 1])).values == (1, 0, 1)
    # LfsrSpec would read (1, 0, 1.5, 1) and (1, 0.9, 0) as poly 1011, state 100.
    for poly, state in [((1, 0, 1.5, 1), (1, 0, 0)), ((1, 0, 1, 1), (1, 0.9, 0))]:
        with pytest.raises(ValueError, match="not an integer"):
            LfsrSpec(3, poly, state)
    spec = LfsrSpec(3, np.array([1, 0, 1, 1]), (np.int64(1), 0, False))
    assert (spec.poly, spec.state) == ((1, 0, 1, 1), (1, 0, 0))
    assert all(type(x) is int for x in spec.poly + spec.state)


def test_unchecked_constructors_equal_the_checked_ones():
    # _from_bytes skips the checks for bytes already known good and decodes
    # values only when read; what it builds compares, hashes and prints as
    # the checked constructor's, before and after either side's cache fills.
    def pair(fill_fast, fill_checked):
        fast = PeriodicSequence._from_bytes(bytes(A7.values))
        checked = PeriodicSequence(2, A7.values)
        assert "values" not in vars(fast) and "value_bytes" not in vars(checked)
        if fill_fast:
            assert fast.values == A7.values and "values" in vars(fast)
        if fill_checked:
            assert checked.value_bytes == bytes(A7.values) and "value_bytes" in vars(checked)
        return fast, checked

    for fills in ((False, False), (True, False), (False, True), (True, True)):
        fast, checked = pair(*fills)
        assert fast == checked and checked == fast
        fast, checked = pair(*fills)
        assert checked == fast and fast == checked
        fast, checked = pair(*fills)
        assert hash(fast) == hash(checked) and repr(fast) == repr(checked)
        fast, checked = pair(*fills)
        assert repr(checked) == repr(fast) and hash(checked) == hash(fast)
        fast, checked = pair(*fills)
        assert fast.value_bytes == checked.value_bytes == bytes(A7.values)
        assert fast.values == checked.values == A7.values
        assert all(type(x) is int for x in fast.values)
        assert fast != B7
    # Both constructors make one frozen dataclass of two fields, neither
    # with a default.
    with pytest.raises(TypeError):
        PeriodicSequence(2)
    assert [f.name for f in dataclasses.fields(PeriodicSequence)] == ["modulus", "values"]
    for seq in (PeriodicSequence._from_bytes(b"\x01\x00"), PeriodicSequence(2, (1, 0))):
        for field in ("modulus", "values"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(seq, field, (0, 1))
    e = ShiftSequence._valid((0, 0, 1, 0, 6, 3, 5))
    checked = ShiftSequence((0, 0, 1, 0, 6, 3, 5))
    assert e == checked and hash(e) == hash(checked) and repr(e) == repr(checked)
    assert e != ShiftSequence((0, 0, 1, 0, 6, 3, 4))


def test_cyclic_indexing():
    assert A7[0] == 1
    assert A7[7] == 1
    assert A7[-1] == 0
    assert A7[703] == A7[703 % 7]


def test_left_shift_known_values():
    assert left_shift(A7, 0) == A7
    assert left_shift(A7, 1).values == (0, 0, 1, 1, 1, 0, 1)
    assert left_shift(A7, 7) == A7
    assert left_shift(A7, -1) == left_shift(A7, 6)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_left_shift_composes(i, j):
    assert left_shift(left_shift(B7, i), j) == left_shift(B7, i + j)


def test_shift_equivalence_basic():
    assert shift_equivalence(A7, A7) == 0
    for k in range(1, 7):
        assert shift_equivalence(left_shift(A7, k), A7) == k
        assert shift_equivalence(A7, left_shift(A7, k)) == 7 - k
    assert shift_equivalence(A7, left_shift(A7, 2)) == 5
    assert shift_equivalence(A7, B7) is None


def test_shift_equivalence_smallest_k():
    const = PeriodicSequence(2, (1, 1, 1, 1))
    assert shift_equivalence(const, const) == 0
    # Minimal period 2 inside declared period 4: the class representative.
    alt = PeriodicSequence(2, (1, 0, 1, 0))
    assert shift_equivalence(left_shift(alt, 3), alt) == 1


def test_shift_equivalence_rejects_mismatch():
    with pytest.raises(ValueError):
        shift_equivalence(A7, PeriodicSequence(2, (1, 0)))
    # A ternary sequence never reaches the scan: it is refused when built.
    with pytest.raises(ValueError, match="binary"):
        PeriodicSequence(3, (1, 0, 2, 1, 0, 2, 1))


def test_lfsr_spec_validation():
    with pytest.raises(ValueError):
        LfsrSpec(3, (1, 0, 1), (1, 0, 0))  # poly too short
    with pytest.raises(ValueError):
        LfsrSpec(3, (0, 0, 1, 1), (1, 0, 0))  # leading coefficient 0
    with pytest.raises(ValueError):
        LfsrSpec(3, (1, 0, 1, 0), (1, 0, 0))  # constant term 0
    with pytest.raises(ValueError):
        LfsrSpec(3, (1, 0, 1, 1), (0, 0, 0))  # all-zero state


def test_gen_mseq_worked_registers():
    b = gen_mseq(LfsrSpec(3, (1, 0, 1, 1), (1, 0, 0)))
    assert b == B7
    a = gen_mseq(LfsrSpec(3, (1, 1, 0, 1), (1, 0, 0)))
    assert a == A7


def test_gen_mseq_rejects_non_primitive():
    # x^4 + x^3 + x^2 + x + 1 divides x^5 - 1, so its register closes early.
    with pytest.raises(ValueError):
        gen_mseq(LfsrSpec(4, (1, 1, 1, 1, 1), (1, 0, 0, 0)))


def test_gen_mseq_every_register_closes_or_raises_early():
    # The state map is invertible, so every orbit closes: at 2^n - 1 steps
    # (a full period) or earlier, which raises.
    for n in range(1, 6):
        full = early = 0
        for middle in np.ndindex(*(2,) * (n - 1)):
            poly = (1, *middle, 1)
            for state in np.ndindex(*(2,) * n):
                if not any(state):
                    continue
                try:
                    seq = gen_mseq(LfsrSpec(n, poly, state))
                except ValueError as exc:
                    assert str(exc).startswith("state orbit closed after")
                    early += 1
                else:
                    assert seq.period == 2**n - 1
                    assert seq.values[:n] == state
                    full += 1
        assert full + early == 2 ** (n - 1) * (2**n - 1)
        assert full > 0
        assert early > 0 or n == 1


def test_primitive_poly_table_periods():
    for n, poly in PRIMITIVE_POLYS.items():
        spec = LfsrSpec(n, tuple(int(c) for c in poly), (1,) + (0,) * (n - 1))
        seq = gen_mseq(spec)
        assert seq.period == 2**n - 1


def test_gen_mseq_state_shifts_not_content():
    one = gen_mseq(LfsrSpec(3, (1, 0, 1, 1), (1, 0, 0)))
    other = gen_mseq(LfsrSpec(3, (1, 0, 1, 1), (0, 1, 1)))
    assert shift_equivalence(one, other) is not None


def test_gen_legendre_known_values():
    assert gen_legendre(7).values == (0, 1, 1, 0, 1, 0, 0)
    assert gen_legendre(7, 1).values == (1, 1, 1, 0, 1, 0, 0)
    with pytest.raises(ValueError):
        gen_legendre(9)
    with pytest.raises(ValueError):
        gen_legendre(2)
    with pytest.raises(ValueError, match="zero convention must be 0 or 1, got 2"):
        gen_legendre(7, 2)


def test_gen_legendre_balance():
    for v in (7, 11, 19, 23):
        seq = gen_legendre(v)
        assert sum(seq.values) == (v - 1) // 2


def test_parse_format_compact():
    assert parse_sequence("1001110") == A7
    assert format_sequence(A7) == "1001110"
    assert parse_sequence("1,0,0,1,1,1,0") == A7


def test_parse_rejects_bad_text():
    with pytest.raises(ValueError):
        parse_sequence("102")  # 2 out of range for modulus 2
    with pytest.raises(ValueError):
        parse_sequence("")
    with pytest.raises(ValueError):
        parse_sequence("1,x,0")


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_parse_format_roundtrip(vals):
    seq = PeriodicSequence(2, tuple(vals))
    assert parse_sequence(format_sequence(seq)) == seq
