"""Interleaved sequences, shift sequences, and the per-column correlation identity.

A period-st sequence u is (s, t) interleaved when its s x t matrix form (row
i, column j holds u at index i*t + j) has every column equal to some left
shift of one base sequence, or identically zero. The shift exponents form the
shift sequence e; the marker INFINITY denotes a zero column. Indices past the
vector wrap with a +1 twist: entry v+j equals entry j plus one (mod v).

Every correlation of a binary signal set is a signed sum of the base
autocorrelation C_a taken at shift differences of e (``column_correlations``).
The sum is computed by one batched float32 kernel in ``correlation``, fed
from (a, b, e). The delta of every built set's members reads the same
kernel: ``SignalSet.members`` carries the set's (a, b, e).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .correlation import _base_parts, _by_offset, _identity_operands, _identity_rows, is_two_level
from .sequences import PeriodicSequence, _doubled, _integers, _same_shape, shift_equivalence

#: Marker for an all-zero column (column carries no shift of the base).
INFINITY = float("inf")


def _entry(x):
    # A shift entry as an int, INFINITY kept.
    return INFINITY if x == INFINITY else int(x)


@dataclass(frozen=True)
class ShiftSequence:
    """Column shift exponents of an interleaved sequence.

    Finite entries are integers in [0, v) where v is the vector's length;
    INFINITY marks a zero column. A non-integral entry raises ValueError.
    """

    entries: tuple

    def __post_init__(self):
        entries = _integers(self.entries, "shift entry", _entry)
        object.__setattr__(self, "entries", entries)
        v = len(entries)
        if v < 1:
            raise ValueError("a shift sequence needs at least one entry")
        for x in entries:
            if x != INFINITY and not 0 <= x < v:
                raise ValueError(f"entry {x} is outside [0, {v})")

    @classmethod
    def _valid(cls, entries: tuple[int, ...]) -> ShiftSequence:
        # A shift sequence from entries already known to be a tuple of Python
        # ints in [0, v): the checks of __post_init__ are skipped.
        e = object.__new__(cls)
        object.__setattr__(e, "entries", entries)
        return e

    @property
    def v(self) -> int:
        return len(self.entries)

    @property
    def is_finite(self) -> bool:
        return INFINITY not in self.entries

    def __str__(self) -> str:
        return format_shift_sequence(self)


def parse_shift_sequence(text: str) -> ShiftSequence:
    """Parse comma-separated entries; the token "inf" marks a zero column."""
    if not text.isascii():  # int() reads every script's decimal digits
        raise ValueError(f"bad shift text: {text!r}")
    toks = [tok.strip() for tok in text.strip().split(",")]
    entries = []
    for tok in toks:
        if tok.lower() == "inf":
            entries.append(INFINITY)
        else:
            try:
                entries.append(int(tok))
            except ValueError:
                raise ValueError(f"bad shift entry {tok!r}") from None
    return ShiftSequence(tuple(entries))


def format_shift_sequence(e: ShiftSequence) -> str:
    return ",".join("inf" if x == INFINITY else str(x) for x in e.entries)


def quadratic_shifts(v: int, c: int, l: int) -> ShiftSequence:
    """The quadratic shift sequence e_j = c*j^2 + l*j mod v.

    At an odd prime v with c != 0 mod v it satisfies condition A: the
    difference at shift s is 2cs*j plus a constant, distinct for distinct j.
    """
    return ShiftSequence(tuple((c * j * j + l * j) % v for j in range(v)))


def twisted_rotation(e: ShiftSequence, k: int = 1) -> ShiftSequence:
    """e rotated left k times with the +1 twist: once, (e_1, ..., e_(v-1), e_0 + 1).

    Entry j is e_((j+k) mod v) + floor((j+k)/v) mod v, so any integer k works
    and k = v adds 1 to every entry; INFINITY entries stay INFINITY. For
    two-level a and b, member pi(m) of build_signal_set(a, b, twisted_rotation(e))
    is member m of build_signal_set(a, b, e) shifted left by one, with
    pi(0) = 0 and pi(1+j) = 1 + (j+1 mod v). So delta is equal, and witness
    (i, j, tau, value) maps to (pi(i), pi(j), tau, value); README has the proof.
    """
    v = e.v
    rotated = []
    for j in range(v):
        x = e.entries[(j + k) % v]
        rotated.append(x if x == INFINITY else (x + (j + k) // v) % v)
    return ShiftSequence(tuple(rotated))


def extended_entry(e: ShiftSequence, k: int) -> int:
    """Entry k of the extended vector: e_k for k < v, e_(k-v) + 1 mod v after.

    Only finite entries extend; INFINITY at the referenced position raises.
    """
    v = e.v
    if not 0 <= k < 2 * v:
        raise ValueError(f"extended index {k} is outside [0, {2 * v})")
    base = e.entries[k] if k < v else e.entries[k - v]
    if base == INFINITY:
        raise ValueError(f"entry at extended index {k} is INFINITY")
    return base if k < v else (base + 1) % v


def _interleaved(a: PeriodicSequence, shifts, out=None) -> np.ndarray:
    # The uint8 (s, t) array [i, j] = a_(shifts_j + i), shifts in [0, s): the
    # columns shifts of the view [i, k] = a_(i+k) over two periods of a's bytes.
    window = np.ndarray((a.period, a.period), np.uint8, _doubled(a), 0, (1, 1))
    return np.take(window, shifts, axis=1, out=out)


def interleave(a: PeriodicSequence, e: ShiftSequence) -> PeriodicSequence:
    """Build the interleaved sequence whose column j is L^(e_j)(a), or zero.

    The result has period s*t, with s the period of a and t the length of
    e: entry i*t + j is a_((e_j + i) mod s), or 0 where e_j is INFINITY.
    Member 0 of ``build_signal_set`` is gathered from a's bytes the same way.
    """
    u = _interleaved(a, [0 if x == INFINITY else x % a.period for x in e.entries])
    u[:, [x == INFINITY for x in e.entries]] = 0
    return PeriodicSequence._valid(tuple(u.ravel().tolist()))


def matrix_form(u: PeriodicSequence, s_rows: int, t_cols: int) -> np.ndarray:
    """Reshape one period of u into its s_rows x t_cols matrix (row-major)."""
    if s_rows < 1 or t_cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if u.period != s_rows * t_cols:
        raise ValueError(
            f"period {u.period} does not factor as {s_rows} x {t_cols}"
        )
    return np.asarray(u.values, dtype=np.int64).reshape(s_rows, t_cols)


def recover_shifts(u: PeriodicSequence, a: PeriodicSequence, t_cols: int) -> ShiftSequence:
    """Invert interleave: read each column's shift of a (INFINITY when zero).

    Raises ValueError when some column is neither all-zero nor a shift of a.
    """
    s_rows = a.period
    mat = matrix_form(u, s_rows, t_cols)
    entries = []
    for j in range(t_cols):
        col = tuple(int(x) for x in mat[:, j])
        if not any(col):
            entries.append(INFINITY)
            continue
        k = shift_equivalence(PeriodicSequence(2, col), a)
        if k is None:
            raise ValueError(f"column {j} is neither zero nor a shift of the base")
        entries.append(k)
    return ShiftSequence(tuple(entries))


class _Members(tuple):
    """``SignalSet.members`` of ``build_signal_set(a, b, e)``, carrying (a, b, e).

    Equality, hashing and repr are the tuple's; a slice, list() or tuple()
    of it is plain again. signal_set_delta reads the column identity of a
    set only from this tuple's ``construction``.
    """


@dataclass(frozen=True)
class SignalSet:
    """An interleaved base u and its v offset companions u + L^j(b)."""

    a: PeriodicSequence
    b: PeriodicSequence
    e: ShiftSequence
    members: tuple[PeriodicSequence, ...]

    @property
    def v(self) -> int:
        return self.e.v

    @property
    def period(self) -> int:
        return self.v * self.v


def _check_construction(a: PeriodicSequence, b: PeriodicSequence, e: ShiftSequence) -> int:
    # a and b of one period v and a finite length-v e; returns v.
    _same_shape((a, b))
    v = a.period
    if e.v != v:
        raise ValueError(f"shift vector length {e.v} does not match period {v}")
    if not e.is_finite:
        raise ValueError("shift vector must be finite (no INFINITY entries)")
    return v


@lru_cache(maxsize=8)
def _two_level(base: PeriodicSequence) -> bool:
    # is_two_level once per base: a search builds many sets on one pair.
    return is_two_level(base)


def build_signal_set(a: PeriodicSequence, b: PeriodicSequence, e: ShiftSequence) -> SignalSet:
    """Construct the v+1 member signal set over base a, offsets b, shifts e.

    Member 0 is u = interleave(a, e); member 1+j is u + L^j(b) with b read
    cyclically up to period v^2; all are rows of one uint8 (v+1, v^2) table.
    Requires two-level a and b of one period v >= 3 (v = 2 has none) and a
    finite length-v shift vector; anything else raises ValueError before the
    table is built. The premise keeps the members pairwise shift-distinct,
    whatever e is: members m != m' coincide under r*v + s only if their
    correlation there, a sum of v terms sigma*sigma'*C_a(E(j+s) - e_j + r),
    is v^2, so every term is +v. At s >= 1 that makes the v differences
    E(j+s) - e_j all -r mod v, but they sum to s. At s = 0 the signs force
    b = 0 (m = 0) or b invariant under k'-k (1+k, 1+k'), so C_b = v off 0.
    At v = 1 the two-level test is vacuous, and a = 1, b = 0 coincide, so
    v = 1 is refused. The README has the full proof.
    """
    v = _check_construction(a, b, e)
    if v == 1:
        raise ValueError("period 1 is outside the construction: its two-level test is vacuous")
    for name, base in (("base a", a), ("offset b", b)):
        if not _two_level(base):
            raise ValueError(f"{name} fails the two-level autocorrelation test")
    # Row 0 is u. Row 1+k adds b_((t+k) mod v) to u_t in one XOR, read at
    # k + t from v+1 periods of b's bytes by a view of stride 1 in both axes.
    table = np.empty((v + 1, v * v), np.uint8)
    _interleaved(a, e.entries, out=table[0].reshape(v, v))
    offsets = np.ndarray((v, v * v), np.uint8, b.value_bytes * (v + 1), 0, (1, 1))
    np.bitwise_xor(table[0], offsets, out=table[1:])
    # Each member keeps its row of the table's bytes as its cached bytes.
    data, n = table.tobytes(), v * v
    rows = [data[start : start + n] for start in range(0, len(data), n)]
    members = _Members(map(PeriodicSequence._valid, map(tuple, table.tolist()), rows))
    members.construction = (a, b, e)
    return SignalSet(a, b, e, members)


def column_correlations(a: PeriodicSequence, b: PeriodicSequence, e: ShiftSequence) -> np.ndarray:
    """Every correlation of ``build_signal_set(a, b, e)``, column by column.

    Entry [m, m', r*v + s] of the int64 (v+1, v+1, v^2) result is the
    correlation of member m against member m' at offset r*v + s:

        sum over j of sigma_m(j) * sigma_m'((j+s) mod v) * C_a(E(j+s) - e_j + r),

    with C_a the autocorrelation of a, E the extension of e, sigma_0 = 1 and
    sigma_(1+k)(j) = (-1)^b_((j+k) mod v): column j of member 1+k is column j
    of member 0 plus the constant b_((j+k) mod v). Computed as one batched
    float32 matmul over s against the table K[s, j, r] = C_a(E(j+s) - e_j + r)
    (``correlation._identity_rows`` on the operands of
    ``correlation._identity_operands``, which the delta of the built set's
    members reads too): every partial sum is an integer of size at most
    v^2, exact while v^2 <= 2^24.
    """
    v = _check_construction(a, b, e)
    ((_, rows),) = _identity_rows(*_identity_operands(*_base_parts(a, b), v + 1), e, v + 1)
    return _by_offset(rows).astype(np.int64)
