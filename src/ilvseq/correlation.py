"""Periodic cross- and autocorrelation of binary sequences, and signal-set delta.

The correlation of a against b at offset tau is the sum over one period of
(-1)^(a_i + b_(i+tau)): agreements minus disagreements, an exact integer.
The construction is binary, and so is every ``PeriodicSequence``: it refuses
any other modulus when it is built, so this module never checks the alphabet.
Every value, delta and witness is an exact integer.
The delta engine computes in floats without giving that up, from one of
two row sources (``_correlation_rows``), chosen by what the list is:

* column identity, for the members of a built set (``SignalSet.members``
  carries its (a, b, e)) of period n <= 2^24: every member has column j
  (entries i*v + j) equal to sigma_m(j) L^(e_j)(a), or the constant
  sigma_m(j) where e_j is INFINITY, so each correlation is a signed sum of
  v values of C_a at the shift differences, of S_a = sum of (-1)^(a_i)
  where one column is INFINITY, and of v where both are. A block is one
  batched float32 matmul against the one table K of those values (gathered
  through a table of circulant rows kept per v, indexed by the entries).
  Its left operand is the members' signs sigma_h(j) sigma_k(j+s): for a set
  that one block holds (every built set up to v = 12) multiplied once and
  kept per (a, b); over several blocks member 0 alone, whose sigma_0 is 1,
  and then strided views of one table of products of b's signs, so no
  block multiplies. Each product is +-1 times a value of size at most v
  and each partial sum an integer of size at most v^2 = n, and float32
  holds every integer up to 2^24 exactly, so the sum is exact in any order
  BLAS takes, with or without fused multiply-add.
* transform, for every other list: one real float64 transform per member
  and one batched inverse per block, rounded back under a residue guard.

The identity's blocks are its matmul's own output, laid out [h, s, k, q]
with tau = q*v + s; the transform's are [h, 0, k, tau].
The one scan reads each block in its memory order, as floats, and keeps
each maximizer as one int64 code, its position and sign. A set that one
identity block holds (every built set up to v = 12) decodes the positions
with one gather from a table of codes kept per (r, v), and a transform
block of the whole set reads its positions as codes; any other block
decodes them with two floor divisions by its layout. The codes come in the
blocks' memory order, so one sort puts them in (i, j, tau) order. Delta
restores each value, and the witness columns are decoded from the codes
when read.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat, starmap
from typing import NamedTuple

import numpy as np

from .sequences import PeriodicSequence, _doubled, _same_shape

#: Most correlation values in one block of the delta scan: a block holds
#: max(1, _BLOCK_VALUES // (r*n)) of the r members of period n, so a small set
#: is scanned in a few numpy calls and a set with r*n above it (v >= 31) one
#: member at a time. A built set that one block does not hold (v >= 13)
#: reads member 0 alone first, then blocks of that many members as views of
#: one sign table (_identity_operands). A block of rows stays near 128 kB
#: (float32, identity) or 256 kB (float64, transform).
_BLOCK_VALUES = 1 << 15

#: Longest period the column identity sums in float32: float32 holds every
#: integer up to 2^24 exactly, and no partial sum of a correlation of
#: period n exceeds n in size. A longer set reads the transform.
_FLOAT32_EXACT = 1 << 24

_SIGNS = np.array((1, -1), np.float32)  # (-1)^bit, indexed by bits


@dataclass(frozen=True)
class CorrelationProfile:
    """All correlation values of one ordered pair, indexed by offset tau."""

    values: tuple

    @property
    def period(self) -> int:
        return len(self.values)

    def __getitem__(self, tau: int):
        return self.values[tau % len(self.values)]


def _lift(seqs, dtype=np.int64) -> np.ndarray:
    """Equal-period binary sequences as rows of +-1 in dtype."""
    _same_shape(seqs)
    # Binary values fit a byte, so the members' cached bytes join into one
    # bytes object instead of passing through Python tuples, and index a +-1 table.
    values = np.frombuffer(b"".join([s.value_bytes for s in seqs]), np.uint8)
    return np.array((1, -1), dtype)[values].reshape(len(seqs), -1)


def cross_correlation(a: PeriodicSequence, b: PeriodicSequence) -> CorrelationProfile:
    """Direct-summation correlation profile of a against b (all offsets).

    One int64 product of a's +-1 row against the (v, v) window view
    [tau, i] = b_(i+tau) of b doubled: every offset is a sum of v products,
    no transform and no identity, and the view is never copied.
    """
    x, y = _lift([a, b])
    return CorrelationProfile(tuple((_windows(np.concatenate([y, y]), a.period) @ x).tolist()))


def fast_cross_correlation(a: PeriodicSequence, b: PeriodicSequence) -> CorrelationProfile:
    """Correlation profile from the delta engine's rows; agrees with cross_correlation.

    The pair reads the transform, rounded back to exact integers; a residue
    above 1e-6 raises RuntimeError instead of rounding. Its first block of
    one member, a against a and b, is the only one computed: two inverses.
    """
    _, rows = next(_transform_rows([a, b], 1))
    return CorrelationProfile(tuple(rows[0, 0, 1].astype(np.int64).tolist()))


def autocorrelation(a: PeriodicSequence) -> CorrelationProfile:
    """Correlation of a sequence against itself."""
    return cross_correlation(a, a)


def is_two_level(a: PeriodicSequence) -> bool:
    """True when the autocorrelation is v at tau = 0 and -1 everywhere else."""
    v = a.period
    return autocorrelation(a).values == (v,) + (-1,) * (v - 1)


class Witness(NamedTuple):
    """One location achieving the set's maximum correlation magnitude.

    A named 4-tuple: it unpacks, and equals the plain tuple (i, j, tau, value).
    """

    i: int
    j: int
    tau: int
    value: int


_BATCH = 4096  # witnesses decoded per step while a WitnessSequence is read


def _readonly(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


class WitnessSequence(Sequence):
    """Read-only sequence of Witness over one packed int64 code per witness.

    A witness (i, j, tau, value) of r members of period n, with
    |value| = delta, is the code ((i*r + j)*n + tau) << 1 | (value < 0);
    ``code`` is the read-only int64 array of them, 8 bytes a witness.
    ``i``, ``j``, ``tau`` and ``value`` decode it on access into read-only
    int64 arrays, each decoding only its own; ``columns()`` returns all four.
    Witness objects are decoded in batches as the sequence is iterated, and
    none is kept; an int index reads a one-element slice. A slice is a
    WitnessSequence over a view of the code. It equals another
    WitnessSequence with equal columns, and a tuple of the same Witnesses.
    """

    __slots__ = ("code", "delta", "r", "n")

    def __init__(self, code: np.ndarray, delta: int, r: int, n: int):
        code.flags.writeable = False
        self.code, self.delta, self.r, self.n = code, delta, r, n

    def columns(self):
        """The four read-only int64 columns (i, j, tau, value)."""
        return self.i, self.j, self.tau, self.value

    i = property(lambda self: _readonly((self.code >> 1) // (self.r * self.n)))
    j = property(lambda self: _readonly((self.code >> 1) // self.n % self.r))
    tau = property(lambda self: _readonly((self.code >> 1) % self.n))
    value = property(lambda self: _readonly((self.code & 1) * (-2 * self.delta) + self.delta))

    def __len__(self) -> int:
        return len(self.code)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return WitnessSequence(self.code[k], self.delta, self.r, self.n)
        k = range(len(self))[k]  # a tuple's rule: negative from the end, IndexError past it
        (witness,) = self[k : k + 1]
        return witness

    def __iter__(self):
        for start in range(0, len(self), _BATCH):
            batch = self[start : start + _BATCH].columns()
            # tuple.__new__ skips Witness.__new__'s Python frame: one C call each.
            yield from map(tuple.__new__, repeat(Witness), zip(*(c.tolist() for c in batch)))

    def __eq__(self, other):
        if isinstance(other, WitnessSequence):
            return all(map(np.array_equal, self.columns(), other.columns()))
        if isinstance(other, tuple):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"<WitnessSequence of {len(self)} witnesses>"


@dataclass(frozen=True)
class DeltaReport:
    """Maximum correlation magnitude of a signal set, with all maximizers.

    delta is an exact int. Witnesses list every (i, j, tau, value) attaining
    |value| = delta, in lexicographic (i, j, tau) order over ordered pairs,
    excluding the trivial (i = j, tau = 0) peak. The maximizers are held as
    one packed int64 code each in a read-only WitnessSequence (not a tuple);
    its columns and Witness objects are decoded as they are read.
    """

    delta: int
    witnesses: WitnessSequence
    period: int
    member_count: int


def _correlation_rows(members):
    """An iterator of (lo, rows) for each block of the r members of period n.

    A block is the members lo .. lo+c-1, with c at most
    step = max(1, _BLOCK_VALUES // (r*n)): the transform's start at lo = 0,
    step, 2*step, ...; a built set's that one block does not hold start at
    0, 1, 1+step, ..., as member 0 is a block alone (see _identity_operands).
    Its rows start at column lo and are laid out [h, s, k, q]: rows[h, s, k, q]
    is the correlation of member lo+h against member lo+k at offset
    tau = q*m + s, with m = rows.shape[1]. The column identity's blocks are
    its matmul's output, m = v; the transform's have m = 1, [h, 0, k, tau].
    signal_set_delta scans a block in this memory order. At most c x r x n
    values are alive at a time, and a pair against a member of an earlier
    block is left to its mirror (see _block_codes). A signal set from v = 31
    on has r*n above _BLOCK_VALUES: one member per block. The rows are floats
    holding exact integers, from one of two sources, by what the list is:

    * a list that carries its construction (a built set's members, with
      their (a, b, e)) of period n <= _FLOAT32_EXACT reads the column
      identity (_identity_rows), one batched float32 matmul per block. Its
      operands come from _identity_operands; those of a set that one block
      holds (c = r, every built set up to v = 12) are kept per (a, b), and
      those of a larger set are views, built per call.
    * every other list reads one real float64 transform per member and one
      batched inverse per block, rounded under a residue guard
      (_transform_rows).
    """
    r, n = len(members), members[0].period
    step = max(1, _BLOCK_VALUES // (r * n))
    construction = getattr(members, "construction", None)
    if construction and n <= _FLOAT32_EXACT:
        a, b, e = construction
        operands = _set_operands(a, b) if step >= r else _identity_operands(*_base_parts(a, b), step)
        return _identity_rows(*operands, e)
    return _transform_rows(members, step)


def _transform_rows(members, step: int):
    # The transform rows of _correlation_rows, in blocks of step members.
    r, n = len(members), members[0].period
    spectra = np.fft.rfft(_lift(members, np.float64), axis=1)
    for lo in range(0, r, step):
        raw = np.fft.irfft(np.conj(spectra[lo : lo + step, None]) * spectra[lo:], n, axis=2)
        rounded = np.rint(raw)
        raw -= rounded
        if np.abs(raw, out=raw).max() > 1e-6:
            raise RuntimeError("transform residue too large to round safely")
        yield lo, rounded[:, None]


def _windows(doubled: np.ndarray, v: int) -> np.ndarray:
    # The (v, v) view [k, j] = doubled[..., j + k] of the last axis, of length 2v,
    # of a C-contiguous array: the v windows of each row, in front of its rows.
    *rows, col = doubled.strides
    return np.ndarray((v, *doubled.shape[:-1], v), doubled.dtype, doubled, 0, (col, *rows, col))


@lru_cache(maxsize=8)
def _set_operands(a, b):
    # The operands of the sets on (a, b) that one block holds, read-only as
    # every call shares them; at most about 100 kB each. They pay off only
    # where calls repeat (a, b): at v = 7 a delta that builds them takes
    # about 1.8 times as long as one that reads them.
    circulant, ((_, folded),) = _identity_operands(*_base_parts(a, b), a.period + 1)
    return _readonly(circulant), ((0, _readonly(folded)),)


def _base_parts(a, b):
    # (alpha, sigma) of build_signal_set(a, b, e): a's uint8 bits, and the
    # float32 (v+1, v) signs sigma_0 = 1, sigma_(1+k)(j) = (-1)^b_((j+k) mod v).
    sigma = np.ones((a.period + 1, a.period), np.float32)
    sigma[1:] = _SIGNS[_windows(np.frombuffer(_doubled(b), np.uint8), a.period)]
    return np.frombuffer(a.value_bytes, np.uint8), sigma


@lru_cache(maxsize=8)
def _shift_tables(v: int):
    # The tables that _kernel_index reads: the (v, v) [s, j] = (j+s) mod v
    # and (v+1) times the twist j+s >= v, and the (v+1, 2v+2) circulant rows
    # [x, y + (v+1)*t] for entries x, y read with INFINITY as v and the
    # twist t: (y + t - x) mod v where both are finite, v (S_a) where one is
    # INFINITY, v + 1 (v) where both are. Read-only, as every call on v
    # shares them.
    plus = np.add.outer(np.arange(v), np.arange(v))
    x, y = np.ogrid[: v + 1, : 2 * v + 2]
    y, twist = y % (v + 1), y // (v + 1)
    sides = (x == v) + (y == v).astype(np.int64)  # an int sum: bools would OR
    rows = np.where(sides, v - 1 + sides, (y + twist - x) % v)
    return _readonly(plus % v), _readonly((plus >= v) * (v + 1)), _readonly(rows)


def _kernel_index(e) -> np.ndarray:
    """The (v, v) int64 [s, j]: K[s, j]'s row of the (v+2, v) circulant.

    Where columns j and (j+s) mod v are finite it is E(j+s) - e_j mod v, E
    the extension of e: E(j) = e_j and E(v+j) = e_j + 1 mod v, so E(j+s) is
    e at (j+s) mod v plus the twist j+s >= v, mod v. A pair with one
    INFINITY side reads row v (S_a), and one with two reads row v+1 (v).
    One gather from the rows table of _shift_tables, at column j's entry
    (INFINITY read as v) and its partner's entry plus (v+1) times the twist.
    """
    wrap, twist, rows = _shift_tables(e.v)
    x = np.minimum(e.entries, e.v).astype(np.int64, copy=False)  # INFINITY as v
    return rows[x, x[wrap] + twist]


def _identity_operands(alpha, sigma, step: int):
    """(circulant, operands): the operands of _identity_rows from the bases.

    alpha is the base's bits and sigma the float32 (r, v) signs, a row a
    member. The (v+2, v) circulant holds C_alpha(d + q) at [d, q] for d < v,
    the circulant of alpha's autocorrelation, then two constant rows: S_a,
    the sum of (-1)^(alpha_i), and v, the kernel of an INFINITY column
    against a finite one and against another. operands yields (lo, operand)
    for each block: its members lo .. lo+c-1 against the members from lo
    on, [h, s, k, j] = sigma_(lo+h)(j) sigma_(lo+k)((j+s) mod v).

    One block of all r members (step >= r) multiplies its signs once, for
    any sigma. More blocks multiply nothing, and need the signs of
    _base_parts: sigma_0 = 1 and sigma_(1+k)(j) = beta(j+k), beta = (-1)^b,
    indices mod v. Member 0 is a block alone, and its operand is the view
    [s, k, j] = sigma_k((j+s) mod v) of the signs doubled. Each later block
    of step members from lo = 1 on reads sigma_(lo+h)(j) sigma_(lo+k)(j+s)
    = Q[v+s+k-h, j+lo-1+h] as a strided view of one (3v, 2v) table
    Q[t, u] = beta(u) beta(u+t-v), built per call: of r = v+1 members a
    block from lo >= 1 has h < c <= v and k < w <= v, so t = v+s+k-h is in
    1 .. 3v-2, and lo+h <= v keeps u = j+lo-1+h below 2v.
    So every operand of a split set is a view, and nothing is multiplied
    past the one table.
    """
    v, r = len(alpha), len(sigma)
    x = _SIGNS[np.concatenate([alpha, alpha])]
    # c_alpha[d] = sum over i of x_(i+d) x_i, exact in float32 as |c_alpha| <= v.
    c_alpha = _windows(x, v) @ x[:v]
    constants = np.repeat(np.float32([[x[:v].sum()], [v]]), v, axis=1)
    circulant = np.concatenate([_windows(np.concatenate([c_alpha, c_alpha]), v), constants])
    shifted = _windows(np.concatenate([sigma, sigma], axis=1), v)  # [s, k, j] = sigma_k((j+s) mod v)
    if step >= r:
        return circulant, ((0, shifted * sigma[:, None, None, :]),)
    beta = np.tile(sigma[1], 5)  # beta(u mod v) for u < 5v
    # The Hankel view [t, u] = beta(t+u) = beta(u+t-v), times beta(u).
    q = np.ndarray((3 * v, 2 * v), np.float32, beta, 0, beta.strides * 2) * beta[: 2 * v]
    row, col = q.strides
    strides = (col - row, row, row, col)  # [h, s, k, j] -> Q[v+s+k-h, j+lo-1+h]
    views = (
        (lo, np.ndarray((min(step, r - lo), v, r - lo, v), np.float32, q, v * row + (lo - 1) * col, strides))
        for lo in range(1, r, step)
    )
    return circulant, chain([(0, shifted[None])], views)


def _identity_rows(circulant, operands, e):
    """(lo, rows) of the members sigma_m(j) L^(e_j)(alpha), by the column identity.

    Column j of member h against column (j+s) mod v of member k, at offset
    tau = q*v + s, meets it q rows down, and one row further when j+s wraps:
    their products sum to sigma_h(j) sigma_k(j+s) C_alpha(E(j+s) - e_j + q),
    with C_alpha the autocorrelation of alpha and E the extension of e
    (E(j) = e_j, E(v+j) = e_j + 1). So

        rows[h, s, k, q] = sum over j of sigma_h(j) sigma_k(j+s) K[s, j, q],

    K[s, j, q] = C_alpha(E(j+s) - e_j + q), row E(j+s) - e_j of the
    circulant. An INFINITY column is the constant sigma(j) in every row, so
    against a finite column its products sum to sigma_h(j) sigma_k(j+s) S_a,
    and against another to sigma_h(j) sigma_k(j+s) v: there K reads the
    circulant's constant rows v and v+1 (_kernel_index). One batched
    np.matmul over h and s per block, against its lo and sign operand
    sigma_h(j) sigma_k(j+s) from _identity_operands. The block is the
    matmul's own output, [h, s, k, q] with tau = q*v + s, the layout of
    _correlation_rows. Every partial sum is an integer of size at most
    v^2 = n, so float32 is exact in any BLAS order while n <= _FLOAT32_EXACT.
    """
    kernel = circulant[_kernel_index(e)]
    # [h, s, k, j] @ K[s, j, q] -> [h, s, k, q]; starmap keeps no block past its turn.
    return starmap(lambda lo, operand: (lo, operand @ kernel), operands)


def _identity_grid(a, b, e) -> np.ndarray:
    """The int64 (v+1, v+1, v^2) [m, m', tau] of build_signal_set(a, b, e).

    One identity block of all v + 1 members, from operands built for this
    call, taken from its [h, s, k, q] layout to [h, k, tau], tau = q*v + s;
    exact while v^2 <= _FLOAT32_EXACT, as every identity block is.
    """
    v = a.period
    ((_, rows),) = _identity_rows(*_identity_operands(*_base_parts(a, b), v + 1), e)
    return rows.transpose(0, 2, 3, 1).reshape(v + 1, v + 1, v * v).astype(np.int64)


@lru_cache(maxsize=8)
def _one_block_codes(r: int, v: int) -> np.ndarray:
    # The position code (h*r + k)*n + q*v + s, n = v^2, of each [h, s, k, q]
    # of an identity block of all r members, in memory order: the flat index
    # of [h, k, q, s] in an (r, r, v, v) array. Read-only, as every call on
    # (r, v) shares it; 139 kB at v = 11. A block of fewer members decodes by
    # arithmetic, as one table per block shape would hold some w*v^2 values
    # a block, about 50 MB at v = 59.
    codes = np.arange(r * r * v * v, dtype=np.int64).reshape(r, r, v, v)
    return _readonly(codes.transpose(0, 3, 1, 2).reshape(-1))


def _block_codes(lo, rows, best: int, r: int):
    """(top, codes) of one block of _correlation_rows, read in its memory order.

    top is the block's largest admissible magnitude, and codes are packed
    witness codes (see WitnessSequence) of every value of magnitude at least
    max(best, top), mirrored ones included, in the block's memory order. That
    is (i, j, tau) order only in the transform's m = 1 blocks, mirrored codes
    aside. A block of the whole set returns at once: an identity block's
    maximizers read their codes with one gather from a cached table
    (_one_block_codes), and a transform block's positions are their codes.
    Any other block decodes with two floor divisions by scalars, numpy's
    cheapest integer op here (see README): hs = h*m + s, then x = k*n + tau,
    so the code is ((lo+h)*r + lo)*n + x. A maximizer against a later block
    (k >= c, so x >= c*n) is mirrored, with -tau mod n as n - tau, or 0 at
    tau = 0. The decode arrays are freed on return, before the next block
    is computed.
    """
    c, m, w, length = rows.shape  # [h, s, k, q]: lo+h against lo+k at tau = q*m + s
    n = m * length
    rows = rows.reshape(-1)
    mags = np.abs(rows)
    mags[:: (m * w + 1) * length] = -1  # trivial peaks (h, 0, h, 0), h < c <= w
    top = int(mags.max())
    (at,) = (mags >= max(best, top)).nonzero()
    negative = rows[at] < 0
    if c == r:  # the whole set (lo = 0): at is the transform's code, the identity's table index
        return top, [(_one_block_codes(r, m)[at] if m > 1 else at) << 1 | negative]
    hs = at // (w * length)  # h*m + s
    h = hs // m
    x = (at - hs * (w * length)) * m + hs - h * m  # k*n + tau: (k*length + q)*m + s
    codes = [(((h + lo) * r + lo) * n + x) << 1 | negative]
    if w > c:
        # A later block skips the pair (j, i) of its member j against
        # member i of this one. C_ji(tau) = C_ij(-tau mod n) exactly for
        # binary members, so its maximizers are (j, i, -tau mod n, value).
        later = x >= c * n  # k >= c: member lo+k is in a later block
        h, x = h[later] + lo, x[later]
        k = x // n
        tau = x - k * n
        codes.append((((k + lo) * r + h) * n + (n - tau) * (tau > 0)) << 1 | negative[later])
    return top, codes


def signal_set_delta(members, method: str = "fast") -> DeltaReport:
    """Delta of a signal set: max |correlation| over ordered pairs and offsets.

    The rows come from the column identity when ``members`` is a built
    set's ``SignalSet.members``, which carries the set's (a, b, e), or a
    ``copy.copy``, ``copy.deepcopy`` or pickle round trip of it, which keep
    its type and (a, b, e); a slice, a list or a tuple() of it reads the
    transform (see _correlation_rows). Both sources feed one scan and give
    the same exact delta, witness positions and values. The scan ends with
    one packed int64 code per maximizer (see WitnessSequence). ``method``
    selects nothing: it is kept only because bench/workloads.py passes it, as
    SearchSpec keeps ``normalize`` for bench/spans.py, and it still accepts
    only "direct" and "fast" (anything else is a ValueError).
    """
    if not isinstance(members, tuple):  # a tuple is kept: a built set's carries (a, b, e)
        members = list(members)
    if not members:
        raise ValueError("signal set must not be empty")
    v = members[0].period
    if method not in ("direct", "fast"):
        raise ValueError(f"unknown method {method!r}")
    r = len(members)
    if r * v == 1:
        raise ValueError("delta is undefined: no admissible (pair, offset) exists")

    best = -1
    found = []  # packed witness codes per block (see WitnessSequence), every |value| >= best
    for lo, rows in _correlation_rows(members):
        top, codes = _block_codes(lo, rows, best, r)
        del rows  # else the block stays alive while the next one is computed
        if top > best:  # every earlier hit is at most the old best: none is kept
            best = top
            found = []
        found += codes

    code = found[0] if len(found) == 1 else np.concatenate(found)
    del found  # else the per-block codes stay alive beside the whole array
    # Every maximizer is +-delta and its sign rides in the lowest bit of its
    # code, so one sort in place puts the hits in (i, j, tau) order: those of
    # an identity block come in its [h, s, k, q] order, mirrored ones last.
    code.sort()
    witnesses = WitnessSequence(code, best, r, v)
    return DeltaReport(best, witnesses, v, r)
