"""Periodic cross- and autocorrelation of p-ary sequences, and signal-set delta.

The correlation of a against b at offset tau is the sum over one period of
omega^(a_i - b_(i+tau)), with omega the primitive p-th root of unity. For
p = 2 every value is an exact integer (agreements minus disagreements); all
binary arithmetic here stays in integers. For p > 2 values are complex and
comparisons use COMPLEX_TOL.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .sequences import PeriodicSequence, _same_shape

#: Absolute tolerance for complex-valued (p > 2) comparisons.
COMPLEX_TOL = 1e-9

#: Most correlation values in one block of the delta scan: a block holds
#: max(1, _BLOCK_VALUES // (r*n)) of the r members of period n, so a small set
#: is scanned in a few numpy calls and a set with r*n above it (v >= 31) one
#: member at a time. A block of int64 rows stays near 256 kB.
_BLOCK_VALUES = 1 << 15


@dataclass(frozen=True)
class CorrelationProfile:
    """All correlation values of one ordered pair, indexed by offset tau."""

    modulus: int
    values: tuple

    @property
    def period(self) -> int:
        return len(self.values)

    def __getitem__(self, tau: int):
        return self.values[tau % len(self.values)]


def _lift(seqs) -> np.ndarray:
    """Equal-period sequences of one modulus p as rows: +-1 for p = 2, omega^x otherwise."""
    _same_shape(seqs)
    values = np.array([s.values for s in seqs], dtype=np.int64)
    p = seqs[0].modulus
    if p == 2:
        return 1 - 2 * values
    return np.exp(2j * np.pi * values / p)


def cross_correlation(a: PeriodicSequence, b: PeriodicSequence) -> CorrelationProfile:
    """Direct-summation correlation profile of a against b (all offsets)."""
    v = a.period
    x, y = _lift([a, b])
    y2 = np.tile(np.conj(y), 2)
    value = int if a.modulus == 2 else complex
    return CorrelationProfile(a.modulus, tuple(value(x @ y2[tau : tau + v]) for tau in range(v)))


def fast_cross_correlation(a: PeriodicSequence, b: PeriodicSequence) -> CorrelationProfile:
    """Transform-based correlation profile; agrees with cross_correlation.

    For p = 2 the result is rounded back to exact integers (the float error
    of the transform is far below 1/2 at any desk-scale period).
    """
    _, rows = next(_correlation_rows(_lift([a, b]), a.modulus, "fast"))
    return CorrelationProfile(a.modulus, tuple(rows[0, 1].tolist()))


def autocorrelation(a: PeriodicSequence) -> CorrelationProfile:
    """Correlation of a sequence against itself."""
    return cross_correlation(a, a)


def is_two_level(a: PeriodicSequence) -> bool:
    """True when the autocorrelation is v at tau = 0 and -1 everywhere else.

    Exact comparison for p = 2; within COMPLEX_TOL for p > 2.
    """
    v = a.period
    tol = 0 if a.modulus == 2 else COMPLEX_TOL
    ideal = (v,) + (-1,) * (v - 1)
    return all(abs(c - want) <= tol for c, want in zip(autocorrelation(a).values, ideal))


class Witness(NamedTuple):
    """One location achieving the set's maximum correlation magnitude.

    A named 4-tuple: it unpacks, and equals the plain tuple (i, j, tau, value).
    """

    i: int
    j: int
    tau: int
    value: object


_BATCH = 4096  # Witness objects built per step while a WitnessSequence is read


class WitnessSequence(Sequence):
    """Read-only sequence of Witness over exact column arrays.

    The columns ``i``, ``j``, ``tau`` (int64) and ``value`` (int64 for p = 2,
    complex otherwise) are read-only numpy arrays. Witness objects are built
    in batches as the sequence is iterated or indexed, and none is kept. A
    slice is a WitnessSequence over views of the columns. It equals another
    WitnessSequence with equal columns, and a tuple of the same Witnesses.
    """

    __slots__ = Witness._fields

    def __init__(self, i: np.ndarray, j: np.ndarray, tau: np.ndarray, value: np.ndarray):
        for name, column in zip(self.__slots__, (i, j, tau, value)):
            column.flags.writeable = False
            setattr(self, name, column)

    def _columns(self):
        return self.i, self.j, self.tau, self.value

    def __len__(self) -> int:
        return len(self.i)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return WitnessSequence(*(c[k] for c in self._columns()))
        return Witness._make(c[k].item() for c in self._columns())

    def __iter__(self):
        for start in range(0, len(self), _BATCH):
            batch = (c[start : start + _BATCH].tolist() for c in self._columns())
            # tuple.__new__ skips Witness.__new__'s Python frame: one C call each.
            yield from map(tuple.__new__, repeat(Witness), zip(*batch))

    def __eq__(self, other):
        if isinstance(other, WitnessSequence):
            return all(map(np.array_equal, self._columns(), other._columns()))
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

    delta is an int for p = 2, a float otherwise. Witnesses list every
    (i, j, tau, value) attaining |value| = delta, in lexicographic (i, j, tau)
    order over ordered pairs, excluding the trivial (i = j, tau = 0) peak.
    For p > 2 a magnitude within COMPLEX_TOL of delta attains it. The
    maximizers are held as exact arrays in a read-only WitnessSequence (not a
    tuple); Witness objects are built as they are read.
    """

    delta: object
    witnesses: WitnessSequence
    period: int
    member_count: int


def _correlation_rows(x: np.ndarray, modulus: int, method: str):
    """Yield (lo, rows) for each block of members of the lifted r x n array x.

    A block is the members lo .. lo+c-1, with c = max(1, _BLOCK_VALUES // (r*n)),
    and rows[h, j, tau] is the correlation of member lo+h against member j at
    offset tau, so at most c x r x n values are alive at a time. For p = 2
    rows start at column lo: rows[h, k] is member lo+h against member lo+k,
    and a pair against a member of an earlier block is left to its mirror
    (see signal_set_delta). For p > 2 rows span every column. A signal set
    from v = 31 on has r*n above _BLOCK_VALUES: one member per block. "fast"
    takes one transform per member and one batched inverse per block;
    "direct" sums the shift-products exactly (int64 for p = 2) over a window
    view of x doubled.
    """
    r, n = x.shape
    step = max(1, _BLOCK_VALUES // (r * n))
    blocks = range(0, r, step)
    binary = modulus == 2
    if method == "direct":
        w = x if binary else np.conj(x)
        # windows[j, tau, k] = w[j, (k + tau) mod n], a view: no copy of n^2 size.
        windows = sliding_window_view(np.concatenate([w, w], axis=1), n, axis=1)[:, :n]
        for lo in blocks:
            # einsum sums each value over k in one order whatever the block
            # size (a batched complex matmul does not), and beats matmul on int64.
            columns = windows[lo:] if binary else windows
            yield lo, np.einsum("jtk,hk->hjt", columns, x[lo : lo + step])
    elif binary:
        spectra = np.fft.rfft(x.astype(np.float64), axis=1)
        for lo in blocks:
            raw = np.fft.irfft(np.conj(spectra[lo : lo + step, None]) * spectra[lo:], n, axis=2)
            rounded = np.rint(raw)
            if np.max(np.abs(raw - rounded)) > 1e-6:
                raise RuntimeError("transform residue too large to round safely")
            yield lo, rounded.astype(np.int64)
    else:
        # ifft(conj(fft(u)) * fft(w))[tau] = sum_k conj(u_k) w_(k+tau); with
        # u = w = conj(x) that is sum_k x_k * conj(x)_(k+tau), as in the oracle.
        spectra = np.fft.fft(np.conj(x), axis=1)
        for lo in blocks:
            yield lo, np.fft.ifft(np.conj(spectra[lo : lo + step, None]) * spectra, axis=2)


def signal_set_delta(members, method: str = "direct") -> DeltaReport:
    """Delta of a signal set: max |correlation| over ordered pairs and offsets.

    ``method`` selects the correlation path ("direct" or "fast"); the choice
    is explicit, never silent. Both paths feed one scan and give the same
    delta and witness positions; for p = 2 also the same integer values.
    The scan ends with the maximizers as exact arrays (see WitnessSequence).
    """
    members = list(members)
    if not members:
        raise ValueError("signal set must not be empty")
    v = members[0].period
    p = members[0].modulus
    if method not in ("direct", "fast"):
        raise ValueError(f"unknown method {method!r}")
    r = len(members)
    if r * v == 1:
        raise ValueError("delta is undefined: no admissible (pair, offset) exists")

    x = _lift(members)
    tol = 0 if p == 2 else COMPLEX_TOL
    best = -1
    found = []  # (at, values) per block, at = (i*r + j)*v + tau, every |value| >= best - tol
    mirrored = False  # whether found holds mirrored hits, out of (i, j, tau) order
    for lo, rows in _correlation_rows(x, p, method):
        c, w = rows.shape[:2]
        s = r - w  # first column of the block: lo for p = 2, else 0
        rows = rows.reshape(-1)  # value (h*w + k)*v + tau: member lo+h against member s+k
        mags = np.abs(rows)
        mags[(np.arange(c) * (w + 1) + (lo - s)) * v] = -1  # trivial in-phase peaks (i = j, tau = 0)
        top = mags.max()
        if top > best:
            best = top
            found = [
                (at[keep], vals[keep])
                for at, vals in found
                if (keep := np.abs(vals) >= best - tol).any()
            ]
        at = np.flatnonzero(mags >= best - tol)
        if not at.size:
            continue
        vals = rows[at]
        if s:  # each row h of the block skipped s columns
            at += at // (w * v) * (s * v)
        at += (lo * r + s) * v
        found.append((at, vals))
        if p == 2 and w > c:
            # A later block skips the pair (j, i) of its member j against
            # member i of this one. C_ji(tau) = C_ij(-tau mod v) exactly for
            # binary members, so its maximizers are (j, i, -tau mod v, value).
            i, j, taus = np.unravel_index(at, (r, r, v))
            later = j >= lo + c
            found.append(((j[later] * r + i[later]) * v + -taus[later] % v, vals[later]))
            mirrored = True

    delta = int(best) if p == 2 else float(best)
    at, vals = map(np.concatenate, zip(*found))
    del found  # else the per-block arrays stay alive beside all five columns
    if mirrored:
        # Every binary maximizer is +-delta, so its sign rides in the lowest
        # bit of its index and one sort in place restores (i, j, tau) order:
        # no order array and no gathers, each another column on the heap.
        at <<= 1
        at |= vals < 0
        del vals
        at.sort()
        vals = (at & 1) * (-2 * delta) + delta
        at >>= 1
    i, j, taus = np.unravel_index(at, (r, r, v))
    witnesses = WitnessSequence(i, j, taus, vals)
    return DeltaReport(delta, witnesses, v, r)
