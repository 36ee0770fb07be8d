"""Distinctness, multiplicity and completeness: one condition on differences.

For a finite length-v shift vector e and a shift s in [1, v), the differences
at s are e_j - E(j+s) mod v, where E is the +1-twist extension
(``extended_entry``: E(k) = e_k for k < v, e_(k-v) + 1 after). Unextended, j
runs over [0, v-s), where no index wraps; extended, j runs over all of
[0, v), and the s wrapped terms carry the twist.

Every condition asks that, at every shift, no difference occur more than
``cap`` times (``CONDITIONS``):

* A, distinctness: unextended, cap 1.
* B, multiplicity: extended, cap 2.
* OPEN, completeness: extended, cap 1, so the v differences cover Z_v. Their
  sum is always -s mod v, which rules the condition out for v > 2.

All differences are canonical residues in [0, v). The wrapped half of the
extended differences is fixed by the unextended half (the mirror identity):
for k in [0, s), wrapped term v-s+k at shift s is e_(v-s+k) - (e_k + 1) =
phi(e_k - e_(k+v-s)), phi of unextended term k at shift v-s, where
phi(d) = -1 - d mod v. phi is an involution, so the extended multiset at
v-s (its unextended terms, then phi of those at s) is the phi-image of the
one at s, and the two have the same multiplicities.

The definition lives in one count table per vector, built in one
pure-Python pass over the v(v-1)/2 unextended differences and cached: per
shift, the largest multiplicity among its unextended differences and among
all v extended ones, the latter counted at s <= v/2 only and copied to
v-s. A report's verdict and first failing shift read only those counts.
Everything else is built from the entries by one definition, ``_row``:
shift s's extended row is its v-s unextended differences, then phi of shift
v-s's. A ``DifferenceProfile`` is one row, cut to v-s values unextended,
and one count pass; ``differences`` builds one per call, and
``cond2_sum_residue`` sums a row; neither builds the table. A report's
``checks`` are a read-only ``ShiftChecks`` sequence whose ``ShiftCheck``
tuples, and their profiles, are built on first read and kept, so a caller
that reads only the verdict builds no check and no profile, and one that
reads a report in full builds each of its profiles once. Reports share
their table and nothing else: no caller reads all three in full. The
reports serve the tests as the oracle, so they use no numpy; bad input (an
INFINITY entry) raises when the report is made.
``Condition.holds_rows`` judges a block of candidates at once (random
sampling, ``reproduce`` and the tests' enumeration oracle): shift s is the
difference of two column slices of the block's extended rows, and B and
OPEN judge the shifts s <= v/2 only. The search's backtracker places the
same terms by their later index, in runs on consecutive shifts whose closed
form it states itself, as bits of per-shift masks.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .interleaving import ShiftSequence


class Condition(NamedTuple):
    """At every shift, no difference occurs more than ``cap`` times."""

    extended: bool
    cap: int

    def holds_rows(self, rows: np.ndarray) -> np.ndarray:
        """Block verdict: a bool mask over the rows of an (N, v) integer
        array of entries in [0, v), signed or unsigned, equal row by row to
        the reports' verdict. Per shift it sorts each row's differences and
        rejects a row where a value occurs more than ``cap`` times; only the
        surviving rows go on to the next shift, and none once all are out.

        The block is widened once to a signed type that holds v, and then
        extended to (e, e + 1), so column k is E(k) and shift s's
        differences are the columns [0, w) less the columns [s, s + w), with
        w = v extended and v - s unextended. Each lies in [-v, v), so one add
        of v on the negative entries replaces ``% v``. That type is at least
        int16: numpy sorts rows of int8 many times slower. Extended, only
        the shifts s <= v/2 are judged: the multiset at v - s is the
        phi-image of the one at s, with the same multiplicities."""
        extended, cap = self
        n, v = rows.shape
        wide = np.promote_types(np.min_scalar_type(-v - 1), np.int16)
        ext = rows.astype(wide)
        if extended:
            ext = np.concatenate((ext, ext + wide.type(1)), axis=1)
        alive = np.arange(n)
        modulus = wide.type(v)
        for s in range(1, v // 2 + 1 if extended else v):
            w = v if extended else v - s
            d = ext[:, :w] - ext[:, s : s + w]
            d += (d < 0) * modulus
            d.sort(axis=1)
            bad = (d[:, cap:] == d[:, :-cap]).any(axis=1)
            if bad.any():
                keep = np.flatnonzero(~bad)  # indexes rows faster than a bool mask
                alive = alive[keep]
                ext = ext[keep]
                if not len(keep):
                    break
        ok = np.zeros(n, dtype=bool)
        ok[alive] = True
        return ok


CONDITIONS = {
    "A": Condition(extended=False, cap=1),
    "B": Condition(extended=True, cap=2),
    "OPEN": Condition(extended=True, cap=1),
}


class DifferenceProfile(NamedTuple):
    """One shift's difference multiset, in evaluation order."""

    v: int
    s: int
    extended: bool
    values: tuple[int, ...]
    multiplicity: tuple[tuple[int, int], ...]


def differences(e: ShiftSequence, s: int, extended: bool) -> DifferenceProfile:
    """The differences e_j - E(j+s) mod v at shift s, for j in [0, v) if
    extended, else for j in [0, v-s)."""
    return _profile(_finite_entries(e), s, bool(extended))


def _finite_entries(e: ShiftSequence) -> tuple[int, ...]:
    # e's entries; an INFINITY entry raises ValueError.
    if not e.is_finite:
        raise ValueError("shift vector must be finite (no INFINITY entries)")
    return e.entries


@lru_cache(maxsize=8)
def _count_table(e: ShiftSequence) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    # (entries, tops): tops[extended][s-1] is the largest multiplicity among
    # shift s's v-s unextended or all v extended differences. Each pass
    # takes a shift s <= v/2 and its mirror m = v - s: it counts the
    # unextended terms of both and adds the phi-images of m's to s's counts,
    # which gives the extended multiset at s and so the extended top of
    # both. A negative list index counts from the end, so counts[a - b]
    # counts (a - b) mod v and counts[b - a - 1] its phi-image, with no % v.
    x = _finite_entries(e)
    v = len(x)
    tops = ([0] * (v - 1), [0] * (v - 1))
    for s in range(1, v // 2 + 1):
        counts = [0] * v
        for a, b in zip(x, x[s:]):
            counts[a - b] += 1
        tops[False][s - 1] = max(counts)
        m = v - s
        mirror = [0] * v
        for a, b in zip(x, x[m:]):
            mirror[a - b] += 1
            counts[b - a - 1] += 1
        tops[False][m - 1] = max(mirror)
        tops[True][s - 1] = tops[True][m - 1] = max(counts)
    return x, (tuple(tops[False]), tuple(tops[True]))


def _row(x: tuple[int, ...], s: int) -> tuple[int, ...]:
    # Shift s's extended row of the entries x: its v-s unextended
    # differences, then the phi-images of shift v-s's.
    v = len(x)
    if not 1 <= s < v:
        raise ValueError(f"shift s must lie in [1, {v}), got {s}")
    wrapped = [(b - a - 1) % v for a, b in zip(x, x[v - s :])]
    return tuple([(a - b) % v for a, b in zip(x, x[s:])] + wrapped)


def _profile(x: tuple[int, ...], s: int, extended: bool) -> DifferenceProfile:
    # Shift s's profile: its row, cut to v-s values unextended, and one
    # count pass over them.
    v = len(x)
    values = _row(x, s)
    if not extended:
        values = values[: v - s]
    counts = [0] * v
    for d in values:
        counts[d] += 1
    multiplicity = tuple([(d, c) for d, c in enumerate(counts) if c])
    return DifferenceProfile(v, s, extended, values, multiplicity)


class ShiftCheck(NamedTuple):
    """One shift's verdict: observed statistic against its requirement."""

    s: int
    passed: bool
    observed: int
    required: int
    profile: DifferenceProfile


class ShiftChecks(Sequence):
    """Read-only sequence of a report's ShiftChecks, one per shift in [1, v).

    The checks are built from the vector's entries and count table on first
    read and kept; ``len`` needs no build. It equals, hashes and reprs as the
    tuple of the same ShiftChecks, and an index or a slice reads that tuple.
    """

    __slots__ = ("_x", "_tops", "_extended", "_cap", "_checks")

    def __init__(self, x, tops, extended: bool, cap: int):
        self._x, self._tops, self._extended, self._cap = x, tops, extended, cap
        self._checks = None

    def _tuple(self) -> tuple[ShiftCheck, ...]:
        # Cap-1 conditions report the distinct count against the number of
        # differences, B its largest multiplicity against the cap.
        if self._checks is None:
            x, cap, extended = self._x, self._cap, self._extended
            checks = []
            for s, top in enumerate(self._tops, 1):
                prof = _profile(x, s, extended)
                if cap == 1:
                    observed, required = len(prof.multiplicity), len(prof.values)
                else:
                    observed, required = top, cap
                checks.append(ShiftCheck(s, top <= cap, observed, required, prof))
            self._checks = tuple(checks)
        return self._checks

    def __len__(self) -> int:
        return len(self._tops)

    def __getitem__(self, k):
        return self._tuple()[k]

    def __iter__(self):
        return iter(self._tuple())

    def __eq__(self, other):
        if isinstance(other, ShiftChecks):
            other = other._tuple()
        if isinstance(other, tuple):
            return self._tuple() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())


class ConditionReport(NamedTuple):
    """Full verdict of one condition over every shift s in [1, v)."""

    condition: str
    verdict: bool
    checks: ShiftChecks
    first_failure_s: int | None


def _check(e: ShiftSequence, name: str) -> ConditionReport:
    # A shift passes when no difference occurs more than the cap times: the
    # verdict reads only the table's largest multiplicities.
    extended, cap = CONDITIONS[name]
    x, tops = _count_table(e)
    first_failure = None
    for s, top in enumerate(tops[extended], 1):
        if top > cap:
            first_failure = s
            break
    checks = ShiftChecks(x, tops[extended], extended, cap)
    # tuple.__new__ skips the named tuple's Python __new__: one C call, for
    # the report that every verdict-only caller builds.
    return tuple.__new__(ConditionReport, (name, first_failure is None, checks, first_failure))


def check_condition_A(e: ShiftSequence) -> ConditionReport:
    return _check(e, "A")


def check_condition_B(e: ShiftSequence) -> ConditionReport:
    return _check(e, "B")


def check_condition_open(e: ShiftSequence) -> ConditionReport:
    return _check(e, "OPEN")


def cond2_sum_residue(e: ShiftSequence, s: int) -> int:
    """Sum of the extended differences at s, mod v; (-s) mod v for every finite e.

    It reads shift s's row alone: no count table, no multiplicities.
    """
    return sum(_row(_finite_entries(e), s)) % e.v

