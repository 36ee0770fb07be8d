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

All differences are canonical residues in [0, v). The definition lives in
one count table per vector, built in one pure-Python pass and cached: per
shift, the v extended differences, and the largest multiplicity among the
first v-s of them (the unextended differences) and among all v. A report's
verdict and first failing shift read only those counts. Its ``checks`` are
a read-only ``ShiftChecks`` sequence whose ``ShiftCheck`` and
``DifferenceProfile`` tuples are built from the same table on first read
and kept, so a caller that reads only the verdict builds none of them.
``differences`` builds the one profile it is asked for, and
``cond2_sum_residue`` sums a row of the table. The reports serve the tests
as the oracle, so they use no numpy; bad input (an INFINITY entry) raises
when the report is made.
``Condition.holds_rows`` judges a block of candidates at once (random
sampling, ``reproduce`` and the tests' enumeration oracle): shift s is the
difference of two column slices of the block's extended rows. The search's
backtracker places the same terms by their later index, in runs on
consecutive shifts whose closed form it states itself, as bits of per-shift
masks.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .interleaving import ShiftSequence, _extension


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
        int16: numpy sorts rows of int8 many times slower."""
        extended, cap = self
        n, v = rows.shape
        wide = np.promote_types(np.min_scalar_type(-v - 1), np.int16)
        ext = rows.astype(wide)
        if extended:
            ext = np.concatenate((ext, ext + wide.type(1)), axis=1)
        alive = np.arange(n)
        modulus = wide.type(v)
        for s in range(1, v):
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
    return _profile(_row(e, s), s, bool(extended))


def _row(e: ShiftSequence, s: int) -> tuple[int, ...]:
    # The v extended differences at s, from the count table.
    rows, _ = _count_table(e)  # raises first on an INFINITY entry
    if not 1 <= s < e.v:
        raise ValueError(f"shift s must lie in [1, {e.v}), got {s}")
    return rows[s - 1]


@lru_cache(maxsize=8)
def _count_table(e: ShiftSequence) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    # (rows, tops): rows[s-1] holds the v extended differences at shift s,
    # whose first v-s are the unextended ones, and tops[extended][s-1] the
    # largest multiplicity among the unextended or all v of them. Counting
    # the s wrapped terms on top of the unextended counts gives the extended
    # top. One entry holds about 0.1 MB at v=127.
    ext = _extension(e)
    v = e.v
    head = ext[:v]
    rows = []
    tops = ([], [])
    for s in range(1, v):
        values = tuple([(x - y) % v for x, y in zip(head, ext[s:])])
        counts = [0] * v
        for d in values[: v - s]:
            counts[d] += 1
        tops[False].append(max(counts))
        for d in values[v - s :]:
            counts[d] += 1
        tops[True].append(max(counts))
        rows.append(values)
    return tuple(rows), (tuple(tops[False]), tuple(tops[True]))


def _profile(row: tuple[int, ...], s: int, extended: bool) -> DifferenceProfile:
    # Shift s's profile from its row of the count table.
    v = len(row)
    values = row if extended else row[: v - s]
    counts = [0] * v
    for d in values:
        counts[d] += 1
    multiplicity = tuple([(d, c) for d, c in enumerate(counts) if c])
    # tuple.__new__ skips the named tuple's Python __new__: one C call.
    return tuple.__new__(DifferenceProfile, (v, s, extended, values, multiplicity))


class ShiftCheck(NamedTuple):
    """One shift's verdict: observed statistic against its requirement."""

    s: int
    passed: bool
    observed: int
    required: int
    profile: DifferenceProfile


class ShiftChecks(Sequence):
    """Read-only sequence of a report's ShiftChecks, one per shift in [1, v).

    The checks are built from the vector's count table on first read and
    kept; ``len`` needs no build. It equals, hashes and reprs as the tuple
    of the same ShiftChecks, and an index or a slice reads that tuple.
    """

    __slots__ = ("_rows", "_tops", "_extended", "_cap", "_checks")

    def __init__(self, rows, tops, extended: bool, cap: int):
        self._rows, self._tops, self._extended, self._cap = rows, tops, extended, cap
        self._checks = None

    def _tuple(self) -> tuple[ShiftCheck, ...]:
        # Cap-1 conditions report the distinct count against the number of
        # differences, B its largest multiplicity against the cap.
        if self._checks is None:
            new = tuple.__new__
            cap = self._cap
            checks = []
            for s, (row, top) in enumerate(zip(self._rows, self._tops), 1):
                prof = _profile(row, s, self._extended)
                if cap == 1:
                    observed, required = len(prof.multiplicity), len(prof.values)
                else:
                    observed, required = top, cap
                checks.append(new(ShiftCheck, (s, top <= cap, observed, required, prof)))
            self._checks = tuple(checks)
        return self._checks

    def __len__(self) -> int:
        return len(self._rows)

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
    rows, tops = _count_table(e)
    first_failure = None
    for s, top in enumerate(tops[extended], 1):
        if top > cap:
            first_failure = s
            break
    checks = ShiftChecks(rows, tops[extended], extended, cap)
    # tuple.__new__ builds the named tuple in one C call, as in _profile.
    return tuple.__new__(ConditionReport, (name, first_failure is None, checks, first_failure))


def check_condition_A(e: ShiftSequence) -> ConditionReport:
    return _check(e, "A")


def check_condition_B(e: ShiftSequence) -> ConditionReport:
    return _check(e, "B")


def check_condition_open(e: ShiftSequence) -> ConditionReport:
    return _check(e, "OPEN")


def cond2_sum_residue(e: ShiftSequence, s: int) -> int:
    """Sum of the extended differences at s, mod v; (-s) mod v for every finite e."""
    return sum(_row(e, s)) % e.v

