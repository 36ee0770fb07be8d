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
one table per vector, built in one pure-Python pass and cached, with the
unextended profile at s the first v-s of the extended differences.
``differences`` reads one shift of it and the ``check_*`` reports walk it.
The reports serve the tests as the oracle, so they use no numpy.
``Condition.holds_rows`` judges a block of candidates at once (random
sampling, ``reproduce`` and the tests' enumeration oracle): shift s is the
difference of two column slices of the block's extended rows. The search's
backtracker places the same terms by their later index, in runs on
consecutive shifts whose closed form it states itself, as bits of per-shift
masks.
"""

from __future__ import annotations

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
    table = _profiles(e)  # raises first on an INFINITY entry
    if not 1 <= s < e.v:
        raise ValueError(f"shift s must lie in [1, {e.v}), got {s}")
    return table[bool(extended)][s - 1][0]


@lru_cache(maxsize=8)
def _profiles(e: ShiftSequence) -> tuple[tuple[tuple[DifferenceProfile, int], ...], ...]:
    # Entry [extended][s-1] is (profile of shift s, its largest multiplicity).
    # The first v-s of the v extended differences at s are the unextended
    # profile; counting the s wrapped terms on top gives the extended one. One
    # entry holds about 1.5 MB at v=127, so the bound keeps the cache near 12 MB.
    # tuple.__new__ skips each named tuple's Python __new__: one C call each.
    new = tuple.__new__
    ext = _extension(e)
    v = e.v
    head = ext[:v]
    table = ([], [])
    for s in range(1, v):
        values = tuple([(x - y) % v for x, y in zip(head, ext[s:])])
        counts = [0] * v
        start = 0
        for extended, stop in ((False, v - s), (True, v)):
            for d in values[start:stop]:
                counts[d] += 1
            start = stop
            multiplicity = tuple([(d, c) for d, c in enumerate(counts) if c])
            fields = (v, s, extended, values[:stop], multiplicity)
            table[extended].append((new(DifferenceProfile, fields), max(counts)))
    return tuple(table[0]), tuple(table[1])


class ShiftCheck(NamedTuple):
    """One shift's verdict: observed statistic against its requirement."""

    s: int
    passed: bool
    observed: int
    required: int
    profile: DifferenceProfile


class ConditionReport(NamedTuple):
    """Full verdict of one condition over every shift s in [1, v)."""

    condition: str
    verdict: bool
    checks: tuple[ShiftCheck, ...]
    first_failure_s: int | None


def _check(e: ShiftSequence, name: str) -> ConditionReport:
    # A shift passes when no difference exceeds the cap. Cap-1 conditions
    # report the distinct count against the number of differences, B its
    # largest multiplicity against the cap.
    # tuple.__new__ builds each named tuple in one C call, as in _profiles.
    new = tuple.__new__
    extended, cap = CONDITIONS[name]
    checks = []
    first_failure = None
    for prof, top in _profiles(e)[extended]:
        if cap == 1:
            observed, required = len(prof.multiplicity), len(prof.values)
        else:
            observed, required = top, cap
        passed = top <= cap
        if not passed and first_failure is None:
            first_failure = prof.s
        checks.append(new(ShiftCheck, (prof.s, passed, observed, required, prof)))
    fields = (name, first_failure is None, tuple(checks), first_failure)
    return new(ConditionReport, fields)


def check_condition_A(e: ShiftSequence) -> ConditionReport:
    return _check(e, "A")


def check_condition_B(e: ShiftSequence) -> ConditionReport:
    return _check(e, "B")


def check_condition_open(e: ShiftSequence) -> ConditionReport:
    return _check(e, "OPEN")


def cond2_sum_residue(e: ShiftSequence, s: int) -> int:
    """Sum of the extended differences at s, mod v; (-s) mod v for every finite e."""
    return sum(differences(e, s, True).values) % e.v

