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
one per-vector profile table, every shift's ``DifferenceProfile`` built in
one pass in pure Python and cached; B and OPEN share the extended table.
``differences`` reads one shift of it and the ``check_*`` reports walk it.
The reports serve the tests as the oracle, so they use neither the term
table below nor numpy. ``difference_terms`` indexes the same differences as
numpy arrays (i, k, t) per shift, term j meaning e_i - e_k - t.
``Condition.holds_rows`` reads it to judge a block of candidates at once
(enumeration, sampling), and the search's backtracker counts its terms as
entries are placed.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        array of finite entries, equal row by row to the reports' verdict.
        Per shift it sorts each row's differences and rejects a row where a
        value occurs more than ``cap`` times; only the surviving rows go on
        to the next shift."""
        extended, cap = self
        n, v = rows.shape
        ok = np.ones(n, dtype=bool)
        alive = np.arange(n)
        for i, k, t in difference_terms(v, extended):
            d = (rows[:, i] - rows[:, k] - t) % v
            d.sort(axis=1)
            bad = (d[:, cap:] == d[:, :-cap]).any(axis=1)
            if bad.any():
                ok[alive[bad]] = False
                alive = alive[~bad]
                rows = rows[~bad]
        return ok


CONDITIONS = {
    "A": Condition(extended=False, cap=1),
    "B": Condition(extended=True, cap=2),
    "OPEN": Condition(extended=True, cap=1),
}


@dataclass(frozen=True)
class DifferenceProfile:
    """One shift's difference multiset, in evaluation order."""

    v: int
    s: int
    extended: bool
    values: tuple[int, ...]
    multiplicity: tuple[tuple[int, int], ...]

    @property
    def multiplicity_map(self) -> dict[int, int]:
        return dict(self.multiplicity)

    @property
    def distinct_count(self) -> int:
        return len(self.multiplicity)

    @property
    def max_multiplicity(self) -> int:
        return max(count for _, count in self.multiplicity)


def differences(e: ShiftSequence, s: int, extended: bool) -> DifferenceProfile:
    """The differences e_j - E(j+s) mod v at shift s, for j in [0, v) if
    extended, else for j in [0, v-s)."""
    table = _profiles(e, extended)  # raises first on an INFINITY entry
    if not 1 <= s < e.v:
        raise ValueError(f"shift s must lie in [1, {e.v}), got {s}")
    return table[s - 1]


@lru_cache(maxsize=16)
def _profiles(e: ShiftSequence, extended: bool) -> tuple[DifferenceProfile, ...]:
    # Entry s-1 is the profile of shift s: the definition, evaluated once per
    # vector for every shift. B and OPEN share the extended table. One entry
    # holds about 0.8 MB at v=127, so the bound keeps the cache near 12 MB.
    ext = _extension(e)
    v = e.v
    table = []
    for s in range(1, v):
        values = tuple([(x - y) % v for x, y in zip(ext[:v if extended else v - s], ext[s:])])
        counts = [0] * v
        for d in values:
            counts[d] += 1
        multiplicity = tuple([(d, c) for d, c in enumerate(counts) if c])
        table.append(DifferenceProfile(v, s, extended, values, multiplicity))
    return tuple(table)


@dataclass(frozen=True)
class ShiftCheck:
    """One shift's verdict: observed statistic against its requirement."""

    s: int
    passed: bool
    observed: int
    required: int
    profile: DifferenceProfile


@dataclass(frozen=True)
class ConditionReport:
    """Full verdict of one condition over every shift s in [1, v)."""

    condition: str
    verdict: bool
    checks: tuple[ShiftCheck, ...]
    first_failure_s: int | None


def _check(e: ShiftSequence, name: str) -> ConditionReport:
    # A shift passes when no difference exceeds the cap. Cap-1 conditions
    # report the distinct count against the number of differences, B its
    # largest multiplicity against the cap.
    extended, cap = CONDITIONS[name]
    checks = []
    first_failure = None
    for prof in _profiles(e, extended):
        top = prof.max_multiplicity
        if cap == 1:
            observed, required = prof.distinct_count, len(prof.values)
        else:
            observed, required = top, cap
        passed = top <= cap
        if not passed and first_failure is None:
            first_failure = prof.s
        checks.append(ShiftCheck(prof.s, passed, observed, required, prof))
    return ConditionReport(name, first_failure is None, tuple(checks), first_failure)


def check_condition_A(e: ShiftSequence) -> ConditionReport:
    return _check(e, "A")


def check_condition_B(e: ShiftSequence) -> ConditionReport:
    return _check(e, "B")


def check_condition_open(e: ShiftSequence) -> ConditionReport:
    return _check(e, "OPEN")


def cond2_sum_residue(e: ShiftSequence, s: int) -> int:
    """Sum of the extended differences at s, mod v; (-s) mod v for every finite e."""
    return sum(differences(e, s, True).values) % e.v


@lru_cache(maxsize=None)
def difference_terms(v: int, extended: bool) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Entry s-1 holds shift s's differences as read-only index arrays
    (i, k, t), term j meaning e_i - e_k - t mod v, in the order of
    ``differences``: i = j, k = (j + s) mod v, and t = 1 on the wrapped terms.
    t is int8 so that it keeps the dtype of small-integer rows."""
    table = []
    for s in range(1, v):
        i = np.arange(v if extended else v - s, dtype=np.intp)
        k = (i + s) % v
        t = (k < i).astype(np.int8)
        for arr in (i, k, t):
            arr.flags.writeable = False
        table.append((i, k, t))
    return tuple(table)
