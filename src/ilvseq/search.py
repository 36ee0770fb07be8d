"""Exhaustive and pruned search over finite shift vectors.

The search space for length v is all of Z_v^v, cut down to v^(v-1) by fixing
e_0 = 0 (every predicate here is invariant under adding a constant to all
entries, so each class has exactly one normalized representative). Full
enumeration visits every candidate, a numpy block at a time; backtracking
prunes a prefix as soon as its determined differences already violate the
predicate, which is sound because adding entries never removes a difference.

``examined`` counts candidates for full enumeration and assignment nodes for
backtracking; ``exhaustive`` means the whole space was logically covered
(false only after an early stop on a witness limit, or for random sampling).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conditions import CONDITIONS, cond2_sum_residue, difference_terms
from .interleaving import ShiftSequence

#: Largest v the exhaustive strategies accept without force.
BUDGET_MAX_V = 8

#: Examined-count granularity of progress callbacks.
PROGRESS_INTERVAL = 20000

#: Most rows in one block of full enumeration (a block holds v^L rows, for
#: the largest such L). Larger blocks amortize numpy's per-call cost; these
#: stay far below a megabyte.
BLOCK_ROWS = 4096


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive search would exceed the configured budget."""


@dataclass(frozen=True)
class SearchSpec:
    """What to search: period, predicate, normalization, witness limit.

    ``predicate`` is one of "A", "B", "B-not-A", "OPEN" (case-insensitive;
    "b-and-not-a" is accepted for the third), or any callable taking a raw
    entry tuple. ``limit`` > 0 stops the search once that many witnesses are
    collected; 0 counts everything and stores none. ``force`` overrides the
    v <= BUDGET_MAX_V guard.
    """

    v: int
    predicate: object
    normalize: bool = True
    limit: int = 0
    strategy: str = "full"
    force: bool = False

    def __post_init__(self):
        if self.v < 2:
            raise ValueError(f"v must be at least 2, got {self.v}")
        if self.limit < 0:
            raise ValueError("limit must be nonnegative")
        if self.strategy not in ("full", "backtrack"):
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True)
class SearchOutcome:
    witnesses: tuple[ShiftSequence, ...]
    examined: int
    satisfying: int
    exhaustive: bool


_CANONICAL = {
    "a": "A",
    "b": "B",
    "open": "OPEN",
    "b-not-a": "B-not-A",
    "b-and-not-a": "B-not-A",
}


def _b_not_a(entries) -> bool:
    return CONDITIONS["B"].holds(entries) and not CONDITIONS["A"].holds(entries)


def _resolve_predicate(spec: SearchSpec) -> tuple[str | None, Callable]:
    if callable(spec.predicate):
        return None, spec.predicate
    name = _CANONICAL.get(str(spec.predicate).lower())
    if name is None:
        raise ValueError(f"unknown predicate {spec.predicate!r}")
    return name, _b_not_a if name == "B-not-A" else CONDITIONS[name].holds


def _guard_budget(spec: SearchSpec) -> None:
    if spec.v > BUDGET_MAX_V and not spec.force:
        raise BudgetExceededError(
            f"v={spec.v} exceeds the exhaustive-search budget (v <= {BUDGET_MAX_V}); "
            "pass force to override or use random sampling"
        )


def _crosscheck_open_hit(entries: tuple[int, ...]) -> None:
    # Any completeness hit must sum to v(v-1)/2 mod v at every shift; a
    # violation would mean the checker and the sum identity disagree.
    e = ShiftSequence(entries)
    v = e.v
    want = (v * (v - 1) // 2) % v
    for s in range(1, v):
        if cond2_sum_residue(e, s) != want:
            raise RuntimeError(
                f"inconsistent completeness hit {entries}: sum residue at s={s} "
                f"is {cond2_sum_residue(e, s)}, expected {want}"
            )


def _row_verdict(name: str | None, fn: Callable) -> Callable[[np.ndarray], np.ndarray]:
    # A bool mask over a block of candidate rows.
    if name is None:
        return lambda rows: np.fromiter(map(fn, map(tuple, rows.tolist())), bool, len(rows))
    if name == "B-not-A":
        b, a = CONDITIONS["B"], CONDITIONS["A"]
        return lambda rows: b.holds_rows(rows) & ~a.holds_rows(rows)
    return CONDITIONS[name].holds_rows


def enumerate_space(
    spec: SearchSpec,
    progress: Callable[[int], None] | None = None,
) -> SearchOutcome:
    """Visit every candidate in lexicographic order and apply the predicate.

    The space is walked in blocks of v^L rows that share their head digits;
    the last L columns hold every tail in order. A named predicate is judged
    a block at a time by ``Condition.holds_rows``, a callable row by row.
    """
    _guard_budget(spec)
    name, fn = _resolve_predicate(spec)
    verdict = _row_verdict(name, fn)
    v = spec.v
    limit = spec.limit
    lead = 1 if spec.normalize else 0  # a normalized e_0 stays 0
    free = v - lead
    tail = 1
    while tail < free and v ** (tail + 1) <= BLOCK_ROWS:
        tail += 1
    block = np.zeros((v**tail, v), dtype=np.min_scalar_type(-v))
    block[:, v - tail :] = np.indices((v,) * tail).reshape(tail, -1).T
    examined = satisfying = 0
    witnesses = []
    for head in itertools.product(range(v), repeat=free - tail):
        block[:, lead : v - tail] = head
        hits = np.flatnonzero(verdict(block))
        size = len(block)
        if limit and len(witnesses) + len(hits) >= limit:
            hits = hits[: limit - len(witnesses)]
            size = int(hits[-1]) + 1
        if progress is not None:
            first = (examined // PROGRESS_INTERVAL + 1) * PROGRESS_INTERVAL
            for tick in range(first, examined + size + 1, PROGRESS_INTERVAL):
                progress(tick)
        examined += size
        satisfying += len(hits)
        if limit or name == "OPEN":
            for row in block[hits].tolist():
                entries = tuple(row)
                if name == "OPEN":
                    _crosscheck_open_hit(entries)
                if limit:
                    witnesses.append(ShiftSequence(entries))
            if limit and len(witnesses) >= limit:
                break
    return SearchOutcome(tuple(witnesses), examined, satisfying, examined == v**free)


class _StopSearch(Exception):
    pass


def backtrack(
    spec: SearchSpec,
    progress: Callable[[int], None] | None = None,
) -> SearchOutcome:
    """Depth-first assignment with refutation-sound prefix pruning.

    Each difference term of the predicate's condition is counted once the
    later of its two entries is placed, and a prefix is pruned as soon as a
    count passes the cap. B-not-A searches B and also counts the unextended
    (t = 0) terms alone: a witness needs a repeat among them to fail A.
    Witnesses come out in the same lexicographic order as full enumeration.
    Named predicates only.
    """
    _guard_budget(spec)
    name, _ = _resolve_predicate(spec)
    if name is None:
        raise ValueError("backtracking requires a named predicate (A, B, B-not-A, OPEN)")
    v = spec.v
    limit = spec.limit
    b_not_a = name == "B-not-A"
    extended, cap = CONDITIONS["B" if b_not_a else name]
    # Terms by their later index, each with the offset of its shift's counts.
    later = [[] for _ in range(v)]
    for s, terms in enumerate(difference_terms(v, extended), 1):
        for i, k, t in terms:
            later[max(i, k)].append((s * v, i, k, t))
    counts = [0] * (v * v)
    counts_a = [0] * (v * v)
    a_pairs = 0  # equal pairs among the t = 0 differences of one shift
    entries = [0] * v
    witnesses: list[ShiftSequence] = []
    examined = 0
    satisfying = 0

    def place(m):
        nonlocal examined, satisfying, a_pairs
        terms = later[m]
        last = m == v - 1
        for val in range(v):
            entries[m] = val
            examined += 1
            if progress is not None and examined % PROGRESS_INTERVAL == 0:
                progress(examined)
            added = []
            added_a = []
            for base, i, k, t in terms:
                slot = base + (entries[i] - entries[k] - t) % v
                counts[slot] += 1
                added.append(slot)
                if counts[slot] > cap:
                    break
                if b_not_a and not t:
                    a_pairs += counts_a[slot]
                    counts_a[slot] += 1
                    added_a.append(slot)
            else:
                if not last:
                    place(m + 1)
                elif not b_not_a or a_pairs:
                    ent = tuple(entries)
                    if name == "OPEN":
                        _crosscheck_open_hit(ent)
                    satisfying += 1
                    if limit:
                        witnesses.append(ShiftSequence(ent))
                        if len(witnesses) >= limit:
                            raise _StopSearch
            for slot in added:
                counts[slot] -= 1
            for slot in added_a:
                counts_a[slot] -= 1
                a_pairs -= counts_a[slot]

    exhaustive = True
    try:
        place(1 if spec.normalize else 0)
    except _StopSearch:
        exhaustive = False
    return SearchOutcome(tuple(witnesses), examined, satisfying, exhaustive)


def run_search(
    spec: SearchSpec,
    progress: Callable[[int], None] | None = None,
) -> SearchOutcome:
    """Dispatch on spec.strategy ("full" enumeration or "backtrack")."""
    if spec.strategy == "backtrack":
        return backtrack(spec, progress=progress)
    return enumerate_space(spec, progress=progress)


def find_B_not_A(
    v: int,
    limit: int = 0,
    strategy: str = "backtrack",
    force: bool = False,
) -> SearchOutcome:
    """Search for vectors passing the multiplicity condition but not distinctness."""
    spec = SearchSpec(v, "B-not-A", limit=limit, strategy=strategy, force=force)
    return run_search(spec)


@dataclass(frozen=True)
class NonexistenceEntry:
    """One period's completeness-condition census."""

    v: int
    exists: bool
    witnesses: tuple[ShiftSequence, ...]
    examined: int
    exhaustive: bool

    @property
    def witness(self) -> ShiftSequence | None:
        return self.witnesses[0] if self.witnesses else None


def verify_open_nonexistence(v_max: int, force: bool = False) -> dict[int, NonexistenceEntry]:
    """Exhaustively census the completeness condition for every v in [2, v_max].

    One pass per period over the normalized space; its witness limit is the
    size of that space, so every witness is kept and the pass never stops early.
    """
    if v_max < 2:
        raise ValueError(f"v_max must be at least 2, got {v_max}")
    table = {}
    for v in range(2, v_max + 1):
        run = enumerate_space(SearchSpec(v, "OPEN", limit=v ** (v - 1), force=force))
        table[v] = NonexistenceEntry(
            v, run.satisfying > 0, run.witnesses, run.examined, run.exhaustive
        )
    return table


def sample_random(
    v: int,
    predicate: object,
    n: int,
    seed: int = 0,
    normalize: bool = True,
    limit: int = 0,
) -> SearchOutcome:
    """Uniform random draws over the (normalized) space; never exhaustive.

    The offered fallback beyond the exhaustive budget. ``satisfying`` counts
    hits with multiplicity across the n draws; witnesses are deduplicated,
    sorted, and capped by ``limit``.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    spec = SearchSpec(v, predicate, normalize=normalize, limit=limit, force=True)
    name, fn = _resolve_predicate(spec)
    rng = random.Random(seed)
    fixed = (0,) if normalize else ()
    free = v - len(fixed)
    satisfying = 0
    hits = set()
    for _ in range(n):
        entries = fixed + tuple(rng.randrange(v) for _ in range(free))
        if fn(entries):
            if name == "OPEN":
                _crosscheck_open_hit(entries)
            satisfying += 1
            hits.add(entries)
    witnesses = tuple(ShiftSequence(ent) for ent in sorted(hits)[:limit])
    return SearchOutcome(witnesses, n, satisfying, False)
