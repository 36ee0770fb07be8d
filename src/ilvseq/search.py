"""Exhaustive and sampled search over finite shift vectors.

Every search covers the normalized space: the v^(v-1) vectors of Z_v^v with
e_0 = 0. Every predicate here is invariant under adding a constant to all
entries, so each translation class has exactly one vector there. The one
exhaustive walker, ``backtrack``, prunes a prefix as soon as its determined
differences already violate the predicate, which is sound because adding
entries never removes a difference, and expands a numpy block of prefixes at
a time, keeping one bit per difference (so v <= 64). Its witnesses come out
in lexicographic order; B-not-A is decided inside the walk of B.

``SearchSpec.strategy`` sets only what the walk counts as ``examined``: the
candidates it covers ("full") or its assignment nodes ("backtrack").
``exhaustive`` means the whole space was logically covered (false only when a
witness limit stops the walk before its last candidate, and for random
sampling). The completeness census walks the space too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .conditions import CONDITIONS, cond2_sum_residue
from .interleaving import ShiftSequence

#: Largest v the exhaustive strategies accept without force.
BUDGET_MAX_V = 8

#: Largest v random sampling accepts. Each draw takes v - 1 Python calls, so
#: 4,096 draws at v = 512 took 1.0-1.5 s on a shared 2-vCPU host, 3 MB peak (tracemalloc).
SAMPLE_MAX_V = 512

#: Examined-count granularity of progress callbacks.
PROGRESS_INTERVAL = 20000

#: Most children of one backtracking expansion, and most rows in one block of
#: random sampling up to v = 64: a sampling block holds at most 64 BLOCK_ROWS
#: entries, so fewer rows above. Larger blocks amortize numpy's per-call cost.
BLOCK_ROWS = 4096


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive search would exceed the configured budget."""


@dataclass(frozen=True)
class SearchSpec:
    """What to search: period, predicate, witness limit, strategy, force.

    ``predicate`` names one of "A", "B", "B-not-A", "OPEN", case-insensitive;
    any other value raises ``ValueError`` here. ``limit`` > 0 stops the
    search once that many witnesses are collected; 0 counts everything and
    stores none. ``strategy`` is "full" (the default) to count ``examined``
    as the candidates the walk covers, or "backtrack" to count its nodes;
    both give the same witnesses and ``satisfying`` (see ``backtrack``).
    ``force`` overrides the v <= BUDGET_MAX_V guard.
    """

    v: int
    predicate: str
    limit: int = 0
    strategy: str = "full"
    force: bool = False

    #: Not a field: every search fixes e_0 = 0 (bench/spans.py reads this).
    normalize = True

    def __post_init__(self):
        if self.v < 2:
            raise ValueError(f"v must be at least 2, got {self.v}")
        if self.limit < 0:
            raise ValueError("limit must be nonnegative")
        if self.strategy not in ("full", "backtrack"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if str(self.predicate).lower() not in _CANONICAL:
            raise ValueError(f"unknown predicate {self.predicate!r}")


@dataclass(frozen=True)
class SearchOutcome:
    witnesses: tuple[ShiftSequence, ...]
    examined: int
    satisfying: int
    exhaustive: bool
    #: Depth-first backtracking nodes per placed column; they sum to
    #: ``examined``. Empty for a "full" sweep and for random sampling.
    nodes_by_depth: tuple[int, ...] = field(default=(), compare=False)


_CANONICAL = {"a": "A", "b": "B", "open": "OPEN", "b-not-a": "B-not-A"}


def _b_not_a(rows: np.ndarray) -> np.ndarray:
    # The block verdict of random sampling; backtrack decides B-not-A itself.
    return CONDITIONS["B"].holds_rows(rows) & ~CONDITIONS["A"].holds_rows(rows)


def _resolve_predicate(spec: SearchSpec) -> str:
    # The canonical name of the spec's predicate.
    return _CANONICAL[str(spec.predicate).lower()]


def _guard_budget(v: int, force: bool) -> None:
    if v > BUDGET_MAX_V and not force:
        raise BudgetExceededError(
            f"v={v} exceeds the exhaustive-search budget (v <= {BUDGET_MAX_V}); "
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


def _row_dtype(v: int) -> np.dtype:
    # The smallest integer type holding every entry, every difference
    # e_j - E(j + s) in [-v, v) and the modulus v itself (int8 up to v = 127).
    # Blocks are stored in it; ``holds_rows`` widens them to at least int16.
    return np.min_scalar_type(-v - 1)


def _mask_dtype(v: int) -> np.dtype:
    # The smallest unsigned type with a bit for every difference in [0, v):
    # uint8 up to v = 8, uint16 to 16, uint32 to 32 and uint64 to 64.
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if np.iinfo(dtype).bits >= v:
            return np.dtype(dtype)
    raise ValueError(f"backtracking keeps one bit per difference, so v <= 64; got v={v}")


def _children(parents: np.ndarray, m: int, index: np.ndarray) -> np.ndarray:
    # The (v, len(index)) entries of the children ``index`` of a column-major
    # block of parents expanded at column m: child c is parent c // v with
    # e_m = c % v (the parents' column m is still 0).
    kids = parents[:, index // len(parents)]
    kids[m] = index % len(parents)
    return kids


def _runs(v: int, extended: bool) -> list[list[tuple[int, slice, slice]]]:
    # Depth m's runs of the difference terms whose later index is m, as
    # (t, rows, cols): kind t at the shifts s with s - 1 in rows, the other
    # columns in cols. Unwrapped, shifts 1..m read columns m-1 down to 0;
    # wrapped (extended only), shifts v-m..v-1 read columns 0..m-1. Unwrapped
    # first, as in ``differences``: term j = m - s comes before j = m.
    runs = [[]]
    for m in range(1, v):
        depth = [(0, slice(0, m), slice(m - 1, None, -1))]
        if extended:
            depth.append((1, slice(v - 1 - m, v - 1), slice(0, m)))
        runs.append(depth)
    return runs


def _rank(entries: list[int], v: int) -> int:
    # A candidate's lexicographic rank in Z_v^v, the same among the normalized
    # ones when e_0 = 0; a Python int, as v^v overflows int64 past v = 15.
    return sum(e * v ** (v - 1 - i) for i, e in enumerate(entries))


def _tick(progress: Callable[[int], None] | None, since: int, upto: int) -> None:
    # Report every multiple of PROGRESS_INTERVAL in (since, upto].
    if progress is not None:
        first = (since // PROGRESS_INTERVAL + 1) * PROGRESS_INTERVAL
        for tick in range(first, upto + 1, PROGRESS_INTERVAL):
            progress(tick)


def _collect(rows: np.ndarray, name: str, limit: int, witnesses: list) -> None:
    # Cross-check completeness hits, and keep their entries when a limit asks
    # for them; the caller builds a ShiftSequence only for the ones it returns.
    if limit or name == "OPEN":
        for entries in map(tuple, rows.tolist()):
            if name == "OPEN":
                _crosscheck_open_hit(entries)
            if limit:
                witnesses.append(entries)


def backtrack(
    spec: SearchSpec,
    progress: Callable[[int], None] | None = None,
) -> SearchOutcome:
    """Depth-first assignment with refutation-sound prefix pruning, a numpy
    block of prefixes at a time.

    Each difference term of the predicate's condition is recorded once the
    later of its two entries is placed, as the bit ``1 << d`` of its
    difference d in that shift's masks: a "seen once" mask per shift, and a
    "seen twice" mask when the cap is 2. A prefix is pruned as soon as a
    difference passes the cap. Blocks are column-major, so every term op
    runs on contiguous rows: a block of n prefixes holds its entries in a
    (v, n) array of ``_row_dtype(v)`` and its masks in a (words, n) array of
    ``_mask_dtype(v)``. A popped block of parents at depth m expands to all
    its children at column m. A term's bits for a parent's v children are
    one row of a (v, v) table: the difference is c - e_m or e_m - c - 1 for
    the parent's entry c in the term's other column. The terms of column m
    come in at most two runs (``_runs``): unwrapped at shifts 1..m, reading
    columns m-1 down to 0, then wrapped at shifts v-m..v-1, reading columns
    0..m-1. Each run is one chain of unsigned ops on 2-D slices of
    consecutive mask rows, one row per shift, its check OR-reduced over the
    rows. The survivors go back on the stack in blocks of
    ``BLOCK_ROWS // v`` parents, first block on top, so leaves come out in
    lexicographic order. B-not-A
    searches B and also records B's unwrapped terms (t = 0), which are A's,
    in cap-1 masks of A that set one "A already failed" row; a leaf is a hit
    when it survives B and that row is set. One bit per difference limits
    the walk to v <= 64: a larger v raises ``ValueError`` before any work.

    With ``spec.strategy == "full"`` the walk reports what a sweep of every
    candidate in lexicographic order would: ``examined`` is the number of
    candidates covered, v^(v-1) on an exhaustive run and the rank of the
    limit-th witness plus one on a stop, and ``nodes_by_depth`` is empty.
    Each popped block reports the rank of its first child's prefix padded
    with zeros, and each leaf block the rank of its last judged child plus
    one: every earlier candidate has been judged or pruned by then.

    With "backtrack", ``examined``, ``nodes_by_depth`` and the progress ticks
    are those of the one-node-at-a-time depth-first walk, also on an early
    stop. That walk tries all v children of each surviving prefix in order,
    so on reaching a node with entry e_m whose prefix is the rho-th survivor
    of its length (rho = 0 for the root) it has tried v*rho + e_m + 1 nodes
    at depth m. Blocks pop in lexicographic order, so a running count per
    depth, ``tried``, gives each survivor its rank, and every row carries
    ``before[m]`` = v*rho for each of its prefixes. Progress is reported at
    every popped block, at the count on reaching its first child, and at
    the last node judged in each leaf block; deeper than the block, ``tried``
    then holds just the nodes of the earlier subtrees, all of them walked.
    """
    _guard_budget(spec.v, spec.force)
    name = _resolve_predicate(spec)
    v = spec.v
    limit = spec.limit
    mask = _mask_dtype(v)
    b_not_a = name == "B-not-A"
    full = spec.strategy == "full"
    extended, cap = CONDITIONS["B" if b_not_a else name]
    # Mask rows: "seen once" at shift s in row s-1, "seen twice" (cap 2) in
    # row v-1+s-1, then for B-not-A A's "seen once" and the "A failed" row.
    shifts = v - 1
    failed = (cap + 1) * shifts
    words = failed + 1 if b_not_a else cap * shifts
    # The difference e_i - e_k - t of a term whose later entry e_m is j is
    # c - j when unwrapped (k = m, c = e_i, t = 0) and j - c - 1 when wrapped
    # (i = m, c = e_k, t = 1). So the bits 1 << d of the v children of a
    # parent with entry c are row c of a (v, v) table, one per kind.
    j, one = np.arange(v), mask.type(1)
    tables = tuple(one << (d % v).astype(mask) for d in (j[:, None] - j, j - j[:, None] - 1))
    runs = _runs(v, extended)
    step = max(1, BLOCK_ROWS // v)
    tried = [0] * v  # at depth m: v times the survivors found so far at m - 1
    tried[1] = v
    # e_0 stays 0, so the walk starts at column 1 with one all-zero prefix.
    root = (np.zeros((v, 1), dtype=_row_dtype(v)), np.zeros((words, 1), dtype=mask))
    stack = [(1, *root, np.zeros((1, v), dtype=np.int64))]
    witnesses: list[tuple[int, ...]] = []
    reported = 0  # the count of the last progress report
    satisfying = 0
    while stack:
        m, parents, parent_masks, before = stack.pop()
        n = parents.shape[1] * v
        if progress is not None:
            if full:  # the candidates before the first child; columns m.. are 0
                first = _rank(parents[:, 0].tolist(), v)
            else:  # the depth-first count on reaching the block's first child
                first = before[0, 1 : m + 1].sum() + parents[1 : m + 1, 0].sum()
                first = int(first) + m + sum(tried[m + 1 :])
            _tick(progress, reported, first)
            reported = first
        masks = np.repeat(parent_masks, v, axis=1)
        # The "once", "twice" and A's "once" masks, a row per shift.
        once, twice, seen_a = (masks[at : at + shifts] for at in (0, shifts, cap * shifts))
        bad = np.zeros(n, dtype=mask)
        for t, rows, cols in runs[m]:
            bits = tables[t].take(parents[cols], axis=0).reshape(-1, n)
            seen = once[rows]
            if cap == 2:
                two = twice[rows]
                bad |= np.bitwise_or.reduce(two & bits, axis=0)
                two |= seen & bits
            else:
                bad |= np.bitwise_or.reduce(seen & bits, axis=0)
            seen |= bits
            if b_not_a and not t:
                seen_in_a = seen_a[rows]
                masks[failed] |= np.bitwise_or.reduce(seen_in_a & bits, axis=0)
                seen_in_a |= bits
        keep = np.flatnonzero(bad == 0)
        if m < v - 1:
            kids = _children(parents, m, keep)
            ahead = before[keep // v]
            ahead[:, m + 1] = tried[m + 1] + v * np.arange(len(keep))
            tried[m + 1] += v * len(keep)
            for start in reversed(range(0, len(keep), step)):
                part = slice(start, start + step)
                stack.append((m + 1, kids[:, part], masks[:, keep[part]], ahead[part]))
            continue
        hits = keep[masks[failed, keep] != 0] if b_not_a else keep
        stop = 0 < limit <= len(witnesses) + len(hits)
        if stop:
            hits = hits[: limit - len(witnesses)]
        last = int(hits[-1]) if stop else n - 1
        nodes = (before[last // v, 1:] + parents[1:, last // v] + 1).tolist()
        nodes[-1] += last % v  # a parent's e_m is 0; the last node's is last % v
        examined = _rank(parents[:, last // v].tolist(), v) + last % v + 1 if full else sum(nodes)
        _tick(progress, reported, examined)
        reported = examined
        satisfying += len(hits)
        if limit or name == "OPEN":  # the leaves' entries only when _collect reads them
            _collect(_children(parents, m, hits).T, name, limit, witnesses)
        if stop:
            # Every block is expanded once the stack is empty, so ``tried`` is
            # then the whole walk's: the stop covered it all when it is the
            # walk's last node, which is then the last candidate.
            exhaustive = not stack and nodes == tried[1:]
            break
    else:
        exhaustive = True
        nodes = tried[1:]
        examined = v ** (v - 1) if full else sum(nodes)
        _tick(progress, reported, examined)
    found = tuple(map(ShiftSequence._valid, witnesses))
    return SearchOutcome(found, examined, satisfying, exhaustive, () if full else tuple(nodes))


@dataclass(frozen=True)
class NonexistenceEntry:
    """One period's completeness-condition census.

    ``examined`` is the number of candidates covered, v^(v-1); ``nodes`` is
    the number of nodes the backtracking walk visited to cover them.

    ``one_infinity`` counts the one-∞ frontier: the normalized vectors
    (e_0 = 0) of length v whose last entry is ∞ and which are finite-term
    OPEN, that is, at every shift the v-2 extended differences of the terms
    touching no ∞ column are distinct mod v. It is read off the walk: the
    last depth's node count divided by v. Proof: the walk records a
    difference term when the later of its two columns is placed, so the
    terms that touch column v-1 come in only at the last depth, and a
    prefix of length v-1 survives exactly when the terms among its own
    columns are distinct at every shift, which is finite-term OPEN for
    (prefix, ∞). An exhaustive walk tries all v children of each survivor
    at the depth above, so the last depth holds v nodes per survivor.
    """

    v: int
    exists: bool
    witnesses: tuple[ShiftSequence, ...]
    examined: int
    exhaustive: bool
    nodes: int
    one_infinity: int


def verify_open_nonexistence(v_max: int, force: bool = False) -> dict[int, NonexistenceEntry]:
    """Exhaustively census the completeness condition for every v in [2, v_max].

    One backtracking walk per period covers its normalized space of v^(v-1)
    candidates. Its witness limit is the size of that space, so every witness
    is kept and the walk never stops before covering it all.
    """
    if v_max < 2:
        raise ValueError(f"v_max must be at least 2, got {v_max}")
    # Refuse before any work, naming the first period past the budget, or
    # past the walk's one bit per difference.
    _guard_budget(min(v_max, BUDGET_MAX_V + 1), force)
    _mask_dtype(v_max)
    table = {}
    for v in range(2, v_max + 1):
        size = v ** (v - 1)
        run = backtrack(SearchSpec(v, "OPEN", limit=size, strategy="backtrack", force=force))
        one_infinity, rest = divmod(run.nodes_by_depth[-1], v)
        if rest:
            raise RuntimeError(
                f"the last depth of the v={v} walk holds {run.nodes_by_depth[-1]} nodes, "
                f"not a multiple of v"
            )
        table[v] = NonexistenceEntry(
            v, run.satisfying > 0, run.witnesses, size, run.exhaustive, run.examined, one_infinity
        )
    return table


def sample_random(
    v: int,
    predicate: object,
    n: int,
    seed: int = 0,
    limit: int = 0,
) -> SearchOutcome:
    """Uniform random draws over the normalized space; never exhaustive.

    The offered fallback beyond the exhaustive budget, for v up to
    ``SAMPLE_MAX_V``: a larger v raises ``ValueError`` before any work. The
    draws are judged in blocks of at most 64 ``BLOCK_ROWS`` entries by the
    predicate's block verdict; the outcome does not depend on their size.
    ``satisfying`` counts hits with multiplicity across the n draws;
    witnesses are deduplicated, sorted, and capped by ``limit``.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    name = _resolve_predicate(SearchSpec(v, predicate, limit=limit))
    if v > SAMPLE_MAX_V:
        raise ValueError(f"sampling takes v <= {SAMPLE_MAX_V}, got v={v}")
    verdict = _b_not_a if name == "B-not-A" else CONDITIONS[name].holds_rows
    rng = random.Random(seed)
    satisfying = 0
    hits: set[tuple[int, ...]] = set()
    step = min(BLOCK_ROWS, BLOCK_ROWS * 64 // v)  # at most 64 BLOCK_ROWS entries
    for start in range(0, n, step):
        size = min(step, n - start)
        block = np.zeros((size, v), dtype=_row_dtype(v))
        count = size * (v - 1)
        draws = (rng.randrange(v) for _ in range(count))
        block[:, 1:] = np.fromiter(draws, block.dtype, count).reshape(size, v - 1)  # e_0 stays 0
        rows = block[verdict(block)]
        satisfying += len(rows)
        found: list[tuple[int, ...]] = []
        _collect(rows, name, limit, found)
        hits.update(found)  # a set, so repeated draws keep one witness each
    witnesses = tuple(map(ShiftSequence._valid, sorted(hits)[:limit]))
    return SearchOutcome(witnesses, n, satisfying, False)
