"""Full enumeration of shift-vector space: the oracle of every exhaustive sweep.

The library walks the space by backtracking only; this module builds every
candidate in lexicographic order and judges each with the conditions' block
verdicts (``Condition.holds_rows``), so a "full" sweep's witnesses, counts,
limits and progress ticks can be checked against it. It reaches v = 8
normalized (2,097,152 rows) in 0.3 s for A and 1.2–1.5 s for B and B-not-A.
``finite_term_open`` is the one-∞ condition by its definition, one vector
at a time, for the census's one-∞ count and its delta gate.
"""

import numpy as np

from ilvseq import CONDITIONS

#: Rows judged at once: the verdicts widen the block to int16 and extend it,
#: so B over the whole v = 8 space at once peaks near 170 MB above its rows
#: (tracemalloc), and over one slice near 5 MB.
SLICE_ROWS = 1 << 16

_CANONICAL = {"a": "A", "b": "B", "b-not-a": "B-not-A", "open": "OPEN"}


def _holds(pred, rows):
    if pred == "B-not-A":
        return CONDITIONS["B"].holds_rows(rows) & ~CONDITIONS["A"].holds_rows(rows)
    return CONDITIONS[pred].holds_rows(rows)


def reference_hits(v, pred):
    """Every hit of ``pred`` in lexicographic order, as (rank + 1, entries).

    The rank counts the candidates before the hit, so rank + 1 is what a
    sweep stopped at that hit has examined. The space is the normalized one
    the search covers: its v^(v-1) candidates fix e_0 = 0.
    """
    pred = _CANONICAL[pred.lower()]
    free = v - 1
    rows = np.zeros((v**free, v), dtype=np.int8)
    rows[:, 1:] = np.indices((v,) * free, dtype=np.int8).reshape(free, -1).T
    hits = []
    for start in range(0, len(rows), SLICE_ROWS):
        part = rows[start : start + SLICE_ROWS]
        found = np.flatnonzero(_holds(pred, part))
        hits += zip((found + start + 1).tolist(), map(tuple, part[found].tolist()))
    return hits


def finite_term_open(entries, p):
    """The one-∞ definition, one vector at a time: with ∞ at column p, at
    every shift s the extended differences e_j - E(j+s) of the terms whose
    columns j and (j+s) mod v both differ from p are distinct mod v."""
    v = len(entries)
    for s in range(1, v):
        seen = set()
        for j in range(v):
            k = j + s
            if p in (j, k % v):
                continue
            later = entries[k] if k < v else entries[k - v] + 1
            d = (entries[j] - later) % v
            if d in seen:
                return False
            seen.add(d)
    return True
