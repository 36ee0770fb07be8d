"""
Searching the shift-vector space
================================

Every condition here is invariant under adding a constant to all entries,
so searches fix entry 0 to zero and sweep the remaining v^(v-1) candidates.
One difference-aware backtracking walk covers that space in lexicographic
order, refusing to descend into prefixes that already violate the condition.
Its default "full" strategy counts the candidates it covers; "backtrack"
counts the nodes it visits.
"""

from ilvseq import (
    SearchSpec,
    backtrack,
    sample_random,
    verify_open_nonexistence,
)

# Census the distinctness condition at v = 5: 625 normalized candidates.
full = backtrack(SearchSpec(5, "A"))
print(f"v=5 distinctness: {full.satisfying} of {full.examined} candidates")

# Counted as a walk, the same sweep touches far fewer nodes.
pruned = backtrack(SearchSpec(5, "A", strategy="backtrack"))
print(f"the walk finds the same {pruned.satisfying} visiting {pruned.examined} nodes")

# Vectors passing multiplicity but not distinctness exist; the first one at
# v = 7 in lexicographic order:
strict = backtrack(SearchSpec(7, "B-not-A", limit=3, strategy="backtrack"))
print("multiplicity-but-not-distinctness witnesses:",
      [str(w) for w in strict.witnesses])

# The completeness census: witnesses exist at v = 2 and then never again.
# Each row covers all v^(v-1) normalized candidates with one backtracking
# walk; ``nodes`` is how many nodes that walk visited.
table = verify_open_nonexistence(7)
for v, entry in sorted(table.items()):
    mark = [str(w) for w in entry.witnesses] if entry.exists else "none"
    print(f"  v={v}: {entry.examined:>7} candidates in {entry.nodes:>5} nodes, witnesses {mark}")

# Past v = 8 exhaustive sweeps are refused (the space grows as v^(v-1));
# seeded random sampling is the supported fallback there.
sample = sample_random(10, "B", 2000, seed=1, limit=2)
print(f"v=10 sampling: {sample.satisfying} of {sample.examined} draws pass multiplicity")
for w in sample.witnesses:
    print("  example:", w)
