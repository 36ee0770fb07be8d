"""
Exact periodic correlation and signal-set delta
===============================================

Shows the two correlation paths (direct summation and the delta engine's
rows, here the circulant matmul), their exact agreement on binary inputs, and the delta sweep that
grades a whole family of sequences at once.
"""

from ilvseq import (
    PeriodicSequence,
    cross_correlation,
    fast_cross_correlation,
    left_shift,
    signal_set_delta,
)

# Two period-7 two-level sequences; binary correlation values are exact
# integers (agreements minus disagreements), never floats.
a = PeriodicSequence(2, (1, 0, 0, 1, 1, 1, 0))
b = PeriodicSequence(2, (1, 0, 0, 1, 0, 1, 1))

direct = cross_correlation(a, b)
print("direct profile: ", direct.values)

# The fast path reads the delta engine's rows: at this period one float32
# circulant matmul, past period 128 a transform rounded back to integers.
# Either way it is bit-identical to the direct path.
fast = fast_cross_correlation(a, b)
print("fast path:      ", fast.values)
print("identical:", fast.values == direct.values)

# Correlation profiles index cyclically, like the sequences themselves.
print("C(0) =", direct[0], " C(7) = C(0):", direct[7] == direct[0])

# The delta of a set is the largest correlation magnitude over all ordered
# member pairs and offsets, skipping only each member's trivial peak at
# offset 0. Witnesses list every (i, j, tau) where the maximum is attained.
members = [a, b, left_shift(a, 3)]
report = signal_set_delta(members)
print(f"delta of the 3-member set: {report.delta}")
for w in report.witnesses:
    print(f"  attained at members ({w.i}, {w.j}) offset {w.tau}: value {w.value}")

# Members 0 and 2 are shifts of each other, so their cross-correlation peaks
# at the full period 7; that pair is what pins delta here.
