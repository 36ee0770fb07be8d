"""
Building a (49, 8, 17) signal set by interleaving
=================================================

The flagship construction: interleave a period-7 two-level sequence under a
shift vector, add shifted copies of a second two-level sequence, and get 8
pairwise shift-distinct period-49 sequences whose worst correlation is 17,
the 2v + 3 bound implied by the multiplicity condition.
"""

from ilvseq import (
    PeriodicSequence,
    ShiftSequence,
    build_signal_set,
    column_correlations,
    cross_correlation,
    differences,
    matrix_form,
    recover_shifts,
    signal_set_delta,
)

a = PeriodicSequence(2, (1, 0, 0, 1, 1, 1, 0))
b = PeriodicSequence(2, (1, 0, 0, 1, 0, 1, 1))
e = ShiftSequence((0, 0, 1, 0, 6, 3, 5))

# Construct the set: member 0 is the interleaving of a under e; member 1+j
# adds the j-step shift of b on top.
ss = build_signal_set(a, b, e)
print(f"{len(ss.members)} members of period {ss.period}")

# The 7 x 7 matrix form of member 0 has column j equal to a shifted by e_j.
# Reading the shifts back recovers e exactly.
mat = matrix_form(ss.members[0], 7, 7)
print("first row of the array:", tuple(int(x) for x in mat[0]))
print("recovered shift vector:", recover_shifts(ss.members[0], a, 7))

# The headline number: a full sweep over all ordered pairs and offsets.
report = signal_set_delta(ss.members)
print(f"delta = {report.delta}, attained at {len(report.witnesses)} points")

# Correlations between members decompose column by column: the value at
# offset tau = 7r + s is a sum of base autocorrelation values with signs set
# by b. The identity path and the direct path agree exactly.
kernel = column_correlations(a, b, e)
m, n, tau = 1, 2, 8
via_identity = kernel[m, n, tau]
via_direct = cross_correlation(ss.members[m], ss.members[n])[tau]
print(f"members ({m}, {n}) at offset {tau}: identity {via_identity}, direct {via_direct}")

# Why 17 and not more: at tau = 7r + s with s != 0, the correlation
# magnitude is at most 1 + (v + 1) * n0, where n0 counts the columns whose
# base-shift difference E(j+s) - e_j + r lands on zero: the multiplicity of
# r among the extended differences at s. For this e the count is 2 at worst.
worst = max(c for s in range(1, 7) for _, c in differences(e, s, True).multiplicity)
print(f"worst-case zero count over all (s, r): {worst}",
      f"=> bound {1 + 8 * worst}")

# The example's delta sits at the bound attained with n0 = 2: 1 + 8 * 2 = 17.
