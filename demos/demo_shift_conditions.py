"""
Difference conditions on shift vectors
======================================

Three graded questions about a length-v shift vector, all phrased on the
differences of its entries: are they pairwise distinct (distinctness), does
no value repeat more than twice (multiplicity), do they cover all of Z_v
(completeness)? The first two give delta <= 2v + 3 (2v + 1 is reached at
v = 3 only), and the third turns out to be impossible past v = 2.
"""

from ilvseq import (
    ShiftSequence,
    check_condition_A,
    check_condition_B,
    check_condition_open,
    cond2_sum_residue,
    differences,
)

e = ShiftSequence((0, 0, 1, 0, 6, 3, 5))

# Distinctness fails for this vector, and the diagnostics say exactly where:
# at shift s = 1 the six unextended differences contain the value 1 twice.
rep_a = check_condition_A(e)
print(f"distinctness verdict: {rep_a.verdict} (first failure at s={rep_a.first_failure_s})")
s1 = rep_a.checks[0]
print(f"  s=1 differences {s1.profile.values}: {s1.observed} distinct of {s1.required}")

# Multiplicity tolerates doubles and passes; every shift's worst count is 2.
rep_b = check_condition_B(e)
print(f"multiplicity verdict: {rep_b.verdict}",
      f"(max count {max(c.observed for c in rep_b.checks)})")

# The extended differences wrap the vector with a +1 twist: index v + j
# reads entry j plus one. That twist is what the construction's correlation
# identity needs, and it shows up as the final difference at each shift.
print("extended differences at s=1:", differences(e, 1, True).values)

# Completeness asks the v combined differences to be a full residue system.
# This vector misses it (6 distinct of 7 at s=1), and no length-7 vector
# can do better: summing the differences telescopes to -s mod v no matter
# what the entries are, while a complete system must sum to 0 mod 7.
rep_o = check_condition_open(e)
print(f"completeness verdict: {rep_o.verdict}")
for s in (1, 2, 3):
    print(f"  sum of differences at s={s}: {cond2_sum_residue(e, s)} (must be {(-s) % 7})")

# At v = 2 the two requirements coincide (-1 = 1 mod 2), which is why small
# witnesses exist there and nowhere above.
for entries in ((0, 0), (0, 1)):
    verdict = check_condition_open(ShiftSequence(entries)).verdict
    print(f"v=2 vector {entries}: completeness {verdict}")
