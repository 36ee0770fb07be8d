"""The worked-example verification suite behind the ``reproduce`` command.

Re-derives every headline number of the library's worked example from
scratch: the (49, 8, 17) signal set, the condition verdicts on its shift
vector, the per-column correlation identity against direct correlation, the
diagonal-phase closed form, the magnitude bound, the delta bound for
multiplicity-condition vectors, the implication between the two conditions,
the completeness-condition census, and the telescoping sum identity.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .conditions import (
    CONDITIONS,
    check_condition_A,
    check_condition_B,
    cond2_sum_residue,
    differences,
)
from .correlation import autocorrelation, cross_correlation, is_two_level, signal_set_delta
from .interleaving import (
    ShiftSequence,
    build_signal_set,
    column_correlations,
    extended_entry,
)
from .search import NonexistenceEntry, SearchSpec, backtrack, verify_open_nonexistence
from .sequences import PeriodicSequence, shift_equivalence

#: The library's worked example: two period-7 two-level sequences and the
#: shift vector that fails distinctness but passes multiplicity.
EXAMPLE_A = PeriodicSequence(2, (1, 0, 0, 1, 1, 1, 0))
EXAMPLE_B = PeriodicSequence(2, (1, 0, 0, 1, 0, 1, 1))
EXAMPLE_E = ShiftSequence((0, 0, 1, 0, 6, 3, 5))

#: The complete normalized vectors at v=2: the only shift s=1 has the two
#: differences d = e0 - e1 and e1 - e0 - 1 = d + 1 (mod 2), which always
#: cover Z_2, so every vector with e0 = 0 is complete.
V2_COMPLETE = tuple((0, v0) for v0 in range(2))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every reproduction check on the worked example."""
    a, b, e = EXAMPLE_A, EXAMPLE_B, EXAMPLE_E
    v = a.period
    results: list[CheckResult] = []

    def record(name: str, passed: bool, detail: str) -> None:
        results.append(CheckResult(name, bool(passed), detail))

    record(
        "bases are two-level",
        is_two_level(a) and is_two_level(b),
        f"a={a} b={b}",
    )

    record(
        "extension rule",
        extended_entry(e, v) == (e.entries[0] + 1) % v,
        f"ext(e)_{v} = {extended_entry(e, v)}",
    )

    ss = build_signal_set(a, b, e)
    pairs = itertools.combinations(ss.members, 2)
    distinct = all(shift_equivalence(x, y) is None for x, y in pairs)
    rep = signal_set_delta(ss.members)
    record(
        "signal set is (49, 8, 17)",
        ss.members[0].period == 49 and len(ss.members) == 8 and distinct and rep.delta == 17,
        f"period={ss.members[0].period} members={len(ss.members)} delta={rep.delta}",
    )

    ra = check_condition_A(e)
    sets_ok = ra.first_failure_s == 1 and ra.checks[0].profile.values == (0, 6, 1, 1, 3, 5)
    record(
        "distinctness fails at s=1 with 5 distinct differences",
        (not ra.verdict) and sets_ok and ra.checks[0].observed == 5,
        f"s=1 differences {list(ra.checks[0].profile.values)} distinct {ra.checks[0].observed}",
    )

    rb = check_condition_B(e)
    record(
        "multiplicity condition passes",
        rb.verdict and max(c.observed for c in rb.checks) <= 2,
        f"max multiplicity {max(c.observed for c in rb.checks)}",
    )

    profile_a = autocorrelation(a)
    direct = np.array([[cross_correlation(x, y).values for y in ss.members] for x in ss.members])
    record(
        "column identity matches direct correlation",
        np.array_equal(column_correlations(a, b, e), direct),
        f"{direct.size} comparisons",
    )

    # The offset members' correlations at tau = r*v + s, as [h, k, r, s].
    phases = direct[1:, 1:].reshape(v, v, v, v)
    h, k, r, s = np.indices(phases.shape)
    diagonal = (h != k) & (s == 0)
    seen = sorted(set(phases[diagonal].tolist()))
    record(
        "diagonal-phase values equal -C_a(r)",
        (phases[diagonal] == -np.array(profile_a.values)[r[diagonal]]).all() and seen == [-v, 1],
        f"values seen {seen}",
    )

    # n0[s, r] columns have a vanishing shift E(j+s) - e_j + r: the
    # multiplicity of r among the extended differences at s. At s = 0 the
    # grid holds -C_a(0) = -v off the diagonal, outside the bound: s >= 1.
    n0 = np.zeros((v, v), np.int64)
    n0[1:] = [np.bincount(differences(e, t, True).values, minlength=v) for t in range(1, v)]
    off_diagonal = (s >= 1) & ((h - k) % v != s)
    bound_ok = not (np.abs(phases) > 1 + (v + 1) * n0[s, r])[off_diagonal].any()
    record("magnitude bound holds off the diagonal phases", bound_ok, "all (h,k,s,r)")

    hits = backtrack(SearchSpec(v, "B", limit=10, strategy="backtrack"))
    deltas = []
    for w in hits.witnesses:
        deltas.append(signal_set_delta(build_signal_set(a, b, w).members).delta)
    record(
        "delta bound 2v+3 for multiplicity-condition vectors",
        bool(deltas) and all(d <= 2 * v + 3 for d in deltas),
        f"deltas {sorted(set(deltas))} vs bound {2 * v + 3}",
    )

    implication_ok = True
    for vv in (2, 3, 4, 5):
        rows = np.array([(0, *tail) for tail in itertools.product(range(vv), repeat=vv - 1)])
        if (CONDITIONS["A"].holds_rows(rows) & ~CONDITIONS["B"].holds_rows(rows)).any():
            implication_ok = False
    record("distinctness implies multiplicity (v <= 5)", implication_ok, "exhaustive")

    table = verify_open_nonexistence(7)
    record(
        "completeness: every vector works at v=2 (d and d+1 cover Z_2), "
        "none exist for v in 3..7",
        census_confirmed(table),
        f"v=2 witnesses {[w.entries for w in table[2].witnesses]}; "
        f"counts v>2 {[table[x].exists for x in range(3, 8)]}",
    )

    rng = random.Random(seed)
    sum_ok = True
    for vv in (3, 5, 7):
        for _ in range(50):
            cand = ShiftSequence(tuple(rng.randrange(vv) for _ in range(vv)))
            for s in range(1, vv):
                if cond2_sum_residue(cand, s) != (-s) % vv:
                    sum_ok = False
    for s in range(1, v):
        if cond2_sum_residue(e, s) != (-s) % v:
            sum_ok = False
    record("difference sums telescope to -s mod v", sum_ok, "150 random vectors + example")

    return results


def census_confirmed(table: dict[int, NonexistenceEntry]) -> bool:
    """Census verdict: v=2 gives exactly ``V2_COMPLETE``; no v > 2 has a complete vector."""
    return all(
        (not ent.exists) if v > 2 else tuple(w.entries for w in ent.witnesses) == V2_COMPLETE
        for v, ent in table.items()
    )


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
