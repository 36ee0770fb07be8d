"""Acceptance suite: one test per shipped claim, one printed verdict line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; each test also fails loudly through its assert when a claim does not
hold. The claims are checked at their stated tolerances (binary correlation
is exact integer arithmetic) and stated runtime ceilings.
"""

import itertools
import random
import time

import numpy as np

from ilvseq import (
    CONDITIONS,
    INFINITY,
    PeriodicSequence,
    SearchSpec,
    ShiftSequence,
    autocorrelation,
    backtrack,
    build_signal_set,
    check_condition_A,
    check_condition_B,
    column_correlations,
    cond2_sum_residue,
    cross_correlation,
    fast_cross_correlation,
    gen_legendre,
    gen_mseq,
    is_prime,
    is_two_level,
    quadratic_shifts,
    shift_equivalence,
    signal_set_delta,
    twisted_rotation,
    LfsrSpec,
    PRIMITIVE_POLYS,
)
from search_oracle import finite_term_open, reference_hits

A7 = PeriodicSequence(2, (1, 0, 0, 1, 1, 1, 0))
B7 = PeriodicSequence(2, (1, 0, 0, 1, 0, 1, 1))
E7 = ShiftSequence((0, 0, 1, 0, 6, 3, 5))


def verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    return ok


def test_criterion_01_worked_example_reproduction():
    started = time.perf_counter()
    ss = build_signal_set(A7, B7, E7)
    distinct = all(
        shift_equivalence(x, y) is None for x, y in itertools.combinations(ss.members, 2)
    )
    report = signal_set_delta(ss.members)
    elapsed = time.perf_counter() - started
    ok = (
        len(ss.members) == 8
        and all(m.period == 49 for m in ss.members)
        and distinct
        and report.delta == 17
        and isinstance(report.delta, int)
        and elapsed < 1.0
    )
    detail = (
        f"(49, 8, 17) set reproduced: {len(ss.members)} shift-distinct members, "
        f"delta={report.delta}, {elapsed:.3f}s"
    )
    assert verdict(1, ok, detail)


def test_criterion_02_condition_verdicts_on_worked_vector():
    rep_a = check_condition_A(E7)
    rep_b = check_condition_B(E7)
    s1 = rep_a.checks[0]
    ok = (
        not rep_a.verdict
        and rep_a.first_failure_s == 1
        and s1.profile.values == (0, 6, 1, 1, 3, 5)
        and s1.observed == 5
        and s1.required == 6
        and rep_b.verdict
        and max(c.observed for c in rep_b.checks) <= 2
    )
    detail = (
        f"distinctness fails at s=1 ({s1.observed} of {s1.required} distinct), "
        f"multiplicity passes every s"
    )
    assert verdict(2, ok, detail)


def test_criterion_03_column_identity_full_grid():
    started = time.perf_counter()
    ss = build_signal_set(A7, B7, E7)
    kernel = column_correlations(A7, B7, E7)
    direct = {}
    for h in range(7):
        for k in range(7):
            direct[h, k] = cross_correlation(ss.members[1 + h], ss.members[1 + k]).values
    count = 0
    exact = True
    for h in range(7):
        for k in range(7):
            for tau in range(49):
                lhs = kernel[1 + h, 1 + k, tau]
                if lhs != direct[h, k][tau]:
                    exact = False
                count += 1
    elapsed = time.perf_counter() - started
    ok = exact and count == 2401 and elapsed < 1.0
    detail = f"identity == direct on all {count} (h, k, tau) points, {elapsed:.3f}s"
    assert verdict(3, ok, detail)


def test_criterion_04_diagonal_phase_closed_form():
    ss = build_signal_set(A7, B7, E7)
    prof = autocorrelation(A7)
    seen = set()
    ok = True
    for h in range(7):
        for k in range(7):
            if h == k:
                continue
            for r in range(7):
                value = cross_correlation(ss.members[1 + h], ss.members[1 + k])[7 * r]
                seen.add(value)
                if value != -prof.values[r] or value not in (1, -7):
                    ok = False
    detail = f"phase-0 cross-correlations equal -C_a(r), values seen {sorted(seen)}"
    assert verdict(4, ok, detail)


def test_criterion_05_distinctness_implies_multiplicity():
    counterexamples = 0
    scanned = 0
    for v in (2, 3, 4, 5):
        rows = np.array([(0,) + tail for tail in itertools.product(range(v), repeat=v - 1)])
        scanned += len(rows)
        a, b = CONDITIONS["A"].holds_rows(rows), CONDITIONS["B"].holds_rows(rows)
        counterexamples += int((a & ~b).sum())
    strict = backtrack(SearchSpec(7, "B-not-A", limit=1, strategy="backtrack"))
    ok = counterexamples == 0 and len(strict.witnesses) >= 1
    detail = (
        f"0 counterexamples in {scanned} vectors (v in 2..5); strict witness at v=7: "
        f"{strict.witnesses[0] if strict.witnesses else 'none'}"
    )
    assert verdict(5, ok, detail)


def test_criterion_06_completeness_census():
    # The walk, as a "full" sweep and as a node count, against the test-side
    # enumeration of every candidate.
    started = time.perf_counter()
    counts = {}
    for v in range(3, 8):
        enumerated = reference_hits(v, "open")
        full = backtrack(SearchSpec(v, "open"))
        pruned = backtrack(SearchSpec(v, "open", strategy="backtrack"))
        counts[v] = (len(enumerated), full.examined, pruned.satisfying, full.satisfying)
    elapsed = time.perf_counter() - started
    # At v=2 the only shift is s=1. Its two differences are d = e0 - e1 and
    # e1 - e0 - 1 = d + 1 (mod 2), which always cover Z_2: every vector is
    # complete, so the normalized witnesses are the whole normalized space,
    # and their translates by 0 and 1 are all four vectors.
    every_v2 = list(itertools.product(range(2), repeat=2))
    assert all({(e0 - e1) % 2, (e1 - e0 - 1) % 2} == {0, 1} for e0, e1 in every_v2)
    expected_v2 = [(0, v0) for v0 in range(2)]
    two = backtrack(SearchSpec(2, "open", limit=4))
    witnesses_v2 = [w.entries for w in two.witnesses]
    translates_v2 = sorted(tuple((x + c) % 2 for x in w) for w in witnesses_v2 for c in range(2))
    none_above = all(c[0] == 0 and c[2] == 0 for c in counts.values())
    agree = all(c[0] == c[2] == c[3] for c in counts.values())
    space_v7 = counts[7][1] == 117_649
    all_v2 = (
        witnesses_v2 == expected_v2 == [e for _, e in reference_hits(2, "open")]
        and translates_v2 == every_v2
    )
    ok = none_above and agree and space_v7 and elapsed < 10.0 and all_v2
    detail = (
        f"zero satisfying vectors for v in 3..7 ({counts[7][1]} candidates at v=7, "
        f"{elapsed:.2f}s, both strategies agree with enumeration); v=2 witnesses {witnesses_v2}: "
        f"every normalized vector is complete, since d and d+1 cover Z_2"
    )
    assert verdict(6, ok, detail)


def test_criterion_07_sum_identity_randomized():
    rng = random.Random(0)
    trials = 0
    exceptions = 0
    for v in (3, 5, 7):
        for _ in range(1000):
            e = ShiftSequence(tuple(rng.randrange(v) for _ in range(v)))
            for s in range(1, v):
                trials += 1
                if cond2_sum_residue(e, s) != (-s) % v:
                    exceptions += 1
    ok = exceptions == 0
    detail = f"sum residue equals -s mod v on {trials} (vector, shift) trials"
    assert verdict(7, ok, detail)


def test_criterion_08_generator_quality():
    failures = []
    for n, poly in PRIMITIVE_POLYS.items():
        spec = LfsrSpec(n, tuple(int(c) for c in poly), (1,) + (0,) * (n - 1))
        if not is_two_level(gen_mseq(spec)):
            failures.append(f"register degree {n}")
    primes = [v for v in range(3, 104) if is_prime(v) and v % 4 == 3]
    for v in primes:
        for conv in (0, 1):
            if not is_two_level(gen_legendre(v, conv)):
                failures.append(f"legendre {v} conv {conv}")
    ok = not failures
    detail = (
        f"registers n=2..10 and quadratic-residue periods {primes[0]}..{primes[-1]} "
        f"all two-level ({len(primes)} primes, both conventions)"
    )
    assert verdict(8, ok, detail if ok else f"failures: {failures}")


def test_criterion_09_delta_bound_for_multiplicity_vectors():
    found = backtrack(SearchSpec(7, "B", limit=50, strategy="backtrack"))
    deltas = []
    for w in found.witnesses:
        ss = build_signal_set(A7, B7, w)
        deltas.append(signal_set_delta(ss.members).delta)
    ok = (
        len(set(found.witnesses)) == 50
        and all(d <= 17 for d in deltas)
    )
    detail = (
        f"50 distinct multiplicity-condition vectors: max delta {max(deltas)} <= 17 "
        f"(bound 2v+3)"
    )
    assert verdict(9, ok, detail)


def test_criterion_10_fast_path_equals_naive():
    rng = random.Random(0)
    compared = 0
    ok = True
    for v in (7, 31, 63, 127):
        for _ in range(100):
            a = PeriodicSequence(2, tuple(rng.randrange(2) for _ in range(v)))
            b = PeriodicSequence(2, tuple(rng.randrange(2) for _ in range(v)))
            if fast_cross_correlation(a, b).values != cross_correlation(a, b).values:
                ok = False
            compared += 1
    detail = f"fast path identical to direct summation on {compared} random pairs"
    assert verdict(10, ok, detail)


def test_criterion_11_rotation_closure_of_the_quadratic_family():
    # At prime v the quadratic vectors c*j^2 + l*j (c != 0) are v(v-1)
    # normalized A-vectors. Twisted rotation keeps delta (README), and
    # rotating them, each rotation translated back to e_0 = 0, gives
    # v^2(v-1) vectors, all B, on exactly v(v-1) of which A holds.
    rng = random.Random(11)
    ok = True
    counts = []
    for v in [p for p in range(11, 32) if is_prime(p)]:
        j = np.arange(v)
        family = np.array([(c * j * j + l * j) % v for c in range(1, v) for l in range(v)])
        # Row k*len(family) + f is rotation k of family[f]: entry j is
        # e_((j+k) mod v) + floor((j+k)/v), translated back to e_0 = 0.
        rotated = np.concatenate([family[:, (j + k) % v] + (j + k) // v for k in range(v)])
        rotated = (rotated - rotated[:, :1]) % v
        closure, where = np.unique(rotated, axis=0, return_inverse=True)
        where = where.reshape(-1)
        a_ok = CONDITIONS["A"].holds_rows(closure)
        b_ok = CONDITIONS["B"].holds_rows(closure)
        quadratics = {tuple(row) for row in family.tolist()}
        ok &= len(closure) == v * v * (v - 1) and bool(b_ok.all())
        ok &= {tuple(row) for row in closure[a_ok].tolist()} == quadratics
        # A seeded sample through the library: the rotation, and the reports' verdicts.
        for _ in range(8):
            f, k = rng.randrange(len(family)), rng.randrange(v)
            e = twisted_rotation(quadratic_shifts(v, 1 + f // v, f % v), k).entries
            n = k * len(family) + f
            ok &= tuple((x - e[0]) % v for x in e) == tuple(rotated[n].tolist())
            e = ShiftSequence(e)
            ok &= check_condition_A(e).verdict == a_ok[where[n]]
            ok &= check_condition_B(e).verdict == b_ok[where[n]]
        counts.append(f"{v}: {len(closure)}")
    detail = f"rotation closure of the quadratic family, all B, A on v(v-1): {', '.join(counts)}"
    assert verdict(11, ok, detail)


def test_criterion_12_two_or_more_infinity_columns_never_reach_v_plus_2():
    # With m >= 2 INFINITY columns (and at least one finite), the pair
    # (0, 1+k) at tau = v is -sum(beta) + (v+1)*G(k), beta = (-1)^b and G(k)
    # the sum of beta(p+k) over the INFINITY columns p; at the k maximizing
    # |G(k)| >= 2 it is at least 2v+1 in size (README has the proof).
    ok = True
    a3, b3 = PeriodicSequence(2, (1, 1, 0)), PeriodicSequence(2, (0, 1, 1))
    cases = [  # every v = 3 vector with two INFINITY columns
        (a3, b3, ShiftSequence(tuple(INFINITY if j in columns else x for j in range(3))))
        for columns in itertools.combinations(range(3), 2)
        for x in range(3)
    ]
    rng = random.Random(12)
    for v, a, b in [(7, A7, B7), (11, gen_legendre(11, 0), gen_legendre(11, 1))]:
        for _ in range(150):
            columns = rng.sample(range(v), rng.randint(2, v - 1))
            entries = tuple(INFINITY if j in columns else rng.randrange(v) for j in range(v))
            cases.append((a, b, ShiftSequence(entries)))
    minima = {}
    for a, b, e in cases:
        v = e.v
        beta = [1 - 2 * x for x in b.values]
        infinite = [p for p, x in enumerate(e.entries) if x == INFINITY]
        g = [sum(beta[(p + k) % v] for p in infinite) for k in range(v)]
        k = max(range(v), key=lambda k: abs(g[k]))
        predicted = -sum(beta) + (v + 1) * g[k]
        sets = build_signal_set(a, b, e).members
        delta = signal_set_delta(sets).delta
        ok &= cross_correlation(sets[0], sets[1 + k])[v] == predicted
        ok &= abs(predicted) >= 2 * v + 1 and delta >= abs(predicted)
        key = (v, len(infinite))
        minima[key] = min(minima.get(key, delta), delta)
    ok &= len(cases) == 9 + 150 + 150
    ok &= minima[3, 2] == 7
    detail = "delta >= 2v+1 on 9 (v=3) + 150 (v=7) + 150 (v=11) vectors, min per (v, m): " + ", ".join(
        f"{v},{m}: {d}" for (v, m), d in sorted(minima.items())
    )
    assert verdict(12, ok, detail)


def test_criterion_13_one_infinity_hits_reach_v_plus_2():
    # The census's one-∞ count counts the vectors with one ∞ column whose
    # finite terms are OPEN (``finite_term_open``); each must give delta
    # v + 2. At v = 3 that is every one-∞ vector, 27 at all three
    # positions; at v = 7 it is the 140 with ∞ last and e_0 = 0 that the
    # census counts.
    a3, b3 = PeriodicSequence(2, (1, 1, 0)), PeriodicSequence(2, (0, 1, 1))
    hits3 = [
        finite[:p] + (INFINITY,) + finite[p:]
        for p in range(3) for finite in itertools.product(range(3), repeat=2)
        if finite_term_open(finite[:p] + (None,) + finite[p:], p)
    ]
    hits7 = [
        (0, *tail, INFINITY) for tail in itertools.product(range(7), repeat=5)
        if finite_term_open((0, *tail, None), 6)
    ]
    deltas = {}
    for a, b, entries in [(a3, b3, e) for e in hits3] + [(A7, B7, e) for e in hits7]:
        e = ShiftSequence(entries)
        deltas.setdefault(e.v, set()).add(signal_set_delta(build_signal_set(a, b, e).members).delta)
    ok = (len(hits3), len(hits7)) == (27, 140) and deltas == {3: {5}, 7: {9}}
    detail = f"one-∞ hits: {len(hits3)} at v=3, {len(hits7)} at v=7; deltas {deltas}"
    assert verdict(13, ok, detail)


def test_criterion_14_one_infinity_reaches_v_plus_2_exactly_on_open_finite_terms():
    # ROADMAP item 2's rule, both halves, through the library: with one ∞
    # column, delta = v + 2 exactly when the finite terms are OPEN
    # (``finite_term_open``). At v = 3 every vector with one ∞ (a = 110,
    # b = 011); at v = 7 all 16,807 vectors with e_0 = 0 and ∞ last, on the
    # worked bases. Every other vector gives more.
    started = time.perf_counter()
    a3, b3 = PeriodicSequence(2, (1, 1, 0)), PeriodicSequence(2, (0, 1, 1))
    cases = [
        (a3, b3, finite[:p] + (INFINITY,) + finite[p:], p)
        for p in range(3) for finite in itertools.product(range(3), repeat=2)
    ]
    cases += [(A7, B7, (0, *tail, INFINITY), 6) for tail in itertools.product(range(7), repeat=5)]
    ok = len(cases) == 27 + 16807
    hits, others = {}, {}
    for a, b, entries, p in cases:
        v = len(entries)
        delta = signal_set_delta(build_signal_set(a, b, ShiftSequence(entries)).members).delta
        open_terms = finite_term_open(entries[:p] + (None,) + entries[p + 1 :], p)
        ok &= (delta == v + 2) == open_terms
        if open_terms:
            hits[v] = hits.get(v, 0) + 1
        else:
            others[v] = min(others.get(v, delta), delta)
    ok &= hits == {3: 27, 7: 140} and others == {7: 17}
    detail = (
        f"delta = v+2 exactly on the open one-∞ vectors: {hits.get(3, 0)} of 27 at v=3, "
        f"{hits.get(7, 0)} of 16807 at v=7, least other delta {others} ({time.perf_counter() - started:.2f}s)"
    )
    assert verdict(14, ok, detail)
