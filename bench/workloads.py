"""The benchmark's three seeded workloads: construct, census and worked.

Each workload turns a seed into a list of tasks. A task runs one unit of work
through ilvseq's public API and has a check that verifies its output after
the pass, outside the timed spans. Library functions are looked up on the
``ilvseq`` package (or the ``cli`` module) at call time, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from typing import Callable

import ilvseq
from ilvseq import cli
from ilvseq.reproduce import EXAMPLE_A, EXAMPLE_B, EXAMPLE_E


@dataclass(frozen=True)
class Task:
    """One timed unit of work. ``kind`` groups tasks for per-kind timings.

    ``run`` receives the outputs of the pass's earlier tasks, by name.
    ``count``, when set, derives exact computed counts from the output.
    """

    name: str
    kind: str
    run: Callable[[dict], object]
    check: Callable[[object], bool]
    count: Callable[[object], dict] | None = None


@dataclass(frozen=True)
class Workload:
    seeded: str
    setup: Callable[[int], list[Task]]
    warm: Callable[[], None]


# ---------------------------------------------------------------- construct

CONSTRUCT_MSEQ_DEGREE = 5  # m-sequence period v = 31
CONSTRUCT_LEGENDRE_V = 59  # prime, 59 = 3 (mod 4), so the Legendre sequence is two-level
# The number of delta witnesses, and with it the work and the memory of a
# set, depends on c alone: at v=31 it is 35,840 / 38,080 / 34,048 / 36,288
# for c = 1 / 2 / 3 / 5, at v=59 445,200 to 519,120 for c in 1..4, whatever
# l, the LFSR start state, the order of a and b or the zero conventions. So c
# is fixed per set, and the seed moves the rest: every seed asks for the same
# work on different inputs.
CONSTRUCT_MSEQ_C = (1, 2, 3, 5)  # one v=31 set per c, an m-sequence and its reversal
CONSTRUCT_LEGENDRE_C = 1
CONSTRUCT_ORACLE_PAIRS = 8  # ordered pairs per set re-derived with cross_correlation


def quadratic_shifts(v: int, c: int, l: int):
    """e_j = c*j^2 + l*j mod v; satisfies condition A for odd prime v and c != 0."""
    return ilvseq.ShiftSequence(tuple((c * j * j + l * j) % v for j in range(v)))


def _build_delta(a, b, e, outputs):
    ss = ilvseq.build_signal_set(a, b, e)
    return ss, ilvseq.signal_set_delta(ss.members, method="fast")


def _bits(seq) -> int:
    """The sequence as an integer whose bit k is the entry at index k."""
    return int("".join(str(x) for x in reversed(seq.values)), 2)


def _check_construct(e, pair_seed, output) -> bool:
    ss, rep = output
    v = e.v
    n = v * v
    if not ilvseq.check_condition_A(e).verdict:
        return False
    if rep.period != n or rep.member_count != v + 1 or not rep.delta <= 2 * v + 3:
        return False
    if not rep.witnesses or any(abs(w.value) != rep.delta for w in rep.witnesses):
        return False
    # Every witness value against the definition of binary correlation:
    # agreements minus disagreements of member i and member j shifted by tau.
    mask = (1 << n) - 1
    ints = [_bits(m) for m in ss.members]
    doubled = [x | (x << n) for x in ints]
    for w in rep.witnesses:
        shifted = (doubled[w.j] >> w.tau) & mask
        if n - 2 * (ints[w.i] ^ shifted).bit_count() != w.value:
            return False
    # A seeded sample of ordered pairs against the library's direct oracle:
    # its maximum stays within delta and its maximizers are exactly the
    # witnesses reported for that pair.
    by_pair = {ij: [(w.tau, w.value) for w in ws] for ij, ws in
               groupby(rep.witnesses, key=lambda w: (w.i, w.j))}
    rng = random.Random(pair_seed)
    r = rep.member_count
    for _ in range(CONSTRUCT_ORACLE_PAIRS):
        i, j = rng.randrange(r), rng.randrange(r)
        profile = ilvseq.cross_correlation(ss.members[i], ss.members[j])
        admissible = [(t, c) for t, c in enumerate(profile.values) if i != j or t != 0]
        if max(abs(c) for _, c in admissible) > rep.delta:
            return False
        if [(t, c) for t, c in admissible if abs(c) == rep.delta] != by_pair.get((i, j), []):
            return False
    return True


def construct_tasks(seed: int) -> list[Task]:
    rng = random.Random(seed)
    degree = CONSTRUCT_MSEQ_DEGREE
    poly = tuple(int(bit) for bit in ilvseq.PRIMITIVE_POLYS[degree])
    sets = []
    for k, c in enumerate(CONSTRUCT_MSEQ_C):
        word = rng.randrange(1, 1 << degree)  # any nonzero start state
        state = tuple((word >> i) & 1 for i in range(degree))
        mseq = ilvseq.gen_mseq(ilvseq.LfsrSpec(degree, poly, state))
        rev = ilvseq.PeriodicSequence(2, mseq.values[::-1])
        sets.append((mseq, rev, c) if k % 2 == 0 else (rev, mseq, c))
    zero = rng.randrange(2)
    legendre = (
        ilvseq.gen_legendre(CONSTRUCT_LEGENDRE_V, zero),
        ilvseq.gen_legendre(CONSTRUCT_LEGENDRE_V, 1 - zero),
        CONSTRUCT_LEGENDRE_C,
    )
    # The large set sits in the middle, so the v=31 sets that set
    # task_p50_ms are timed both before and after it.
    sets.insert(len(sets) // 2, legendre)
    tasks = []
    for k, (a, b, c) in enumerate(sets):
        v = a.period
        e = quadratic_shifts(v, c, rng.randrange(v))
        tasks.append(
            Task(
                f"set {k} v={v}",
                f"build+fast delta v={v}",
                partial(_build_delta, a, b, e),
                partial(_check_construct, e, rng.randrange(1 << 32)),
            )
        )
    return tasks


def construct_warm() -> None:
    ss = ilvseq.build_signal_set(EXAMPLE_A, EXAMPLE_B, EXAMPLE_E)
    ilvseq.signal_set_delta(ss.members, method="fast")


# ------------------------------------------------------------------- census

CENSUS_V = 8
CENSUS_COUNTS = {"A": 1600, "B": 275328, "B-not-A": 273728}
CENSUS_OPEN_WITNESSES_V2 = [(0, 0), (0, 1)]
CERTIFY_TASKS = 96  # certify tasks per witness kind
CERTIFY_BATCH = 64  # witnesses re-checked by one certify task (about 14 ms)
CERTIFY_DRAWS = 6000  # random draws for B-not-A witnesses (about 13% hit at v=8)


def _check_open_census(table) -> bool:
    if sorted(table) != list(range(2, CENSUS_V + 1)):
        return False
    for v, entry in table.items():
        if entry.examined != v ** (v - 1) or not entry.exhaustive:
            return False
    two = table[2]
    return (
        two.exists
        and [w.entries for w in two.witnesses] == CENSUS_OPEN_WITNESSES_V2
        and not any(table[v].exists for v in range(3, CENSUS_V + 1))
    )


def _backtrack(pred, limit, outputs):
    return ilvseq.backtrack(ilvseq.SearchSpec(CENSUS_V, pred, limit=limit, strategy="backtrack"))


def _check_count(pred, outcome) -> bool:
    want = CENSUS_COUNTS[pred]
    if outcome.satisfying != want or not outcome.exhaustive:
        return False
    return len(outcome.witnesses) in (0, want)


def _verdicts(e):
    return (
        ilvseq.check_condition_A(e).verdict,
        ilvseq.check_condition_B(e).verdict,
        ilvseq.check_condition_open(e).verdict,
    )


def _certify(vectors, outputs):
    return [_verdicts(e) for e in vectors]


def _certify_a(indices, outputs):
    witnesses = outputs["backtrack A v=8"].witnesses
    return _certify([witnesses[i] for i in indices], outputs)


def _check_certify(expected, verdicts) -> bool:
    return len(verdicts) == CERTIFY_BATCH and all(v == expected for v in verdicts)


def census_tasks(seed: int) -> list[Task]:
    rng = random.Random(seed)
    size = CERTIFY_TASKS * CERTIFY_BATCH
    a_indices = rng.choices(range(CENSUS_COUNTS["A"]), k=size)
    drawn = ilvseq.sample_random(
        CENSUS_V, "B-not-A", CERTIFY_DRAWS, seed=rng.randrange(1 << 32), limit=CERTIFY_DRAWS
    )
    b_not_a = rng.choices(drawn.witnesses, k=size)
    # Witnesses of A also pass B (distinctness implies multiplicity); no
    # vector of length v > 2 is complete.
    certify = []
    for k in range(CERTIFY_TASKS):
        batch = slice(k * CERTIFY_BATCH, (k + 1) * CERTIFY_BATCH)
        certify.append(
            Task(f"certify A #{k}", "certify A", partial(_certify_a, a_indices[batch]),
                 partial(_check_certify, (True, True, False)))
        )
        certify.append(
            Task(f"certify B-not-A #{k}", "certify B-not-A", partial(_certify, b_not_a[batch]),
                 partial(_check_certify, (False, True, False)))
        )
    searches = [
        Task(
            "open census v<=8",
            "open census v<=8",
            lambda outputs: ilvseq.verify_open_nonexistence(CENSUS_V),
            _check_open_census,
        )
    ]
    for pred in ("B", "B-not-A"):
        searches.append(
            Task(f"backtrack {pred} v=8", f"backtrack {pred} v=8",
                 partial(_backtrack, pred, 0), partial(_check_count, pred))
        )
    # Certify groups run between the long searches, so task_p50_ms and
    # task_p90_ms sample the whole pass rather than one moment of it.
    tasks = [
        Task("backtrack A v=8", "backtrack A v=8",
             partial(_backtrack, "A", CENSUS_COUNTS["A"] + 1), partial(_check_count, "A"))
    ]
    group = len(certify) // (len(searches) + 1)
    for k, search in enumerate(searches):
        tasks += certify[k * group:(k + 1) * group]
        tasks.append(search)
    tasks += certify[len(searches) * group:]
    return tasks


def census_warm() -> None:
    ilvseq.verify_open_nonexistence(4)
    ilvseq.backtrack(ilvseq.SearchSpec(5, "B", strategy="backtrack"))
    _verdicts(EXAMPLE_E)


# ------------------------------------------------------------------- worked

WORKED_V = 7
WORKED_A_COUNT = 672  # normalized A-vectors at v=7
WORKED_DELTA = 17  # 2v+3 at v=7
WORKED_CHECKS = 12
WORKED_B_NOT_A = 128  # seeded B-not-A sample size
WORKED_DRAWS = 2000  # random draws at v=7 (about 20% are B-not-A)
# Sets per task. A single set takes about 15 ms, short enough that host
# noise at the millisecond scale dominated its p90; four sets per task
# average it out and still give 201 tasks, so p90 has 20 samples beyond it.
WORKED_BATCH = 4


def _reproduce(outputs):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["reproduce", "--json"])
    return code, out.getvalue()


def _check_reproduce(output) -> bool:
    code, text = output
    results = json.loads(text)["results"]
    checks = results["checks"]
    return (
        code == 0
        and results["all_passed"] is True
        and len(checks) == WORKED_CHECKS
        and all(c["passed"] for c in checks)
    )


def _worked_sets(vectors, outputs):
    reports = []
    for e in vectors:
        ss = ilvseq.build_signal_set(EXAMPLE_A, EXAMPLE_B, e)
        reports.append(
            (ilvseq.signal_set_delta(ss.members), ilvseq.signal_set_delta(ss.members, method="fast"))
        )
    return reports


def _check_worked(exact, output) -> bool:
    v = WORKED_V
    for direct, fast in output:
        if direct != fast or direct.member_count != v + 1 or direct.period != v * v:
            return False
        if not (direct.delta == WORKED_DELTA if exact else direct.delta <= 2 * v + 3):
            return False
    return len(output) == WORKED_BATCH


def worked_tasks(seed: int) -> list[Task]:
    rng = random.Random(seed)
    a_vectors = ilvseq.backtrack(
        ilvseq.SearchSpec(WORKED_V, "A", limit=WORKED_A_COUNT + 1, strategy="backtrack")
    ).witnesses
    if len(a_vectors) != WORKED_A_COUNT:
        raise RuntimeError(f"expected {WORKED_A_COUNT} A-vectors at v=7, got {len(a_vectors)}")
    drawn = ilvseq.sample_random(
        WORKED_V, "B-not-A", WORKED_DRAWS, seed=rng.randrange(1 << 32), limit=WORKED_DRAWS
    )
    b_not_a = rng.sample(list(drawn.witnesses), WORKED_B_NOT_A)
    tasks = [
        Task("reproduce --json", "cli reproduce --json", _reproduce, _check_reproduce,
             count=lambda output: {"cli.json_bytes": len(output[1].encode())})
    ]
    for kind, vectors, exact in (("sets A", a_vectors, True), ("sets B-not-A", b_not_a, False)):
        for k in range(0, len(vectors), WORKED_BATCH):
            tasks.append(
                Task(f"{kind} #{k // WORKED_BATCH}", kind,
                     partial(_worked_sets, vectors[k:k + WORKED_BATCH]),
                     partial(_check_worked, exact))
            )
    return tasks


def worked_warm() -> None:
    _worked_sets([EXAMPLE_E], {})


WORKLOADS = {
    "construct": Workload(
        "l per set, LFSR start states, which Legendre sequence is a; c is fixed per set "
        "because it alone sets the witness count, so every seed asks for the same work",
        construct_tasks,
        construct_warm,
    ),
    "census": Workload(
        "the certify sample only; the open census and the v=8 backtracks are "
        "exhaustive and do not depend on the seed",
        census_tasks,
        census_warm,
    ),
    "worked": Workload(
        "the B-not-A sample only; reproduce and the 672 A-vectors do not depend on the seed",
        worked_tasks,
        worked_warm,
    ),
}

#: Which end-to-end metric each per-layer metric is expected to move, and on
#: which workload.
MOVES = {
    "sequences.gen.self_s": "setup_s on every workload",
    "sequences.add_pointwise": "wall_s on construct; task_p50_ms on worked",
    "sequences.shift_equivalence": "wall_s on construct; task_p50_ms on worked",
    "interleaving.build.self_s": "wall_s on construct; task_p50_ms on worked",
    "interleaving.interleave.self_s": "wall_s on construct; task_p50_ms on worked",
    "interleaving.coincident.pairs": "wall_s on construct; task_p50_ms on worked",
    "interleaving.lemma": "wall_s on worked",
    "correlation.delta": "wall_s on construct; task_p50_ms and task_p90_ms on worked",
    "correlation.pairs": "wall_s on construct; task_p50_ms and task_p90_ms on worked",
    "correlation.offsets": "wall_s on construct; task_p50_ms and task_p90_ms on worked",
    "correlation.fast": "wall_s and peak_rss_mb on construct",
    "correlation.transforms": "wall_s and peak_rss_mb on construct",
    "correlation.transform_points": "wall_s and peak_rss_mb on construct",
    "correlation.direct": "wall_s on worked",
    "correlation.two_level.self_s": "wall_s on worked",
    "conditions.check": "wall_s, task_p50_ms and task_p90_ms on census (certify tasks)",
    "search": "wall_s on census",
    "reproduce": "wall_s on worked",
    "cli": "wall_s on worked",
}
