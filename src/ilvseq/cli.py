"""Command-line interface: generation, correlation, construction, conditions, search.

Every command writes one machine-readable JSON report (schema "1") to
standard output; human-readable tables go to standard error under --pretty,
which may come before or after the command. Each command returns its inputs,
results, table lines and exit code; ``main`` alone times, emits and exits.
Exit codes: 0 success, 1 verdict/reproduction failure, 2 input error
(input too large for memory included) or a report that cannot be encoded
or written, 3 exhaustive-search budget refusal.
A reader that closes standard output early (``| head``) cuts the report
short but leaves the command's exit code, with no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import reproduce as _reproduce
from .conditions import (
    ConditionReport,
    check_condition_A,
    check_condition_B,
    check_condition_open,
)
from .correlation import (
    CorrelationProfile,
    DeltaReport,
    cross_correlation,
    fast_cross_correlation,
    is_two_level,
    signal_set_delta,
)
from .interleaving import build_signal_set, parse_shift_sequence
from .search import (
    BudgetExceededError,
    SearchOutcome,
    SearchSpec,
    backtrack,
    sample_random,
    verify_open_nonexistence,
)
from .sequences import (
    LfsrSpec,
    format_sequence,
    gen_legendre,
    gen_mseq,
    parse_sequence,
)

SCHEMA_VERSION = "1"


def _profile_json(profile: CorrelationProfile) -> dict:
    return {
        "modulus": 2,
        "period": profile.period,
        "values": list(profile.values),
    }


def _delta_json(report: DeltaReport) -> dict:
    columns = (c.tolist() for c in report.witnesses.columns())
    return {
        "delta": report.delta,
        "period": report.period,
        "member_count": report.member_count,
        "witness_count": len(report.witnesses),
        "witnesses": [
            {"i": i, "j": j, "tau": tau, "value": value} for i, j, tau, value in zip(*columns)
        ],
    }


def _condition_json(report: ConditionReport) -> dict:
    return {
        "condition": report.condition,
        "verdict": report.verdict,
        "first_failure_s": report.first_failure_s,
        "per_s": [
            {
                "s": c.s,
                "passed": c.passed,
                "observed": c.observed,
                "required": c.required,
                "values": list(c.profile.values),
                "multiplicity": [list(pair) for pair in c.profile.multiplicity],
            }
            for c in report.checks
        ],
    }


def _outcome_json(outcome: SearchOutcome) -> dict:
    results = {
        "witnesses": [str(w) for w in outcome.witnesses],
        "examined": outcome.examined,
        "satisfying": outcome.satisfying,
        "exhaustive": outcome.exhaustive,
    }
    if outcome.nodes_by_depth:
        results["stats"] = {"nodes_by_depth": list(outcome.nodes_by_depth)}
    return results


def _emit(command: str, argv: list, inputs: dict, results, started: float, lines, pretty: bool):
    # With no results (``reproduce`` without --json) the lines are the report.
    if results is not None:
        report = {
            "schema": SCHEMA_VERSION,
            "command": command,
            "argv": argv,
            "inputs": inputs,
            "results": results,
            "timing": {"seconds": time.perf_counter() - started},
        }
        print(json.dumps(report, indent=2))
    if pretty and lines:
        print("\n".join(lines), file=sys.stderr if results is not None else sys.stdout)


# Each command returns (inputs, results, pretty lines, exit code).


def _cmd_gen(args):
    if args.kind == "mseq":
        # A character other than 0 or 1 maps to -1, which LfsrSpec refuses.
        spec = LfsrSpec(
            args.degree,
            tuple(map("01".find, args.poly)),
            tuple(map("01".find, args.state)),
        )
        seq = gen_mseq(spec)
        inputs = {"degree": args.degree, "poly": args.poly, "state": args.state}
    else:
        seq = gen_legendre(args.v, args.zero)
        inputs = {"v": args.v, "zero": args.zero}
    results = {
        "sequence": format_sequence(seq),
        "period": seq.period,
        "two_level": is_two_level(seq),
    }
    pretty = [f"sequence {results['sequence']} (period {seq.period}, two-level: {results['two_level']})"]
    return inputs, results, pretty, 0


def _cmd_correlate(args):
    a = parse_sequence(args.a)
    if args.auto:
        if args.b is not None:
            raise ValueError("--auto and --b are mutually exclusive")
        b = a
    elif args.b is not None:
        b = parse_sequence(args.b)
    else:
        raise ValueError("provide --b or --auto")
    corr = fast_cross_correlation if args.fast else cross_correlation
    profile = corr(a, b)
    results = {"profile": _profile_json(profile), "method": "fast" if args.fast else "direct"}
    if args.auto:
        results["two_level"] = is_two_level(a)
    pretty = ["tau  value"] + [f"{tau:>3}  {val}" for tau, val in enumerate(profile.values)]
    return {"a": args.a, "b": args.b, "auto": args.auto}, results, pretty, 0


def _cmd_build(args):
    a = parse_sequence(args.a)
    b = parse_sequence(args.b)
    # Name a wrong length first: an entry's range is the vector's own length.
    length = args.e.count(",") + 1
    if length != a.period:
        raise ValueError(f"shift vector length {length} does not match period {a.period}")
    e = parse_shift_sequence(args.e)
    ss = build_signal_set(a, b, e)
    results = {
        "v": ss.v,
        "period": ss.period,
        "member_count": len(ss.members),
        "members": [format_sequence(m) for m in ss.members],
        "notes": [],  # schema "1" keeps the field: two-level bases give no notes
    }
    pretty = [f"built {len(ss.members)} members of period {ss.period}"]
    if args.delta:
        report = signal_set_delta(ss.members)
        results["delta"] = _delta_json(report)
        pretty.append(
            f"delta {report.delta} attained at {len(report.witnesses)} (i, j, tau) points"
        )
    return {"a": args.a, "b": args.b, "e": args.e}, results, pretty, 0


_CHECKERS = {
    "A": check_condition_A,
    "B": check_condition_B,
    "open": check_condition_open,
    "OPEN": check_condition_open,
}


def _cmd_check(args):
    e = parse_shift_sequence(args.e)
    report = _CHECKERS[args.cond](e)
    results = _condition_json(report)
    pretty = [f"condition {report.condition}: {'pass' if report.verdict else 'fail'}"]
    for c in report.checks:
        mark = "ok " if c.passed else "FAIL"
        pretty.append(
            f"  s={c.s} {mark} observed {c.observed} (required {c.required}); "
            f"differences {list(c.profile.values)}"
        )
    return {"e": args.e, "cond": args.cond}, results, pretty, 0 if report.verdict else 1


def _cmd_search(args):
    progress = None
    if args.progress:
        started = time.perf_counter()

        def progress(n):
            rate = n / (time.perf_counter() - started)
            print(f"examined={n} rate={rate:.0f}/s", file=sys.stderr)

    if args.sample is not None:
        if args.strategy or args.force:
            raise ValueError("--strategy and --force apply to a sweep, not to --sample")
        outcome = sample_random(args.v, args.pred, args.sample, seed=args.seed or 0, limit=args.limit)
        strategy = "sample"
    else:
        if args.seed is not None:
            raise ValueError("--seed applies only to --sample")
        strategy = args.strategy or "full"
        spec = SearchSpec(args.v, args.pred, limit=args.limit, strategy=strategy, force=args.force)
        outcome = backtrack(spec, progress=progress)
    results = _outcome_json(outcome)
    results["strategy"] = strategy
    pretty = [
        f"examined {outcome.examined}, satisfying {outcome.satisfying}, "
        f"exhaustive {outcome.exhaustive}"
    ] + [f"  witness {w}" for w in outcome.witnesses]
    inputs = {"v": args.v, "pred": args.pred, "limit": args.limit, "sample": args.sample or 0}
    return inputs, results, pretty, 0


def _cmd_verify_nonexistence(args):
    table = verify_open_nonexistence(args.vmax, force=args.force)
    entries = []
    for v, ent in sorted(table.items()):
        entries.append(
            {
                "v": v,
                "exists": ent.exists,
                "witness": str(ent.witnesses[0]) if ent.witnesses else None,
                "witnesses": [str(w) for w in ent.witnesses],
                "examined": ent.examined,
                "exhaustive": ent.exhaustive,
                "nodes": ent.nodes,
                "one_infinity": ent.one_infinity,
            }
        )
    confirmed = _reproduce.census_confirmed(table)
    results = {"entries": entries, "confirmed": confirmed}
    pretty = ["  v  exists  examined  witnesses"]
    for row in entries:
        pretty.append(
            f"{row['v']:>3}  {str(row['exists']).lower():<6}  {row['examined']:>8}  "
            f"{' '.join(row['witnesses']) or '-'}"
        )
    return {"vmax": args.vmax}, results, pretty, 0 if confirmed else 1


def _cmd_reproduce(args):
    checks = _reproduce.run_all(seed=args.seed)
    ok = _reproduce.all_passed(checks)
    lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}" for r in checks]
    lines.append(f"{sum(r.passed for r in checks)}/{len(checks)} checks passed")
    results = None
    if args.json:
        rows = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in checks]
        results = {"checks": rows, "all_passed": ok}
    return {"seed": args.seed}, results, lines, 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    pretty_help = "also print human tables to stderr"
    parser = argparse.ArgumentParser(
        prog="ilvseq",
        description="Interleaved signal sets: generate, correlate, build, check, search.",
    )
    parser.add_argument("--pretty", action="store_true", help=pretty_help)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, func, help):
        cmd = subparsers.add_parser(name, help=help)
        # Suppressed when absent, so a --pretty before the command still counts.
        cmd.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS, help=pretty_help)
        cmd.set_defaults(func=func)
        return cmd

    gen = sub.add_parser("gen", help="generate a two-level base sequence")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    mseq = command(gen_sub, "mseq", _cmd_gen, "maximal-period register sequence")
    mseq.add_argument("--degree", type=int, required=True)
    mseq.add_argument("--poly", required=True, help="coefficient bits, highest degree first")
    mseq.add_argument("--state", required=True, help="initial bits, oldest first")
    leg = command(gen_sub, "legendre", _cmd_gen, "quadratic-residue indicator sequence")
    leg.add_argument("--v", type=int, required=True, help="odd prime period")
    leg.add_argument("--zero", type=int, default=0, choices=(0, 1))

    corr = command(sub, "correlate", _cmd_correlate, "correlation profile of a pair")
    corr.add_argument("--a", required=True)
    corr.add_argument("--b")
    corr.add_argument("--auto", action="store_true", help="correlate --a against itself")
    corr.add_argument("--fast", action="store_true", help="the delta engine's rows")

    build = command(sub, "build", _cmd_build, "construct the v+1 member signal set")
    build.add_argument("--a", required=True, help="two-level base, period v >= 3")
    build.add_argument("--b", required=True, help="two-level offset sequence, period v")
    build.add_argument("--e", required=True, help="comma-separated shifts in [0, v); inf marks a zero column")
    build.add_argument("--delta", action="store_true", help="also sweep the set's delta")

    check = command(sub, "check", _cmd_check, "check a condition on a shift vector")
    check.add_argument("--e", required=True)
    check.add_argument("--cond", required=True, choices=tuple(_CHECKERS))

    search = command(sub, "search", _cmd_search, "search shift-vector space for a predicate")
    search.add_argument("--v", type=int, required=True)
    # The lower-case spellings and the names the library prints.
    preds = ("A", "B", "b-not-a", "B-not-A", "open", "OPEN")
    search.add_argument("--pred", required=True, choices=preds)
    search.add_argument("--limit", type=int, default=0, help="stop after this many witnesses")
    search.add_argument(
        "--strategy", choices=("full", "backtrack"),
        help="count a sweep's covered candidates (full, the default) or its walk's nodes (backtrack)",
    )
    search.add_argument("--force", action="store_true", help="override a sweep's budget guard")
    mode = search.add_mutually_exclusive_group()
    mode.add_argument("--progress", action="store_true", help="emit a sweep's examined counts and rates to stderr")
    mode.add_argument("--sample", type=int, help="random draws instead of a sweep")
    search.add_argument("--seed", type=int, help="seed of the --sample draws (default 0)")

    verify = command(
        sub, "verify-nonexistence", _cmd_verify_nonexistence,
        "census the completeness condition up to vmax",
    )
    verify.add_argument("--vmax", type=int, required=True)
    verify.add_argument("--force", action="store_true")

    rep = command(sub, "reproduce", _cmd_reproduce, "run the worked-example verification suite")
    rep.add_argument("--json", action="store_true", help="machine report to stdout")
    rep.add_argument("--seed", type=int, default=0)
    # The check lines always print: to stdout, or to stderr beside --json.
    rep.set_defaults(pretty=True)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        inputs, results, lines, code = args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    command = f"gen {args.kind}" if args.command == "gen" else args.command
    try:
        _emit(command, argv, inputs, results, started, lines, args.pretty)
        sys.stdout.flush()
    except (OSError, MemoryError) as exc:
        # Python's SIGPIPE recipe: stdout to devnull, so the flush at exit cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a full disk, a report too large to encode
            print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
