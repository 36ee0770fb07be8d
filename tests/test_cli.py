"""Tests for the command-line interface: reports, exit codes, error paths."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ilvseq.search as search_mod
from ilvseq import (
    CONDITIONS,
    ShiftSequence,
    all_passed,
    build_signal_set,
    gen_legendre,
    left_shift,
    quadratic_shifts,
    reproduce,
    run_all,
    signal_set_delta,
)
from ilvseq import cli
from ilvseq.cli import main
from ilvseq.conditions import Condition
from delta_oracle import reference_delta
from test_conditions import _reference_report
from test_search import _record_verdicts


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    report = json.loads(out)
    assert report["schema"] == "1"
    assert "timing" in report and report["timing"]["seconds"] >= 0
    return report


def test_gen_mseq(capsys):
    code, out, err = run_cli(
        capsys, "gen", "mseq", "--degree", "3", "--poly", "1011", "--state", "100"
    )
    assert code == 0
    report = parse_report(out)
    assert report["results"]["sequence"] == "1001011"
    assert report["results"]["two_level"] is True


def test_gen_legendre_pretty(capsys):
    code, out, err = run_cli(capsys, "gen", "legendre", "--v", "7", "--pretty")
    assert code == 0
    assert parse_report(out)["results"]["sequence"] == "0110100"
    assert "two-level: True" in err


def test_gen_bad_input_exits_2(capsys):
    code, out, err = run_cli(capsys, "gen", "legendre", "--v", "8")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "mseq", "--degree", "0", "--poly", "1", "--state", "1"], "degree must be at least 1"),
        (
            ["gen", "mseq", "--degree", "3", "--poly", "1021", "--state", "100"],
            "polynomial and state bits must be 0 or 1",
        ),
        (
            ["gen", "mseq", "--degree", "3", "--poly", "1x11", "--state", "100"],
            "polynomial and state bits must be 0 or 1",
        ),
        (
            ["gen", "mseq", "--degree", "3", "--poly", "1011", "--state", "1x0"],
            "polynomial and state bits must be 0 or 1",
        ),
        (["gen", "mseq", "--degree", "3", "--poly", "1011", "--state", "10"], "state needs 3 bits, got 2"),
        (["correlate", "--a", "10x1", "--auto"], "bad sequence text: '10x1'"),
        (["correlate", "--a", "10\u00b2", "--auto"], "bad sequence text: '10\u00b2'"),
        (["correlate", "--a", "\u0661\u0660\u0660", "--auto"], "bad sequence text: '\u0661\u0660\u0660'"),
        (["correlate", "--a", "1,\u0660,0", "--auto"], "bad sequence text: '1,\u0660,0'"),
        (["correlate", "--a", "1,0,x", "--auto"], "bad bit in sequence text: '1,0,x'"),
        (
            ["build", "--a", "1001110", "--b", "1001011", "--e", "0,0,1,0,6,3"],
            "shift vector length 6 does not match period 7",
        ),
        (
            ["build", "--a", "1001110", "--b", "1001011", "--e", "0,0,1,0,6,3,\u0661"],
            "bad shift text: '0,0,1,0,6,3,\u0661'",
        ),
        (["search", "--v", "5", "--pred", "B", "--sample", "0"], "sample size must be positive"),
        (
            ["search", "--v", "5", "--pred", "B", "--sample", "10", "--strategy", "backtrack"],
            "--strategy and --force apply to a sweep, not to --sample",
        ),
        (
            ["search", "--v", "5", "--pred", "B", "--sample", "10", "--force"],
            "--strategy and --force apply to a sweep, not to --sample",
        ),
        (["search", "--v", "5", "--pred", "B", "--seed", "3"], "--seed applies only to --sample"),
    ],
    ids=[
        "degree-0",
        "poly-digit-2",
        "poly-non-digit",
        "state-non-digit",
        "short-state",
        "bad-sequence-text",
        "superscript-digit",
        "arabic-indic-digits",
        "arabic-indic-comma-bit",
        "bad-comma-bit",
        "short-shift-vector",
        "arabic-indic-shift",
        "sample-0",
        "sample-with-strategy",
        "sample-with-force",
        "seed-without-sample",
    ],
)
def test_bad_input_exits_2_with_message(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_correlate_auto(capsys):
    code, out, err = run_cli(capsys, "correlate", "--a", "1001110", "--auto")
    assert code == 0
    report = parse_report(out)
    assert report["results"]["profile"]["values"] == [7, -1, -1, -1, -1, -1, -1]
    assert report["results"]["two_level"] is True


def test_correlate_pair_fast_matches_direct(capsys):
    args = ["correlate", "--a", "1001110", "--b", "1001011"]
    _, direct_out, _ = run_cli(capsys, *args)
    _, fast_out, _ = run_cli(capsys, *args, "--fast")
    direct = parse_report(direct_out)["results"]["profile"]["values"]
    fast = parse_report(fast_out)["results"]["profile"]["values"]
    assert direct == fast


@pytest.mark.parametrize("partner", [["--b", "1001011"], ["--auto"]])
def test_correlate_fast_json_equals_direct_json(capsys, partner):
    # Same values of the same JSON types: a float leaking from the transform
    # prints 3.0, which compares equal to 3 once parsed but not as text.
    args = ["correlate", "--a", "1001110", *partner]
    reports = []
    for extra in ([], ["--fast"]):
        code, out, _ = run_cli(capsys, *args, *extra)
        assert code == 0
        report = parse_report(out)
        for key in ("timing", "argv"):
            del report[key]
        assert report["results"].pop("method") == ("fast" if extra else "direct")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]
    assert all(type(c) is int for c in json.loads(reports[1])["results"]["profile"]["values"])


def test_correlate_requires_partner(capsys):
    code, _, err = run_cli(capsys, "correlate", "--a", "1001110")
    assert code == 2
    assert "provide --b or --auto" in err
    code, _, err = run_cli(capsys, "correlate", "--a", "10", "--b", "01", "--auto")
    assert code == 2


def test_build_with_delta(capsys):
    code, out, err = run_cli(
        capsys,
        "build",
        "--a", "1001110",
        "--b", "1001011",
        "--e", "0,0,1,0,6,3,5",
        "--delta",
    )
    assert code == 0
    results = parse_report(out)["results"]
    assert results["member_count"] == 8
    assert results["period"] == 49
    assert results["delta"]["delta"] == 17
    assert len(results["delta"]["witnesses"]) == 80
    assert all(type(w["value"]) is int for w in results["delta"]["witnesses"])
    assert results["notes"] == []
    # A v=11 Legendre set: the command's delta gives the oracle's witnesses.
    a, b = gen_legendre(11), gen_legendre(11, 1)
    e = quadratic_shifts(11, 1, 3)
    code, out, err = run_cli(
        capsys, "build", "--a", str(a), "--b", str(b), "--e", str(e), "--delta"
    )
    assert code == 0
    got = parse_report(out)["results"]["delta"]
    delta, hits = reference_delta(build_signal_set(a, b, e).members)
    assert got["delta"] == delta
    assert got["witnesses"] == [dict(zip(("i", "j", "tau", "value"), hit)) for hit in hits]


def test_build_refuses_non_two_level_base(capsys):
    code, out, err = run_cli(
        capsys, "build", "--a", "1000000", "--b", "1001011", "--e", "0,0,1,0,6,3,5"
    )
    assert (code, out) == (2, "")
    assert err == "error: base a fails the two-level autocorrelation test\n"


def _run_module(*argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run(
        [sys.executable, *argv], env=env, stderr=subprocess.PIPE, text=True, timeout=120, **kwargs
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_full_disk_exits_2_with_an_error_line():
    # The report's write fails (ENOSPC): an error: line and exit 2, and
    # stdout is sent to devnull, so the flush at exit cannot fail again.
    with open("/dev/full", "w") as full:
        done = _run_module("-m", "ilvseq", "gen", "legendre", "--v", "7", stdout=full)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


def test_report_too_large_to_encode_exits_2():
    # A MemoryError while the report is encoded, as json.dumps raised on a
    # v = 127 set's witnesses: an error: line and exit 2, nothing on stdout.
    script = (
        "import json, sys\n"
        "from ilvseq.cli import main\n"
        "def exhausted(*args, **kwargs): raise MemoryError\n"
        "json.dumps = exhausted\n"
        "sys.exit(main(['gen', 'legendre', '--v', '7']))\n"
    )
    done = _run_module("-c", script, stdout=subprocess.PIPE)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


def test_build_accepts_b_equal_to_a(capsys):
    code, out, err = run_cli(
        capsys, "build", "--a", "1001110", "--b", "1001110", "--e", "0,0,1,0,6,3,5"
    )
    assert (code, err) == (0, "")
    assert parse_report(out)["results"]["notes"] == []


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 25.2 GiB"), "error: Unable to allocate 25.2 GiB\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
    ids=["numpy-message", "no-message"],
)
def test_out_of_memory_exits_2(capsys, monkeypatch, exc, line):
    def exhausted(*args):
        raise exc

    monkeypatch.setattr(cli, "build_signal_set", exhausted)
    code, out, err = run_cli(
        capsys, "build", "--a", "1001110", "--b", "1001011", "--e", "0,0,1,0,6,3,5"
    )
    assert (code, out, err) == (2, "", line)


def test_build_rejects_infinite_vector(capsys):
    code, out, err = run_cli(
        capsys, "build", "--a", "1001110", "--b", "1001011", "--e", "0,inf,1,0,6,3,5"
    )
    assert code == 2
    assert out == ""
    assert "error: shift vector must be finite" in err


def test_build_period_mismatch_reads_as_correlate(capsys):
    for argv in (
        ["build", "--a", "1001110", "--b", "10", "--e", "0,0,1,0,6,3,5"],
        ["correlate", "--a", "1001110", "--b", "10"],
    ):
        assert run_cli(capsys, *argv) == (2, "", "error: period mismatch: 7 vs 2\n")


def test_pretty_before_or_after_command(capsys):
    for argv, line in (
        (["check", "--e", "0,1", "--cond", "A"], "condition A: pass"),
        (["gen", "legendre", "--v", "7"], "sequence 0110100"),
    ):
        for flagged in (["--pretty", *argv], [*argv, "--pretty"]):
            code, out, err = run_cli(capsys, *flagged)
            assert code == 0
            assert err.startswith(line)
        assert run_cli(capsys, *argv)[2] == ""


@pytest.mark.parametrize(
    "argv, command, inputs",
    [
        (
            ["gen", "mseq", "--degree", "3", "--poly", "1011", "--state", "100"],
            "gen mseq",
            {"degree": 3, "poly": "1011", "state": "100"},
        ),
        (["gen", "legendre", "--v", "7"], "gen legendre", {"v": 7, "zero": 0}),
        (
            ["correlate", "--a", "1001110", "--auto"],
            "correlate",
            {"a": "1001110", "b": None, "auto": True},
        ),
        (
            ["build", "--a", "1001110", "--b", "1001011", "--e", "0,0,1,0,6,3,5"],
            "build",
            {"a": "1001110", "b": "1001011", "e": "0,0,1,0,6,3,5"},
        ),
        (
            ["check", "--e", "0,0,1,0,6,3,5", "--cond", "B"],
            "check",
            {"e": "0,0,1,0,6,3,5", "cond": "B"},
        ),
        (
            ["search", "--v", "3", "--pred", "A"],
            "search",
            {"v": 3, "pred": "A", "limit": 0, "sample": 0},
        ),
        (
            ["search", "--v", "6", "--pred", "B", "--sample", "50", "--seed", "2", "--limit", "1"],
            "search",
            {"v": 6, "pred": "B", "limit": 1, "sample": 50},
        ),
        (["verify-nonexistence", "--vmax", "3"], "verify-nonexistence", {"vmax": 3}),
        (["reproduce", "--json", "--seed", "1"], "reproduce", {"seed": 1}),
    ],
)
def test_report_names_command_and_echoes_input(capsys, argv, command, inputs):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    report = parse_report(out)
    assert report["command"] == command
    assert report["argv"] == argv
    assert report["inputs"] == inputs


@pytest.mark.parametrize(
    "head, flag, spellings",
    [
        (["search", "--v", "4", "--limit", "3"], "--pred", ("b-not-a", "B-not-A")),
        (["search", "--v", "3", "--strategy", "backtrack"], "--pred", ("open", "OPEN")),
        (["check", "--e", "0,1"], "--cond", ("open", "OPEN")),
        (["check", "--e", "0,0,1,0,6,3,5"], "--cond", ("open", "OPEN")),
    ],
)
def test_cli_accepts_the_names_the_library_prints(capsys, head, flag, spellings):
    # Both spellings give one result; the inputs echo the spelling given.
    reports = []
    for name in spellings:
        code, out, _ = run_cli(capsys, *head, flag, name)
        report = parse_report(out)
        assert report["inputs"][flag[2:]] == name
        reports.append((code, report["results"]))
    assert reports[0] == reports[1]


def test_check_verdict_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "check", "--e", "0,0,1,0,6,3,5", "--cond", "A")
    assert code == 1
    results = parse_report(out)["results"]
    assert results["verdict"] is False
    assert results["first_failure_s"] == 1
    assert results["per_s"][0]["values"] == [0, 6, 1, 1, 3, 5]

    code, out, _ = run_cli(capsys, "check", "--e", "0,0,1,0,6,3,5", "--cond", "B")
    assert code == 0
    assert parse_report(out)["results"]["verdict"] is True


@pytest.mark.parametrize("cond", ["A", "B", "open"])
def test_check_json_matches_reference_report(capsys, cond):
    # The JSON is written from the report's fields, whatever type holds them.
    _, out, _ = run_cli(capsys, "check", "--e", "0,0,1,0,6,3,5", "--cond", cond)
    expected = _reference_report(ShiftSequence((0, 0, 1, 0, 6, 3, 5)), cond.upper())
    per_s = [
        {
            "s": c.s,
            "passed": c.passed,
            "observed": c.observed,
            "required": c.required,
            "values": list(c.profile.values),
            "multiplicity": [[d, n] for d, n in c.profile.multiplicity],
        }
        for c in expected.checks
    ]
    assert parse_report(out)["results"]["per_s"] == per_s


def test_check_rejects_infinite_vector(capsys):
    code, _, err = run_cli(capsys, "check", "--e", "0,inf,1", "--cond", "A")
    assert code == 2
    assert "finite" in err


def test_search_counts(capsys):
    code, out, _ = run_cli(capsys, "search", "--v", "3", "--pred", "A")
    assert code == 0
    results = parse_report(out)["results"]
    assert results["satisfying"] == 6
    assert results["examined"] == 9
    assert results["exhaustive"] is True
    assert results["strategy"] == "full"
    assert "stats" not in results  # only backtracking counts nodes per depth


def test_search_witnesses_and_backtrack(capsys):
    code, out, _ = run_cli(
        capsys,
        "search", "--v", "7", "--pred", "b-not-a",
        "--limit", "1", "--strategy", "backtrack",
    )
    assert code == 0
    results = parse_report(out)["results"]
    assert results["witnesses"] == ["0,0,0,1,0,2,3"]
    assert results["exhaustive"] is False
    assert results["stats"] == {"nodes_by_depth": [1, 1, 2, 1, 3, 4]}
    assert sum(results["stats"]["nodes_by_depth"]) == results["examined"] == 12


def test_search_budget_exit_3(capsys):
    code, _, err = run_cli(capsys, "search", "--v", "9", "--pred", "open")
    assert code == 3
    assert "budget" in err


def test_search_sample(capsys):
    code, out, _ = run_cli(
        capsys,
        "search", "--v", "12", "--pred", "B",
        "--sample", "50", "--seed", "7", "--limit", "3",
    )
    assert code == 0
    results = parse_report(out)["results"]
    assert results["strategy"] == "sample"
    assert results["examined"] == 50
    assert results["exhaustive"] is False


def test_search_sample_rejects_negative_limit(capsys):
    code, out, err = run_cli(
        capsys, "search", "--v", "5", "--pred", "B", "--sample", "50", "--limit", "-1"
    )
    assert code == 2
    assert out == ""
    assert "limit must be nonnegative" in err


def test_search_backtrack_refuses_v_above_64(capsys):
    # Refused before any work, with the usage exit code, by the default
    # "full" sweep too, which is the same walk; sampling takes v = 65.
    for strategy in ([], ["--strategy", "full"], ["--strategy", "backtrack"]):
        code, out, err = run_cli(capsys, "search", "--v", "65", "--pred", "A", *strategy, "--force")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "v <= 64" in err
    code, out, err = run_cli(capsys, "search", "--v", "65", "--pred", "B", "--sample", "5")
    assert code == 0
    assert parse_report(out)["results"]["examined"] == 5


def test_search_sample_refuses_v_above_its_bound(capsys, monkeypatch):
    # Refused with the usage exit code before any draw is judged: the
    # recorded block verdict stays unused.
    calls = _record_verdicts(monkeypatch)
    code, out, err = run_cli(capsys, "search", "--v", "100000", "--pred", "A", "--sample", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"v <= {search_mod.SAMPLE_MAX_V}" in err
    assert calls == []


def test_search_progress_reports_rates(capsys, monkeypatch):
    monkeypatch.setattr(search_mod, "PROGRESS_INTERVAL", 100)
    code, out, err = run_cli(capsys, "search", "--v", "5", "--pred", "A", "--progress")
    assert code == 0
    assert parse_report(out)["results"]["examined"] == 625
    lines = err.splitlines()
    assert len(lines) == 6
    for n, line in zip(range(100, 625, 100), lines):
        assert re.fullmatch(rf"examined={n} rate=\d+/s", line)


def test_search_sample_refuses_progress(capsys):
    # Sampling takes no progress callback, so the pair is a usage error.
    for flags in (["--sample", "50", "--progress"], ["--progress", "--sample", "50"]):
        code, out, err = run_cli(capsys, "search", "--v", "5", "--pred", "B", *flags)
        assert code == 2
        assert out == ""
        assert "not allowed with argument" in err


def test_verify_nonexistence(capsys):
    code, out, _ = run_cli(capsys, "verify-nonexistence", "--vmax", "4")
    assert code == 0
    results = parse_report(out)["results"]
    assert results["confirmed"] is True
    rows = {row["v"]: row for row in results["entries"]}
    assert rows[2]["exists"] is True
    assert rows[2]["witnesses"] == ["0,0", "0,1"]
    assert rows[3]["exists"] is False
    assert rows[3]["witness"] is None
    # "examined" is the candidates covered, "nodes" the walk's node count.
    assert [(row["examined"], row["nodes"]) for row in rows.values()] == [(2, 2), (9, 12), (64, 68)]
    # "one_infinity" is the walk's last depth over v: the one-∞ frontier.
    assert [row["one_infinity"] for row in rows.values()] == [1, 3, 12]
    code, _, err = run_cli(capsys, "verify-nonexistence", "--vmax", "4", "--pretty")
    assert code == 0
    assert err.splitlines()[:2] == ["  v  exists  examined  witnesses", "  2  true           2  0,0 0,1"]


def test_reproduce_text_output(capsys):
    code, out, err = run_cli(capsys, "reproduce")
    assert code == 0
    assert "12/12 checks passed" in out
    assert out.count("[PASS]") == 12
    assert "[FAIL]" not in out


def test_reproduce_json_output(capsys):
    code, out, err = run_cli(capsys, "reproduce", "--json")
    assert code == 0
    report = parse_report(out)
    assert report["results"]["all_passed"] is True
    assert len(report["results"]["checks"]) == 12
    assert "12/12 checks passed" in err


def test_python_dash_m_runs_the_cli():
    done = _run_module("-m", "ilvseq", "check", "--e", "0,0,1,0,6,3,5", "--cond", "B", stdout=subprocess.PIPE)
    assert done.returncode == 0, done.stderr
    report = parse_report(done.stdout)
    assert report["command"] == "check" and report["results"]["verdict"] is True


@pytest.mark.parametrize("argv, code", [
    (("search", "--v", "5", "--pred", "A", "--limit", "2"), 0),
    (("check", "--e", "0,0,1,0,6,3,5", "--cond", "A"), 1),
], ids=["search", "failed-check"])
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_keeps_the_exit_code(argv, code, unbuffered):
    # A reader gone before the report is written, as after `| head -c 1`:
    # the pipe's read end is closed first, so the command's first write to
    # stdout fails, buffered or not. It keeps its own exit code and prints
    # no traceback.
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
        PYTHONUNBUFFERED=unbuffered,
    )
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ilvseq", *argv],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (code, "")


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "check", "--e", "0,1", "--cond", "Z")[0] == 2
    assert run_cli(capsys, "--help")[0] == 0


def test_reproduction_negative_control(monkeypatch):
    # A corrupted shift vector must fail at least one reproduction check.
    monkeypatch.setattr(reproduce, "EXAMPLE_E", ShiftSequence((0, 1, 2, 3, 4, 5, 6)))
    results = run_all()
    assert not all_passed(results)
    failed = [r.name for r in results if not r.passed]
    assert failed


def test_reproduction_distinctness_check_negative_control(monkeypatch):
    # The last member replaced by a shift of member 3. The delta is taken of
    # the intact set, so only the pairwise shift scan can see the repeat.
    intact = build_signal_set(reproduce.EXAMPLE_A, reproduce.EXAMPLE_B, reproduce.EXAMPLE_E)
    members = (*intact.members[:-1], left_shift(intact.members[3], 5))
    repeated = dataclasses.replace(intact, members=members)

    def delta(ms, *args, **kwargs):
        return signal_set_delta(intact.members if ms is members else ms, *args, **kwargs)

    monkeypatch.setattr(reproduce, "build_signal_set", lambda a, b, e: repeated)
    monkeypatch.setattr(reproduce, "signal_set_delta", delta)
    passed = {r.name: r.passed for r in run_all()}
    assert passed["signal set is (49, 8, 17)"] is False


def test_reproduction_implication_check_negative_control(monkeypatch):
    # With B as strict as completeness (cap 1), distinctness vectors at
    # v = 3..5 fail it, and the implication check must say so.
    monkeypatch.setitem(CONDITIONS, "B", Condition(extended=True, cap=1))
    passed = {r.name: r.passed for r in run_all()}
    assert passed["distinctness implies multiplicity (v <= 5)"] is False
