"""ilvseq benchmark: seeded workloads through the public API, outputs checked.

    python3 bench/run.py --workload {construct,census,worked} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/`` there and nowhere else. One process runs one task at a time (a
closed loop with one client) on one thread: numpy's thread pools are pinned
to one thread before numpy loads.

With ``--trace 0`` the run imports the library in several fresh interpreters
and sets up its inputs several times (``setup_s`` is the median import time
plus the median set-up), then makes whole passes over the workload's task
list for about ``--seconds`` (at least one pass, and another only while it
fits) and reports the end-to-end metrics declared in BENCHMARK.json. Times
are speed-normalized (see speed.py); the raw ones are in the provenance line.
With ``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics, the tracing overhead among them; the spans go to
``.bench_out/``.

Every task's output is checked after its pass, outside the timed spans; a
failed check or an exception counts in ``failed``. The last line of standard
output is the JSON result; the line before it records provenance.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ilvseq; print(time.perf_counter() - t)"
)


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _run_pass(tasks, clock, tracer=None):
    """Run every task once, in order. Returns [(task, output, error, raw start, raw end)]."""
    outputs, records = {}, []
    for task in tasks:
        clock.start_task()
        r0 = clock.read()
        try:
            if tracer is None:
                out = task.run(outputs)
            else:
                with tracer.span("bench.task"):
                    out = task.run(outputs)
            err = None
        except Exception:
            out, err = None, traceback.format_exc()
        records.append((task, out, err, r0, clock.read()))
        outputs[task.name] = out
    return records


def _timed_pass(tasks, clock, tracer=None):
    """One pass with the clock running.

    Returns (records, [normalized seconds per task], normalized wall, raw wall).
    A traced pass takes kernel runs only between tasks, outside every span.
    """
    with clock.running(inside=tracer is None):
        r0 = clock.read()
        records = _run_pass(tasks, clock, tracer)
        r1 = clock.read()
    latencies = [clock.normalized(a, b) for *_, a, b in records]
    return records, latencies, clock.normalized(r0, r1), r1 - r0


def _check_pass(records):
    """Check every output; returns the number of failed tasks."""
    failed = 0
    for task, out, err, *_ in records:
        if err is None:
            try:
                ok = task.check(out)
            except Exception:
                ok, err = False, traceback.format_exc()
        else:
            ok = False
        if not ok:
            failed += 1
            if failed <= 5:
                print(f"check failed: {task.name}\n{err or ''}", file=sys.stderr)
    return failed


def _import_seconds(n):
    """Raw import times of ilvseq (with numpy) in n fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout))
    return times


def _declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _result(values, units):
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ilvseq" / "__init__.py").is_file():
        print(f"error: no ilvseq sources under {SRC}", file=sys.stderr)
        return 2
    for name in THREAD_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    import numpy
    import ilvseq

    if Path(ilvseq.__file__).resolve().parent != SRC / "ilvseq":
        print(f"error: ilvseq imported from {ilvseq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    e2e_units, layer_units = _declared()
    clock = speed.SpeedClock()

    def setup():
        tasks = workload.setup(args.seed)
        workload.warm()
        return tasks

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seeded_inputs": workload.seeded,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ[name] for name in THREAD_ENV},
        "load": "closed loop: one process, one client, one task at a time, one thread",
        "moves": {k: v for k, v in workloads.MOVES.items() if args.workload in v or "every" in v},
    }

    attempted = failed = 0
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        with tracer.span("bench.setup"):
            tasks = setup()
        tracer.uninstall()
        records, _, untraced_s, untraced_raw_s = _timed_pass(tasks, clock)
        failed += _check_pass(records)
        tracer.install()
        records, _, traced_s, traced_raw_s = _timed_pass(tasks, clock, tracer)
        tracer.uninstall()
        failed += _check_pass(records)
        attempted = 2 * len(tasks)
        for task, out, err, *_ in records:
            if task.count is not None and err is None:
                tracer.counts.update(task.count(out))
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = traced_s - untraced_s
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        provenance.update(
            untraced_wall_s=untraced_s,
            traced_wall_s=traced_s,
            untraced_wall_raw_s=untraced_raw_s,
            traced_wall_raw_s=traced_raw_s,
            spans_file=str(trace_path.relative_to(ROOT)),
            computed_counts=sorted(
                name for name in layer_units
                if name.endswith(".calls") or name in spans.COUNTS
                or name in ("search.yield", "search.prune_ratio", "trace.spans")
            ),
        )
        result = _result(metrics, layer_units)
    else:
        imports = _import_seconds(SETUP_REPEATS)
        setup_intervals = []
        with clock.running():
            for _ in range(SETUP_REPEATS):
                clock.start_task()
                r0 = clock.read()
                tasks = setup()
                setup_intervals.append((r0, clock.read()))
        setups = [clock.normalized(a, b) for a, b in setup_intervals]
        walls, raw_walls, latencies, by_kind = [], [], [], {}
        started = time.perf_counter()
        last = 0.0
        # Whole passes only: at least one, and another only while it fits.
        while not walls or time.perf_counter() - started + last <= args.seconds:
            iteration = time.perf_counter()
            records, seconds, wall, raw_wall = _timed_pass(tasks, clock)
            failed += _check_pass(records)
            attempted += len(records)
            walls.append(wall)
            raw_walls.append(raw_wall)
            latencies += seconds
            for (task, *_), t in zip(records, seconds):
                by_kind.setdefault(task.kind, []).append(t)
            records = None  # free this pass's outputs before the next pass
            last = time.perf_counter() - iteration
        p90_rank = max(1, math.ceil(0.9 * len(latencies)))
        # Import time is scaled by the median of all the run's kernel times.
        import_scale = speed.REFERENCE_S / statistics.median(clock.kernel_s)
        metrics = {
            "setup_s": statistics.median(imports) * import_scale + statistics.median(setups),
            "wall_s": statistics.median(walls),
            "task_p50_ms": 1e3 * _nearest_rank(latencies, 0.5),
            "task_p90_ms": 1e3 * _nearest_rank(latencies, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        provenance.update(
            import_raw_s=imports,
            setup_raw_s=[b - a for a, b in setup_intervals],
            pass_walls_s=walls,
            pass_walls_raw_s=raw_walls,
            tasks=len(latencies),
            tasks_beyond_p90=len(latencies) - p90_rank,
            task_kinds={
                kind: {"n": len(ts), "median_s": statistics.median(ts)}
                for kind, ts in by_kind.items()
            },
        )
        result = _result(metrics, e2e_units)

    provenance["kernel_s"] = {
        "runs": len(clock.kernel_s),
        "median": statistics.median(clock.kernel_s),
        "reference": speed.REFERENCE_S,
    }
    provenance["fail_ratio"] = failed / attempted
    print(json.dumps({"provenance": provenance}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
