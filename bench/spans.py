"""Benchmark-side span tracing of ilvseq's public functions.

``Tracer.install`` replaces every public function of the seven ilvseq modules,
in every ilvseq namespace that binds it, with a wrapper that records one span
(function, start, end, parent span) per call with ``perf_counter_ns``. Calls a
module makes through a private table (search's fast condition kernels) are not
seen and stay in the caller's self time. Spans are kept in flat arrays in
memory and written out once, at the end of a run.

Counts that must repeat exactly from run to run are computed here from the
traced calls' arguments and results (member counts, periods, search outcomes),
not measured by the program.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager

MODULES = ("sequences", "correlation", "interleaving", "conditions", "search", "reproduce", "cli")

#: Layer groups: (entry functions, whose calls are counted; helpers, whose
#: self time is added to the group's).
GROUPS = {
    "sequences.gen": (("gen_mseq", "gen_legendre"), ()),
    "sequences.add_pointwise": (("add_pointwise",), ()),
    "sequences.shift_equivalence": (("shift_equivalence",), ()),
    "interleaving.build": (("build_signal_set",), ()),
    "interleaving.interleave": (("interleave",), ()),
    "interleaving.lemma": (("lemma_correlation",), ("lemma_terms", "decompose_tau")),
    "correlation.delta": (("signal_set_delta",), ()),
    "correlation.fast": (("fast_cross_correlation",), ()),
    "correlation.direct": (("cross_correlation",), ()),
    "correlation.two_level": (("is_two_level",), ("autocorrelation",)),
    "conditions.check": (
        ("check_condition_A", "check_condition_B", "check_condition_open"),
        ("differences_A", "differences_B", "differences_open"),
    ),
}

#: Exact counts reported as computed (they must repeat from run to run).
COUNTS = (
    "interleaving.coincident.pairs",
    "correlation.pairs",
    "correlation.offsets",
    "correlation.transforms",
    "correlation.transform_points",
    "search.nodes",
    "search.satisfying",
    "reproduce.checks",
    "reproduce.passed",
    "cli.json_bytes",
)


def _arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _delta_counts(counts, args, kwargs, report):
    pairs = report.member_count * report.member_count
    counts["correlation.pairs"] += pairs
    counts["correlation.offsets"] += pairs * report.period


def _fast_counts(counts, args, kwargs, profile):
    # Three length-n transforms per call: fft(a), fft(b) and the inverse.
    counts["correlation.transforms"] += 3
    counts["correlation.transform_points"] += 3 * profile.period


def _coincident_counts(counts, args, kwargs, result):
    r = len(_arg(args, kwargs, "members"))
    counts["interleaving.coincident.pairs"] += r * (r - 1) // 2


def _search_counts(counts, args, kwargs, outcome):
    counts["search.nodes"] += outcome.examined
    counts["search.satisfying"] += outcome.satisfying


def _backtrack_counts(counts, args, kwargs, outcome):
    _search_counts(counts, args, kwargs, outcome)
    spec = _arg(args, kwargs, "spec")
    counts["search.backtrack_nodes"] += outcome.examined
    counts["search.backtrack_space"] += spec.v ** (spec.v - 1 if spec.normalize else spec.v)


def _reproduce_counts(counts, args, kwargs, results):
    counts["reproduce.checks"] += len(results)
    counts["reproduce.passed"] += sum(r.passed for r in results)


HOOKS = {
    "correlation.signal_set_delta": _delta_counts,
    "correlation.fast_cross_correlation": _fast_counts,
    "interleaving.coincident_members": _coincident_counts,
    "search.enumerate_space": _search_counts,
    "search.sample_random": _search_counts,
    "search.backtrack": _backtrack_counts,
    "reproduce.run_all": _reproduce_counts,
}


class Tracer:
    """In-memory span recorder over ilvseq's public functions."""

    def __init__(self):
        self.names: list[str] = []
        self.fids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict = {}
        package = importlib.import_module("ilvseq")
        mods = {name: importlib.import_module(f"ilvseq.{name}") for name in MODULES}
        self._namespaces = [package, *mods.values()]
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                qual = f"{mname}.{attr}"
                self._wrappers[obj] = self._wrap(obj, self._fid(qual), HOOKS.get(qual))

    def _fid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, fid: int) -> int:
        idx = len(self.fids)
        self.fids.append(fid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, fid, hook):
        counts = self.counts

        def traced(*args, **kwargs):
            idx = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span (setup, one task) enclosing library calls."""
        idx = self._open(self._fid(name))
        try:
            yield
        finally:
            self._close(idx)

    def install(self) -> None:
        for ns in self._namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, self._wrappers[obj])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds (span minus its children) per traced name."""
        n = len(self.fids)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        own = list(durations)
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                own[parent] -= durations[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(n):
            name = self.names[self.fids[i]]
            calls[name] += 1
            self_ns[name] += own[i]
        return dict(calls), {name: ns / 1e9 for name, ns in self_ns.items()}

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the benchmark declares, except trace.overhead_s."""
        calls, self_s = self.self_times()
        out: dict[str, float] = {}
        for group, (entries, helpers) in GROUPS.items():
            module = group.split(".")[0]
            out[f"{group}.calls"] = sum(calls.get(f"{module}.{f}", 0) for f in entries)
            out[f"{group}.self_s"] = sum(
                (self_s.get(f"{module}.{f}", 0.0) for f in entries + helpers), 0.0
            )
        for module in (*MODULES, "bench"):
            out[f"{module}.self_s"] = sum(
                (t for name, t in self_s.items() if name.split(".")[0] == module), 0.0
            )
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        nodes = out["search.nodes"]
        out["search.nodes_per_s"] = nodes / out["search.self_s"] if nodes else 0.0
        out["search.yield"] = out["search.satisfying"] / nodes if nodes else 0.0
        space = self.counts.get("search.backtrack_space", 0)
        out["search.prune_ratio"] = (
            self.counts["search.backtrack_nodes"] / space if space else 0.0
        )
        out["trace.spans"] = len(self.fids)
        return out

    def write(self, path) -> None:
        """JSON lines: names and counts first, then one
        [name index, start ns, end ns, parent index] per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "counts": dict(self.counts)}) + "\n")
            for row in zip(self.fids, self.starts, self.ends, self.parents):
                fh.write(f"[{row[0]},{row[1]},{row[2]},{row[3]}]\n")
