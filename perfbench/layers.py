"""Traced runs: spans around the program's layers, recorded from outside.

`Tracer.install()` wraps the names that `treecenter.solver` binds from the
layer modules, plus methods of `WorkingTree`, `EnvelopeIndex` and
`FastFeasibility`, and `uninstall()` puts the originals back. Nothing in
the program changes. A span records its name, start, end and parent; spans
stay in memory (up to a cap) and counters are summed as calls return.

Feasibility tests (the linear test and the fast test) are "tester" spans.
A layer's time is the time of its outermost spans minus the tester spans
nested inside them, so search layers report their own work and every
test is counted once, in `feasibility` or `solver.fast`.

Hot calls (envelope queries, matrix evaluations) are timed or counted
without a span. A wrapped name that no longer exists is recorded in
`missing`; metrics that depend on it are reported as missing.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import defaultdict

SPAN_CAP = 100_000
TESTERS = ("feasibility.linear", "solver.fast")

# (module, attribute path, group, hot). Groups name the metric families.
TARGETS = [
    ("treecenter.solver", "find_boundary_vertices", "arrangement.search", False),
    ("treecenter.solver", "compute_ranks", "arrangement.ranks", False),
    ("treecenter.solver", "msearch", "sorted_matrix.msearch", False),
    ("treecenter.solver", "stem_lines", "stems.candidates", False),
    ("treecenter.solver", "stem_arrays_discrete", "stems.candidates", False),
    ("treecenter.solver", "stem_matrices_continuous", "stems.candidates", False),
    ("treecenter.solver", "postprocess_continuous", "stems.reduce", False),
    ("treecenter.solver", "postprocess_discrete", "stems.reduce", False),
    ("treecenter.solver", "WorkingTree.apply_replacement", "stems.replace", False),
    ("treecenter.solver", "WorkingTree.leaf_stems", "stems.walk", False),
    ("treecenter.solver", "WorkingTree.materialize", "stems.walk", False),
    ("treecenter.solver", "build_stem_tables", "stems.tables", False),
    ("treecenter.sublist_lp", "EnvelopeIndex.__init__", "sublist_lp.build", False),
    ("treecenter.sublist_lp", "EnvelopeIndex.query_on_line", "sublist_lp.query", True),
    ("treecenter.sublist_lp", "EnvelopeIndex.query_lowest", "sublist_lp.query", True),
    ("treecenter.sublist_lp", "EnvelopeIndex.query_lowest_extra", "sublist_lp.query", True),
    ("treecenter.solver", "ftest0_feasible", "feasibility.linear", False),
    ("treecenter.solver", "ftest0", "feasibility.witness", False),
    ("treecenter.solver", "dftest0", "feasibility.witness", False),
    ("treecenter.solver", "FastFeasibility.feasible", "solver.fast", False),
    ("treecenter.solver", "root_at", "tree.root_at", False),
]


class _Group:
    __slots__ = ("calls", "time", "tester_time", "tester_calls", "child_time")

    def __init__(self):
        self.calls = 0
        self.time = 0.0  # outermost spans only
        self.tester_time = 0.0  # tester time nested in the outermost spans
        self.tester_calls = 0
        self.child_time = 0.0  # time of direct child spans of the outermost spans

    @property
    def self_time(self) -> float:
        return self.time - self.tester_time


class Recorder:
    """In-memory spans and per-group sums for one traced pass."""

    def __init__(self, span_cap: int = SPAN_CAP):
        self.span_cap = span_cap
        self.spans = []  # (name, start, end, parent index or -1)
        self.dropped = 0
        self.groups = defaultdict(_Group)
        self.counters = defaultdict(int)
        self._stack = []  # frames: [group, span index, child time, tester time, tester calls]
        self._depth = defaultdict(int)

    def span(self, name: str, group: str, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        if len(self.spans) < self.span_cap:
            idx = len(self.spans)
            self.spans.append(None)
        else:
            idx = -1
            self.dropped += 1
        frame = [group, idx, 0.0, 0.0, 0]
        stack.append(frame)
        self._depth[group] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            dur = end - start
            stack.pop()
            self._depth[group] -= 1
            if idx >= 0:
                self.spans[idx] = (name, start, end, parent)
            g = self.groups[group]
            g.calls += 1
            if self._depth[group] == 0:
                g.time += dur
                g.tester_time += frame[3]
                g.tester_calls += frame[4]
                g.child_time += frame[2]
            if stack:
                up = stack[-1]
                up[2] += dur
                if group in TESTERS:
                    up[3] += dur
                    up[4] += 1
                else:
                    up[3] += frame[3]
                    up[4] += frame[4]

    def hot(self, group: str, fn, args, kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            g = self.groups[group]
            g.calls += 1
            g.time += time.perf_counter() - start

    def wrap(self, fn, name: str, group: str, hot: bool = False):
        if hot:
            def wrapped(*args, **kwargs):
                return self.hot(group, fn, args, kwargs)
        else:
            def wrapped(*args, **kwargs):
                return self.span(name, group, fn, args, kwargs)
        wrapped.__wrapped__ = fn
        return wrapped


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    # methods are read from the class dict so that restoring is exact
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None or not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Installs recording wrappers around the program's layers."""

    def __init__(self, targets=None):
        self.targets = TARGETS if targets is None else targets
        self.recorder = None
        self.missing = defaultdict(list)  # group -> names not found
        self._installed = []

    def install(self, recorder: Recorder) -> None:
        self.recorder = recorder
        for module_name, path, group, hot in self.targets:
            found = _resolve(module_name, path)
            if found is None:
                self.missing[group].append(f"{module_name}.{path}")
                continue
            owner, attr, original = found
            if path == "msearch":
                wrapped = self._wrap_msearch(original)
            elif path == "find_boundary_vertices":
                wrapped = self._wrap_search(original)
            else:
                wrapped = recorder.wrap(original, path, group, hot)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap_search(self, original):
        rec = self.recorder

        def find_boundary_vertices(lines, *args, **kwargs):
            lines = list(lines)
            rec.counters["arrangement.lines"] += len(lines)
            return rec.span("find_boundary_vertices", "arrangement.search",
                            original, (lines,) + args, kwargs)

        return find_boundary_vertices

    def _wrap_msearch(self, original):
        rec = self.recorder

        def count(ev):
            def counted(i, j):
                rec.counters["sorted_matrix.evals"] += 1
                return ev(i, j)
            return counted

        def msearch(matrices, *args, **kwargs):
            pool = []
            for m in matrices:
                try:
                    pool.append(dataclasses.replace(m, eval=count(m.eval)))
                except (TypeError, AttributeError):
                    rec.counters["sorted_matrix.uncounted"] += 1
                    pool.append(m)
            result = rec.span("msearch", "sorted_matrix.msearch", original,
                              (pool,) + args, kwargs)
            calls = getattr(result, "tester_calls", None)
            if calls is None:
                rec.counters["sorted_matrix.no_result_calls"] += 1
            else:
                rec.counters["sorted_matrix.tester_calls"] += calls
            return result

        return msearch


# ----------------------------------------------------------------------
# per-layer metrics

# metric -> (unit, groups whose targets it needs)
_T = TESTERS
PER_LAYER = {
    "arrangement.search_calls": ("count", ("arrangement.search",)),
    "arrangement.lines": ("count", ("arrangement.search",)),
    "arrangement.tester_calls": ("count", ("arrangement.search",) + _T),
    "arrangement.search_self_s": ("s", ("arrangement.search",) + _T),
    "arrangement.ranks_s": ("s", ("arrangement.ranks",)),
    "sorted_matrix.msearch_calls": ("count", ("sorted_matrix.msearch",)),
    "sorted_matrix.evals": ("count", ("sorted_matrix.msearch",)),
    "sorted_matrix.tester_calls": ("count", ("sorted_matrix.msearch",)),
    "sorted_matrix.evals_per_test": ("ratio", ("sorted_matrix.msearch",)),
    "sorted_matrix.msearch_self_s": ("s", ("sorted_matrix.msearch",) + _T),
    "stems.candidates_s": ("s", ("stems.candidates",)),
    "stems.reduce_calls": ("count", ("stems.reduce",)),
    "stems.reduce_s": ("s", ("stems.reduce", "stems.replace") + _T),
    "stems.walk_s": ("s", ("stems.walk",)),
    "stems.tables_calls": ("count", ("stems.tables",)),
    "stems.tables_s": ("s", ("stems.tables",)),
    "sublist_lp.index_builds": ("count", ("sublist_lp.build",)),
    "sublist_lp.build_s": ("s", ("sublist_lp.build",)),
    "sublist_lp.queries": ("count", ("sublist_lp.query",)),
    "sublist_lp.query_s": ("s", ("sublist_lp.query",)),
    "feasibility.linear_calls": ("count", ("feasibility.linear",)),
    "feasibility.linear_s": ("s", ("feasibility.linear",)),
    "feasibility.linear_ms_per_call": ("ms", ("feasibility.linear",)),
    "feasibility.witness_s": ("s", ("feasibility.witness",)),
    "solver.tests_pre": ("count", ()),
    "solver.tests_phase0": ("count", ()),
    "solver.tests_phase1": ("count", ()),
    "solver.tests_phase2": ("count", ()),
    "solver.fast_calls": ("count", ("solver.fast",)),
    "solver.fast_ms_per_call": ("ms", ("solver.fast",)),
    "solver.fast_over_linear": ("ratio", ("solver.fast", "feasibility.linear")),
    "solver.self_s": ("s", ()),
    "tree.parse_s": ("s", ()),
    "tree.root_at_calls": ("count", ("tree.root_at",)),
    "tree.root_at_s": ("s", ("tree.root_at",)),
    "trace.overhead_ratio": ("ratio", ()),
}


def _per_call_ms(g: _Group) -> float:
    return 1000 * g.time / g.calls if g.calls else 0.0


def layer_values(rec: Recorder, tests: dict) -> dict:
    """Per-layer values of one traced pass, before dropping missing ones.

    `tests` holds the summed per-phase test counts of the pass's solves,
    or None for a phase the results no longer report.
    """
    g, c = rec.groups, rec.counters
    linear, fast = g["feasibility.linear"], g["solver.fast"]
    search, ms = g["arrangement.search"], g["sorted_matrix.msearch"]
    values = {
        "arrangement.search_calls": search.calls,
        "arrangement.lines": c["arrangement.lines"],
        "arrangement.tester_calls": search.tester_calls,
        "arrangement.search_self_s": search.self_time,
        "arrangement.ranks_s": g["arrangement.ranks"].self_time,
        "sorted_matrix.msearch_calls": ms.calls,
        "sorted_matrix.evals": c["sorted_matrix.evals"],
        "sorted_matrix.tester_calls": c["sorted_matrix.tester_calls"],
        "sorted_matrix.evals_per_test":
            c["sorted_matrix.evals"] / max(1, c["sorted_matrix.tester_calls"]),
        "sorted_matrix.msearch_self_s": ms.self_time,
        "stems.candidates_s": g["stems.candidates"].self_time,
        "stems.reduce_calls": g["stems.reduce"].calls,
        "stems.reduce_s": g["stems.reduce"].self_time + g["stems.replace"].self_time,
        "stems.walk_s": g["stems.walk"].self_time,
        "stems.tables_calls": g["stems.tables"].calls,
        "stems.tables_s": g["stems.tables"].self_time,
        "sublist_lp.index_builds": g["sublist_lp.build"].calls,
        "sublist_lp.build_s": g["sublist_lp.build"].time,
        "sublist_lp.queries": g["sublist_lp.query"].calls,
        "sublist_lp.query_s": g["sublist_lp.query"].time,
        "feasibility.linear_calls": linear.calls,
        "feasibility.linear_s": linear.time,
        "feasibility.linear_ms_per_call": _per_call_ms(linear),
        "feasibility.witness_s": g["feasibility.witness"].time,
        "solver.fast_calls": fast.calls,
        "solver.fast_ms_per_call": _per_call_ms(fast),
        "solver.fast_over_linear":
            _per_call_ms(fast) / _per_call_ms(linear) if linear.calls else 0.0,
        "solver.self_s": g["solver.solve"].time - g["solver.solve"].child_time,
        "tree.parse_s": g["tree.parse"].time,
        "tree.root_at_calls": g["tree.root_at"].calls,
        "tree.root_at_s": g["tree.root_at"].time,
    }
    for phase in ("pre", "phase0", "phase1", "phase2"):
        values[f"solver.tests_{phase}"] = tests.get(phase)
    return values


def missing_metrics(missing: dict, values: dict, rec: Recorder) -> dict:
    """metric -> reason, for metrics that cannot be reported.

    `missing` maps each group to the wrapped names of it that were not found.
    """
    out = {}
    for name, (_unit, needs) in PER_LAYER.items():
        gone = sorted(t for group in needs for t in missing.get(group, ()))
        if gone:
            out[name] = "not found: " + ", ".join(gone)
        elif name in values and values[name] is None:
            out[name] = "not in SolveResult.stats"
    if rec.counters["sorted_matrix.uncounted"]:
        out["sorted_matrix.evals"] = "pool matrices without a replaceable evaluator"
        out["sorted_matrix.evals_per_test"] = out["sorted_matrix.evals"]
    if rec.counters["sorted_matrix.no_result_calls"]:
        out["sorted_matrix.tester_calls"] = "msearch result has no tester_calls"
        out["sorted_matrix.evals_per_test"] = out["sorted_matrix.tester_calls"]
    return out
