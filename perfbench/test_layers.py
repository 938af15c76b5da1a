"""Traced runs: span bookkeeping, unchanged answers, and missing names.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from layers import PER_LAYER, TARGETS, Recorder, Tracer, layer_values, missing_metrics  # noqa: E402
from treecenter import random_tree, serialize_tree, parse_tree  # noqa: E402
from treecenter import solver  # noqa: E402


def test_spans_nest_and_tester_time_is_excluded():
    rec = Recorder()
    linear = rec.wrap(lambda: None, "ftest0_feasible", "feasibility.linear")

    def inner_body():
        linear()

    inner = rec.wrap(inner_body, "inner", "inner")

    def outer_body():
        linear()
        inner()
        inner()

    rec.wrap(outer_body, "outer", "outer")()
    outer, inner_g = rec.groups["outer"], rec.groups["inner"]
    assert outer.calls == 1 and outer.tester_calls == 3
    assert inner_g.calls == 2 and inner_g.tester_calls == 2
    assert rec.groups["feasibility.linear"].calls == 3
    assert 0 <= outer.self_time <= outer.time
    assert outer.child_time <= outer.time
    names = [s[0] for s in rec.spans]
    assert names.count("ftest0_feasible") == 3
    by_index = dict(enumerate(rec.spans))
    top = names.index("outer")
    assert rec.spans[top][3] == -1
    for span in rec.spans:
        if span[0] == "inner":
            assert span[3] == top
        if span[0] == "ftest0_feasible" and by_index[span[3]][0] == "inner":
            assert by_index[span[3]][3] == top


def traced_solve(targets, mode):
    text = serialize_tree(random_tree(60, seed=3, weight_range=(0, 10**6), shape="caterpillar"), 3)
    tree, k = parse_tree(text)
    config = solver.SolverConfig(mode=mode)
    plain = solver.solve(tree, k, config).lambda_star
    tracer = Tracer(targets)
    rec = Recorder()
    tracer.install(rec)
    try:
        result = rec.wrap(solver.solve, "solve", "solver.solve")(tree, k, config)
    finally:
        tracer.uninstall()
    assert result.lambda_star == plain
    return tracer, rec, layer_values(rec, result.stats["tests"])


def test_tracing_keeps_answers_and_counts_every_layer():
    for mode in ("continuous", "discrete"):
        tracer, rec, values = traced_solve(TARGETS, mode)
        assert not tracer.missing
        assert not missing_metrics(tracer.missing, values, rec)
        assert set(PER_LAYER) - set(values) == {"trace.overhead_ratio"}
        assert values["arrangement.search_calls"] > 0
        assert values["feasibility.linear_calls"] > 0
        assert values["tree.root_at_calls"] == 1
        if mode == "discrete":
            assert values["sorted_matrix.evals"] > 0
            assert values["sorted_matrix.tester_calls"] > 0
    # uninstall restored every original
    from treecenter import arrangement, sorted_matrix

    assert solver.find_boundary_vertices is arrangement.find_boundary_vertices
    assert solver.msearch is sorted_matrix.msearch
    assert not hasattr(solver.WorkingTree.materialize, "__wrapped__")


def test_renamed_wrapped_name_is_reported_not_fatal():
    targets = [t if t[1] != "compute_ranks" else ("treecenter.solver", "compute_ranks_v2", t[2], t[3])
               for t in TARGETS]
    targets.append(("treecenter.no_such_module", "anything", "stems.walk", False))
    tracer, rec, values = traced_solve(targets, "continuous")
    missing = missing_metrics(tracer.missing, values, rec)
    assert set(missing) == {"arrangement.ranks_s", "stems.walk_s"}
    assert "treecenter.solver.compute_ranks_v2" in missing["arrangement.ranks_s"]
    assert values["arrangement.search_calls"] > 0


def test_removed_method_is_reported_not_fatal(monkeypatch):
    from treecenter.sublist_lp import EnvelopeIndex

    # discrete solves never call query_lowest_extra, so it can go
    monkeypatch.delattr(EnvelopeIndex, "query_lowest_extra")
    tracer, rec, values = traced_solve(TARGETS, "discrete")
    missing = missing_metrics(tracer.missing, values, rec)
    assert set(missing) == {"sublist_lp.queries", "sublist_lp.query_s"}
