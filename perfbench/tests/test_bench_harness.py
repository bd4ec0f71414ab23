"""Tests of the benchmark itself: span arithmetic, percentiles, seeded inputs, the gate.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import json
from fractions import Fraction

import pytest

import apavoid
import gate
import oracles
import run
import tracing
import workloads
from tracing import Span


def _span(id, name, parent, start, end, leaves=None, nodes=0):
    return Span(id, name, 0, parent, start, end, nodes, leaves)


# ---------------------------------------------------------------- self time


def test_self_time_subtracts_children_and_folded_kernels():
    spans = [
        _span(0, "task", -1, 0.0, 10.0),
        _span(1, "repetition.find_repetition", 0, 1.0, 4.0,
              leaves={"_backend.first_repetition": [3, 1.0, 30, 1]}),
        _span(2, "lattice.verify_grid", 0, 5.0, 9.0),
        _span(3, "repetition.find_repetition", 2, 6.0, 7.0),
    ]
    assert tracing.self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 3.0, 3: 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, "task", -1, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 0, 3.0, 6.0),
        _span(3, "c", 0, 9.0, 12.0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_totals_attribute_kernel_calls_to_the_engine():
    spans = [
        _span(0, "task", -1, 0.0, 10.0),
        _span(1, "search.backtrack_longest", 0, 0.0, 8.0, nodes=40,
              leaves={"_backend.clean_after_append": [100, 2.0, 500, 7]}),
        _span(2, "repetition.find_repetition", 1, 6.0, 7.0,
              leaves={"_backend.first_repetition": [5, 0.5, 50, 0]}),
    ]
    totals = tracing.layer_totals(spans)
    assert totals["search.backtrack_longest"]["kernel_calls"] == 105
    assert totals["search.backtrack_longest"]["self_s"] == pytest.approx(8.0 - 1.0 - 2.0)
    assert totals["_backend.clean_after_append"]["calls"] == 100
    assert totals["_backend.clean_after_append"]["outcomes"] == 7
    assert totals["search.backtrack_longest"]["child_calls"] == {"repetition.find_repetition": 1}
    rows = {name: value for name, _, value, _ in tracing.per_layer_metrics(totals, 10.0)}
    assert rows["search.nodes"] == 40
    assert rows["search.kernel_calls_per_node"] == pytest.approx(105 / 40)
    assert rows["search.nodes_per_s"] == pytest.approx(40 / 8.0)
    assert rows["repetition.find_repetition.progressions_per_call"] == 5
    assert rows["backend.clean_after_append.reject_ratio"] == pytest.approx(0.07)
    assert rows["harness.self_pct"] == pytest.approx(20.0)
    assert rows["lattice.grid_search.nodes"] == 0


def test_install_wraps_every_binding_and_reports_moved_names(monkeypatch):
    monkeypatch.delattr(apavoid.lattice, "grid_search")
    tracer = tracing.Tracer()
    undo, absent = tracing.install(tracer)
    try:
        assert absent == ["lattice.grid_search"]
        for module in (apavoid, apavoid.repetition, apavoid.search, apavoid.lattice):
            assert module.find_repetition.__wrapped__ is not None
        tracer.task = 0
        span = tracer.open(tracing.TASK)
        apavoid.find_repetition(apavoid.Word.from_text("0101"), 2)
        tracer.close(span)
    finally:
        tracing.uninstall(undo)
    assert not hasattr(apavoid.search.find_repetition, "__wrapped__")
    # the scanner made no spans of its own, so it was folded into the task
    assert [s.name for s in tracer.spans] == ["task"]
    calls, _, _, leaves = tracer.spans[0].folded["repetition.find_repetition"]
    assert calls == 1 and leaves["_backend.first_repetition"][0] == 1


def test_folding_keeps_counts_and_self_times():
    tracer = tracing.Tracer()
    root = tracer.open(tracing.TASK)
    engine = tracer.open("search.backtrack_longest")
    for _ in range(3):
        scan = tracer.open("repetition.find_repetition")
        scan.leaves = {"_backend.first_repetition": [2, 0.0, 8, 1]}
        tracer.close(scan)
    tracer.close(engine)
    tracer.close(root)
    assert [s.name for s in tracer.spans] == [tracing.TASK, "search.backtrack_longest"]
    totals = tracing.layer_totals(tracer.spans)
    assert totals["repetition.find_repetition"]["calls"] == 3
    assert totals["search.backtrack_longest"]["child_calls"] == {"repetition.find_repetition": 3}
    assert totals["search.backtrack_longest"]["kernel_calls"] == 6
    assert totals["_backend.first_repetition"]["outcomes"] == 3
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root.end - root.start)


# ---------------------------------------------------------------- percentiles


def test_percentile_is_nearest_rank_with_samples_beyond():
    samples = list(range(100, 0, -1))
    assert run.percentile(samples, 0.5) == (50, 50)
    assert run.percentile(samples, 0.9) == (90, 10)
    assert run.percentile([7.0], 0.9) == (7.0, 0)
    assert run.percentile([1, 2, 3], 0.5) == (2, 1)


# ---------------------------------------------------------------- inputs


def _fingerprint(pool):
    out = []
    for task in pool:
        a = task.args
        item = [task.kind]
        for key in sorted(a):
            value = a[key]
            if hasattr(value, "symbols"):
                value = value.symbols
            elif hasattr(value, "cells"):
                value = value.cells
            elif key in ("problem", "differences"):
                value = repr(value)
            item.append((key, value if not isinstance(value, tuple) else repr(value)))
        out.append(repr(item))
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    ctx = workloads.Context.create(apavoid, run.ROOT)
    first, _ = workloads.build(ctx, workload, 5)
    again, _ = workloads.build(ctx, workload, 5)
    other, _ = workloads.build(ctx, workload, 6)
    assert _fingerprint(first) == _fingerprint(again)
    assert _fingerprint(first) != _fingerprint(other)


def test_planted_words_hold_a_repetition_and_clean_words_do_not():
    ctx = workloads.Context.create(apavoid, run.ROOT)
    pool, extra = workloads.build(ctx, "check", 9, tiny=True)
    scans = [t for t in pool + extra if t.kind == "scan"]
    assert any(t.args["planted"] for t in scans) and any(not t.args["planted"] for t in scans)
    for task in scans:
        a = task.args
        hit = apavoid.find_repetition(a["word"], a["threshold"], strict=a["strict"],
                                      min_period=a["min_period"], differences=a["differences"])
        assert (hit is not None) == a["planted"]


def test_max_exponent_by_runs_matches_the_brute_force_oracle():
    for text in ("0", "00", "0101", "0010011000110110", "2131243121342431", "01101001"):
        seq = bytes(int(c) for c in text)
        assert gate.max_exponent_by_runs(seq) == oracles.max_exponent_scan(list(seq))


# ---------------------------------------------------------------- smoke runs through the gate


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_the_gate(workload, trace):
    report = run.measure(workload, 4, 0.0, trace, tiny=True, min_tasks=10, probes=1)
    assert report["errors"] == []
    assert report["failed"] == 0 and report["attempted"] >= 10
    line = json.loads(run.result_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert report["self_s_sum"] == pytest.approx(report["last_traced_wall_s"], rel=0.05)


def test_traced_counts_repeat_run_to_run():
    first = run.measure("search", 4, 0.0, True, tiny=True, min_tasks=10, probes=1)
    again = run.measure("search", 4, 0.0, True, tiny=True, min_tasks=10, probes=1)
    counts = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name


def test_absent_layer_drops_only_its_metrics(monkeypatch):
    monkeypatch.delattr(apavoid.lattice, "grid_search")
    report = run.measure("grid", 4, 0.0, True, tiny=True, min_tasks=10, probes=1)
    assert report["failed"] == 0
    assert report["absent"] == ["lattice.grid_search"]
    assert not any(name.startswith("lattice.grid_search") for name in report["metrics"])
    assert report["metrics"]["lattice.verify_grid.lines"]["value"] > 0


def test_a_wrong_verdict_raises_the_error_rate(monkeypatch):
    real = apavoid.find_repetition

    def never_finds(word, threshold, **kwargs):
        real(word, threshold, **kwargs)
        return None

    monkeypatch.setattr(apavoid, "find_repetition", never_finds)
    report = run.measure("check", 4, 0.0, False, tiny=True, min_tasks=10, probes=1)
    assert report["failed"] > 0 and report["error_rate"] > 0
    assert any("differs from the brute-force scan" in err for err in report["errors"])
    assert json.loads(run.result_line(report))["correct"] is False


def test_witness_check_rejects_a_wrong_period():
    seq = bytes([0, 1, 0, 1, 1])
    good = (1, 0, 5, 0, 2, Fraction(2))
    assert gate.witness_error(seq, good, Fraction(2), False, 1) is None
    bad = (1, 0, 5, 0, 1, Fraction(4))
    assert "smallest period" in gate.witness_error(seq, bad, Fraction(2), False, 1)
