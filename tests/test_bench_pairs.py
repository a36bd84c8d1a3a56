"""The BENCH_<PR>.json writer of tools/bench_pairs.py on fixed result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {"ops_per_s": {"better": "higher", "bound": 0.25},
           "latency_p50_ms": {"better": "lower", "bound": 0.25}}


def _line(ops, p50, failed=0):
    return json.dumps({"correct": True, "attempted": 100, "failed": failed, "metrics": {
        "ops_per_s": {"value": ops, "unit": "1/s"},
        "latency_p50_ms": {"value": p50, "unit": "ms"}}})


PARENT = [_line(10.0, 40.0), _line(11.0, 36.0), _line(12.0, 30.0), _line(10.5, 38.0),
          _line(9.0, 35.0)]
CHANGE = [_line(16.0, 22.0), _line(15.0, 36.0), _line(11.0, 25.0), _line(17.0, 24.0),
          _line(16.5, 40.0, failed=1)]


def test_summary_medians_quartiles_and_pairs():
    rec = bench_pairs.summarize(PARENT, CHANGE, METRICS)
    assert rec["pairs"] == 5
    assert rec["parent"] == {"correct": True, "attempted": 500, "failed": 0}
    assert rec["change"]["failed"] == 1
    ops = rec["metrics"]["ops_per_s"]
    assert ops["unit"] == "1/s" and ops["better"] == "higher"
    # parent 9, 10, 10.5, 11, 12 and change 11, 15, 16, 16.5, 17, sorted
    assert (ops["parent"]["q1"], ops["parent"]["median"], ops["parent"]["q3"]) == (10.0, 10.5, 11.0)
    assert (ops["change"]["q1"], ops["change"]["median"], ops["change"]["q3"]) == (15.0, 16.0, 16.5)
    assert ops["parent"]["runs"] == [10.0, 11.0, 12.0, 10.5, 9.0]
    assert (ops["pairs_won"], ops["pairs_lost"]) == (4, 1)  # pair 3: 12 -> 11
    p50 = rec["metrics"]["latency_p50_ms"]
    assert p50["parent"]["median"] == 36.0 and p50["change"]["median"] == 25.0
    assert (p50["pairs_won"], p50["pairs_lost"]) == (3, 1)  # pair 2 ties, pair 5 loses
    # medians improve and both parents' quartile distances lie within the bounds
    assert not (ops["regressed"] or ops["unresolved"] or p50["regressed"] or p50["unresolved"])


def _flags(parent, change, better, bound=0.25):
    """(regressed, unresolved) of one metric over runs with these values."""
    lines = lambda values: [_line(v, 1.0) for v in values]
    rec = bench_pairs.summarize(lines(parent), lines(change),
                                {"ops_per_s": {"better": better, "bound": bound}})
    m = rec["metrics"]["ops_per_s"]
    return m["regressed"], m["unresolved"]


def test_regressed_when_the_median_moves_past_the_bound():
    # parent median 10, bound 0.25: a higher-is-better median may fall to 7.5
    assert _flags([10] * 5, [8] * 5, "higher") == (False, False)
    assert _flags([10] * 5, [7] * 5, "higher") == (True, False)
    # lower is better: the median may rise to 12.5
    assert _flags([10] * 5, [12] * 5, "lower") == (False, False)
    assert _flags([10] * 5, [13, 13, 13, 9, 9], "lower") == (True, False)


def test_unresolved_when_the_parent_spreads_past_the_bound():
    wide = [6, 10, 14, 8, 12]  # median 10, quartiles 8 and 12: distance 4 > 2.5
    assert _flags(wide, [13, 15, 16, 17, 18], "higher") == (False, True)
    # every change run beats every parent run: the spread cannot hide it
    assert _flags(wide, [15, 15, 16, 17, 18], "higher") == (False, False)
    assert _flags(wide, [5, 4, 3, 2, 1], "lower") == (False, False)
    assert _flags(wide, [5, 4, 3, 2, 6], "lower") == (False, True)
    # a wider bound covers the spread
    assert _flags(wide, [9, 10, 11, 10, 10], "higher", bound=0.5) == (False, False)
    # the change's median can regress within the parent's wide spread too
    assert _flags(wide, [7, 7, 7, 7, 7], "higher") == (True, True)


def test_write_replaces_an_earlier_file(tmp_path):
    out = tmp_path / "bench.json"
    ids = {"sha": "a" * 40, "dirty": False}, {"sha": "b" * 40, "dirty": True}
    rec = bench_pairs.summarize(PARENT, CHANGE, METRICS)
    bench_pairs.write(out, *ids, {"w1": rec, "w2": rec}, {"seconds": 10})
    doc = bench_pairs.write(out, *ids, {"w3": rec}, {"seconds": 10})
    assert sorted(doc["workloads"]) == ["w3"]
    assert json.loads(out.read_text()) == doc
    assert doc["parent"]["sha"] == "a" * 40 and doc["change"]["dirty"] is True


def test_run_length_and_directions_come_from_benchmark_json():
    seconds, metrics = bench_pairs.bench_spec(_PATH.parent.parent)
    spec = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
    assert seconds == spec["run_seconds"]
    assert metrics["ops_per_s"]["better"] == "higher"
    assert metrics["latency_p50_ms"]["better"] == "lower"
    assert {m["name"]: m["bound"] for m in spec["end_to_end"]} == {
        name: m["bound"] for name, m in metrics.items()}
    assert bench_pairs.PAIRS == 10


def test_summary_needs_paired_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarize(PARENT, CHANGE[:4], METRICS)
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], METRICS)
