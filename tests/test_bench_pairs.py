"""The BENCH_<PR>.json writer of tools/bench_pairs.py on fixed result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "latency_p50_ms": "lower"}


def _line(ops, p50, failed=0):
    return json.dumps({"correct": True, "attempted": 100, "failed": failed, "metrics": {
        "ops_per_s": {"value": ops, "unit": "1/s"},
        "latency_p50_ms": {"value": p50, "unit": "ms"}}})


PARENT = [_line(10.0, 40.0), _line(11.0, 36.0), _line(12.0, 30.0), _line(10.5, 38.0),
          _line(9.0, 35.0)]
CHANGE = [_line(16.0, 22.0), _line(15.0, 36.0), _line(11.0, 25.0), _line(17.0, 24.0),
          _line(16.5, 40.0, failed=1)]


def test_summary_medians_quartiles_and_pairs():
    rec = bench_pairs.summarize(PARENT, CHANGE, BETTER)
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


def test_write_replaces_an_earlier_file(tmp_path):
    out = tmp_path / "bench.json"
    ids = {"sha": "a" * 40, "dirty": False}, {"sha": "b" * 40, "dirty": True}
    rec = bench_pairs.summarize(PARENT, CHANGE, BETTER)
    bench_pairs.write(out, *ids, {"w1": rec, "w2": rec}, {"seconds": 10})
    doc = bench_pairs.write(out, *ids, {"w3": rec}, {"seconds": 10})
    assert sorted(doc["workloads"]) == ["w3"]
    assert json.loads(out.read_text()) == doc
    assert doc["parent"]["sha"] == "a" * 40 and doc["change"]["dirty"] is True


def test_run_length_and_directions_come_from_benchmark_json():
    seconds, better = bench_pairs.bench_spec(_PATH.parent.parent)
    spec = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
    assert seconds == spec["run_seconds"]
    assert better["ops_per_s"] == "higher" and better["latency_p50_ms"] == "lower"
    assert bench_pairs.PAIRS == 10


def test_summary_needs_paired_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarize(PARENT, CHANGE[:4], BETTER)
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], BETTER)
