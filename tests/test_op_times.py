"""The per-operation aggregation of tools/op_times.py on fixed latencies."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "op_times.py"
_spec = importlib.util.spec_from_file_location("op_times", _PATH)
op_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(op_times)

OPS = [("tau_table", 10**7), ("h_count", 10**7, 1000, 2000), ("h_count", 10**6, 10, 20),
       ("h_count", 10**7, 1050, 2100), ("erdos_kac", 10**7, True), ("multiples_count", 10**7, (6, 10)),
       ("golden", "x"), ("golden",)]
MS = 1_000_000
PASSES = [[40 * MS, 10 * MS, 1 * MS, 12 * MS, 30 * MS, 2 * MS, 3 * MS, 2 * MS],
          [60 * MS, 14 * MS, 3 * MS, 14 * MS, 30 * MS, 2 * MS, 1 * MS, 0]]


def test_op_key_takes_the_size_when_it_is_an_int():
    assert op_times.op_key(("h_count", 10**7, 1000, 2000)) == ("h_count", 10**7)
    assert op_times.op_key(("golden", "x")) == ("golden",)
    assert op_times.op_key(("golden",)) == ("golden",)


def test_aggregate_counts_means_and_shares():
    rows = op_times.aggregate(OPS, PASSES)
    # per pass: 100 ms then 124 ms, so a mean of 112 ms; slowest first, and
    # the two groups of 2 ms by name
    assert [(key, n) for key, n, _, _ in rows] == [
        (("tau_table", 10**7), 1), (("erdos_kac", 10**7), 1), (("h_count", 10**7), 2),
        (("golden",), 2), (("h_count", 10**6), 1), (("multiples_count", 10**7), 1)]
    ms = {key: value for key, _, value, _ in rows}
    assert ms[("tau_table", 10**7)] == pytest.approx(50.0)
    assert ms[("h_count", 10**7)] == pytest.approx(25.0)  # (10 + 12 + 14 + 14) / 2
    assert ms[("golden",)] == pytest.approx(3.0)  # (3 + 2 + 1 + 0) / 2
    assert ms[("h_count", 10**6)] == pytest.approx(2.0)
    share = {key: value for key, _, _, value in rows}
    assert share[("tau_table", 10**7)] == pytest.approx(50 / 112)
    assert share[("erdos_kac", 10**7)] == pytest.approx(30 / 112)
    assert sum(share.values()) == pytest.approx(1.0)


def test_aggregate_of_a_single_pass():
    rows = op_times.aggregate(OPS[:2], [PASSES[0][:2]])
    assert rows == [(("tau_table", 10**7), 1, 40.0, 0.8), (("h_count", 10**7), 1, 10.0, 0.2)]


def test_cli_session_is_refused():
    res = subprocess.run([sys.executable, str(_PATH), "--workload", "cli_session"],
                         capture_output=True, text=True)
    assert res.returncode == 2 and "child processes" in res.stderr
