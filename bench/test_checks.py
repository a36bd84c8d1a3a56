"""The benchmark's checks must fail a wrong answer.

Each test takes a real output of the program, confirms the checker accepts
it, then feeds the checker the same output made wrong in one place (a count
off by one, a density shifted by 1e-6, a swapped statistic) and expects a
failure.  Run with `python3 -m pytest bench/test_checks.py -q`.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import cli_session  # noqa: E402
import exact_queries  # noqa: E402
import harness  # noqa: E402
import per_integer  # noqa: E402
import range_scan  # noqa: E402
import refs  # noqa: E402


@pytest.fixture(scope="module")
def integer_workload():
    wl = per_integer.PerInteger()
    wl.setup()
    return wl


def _answer(wl, op):
    return wl.summarize(op, wl.run(op))


@pytest.mark.parametrize("op", [("delta", 8648640), ("tau_plus", 720720), ("basic_fns", 9699690),
                                ("dtheta_min", 5040), ("g_sum", 27720)])
def test_per_integer_accepts_the_program(integer_workload, op):
    assert integer_workload.check(op, _answer(integer_workload, op))


def test_per_integer_rejects_wrong_answers(integer_workload):
    wl = integer_workload
    delta = _answer(wl, ("delta", 8648640))
    assert not wl.check(("delta", 8648640), delta + 1)  # off by one
    tau_plus = _answer(wl, ("tau_plus", 8648640))
    assert tau_plus != delta
    assert not wl.check(("delta", 8648640), tau_plus)  # swapped statistic
    g = _answer(wl, ("g_sum", 27720))
    assert not wl.check(("g_sum", 27720), g + 1e-6)
    basic = list(_answer(wl, ("basic_fns", 9699690)))
    basic[2], basic[3] = basic[3] + 1, basic[2]  # omega and Omega swapped and bumped
    assert not wl.check(("basic_fns", 9699690), tuple(basic))
    value, d = _answer(wl, ("dtheta_min", 5040))
    assert not wl.check(("dtheta_min", 5040), (value, d + 1))


def _scan(op):
    wl = range_scan.RangeScan()
    wl.setup()
    return wl, range_scan.summarize(op, wl.run(op))


@pytest.mark.parametrize("op, corrupt", [
    (("h_count", 10**4, 100, 200), lambda v: v + 1),
    (("psi1_count", 10**4, 50), lambda v: v - 1),
    (("multiples_count", 10**4, (48, 80, 1001)), lambda v: v + 1),
    (("omega_median_count", 10**4), lambda v: v + 1),
    (("tau_table", 10**4), lambda v: (v[0], v[1] + 1, v[2])),
    (("erdos_kac", 10**4, False), lambda v: (v[0], (v[1][0], v[1][2], v[1][1]) + v[1][3:], v[2])),
    (("erdos_kac", 10**4, True), lambda v: (v[0], v[1], v[2] + 1e-6)),
    (("pplus_adjacency", 10**4), lambda v: (v[0] + 1e-4,) + v[1:]),
    (("log_density", 10**4, (101, 102, 103)), lambda v: (v[0] + 1e-6,) + v[1:]),
    (("me_fractions", 10**5), lambda v: (v[0] + 1e-4, v[1])),
    (("build_sieve", 10**4), lambda v: (v[0], v[1] + 1, v[2])),
    (("t_sum", 2000), lambda v: (v[0] + 1, v[1] + 1)),
    (("s_avg", 2000), lambda v: v + 1e-6),
    (("dtheta_exponent_stats", 10, 2000), lambda v: (v[0], v[1] + 1e-6)),
])
def test_range_scan_checks(op, corrupt):
    wl, good = _scan(op)
    assert wl.check(op, good)
    assert not wl.check(op, corrupt(good))


@pytest.fixture(scope="module")
def query_workload():
    wl = exact_queries.ExactQueries()
    wl.setup()
    return wl


def _shift(est, by=1e-6):
    return (est[0] + by, est[1] + by, est[2] + by, est[3],
            None if est[4] is None else est[4] + Fraction(1, 10**6))


@pytest.mark.parametrize("op, corrupt", [
    (("exact_ie", (48, 80, 1001, 1155, 3003, 4095)), _shift),  # divisors of 720720
    (("exact_ie", tuple(range(1001, 1013))), lambda e: (e[0], e[1] + 1e-2, e[2] + 1e-2, e[3], e[4])),
    (("bonferroni", exact_queries.POOL[:30], 1), lambda e: (e[0], e[2], e[2] + 1e-3, e[3], e[4])),
    (("sequential_density", exact_queries.POOL[:8], (exact_queries.POOL[3], exact_queries.POOL[7])),
     lambda seq: (seq[0], _shift(seq[1]))),
    (("behrend_ineq_check", (48, 80), (1001, 1155)), lambda v: (v[0] + 1e-6, v[1], v[2])),
    (("Lambda_kd", 3, 12), _shift),
    (("median_prime", 2), lambda v: v + 4),
    (("lambda_mode", 7919), lambda v: (v[0] + 1, v[1])),
    (("lambda_row", 2, 1000), lambda v: (v[0] + 1e-6, v[1], v[2], v[3])),
    (("unimodal_check", (7919, 7927)), lambda v: (False,) + v[1:]),
    (("eps_pair", 1000, 1012), lambda v: (v[0], v[1], v[2] + 1e-6)),
    (("remainder_Rn", 12, 10**5), lambda v: (v[0], v[2] + 1, v[2])),
])
def test_exact_query_checks(query_workload, op, corrupt):
    good = exact_queries.summarize(op, query_workload.run(op))
    assert query_workload.check(op, good)
    assert not query_workload.check(op, corrupt(good))


def test_failed_operations_counted_in_every_pass():
    class Flaky(harness.Workload):
        name = "flaky"

        def run(self, op):
            if op == 3:
                raise ValueError("always")
            return op

        def check(self, op, out):
            return out != 1  # op 1 gives a wrong answer

    wl = Flaky()
    ops = list(range(harness.MIN_OPS_FOR_TAIL))
    res = harness.timed_passes(wl, ops, seconds=1e-3)
    ok = harness.check_first_pass(wl, ops, res)
    assert [i for i, good in enumerate(ok) if not good] == [1, 3]
    assert res.passes >= 1
    assert harness.count_failed(ok, res) == 2 * res.passes


def _cli_text(argv):
    wl = cli_session.CliSession(traced=True)
    return wl.summarize(argv, wl._dispatch(argv))


@pytest.mark.parametrize("argv, corrupt", [
    (("fn", "--n", "720720", "--what", "delta"), lambda t: t.replace(",", ",1")),
    (("fn", "--range", "100:140", "--what", "tauplus"), lambda t: t.replace("\n120,", "\n120,1")),
    (("lambda", "--k", "3", "--median"), lambda t: t.replace("42719", "42720")),
    (("lambdad", "--k", "3", "--d", "12"), lambda t: _bump(t, "point", 1e-6)),
    (("multiples", "--gens", "48,80,1001", "--density", "exact"), lambda t: _bump(t, "point", 1e-6)),
    (("exp", "--preset", "constants"), lambda t: _bump(t, "c_pseudo", 1e-6)),
])
def test_cli_checks(argv, corrupt):
    ref = cli_session.References(manifest=[])
    code, text = _cli_text(argv)
    assert ref.check(argv, (code, text))
    assert not ref.check(argv, (code, corrupt(text)))
    assert not ref.check(argv, (2, text))


def _bump(text: str, key: str, by: float) -> str:
    body = json.loads(text)
    body["values"][key] += by
    return json.dumps(body)


def test_references_agree_with_the_oracles():
    import oracles

    x = 10**4
    tables = refs.factor_tables(x, refs.spf_table(x, refs.primes_upto(x)))
    counts = np.bincount(tables["omega"][3:x + 1])
    assert abs(range_scan.ks_distance(counts, x) - oracles.naive_erdos_kac_ks(x)) <= 1e-9
    lists = refs.divisor_lists(300)
    assert [refs.delta_of(d) for d in lists[1:]] == [oracles.naive_delta(n) for n in range(1, 301)]
    assert [refs.tau_plus_of(d) for d in lists[1:]] == [oracles.naive_tau_plus(n) for n in range(1, 301)]
