import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import numpy as np

import divilab
import divilab.experiments as exp
from divilab import SpfSieve, build_sieve
from divilab.cli import dispatch
from divilab.sieve import DEFAULT_LIMIT_CAP

from oracles import naive_delta


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def strip_time(line):
    rec = json.loads(line)
    rec.pop("wall_time", None)
    return rec


def test_fn_n1(capsys):
    code, out = run(capsys, "fn", "--n", "1", "--what", "delta")
    assert code == 0
    assert out.strip().splitlines()[1] == "1,1"


def test_fn_g(capsys):
    code, out = run(capsys, "fn", "--n", "12", "--what", "g")
    assert code == 0
    assert out.splitlines() == ["n,value", "12,3.08333333333"]


def test_fn_delta_range(capsys):
    code, out = run(capsys, "fn", "--range", "1:4", "--what", "delta")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert rows == ["1,1", "2,2", "3,1", "4,2"]


def test_fn_er_and_ftheta(capsys):
    code, out = run(capsys, "fn", "--n", "12", "--what", "er:2")
    assert code == 0
    assert out.strip().splitlines()[1].startswith("12,0.693147")
    code, out = run(capsys, "fn", "--n", "12", "--what", "ftheta:0.5")
    assert out.strip().splitlines()[1] == "12,0.5"


def test_fn_range_refuses_bad_parameters_before_any_window(capsys, monkeypatch):
    # a bad R or T exits 2 for a range as for one n, before a window is walked
    monkeypatch.setattr("divilab.tables._pairs", None)
    for what in ("ftheta:1.5", "ftheta:nan", "er:0"):
        for where in (("--n", "12"), ("--range", "1:100")):
            code = dispatch(["fn", *where, "--what", what])
            out, err = capsys.readouterr()
            assert (code, out) == (2, ""), (what, where)
            assert err.startswith("domain error: "), err


def test_fn_range_skips_only_undefined_rows(capsys):
    # tau(n) > 3 for n = 6, 8, 10, 12 alone; tau(n) < 2 for n = 1 alone
    for what, rows in (("er:3", 4), ("ftheta:0.5", 11)):
        code, out = run(capsys, "fn", "--range", "1:12", "--what", what, "--format", "json")
        values = json.loads(out)["values"]
        assert (code, values["rows"], values["skipped"]) == (0, rows, 12 - rows), what


def test_fn_n_and_range_are_exclusive(capsys):
    for where in (("--n", "12", "--range", "1:4"), ()):
        code = dispatch(["fn", *where, "--what", "delta"])
        out, err = capsys.readouterr()
        assert (code, out) == (64, ""), where
        assert err == "usage error: fn needs exactly one of --n/--range\n"


def test_fn_range_memory_does_not_grow_with_its_length(tmp_path, monkeypatch):
    """`fn --range` writes its CSV rows, or counts them for the JSON record,
    as each window's rows are made: 1000 and 20000 integers peak within
    2 MB of each other, where holding every row takes about 5 MB more."""
    import tracemalloc

    monkeypatch.setattr("divilab.tables._PAIR_WINDOW", 256)
    out = tmp_path / "rows.csv"

    def fn_range(n, fmt):
        return dispatch(["fn", "--range", f"10000:{9999 + n}", "--what", "tauplus",
                         "--format", fmt, "--out", str(out)])

    fn_range(20000, "json")  # fills the interpreter's free lists of small tuples first
    for fmt in ("csv", "json"):
        peaks = []
        for n in (1000, 20000):
            tracemalloc.start()
            try:
                assert fn_range(n, fmt) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2 * 2**20, (fmt, peaks)
    assert json.loads(out.read_text())["values"]["rows"] == 20000


def test_fn_range_sums_match_scan_kernels(capsys):
    # the per-n spectra against two kernels that never form one: the
    # windowed Delta of s_avg and the tau^+ bitmask of t_sum
    x = 70000
    code, out = run(capsys, "fn", "--range", f"1:{x}", "--what", "delta")
    rows = out.splitlines()[1:]
    assert code == 0 and len(rows) == x
    assert sum(int(r.split(",")[1]) for r in rows) == round(exp.s_avg(x) * x)
    code, out = run(capsys, "fn", "--range", f"1:{x}", "--what", "tauplus")
    rows = out.splitlines()[1:]
    assert code == 0 and len(rows) == x
    assert sum(int(r.split(",")[1]) for r in rows) == exp.t_sum(x)[0]


def test_lambda_median(capsys):
    code, out = run(capsys, "lambda", "--k", "2", "--median")
    assert code == 0
    rec = json.loads(out)
    assert rec["values"]["p_star"] == 37


def test_lambda_row_csv(capsys):
    code, out = run(capsys, "lambda", "--k", "1", "--pmax", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,lambda,cumsum"
    assert len(lines) == 5
    assert lines[1].startswith("2,0.5,0.5")


def test_lambdad_exact(capsys):
    code, out = run(capsys, "lambdad", "--k", "3", "--d", "4")
    assert code == 0
    rec = json.loads(out)
    assert rec["values"]["point"] == pytest.approx(1 / 6, abs=1e-9)
    assert rec["values"]["method"] == "exact_period"


def test_lambdad_mc_needs_seed(capsys):
    code, _ = run(capsys, "lambdad", "--k", "3", "--d", "30", "--method", "mc")
    assert code == 64


def _printed_ends(out):
    """A record's printed lower and upper ends, read exactly as written."""
    values = json.loads(out, parse_float=Fraction)["values"]
    return values["lower"], values["upper"]


def test_multiples_exact(capsys):
    code, out = run(capsys, "multiples", "--interval", "4:8", "--density", "exact")
    assert code == 0
    rec = json.loads(out)
    assert rec["values"]["point"] == pytest.approx(17 / 35, abs=1e-10)
    assert rec["values"]["method"] == "exact_ie"
    assert rec["values"]["exact"] == "17/35"
    # the printed ends hold the exact density, one 12th digit apart
    lower, upper = _printed_ends(out)
    assert lower <= Fraction(17, 35) <= upper <= lower + Fraction(1, 10**12)
    # 30 generators: the valuation DP finishes within its state budget
    code, out = run(capsys, "multiples", "--interval", "1000:1030", "--density", "exact")
    assert code == 0
    rec = json.loads(out)
    assert rec["values"]["method"] == "exact_ie"
    assert rec["values"]["point"] == pytest.approx(0.0286149, abs=1e-7)


def test_multiples_sieve_and_log_ends(capsys):
    # the exact share up to x, 485714/10^6: its float ends lie one ulp outside
    # it, so the ends printed outward lie one 12th digit outside it
    code, out = run(capsys, "multiples", "--interval", "4:8", "--density", "sieve:1000000")
    assert code == 0
    values = json.loads(out)["values"]
    assert values["point"] == 0.485714
    lower, upper = _printed_ends(out)
    assert (lower, upper) == (Fraction("0.485713999999"), Fraction("0.485714000001"))
    assert values["method"] == "sieve_count"
    code, out = run(capsys, "multiples", "--interval", "4:8", "--density", "log:100000")
    assert code == 0
    values = json.loads(out)["values"]
    assert values["lower"] <= values["point"] <= values["upper"]
    assert values["upper"] - values["lower"] < 1e-9
    assert values["method"] == "logarithmic"


def test_multiples_bonferroni(capsys):
    code, out = run(capsys, "multiples", "--gens", "2,3", "--density", "bonferroni:1")
    assert code == 0
    lower, upper = _printed_ends(out)  # the depth-1 bracket [2/3, 5/6], printed outward
    assert lower <= Fraction(2, 3) and Fraction(5, 6) <= upper
    assert upper - lower <= Fraction(1, 6) + Fraction(2, 10**12)


def test_multiples_deep_set_exits_0(capsys):
    """2p over the first 500 odd primes nests the DP's states 500 deep; the
    line answers exact_ie with (1/2)(1 - prod(1 - 1/p)), not a traceback."""
    primes = [p for p in range(3, 3582) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    assert len(primes) == 500
    code, out = run(capsys, "multiples", "--gens", ",".join(str(2 * p) for p in primes))
    assert code == 0
    values = json.loads(out)["values"]
    want = (1 - math.prod(1 - Fraction(1, p) for p in primes)) / 2
    assert values["method"] == "exact_ie" and Fraction(values["exact"]) == want


@pytest.mark.parametrize("family, J, gens", [
    ("a_lambda:1", 3, [*range(3, 6), *range(8, 15), *range(21, 41)]),  # (e^j, 2 e^j]
    ("theorem3:1,1,1,1", 2, [*range(17, 33), *range(33, 56)]),  # (16, 32], (32, 32 sqrt 3]
    ("besicovitch", 2, [*range(5, 9), *range(17, 33)]),  # (4, 8], (16, 32]
])
def test_multiples_family(capsys, family, J, gens):
    # a family's blocks give the record of their integers as plain generators
    code, out = run(capsys, "multiples", "--family", family, "--J", str(J))
    assert code == 0
    assert strip_time(out) == strip_time(run(capsys, "multiples", "--gens",
                                             ",".join(map(str, gens)))[1])


def test_multiples_unknown_family(capsys):
    code = dispatch(["multiples", "--family", "nope"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (64, "", "usage error: unknown family 'nope'\n")


def test_multiples_sequential(capsys):
    code, out = run(capsys, "multiples", "--gens", "2,3,5", "--density", "seq:2,3,5")
    rec = json.loads(out)
    pts = [e["point"] for e in rec["values"]["sequence"]]
    assert pts == pytest.approx([0.5, 2 / 3, 11 / 15])


def test_exp_constants(capsys):
    code, out = run(capsys, "exp", "--preset", "constants")
    rec = json.loads(out)
    assert rec["values"]["delta"] == pytest.approx(0.0860713320559, abs=1e-10)
    assert rec["values"]["tag"] == "exact"


def _rho1(out):
    """The printed rho1 record, its ends read exactly as written."""
    rho = json.loads(out, parse_float=Fraction)["values"]["rho1"]
    return rho, Fraction(rho["lower"]), Fraction(rho["upper"])


def test_exp_eps(capsys):
    # eps = 1/2 and eps1 = 5/12 on (2, 4]: rho1 = 5/6, printed as exact
    code, out = run(capsys, "exp", "--preset", "eps", "--y", "2", "--z", "4", "--x", "100")
    values = json.loads(out)["values"]
    assert values["eps"]["method"] == "exact_ie"
    assert (values["eps"]["exact"], values["eps1"]["exact"]) == ("1/2", "5/12")
    rho, lower, upper = _rho1(out)
    assert rho["method"] == "exact_ie" and rho["exact"] == "5/6"
    assert float(rho["point"]) == pytest.approx(5 / 6, abs=1e-11)
    assert lower <= Fraction(5, 6) <= upper <= lower + Fraction(1, 10**12)
    code, out = run(capsys, "exp", "--preset", "eps", "--y", "10", "--z", "40")
    assert code == 0
    values = json.loads(out)["values"]
    assert values["eps"]["method"] == values["eps1"]["method"] == "exact_ie"
    assert values["rho1"]["method"] == "exact_ie"


def test_exp_eps_bracket_past_budget(capsys, monkeypatch):
    """Past the state budget rho1 is a valuation_bracket whose printed ends
    hold the exact ratio, and no end passes 1."""
    e, e1, _ = exp.eps_pair(1000, 1024, 10**6)
    truth = e1.exact / e.exact
    monkeypatch.setattr(divilab.multiples, "MAX_DP_STATES", 20)
    code, out = run(capsys, "exp", "--preset", "eps", "--y", "1000", "--z", "1024",
                    "--x", "10000")
    assert code == 0
    rho, lower, upper = _rho1(out)
    assert rho["method"] == "valuation_bracket" and "exact" not in rho
    assert lower <= truth <= upper <= 1 and lower < upper


def test_exp_dtheta(capsys):
    code, out = run(capsys, "exp", "--preset", "dtheta", "--theta", "golden", "--n", "12")
    rec = json.loads(out)
    assert rec["values"]["argmin_d"] == 3
    assert rec["values"]["min"] == pytest.approx(0.145898, abs=1e-5)
    code, out = run(capsys, "exp", "--preset", "dtheta", "--theta", "1/3", "--n", "1")
    assert code == 0
    assert json.loads(out)["values"]["argmin_d"] == 1  # the only divisor of 1


def test_exp_dtheta_sqrt2(capsys):
    code, out = run(capsys, "exp", "--preset", "dtheta", "--theta", "sqrt2")
    assert code == 0
    rec = json.loads(out)
    assert rec["params"]["theta"] == "sqrt2"
    values = rec["values"]
    # n = 12 by default: 12 sqrt 2 = 16.9706 is the divisor multiple nearest an integer
    dist = {d: abs(d * math.sqrt(2) - round(d * math.sqrt(2))) for d in (1, 2, 3, 4, 6, 12)}
    assert (values["n"], values["argmin_d"]) == (12, min(dist, key=dist.get))
    assert values["min"] == pytest.approx(dist[12], abs=1e-11)
    # the convergents of sqrt 2 have q_j ~ (1 + sqrt 2)^j, so the exponents fall toward 1
    growth = values["growth_exponents"]
    assert len(growth) == 9 and all(a > b > 1 for a, b in zip(growth, growth[1:]))


def test_exp_dtheta_nonpositive_n(capsys):
    """n = 0 is a domain error like n = -5, not a silent answer for n = 12."""
    for n in ("0", "-5"):
        code, out = run(capsys, "exp", "--preset", "dtheta", "--theta", "golden", "--n", n)
        assert code == 2
        assert out == ""


def test_exp_preset_smoke(capsys):
    code, out = run(capsys, "exp", "--preset", "nu", "--x", "5000")
    assert code == 0
    assert out.splitlines()[0] == "grid,value"
    code, out = run(capsys, "exp", "--preset", "pplus", "--x", "5000", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert 0.4 < rec["values"]["frac_up"] < 0.6
    code, out = run(capsys, "exp", "--preset", "erdos-kac", "--x", "5000",
                    "--format", "json")
    assert json.loads(out)["values"]["ks_vs_gaussian"] > 0
    code, out = run(capsys, "exp", "--preset", "totients", "--x", "50")
    assert code == 0
    code, out = run(capsys, "exp", "--preset", "tsum", "--x", "2000", "--threads", "2")
    rec = json.loads(out)
    assert rec["values"]["direct"] == rec["values"]["dyadic"]
    code, out = run(capsys, "exp", "--preset", "median-primes", "--k", "1,2")
    rec = json.loads(out)
    assert rec["values"]["p1_star"] == 3 and rec["values"]["p2_star"] == 37
    assert rec["values"]["p1_tie_at"] == 2


def test_unknown_flag_is_usage_error(capsys):
    code, _ = run(capsys, "fn", "--n", "12", "--what", "g", "--bogus")
    assert code == 64
    code, _ = run(capsys, "nothing")
    assert code == 64
    code, _ = run(capsys, "fn", "--n", "12", "--what", "er:abc")
    assert code == 64
    code, _ = run(capsys, "multiples", "--interval", "4-8", "--density", "exact")
    assert code == 64
    code, _ = run(capsys, "multiples", "--interval", "3x:54", "--density", "exact")
    assert code == 64
    code, _ = run(capsys, "exp", "--preset", "dtheta", "--theta", "1/0")
    assert code == 64
    # no preset reads a seed, so exp takes none
    code, _ = run(capsys, "exp", "--preset", "constants", "--seed", "3")
    assert code == 64


def test_domain_error_exit(capsys):
    code, _ = run(capsys, "fn", "--n", "4", "--what", "er:9")
    assert code == 2
    code, _ = run(capsys, "exp", "--preset", "dtheta", "--theta", "nan")
    assert code == 2
    code, _ = run(capsys, "multiples", "--interval", "4:8", "--density", "log:1")
    assert code == 2


def test_resource_error_exit(capsys):
    code, _ = run(capsys, "sieve", "--limit", str(10**13))
    assert code == 3


def test_sieve_cache_env(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "spf.dvl"
    monkeypatch.setenv("DIVILAB_CACHE", str(cache))
    code, out = run(capsys, "sieve", "--limit", "5000")
    assert code == 0
    assert cache.exists()
    # fn reads no sieve and leaves the cache as `sieve` wrote it
    code, out = run(capsys, "fn", "--n", "12", "--what", "tauplus")
    assert code == 0
    assert out.strip().splitlines()[1] == "12,5"


def test_sieve_cache_flag_only_on_sieve(tmp_path, capsys):
    code, _ = run(capsys, "lambdad", "--k", "3", "--d", "4",
                  "--sieve-cache", str(tmp_path / "missing" / "x.dvl"))
    assert code == 64


def test_sieve_replaces_small_cache(tmp_path, capsys):
    cache = tmp_path / "spf.dvl"
    code, _ = run(capsys, "sieve", "--limit", "1000", "--sieve-cache", str(cache))
    assert code == 0 and SpfSieve.load(cache).limit == 1000
    code, out = run(capsys, "sieve", "--limit", "5000", "--sieve-cache", str(cache))
    assert code == 0
    assert json.loads(out)["values"]["cached"] is True
    assert np.array_equal(SpfSieve.load(cache).spf, build_sieve(5000).spf)
    # a cache that covers the limit is read, not rewritten
    stamp = cache.stat().st_mtime_ns
    code, out = run(capsys, "sieve", "--limit", "3000", "--sieve-cache", str(cache))
    assert code == 0 and json.loads(out)["values"]["limit"] == 5000
    assert cache.stat().st_mtime_ns == stamp


WHATS = ("delta", "delta-mu", "tauplus", "g", "er:1", "er:3", "ftheta:0.5")
# CSV values of `fn --n N --what W` for W in WHATS, as the SPF-table CLI
# printed them; None marks exit 2 (tau(1) is too small for E_r and F_theta).
FN_VALUES = {
    1: ("1", "1", "1", "0", None, None, None),
    12: ("3", "2", "5", "3.08333333333", "0.287682072452", "1.09861228867", "0.5"),
    720720: ("39", "7", "21", "226.503557554", "0.00696866931609", "0.0492710490068",
             "0.9875"),
    19500001: ("1", "1", "4", "0.0192787169601", "4.67282883446", "16.7859250748", "0"),
    39500001: ("4", "2", "23", "18.7553832973", "0.0546719990329", "0.815036998169",
               "0.53125"),
    # 6323 * 6329, 9973^2, a prime and the cap, as the window route printed
    # them, but E_1(6323 * 6329) = ln(6329/6323) = 0.00094846671669215..., which
    # a difference of float logs printed as 0.000948466716691
    40018267: ("2", "2", "3", "0.999368288487", "0.000948466716692", "17.5048465828", "0.25"),
    99460729: ("1", "1", "3", "0.000200541461947", "9.2076367204", None, "0"),
    39999983: ("1", "1", "2", "2.5000010625e-08", "17.5043895871", None, "0"),
    DEFAULT_LIMIT_CAP: ("9", "2", "30", "80.8545", "0.0237165266173", "0.246860077932",
                        "0.949494949495"),
}


@pytest.mark.parametrize("n", sorted(FN_VALUES))
def test_fn_outputs_fixed(n, capsys):
    for what, value in zip(WHATS, FN_VALUES[n]):
        code, out = run(capsys, "fn", "--n", str(n), "--what", what)
        if value is None:
            assert (code, out) == (2, "")
            continue
        assert (code, out) == (0, f"n,value\n{n},{value}\n")
        code, out = run(capsys, "fn", "--n", str(n), "--what", what, "--format", "json")
        assert code == 0
        assert strip_time(out) == {
            "artifact_version": divilab.__version__, "command": "fn",
            "params": {"range": [n, n], "what": what},
            "values": {"rows": 1, "skipped": 0, "tag": "exact", "value": float(value)}}


# stdout of the local-law commands as the per-prime e_j sweep printed them,
# with the wall_time field taken out
LAMBDA_OUTPUTS = {
    ("lambda", "--k", "2", "--median"):
        '{"artifact_version": "{v}", "command": "lambda", "params": {"k": 2, "median": true}, '
        '"values": {"cum_at": 0.500247503557, "cum_before": 0.490611382861, "p_star": 37, '
        '"tag": "exact", "tie_at": null}}\n',
    ("lambda", "--k", "3", "--median"):
        '{"artifact_version": "{v}", "command": "lambda", "params": {"k": 3, "median": true}, '
        '"values": {"cum_at": 0.500001596581, "cum_before": 0.499995314848, "p_star": 42719, '
        '"tag": "exact", "tie_at": null}}\n',
    ("lambda", "--mode", "--p", "60013"):
        '{"artifact_version": "{v}", "command": "lambda", "params": {"mode": true, "p": 60013}, '
        '"values": {"k_star": 3, "lambda_star": 4.42472524435e-06, "tag": "exact"}}\n',
    ("lambda", "--k", "3", "--pmax", "30011", "--format", "json"):
        '{"artifact_version": "{v}", "command": "lambda", "params": {"k": 3, "pmax": 30011}, '
        '"values": {"partial_sum": 0.490844954744, "tag": "exact", "tail": 0.509155045256}}\n',
    ("exp", "--preset", "median-primes", "--k", "1,2,3"):
        '{"artifact_version": "{v}", "command": "exp", "params": {"k": [1, 2, 3], '
        '"preset": "median-primes"}, "values": {"p1_star": 3, "p1_tie_at": 2, "p2_star": 37, '
        '"p3_star": 42719, "tag": "exact"}}\n',
}


@pytest.mark.parametrize("argv", sorted(LAMBDA_OUTPUTS))
def test_lambda_outputs_fixed(argv, capsys):
    code, out = run(capsys, *argv)
    assert code == 0
    out = re.sub(r', "wall_time": [-+.e0-9]+', "", out)
    assert out == LAMBDA_OUTPUTS[argv].replace("{v}", divilab.__version__)


def test_lambda_row_csv_fixed(capsys):
    code, out = run(capsys, "lambda", "--k", "3", "--pmax", "30011")
    assert code == 0 and len(out.splitlines()) == 3247
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "d08aec16b515f8908d8ebcdacd2e7f60dd73fffbd15fd7dc37d7b37c8a97fa00"


def test_fn_above_cap_exits_3(capsys, monkeypatch):
    # refused before any window is walked, n trial-divided or sieve built
    monkeypatch.setattr("divilab.sieve.prime_runs", None)
    monkeypatch.setattr("divilab.tables.prime_runs", None)
    monkeypatch.setattr("divilab.tables._pairs", None)
    monkeypatch.setattr("divilab.cli.factor_int", None)
    monkeypatch.setattr(SpfSieve, "build", None)
    for n in (DEFAULT_LIMIT_CAP + 1, 2**31 - 1):
        want_err = f"resource error: sieve limit {n} exceeds cap {DEFAULT_LIMIT_CAP}\n"
        for argv in (("fn", "--n", str(n), "--what", "delta"),
                     ("fn", "--range", f"{DEFAULT_LIMIT_CAP - 5}:{n}", "--what", "delta"),
                     ("exp", "--preset", "dtheta", "--n", str(n))):
            code = dispatch(list(argv))
            assert (code, *capsys.readouterr()) == (3, "", want_err), argv


def test_queries_touch_no_sieve(tmp_path, monkeypatch, capsys):
    """fn and dtheta need no SPF table: `fn --n` and dtheta trial-divide
    their n, `fn --range` reads the divisor-pair windows.  No table is built
    or loaded, no prime segment walked, and the cache file keeps its bytes
    and mtime."""
    cache = tmp_path / "spf.dvl"
    build_sieve(1000).save(cache)
    before = (cache.read_bytes(), cache.stat().st_mtime_ns)
    monkeypatch.setenv("DIVILAB_CACHE", str(cache))

    def refuse(*args, **kwargs):
        raise AssertionError("an SPF table was built or loaded")

    monkeypatch.setattr(SpfSieve, "build", refuse)
    monkeypatch.setattr(SpfSieve, "load", refuse)
    monkeypatch.setattr("divilab.sieve.prime_runs", None)
    monkeypatch.setattr("divilab.tables.prime_runs", None)
    code, out = run(capsys, "fn", "--n", "39500001", "--what", "tauplus")
    assert (code, out) == (0, "n,value\n39500001,23\n")
    code, out = run(capsys, "fn", "--range", "1990:2010", "--what", "delta")
    assert code == 0
    assert out.splitlines()[1:] == [f"{n},{naive_delta(n)}" for n in range(1990, 2011)]
    code, out = run(capsys, "exp", "--preset", "dtheta", "--n", "720720")
    assert code == 0 and json.loads(out)["values"]["n"] == 720720
    assert (cache.read_bytes(), cache.stat().st_mtime_ns) == before


def test_prime_factor_scans_touch_no_sieve(monkeypatch, capsys):
    """omega, Omega and P^+ come from the prime runs alone: `erdos_kac`,
    `pplus_adjacency` and the erdos-kac preset build and load no SPF table."""
    def refuse(*args, **kwargs):
        raise AssertionError("an SPF table was built or loaded")

    monkeypatch.setattr(SpfSieve, "build", refuse)
    monkeypatch.setattr(SpfSieve, "load", refuse)
    assert exp.erdos_kac(5000).samples == 4998
    assert exp.erdos_kac(5000, with_multiplicity=True).samples == 4998
    assert exp.pplus_adjacency(5000).x == 5000
    code, out = run(capsys, "exp", "--preset", "erdos-kac", "--x", "5000", "--format", "json")
    assert code == 0 and json.loads(out)["values"]["samples"] == 4998


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "res.csv"
    code, out = run(capsys, "fn", "--n", "12", "--what", "delta", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text().splitlines()[1] == "12,3"


def test_determinism_json(capsys):
    a = run(capsys, "lambdad", "--k", "5", "--d", "30", "--method", "mc",
            "--samples", "20000", "--seed", "99")[1]
    b = run(capsys, "lambdad", "--k", "5", "--d", "30", "--method", "mc",
            "--samples", "20000", "--seed", "99")[1]
    assert strip_time(a) == strip_time(b)


def test_manifest(tmp_path, capsys):
    mf = tmp_path / "run.manifest"
    mf.write_text(
        "# demo manifest\n"
        "exp --preset constants\n"
        "exp --preset median-primes --k 2\n"
    )
    code, out = run(capsys, "manifest", str(mf))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["values"]["p2_star"] == 37


def test_manifest_empty(tmp_path, capsys):
    mf = tmp_path / "empty.manifest"
    mf.write_text("\n# nothing\n")
    code, out = run(capsys, "manifest", str(mf))
    assert code == 0
    assert out == ""


def test_manifest_partial_failure(tmp_path, capsys):
    mf = tmp_path / "bad.manifest"
    mf.write_text("exp --preset constants\nfn --n 4 --what er:9\n")
    code, out = run(capsys, "manifest", str(mf))
    assert code == 1
    lines = out.strip().splitlines()
    assert json.loads(lines[1])["command"] == "error"
    assert json.loads(lines[1])["error"] == "DomainError"


def test_manifest_negative_seed_goes_on(tmp_path, capsys):
    mf = tmp_path / "seed.manifest"
    mf.write_text("lambdad --k 5 --d 21 --method mc --seed -1\nlambdad --k 3 --d 4\n")
    code, out = run(capsys, "manifest", str(mf))
    assert code == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec.get("error") for rec in lines] == ["DomainError", None]
    assert lines[1]["values"]["exact"] == "1/6"


def test_manifest_streams_records(tmp_path, monkeypatch, capsys):
    from divilab import cli

    mf = tmp_path / "run.manifest"
    mf.write_text("exp --preset median-primes --k 2\n"
                  "exp --preset constants\n"
                  "sieve --limit 10000000000000\n"
                  "fn --n 12\n")
    out_path = tmp_path / "records.jsonl"
    execute = cli._execute
    seen = []

    def watched(args, cfg):
        seen.append(out_path.read_text())
        return execute(args, cfg)

    monkeypatch.setattr(cli, "_execute", watched)
    code, out = run(capsys, "manifest", str(mf), "--out", str(out_path))
    assert (code, out) == (1, "")
    assert seen[0] == ""
    assert json.loads(seen[1])["values"]["p2_star"] == 37  # line 1 was out before line 2 ran
    lines = out_path.read_text().splitlines()
    assert [json.loads(line).get("error") for line in lines] == [
        None, None, "ResourceError", "UsageError"]
    # success records are the records the subcommands print on their own
    code, alone = run(capsys, "exp", "--preset", "median-primes", "--k", "2")
    assert strip_time(lines[0]) == strip_time(alone)


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "divilab.cfg"
    cfg.write_text("threads=2\nseed=5\n")
    code, _ = run(capsys, "exp", "--preset", "constants", "--config", str(cfg))
    assert code == 0
    # config-file seed satisfies the Monte Carlo requirement
    code, out = run(capsys, "lambdad", "--k", "3", "--d", "25", "--method", "mc",
                    "--samples", "10000", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["values"]["params"]["seed"] == 5
    cfg.write_text("nonsense line\n")
    code, _ = run(capsys, "exp", "--preset", "constants", "--config", str(cfg))
    assert code == 64
    # no setting reads a sieve limit from the config file
    cfg.write_text("sieve_limit=abc\n")
    code, _ = run(capsys, "exp", "--preset", "constants", "--config", str(cfg))
    assert code == 0


def test_bad_counts_exit_codes(tmp_path, capsys, monkeypatch):
    def no_sieve(n):
        raise AssertionError(f"primes_upto({n}) was called")

    # a local law past the scan cap exits 3 before it lists a prime
    monkeypatch.setattr("divilab.sieve.primes_upto", no_sieve)
    cfg = tmp_path / "divilab.cfg"
    cfg.write_text("threads=0\n")
    table = [
        (("exp", "--preset", "tsum", "--x", "100", "--threads", "0"), 64),
        (("exp", "--preset", "tsum", "--x", "100", "--threads", "-3"), 64),
        (("exp", "--preset", "tsum", "--x", "100", "--config", str(cfg)), 64),
        (("lambdad", "--k", "5", "--d", "21", "--method", "mc", "--samples", "0",
          "--seed", "1"), 2),
        (("lambdad", "--k", "5", "--d", "21", "--method", "mc", "--seed", "-1"), 2),
        # a missing seed is a usage error on the default route past the exact cap too
        (("lambdad", "--k", "5", "--d", "31"), 64),
        (("lambdad", "--k", "5", "--d", "31", "--method", "mc"), 64),
        (("lambdad", "--k", "5", "--d", "40"), 64),
        (("lambdad", "--k", "5", "--d", "37", "--method", "exact"), 3),
        # a bad k or d is a domain error, even where the seed rule would apply
        (("lambdad", "--k", "0", "--d", "40"), 2),
        (("lambdad", "--k", "1", "--d", "0", "--method", "mc"), 2),
        # a given 0, negative or empty value is checked, not taken as absent
        (("lambda", "--mode", "--p", "0"), 2),
        (("lambda", "--mode", "--p", "-3"), 2),
        (("exp", "--preset", "eps", "--y", "0", "--z", "5"), 2),
        (("exp", "--preset", "eps", "--y", "-1", "--z", "5"), 2),
        (("exp", "--preset", "median-primes", "--k", ""), 64),
        (("lambda", "--mode", "--p", "1000000000039"), 3),
        (("lambda", "--k", "2", "--pmax", "1000000000000"), 3),
    ]
    for argv, want in table:
        code = dispatch(list(argv))
        err = capsys.readouterr().err
        assert code == want, argv
        assert "Traceback" not in err
    # the refusal of p < 2 names the function asked, not the primality test
    dispatch(["lambda", "--mode", "--p", "-3"])
    assert "lambda_mode" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    """numpy is the only runtime dependency: a fresh interpreter importing the
    CLI must not pull in scipy."""
    env = dict(os.environ)
    src = str(Path(divilab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, divilab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def _cli_child(*argv):
    """Run `python -X importtime -m divilab.cli ARGV` in a fresh interpreter;
    return the completed process and the top-level packages it imported."""
    env = dict(os.environ)
    src = str(Path(divilab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("DIVILAB_CACHE", None)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "divilab.cli", *argv],
                          env=env, capture_output=True, text=True)
    # importtime writes one "import time: self | cumulative | name" line per module
    loaded = {line.rsplit("|", 1)[1].strip().split(".")[0]
              for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc, loaded


@pytest.mark.parametrize("argv", [
    ("fn", "--n", "12", "--what", "g"),
    ("fn", "--n", "39999983", "--what", "delta"),
    ("multiples", "--interval", "4:8", "--density", "exact"),
    ("multiples", "--gens", "6,10,15", "--density", "bonferroni:1"),
    ("lambdad", "--k", "5", "--d", "21"),
])
def test_cli_lines_load_no_numpy(argv):
    """Lines that need no arrays run without importing numpy."""
    proc, loaded = _cli_child(*argv)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert "numpy" not in loaded
    assert "divilab" in loaded  # the probe sees the package's own imports


def test_cli_array_line_still_runs():
    """A line that needs arrays imports them in its handler and prints its
    fixed output."""
    proc, loaded = _cli_child("lambda", "--k", "1", "--pmax", "100")
    assert proc.returncode == 0, proc.stderr[-500:]
    assert "numpy" in loaded
    assert len(proc.stdout.splitlines()) == 26
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "a614051861c3bd5220805411a649871ee365016180228b2fb5190f48f348be42"
