"""Acceptance suite: one pass/fail line per criterion (run with -s to see
the lines for passing criteria; failures always show them).

Three criteria are checked in a corrected form, because no correct program
can meet them as first printed.  Each report line still quotes the original
figure; the README section "Errata in the printed criteria" gives the
reasoning:
  - 7/c_pseudo: the printed decimal 3.566509 is a slip for its own closed
    form (1 - log 2)/delta = 3.5650990 (one stray digit); the closed-form
    decimal 3.565099 is checked.
  - 11a-threshold: "M(E) fraction at 1e7 > 0.9".  M(E) has density 1
    (Maier-Tenenbaum), but its complement thins only like
    (log x)^-beta (log log x)^-3/2 with beta = 0.00415, so the fraction is
    0.491 at 1e7.  Checked instead: exact equality with the brute-force
    count at 1e4, and that rate across 1e4..1e7.
  - 11c: "Erdos-Kac KS distance at 1e7 < 0.05".  omega is integer-valued,
    so the KS distance to the normal CDF is at least half the largest atom,
    0.182 at 1e7.  Checked instead: KS strictly decreasing over 1e5..1e7,
    the Renyi-Turan rate 1/sqrt(log log x), and equality with a brute-force
    KS at 1e4.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import divilab.experiments as exp
from divilab import (
    GeneratorSet,
    Lambda_kd,
    OscWeight,
    RatioWeight,
    behrend_ineq_check,
    build_sieve,
    delta,
    delta_osc,
    density_bracket,
    divisors,
    e_r,
    f_theta,
    factor,
    g_sum,
    lambda_row,
    median_prime,
    multiples_count,
    tau_plus,
)
from divilab.cli import dispatch
from divilab.locallaws import _unimodal
from divilab.tables import tau_table, tauplus_window

from oracles import (
    naive_delta,
    naive_delta_osc,
    naive_e_r,
    naive_erdos_kac_ks,
    naive_f_theta,
    naive_g,
    naive_in_ME,
    naive_mu,
    naive_tau_plus,
    riemann_integral,
)
from test_locallaws import sweep_rows

DELTA_FORD = 0.0860713320559342


def _report(crit, ok, detail=""):
    print(f"[acceptance {crit}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {crit}: {detail}"


# ---------------------------------------------------------------------- 1

def test_criterion_01_median_primes():
    t0 = time.perf_counter()
    p2 = median_prime(2)
    p3 = median_prime(3)
    dt = time.perf_counter() - t0
    _report("1", p2 == 37 and p3 == 42719 and dt < 10.0,
            f"p2*={p2} p3*={p3} in {dt:.2f}s")


# ---------------------------------------------------------------------- 2

def test_criterion_02_row_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(1, 9):
        row = lambda_row(k, 10**5)
        worst = max(worst, abs(row.partial_sum + row.tail - 1.0))
    dt = time.perf_counter() - t0
    _report("2", worst < 1e-10 and dt < 5.0, f"worst gap {worst:.2e} in {dt:.2f}s")


# ---------------------------------------------------------------------- 3

def test_criterion_03_column_identity():
    worst = 0.0
    for p, prod, e, seen in sweep_rows(10**4):
        total = float(e[: seen + 1].sum()) * prod / p
        worst = max(worst, abs(total - 1.0 / p))
    _report("3", worst < 1e-12, f"worst gap {worst:.2e}")


# ---------------------------------------------------------------------- 4

def test_criterion_04_unimodality():
    bad = []
    for p, _, e, seen in sweep_rows(10**4):
        if not _unimodal(e[: seen + 1]):
            bad.append(p)
    _report("4", not bad, f"violations: {bad[:5] if bad else 'none'}")


# ---------------------------------------------------------------------- 5

def test_criterion_05_Lambda_positivity_and_spots():
    spots = {
        (1, 1): Fraction(1),
        (2, 2): Fraction(1, 2),
        (2, 3): Fraction(1, 6),
        (3, 4): Fraction(1, 6),
    }
    ok = True
    detail = []
    for (k, d), want in spots.items():
        got = Lambda_kd(k, d).exact
        if got != want:
            ok = False
            detail.append(f"Lambda_{k}({d})={got}")
    for d in range(1, 21):
        tau_d = len([m for m in range(1, d + 1) if d % m == 0])
        for k in range(1, 26):
            positive = Lambda_kd(k, d).exact > 0
            if positive != (tau_d <= k <= d):
                ok = False
                detail.append(f"positivity fails at k={k} d={d}")
    _report("5", ok, "; ".join(detail) if detail else "all d<=20, k<=25")


# ---------------------------------------------------------------------- 6

def test_criterion_06_oracle_equivalence():
    sv = build_sieve(10**4)
    mu_w = OscWeight.moebius()
    ind = RatioWeight.indicator(0.5)
    theta_naive = lambda r: 1.0 if r > 0.5 else 0.0
    bad = 0
    for n in range(1, 10**4 + 1):
        spec = divisors(factor(n, sv))
        if delta(spec) != naive_delta(n):
            bad += 1
        if abs(delta_osc(spec, mu_w) - naive_delta_osc(n, naive_mu)) > 1e-9:
            bad += 1
        if tau_plus(spec) != naive_tau_plus(n):
            bad += 1
        if abs(g_sum(spec) - naive_g(n)) > 1e-9:
            bad += 1
        for r in (1, 2, 3):
            if spec.tau > r and abs(e_r(spec, r) - naive_e_r(n, r)) > 1e-9:
                bad += 1
        if spec.tau >= 2 and abs(f_theta(spec, ind) - naive_f_theta(n, theta_naive)) > 1e-9:
            bad += 1
    _report("6", bad == 0, f"{bad} mismatches over n <= 1e4")


# ---------------------------------------------------------------------- 7

PRINTED = {
    "delta": (0.08607, 5e-6),
    "gamma_delta": (0.33827, 1e-5),
    "beta": (0.00415, 5e-6),
    "lambda_star": (0.38629436111989062, 1e-9),   # printed as log 4 - 1
    "sigma0": (2.2588913532709295, 1e-9),         # printed as log2/(1 - log2)
    # (1 - log 2)/delta with delta = 1 - (1 + log log 2)/log 2, which is
    # 3.5650989953...; the source prints it as 3.566509 (a stray digit).
    "c_pseudo": (3.565099, 1e-5),
    "b": (0.59483, 1e-4),
    "A": (0.26150, 1e-4),
    "hall_c": (0.14098, 1e-5),
    "two_minus_log4": (0.61370, 1e-5),
    "beta_1": (0.09861, 5e-6),
    "beta_2": (0.01271, 5e-6),
    "beta_4": (0.00164, 5e-6),
}


@pytest.mark.parametrize("name", sorted(PRINTED))
def test_criterion_07_constants(name):
    value = exp.constant_table()[name]
    want, tol = PRINTED[name]
    ok = abs(value - want) <= tol
    detail = f"{name} = {value:.7f}, printed {want} ± {tol:g}"
    if name == "c_pseudo":
        detail += " (source prints 3.566509, a slip for (1 - log 2)/delta; see README errata)"
    _report(f"7/{name}", ok, detail)


def test_criterion_07_C_reported_descriptively():
    r = exp.omega_median_count(1000)
    _report("7/C", r.printed_constant == 0.36798 and r.direct_formula_constant < -1,
            f"printed {r.printed_constant}, direct formula {r.direct_formula_constant:.4f}")


# ---------------------------------------------------------------------- 8

def test_criterion_08_integral_bound():
    c_star, val = exp.maximize_lower_bound()
    agree = abs(exp.lower_bound_integral(0.1) - riemann_integral(0.1, points=10**6)) < 1e-6
    _report("8", val > 0.05544 and 0 < c_star < 0.2 and agree,
            f"max {val:.6f} at c*={c_star:.5f}, riemann agreement {agree}")


# ---------------------------------------------------------------------- 9

def test_criterion_09_tsum_cross_method():
    ok = True
    detail = []
    for x in (10**3, 10**4, 10**5, 10**6):
        d, y = exp.t_sum(x)
        if d != y:
            ok = False
            detail.append(f"x={x}: direct {d} != dyadic {y}")
    h = exp.h_count(100, 9, 11)
    if h != 19:
        ok = False
        detail.append(f"h_count(100,9,11)={h}")
    _report("9", ok, "; ".join(detail) if detail else "exact equality at 1e3..1e6")


# ---------------------------------------------------------------------- 10

def test_criterion_10_density_engine():
    est = density_bracket(GeneratorSet(interval=(4, 8)))
    ok = est.exact == Fraction(17, 35)
    cnt = multiples_count(GeneratorSet(interval=(4, 8)), 10**7)
    ok &= abs(cnt / 10**7 - 17 / 35) < 1e-3
    rng = random.Random(20240601)
    for _ in range(100):
        A = GeneratorSet(rng.sample(range(2, 500), rng.randint(2, 10)))
        exact = density_bracket(A, method="exact_ie").exact
        for depth in (0, 1, 2, 3):
            b = density_bracket(A, method="bonferroni", depth=depth)
            if not Fraction(b.lower) <= exact <= Fraction(b.upper):
                ok = False
    for _ in range(200):
        A = GeneratorSet(rng.sample(range(2, 60), rng.randint(1, 8)))
        B = GeneratorSet(rng.sample(range(2, 60), rng.randint(1, 8)))
        if not behrend_ineq_check(A, B)[2]:
            ok = False
    _report("10", ok, f"(4,8] exact {est.exact}, sieve {cnt/10**7:.6f}")


# ---------------------------------------------------------------------- 11

@pytest.fixture(scope="module")
def tables_1e7():
    x = 10**7
    return x, tau_table(x), tauplus_window(1, x + 1)  # tau on 0..x, tau^+ on 1..x


@pytest.fixture(scope="module")
def me_fracs():
    t0 = time.perf_counter()
    fr = exp.me_fractions([10**4, 10**5, 10**6, 10**7])
    return fr, time.perf_counter() - t0


def test_criterion_11a_me_fraction_monotone(me_fracs):
    fr, dt = me_fracs
    increasing = all(b > a for a, b in zip(fr, fr[1:]))
    _report("11a-monotone", increasing and dt < 300,
            f"fractions {[round(v, 5) for v in fr]} in {dt:.1f}s")


def test_criterion_11a_me_fraction_threshold(me_fracs):
    # Originally "fraction at 1e7 > 0.9".  By Maier-Tenenbaum the complement
    # of M(E) decays only like (log x)^-beta (log log x)^-3/2, so 0.9 needs
    # log x in the thousands.  Check the fraction against the brute-force
    # count at 1e4 and that rate, shaped like criterion 11e, over 1e4..1e7.
    fr, _ = me_fracs
    naive = sum(1 for n in range(1, 10**4 + 1) if naive_in_ME(n))
    exact = fr[0] == naive / 10**4
    beta = exp.constant_table()["beta"]

    def rate(x, f):
        return (1 - f) * math.log(x) ** beta * math.log(math.log(x)) ** 1.5

    r = rate(10**7, fr[-1]) / rate(10**4, fr[0])
    _report("11a-threshold", exact and 1 / 3 <= r <= 3,
            f"fraction at 1e4 {fr[0]:.4f} vs oracle {naive / 10**4:.4f}, "
            f"R(1e7)/R(1e4) = {r:.4f}; fraction at 1e7 is {fr[-1]:.5f} "
            f"(printed criterion > 0.9; see README errata)")


def test_criterion_11b_pplus_up():
    t0 = time.perf_counter()
    st = exp.pplus_adjacency(10**7)
    dt = time.perf_counter() - t0
    _report("11b", 0.45 <= st.frac_up <= 0.55 and dt < 300,
            f"frac_up {st.frac_up:.6f} in {dt:.1f}s")


def test_criterion_11c_erdos_kac_ks():
    # Originally "KS at 1e7 < 0.05".  omega is integer-valued, so the KS
    # distance to a continuous CDF is at least half the largest atom (0.182
    # at 1e7).  Renyi-Turan: the error is of order 1/sqrt(log log x).  Check
    # the decrease, that rate, and a brute-force KS at 1e4.
    t0 = time.perf_counter()
    xs = (10**5, 10**6, 10**7)
    ks = [exp.erdos_kac(x).ks_vs[1] for x in xs]
    dt = time.perf_counter() - t0
    decreasing = all(b < a for a, b in zip(ks, ks[1:]))
    scaled = [math.sqrt(math.log(math.log(x))) * k for x, k in zip(xs, ks)]
    r = scaled[-1] / scaled[0]
    ks4 = exp.erdos_kac(10**4).ks_vs[1]
    oracle4 = naive_erdos_kac_ks(10**4)
    ok = decreasing and 1 / 3 <= r <= 3 and abs(ks4 - oracle4) <= 1e-9 and dt < 300
    _report("11c", ok,
            f"KS {[round(k, 4) for k in ks]} at 1e5..1e7, sqrt(llx)*KS ratio {r:.4f}, "
            f"KS at 1e4 {ks4:.6f} vs oracle {oracle4:.6f} "
            f"(printed criterion KS < 0.05; see README errata) in {dt:.1f}s")


def test_criterion_11d_nu_trend(tables_1e7):
    t0 = time.perf_counter()
    x7, tau7, tp7 = tables_1e7
    eta = 0.05
    r7 = tp7.astype(np.float64) / tau7[1:]
    mass7 = float(np.mean(r7 > 1 - eta))
    tau5 = tau_table(10**5)
    tp5 = tauplus_window(1, 10**5 + 1)
    r5 = tp5.astype(np.float64) / tau5[1:]
    mass5 = float(np.mean(r5 > 1 - eta))
    dt = time.perf_counter() - t0
    _report("11d", mass7 < mass5 and dt < 300,
            f"mass above 0.95: {mass5:.5f} at 1e5 -> {mass7:.5f} at 1e7 in {dt:.1f}s")


def test_criterion_11e_tsum_ratio_probe(tables_1e7):
    t0 = time.perf_counter()
    x7, _, tp7 = tables_1e7

    def ratio(x, tsum):
        llx = math.log(math.log(x))
        return tsum * llx**1.5 / (x * math.log(x) ** (1 - DELTA_FORD))

    T7 = int(tp7.astype(np.int64).sum())
    T4 = int(tp7[:10**4].astype(np.int64).sum())
    r = ratio(10**7, T7) / ratio(10**4, T4)
    dt = time.perf_counter() - t0
    _report("11e", 1 / 3 <= r <= 3 and dt < 300, f"R(1e7)/R(1e4) = {r:.4f} in {dt:.1f}s")


# ---------------------------------------------------------------------- 12

def test_criterion_12_determinism(capsys, tmp_path):
    argv = ["lambdad", "--k", "5", "--d", "30", "--method", "mc",
            "--samples", "30000", "--seed", "424242"]
    outs = []
    for _ in range(2):
        assert dispatch(list(argv)) == 0
        outs.append(capsys.readouterr().out)
    import json

    recs = [json.loads(o) for o in outs]
    for r in recs:
        r.pop("wall_time")
    same = recs[0] == recs[1]
    # a second, scan-heavy command for byte-identity of CSV output
    argv2 = ["exp", "--preset", "nu", "--x", "20000"]
    outs2 = []
    for _ in range(2):
        assert dispatch(list(argv2)) == 0
        outs2.append(capsys.readouterr().out)
    _report("12", same and outs2[0] == outs2[1], "records identical modulo wall_time")
