import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import divilab.experiments as exp
from divilab import DomainError, GeneratorSet, density_bracket, factor
from divilab import locallaws
from divilab.multiples import SIGMA0

from oracles import (
    divisor_lists,
    list_delta,
    list_dtheta_exponents,
    mertens_constants,
    naive_h_count,
    naive_phi,
    riemann_integral,
    sieve_omega_table,
    trial_divisors,
)


def test_h_count_examples():
    assert exp.h_count(100, 1, 2) == 50
    assert exp.h_count(100, 3, 4) == 25
    assert exp.h_count(100, 9, 11) == 19
    assert exp.h_count(200, 9, 11) == naive_h_count(200, 9, 11)
    # closed-left sensitivity flag pulls in divisor y itself
    assert exp.h_count(100, 3, 4, closed_left=True) == 50  # multiples of 3 or 4


def test_h_count_half_means_evens():
    for x in (10, 37, 1000, 4321):
        assert exp.h_count(x, 1, 2) == x // 2


def test_t_sum_small():
    assert exp.t_sum(1) == (1, 1)
    assert exp.t_sum(4) == (8, 8)
    d, y = exp.t_sum(1000)
    assert d == y


def test_t_sum_worker_pool_matches_serial():
    assert exp.t_sum(5000, threads=3) == exp.t_sum(5000, threads=1)
    assert exp.s_avg(3000, threads=3) == exp.s_avg(3000, threads=1)


def test_threads_below_one_rejected():
    for threads in (0, -1):
        with pytest.raises(DomainError):
            exp.t_sum(100, threads=threads)
        with pytest.raises(DomainError):
            exp.s_avg(100, threads=threads)


def test_worker_pool_clamped_to_cpus(monkeypatch):
    import multiprocessing

    def no_pool(*args):
        raise AssertionError("no worker pool expected")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    want_t, want_s = exp.t_sum(5000), exp.s_avg(3000)
    for cpus in (1, None):
        monkeypatch.setattr(exp.os, "cpu_count", lambda: cpus)
        assert exp.t_sum(5000, threads=8) == want_t
        assert exp.s_avg(3000, threads=10**9) == want_s

    class SerialPool:
        """Stands in for a fork pool: records its size, maps in process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, bounds):
            chunks.append(list(bounds))
            return [fn(b) for b in bounds]

    class SerialContext:
        Pool = SerialPool

    sizes, chunks = [], []
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SerialContext())
    monkeypatch.setattr(exp.os, "cpu_count", lambda: 2)
    assert exp.t_sum(5000, threads=8) == want_t
    assert exp.s_avg(3000, threads=10**9) == want_s
    assert sizes == [2, 2]
    assert chunks[0] == [(1, 2501), (2501, 5001)]
    # a range shorter than the worker count gets one worker per integer
    monkeypatch.setattr(exp.os, "cpu_count", lambda: 64)
    assert exp.t_sum(3, threads=64) == exp.t_sum(3)
    assert sizes[-1] == 3


def test_s_avg():
    assert exp.s_avg(1) == 1.0
    assert exp.s_avg(4) == pytest.approx(1.5)  # delta: 1, 2, 1, 2
    # independent check at a modest scale
    from oracles import naive_delta

    x = 3000
    expect = sum(naive_delta(n) for n in range(1, x + 1)) / x
    assert exp.s_avg(x) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("x", [1, 4, 3000, 10**5])
def test_s_avg_matches_list_oracle(x):
    # the per-n list scan the pair kernel replaced; the quotient of one
    # integer total by x, so equal totals give equal bits
    assert exp.s_avg(x) == sum(map(list_delta, divisor_lists(1, x + 1))) / x


def test_eps_pair_exact():
    e, e1, rho = exp.eps_pair(3, 4, 100)
    assert e.exact == Fraction(1, 4) and e1.exact == Fraction(1, 4) and rho == 1.0
    e, e1, rho = exp.eps_pair(2, 4, 100)
    assert e.exact == Fraction(1, 2)
    assert e1.exact == Fraction(5, 12)
    assert rho == pytest.approx(5 / 6, abs=1e-12)


def test_eps_pair_sieve_counts():
    e, e1, rho = exp.eps_pair(10, 20, 10**5)
    assert 0 < rho <= 1
    assert e1.point <= e.point
    assert e.method == "exact_ie"  # 10 integers in the interval
    # 30 integers: the valuation DP answers exactly; count the divisors in
    # (10, 40] of each n <= x to check both densities within 2/sqrt(x)
    e, e1, rho = exp.eps_pair(10, 40, 10**5)
    assert e.method == e1.method == "exact_ie"
    assert e.exact == density_bracket(GeneratorSet(interval=(10, 40)), method="exact_ie").exact
    assert rho == float(e1.exact / e.exact)
    x = 10**6
    counts = np.zeros(x + 1, dtype=np.uint8)
    for d in range(11, 41):
        counts[d::d] += 1
    band = 2 / math.sqrt(x)
    assert abs(np.count_nonzero(counts[1:]) / x - e.point) <= band
    assert abs(np.count_nonzero(counts[1:] == 1) / x - e1.point) <= band


def test_eps_pair_ordering_property():
    rng = random.Random(5150)
    for _ in range(25):
        y = rng.randint(1, 80)
        z = y + rng.randint(1, 20)
        e, e1, rho = exp.eps_pair(y, z, 10**4)
        assert float(e1.point) <= float(e.point) + 1e-12
        assert 0 < rho <= 1


def test_nu_distribution_shape():
    dist = exp.nu_distribution(10**4)
    assert dist.cdf[-1] == pytest.approx(1.0, abs=1e-12)
    assert all(b >= a - 1e-15 for a, b in zip(dist.cdf, dist.cdf[1:]))
    # primes have tau+ = tau = 2, so mass sits at ratio 1
    below_one = dist.cdf[-2]
    assert 1.0 - below_one > 1000 / 10**4  # at least the primes


def test_nu_two_scale_trend():
    hi = exp.nu_distribution(10**4, grid=(0.95, 1.0))
    lo = exp.nu_distribution(10**6, grid=(0.95, 1.0))
    mass_hi = 1.0 - hi.cdf[0]
    mass_lo = 1.0 - lo.cdf[0]
    assert mass_lo < mass_hi


def test_pplus_adjacency_small():
    st = exp.pplus_adjacency(10**4)
    # oracle first values
    def gpf(n):
        return max(p for p, _ in __import__("oracles").trial_factor(n)) if n > 1 else 1

    ups = sum(1 for n in range(1, 101) if gpf(n + 1) > gpf(n))
    st100 = exp.pplus_adjacency(100)
    assert st100.frac_up == pytest.approx(ups / 100)
    # first strictly descending triple
    first = next(n for n in range(2, 100) if gpf(n) > gpf(n + 1) > gpf(n + 2))
    assert st.first_triple_down == first == 13
    assert st.frac_triple_down > 0


def test_lower_bound_integral():
    assert exp.lower_bound_integral(1e-6) == pytest.approx(0.0, abs=1e-4)
    val = exp.lower_bound_integral(0.1)
    assert val == pytest.approx(riemann_integral(0.1, points=200_000), abs=1e-6)
    with pytest.raises(DomainError):
        exp.lower_bound_integral(0.25)
    with pytest.raises(DomainError):
        exp.lower_bound_integral(0.0)


def test_lower_bound_riemann_random_cs():
    rng = random.Random(2718)
    for _ in range(10):
        c = rng.uniform(0.01, 0.19)
        assert exp.lower_bound_integral(c) == pytest.approx(
            riemann_integral(c, points=200_000), abs=1e-11)


def test_maximize_lower_bound():
    c_star, val = exp.maximize_lower_bound()
    assert 0 < c_star < 0.2
    assert val > 0.05544


def test_erdos_kac_shape():
    dist = exp.erdos_kac(10**5)
    assert dist.cdf[-1] == pytest.approx(1.0, abs=1e-12)
    name, ks = dist.ks_vs
    assert name == "gaussian" and 0 < ks < 1
    # the statistic shrinks with scale
    ks6 = exp.erdos_kac(10**6).ks_vs[1]
    assert ks6 < ks


def test_omega_median_count():
    r = exp.omega_median_count(10)
    assert r.count == 1  # only n = 1 has Omega <= ln ln 10
    assert r.count <= 10
    # A - 2/3 - sum_p 1/(p(p-1)), from the oracle's 50-digit A and S
    assert r.direct_formula_constant == pytest.approx(-1.17832612286881901, abs=1e-12)
    r2 = exp.omega_median_count(10**5)
    assert 0 < r2.count <= 10**5
    assert math.isfinite(r2.formula_gap)


def test_omega_median_count_matches_oracle():
    # K = floor(ln ln x) steps 0 -> 1 at 15/16 and 1 -> 2 at 1618/1619
    assert math.floor(math.log(math.log(15))) == 0 < math.floor(math.log(math.log(16)))
    assert math.floor(math.log(math.log(1618))) == 1 < math.floor(math.log(math.log(1619)))
    Omega = sieve_omega_table(2000, with_multiplicity=True)
    for x in range(3, 2001):
        want = int(np.count_nonzero(Omega[1:x + 1] <= math.log(math.log(x))))
        assert exp.omega_median_count(x).count == want, x
    Omega = sieve_omega_table(10**6, with_multiplicity=True)
    want = int(np.count_nonzero(Omega[1:] <= math.log(math.log(10**6))))
    assert exp.omega_median_count(10**6).count == want


def test_totient_values():
    assert exp.totient_values(1) == 1
    assert exp.totient_values(10) == 6
    # oracle: phi(n) > sqrt(n/2), so enumerating n <= 2X^2 finds every value <= X
    X = 100
    values = {naive_phi(n) for n in range(1, 2 * X * X + 1)}
    for x in range(1, X + 1):
        assert exp.totient_values(x) == sum(1 for v in values if v <= x)
    with pytest.raises(DomainError):
        exp.totient_values(0)


def test_totient_ratio_trend():
    counts = {x: exp.totient_values(x) for x in (10, 100, 1000)}
    ratios = [x / counts[x] for x in (10, 100, 1000)]
    assert ratios[0] < ratios[1] < ratios[2]


def test_dtheta_min(sieve_1e4):
    f12 = factor(12, sieve_1e4)
    val, d = exp.dtheta_min(f12, 0.5)
    assert val == 0.0 and d == 2
    golden = exp.golden_ratio_fraction()
    val, d = exp.dtheta_min(f12, golden)
    # oracle scan
    g = float(golden)
    dists = {dd: min((dd * g) % 1, 1 - (dd * g) % 1) for dd in trial_divisors(12)}
    best = min(dists, key=dists.get)
    assert d == best == 3
    assert val == pytest.approx(dists[best], abs=1e-12)
    assert val == pytest.approx(0.145898, abs=1e-5)


def test_convergents():
    golden = exp.golden_ratio_fraction()
    conv = exp.convergents(golden, 10)
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert [q for _, q in conv] == fib[:10]
    assert [p for p, _ in conv][:5] == [1, 2, 3, 5, 8]
    assert exp.convergents(Fraction(1, 2), 5) == [(0, 1), (1, 2)]
    growth = exp.convergent_growth_report(golden, 25)
    # early ratios are noisy (ln ln q near zero); the tail settles toward 1
    assert all(0.8 < t < 1.5 for t in growth[-5:])


def test_dtheta_exponent_stats_band():
    med, mean = exp.dtheta_exponent_stats(10**4, 10**4 + 2000, exp.golden_ratio_fraction())
    assert 0.3 < med < 2.5
    assert math.isfinite(mean)


@pytest.mark.parametrize("lo, hi, theta", [
    (2, 70_000, exp.golden_ratio_fraction()),  # crosses the first 2^16 pair window
    (10**6 - 5, 10**6 + 2**16 + 5, math.sqrt(2.0)),
])
def test_dtheta_exponent_stats_matches_list_oracle(lo, hi, theta):
    arr = np.sort(np.asarray(list_dtheta_exponents(lo, hi, theta)))
    assert exp.dtheta_exponent_stats(lo, hi, theta) == (float(arr[len(arr) // 2]), float(arr.mean()))


@pytest.mark.slow
def test_s_avg_growth_at_scale():
    # the average concentration grows with x but sits slightly below
    # ln ln x at these scales (the asymptotic bound's constant is not 1);
    # the value at 1e6 is an exact integer ratio, frozen from the scan
    v4, v5, v6 = exp.s_avg(10**4), exp.s_avg(10**5), exp.s_avg(10**6)
    assert v4 < v5 < v6 < 20
    assert v6 == 2517831 / 10**6  # the total of Delta(n) over n <= 1e6
    assert v6 > 0.9 * math.log(math.log(10**6))


@pytest.mark.slow
def test_erdos_kac_median_omega_1e7():
    from divilab.tables import omega_table
    import numpy as np

    om = omega_table(10**7)
    counts = np.bincount(om[1:])
    cum = np.cumsum(counts) / counts.sum()
    median = int(np.searchsorted(cum, 0.5))
    assert median == 3


def test_exceptional_count():
    assert exp.exceptional_count(5) == 5
    counts = [exp.exceptional_count(x) for x in (10, 100, 1000, 10**4)]
    assert counts == sorted(counts)
    assert exp.exceptional_count(10**5) / 10**5 < exp.exceptional_count(10**4) / 10**4


def test_me_fractions_increasing():
    fr = exp.me_fractions([10**4, 10**5, 10**6])
    assert fr[0] < fr[1] < fr[2]


def _literal(module, name):
    """The source text of the number assigned to module.name."""
    src = Path(module.__file__).read_text()
    for node in ast.parse(src).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.get_source_segment(src, node.value)
    raise LookupError(name)


def test_mertens_A():
    # both literals are the oracle's zeta-series values, rounded to 30
    # decimals in the source and to the nearest float at run time
    A, S = mertens_constants()
    for name, ref in (("MERTENS_A", A), ("PRIME_ZETA_SUM", S)):
        assert getattr(locallaws, name) == float(ref), name
        assert _literal(locallaws, name) == f"{ref:.30f}", name
    assert exp.constant_table()["A"] == float(A)


# frozen 30-digit reference values (independent high-precision evaluation)
CONSTANT_REFS = {
    "delta": 0.0860713320559342068875730987769,
    "beta": 0.00415475149740437408993930297532,
    "gamma_delta": 0.338278241680005972130229414529,
    "lambda_star": 0.386294361119890618834464242916,
    "sigma0": 2.25889135327092945459791735692,
    "c_pseudo": 3.56509899533846770028872126355,
    "b": 0.594830546180976117088760171942,
    "A": 0.261497212847642783755426838609,
    "hall_c": 0.140985120888259292683590176866,
    "two_minus_log4": 0.613705638880109381165535757084,
    "beta_1": 0.0986122886681096913952452369225,
    "beta_2": 0.0127069788193882830113419067983,
    "beta_4": 0.00163739542908103590444664462324,
}


def test_constant_table_closed_forms():
    table = exp.constant_table()
    for name, ref in CONSTANT_REFS.items():
        assert table[name] == pytest.approx(ref, abs=1e-12), name


def test_beta_r_banding():
    assert exp.beta_r(1) == pytest.approx(math.log(3) - 1, abs=1e-15)
    # m = r.bit_length(): constant on [2^(m-1), 2^m - 1], new at each power of two
    for m in range(1, 13):
        band = {exp.beta_r(r) for r in range(1 << (m - 1), 1 << m)}
        assert len(band) == 1
        assert exp.beta_r(1 << m) not in band


def test_raouj_F():
    knee = 3 * math.log(2) - 1
    left = exp.raouj_F(knee - 1e-13)
    right = exp.raouj_F(knee + 1e-13)
    assert abs(left - right) < 1e-12
    assert left == pytest.approx(2 * math.log(2) - 1, abs=1e-12)
    assert exp.raouj_F(exp.LAMBDA_STAR) == pytest.approx(0.0, abs=1e-12)


def test_alpha0_continuity():
    from divilab import alpha0

    assert abs(alpha0(SIGMA0 - 1e-13) - alpha0(SIGMA0 + 1e-13)) < 1e-12
