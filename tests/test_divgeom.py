import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divilab import (
    DomainError,
    Factored,
    OscWeight,
    RatioWeight,
    ResourceError,
    delta,
    delta_osc,
    divisors,
    e_r,
    f_theta,
    factor,
    g_sum,
    h_alpha,
    tau_plus,
    u_stat,
)
from divilab import divgeom

from oracles import (
    below_e,
    naive_delta,
    naive_delta_osc,
    naive_e_r,
    naive_f_theta,
    naive_g,
    naive_mu,
    naive_tau_plus,
)


def spec_of(n, sieve):
    return divisors(factor(n, sieve))


def test_delta_examples(sieve_1e4):
    assert delta(spec_of(1, sieve_1e4)) == 1
    for p in (3, 5, 97):
        assert delta(spec_of(p, sieve_1e4)) == 1
    assert delta(spec_of(2, sieve_1e4)) == 2  # log 2 < 1 keeps 1 and 2 together
    assert delta(spec_of(12, sieve_1e4)) == 3


def test_delta_osc_examples(sieve_1e4):
    unit = OscWeight.unit()
    mu = OscWeight.moebius()
    assert delta_osc(spec_of(12, sieve_1e4), unit) == 3
    assert delta_osc(spec_of(4, sieve_1e4), mu) == 1.0
    assert delta_osc(spec_of(1, sieve_1e4), mu) == 1.0


def test_tau_plus_examples(sieve_1e4):
    assert tau_plus(spec_of(1, sieve_1e4)) == 1
    for m in (1, 2, 5, 9):
        assert tau_plus(spec_of(2**m, sieve_1e4)) == m + 1
    assert tau_plus(spec_of(12, sieve_1e4)) == 5


def test_e_r_examples(sieve_1e4):
    assert e_r(spec_of(2, sieve_1e4), 1) == pytest.approx(math.log(2), abs=1e-12)
    assert e_r(spec_of(12, sieve_1e4), 1) == pytest.approx(math.log(4 / 3), abs=1e-12)
    assert e_r(spec_of(12, sieve_1e4), 2) == pytest.approx(math.log(2), abs=1e-12)
    with pytest.raises(DomainError):
        e_r(spec_of(7, sieve_1e4), 2)  # tau = 2 <= r


def test_g_examples(sieve_1e4):
    assert g_sum(spec_of(7, sieve_1e4)) == pytest.approx(1 / 7, abs=1e-12)
    assert g_sum(spec_of(4, sieve_1e4)) == pytest.approx(1.0, abs=1e-12)
    assert g_sum(spec_of(12, sieve_1e4)) == pytest.approx(37 / 12, abs=1e-12)
    assert g_sum(spec_of(1, sieve_1e4)) == 0.0


def test_f_theta_examples(sieve_1e4):
    ind = RatioWeight.indicator(0.5)
    assert f_theta(spec_of(12, sieve_1e4), ind) == pytest.approx(0.5, abs=1e-12)
    one = RatioWeight.smooth(lambda r: 1.0)
    for n in (6, 12, 100):
        spec = spec_of(n, sieve_1e4)
        assert f_theta(spec, one) == pytest.approx((spec.tau - 1) / spec.tau, abs=1e-12)
    for p in (3, 11):
        assert f_theta(spec_of(p, sieve_1e4), ind) == 0.0
    with pytest.raises(DomainError):
        f_theta(spec_of(1, sieve_1e4), ind)


def test_table_weight_interpolates():
    w = RatioWeight.table([(0.0, 0.0), (1.0, 1.0)])
    assert w.value(0.25) == pytest.approx(0.25)
    assert w.value(2.0) == 1.0


def test_u_stat_examples(sieve_1e4):
    f6 = factor(6, sieve_1e4)
    assert u_stat(f6, 1) == pytest.approx((math.log(math.log(2)) - 1), abs=1e-12)
    assert u_stat(f6, 1) == pytest.approx(-1.366513, abs=1e-5)
    f15 = factor(15, sieve_1e4)
    assert u_stat(f15, 2) == pytest.approx((math.log(math.log(5)) - 2) / math.sqrt(2), abs=1e-12)
    assert u_stat(f15, 2) == pytest.approx(-1.077716, abs=1e-5)
    with pytest.raises(DomainError):
        u_stat(f6, 3)


def test_h_alpha_examples(sieve_1e4):
    f6 = factor(6, sieve_1e4)
    assert h_alpha(f6, [0.0, 0.0]) == 0
    assert h_alpha(f6, [math.inf, math.inf]) == 2
    assert h_alpha(f6, [2.0, 2.0]) == 2
    with pytest.raises(DomainError):
        h_alpha(f6, [1.0])  # shorter than omega
    with pytest.raises(DomainError):
        h_alpha(f6, [1.0, 2.0])  # increasing tolerances


def test_character_weight_validation():
    # real character mod 4: chi(1) = 1, chi(3) = -1
    w = OscWeight.dirichlet_character(4, [0.0, 1.0, 0.0, -1.0])
    assert w.weights([1, 2, 3, 4, 5]) == [1.0, 0.0, -1.0, 0.0, 1.0]
    with pytest.raises(DomainError):
        OscWeight.dirichlet_character(4, [0.0, 1.0, 0.5, -1.0])  # not multiplicative
    with pytest.raises(DomainError):
        OscWeight.dirichlet_character(3, [1.0, 1.0, 1.0])  # nonzero off coprimes


def test_oracle_equivalence_prefix(sieve_1e4):
    """Spot the full-range acceptance sweep on 1..1500 plus scattered large n,
    a prime, a prime square and the highly composite 720720."""
    from divilab.arith import factor_int

    mu_w = OscWeight.moebius()
    ind = RatioWeight.indicator(0.5)
    ns = list(range(1, 1501)) + list(range(1501, 10001, 251)) + [9973, 97 * 97, 720720]
    for n in ns:
        spec = spec_of(n, sieve_1e4) if n <= 10**4 else divisors(factor_int(n))
        assert delta(spec) == naive_delta(n)
        assert delta_osc(spec, mu_w) == pytest.approx(naive_delta_osc(n, naive_mu), abs=1e-9)
        assert tau_plus(spec) == naive_tau_plus(n)
        assert g_sum(spec) == pytest.approx(naive_g(n), abs=1e-9)
        if spec.tau >= 2:
            assert e_r(spec, 1) == pytest.approx(naive_e_r(n, 1), abs=1e-9)
            assert f_theta(spec, ind) == pytest.approx(
                naive_f_theta(n, lambda r: 1.0 if r > 0.5 else 0.0), abs=1e-9)


def test_window_end_near_e_is_exact(monkeypatch):
    """d' = 410105312 < e d for d = 150869313 (d'/d - e = -2.2e-17), yet the
    float gap log d' - log d rounds to exactly 1.0: the window from d must
    still end at d'."""
    n = 61872306679090656  # 2^5 3^2 7 37 59 1097 1709 7499 < 2^63
    spec = divisors(Factored(n, ((2, 5), (3, 2), (7, 1), (37, 1), (59, 1),
                                 (1097, 1), (1709, 1), (7499, 1))))
    d, d2 = 150869313, 410105312
    assert math.log(d2) - math.log(d) == 1.0
    assert below_e(d, d2)
    i, j = spec.divisors.index(d), spec.divisors.index(d2)
    assert divgeom._window_ends(spec.divisors, spec.logs)[i] == j
    assert delta(spec) == 60
    # an enclosure of e too coarse to separate d'/d raises instead of guessing
    den = math.factorial(10)
    monkeypatch.setattr(divgeom, "_E_TERMS", 10)
    monkeypatch.setattr(divgeom, "_E_DEN", den)
    monkeypatch.setattr(divgeom, "_E_NUM", sum(den // math.factorial(k) for k in range(11)))
    with pytest.raises(ResourceError):
        delta(spec)


def test_invariant_bounds(sieve_1e4):
    for n in range(1, 2000):
        spec = spec_of(n, sieve_1e4)
        assert 1 <= delta(spec) <= spec.tau
        assert 1 <= tau_plus(spec) <= spec.tau


def test_er_monotone_in_r(sieve_1e4):
    for n in range(2, 2000):
        spec = spec_of(n, sieve_1e4)
        for r in range(1, min(3, spec.tau - 1)):
            if spec.tau > r + 1:
                assert e_r(spec, r + 1) >= e_r(spec, r) - 1e-12


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=10**4))
def test_unit_weight_window_equals_plain(sieve_1e4, n):
    spec = spec_of(n, sieve_1e4)
    assert delta_osc(spec, OscWeight.unit()) == delta(spec)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=10**4))
def test_delta_above_one_iff_close_pair(sieve_1e4, n):
    from oracles import naive_has_close_pair

    spec = spec_of(n, sieve_1e4)
    assert (delta(spec) > 1) == naive_has_close_pair(n)


def test_g_lower_bound_by_smallest_prime(sieve_1e4):
    # equality holds exactly at primes (single ratio 1/p vs tau/(2p) = 1/p)
    for n in range(2, 10**4 + 1):
        f = factor(n, sieve_1e4)
        spec = divisors(f)
        bound = spec.tau / (2 * f.factors[0][0])
        if len(f.factors) == 1 and f.factors[0][1] == 1:
            assert g_sum(spec) == pytest.approx(bound, abs=1e-12)
        else:
            assert g_sum(spec) > bound
