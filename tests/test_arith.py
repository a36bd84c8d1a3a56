import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divilab import (
    INFINITE,
    DomainError,
    Factored,
    ResourceError,
    basic_fns,
    divisors,
    factor,
    primes_upto,
    psi1_count,
)
from divilab.arith import DEFAULT_DIVISOR_CAP, factor_int
from divilab.sieve import DEFAULT_LIMIT_CAP
from divilab.tables import _divisor_spectra

from oracles import divisor_mobius, naive_mu, naive_phi, naive_psi1, trial_divisors, trial_factor


def test_factor_examples(sieve_1e4):
    assert factor(1, sieve_1e4).factors == ()
    assert factor(12, sieve_1e4).factors == ((2, 2), (3, 1))
    assert factor_int(9699690).factors == tuple((p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19))


def test_factor_outside_sieve_range(sieve_1e4):
    for n in (0, sieve_1e4.limit + 1):
        with pytest.raises(DomainError, match=f"^n={n} outside sieve range 1..10000$"):
            factor(n, sieve_1e4)


# the `fn --n` inputs of the benchmark's CLI session at seed 41
SESSION_NS = (2785635, 3870827, 4643704, 4755633, 5573808, 6392468, 6434803, 6469795,
              6741802, 9278800, 9696209, 19009781, 19261169, 19604428, 19693717, 19767163,
              19800329, 19819157, 19893348, 39019224, 39157113, 39162581, 39460738,
              39880067, 39994893)


@pytest.mark.parametrize("n", (1, 2, 4, 720720, 9973**2, 6323 * 6329, 39999983,
                               DEFAULT_LIMIT_CAP, *SESSION_NS))
def test_factor_int_matches_window(n):
    """The CLI's single-n route (trial division to sqrt(n), then the
    divisors of the Factored) matches the oracle factorization, and gives
    the same spectrum as its range route (the divisor-pair window at n)."""
    f = factor_int(n)
    assert list(f.factors) == trial_factor(n)
    assert divisors(f) == next(_divisor_spectra(n, n))


def test_divisor_examples(sieve_1e4):
    assert divisors(factor(12, sieve_1e4)).divisors == (1, 2, 3, 4, 6, 12)
    assert divisors(factor(1, sieve_1e4)).divisors == (1,)
    spec = divisors(factor(720, sieve_1e4))
    assert spec.tau == 30
    assert spec.divisors[:5] == (1, 2, 3, 4, 5)


def test_divisor_cap():
    # tau = 2^20 > DEFAULT_DIVISOR_CAP: refused before any divisor is formed
    ps = primes_upto(71).tolist()
    assert len(ps) == 20 and 2**20 > DEFAULT_DIVISOR_CAP
    f = Factored(math.prod(ps), tuple((p, 1) for p in ps))
    with pytest.raises(ResourceError, match=f"exceeds divisor cap {DEFAULT_DIVISOR_CAP}"):
        divisors(f)


def test_roundtrip_and_divisor_oracle(sieve_1e5):
    for n in range(1, 10**4 + 1):
        f = factor(n, sieve_1e5)
        prod = 1
        for p, e in f.factors:
            prod *= p**e
        assert prod == n
        assert list(divisors(f).divisors) == trial_divisors(n)
    # sampled coverage of the upper range
    for n in range(10**4 + 1, 10**5 + 1, 997):
        f = factor(n, sieve_1e5)
        assert list(divisors(f).divisors) == trial_divisors(n)


def test_logs_match(sieve_1e4):
    spec = divisors(factor(5040, sieve_1e4))
    for d, lg in zip(spec.divisors, spec.logs):
        assert abs(lg - math.log(d)) < 1e-12


def test_mobius_sum_identity(sieve_1e4):
    for n in range(1, 10**4 + 1):
        total = sum(m for _, m in divisor_mobius(factor(n, sieve_1e4).factors))
        assert total == (1 if n == 1 else 0)


def test_phi_product_rational(sieve_1e4):
    for n in range(1, 10**4 + 1):
        f = factor(n, sieve_1e4)
        expect = Fraction(n)
        for p, _ in f.factors:
            expect *= Fraction(p - 1, p)
        assert basic_fns(f).phi == expect


def test_basic_fns_examples(sieve_1e4):
    v = basic_fns(factor(12, sieve_1e4))
    assert (v.tau, v.sigma, v.omega, v.big_omega, v.mu, v.phi) == (6, 28, 2, 3, 0, 4)
    assert (v.p_plus, v.p_minus) == (3, 2)
    one = basic_fns(factor(1, sieve_1e4))
    assert (one.tau, one.sigma, one.mu, one.p_plus) == (1, 1, 1, 1)
    assert one.p_minus is INFINITE
    v30 = basic_fns(factor(30, sieve_1e4))
    assert (v30.mu, v30.omega) == (-1, 3)


def test_basic_fns_oracle(sieve_1e4):
    for n in range(1, 4000):
        v = basic_fns(factor(n, sieve_1e4))
        assert v.mu == naive_mu(n)
        assert v.phi == naive_phi(n)
        assert v.tau == len(trial_divisors(n))


def test_infinity_sentinel_not_orderable():
    with pytest.raises(TypeError):
        INFINITE < 5
    assert repr(INFINITE) == "inf"


def test_psi1_examples():
    assert psi1_count(10, 3) == 4
    assert psi1_count(10, 10) == 7
    assert psi1_count(10**4, 100) == naive_psi1(10**4, 100)


def test_psi1_monotone_in_x():
    prev = 0
    for x in (50, 100, 500, 1000, 5000):
        cur = psi1_count(x, 7)
        assert cur >= prev
        prev = cur


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10**4))
def test_factorization_roundtrip_property(sieve_1e4, n):
    f = factor(n, sieve_1e4)
    prod = 1
    for p, e in f.factors:
        prod *= p**e
    assert prod == n
    ps = [p for p, _ in f.factors]
    assert ps == sorted(set(ps))


@pytest.mark.slow
def test_psi1_large_derived():
    # direct per-n scan with basic_fns as the independent counting route
    from divilab import build_sieve

    sv = build_sieve(10**6)
    expect = 0
    for n in range(1, 10**6 + 1):
        v = basic_fns(factor(n, sv))
        if v.mu != 0 and v.p_plus <= 100:
            expect += 1
    assert psi1_count(10**6, 100) == expect
