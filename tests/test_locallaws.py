import math
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest

from divilab import (
    DomainError,
    Lambda_kd,
    ResourceError,
    gaussian_cdf,
    k_scales,
    lambda_kp,
    lambda_mode,
    lambda_row,
    median_prime,
    median_prime_detail,
    phi0_correction,
    s_coeffs,
    unimodal_check,
)
from divilab import locallaws
from divilab.errors import DEFAULT_SCAN_CAP
from divilab import multiples as multiples_mod
from divilab.locallaws import (
    MERTENS_A,
    LocalLawRow,
    MedianResult,
    _MAX_N,
    _columns,
    _dividing_counts,
    _divisor_gens,
    _exact_cum_is_half,
    _unimodal,
)
from divilab.sieve import primes_upto

from oracles import (
    naive_lambda_kd,
    row_lambda_sweep,
    row_sweep,
    s_coeffs_exact,
    simpson_normal_cdf,
    trial_divisors,
    uniform_lambda_kd_mc,
)


def test_s_coeffs_examples():
    assert list(s_coeffs(2, 3).e) == [1.0, 0.0, 0.0, 0.0]
    e5 = s_coeffs(5, 2).e
    assert e5 == pytest.approx([1.0, 1.5, 0.5], abs=1e-14)


def test_s1_matches_prime_power_series():
    # sum over m with all prime factors < 5 and one distinct prime:
    # geometric series sum_a 2^-a + sum_b 3^-b = 1 + 1/2
    series = (1 / 2) / (1 - 1 / 2) + (1 / 3) / (1 - 1 / 3)
    assert s_coeffs(5, 1).e[1] == pytest.approx(series, abs=1e-14)


def test_s_coeffs_rational_certifies_doubles():
    for p in (7, 97, 293):
        kmax = 8
        dbl = s_coeffs(p, kmax).e
        exact = s_coeffs_exact(p, kmax)
        for j in range(kmax + 1):
            assert dbl[j] == pytest.approx(float(exact[j]), rel=1e-12, abs=1e-300)


def test_s_coeffs_sum_telescopes():
    # sum_j e_j = prod_{q<p} (1 + 1/(q-1)) = prod q/(q-1)
    from divilab.sieve import primes_upto

    for p in (5, 13, 101, 1009):
        coeffs = s_coeffs(p, 400)
        prod = 1.0
        for q in primes_upto(p - 1):
            prod *= int(q) / (int(q) - 1)
        assert float(coeffs.e.sum()) == pytest.approx(prod, abs=1e-12 * prod)


def test_s_coeffs_requires_prime():
    with pytest.raises(DomainError):
        s_coeffs(6, 2)


def test_lambda_kp_examples():
    assert lambda_kp(1, 2) == pytest.approx(0.5, abs=1e-15)
    assert lambda_kp(1, 3) == pytest.approx(1 / 6, abs=1e-15)
    assert lambda_kp(2, 3) == pytest.approx(1 / 6, abs=1e-15)
    assert lambda_kp(2, 2) == 0.0  # no primes below 2


def test_lambda_row_small():
    row = lambda_row(1, 10)
    expect = [Fraction(1, 2), Fraction(1, 6), Fraction(1, 15), Fraction(4, 105)]
    assert [p for p, _ in row.entries] == [2, 3, 5, 7]
    for (_, lam), ex in zip(row.entries, expect):
        assert lam == pytest.approx(float(ex), abs=1e-14)
    assert row.partial_sum == pytest.approx(float(sum(expect)), abs=1e-13)
    assert row.partial_sum + row.tail == pytest.approx(1.0, abs=1e-12)


def test_lambda_row_k2_p3():
    row = lambda_row(2, 3)
    assert row.partial_sum == pytest.approx(1 / 6, abs=1e-14)
    assert dict(row.entries)[2] == 0.0


def test_lambda_kp_empirical_frequencies(sieve_1e5):
    # direct counting of k-th-distinct-prime-factor events over n <= 1e5;
    # the event is a union of residue classes, so convergence is fast
    from divilab import factor

    x = 10**5
    counts = {(1, 3): 0, (2, 5): 0, (3, 7): 0, (2, 37): 0}
    for n in range(2, x + 1):
        ps = factor(n, sieve_1e5).prime_list()
        for (k, p) in counts:
            if len(ps) >= k and ps[k - 1] == p:
                counts[(k, p)] += 1
    for (k, p), c in counts.items():
        assert c / x == pytest.approx(lambda_kp(k, p), abs=3e-3), (k, p)


def test_positivity_boundary():
    # lambda_k(p) > 0 iff k <= pi(p-1) + 1
    assert lambda_kp(3, 7) > 0  # pi(6) = 3, k up to 4
    assert lambda_kp(4, 7) > 0
    assert lambda_kp(5, 7) == 0.0


def test_median_primes():
    assert median_prime(2) == 37
    det = median_prime_detail(1)
    assert det.p_star == 3
    assert det.tie_at == 2
    with pytest.raises(ResourceError):
        median_prime(4, pmax=10**5)


def test_gaussian_cdf():
    assert gaussian_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert gaussian_cdf(40.0) == 1.0
    assert gaussian_cdf(1.0) == pytest.approx(0.8413447461, abs=1e-10)
    for z in (-2.5, -0.3, 0.7, 1.9):
        assert gaussian_cdf(z) == pytest.approx(simpson_normal_cdf(z), abs=1e-10)
        assert gaussian_cdf(z) + gaussian_cdf(-z) == pytest.approx(1.0, abs=1e-14)


def test_phi0_correction():
    A = MERTENS_A
    assert phi0_correction(0.0) == pytest.approx(1 / 3 + A, abs=1e-9)
    assert phi0_correction(0.0) == pytest.approx(0.59483, abs=1e-4)
    assert phi0_correction(50.0) == 0.0
    assert phi0_correction(1.0) == pytest.approx(math.exp(-0.5) * A, abs=1e-9)


def test_lambda_mode():
    assert lambda_mode(2) == (1, pytest.approx(0.5))
    k3, v3 = lambda_mode(3)
    assert k3 == 1 and v3 == pytest.approx(1 / 6, abs=1e-14)
    k_star, lam_star = lambda_mode(10007)
    assert 1 <= k_star <= 5
    ref = 1.0 / (10007 * math.sqrt(2 * math.pi * math.log(math.log(10007))))
    assert ref / 2 < lam_star < ref * 2


def test_unimodal_small():
    assert unimodal_check(2)
    assert unimodal_check(3)
    for p in (5, 7, 11, 101, 997, 1999):
        assert unimodal_check(p)


def test_column_sum_prefix():
    # sum_k lambda_k(p) telescopes to 1/p; spot a prefix of the acceptance sweep
    for p, prod, e, seen in sweep_rows(500):
        total = float(e[: seen + 1].sum()) * prod / p
        assert total == pytest.approx(1.0 / p, abs=1e-13)


def test_Lambda_exact_examples():
    assert Lambda_kd(1, 1).exact == 1
    assert Lambda_kd(2, 2).exact == Fraction(1, 2)
    assert Lambda_kd(2, 3).exact == Fraction(1, 6)
    assert Lambda_kd(3, 4).exact == Fraction(1, 6)
    assert Lambda_kd(4, 4).exact == Fraction(1, 12)
    assert Lambda_kd(1, 2).exact == 0


def test_Lambda_against_naive_period_scan():
    # k runs to d + 1; the row is zero outside tau(d) <= k <= d
    for d in range(1, 13):
        for k in range(1, d + 2):
            assert Lambda_kd(k, d).exact == naive_lambda_kd(k, d), (k, d)


def test_Lambda_against_friable_sum_formula():
    # second independent route: the generating friable-sum identity
    from oracles import lambda_kd_formula

    # (5, 21) lies past d = 20
    cases = [(k, d) for d in (3, 4, 6, 8) for k in range(1, d + 1)] + [(5, 21)]
    for k, d in cases:
        want = float(Lambda_kd(k, d).exact)
        got, tail = lambda_kd_formula(k, d)
        assert abs(got - want) <= tail + 1e-9, (k, d, got, want, tail)


def test_friable_sum_formula_past_d23():
    # from d = 24 on the formula needs the prime 23, and from d = 29 on 29;
    # a smaller limit keeps each call near 0.5 s with a tail of about 2e-5
    from oracles import lambda_kd_formula

    for k, d in ((11, 30), (3, 25), (5, 25)):
        want = float(Lambda_kd(k, d).exact)
        got, tail = lambda_kd_formula(k, d, limit=10**9)
        assert abs(got - want) <= tail, (k, d, got, want, tail)


def test_Lambda_empirical_exact_over_whole_periods():
    # d_k(n) = d depends only on n mod lcm(1..d): counts over whole periods
    # of per-n divisor enumeration must match the density exactly
    from fractions import Fraction as F
    from oracles import trial_divisors

    for d, L in ((4, 12), (6, 60)):
        reps = 3
        hits = {}
        for n in range(1, reps * L + 1):
            divs = trial_divisors(n)
            for k, dv in enumerate(divs, start=1):
                if dv == d:
                    hits[k] = hits.get(k, 0) + 1
        for k in range(1, d + 1):
            assert F(hits.get(k, 0), reps * L) == Lambda_kd(k, d).exact


def test_Lambda_column_sums():
    for d in (*range(1, 31), 32):  # every d whose lcm DP fits MAX_LCM_VISITS
        row = [Lambda_kd(k, d) for k in range(1, d + 1)]
        assert {est.method for est in row} == {"exact_period"}, d
        assert sum(est.exact for est in row) == Fraction(1, d), d


def test_Lambda_exact_cap(monkeypatch):
    for d in (31, 33, 37, 40):
        with pytest.raises(DomainError, match="seed"):
            Lambda_kd(5, d)  # the default route is Monte Carlo here
    assert Lambda_kd(5, 31, samples=1000, seed=1).method == "monte_carlo"

    def no_work(*args):
        raise AssertionError("the lcm DP ran before the cap check")

    monkeypatch.setattr(locallaws, "_bonferroni_sums", no_work)
    with pytest.raises(ResourceError, match="3000000"):
        Lambda_kd(5, 37, method="exact")
    # past d = 10000 both routes refuse before the cap check
    monkeypatch.setattr(locallaws, "_check_lcm_work", no_work)
    for method in (None, "exact", "mc"):
        with pytest.raises(ResourceError, match="10000"):
            Lambda_kd(5, 10_001, method=method, seed=1)


def test_Lambda_route_floor_skips_coprime_base(monkeypatch):
    # at d = 10000 the floor n * sum min(C(n, k), D) refuses the DP at once
    def no_base(*args):
        raise AssertionError("the visit bound ran")

    monkeypatch.setattr(multiples_mod, "_bonferroni_visits", no_base)
    assert locallaws._exact_gens(5, 10_000, None) is None


def test_Lambda_monte_carlo_brackets_exact_past_d20():
    # 95% Wilson brackets at two of the likeliest k of each row.  One misses
    # 1 time in 20, so gate the miss rate over 200 seeds, not one seed:
    # P(Bin(200, 0.05) > 27) < 1e-6
    for k, d in ((4, 21), (5, 21), (3, 25), (5, 25), (11, 30), (8, 30)):
        exact = Lambda_kd(k, d).exact
        misses = 0
        for seed in range(200):
            est = Lambda_kd(k, d, method="mc", samples=150_000, seed=seed)
            misses += not est.lower <= exact <= est.upper
        assert misses <= 27, (k, d, misses)


def test_dividing_counts_match_trial_divisors():
    # tau(d) + #{q_m | r} is the number of divisors of d r up to d; near
    # floor(_MAX_N / d) the divisors up to d are counted one m at a time, as
    # trial_divisors(d r) would trial-divide up to 3e9
    for d in range(1, 41):
        gens = _divisor_gens(d)
        tau = sum(1 for m in range(1, d + 1) if d % m == 0)
        assert tau == d - len(gens), d
        top = _MAX_N // d
        small = list(range(1, 2000))
        large = list(range(top - 1000, top + 1))
        got = _dividing_counts(np.array(small + large, dtype=np.int64), gens).tolist()
        for r, cnt in zip(small, got):
            want = sum(1 for m in trial_divisors(d * r) if m <= d)
            assert tau + cnt == want, (d, r)
        for r, cnt in zip(large, got[len(small):]):
            want = sum(1 for m in range(1, d + 1) if d * r % m == 0)
            assert tau + cnt == want, (d, r)


def test_Lambda_mc_samplers_agree_with_exact():
    # both samplers, the multiples of d and every n, average over 100 seeds
    # to within 5 standard errors of the exact Lambda_5(21)
    exact = float(Lambda_kd(5, 21).exact)
    samples, seeds = 50_000, range(100)
    se = math.sqrt(exact * (1 - exact) / (samples * len(seeds)))
    multiples = [Lambda_kd(5, 21, method="mc", samples=samples, seed=s).point for s in seeds]
    uniform = [uniform_lambda_kd_mc(5, 21, samples, s) for s in seeds]
    for name, points in (("multiples", multiples), ("uniform", uniform)):
        assert abs(sum(points) / len(points) - exact) <= 5 * se, name


def test_Lambda_monte_carlo_brackets_exact():
    for k, d in ((2, 2), (3, 4), (4, 6), (6, 12)):
        exact = float(Lambda_kd(k, d).exact)
        est = Lambda_kd(k, d, method="mc", samples=150_000, seed=12345)
        assert est.lower - 1e-12 <= exact <= est.upper + 1e-12
    with pytest.raises(DomainError):
        Lambda_kd(2, 30, method="mc")  # seed required


def test_Lambda_mc_bracket_holds_its_point():
    # the Wilson ends cancel to residues past phat at zero and at all hits
    for d in range(33, 60):
        for k in (2, 3, 5, 8, 12):
            for samples in (1, 10, 100, 1000):
                est = Lambda_kd(k, d, method="mc", samples=samples, seed=1)
                assert est.lower <= est.point <= est.upper, (k, d, samples)
                if est.point == 0:
                    assert est.lower == 0, (k, d, samples)
                if est.point == 1:
                    assert est.upper == 1, (k, d, samples)


def test_Lambda_mc_needs_samples():
    for samples in (0, -5):
        with pytest.raises(DomainError):
            Lambda_kd(5, 30, method="mc", samples=samples, seed=1)


def test_Lambda_negative_seed_is_a_domain_error(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the seed check")

    monkeypatch.setattr(locallaws, "_exact_gens", no_work)
    for method in (None, "exact", "mc"):
        with pytest.raises(DomainError, match="seed"):
            Lambda_kd(5, 21, method=method, seed=-1)


def test_Lambda_mc_deterministic():
    a = Lambda_kd(5, 30, method="mc", samples=50_000, seed=7)
    b = Lambda_kd(5, 30, method="mc", samples=50_000, seed=7)
    assert a.point == b.point and a.lower == b.lower


def test_k_scales():
    ks = k_scales(16, 0)
    expect = 16 ** (math.log(math.log(16)) / math.log(2))
    assert ks.values[0] == pytest.approx(expect, rel=1e-12)
    k100 = k_scales(100, 0).values[0]
    assert k100 == pytest.approx(100 ** (math.log(math.log(100)) / math.log(2)), rel=1e-12)
    big = k_scales(10**6, 1)
    assert big.values[1] < big.values[0]
    with pytest.raises(DomainError):
        k_scales(3, 1)  # ln ln ln 3 undefined


def test_row_identity_sample():
    # finite identity: partial + prod * sum_{j<k} e_j == 1
    for k in (1, 2, 5):
        row = lambda_row(k, 2000)
        assert row.partial_sum + row.tail == pytest.approx(1.0, abs=1e-11)


def test_row_mass_approaches_one():
    # every n > 1 has a first prime factor, so the k=1 row mass fills up
    assert lambda_row(1, 10**5).partial_sum > 0.95
    assert lambda_row(1, 10**5).partial_sum < 1.0


# -- the column-wise e_j DP against the per-prime oracle, bit for bit --------

def stacked_rows(ps, size):
    """The rows (p, prod, e, seen) of the e_j DP over ps, read from the whole
    columns of _columns(ps, size) stacked into one array: e[j] is column j at
    p, zero past the last column _columns yields."""
    prods, columns = _columns(ps, size)
    E = np.array([col.copy() for col in columns])
    for r, p in enumerate(ps):
        yield int(p), float(prods[r]), np.pad(E[:, r], (0, size - len(E))), r


def sweep_rows(pmax, kmax=None):
    """stacked_rows over the primes p <= pmax, e truncated at kmax."""
    ps = primes_upto(pmax)
    return stacked_rows(ps, (len(ps) if kmax is None else min(kmax, len(ps))) + 1)


def _assert_rows_equal(got, want):
    """Row-for-row equality of two sweeps: prime, seen, prod to the bit and
    e by np.array_equal; returns the number of rows."""
    n = 0
    for a, b in zip_longest(got, want):
        assert a is not None and b is not None, f"lengths differ after {n} rows"
        (p, prod, e, seen), (q, prod_q, e_q, seen_q) = a, b
        assert (type(p), type(prod), type(seen)) == (int, float, int)
        assert (p, seen, prod.hex()) == (q, seen_q, prod_q.hex())
        assert np.array_equal(e, e_q), p
        n += 1
    return n


@pytest.mark.parametrize("pmax,kmax", [
    (2, None), (3, None), (500, None), (10**4, None), (60013, None),
    (2000, 0), (2000, 1), (2000, 3), (2000, 9), (60013, 3),
])
def test_lambda_sweep_matches_row_oracle(pmax, kmax):
    rows = _assert_rows_equal(sweep_rows(pmax, kmax), row_lambda_sweep(pmax, kmax))
    assert rows == len(primes_upto(pmax))


def test_columns_stay_nonzero_to_the_last():
    # with 1/(q-1) = 1/2 no e_j underflows, so all 301 columns stay nonzero
    ps = np.full(300, 3.0)
    assert sum(1 for _ in _columns(ps, 301)[1]) == 301
    want = ((int(p), prod, e, s) for p, prod, e, s in row_sweep(ps.tolist()))
    assert _assert_rows_equal(stacked_rows(ps, 301), want) == 300


def _oracle_state(p, kmax=None):
    for q, prod, e, seen in row_lambda_sweep(p, kmax):
        if q == p:
            return prod, e.copy(), seen


def _row_bits(row):
    return (row.k, row.partial_sum.hex(), row.tail.hex(),
            tuple((p, type(p), lam.hex()) for p, lam in row.entries))


def _oracle_lambda_row(k, P):
    entries = []
    total = 0.0
    for p, prod, e, seen in row_lambda_sweep(2 * P, k):  # a prime lies in (P, 2P]
        if p > P:
            break
        lam = float(e[k - 1]) * prod / p if k - 1 <= seen else 0.0
        entries.append((p, lam))
        total += lam
    tail = float(prod * e[:min(k, seen + 1)].sum())
    return LocalLawRow(k, tuple(entries), total, tail)


def _oracle_median(k, pmax=200_000):
    cum = 0.0
    tie_at = None
    for p, prod, e, seen in row_lambda_sweep(pmax, k):
        lam = float(e[k - 1]) * prod / p if k - 1 <= seen else 0.0
        prev = cum
        cum += lam
        if abs(cum - 0.5) < 1e-9:
            if p <= 1000 and _exact_cum_is_half(k, p):
                tie_at = p
                continue
        if cum > 0.5:
            return MedianResult(p, prev, cum, tie_at)
    return None


def _median_bits(m):
    return (m.p_star, m.cum_before.hex(), m.cum_at.hex(), m.tie_at)


def test_lambda_row_matches_row_oracle():
    for k in (1, 2, 3, 4, 200, 10**12):
        for P in (2, 3, 10, 1000, 7919, 7920):
            assert _row_bits(lambda_row(k, P)) == _row_bits(_oracle_lambda_row(k, P)), (k, P)


def test_lambda_row_longer_than_a_block():
    for k in (1, 3):
        assert _row_bits(lambda_row(k, 30011)) == _row_bits(_oracle_lambda_row(k, 30011))


def test_median_matches_row_oracle():
    for k in (1, 2, 3):
        assert _median_bits(median_prime_detail(k)) == _median_bits(_oracle_median(k))
    assert _oracle_median(4, 10**5) is None
    with pytest.raises(ResourceError, match="by p = 100000"):
        median_prime_detail(4, pmax=10**5)
    with pytest.raises(ResourceError, match="reaches only 0.000000 by p = 1000"):
        median_prime_detail(10**12, pmax=1000)  # no column buffer of 10^12 entries


def test_point_queries_match_row_oracle():
    # lambda_mode and unimodal_check, which stop at the first dominated
    # column, against all the columns at every prime below 10^4
    for p, prod, e, seen in sweep_rows(10**4):
        j = int(np.argmax(e[:seen + 1]))
        k_star, lam = lambda_mode(p)
        assert (k_star, lam.hex()) == (j + 1, float(e[j] * prod / p).hex()), p
        assert unimodal_check(p) == _unimodal(e[:seen + 1]), p
    wanted = {int(p) for p in primes_upto(500)} | {7919, 7927}
    for p, prod, e, seen in row_lambda_sweep(7927):
        if p not in wanted:
            continue
        for kmax in (0, 1, 3, 9):
            want = np.pad(e[:kmax + 1], (0, max(0, kmax + 1 - len(e))))
            assert np.array_equal(s_coeffs(p, kmax).e, want), (p, kmax)
        for k in (1, 2, 4):
            want = prod * e[k - 1] / p if k - 1 <= seen else 0.0
            assert lambda_kp(k, p).hex() == float(want).hex(), (p, k)


def test_point_queries_longer_than_a_block():
    for p in (30011, 60013):
        prod, e, seen = _oracle_state(p)
        j = int(np.argmax(e[:seen + 1]))
        k_star, lam = lambda_mode(p)
        assert (k_star, lam.hex()) == (j + 1, float(e[j] * prod / p).hex())
        assert unimodal_check(p) == _unimodal(e[:seen + 1])


def test_dominated_columns_stay_dominated():
    # from the first column <= its predecessor at every prime below p, each
    # later column is <= its own predecessor too, so _state_at(p) may stop
    # there: the e_j it leaves out never rise
    for p in [int(p) for p in primes_upto(10**4)] + [30011, 60013]:
        ps = primes_upto(p - 1)
        cols = [col.copy() for col in _columns(ps, len(ps) + 2)[1]]
        dominated = [bool(np.all(b <= a)) for a, b in zip(cols, cols[1:])]
        stop = dominated.index(True) + 1 if True in dominated else len(cols) - 1
        assert all(dominated[stop - 1:]), p
        assert stop <= 3, p  # at most 4 columns, against ~170 to underflow
        _, e, _ = locallaws._state_at(p)
        want = np.zeros(len(e))
        want[:stop + 1] = [col[-1] for col in cols[:stop + 1]]
        assert np.array_equal(e, want), p


def test_huge_local_laws_raise_before_sieving(monkeypatch):
    def no_sieve(n):
        raise AssertionError(f"primes_upto({n}) was called")

    monkeypatch.setattr("divilab.sieve.primes_upto", no_sieve)
    big = 1_000_000_000_039  # prime
    for call in (lambda: unimodal_check(big), lambda: lambda_mode(big),
                 lambda: s_coeffs(big, 3), lambda: lambda_kp(2, big),
                 lambda: lambda_row(2, 10**12), lambda: median_prime_detail(2, 10**12),
                 lambda: lambda_row(2, DEFAULT_SCAN_CAP + 1),
                 lambda: lambda_mode(200_000_033)):  # the first prime p with p - 1 past it
        with pytest.raises(ResourceError, match=f"past the cap {DEFAULT_SCAN_CAP}"):
            call()
    # the domain checks come first
    for call in (lambda: lambda_mode(big + 2), lambda: s_coeffs(big, -1),
                 lambda: lambda_kp(0, big), lambda: lambda_row(0, 10**12),
                 lambda: median_prime_detail(0, 10**12)):
        with pytest.raises(DomainError):
            call()
    # the cap itself still sieves
    with pytest.raises(AssertionError, match=f"primes_upto\\({DEFAULT_SCAN_CAP}\\)"):
        lambda_row(2, DEFAULT_SCAN_CAP)
