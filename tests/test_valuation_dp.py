"""The valuation-DP density engine against the subset inclusion-exclusion oracle.

The engine's density of M(A) must equal sum_k (-1)^(k-1) S_k exactly, and
its exactly-one density sum_k (-1)^(k-1) k S_k, where S_k sums 1/lcm over
the k-element subsets of A.  Under small state budgets, its brackets must
contain the exact values, and so must the float ends of the Bonferroni
brackets and of the remainders R_n(x).  One test puts every function that
returns a rigorous estimate, Lambda_kd's exact route among them, against
these oracles, and so do the exact share of multiples up to x, the float
log density's rounding bracket and a Monte Carlo run with no hits.  On every
set here, at every budget, the engine's memo and results equal those of the
recursive DP it replaced.  A path of prime products nests its states
deeper than a lowered recursion limit and still answers exactly, and the
state counts of two intervals are pinned.
"""

import decimal
import math
import random
import sys
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from divilab import (
    GeneratorSet,
    Lambda_kd,
    ResourceError,
    density_bracket,
    log_density,
    m_of_y,
    remainder_Rn,
    sequential_density,
)
from divilab import multiples
from divilab.experiments import eps_pair
from divilab.multiples import (
    _coprime_base,
    _valuation_density,
    divisor_hit_densities,
    sieve_density,
)

from oracles import (
    RecursiveValuationDP,
    naive_ie_sums,
    prime_path_density,
    naive_lambda_kd,
    trial_divisors,
    trial_factor,
    trial_multiples_mask,
)

PERIOD = 720720


def _alternating(sums, weight=lambda k: 1):
    return sum((1 if k % 2 else -1) * weight(k) * sums[k] for k in range(1, len(sums)))


def _check(gens):
    sums = naive_ie_sums(gens)
    want = _alternating(sums)
    assert _valuation_density(gens) == want
    est = density_bracket(GeneratorSet(gens), method="exact_ie")
    assert est.method == "exact_ie" and est.exact == want
    # the nearest float as point, and float ends at most one ulp from it
    assert est.point == float(want) and _holds(est, want)
    assert math.nextafter(est.point, -math.inf) <= est.lower
    assert est.upper <= math.nextafter(est.point, math.inf)
    return sums


def _random_sets():
    rng = random.Random(1729)
    return [rng.sample(range(2, 501), rng.randint(2, 12)) for _ in range(60)]


def _interval_sets():
    rng = random.Random(2024)
    cases = [(1004, 14), (1000, 14), (2, 14), (1, 9)]
    cases += [(rng.randint(1, 1004), rng.randint(1, 14)) for _ in range(10)]
    return [list(range(y + 1, y + n + 1)) for y, n in cases]


def _antichain_sets():
    rng = random.Random(PERIOD)
    by_omega = {}  # divisors with the same Omega form an antichain
    for d in trial_divisors(PERIOD)[1:]:
        by_omega.setdefault(sum(e for _, e in trial_factor(d)), []).append(d)
    return [rng.sample(by_omega[k], min(size, len(by_omega[k])))
            for k in (3, 4, 5, 6) for size in (2, 6, 12)]


def _exactly_one_sets():
    rng = random.Random(31)
    sets = [rng.sample(range(2, 501), rng.randint(1, 11)) for _ in range(30)]
    sets += [list(range(y + 1, y + n + 1)) for y, n in ((1000, 12), (1004, 14), (6, 10), (1, 8))]
    sets.append([6, 12, 18, 35])  # 6 divides 12 and 18: their terms vanish
    return sets


def _semiprimes():
    # p_i * p_(49-i) over the first 48 primes: 2*223, 3*211, ..., 89*97
    primes = [p for p in range(2, 224) if all(p % d for d in range(2, p))]
    return [primes[i] * primes[47 - i] for i in range(24)]


def _linked_products():
    # x_i y_i for 20 small x_i and larger y_i, linked by prod y_i until the
    # DP branches past the y_i; without splitting this takes 2^20 states
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    xs, ys = primes[:20], primes[20:40]
    return xs, ys, [x * y for x, y in zip(xs, ys)] + [math.prod(ys)]


P61, P89, R17 = 2**61 - 1, 2**89 - 1, 10**17 + 3  # two Mersenne primes and a cofactor


def test_random_sets_match_oracle():
    for gens in _random_sets():
        _check(gens)


def test_intervals_match_oracle():
    for gens in _interval_sets():
        _check(gens)


def test_divisor_antichains_match_oracle():
    for gens in _antichain_sets():
        _check(gens)


def test_exactly_one_matches_oracle():
    for gens in _exactly_one_sets():
        sums = naive_ie_sums(gens)
        (eps, eps_hi), (eps1, eps1_hi) = divisor_hit_densities(GeneratorSet(gens))
        assert eps == eps_hi == _alternating(sums)
        assert eps1 == eps1_hi == _alternating(sums, weight=lambda k: k)


def test_eps_pair_exact_route():
    sums = naive_ie_sums(range(1001, 1013))
    eps, eps1, rho = eps_pair(1000, 1012, 10**6)
    assert eps.method == eps1.method == "exact_ie"
    assert eps.exact == _alternating(sums)
    assert eps1.exact == _alternating(sums, weight=lambda k: k)
    assert rho == float(eps1.exact / eps.exact)


def test_bonferroni_ends_round_outward():
    # the float nearest 1/3 lies below it, so the upper end must not be that float
    est = density_bracket(GeneratorSet([3]), method="bonferroni", depth=0)
    assert Fraction(float(Fraction(1, 3))) < Fraction(1, 3) <= Fraction(est.upper)
    for gens in _antichain_sets():
        exact = _alternating(naive_ie_sums(gens))
        for depth in range(4):
            est = density_bracket(GeneratorSet(gens), method="bonferroni", depth=depth)
            assert Fraction(est.lower) <= exact <= Fraction(est.upper), (gens, depth)


def test_remainder_Rn_rounds_exact_remainder():
    x = 10**5
    assert remainder_Rn(12, x)[0] == float(Fraction(-6143026, 676039))
    for n in (12, 30, 200):
        A = GeneratorSet(interval=(n - 1, 2 * n))
        cnt = int(np.count_nonzero(trial_multiples_mask(A.elements, x)))
        exact = cnt - density_bracket(A, method="exact_ie").exact * x
        r, r_lo, r_hi = remainder_Rn(n, x)
        assert Fraction(r_lo) <= exact <= Fraction(r_hi), n
        assert r == float(exact)


def test_state_cap_raises(monkeypatch):
    monkeypatch.setattr(multiples, "MAX_DP_STATES", 20)
    with pytest.raises(ResourceError, match="states"):
        density_bracket(GeneratorSet(interval=(100, 124)), method="exact_ie")


def test_small_known_densities():
    assert _valuation_density([2, 3]) == Fraction(2, 3)
    assert _valuation_density([4, 6]) == Fraction(1, 3)
    assert _valuation_density([8, 12, 18]) == Fraction(7, 36)  # 1/8 + 1/12 + 1/18 - 1/24 - 1/36


def test_coprime_base_refines_generators():
    rng = random.Random(99)
    for _ in range(40):
        gens = rng.sample(range(2, 2001), rng.randint(1, 12))
        base = _coprime_base(gens)
        assert all(math.gcd(a, b) == 1 for a, b in combinations(base, 2))
        for a in gens:
            for m in base:
                while a % m == 0:
                    a //= m
            assert a == 1


def test_pairwise_coprime_semiprimes():
    gens = _semiprimes()
    miss = math.prod(1 - Fraction(1, g) for g in gens)
    est = density_bracket(GeneratorSet(gens), method="exact_ie")
    assert est.method == "exact_ie" and est.exact == 1 - miss


def test_groups_split_inside_the_dp(monkeypatch):
    xs, ys, gens = _linked_products()
    # 1 - d = P(no x_i y_i | n) - P(every y_i | n and no x_i y_i | n)
    miss = (math.prod(1 - Fraction(1, x * y) for x, y in zip(xs, ys))
            - math.prod(Fraction(1, y) * (1 - Fraction(1, x)) for x, y in zip(xs, ys)))
    monkeypatch.setattr(multiples, "MAX_DP_STATES", 500)
    assert density_bracket(GeneratorSet(gens), method="exact_ie").exact == 1 - miss


def test_large_generators_need_no_factorisation():
    p, q, r = P61, P89, R17
    start = time.perf_counter()
    assert _valuation_density([p, q]) == 1 - (1 - Fraction(1, p)) * (1 - Fraction(1, q))
    # p divides both: d = (1/p)(1 - (1 - 1/q)(1 - 1/r)) when q and r are coprime
    assert math.gcd(q, r) == 1
    assert _valuation_density([p * q, p * r]) == Fraction(1, p) * (
        1 - (1 - Fraction(1, q)) * (1 - Fraction(1, r)))
    _, (eps1, eps1_hi) = divisor_hit_densities(GeneratorSet([p, q]))
    assert eps1 == eps1_hi == (Fraction(1, p) * (1 - Fraction(1, q))
                               + Fraction(1, q) * (1 - Fraction(1, p)))
    assert time.perf_counter() - start < 1.0


def _frame_depth(monkeypatch):
    """A list whose item 0 becomes the deepest nesting of live _frame
    generators in the DPs run while the patch holds."""
    live, deepest = [0], [0]
    frame = multiples._ValuationDP._frame

    def counted(self, state):
        live[0] += 1
        deepest[0] = max(deepest[0], live[0])
        try:
            return (yield from frame(self, state))
        finally:
            live[0] -= 1

    monkeypatch.setattr(multiples._ValuationDP, "_frame", counted)
    return deepest


def test_deep_set_needs_no_recursion_limit(monkeypatch):
    """2p over the first 500 odd primes: the DP branches on 2, which divides
    every element, and the 500 primes left split at once, so its states
    nest 2 deep.  d M = (1/2)(1 - prod(1 - 1/p))."""
    limit = sys.getrecursionlimit()
    primes = [p for p in range(3, 3582) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    assert len(primes) == 500
    want = (1 - math.prod(1 - Fraction(1, p) for p in primes)) / 2
    depth = _frame_depth(monkeypatch)
    for method in ("exact_ie", "auto"):
        est = density_bracket(GeneratorSet(2 * p for p in primes), method=method)
        assert est.method == "exact_ie" and est.exact == want, method
    assert depth[0] == 2
    assert sys.getrecursionlimit() == limit


def _stack_depth():
    """The number of frames on the stack from the caller's frame outward."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_prime_path_nests_past_the_recursion_limit(monkeypatch):
    """p_i p_(i+1) over the first 300 primes: every prime but the two ends
    divides two elements, so the DP branches on the largest of those, and
    its levels split the path two primes shorter off the neighbours it
    freed.  The states nest 151 deep, past a recursion limit that the
    recursive DP cannot work under, and the engine answers exactly
    (oracles.prime_path_density)."""
    primes = [p for p in range(2, 1988) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    assert len(primes) == 300
    gens = [p * q for p, q in zip(primes, primes[1:])]
    depth = _frame_depth(monkeypatch)
    limit = sys.getrecursionlimit()
    lowered = _stack_depth() + 40
    sys.setrecursionlimit(lowered)
    try:
        with pytest.raises(RecursionError):
            RecursiveValuationDP(gens, multiples.MAX_DP_STATES).root(gens)
        est = density_bracket(GeneratorSet(gens), method="exact_ie")
    finally:
        sys.setrecursionlimit(limit)
    assert est.method == "exact_ie" and est.exact == prime_path_density(primes)
    assert depth[0] == 151 > lowered


def test_state_counts():
    """The DP branches on the base element that divides the most elements
    of a state; branching on the largest one took 2948 states on
    (500, 1000] and 425 on (1000, 1016]."""
    for gens, states in ((range(501, 1001), 496), (range(1001, 1017), 72)):
        dp = multiples._ValuationDP(gens)
        lo, hi = dp.bounds(gens)
        assert lo == hi and len(dp.memo) == states, gens


# ---------------------------------------------------------------------------
# the enclosure past the state budget

BUDGETS = (20, 200, 2000)
WIDE = range(25, 61)  # (1000, 1000 + n] and remainder_Rn(n, .): past 24 generators
EPS_WIDE = range(25, 33)


def _encloses(est, exact):
    return est.method in ("exact_ie", "valuation_bracket") and _holds(est, exact)


@pytest.fixture(scope="module")
def full_budget():
    """Exact values at the full budget: for every set above, d M and the
    exactly-one density; for (1000, 1000 + n], d M from one shared memo and,
    for n in EPS_WIDE, the exactly-one density as sum_a d M(A) - d M(A - {a})
    (n has a in A as its only divisor in A exactly when it lies in M(A) but
    not in M(A - {a})); and remainder_Rn(n, 10^5)."""
    _, _, linked = _linked_products()
    sets = (_random_sets() + _interval_sets() + _antichain_sets() + _exactly_one_sets()
            + [_semiprimes(), linked, [P61, P89], [P61 * P89, P61 * R17]])
    small = []
    for gens in sets:
        _, (one, one_hi) = divisor_hit_densities(GeneratorSet(gens))
        assert one == one_hi
        small.append((gens, _valuation_density(gens), one))
    dp = multiples._ValuationDP(range(1001, 1001 + max(WIDE)))
    dens, ones = {}, {}
    for n in reversed(WIDE):
        A = range(1001, 1001 + n)
        dens[n] = dp.bounds(A)[0]
        if n in EPS_WIDE:
            ones[n] = sum(dens[n] - dp.bounds([b for b in A if b != a])[0] for a in A)
    assert len(dp.memo) < multiples.MAX_DP_STATES  # so every value above is exact
    rn = {n: remainder_Rn(n, 10**5) for n in WIDE}
    # each exact remainder is one Fraction, its float ends at most one ulp apart
    assert all(lo <= r <= hi <= math.nextafter(lo, math.inf) for r, lo, hi in rn.values())
    return small, dens, ones, rn


@pytest.mark.parametrize("budget", BUDGETS)
def test_enclosure_contains_exact_on_test_sets(monkeypatch, full_budget, budget):
    small = full_budget[0]
    monkeypatch.setattr(multiples, "MAX_DP_STATES", budget)
    for gens, d, one in small:
        assert _encloses(density_bracket(GeneratorSet(gens)), d)
        hit, exactly_one = divisor_hit_densities(GeneratorSet(gens))
        assert _encloses(multiples._bracket_estimate(*hit), d)
        assert _encloses(multiples._bracket_estimate(*exactly_one), one)


@pytest.mark.parametrize("budget", BUDGETS)
def test_enclosure_contains_exact_past_24_generators(monkeypatch, full_budget, budget):
    _, dens, ones, rn = full_budget
    monkeypatch.setattr(multiples, "MAX_DP_STATES", budget)
    for n in WIDE:
        est = density_bracket(GeneratorSet(interval=(1000, 1000 + n)))
        assert _encloses(est, dens[n])
        if budget == 20:
            assert est.method == "valuation_bracket"
        r, r_lo, r_hi = remainder_Rn(n, 10**5)
        assert r_lo <= rn[n][1] and rn[n][2] <= r_hi and r_lo <= r <= r_hi
    for n in EPS_WIDE:
        e, e1, _ = eps_pair(1000, 1000 + n, 10**6)
        assert _encloses(e, dens[n]) and _encloses(e1, ones[n])


def _dp_queries():
    """(generators, the sets asked of one DP over them) for every set above:
    each small set, then the quotients that divisor_hit_densities asks
    beside each element; and (1000, 1000 + n] from one DP as full_budget
    asks them."""
    _, _, linked = _linked_products()
    sets = (_random_sets() + _interval_sets() + _antichain_sets() + _exactly_one_sets()
            + [_semiprimes(), linked, [P61, P89], [P61 * P89, P61 * R17]])
    out = []
    for gens in sets:
        rests = ([b // math.gcd(a, b) for b in gens if b != a] for a in gens)
        out.append((gens, [gens] + [r for r in rests if 1 not in r]))
    wide = []
    for n in reversed(WIDE):
        A = list(range(1001, 1001 + n))
        wide.append(A)
        if n in EPS_WIDE:
            wide += [[b for b in A if b != a] for a in A]
    out.append((range(1001, 1001 + max(WIDE)), wide))
    return out


@pytest.mark.parametrize("budget", (multiples.MAX_DP_STATES, *BUDGETS))
def test_engine_matches_recursive_dp(monkeypatch, budget):
    """The explicit stack and the incremental reduction change no result:
    each root (lo, hi, L) and its Fractions, and the memo (its size, and
    state by state in the order stored) equal those of the recursive DP, so
    every budget encloses the same states."""
    monkeypatch.setattr(multiples, "MAX_DP_STATES", budget)
    for gens, queries in _dp_queries():
        dp, ref = multiples._ValuationDP(gens), RecursiveValuationDP(gens, budget)
        for elems in queries:
            lo, hi, L = ref.root(elems)
            assert dp._solve(multiples._primitive(elems)) == (lo, hi, L), (gens, elems)
            assert dp.bounds(elems) == (Fraction(lo, L), Fraction(hi, L))
        assert list(dp.memo.items()) == list(ref.memo.items()), gens


# ---------------------------------------------------------------------------
# one containment check over every function that returns a rigorous estimate

def _period_density(gens):
    """d M(gens) for divisors gens of PERIOD, counted over one period."""
    return Fraction(int(np.count_nonzero(trial_multiples_mask(gens, PERIOD)[1:])), PERIOD)


def _holds(est, truth):
    """Fraction(lower) <= truth <= Fraction(upper), and exact == truth where
    the estimate sets `exact`."""
    return (Fraction(est.lower) <= truth <= Fraction(est.upper)
            and (est.exact is None or est.exact == truth))


def _log_quotients(gens, x):
    """(sum_{n <= x, n in M(gens)} 1/n) / ln x between two Fractions: the sum
    exact, ln x from a 40-digit decimal, correctly rounded, so within a
    relative 10^-39 of the truth."""
    members = np.flatnonzero(trial_multiples_mask(gens, x)).tolist()
    lcm = math.lcm(*members)
    total = Fraction(sum(lcm // n for n in members), lcm)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        ln = Fraction(decimal.Decimal(x).ln())
    slack = Fraction(1, 10**39)
    return total / (ln * (1 + slack)), total / (ln * (1 - slack))


def test_every_rigorous_estimate_holds_the_truth(monkeypatch):
    sets = _antichain_sets()
    dens = [_period_density(gens) for gens in sets]
    for gens, d in zip(sets, dens):
        A = GeneratorSet(gens)
        assert _holds(density_bracket(A, method="exact_ie"), d), gens
        for depth in range(4):
            assert _holds(density_bracket(A, method="bonferroni", depth=depth), d), (gens, depth)
        grid = sorted(gens)
        for i, est in enumerate(sequential_density(A, grid)):
            assert _holds(est, _alternating(naive_ie_sums(grid[:i + 1]))), (gens, i)
        for y in (3, 5, 7, 13):
            friable = [a for a in gens if max(p for p, _ in trial_factor(a)) <= y]
            assert _holds(m_of_y(A, y), _alternating(naive_ie_sums(friable))), (gens, y)
    for d in range(1, 13):
        for k in range(1, d + 2):
            assert _holds(Lambda_kd(k, d), naive_lambda_kd(k, d)), (k, d)
    for k, d in ((5, 30), (2, 40), (1, 41)):  # zero hits: Lambda_k(d) = 0
        est = Lambda_kd(k, d, method="mc", samples=100, seed=1)
        assert est.lower == est.point == 0 and _holds(est, 0), (k, d)

    # the exact share of multiples up to x, and the float log density
    for gens in sets[:6] + _interval_sets()[:6]:
        for x in (2, 97, 1000, 10**4):
            share = Fraction(int(np.count_nonzero(trial_multiples_mask(gens, x)[1:])), x)
            assert _holds(sieve_density(GeneratorSet(gens), x), share), (gens, x)
            est = log_density(GeneratorSet(gens), x)
            lo, hi = _log_quotients(gens, x)
            assert Fraction(est.lower) <= lo and hi <= Fraction(est.upper), (gens, x)

    sums = naive_ie_sums(range(1001, 1013))
    hit, one = _alternating(sums), _alternating(sums, weight=lambda k: k)
    x = 10**5
    rem = {}
    for n in (6, 12):
        A = GeneratorSet(interval=(n - 1, 2 * n))
        cnt = int(np.count_nonzero(trial_multiples_mask(A.elements, x)))
        rem[n] = cnt - _alternating(naive_ie_sums(A.reduce().elements)) * x
    # the full budget, then one so small that auto, eps_pair and remainder_Rn
    # return the enclosure's brackets
    methods = set()
    for budget in (multiples.MAX_DP_STATES, 3):
        monkeypatch.setattr(multiples, "MAX_DP_STATES", budget)
        for gens, d in zip(sets, dens):
            est = density_bracket(GeneratorSet(gens))
            assert _holds(est, d), (gens, budget)
            methods.add(est.method)
        e, e1, _ = eps_pair(1000, 1012, 10**6)
        assert _holds(e, hit) and _holds(e1, one), budget
        methods |= {e.method, e1.method}
        for n, r in rem.items():
            _, r_lo, r_hi = remainder_Rn(n, x)
            assert Fraction(r_lo) <= r <= Fraction(r_hi), (n, budget)
    assert methods == {"exact_ie", "valuation_bracket"}
