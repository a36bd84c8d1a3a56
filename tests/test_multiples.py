import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divilab import (
    ConstraintError,
    DomainError,
    GeneratorSet,
    INFINITE,
    ResourceError,
    alpha0,
    behrend_ineq_check,
    block_builder,
    criterion4_scan,
    d1,
    density_bracket,
    factor,
    in_ME,
    is_in_E,
    log_density,
    m_of_y,
    max_gap,
    multiples_count,
    remainder_Rn,
    sequential_density,
)
import divilab.multiples as multiples_mod
from divilab.multiples import (
    SIGMA0,
    _bonferroni_sums,
    _bonferroni_visits,
    _check_lcm_work,
    block_elements,
    sieve_density,
)

from oracles import (
    friable_m_bracket,
    naive_bonferroni,
    naive_ie_sums,
    naive_in_ME,
    naive_is_in_E,
    naive_multiples_count,
    trial_divisors,
    trial_factor,
)

# divisors of 720720 with five prime factors: an antichain of 46
ANTICHAIN_POOL = [d for d in trial_divisors(720720) if sum(e for _, e in trial_factor(d)) == 5]


def test_generator_set_validation():
    with pytest.raises(DomainError):
        GeneratorSet([1, 2])
    with pytest.raises(DomainError):
        GeneratorSet(interval=(5, 5))
    assert GeneratorSet(interval=(4, 8)).elements == (5, 6, 7, 8)
    assert len(GeneratorSet()) == 0


def test_reduction_primitive():
    g = GeneratorSet([2, 4, 6, 9, 27])
    assert g.reduce().elements == (2, 9)


def test_multiples_count_examples():
    assert multiples_count(GeneratorSet([2, 3]), 12) == 8
    assert multiples_count(GeneratorSet([2]), 100) == 50
    A = GeneratorSet(interval=(4, 8))
    assert multiples_count(A, 35) == naive_multiples_count(A.elements, 35)
    assert multiples_count(A, 35) == 18
    with pytest.raises(DomainError):  # a scan size below 1 is a domain error
        multiples_count(GeneratorSet([2]), 0)
    from divilab.tables import multiples_mask

    with pytest.raises(DomainError):  # so is a generator below 1
        multiples_mask([3, 0], 10)


def test_reduction_preserves_counts():
    rng = random.Random(99)
    for _ in range(40):
        elems = rng.sample(range(2, 300), rng.randint(1, 10))
        A = GeneratorSet(elems)
        for x in (100, 1234, 10**4):
            assert multiples_count(A, x) == multiples_count(A.reduce(), x)


def test_density_exact_examples():
    assert density_bracket(GeneratorSet([2, 3])).exact == Fraction(2, 3)
    assert density_bracket(GeneratorSet(interval=(2, 4))).exact == Fraction(1, 2)
    est = density_bracket(GeneratorSet(interval=(4, 8)))
    assert est.exact == Fraction(17, 35)
    _assert_pinned(est)
    assert density_bracket(GeneratorSet()).exact == 0


def _assert_pinned(est):
    """An exact estimate: the nearest float as point, and float ends that
    hold the Fraction, each at most one ulp from the point."""
    assert est.point == float(est.exact)
    assert Fraction(est.lower) <= est.exact <= Fraction(est.upper)
    assert math.nextafter(est.point, -math.inf) <= est.lower
    assert est.upper <= math.nextafter(est.point, math.inf)


def test_density_bonferroni_brackets_exact():
    rng = random.Random(4242)
    for _ in range(30):
        elems = rng.sample(range(2, 200), rng.randint(2, 10))
        A = GeneratorSet(elems)
        exact = density_bracket(A, method="exact_ie").exact
        for depth in (0, 1, 2):
            est = density_bracket(A, method="bonferroni", depth=depth)
            assert Fraction(est.lower) <= exact <= Fraction(est.upper)


def test_bonferroni_guardrails(monkeypatch):
    from divilab import ResourceError

    many = GeneratorSet(range(101, 400, 2))
    est = density_bracket(many, method="bonferroni", depth=0)
    assert 0.0 <= est.lower <= est.upper <= 1.0  # trivial bounds clamp

    def no_work(*args):
        raise AssertionError("the sums ran before the guard")

    monkeypatch.setattr(multiples_mod, "_bonferroni_sums", no_work)
    with pytest.raises(ResourceError):
        density_bracket(many, method="bonferroni", depth=4)
    with pytest.raises(DomainError):
        density_bracket(many, method="bonferroni", depth=-1)


def test_bonferroni_cap_counts_lcms_not_subsets():
    # the C(46, k) subsets for k <= 6 exceed 3 000 000, but the 46 divisors
    # of 720720 have at most 5 * 3 * 2^4 = 240 distinct lcms per level
    A = GeneratorSet(ANTICHAIN_POOL)
    assert len(A.reduce()) == 46
    exact = Fraction(naive_multiples_count(ANTICHAIN_POOL, 720720), 720720)
    for depth in (4, 8):
        est = density_bracket(A, method="bonferroni", depth=depth)
        assert est.method == "bonferroni"
        assert Fraction(est.lower) <= exact <= Fraction(est.upper)


def test_bonferroni_visit_bound_holds():
    # each of the n passes of the lcm DP visits at most the distinct lcms of
    # the k-subsets at every level k < maxsize
    rng = random.Random(46)
    sets = [tuple(rng.sample(ANTICHAIN_POOL, 9))] + [
        tuple(rng.sample(range(2, 300), rng.randint(2, 9))) for _ in range(30)
    ]
    for gens in sets:
        n = len(gens)
        distinct = [len({math.lcm(*c) for c in itertools.combinations(gens, k)})
                    for k in range(n + 1)]
        for maxsize in range(1, n + 1):
            assert _bonferroni_visits(gens, maxsize) >= n * sum(distinct[:maxsize]), gens


def test_lcm_work_check_is_the_two_stage_rule(monkeypatch):
    # the distinct-generator floor only refuses sets that the visit bound
    # refuses too: with a small cap, the check raises exactly when the subset
    # terms and the visit bound both pass it
    from divilab import ResourceError

    cap = 2000
    monkeypatch.setattr(multiples_mod, "MAX_LCM_VISITS", cap)
    rng = random.Random(13)
    sets = [tuple(rng.sample(ANTICHAIN_POOL, rng.randint(2, 30))) for _ in range(20)] + [
        tuple(rng.choices(range(2, 60), k=rng.randint(2, 30))) for _ in range(20)
    ]
    refused = 0
    for gens in sets:
        n = len(gens)
        for maxsize in range(1, n + 1):
            terms = sum(math.comb(n, k) for k in range(1, maxsize + 1))
            want = terms > cap and _bonferroni_visits(gens, maxsize) > cap
            try:
                _check_lcm_work(gens, maxsize)
                got = False
            except ResourceError:
                got = True
            assert got == want, (gens, maxsize)
            refused += got
    assert refused > 0


def test_bonferroni_sums_match_subset_walk():
    rng = random.Random(8)
    for _ in range(40):
        gens = rng.sample(range(2, 400), rng.randint(2, 12))
        want = naive_ie_sums(gens)
        for maxsize in range(1, len(gens) + 1):
            assert _bonferroni_sums(gens, maxsize) == want[: maxsize + 1]


def _bonferroni_cases():
    pick = random.Random(720720)
    for n, depth in ((30, 1), (40, 1), (30, 2), (36, 2)):
        yield tuple(sorted(pick.sample(ANTICHAIN_POOL, n))), depth
    yield tuple(range(1001, 1031)), 1
    rng = random.Random(77)
    for i in range(10):
        yield tuple(rng.sample(range(2, 2000), rng.randint(2, 14))), i % 3


def test_bonferroni_matches_subset_walk():
    for gens, depth in _bonferroni_cases():
        A = GeneratorSet(gens)
        est = density_bracket(A, method="bonferroni", depth=depth)
        assert (est.point, est.lower, est.upper) == naive_bonferroni(A.reduce().elements, depth)
        assert est.method == "bonferroni" and est.params == {"depth": depth}
        assert est.exact is None


def test_sieve_density_matches_exact():
    A = GeneratorSet(interval=(4, 8))
    est = sieve_density(A, 10**6)
    assert abs(est.point - 17 / 35) < 2e-3


def test_log_density():
    assert abs(log_density(GeneratorSet([2]), 10**6).point - 0.5) < 0.01
    assert log_density(GeneratorSet(), 100).point == 0.0
    with pytest.raises(DomainError):  # ln 1 = 0: the density needs x >= 2
        log_density(GeneratorSet(interval=(4, 8)), 1)


@pytest.mark.slow
def test_log_density_interval_trend():
    # the estimator carries a constant/ln x correction, so the gap to the
    # exact density 17/35 shrinks like 1/ln x; at 1e7 it is still ~0.024
    gaps = []
    for x in (10**5, 10**6, 10**7):
        est = log_density(GeneratorSet(interval=(4, 8)), x)
        gaps.append(abs(est.point - 17 / 35))
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 0.03
    est7 = log_density(GeneratorSet(interval=(4, 8)), 10**7)
    assert est7.point == pytest.approx(0.4617929, abs=1e-4)


def test_sequential_density():
    ests = sequential_density(GeneratorSet([2, 3, 5]), [2, 3, 5])
    assert [e.exact for e in ests] == [Fraction(1, 2), Fraction(2, 3), Fraction(11, 15)]
    vals = [e.point for e in ests]
    assert vals == sorted(vals)
    t6 = sequential_density(GeneratorSet(interval=(4, 8)), [6])[0]
    assert t6.exact == Fraction(1, 3)


def test_d1_examples(sieve_1e4):
    assert d1(12, GeneratorSet([4, 6])) == 4
    assert d1(5, GeneratorSet([4, 6])) is INFINITE
    assert d1(36, GeneratorSet(interval=(4, 8))) == 6
    assert d1(36, GeneratorSet(interval=(4, 8)), f=factor(36, sieve_1e4)) == 6
    assert d1(12, GeneratorSet([])) is INFINITE
    assert d1(12, GeneratorSet([]), f=factor(12, sieve_1e4)) is INFINITE


def test_d1_matches_trial_division(sieve_1e4):
    # the smallest divisor in A, with and without a given factorization
    for A in (GeneratorSet([4, 6, 35]), GeneratorSet(interval=(30, 60)), GeneratorSet([97])):
        for n in range(1, 3001):
            hits = [d for d in trial_divisors(n) if d in A.elements]
            want = hits[0] if hits else INFINITE
            assert d1(n, A) == want, (A, n)
            assert d1(n, A, f=factor(n, sieve_1e4)) == d1(n, A), (A, n)


def test_criterion4():
    A = GeneratorSet([2])
    assert criterion4_scan(A, 0.5, 10**5) < 1e-3
    assert criterion4_scan(GeneratorSet(), 0.5, 1000) == 0.0
    # truncated close-divisor-product set as the obstruction probe
    e_proxy = GeneratorSet([n for n in range(2, 2000) if is_in_E(n)])
    freq_small = criterion4_scan(e_proxy, 0.5, 10**4)
    freq_large = criterion4_scan(e_proxy, 0.5, 10**6)
    assert freq_large < freq_small < 0.2


def test_behrend_examples():
    lhs, rhs, ok = behrend_ineq_check(GeneratorSet([2]), GeneratorSet([3]))
    assert ok and lhs == pytest.approx(rhs, abs=1e-12)  # coprime: equality
    lhs, rhs, ok = behrend_ineq_check(GeneratorSet([4]), GeneratorSet([6]))
    assert ok
    assert lhs == pytest.approx(2 / 3, abs=1e-12)
    assert rhs == pytest.approx(5 / 8, abs=1e-12)
    lhs, rhs, ok = behrend_ineq_check(GeneratorSet([6, 10]), GeneratorSet([6, 10]))
    assert ok


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.integers(min_value=2, max_value=60), min_size=1, max_size=8),
    st.sets(st.integers(min_value=2, max_value=60), min_size=1, max_size=8),
)
def test_behrend_inequality_property(a, b):
    _, _, ok = behrend_ineq_check(GeneratorSet(a), GeneratorSet(b))
    assert ok


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(min_value=2, max_value=300), min_size=1, max_size=9),
       st.integers(min_value=10, max_value=5000))
def test_count_matches_exact_density_bound(a, x):
    A = GeneratorSet(a)
    exact = density_bracket(A, method="exact_ie").exact
    cnt = multiples_count(A, x)
    # the counting error of inclusion-exclusion floors is under 2^|A| - 1
    assert abs(cnt - float(exact) * x) <= 2 ** len(A)


def test_behrend_randomized_prefix():
    rng = random.Random(31337)
    for _ in range(50):
        A = GeneratorSet(rng.sample(range(2, 60), rng.randint(1, 8)))
        B = GeneratorSet(rng.sample(range(2, 60), rng.randint(1, 8)))
        _, _, ok = behrend_ineq_check(A, B)
        assert ok


def test_block_builder_families():
    seq = block_builder("a_lambda", {"lam": 1.0}, 3)
    for j, (T, H) in enumerate(seq.blocks, start=1):
        assert T == pytest.approx(math.exp(j), rel=1e-12)
        assert H == 2.0
    bes = block_builder("besicovitch", {"T1": 4.0}, 4)
    assert [b[0] for b in bes.blocks] == [4.0, 16.0, 256.0, 65536.0]
    th3 = block_builder("theorem3", {"sigma": 0.0, "tau": 0.0, "gamma": 0.0, "alpha": 0.5}, 10)
    assert len(th3.blocks) == 10


def test_block_growth_violation_names_j():
    with pytest.raises(ConstraintError) as err:
        block_builder("a_lambda", {"lam": 0.5}, 4)
    assert "j=1" in str(err.value)


def test_block_elements():
    seq = block_builder("explicit", {"blocks": [(4, 2), (20, 1.5)]}, 2)
    gens = block_elements(seq)
    assert gens.elements == (5, 6, 7, 8, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30)


def test_alpha0():
    assert alpha0(0.0) == pytest.approx(math.log(2), abs=1e-12)
    assert alpha0(SIGMA0) == 0.0
    assert alpha0(3.0) == pytest.approx(SIGMA0 - 3.0, abs=1e-12)
    left = alpha0(SIGMA0 - 1e-13)
    right = alpha0(SIGMA0 + 1e-13)
    assert abs(left - right) < 1e-12
    with pytest.raises(DomainError):
        alpha0(-1.0)


def test_m_of_y():
    est = m_of_y(GeneratorSet([2]), 3)
    assert est.point == pytest.approx(0.5, abs=1e-3)
    assert est.upper >= est.point
    # lower-bound property: m(y) <= observed density + bracket width
    for gens, y in (([2], 3), ([2, 3], 5), ([4, 9], 7)):
        A = GeneratorSet(gens)
        m = m_of_y(A, y)
        observed = multiples_count(A, 10**5) / 10**5
        assert m.point <= observed + m.width + 1e-9
    # every friable >= 2 is a multiple of a generator: the sum telescopes
    # to prod^{-1} - 1, giving 1 - prod = 11/15 at y = 5
    est = m_of_y(GeneratorSet(interval=(1, 200)), 5)
    assert est.point == pytest.approx(11 / 15, abs=1e-3)
    assert m_of_y(GeneratorSet(), 5).point == 0.0


# (generators, y): sets whose m(y) the valuation DP gives in under 0.3 s
M_OF_Y_GRID = [
    ([2], 3), ([2, 3], 5), ([4, 9], 7), (range(2, 201), 5),
    (range(1001, 1031), 7), (range(1001, 1031), 13), (range(1001, 1031), 47),
    (range(1001, 1031), 97), (range(1000, 1100), 11),
]


@pytest.mark.parametrize("gens, y", M_OF_Y_GRID)
def test_m_of_y_within_friable_sum(gens, y):
    est = m_of_y(GeneratorSet(gens), y)
    assert est.method == "exact_ie" and isinstance(est.exact, Fraction)
    _assert_pinned(est)
    assert est.params == {"y": y}
    point, upper = friable_m_bracket(list(gens), y, 10**6)
    assert point <= est.exact <= upper


def test_m_of_y_all_integers():
    # every y-friable r >= 2 is a multiple of some generator
    for y in (2, 3, 5, 7, 11, 13, 30):
        primes = [p for p in range(2, y + 1) if trial_factor(p) == [(p, 1)]]
        want = 1 - math.prod((1 - Fraction(1, p) for p in primes), start=Fraction(1))
        for bound in (y, y + 1, 2 * y + 5):
            assert m_of_y(GeneratorSet(range(2, bound + 1)), y).exact == want


def _friable_part(gens, y):
    return [a for a in gens if all(p <= y for p, _ in trial_factor(a))]


def test_m_of_y_period_count():
    assert m_of_y(GeneratorSet([7]), 7).exact == Fraction(1, 7)
    assert m_of_y(GeneratorSet([2, 7]), 5).exact == Fraction(1, 2)
    assert m_of_y(GeneratorSet([11, 13]), 7).exact == 0
    rng = random.Random(2024)
    cases = 0
    while cases < 40:
        gens = rng.sample(range(2, 80), rng.randint(1, 6))
        y = rng.choice((2, 3, 5, 7, 11, 13, 17))
        ay = _friable_part(gens, y)
        L = math.lcm(*ay)
        if L > 50_000:
            continue
        cases += 1
        want = Fraction(naive_multiples_count(ay, L), L)
        assert m_of_y(GeneratorSet(gens), y).exact == want, (gens, y)


def test_m_of_y_errors(monkeypatch):
    with pytest.raises(DomainError):
        m_of_y(GeneratorSet([2]), 1)
    A = GeneratorSet(interval=(1000, 1030))
    exact = m_of_y(A, 97)
    assert exact.method == "exact_ie" and exact.params == {"y": 97}
    # past the state budget: a valuation_bracket that holds the exact value
    monkeypatch.setattr(multiples_mod, "MAX_DP_STATES", 50)
    est = m_of_y(A, 97)
    assert est.method == "valuation_bracket" and est.params == {"y": 97}
    assert est.exact is None and est.lower < est.upper
    assert Fraction(est.lower) <= exact.exact <= Fraction(est.upper)


def test_behrend_compares_fractions(monkeypatch):
    _, _, ok = behrend_ineq_check(GeneratorSet([2]), GeneratorSet([3]))
    assert ok is True  # equality, decided exactly
    # lhs = 1/4 - 10^-15 < rhs = 1/4: inside a float slack, false as Fractions
    dens = iter([Fraction(1, 2), Fraction(1, 2), Fraction(3, 4) + Fraction(1, 10**15)])
    monkeypatch.setattr(multiples_mod, "_valuation_density", lambda G: next(dens))
    lhs, rhs, ok = behrend_ineq_check(GeneratorSet([2]), GeneratorSet([3]))
    assert ok is False
    assert rhs == 0.25 and rhs - lhs == pytest.approx(1e-15)


def test_behrend_past_generator_cap():
    """A has 30 primitive generators; exact_ie answers them with the
    Fraction that behrend_ineq_check uses."""
    A = GeneratorSet(range(1001, 1031))
    assert len(A.reduce()) == 30
    est = density_bracket(A, method="exact_ie")
    assert est.exact == multiples_mod._valuation_density(A.elements)
    lhs, rhs, ok = behrend_ineq_check(A, GeneratorSet([2]))
    assert ok is True
    assert rhs == float((1 - est.exact) / 2)  # (1 - dM(A)) (1 - 1/2)
    # the union reduces to 2 and the 15 odd members: 16 generators
    union = GeneratorSet([2, *range(1001, 1031, 2)])
    assert lhs == float(1 - density_bracket(union, method="exact_ie").exact)
    assert est.point == pytest.approx(0.0286149, abs=1e-7)
    bracket = density_bracket(A, method="bonferroni", depth=1)
    assert bracket.lower <= est.point <= bracket.upper


def test_E_membership_examples():
    assert not is_in_E(2)
    assert is_in_E(6)
    assert is_in_E(12)
    assert not is_in_E(1)
    for n in range(1, 2000):
        assert is_in_E(n) == naive_is_in_E(n)
        assert in_ME(n) == naive_in_ME(n)


def test_remainder_examples():
    assert remainder_Rn(1, 100) == (0.0, 0.0, 0.0)
    r, lo, hi = remainder_Rn(2, 12)
    assert r == pytest.approx(0.0, abs=1e-9)
    assert lo <= r <= hi
    r10, lo10, hi10 = remainder_Rn(10, 10**5)
    assert lo10 <= r10 <= hi10


def test_max_gap():
    gap, loc = max_gap(1, 100)
    assert gap == 2 and loc % 2 == 0
    gap2, _ = max_gap(2, 50)
    # M({3, 4}) gaps: elements 3,4,6,8,9,12,... largest hole oracle
    members = sorted(set(list(range(3, 51, 3)) + list(range(4, 51, 4))))
    expect = max(b - a for a, b in zip(members, members[1:]))
    assert gap2 == expect
    with pytest.raises(DomainError):
        max_gap(40, 41)  # M((40, 80]) has a single element up to 41
