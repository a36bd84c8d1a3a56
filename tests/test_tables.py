"""The prime-factor tables and the quotient-recurrence counts against the
per-prime strided sieves they replaced, also at tiny chunk sizes,
the tau^+ bitmask kernel against the per-cell builder it replaced, the
prime-run tau table, the windowed interval count, nu_distribution and
P^+ adjacency against the whole-array scans they replaced, the pair
walker, the divisor-pair windows, the Delta kernel and the per-n divisor
spectra read from them, and the multiples mask against trial division
and trial marking, the number of pair windows each range kernel reads,
and the peak memory of the window scans.

The listed sizes straddle the chunk and window boundaries: the chunks of
`sieve.prime_runs` double up to 1 MB of table (2**20 uint8, 2**19 uint16
or 2**18 int32 cells) and then advance by it, and the windows of
`_windows` advance by 2**20 from 1, so x = 2**20 - 1, 2**20 + 3,
2**21 + 3 and 3 * 2**20 + 7 end inside capped chunks and on either side
of a window's end.
"""

import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from divilab import DomainError, ResourceError, psi1_count
from divilab.errors import DEFAULT_LIMIT_CAP, DEFAULT_SCAN_CAP
from divilab.experiments import (
    dtheta_exponent_stats,
    golden_ratio_fraction,
    h_count,
    nu_distribution,
    omega_median_count,
    pplus_adjacency,
    s_avg,
)
import divilab.sieve as sieve_mod
from divilab.sieve import SpfSieve
import divilab.tables as tables_mod
from divilab.tables import (
    _PAIR_WINDOW,
    _delta_window,
    _divisor_spectra,
    _pair_windows,
    _pairs,
    _quotients,
    e_set_mask,
    gpf_table,
    multiples_mask,
    omega_table,
    tau_table,
    tauplus_window,
)

from oracles import (
    cell_tauplus_table,
    divisor_lists,
    eratosthenes_primes,
    hyperbola_tau_table,
    interval_multiples_hits,
    list_delta,
    list_dtheta_exponents,
    mask_pplus_adjacency,
    sieve_gpf_table,
    sieve_omega_table,
    sieve_psi1_mask,
    trial_divisors,
    trial_multiples_mask,
    whole_table_nu_distribution,
)

XS = (1, 2, 3, 4, 10, 1000, 2**20 - 1, 2**20 + 3, 2**21 + 3, 3 * 2**20 + 7)
YS = (2, 3, 97, 1000, 2**20)
XMAX = max(XS)


def _same(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def oracle_tables():
    # each table on 0..x is the prefix of the table on 0..XMAX
    return {
        "omega": sieve_omega_table(XMAX),
        "Omega": sieve_omega_table(XMAX, with_multiplicity=True),
        "gpf": sieve_gpf_table(XMAX),
        "psi1": {y: np.cumsum(sieve_psi1_mask(XMAX, y)) for y in YS},
        "tauplus": cell_tauplus_table(XMAX),
    }


@pytest.mark.parametrize("x", XS)
def test_omega_tables_match_oracle(oracle_tables, x):
    _same(omega_table(x), oracle_tables["omega"][:x + 1])
    _same(omega_table(x, with_multiplicity=True), oracle_tables["Omega"][:x + 1])


@pytest.mark.parametrize("x", XS)
def test_gpf_table_matches_oracle(oracle_tables, x):
    _same(gpf_table(x), oracle_tables["gpf"][:x + 1])


@pytest.mark.parametrize("chunk_bytes", [1, 4, 7, 44, 200])
def test_prime_factor_tables_tiny_chunks(oracle_tables, chunk_bytes, monkeypatch):
    # chunks of chunk_bytes uint8 cells for omega and Omega and of
    # chunk_bytes // 4 (at least 1) int32 cells for P^+: every x up to 130
    # ends a chunk of each, and 49, 121 = 11^2 and 122 open, end or follow
    # one where a prime first sieves its square
    monkeypatch.setattr(sieve_mod, "_CHUNK_BYTES", chunk_bytes)
    for x in (*range(1, 131), 1000, 1031):
        _same(omega_table(x), oracle_tables["omega"][:x + 1])
        _same(omega_table(x, with_multiplicity=True), oracle_tables["Omega"][:x + 1])
        _same(gpf_table(x), oracle_tables["gpf"][:x + 1])


@pytest.mark.parametrize("x", sorted({*range(1, 65), 97, 4095, 4096, 4097, 10**5, *XS}))
def test_psi1_count_matches_oracle(oracle_tables, x):
    # y on both sides of s = isqrt(x), where the prime-by-prime recurrence
    # hands over to the count of n with one prime above s, and past x
    s = math.isqrt(x)
    for y in sorted({*YS, s - 1, s, s + 1, x // 2, x, x + 5}):
        if y < 2:
            continue
        got = psi1_count(x, y)
        assert type(got) is int
        if y in YS:
            assert got == int(oracle_tables["psi1"][y][x]), (x, y)
        else:
            assert got == int(np.count_nonzero(sieve_psi1_mask(x, min(y, x)))), (x, y)


def test_quotients_index_round_trips():
    for x in [*range(1, 2001), 10**6]:
        V, index = _quotients(x)
        assert V.dtype == np.int64 and V[0] == 1 and V[-1] == x
        assert np.all(np.diff(V) > 0), x
        assert np.array_equal(index(V), np.arange(len(V))), x
        if x <= 2000:
            assert V.tolist() == sorted({x // i for i in range(1, x + 1)}), x


def test_quotient_counts_build_no_spf_sieve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("SPF sieve built")

    monkeypatch.setattr(SpfSieve, "build", refuse)
    assert psi1_count(10**6, 1050) == 157931
    assert psi1_count(10**6, 10**6) == 607926
    assert omega_median_count(10**6).count == 288534


def test_quotient_counts_raise_past_scan_cap():
    with pytest.raises(ResourceError):
        psi1_count(DEFAULT_SCAN_CAP + 1, 1050)
    with pytest.raises(ResourceError):
        omega_median_count(DEFAULT_SCAN_CAP + 1)


def test_window_scans_raise_past_scan_cap_before_any_work(monkeypatch):
    import divilab.experiments as exp

    def refuse(*args, **kwargs):
        raise AssertionError("scan started")

    monkeypatch.setattr(exp, "_map_chunks", refuse)
    monkeypatch.setattr(tables_mod, "prime_runs", refuse)
    x = DEFAULT_SCAN_CAP + 1
    for scan, args in ((exp.t_sum, (x, 2)), (h_count, (x, 1000, 2000)), (nu_distribution, (x,)),
                       (tau_table, (x,))):
        with pytest.raises(ResourceError):
            scan(*args)


def test_omega_median_count_refuses_three_factors(monkeypatch):
    # the count covers Omega <= 2, which is all of Omega <= ln ln x below the cap
    assert DEFAULT_SCAN_CAP < math.exp(math.e ** 3)
    import divilab.experiments as exp
    monkeypatch.setattr(exp, "_check_cap", lambda x: None)
    with pytest.raises(ResourceError):
        omega_median_count(math.ceil(math.exp(math.e ** 3)))


@pytest.mark.parametrize("x", XS)
def test_tauplus_table_matches_oracle(oracle_tables, x):
    _same(tauplus_window(1, x + 1), oracle_tables["tauplus"][1:x + 1])


@pytest.mark.parametrize("lo, hi", [(10**6 - 5, 10**6 + 2**20 + 3), (2, 3), (1023, 1025),
                                    (2**20 - 7, 2**20 + 9), (3 * 2**20 - 1, 3 * 2**20 + 8)])
def test_tauplus_window_matches_oracle(oracle_tables, lo, hi):
    _same(tauplus_window(lo, hi), oracle_tables["tauplus"][lo:hi])


def test_tauplus_window_domain():
    for lo, hi in ((0, 5), (5, 5), (6, 5)):
        with pytest.raises(DomainError):
            tauplus_window(lo, hi)


def _read_pairs(a, b, lo=1, hi=None):
    """The pairs (n, e) in [lo, hi] that the `_pairs` pieces of [a, b) hold:
    (n, d) when d is in bounds, (n, m) when the piece is big."""
    top = b - 1 if hi is None else hi
    root = math.isqrt(b - 1)
    pairs = []
    for d, m0, m1, big in _pairs(a, b, lo, hi):
        assert 1 <= d <= root and m0 <= m1 and a <= d * m0 and d * m1 < b
        assert lo <= d <= top or big  # every n of a piece has a divisor in bounds
        assert not big or root < m0
        ms = range(m0, m1 + 1)
        if lo <= d <= top:
            pairs += ((d * m, d) for m in ms)
        if big:
            pairs += ((d * m, m) for m in ms)
    return pairs


# b - 1 = 99**2 - 1, 99**2 and 99**2 + 1 put root's square at the window's end;
# in (1000, 1300) and (9000, 9801) the runs of d near root cross it inside
@pytest.mark.parametrize("a, b", [(1, 2), (1, 101), (2, 3), (97, 98), (1000, 1300),
                                  (10**5 - 17, 10**5 + 400), (9000, 9801), (9000, 9802),
                                  (9000, 9803)])
def test_pairs_cover_each_divisor_once(a, b):
    rng = random.Random(a * b)
    root = math.isqrt(b - 1)
    bounds = [(1, None), (1, b), (3, 7), (max(1, b // 3), b // 2),
              (max(1, root - 2), root + 3), (root + 1, b), (1, root)]
    bounds += [(rng.randint(1, b), rng.randint(1, 2 * b)) for _ in range(4)]
    for lo, hi in bounds:
        top = b if hi is None else hi
        want = sorted((n, d) for n in range(a, b) for d in trial_divisors(n) if lo <= d <= top)
        assert sorted(_read_pairs(a, b, lo, hi)) == want, (lo, hi)  # no pair twice, none missing


@pytest.mark.parametrize("a, b", [(1, 2), (1, 2**20 + 1), (9000, 9802), (10**7, 10**7 + 2**20),
                                  (4 * 10**8 - 2**16, 4 * 10**8 + 1)])
def test_pairs_walk_each_run_once(a, b):
    # one piece per d <= root, and a second only where its run crosses root:
    # a cofactor walk over the large divisors would add about root more
    root = math.isqrt(b - 1)
    crossing = sum(-(-a // d) <= root < (b - 1) // d for d in range(1, root + 1))
    assert sum(1 for _ in _pairs(a, b)) <= root + crossing


@pytest.mark.parametrize("a, b", [(1, 2), (1, 3000), (10**6 - 300, 10**6 + 300),
                                  (3 * 10**6, 3 * 10**6 + 2**16)])
def test_divisor_pairs_match_divisor_lists(a, b):
    # one window: its keys split into n - a and d, and each n's first key
    (w, key, start), = _pair_windows(a, b)
    assert w == a and key.dtype == start.dtype == np.int64
    got = [[] for _ in range(b - a)]
    for i, di in zip((key >> 32).tolist(), (key & 0xFFFFFFFF).tolist()):
        got[i].append(di)
    assert got == divisor_lists(a, b)
    assert start.tolist() == list(itertools.accumulate(map(len, got[:-1]), initial=0))
    if b - a <= 600:
        assert got == [trial_divisors(n) for n in range(a, b)]


@pytest.mark.parametrize("lo, hi", [(1, 1), (65530, 65545), (131070, 131075),
                                    (399999990, 400000000)])
def test_divisor_spectra_match_divisor_lists(lo, hi):
    got = list(_divisor_spectra(lo, hi))
    assert [s.n for s in got] == list(range(lo, hi + 1))
    for spec, divs in zip(got, divisor_lists(lo, hi + 1)):
        assert spec.divisors == tuple(divs)


@pytest.mark.parametrize("window", [1, 7, 64])
def test_divisor_spectra_cross_windows(window, monkeypatch):
    # a range of several windows, the last one cut short
    monkeypatch.setattr(tables_mod, "_PAIR_WINDOW", window)
    got = [spec.divisors for spec in _divisor_spectra(3, 200)]
    assert got == [tuple(trial_divisors(n)) for n in range(3, 201)]


@pytest.mark.parametrize("window", [1, 7, 64])
def test_pair_window_reach(window, monkeypatch):
    # every range kernel walks its range in windows of the patched size,
    # ceil(length / window) of them, and is exact across their edges
    monkeypatch.setattr(tables_mod, "_PAIR_WINDOW", window)
    reads = []
    pair_keys = tables_mod._pair_keys

    def spy(a, b):
        reads.append((a, b))
        return pair_keys(a, b)
    monkeypatch.setattr(tables_mod, "_pair_keys", spy)

    def windows(lo, hi):  # read by the call since the last one, for [lo, hi]
        assert reads[0][0] == lo and reads[-1][1] == hi + 1
        assert all(b - a <= window for a, b in reads)
        count = len(reads)
        reads.clear()
        return count

    x = 200
    assert s_avg(x) == sum(map(list_delta, divisor_lists(1, x + 1))) / x
    assert windows(1, x) == -(-x // window)
    lo, hi, theta = 2, 200, golden_ratio_fraction()
    vals = np.sort(np.asarray(list_dtheta_exponents(lo, hi, theta)))
    assert dtheta_exponent_stats(lo, hi, theta) == (float(vals[len(vals) // 2]),
                                                     float(vals.mean()))
    assert windows(lo, hi) == -(-(hi - lo + 1) // window)
    lo, hi = 3, 150
    got = [list(spec.divisors) for spec in _divisor_spectra(lo, hi)]
    assert got == divisor_lists(lo, hi + 1)
    assert windows(lo, hi) == -(-(hi - lo + 1) // window)


@pytest.mark.parametrize("n, want", [(465 * 1264, 12), (2 * 465 * 1264, 14),
                                     (27 * 536 * 1457, 14), (286 * 465 * 1264, 42),
                                     (8544 * 23225, 13), (9545 * 25946, 4)])
def test_delta_window_convergent_pairs(n, want):
    # 1264/465, 1457/536, 23225/8544 and 25946/9545 are convergents of e,
    # the last two the largest whose products lie under DEFAULT_LIMIT_CAP:
    # 1264 < e 465 and 23225 < e 8544 stay in the windows opened at 465 and
    # 8544, 1457 > e 536 and 25946 > e 9545 do not.  At 2 * 465 * 1264 the
    # first pair decides Delta (13 without it), at 27 * 536 * 1457 the
    # second (15 with it).  286 * 465 * 1264 is the 65055th n of its window,
    # where the keys are largest (Delta 41 without 286 * 1264).  The windows
    # start at 1 mod 2^16, as s_avg's do.
    a = 1 + (n - 1) // _PAIR_WINDOW * _PAIR_WINDOW
    b = a + _PAIR_WINDOW
    (_, key, start), = _pair_windows(a, b)
    got = _delta_window(key, start)
    assert got.tolist() == [list_delta(divs) for divs in divisor_lists(a, b)]
    assert got[n - a] == want


def test_delta_window_at_limit_cap():
    # the last window below DEFAULT_LIMIT_CAP + 1, where d _E_P is largest
    # and must still fit int64
    b = DEFAULT_LIMIT_CAP + 1
    (_, key, start), = _pair_windows(b - _PAIR_WINDOW, b)
    assert _delta_window(key, start).tolist() == [
        list_delta(divs) for divs in divisor_lists(b - _PAIR_WINDOW, b)]


@pytest.mark.parametrize("x", [1, 2, 3, 10, 99, 100, 101, 2000])
def test_tau_table_matches_trial_division(x):
    tau = tau_table(x)
    assert tau.dtype == np.uint16
    assert tau.tolist() == [0] + [len(trial_divisors(n)) for n in range(1, x + 1)]


@pytest.mark.parametrize("x", [2**19 - 1, 2**19, 2**19 + 1, 3**12, 7**7, *XS[-4:]])
def test_tau_table_matches_whole_array_walk(x, monkeypatch):
    # the uint16 table fills in chunks of 2**19 entries, and x = 3**12 and
    # 7**7 end on a prime power, where only the [p | m] term makes
    # tau(p^k) = k + 1; the walk reads no divisor pairs
    def refuse(*args):
        raise AssertionError("divisor pairs walked")
    monkeypatch.setattr(tables_mod, "_pairs", refuse)
    tau = tau_table(x)
    _same(tau, hyperbola_tau_table(x))
    for p in eratosthenes_primes(math.isqrt(x)).tolist():
        powers = [p**k for k in range(1, int(math.log(x, p)) + 2) if p**k <= x]
        assert tau[powers].tolist() == list(range(2, len(powers) + 2)), p


@pytest.mark.parametrize("x", XS[-4:])
def test_h_count_matches_whole_array_mask(x):
    # (y, z] below sqrt(x), straddling it and above it, and the benchmark's
    # (1000, 2000]; closed_left adds the divisor y
    s = math.isqrt(x)
    for y, z in [(1, 2), (s // 3, s), (s // 2, s + 5), (s, s + 1), (s + 1, 3 * s),
                 (x // 3, x // 2), (x - 1, x), (1000, 2000)]:
        for closed_left in (False, True):
            want = np.count_nonzero(interval_multiples_hits(x, y - closed_left, z)[1:])
            assert h_count(x, y, z, closed_left) == want, (y, z, closed_left)


def test_nu_distribution_matches_whole_tables():
    for x in (2**20 + 3, 3 * 2**20 + 7):
        d = nu_distribution(x)
        cdf, jumps = whole_table_nu_distribution(x, d.grid)
        assert (d.samples, d.cdf, d.ks_vs, d.jumps) == (x, cdf, None, jumps), x


def _peak_bytes(fn, *args):
    """The peak of traced memory during fn(*args); numpy reports its array
    buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_h_count_builds_no_whole_range_mask():
    x = 2**23  # an x-sized boolean mask takes x bytes
    assert _peak_bytes(h_count, x, 1000, 2000) < x // 4


def test_nu_distribution_builds_no_whole_range_table():
    x = 2**23  # whole uint8 tau^+ and uint16 tau tables take 3 bytes per n
    assert _peak_bytes(nu_distribution, x) < 4 * x


@pytest.mark.parametrize("x", [2, 3, 10, 1000, 2**20 + 3, 2**21 + 3, 10**6, 10**7])
def test_pplus_adjacency_matches_mask_oracle(x):
    assert dataclasses.astuple(pplus_adjacency(x)) == mask_pplus_adjacency(x)


def test_pplus_adjacency_builds_no_whole_range_mask(monkeypatch):
    # past the int32 P^+ table on 0..x + 2, only a window's masks and floats:
    # with windows of 2**16 they peak at 0.2 x bytes, where the x-sized masks
    # of `oracles.mask_pplus_adjacency` took 2.3 x
    monkeypatch.setattr(tables_mod, "_WINDOW", 1 << 16)
    x = 2**23
    assert _peak_bytes(pplus_adjacency, x) < 4 * (x + 3) + x // 2


def test_interval_multiples_hits_matches_trial_marking():
    rng = random.Random(7)
    for x in (1, 10, 100, 1000, 4321):
        root = math.isqrt(x)
        cases = [(0, x), (0, 1), (root - 1, root + 1), (x - 1, x), (5, 3), (root, 2 * x)]
        cases += [tuple(sorted(rng.sample(range(0, x + 2), 2))) for _ in range(6)]
        for lo_d, hi_d in cases:
            got = interval_multiples_hits(x, lo_d, hi_d)
            assert got.dtype == bool
            gens = range(lo_d + 1, min(hi_d, x) + 1)
            assert np.array_equal(got, trial_multiples_mask(gens, x)), (x, lo_d, hi_d)


def test_multiples_mask_matches_trial_marking():
    rng = random.Random(2024)
    for _ in range(60):
        x = rng.choice([1, 7, 100, 1000, 5000])
        root = math.isqrt(x)
        gens = [rng.randint(1, 2 * x + 5) for _ in range(rng.choice([1, 3, 6, 12, 40, 400]))]
        T = max(root, x // len(gens))
        gens += rng.sample([root, T, T + 1, x, x + 1], 3)  # the split points and the ends
        gens += rng.sample(gens, min(len(gens), 4))  # duplicates
        rng.shuffle(gens)  # unsorted
        want = trial_multiples_mask([a for a in gens if a <= x], x)
        assert np.array_equal(multiples_mask(gens, x), want), (x, gens)
        assert np.array_equal(multiples_mask(np.array(gens), x), want), (x, gens)
    assert not multiples_mask([], 10).any()
    assert not multiples_mask([11, 10**30], 10).any()


def test_multiples_mask_e_set():
    x = 10**5
    gens = np.flatnonzero(e_set_mask(x))
    got = multiples_mask(gens, x)
    assert got.dtype == bool and len(got) == x + 1
    assert np.array_equal(got, trial_multiples_mask(gens.tolist(), x))


def test_multiples_mask_rejects_nonpositive():
    for gens in ([3, 0], np.array([3, -2, 0])):
        with pytest.raises(DomainError, match="got 0" if len(gens) == 2 else "got -2"):
            multiples_mask(gens, 10)
