"""Naive, independent reimplementations used as test oracles.

Nothing here imports from divilab: trial division, the divisor-Moebius
pairs, nested-loop window scans decided in integers against convergents of
e, the per-n list scans of Delta and ||d theta|| that the flat divisor-pair
kernel replaced, trial marking of multiples, midpoint quadrature, the
per-prime strided numpy sieves that the SPF recurrence replaced, the
per-cell tau^+ builder that the divisor bitmask replaced, the whole-array
tau table, interval mask and nu_distribution that the window walk replaced,
the full Eratosthenes sieve that the odds-only one replaced, the unsegmented
SPF sieve, the subset-walk Bonferroni bracket, the per-prime local-law e_j
sweep that the column-wise DP replaced, the k-th-divisor Monte Carlo
sampler over all n that drawing only the multiples of d replaced, the
truncated friable sum with its Rankin tail that m(y) came from, and the
recursive valuation DP that reduced each branch level's whole state, which
the explicit-stack engine replaced, the transfer product over a path of
prime products, and the log zeta series in `decimal`
that the literals of Mertens' A and sum_p 1/(p(p-1)) are checked against.
Slow on purpose.
"""

import math

import numpy as np


def trial_divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def trial_factor(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def naive_mu(n):
    mu = 1
    for _, e in trial_factor(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def naive_phi(n):
    phi = n
    for p, _ in trial_factor(n):
        phi = phi // p * (p - 1)
    return phi


def _e_convergents(terms=60):
    """The last two convergents p/q of e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...],
    as (p, q) pairs below and above e (consecutive convergents straddle it)."""
    h0, h1, k0, k1 = 1, 2, 0, 1
    for i in range(terms):
        a = 2 * (i // 3 + 1) if i % 3 == 1 else 1
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
    if h0 * k1 < h1 * k0:
        return (h0, k0), (h1, k1)
    return (h1, k1), (h0, k0)


(_E_BELOW, _E_ABOVE) = _e_convergents()


def below_e(d, d2):
    """d2 < e * d, decided in integers against convergents of e."""
    if d2 * _E_BELOW[1] <= d * _E_BELOW[0]:
        return True
    if d2 * _E_ABOVE[1] >= d * _E_ABOVE[0]:
        return False
    raise AssertionError(f"{d2}/{d} too close to e for the convergents")


def naive_delta(n):
    """Window max via nested loops: a maximizing window opens just below a
    divisor log."""
    divs = trial_divisors(n)
    best = 0
    for d in divs:
        cnt = sum(1 for e in divs if d <= e and below_e(d, e))
        best = max(best, cnt)
    return best


def divisor_mobius(factors):
    """(divisor, mu(divisor)) pairs sorted by divisor, from the (p, e)
    pairs of n's factorisation."""
    pairs = [(1, 1)]
    for p, e in factors:
        block = list(pairs)
        pe = 1
        for j in range(1, e + 1):
            pe *= p
            mu_fac = -1 if j == 1 else 0
            pairs.extend((d * pe, m * mu_fac) for d, m in block)
    pairs.sort()
    return pairs


def divisor_lists(lo, hi):
    """Ascending divisors of each n in [lo, hi), as Python lists: divisors
    d <= sqrt(hi - 1) are appended d-major, then the larger ones by cofactor
    m, m descending, which lands them ascending too."""
    lists = [[] for _ in range(hi - lo)]
    root = math.isqrt(hi - 1)
    for d in range(1, root + 1):
        for n in range(-(-lo // d) * d, hi, d):
            lists[n - lo].append(d)
    for m in range(root, 0, -1):
        for d in range(max(root + 1, -(-lo // m)), (hi - 1) // m + 1):
            lists[m * d - lo].append(d)
    return lists


def list_delta(divs):
    """Delta(n) from the ascending divisors by one sweep of window ends: the
    float log gap decides outside 1e-12 of 1, the integers inside."""
    logs = [math.log(d) for d in divs]
    best = j = 0
    for i, li in enumerate(logs):
        j = max(j, i)
        while j + 1 < len(divs):
            gap = logs[j + 1] - li
            if gap > 1 + 1e-12 or (gap >= 1 - 1e-12 and not below_e(divs[i], divs[j + 1])):
                break
            j += 1
        best = max(best, j - i + 1)
    return best


def list_dtheta_exponents(lo, hi, theta):
    """log(1/min_d ||d theta||)/log tau(n) for n in [lo, hi] with tau(n) >= 2
    and a nonzero minimum, in float theta, one divisor at a time."""
    th = float(theta)
    vals = []
    for divs in divisor_lists(lo, hi + 1):
        if len(divs) < 2:
            continue
        best = 1.0
        for d in divs:
            t = d * th
            fr = t - math.floor(t)
            best = min(best, fr if fr < 0.5 else 1 - fr)
        if best > 0.0:
            vals.append(math.log(1.0 / best) / math.log(len(divs)))
    return vals


def trial_multiples_mask(gens, x):
    """Membership of 0..x in the multiples of gens, marked one multiple at a
    time."""
    hit = [False] * (x + 1)
    for a in gens:
        for n in range(a, x + 1, a):
            hit[n] = True
    return np.array(hit)


def naive_delta_osc(n, weight):
    """weight: divisor -> real.  Nested loop over window start/end pairs."""
    divs = trial_divisors(n)
    vals = [weight(d) for d in divs]
    best = 0.0
    for i in range(len(divs)):
        acc = 0.0
        for j in range(i, len(divs)):
            if not below_e(divs[i], divs[j]):
                break
            acc += vals[j]
            best = max(best, abs(acc))
    return best


def naive_tau_plus(n):
    divs = trial_divisors(n)
    cells = 0
    k = -1
    while (1 << (k + 1)) <= 2 * n:
        if any((2**k if k >= 0 else 0.5) < d <= 2 ** (k + 1) for d in divs):
            cells += 1
        k += 1
    return cells


def naive_e_r(n, r):
    divs = trial_divisors(n)
    assert len(divs) > r
    return min(math.log(divs[j + r] / divs[j]) for j in range(len(divs) - r))


def naive_g(n):
    divs = trial_divisors(n)
    return sum(divs[i] / divs[i + 1] for i in range(len(divs) - 1))


def naive_f_theta(n, theta):
    divs = trial_divisors(n)
    assert len(divs) >= 2
    return sum(theta(divs[i] / divs[i + 1]) for i in range(len(divs) - 1)) / len(divs)


def naive_is_in_E(n):
    for d in trial_divisors(n):
        dp = n // d
        if d * dp == n and d < dp < 2 * d:
            return True
    return False


def naive_in_ME(n):
    return any(naive_is_in_E(d) for d in trial_divisors(n))


def naive_has_close_pair(n):
    """Two divisors d < d' <= e*d (window form of 'delta > 1')."""
    divs = trial_divisors(n)
    return any(below_e(divs[i], divs[i + 1]) for i in range(len(divs) - 1))


def naive_ie_sums(gens):
    """S_k = sum of 1/lcm(S) over the k-element subsets S of gens, for
    k = 0..len(gens) (S_0 = 0), by a depth-first walk over all 2^n subsets.
    The density of M(gens) is sum_k (-1)^(k-1) S_k."""
    from fractions import Fraction

    gens = list(gens)
    n = len(gens)
    sums = [Fraction(0)] * (n + 1)

    def walk(idx, lcm, size):
        for i in range(idx, n):
            new = lcm * gens[i] // math.gcd(lcm, gens[i])
            sums[size + 1] += Fraction(1, new)
            walk(i + 1, new, size + 1)

    walk(0, 1, 0)
    return sums


def prime_path_density(primes):
    """d M({p_1 p_2, p_2 p_3, ...}) for distinct primes p_1, p_2, ..., by an
    exact two-state transfer product.  Each p_i divides n with probability
    1/p_i, independently; a_i and b_i are the probabilities that no two
    consecutive primes among the first i both divide n and that p_i does not
    or does divide n."""
    from fractions import Fraction

    a, b = Fraction(1), Fraction(0)
    for p in primes:
        a, b = (a + b) * (1 - Fraction(1, p)), a * Fraction(1, p)
    return 1 - a - b


def naive_bonferroni(gens, depth):
    """(point, lower, upper) of the Bonferroni bracket of depth `depth` on the
    primitive generators gens: one Fraction(1, lcm) per subset of size
    1..min(depth + 2, n), with each lcm recomputed from scratch.  The last two
    partial sums of inclusion-exclusion bracket the density; clamp to [0, 1]
    and take each end to the nearest float on its outer side."""
    from fractions import Fraction
    from itertools import combinations

    gens = list(gens)
    maxsize = min(depth + 2, len(gens))
    sums = [Fraction(0)] * (maxsize + 1)
    for k in range(1, maxsize + 1):
        for sub in combinations(gens, k):
            lcm = 1
            for a in sub:
                lcm = lcm * a // math.gcd(lcm, a)
            sums[k] += Fraction(1, lcm)
    partials, partial = [], Fraction(0)
    for k in range(1, maxsize + 1):
        partial += sums[k] if k % 2 == 1 else -sums[k]
        partials.append(partial)
    if len(partials) == 1:
        lo, hi = Fraction(0), partials[0]
    else:
        lo, hi = sorted(partials[-2:])
    lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
    lower, upper = float(lo), float(hi)
    if Fraction(lower) > lo:
        lower = math.nextafter(lower, -math.inf)
    if Fraction(upper) < hi:
        upper = math.nextafter(upper, math.inf)
    return float((lo + hi) / 2), lower, upper


def naive_multiples_count(gens, x):
    hit = set()
    for a in gens:
        hit.update(range(a, x + 1, a))
    return len(hit)


def friable_m_bracket(gens, y, truncation):
    """(point, upper) around m(y) = prod_{p<=y}(1 - 1/p) * sum 1/r over the
    y-friable r in M(A_y), A_y the y-friable members of gens: the sum is cut
    at r <= truncation, and the Rankin bound on the rest,
    sum_{r > X, P+(r) <= y} 1/r <= X^{s-1} prod_{p<=y} (1 - p^-s)^-1,
    widens the upper end."""
    ps = [int(p) for p in eratosthenes_primes(y)]

    def friable(a):
        for p in ps:
            while a % p == 0:
                a //= p
        return a == 1

    ay = [a for a in gens if friable(a)]
    if not ay:
        return 0.0, 0.0
    friables = [1]
    for p in ps:
        for r in list(friables):
            v = r * p
            while v <= truncation:
                friables.append(v)
                v *= p
    friables.sort()
    total = 0.0
    for r in friables:
        if any(r % a == 0 for a in ay):
            total += 1.0 / r
    prod = 1.0
    for p in ps:
        prod *= 1.0 - 1.0 / p
    point = prod * total
    s = 1.0 - 1.0 / math.log(y) if y > 2 else 0.5
    tail = truncation ** (s - 1.0)
    for p in ps:
        tail /= 1.0 - p ** (-s)
    return point, min(1.0, point + prod * tail)


def naive_h_count(x, y, z):
    return sum(1 for n in range(1, x + 1)
               if any(y < d <= z for d in trial_divisors(n)))


def naive_psi1(x, y):
    cnt = 0
    for n in range(1, x + 1):
        fac = trial_factor(n)
        if all(e == 1 for _, e in fac) and all(p <= y for p, _ in fac):
            cnt += 1
    return cnt


def naive_lambda_kd(k, d):
    """Exact density of {n: k-th divisor is d} by scanning one full period
    of lcm(1..d) in pure Python."""
    from fractions import Fraction

    L = 1
    for m in range(1, d + 1):
        L = L * m // math.gcd(L, m)
    cnt = 0
    for n in range(d, L + 1, d):
        below = sum(1 for m in range(1, d) if n % m == 0)
        if below == k - 1:
            cnt += 1
    return Fraction(cnt, L)


def uniform_lambda_kd_mc(k, d, samples, seed):
    """Monte Carlo share of the n uniform on [1, 2^63 - 1] whose k-th
    divisor is d: draws every n, keeps those d divides and counts their
    divisors up to d one m at a time (the sampler that drawing only the
    multiples of d replaced)."""
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    for start in range(0, samples, 1 << 16):
        n = rng.integers(1, 1 << 63, size=min(1 << 16, samples - start), dtype=np.int64)
        nd = n[n % d == 0]
        cnt = np.full(len(nd), 2 if d > 1 else 1, dtype=np.int64)
        for m in range(2, d):
            cnt += nd % m == 0
        hits += int(np.count_nonzero(cnt == k))
    return hits / samples


def s_coeffs_exact(p, kmax):
    """Exact-rational elementary symmetric functions e_0..e_kmax of
    {1/(q-1): q prime < p}, primes by trial division."""
    from fractions import Fraction

    e = [Fraction(0)] * (kmax + 1)
    e[0] = Fraction(1)
    for q in range(2, p):
        if trial_factor(q) == [(q, 1)]:
            w = Fraction(1, q - 1)
            for j in range(kmax, 0, -1):
                e[j] += e[j - 1] * w
    return e


def lambda_kd_formula(k, d, limit=10**13):
    """Independent route to the k-th-divisor density: the friable-sum formula

        (1/d) * prod_{p<=d} (1 - 1/p) * sum 1/m

    over d-friable m whose product m*d has exactly k divisors <= d.
    The friable tail above `limit` is Rankin-bounded at sigma = 1/2 and
    returned as (value, tail_bound)."""
    primes = [p for p in range(2, d + 1) if trial_factor(p) == [(p, 1)]]
    smooth = [1]
    for p in primes:
        for m in list(smooth):
            v = m * p
            while v <= limit:
                smooth.append(v)
                v *= p

    def tau_upto(n, z):
        return sum(1 for j in range(1, z + 1) if n % j == 0)

    total = sum(1.0 / m for m in smooth if tau_upto(m * d, d) == k)
    prod = 1.0
    for p in primes:
        prod *= 1.0 - 1.0 / p
    tail = limit**-0.5
    for p in primes:
        tail /= 1.0 - p**-0.5
    return prod * total / d, prod * tail / d


EULER_GAMMA_50 = "0.57721566490153286060651209008240243104215933593992"


def mertens_constants(digits=50, kmax=130, N=20, terms=15):
    """(A, S) as Decimals to about `digits` digits, with the standard library
    only: Mertens' A = gamma + sum_{k>=2} mu(k) log zeta(k) / k (Finch,
    *Mathematical Constants*, 2003, 2.2) and S = sum_p 1/(p(p-1)) =
    sum_{k>=2} P(k), the prime zeta function P(k) = sum_m mu(m) log zeta(mk) / m.

    zeta(s) for integer s >= 2 by Euler-Maclaurin: the terms n < N, the
    integral and half-term at N, then `terms` Bernoulli corrections.  Both
    series are cut at log zeta(kmax); as log zeta(n) < 2^(1-n) and the
    weights sum to under sigma(n)/n < 5 per n here, the tail is below
    10 * 2^-kmax (8e-39 at kmax = 130)."""
    from decimal import Decimal, localcontext
    from fractions import Fraction

    bern = [Fraction(1)]
    for m in range(1, 2 * terms + 1):
        bern.append(-sum(math.comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1))
    with localcontext() as ctx:
        ctx.prec = digits

        def dec(fr):
            return Decimal(fr.numerator) / Decimal(fr.denominator)

        def log_zeta(s):
            Nd = Decimal(N)
            acc = sum(Decimal(n) ** -s for n in range(1, N))
            acc += Nd ** (1 - s) / (s - 1) + Nd ** -s / 2
            rising = Decimal(s)  # s (s + 1) ... (s + 2j - 2)
            for j in range(1, terms + 1):
                acc += dec(bern[2 * j] / math.factorial(2 * j)) * rising * Nd ** (1 - s - 2 * j)
                rising *= (s + 2 * j - 1) * (s + 2 * j)
            return acc.ln()

        L = {n: log_zeta(n) for n in range(2, kmax + 1)}
        A = Decimal(EULER_GAMMA_50) + sum(naive_mu(k) * L[k] / k for k in range(2, kmax + 1))
        S = sum(naive_mu(m) * L[m * k] / m
                for k in range(2, kmax + 1) for m in range(1, kmax // k + 1))
        return +A, +S


def riemann_integral(c, points=10**6):
    """Midpoint sum for the consecutive-ratio lower bound integrand."""
    h = c / points
    acc = 0.0
    for i in range(points):
        v = (i + 0.5) * h
        acc += math.log((1 - v) / (1 - v - 2 * c)) / (1 - v)
    return math.log(1 / (1 - c)) - 2 * acc * h


def simpson_normal_cdf(z, lo=-13.0, steps=40000):
    """Standard normal CDF by Simpson's rule from far in the left tail."""
    if z <= lo:
        return 0.0
    n = steps if steps % 2 == 0 else steps + 1
    h = (z - lo) / n
    def f(t):
        return math.exp(-t * t / 2.0)
    acc = f(lo) + f(z)
    for i in range(1, n):
        acc += f(lo + i * h) * (4 if i % 2 == 1 else 2)
    return acc * h / 3.0 / math.sqrt(2 * math.pi)


def naive_erdos_kac_ks(x):
    """Two-sided KS distance between the law of (omega(n) - ln ln x)/sqrt(ln ln x)
    over 3 <= n <= x (omega by trial division) and the Simpson normal CDF."""
    counts = {}
    for n in range(3, x + 1):
        k = len(trial_factor(n))
        counts[k] = counts.get(k, 0) + 1
    total = x - 2
    llx = math.log(math.log(x))
    cum = 0
    ks = 0.0
    for k in sorted(counts):
        phi = simpson_normal_cdf((k - llx) / math.sqrt(llx))
        ks = max(ks, abs(cum / total - phi))
        cum += counts[k]
        ks = max(ks, abs(cum / total - phi))
    return ks


# -- per-prime strided sieves: one numpy slice per prime (or prime power) --

def eratosthenes_primes(n):
    """All primes <= n as int64, by a boolean sieve over every integer; the
    odds-only `sieve.primes_upto` replaced it."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return np.flatnonzero(mask).astype(np.int64)


def sieve_omega_table(x, with_multiplicity=False):
    """omega or Omega on 0..x: +1 on every multiple of each prime p (and of
    each p^e for Omega); primes above sqrt(x) go through their cofactors."""
    om = np.zeros(x + 1, dtype=np.uint8)
    pr = eratosthenes_primes(x)
    D = max(math.isqrt(x), 2)
    for p in pr[pr <= D]:
        p = int(p)
        om[p::p] += 1
        if with_multiplicity:
            pe = p * p
            while pe <= x:
                om[pe::pe] += 1
                pe *= p
    large = pr[pr > D]
    for m in range(1, x // (D + 1) + 1):
        sel = large[large <= x // m]
        om[m * sel] += 1
    return om


def sieve_gpf_table(x):
    """Largest prime factor on 0..x (1 at 0 and 1): ascending primes overwrite
    their multiples, so the last write is the largest."""
    gpf = np.ones(x + 1, dtype=np.int64 if x >= 1 << 31 else np.int32)
    pr = eratosthenes_primes(x)
    D = max(math.isqrt(x), 2)
    for p in pr[pr <= D]:
        gpf[p::p] = p
    large = pr[pr > D]
    for m in range(1, x // (D + 1) + 1):
        sel = large[large <= x // m]
        gpf[m * sel] = sel
    return gpf


def sieve_psi1_mask(x, y):
    """Mask on 0..x of the squarefree n whose prime factors are all <= y."""
    ok = np.ones(x + 1, dtype=bool)
    ok[0] = False
    for p in eratosthenes_primes(math.isqrt(x)):
        p2 = int(p) ** 2
        ok[p2::p2] = False
    pr = eratosthenes_primes(x)
    for p in pr[pr > y]:
        ok[int(p)::int(p)] = False
    return ok


def spf_table(limit):
    """Smallest prime factor on 0..limit (0 at 0 and 1), the unsegmented
    sieve: each prime i <= sqrt(limit) claims the multiples from i*i that no
    smaller prime has claimed; what stays 0 from 2 on is prime."""
    spf = np.zeros(limit + 1, dtype=np.uint32 if limit < 1 << 32 else np.uint64)
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            sl = spf[i * i::i]
            sl[sl == 0] = i
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    return spf


def interval_multiples_hits(x, lo_d, hi_d):
    """Boolean mask on 0..x of the integers with a divisor in (lo_d, hi_d],
    over the whole array at once, by the hyperbola split: one strided slice
    per divisor d <= sqrt(x), one per cofactor m of the larger ones.  The
    windowed count of `experiments.h_count` replaced it."""
    hit = np.zeros(x + 1, dtype=bool)
    D = math.isqrt(x)
    top = min(hi_d, x)
    for d in range(lo_d + 1, min(top, D) + 1):
        hit[d::d] = True
    if top > D:
        for m in range(1, x // (D + 1) + 1):
            lo, hi = max(D, lo_d), min(top, x // m)
            if hi > lo:
                hit[m * (lo + 1): m * hi + 1: m] = True
    return hit


def hyperbola_tau_table(x):
    """tau on 0..x over the whole array at once: +1 on the multiples of each
    d <= sqrt(x), and on m d for d > sqrt(x) along each cofactor m.  The
    windowed `tables.tau_table` replaced it."""
    tau = np.zeros(x + 1, dtype=np.uint16)
    D = math.isqrt(x)
    for d in range(1, D + 1):
        tau[d::d] += 1
    for m in range(1, x // (D + 1) + 1):
        tau[m * (D + 1): m * (x // m) + 1: m] += 1
    return tau


def cell_tauplus_table(x):
    """tau^+ on 0..x, one dyadic cell (lo, hi] = (0, 1], (1, 2], (2, 4], ...
    at a time: the mask of the integers with a divisor in the cell, added
    into the count."""
    acc = np.zeros(x + 1, dtype=np.uint8)
    lo_d, hi_d = 0, 1
    while lo_d < x:
        acc += interval_multiples_hits(x, lo_d, hi_d)
        lo_d, hi_d = hi_d, 2 * hi_d
    return acc


def whole_table_nu_distribution(x, grid):
    """(cdf, jumps) of tau^+(n)/tau(n) over n <= x at the grid points, from
    whole tau and tau^+ tables and one sort of all x ratios: the route the
    windowed `experiments.nu_distribution` replaced."""
    ratio = np.sort(cell_tauplus_table(x)[1:] / hyperbola_tau_table(x)[1:])
    g = np.asarray(grid, dtype=np.float64)
    cum = np.searchsorted(ratio, g, side="right") / x
    masses = np.diff(np.concatenate(([0.0], cum)))
    order = np.argsort(masses)[::-1][:5]
    jumps = tuple(sorted((float(g[i]), float(masses[i])) for i in order))
    return tuple(map(float, cum)), jumps


def row_lambda_sweep(pmax, kmax=None):
    """The local-law e_j DP one prime at a time: yields
    (p, prod_{q<p}(1-1/q), e, pi(p - 1)) for the primes p <= pmax, with e[j]
    the elementary symmetric function of {1/(q-1): q < p} truncated at kmax.
    The e buffer is reused between rows."""
    return row_sweep([int(p) for p in eratosthenes_primes(pmax)], kmax)


def row_sweep(ps, kmax=None):
    """row_lambda_sweep over any ascending ps > 1 in place of the primes."""
    size = (len(ps) if kmax is None else min(kmax, len(ps))) + 1
    e = np.zeros(size)
    e[0] = 1.0
    prod = 1.0
    seen = 0
    for p in ps:
        yield p, prod, e, seen
        hi = min(seen + 1, size - 1)
        e[1:hi + 1] += e[:hi] / (p - 1)
        seen += 1
        prod *= 1.0 - 1.0 / p


class RecursiveValuationDP:
    """The valuation DP as it ran before its explicit stack: _solve recurses
    once per state, and _branch reduces each level's whole state again with
    the quadratic _primitive.  Same coprime base, branch rule, memo order,
    budget and enclosure as the engine, here with the budget passed in;
    Python's recursion limit bounds its depth."""

    def __init__(self, gens, budget):
        self.base = sorted(self._coprime_base(gens), reverse=True)
        self.budget = budget
        self.profiles = {}
        self.memo = {(): (0, 0, 1), (1,): (1, 1, 1)}

    @staticmethod
    def _primitive(values):
        kept = []
        for a in sorted(set(values)):
            if not any(a % b == 0 for b in kept):
                kept.append(a)
        return tuple(kept)

    @staticmethod
    def _coprime_base(values):
        base, todo = [], [v for v in set(values) if v > 1]
        while todo:
            x = todo.pop()
            for i, b in enumerate(base):
                g = math.gcd(x, b)
                if g > 1:
                    del base[i]
                    todo += [t for t in (g, x // g, b // g) if t > 1]
                    break
            else:
                base.append(x)
        return base

    @staticmethod
    def _enclosure(state):
        from itertools import combinations

        L = math.lcm(*state)
        s1 = sum(L // q for q in state)
        s2 = sum(L // math.lcm(a, b) for a, b in combinations(state, 2))
        miss = L * math.prod(q - 1 for q in state) // math.prod(state)
        return max(L // state[0], s1 - s2), L - miss, L

    def _profile(self, q):
        """The mask of the base elements dividing q: bit i for base[i]."""
        hit = self.profiles.get(q)
        if hit is None:
            hit = self.profiles[q] = sum(1 << i for i, m in enumerate(self.base) if q % m == 0)
        return hit

    def root(self, elems):
        """(lo, hi, L) for d M(elems)."""
        return self._solve(self._primitive(elems))

    def _solve(self, state):
        hit = self.memo.get(state)
        if hit is not None:
            return hit
        if len(self.memo) >= self.budget:
            return self._enclosure(state)
        masks = [self._profile(q) for q in state]
        groups = []
        for q, mask in zip(state, masks):
            members, rest = [q], []
            for g_mask, g_members in groups:
                if g_mask & mask:
                    mask |= g_mask
                    members += g_members
                else:
                    rest.append((g_mask, g_members))
            rest.append((mask, members))
            groups = rest
        if len(groups) > 1:
            whole = miss_hi = miss_lo = 1
            for _, members in groups:
                lo, hi, L = self._solve(tuple(sorted(members)))
                whole *= L
                miss_hi *= L - lo
                miss_lo *= L - hi
            out = (whole - miss_hi, whole - miss_lo, whole)
        elif len(state) == 1:
            out = (1, 1, state[0])
        else:
            out = self._branch(state, masks)
        self.memo[state] = out
        return out

    def _branch(self, state, masks):
        """Branch on the base element dividing the most elements of the
        state, the largest (lowest bit) on a tie."""
        counts = {}
        for mask in masks:
            while mask:
                low = mask & -mask
                i = low.bit_length() - 1
                counts[i] = counts.get(i, 0) + 1
                mask ^= low
        m = self.base[min(counts, key=lambda i: (-counts[i], i))]
        parts = []
        for q in state:
            v = 0
            while q % m == 0:
                q, v = q // m, v + 1
            parts.append((v, q))
        levels = sorted({v for v, _ in parts})
        e = levels[-1]
        lcm_rest = math.lcm(*(r for _, r in parts))
        lo = hi = 0
        for i, u in enumerate(levels):
            sub_lo, sub_hi, sub_lcm = self._solve(self._primitive(r for v, r in parts if v <= u))
            w = m ** (e - u) - (m ** (e - levels[i + 1]) if i + 1 < len(levels) else 0)
            w *= lcm_rest // sub_lcm
            lo += w * sub_lo
            hi += w * sub_hi
        return lo, hi, m**e * lcm_rest
