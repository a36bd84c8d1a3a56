"""Range-scale empirical studies and the named-constant table.

Everything empirical here is a finite scan: two-scale monotone-trend
observations stand in for limit claims, which desk scales cannot see.
Scans are deterministic; Monte Carlo never runs without an explicit seed.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .density import DensityEstimate
from .errors import DomainError, ResourceError
from .locallaws import MERTENS_A, PRIME_ZETA_SUM, gaussian_cdf
from .multiples import GeneratorSet, _bracket_estimate, alpha0, divisor_hit_densities
from .sieve import primes_upto
from .tables import (
    _check_cap,
    _count_divisors,
    _delta_window,
    _pair_windows,
    _prime_pi,
    _windows,
    e_set_mask,
    gpf_table,
    interval_hits_count,
    multiples_mask,
    omega_table,
    tauplus_window,
)

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# counting with a divisor in an interval

def h_count(x: int, y: int, z: int, closed_left: bool = False) -> int:
    """H(x, y, z): the number of n <= x with a divisor in (y, z] (or [y, z]
    with the sensitivity flag), counted window by window with no x-sized mask."""
    if not (1 <= y < z <= x):
        raise DomainError(f"need 1 <= y < z <= x, got y={y} z={z} x={x}")
    return interval_hits_count(x, y - 1 if closed_left else y, z)


def _tauplus_sum(bounds: tuple[int, int]) -> int:
    return int(tauplus_window(*bounds).sum())


def _map_chunks(fn, lo: int, hi: int, threads: int) -> list:
    """Apply fn to disjoint subranges of [lo, hi); deterministic ordered merge.
    fn reads only its bounds, so forked workers share no state.  The pool
    holds at most one worker per CPU."""
    if threads < 1:
        raise DomainError(f"need threads >= 1, got {threads}")
    workers = min(threads, os.cpu_count() or 1)
    step = -(-(hi - lo) // workers)
    bounds = [(a, min(a + step, hi)) for a in range(lo, hi, step)]
    workers = min(workers, len(bounds))
    if workers <= 1:
        return [fn(b) for b in bounds]
    import multiprocessing as mp

    try:
        ctx = mp.get_context("fork")
    except ValueError:
        return [fn(b) for b in bounds]
    with ctx.Pool(processes=workers) as pool:
        return pool.map(fn, bounds)


def t_sum(x: int, threads: int = 1) -> tuple[int, int]:
    """Sum of tau^+(n) over n <= x, computed two independent ways:

    direct -- per-divisor: every divisor ORs its dyadic cell into a bitmask
    of each multiple (`tables.tauplus_window`), and the set bits are counted;
    dyadic -- the identity with interval counts, sum_{k >= -1} H(x, 2^k, 2^{k+1}).

    Returns (direct, dyadic); they must agree exactly.
    """
    _check_cap(x)
    direct = sum(_map_chunks(_tauplus_sum, 1, x + 1, threads))
    dyadic = x  # k = -1: every n has the divisor 1 in (1/2, 1]
    k = 0
    while (1 << k) < x:
        dyadic += h_count(x, 1 << k, min(1 << (k + 1), x))
        k += 1
    return direct, dyadic


# Largest x of `s_avg`, whose windows sort every divisor pair of [1, x].
S_AVG_CAP = 10**7


def _delta_sum_chunk(bounds: tuple[int, int]) -> int:
    return sum(int(_delta_window(key, start).sum()) for _, key, start in _pair_windows(*bounds))


def s_avg(x: int, threads: int = 1) -> float:
    """Average of the divisor-concentration function over n <= x (exact)."""
    if x > S_AVG_CAP:
        raise ResourceError(f"s_avg scan {x} exceeds per-n capability cap {S_AVG_CAP}")
    _check_cap(x)
    total = sum(_map_chunks(_delta_sum_chunk, 1, x + 1, threads))
    return total / x


def eps_pair(y: int, z: int, x: int) -> tuple[DensityEstimate, DensityEstimate, float]:
    """Densities of {some divisor in (y, z]} and {exactly one divisor in
    (y, z]} from the valuation DP (divisor_hit_densities), and their ratio
    rho_1; x only bounds z.  Past MAX_DP_STATES states each density is a
    valuation_bracket and rho_1 the ratio of the bracket midpoints."""
    if not (1 <= y < z <= x):
        raise DomainError(f"need 1 <= y < z <= x, got y={y} z={z} x={x}")
    (lo, hi), (lo1, hi1) = divisor_hit_densities(GeneratorSet(interval=(y, z)))
    return _bracket_estimate(lo, hi), _bracket_estimate(lo1, hi1), float((lo1 + hi1) / (lo + hi))


# ---------------------------------------------------------------------------
# empirical distributions

@dataclass(frozen=True)
class EmpiricalDistribution:
    samples: int
    grid: tuple[float, ...]
    cdf: tuple[float, ...]
    ks_vs: tuple[str, float] | None = None
    jumps: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self):
        c = self.cdf
        if any(b < a - 1e-12 for a, b in zip(c, c[1:])) or (c and not c[-1] <= 1 + 1e-12):
            raise DomainError("cdf must be non-decreasing and end at most 1")


def nu_distribution(x: int, grid: tuple[float, ...] | None = None) -> EmpiricalDistribution:
    """Empirical CDF of tau^+(n)/tau(n) over n <= x, one window at a time, with
    the largest grid-cell masses reported as jump candidates (no assertion)."""
    if grid is None:
        grid = tuple(i / 50 for i in range(1, 51))
    if list(grid) != sorted(grid):
        raise DomainError("grid must be ascending")
    _check_cap(x)
    g = np.asarray(grid, dtype=np.float64)
    counts = np.zeros(len(g), dtype=np.int64)
    for a, b in _windows(1, x + 1):
        ratio = tauplus_window(a, b).astype(np.float64)
        ratio /= _count_divisors(np.zeros(b - a, dtype=np.uint16), a)
        ratio.sort()
        counts += np.searchsorted(ratio, g, side="right")
    cum = counts / x
    masses = np.diff(np.concatenate(([0.0], cum)))  # mass in each cell (g_{i-1}, g_i]
    order = np.argsort(masses)[::-1][:5]
    jumps = tuple(sorted((float(g[i]), float(masses[i])) for i in order))
    return EmpiricalDistribution(x, tuple(map(float, grid)), tuple(map(float, cum)),
                                 ks_vs=None, jumps=jumps)


def _ks_two_sided(zvals: np.ndarray, weights: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance between a discrete empirical law
    (atoms zvals with the given weights) and the standard normal."""
    order = np.argsort(zvals)
    z = zvals[order]
    w = weights[order]
    cdf = np.cumsum(w)
    cdf_left = cdf - w
    phi = np.array([gaussian_cdf(v) for v in z])
    return float(np.max(np.maximum(np.abs(cdf - phi), np.abs(cdf_left - phi))))


def erdos_kac(x: int, with_multiplicity: bool = False) -> EmpiricalDistribution:
    """Empirical law of (omega(n) - ln ln x)/sqrt(ln ln x) over 3 <= n <= x,
    with the two-sided KS distance to the standard normal."""
    if x < 3:
        raise DomainError(f"need x >= 3, got {x}")
    om = omega_table(x, with_multiplicity=with_multiplicity)
    llx = math.log(math.log(x))
    s = math.sqrt(llx)
    counts = np.zeros(int(om[3:].max()) + 1, dtype=np.int64)
    for lo, hi in _windows(3, x + 1):  # bincount copies its input to intp
        counts += np.bincount(om[lo:hi], minlength=len(counts))
    tot = counts.sum()
    zvals = (np.arange(len(counts)) - llx) / s
    weights = counts / tot
    keep = weights > 0
    ks = _ks_two_sided(zvals[keep], weights[keep])
    cdf = np.cumsum(weights)
    return EmpiricalDistribution(int(tot), tuple(map(float, zvals)),
                                 tuple(map(float, cdf)), ks_vs=("gaussian", ks))


# ---------------------------------------------------------------------------
# largest-prime-factor adjacency

@dataclass(frozen=True)
class PPlusStats:
    x: int
    frac_up: float
    frac_triple_down: float
    first_triple_down: int | None
    alpha_bins: tuple[float, ...]
    alpha_counts: tuple[int, ...]


def pplus_adjacency(x: int) -> PPlusStats:
    """Adjacency statistics of P^+ at consecutive arguments: the fraction of
    n <= x with P^+(n+1) > P^+(n), descending triples, and the histogram of
    log(P^+(n+1)/P^+(n)) / log n.  Only the P^+ table spans the range: the
    comparisons and the floats are made per `_windows` window."""
    if x < 2:
        raise DomainError(f"need x >= 2, got {x}")
    gpf = gpf_table(x + 2)
    bins = np.linspace(-1.0, 1.0, 41)
    counts = np.zeros(len(bins) - 1, dtype=np.int64)
    n_up = n_triple = 0
    first = None
    for lo, hi in _windows(1, x + 1):
        a, b, c = gpf[lo:hi], gpf[lo + 1:hi + 1], gpf[lo + 2:hi + 2]
        n_up += int(np.count_nonzero(b > a))
        triple = a > b
        triple &= b > c
        n_triple += int(np.count_nonzero(triple))
        if first is None and triple.any():
            first = lo + int(np.argmax(triple))
        s = max(lo, 2)
        alpha = np.divide(gpf[s + 1:hi + 1], gpf[s:hi], dtype=np.float64)
        np.log(alpha, out=alpha)
        log_n = np.arange(s, hi, dtype=np.float64)
        alpha /= np.log(log_n, out=log_n)
        counts += np.histogram(np.clip(alpha, -1.0, 1.0, out=alpha), bins=bins)[0]
        del triple, alpha, log_n  # before the next window's are made
    return PPlusStats(x, n_up / x, n_triple / x, first,
                      tuple(map(float, bins)), tuple(int(v) for v in counts))


# ---------------------------------------------------------------------------
# the consecutive-ratio integral lower bound

def _li2(t: float) -> float:
    """Dilogarithm sum_{k>=1} t^k/k^2 for 0 <= t <= 1/2, where 60 terms leave
    a tail below 1e-21."""
    return sum(t**k / (k * k) for k in range(1, 61))


def lower_bound_integral(c: float) -> float:
    """log(1/(1-c)) - 2 * int_0^c log((1-v)/(1-v-2c)) dv/(1-v) for 0 < c < 1/5.

    With t = 2c/(1-v) the integral is Li_2(2c/(1-c)) - Li_2(2c), and both
    arguments stay below 1/2 on (0, 1/5)."""
    if not 0.0 < c < 0.2:
        raise DomainError(f"need 0 < c < 1/5, got {c}")
    return -math.log1p(-c) - 2.0 * (_li2(2.0 * c / (1.0 - c)) - _li2(2.0 * c))


def maximize_lower_bound() -> tuple[float, float]:
    """(c*, value) maximizing the integral lower bound over (0, 1/5), by
    golden-section search (Kiefer 1953); the bound is unimodal there."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 1e-9, 0.2 - 1e-9
    x1, x2 = b - r * (b - a), a + r * (b - a)
    f1, f2 = lower_bound_integral(x1), lower_bound_integral(x2)
    while b - a > 1e-10:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + r * (b - a)
            f2 = lower_bound_integral(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - r * (b - a)
            f1 = lower_bound_integral(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


# ---------------------------------------------------------------------------
# medians of Omega and totient values

@dataclass(frozen=True)
class OmegaMedianResult:
    x: int
    count: int
    formula_gap: float
    printed_constant: float
    direct_formula_constant: float


def omega_median_count(x: int) -> OmegaMedianResult:
    """Count of n <= x with Omega(n) <= ln ln x; formula_gap is the
    empirical estimate of the negated constant in the secondary term.

    Omega(n) is an integer, so the count is that of Omega(n) <= K =
    floor(ln ln x): n = 1, then pi(x) primes, then the products p q with
    p <= q, sum_{p <= sqrt(x)} (pi(x // p) - pi(p) + 1), with pi from Lucy's
    sieve on the quotients x // i (`tables._prime_pi`), in O(sqrt(x)) memory.

    The source's printed constant (0.36798) does not match a direct reading
    of its defining formula, A - 2/3 - sum_p 1/(p(p-1)) = -1.178326...,
    taken from MERTENS_A and PRIME_ZETA_SUM; both are reported, nothing is
    asserted.
    """
    if x < 3:
        raise DomainError(f"need x >= 3, got {x}")
    _check_cap(x)
    llx = math.log(math.log(x))
    K = math.floor(llx)
    if K > 2:  # the scan cap (2e8) lies below e^(e^3) ~ 5.3e8
        raise ResourceError(f"Omega <= {K} is not counted; x = {x} passes e^(e^3)")
    _, index, pi = _prime_pi(x)
    count = 1
    if K >= 1:
        count += int(pi[-1])
    if K >= 2:
        ps = primes_upto(math.isqrt(x))
        count += int(np.sum(pi[index(x // ps)] - pi[ps - 1] + 1))  # V[p - 1] = p
    gap = (count - x / 2) * math.sqrt(2 * math.pi * llx) / x + (llx - math.floor(llx))
    return OmegaMedianResult(x, count, gap, 0.36798, MERTENS_A - 2.0 / 3.0 - PRIME_ZETA_SUM)


def totient_values(x: int) -> int:
    """Exact count of v <= x arising as a totient value, by a set DP over
    the primes p <= x + 1: phi(n) is a product of (p-1)p^(e-1) over distinct
    primes, and every partial product of a value <= x is itself <= x."""
    _check_cap(x)
    hit = np.zeros(x + 1, dtype=bool)
    hit[1] = True
    for p in primes_upto(x + 1):
        p = int(p)
        old = np.flatnonzero(hit[:x // (p - 1) + 1])  # the state before p
        f = p - 1
        while f <= x:
            hit[old[old <= x // f] * f] = True
            f *= p
    return int(np.count_nonzero(hit))


# ---------------------------------------------------------------------------
# divisor multiples of an irrational: ||d theta||

def _nearest_int_min(divs, theta) -> tuple:
    """(min over the ascending divs of ||d theta||, the first d attaining it)."""
    best, best_d = 1.0, 1
    # a Fraction compared with the float 0.5 would convert 0.5 on every divisor
    half = Fraction(1, 2) if isinstance(theta, Fraction) else 0.5
    for d in divs:
        t = d * theta
        fr = t - math.floor(t)
        dist = fr if fr < half else 1 - fr
        if dist < best:
            best, best_d = dist, d
    return best, best_d


def dtheta_min(f, theta) -> tuple[float, int]:
    """(min over d | n of ||d theta||, minimizing divisor); theta may be a
    float or a Fraction (exact arithmetic in the latter case)."""
    from .arith import divisors

    if not math.isfinite(theta):
        raise DomainError(f"need a finite theta, got {theta}")
    best, best_d = _nearest_int_min(divisors(f).divisors, theta)
    return float(best), best_d


def convergents(theta: Fraction, J: int) -> list[tuple[int, int]]:
    """First J continued-fraction convergents p_j/q_j of theta (fewer if the
    expansion terminates)."""
    if J < 1:
        raise DomainError(f"need J >= 1, got {J}")
    a = Fraction(theta)
    h0, h1 = 1, int(math.floor(a))
    k0, k1 = 0, 1
    out = [(h1, k1)]
    frac = a - h1
    while len(out) < J and frac != 0:
        a = 1 / frac
        ai = int(math.floor(a))
        frac = a - ai
        h0, h1 = h1, ai * h1 + h0
        k0, k1 = k1, ai * k1 + k0
        out.append((h1, k1))
    return out


def convergent_growth_report(theta: Fraction, J: int) -> list[float]:
    """Exponents ln ln q_{j+1} / ln ln q_j along the convergents (defined
    once q_j >= 3): the bounded-growth condition holds when these stay near 1."""
    qs = [q for _, q in convergents(theta, J)]
    out = []
    for q1, q2 in zip(qs, qs[1:]):
        if q1 >= 3 and q2 >= 3:
            out.append(math.log(math.log(q2)) / math.log(math.log(q1)))
    return out


def dtheta_exponent_stats(lo: int, hi: int, theta) -> tuple[float, float]:
    """(median, mean) of log(1/min_d ||d theta||)/log tau(n) over n in
    [lo, hi]; integers where the minimum vanishes are skipped."""
    if not 2 <= lo <= hi:
        raise DomainError(f"need 2 <= lo <= hi, got {lo}..{hi}")
    _check_cap(hi)
    th = float(theta)
    vals = []
    for _, d, start in _pair_windows(lo, hi + 1):
        d &= 0xFFFFFFFF
        t = d * th
        fr = t - np.floor(t)
        best = np.minimum.reduceat(np.minimum(fr, 1.0 - fr), start)
        tau = np.diff(start, append=len(d))
        keep = (tau >= 2) & (best > 0.0)
        # math.log, as the per-n scans take it, so the values match them bit for
        # bit; each window's values go straight into an array, as a list of
        # Python floats over the range left the heap holding megabytes after it
        vals.append(np.fromiter(map(operator.truediv, map(math.log, (1.0 / best[keep]).tolist()),
                                    map(math.log, tau[keep].tolist())),
                                np.float64, int(np.count_nonzero(keep))))
    arr = np.sort(np.concatenate(vals))
    if not len(arr):
        raise DomainError("no usable integers in range")
    return float(arr[len(arr) // 2]), float(arr.mean())


def golden_ratio_fraction(digits: int = 60) -> Fraction:
    scale = 10**digits
    return Fraction(scale + math.isqrt(5 * scale * scale), 2 * scale)


def sqrt2_fraction(digits: int = 60) -> Fraction:
    scale = 10**digits
    return Fraction(math.isqrt(2 * scale * scale), scale)


# ---------------------------------------------------------------------------
# exceptional integers for the close-divisor-product set

def me_fractions(xs: list[int]) -> list[float]:
    """Fraction of n <= x lying in M(E) for each x (one shared scan)."""
    xmax = max(xs)
    mask = multiples_mask(np.flatnonzero(e_set_mask(xmax)), xmax)
    return [np.count_nonzero(mask[1:x + 1]) / x for x in xs]


def exceptional_count(x: int) -> int:
    """Number of n <= x without any divisor of the form d*d', d < d' < 2d."""
    mask = multiples_mask(np.flatnonzero(e_set_mask(x)), x)
    return x - int(np.count_nonzero(mask[1:]))


# ---------------------------------------------------------------------------
# named constants

def beta_r(r: int) -> float:
    """Propinquity exponent (log3 - 1)^m / (log3 - 1/3)^{m-1} with m chosen
    by 2^{m-1} < r + 1 <= 2^m."""
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    m = r.bit_length()
    ln3 = math.log(3.0)
    return (ln3 - 1.0) ** m / (ln3 - 1.0 / 3.0) ** (m - 1)


LAMBDA_STAR = math.log(4.0) - 1.0
_RAOUJ_KNEE = 3 * LN2 - 1.0


def raouj_F(lam: float) -> float:
    """Exponent F(lambda): beta log beta - beta + 1 with
    beta = -1 + (1 + lambda)/log 2 up to the knee 3 log 2 - 1, then
    lambda - log 2 beyond it."""
    if lam < 0:
        raise DomainError(f"need lambda >= 0, got {lam}")
    if lam <= _RAOUJ_KNEE:
        b = -1.0 + (1.0 + lam) / LN2
        return b * math.log(b) - b + 1.0
    return lam - LN2


def constant_table() -> dict[str, float]:
    """The named constants by name, each from its closed form, and A and
    b = 1/3 + A from the 30-digit MERTENS_A.

    Note: the printed source value for c_pseudo (3.566509) is a slip for its
    own defining expression (1 - log 2)/delta = 3.5650990; the closed-form
    value is carried here.  Acceptance criterion 7 checks it against the
    corrected decimal 3.565099, and tests/test_experiments.py against a
    30-digit reference.
    """
    delta = 1.0 - (1.0 + math.log(LN2)) / LN2
    return {
        "delta": delta,
        "beta": 1.0 - (1.0 + math.log(math.log(3.0))) / math.log(3.0),
        "gamma_delta": LN2 / math.log((1.0 - 1.0 / math.log(27.0)) / (1.0 - 1.0 / math.log(3.0))),
        "lambda_star": LAMBDA_STAR,
        "sigma0": LN2 / (1.0 - LN2),
        "c_pseudo": (1.0 - LN2) / delta,
        "b": 1.0 / 3.0 + MERTENS_A,
        "A": MERTENS_A,
        "hall_c": 0.5 - math.log(math.pi**2 / 6.0) / math.log(4.0),
        "two_minus_log4": 2.0 - math.log(4.0),
        "beta_1": beta_r(1),
        "beta_2": beta_r(2),
        "beta_4": beta_r(4),
    }


__all__ = [
    "EmpiricalDistribution", "OmegaMedianResult",
    "PPlusStats", "alpha0", "beta_r", "constant_table", "convergent_growth_report",
    "convergents", "dtheta_min", "eps_pair", "erdos_kac", "exceptional_count",
    "golden_ratio_fraction", "h_count", "lower_bound_integral", "maximize_lower_bound",
    "me_fractions", "nu_distribution", "omega_median_count",
    "pplus_adjacency", "raouj_F", "s_avg", "sqrt2_fraction", "t_sum", "totient_values",
]
