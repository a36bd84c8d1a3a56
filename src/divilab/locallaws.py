"""Local laws of the k-th prime factor and the k-th divisor.

The density of integers whose k-th smallest distinct prime factor equals p is

    lambda_k(p) = (1/p) * prod_{q<p} (1 - 1/q) * e_{k-1}(p),

where e_j(p) is the j-th elementary symmetric function of {1/(q-1): q < p}.
The e_j are accumulated by an all-positive DP (no cancellation), so doubles
carry relative error O(pi(p) * ulp) -- certified against an exact-rational
oracle for small p in the tests.  The DP (`_columns`) runs column by column
over all the primes at once: e_j at every prime is a prefix sum of
e_{j-1} / (q - 1), one numpy accumulate per whole column, and it stops at
the first column that is all zero, or earlier when the caller has read what
it needs.  So the cost is O(J * pi(p)) for J columns, never O(pi(p)^2):
`s_coeffs` and `lambda_kp` read kmax + 1 and k columns, and `lambda_mode`
and `unimodal_check` stop at the first column dominated by the one before
it (`_state_at`), at most 4 columns at every prime below 10^4 and at 60013,
where the e_j only underflow after 178 columns.  Two columns are live,
288 KB at the median's pmax = 200000, so the primes need no blocks: each
caller reads each column as it passes (its last entry, or the lambda_k
column).  The primes are listed up to errors.DEFAULT_SCAN_CAP and no
further (`_capped_primes`).

The exact k-th-divisor law forms no array, so the module imports no numpy:
the sweeps, the prime lists (`sieve`) and the Monte Carlo path import them
when called.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .density import DensityEstimate, bracket
from .errors import DEFAULT_SCAN_CAP, DomainError, ResourceError
from .multiples import _bonferroni_sums, _check_lcm_work


def _columns(ps: np.ndarray, size: int):
    """(prods, columns) of the e_j DP over the ascending primes ps: entry r
    of prods is prod (1 - 1/q), and of column j (j < size) e_j, over the
    primes before ps[r]; the last entries cover all of ps.

    Column j is col_j[r + 1] = col_j[r] + col_{j-1}[r] / (ps[r] - 1): one
    divide and one sequential accumulate, the same float operations in the
    same order as updating all e_j one prime at a time.  Its entries are
    running sums of nonnegative terms, so a column whose last entry is 0 is
    0 throughout, as is every later one: columns stops before it.  Two
    columns are live, so each one yielded is overwritten two columns later.
    """
    import numpy as np

    ps = np.asarray(ps, dtype=np.float64)
    prods = np.empty(len(ps) + 1)
    prods[0] = 1.0
    np.subtract(1.0, 1.0 / ps, out=prods[1:])
    np.multiply.accumulate(prods, out=prods)

    def columns():
        qm1 = ps - 1.0
        E = np.ones((2, len(ps) + 1))  # column j lives in row j % 2
        yield E[0]
        for j in range(1, size):
            col = E[j % 2]
            col[0] = 0.0
            np.divide(E[1 - j % 2, :-1], qm1, out=col[1:])
            np.add.accumulate(col, out=col)
            if col[-1] == 0.0:
                return
            yield col

    return prods, columns()


def _capped_primes(n: int) -> np.ndarray:
    """primes_upto(n), or ResourceError first when n passes DEFAULT_SCAN_CAP:
    a local law at p reads every prime below p."""
    if n > DEFAULT_SCAN_CAP:
        raise ResourceError(f"local laws list the primes up to {n}, past the cap "
                            f"{DEFAULT_SCAN_CAP}")
    from .sieve import primes_upto

    return primes_upto(n)


def _state_at(p: int, kmax: int | None = None):
    """The DP's state at the prime p: (prod_{q<p}(1-1/q), e, pi(p - 1)), e[j]
    the last entry of whole column j over the primes below p (0 past the
    last column), for j <= min(kmax, pi(p - 1) + 1).

    With kmax None the columns stop at the first j >= 1 whose column is <=
    column j - 1 at every prime, and e is 0 past it.  Each column is
    exactly dominated by its predecessor from there on: column j + 1 is
    built from column j by the same correctly rounded divisions by q - 1 and
    sequential adds that built column j from column j - 1, both monotone in
    their inputs, so by induction along the primes (entry 0 is 0 in both)
    col_{j+1} <= col_j.  Every e_j left out is <= the one before it, which
    keeps the first argmax and `_unimodal` of e exactly as over all columns.
    """
    import numpy as np

    ps = _capped_primes(p - 1)
    seen = len(ps)
    size = (seen + 1 if kmax is None else min(kmax, seen + 1)) + 1
    prods, columns = _columns(ps, size)
    e = np.zeros(size)
    prev = None
    for j, col in enumerate(columns):
        e[j] = col[-1]
        # prev, column j - 1, is overwritten only when column j + 1 is made
        if kmax is None and prev is not None and np.all(col <= prev):
            break
        prev = col
    return float(prods[-1]), e, seen


def _lambda_column(k: int, ps: np.ndarray):
    """(lambda_k at each prime of ps, tail), read from column k - 1 of the
    DP over ps; tail = prod * sum_{j<k} e_j after the last prime of ps."""
    import numpy as np

    size = min(k, len(ps) + 1)
    prods, columns = _columns(ps, size)
    last = np.zeros(size)
    lam = np.zeros(len(ps))  # stays 0 when the columns stop before k - 1
    for j, col in enumerate(columns):
        last[j] = col[-1]
        if j == k - 1:
            lam = col[:-1] * prods[:-1] / ps
    return lam, float(prods[-1] * last.sum())


def _require_prime(p: int, caller: str) -> None:
    from .sieve import is_prime_u64

    if p < 2 or not is_prime_u64(p):
        raise DomainError(f"{caller} needs a prime, got {p}")


@dataclass(frozen=True)
class SymmetricCoeffs:
    """e[j] = elementary symmetric function of {1/(q-1): q prime < p}."""

    p: int
    kmax: int
    e: np.ndarray

    def __post_init__(self):
        self.e.flags.writeable = False


def s_coeffs(p: int, kmax: int) -> SymmetricCoeffs:
    import numpy as np

    _require_prime(p, "s_coeffs")
    if kmax < 0:
        raise DomainError(f"need kmax >= 0, got {kmax}")
    _, e, _ = _state_at(p, kmax)
    return SymmetricCoeffs(p, kmax, np.pad(e, (0, kmax + 1 - len(e))))


def lambda_kp(k: int, p: int) -> float:
    """Density of integers whose k-th distinct prime factor is p; zero when
    k - 1 exceeds the number of primes below p."""
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    _require_prime(p, "lambda_kp")
    prod, e, seen = _state_at(p, k - 1)
    if k - 1 > seen:
        return 0.0
    return prod * e[k - 1] / p


@dataclass(frozen=True)
class LocalLawRow:
    """All lambda_k(p) for p <= P, with the exact finite tail identity:
    partial_sum + tail == 1, both sides being the density of integers with
    at least k distinct prime factors <= P (tail = prod * sum_{j<k} e_j)."""

    k: int
    entries: tuple[tuple[int, float], ...]
    partial_sum: float
    tail: float


def lambda_row(k: int, P: int) -> LocalLawRow:
    """lambda_k(p) at every prime p <= P and the tail after P, from one pass
    over the DP's whole columns (`_lambda_column`)."""
    import numpy as np

    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if P < 2:
        raise DomainError(f"need P >= 2, got {P}")
    ps = _capped_primes(P)
    lam, tail = _lambda_column(k, ps)
    entries = tuple(zip(ps.tolist(), lam.tolist()))
    return LocalLawRow(k, entries, float(np.add.accumulate(lam)[-1]), tail)


@dataclass(frozen=True)
class MedianResult:
    p_star: int
    cum_before: float
    cum_at: float
    tie_at: int | None  # prime where the cumulative sum hit exactly 1/2


def median_prime_detail(k: int, pmax: int = 200_000) -> MedianResult:
    """Smallest prime at which the cumulative lambda_k mass strictly exceeds
    1/2.  Exact ties (cumulative sum == 1/2) are excluded by strictness and
    flagged; they are adjudicated in exact rationals for small primes.

    This convention reproduces the published values (k=2 -> 37, k=3 -> 42719);
    see the distribution's tie at p=2 for k=1, which yields 3.

    The lambda_k column comes whole up to pmax (`_lambda_column`), and a
    binary search finds the first cumulative sum within 1e-9 of 1/2.
    """
    import numpy as np

    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    ps = _capped_primes(pmax)
    cums = np.add.accumulate(np.concatenate(([0.0], _lambda_column(k, ps)[0])))
    # cums[i], the mass of the primes before ps[i], is nondecreasing; only a
    # cumulative sum this close to 1/2 can be a tie or a crossing
    tie_at = None
    for i in range(int(np.searchsorted(cums, 0.5 - 1e-9)), len(cums)):
        p, cum = int(ps[i - 1]), float(cums[i])
        if abs(cum - 0.5) < 1e-9 and p <= 1000 and _exact_cum_is_half(k, p):
            tie_at = p
            continue
        if cum > 0.5:
            return MedianResult(p, float(cums[i - 1]), cum, tie_at)
    raise ResourceError(
        f"cumulative lambda_{k} mass reaches only {cums[-1]:.6f} by p = {pmax}; "
        f"the median prime grows doubly exponentially in k"
    )


def median_prime(k: int, pmax: int = 200_000) -> int:
    return median_prime_detail(k, pmax).p_star


def _exact_cum_is_half(k: int, pmax: int) -> bool:
    from .sieve import primes_upto

    cum = Fraction(0)
    e = [Fraction(0)] * k
    e[0] = Fraction(1)
    prod = Fraction(1)
    for q in primes_upto(pmax):
        q = int(q)
        cum += e[k - 1] * prod / q
        for j in range(k - 1, 0, -1):
            e[j] += e[j - 1] / (q - 1)
        prod *= Fraction(q - 1, q)
    return cum == Fraction(1, 2)


def gaussian_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# Mertens' constant A = gamma + sum_p (log(1 - 1/p) + 1/p) and the sum
# S = sum_p 1/(p(p - 1)), each to 30 decimals; tests/oracles.py derives both
# from log zeta series (Finch, *Mathematical Constants*, 2003, 2.2).
MERTENS_A = 0.261497212847642783755426838609
PRIME_ZETA_SUM = 0.773156669049795127864367459856


def phi0_correction(z: float) -> float:
    """Second-order correction term exp(-z^2/2) * (1/3 + A - z^2/3) to the
    Gaussian law of the k-th prime factor, with A = MERTENS_A."""
    return math.exp(-z * z / 2.0) * (1.0 / 3.0 + MERTENS_A - z * z / 3.0)


def lambda_mode(p: int) -> tuple[int, float]:
    """(k*, lambda*) maximizing lambda_k(p) over k, ties toward smaller k.

    lambda_k(p) is e_{k-1} times a factor free of k, so k* - 1 is the first
    argmax of the e_j, read from the columns up to the first one dominated
    by its predecessor (`_state_at`).  Every later column is <= that one in
    floats, rounding being monotone, so k* and lambda* are bit for bit
    those of all the columns, at a few columns in place of ~170."""
    import numpy as np

    _require_prime(p, "lambda_mode")
    prod, e, seen = _state_at(p)
    j = int(np.argmax(e[:seen + 1]))  # first max wins
    return j + 1, float(e[j] * prod / p)


def _unimodal(values: np.ndarray) -> bool:
    import numpy as np

    d = np.diff(values)
    falls = np.flatnonzero(d < 0)
    if len(falls) == 0:
        return True
    return not np.any(d[falls[0]:] > 0)


def unimodal_check(p: int) -> bool:
    """True iff {lambda_k(p)}_k rises then falls (plateaus allowed).

    The e_j are read up to the first column dominated by its predecessor
    (`_state_at`); the e_j after it are nonincreasing in floats, rounding
    being monotone, so they can add no rise after a fall and the answer is
    that of all the columns."""
    _require_prime(p, "unimodal_check")
    _, e, seen = _state_at(p)
    return _unimodal(e[:seen + 1])


# ---------------------------------------------------------------------------
# local law of the k-th divisor

def _divisor_gens(d: int) -> list[int]:
    """The q_m = m / gcd(m, d) of the m < d not dividing d: for d | n, such
    an m divides n = d r exactly when q_m divides r.  The m <= d left out
    divide d, so tau(d) = d - len(_divisor_gens(d))."""
    return [m // math.gcd(m, d) for m in range(2, d) if d % m]


def _exact_gens(k: int, d: int, method: str | None) -> list[int] | None:
    """`_divisor_gens(d)` when Lambda_kd at d is exact, None when it is Monte
    Carlo: exact by default while their lcm DP fits its cap.  Past it
    "exact" raises ResourceError, as does d > 10000; k < 1 or d < 1 raises
    DomainError first."""
    if k < 1 or d < 1:
        raise DomainError(f"need k >= 1 and d >= 1, got k={k}, d={d}")
    if method not in (None, "exact", "mc"):
        raise DomainError(f"unknown Lambda method {method!r}")
    if d > 10_000:
        raise ResourceError(f"Lambda_kd's cost grows with d; d={d} > 10000")
    if method == "mc":
        return None
    gens = _divisor_gens(d)
    try:
        _check_lcm_work(gens, len(gens))
    except ResourceError:
        if method == "exact":
            raise
        return None
    return gens


def _dividing_counts(r: np.ndarray, gens: list[int]) -> np.ndarray:
    """#{q in gens: q | r} at each entry of r, with multiplicity: one
    remainder per distinct q, weighted by the number of times q occurs."""
    import numpy as np

    cnt = np.zeros(len(r), dtype=np.int64)
    for q, times in Counter(gens).items():
        cnt += times * (r % q == 0)
    return cnt


_MAX_N = (1 << 63) - 1  # the Monte Carlo n are uniform on [1, _MAX_N]


def Lambda_kd(
    k: int,
    d: int,
    method: str | None = None,
    samples: int = 200_000,
    seed: int | None = None,
) -> DensityEstimate:
    """Density of integers whose k-th smallest divisor is d.

    Write n = d r.  The divisors of n up to d are the tau(d) divisors of d and
    the m < d with m not dividing d and q_m = m / gcd(m, d) dividing r, so
    Lambda_k(d) = P(N = k - tau(d)) / d, N the number of those q_m dividing a
    random r.  The subset-lcm DP gives S_j = sum over j-subsets of the q_m of
    1 / lcm exactly, and E[(1 + t)^N] = sum_j S_j t^j with S_0 = 1, so

        P(N = i) = sum_{j >= i} (-1)^(j - i) C(j, i) S_j.

    That is the exact route (tag exact_period) while the DP fits
    multiples.MAX_LCM_VISITS, so for d <= 30 and d = 32; past it the default
    is Monte Carlo with a Wilson 95% bracket.  Positivity: tau(d) <= k <= d.

    Monte Carlo estimates the share of `samples` n uniform on [1, M],
    M = 2^63 - 1, whose k-th divisor is d, but draws only the n that d
    divides: their number is one Binomial(samples, floor(M/d) / M) draw,
    and each is n = d r with r uniform on [1, floor(M/d)], a hit when
    exactly k - tau(d) of the q_m divide r.  Both draws come from one
    Philox(seed) stream, r in chunks of 2^16, and no r is drawn when
    k - tau(d) lies outside [0, #q_m].  The same seed gives the same
    estimate; seed < 0 raises DomainError before any work.
    """
    if seed is not None and seed < 0:
        raise DomainError(f"need seed >= 0, got {seed}")
    gens = _exact_gens(k, d, method)
    if gens is not None:
        i = k - (d - len(gens))  # k - tau(d)
        p = 0
        if 0 <= i <= len(gens):
            S = _bonferroni_sums(gens, len(gens))
            S[0] = Fraction(1)
            p = sum((-1) ** (j - i) * math.comb(j, i) * S[j] for j in range(i, len(S)))
        return bracket(Fraction(p, d), Fraction(p, d), "exact_period", d=d, k=k)
    if seed is None:
        raise DomainError("monte carlo Lambda_kd requires a seed")
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples}")
    import numpy as np

    gens = _divisor_gens(d)
    i = k - (d - len(gens))  # k - tau(d)
    hits = 0
    if 0 <= i <= len(gens):
        rng = np.random.Generator(np.random.Philox(seed))
        top = _MAX_N // d
        drawn = int(rng.binomial(samples, top / _MAX_N))
        for start in range(0, drawn, 1 << 16):
            r = rng.integers(1, top + 1, size=min(1 << 16, drawn - start), dtype=np.int64)
            hits += int(np.count_nonzero(_dividing_counts(r, gens) == i))
    phat = hits / samples
    z = 1.959963984540054
    denom = 1.0 + z * z / samples
    center = (phat + z * z / (2 * samples)) / denom
    half = z * math.sqrt(phat * (1 - phat) / samples + z * z / (4 * samples**2)) / denom
    # at 0 or all hits center -/+ half cancels to a residue past phat in floats
    lo = min(max(0.0, center - half), phat) if hits else 0.0
    hi = max(min(1.0, center + half), phat) if hits < samples else 1.0
    return DensityEstimate(phat, lo, hi, "monte_carlo",
                           params={"samples": samples, "seed": seed, "d": d, "k": k})


@dataclass(frozen=True)
class KScales:
    """Characteristic scales K_j = k^{(log_{j+2} k)/log 2} of the k-th
    divisor's local law (log_m = m-fold iterated natural log)."""

    k: int
    values: tuple[float, ...]


def k_scales(k: int, jmax: int) -> KScales:
    if k < 2:
        raise DomainError(f"need k >= 2 for iterated logs, got {k}")
    vals = []
    # log_{j+2}(k): iterate ln (j+2) times
    it = math.log(math.log(k))
    for j in range(jmax + 1):
        if j > 0:
            it = math.log(it)
        if it <= 0:
            raise DomainError(f"iterated log non-positive at depth {j + 2} for k={k}")
        vals.append(k ** (it / math.log(2.0)))
    return KScales(k, tuple(vals))
