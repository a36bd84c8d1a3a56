"""Vectorized whole-range tables for counting scans up to ~10^8.

Prime-factor tables (omega, Omega, P^+) need no SPF array: they walk
n = 2..x with `sieve.prime_runs`, which hands each chunk [lo, hi) its
primes p <= sqrt(hi - 1), largest first, with their cofactors m < lo.  Each
prime fills its multiples p m from the finished t[m] in one strided write.
The recurrences hold for every prime p | n, so whichever write to n comes
last is right; primes keep their initial value.

Single counts up to x (`arith.psi1_count`,
`experiments.omega_median_count`) need no table: they come from recurrences
over the about 2 sqrt(x) values floor(x/i) (`_quotients`), as in the
Legendre / Meissel-Lehmer method, with prime counts from Lucy's sieve
(`_prime_pi`).

Divisor-indexed tables share one pair walker, `_pairs`: in a window [a, b),
every divisor pair n = d m is seen once, from its side d <= sqrt(b), in one
strided slice of the multiples of d, split where m crosses sqrt(b) so that
the part with m > sqrt(b) also counts m.  The divisor scans walk [1, x] in
the L2-sized windows of `_windows`, as slices over a whole x-sized table
would stride through all of it once per divisor.  Per-n statistics read
every (n, d) with d | n in a window of 2^16 integers as one sorted int64
key per pair (`_pair_keys`).  `_pair_windows` is the one walk over such
windows, and it gives where each n's keys start.  `_delta_window` reads
Delta(n) from them for `s_avg`, `experiments.dtheta_exponent_stats` its
per-n minima, and `_divisor_spectra` one sorted divisor list per n for
`fn --range`.

Scans partition cleanly over segments with associative merges; results are
deterministic and independent of partitioning.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterator

import numpy as np

from .arith import DivisorSpectrum
from .divgeom import _below_e
from .errors import DEFAULT_SCAN_CAP, DomainError, ResourceError
from .sieve import prime_runs, primes_upto

# Entries per window of `_windows`; 2^20 uint16 tau entries fill a 2 MB L2.  At
# 1e7, windows of 2^18 / 2^19 / 2^20 took 150 / 105 / 93 ms (tau table), 25.7 /
# 17.7 / 13.7 ms (h_count), 183 / 140 / 155 ms (tauplus_window) and 351 / 267 /
# 266 ms (nu_distribution), median of 5 calls, 2-vCPU VM.
_WINDOW = 1 << 20


def _windows(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """[a, b) over [lo, hi) in ascending windows of at most _WINDOW entries."""
    for a in range(lo, hi, _WINDOW):
        yield a, min(a + _WINDOW, hi)


def _check_cap(x: int) -> None:
    if x < 1:
        raise DomainError(f"need x >= 1, got {x}")
    if x > DEFAULT_SCAN_CAP:
        raise ResourceError(f"scan size {x} exceeds cap {DEFAULT_SCAN_CAP}")


def _quotients(x: int):
    """(V, index): V = {x // i : i >= 1} ascending as int64, about 2 sqrt(x)
    values, and the position of each w in V, vectorized: w - 1 for
    w <= s = isqrt(x), len(V) - x // w above.  Every v // p with v = x // i
    in V is x // (i p), in V too, so a recurrence over V reads only V."""
    s = math.isqrt(x)
    V = np.concatenate((np.arange(1, s + 1, dtype=np.int64),
                        x // np.arange(x // (s + 1), 0, -1, dtype=np.int64)))
    n = len(V)

    def index(w):
        return np.where(w <= s, w - 1, n - x // w)
    return V, index


def _prime_pi(x: int):
    """(V, index, pi) with pi[i] = pi(V[i]) on the quotients of x, by Lucy's
    sieve: from pi(v) = v - 1, each prime p <= sqrt(x) in turn removes from
    every v >= p^2 the pi(v // p) - pi(p - 1) numbers whose smallest prime
    factor is p.  The gather reads the values from before p."""
    V, index = _quotients(x)
    pi = V - 1
    for p in primes_upto(math.isqrt(x)):
        j = int(np.searchsorted(V, p * p))
        pi[j:] -= pi[index(V[j:] // p)] - pi[p - 2]
    return V, index, pi


def _pairs(a: int, b: int, lo: int = 1, hi: int | None = None):
    """Cover the pairs (n, e) with a <= n < b, e | n and lo <= e <= hi
    (default b - 1), for a >= 1, each once, by pieces (d, m0, m1, big) of
    n = d m for m = m0..m1 (step d in n), d <= root = isqrt(b - 1).

    Each divisor e > root of an n < b has its cofactor n / e <= root, so
    the runs of multiples of the d <= root alone hold every pair, each seen
    from its side d <= root: a piece holds (n, d) when d is in bounds and,
    when big, (n, m) with m > root.  A run splits where m crosses root and where
    it passes hi.  With lo > 1, a d < lo yields only its big part, for
    d <= (b - 1) // max(lo, root + 1).  Every n of a piece has a divisor in
    bounds, and O(sqrt(b)) pieces, each a strided slice, cover any window."""
    hi = b - 1 if hi is None else min(hi, b - 1)
    root = math.isqrt(b - 1)
    for d in range(lo, min(hi, root) + 1):
        m0, m1 = -(-a // d), (b - 1) // d
        if m0 > m1:
            continue
        if hi <= root or m1 <= root:  # no second divisor in bounds
            yield d, m0, m1, False
            continue
        if m0 <= root:
            yield d, m0, root, False
            m0 = root + 1
        if m0 <= hi:
            yield d, m0, min(m1, hi), True
            m0 = hi + 1
        if m0 <= m1:
            yield d, m0, m1, False
    big = max(lo, root + 1)  # the least m > root in bounds
    for d in range(1, min(lo - 1, (b - 1) // big) + 1 if big <= hi else 1):
        m0, m1 = max(big, -(-a // d)), min(hi, (b - 1) // d)
        if m0 <= m1:
            yield d, m0, m1, True


def _count_divisors(t: np.ndarray, a: int) -> np.ndarray:
    """Add tau(n) to t[n - a] for every n in [a, a + len(t)), one strided
    slice per `_pairs` piece: 1 for d, 2 where m is a second divisor;
    returns t."""
    for d, m0, m1, big in _pairs(a, a + len(t)):
        t[d * m0 - a:d * m1 - a + 1:d] += 1 + big
    return t


def tau_table(x: int) -> np.ndarray:
    """tau(n) for 0..x (index 0 unused)."""
    _check_cap(x)
    tau = np.zeros(x + 1, dtype=np.uint16)
    for a, b in _windows(1, x + 1):
        _count_divisors(tau[a:b], a)
    return tau


def interval_hits_count(x: int, lo_d: int, hi_d: int) -> int:
    """Number of n in [1, x] with a divisor in (lo_d, hi_d]."""
    _check_cap(x)
    hit = np.empty(min(x, _WINDOW), dtype=bool)
    count = 0
    for a, b in _windows(1, x + 1):
        hit[:] = False
        for d, m0, m1, _ in _pairs(a, b, lo_d + 1, hi_d):
            hit[d * m0 - a:d * m1 - a + 1:d] = True
        count += int(np.count_nonzero(hit[:b - a]))
    return count


def tauplus_window(lo: int, hi: int) -> np.ndarray:
    """tau^+(n) for n in [lo, hi) as uint8: the number of dyadic cells
    (2^(k-1), 2^k] occupied by divisors of n, cell k = bitlen(d - 1).

    In each window [a, b) of `_windows`, each `_pairs` piece ORs the cell
    bit of d into a uint32 mask of its multiples, and on a big piece the
    cell bit of m too, split where m crosses a power of two.  Below the
    scan cap every divisor is < 2^28, so the 29 cells fit."""
    if not 1 <= lo < hi:
        raise DomainError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    _check_cap(hi - 1)
    out = np.empty(hi - lo, dtype=np.uint8)
    for a, b in _windows(lo, hi):
        mask = np.zeros(b - a, dtype=np.uint32)
        for d, m, m1, big in _pairs(a, b):
            bit = 1 << (d - 1).bit_length()
            if not big:
                mask[d * m - a:d * m1 - a + 1:d] |= bit
                continue
            while m <= m1:
                k = (m - 1).bit_length()
                top = min(m1, 1 << k)
                mask[d * m - a:d * top - a + 1:d] |= bit | 1 << k
                m = top + 1
        out[a - lo:b - lo] = np.bitwise_count(mask)
    return out


_PAIR_WINDOW = 1 << 16  # n - a < 2^16 and d < 2^32 share one int64 key


def _pair_keys(a: int, b: int) -> np.ndarray:
    """The int64 keys (n - a) << 32 | d over every divisor d of every n in
    [a, b), b - a <= 2^16, sorted, so by n and then d.  Each `_pairs` piece
    is one arithmetic progression of keys, step d << 32, and a big piece a
    second one for its m, step d << 32 | 1.  They are written into one array
    sized from the pieces, so no list of them is held beside it."""
    pieces = list(_pairs(a, b))
    key = np.empty(sum((m1 - m0 + 1) << big for _, m0, m1, big in pieces), dtype=np.int64)
    i = 0
    for d, m0, m1, big in pieces:
        k0, k1, c = (d * m0 - a) << 32, (d * m1 - a) << 32, m1 - m0 + 1
        key[i:i + c] = np.arange(k0 | d, (k1 | d) + 1, d << 32, dtype=np.int64)
        i += c
        if big:
            key[i:i + c] = np.arange(k0 | m0, (k1 | m1) + 1, d << 32 | 1, dtype=np.int64)
            i += c
    key.sort()
    return key


def _pair_windows(lo: int, hi: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(a, key, start) for each window [a, b) of at most _PAIR_WINDOW
    integers over [lo, hi), ascending: the window's `_pair_keys`, and where
    each n's keys start (at its d = 1), so n's divisors are
    key[start[n - a]:start[n - a + 1]] & 0xFFFFFFFF.  A caller may change
    key in place.  The generator keeps no array of a window once it makes
    the next one's, so a caller that drops its own holds one window."""
    for a in range(lo, hi, _PAIR_WINDOW):
        b = min(a + _PAIR_WINDOW, hi)
        key = _pair_keys(a, b)
        yield a, key, np.searchsorted(key, np.arange(0, (b - a) << 32, 1 << 32, dtype=np.int64))
        del key


# K = (n - a) * _KEY_STRIDE + log d orders a window's pairs by n and then d,
# and log d < 20 below the scan cap keeps K + 1 short of the next n's keys.
# K < 2^21 rounds to within 5e-10, so a pair beyond _KEY_BAND of the window
# edge is decided by K; inside it, `divgeom._below_e` decides in integers.
_KEY_STRIDE = 32
_KEY_BAND = 1e-6


def _delta_window(key: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Delta(n) for each n of one `_pair_windows` window, from its keys
    (masked to the divisors in place) and starts: the window opened at pair
    i ends before the first pair j with d_j >= e d_i, searched on K at
    1 -/+ the band; Delta is the longest."""
    off = key >> 32
    d = np.bitwise_and(key, 0xFFFFFFFF, out=key)
    K = off * _KEY_STRIDE + np.log(d)
    end = np.searchsorted(K, K + (1 - _KEY_BAND))
    edge = np.searchsorted(K, K + (1 + _KEY_BAND))
    for i in np.flatnonzero(end != edge).tolist():
        di = int(d[i])
        while end[i] < edge[i] and _below_e(di, int(d[end[i]])):
            end[i] += 1
    return np.maximum.reduceat(end - np.arange(len(end)), start)


def _divisor_spectra(lo: int, hi: int) -> Iterator[DivisorSpectrum]:
    """The DivisorSpectrum of each n in [lo, hi], ascending, cut from the
    `_pair_windows` of [lo, hi + 1): n's divisors become Python ints one n
    at a time.  The caller checks the range; d < 2^32 holds below
    DEFAULT_LIMIT_CAP."""
    for a, d, start in _pair_windows(lo, hi + 1):
        d &= 0xFFFFFFFF
        start = start.tolist()
        for n, s, e in zip(range(a, a + len(start)), start, start[1:] + [len(d)]):
            yield DivisorSpectrum(n, tuple(d[s:e].tolist()))
        del d, start  # before the next window's pairs are made


def gpf_table(x: int) -> np.ndarray:
    """Largest prime factor of 0..x (gpf[1] = 1 by convention), from
    P^+(p m) = max(P^+(m), p) for every prime p."""
    _check_cap(x)
    gpf = np.arange(x + 1, dtype=np.int64 if x >= 1 << 31 else np.int32)
    gpf[0] = 1
    for p, m0, m1 in prime_runs(x, gpf.itemsize):
        np.maximum(gpf[m0:m1 + 1], p, out=gpf[p * m0:p * m1 + 1:p])
    return gpf


def omega_table(x: int, with_multiplicity: bool = False) -> np.ndarray:
    """omega(n) (distinct primes) or Omega(n) (with multiplicity) for 0..x,
    from Omega(p m) = Omega(m) + 1 and omega(p m) = omega(m) + 1 - [p | m]
    for every prime p."""
    _check_cap(x)
    om = np.ones(x + 1, dtype=np.uint8)
    om[:2] = 0
    for p, m0, m1 in prime_runs(x, om.itemsize):
        run = om[p * m0:p * m1 + 1:p]
        np.add(om[m0:m1 + 1], 1, out=run)
        if not with_multiplicity:
            run[-m0 % p::p] -= 1  # the n = p m with p | m
    return om


def e_set_mask(x: int) -> np.ndarray:
    """Boolean mask of the products d*d' with d < d' < 2d, up to x."""
    _check_cap(x)
    mask = np.zeros(x + 1, dtype=bool)
    for d in range(1, math.isqrt(x) + 1):
        hi = min(2 * d - 1, x // d)
        if hi > d:
            mask[d * (d + 1): d * hi + 1: d] = True
    return mask


def multiples_mask(generators, x: int) -> np.ndarray:
    """Membership mask of the set of multiples of the given generators on
    0..x.

    Generators up to T = max(sqrt(x), x // #generators) mark one strided
    slice each, in ascending order, skipping any already marked (its
    multiples are a subset).  The unmarked ones above T have fewer than
    x / T multiples each, so they go by cofactor: for each m, one
    fancy-index write of m a over every such a <= x / m."""
    _check_cap(x)
    if isinstance(generators, np.ndarray):  # np.unique is far slower than np.sort
        bad, gens = generators[generators <= 0], np.sort(generators[generators <= x])
    else:  # a Python int may not fit int64
        ints = [int(a) for a in generators]
        bad, gens = [a for a in ints if a <= 0], sorted(a for a in ints if a <= x)
    if len(bad):
        raise DomainError(f"generators must be positive, got {bad[0]}")
    out = np.zeros(x + 1, dtype=bool)
    if not len(gens):
        return out
    T = max(math.isqrt(x), x // len(gens))
    split = bisect.bisect_right(gens, T)
    for a in gens[:split]:
        if not out[a]:
            out[a::a] = True
    big = np.asarray(gens[split:], dtype=np.int64)
    big = big[~out[big]]
    for m in range(1, x // T + 1):
        k = int(np.searchsorted(big, x // m, side="right"))
        if k == 0:
            break
        out[big[:k] * m] = True
    return out
