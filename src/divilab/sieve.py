"""Smallest-prime-factor sieve, the descending-prime chunk walk, primality
testing, and the sieve cache file.

The SPF table gives O(log n) factorization of every n <= limit.
`arith.factor` and the `sieve` command read it; the divisor scans, `fn` and
the whole-range prime-factor tables (`tables.omega_table`,
`tables.gpf_table`) do not.  It is immutable after construction and safe
for concurrent reads.

`prime_runs(x, itemsize)` is the segmented sieve of Bays and Hudson (BIT
17, 1977) recast as runs of multiples p m whose cofactors m lie in earlier
chunks: `SpfSieve.build` and the prime-factor tables fill themselves from
it with one strided write per prime and chunk.
"""

from __future__ import annotations

import ctypes
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DEFAULT_LIMIT_CAP, DomainError, ResourceError

# Bytes of table per chunk of `prime_runs`: 2^18 uint32 or 2^20 uint8
# entries.  Each chunk costs one strided write per prime up to its square
# root.  At 1e7, budgets of 256 KB / 512 KB / 1 MB / 2 MB / 4 MB took
# 38.2 / 28.4 / 23.0 / 24.2 / 26.8 ms (omega), 60.5 / 43.9 / 34.4 / 35.9 /
# 43.3 ms (P^+) and 36.3 / 30.5 / 26.4 / 26.1 / 37.8 ms (SPF build), median
# of 5 calls (2-vCPU VM, Python 3.11, numpy 2.4).
_CHUNK_BYTES = 1 << 20

# glibc keeps up to 64 MB of freed heap resident (twice its dynamic mmap
# threshold), so without a trim a table's peak stacks on whatever earlier
# calls freed: a second identical range scan peaked 27 MB higher than the
# first.  None where the C library has no malloc_trim.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None

_CACHE_MAGIC = b"DVL1"
_CACHE_VERSION = 1

# Deterministic Miller-Rabin witness set for all n < 2**64; is_prime_u64
# trial-divides by the same primes first.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < 2**64."""
    if n < 0 or n >= 1 << 64:
        raise DomainError(f"is_prime_u64 needs 0 <= n < 2**64, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (odds-only boolean Eratosthenes sieve)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)  # odd[i] stands for 2i + 1, odd[0] for 2
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if odd[i]:  # p = 2i + 1 strikes p^2, p^2 + 2p, ... from index 2i(i + 1)
            odd[2 * i * (i + 1)::2 * i + 1] = False
    primes = 2 * np.flatnonzero(odd).astype(np.int64) + 1
    primes[0] = 2
    return primes


def _trim_heap() -> None:
    """Return the C heap's free pages to the OS (a no-op without glibc)."""
    if _malloc_trim is not None:
        _malloc_trim(0)


def prime_runs(x: int, itemsize: int):
    """The runs of multiples that fill a table on 2..x, chunk by chunk.

    Walks n = 2..x in ascending chunks [lo, hi) of at most
    _CHUNK_BYTES // itemsize integers, with hi <= 2 lo, and yields (p, m0,
    m1) for each prime p <= sqrt(hi - 1) with a multiple in the chunk, p
    descending within a chunk, where p m0 .. p m1 are those multiples.
    Since p >= 2, m1 <= (hi - 1)/2 < lo: a table filled as
    t[p m] = f(t[m], p) reads only entries of earlier chunks.  The smallest
    prime factor of every composite n is among the p of its chunk, and its
    run comes last; no prime n is in a run, as p <= sqrt(hi - 1) < lo.
    """
    step = max(_CHUNK_BYTES // itemsize, 1)
    primes = primes_upto(math.isqrt(x))
    lo = 2
    while lo <= x:
        hi = min(2 * lo, lo + step, x + 1)
        ps = primes[:np.searchsorted(primes, math.isqrt(hi - 1), side="right")][::-1]
        m0, m1 = -(-lo // ps), (hi - 1) // ps
        keep = m0 <= m1
        yield from zip(ps[keep].tolist(), m0[keep].tolist(), m1[keep].tolist())
        lo = hi


class SpfSieve:
    """Smallest-prime-factor table for 2..limit.

    Invariants: spf[n] is prime and divides n; spf[n] == n iff n is prime.
    Entries 0 and 1 are stored as 0.  The array is read-only.
    """

    def __init__(self, limit: int, spf: np.ndarray):
        self.limit = int(limit)
        self.spf = spf
        self.spf.flags.writeable = False

    @classmethod
    def build(cls, limit: int) -> "SpfSieve":
        if limit < 2:
            raise DomainError(f"sieve limit must be >= 2, got {limit}")
        if limit > DEFAULT_LIMIT_CAP:
            raise ResourceError(f"sieve limit {limit} exceeds cap {DEFAULT_LIMIT_CAP}")
        _trim_heap()  # the build's peak is then its own, not earlier calls' garbage
        dtype = np.uint32 if limit < 1 << 32 else np.uint64
        spf = np.arange(limit + 1, dtype=dtype)  # primes keep their own
        spf[:2] = 0
        for p, m0, m1 in prime_runs(limit, spf.itemsize):  # the smallest p writes last
            spf[p * m0:p * m1 + 1:p] = p
        _trim_heap()  # and the caller's scan starts from the table alone
        return cls(limit, spf)

    def is_prime(self, n: int) -> bool:
        self._check_range(n)
        return n >= 2 and int(self.spf[n]) == n

    def factor_pairs(self, n: int) -> list[tuple[int, int]]:
        """Prime-power decomposition [(p, e), ...] with p ascending."""
        self._check_range(n)
        spf = self.spf
        out: list[tuple[int, int]] = []
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def _check_range(self, n: int) -> None:
        if not 1 <= n <= self.limit:
            raise DomainError(f"n={n} outside sieve range 1..{self.limit}")

    # --- cache file: magic "DVL1", version u32, limit u64, then entries ---
    # Entries cover indices 0..limit (spf[0] = spf[1] = 0), little-endian,
    # u32 when limit < 2**32 else u64.

    def save(self, path: str | Path) -> None:
        """Write the cache atomically: a temporary file in the same directory
        replaces `path` only once it is complete."""
        path = Path(path)
        kind = "<u4" if self.limit < 1 << 32 else "<u8"
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(struct.pack("<4sIQ", _CACHE_MAGIC, _CACHE_VERSION, self.limit))
                fh.write(self.spf.astype(kind, copy=False).tobytes())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "SpfSieve":
        path = Path(path)
        with open(path, "rb") as fh:
            header = fh.read(16)
            if len(header) != 16:
                raise DomainError(f"sieve cache {path} truncated header")
            magic, version, limit = struct.unpack("<4sIQ", header)
            if magic != _CACHE_MAGIC:
                raise DomainError(f"sieve cache {path} has bad magic {magic!r}")
            if version != _CACHE_VERSION:
                raise DomainError(f"sieve cache {path} has unsupported version {version}")
            kind = "<u4" if limit < 1 << 32 else "<u8"
            data = np.fromfile(fh, dtype=np.dtype(kind))
        if len(data) != limit + 1:
            raise DomainError(
                f"sieve cache {path} has {len(data)} entries, expected {limit + 1}"
            )
        return cls(int(limit), data.astype(data.dtype.newbyteorder("="), copy=False))


def build_sieve(limit: int) -> SpfSieve:
    """Build the SPF sieve for 2..limit; deterministic and bit-identical across runs."""
    return SpfSieve.build(limit)
