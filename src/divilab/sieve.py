"""Smallest-prime-factor sieve, segmented sieving, primality testing, and the
sieve cache file.

The SPF table gives O(log n) factorization of every n <= limit.
`arith.factor`, the whole-range prime-factor tables (`tables.omega_table`,
`tables.gpf_table`) and the `sieve` command read it; the divisor scans and
`fn` do not.  It is
immutable after construction and safe for concurrent reads.

`SpfSieve.build` walks [2, limit] with `segments(lo, hi)`, the segmented
sieve of Bays and Hudson (BIT 17, 1977): it hands each segment [a, b) of at
most _BUILD_SEGMENT integers the primes p <= sqrt(b - 1) that have a
multiple >= p in it, with the offset of the first one, so the build strides
through one cache-sized segment at a time.
"""

from __future__ import annotations

import ctypes
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DEFAULT_LIMIT_CAP, DomainError, ResourceError

# Integers per segment of `segments`.  Each segment costs one strided write
# per sieving prime: the SPF build at 1e7 took 0.20-0.25 s with 2^14, 0.09 s
# with 2^18 and 0.11 s with 2^20 (2-vCPU VM, Python 3.11, numpy 2.4).
_BUILD_SEGMENT = 1 << 18

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

# Deterministic Miller-Rabin witness set for all n < 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < 2**64."""
    if n < 0 or n >= 1 << 64:
        raise DomainError(f"is_prime_u64 needs 0 <= n < 2**64, got {n}")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def segments(lo: int, hi: int):
    """Walk [lo, hi] (lo >= 1) in segments [a, b) of at most _BUILD_SEGMENT
    integers, aligned to its multiples.

    Yields (a, b, ps, starts): ps holds, ascending, the primes p <= sqrt(b - 1)
    with a multiple m >= max(a, p) below b, and starts[i] = m - a for the
    first such multiple of ps[i].  So every n in [a, b) is hit by each of its
    prime factors p <= sqrt(b - 1), and what is left of n once they are
    divided out is 1 or a single prime.
    """
    primes = primes_upto(math.isqrt(hi))
    a = lo
    while a <= hi:
        b = min((a // _BUILD_SEGMENT + 1) * _BUILD_SEGMENT, hi + 1)
        ps = primes[: np.searchsorted(primes, math.isqrt(b - 1), side="right")]
        starts = np.maximum(ps, a + (-a) % ps) - a
        keep = starts < b - a
        yield a, b, ps[keep], starts[keep]
        a = b


class SpfSieve:
    """Smallest-prime-factor table for 2..limit.

    Invariants: spf[n] is prime and divides n; spf[n] == n iff n is prime.
    Entries 0 and 1 are stored as 0.  The array is read-only.
    """

    def __init__(self, limit: int, spf: np.ndarray):
        self.limit = int(limit)
        self.spf = spf
        self.spf.flags.writeable = False
        self._primes: np.ndarray | None = None

    @classmethod
    def build(cls, limit: int) -> "SpfSieve":
        if limit < 2:
            raise DomainError(f"sieve limit must be >= 2, got {limit}")
        if limit > DEFAULT_LIMIT_CAP:
            raise ResourceError(f"sieve limit {limit} exceeds cap {DEFAULT_LIMIT_CAP}")
        _trim_heap()  # the build's peak is then its own, not earlier calls' garbage
        dtype = np.uint32 if limit < 1 << 32 else np.uint64
        spf = np.zeros(limit + 1, dtype=dtype)
        for a, b, ps, starts in segments(2, limit):
            seg = spf[a:b]
            # largest prime first, so each entry ends up holding its smallest
            for p, s in zip(ps[::-1].tolist(), starts[::-1].tolist()):
                seg[s::p] = p
            rest = np.flatnonzero(seg == 0)
            seg[rest] = rest + a  # no prime <= sqrt hit these: they are prime
        del seg, rest
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

    def primes(self) -> np.ndarray:
        """All primes <= limit (cached)."""
        if self._primes is None:
            idx = np.arange(len(self.spf), dtype=self.spf.dtype)
            mask = self.spf == idx
            mask[:2] = False
            self._primes = np.flatnonzero(mask).astype(np.int64)
        return self._primes

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
