"""range_scan: whole-range scans at x = 1e6 and x = 1e7, plus the per-n
Python scans at about 1e5.

At 1e6 the one-byte tables (1 MB) fit in a 2 MB L2 cache and at 1e7 they do
not, so a change that helps one size and hurts the other shows.  The seed picks the
parameters of the cheap scans (intervals, generator sets, the dtheta window)
from narrow windows, so every seed does the same work at the same cost.  Checks
use the benchmark's own sieve and factor tables (refs.py): floor-sum
identities for the sums of tau, omega and Omega, full histograms, exact
counts, and the trial-division oracles at 1e4.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np

import harness
import refs
from exact_queries import PERIOD, antichain

SIZES = (10**6, 10**7)
PER_N_X = 10**5
DTHETA_SPAN = 60_000
ANTICHAIN_SIZES = (6, 8, 10, 12)
H_FAMILIES = (10, 100, 1000, 10_000)  # (y, 2y] at 1e6 with y in [f, f + f/10]
H_REPEATS = 16  # (y, 2y] at 1e7 with y in [1000, 1100)
PSI1_REPEATS = 7  # psi1_count at 1e7 with y in [1000, 1100)


def make_inputs(seed: int) -> list[tuple]:
    """One pass, in a fixed order.  Costs do not depend on the seed, so the
    same operations sit at the median and the tail for every seed, and both
    fall inside a group of scans of like cost, spread through the pass, so
    each is a middle value of samples taken at different moments rather
    than one scan's time: the sixteen h_count scans at 1e7 (about 35 ms
    each) hold the median (the 32nd of 63), and the tail (the 11th slowest)
    falls among the seven psi1_count scans at 1e7 and t_sum (0.6 to 0.8 s
    each), below the seven scans of about 1 s and more."""
    rng = random.Random(seed)
    ops: list[tuple] = []
    for x in SIZES:
        scans = [("build_sieve", x), ("tau_table", x), ("erdos_kac", x, False),
                 ("erdos_kac", x, True), ("omega_median_count", x), ("pplus_adjacency", x),
                 ("nu_distribution", x), ("me_fractions", x)]
        if x == SIZES[0]:
            ops += scans + [("psi1_count", x, rng.randint(1000, 1099))]
            for f in H_FAMILIES:
                y = rng.randint(f, f + f // 10)
                ops.append(("h_count", x, y, 2 * y))
        else:
            psi1 = [("psi1_count", x, rng.randint(1000, 1099)) for _ in range(PSI1_REPEATS)]
            h = []
            for _ in range(H_REPEATS):
                y = rng.randint(1000, 1099)
                h.append(("h_count", x, y, 2 * y))
            for i, scan in enumerate(scans):  # one psi1 and two h_count after each scan
                ops += [scan] + psi1[i:i + 1] + h[2 * i:2 * i + 2]
        for size in ANTICHAIN_SIZES:
            ops.append(("multiples_count", x, antichain(rng, size)))
        for size in ANTICHAIN_SIZES:
            y = rng.randint(150, 152)
            ops.append(("log_density", x, tuple(range(y + 1, y + size + 1))))
    lo = rng.randint(2, 1000)
    ops += [("t_sum", PER_N_X), ("s_avg", PER_N_X),
            ("dtheta_exponent_stats", lo, lo + DTHETA_SPAN)]
    return ops


class RangeScan(harness.Workload):
    name = "range_scan"

    def __init__(self):
        self.golden = refs.golden_ratio()
        self._ref = None

    def setup(self):
        import divilab as dl
        import divilab.experiments as ex
        from divilab import tables

        self.dl, self.ex, self.tables = dl, ex, tables

    def new_pass(self):
        # omega_median_count memoises Mertens' constant per process; each pass
        # starts from a fresh process's state.
        if hasattr(self.ex, "_mertens_cache"):
            self.ex._mertens_cache = None

    def inputs(self, seed):
        return make_inputs(seed)

    def run(self, op):
        dl, ex = self.dl, self.ex
        kind = op[0]
        if kind == "build_sieve":
            return dl.build_sieve(op[1])
        if kind == "tau_table":
            return self.tables.tau_table(op[1])
        if kind == "erdos_kac":
            return ex.erdos_kac(op[1], with_multiplicity=op[2])
        if kind == "omega_median_count":
            return ex.omega_median_count(op[1])
        if kind == "pplus_adjacency":
            return ex.pplus_adjacency(op[1])
        if kind == "nu_distribution":
            return ex.nu_distribution(op[1])
        if kind == "me_fractions":
            return ex.me_fractions([10**4, op[1]])
        if kind == "psi1_count":
            return dl.psi1_count(op[1], op[2])
        if kind == "h_count":
            return ex.h_count(op[1], op[2], op[3])
        if kind == "multiples_count":
            return dl.multiples_count(dl.GeneratorSet(op[2]), op[1])
        if kind == "log_density":
            return dl.log_density(dl.GeneratorSet(op[2]), op[1])
        if kind == "t_sum":
            return ex.t_sum(op[1], threads=1)
        if kind == "s_avg":
            return ex.s_avg(op[1], threads=1)
        if kind == "dtheta_exponent_stats":
            return ex.dtheta_exponent_stats(op[1], op[2], self.golden)
        raise ValueError(f"unknown scan {kind!r}")

    def summarize(self, op, out):
        return summarize(op, out)

    def check(self, op, out) -> bool:
        if self._ref is None:
            self._ref = References(self.golden)
        return self._ref.check(op, out)


def summarize(op, out):
    kind = op[0]
    if kind == "build_sieve":
        spf = np.asarray(out.spf)
        return (out.limit, int(np.count_nonzero(spf[2:] == np.arange(2, len(spf)))),
                hashlib.sha1(spf.astype("<u4", copy=False).tobytes()).hexdigest())
    if kind == "tau_table":
        return (len(out) - 1, int(out[1:].sum(dtype=np.int64)), tuple(int(v) for v in out[-5:]))
    if kind == "erdos_kac":
        cdf = np.asarray(out.cdf)
        counts = np.rint(np.diff(np.concatenate(([0.0], cdf))) * out.samples).astype(np.int64)
        return (out.samples, tuple(int(c) for c in counts), out.ks_vs[1])
    if kind == "omega_median_count":
        return out.count
    if kind == "pplus_adjacency":
        return (out.frac_up, out.frac_triple_down, out.first_triple_down, sum(out.alpha_counts))
    if kind == "nu_distribution":
        return (out.samples, tuple(out.cdf))
    if kind == "log_density":
        return (out.point, out.lower, out.upper)
    return tuple(out) if isinstance(out, (list, tuple)) else out


class References:
    """Reference values, computed once per run and only for what is asked."""

    def __init__(self, golden):
        self.golden = golden
        self._tables: dict[int, dict] = {}
        self._lists = None

    def factors(self, x: int) -> dict:
        """The SPF table and omega, Omega and P+ on 0..x+3 (pplus_adjacency
        reads P+(x+2))."""
        if x not in self._tables:
            spf = refs.spf_table(x + 3, refs.primes_upto(x + 3))
            self._tables[x] = dict(refs.factor_tables(x + 3, spf), spf=spf)
        return self._tables[x]

    def lists(self):
        if self._lists is None:
            self._lists = refs.divisor_lists(PER_N_X)
        return self._lists

    def period_count(self, gens, x: int) -> int:
        """|M(gens) ∩ [1, x]| from one period of 720720."""
        cum = np.cumsum(refs.multiples_mask(gens, PERIOD))
        return int((x // PERIOD) * cum[PERIOD] + cum[x % PERIOD])

    def check(self, op, out) -> bool:
        kind, x = op[0], op[1]
        if kind == "build_sieve":
            limit, n_primes, digest = out
            spf = self.factors(x)["spf"][:x + 1]
            return (limit == x and n_primes == len(refs.primes_upto(x))
                    and digest == hashlib.sha1(spf.astype("<u4").tobytes()).hexdigest())
        if kind == "tau_table":
            import oracles

            n, total, last = out
            want_last = tuple(len(oracles.trial_divisors(m)) for m in range(x - 4, x + 1))
            return n == x and total == refs.tau_sum(x) and last == want_last
        if kind == "erdos_kac":
            samples, counts, ks = out
            key = "Omega" if op[2] else "omega"
            want = np.bincount(self.factors(x)[key][3:x + 1])
            primes = refs.primes_upto(x)
            moment = refs.prime_floor_sum(x, primes, powers=op[2]) - 1  # n = 2 adds 1
            return (samples == x - 2 and counts == tuple(int(c) for c in want)
                    and sum(k * c for k, c in enumerate(counts)) == moment
                    and refs.close(ks, ks_distance(want, x)))
        if kind == "omega_median_count":
            big = self.factors(x)["Omega"][1:x + 1]
            return out == int(np.count_nonzero(big <= math.log(math.log(x))))
        if kind == "pplus_adjacency":
            g = self.factors(x)["gpf"]
            a, b, c = g[1:x + 1], g[2:x + 2], g[3:x + 3]
            triple = (a > b) & (b > c)
            first = int(np.flatnonzero(triple)[0]) + 1 if triple.any() else None
            frac_up, frac_triple, first_triple, binned = out
            return (frac_up == int(np.count_nonzero(b > a)) / x
                    and frac_triple == int(np.count_nonzero(triple)) / x
                    and first_triple == first and binned == x - 1)
        if kind == "nu_distribution":
            samples, cdf = out
            return (samples == x and all(u <= v for u, v in zip(cdf, cdf[1:]))
                    and refs.close(cdf[-1], 1.0))
        if kind == "me_fractions":
            import oracles

            small, big = out
            want = sum(1 for n in range(1, 10**4 + 1) if oracles.naive_in_ME(n)) / 10**4
            return small == want and 0.0 < big < 1.0
        if kind == "psi1_count":
            t = self.factors(x)
            sl = slice(1, x + 1)
            ok = (t["omega"][sl] == t["Omega"][sl]) & (t["gpf"][sl] <= op[2])
            return out == int(np.count_nonzero(ok))
        if kind == "h_count":
            return out == int(np.count_nonzero(refs.multiples_mask(range(op[2] + 1, op[3] + 1), x)))
        if kind == "multiples_count":
            return out == self.period_count(op[2], x)
        if kind == "log_density":
            members = np.flatnonzero(refs.multiples_mask(op[2], x))
            want = float(np.sum(1.0 / members)) / math.log(x)
            return refs.close(out[0], want, rel=1e-12) and out[1] <= out[0] <= out[2]
        if kind == "t_sum":
            want = sum(refs.tau_plus_of(d) for d in self.lists()[1:x + 1])
            return out == (want, want)
        if kind == "s_avg":
            want = sum(refs.delta_of(d) for d in self.lists()[1:x + 1]) / x
            return refs.close(out, want, rel=1e-12)
        if kind == "dtheta_exponent_stats":
            return self.check_dtheta(op[1], op[2], out)
        raise ValueError(f"unknown scan {kind!r}")

    def check_dtheta(self, lo: int, hi: int, out) -> bool:
        th = float(self.golden)
        vals = []
        for divs in self.lists()[lo:hi + 1]:
            if len(divs) < 2:
                continue
            best = min(min(t - math.floor(t), 1.0 - (t - math.floor(t)))
                       for t in (d * th for d in divs))
            best = min(best, 0.5)
            if best > 0.0:
                vals.append(math.log(1.0 / best) / math.log(len(divs)))
        arr = np.sort(np.asarray(vals))
        median, mean = out
        return refs.close(median, float(arr[len(arr) // 2]), rel=1e-12) and \
            refs.close(mean, float(arr.mean()), rel=1e-12)


def ks_distance(counts: np.ndarray, x: int) -> float:
    """Two-sided KS distance between the law of (k - ln ln x)/sqrt(ln ln x),
    k with the given counts, and the standard normal."""
    llx = math.log(math.log(x))
    total = int(counts.sum())
    cum, ks = 0, 0.0
    for k, c in enumerate(counts.tolist()):
        if c == 0:
            continue
        phi = 0.5 * math.erfc(-((k - llx) / math.sqrt(llx)) / math.sqrt(2.0))
        ks = max(ks, abs(cum / total - phi))
        cum += c
        ks = max(ks, abs(cum / total - phi))
    return ks
