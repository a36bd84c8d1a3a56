"""per_integer: a seeded stream of single-n queries on a sieve built once.

Each query factors n on the 1e7 sieve, lists its divisors and computes one
per-integer statistic.  Most n are uniform on [2, 1e7]; a fixed share are
the ten largest highly composite numbers below 1e7 (tau 240 to 448), each
with every statistic, so the tail is set by the same slow queries whatever
the seed.  Every query of the first pass is checked against the brute-force
oracles in tests/oracles.py.
"""

from __future__ import annotations

import random

import harness
import refs

LIMIT = 10**7
N_PASS = 2000
KINDS = ("delta", "delta_mu", "delta_chi4", "tau_plus", "e_r", "g_sum",
         "f_theta", "basic_fns", "dtheta_min")
HIGHLY_COMPOSITE = (720720, 1081080, 1441440, 2162160, 2882880,
                    3603600, 4324320, 6486480, 7207200, 8648640)
CHI4 = (0, 1, 0, -1)  # the real character mod 4
THETA_CUT = 0.5  # f_theta weight: indicator of adjacent ratios above 1/2


def make_inputs(seed: int) -> list[tuple[str, int]]:
    rng = random.Random(seed)
    n_uniform = N_PASS - len(HIGHLY_COMPOSITE) * len(KINDS)
    ops = [(KINDS[i % len(KINDS)], rng.randint(2, LIMIT)) for i in range(n_uniform)]
    ops += [(kind, n) for n in HIGHLY_COMPOSITE for kind in KINDS]
    rng.shuffle(ops)
    return ops


class PerInteger(harness.Workload):
    name = "per_integer"

    def __init__(self):
        self.golden = refs.golden_ratio()

    def setup(self):
        import divilab as dl
        from divilab.experiments import dtheta_min

        self.sieve = dl.build_sieve(LIMIT)
        self.factor, self.divisors = dl.factor, dl.divisors
        mu = dl.OscWeight.moebius()
        chi4 = dl.OscWeight.dirichlet_character(4, CHI4)
        theta = dl.RatioWeight.indicator(THETA_CUT)
        golden = self.golden
        self.kernels = {
            "delta": lambda f, s: dl.delta(s),
            "delta_mu": lambda f, s: dl.delta_osc(s, mu),
            "delta_chi4": lambda f, s: dl.delta_osc(s, chi4),
            "tau_plus": lambda f, s: dl.tau_plus(s),
            "e_r": lambda f, s: dl.e_r(s, 1),
            "g_sum": lambda f, s: dl.g_sum(s),
            "f_theta": lambda f, s: dl.f_theta(s, theta),
            "basic_fns": lambda f, s: dl.basic_fns(f),
            "dtheta_min": lambda f, s: dtheta_min(f, golden),
        }

    def inputs(self, seed):
        return make_inputs(seed)

    def run(self, op):
        kind, n = op
        f = self.factor(n, self.sieve)
        return self.kernels[kind](f, self.divisors(f))

    def summarize(self, op, out):
        if op[0] == "basic_fns":
            return (out.tau, out.sigma, out.omega, out.big_omega, out.mu, out.phi,
                    out.p_plus, out.p_minus)
        return out

    def check(self, op, out) -> bool:
        return check_query(op, out, self.golden)


def check_query(op, out, golden) -> bool:
    import oracles

    kind, n = op
    if kind == "delta":
        return out == oracles.naive_delta(n)
    if kind == "delta_mu":
        return refs.close(out, oracles.naive_delta_osc(n, oracles.naive_mu))
    if kind == "delta_chi4":
        return refs.close(out, oracles.naive_delta_osc(n, lambda d: CHI4[d % 4]))
    if kind == "tau_plus":
        return out == oracles.naive_tau_plus(n)
    if kind == "e_r":
        return refs.close(out, oracles.naive_e_r(n, 1))
    if kind == "g_sum":
        return refs.close(out, oracles.naive_g(n))
    if kind == "f_theta":
        return refs.close(out, oracles.naive_f_theta(n, lambda r: 1.0 if r > THETA_CUT else 0.0))
    divs = oracles.trial_divisors(n)
    if kind == "basic_fns":
        fac = oracles.trial_factor(n)
        want = (len(divs), sum(divs), len(fac), sum(e for _, e in fac),
                oracles.naive_mu(n), oracles.naive_phi(n), fac[-1][0], fac[0][0])
        return tuple(out) == want
    if kind == "dtheta_min":
        best = min(divs, key=lambda d: refs.dist_to_int(d * golden))  # first minimum wins
        return tuple(out) == (float(refs.dist_to_int(best * golden)), best)
    raise ValueError(f"unknown query kind {kind!r}")
