"""cli_session: a fixed script of CLI lines, each a fresh
`python -m divilab.cli` process, one after another (a closed loop with one
client).

DIVILAB_CACHE points at a 1e7 sieve cache written by `sieve --limit` in the
set-up.  The script mixes single-n and range `fn` queries, `lambda`,
`lambdad`, `multiples`, the `constants` and `erdos-kac` presets and one
`manifest` line.  14 of the 26 `fn` lines ask for n above the cache's limit
(8 in [1.9e7, 2e7], 6 in [3.9e7, 4e7]), so those calls load the cache and
then build a larger sieve.  Outputs are parsed and checked with the same references as the
in-process workloads.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np

import exact_queries as eq
import harness
import per_integer
import refs

CACHE_LIMIT = 10**7
# 26 lines need no sieve or only the cache (about 1 s each, the median falls
# among them), 8 need a 2e7 sieve (about 1.4 s, the p75 tail falls in their
# middle) and 6 a 4e7 sieve (about 2 s).
MISS_RANGE = (19 * 10**6, 2 * 10**7)
FAR_MISS_RANGE = (39 * 10**6, 4 * 10**7)
WORK = harness.OUT / "cli_session"
CACHE = WORK / "spf-1e7.dvl"
MANIFEST = WORK / "session.manifest"
WHATS = ("delta", "delta-mu", "tauplus", "g", "er:1", "ftheta:0.5")
KIND_OF = {"delta": "delta", "delta-mu": "delta_mu", "tauplus": "tau_plus",
           "g": "g_sum", "er:1": "e_r", "ftheta:0.5": "f_theta"}
MC = (5, 21, 10**6)  # k, d, samples
MERTENS_A = 0.2614972128476428  # Meissel-Mertens constant


def make_script(seed: int) -> tuple[list[list[str]], list[str]]:
    """The session's CLI lines and the manifest file's lines."""
    rng = random.Random(seed)
    primes = refs.primes_upto(10_000)
    lines: list[list[str]] = []
    for i in range(10):
        lines.append(["fn", "--n", str(rng.randint(2, CACHE_LIMIT)), "--what", WHATS[i % 6]])
    for i in range(8):
        lines.append(["fn", "--n", str(rng.randint(*MISS_RANGE)), "--what", WHATS[i % 6]])
    for i in range(6):
        lines.append(["fn", "--n", str(rng.randint(*FAR_MISS_RANGE)), "--what", WHATS[i % 6]])
    for what in ("delta", "tauplus"):
        a = rng.randint(2, CACHE_LIMIT - 1000)
        lines.append(["fn", "--range", f"{a}:{a + 999}", "--what", what])
    lines += [["lambda", "--k", "2", "--median"], ["lambda", "--k", "3", "--median"]]
    for k in (1, 2):
        lines.append(["lambda", "--k", str(k), "--pmax", str(rng.randint(1000, 5000)), "--format", "json"])
    cand = primes[primes > 3000]
    lines.append(["lambda", "--mode", "--p", str(int(cand[rng.randrange(len(cand))]))])
    for d in (12, 14):
        lines.append(["lambdad", "--k", str(rng.randint(2, d)), "--d", str(d)])
    lines.append(["lambdad", "--k", str(MC[0]), "--d", str(MC[1]), "--method", "mc",
                  "--samples", str(MC[2]), "--seed", str(rng.randrange(1 << 32))])
    lines.append(["multiples", "--gens", ",".join(map(str, eq.antichain(rng, 12))), "--density", "exact"])
    y = rng.randint(1000, 1099)
    lines.append(["multiples", "--interval", f"{y}:{y + 12}", "--density", "exact"])
    lines.append(["multiples", "--gens", ",".join(map(str, eq.antichain(rng, 30))),
                  "--density", "bonferroni:1"])
    lines += [["exp", "--preset", "constants"], ["exp", "--preset", "erdos-kac", "--x", "10000",
                                                 "--format", "json"]]
    manifest = [
        f"fn --n {rng.randint(2, CACHE_LIMIT)} --what delta --format json",
        f"lambdad --k {rng.randint(2, 12)} --d 12",
        "multiples --gens " + ",".join(map(str, eq.antichain(rng, 10))) + " --density exact",
    ]
    lines.append(["manifest", str(MANIFEST)])
    rng.shuffle(lines)
    return lines, manifest


class CliSession(harness.Workload):
    name = "cli_session"
    in_process = False

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.max_child_rss_kb = 0
        self.manifest: list[str] = []
        self._ref = None

    # -- set-up: write the sieve cache through the CLI ---------------------

    def _cache_cmd(self) -> list[str]:
        return ["sieve", "--limit", str(CACHE_LIMIT), "--sieve-cache", str(CACHE)]

    def setup(self):
        WORK.mkdir(parents=True, exist_ok=True)
        CACHE.unlink(missing_ok=True)
        if self.traced:
            os.environ["DIVILAB_CACHE"] = str(CACHE)
            code, _ = self._dispatch(self._cache_cmd())
        else:
            code, _, _ = self._child(self._cache_cmd())
        if code != 0 or not CACHE.is_file():
            raise RuntimeError("writing the sieve cache failed")

    def setup_times(self, first: float) -> list[float]:
        samples = [first]
        for _ in range(harness.SETUP_SAMPLES - 1):
            CACHE.unlink(missing_ok=True)
            t0 = time.perf_counter()
            self.setup()
            samples.append(time.perf_counter() - t0)
        return samples

    def cleanup(self):
        for path in (CACHE, MANIFEST, WORK / "stderr.txt"):
            path.unlink(missing_ok=True)

    def inputs(self, seed):
        lines, self.manifest = make_script(seed)
        WORK.mkdir(parents=True, exist_ok=True)
        MANIFEST.write_text("\n".join(self.manifest) + "\n")
        return [tuple(line) for line in lines]

    # -- one CLI line ------------------------------------------------------

    def _child(self, argv) -> tuple[int, str, int]:
        """Run one CLI line as a child; return its exit code, its standard
        output and its peak resident memory in KB."""
        env = harness.child_env(DIVILAB_CACHE=str(CACHE))
        with open(WORK / "stderr.txt", "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "divilab.cli", *argv], cwd=harness.ROOT,
                                    env=env, stdout=subprocess.PIPE, stderr=err)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out.decode(), usage.ru_maxrss

    def _dispatch(self, argv) -> tuple[int, str]:
        from divilab import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.dispatch(list(argv))
        return code, buf.getvalue()

    def run(self, op):
        if self.traced:
            return self._dispatch(op)
        code, out, rss = self._child(op)
        self.max_child_rss_kb = max(self.max_child_rss_kb, rss)
        return code, out

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_kb / 1024.0

    def summarize(self, op, out):
        """Exit code and output, less the records' wall_time field."""
        code, text = out
        lines = []
        for line in text.splitlines():
            if line.startswith("{"):
                body = json.loads(line)
                body.pop("wall_time", None)
                line = json.dumps(body, sort_keys=True)
            lines.append(line)
        return code, "\n".join(lines)

    def check(self, op, out) -> bool:
        if self._ref is None:
            self._ref = References(self.manifest)
        return self._ref.check(op, out)


def _record(text: str) -> dict:
    return json.loads(text)


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()[1:]]


def _flags(argv) -> dict:
    """--flag value pairs of one CLI line; a bare --flag maps to True."""
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            out[tok] = nxt if nxt is not None and not nxt.startswith("--") else True
    return out


def _near(a: float, b: float) -> bool:
    """Agreement within the CLI's 12 significant digits."""
    return refs.close(a, b, rel=1e-11, abs_=1e-300)


class References:
    def __init__(self, manifest: list[str]):
        self.manifest = manifest
        self.golden = refs.golden_ratio()
        self.primes = refs.primes_upto(100_000)
        self.eq = eq.References()

    def fn_value(self, n: int, what: str, value: float) -> bool:
        # the oracle checks' 1e-9 relative tolerance covers the 12-digit output
        return per_integer.check_query((KIND_OF[what], n), value, self.golden)

    def density(self, values: dict, gens: list[int]) -> bool:
        if eq.PERIOD % math.lcm(*gens) == 0:
            want = float(refs.period_density(gens, eq.PERIOD))
            if values["method"] == "bonferroni":
                return values["lower"] - 1e-11 <= want <= values["upper"] + 1e-11
            return values["method"] == "exact_ie" and _near(values["point"], want)
        est = (values["point"], values["lower"] * (1 - 2e-12), values["upper"] * (1 + 2e-12))
        return values["method"] in ("exact_ie", "exact_ie_truncated") and self.eq.meets_count(est, gens)

    def check(self, op, out) -> bool:
        import oracles

        code, text = out
        if code != 0:
            return False
        cmd, f = op[0], _flags(op)
        if cmd == "fn" and "--n" in f:
            n = int(f["--n"])
            if "--format" in f:
                return self.fn_value(n, f["--what"], _record(text)["values"]["value"])
            rows = _csv_rows(text)
            return len(rows) == 1 and int(rows[0][0]) == n and self.fn_value(n, f["--what"], float(rows[0][1]))
        if cmd == "fn":
            a, b = (int(v) for v in f["--range"].split(":"))
            rows = _csv_rows(text)
            return [int(r[0]) for r in rows] == list(range(a, b + 1)) and \
                all(self.fn_value(int(r[0]), f["--what"], float(r[1])) for r in rows)
        if cmd == "manifest":
            outs = text.strip().splitlines()
            return len(outs) == len(self.manifest) and all(
                self.check(tuple(line.split()), (0, body)) for line, body in zip(self.manifest, outs))
        v = _record(text)["values"]
        if cmd == "lambda" and "--median" in f:
            return v["p_star"] == {2: 37, 3: 42719}[int(f["--k"])]
        if cmd == "lambda" and "--mode" in f:
            p = int(f["--p"])
            e, prod = refs.e_coeffs(p, self.primes)
            j = int(np.argmax(e))
            return v["k_star"] == j + 1 and _near(v["lambda_star"], e[j] * prod / p)
        if cmd == "lambda":
            return abs(v["partial_sum"] + v["tail"] - 1.0) <= 1e-11
        if cmd == "lambdad":
            k, d = int(f["--k"]), int(f["--d"])
            if f.get("--method") == "mc":
                want, tail = oracles.lambda_kd_formula(k, d)
                se = math.sqrt(want * (1 - want) / int(f["--samples"]))
                return v["method"] == "monte_carlo" and abs(v["point"] - want) <= 4 * se + tail
            return v["method"] == "exact_period" and _near(v["point"], float(oracles.naive_lambda_kd(k, d)))
        if cmd == "multiples":
            if "--gens" in f:
                gens = [int(g) for g in f["--gens"].split(",")]
            else:
                y, z = (int(t) for t in f["--interval"].split(":"))
                gens = list(range(y + 1, z + 1))
            return self.density(v, gens)
        if cmd == "exp" and f["--preset"] == "constants":
            want = refs.constants()
            return (all(_near(v[k], w) for k, w in want.items())
                    and abs(v["A"] - MERTENS_A) <= 1e-6 and _near(v["b"], 1.0 / 3.0 + v["A"]))
        if cmd == "exp" and f["--preset"] == "erdos-kac":
            return abs(v["ks_vs_gaussian"] - oracles.naive_erdos_kac_ks(int(f["--x"]))) <= 1e-9
        raise ValueError(f"unknown CLI line {op!r}")
