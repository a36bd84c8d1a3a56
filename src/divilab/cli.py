"""Command-line front end: one subcommand per module, plus a manifest runner.

Exit codes: 0 success, 2 domain error, 3 resource cap, 64 usage.
Records are emitted as JSON with 12-significant-digit floats (or CSV tables
with '.' decimals); reruns with the same config and seed are byte-identical
except for the wall_time field.

Every line is a fresh process, so the module level imports only what loads
without numpy; each handler imports the array modules it needs (`sieve`,
`locallaws`, `experiments`).  `fn --n` and the exact and Bonferroni
densities of `multiples` never load numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shlex
import sys
import time
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Context
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__
from .arith import INFINITE, _check_window, divisors, factor_int
from .divgeom import OscWeight, RatioWeight, delta, delta_osc, e_r, f_theta, g_sum, tau_plus
from .errors import DomainError, ResourceError, UsageError
from .multiples import (
    GeneratorSet,
    _bracket_estimate,
    block_builder,
    block_elements,
    density_bracket,
    log_density,
    sequential_density,
    sieve_density,
)


# A bracket's printed ends round outward, so they hold what its float ends hold
_OUTWARD = {"lower": Context(12, ROUND_FLOOR), "upper": Context(12, ROUND_CEILING)}


def _fmt(v, key=None):
    """Round floats to 12 significant digits, to nearest but outward under a
    `lower` or `upper` key; map sentinels and fractions."""
    if v is INFINITE:
        return "inf"
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        ctx = _OUTWARD.get(key)
        return float(f"{v:.12g}") if ctx is None else float(ctx.create_decimal_from_float(v))
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, dict):
        return {k: _fmt(x, k) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_fmt(x, key) for x in v]
    return v


@dataclass(frozen=True)
class RunConfig:
    """Effective run settings: flags win over config-file defaults.

    Monte Carlo paths must have a seed; that is enforced where randomness is
    about to be used, so deterministic presets never demand one.
    """

    cache_path: str | None = None
    threads: int = 1
    seed: int | None = None
    output: str | None = None  # "json" or "csv"; None picks per command


def _numbers(text: str, cast=int, sep: str = ",", count: int | None = None) -> list:
    """Parse a sep-separated flag or config value; a malformed fragment or the
    wrong number of fragments is a usage error."""
    parts = text.split(sep)
    if count is not None and len(parts) != count:
        raise UsageError(f"expected {count} value(s) separated by {sep!r}, got {text!r}")
    try:
        return [cast(v) for v in parts]
    except ValueError:
        raise UsageError(f"malformed number in {text!r}") from None


def _number(text: str, cast=int):
    return _numbers(text, cast, count=1)[0]


def _make_config(args, file_cfg: dict) -> RunConfig:
    def pick(flag, key, cast, default=None):
        if flag is not None:
            return flag
        if key in file_cfg:
            return cast(file_cfg[key])
        return default

    threads = pick(getattr(args, "threads", None), "threads", _number, 1)
    if threads < 1:
        raise UsageError(f"threads must be >= 1, got {threads}")
    return RunConfig(
        cache_path=pick(getattr(args, "sieve_cache", None), "cache_path", str,
                        os.environ.get("DIVILAB_CACHE")),
        threads=threads,
        seed=pick(getattr(args, "seed", None), "seed", _number),
        output=pick(getattr(args, "format", None), "output", str),
    )


class ResultRecord:
    def __init__(self, command: str, params: dict, values: dict):
        self.command = command
        self.params = params
        self.values = values
        self.wall_time = 0.0

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "params": _fmt(self.params),
            "values": _fmt(self.values),
            "artifact_version": __version__,
            "wall_time": round(self.wall_time, 6),
        }
        return json.dumps(body, sort_keys=True)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 64
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="divilab", description="divisor-structure laboratory")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this path instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--config", help="flat key=value config file with defaults")
    sub = p.add_subparsers(dest="cmd", parser_class=_Parser)

    s = sub.add_parser("sieve", help="build the smallest-prime-factor sieve",
                       parents=[common])
    s.add_argument("--limit", type=int, required=True)
    s.add_argument("--sieve-cache", help="sieve cache file (or env DIVILAB_CACHE)")

    s = sub.add_parser("fn", help="per-integer divisor statistics", parents=[common])
    s.add_argument("--n", type=int)
    s.add_argument("--range", dest="nrange", help="A:B inclusive")
    s.add_argument("--what", required=True,
                   help="delta | delta-mu | tauplus | er:R | g | ftheta:T")

    s = sub.add_parser("lambda", help="local law of the k-th prime factor",
                       parents=[common])
    s.add_argument("--k", type=int)
    s.add_argument("--pmax", type=int, default=100)
    s.add_argument("--median", action="store_true")
    s.add_argument("--mode", action="store_true")
    s.add_argument("--p", type=int, help="prime for --mode")

    s = sub.add_parser("lambdad", help="local law of the k-th divisor",
                       parents=[common])
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--method", choices=("exact", "mc"), default=None)
    s.add_argument("--samples", type=int, default=200_000)
    s.add_argument("--seed", type=int)

    s = sub.add_parser("multiples", help="sets of multiples and densities",
                       parents=[common])
    s.add_argument("--gens", help="comma list of generators")
    s.add_argument("--interval", help="y:z for the interval (y, z]")
    s.add_argument("--family", help="a_lambda:LAM | theorem3:S,T,G,A | besicovitch")
    s.add_argument("--J", type=int, default=5)
    s.add_argument("--density", default="exact",
                   help="exact | bonferroni:D | sieve:X | log:X | seq:T1,T2,...")

    s = sub.add_parser("exp", help="experiment presets", parents=[common])
    s.add_argument("--preset", required=True,
                   choices=("median-primes", "nu", "pplus", "erdos-kac", "constants",
                            "tsum", "eps", "totients", "dtheta"))
    s.add_argument("--x", type=int, default=100_000)
    s.add_argument("--seed", type=int)
    s.add_argument("--threads", type=int, default=None)
    s.add_argument("--k", help="k values, comma separated (median-primes)")
    s.add_argument("--y", type=int)
    s.add_argument("--z", type=int)
    s.add_argument("--theta", default="golden", help="golden | sqrt2 | float | p/q")
    s.add_argument("--n", type=int, help="single n (dtheta)")

    s = sub.add_parser("manifest", help="run a manifest of preset lines",
                       parents=[common])
    s.add_argument("path")
    return p


def _load_config(path: str | None) -> dict:
    cfg = {}
    if path:
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


def _emit(pieces: Iterator[str], out: str | None) -> None:
    """Write the output pieces as they are made; the file opens with the
    first piece, so a command that fails before any output leaves none."""
    first = next(pieces)
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as sink:
        sink.write(first)
        sink.writelines(pieces)


def _csv(rows: Iterable[tuple], header: tuple[str, ...]) -> Iterator[str]:
    """CSV text, one line per row as the row is made."""
    yield ",".join(header) + "\n"
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(f"{v:.12g}")
            else:
                cells.append(str(v))
        yield ",".join(cells) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers: return (record, optional csv (header, rows)); rows may
# be an iterator that fills the record's counts as it is read

def _run_sieve(args, cfg):
    from .sieve import SpfSieve, build_sieve, primes_upto

    cache = cfg.cache_path
    sv = SpfSieve.load(cache) if cache and Path(cache).exists() else None
    if sv is None or sv.limit < args.limit:
        sv = build_sieve(args.limit)
        if cache:
            sv.save(cache)  # atomic: replaces a missing or too-small cache
    # so with a cache path set, the file now covers the limit
    rec = ResultRecord("sieve", {"limit": args.limit},
                       {"limit": sv.limit, "primes": len(primes_upto(sv.limit)),
                        "cached": bool(cache), "tag": "exact"})
    return rec, None


def _parse_what(what: str):
    """The per-n statistic that `fn --what` names, as a function of a
    DivisorSpectrum.  A bad parameter (R < 1, T outside (0, 1)) raises
    DomainError here, before any n; the function raises it only for an n
    where the statistic is undefined (tau(n) <= R, or tau(n) < 2)."""
    if what == "delta":
        return delta
    if what == "delta-mu":
        mu_w = OscWeight.moebius()
        return lambda spec: delta_osc(spec, mu_w)
    if what == "tauplus":
        return tau_plus
    if what == "g":
        return g_sum
    if what.startswith("er:"):
        r = _number(what.split(":", 1)[1])
        if r < 1:
            raise DomainError(f"need r >= 1, got {r}")
        return lambda spec: e_r(spec, r)
    if what.startswith("ftheta:"):
        weight = RatioWeight.indicator(_number(what.split(":", 1)[1], float))
        return lambda spec: f_theta(spec, weight)
    raise UsageError(f"unknown --what {what!r}")


def _run_fn(args, cfg):
    if (args.n is None) == (args.nrange is None):
        raise UsageError("fn needs exactly one of --n/--range")
    if args.nrange is not None:
        lo, hi = _numbers(args.nrange, sep=":", count=2)
    else:
        lo = hi = args.n
    if lo < 1 or hi < lo:
        raise UsageError(f"bad range {lo}:{hi}")
    stat = _parse_what(args.what)
    _check_window(lo, hi)
    if args.nrange is None:
        spectra = [divisors(factor_int(lo))]
    else:
        from .tables import _divisor_spectra

        spectra = _divisor_spectra(lo, hi)
    rec = ResultRecord("fn", {"what": args.what, "range": [lo, hi]}, {"tag": "exact"})

    def rows():
        made = skipped = 0
        first = None
        for spec in spectra:
            try:
                v = float(stat(spec))
            except DomainError:
                if lo == hi:
                    raise  # single-n queries keep the strict per-n contract
                skipped += 1  # range sweeps drop undefined rows (tau too small)
                continue
            made += 1
            if made == 1:
                first = v
            yield spec.n, v
        rec.values.update(rows=made, skipped=skipped, value=first if made == 1 else None)

    # one n's row, or its DomainError, comes before any output is written
    return rec, (("n", "value"), list(rows()) if lo == hi else rows())


def _run_lambda(args, cfg):
    from .locallaws import lambda_mode, lambda_row, median_prime_detail

    if args.mode:
        if args.p is None:
            raise UsageError("--mode needs --p")
        k_star, lam = lambda_mode(args.p)
        rec = ResultRecord("lambda", {"mode": True, "p": args.p},
                           {"k_star": k_star, "lambda_star": lam, "tag": "exact"})
        return rec, None
    if args.k is None:
        raise UsageError("lambda needs --k")
    if args.median:
        det = median_prime_detail(args.k)
        rec = ResultRecord("lambda", {"k": args.k, "median": True},
                           {"p_star": det.p_star, "cum_before": det.cum_before,
                            "cum_at": det.cum_at, "tie_at": det.tie_at,
                            "tag": "exact"})
        return rec, None
    row = lambda_row(args.k, args.pmax)
    cum = 0.0
    rows = []
    for p, lam in row.entries:
        cum += lam
        rows.append((p, lam, cum))
    rec = ResultRecord("lambda", {"k": args.k, "pmax": args.pmax},
                       {"partial_sum": row.partial_sum, "tail": row.tail,
                        "tag": "exact"})
    return rec, (("p", "lambda", "cumsum"), rows)


def _run_lambdad(args, cfg):
    from .locallaws import Lambda_kd, _exact_gens

    # Monte Carlo needs a seed, whether asked for or the default past the exact cap
    if cfg.seed is None and _exact_gens(args.k, args.d, args.method) is None:
        raise UsageError(f"the Monte Carlo route at d={args.d} requires --seed")
    est = Lambda_kd(args.k, args.d, method=args.method,
                    samples=args.samples, seed=cfg.seed)
    rec = ResultRecord("lambdad", {"k": args.k, "d": args.d,
                                   "method": est.method, "seed": cfg.seed},
                       est.as_record())
    return rec, None


def _parse_generators(args) -> GeneratorSet | None:
    given = [bool(args.gens), bool(args.interval), bool(args.family)]
    if sum(given) != 1:
        raise UsageError("multiples needs exactly one of --gens/--interval/--family")
    if args.gens:
        return GeneratorSet(_numbers(args.gens))
    if args.interval:
        y, z = _numbers(args.interval, sep=":", count=2)
        return GeneratorSet(interval=(y, z))
    fam = args.family
    if fam.startswith("a_lambda:"):
        lam = _number(fam.split(":", 1)[1], float)
        seq = block_builder("a_lambda", {"lam": lam}, args.J)
    elif fam.startswith("theorem3:"):
        s, t, g, a = _numbers(fam.split(":", 1)[1], float, count=4)
        seq = block_builder("theorem3", {"sigma": s, "tau": t, "gamma": g, "alpha": a},
                            args.J)
    elif fam == "besicovitch":
        seq = block_builder("besicovitch", {}, args.J)
    else:
        raise UsageError(f"unknown family {fam!r}")
    return block_elements(seq)


def _run_multiples(args, cfg):
    gens = _parse_generators(args)
    spec = args.density
    _, _, arg = spec.partition(":")
    if spec == "exact":
        est = density_bracket(gens, method="exact_ie")
    elif spec.startswith("bonferroni:"):
        est = density_bracket(gens, method="bonferroni", depth=_number(arg))
    elif spec.startswith("sieve:"):
        est = sieve_density(gens, _number(arg))
    elif spec.startswith("log:"):
        est = log_density(gens, _number(arg))
    elif spec.startswith("seq:"):
        ests = sequential_density(gens, _numbers(arg))
        rec = ResultRecord("multiples", {"density": spec},
                           {"sequence": [e.as_record() for e in ests]})
        return rec, None
    else:
        raise UsageError(f"unknown density spec {spec!r}")
    rec = ResultRecord("multiples", {"density": spec, "generators": len(gens)},
                       est.as_record())
    return rec, None


def _parse_theta(text: str):
    from . import experiments as exp

    if text == "golden":
        return exp.golden_ratio_fraction()
    if text == "sqrt2":
        return exp.sqrt2_fraction()
    if "/" in text:
        a, b = _numbers(text, sep="/", count=2)
        if b == 0:
            raise UsageError(f"zero denominator in --theta {text!r}")
        return Fraction(a, b)
    return _number(text, float)


def _run_exp(args, cfg):
    from . import experiments as exp
    from .locallaws import median_prime_detail

    preset = args.preset
    if preset == "median-primes":
        ks = _numbers("2,3" if args.k is None else args.k)
        vals = {}
        for k in ks:
            det = median_prime_detail(k)
            vals[f"p{k}_star"] = det.p_star
            if det.tie_at is not None:
                vals[f"p{k}_tie_at"] = det.tie_at
        vals["tag"] = "exact"
        return ResultRecord("exp", {"preset": preset, "k": ks}, vals), None
    if preset == "nu":
        dist = exp.nu_distribution(args.x)
        rows = list(zip(dist.grid, dist.cdf))
        rec = ResultRecord("exp", {"preset": preset, "x": args.x},
                           {"samples": dist.samples, "tag": "empirical",
                            "jump_candidates": [list(j) for j in dist.jumps]})
        return rec, (("grid", "value"), rows)
    if preset == "pplus":
        st = exp.pplus_adjacency(args.x)
        rec = ResultRecord("exp", {"preset": preset, "x": args.x},
                           {"frac_up": st.frac_up,
                            "frac_triple_down": st.frac_triple_down,
                            "first_triple_down": st.first_triple_down,
                            "tag": "empirical"})
        return rec, (("bin_left", "count"),
                     list(zip(st.alpha_bins[:-1], st.alpha_counts)))
    if preset == "erdos-kac":
        dist = exp.erdos_kac(args.x)
        rec = ResultRecord("exp", {"preset": preset, "x": args.x},
                           {"ks_vs_gaussian": dist.ks_vs[1], "samples": dist.samples,
                            "tag": "empirical"})
        rows = [(g, c) for g, c in zip(dist.grid, dist.cdf) if c > 0]
        return rec, (("grid", "value"), rows)
    if preset == "constants":
        table = exp.constant_table()
        table["tag"] = "exact"
        return ResultRecord("exp", {"preset": preset}, table), None
    if preset == "tsum":
        direct, dyadic = exp.t_sum(args.x, threads=cfg.threads)
        return ResultRecord("exp", {"preset": preset, "x": args.x},
                            {"direct": direct, "dyadic": dyadic, "tag": "exact"}), None
    if preset == "eps":
        if args.y is None or args.z is None:
            raise UsageError("eps preset needs --y and --z")
        e, e1, _ = exp.eps_pair(args.y, args.z, args.x)
        if e.exact is not None and e1.exact is not None:
            lo = hi = e1.exact / e.exact
        else:  # rho_1 = eps_1 / eps from the outward float ends, at most 1
            lo = Fraction(e1.lower) / Fraction(e.upper)
            hi = min(Fraction(e1.upper) / Fraction(e.lower), Fraction(1))
        return ResultRecord("exp", {"preset": preset, "y": args.y, "z": args.z,
                                    "x": args.x},
                            {"eps": e.as_record(), "eps1": e1.as_record(),
                             "rho1": _bracket_estimate(lo, hi).as_record()}), None
    if preset == "totients":
        cnt = exp.totient_values(args.x)
        return ResultRecord("exp", {"preset": preset, "x": args.x},
                            {"count": cnt, "tag": "exact"}), None
    if preset == "dtheta":
        theta = _parse_theta(args.theta)
        n = 12 if args.n is None else args.n
        _check_window(n, n)  # an n past the cap exits 3 before any trial division
        val, d_at = exp.dtheta_min(factor_int(n), theta)
        vals = {"n": n, "min": val, "argmin_d": d_at, "tag": "exact"}
        if isinstance(theta, Fraction):
            vals["growth_exponents"] = exp.convergent_growth_report(theta, 12)
        return ResultRecord("exp", {"preset": preset, "theta": args.theta}, vals), None
    raise UsageError(f"unknown preset {preset!r}")


_HANDLERS = {
    "sieve": _run_sieve,
    "fn": _run_fn,
    "lambda": _run_lambda,
    "lambdad": _run_lambdad,
    "multiples": _run_multiples,
    "exp": _run_exp,
}


def _execute(args, cfg: RunConfig) -> Iterator[str]:
    """The command's output: a JSON record, or CSV text in pieces as the rows are made."""
    t0 = time.perf_counter()
    rec, table = _HANDLERS[args.cmd](args, cfg)
    fmt = cfg.output or ("csv" if table is not None else "json")
    if fmt == "csv" and table is not None:
        header, rows = table
        yield from _csv(rows, header)
        return
    if table is not None:
        for _ in table[1]:  # the record's counts are final once its rows are read
            pass
    rec.wall_time = time.perf_counter() - t0
    yield rec.to_json() + "\n"


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd is None:
            raise UsageError("missing subcommand")
        cfg = _make_config(args, _load_config(getattr(args, "config", None)))
        if args.cmd == "manifest":
            return _run_manifest(args)
        _emit(_execute(args, cfg), args.out)
        return 0
    except UsageError as err:
        sys.stderr.write(f"usage error: {err}\n")
        return 64
    except DomainError as err:
        sys.stderr.write(f"domain error: {err}\n")
        return 2
    except ResourceError as err:
        sys.stderr.write(f"resource error: {err}\n")
        return 3


# the error classes a manifest records; each maps to its own exit code
_ERRORS = (UsageError, DomainError, ResourceError)


def _run_manifest(args) -> int:
    """Run each manifest line in order, writing and flushing its record (or an
    error record naming the error class) as soon as the line finishes."""
    path = Path(args.path)
    if not path.exists():
        raise UsageError(f"manifest {path} not found")
    lines = path.read_text().splitlines()
    parser = _build_parser()
    failures = 0
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as sink:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                try:
                    argv = shlex.split(line)
                except ValueError as err:  # unbalanced quotes
                    raise UsageError(f"bad manifest line: {err}") from None
                sub = parser.parse_args(argv)
                if sub.cmd is None or sub.cmd == "manifest":
                    raise UsageError("manifest lines must be operation subcommands")
                sub_cfg = _make_config(sub, _load_config(getattr(sub, "config", None)))
                text = "".join(_execute(sub, sub_cfg)).rstrip("\n")
            except _ERRORS as err:
                failures += 1
                kind = next(c.__name__ for c in _ERRORS if isinstance(err, c))
                text = json.dumps({"command": "error", "error": kind,
                                   "line": lineno, "message": str(err)}, sort_keys=True)
            sink.write(text + "\n")
            sink.flush()
    return 1 if failures else 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
