"""Run one divilab benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload per_integer --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The program is imported from `src/` and
the oracles from `tests/oracles.py`; outputs (traces, the CLI's sieve cache)
go under `.bench_out/`.  With `--trace 0` the last line holds the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of a traced run.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

WORKLOADS = ("per_integer", "range_scan", "exact_queries", "cli_session")


def make_workload(name: str, traced: bool) -> harness.Workload:
    if name == "per_integer":
        from per_integer import PerInteger
        return PerInteger()
    if name == "range_scan":
        from range_scan import RangeScan
        return RangeScan()
    if name == "exact_queries":
        from exact_queries import ExactQueries
        return ExactQueries()
    from cli_session import CliSession
    return CliSession(traced=traced)


def plain_run(wl: harness.Workload, seed: int, seconds: float) -> None:
    first = harness.import_program() if wl.in_process else 0.0
    t0 = time.perf_counter()
    wl.setup()
    first += time.perf_counter() - t0
    setup = wl.setup_times(first)
    ops = wl.inputs(seed)
    res = harness.timed_passes(wl, ops, seconds)
    wl.cleanup()
    ok = harness.check_first_pass(wl, ops, res)
    failed = harness.count_failed(ok, res)
    harness.report(wl, len(ops), res, failed)
    harness.emit(not any(res.differs), len(res.latencies_ns), failed,
                 harness.e2e_metrics(setup, res))


def traced_run(wl: harness.Workload, seed: int, seconds: float) -> None:
    from tracer import Tracer, scipy_import_seconds

    import_s = harness.import_program()
    tr = Tracer()
    tr.install()
    wl.setup()
    ops = wl.inputs(seed)
    res = harness.timed_passes(wl, ops, seconds, on_pass=lambda k: setattr(tr, "phase", k))
    wl.cleanup()
    ok = harness.check_first_pass(wl, ops, res)
    failed = harness.count_failed(ok, res)
    scipy_s = scipy_import_seconds(sys.executable, harness.child_env(), harness.ROOT)
    tr.write(harness.OUT / f"trace-{wl.name}.json")
    harness.report(wl, len(ops), res, failed)
    print(f"{wl.name}: traced pass time {sum(res.latencies_ns) / res.passes / 1e9:.4f} s",
          file=sys.stderr)
    harness.emit(not any(res.differs), len(res.latencies_ns), failed,
                 tr.metrics(res.passes, import_s, scipy_s))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="divilab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and set up, then print the seconds taken")
    args = p.parse_args(argv)

    harness.prepare_program()
    tests = harness.ROOT / "tests"
    if not (tests / "oracles.py").is_file():
        raise SystemExit(f"oracles not found under {tests}")
    sys.path.insert(0, str(tests))

    wl = make_workload(args.workload, traced=args.trace == 1)
    if args.setup_probe:
        t = harness.import_program()
        t0 = time.perf_counter()
        wl.setup()
        print(t + time.perf_counter() - t0)
    elif args.trace:
        traced_run(wl, args.seed, args.seconds)
    else:
        plain_run(wl, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
