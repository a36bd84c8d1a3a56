"""Timed passes, latency percentiles, set-up timing and the result line.

A workload is a fixed list of operations made from the seed.  A run does
whole passes over that list until the time spent inside operations reaches
the requested seconds, so the share of failed operations is the same in
every run.  Each output is reduced to a small summary right after its
operation (outside the timing), checked against references after the timed
part, and compared with the first pass's summary in later passes.
"""

from __future__ import annotations

import compileall
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
RUN_PY = Path(__file__).resolve().parent / "run.py"

# The tail is the highest percentile with this many samples of one pass
# beyond it; with fewer than four times as many operations per pass it would
# be no tail, so every workload has at least 40.
TAIL_BEYOND = 10
MIN_OPS_FOR_TAIL = 40
SETUP_SAMPLES = 3

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class Failure:
    """Stands in for the output of an operation that raised."""

    def __init__(self, err: BaseException):
        self.kind = type(err).__name__
        self.message = str(err)

    def __eq__(self, other):
        return isinstance(other, Failure) and (self.kind, self.message) == (other.kind, other.message)

    def __repr__(self):
        return f"Failure({self.kind}: {self.message})"


class Workload:
    """One benchmark workload.  Subclasses fill in the hooks below."""

    name = ""
    #: True when the operations run inside this process (not as children).
    in_process = True

    def inputs(self, seed: int) -> list:
        """The fixed, seeded list of operations of one pass."""
        raise NotImplementedError

    def setup(self) -> None:
        """Program work done once before the first timed operation."""

    def new_pass(self) -> None:
        """Bring the program back to the state a pass starts from."""

    def run(self, op):
        """Run one operation and return the program's output."""
        raise NotImplementedError

    def summarize(self, op, out):
        """A small, comparable summary of one output (not timed)."""
        return out

    def check(self, op, summary) -> bool:
        """Whether a summary agrees with the references."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cleanup(self) -> None:
        """Remove what the run wrote."""

    def setup_times(self, first: float) -> list[float]:
        """Set-up time samples: this process's own set-up plus fresh child
        processes that import the program and do the same set-up."""
        samples = [first]
        for _ in range(SETUP_SAMPLES - 1):
            res = subprocess.run(
                [sys.executable, str(RUN_PY), "--workload", self.name, "--setup-probe"],
                cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
            )
            if res.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-500:]}")
            samples.append(float(res.stdout.strip().splitlines()[-1]))
        return samples


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def prepare_program() -> None:
    """Byte-compile the package once, so that no timed import pays for it."""
    if not (SRC / "divilab" / "__init__.py").is_file():
        raise SystemExit(f"divilab sources not found under {SRC}")
    if not compileall.compile_dir(str(SRC / "divilab"), quiet=1):
        raise SystemExit("byte-compiling divilab failed")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_program() -> float:
    """Import the package, its experiments and its CLI; return the seconds."""
    t0 = time.perf_counter()
    import divilab  # noqa: F401
    import divilab.cli  # noqa: F401
    import divilab.experiments  # noqa: F401
    return time.perf_counter() - t0


class PassResult:
    def __init__(self, n_ops: int):
        self.latencies_ns: list[int] = []
        self.passes = 0
        self.first: list = []
        self.differs = [0] * n_ops  # later passes whose summary differs from the first
        self.peak_rss_mb = 0.0


def timed_passes(wl: Workload, ops: list, seconds: float, on_pass=None) -> PassResult:
    if len(ops) < MIN_OPS_FOR_TAIL:
        raise ValueError(f"{wl.name}: {len(ops)} operations per pass, need {MIN_OPS_FOR_TAIL}")
    res = PassResult(len(ops))
    clock = time.perf_counter_ns
    busy = 0
    while True:
        wl.new_pass()
        if on_pass:
            on_pass(res.passes + 1)
        summaries = []
        for op in ops:
            t0 = clock()
            try:
                out = wl.run(op)
            except Exception as err:  # a failing operation is a result, not a crash
                out = Failure(err)
            dt = clock() - t0
            res.latencies_ns.append(dt)
            busy += dt
            summaries.append(out if isinstance(out, Failure) else wl.summarize(op, out))
            del out
        if res.passes == 0:
            res.first = summaries
        else:
            for i, (a, b) in enumerate(zip(res.first, summaries)):
                if a != b:
                    res.differs[i] += 1
        res.passes += 1
        if busy >= seconds * 1e9:
            break
    res.peak_rss_mb = wl.peak_rss_mb()
    return res


def check_first_pass(wl: Workload, ops: list, res: PassResult) -> list[bool]:
    ok = []
    for op, summary in zip(ops, res.first):
        if isinstance(summary, Failure):
            ok.append(False)
            continue
        try:
            ok.append(bool(wl.check(op, summary)))
        except Exception as err:  # a checker that cannot read the output fails the operation
            print(f"check raised on {op!r}: {err!r}", file=sys.stderr)
            ok.append(False)
        if not ok[-1]:
            print(f"{wl.name}: failed {str(op)[:200]} -> {str(summary)[:300]}", file=sys.stderr)
    return ok


def count_failed(ok: list[bool], res: PassResult) -> int:
    """Failed executions over all passes: a slot whose first output fails its
    check fails in every pass, and a later output that differs from the
    first fails on its own."""
    failed = 0
    for good, differs in zip(ok, res.differs):
        failed += res.passes if not good else differs
    return failed


def tail_label(n_ops: int) -> float:
    return 100.0 * (1.0 - TAIL_BEYOND / n_ops)


def latency_metrics(res: PassResult) -> dict[str, float]:
    lat = sorted(res.latencies_ns)
    beyond = TAIL_BEYOND * res.passes
    return {
        "latency_p50_ms": statistics.median(lat) / 1e6,
        "latency_tail_ms": lat[len(lat) - beyond - 1] / 1e6,
        "ops_per_s": len(lat) / (sum(lat) / 1e9),
    }


def e2e_metrics(setup_samples: list[float], res: PassResult) -> dict:
    vals = {"setup_s": statistics.median(setup_samples)}
    vals.update(latency_metrics(res))
    vals["peak_rss_mb"] = res.peak_rss_mb
    return {k: {"value": vals[k], "unit": E2E_UNITS[k]} for k in E2E_UNITS}


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for k, v in metrics.items():
        if isinstance(v["value"], float) and not math.isfinite(v["value"]):
            raise SystemExit(f"metric {k} is not finite")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    sys.stdout.flush()


def report(wl: Workload, n_ops: int, res: PassResult, failed: int) -> None:
    print(f"{wl.name}: {res.passes} passes of {n_ops} operations, "
          f"tail = p{tail_label(n_ops):g} over {len(res.latencies_ns)} samples, "
          f"{failed} failed", file=sys.stderr)
