"""Benchmark a change against its parent in alternating pairs and write
BENCH_<PR>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --pr N \\
        --workload per_integer --workload range_scan --seed 41

Both checkouts hold the whole repository.  For each workload, pair i of
PAIRS runs each checkout's `bench/run.py --workload W --seed S+i --seconds T`
once, the parent first in even pairs and the change first in odd ones, and
reads each run's result from its last line of output.  The run length T,
the end-to-end metrics and the side of each that is better come from the
change's BENCHMARK.json.  One call writes the whole file: both checkouts'
git shas (a checkout with uncommitted changes is marked dirty) and, per
workload and end-to-end metric, each side's runs, median and quartiles,
the number of pairs the change won and lost (a tie counts for neither side)
and two flags that preview a verdict against the metric's bound b, a share
of the parent's median m:

- `regressed`: the change's median is worse than m by more than b * m;
- `unresolved`: the parent's quartile distance exceeds b * m, and not every
  change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10  # a claimed gain is judged on ten alternating pairs


def checkout_id(path: Path) -> dict:
    """The git sha of a checkout's HEAD and whether its files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(path), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    return {"sha": git("rev-parse", "HEAD"), "dirty": git("status", "--porcelain") != ""}


def bench_spec(checkout: Path) -> tuple[float, dict[str, dict]]:
    """(run seconds, end-to-end metric name -> its BENCHMARK.json entry, which
    holds "better" ("lower" or "higher") and "bound")."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return spec["run_seconds"], {m["name"]: m for m in spec["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """One plain benchmark run in `checkout`; returns its result line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(parent_lines: list[str], change_lines: list[str], metrics: dict[str, dict]) -> dict:
    """Per-workload record from the result lines of paired runs: line i of
    each list comes from pair i.  `metrics` maps each end-to-end metric to
    its "better" side and its "bound"."""
    if len(parent_lines) != len(change_lines) or not parent_lines:
        raise ValueError("need the same positive number of parent and change runs")
    parent = [json.loads(line) for line in parent_lines]
    change = [json.loads(line) for line in change_lines]
    record = {"pairs": len(parent)}
    for side, runs in (("parent", parent), ("change", change)):
        record[side] = {"correct": all(r["correct"] for r in runs),
                        "attempted": sum(r["attempted"] for r in runs),
                        "failed": sum(r["failed"] for r in runs)}
    record["metrics"] = {}
    for name, spec in metrics.items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1 if spec["better"] == "higher" else -1
        ps, cs = spread(p), spread(c)
        allowed = spec["bound"] * abs(ps["median"])
        every_run_wins = min(sign * v for v in c) > max(sign * v for v in p)
        record["metrics"][name] = {
            "unit": parent[0]["metrics"][name]["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": ps,
            "change": cs,
            "pairs_won": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
            "pairs_lost": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
            "regressed": sign * (ps["median"] - cs["median"]) > allowed,
            "unresolved": ps["q3"] - ps["q1"] > allowed and not every_run_wins,
        }
    return record


def write(path: Path, parent_id: dict, change_id: dict, workloads: dict, settings: dict) -> dict:
    """Write the file, replacing any earlier one."""
    doc = {"parent": parent_id, "change": change_id, "settings": settings,
           "workloads": workloads}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--pr", type=int, required=True, help="number in the output file name")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seed", type=int, default=41, help="seed of the first pair")
    args = p.parse_args(argv)

    parent, change = args.parent.resolve(), args.change.resolve()
    seconds, metrics = bench_spec(change)
    records = {}
    for workload in args.workload:
        lines = {parent: [], change: []}
        for i in range(PAIRS):
            order = (parent, change) if i % 2 == 0 else (change, parent)
            for checkout in order:
                lines[checkout].append(run_once(checkout, workload, args.seed + i, seconds))
            print(f"{workload} pair {i + 1}/{PAIRS}", file=sys.stderr)
        records[workload] = summarize(lines[parent], lines[change], metrics)
        records[workload]["seeds"] = [args.seed, args.seed + PAIRS - 1]
    settings = {"seconds": seconds, "python": platform.python_version(),
                "machine": platform.machine(), "cpus": os.cpu_count()}
    write(change / f"BENCH_{args.pr}.json", checkout_id(parent), checkout_id(change),
          records, settings)
    return 0


if __name__ == "__main__":
    sys.exit(main())
