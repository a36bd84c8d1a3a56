"""Print where one benchmark pass spends its time, per kind and size of operation.

    python3 tools/op_times.py --workload range_scan --seed 41 --passes 2

Run from the root of a checkout.  The workload's operations for the seed
(its `make_inputs`) run in this process through its `Workload.run`: one
warm pass, then `--passes` timed passes, each after the workload's
`new_pass`.  Operations are grouped by kind and size (`op[0]`, and `op[1]`
when it is an int), and each group's line gives its operations per pass,
its mean milliseconds per pass and its share of the pass, slowest first.
Outputs are neither summarized nor checked.  `cli_session` runs each
operation as a child process, so it is refused with exit status 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def op_key(op: tuple) -> tuple:
    """An operation's kind, and its size when that is an int."""
    return op[:2] if len(op) > 1 and isinstance(op[1], int) else op[:1]


def aggregate(ops: list[tuple], passes: list[list[int]]) -> list[tuple[tuple, int, float, float]]:
    """(key, operations per pass, mean ms per pass, share of the pass) per
    `op_key`, slowest first; passes[j][i] is the latency in ns of ops[i]
    in timed pass j."""
    count: dict[tuple, int] = {}
    ns: dict[tuple, int] = {}
    for i, op in enumerate(ops):
        key = op_key(op)
        count[key] = count.get(key, 0) + 1
        ns[key] = ns.get(key, 0) + sum(lat[i] for lat in passes)
    total = sum(ns.values())
    rows = [(key, count[key], ns[key] / len(passes) / 1e6, ns[key] / total if total else 0.0)
            for key in count]
    return sorted(rows, key=lambda row: (-row[2], str(row[0])))


def timed_pass(wl, ops: list) -> list[int]:
    """One pass over ops after the workload's `new_pass`; the latency of
    each in ns.  An operation that raises is timed up to its raise."""
    wl.new_pass()
    out = []
    for op in ops:
        t0 = time.perf_counter_ns()
        try:
            wl.run(op)
        except Exception:
            pass
        out.append(time.perf_counter_ns() - t0)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="per-operation times of one benchmark workload")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--passes", type=int, default=2)
    args = p.parse_args(argv)
    if args.passes < 1:
        p.error("--passes must be at least 1")

    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
    import harness
    from run import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = make_workload(args.workload, traced=False)
    if not wl.in_process:
        print(f"{args.workload} runs its operations as child processes; "
              "op_times times in-process workloads only", file=sys.stderr)
        return 2
    harness.prepare_program()
    wl.setup()
    ops = wl.inputs(args.seed)
    try:
        timed_pass(wl, ops)
        passes = [timed_pass(wl, ops) for _ in range(args.passes)]
    finally:
        wl.cleanup()

    rows = aggregate(ops, passes)
    total = sum(row[2] for row in rows)
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, "
          f"{args.passes} timed passes, {total:.1f} ms per pass")
    print(f"{'operation':<34} {'count':>5} {'ms/pass':>10} {'share':>7}")
    for key, n, ms, share in rows:
        print(f"{' '.join(map(str, key)):<34} {n:>5} {ms:>10.1f} {share:>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
