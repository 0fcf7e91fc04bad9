"""Compare benchmark results of a parent commit and a change, metric by metric.

    # ten pairs on one workload, alternating which side runs first
    python3 bench/compare.py run --parent-src ../parent/src --change-src src \\
        --workload grid-wide --pairs 10 --out bench/out/ab
    # medians, quartiles, pair wins and a verdict per workload and metric
    python3 bench/compare.py report bench/out/ab/parent bench/out/ab/change

Both sides run this checkout's benchmark code; only the measured invlab
source tree differs.  Verdicts follow the rules the benchmark was built to:

- improved: at least ten pairs, the change wins at least nine tenths of them
  (ties count for neither), and the medians differ by more than the parent's
  quartile spread;
- no worse: every change run beats every parent run, or the parent's
  quartile spread is within the metric's bound and the change's median is
  no worse than the parent's by more than the bound;
- unresolved: the parent's own spread is wider than the bound;
- worse: the change's median is worse than the parent's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    """Verdict for paired runs (``parent[i]`` and ``change[i]`` share a seed), and the change's wins."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (c - p) > 0 means the change is worse
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    spread = p_q3 - p_q1
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and sign * (c_med - p_med) < 0 and abs(c_med - p_med) > spread:
        return "improved", wins
    if all(sign * (c - p) < 0 for c in change for p in parent):
        return "no worse", wins
    if spread > bound * abs(p_med):
        return "unresolved", wins
    if sign * (c_med - p_med) <= bound * abs(p_med):
        return "no worse", wins
    return "worse", wins


def load(directory: Path) -> dict:
    """Untraced result records by workload, then by seed."""
    out: dict = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if rec["trace"] == 0:
            out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def report(parent_dir: Path, change_dir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(parent_dir), load(change_dir)
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        p_recs = [parent[workload][s] for s in seeds]
        c_recs = [change[workload][s] for s in seeds]
        print(f"{workload}: {len(seeds)} pairs (seeds {seeds[0]}..{seeds[-1]})")
        print(f"  {'metric':12s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'wins':>6s}  verdict")
        for m in spec["end_to_end"]:
            p = [r["result"]["metrics"][m["name"]]["value"] for r in p_recs]
            c = [r["result"]["metrics"][m["name"]]["value"] for r in c_recs]
            v, wins = verdict(p, c, m["better"], m["bound"])
            pq, cq = quartiles(p), quartiles(c)
            print(
                f"  {m['name']:12s} {pq[1]:12.5g} [{pq[0]:.5g}, {pq[2]:.5g}] {m['unit']:>3s}"
                f" {cq[1]:12.5g} [{cq[0]:.5g}, {cq[2]:.5g}] {m['unit']:>3s} {wins:>3d}/{len(seeds)}  {v}"
                f" (bound {m['bound']:.0%})"
            )
        for side, recs in (("parent", p_recs), ("change", c_recs)):
            failed = sum(r["result"]["failed"] for r in recs)
            attempted = sum(r["result"]["attempted"] for r in recs)
            print(f"  {side}: {failed} of {attempted} commands failed")
    return 0


def run_pairs(args) -> int:
    """Alternate parent and change runs, seed by seed, saving each side's results."""
    sides = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0", "--src", str(sides[side]),
                "--save-dir", str(args.out / side),
            ]
            print(f"pair {i + 1}/{args.pairs}: {side} seed {seed}", flush=True)
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return report(args.out / "parent", args.out / "change")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    rp = sub.add_parser("report", help="compare two directories of saved results")
    rp.add_argument("parent", type=Path)
    rp.add_argument("change", type=Path)
    rn = sub.add_parser("run", help="run alternating pairs, then report")
    rn.add_argument("--parent-src", type=Path, required=True)
    rn.add_argument("--change-src", type=Path, required=True)
    rn.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    rn.add_argument("--pairs", type=int, default=10)
    rn.add_argument("--first-seed", type=int, default=1)
    rn.add_argument("--seconds", type=int, default=spec["run_seconds"])
    rn.add_argument("--out", type=Path, default=BENCH_DIR / "out" / "ab")
    args = parser.parse_args(argv)
    if args.mode == "report":
        return report(args.parent, args.change)
    return run_pairs(args)


if __name__ == "__main__":
    raise SystemExit(main())
