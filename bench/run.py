"""Run invlab's benchmark: one workload per single-threaded process, checked outputs.

    python3 bench/run.py --workload ladder-deep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Prints each metric by name with its unit and sample count, then an
environment record, then one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  The full result, environment
included, is also saved under ``bench/out/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spans import PER_LAYER  # noqa: E402  (stdlib only; numpy stays out of this process)
from workloads import SIZES, WORKLOADS  # noqa: E402

SETUP_PROBES = 15  # fresh processes timed to "ready", after one uncounted warm-up
DEADLINE_S = 170.0
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_CAPS:
        env[var] = "1"
    return env


def _read_first(path: Path, prefix: str) -> str | None:
    try:
        for line in path.read_text().splitlines():
            if line.startswith(prefix):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` directly; ``unknown`` outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(src: Path, numpy_version: str | None) -> dict:
    l3 = None
    try:
        l3 = (Path("/sys/devices/system/cpu/cpu0/cache/index3/size")).read_text().strip()
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first(Path("/proc/cpuinfo"), "model name"),
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_thread_caps": {var: child_env()[var] for var in THREAD_CAPS},
        "git_commit": _git_commit(src.parent),
        "bytes_note": "byte counts are computed from array shapes, not measured; "
        "arrays larger than the L3 cache make those passes memory-bound",
    }


def _worker_cmd(args, work: Path, *extra) -> list[str]:
    return [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--src", str(args.src), "--work", str(work), *extra,
    ]


def _spawn(cmd: list[str], log: Path, deadline: float):
    """Start a worker; returns (seconds until it printed ``ready``, remaining stdout)."""
    start = time.perf_counter()
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, env=child_env(), cwd=ROOT)
        try:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline")
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker exited {proc.returncode}: {log.read_text().strip()[-2000:]}")
    return ready_s, rest


def run_workload(args) -> dict:
    """Set-up probes, then the measuring worker; returns the full result record."""
    deadline = time.monotonic() + DEADLINE_S
    tmp = BENCH_DIR / "out" / "work"
    tmp.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{os.getpid()}"
    log = tmp / f"{tag}.stderr"
    try:
        setup = []
        if not args.trace:
            for i in range(SETUP_PROBES + 1):
                ready_s, _ = _spawn(_worker_cmd(args, tmp / f"{tag}-probe{i}", "--setup-only"), log, deadline)
                if i:
                    setup.append(ready_s)
        ready_s, rest = _spawn(_worker_cmd(args, tmp / f"{tag}-run"), log, deadline)
        setup.append(ready_s)
    finally:
        log.unlink(missing_ok=True)
        for d in tmp.glob(f"{tag}-*"):
            shutil.rmtree(d, ignore_errors=True)
    w = json.loads(rest.strip().splitlines()[-1])
    w["setup_s"] = setup
    return w


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(args, w: dict) -> dict:
    """Print the human-readable report; returns the contract's result object."""
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}  seconds {args.seconds}")
    if args.trace:
        metrics = {name: {"value": w["per_layer"][name], "unit": unit} for name, unit in PER_LAYER.items()}
        n = len(w["traced_pass_s"])
        for name, unit in PER_LAYER.items():
            print(f"  {name:36s} {w['per_layer'][name]:>16.6g} {unit:6s} median of {n} traced passes")
        print(f"  untraced passes: {len(w['pass_s'])}; spans: {w['trace_file']}")
    else:
        q1, med, q3 = _quartiles(w["pass_s"])
        s1, smed, s3 = _quartiles(w["setup_s"])
        values = {"pass_s": med, "setup_s": smed, "peak_rss_mb": w["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print(f"  pass_s      {med:10.4f} s   median of {len(w['pass_s'])} passes (q1 {q1:.4f}, q3 {q3:.4f})")
        print(f"  setup_s     {smed:10.4f} s   median of {len(w['setup_s'])} fresh processes (q1 {s1:.4f}, q3 {s3:.4f})")
        print(f"  peak_rss_mb {w['peak_rss_mb']:10.1f} MB  ru_maxrss of 1 workload process")
        for label, times in w["command_s"].items():
            print(f"    {label:28s} {statistics.median(times):8.4f} s   median of {len(times)}")
    frac = w["failed"] / w["attempted"]
    print(f"  fail_frac   {frac:10.4f}     {w['failed']} of {w['attempted']} commands failed or failed a check")
    for msg in w["failures"]:
        print(f"    FAIL {msg}")
    return {"correct": w["failed"] == 0, "attempted": w["attempted"], "failed": w["failed"], "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="tiny: smoke-test scale, same commands and checks")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="invlab source tree to measure (default: this checkout's)")
    parser.add_argument("--save-dir", type=Path, default=BENCH_DIR / "out" / "results", help="where full result records go")
    parser.add_argument("--write-reference", action="store_true", help="regenerate reference/<workload>.json for --size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in 1..60")
    args.src = args.src.resolve()
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (args.src / "invlab" / "__init__.py").is_file():
        print(f"error: no invlab package under {args.src}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        try:
            if args.write_reference:
                work = BENCH_DIR / "out" / "work" / f"reference-{os.getpid()}"
                subprocess.run(_worker_cmd(args, work, "--write-reference"), check=True, env=child_env(), cwd=ROOT, timeout=DEADLINE_S)
                print(f"wrote bench/reference/{name}.json ({args.size})")
                continue
            w = run_workload(args)
        except (BenchError, subprocess.SubprocessError, json.JSONDecodeError, IndexError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        result = report(args, w)
        env = environment(args.src, w["env"]["numpy"])
        record = {"workload": name, "seed": args.seed, "size": args.size, "trace": args.trace,
                  "seconds": args.seconds, "env": env, "result": result, "raw": w, "finished": time.time()}
        args.save_dir.mkdir(parents=True, exist_ok=True)
        save = args.save_dir / f"{name}-{args.size}-seed{args.seed}-trace{args.trace}-{int(time.time() * 1000)}.json"
        save.write_text(json.dumps(record, indent=1) + "\n")
        print("env: " + json.dumps(env))
        results[name] = result
    if args.write_reference:
        return 0
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
