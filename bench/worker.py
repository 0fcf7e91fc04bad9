"""One workload in one single-threaded process: set up, run passes, check outputs.

Started by ``run.py``, which caps BLAS threads in this process's environment.
Protocol on standard output: the line ``ready`` once invlab is imported and
the workload's configs are generated and validated (``run.py`` times set-up
up to that line), then one JSON line with the measurements.  Every ``invctl``
command runs in-process through ``invlab.cli_sim.main``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

import checks
import workloads
from spans import Tracer, pass_metrics, summarize

BENCH_DIR = Path(__file__).resolve().parent
MIN_PASSES = 3
MAX_FAILURE_MESSAGES = 20


def import_invlab(src: Path):
    """Import invlab from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    import invlab
    import invlab.cli_sim
    import invlab.dp_core

    if Path(invlab.__file__).resolve().parent != (src / "invlab").resolve():
        raise ImportError(f"invlab was imported from {invlab.__file__}, not from {src}")
    return invlab


class Tally:
    """Commands attempted and failed; a failure is a non-zero exit or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, where: str, failures: list[str]):
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < MAX_FAILURE_MESSAGES:
                self.messages.append(f"{where}: " + "; ".join(failures))


def prepare(invlab, workload: str, seed: int, size: str, work: Path) -> Path:
    """Write the workload's configs for ``seed`` and validate each once."""
    cfg_dir = work / f"configs-seed{seed}"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for name, cfg in workloads.configs(workload, seed, size).items():
        path = cfg_dir / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        invlab.cli_sim.load_config(path)
    return cfg_dir


def invoke(cli_sim, argv: list[str]) -> tuple[int, str]:
    """Run one ``invctl`` command in-process; returns its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli_sim.main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed command, not a crashed benchmark
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def run_pass(invlab, workload: str, cfg_dir: Path, out: Path, tracer=None):
    """Every command of one pass, back to back; returns (pass seconds, per-command results)."""
    results = []
    scope = tracer.span("pass") if tracer else contextlib.nullcontext()
    start = perf_counter()
    with scope:
        for label, command, cfg in workloads.COMMANDS[workload]:
            t0 = perf_counter()
            code, err = invoke(invlab.cli_sim, [command, "--config", str(cfg_dir / f"{cfg}.json"), "--out", str(out / label)])
            results.append((label, command, cfg, code, err, perf_counter() - t0))
    return perf_counter() - start, results


def check_pass(invlab, results, cfg_dir: Path, out: Path, tally: Tally, tag: str, *,
               digests: dict | None = None, certify: bool = False, reference: dict | None = None, eps: float = 0.0):
    """Check one pass's outputs.

    Exit codes always; artifacts against ``digests`` (filled in when empty);
    certificates when ``certify``; outputs against ``reference`` when given.
    Returns the pass's artifact bytes.
    """
    total_bytes = 0
    for label, command, cfg, code, err, _ in results:
        failures = []
        if code != 0:
            failures.append(f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}")
        else:
            try:
                digest, size = checks.artifact_digest(out / label)
                total_bytes += size
                if digests is not None:
                    if digests.setdefault(label, digest) != digest:
                        failures.append("artifacts differ from the first pass")
                if certify:
                    failures += checks.check_command(command, out / label, cfg_dir / f"{cfg}.json", invlab)
                if reference is not None:
                    failures += checks.compare_reference(checks.summary(command, out / label), reference[label], eps)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                failures.append(f"unreadable output: {exc!r}")
        tally.record(f"{tag} {label}", failures)
    return total_bytes


def load_reference(workload: str, size: str, seed: int) -> dict | None:
    path = BENCH_DIR / "reference" / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(size, {}).get(str(seed))


def build_peak_mb(invlab, workload: str, cfg_dir: Path) -> float:
    """Largest tracemalloc peak of one MDP build among the workload's configs."""
    peak = 0
    for name in sorted({cfg for _, _, cfg in workloads.COMMANDS[workload]}):
        config = invlab.cli_sim.load_config(cfg_dir / f"{name}.json")
        tracemalloc.start()
        try:
            config.build_mdp()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1e6


def write_reference(invlab, workload: str, size: str, work: Path):
    seed = workloads.REFERENCE_SEED
    cfg_dir = prepare(invlab, workload, seed, size, work)
    out = work / "reference"
    _, results = run_pass(invlab, workload, cfg_dir, out)
    tally = Tally()
    check_pass(invlab, results, cfg_dir, out, tally, "reference", certify=True)
    if tally.failed:
        raise SystemExit("reference outputs fail their checks: " + " | ".join(tally.messages))
    path = BENCH_DIR / "reference" / f"{workload}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    stored.setdefault(size, {})[str(seed)] = {label: checks.summary(command, out / label) for label, command, *_ in results}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def measure(invlab, args, work: Path, cfg_dir: Path) -> dict:
    tally = Tally()
    eps = workloads.EPS

    # untimed: a reference instance checked against stored outputs, when the
    # run's own seed has none, so every run compares with the reference
    reference = load_reference(args.workload, args.size, args.seed)
    if reference is None:
        ref_seed = workloads.REFERENCE_SEED
        stored = load_reference(args.workload, args.size, ref_seed)
        if stored is None:
            tally.record("reference", [f"no reference outputs for size {args.size}"])
        else:
            ref_cfg = prepare(invlab, args.workload, ref_seed, args.size, work)
            _, results = run_pass(invlab, args.workload, ref_cfg, work / "reference")
            check_pass(invlab, results, ref_cfg, work / "reference", tally, "reference",
                       certify=True, reference=stored, eps=eps)
            shutil.rmtree(work / "reference")

    # untimed warm-up pass: certificates and the artifact digests later passes must match
    digests: dict = {}
    _, results = run_pass(invlab, args.workload, cfg_dir, work / "warmup")
    check_pass(invlab, results, cfg_dir, work / "warmup", tally, "warm-up",
               digests=digests, certify=True, reference=reference, eps=eps)
    shutil.rmtree(work / "warmup")

    tracer = Tracer() if args.trace else None
    min_passes = 2 * MIN_PASSES if tracer else MIN_PASSES  # traced runs alternate untraced and traced
    pass_s, traced_s, per_pass = [], [], []
    command_s = {label: [] for label, *_ in workloads.COMMANDS[args.workload]}
    deadline = perf_counter() + args.seconds
    k = 0
    while k < min_passes or perf_counter() < deadline:
        traced = tracer is not None and k % 2 == 1
        out = work / f"pass{k}"
        gc.collect()
        if traced:
            tracer.pass_id = k
            tracer.install()
        try:
            seconds, results = run_pass(invlab, args.workload, cfg_dir, out, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        nbytes = check_pass(invlab, results, cfg_dir, out, tally, f"pass {k}", digests=digests)
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            traced_s.append(seconds)
            per_pass.append(pass_metrics(tracer, k, seconds, nbytes))
        else:
            pass_s.append(seconds)
            for label, *_, dt in results:
                command_s[label].append(dt)
        k += 1

    result = {
        "pass_s": pass_s,
        "command_s": command_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
        "env": {"python": platform.python_version(), "numpy": sys.modules["numpy"].__version__},
    }
    if tracer is not None:
        trace_dir = BENCH_DIR / "out" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-{args.size}-seed{args.seed}.json"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(BENCH_DIR.parent))
        result["traced_pass_s"] = traced_s
        result["per_layer"] = summarize(per_pass, pass_s, build_peak_mb(invlab, args.workload, cfg_dir))
    # after every build, so the peak covers the whole workload
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    invlab = import_invlab(args.src)
    work = args.work
    try:
        if args.write_reference:
            write_reference(invlab, args.workload, args.size, work)
            return 0
        cfg_dir = prepare(invlab, args.workload, args.seed, args.size, work)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        print(json.dumps(measure(invlab, args, work, cfg_dir)), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
