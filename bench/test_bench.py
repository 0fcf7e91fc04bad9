"""Tests of the benchmark itself (not of invlab).

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from compare import verdict  # noqa: E402
from spans import Tracer, pass_metrics  # noqa: E402
from worker import Tally, check_pass, import_invlab, prepare, run_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def invlab():
    return import_invlab(ROOT / "src")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert "env: " in proc.stdout


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY


def test_rejected_config_counts_as_failure(invlab, tmp_path):
    cfg_dir = prepare(invlab, "grid-wide", 3, "tiny", tmp_path)
    bad = json.loads((cfg_dir / "backorder.json").read_text())
    bad["solver"]["alpha"] = 1.5
    (cfg_dir / "backorder.json").write_text(json.dumps(bad))
    _, results = run_pass(invlab, "grid-wide", cfg_dir, tmp_path / "out")
    tally = Tally()
    check_pass(invlab, results, cfg_dir, tmp_path / "out", tally, "pass", digests={}, certify=True)
    assert (tally.attempted, tally.failed) == (4, 3)
    assert all("exit 2" in m for m in tally.messages)


def test_tampered_artifact_counts_as_failure(invlab, tmp_path):
    cfg_dir = prepare(invlab, "ladder-deep", 3, "tiny", tmp_path)
    digests: dict = {}
    tally = Tally()
    _, first = run_pass(invlab, "ladder-deep", cfg_dir, tmp_path / "a")
    check_pass(invlab, first, cfg_dir, tmp_path / "a", tally, "a", digests=digests, certify=True)
    assert tally.failed == 0, tally.messages
    _, second = run_pass(invlab, "ladder-deep", cfg_dir, tmp_path / "b")
    values = tmp_path / "b" / "solve-discounted" / "values.csv"
    lines = values.read_text().splitlines()
    x, v = lines[5].split(",")
    lines[5] = f"{x},{float(v) + 1e-3!r}"
    values.write_text("\n".join(lines) + "\n")
    check_pass(invlab, second, cfg_dir, tmp_path / "b", tally, "b", digests=digests, certify=True)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert "differ from the first pass" in tally.messages[0] and "Bellman residual" in tally.messages[0]


def test_reference_mismatch_counts_as_failure(invlab, tmp_path):
    cfg_dir = prepare(invlab, "grid-wide", workloads.REFERENCE_SEED, "tiny", tmp_path)
    reference = json.loads((BENCH_DIR / "reference" / "grid-wide.json").read_text())["tiny"]["0"]
    reference["solve-discounted"]["approx"]["values"][0] += 10 * workloads.EPS
    _, results = run_pass(invlab, "grid-wide", cfg_dir, tmp_path / "out")
    tally = Tally()
    check_pass(invlab, results, cfg_dir, tmp_path / "out", tally, "ref", reference=reference, eps=workloads.EPS)
    assert (tally.attempted, tally.failed) == (4, 1)


def test_tracer_wraps_every_binding_and_counts_backups(invlab, tmp_path):
    original = invlab.dp_core.infinite_horizon_vi
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (invlab.cli_sim, invlab.average_cost, invlab.policy_structure, invlab.dp_core, invlab):
            assert mod.infinite_horizon_vi is not original
    finally:
        tracer.uninstall()
    assert invlab.cli_sim.infinite_horizon_vi is original and invlab.average_cost.infinite_horizon_vi is original

    cfg_dir = prepare(invlab, "ladder-deep", 3, "tiny", tmp_path)
    tracer.pass_id = 0
    tracer.install()
    try:
        seconds, _ = run_pass(invlab, "ladder-deep", cfg_dir, tmp_path / "out", tracer)
    finally:
        tracer.uninstall()
    m = pass_metrics(tracer, 0, seconds, 0)
    report = json.loads((tmp_path / "out" / "solve-discounted" / "report.json").read_text())
    # the top ladder rung is the solve-discounted problem: same sweeps plus the final argmin backup
    assert m["average_cost.top_rung_backups"] == report["outputs"]["iterations"] + 1
    assert m["dp_core.backup_calls"] > 2 * m["average_cost.top_rung_backups"]
    assert 0 < m["dp_core.backup_s"] < m["dp_core.vi_s"] < seconds


def test_verdicts():
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    assert verdict(parent, [p * 0.8 for p in parent], "lower", 0.1)[0] == "improved"
    assert verdict(parent, [p * 1.03 for p in parent], "lower", 0.1)[0] == "no worse"
    assert verdict(parent, [p * 1.3 for p in parent], "lower", 0.1)[0] == "worse"
    noisy = [1.0, 2.0, 0.5, 1.5, 0.7, 1.2, 1.9, 0.6, 1.1, 1.4]
    assert verdict(noisy, [p * 1.3 for p in noisy], "lower", 0.1)[0] == "unresolved"
    assert verdict(parent, [p * 0.8 for p in parent], "higher", 0.1)[0] == "worse"


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "grid-wide", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
