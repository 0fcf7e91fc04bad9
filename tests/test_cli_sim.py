"""Config ingestion, command dispatch, determinism, and Monte Carlo consistency."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invlab import cli_sim, dp_core
from invlab.cli_sim import load_config, main, run, simulate_policy
from invlab.costs import CostModel, HoldingCost
from invlab.demand import from_atoms
from invlab.dp_core import Dynamics, finite_horizon_vi, infinite_horizon_vi, make_inventory_mdp
from invlab.errors import InvLabError, ValidationErrors
from invlab.policy_structure import classify_regime, g_function, predict_finite_horizon
from invlab.pomdp import Container, ContainerPartition, replication_uniforms
from oracles import demand_mean, successors, verify_reference


def base_config(**overrides):
    cfg = {
        "demand": {"step": 1.0, "atoms": [[0, 0.3], [1, 0.4], [2, 0.3]]},
        "cost": {"K": 2.0, "c_unit": 1.0, "holding": {"breakpoints": [0.0], "slopes": [-3.0, 1.0]}},
        "grid": {"lo": -12.0, "hi": 8.0, "step": 1.0},
        "actions": {"a_max": 20.0},
        "dynamics": "backorder",
        "solver": {"alpha": 0.9, "eps": 1e-6, "horizon": 5},
        "seed": 20240601,
        "sim": {"x0": 0.0, "reps": 200, "horizon": 60},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def pomdp_section():
    return {
        "containers": [
            {"lo": -12.0, "hi": 0.0, "transparent": False},
            {"lo": 0.0, "hi": 8.0, "transparent": True},
        ],
        "prior": [[0.0, 1.0]],
        "horizon": 3,
        "max_nodes": 200000,
    }


class TestLoadConfig:
    def test_minimal_backorder_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        assert demand_mean(cfg.demand) == pytest.approx(1.0)
        assert cfg.cost.K == 2.0
        assert cfg.grid_lo == -12.0
        assert cfg.solver.alpha == 0.9

    def test_bad_probabilities_name_the_demand_section(self, tmp_path):
        cfg = base_config()
        cfg["demand"]["atoms"] = [[0, 0.4], [1, 0.5]]
        with pytest.raises(ValidationErrors) as err:
            load_config(write_config(tmp_path, cfg))
        assert any(e.startswith("demand:") for e in err.value.errors)

    def test_gapped_partition_names_the_interval(self, tmp_path):
        cfg = base_config()
        cfg["pomdp"] = pomdp_section()
        cfg["pomdp"]["containers"][1]["lo"] = 2.0  # hole on [0, 2]
        with pytest.raises(ValidationErrors) as err:
            load_config(write_config(tmp_path, cfg))
        assert any("gap" in e and "[0.0, 2.0]" in e for e in err.value.errors)

    def test_all_errors_reported_at_once(self, tmp_path):
        cfg = base_config()
        cfg["demand"]["atoms"] = [[0, 1.0]]
        cfg["solver"]["alpha"] = 1.5
        with pytest.raises(ValidationErrors) as err:
            load_config(write_config(tmp_path, cfg))
        kinds = {e.split(":")[0] for e in err.value.errors}
        assert {"demand", "solver"} <= kinds

    def test_parse_error_for_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvLabError) as err:
            load_config(path)
        assert err.value.code == "PARSE_ERROR"

    def test_cdf_demand_accepted(self, tmp_path):
        cfg = base_config()
        cfg["demand"] = {"step": 1.0, "cdf": [[0.0, 0.3], [1.0, 0.7], [2.0, 1.0]]}
        config = load_config(write_config(tmp_path, cfg))
        assert config.demand.values.tolist() == [0.0, 1.0, 2.0]


class TestSimulatePolicy:
    def setup_method(self):
        self.demand = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1)
        self.cost = CostModel(2.0, 1.0, HoldingCost.linear(3.0, 1.0))
        self.mdp = make_inventory_mdp(self.cost, self.demand, -12, 8)
        self.alpha = 0.9
        self.sol = infinite_horizon_vi(self.mdp, self.alpha, 1e-6)
        self.phi = self.sol.optimal.argmax(axis=1)

    def test_zero_horizon_is_free(self):
        disc, avg = simulate_policy(self.mdp, self.phi, 0.0, 0, self.alpha, 20, seed=1)
        assert np.all(disc.samples == 0.0)
        assert np.all(avg.samples == 0.0)

    def test_deterministic_chain_zero_variance(self):
        d = from_atoms([(1, 1.0)], step=1)
        m = make_inventory_mdp(CostModel(0.0, 1.0, HoldingCost.linear(1, 1)), d, -3, 3)
        phi = m.action_index(np.clip(1.0 - m.grid, 0.0, None))  # hold the post-order level at one unit
        N, alpha = 40, 0.8
        disc, avg = simulate_policy(m, phi, 0.0, N, alpha, 25, seed=3)
        hand = sum(alpha**t * 1.0 for t in range(N))
        assert np.allclose(disc.samples, hand, atol=1e-12)
        assert np.allclose(avg.samples, 1.0, atol=1e-12)

    def test_same_seed_reproduces(self):
        a, _ = simulate_policy(self.mdp, self.phi, 0.0, 50, self.alpha, 64, seed=11)
        b, _ = simulate_policy(self.mdp, self.phi, 0.0, 50, self.alpha, 64, seed=11)
        assert np.array_equal(a.samples, b.samples)

    def test_ci_covers_solver_value(self):
        eps = 1e-6
        x0 = 0.0
        cmax = float(self.mdp.cost[np.isfinite(self.mdp.cost)].max())
        N = 200
        truncation = cmax * self.alpha**N / (1 - self.alpha)
        disc, _ = simulate_policy(self.mdp, self.phi, x0, N, self.alpha, 3000, seed=77)
        target = self.sol.values[self.mdp.state_index(x0)]
        assert disc.ci_low - (eps + truncation) <= target <= disc.ci_high + (eps + truncation)

    def test_error_shrinks_like_root_reps(self):
        lo, _ = simulate_policy(self.mdp, self.phi, 0.0, 60, self.alpha, 100, seed=5)
        hi, _ = simulate_policy(self.mdp, self.phi, 0.0, 60, self.alpha, 10000, seed=5)
        width_lo = lo.ci_high - lo.ci_low
        width_hi = hi.ci_high - hi.ci_low
        ratio = width_lo / width_hi
        assert 4.0 <= ratio <= 25.0  # nominal 10x with sampling noise


class TestRunCommands:
    def test_classify_reports_regime(self, tmp_path):
        config = load_config(write_config(tmp_path, base_config()))
        report = run(config, "classify", out_dir=tmp_path / "out")
        assert report.outputs["regime"] == "GB_SS"
        assert report.outputs["alpha_star"] == pytest.approx(-2.0)
        assert json.loads((tmp_path / "out" / "report.json").read_text())["command"] == "classify"

    def test_solve_discounted_outputs_are_byte_stable(self, tmp_path):
        config = load_config(write_config(tmp_path, base_config()))
        run(config, "solve-discounted", out_dir=tmp_path / "a")
        run(config, "solve-discounted", out_dir=tmp_path / "b")
        for name in ("values.csv", "policy.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_simulation_outputs_are_byte_stable(self, tmp_path):
        cfg = base_config()
        cfg["sim"] = {"x0": 0.0, "reps": 120, "horizon": 40}
        config = load_config(write_config(tmp_path, cfg))
        run(config, "simulate", out_dir=tmp_path / "a")
        run(config, "simulate", out_dir=tmp_path / "b")
        for name in ("samples.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_lost_sales_config_round_trip(self, tmp_path):
        cfg = base_config(dynamics="lost_sales")
        cfg["grid"] = {"lo": 0.0, "hi": 10.0, "step": 1.0}
        config = load_config(write_config(tmp_path, cfg))
        report = run(config, "solve-discounted", out_dir=tmp_path / "out")
        assert report.outputs["residual"] <= config.solver.eps

    def test_solve_finite_writes_thresholds(self, tmp_path):
        config = load_config(write_config(tmp_path, base_config()))
        run(config, "solve-finite", out_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "thresholds.csv").read_text().strip().splitlines()
        assert lines[0] == "t,s,S"
        assert len(lines) == 1 + config.solver.horizon

    def test_never_order_instance_emits_inf_thresholds(self, tmp_path):
        cfg = base_config()
        # backlog cost rate below the order cost and a low discount factor:
        # the ordering incentive never reaches any state
        cfg["cost"]["holding"]["slopes"] = [-1.0, 1.0]
        cfg["cost"]["c_unit"] = 2.0
        cfg["solver"]["alpha"] = 0.3
        config = load_config(write_config(tmp_path, cfg))
        report = run(config, "solve-finite", out_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "thresholds.csv").read_text().strip().splitlines()
        assert all(line.endswith("-inf,-inf") for line in lines[1:])
        classify = run(config, "classify", out_dir=tmp_path / "out")
        assert classify.outputs["regime"] == "NEVER_ORDER"

    def test_every_cell_finite_or_inf_token(self, tmp_path):
        config = load_config(write_config(tmp_path, base_config()))
        run(config, "solve-finite", out_dir=tmp_path / "out")
        for csv in (tmp_path / "out").glob("*.csv"):
            for line in csv.read_text().strip().splitlines()[1:]:
                for cell in line.split(","):
                    for token in cell.split(";"):
                        if token in ("inf", "-inf"):
                            continue
                        float(token)  # must parse

    def test_write_csv_golden_bytes(self, tmp_path):
        rows = [
            (0.1, np.float64(2.5), np.float32(0.1), -0.0),
            (float("inf"), -np.inf, float("nan"), np.nan),
            (np.int64(7), 3, True, "a;b"),
            (np.True_, np.False_, False, np.bool_(True)),
        ]
        cli_sim.write_csv(tmp_path / "t.csv", ["w", "x", "y", "z"], list(zip(*rows)))
        assert (tmp_path / "t.csv").read_bytes() == (
            b"w,x,y,z\n0.1,2.5,0.10000000149011612,-0.0\ninf,-inf,nan,nan\n7,3,1,a;b\n1,0,0,1\n"
        )

    def test_column_arrays_render_as_cells(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_sim, "CSV_CHUNK", 3)
        floats = np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 1e-7, 65504.0, 2.5])
        columns = [
            floats, floats.astype(np.float32), floats.astype(np.float16), floats.astype(np.longdouble),
            np.arange(-4, 4, dtype=np.int8), np.arange(8, dtype=np.uint64) + np.uint64(2**63),
            np.arange(8) % 3 == 0, list(floats), [True, 1, np.int64(2), "a;b", None, 0.5, np.float32(0.1), -0.0],
        ]
        cli_sim.write_csv(tmp_path / "t.csv", list("abcdefghi"), columns)
        cells = "".join(",".join(map(cli_sim._cell, row)) + "\n" for row in zip(*columns))
        assert (tmp_path / "t.csv").read_text() == "a,b,c,d,e,f,g,h,i\n" + cells

    def test_samples_csv_over_chunks_is_the_per_cell_rendering(self, tmp_path):
        reps = 2 * cli_sim.CSV_CHUNK + 100  # three chunks, the last one partial
        config = load_config(write_config(tmp_path, base_config(sim={"x0": -2.0, "reps": reps, "horizon": 5})))
        run(config, "simulate", out_dir=tmp_path / "out")
        mdp = config.build_mdp()
        phi = infinite_horizon_vi(mdp, config.solver.alpha, config.solver.eps).optimal.argmax(axis=1)
        disc, avg = simulate_policy(mdp, phi, -2.0, 5, config.solver.alpha, reps, config.seed)
        cells = "".join(",".join(map(cli_sim._cell, row)) + "\n" for row in zip(range(reps), disc.samples, avg.samples))
        assert (tmp_path / "out" / "samples.csv").read_text() == "rep,discounted,running_average\n" + cells

    def test_write_csv_holds_no_whole_column(self, tmp_path):
        n = 10**5
        rng = np.random.default_rng(0)
        columns = [np.arange(n), rng.random(n), rng.random(n)]
        tracemalloc.start()
        try:
            cli_sim.write_csv(tmp_path / "t.csv", ["rep", "u", "v"], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * n  # one whole column as a list of Python floats: a 24-byte float and an 8-byte slot each

    def test_verify_structure_clean_instance(self, tmp_path, capsys):
        config = load_config(write_config(tmp_path, base_config()))
        report = run(config, "verify-structure", out_dir=tmp_path / "out")
        assert report.outputs["violations"] == 0
        assert (tmp_path / "out" / "violations.csv").read_text().startswith("t,x,predicted_action,argmin_set")

    def test_solve_average_emits_ladder(self, tmp_path):
        cfg = base_config()
        cfg["solver"]["ladder"] = [0.8, 0.9, 0.95]
        config = load_config(write_config(tmp_path, cfg))
        report = run(config, "solve-average", out_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "ladder.csv").read_text().strip().splitlines()
        assert lines[0] == "alpha,m_alpha,one_minus_alpha_m,X_alpha_lo,X_alpha_hi"
        assert len(lines) == 4
        assert report.outputs["w_lower"] <= report.outputs["w_upper"] + 1e-12

    def test_simulate_without_seed_rejected(self, tmp_path):
        cfg = base_config()
        del cfg["seed"]
        config = load_config(write_config(tmp_path, cfg))
        with pytest.raises(ValidationErrors):
            run(config, "simulate", out_dir=tmp_path / "out")

    def test_pomdp_solve_and_simulate(self, tmp_path):
        cfg = base_config()
        cfg["pomdp"] = pomdp_section()
        cfg["sim"] = {"reps": 300}
        config = load_config(write_config(tmp_path, cfg))
        solve_report = run(config, "pomdp-solve", out_dir=tmp_path / "s")
        sim_report = run(config, "pomdp-simulate", out_dir=tmp_path / "m")
        assert sim_report.outputs["tree_value"] == pytest.approx(solve_report.outputs["value"])
        assert sim_report.outputs["ci_low"] <= sim_report.outputs["tree_value"] <= sim_report.outputs["ci_high"]

    def test_pomdp_command_without_section_rejected(self, tmp_path):
        config = load_config(write_config(tmp_path, base_config()))
        with pytest.raises(ValidationErrors):
            run(config, "pomdp-solve", out_dir=tmp_path / "out")


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["classify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_validation_failure_is_2(self, tmp_path, capsys):
        cfg = base_config()
        cfg["demand"]["atoms"] = [[0, 0.9]]
        path = write_config(tmp_path, cfg)
        assert main(["classify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_missing_file_is_2(self, tmp_path, capsys):
        assert main(["classify", "--config", str(tmp_path / "nope.json")]) == 2

    def test_solver_error_is_3(self, tmp_path, capsys):
        cfg = base_config()
        # growth-condition instance whose thresholds sit outside a tiny grid
        # still solves; instead force a solver failure via a pomdp tree cap
        cfg["pomdp"] = pomdp_section()
        cfg["pomdp"]["max_nodes"] = 2
        cfg["pomdp"]["prior"] = [[-3.0, 0.5], [1.0, 0.5]]
        path = write_config(tmp_path, cfg)
        assert main(["pomdp-solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 3

    def test_uncertifiable_solve_is_3(self, tmp_path, capsys):
        cfg = base_config()
        cfg["solver"]["alpha"] = 0.99999  # threshold 5e-12, below the rounding in the values
        path = write_config(tmp_path, cfg)
        assert main(["solve-discounted", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: NOT_CERTIFIED: Bellman residual ")
        assert "the values certify eps " in err
        assert not (tmp_path / "out" / "values.csv").exists()

    def test_policy_iteration_step_cap_is_3(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, base_config())
        assert main(["solve-discounted", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "report.json").read_text())["outputs"]["iterations"] >= 2  # two or more steps
        monkeypatch.setattr(dp_core, "PI_MAX_STEPS", 1)
        assert main(["solve-discounted", "--config", str(path), "--out", str(tmp_path / "capped")]) == 3
        assert capsys.readouterr().err == "solver error: PI_NOT_CONVERGED: policy iteration still improving at the step cap PI_MAX_STEPS = 1\n"

    def test_out_of_memory_is_3_without_a_traceback(self, tmp_path, capsys, monkeypatch):
        def no_room(*args, **kwargs):
            raise MemoryError("Unable to allocate 11.9 GiB for an array with shape (40001, 40001) and data type float64")

        monkeypatch.setattr(cli_sim, "infinite_horizon_vi", no_room)
        path = write_config(tmp_path, base_config())
        assert main(["solve-discounted", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err == "solver error: out of memory: Unable to allocate 11.9 GiB for an array with shape (40001, 40001) and data type float64\n"
        assert "Traceback" not in err

    def test_out_of_range_seed_is_2(self, tmp_path, capsys):
        for seed in (-1, 2**64):
            path = write_config(tmp_path, base_config(seed=seed))
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            assert f"seed: must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
        path = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "-1"]) == 2
        assert "seed: must lie in [0, 2**64), got -1" in capsys.readouterr().err

    def test_zero_reps_is_2(self, tmp_path, capsys):
        cfg = base_config()
        cfg["sim"]["reps"] = 0
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "sim: reps must be a positive integer, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_override_from_cli(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["seed"]
        cfg["sim"] = {"x0": 0.0, "reps": 50, "horizon": 30}
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "7"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["outputs"]["reps"] == 50


NUMERIC_FIELDS = [
    (("seed",), "abc", "seed: must be an integer, got 'abc'"),
    (("sim", "reps"), "many", "sim: reps must be an integer, got 'many'"),
    (("solver", "alpha"), "high", "solver: alpha must be a number, got 'high'"),
    (("solver", "eps"), "tiny", "solver: eps must be a number, got 'tiny'"),
    (("solver", "horizon"), "ten", "solver: horizon must be an integer, got 'ten'"),
    (("pomdp", "horizon"), "three", "pomdp: horizon must be an integer, got 'three'"),
    (("pomdp", "max_nodes"), "lots", "pomdp: max_nodes must be an integer, got 'lots'"),
]

# numbers written as JSON strings or booleans, refused like any other non-number
NUMBER_LOOKALIKES = [
    (("solver", "alpha"), "0.5", "solver: alpha must be a number, got '0.5'"),
    (("sim", "reps"), "10", "sim: reps must be an integer, got '10'"),
    (("seed",), "7", "seed: must be an integer, got '7'"),
    (("grid", "lo"), "-12", "grid: lo must be a number, got '-12'"),
    (("cost", "K"), "2", "cost: K must be a number, got '2'"),
    (("cost", "K"), True, "cost: K must be a number, got True"),
    (("cost", "c_unit"), False, "cost: c_unit must be a number, got False"),
    (("solver", "horizon"), True, "solver: horizon must be an integer, got True"),
    (("demand", "step"), "1", "demand: step must be a number, got '1'"),
    (("demand", "atoms", 0, 0), "0", "demand: atoms[0] value must be a number, got '0'"),
    (("demand", "atoms", 0, 1), "0.3", "demand: atoms[0] prob must be a number, got '0.3'"),
    (("cost", "holding", "breakpoints", 0), True, "cost: holding.breakpoints[0] must be a number, got True"),
    (("cost", "holding", "slopes", 0), "-3", "cost: holding.slopes[0] must be a number, got '-3'"),
    (("cost", "holding", "slopes", 1), "1", "cost: holding.slopes[1] must be a number, got '1'"),
]


class Missing:
    def __repr__(self):
        return "MISSING"


MISSING = Missing()  # the value set_field reads as "delete the key"


def set_field(cfg, path, value):
    section = cfg
    for key in path[:-1]:
        section = section[key]
    if value is MISSING:
        del section[path[-1]]
    else:
        section[path[-1]] = value


class TestNumericFields:
    @pytest.mark.parametrize(
        "path, value, message",
        NUMERIC_FIELDS + NUMBER_LOOKALIKES,
        ids=[".".join(f[0]) for f in NUMERIC_FIELDS] + [f"{'.'.join(map(str, f[0]))}={f[1]!r}" for f in NUMBER_LOOKALIKES],
    )
    def test_non_numeric_field_is_2(self, tmp_path, capsys, path, value, message):
        cfg = base_config(pomdp=pomdp_section())
        set_field(cfg, path, value)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "solver error" not in err
        assert not out.exists()

    def test_every_non_numeric_field_listed_at_once(self, tmp_path):
        cfg = base_config(pomdp=pomdp_section())
        for path, value, _ in NUMERIC_FIELDS:
            set_field(cfg, path, value)
        with pytest.raises(ValidationErrors) as err:
            load_config(write_config(tmp_path, cfg))
        assert sorted(err.value.errors) == sorted(message for _, _, message in NUMERIC_FIELDS)

    def test_every_number_lookalike_listed_at_once(self, tmp_path):
        cfg = base_config()
        messages = {}  # the last value set on each path
        for path, value, message in NUMBER_LOOKALIKES:
            set_field(cfg, path, value)
            messages[path] = message
        with pytest.raises(ValidationErrors) as err:
            load_config(write_config(tmp_path, cfg))
        assert sorted(err.value.errors) == sorted(messages.values())

    def test_fractional_horizon_is_2(self, tmp_path, capsys):
        cfg = base_config()
        cfg["solver"]["horizon"] = 2.5
        assert main(["solve-finite", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "out")]) == 2
        assert "solver: horizon must be an integer, got 2.5" in capsys.readouterr().err

    def test_integral_float_horizon_accepted(self, tmp_path):
        cfg = base_config()
        cfg["solver"]["horizon"] = 5.0
        assert load_config(write_config(tmp_path, cfg)).solver.horizon == 5


BOUNDARY_FIELDS = [
    (("grid", "lo"), "low", "grid: lo must be a number, got 'low'"),
    (("grid", "hi"), "high", "grid: hi must be a number, got 'high'"),
    (("grid", "step"), "one", "grid: step must be a number, got 'one'"),
    (("actions", "a_max"), "lots", "actions: a_max must be a number, got 'lots'"),
    (("mass_tol",), "some", "mass_tol: must be a number, got 'some'"),
    (("solver", "ladder"), [0.9, "x"], "solver: ladder[1] must be a number, got 'x'"),
    (("solver", "ladder"), 0.9, "solver: ladder must be a list of discount factors, got 0.9"),
    (("sim", "horizon"), 2.5, "sim: horizon must be an integer, got 2.5"),
    (("sim", "horizon"), -3, "sim: horizon must be nonnegative, got -3"),
    (("sim", "horizon"), "abc", "sim: horizon must be an integer, got 'abc'"),
    (("sim", "x0"), "abc", "sim: x0 must be a number, got 'abc'"),
    (("sim", "x0"), 0.5, "sim: x0 0.5 is not on the grid [-12.0, 8.0] at step 1.0"),
    (("sim", "x0"), 100.0, "sim: x0 100.0 is not on the grid [-12.0, 8.0] at step 1.0"),
    (("cost", "holding", "slopes"), -3.0, "cost: holding.slopes must be a list of numbers, got -3.0"),
    (("cost", "K"), MISSING, "cost: K missing"),
    (("cost", "c_unit"), MISSING, "cost: c_unit missing"),
    (("cost", "holding"), MISSING, "cost: holding missing"),
    (("cost", "holding"), 5, "cost: holding must be a JSON object, got 5"),
    (("cost", "holding", "breakpoints"), MISSING, "cost: holding.breakpoints missing"),
    (("cost", "holding", "slopes"), MISSING, "cost: holding.slopes missing"),
    (("dynamics",), "custom", "dynamics: unknown kind 'custom'"),
]


class TestConfigBoundary:
    @pytest.mark.parametrize(
        "path, value, message", BOUNDARY_FIELDS, ids=[f"{'.'.join(f[0])}={f[1]!r}" for f in BOUNDARY_FIELDS]
    )
    def test_bad_field_is_2(self, tmp_path, capsys, path, value, message):
        cfg = base_config()
        set_field(cfg, path, value)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "solver error" not in err
        assert not out.exists()

    def test_every_bad_field_listed_at_once(self, tmp_path):
        cfg = base_config()
        cfg["grid"]["step"] = "one"
        cfg["actions"]["a_max"] = "lots"
        cfg["mass_tol"] = "some"
        cfg["solver"]["ladder"] = [0.9, "x"]
        cfg["sim"] = {"x0": 0.5, "reps": 10, "horizon": -3}
        with pytest.raises(ValidationErrors) as err:
            load_config(write_config(tmp_path, cfg))
        assert sorted(err.value.errors) == sorted([
            "grid: step must be a number, got 'one'",
            "actions: a_max must be a number, got 'lots'",
            "mass_tol: must be a number, got 'some'",
            "solver: ladder[1] must be a number, got 'x'",
            "sim: horizon must be nonnegative, got -3",
            "sim: x0 0.5 is not on the grid [-12.0, 8.0] at step 1.0",
        ])

    def test_every_missing_key_and_bad_pair_listed_at_once(self, tmp_path):
        cfg = base_config()
        cfg["cost"] = {"holding": {"slopes": [-3.0, 1.0]}}
        cfg["demand"]["atoms"][1] = 5
        cfg["demand"]["atoms"][2] = {"v": 2, "p": 0.3}
        with pytest.raises(ValidationErrors) as err:
            load_config(write_config(tmp_path, cfg))
        assert sorted(err.value.errors) == sorted([
            "cost: K missing",
            "cost: c_unit missing",
            "cost: holding.breakpoints missing",
            "demand: atoms[1] must be a [value, prob] pair, got 5",
            "demand: atoms[2] must be a [value, prob] pair, got {'v': 2, 'p': 0.3}",
        ])

    def test_valid_fields_are_converted(self, tmp_path):
        cfg = base_config(mass_tol=0.5)
        cfg["solver"]["ladder"] = [0.8, 0.9]
        cfg["sim"] = {"x0": -3, "reps": 10, "horizon": 0}
        config = load_config(write_config(tmp_path, cfg))
        assert (config.grid_lo, config.grid_hi, config.a_max, config.mass_tol) == (-12.0, 8.0, 20.0, 0.5)
        assert config.solver.ladder == (0.8, 0.9)
        report = run(config, "simulate", out_dir=tmp_path / "out")
        assert (report.outputs["x0"], report.outputs["horizon"]) == (-3.0, 0)


# (atoms, step, dynamics) of the demand laws the counted inverse transform is checked on
INVERSION_LAWS = [
    (1, 1.0, Dynamics.BACKORDER),
    (2, 1.0, Dynamics.BACKORDER),
    (3, 0.5, Dynamics.BACKORDER),
    (3, 1.0, Dynamics.LOST_SALES),
    (13, 1.0, Dynamics.BACKORDER),
    (40, 0.5, Dynamics.LOST_SALES),
    (40, 1.0, Dynamics.BACKORDER),
]


def searchsorted_rollout(mdp, demand, phi, alpha, u):
    """Discounted and total cost of the action indices ``phi`` from state 0 on the draws ``u`` (reps x N), shocks by
    ``searchsorted``: every replication's draws held at once, stepped in lockstep."""
    k, N = u.shape
    succ = successors(mdp.grid, mdp.actions, demand, mdp.dynamics)
    cum = np.cumsum(mdp.shock_probs)
    shocks = np.searchsorted(cum, u * cum[-1]).clip(0, cum.size - 1)
    x = np.full(k, mdp.state_index(0.0))
    ref_disc, ref_total, power = np.zeros(k), np.zeros(k), 1.0
    for t in range(N):
        a = phi[x]
        ref_disc += power * mdp.cost[x, a]
        ref_total += mdp.cost[x, a]
        x = succ[x, a, shocks[:, t]]
        power *= alpha
    return ref_disc, ref_total


class TestReplicationBlocks:
    def setup_method(self):
        self.demand = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1)
        self.mdp = make_inventory_mdp(CostModel(2.0, 1.0, HoldingCost.linear(3.0, 1.0)), self.demand, -12, 8)
        self.alpha = 0.9
        self.phi = infinite_horizon_vi(self.mdp, self.alpha, 1e-6).optimal.argmax(axis=1)

    @pytest.mark.parametrize("seed", [0, 20240601, 2**64 - 1])
    def test_rows_are_the_keyed_philox_streams(self, seed):
        first, reps, n = 1000, 6, 13
        u = replication_uniforms(seed, reps, n, first=first)
        for i in range(reps):
            stream = np.random.Generator(np.random.Philox(key=np.array([seed, first + i], dtype=np.uint64)))
            assert u[i].tobytes() == stream.random(n).tobytes()
        assert replication_uniforms(seed, 2, n, first=first + 4).tobytes() == u[4:].tobytes()

    def test_blocks_do_not_change_the_samples(self, monkeypatch):
        N = 200
        reps = 3 * 2**20 // N + 1  # more than three blocks of at most 2**20 draws
        firsts = []

        def spy(seed, m, n, first=0):
            firsts.append((first, m))
            return replication_uniforms(seed, m, n, first=first)

        monkeypatch.setattr(cli_sim, "replication_uniforms", spy)
        disc, avg = simulate_policy(self.mdp, self.phi, 0.0, N, self.alpha, reps, seed=9)
        assert len(firsts) >= 3
        assert [f for f, _ in firsts] == [0] + list(np.cumsum([m for _, m in firsts[:-1]]))
        assert sum(m for _, m in firsts) == reps
        k = firsts[1][0] + 7  # a prefix that ends inside the second block
        short_disc, short_avg = simulate_policy(self.mdp, self.phi, 0.0, N, self.alpha, k, seed=9)
        assert disc.samples[:k].tobytes() == short_disc.samples.tobytes()
        assert avg.samples[:k].tobytes() == short_avg.samples.tobytes()

        ref_disc, ref_total = searchsorted_rollout(self.mdp, self.demand, self.phi, self.alpha, replication_uniforms(9, k, N))
        assert ref_disc.tobytes() == short_disc.samples.tobytes()
        assert (ref_total / N).tobytes() == short_avg.samples.tobytes()

    @pytest.mark.parametrize("draws", ["philox", "cdf_points"])
    @pytest.mark.parametrize("n_atoms, step, dynamics", INVERSION_LAWS)
    def test_counted_inversion_is_searchsorted(self, monkeypatch, n_atoms, step, dynamics, draws):
        weights = np.random.default_rng(n_atoms).uniform(0.05, 1.0, n_atoms)
        demand = from_atoms([((k + 1) * step, w) for k, w in enumerate(weights / weights.sum())], step=step)
        lo, hi = (0.0, (n_atoms + 8) * step) if dynamics is Dynamics.LOST_SALES else (-(n_atoms + 8) * step, 8 * step)
        mdp = make_inventory_mdp(CostModel(2.0, 1.0, HoldingCost.linear(3.0, 1.0)), demand, lo, hi, dynamics=dynamics)
        assert mdp.shock_probs.size == n_atoms
        phi = infinite_horizon_vi(mdp, self.alpha, 1e-6).optimal.argmax(axis=1)
        reps, N = 97, 40
        if draws == "philox":
            u = replication_uniforms(5, reps, N)
        else:  # 0, every CDF point scaled back to [0, 1) and both float neighbours: the ties of the inversion
            cum = np.cumsum(mdp.shock_probs)
            q = cum / cum[-1]
            points = np.concatenate([[0.0], np.nextafter(q, 0.0), q, np.nextafter(q, 1.0)])
            u = np.resize(points[points < 1.0], (reps, N))
            monkeypatch.setattr(cli_sim, "replication_uniforms", lambda seed, m, n, first=0: u[first:first + m, :n].copy())
        disc, avg = simulate_policy(mdp, phi, 0.0, N, self.alpha, reps, seed=5)
        ref_disc, ref_total = searchsorted_rollout(mdp, demand, phi, self.alpha, u)
        assert ref_disc.tobytes() == disc.samples.tobytes()
        assert (ref_total / N).tobytes() == avg.samples.tobytes()

    def test_peak_memory_is_one_block(self):
        reps, N = 20_000, 200
        tracemalloc.start()
        try:
            simulate_policy(self.mdp, self.phi, 0.0, N, self.alpha, reps, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of about 4 MiB of draws and its shock counts; all the draws at once would take 32 MB
        assert peak < 8 * 2**20


# a growth-condition backorder instance on 401 states and 401 actions, 9 demand atoms, K = 20
WIDE_BACKORDER = {
    "demand": {"step": 1.0, "atoms": [
        [0.0, 0.019070738391398376], [1.0, 0.19171519815227975], [2.0, 0.14049652283785],
        [3.0, 0.09093262794908288], [5.0, 0.20001873257925096], [7.0, 0.0846216955973152],
        [9.0, 0.1203663719680347], [11.0, 0.04439414497778516], [12.0, 0.10838396754700305],
    ]},
    "cost": {"K": 20.0, "c_unit": 0.8051828610142244,
             "holding": {"breakpoints": [0.0], "slopes": [-1.5839868659375924, 1.1754740744190684]}},
    "solver": {"alpha": 0.9, "eps": 1e-06, "horizon": 30},
    "seed": 1,
    "grid": {"lo": -200.0, "hi": 200.0, "step": 1.0},
    "dynamics": "backorder",
}


class TestPeakMemory:
    """No cost table is stored; solve-finite and solve-discounted hold one pair-sized float array, the Q of the mask they write
    (solve-discounted, at other times, the n x n evaluation matrix, here of the same size), and verify-structure none."""

    @pytest.mark.parametrize("command, tables", [("solve-finite", 1.5), ("verify-structure", 0.5), ("solve-discounted", 1.5)])
    def test_traced_peak_in_cost_tables(self, tmp_path, capsys, command, tables):
        path = write_config(tmp_path, WIDE_BACKORDER)
        cost_bytes = load_config(path).build_mdp().cost.nbytes
        tracemalloc.start()
        try:
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= tables * cost_bytes, peak / cost_bytes


# the README config on 4,001 states with a_max 30: order windows of many blocks
WIDE_README = base_config(grid={"lo": -2000.0, "hi": 2000.0, "step": 1.0}, actions={"a_max": 30.0})


class TestWideVerifyStructure:
    def test_violations_match_the_pair_q_reference(self, tmp_path, capsys):
        path = write_config(tmp_path, WIDE_README)
        assert main(["verify-structure", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        config = load_config(path)
        mdp, alpha, N = config.build_mdp(), config.solver.alpha, config.solver.horizon
        values = finite_horizon_vi(mdp, N, alpha, np.zeros(mdp.n_states))
        g_seq = [g_function(mdp, values[t], alpha, config.cost) for t in range(N)]
        plan = predict_finite_horizon(classify_regime(config.cost, alpha), N)
        want, thresholds = verify_reference(plan, values, g_seq, mdp, config.cost.K, alpha)
        with open(tmp_path / "out" / "violations.csv", newline="") as fh:
            got = [
                (int(r["t"]), float(r["x"]), float(r["predicted_action"]), [float(a) for a in r["argmin_set"].split(";")])
                for r in csv.DictReader(fh)
            ]
        assert len(got) == 9859
        assert got == want
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["outputs"]["thresholds"] == [list(t) for t in thresholds]


SHAPE_FIELDS = [
    (("demand",), [1], "demand: must be a JSON object, got [1]"),
    (("cost",), "x", "cost: must be a JSON object, got 'x'"),
    (("grid",), 5, "grid: must be a JSON object, got 5"),
    (("actions",), 3, "actions: must be a JSON object, got 3"),
    (("solver",), [0.9], "solver: must be a JSON object, got [0.9]"),
    (("sim",), "abc", "sim: must be a JSON object, got 'abc'"),
    (("pomdp",), [], "pomdp: must be a JSON object, got []"),
    (("pomdp", "containers"), {"lo": 0}, "pomdp: needs a containers list"),
    (
        ("pomdp", "containers", 0),
        {"hi": 0.0, "transparent": False},
        "pomdp: containers[0] must be an object with lo, hi and transparent, got {'hi': 0.0, 'transparent': False}",
    ),
    (("pomdp", "containers", 1), 7, "pomdp: containers[1] must be an object with lo, hi and transparent, got 7"),
    (("pomdp", "containers", 0, "transparent"), "no", "pomdp: containers[0].transparent must be true or false, got 'no'"),
    (("pomdp", "prior"), 1.0, "pomdp: needs a prior"),
    (("pomdp", "prior", 0), [0.0], "pomdp: prior[0] must be a [state, prob] pair, got [0.0]"),
    (("demand", "atoms", 1), 5, "demand: atoms[1] must be a [value, prob] pair, got 5"),
    (("demand", "atoms", 1), {"v": 1, "p": 0.4}, "demand: atoms[1] must be a [value, prob] pair, got {'v': 1, 'p': 0.4}"),
    (("demand", "atoms"), "ab", "demand: atoms must be a list of [value, prob] pairs, got 'ab'"),
    (("demand",), {"step": 1.0, "cdf": [[0.0, 0.5], 7]}, "demand: cdf[1] must be a [value, prob] pair, got 7"),
]

BOUND_AND_ATOM_FIELDS = [
    (("pomdp", "containers", 0, "lo"), "x", "pomdp: containers[0].lo must be a number, got 'x'"),
    (("pomdp", "containers", 1, "hi"), "top", "pomdp: containers[1].hi must be a number, got 'top'"),
    (("pomdp", "containers", 0, "rep"), "mid", "pomdp: containers[0].rep must be a number, got 'mid'"),
    (("pomdp", "prior", 0, 0), "x", "pomdp: prior[0] state must be a number, got 'x'"),
    (("pomdp", "prior", 0, 1), "all", "pomdp: prior[0] prob must be a number, got 'all'"),
    (("pomdp", "prior", 0, 0), 0.5, "pomdp: prior[0] state 0.5 is not on the grid [-12.0, 8.0] at step 1.0"),
    (("pomdp", "prior", 0, 0), 9.0, "pomdp: prior[0] state 9.0 is not on the grid [-12.0, 8.0] at step 1.0"),
]

LADDER_FIELDS = [
    (("solver", "ladder"), [], "solver: ladder needs at least one discount factor"),
    (
        ("solver", "ladder"),
        [0.99, 0.9, 0.95],
        "solver: ladder must be strictly increasing inside [0, 1), got [0.99, 0.9, 0.95]",
    ),
    (("solver", "ladder"), [0.9, 0.9], "solver: ladder must be strictly increasing inside [0, 1), got [0.9, 0.9]"),
    (("solver", "ladder"), [0.9, 1.0], "solver: ladder must be strictly increasing inside [0, 1), got [0.9, 1.0]"),
    (("solver", "ladder"), [-0.5, 0.9], "solver: ladder must be strictly increasing inside [0, 1), got [-0.5, 0.9]"),
]

CONFIG_SHAPE_FIELDS = SHAPE_FIELDS + BOUND_AND_ATOM_FIELDS + LADDER_FIELDS


class TestConfigShape:
    @pytest.mark.parametrize(
        "path, value, message",
        CONFIG_SHAPE_FIELDS,
        ids=[f"{'.'.join(map(str, f[0]))}={f[1]!r}" for f in CONFIG_SHAPE_FIELDS],
    )
    def test_bad_field_is_2(self, tmp_path, capsys, path, value, message):
        cfg = base_config(pomdp=pomdp_section())
        set_field(cfg, path, value)
        out = tmp_path / "out"
        assert main(["pomdp-solve", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "solver error" not in err
        assert not out.exists()

    @pytest.mark.parametrize("raw", [[1, 2], 5, "config", None])
    def test_config_that_is_not_an_object_is_2(self, tmp_path, capsys, raw):
        out = tmp_path / "out"
        assert main(["solve-finite", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 2
        assert f"error: config: must be a JSON object, got {raw!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_every_shape_error_listed_at_once(self, tmp_path):
        cfg = base_config(pomdp=pomdp_section())
        cfg["grid"] = 5
        cfg["sim"] = "abc"
        cfg["solver"]["ladder"] = [0.99, 0.9]
        cfg["pomdp"]["containers"][0] = {"hi": 0.0, "transparent": False}
        cfg["pomdp"]["containers"][1]["lo"] = "x"
        cfg["pomdp"]["prior"] = [["a", 0.5], [0.0, "b"]]
        with pytest.raises(ValidationErrors) as err:
            load_config(write_config(tmp_path, cfg))
        assert sorted(err.value.errors) == sorted([
            "grid: must be a JSON object, got 5",
            "sim: must be a JSON object, got 'abc'",
            "solver: ladder must be strictly increasing inside [0, 1), got [0.99, 0.9]",
            "pomdp: containers[0] must be an object with lo, hi and transparent, got {'hi': 0.0, 'transparent': False}",
            "pomdp: containers[1].lo must be a number, got 'x'",
            "pomdp: prior[0] state must be a number, got 'a'",
            "pomdp: prior[1] prob must be a number, got 'b'",
        ])

    def test_valid_containers_and_prior_are_converted(self, tmp_path):
        cfg = base_config(pomdp=pomdp_section())
        cfg["pomdp"]["containers"][0]["rep"] = -6
        cfg["pomdp"]["prior"] = [[0, 0.5], [-3, 0.5]]
        config = load_config(write_config(tmp_path, cfg))
        assert [(c.lo, c.hi, c.transparent, c.rep) for c in config.partition.containers] == [
            (-12.0, 0.0, False, -6.0),
            (0.0, 8.0, True, None),
        ]
        assert {x: p for x, p in zip(config.partition.grid, config.prior) if p} == {0.0: 0.5, -3.0: 0.5}
        assert run(config, "pomdp-solve", out_dir=tmp_path / "out").outputs["nodes"] > 0


def json_kind(value) -> str:
    if value is None or isinstance(value, (bool, str, list, dict)):
        return type(value).__name__
    return "number"


def field_paths(node, prefix=()):
    """Every key or index path below ``node``, sections before their fields."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def get_field(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


README_POMDP_PATHS = list(field_paths(base_config(pomdp=pomdp_section())))

# strings, lists, objects and null with no numbers inside, not even a string that parses as one
# (such as "9e9"), so no mutant can ask for a larger instance
WORDS = st.text(alphabet="xyz ", max_size=3)
NON_NUMERIC = st.recursive(
    st.none() | WORDS,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(WORDS, inner, max_size=2),
    max_leaves=4,
)


@settings(max_examples=150, deadline=None)
@given(
    path=st.sampled_from(README_POMDP_PATHS),
    value=NON_NUMERIC,
    command=st.sampled_from(["pomdp-solve", "solve-average", "simulate"]),
)
def test_retyped_field_never_ends_in_a_traceback(path, value, command):
    cfg = base_config(pomdp=pomdp_section())
    assume(json_kind(get_field(cfg, path)) != json_kind(value))
    set_field(cfg, path, value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config_path = write_config(Path(tmp), cfg)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(config_path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


NAN, INF = float("nan"), float("inf")

# (path, bad value, expected message): faults that a config could carry past
# load time into a silent wrong answer, a solver error or a warning
LOAD_TIME_FAULTS = [
    (("pomdp", "containers", 0, "hi"), 2.0, "pomdp: containers overlap at state 0.0"),
    (("pomdp", "containers", 0, "rep"), -6.5, "pomdp: representative -6.5 is not a lattice state of its container"),
    (("pomdp", "containers", 0, "rep"), 3.0, "pomdp: representative 3.0 is not strictly inside [-12.0, 0.0)"),
    (
        ("pomdp", "containers"),
        [{"lo": -12.0, "hi": -11.0, "transparent": False}, {"lo": -11.0, "hi": 8.0, "transparent": True}],
        "pomdp: container [-12.0, -11.0) covers 1 lattice point(s); need at least 2",
    ),
    (
        ("pomdp", "containers"),
        [{"lo": -12.0, "hi": 0.5, "transparent": False}, {"lo": 0.7, "hi": 8.0, "transparent": True}],
        "pomdp: containers leave a gap: [0.5, 0.7] is uncovered",
    ),
    (
        # within the 1e-9 gap allowance, yet lattice state 0 is in neither half-open interval
        ("pomdp", "containers"),
        [{"lo": -12.0, "hi": 9e-10, "transparent": False}, {"lo": 1.5e-9, "hi": 8.0, "transparent": True}],
        "pomdp: state 0.0 lies in no container",
    ),
    (("pomdp", "prior"), [[0.0, 1.5], [1.0, -0.5]], "pomdp: prior[1] mass -0.5 is negative"),
    (("pomdp", "prior"), [[0.0, 1.0], [1.0, -1e-13]], "pomdp: prior[1] mass -1e-13 is negative"),
    (("pomdp", "prior"), [[0.0, 0.5]], "pomdp: belief mass sums to 0.5, not 1"),
    (("pomdp", "prior"), [[0.0, NAN]], "pomdp: belief mass sums to nan, not 1"),
    (("pomdp", "prior"), [[0.0, NAN], [1.0, 1.0]], "pomdp: belief mass sums to nan, not 1"),
    (("mass_tol",), -1, "mass_tol: must be nonnegative, got -1"),
    (("mass_tol",), NAN, "mass_tol: must be nonnegative, got nan"),
    (("pomdp", "horizon"), -1, "pomdp: horizon must be nonnegative, got -1"),
    (("pomdp", "max_nodes"), 0, "pomdp: max_nodes must be positive, got 0"),
    (("demand", "atoms"), [[0, 0.5], [1, NAN], [2, 0.5]], "demand: NOT_FINITE: atom probability nan is not finite"),
    (("demand", "atoms"), [[0, NAN], [1, 0.5]], "demand: NOT_FINITE: atom probability nan is not finite"),
    (("demand", "atoms"), [[0, 0.3], [NAN, 0.4], [2, 0.3]], "demand: NOT_FINITE: demand atom at nan is not finite"),
    (("demand", "atoms"), [[0, 0.3], [INF, 0.4], [2, 0.3]], "demand: NOT_FINITE: demand atom at inf is not finite"),
    (
        ("demand",),
        {"step": 1.0, "cdf": [[0.0, 0.3], [1.0, NAN], [2.0, 1.0]]},
        "demand: NOT_FINITE: cumulative probability nan is not finite",
    ),
    (("demand",), {"step": 1.0, "cdf": [[0.0, 0.3], [NAN, 0.7], [2.0, 1.0]]}, "demand: NOT_FINITE: CDF value nan is not finite"),
    (("cost", "K"), INF, "cost: setup cost must be nonnegative and finite, got inf"),
    (("cost", "K"), NAN, "cost: setup cost must be nonnegative and finite, got nan"),
    (("cost", "c_unit"), INF, "cost: per-unit cost must be positive and finite, got inf"),
    (("cost", "holding", "breakpoints"), [NAN], "cost: breakpoint nan is not finite"),
    (("cost", "holding", "slopes"), [-3.0, INF], "cost: slope inf is not finite"),
    (("actions", "a_max"), 0.5, "actions: a_max 0.5 is not on the action lattice at step 1.0"),
    (("actions", "a_max"), 2.5, "actions: a_max 2.5 is not on the action lattice at step 1.0"),
    (("output",), 5, "output: must be a directory path, got 5"),
    (
        ("demand", "atoms"),
        [[0, 0.5], [1e30, 0.5]],
        "demand: SUPPORT_TOO_LARGE: demand atom at 1e+30 is beyond the int64 lattice range",
    ),
    (
        ("demand",),
        {"step": 1.0, "cdf": [[0.0, 0.5], [1e30, 1.0]]},
        "demand: SUPPORT_TOO_LARGE: CDF value 1e+30 is beyond the int64 lattice range",
    ),
    (
        ("grid",),
        {"lo": -1e15, "hi": 1e15},
        "grid: 2000000000000001 states x 21 actions make 42000000000000021 (state, action) pairs, above the cap of 4194304",
    ),
    (
        ("actions", "a_max"),
        1e15,
        "grid: 21 states x 1000000000000001 actions make 21000000000000021 (state, action) pairs, above the cap of 4194304",
    ),
    # a misspelled key would otherwise run on the default it was meant to replace
    (("solver", "alpah"), 0.5, "solver: unknown key 'alpah'"),
    (("dynamcs",), "lost_sales", "config: unknown key 'dynamcs'"),
    (("actions", "amax"), 3.0, "actions: unknown key 'amax'"),
    (("demand", "cdf"), [[0.0, 0.3], [1.0, 0.7], [2.0, 1.0]], "demand: needs a step and one of an 'atoms' or a 'cdf' array"),
    # only an absent section takes its defaults
    (("solver",), None, "solver: must be a JSON object, got None"),
    (("sim",), None, "sim: must be a JSON object, got None"),
    (("actions",), None, "actions: must be a JSON object, got None"),
    (("pomdp",), None, "pomdp: must be a JSON object, got None"),
    (("output",), None, "output: must be a directory path, got None"),
]


class TestLoadTimeFaults:
    @pytest.mark.parametrize(
        "path, value, message",
        LOAD_TIME_FAULTS,
        ids=[f"{'.'.join(map(str, f[0]))}={f[1]!r}" for f in LOAD_TIME_FAULTS],
    )
    def test_fault_is_2_before_any_build(self, tmp_path, capsys, monkeypatch, path, value, message):
        def no_build(*args, **kwargs):
            raise AssertionError("a faulty config reached the MDP build")

        monkeypatch.setattr(cli_sim, "make_inventory_mdp", no_build)
        cfg = base_config(pomdp=pomdp_section())
        set_field(cfg, path, value)
        out = tmp_path / "out"
        assert main(["pomdp-solve", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "solver error" not in err and "Warning" not in err
        assert not out.exists()

    def test_cli_lists_the_partitions_own_gap_error(self, tmp_path):
        # every lattice state is covered; the interval (0.5, 0.7) is not
        containers = [Container(-12.0, 0.5, False), Container(0.7, 8.0, True)]
        with pytest.raises(ValueError) as lib:
            ContainerPartition(containers, np.arange(-12.0, 9.0), 1.0)
        cfg = base_config(pomdp=pomdp_section())
        cfg["pomdp"]["containers"] = [{"lo": c.lo, "hi": c.hi, "transparent": c.transparent} for c in containers]
        with pytest.raises(ValidationErrors) as err:
            load_config(write_config(tmp_path, cfg))
        assert err.value.errors == [f"pomdp: {lib.value}"]

    def test_sim_fields_are_typed(self, tmp_path):
        config = load_config(write_config(tmp_path, base_config()))
        assert (config.sim_x0, config.sim_reps, config.sim_horizon) == (0.0, 200, 60)
        cfg = base_config()
        del cfg["sim"]
        config = load_config(write_config(tmp_path, cfg))
        assert (config.sim_x0, config.sim_reps, config.sim_horizon) == (0.0, 1000, None)
        assert not hasattr(config, "sim")


def no_build(*args, **kwargs):
    raise AssertionError("a faulty config reached the MDP build")


class TestClosedSchema:
    @pytest.mark.parametrize(
        "path", [p for p in README_POMDP_PATHS if isinstance(p[-1], str)], ids=lambda p: ".".join(map(str, p)),
    )
    def test_renamed_key_is_2_naming_it(self, tmp_path, capsys, monkeypatch, path):
        monkeypatch.setattr(cli_sim, "make_inventory_mdp", no_build)
        cfg = base_config(pomdp=pomdp_section())
        parent = get_field(cfg, path[:-1])
        parent[path[-1] + "_"] = parent.pop(path[-1])
        out = tmp_path / "out"
        assert main(["pomdp-solve", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        # named by its section and its path below it: "pomdp: unknown key 'containers[0].lo_'"
        below = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path[1:]).lstrip(".")
        section, key = ("config", path[0]) if len(path) == 1 else (path[0], below)
        err = capsys.readouterr().err
        assert f"error: {section}: unknown key '{key}_'" in err.splitlines()
        assert "solver error" not in err and "Traceback" not in err
        assert not out.exists()


class TestLatticeSizes:
    def test_huge_grid_classify_is_2(self, tmp_path, capsys):
        cfg = base_config(grid={"lo": -1e15, "hi": 1e15})
        del cfg["actions"]  # a_max defaults to hi - lo
        out = tmp_path / "out"
        assert main(["classify", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: grid: 2000000000000001 states x 2000000000000001 actions make" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not out.exists()

    def test_cap_boundary(self, tmp_path):
        cfg = base_config(grid={"lo": 0.0, "hi": 2047.0}, actions={"a_max": 2047.0})
        assert load_config(write_config(tmp_path, cfg)).a_max == 2047.0
        cfg = base_config(grid={"lo": 0.0, "hi": 2048.0}, actions={"a_max": 2047.0})
        with pytest.raises(ValidationErrors) as err:
            load_config(write_config(tmp_path, cfg))
        assert err.value.errors == [
            "grid: 2049 states x 2048 actions make 4196352 (state, action) pairs, above the cap of 4194304"
        ]


class TestDefaultX0:
    def off_zero_config(self, tmp_path):
        cfg = base_config(grid={"lo": 1.0, "hi": 20.0})
        del cfg["sim"]["x0"]  # the default, 0.0, is below the grid
        return write_config(tmp_path, cfg)

    def test_simulate_is_2_before_any_build(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_sim, "make_inventory_mdp", no_build)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(self.off_zero_config(tmp_path)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: sim: x0 0.0 is not on the grid [1.0, 20.0] at step 1.0" in err
        assert "solver error" not in err and "Warning" not in err
        assert not out.exists()

    def test_listed_with_the_other_run_errors(self, tmp_path):
        config = load_config(self.off_zero_config(tmp_path))
        with pytest.raises(ValidationErrors) as err:
            run(config, "simulate", out_dir=tmp_path / "out", seed=-1)
        assert err.value.errors == [
            "seed: must lie in [0, 2**64), got -1",
            "sim: x0 0.0 is not on the grid [1.0, 20.0] at step 1.0",
        ]

    def test_other_commands_accept_the_grid(self, tmp_path):
        config = load_config(self.off_zero_config(tmp_path))
        assert run(config, "solve-discounted", out_dir=tmp_path / "out").outputs["residual"] <= config.solver.eps


class TestPolicyArtifacts:
    @pytest.mark.parametrize("command", ["solve-discounted", "solve-finite"])
    def test_cap_warnings_name_the_states_whose_set_holds_the_cap(self, tmp_path, command):
        cfg = base_config(actions={"a_max": 2.0})
        out = tmp_path / "out"
        run(load_config(write_config(tmp_path, cfg)), command, out_dir=out)
        warnings = json.loads((out / "report.json").read_text())["warnings"]
        binding = [w for w in warnings if w["kind"] == "a_max_binding"]
        assert all(w["action"] == 2.0 for w in binding)
        rows = [line.split(",") for line in (out / "policy.csv").read_text().splitlines()[1:]]
        holding_cap = [float(x) for x, _, argmin_set in rows if "2.0" in argmin_set.split(";")]
        assert [w["state"] for w in binding] == holding_cap
        assert len(holding_cap) == 13

    @pytest.mark.parametrize("command", ["solve-finite", "solve-discounted", "solve-average"])
    def test_action_is_the_first_entry_of_its_argmin_set(self, tmp_path, command):
        # K = 0 and a backlog slope equal to c_unit: at one period to go, ordering ties at 12 states
        cfg = base_config(cost={"K": 0.0, "c_unit": 1.0, "holding": {"breakpoints": [0.0], "slopes": [-1.0, 1.0]}})
        cfg["solver"]["horizon"] = 1
        out = tmp_path / "out"
        run(load_config(write_config(tmp_path, cfg)), command, out_dir=out)
        rows = [line.split(",") for line in (out / "policy.csv").read_text().splitlines()[1:]]
        assert len(rows) == 21
        assert [action for _, action, _ in rows] == [argmin_set.split(";")[0] for _, _, argmin_set in rows]
        assert sum(";" in argmin_set for _, _, argmin_set in rows) == (12 if command == "solve-finite" else 0)

    def test_zero_horizon_solve_finite_writes_header_only_tables(self, tmp_path):
        cfg = base_config()
        cfg["solver"]["horizon"] = 0
        out = tmp_path / "out"
        report = run(load_config(write_config(tmp_path, cfg)), "solve-finite", out_dir=out)
        assert (out / "policy.csv").read_text() == "x,action,argmin_set\n"
        assert (out / "thresholds.csv").read_text() == "t,s,S\n"
        assert len((out / "values.csv").read_text().splitlines()) == 1 + 21
        assert not any(w["kind"] == "a_max_binding" for w in report.warnings)


# (path, bad value, expected message) on distinct fields whose checks do not
# gate one another; demand and grid faults are left out because without a
# lattice the lattice checks cannot run
INJECTED_FAULTS = [
    (("cost", "K"), INF, "cost: setup cost must be nonnegative and finite, got inf"),
    (("mass_tol",), NAN, "mass_tol: must be nonnegative, got nan"),
    (("solver", "alpha"), 1.5, "solver: alpha must lie in [0, 1), got 1.5"),
    (("solver", "eps"), 0, "solver: eps must be positive, got 0"),
    (("solver", "horizon"), -2, "solver: horizon must be nonnegative, got -2"),
    (("solver", "ladder"), [0.9, 0.9], "solver: ladder must be strictly increasing inside [0, 1), got [0.9, 0.9]"),
    (("pomdp", "horizon"), -1, "pomdp: horizon must be nonnegative, got -1"),
    (("pomdp", "max_nodes"), 0, "pomdp: max_nodes must be positive, got 0"),
    (("pomdp", "prior"), [[0.0, NAN]], "pomdp: belief mass sums to nan, not 1"),
    (("pomdp", "containers", 0, "rep"), -6.5, "pomdp: representative -6.5 is not a lattice state of its container"),
    (("seed",), -1, "seed: must lie in [0, 2**64), got -1"),
    (("sim", "x0"), 0.5, "sim: x0 0.5 is not on the grid [-12.0, 8.0] at step 1.0"),
    (("sim", "reps"), 0, "sim: reps must be a positive integer, got 0"),
    (("sim", "horizon"), -3, "sim: horizon must be nonnegative, got -3"),
    (("actions", "a_max"), 2.5, "actions: a_max 2.5 is not on the action lattice at step 1.0"),
    (("dynamics",), "sideways", "dynamics: unknown kind 'sideways'"),
    (("output",), 5, "output: must be a directory path, got 5"),
]


@settings(max_examples=60, deadline=None)
@given(picks=st.lists(st.sampled_from(INJECTED_FAULTS), min_size=2, max_size=5, unique_by=lambda f: f[0]))
def test_exit_2_names_every_injected_fault(picks):
    cfg = base_config(pomdp=pomdp_section())
    for path, value, _ in picks:
        set_field(cfg, path, value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config_path = write_config(Path(tmp), cfg)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["pomdp-simulate", "--config", str(config_path), "--out", str(Path(tmp) / "out")])
    assert code == 2
    for _, _, message in picks:
        assert f"error: {message}" in err.getvalue()
    assert "solver error" not in err.getvalue()


def counting(monkeypatch, name):
    """Replace ``cli_sim.<name>`` with a pass-through spy; returns the list of its calls."""
    calls = []
    original = getattr(cli_sim, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli_sim, name, spy)
    return calls


class TestPipeline:
    @pytest.mark.parametrize("command", sorted(cli_sim.COMMANDS))
    def test_each_command_builds_the_mdp_once(self, tmp_path, monkeypatch, command):
        builds = counting(monkeypatch, "make_inventory_mdp")
        run(load_config(write_config(tmp_path, base_config(pomdp=pomdp_section()))), command, out_dir=tmp_path / "out")
        assert len(builds) == (0 if command == "classify" else 1)

    def test_classify_runs_where_the_build_fails(self, tmp_path, capsys):
        path = str(write_config(tmp_path, base_config(mass_tol=0)))
        assert main(["classify", "--config", path, "--out", str(tmp_path / "c")]) == 0
        assert json.loads((tmp_path / "c" / "report.json").read_text())["warnings"] == []
        assert main(["solve-discounted", "--config", path, "--out", str(tmp_path / "d")]) == 3
        assert "solver error: GRID_TOO_NARROW" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pomdp-solve", "pomdp-simulate"])
    def test_partition_and_prior_are_built_once(self, tmp_path, monkeypatch, command):
        partitions = counting(monkeypatch, "ContainerPartition")
        beliefs = counting(monkeypatch, "make_belief")
        run(load_config(write_config(tmp_path, base_config(pomdp=pomdp_section()))), command, out_dir=tmp_path / "out")
        assert (len(partitions), len(beliefs)) == (1, 1)

    def test_solve_discounted_reports_thresholds_the_grid_cuts_off(self, tmp_path):
        cfg = base_config(grid={"lo": -12.0, "hi": -2.0}, actions={"a_max": 10.0})
        del cfg["sim"]  # its x0, 0.0, is off this grid
        run(load_config(write_config(tmp_path, cfg)), "solve-discounted", out_dir=tmp_path / "out")
        outputs = json.loads((tmp_path / "out" / "report.json").read_text())["outputs"]
        assert outputs["thresholds_error"].startswith("GRID_TOO_NARROW: ")
        assert "s_alpha" not in outputs and "S_alpha" not in outputs

    def test_verify_structure_prints_its_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        run(load_config(write_config(tmp_path, base_config(actions={"a_max": 2.0}))), "verify-structure", out_dir=out)
        printed = capsys.readouterr().out
        assert printed == (out / "violations.csv").read_text()
        assert len(printed.splitlines()) == 1 + 59


class TestGridEnds:
    @pytest.mark.parametrize("command", ["solve-discounted", "verify-structure"])
    def test_off_lattice_hi_is_2_before_any_build(self, tmp_path, capsys, monkeypatch, command):
        # off the lattice the grid would end elsewhere than the config says: past hi, short of it, or shifted
        for lo, hi in [(-12.0, 8.6), (-12.0, 8.4), (-12.4, 8.0)]:
            with monkeypatch.context() as patch:
                patch.setattr(cli_sim, "make_inventory_mdp", no_build)
                path = write_config(tmp_path, base_config(grid={"lo": lo, "hi": hi, "step": 1.0}))
                assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == f"error: grid: hi {hi} is not on the lattice from lo {lo} at step 1.0\n"
            assert not (tmp_path / "out").exists()
        # a grid offset from zero by half a step is on its own lattice
        cfg = base_config(grid={"lo": -12.5, "hi": 7.5, "step": 1.0})
        del cfg["sim"]  # its x0, 0.0, is off this grid
        assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "out")]) == 0
        outputs = json.loads((tmp_path / "out" / "report.json").read_text())["outputs"]
        if command == "solve-discounted":
            assert (outputs["s_alpha"], outputs["S_alpha"]) == (0.5, 2.5)
        else:
            assert outputs["violations"] == 0


class TestBoundaryFaults:
    def assert_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err and "solver error" not in err

    @pytest.mark.parametrize("via", ["--out", "output"])
    @pytest.mark.parametrize("target, reason", [("afile", "File exists"), ("afile/sub", "Not a directory")])
    def test_unusable_output_directory_is_2(self, tmp_path, capsys, via, target, reason):
        (tmp_path / "afile").write_text("")
        out = tmp_path / target
        cfg = base_config(output=str(out)) if via == "output" else base_config()
        argv = ["classify", "--config", str(write_config(tmp_path, cfg))]
        self.assert_exit_2(capsys, argv + (["--out", str(out)] if via == "--out" else []),
                           f"output: cannot create directory {out}: {reason}")

    def test_config_that_is_not_utf8_is_2(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_bytes(b'{"demand": "\xff\xfe"}')
        self.assert_exit_2(capsys, ["classify", "--config", str(path), "--out", str(tmp_path / "out")],
                           f"PARSE_ERROR: {path} is not valid JSON: 'utf-8' codec can't decode byte 0xff")

    def test_config_nested_too_deeply_is_2(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text('{"demand": ' + "[" * 200_000 + "]" * 200_000 + "}")
        self.assert_exit_2(capsys, ["classify", "--config", str(path), "--out", str(tmp_path / "out")],
                           f"PARSE_ERROR: {path} nests too deeply to parse")

    @pytest.mark.parametrize("blocked", ["report.json", "values.csv"])
    def test_unwritable_artifact_is_2(self, tmp_path, capsys, blocked):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        argv = ["solve-discounted", "--config", str(write_config(tmp_path, base_config())), "--out", str(out)]
        self.assert_exit_2(capsys, argv, f"output: cannot write {out / blocked}: Is a directory")


def nested_config(tmp_path, depth):
    """The base config with a note of nested lists that makes it ``depth`` levels deep, written without recursion."""
    note = "[" * (depth - 1) + "]" * (depth - 1)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(base_config())[:-1] + f', "note": {note}}}')
    return path


class TestNesting:
    @pytest.mark.parametrize("depth", [4, cli_sim.MAX_NESTING])
    def test_config_at_the_limit_passes_the_guard(self, tmp_path, capsys, depth):
        # a valid config nests 4 levels and runs; a note at the limit gets past the guard to the key check
        assert cli_sim._nesting(base_config(pomdp=pomdp_section())) == 4
        assert main(["classify", "--config", str(write_config(tmp_path, base_config())), "--out", str(tmp_path / "ok")]) == 0
        out = tmp_path / "out"
        assert main(["classify", "--config", str(nested_config(tmp_path, depth)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: config: unknown key 'note'\n"
        assert not out.exists()

    @pytest.mark.parametrize("depth", [cli_sim.MAX_NESTING + 1, 500, 900])
    def test_config_past_the_limit_is_2_before_any_build(self, tmp_path, capsys, monkeypatch, depth):
        monkeypatch.setattr(cli_sim, "make_inventory_mdp", no_build)
        path, out = nested_config(tmp_path, depth), tmp_path / "out"
        assert main(["solve-discounted", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: PARSE_ERROR: {path} nests deeper than {cli_sim.MAX_NESTING} levels\n"
        assert not out.exists()

    @pytest.mark.parametrize("depth", [500, 900, 990])
    def test_console_run_past_the_limit_is_2(self, tmp_path, depth):
        # the installed invctl's entry point: its shallow stack parses 990 levels, where pytest's does not
        path, out = nested_config(tmp_path, depth), tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(cli_sim.__file__).parents[1])}
        invctl = "import sys; from invlab.cli_sim import main; sys.exit(main())"
        proc = subprocess.run([sys.executable, "-c", invctl, "classify", "--config", str(path), "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (2, f"error: PARSE_ERROR: {path} nests deeper than {cli_sim.MAX_NESTING} levels\n")
        assert not out.exists()

    def test_nesting_counts_list_and_object_levels(self):
        assert [cli_sim._nesting(v) for v in (1.0, [], {}, {"a": [1, {"b": 2}]}, [[], [[[]]]])] == [0, 1, 1, 3, 4]
