"""Config ingestion, command dispatch, determinism, and Monte Carlo consistency."""

import json
import tracemalloc

import numpy as np
import pytest

from invlab import cli_sim
from invlab.cli_sim import load_config, main, run, simulate_policy
from invlab.costs import CostModel, HoldingCost
from invlab.demand import from_atoms
from invlab.dp_core import infinite_horizon_vi, make_inventory_mdp, min_action_policy
from invlab.errors import InvLabError, ValidationErrors
from invlab.pomdp import replication_uniforms


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
        assert cfg.demand.mean() == pytest.approx(1.0)
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
        self.phi = min_action_policy(self.sol)

    def test_zero_horizon_is_free(self):
        disc, avg = simulate_policy(self.mdp, self.phi, 0.0, 0, self.alpha, 20, seed=1)
        assert np.all(disc.samples == 0.0)
        assert np.all(avg.samples == 0.0)

    def test_deterministic_chain_zero_variance(self):
        d = from_atoms([(1, 1.0)], step=1)
        m = make_inventory_mdp(CostModel(0.0, 1.0, HoldingCost.linear(1, 1)), d, -3, 3)
        phi = np.clip(1.0 - m.grid, 0.0, None)  # hold the post-order level at one unit
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


def set_field(cfg, path, value):
    section = cfg
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value


class TestNumericFields:
    @pytest.mark.parametrize("path, value, message", NUMERIC_FIELDS, ids=[".".join(f[0]) for f in NUMERIC_FIELDS])
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

    def test_valid_fields_are_converted(self, tmp_path):
        cfg = base_config(mass_tol=0.5)
        cfg["solver"]["ladder"] = [0.8, 0.9]
        cfg["sim"] = {"x0": -3, "reps": 10, "horizon": 0}
        config = load_config(write_config(tmp_path, cfg))
        assert (config.grid_lo, config.grid_hi, config.a_max, config.mass_tol) == (-12.0, 8.0, 20.0, 0.5)
        assert config.solver.ladder == (0.8, 0.9)
        report = run(config, "simulate", out_dir=tmp_path / "out")
        assert (report.outputs["x0"], report.outputs["horizon"]) == (-3.0, 0)


class TestReplicationBlocks:
    def setup_method(self):
        demand = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1)
        self.mdp = make_inventory_mdp(CostModel(2.0, 1.0, HoldingCost.linear(3.0, 1.0)), demand, -12, 8)
        self.alpha = 0.9
        self.phi = min_action_policy(infinite_horizon_vi(self.mdp, self.alpha, 1e-6))

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

        # reference: every replication's draws held at once, stepped in lockstep
        phi_idx = self.mdp.policy_index(self.phi)
        cum = np.cumsum(self.mdp.shock_probs)
        shocks = np.searchsorted(cum, replication_uniforms(9, k, N) * cum[-1]).clip(0, cum.size - 1)
        x = np.full(k, self.mdp.state_index(0.0))
        ref_disc, ref_total, power = np.zeros(k), np.zeros(k), 1.0
        for t in range(N):
            a = phi_idx[x]
            ref_disc += power * self.mdp.cost[x, a]
            ref_total += self.mdp.cost[x, a]
            x = self.mdp.next_idx[x, a, shocks[:, t]]
            power *= self.alpha
        assert ref_disc.tobytes() == short_disc.samples.tobytes()
        assert (ref_total / N).tobytes() == short_avg.samples.tobytes()

    def test_peak_memory_is_one_block(self):
        reps, N = 20_000, 200
        tracemalloc.start()
        try:
            simulate_policy(self.mdp, self.phi, 0.0, N, self.alpha, reps, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * reps * N / 4  # a quarter of the whole float64 draws plus int64 shocks
