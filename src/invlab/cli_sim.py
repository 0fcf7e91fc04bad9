"""Configuration ingestion, command dispatch, and Monte Carlo evaluation.

One JSON config file describes a complete experiment (demand, costs, grid,
solver parameters, optional observation partition, seed).  Commands solve or
simulate that instance and write CSV/JSON artifacts whose bytes depend only
on the config and seed: floats are rendered with ``repr`` (shortest
round-trip form), non-finite cells as the literal tokens ``inf``/``-inf``,
and column order is fixed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import average_cost, policy_structure
from .costs import CostModel, HoldingCost, regime_constants
from .demand import DemandDistribution, from_atoms, quantize
from .dp_core import (
    Dynamics,
    GridMDP,
    _lattice,
    _lattice_index,
    finite_horizon_vi,
    infinite_horizon_vi,
    make_inventory_mdp,
    min_action_policy,
)
from .errors import InvLabError, ValidationErrors
from .pomdp import (
    Container,
    ContainerPartition,
    TreePolicy,
    belief_value_iteration,
    make_belief,
    pomdp_simulate,
    replication_uniforms,
    summarize_samples,
)

REPORT_SCHEMA = "invctl-report/1"

SIM_COMMANDS = {"simulate", "pomdp-simulate"}


def _seed_errors(seed) -> list[str]:
    # replication streams are keyed by two uint64 words, (seed, replication)
    if seed is None or 0 <= seed < 2**64:
        return []
    return [f"seed: must lie in [0, 2**64), got {seed}"]


def _number(errors: list[str], label: str, value, kind):
    """``value`` as ``kind`` (``int`` or ``float``), or None with an error listed under ``label``."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or (kind is int and isinstance(value, float) and out != value):
        errors.append(f"{label} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
        return None
    return out


def _section(errors: list[str], raw: dict, name: str, *, required: bool = False) -> dict | None:
    """Section ``name`` of the config, ``{}`` when an optional one is absent, or None with an error listed."""
    sec = raw.get(name)
    if isinstance(sec, dict) or (sec is None and not required):
        return sec or {}
    errors.append(f"{name}: section missing" if sec is None else f"{name}: must be a JSON object, got {sec!r}")
    return None


def _container(errors: list[str], i: int, entry) -> Container | None:
    """Container ``i`` of the pomdp section, or None with its errors listed."""
    label = f"pomdp: containers[{i}]"
    if not (isinstance(entry, dict) and {"lo", "hi", "transparent"} <= entry.keys()):
        errors.append(f"{label} must be an object with lo, hi and transparent, got {entry!r}")
        return None
    lo = _number(errors, f"{label}.lo", entry["lo"], float)
    hi = _number(errors, f"{label}.hi", entry["hi"], float)
    rep = entry.get("rep")
    if rep is not None:
        rep = _number(errors, f"{label}.rep", rep, float)
    if not isinstance(entry["transparent"], bool):
        errors.append(f"{label}.transparent must be true or false, got {entry['transparent']!r}")
        return None
    if lo is None or hi is None or (rep is None and entry.get("rep") is not None):
        return None
    return Container(lo, hi, entry["transparent"], rep)


@dataclass
class SolverParams:
    alpha: float = 0.9
    eps: float = 1e-6
    horizon: int = 10
    ladder: tuple = average_cost.DEFAULT_LADDER


@dataclass
class RunConfig:
    demand: DemandDistribution
    cost: CostModel
    grid_lo: float
    grid_hi: float
    a_max: float
    dynamics: Dynamics
    solver: SolverParams
    mass_tol: float = 1.0
    seed: int | None = None
    sim: dict = field(default_factory=dict)
    pomdp_containers: list | None = None
    pomdp_prior: list | None = None
    pomdp_horizon: int = 3
    pomdp_max_nodes: int = 1_000_000
    output: str | None = None
    raw: dict = field(default_factory=dict)

    def build_mdp(self) -> GridMDP:
        return make_inventory_mdp(
            self.cost, self.demand, self.grid_lo, self.grid_hi, self.a_max,
            self.dynamics, mass_tol=self.mass_tol,
        )

    def build_partition(self, mdp: GridMDP) -> ContainerPartition:
        return ContainerPartition(self.pomdp_containers, mdp.grid, mdp.step)


def load_config(path) -> RunConfig:
    """Parse and validate a config file, reporting every problem at once."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvLabError("PARSE_ERROR", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvLabError("PARSE_ERROR", f"{path} is not valid JSON: {exc}") from exc

    if not isinstance(raw, dict):
        raise ValidationErrors([f"config: must be a JSON object, got {raw!r}"])
    errors: list[str] = []
    demand = cost = None

    dsec = _section(errors, raw, "demand", required=True)
    if dsec is not None:
        step = dsec.get("step")
        try:
            if step is None:
                raise InvLabError("VALIDATION", "step missing")
            if "atoms" in dsec:
                demand = from_atoms([(float(v), float(p)) for v, p in dsec["atoms"]], float(step))
            elif "cdf" in dsec:
                demand = quantize([(float(v), float(p)) for v, p in dsec["cdf"]], float(step))
            else:
                raise InvLabError("VALIDATION", "needs an 'atoms' or 'cdf' array")
        except (InvLabError, ValueError, TypeError) as exc:
            errors.append(f"demand: {exc}")

    csec = _section(errors, raw, "cost", required=True)
    if csec is not None:
        try:
            hsec = csec["holding"]
            holding = HoldingCost(np.asarray(hsec["breakpoints"], float), np.asarray(hsec["slopes"], float))
            cost = CostModel(float(csec["K"]), float(csec["c_unit"]), holding)
        except (KeyError, ValueError, TypeError, InvLabError) as exc:
            errors.append(f"cost: {exc}")

    gsec = _section(errors, raw, "grid")
    grid_lo = grid_hi = None
    if gsec is not None and (gsec.get("lo") is None or gsec.get("hi") is None):
        errors.append("grid: needs lo < hi")
    elif gsec is not None:
        grid_lo = _number(errors, "grid: lo", gsec["lo"], float)
        grid_hi = _number(errors, "grid: hi", gsec["hi"], float)
    grid_ok = grid_lo is not None and grid_hi is not None and -math.inf < grid_lo < grid_hi < math.inf
    if grid_lo is not None and grid_hi is not None and not grid_ok:
        errors.append("grid: needs lo < hi")
    elif grid_ok and demand is not None and gsec.get("step") is not None:
        grid_step = _number(errors, "grid: step", gsec["step"], float)
        if grid_step is not None and not abs(grid_step - demand.step) <= 1e-12:
            errors.append("grid: step must match demand step")
    grid = None
    if grid_ok and demand is not None:
        try:
            grid = _lattice(grid_lo, grid_hi, demand.step)
        except ValueError as exc:  # fewer than two lattice points
            errors.append(f"grid: {exc}")

    def check_on_grid(label: str, x: float) -> None:
        if grid is not None and (not math.isfinite(x) or _lattice_index(grid, x, demand.step) is None):
            errors.append(f"{label} {x!r} is not on the grid [{grid_lo}, {grid_hi}] at step {demand.step}")

    a_max = (_section(errors, raw, "actions") or {}).get("a_max")
    if a_max is not None:
        a_max = _number(errors, "actions: a_max", a_max, float)
        if a_max is not None and not 0 <= a_max < math.inf:
            errors.append("actions: a_max must be nonnegative and finite")

    mass_tol = _number(errors, "mass_tol:", raw.get("mass_tol", 1.0), float)

    dyn_name = raw.get("dynamics", "backorder")
    try:
        dynamics = Dynamics(dyn_name)
        if dynamics is Dynamics.CUSTOM:
            raise ValueError("custom dynamics are not configurable from file")
    except ValueError:
        errors.append(f"dynamics: unknown kind {dyn_name!r}")
        dynamics = Dynamics.BACKORDER

    ssec = _section(errors, raw, "solver") or {}
    ladder = ssec.get("ladder", average_cost.DEFAULT_LADDER)
    if isinstance(ladder, (list, tuple)):
        ladder = tuple(_number(errors, f"solver: ladder[{i}]", v, float) for i, v in enumerate(ladder))
        if not ladder:
            errors.append("solver: ladder needs at least one discount factor")
        elif None not in ladder and not (0 <= ladder[0] and ladder[-1] < 1 and all(np.diff(ladder) > 0)):
            errors.append(f"solver: ladder must be strictly increasing inside [0, 1), got {list(ladder)!r}")
    else:
        errors.append(f"solver: ladder must be a list of discount factors, got {ladder!r}")
    solver = SolverParams(
        alpha=_number(errors, "solver: alpha", ssec.get("alpha", 0.9), float),
        eps=_number(errors, "solver: eps", ssec.get("eps", 1e-6), float),
        horizon=_number(errors, "solver: horizon", ssec.get("horizon", 10), int),
        ladder=ladder,
    )
    if solver.alpha is not None and not (0 <= solver.alpha < 1):
        errors.append("solver: alpha must lie in [0, 1)")
    if solver.eps is not None and not (solver.eps > 0):
        errors.append("solver: eps must be positive")
    if solver.horizon is not None and solver.horizon < 0:
        errors.append("solver: horizon must be nonnegative")

    psec = _section(errors, raw, "pomdp", required=True) if raw.get("pomdp") is not None else None
    pomdp_containers = pomdp_prior = None
    pomdp_horizon, pomdp_max_nodes = 3, 1_000_000
    if psec is not None:
        pomdp_horizon = _number(errors, "pomdp: horizon", psec.get("horizon", 3), int)
        pomdp_max_nodes = _number(errors, "pomdp: max_nodes", psec.get("max_nodes", 1_000_000), int)
        entries = psec.get("containers")
        if not (isinstance(entries, list) and entries):
            errors.append("pomdp: needs a containers list")
        else:
            pomdp_containers = [_container(errors, i, c) for i, c in enumerate(entries)]
        if grid_ok and pomdp_containers and None not in pomdp_containers:
            spans = sorted((c.lo, c.hi) for c in pomdp_containers)
            cursor = grid_lo
            for lo_c, hi_c in spans:
                if lo_c > cursor + 1e-9:
                    errors.append(f"pomdp: containers leave a gap on [{cursor}, {lo_c}]")
                    break
                cursor = max(cursor, hi_c)
            if cursor < grid_hi - 1e-9:
                errors.append(f"pomdp: containers leave a gap on [{cursor}, {grid_hi}]")
        atoms = psec.get("prior")
        if not (isinstance(atoms, list) and atoms):
            errors.append("pomdp: needs a prior")
        else:
            pomdp_prior = []
            for i, atom in enumerate(atoms):
                if not (isinstance(atom, list) and len(atom) == 2):
                    errors.append(f"pomdp: prior[{i}] must be a [state, prob] pair, got {atom!r}")
                    continue
                x = _number(errors, f"pomdp: prior[{i}] state", atom[0], float)
                p = _number(errors, f"pomdp: prior[{i}] prob", atom[1], float)
                if x is not None:
                    check_on_grid(f"pomdp: prior[{i}] state", x)
                pomdp_prior.append((x, p))

    seed = raw.get("seed")
    if seed is not None:
        seed = _number(errors, "seed:", seed, int)
    errors += _seed_errors(seed)

    sim = _section(errors, raw, "sim") or {}
    if "reps" in sim:
        reps = _number(errors, "sim: reps", sim["reps"], int)
        if reps is not None and reps < 1:
            errors.append(f"sim: reps must be a positive integer, got {sim['reps']!r}")
    if "horizon" in sim:
        horizon = _number(errors, "sim: horizon", sim["horizon"], int)
        if horizon is not None and horizon < 0:
            errors.append(f"sim: horizon must be nonnegative, got {sim['horizon']!r}")
    if "x0" in sim:
        x0 = _number(errors, "sim: x0", sim["x0"], float)
        if x0 is not None:
            check_on_grid("sim: x0", x0)

    if errors:
        raise ValidationErrors(errors)

    return RunConfig(
        demand=demand,
        cost=cost,
        grid_lo=grid_lo,
        grid_hi=grid_hi,
        a_max=a_max if a_max is not None else grid_hi - grid_lo,
        dynamics=dynamics,
        solver=solver,
        mass_tol=mass_tol,
        seed=seed,
        sim=sim,
        pomdp_containers=pomdp_containers,
        pomdp_prior=pomdp_prior,
        pomdp_horizon=pomdp_horizon,
        pomdp_max_nodes=pomdp_max_nodes,
        output=raw.get("output"),
        raw=raw,
    )


# ---------------------------------------------------------------------------
# deterministic serialization

def _cell(v) -> str:
    if isinstance(v, (np.floating, float)):
        v = float(v)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    return str(v)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


@dataclass
class RunReport:
    command: str
    inputs: dict
    outputs: dict
    warnings: list
    schema: str = REPORT_SCHEMA

    def to_json(self) -> str:
        payload = {
            "schema": self.schema,
            "command": self.command,
            "inputs": _jsonable(self.inputs),
            "outputs": _jsonable(self.outputs),
            "warnings": _jsonable(self.warnings),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _mdp_warnings(mdp: GridMDP) -> list:
    warnings = []
    # clamping matters only where the pair is actually usable
    usable = (mdp.mass_loss > 0) & np.isfinite(mdp.cost)
    lost = np.argwhere(usable)
    if lost.size:
        i, j = lost[0]
        warnings.append(
            {
                "kind": "mass_loss",
                "state": float(mdp.grid[i]),
                "action": float(mdp.actions[j]),
                "max_clamped_mass": float(mdp.mass_loss[usable].max()),
                "pairs": int(lost.shape[0]),
            }
        )
    return warnings


def _write_policy(out: Path, grid: np.ndarray, argmin_sets) -> None:
    rows = [(x, s[0], ";".join(_cell(a) for a in s)) for x, s in zip(grid, argmin_sets)]
    write_csv(out / "policy.csv", ["x", "action", "argmin_set"], rows)


def _cap_warnings(mdp: GridMDP, argmin_sets) -> list:
    warnings = []
    cap = float(mdp.actions[-1])
    for i, s in enumerate(argmin_sets):
        if np.any(np.abs(s - cap) <= 1e-9):
            warnings.append({"kind": "a_max_binding", "state": float(mdp.grid[i]), "action": cap})
    return warnings


# ---------------------------------------------------------------------------
# policy simulation

def simulate_policy(mdp: GridMDP, phi: np.ndarray, x0: float, N: int, alpha: float, reps: int, seed: int):
    """Roll out a stationary policy; returns (discounted, running-average) summaries.

    Replication ``r`` consumes ``N`` uniform draws from a counter-based
    stream keyed by ``(seed, r)``; shocks are realized by inverse transform
    through the transition tables, so the path law is exactly the row law.
    Replications evolve in lockstep, one block of about 4 MiB of draws at a
    time, so memory is one block (draws, their transposed copy, shocks)
    plus O(reps); the per-replication streams make the result independent
    of that layout.
    """
    cost_phi, succ_phi = mdp.policy_rows(mdp.policy_index(phi))
    n_atoms = mdp.shock_probs.size
    cum = np.cumsum(mdp.shock_probs)
    if N == 0:
        zeros = np.zeros(reps)
        return summarize_samples(zeros), summarize_samples(zeros.copy())
    x_start = mdp.state_index(x0)
    disc = np.zeros(reps)
    total = np.zeros(reps)
    block = max(1, 2**19 // N)
    for first in range(0, reps, block):
        m = min(block, reps - first)
        u = replication_uniforms(seed, m, N, first=first)
        u *= cum[-1]
        # (N, m): shocks[t] is one contiguous row per step
        shocks = np.searchsorted(cum, u.T)
        shocks.clip(0, n_atoms - 1, out=shocks)
        x = np.full(m, x_start)
        d = disc[first:first + m]
        s = total[first:first + m]
        power = 1.0
        for t in range(N):
            step_cost = cost_phi[x]
            d += power * step_cost
            s += step_cost
            x = succ_phi[x, shocks[t]]
            power *= alpha
        del shocks  # before the next block is drawn
    return summarize_samples(disc), summarize_samples(total / N)


# ---------------------------------------------------------------------------
# command implementations

def _thresholds_from_solutions(config, mdp, sols, alpha):
    """Per-step thresholds for the solved horizon, bottom step first."""
    rows = []
    for t, sol in enumerate(sols):
        if t == 0:
            continue
        g = policy_structure.g_function(mdp, sols[t - 1].values, alpha, config.cost, config.demand)
        try:
            s_t, S_t = policy_structure.extract_sS(g, mdp.grid, config.cost.K)
        except InvLabError:
            s_t, S_t = -math.inf, -math.inf
        rows.append((t - 1, s_t, S_t))
    return rows


def _run_solve_finite(config: RunConfig, out: Path) -> RunReport:
    mdp = config.build_mdp()
    alpha, N = config.solver.alpha, config.solver.horizon
    sols = finite_horizon_vi(mdp, N, alpha, np.zeros(mdp.n_states))
    final = sols[-1]
    write_csv(out / "values.csv", ["x", "v"], zip(mdp.grid, final.values))
    _write_policy(out, mdp.grid, final.argmin_sets or [])
    rows = _thresholds_from_solutions(config, mdp, sols, alpha)
    write_csv(out / "thresholds.csv", ["t", "s", "S"], rows)
    warnings = _mdp_warnings(mdp) + (_cap_warnings(mdp, final.argmin_sets) if final.argmin_sets else [])
    outputs = {"horizon": N, "alpha": alpha, "v_at_grid_min": float(final.values[0])}
    return RunReport("solve-finite", config.raw, outputs, warnings)


def _run_solve_discounted(config: RunConfig, out: Path) -> RunReport:
    mdp = config.build_mdp()
    alpha, eps = config.solver.alpha, config.solver.eps
    sol = infinite_horizon_vi(mdp, alpha, eps)
    write_csv(out / "values.csv", ["x", "v"], zip(mdp.grid, sol.values))
    _write_policy(out, mdp.grid, sol.argmin_sets)
    outputs = {
        "alpha": alpha,
        "eps": eps,
        "iterations": sol.iterations,
        "residual": sol.residual,
    }
    g = policy_structure.g_function(mdp, sol.values, alpha, config.cost, config.demand)
    try:
        s_a, S_a = policy_structure.extract_sS(g, mdp.grid, config.cost.K)
        outputs["s_alpha"], outputs["S_alpha"] = s_a, S_a
    except InvLabError as exc:
        outputs["thresholds_error"] = str(exc)
    warnings = _mdp_warnings(mdp) + _cap_warnings(mdp, sol.argmin_sets)
    return RunReport("solve-discounted", config.raw, outputs, warnings)


def _run_solve_average(config: RunConfig, out: Path) -> RunReport:
    mdp = config.build_mdp()
    ladder = average_cost.solve_ladder(mdp, config.solver.ladder, config.solver.eps)
    rows = [
        (e.alpha, e.m_alpha, e.rate, float(e.x_alpha.min()), float(e.x_alpha.max()))
        for e in ladder.entries
    ]
    write_csv(out / "ladder.csv", ["alpha", "m_alpha", "one_minus_alpha_m", "X_alpha_lo", "X_alpha_hi"], rows)
    rv = average_cost.relative_value(ladder, k_tail=min(3, len(ladder.entries)))
    greedy = average_cost.greedy_policy(mdp, rv.u, rv.w_upper)
    slack_lower = average_cost.check_optimality_inequality(mdp, rv.u, rv.w_lower, greedy.actions)
    slack_upper = average_cost.check_optimality_inequality(mdp, rv.u, rv.w_upper, greedy.actions)
    _write_policy(out, mdp.grid, greedy.tie_sets)
    diag = average_cost.assumption_B_diagnostic(ladder, config.cost)
    rates = ladder.rates()
    outputs = {
        "w_lower": rv.w_lower,
        "w_upper": rv.w_upper,
        "slack_lower": slack_lower,
        "slack_upper": slack_upper,
        "x_envelope": list(diag.x_envelope),
        "relative_value_growth_states": mdp.grid[diag.growth_flags].tolist(),
        "bound_violations": diag.bound_violations,
        # convergence diagnostic: successive rate gaps along the ladder
        "rate_diffs": np.abs(np.diff(rates)).tolist(),
    }
    return RunReport("solve-average", config.raw, outputs, _mdp_warnings(mdp))


def _run_classify(config: RunConfig, out: Path) -> RunReport:
    ps = policy_structure.classify_regime(config.cost, config.solver.alpha)
    k_h, _ = regime_constants(config.cost)
    outputs = {
        "regime": ps.regime.value,
        "alpha": config.solver.alpha,
        "alpha_star": ps.alpha_star,
        "k_h": k_h,
        "n_alpha": ps.n_alpha,
    }
    print(f"regime={ps.regime.value} alpha_star={_cell(ps.alpha_star)} n_alpha={_cell(ps.n_alpha)}")
    return RunReport("classify", config.raw, outputs, [])


def _run_verify_structure(config: RunConfig, out: Path) -> RunReport:
    mdp = config.build_mdp()
    alpha, N = config.solver.alpha, config.solver.horizon
    sols = finite_horizon_vi(mdp, N, alpha, np.zeros(mdp.n_states))
    g_seq = [
        policy_structure.g_function(mdp, sols[t].values, alpha, config.cost, config.demand)
        for t in range(N)
    ]
    ps = policy_structure.classify_regime(config.cost, alpha)
    plan = policy_structure.predict_finite_horizon(ps, N)
    report = policy_structure.verify_structure(plan, sols, g_seq, mdp, config.cost.K)
    ps.thresholds = report.thresholds
    rows = [(t, x, a, ";".join(_cell(v) for v in s)) for t, x, a, s in report.violations]
    write_csv(out / "violations.csv", ["t", "x", "predicted_action", "argmin_set"], rows)
    print("t,x,predicted_action,argmin_set")
    for t, x, a, s in report.violations:
        print(f"{t},{_cell(x)},{_cell(a)},{';'.join(_cell(v) for v in s)}")
    outputs = {
        "regime": ps.regime.value,
        "violations": len(report.violations),
        "steps_checked": report.steps_checked,
        "states_checked": report.states_checked,
        "thresholds": [list(t) if t else None for t in report.thresholds],
    }
    return RunReport("verify-structure", config.raw, outputs, _mdp_warnings(mdp))


def _run_simulate(config: RunConfig, out: Path, seed: int) -> RunReport:
    mdp = config.build_mdp()
    alpha, eps = config.solver.alpha, config.solver.eps
    sol = infinite_horizon_vi(mdp, alpha, eps)
    phi = min_action_policy(sol)
    x0 = float(config.sim.get("x0", 0.0))
    reps = int(config.sim.get("reps", 1000))
    max_cost = float(mdp.cost[np.isfinite(mdp.cost)].max())
    if "horizon" in config.sim:
        N = int(config.sim["horizon"])
    elif alpha == 0.0 or max_cost == 0.0:
        N = 1
    else:
        # truncate once the geometric tail is below eps
        N = max(1, int(math.ceil(math.log(eps * (1 - alpha) / max_cost) / math.log(alpha))))
    disc, avg = simulate_policy(mdp, phi, x0, N, alpha, reps, seed)
    write_csv(
        out / "samples.csv",
        ["rep", "discounted", "running_average"],
        ((r, d, a) for r, (d, a) in enumerate(zip(disc.samples, avg.samples))),
    )
    truncation = max_cost * alpha**N / (1 - alpha) if alpha > 0 else 0.0
    outputs = {
        "x0": x0,
        "reps": reps,
        "horizon": N,
        "alpha": alpha,
        "truncation_bound": truncation,
        "solver_value": float(sol.values[mdp.state_index(x0)]),
        "discounted": {"mean": disc.mean, "ci_low": disc.ci_low, "ci_high": disc.ci_high},
        "running_average": {"mean": avg.mean, "ci_low": avg.ci_low, "ci_high": avg.ci_high},
    }
    return RunReport("simulate", config.raw, outputs, _mdp_warnings(mdp))


def _solve_pomdp(config: RunConfig):
    mdp = config.build_mdp()
    part = config.build_partition(mdp)
    prior = make_belief(config.pomdp_prior, mdp.grid)
    sol = belief_value_iteration(
        mdp, part, prior, config.pomdp_horizon, config.solver.alpha,
        max_nodes=config.pomdp_max_nodes,
    )
    return mdp, part, prior, sol


def _run_pomdp_solve(config: RunConfig, out: Path) -> RunReport:
    mdp, _, _, sol = _solve_pomdp(config)
    outputs = {
        "value": sol.value,
        "root_actions": sol.root_actions.tolist(),
        "horizon": sol.horizon,
        "nodes": sol.node_count,
    }
    (out / "pomdp_solution.json").write_text(json.dumps(_jsonable(outputs), sort_keys=True, indent=2) + "\n")
    return RunReport("pomdp-solve", config.raw, outputs, _mdp_warnings(mdp))


def _run_pomdp_simulate(config: RunConfig, out: Path, seed: int) -> RunReport:
    mdp, part, prior, sol = _solve_pomdp(config)
    reps = int(config.sim.get("reps", 1000))
    result = pomdp_simulate(
        mdp, part, TreePolicy(sol, mdp, part), prior,
        config.pomdp_horizon, reps, seed, config.solver.alpha,
    )
    write_csv(out / "samples.csv", ["rep", "discounted"], enumerate(result.samples))
    outputs = {
        "tree_value": sol.value,
        "reps": reps,
        "mean": result.mean,
        "ci_low": result.ci_low,
        "ci_high": result.ci_high,
    }
    return RunReport("pomdp-simulate", config.raw, outputs, _mdp_warnings(mdp))


COMMANDS = {
    "solve-finite": _run_solve_finite,
    "solve-discounted": _run_solve_discounted,
    "solve-average": _run_solve_average,
    "classify": _run_classify,
    "verify-structure": _run_verify_structure,
    "simulate": _run_simulate,
    "pomdp-solve": _run_pomdp_solve,
    "pomdp-simulate": _run_pomdp_simulate,
}


def run(config: RunConfig, command: str, out_dir=None, seed=None) -> RunReport:
    """Dispatch a command and write its artifacts; returns the run report."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    errors = []
    if command.startswith("pomdp") and config.pomdp_containers is None:
        errors.append(f"{command}: config has no pomdp section")
    seed = config.seed if seed is None else seed
    if command in SIM_COMMANDS and seed is None:
        errors.append(f"{command}: a seed is required for simulation")
    errors += _seed_errors(seed)
    if errors:
        raise ValidationErrors(errors)
    out = Path(out_dir) if out_dir is not None else Path(config.output or ".")
    out.mkdir(parents=True, exist_ok=True)
    handler = COMMANDS[command]
    if command in SIM_COMMANDS:
        report = handler(config, out, seed)
    else:
        report = handler(config, out)
    (out / "report.json").write_text(report.to_json())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="invctl", description="Inventory control DP laboratory")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        run(config, args.command, out_dir=args.out, seed=args.seed)
    except ValidationErrors as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 2
    except InvLabError as exc:
        if exc.code == "PARSE_ERROR":
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
