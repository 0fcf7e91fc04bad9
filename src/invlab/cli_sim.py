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
from dataclasses import dataclass
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


REQUIRED = object()  # default of a field that must be given

# One row per scalar field: (section, key) -> (kind, default, test, requirement),
# section "" being the top level.  A value that converts to ``kind`` but fails
# ``test`` is listed as "<label> must <requirement>, got <value>".
FIELDS = {
    ("grid", "lo"): (float, REQUIRED, math.isfinite, "be finite"),
    ("grid", "hi"): (float, REQUIRED, math.isfinite, "be finite"),
    ("grid", "step"): (float, None, lambda v: v > 0, "be positive"),
    ("actions", "a_max"): (float, None, lambda v: 0 <= v < math.inf, "be nonnegative and finite"),
    ("", "mass_tol"): (float, 1.0, lambda v: v >= 0, "be nonnegative"),
    ("solver", "alpha"): (float, 0.9, lambda v: 0 <= v < 1, "lie in [0, 1)"),
    ("solver", "eps"): (float, 1e-6, lambda v: v > 0, "be positive"),
    ("solver", "horizon"): (int, 10, lambda v: v >= 0, "be nonnegative"),
    ("pomdp", "horizon"): (int, 3, lambda v: v >= 0, "be nonnegative"),
    ("pomdp", "max_nodes"): (int, 1_000_000, lambda v: v >= 1, "be positive"),
    # replication streams are keyed by two uint64 words, (seed, replication)
    ("", "seed"): (int, None, lambda v: 0 <= v < 2**64, "lie in [0, 2**64)"),
    ("sim", "x0"): (float, 0.0, math.isfinite, "be finite"),
    ("sim", "reps"): (int, 1000, lambda v: v >= 1, "be a positive integer"),
    ("sim", "horizon"): (int, None, lambda v: v >= 0, "be nonnegative"),
}


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


def _field(errors: list[str], section: str, key: str, value):
    """``value`` of a ``FIELDS`` entry, converted and range-tested, or None with an error listed."""
    kind, _, test, requirement = FIELDS[section, key]
    label = f"{section}: {key}" if section else f"{key}:"
    out = _number(errors, label, value, kind)
    if out is not None and not test(out):
        errors.append(f"{label} must {requirement}, got {value!r}")
        return None
    return out


def _build(errors: list[str], label: str, build, *args):
    """``build(*args)``, or None with the error its owner raised listed under ``label``."""
    try:
        return build(*args)
    except (InvLabError, ValueError, TypeError, KeyError) as exc:
        errors.append(f"{label}: {exc}")
        return None


def _section(errors: list[str], raw: dict, name: str, *, required: bool = False) -> dict | None:
    """Section ``name`` of the config, ``{}`` when an optional one is absent, or None with an error listed."""
    sec = raw.get(name)
    if isinstance(sec, dict) or (sec is None and not required):
        return sec or {}
    errors.append(f"{name}: section missing" if sec is None else f"{name}: must be a JSON object, got {sec!r}")
    return None


def _demand(sec: dict) -> DemandDistribution:
    kind = "atoms" if "atoms" in sec else "cdf" if "cdf" in sec else None
    if kind is None or sec.get("step") is None:
        raise ValueError("needs a step and an 'atoms' or 'cdf' array")
    pairs = [(float(v), float(p)) for v, p in sec[kind]]
    return (from_atoms if kind == "atoms" else quantize)(pairs, float(sec["step"]))


def _cost(sec: dict) -> CostModel:
    h = sec["holding"]
    holding = HoldingCost(np.asarray(h["breakpoints"], float), np.asarray(h["slopes"], float))
    return CostModel(float(sec["K"]), float(sec["c_unit"]), holding)


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


def _prior_atom(errors: list[str], i: int, atom) -> tuple | None:
    """Atom ``i`` of the pomdp prior as a (state, mass) pair, or None with its errors listed."""
    if not (isinstance(atom, list) and len(atom) == 2):
        errors.append(f"pomdp: prior[{i}] must be a [state, prob] pair, got {atom!r}")
        return None
    x = _number(errors, f"pomdp: prior[{i}] state", atom[0], float)
    p = _number(errors, f"pomdp: prior[{i}] prob", atom[1], float)
    return None if x is None or p is None else (x, p)


@dataclass
class SolverParams:
    alpha: float
    eps: float
    horizon: int
    ladder: tuple


@dataclass
class RunConfig:
    demand: DemandDistribution
    cost: CostModel
    grid_lo: float
    grid_hi: float
    a_max: float
    dynamics: Dynamics
    solver: SolverParams
    mass_tol: float
    seed: int | None
    sim_x0: float
    sim_reps: int
    sim_horizon: int | None
    pomdp_containers: list | None
    pomdp_prior: list | None
    pomdp_horizon: int
    pomdp_max_nodes: int
    output: str | None
    raw: dict

    def build_mdp(self) -> GridMDP:
        return make_inventory_mdp(
            self.cost, self.demand, self.grid_lo, self.grid_hi, self.a_max,
            self.dynamics, mass_tol=self.mass_tol,
        )


def load_config(path) -> RunConfig:
    """Parse and validate a config file, reporting every problem at once.

    Scalars are converted and range-tested through ``FIELDS``.  Every
    structural rule is checked by the constructor that owns it (demand law,
    cost model, grid lattice, ladder, container partition, prior belief), run
    here on the config's own lattice, so a config that loads builds cleanly.
    """
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
    sec = {"": raw}
    for name in ("demand", "cost", "grid", "actions", "solver", "sim", "pomdp"):
        sec[name] = _section(errors, raw, name, required=name in ("demand", "cost"))
    val = {}
    for (name, key), (_, default, _, _) in FIELDS.items():
        if sec[name] is not None and key in sec[name]:
            val[name, key] = _field(errors, name, key, sec[name][key])
            continue
        if sec[name] is not None and default is REQUIRED:
            errors.append(f"{name}: {key} missing")
        val[name, key] = None if default is REQUIRED else default

    demand = _build(errors, "demand", _demand, sec["demand"]) if sec["demand"] is not None else None
    cost = _build(errors, "cost", _cost, sec["cost"]) if sec["cost"] is not None else None
    lo, hi, a_max = val["grid", "lo"], val["grid", "hi"], val["actions", "a_max"]
    grid = None
    if lo is not None and hi is not None:
        if not lo < hi:
            errors.append("grid: needs lo < hi")
        elif demand is not None:
            grid = _build(errors, "grid", _lattice, lo, hi, demand.step)
    if demand is not None and val["grid", "step"] is not None and not abs(val["grid", "step"] - demand.step) <= 1e-12:
        errors.append("grid: step must match demand step")

    def on_lattice(label: str, x: float, points: np.ndarray, where: str) -> None:
        if _lattice_index(points, x, demand.step) is None:
            errors.append(f"{label} {x!r} is not on the {where} at step {demand.step}")

    if demand is not None and a_max is not None:
        # build_mdp's action lattice tops out at the multiple of the step nearest a_max
        on_lattice("actions: a_max", a_max, np.array([demand.step * np.rint(a_max / demand.step)]), "action lattice")
    if grid is not None and val["sim", "x0"] is not None and "x0" in (sec["sim"] or {}):
        on_lattice("sim: x0", val["sim", "x0"], grid, f"grid [{lo}, {hi}]")

    dyn_name = raw.get("dynamics", "backorder")  # custom dynamics are not configurable from file
    dynamics = next((d for d in Dynamics if d.value == dyn_name and d is not Dynamics.CUSTOM), None)
    if dynamics is None:
        errors.append(f"dynamics: unknown kind {dyn_name!r}")

    ladder = (sec["solver"] or {}).get("ladder", average_cost.DEFAULT_LADDER)
    if not isinstance(ladder, (list, tuple)):
        errors.append(f"solver: ladder must be a list of discount factors, got {ladder!r}")
    else:
        ladder = [_number(errors, f"solver: ladder[{i}]", v, float) for i, v in enumerate(ladder)]
        if None not in ladder:
            ladder = _build(errors, "solver", average_cost.check_ladder, ladder)

    containers = prior = None
    if raw.get("pomdp") is not None and sec["pomdp"] is not None:
        entries, atoms = sec["pomdp"].get("containers"), sec["pomdp"].get("prior")
        if not (isinstance(entries, list) and entries):
            errors.append("pomdp: needs a containers list")
        else:
            containers = [_container(errors, i, c) for i, c in enumerate(entries)]
            if grid is not None and None not in containers:
                _build(errors, "pomdp", ContainerPartition, containers, grid, demand.step)
        if not (isinstance(atoms, list) and atoms):
            errors.append("pomdp: needs a prior")
        else:
            prior = [_prior_atom(errors, i, atom) for i, atom in enumerate(atoms)]
            if grid is not None and None not in prior:
                _build(errors, "pomdp", make_belief, prior, grid)

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        errors.append(f"output: must be a directory path, got {output!r}")

    if errors:
        raise ValidationErrors(errors)

    return RunConfig(
        demand=demand,
        cost=cost,
        grid_lo=lo,
        grid_hi=hi,
        a_max=a_max if a_max is not None else hi - lo,
        dynamics=dynamics,
        solver=SolverParams(val["solver", "alpha"], val["solver", "eps"], val["solver", "horizon"], ladder),
        mass_tol=val["", "mass_tol"],
        seed=val["", "seed"],
        sim_x0=val["sim", "x0"],
        sim_reps=val["sim", "reps"],
        sim_horizon=val["sim", "horizon"],
        pomdp_containers=containers,
        pomdp_prior=prior,
        pomdp_horizon=val["pomdp", "horizon"],
        pomdp_max_nodes=val["pomdp", "max_nodes"],
        output=output,
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
    x0, reps, N = config.sim_x0, config.sim_reps, config.sim_horizon
    max_cost = float(mdp.cost[np.isfinite(mdp.cost)].max())
    if N is None and (alpha == 0.0 or max_cost == 0.0):
        N = 1
    elif N is None:  # truncate once the geometric tail is below eps
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
    part = ContainerPartition(config.pomdp_containers, mdp.grid, mdp.step)
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
    reps = config.sim_reps
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
    if seed is None:
        seed = config.seed
        if command in SIM_COMMANDS and seed is None:
            errors.append(f"{command}: a seed is required for simulation")
    else:
        seed = _field(errors, "", "seed", seed)
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
