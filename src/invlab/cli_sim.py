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
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import average_cost, policy_structure
from .costs import CostModel, HoldingCost, regime_constants
from .demand import DemandDistribution, _lattice_index, _lattice_offsets, from_atoms, quantize
from .dp_core import (
    Dynamics,
    GridMDP,
    _backup_mask,
    _lattice,
    _window_min,
    finite_horizon_vi,
    infinite_horizon_vi,
    make_inventory_mdp,
)
from .errors import InvLabError, ValidationErrors
from .pomdp import (
    Container,
    ContainerPartition,
    belief_value_iteration,
    make_belief,
    pomdp_simulate,
    replication_uniforms,
    summarize_samples,
)

REPORT_SCHEMA = "invctl-report/1"

SIM_COMMANDS = {"simulate", "pomdp-simulate"}

MAX_NESTING = 32  # list and object levels a config may nest; a valid one nests 4
CSV_CHUNK = 8192  # rows write_csv formats at a time: Python objects for a few thousand cells, never a whole column


REQUIRED = object()  # default of a field that must be given, and the value read for it when it is absent

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

# The keys each JSON object of a config may hold: the top level (""), each section, cost.holding and a pomdp container.
KEYS = {
    "": "demand cost grid actions dynamics solver sim pomdp mass_tol seed output",
    "demand": "step atoms cdf", "cost": "K c_unit holding", "holding": "breakpoints slopes", "grid": "lo hi step",
    "actions": "a_max", "solver": "alpha eps horizon ladder", "sim": "x0 reps horizon",
    "pomdp": "containers prior horizon max_nodes", "container": "lo hi transparent rep",
}


def _number(errors: list[str], label: str, value, kind):
    """The JSON number ``value`` as ``kind`` (``int`` or ``float``), or None with an error listed under ``label``."""
    try:
        out = None if isinstance(value, (bool, str)) else kind(value)
    except (TypeError, ValueError, OverflowError):  # REQUIRED too
        out = None
    if out is None or (kind is int and isinstance(value, float) and out != value):
        want = f"must be {'an integer' if kind is int else 'a number'}, got {value!r}"
        errors.append(f"{label} {'missing' if value is REQUIRED else want}")
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


def _closed(errors: list[str], label: str, obj: dict, keys: str, path: str = "") -> None:
    """List each key of ``obj`` outside ``KEYS[keys]`` as "<label>: unknown key '<path><key>'"."""
    errors.extend(f"{label}: unknown key {path + k!r}" for k in obj if k not in KEYS[keys].split())


def _section(errors: list[str], raw: dict, name: str, *, required: bool = False) -> dict | None:
    """Section ``name`` of the config, ``{}`` when an optional one is absent, or None with an error listed."""
    sec = raw.get(name, REQUIRED if required else {})
    if isinstance(sec, dict):
        _closed(errors, name, sec, name)
        return sec
    errors.append(f"{name}: section missing" if sec is REQUIRED else f"{name}: must be a JSON object, got {sec!r}")
    return None


def _numbers(errors: list[str], label: str, values) -> list[float] | None:
    """The JSON list ``values`` as floats, or None with an error listed for it or for each entry that is not a number."""
    if not isinstance(values, list):
        errors.append(f"{label} missing" if values is REQUIRED else f"{label} must be a list of numbers, got {values!r}")
        return None
    out = [_number(errors, f"{label}[{i}]", v, float) for i, v in enumerate(values)]
    return None if None in out else out


def _pair(errors: list[str], label: str, first: str, atom) -> tuple | None:
    """The entry ``label`` as a ``[first, prob]`` pair of floats, or None with its errors listed."""
    if not (isinstance(atom, list) and len(atom) == 2):
        errors.append(f"{label} must be a [{first}, prob] pair, got {atom!r}")
        return None
    x = _number(errors, f"{label} {first}", atom[0], float)
    p = _number(errors, f"{label} prob", atom[1], float)
    return None if x is None or p is None else (x, p)


def _demand(errors: list[str], sec: dict) -> DemandDistribution | None:
    kind = "atoms" if "atoms" in sec else "cdf"
    if sec.get("step") is None or ("atoms" in sec) == ("cdf" in sec):
        raise ValueError("needs a step and one of an 'atoms' or a 'cdf' array")
    step = _number(errors, "demand: step", sec["step"], float)
    if not isinstance(sec[kind], list):
        errors.append(f"demand: {kind} must be a list of [value, prob] pairs, got {sec[kind]!r}")
        return None
    pairs = [_pair(errors, f"demand: {kind}[{i}]", "value", atom) for i, atom in enumerate(sec[kind])]
    if step is None or None in pairs:
        return None
    return (from_atoms if kind == "atoms" else quantize)(pairs, step)


def _cost(errors: list[str], sec: dict) -> CostModel | None:
    K, c_unit = (_number(errors, f"cost: {key}", sec.get(key, REQUIRED), float) for key in ("K", "c_unit"))
    h = sec.get("holding", REQUIRED)
    if not isinstance(h, dict):
        errors.append("cost: holding missing" if h is REQUIRED else f"cost: holding must be a JSON object, got {h!r}")
        return None
    _closed(errors, "cost", h, "holding", "holding.")
    breakpoints, slopes = (_numbers(errors, f"cost: holding.{key}", h.get(key, REQUIRED)) for key in ("breakpoints", "slopes"))
    if None in (K, c_unit, breakpoints, slopes):
        return None
    return CostModel(K, c_unit, HoldingCost(breakpoints, slopes))


def _container(errors: list[str], i: int, entry) -> Container | None:
    """Container ``i`` of the pomdp section, or None with its errors listed."""
    label = f"pomdp: containers[{i}]"
    if isinstance(entry, dict):
        _closed(errors, "pomdp", entry, "container", f"containers[{i}].")
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


def _nesting(raw) -> int:
    """List and object levels of parsed JSON, counted level by level without recursion; stops past ``MAX_NESTING``."""
    depth, level = 0, [raw] if isinstance(raw, (dict, list)) else []
    while level and depth <= MAX_NESTING:
        depth += 1
        level = [c for o in level for c in (o.values() if isinstance(o, dict) else o) if isinstance(c, (dict, list))]
    return depth


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
    partition: ContainerPartition | None  # built on the lattice of build_mdp's grid
    prior: np.ndarray | None
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
    here on the config's own lattice, so a config that loads builds cleanly;
    the partition and prior built here are the ones the pomdp commands use.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvLabError("PARSE_ERROR", f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvLabError("PARSE_ERROR", f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvLabError("PARSE_ERROR", f"{path} nests too deeply to parse: {exc}") from exc
    if _nesting(raw) > MAX_NESTING:  # the report echoes the config, and serializing it recurses
        raise InvLabError("PARSE_ERROR", f"{path} nests deeper than {MAX_NESTING} levels")

    if not isinstance(raw, dict):
        raise ValidationErrors([f"config: must be a JSON object, got {raw!r}"])
    errors: list[str] = []
    _closed(errors, "config", raw, "")
    sec = {"": raw}
    for name in ("demand", "cost", "grid", "actions", "solver", "sim", "pomdp"):
        sec[name] = _section(errors, raw, name, required=name in ("demand", "cost"))
    val = {}
    for (name, key), (_, default, _, _) in FIELDS.items():
        if sec[name] is not None and (key in sec[name] or default is REQUIRED):
            val[name, key] = _field(errors, name, key, sec[name].get(key, REQUIRED))
        else:
            val[name, key] = None if default is REQUIRED else default

    demand = _build(errors, "demand", _demand, errors, sec["demand"]) if sec["demand"] is not None else None
    cost = _build(errors, "cost", _cost, errors, sec["cost"]) if sec["cost"] is not None else None
    lo, hi, a_max = val["grid", "lo"], val["grid", "hi"], val["actions", "a_max"]
    grid = None
    if lo is not None and hi is not None:
        if not lo < hi:
            errors.append("grid: needs lo < hi")
        elif demand is not None:
            if a_max is not None and not _lattice_offsets(a_max, demand.step)[1]:
                errors.append(f"actions: a_max {a_max!r} is not on the action lattice at step {demand.step}")
            # built from the nearest lattice cap, so an off-lattice a_max still leaves a grid for the checks below
            a_cap = np.rint((hi - lo if a_max is None else a_max) / demand.step) * demand.step
            lattices = _build(errors, "grid", _lattice, lo, hi, demand.step, a_cap)
            grid = lattices[0] if lattices else None
    if demand is not None and val["grid", "step"] is not None and not abs(val["grid", "step"] - demand.step) <= 1e-12:
        errors.append("grid: step must match demand step")

    x0 = val["sim", "x0"]
    if grid is not None and x0 is not None and "x0" in (sec["sim"] or {}) and _lattice_index(grid, x0, demand.step) < 0:
        errors.append(f"sim: x0 {x0!r} is not on the grid [{lo}, {hi}] at step {demand.step}")

    dyn_name = raw.get("dynamics", "backorder")
    dynamics = next((d for d in Dynamics if d.value == dyn_name), None)
    if dynamics is None:
        errors.append(f"dynamics: unknown kind {dyn_name!r}")

    ladder = (sec["solver"] or {}).get("ladder", average_cost.DEFAULT_LADDER)
    if not isinstance(ladder, (list, tuple)):
        errors.append(f"solver: ladder must be a list of discount factors, got {ladder!r}")
    else:
        ladder = [_number(errors, f"solver: ladder[{i}]", v, float) for i, v in enumerate(ladder)]
        if None not in ladder:
            ladder = _build(errors, "solver", average_cost.check_ladder, ladder)

    partition = prior = None
    if "pomdp" in raw and sec["pomdp"] is not None:
        entries, atoms = sec["pomdp"].get("containers"), sec["pomdp"].get("prior")
        if not (isinstance(entries, list) and entries):
            errors.append("pomdp: needs a containers list")
        else:
            containers = [_container(errors, i, c) for i, c in enumerate(entries)]
            if grid is not None and None not in containers:
                partition = _build(errors, "pomdp", ContainerPartition, containers, grid, demand.step)
        if not (isinstance(atoms, list) and atoms):
            errors.append("pomdp: needs a prior")
        else:
            pairs = [_pair(errors, f"pomdp: prior[{i}]", "state", atom) for i, atom in enumerate(atoms)]
            if grid is not None and None not in pairs:
                prior = _build(errors, "pomdp", make_belief, pairs, grid)

    output = raw.get("output")
    if "output" in raw and not isinstance(output, str):
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
        partition=partition,
        prior=prior,
        pomdp_horizon=val["pomdp", "horizon"],
        pomdp_max_nodes=val["pomdp", "max_nodes"],
        output=output,
        raw=raw,
    )


# ---------------------------------------------------------------------------
# deterministic serialization

def _cell(v) -> str:
    if isinstance(v, (np.floating, float)):
        return repr(float(v))  # shortest round-trip digits; inf, -inf and nan as such
    if isinstance(v, (np.integer, np.bool_, int)):  # a bool, numpy's too, as 1 or 0
        return str(int(v))
    return str(v)


def _cells(column):
    """``map(_cell, column)``; an integer or float array is rendered in bulk, to the same text."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iuf" and column.itemsize <= 8:  # not longdouble
        return map(repr, column.tolist())  # Python ints and floats, whose repr is _cell's text
    return map(_cell, column)


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write ``header`` and one line per row of ``columns``, equal-length sequences, ``CSV_CHUNK`` rows at a time."""
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]) if columns else 0, CSV_CHUNK):
            rows = zip(*(_cells(column[lo:lo + CSV_CHUNK]) for column in columns))
            f.write("\n".join(map(",".join, rows)) + "\n")


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

    def to_json(self) -> str:
        payload = {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "inputs": _jsonable(self.inputs),
            "outputs": _jsonable(self.outputs),
            "warnings": _jsonable(self.warnings),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _mdp_warnings(mdp: GridMDP) -> list:
    warnings = []
    # clamping matters only where the pair is actually usable
    usable = (mdp.mass_loss > 0) & mdp.finite_pairs()
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


def _write_policy(out: Path, mdp: GridMDP, optimal: np.ndarray) -> None:
    """``policy.csv``: each state's smallest optimal action and optimal-action set, one row per row of the mask."""
    names = list(_cells(mdp.actions))
    entries = map(names.__getitem__, np.nonzero(optimal)[1].tolist())  # row by row
    sets = [";".join(itertools.islice(entries, k)) for k in optimal.sum(axis=1).tolist()]
    columns = [mdp.grid[:len(sets)], mdp.actions[optimal.argmax(axis=1)], sets]
    write_csv(out / "policy.csv", ["x", "action", "argmin_set"], columns)


def _cap_warnings(mdp: GridMDP, optimal: np.ndarray) -> list:
    cap = float(mdp.actions[-1])
    binding = np.nonzero(optimal[:, -1])[0]
    return [{"kind": "a_max_binding", "state": float(mdp.grid[i]), "action": cap} for i in binding]


# ---------------------------------------------------------------------------
# policy simulation

def simulate_policy(mdp: GridMDP, phi: np.ndarray, x0: float, N: int, alpha: float, reps: int, seed: int):
    """Roll out the stationary policy with action indices ``phi``; returns (discounted, running-average) summaries.

    Replication ``r`` consumes ``N`` uniform draws from a counter-based
    stream keyed by ``(seed, r)``; shocks are realized by inverse transform
    through the transition tables, so the path law is exactly the row law.
    Inversion counts the interior CDF points below each scaled draw: exactly
    ``searchsorted(cum, u * cum[-1])``, ties included.  Replications evolve
    in lockstep, one block of about 4 MiB of draws at a time, so memory is
    one block (draws, and one-byte shock counts up to 255 atoms, twice) plus
    O(reps); the per-replication streams make the result independent of that layout.
    """
    cost_phi, succ_phi = mdp.policy_rows(phi)
    n_atoms = mdp.shock_probs.size
    cum = np.cumsum(mdp.shock_probs)
    if N == 0:
        zeros = np.zeros(reps)
        return summarize_samples(zeros), summarize_samples(zeros.copy())
    x_start = mdp.state_index(x0)
    succ_flat = succ_phi.ravel()  # successor of state x under shock k at x * n_atoms + k
    disc = np.zeros(reps)
    total = np.zeros(reps)
    block = max(1, 2**19 // N)
    for first in range(0, reps, block):
        m = min(block, reps - first)
        u = replication_uniforms(seed, m, N, first=first)
        u *= cum[-1]  # u < 1, so u * cum[-1] <= cum[-1] and no draw lies above the last point
        counts = np.zeros((m, N), np.min_scalar_type(n_atoms))
        for c in cum[:-1]:
            counts += u > c
        shocks = counts.T.copy()  # (N, m): shocks[t] is one contiguous row per step
        x = np.full(m, x_start)
        d = disc[first:first + m]
        s = total[first:first + m]
        power = 1.0
        for t in range(N):
            step_cost = cost_phi.take(x)
            d += power * step_cost
            s += step_cost
            x = succ_flat.take(x * n_atoms + shocks[t])
            power *= alpha
        del u, counts, shocks  # before the next block is drawn
    return summarize_samples(disc), summarize_samples(total / N)


# ---------------------------------------------------------------------------
# command implementations

def _thresholds(config: RunConfig, mdp: GridMDP, v: np.ndarray, alpha: float):
    """``(s, S, None)`` read off the G-function of ``v``, or ``(-inf, -inf, message)`` when the grid cuts it off."""
    g = policy_structure.g_function(mdp, v, alpha, config.cost)
    try:
        return (*policy_structure.extract_sS(g, mdp.grid, config.cost.K), None)
    except InvLabError as exc:
        return -math.inf, -math.inf, str(exc)


# A handler takes (config, mdp, out, seed) and returns (outputs, warnings); run() puts the MDP's warnings first.
def _run_solve_finite(config: RunConfig, mdp: GridMDP, out: Path, seed):
    alpha, N = config.solver.alpha, config.solver.horizon
    values = finite_horizon_vi(mdp, N, alpha, np.zeros(mdp.n_states))
    optimal = _backup_mask(mdp, values[N - 1], alpha)[1] if N > 0 else np.zeros((0, mdp.n_actions), dtype=bool)
    write_csv(out / "values.csv", ["x", "v"], [mdp.grid, values[N]])
    _write_policy(out, mdp, optimal)
    rows = [(t, *_thresholds(config, mdp, v, alpha)[:2]) for t, v in enumerate(values[:-1])]
    write_csv(out / "thresholds.csv", ["t", "s", "S"], list(zip(*rows)))
    outputs = {"horizon": N, "alpha": alpha, "v_at_grid_min": float(values[N, 0])}
    return outputs, _cap_warnings(mdp, optimal)


def _run_solve_discounted(config: RunConfig, mdp: GridMDP, out: Path, seed):
    alpha, eps = config.solver.alpha, config.solver.eps
    sol = infinite_horizon_vi(mdp, alpha, eps)
    write_csv(out / "values.csv", ["x", "v"], [mdp.grid, sol.values])
    _write_policy(out, mdp, sol.optimal)
    outputs = {
        "alpha": alpha,
        "eps": eps,
        "iterations": sol.iterations,
        "residual": sol.residual,
    }
    s_a, S_a, error = _thresholds(config, mdp, sol.values, alpha)
    if error is None:
        outputs["s_alpha"], outputs["S_alpha"] = s_a, S_a
    else:
        outputs["thresholds_error"] = error
    return outputs, _cap_warnings(mdp, sol.optimal)


def _run_solve_average(config: RunConfig, mdp: GridMDP, out: Path, seed):
    ladder = average_cost.solve_ladder(mdp, config.solver.ladder, config.solver.eps)
    rates, x_set = ladder.rates(), ladder.minimizers
    x_lo, x_hi = np.where(x_set, mdp.grid, np.inf).min(axis=1), np.where(x_set, mdp.grid, -np.inf).max(axis=1)
    header = ["alpha", "m_alpha", "one_minus_alpha_m", "X_alpha_lo", "X_alpha_hi"]
    write_csv(out / "ladder.csv", header, [ladder.alphas, ladder.m, rates, x_lo, x_hi])
    rv = average_cost.relative_value(ladder)
    ties = average_cost.greedy_policy(mdp, rv.u)
    phi = ties.argmax(axis=1)
    slack_lower = average_cost.check_optimality_inequality(mdp, rv.u, rv.w_lower, phi)
    slack_upper = average_cost.check_optimality_inequality(mdp, rv.u, rv.w_upper, phi)
    _write_policy(out, mdp, ties)
    diag = average_cost.assumption_B_diagnostic(ladder, config.cost)
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
    return outputs, []


def _run_classify(config: RunConfig, mdp: None, out: Path, seed):
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
    return outputs, []


def _run_verify_structure(config: RunConfig, mdp: GridMDP, out: Path, seed):
    alpha, N = config.solver.alpha, config.solver.horizon
    values = finite_horizon_vi(mdp, N, alpha, np.zeros(mdp.n_states))
    g_seq = [policy_structure.g_function(mdp, values[t], alpha, config.cost) for t in range(N)]
    ps = policy_structure.classify_regime(config.cost, alpha)
    plan = policy_structure.predict_finite_horizon(ps, N)
    report = policy_structure.verify_structure(plan, values, g_seq, mdp, config.cost.K, alpha)
    rows = [(t, x, a, ";".join(_cell(v) for v in s)) for t, x, a, s in report.violations]
    write_csv(out / "violations.csv", ["t", "x", "predicted_action", "argmin_set"], list(zip(*rows)))
    print((out / "violations.csv").read_text(), end="")
    outputs = {
        "regime": ps.regime.value,
        "violations": len(report.violations),
        "steps_checked": report.steps_checked,
        "states_checked": report.states_checked,
        "thresholds": [list(t) if t else None for t in report.thresholds],
    }
    return outputs, []


def _run_simulate(config: RunConfig, mdp: GridMDP, out: Path, seed: int):
    alpha, eps = config.solver.alpha, config.solver.eps
    sol = infinite_horizon_vi(mdp, alpha, eps)
    x0, reps, N = config.sim_x0, config.sim_reps, config.sim_horizon
    # the largest finite one-step cost: per action, its order cost plus the largest finite L of the levels it reaches
    max_cost = float(np.max(mdp._order - _window_min(np.where(np.isfinite(mdp.L), -mdp.L, np.inf), mdp.n_states)))
    if N is None and (alpha == 0.0 or max_cost == 0.0):
        N = 1
    elif N is None:  # truncate once the geometric tail is below eps
        N = max(1, int(math.ceil(math.log(eps * (1 - alpha) / max_cost) / math.log(alpha))))
    disc, avg = simulate_policy(mdp, sol.optimal.argmax(axis=1), x0, N, alpha, reps, seed)
    write_csv(out / "samples.csv", ["rep", "discounted", "running_average"], [np.arange(reps), disc.samples, avg.samples])
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
    return outputs, []


def _solve_pomdp(config: RunConfig, mdp: GridMDP):
    return belief_value_iteration(
        mdp, config.partition, config.prior, config.pomdp_horizon, config.solver.alpha,
        max_nodes=config.pomdp_max_nodes,
    )


def _run_pomdp_solve(config: RunConfig, mdp: GridMDP, out: Path, seed):
    sol = _solve_pomdp(config, mdp)
    outputs = {
        "value": sol.value,
        "root_actions": mdp.actions[sol.optimal[sol.root]].tolist(),
        "horizon": sol.horizon,
        "nodes": sol.node_count,
    }
    (out / "pomdp_solution.json").write_text(json.dumps(_jsonable(outputs), sort_keys=True, indent=2) + "\n")
    return outputs, []


def _run_pomdp_simulate(config: RunConfig, mdp: GridMDP, out: Path, seed: int):
    sol = _solve_pomdp(config, mdp)
    reps = config.sim_reps
    result = pomdp_simulate(mdp, config.partition, sol, config.prior, config.pomdp_horizon, reps, seed, config.solver.alpha)
    write_csv(out / "samples.csv", ["rep", "discounted"], [np.arange(reps), result.samples])
    outputs = {
        "tree_value": sol.value,
        "reps": reps,
        "mean": result.mean,
        "ci_low": result.ci_low,
        "ci_high": result.ci_high,
    }
    return outputs, []


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
    """Run one command: build its MDP once, write its artifacts and ``report.json``; returns the report."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    errors = []
    if command.startswith("pomdp") and config.partition is None:
        errors.append(f"{command}: config has no pomdp section")
    if seed is None:
        seed = config.seed
        if command in SIM_COMMANDS and seed is None:
            errors.append(f"{command}: a seed is required for simulation")
    else:
        seed = _field(errors, "", "seed", seed)
    step = config.demand.step
    if command == "simulate" and _lattice_index(_lattice(config.grid_lo, config.grid_hi, step)[0], config.sim_x0, step) < 0:
        errors.append(f"sim: x0 {config.sim_x0!r} is not on the grid [{config.grid_lo}, {config.grid_hi}] at step {step}")
    out = Path(out_dir) if out_dir is not None else Path(config.output or ".")
    if not errors:  # a run that fails validation leaves no directory behind
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            errors.append(f"output: cannot create directory {out}: {exc.strerror}")
    if errors:
        raise ValidationErrors(errors)
    mdp = None if command == "classify" else config.build_mdp()
    outputs, warnings = COMMANDS[command](config, mdp, out, seed)
    report = RunReport(command, config.raw, outputs, ([] if mdp is None else _mdp_warnings(mdp)) + warnings)
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
    except MemoryError as exc:  # an array too large for this machine
        print(f"solver error: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an artifact that cannot be written
        print(f"error: output: cannot write {exc.filename or 'an artifact'}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
