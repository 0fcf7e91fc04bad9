"""Brute-force oracles that the tests check the package against.

Each restates from its definition something the package computes another
way: the growth condition behind ``alpha_star < 0``, K-convexity, the
horizon profile whose tail flip defines ``N_alpha``, the recurring limits of
a threshold sequence, the long-run average of a stationary policy, and the
transition law and Bayes filter of the belief MDP, one belief at a time.
``successors`` and ``dense_rows`` build the transition law from the dynamics
alone and read no table of a ``GridMDP``, so they check its level table too;
``cost_table`` tabulates a per-pair cost for ``build_mdp``.
Test modules import them with ``from oracles import ...``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from invlab.costs import INEQ_TOL, CostModel, expected_holding
from invlab.demand import DemandDistribution, _lattice_index, _lattice_offsets, convolve_power
from invlab.dp_core import Dynamics, GridMDP
from invlab.errors import InvLabError
from invlab.pomdp import ContainerPartition, validate_belief


@dataclass(frozen=True)
class GBResult:
    holds: bool
    witness: tuple[float, float] | None


def check_GB(c: CostModel, d: DemandDistribution, probe_range: tuple[float, float] | None = None) -> GBResult:
    """Search for a lattice pair ``z < y`` with slope of ``E h(. - D)`` below ``-c_unit``.

    Existence of such a pair says that deep backlog accrues cost faster than
    ordering out of it could ever pay back, which is exactly when threshold
    structure holds for every discount factor.  Returns the leftmost witness
    pair when the condition holds.  The probe window runs from ``lo`` to
    ``hi`` of ``probe_range``; ValueError when ``hi`` is not on the lattice
    from ``lo``.
    """
    step = d.step
    if probe_range is None:
        lo = -10.0 * (d.max_value + 1.0) - d.max_value
        probe_range = (math.floor(lo / step) * step, 0.0)
    lo, hi = probe_range
    k, on = _lattice_offsets(hi, step, lo)
    if not on:
        raise ValueError(f"hi {hi} is not on the lattice from lo {lo} at step {step}")
    if k < 0:
        raise ValueError(f"probe range ({lo}, {hi}) has hi below lo")
    n = int(k) + 1
    xs = lo + step * np.arange(n)
    xs[-1] = hi
    eh = expected_holding(c.holding, xs, d)
    # slope(i, j) for i < j, strictly below -c_unit with a roundoff margin
    for i in range(n - 1):
        gaps = xs[i + 1 :] - xs[i]
        slopes = (eh[i + 1 :] - eh[i]) / gaps
        hits = np.nonzero(slopes < -c.c_unit - INEQ_TOL)[0]
        if hits.size:
            j = i + 1 + int(hits[0])
            return GBResult(True, (float(xs[i]), float(xs[j])))
    return GBResult(False, None)


@dataclass(frozen=True)
class KConvexityResult:
    ok: bool
    violation: tuple[int, int, int] | None  # grid indices (x, m, y) of the first failure
    slack: float  # most negative margin encountered (0 when convex comfortably)


def is_K_convex(g: np.ndarray, K: float) -> KConvexityResult:
    """Brute-force K-convexity over all lattice triples ``x < m < y``.

    Checks ``g(m) <= (1-lam) g(x) + lam g(y) + lam K`` with
    ``lam = (m-x)/(y-x)`` for every triple of grid indices.  Cubic in the
    grid size, which is fine at desk scale and matches the definition
    exactly.  Every row is scanned, so ``slack`` is the deepest violation
    even when ``violation`` is an earlier, shallower one.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 1 or g.size < 3:
        return KConvexityResult(True, None, 0.0)
    if K < 0:
        raise ValueError(f"K must be nonnegative, got {K}")
    n = g.size
    worst = 0.0
    first = None
    idx = np.arange(n)
    for ix in range(n - 2):
        ms = idx[ix + 1 : n - 1]
        ys = idx[ix + 2 :]
        lam = (ms[:, None] - ix) / (ys[None, :] - ix)  # rows m, cols y
        margin = (1.0 - lam) * g[ix] + lam * g[ys][None, :] + lam * K - g[ms][:, None]
        margin = np.where(ys[None, :] > ms[:, None], margin, np.inf)
        bad = margin < -INEQ_TOL
        if bad.any():
            if first is None:
                m_off, y_off = np.argwhere(bad)[0]
                first = (ix, int(ms[m_off]), int(ys[y_off]))
            worst = min(worst, float(margin[bad].min()))
    return KConvexityResult(first is None, first, worst)


def f_t_alpha(c: CostModel, d: DemandDistribution, t: int, alpha: float, x):
    """Horizon cost profile ``c_unit*x + sum_{i<=t} alpha^i E h(x - S_{i+1})``.

    ``S_i`` is the i-fold demand sum.  The left tail of this function flips
    from flat to increasing exactly at ``t = N_alpha``, which is what the
    regime classifier keys on.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    total = c.c_unit * x_arr.astype(float).copy()
    for i in range(t + 1):
        s = convolve_power(d, i + 1)
        total = total + alpha**i * expected_holding(c.holding, x_arr, s)
    return float(total[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else total


@dataclass
class ThresholdLimitReport:
    envelope: tuple  # (s_min, s_max, S_min, S_max)
    candidates: list  # recurring tail pairs, in order of first appearance


def threshold_limits(pairs: list[tuple[float, float]]) -> ThresholdLimitReport:
    """Envelope and recurring tail values of a threshold sequence.

    On a lattice the threshold sequence is eventually periodic or constant,
    so pairs recurring in the last third of the sequence stand in for its
    limit points; each such pair defines a stationary policy worth
    certifying against the infinite-horizon solve.  The pairs are grid
    values, as ``extract_sS`` returns them, so equal pairs are equal floats.
    """
    if not pairs:
        raise ValueError("need at least one threshold pair")
    arr = np.asarray(pairs, dtype=float)
    envelope = (
        float(arr[:, 0].min()),
        float(arr[:, 0].max()),
        float(arr[:, 1].min()),
        float(arr[:, 1].max()),
    )
    tail = [(float(s), float(S)) for s, S in arr[-max(len(pairs) // 3, 1):]]
    candidates = [pair for pair in dict.fromkeys(tail) if tail.count(pair) >= 2]
    if not candidates and len(tail) == 1:
        candidates = tail
    return ThresholdLimitReport(envelope, candidates)


def long_run_average(mdp: GridMDP, phi: np.ndarray, N: int) -> np.ndarray:
    """Time-averaged cost of a stationary policy over ``N`` undiscounted steps.

    Exact policy evaluation by backward recursion; returns the per-start-state
    average ``v_N / N``, which converges to the long-run rate as the horizon
    grows.
    """
    if N < 1:
        raise ValueError(f"horizon must be positive, got {N}")
    phi_idx = mdp.action_index(phi)
    if not np.all(np.isfinite(mdp.policy_rows(phi_idx)[0])):
        raise ValueError("policy takes an infeasible action")
    v = np.zeros(mdp.n_states)
    for _ in range(N):
        v = mdp.policy_backup(phi_idx, v)
    return v / N


def successors(grid: np.ndarray, actions: np.ndarray, demand: DemandDistribution, dynamics: Dynamics) -> np.ndarray:
    """Grid indices ``(n, n_a, n_atoms)`` of the next state of every (state, action, demand atom).

    The next state is ``x + a - d`` for backorder and ``max(x + a - d, 0)``
    for lost sales, clamped onto the nearer grid edge.
    """
    lo, step, n = float(grid[0]), float(grid[1] - grid[0]), grid.size
    succ = np.empty((n, actions.size, demand.values.size), dtype=np.int64)
    for i, x in enumerate(grid):
        for j, a in enumerate(actions):
            for k, d in enumerate(demand.values):
                y = x + a - d
                if dynamics is Dynamics.LOST_SALES:
                    y = max(y, 0.0)
                succ[i, j, k] = min(max(round((y - lo) / step), 0), n - 1)
    return succ


def dense_rows(grid: np.ndarray, actions: np.ndarray, demand: DemandDistribution, dynamics: Dynamics) -> np.ndarray:
    """The ``(n, n_a, n)`` transition law: each atom adds its probability to its successor, atoms in order."""
    law = np.zeros((grid.size, actions.size, grid.size))
    for (i, j, k), y in np.ndenumerate(successors(grid, actions, demand, dynamics)):
        law[i, j, y] += demand.probs[k]
    return law


def cost_table(fn, lo: float, hi: float, a_max: float, step: float = 1.0) -> np.ndarray:
    """The ``(n, n_a)`` table of ``fn(x, a)`` over the states ``lo, lo + step, ..., hi`` and the actions ``0, step, ..., a_max``."""
    grid = lo + step * np.arange(round((hi - lo) / step) + 1)
    actions = step * np.arange(round(a_max / step) + 1)
    return np.array([[fn(float(x), float(a)) for a in actions] for x in grid], dtype=float)


def observe_psi(part: ContainerPartition, x: float) -> float:
    """Observation emitted by a hidden state: itself, or its container's representative."""
    i = _lattice_index(part.grid, x, part.step)
    if i < 0:
        raise ValueError(f"state {x} is not on the grid")
    return float(part.obs_values[part.state_obs[i]])


def _predictive(mdp: GridMDP, demand: DemandDistribution, z: np.ndarray, a: float) -> np.ndarray:
    """Next-state law of the belief ``z`` under the action ``a``."""
    return validate_belief(z) @ dense_rows(mdp.grid, mdp.actions, demand, mdp.dynamics)[:, mdp.action_index(a)]


def observation_marginal(mdp: GridMDP, part: ContainerPartition, demand: DemandDistribution, z: np.ndarray, a: float) -> np.ndarray:
    """Distribution of the next observation, aligned with ``part.obs_values``."""
    return np.bincount(part.state_obs, weights=_predictive(mdp, demand, z, a), minlength=part.n_obs)


def bayes_filter(mdp: GridMDP, part: ContainerPartition, demand: DemandDistribution, z: np.ndarray, a: float, obs_id: int) -> np.ndarray:
    """Posterior over states after acting and observing the observation id ``obs_id``.

    The predictive distribution restricted to the states consistent with the
    observation, renormalized.  Raises ``IMPOSSIBLE_OBSERVATION`` when the
    observation has zero predictive mass.
    """
    masked = np.where(part.state_obs == obs_id, _predictive(mdp, demand, z, a), 0.0)
    denom = float(masked.sum())
    if denom <= 0.0:
        raise InvLabError("IMPOSSIBLE_OBSERVATION", f"observation {part.obs_values[obs_id]} has zero probability under this belief")
    return masked / denom
