"""Threshold policies: G-functions, (s, S) extraction, regime prediction.

The order-up-to objective ``G(x) = c_unit x + E h(x - D) + alpha E v(x - D)``
drives everything here: its smallest minimizer is the order-up-to level S,
and s is the leftmost point whose cost is within the setup cost K of the
minimum.  The regime classifier decides, from the cost constants alone,
whether thresholds exist at every step, never, or only sufficiently far from
the end of the horizon; ``verify_structure`` then checks those predictions
against the solver's optimal-action masks, one step at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .costs import CostModel, N_alpha, regime_constants
from .demand import _lattice_index
from .dp_core import TIE_TOL, GridMDP, ValueSolution, infinite_horizon_vi  # noqa: F401  bench/test_bench.py checks the tracer wraps this binding
from .errors import InvLabError


class Regime(enum.Enum):
    GB_SS = "GB_SS"              # thresholds at every step, any discount factor
    HYBRID = "HYBRID"            # thresholds far from the horizon end, never-order near it
    NEVER_ORDER = "NEVER_ORDER"  # ordering never pays


@dataclass
class PolicyStructure:
    regime: Regime
    alpha_star: float
    n_alpha: float  # int count, or math.inf


def g_function(mdp: GridMDP, v: np.ndarray, alpha: float, c: CostModel) -> np.ndarray:
    """Order-up-to objective ``c_unit x + c(x, 0) + alpha E v(x - D)``; ``c(x, 0) = E h(x - D)`` on inventory MDPs."""
    return c.c_unit * mdp.grid + mdp.policy_backup(np.zeros(mdp.n_states, dtype=np.int64), v, alpha)


def extract_sS(g: np.ndarray, grid: np.ndarray, K: float) -> tuple[float, float]:
    """Thresholds from a grid function: S the smallest argmin, s the order trigger.

    ``s`` is the smallest grid point at or left of S whose value is within
    ``K`` of the minimum.  Raises ``GRID_TOO_NARROW`` when the argmin
    touches a grid edge, since then the true minimizer may sit outside the
    window.
    """
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("thresholds need finite values over the whole window")
    gmin = float(g.min())
    argmin_mask = g <= gmin + TIE_TOL
    if argmin_mask[0] or argmin_mask[-1]:
        raise InvLabError("GRID_TOO_NARROW", "argmin of the order-up-to objective touches the grid edge")
    s_idx_candidates = np.nonzero(g <= K + gmin + TIE_TOL)[0]
    S_idx = int(np.nonzero(argmin_mask)[0][0])
    s_idx = int(s_idx_candidates[0])  # leftmost, necessarily <= S_idx
    return float(grid[s_idx]), float(grid[S_idx])


def classify_regime(c: CostModel, alpha: float) -> PolicyStructure:
    """Regime from the cost constants alone (no solve needed)."""
    _, alpha_star = regime_constants(c)
    n_alpha = N_alpha(c, alpha)
    if alpha_star < 0:
        regime = Regime.GB_SS
    elif alpha <= alpha_star:
        regime = Regime.NEVER_ORDER
    else:
        regime = Regime.HYBRID
    return PolicyStructure(regime, alpha_star, n_alpha)


def predict_finite_horizon(ps: PolicyStructure, N: int) -> list:
    """Per-step prescription for an N-step problem with zero terminal values.

    Entry ``t`` is the G-function index ``N - t - 1`` when thresholds are
    prescribed at step ``t``, and ``None`` where the optimal policy never
    orders.  Steps whose index falls below ``n_alpha`` are never-order steps;
    in the growth regime ``n_alpha = 0`` so every step gets thresholds.
    """
    if N < 0:
        raise ValueError(f"horizon must be nonnegative, got {N}")
    if ps.regime is Regime.NEVER_ORDER:
        return [None] * N
    plan = []
    for t in range(N):
        g_idx = N - t - 1
        plan.append(g_idx if g_idx >= ps.n_alpha else None)
    return plan


@dataclass
class StructureReport:
    violations: list  # (step, state, predicted_action, argmin_actions)
    thresholds: list  # per step: (s, S) or None
    steps_checked: int
    states_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_structure(
    prediction: list,
    solutions: list[ValueSolution],
    g_sequence: list[np.ndarray],
    mdp: GridMDP,
    K: float,
) -> StructureReport:
    """Check the predicted action at every (step, state) against the DP optimal-action masks.

    The prediction is threshold-shaped: order up to S below s, order nothing
    otherwise.  Membership in the optimal set is the right notion of
    agreement because several actions can be optimal at once; a prediction
    past the action cap is a violation.
    """
    N = len(prediction)
    if len(solutions) < N + 1:
        raise ValueError("need the full backward-induction stack for the horizon")
    violations = []
    thresholds: list = []
    rows = np.arange(mdp.n_states)
    for t, entry in enumerate(prediction):
        optimal = solutions[N - t].optimal
        # no thresholds: s = -inf, so every state orders nothing
        s_t, S_t = (-math.inf, -math.inf) if entry is None else extract_sS(g_sequence[entry], mdp.grid, K)
        thresholds.append(None if entry is None else (s_t, S_t))
        predicted = np.where(mdp.grid >= s_t - 1e-9, 0.0, S_t - mdp.grid)
        j = _lattice_index(mdp.actions, predicted, mdp.step)  # -1 past the action cap
        good = (j >= 0) & optimal[rows, j]
        for i in np.nonzero(~good)[0]:
            violations.append((t, float(mdp.grid[i]), float(predicted[i]), mdp.actions[optimal[i]].tolist()))
    return StructureReport(violations, thresholds, N, mdp.n_states)
