"""Threshold policies: G-functions, (s, S) extraction, regime prediction.

The order-up-to objective ``G(x) = c_unit x + E h(x - D) + alpha E v(x - D)``
drives everything here: its smallest minimizer is the order-up-to level S,
and s is the leftmost point whose cost is within the setup cost K of the
minimum.  The regime classifier decides, from the cost constants alone,
whether thresholds exist at every step, never, or only sufficiently far from
the end of the horizon; ``verify_structure`` then checks those predictions
against the solver's optimal-action sets state by state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .costs import CostModel, N_alpha, expected_holding, regime_constants
from .demand import DemandDistribution
from .dp_core import TIE_TOL, GridMDP, ValueSolution, infinite_horizon_vi
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
    thresholds: list | None = None


def g_function(mdp: GridMDP, v: np.ndarray, alpha: float, c: CostModel, d: DemandDistribution) -> np.ndarray:
    """Order-up-to objective on the grid; ``d`` must be the demand law ``mdp`` was built from."""
    if not mdp.shift_kernel:
        raise ValueError("G-functions need backorder or lost-sales dynamics")
    continuation = mdp.policy_expected_next(np.zeros(mdp.n_states, dtype=np.int64), v)  # order nothing: y = x
    return c.c_unit * mdp.grid + expected_holding(c.holding, mdp.grid, d) + alpha * continuation


def extract_sS(g: np.ndarray, grid: np.ndarray, K: float, *, tie_tol: float = TIE_TOL) -> tuple[float, float]:
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
    argmin_mask = g <= gmin + tie_tol
    if argmin_mask[0] or argmin_mask[-1]:
        raise InvLabError("GRID_TOO_NARROW", "argmin of the order-up-to objective touches the grid edge")
    s_idx_candidates = np.nonzero(g <= K + gmin + tie_tol)[0]
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
    *,
    tie_tol: float = TIE_TOL,
) -> StructureReport:
    """Check the predicted action at every (step, state) against the DP argmin sets.

    The prediction is threshold-shaped: order up to S below s, order nothing
    otherwise.  Membership in the argmin set is the right notion of
    agreement because several actions can be optimal at once.
    """
    N = len(prediction)
    if len(solutions) < N + 1:
        raise ValueError("need the full backward-induction stack for the horizon")
    violations = []
    thresholds: list = []
    a_max = float(mdp.actions[-1])
    for t, entry in enumerate(prediction):
        sets = solutions[N - t].argmin_sets
        if entry is None:
            s_t = S_t = None
            thresholds.append(None)
        else:
            s_t, S_t = extract_sS(g_sequence[entry], mdp.grid, K, tie_tol=tie_tol)
            thresholds.append((s_t, S_t))
        for i, x in enumerate(mdp.grid):
            if entry is None or x >= s_t - 1e-9:
                predicted = 0.0
            else:
                predicted = S_t - x
            good = predicted <= a_max + 1e-9 and np.any(np.abs(sets[i] - predicted) <= 1e-9 * max(1.0, mdp.step))
            if not good:
                violations.append((t, float(x), float(predicted), sets[i].tolist()))
    return StructureReport(violations, thresholds, N, mdp.n_states)


def v0_terminal(mdp_k0: GridMDP, alpha: float, eps: float) -> np.ndarray:
    """Infinite-horizon values of the setup-cost-free clone, for use as terminal values."""
    return infinite_horizon_vi(mdp_k0, alpha, eps).values


@dataclass
class ThresholdLimitReport:
    envelope: tuple  # (s_min, s_max, S_min, S_max)
    candidates: list  # recurring tail pairs, in order of first appearance
    tail: list = field(repr=False, default_factory=list)


def threshold_limits(pairs: list[tuple[float, float]], step: float) -> ThresholdLimitReport:
    """Envelope and recurring tail values of a threshold sequence.

    On a lattice the threshold sequence is eventually periodic or constant,
    so pairs recurring in the last third of the sequence stand in for its
    limit points; each such pair defines a stationary policy worth
    certifying against the infinite-horizon solve.
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
    tail_len = max(len(pairs) // 3, 1)
    tail = [tuple(p) for p in arr[-tail_len:]]
    keys = [(int(round(s / step)), int(round(S / step))) for s, S in tail]
    counts: dict = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    candidates = []
    seen = set()
    for k, pair in zip(keys, tail):
        if counts[k] >= 2 and k not in seen:
            seen.add(k)
            candidates.append((k[0] * step, k[1] * step))
    if not candidates and len(tail) == 1:
        candidates = [tail[0]]
    return ThresholdLimitReport(envelope, candidates, tail)
