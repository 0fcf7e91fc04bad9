"""Vanishing-discount machinery for long-run average cost.

A ladder of discounted solves with discount factors increasing toward one
yields, per rung: the minimum value ``m_alpha``, the nonnegative relative
values ``u_alpha = v_alpha - m_alpha``, the minimizer set ``X_alpha``, and
the normalized rate ``(1 - alpha) m_alpha``.  The relative-value surrogate
takes a pointwise minimum over the ladder tail (a computable stand-in for
the limit inferior), and the optimality-inequality checker certifies a
stationary policy against it: a nonnegative slack at every state bounds the
policy's average cost by the rate ``w`` used in the check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostModel
from .dp_core import TIE_TOL, GridMDP, _backup, _optimal_mask, infinite_horizon_vi

DEFAULT_LADDER = (0.9, 0.95, 0.99, 0.995, 0.999)
SLACK_TOL = 1e-6  # margin of the relative-value growth and bound tests


@dataclass
class LadderEntry:
    alpha: float
    values: np.ndarray
    m_alpha: float
    u_alpha: np.ndarray
    x_alpha: np.ndarray  # states attaining the minimum value
    iterations: int

    @property
    def rate(self) -> float:
        """(1 - alpha) * m_alpha, the normalized cost rate of this rung."""
        return (1.0 - self.alpha) * self.m_alpha


@dataclass
class DiscountLadder:
    entries: list[LadderEntry]
    grid: np.ndarray

    def rates(self) -> np.ndarray:
        return np.array([e.rate for e in self.entries])


@dataclass
class RelativeValue:
    u: np.ndarray
    w_lower: float
    w_upper: float


def check_ladder(alphas) -> tuple[float, ...]:
    """The discount factors as floats; ValueError unless nonempty and strictly increasing inside [0, 1)."""
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise ValueError("ladder needs at least one discount factor")
    if not (0 <= alphas[0] and alphas[-1] < 1 and all(a < b for a, b in zip(alphas, alphas[1:]))):
        raise ValueError(f"ladder must be strictly increasing inside [0, 1), got {list(alphas)!r}")
    return alphas


def solve_ladder(mdp: GridMDP, alphas, eps: float) -> DiscountLadder:
    """Run the discounted solver along an increasing ladder of discount factors."""
    alphas = check_ladder(alphas)
    entries = []
    for alpha in alphas:
        sol = infinite_horizon_vi(mdp, alpha, eps)
        m = float(sol.values.min())
        u = sol.values - m
        x_set = mdp.grid[sol.values <= m + TIE_TOL]
        entries.append(LadderEntry(alpha, sol.values, m, u, x_set, sol.iterations))
    return DiscountLadder(entries, mdp.grid.copy())


def relative_value(ladder: DiscountLadder, k_tail: int = 3) -> RelativeValue:
    """Pointwise minimum of the relative values over the ladder tail.

    Conservative by construction: the surrogate never exceeds any tail
    entry, mirroring how the limit inferior never exceeds values along the
    sequence.
    """
    if k_tail < 1:
        raise ValueError("tail length must be at least 1")
    if len(ladder.entries) < k_tail:
        raise ValueError(f"ladder has {len(ladder.entries)} rungs, need at least {k_tail}")
    tail = ladder.entries[-k_tail:]
    u = np.min(np.stack([e.u_alpha for e in tail]), axis=0)
    rates = [e.rate for e in tail]
    return RelativeValue(u, float(min(rates)), float(max(rates)))


def check_optimality_inequality(mdp: GridMDP, u: np.ndarray, w: float, phi: np.ndarray) -> float:
    """Minimum slack of ``w + u(x) >= c(x, phi(x)) + E u(next)`` over the grid.

    A slack above a small negative tolerance certifies the inequality at
    grid level, and with it the average-cost optimality of ``phi`` up to
    that tolerance.
    """
    u = np.asarray(u, dtype=float)
    slack = w + u - mdp.policy_backup(mdp.action_index(phi), u)
    return float(slack.min())


@dataclass
class GreedyPolicyResult:
    actions: np.ndarray
    ties: np.ndarray  # (n, n_a) bool: actions tied with the minimum
    a_star: np.ndarray | None  # (n, n_a) bool: actions meeting the w_upper inequality, when given


def greedy_policy(mdp: GridMDP, u: np.ndarray, w_upper: float | None = None) -> GreedyPolicyResult:
    """Undiscounted one-step lookahead against the relative values.

    Returns the smallest minimizer per state, the mask of actions tied
    within ``TIE_TOL``, and (when ``w_upper`` is supplied) the mask of
    actions satisfying ``c + E u(next) <= w_upper + u(x)``.
    """
    u = np.asarray(u, dtype=float)
    q, q_min = _backup(mdp, u, 1.0)
    ties = _optimal_mask(q, q_min)
    a_star = None if w_upper is None else _optimal_mask(q, w_upper + u)
    return GreedyPolicyResult(mdp.actions[ties.argmax(axis=1)], ties, a_star)


@dataclass
class ABDiagnostic:
    sup_u: np.ndarray
    growth_flags: np.ndarray  # per state: relative values keep growing up the ladder
    x_envelope: tuple[float, float]
    bound_violations: list  # (alpha, state, u_value, bound)

    @property
    def ok(self) -> bool:
        return not self.growth_flags.any() and not self.bound_violations


def assumption_B_diagnostic(ladder: DiscountLadder, c: CostModel) -> ABDiagnostic:
    """Grid-level evidence that relative values stay bounded along the ladder.

    Flags states whose ``u_alpha`` rises at every rung and at least doubles
    across the ladder (the signature of unbounded growth, as with an order
    cap too tight to drain backlogs).  Left of the minimizer envelope the
    relative values must obey the order-up-to bound
    ``u(x) <= K + c_unit (x_U - x)``: from such a state one setup plus a
    bulk order reaches a minimizer directly.
    """
    stack = np.stack([e.u_alpha for e in ladder.entries])
    sup_u = stack.max(axis=0)
    diffs = np.diff(stack, axis=0)
    growing = (diffs > SLACK_TOL).all(axis=0) if stack.shape[0] > 1 else np.zeros(stack.shape[1], bool)
    doubled = stack[-1] >= 2.0 * stack[0] + SLACK_TOL
    growth_flags = growing & doubled

    x_lo = min(float(e.x_alpha.min()) for e in ladder.entries)
    x_up = max(float(e.x_alpha.max()) for e in ladder.entries)

    violations = []
    left = ladder.grid < x_lo - 1e-12
    bounds = c.K + c.c_unit * (x_up - ladder.grid[left]) + SLACK_TOL
    for e in ladder.entries:
        over = e.u_alpha[left] > bounds
        for x, val, b in zip(ladder.grid[left][over], e.u_alpha[left][over], bounds[over]):
            violations.append((e.alpha, float(x), float(val), float(b - SLACK_TOL)))
    return ABDiagnostic(sup_u, growth_flags, (x_lo, x_up), violations)
