"""Vanishing-discount machinery for long-run average cost.

A ladder of discounted solves, with discount factors increasing toward one,
is one table of values ``v_alpha``, a row per rung.  Everything else is read
off it: the minima ``m_alpha``, the relative values ``u_alpha = v_alpha -
m_alpha``, the minimizer sets ``X_alpha`` and the rates ``(1 - alpha)
m_alpha``.  The relative-value surrogate is a pointwise minimum over the
ladder tail (a computable stand-in for the limit inferior); a nonnegative
optimality-inequality slack against it at every state bounds a stationary
policy's average cost by the rate ``w`` used in the check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostModel
from .dp_core import GridMDP, _backup_mask, _optimal_mask, infinite_horizon_vi

DEFAULT_LADDER = (0.9, 0.95, 0.99, 0.995, 0.999)
SLACK_TOL = 1e-6  # margin of the relative-value growth and bound tests
TAIL_RUNGS = 3  # the surrogate's tail: the last rungs, or all of them on a shorter ladder


@dataclass
class DiscountLadder:
    alphas: np.ndarray  # (k,) discount factors, increasing
    values: np.ndarray  # (k, n) discounted values, one row per rung
    grid: np.ndarray

    @property
    def m(self) -> np.ndarray:
        """(k,) minimum value of each rung."""
        return self.values.min(axis=1)

    @property
    def u(self) -> np.ndarray:
        """(k, n) relative values ``v_alpha - m_alpha``."""
        return self.values - self.m[:, None]

    @property
    def minimizers(self) -> np.ndarray:
        """(k, n) mask of the states within ``TIE_TOL`` of their rung's minimum."""
        return _optimal_mask(self.values, self.m)

    def rates(self) -> np.ndarray:
        """(k,) normalized cost rates ``(1 - alpha) m_alpha``."""
        return (1.0 - self.alphas) * self.m


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
    """Run the discounted solver along an increasing ladder of discount factors, one rung after another."""
    alphas = check_ladder(alphas)
    values = np.stack([infinite_horizon_vi(mdp, alpha, eps).values for alpha in alphas])
    return DiscountLadder(np.array(alphas), values, mdp.grid.copy())


def relative_value(ladder: DiscountLadder) -> RelativeValue:
    """Pointwise minimum of the relative values over the last ``TAIL_RUNGS`` rungs.

    Conservative by construction, as the limit inferior never exceeds values along the sequence.
    """
    tail = slice(-TAIL_RUNGS, None)
    rates = ladder.rates()[tail]
    return RelativeValue(ladder.u[tail].min(axis=0), float(rates.min()), float(rates.max()))


def check_optimality_inequality(mdp: GridMDP, u: np.ndarray, w: float, phi: np.ndarray) -> float:
    """Minimum slack of ``w + u(x) >= c(x, phi(x)) + E u(next)`` over the grid, for the action indices ``phi``.

    A slack above a small negative tolerance certifies the inequality at
    grid level, and with it the average-cost optimality of ``phi`` up to
    that tolerance.
    """
    u = np.asarray(u, dtype=float)
    return float((w + u - mdp.policy_backup(phi, u)).min())


def greedy_policy(mdp: GridMDP, u: np.ndarray) -> np.ndarray:
    """Undiscounted one-step lookahead against the relative values, as an ``(n, n_a)`` mask.

    It marks the actions within ``TIE_TOL`` of each state's minimum; the greedy policy is ``mask.argmax(axis=1)``.
    """
    return _backup_mask(mdp, np.asarray(u, dtype=float), 1.0)[1]


@dataclass
class ABDiagnostic:
    growth_flags: np.ndarray  # per state: relative values keep growing up the ladder
    x_envelope: tuple[float, float]
    bound_violations: list  # (alpha, state, u_value, bound), by rung, then by state

    @property
    def ok(self) -> bool:
        return not self.growth_flags.any() and not self.bound_violations


def assumption_B_diagnostic(ladder: DiscountLadder, c: CostModel) -> ABDiagnostic:
    """Grid-level evidence that relative values stay bounded along the ladder.

    Flags states whose ``u_alpha`` rises at every rung and at least doubles
    across the ladder (unbounded growth, as with an order cap too tight to
    drain backlogs); with ``u_alpha >= 0`` one rung flags nothing.  Left of
    the minimizer envelope ``u(x) <= K + c_unit (x_U - x)`` must hold: from
    such a state one setup plus a bulk order reaches a minimizer directly.
    """
    u, grid = ladder.u, ladder.grid
    growing = (np.diff(u, axis=0) > SLACK_TOL).all(axis=0)
    growth_flags = growing & (u[-1] >= 2.0 * u[0] + SLACK_TOL)

    envelope = grid[ladder.minimizers.any(axis=0)]
    x_lo, x_up = float(envelope.min()), float(envelope.max())

    bounds = c.K + c.c_unit * (x_up - grid) + SLACK_TOL
    over = (u > bounds) & (grid < x_lo - 1e-12)
    violations = [
        (float(ladder.alphas[r]), float(grid[i]), float(u[r, i]), float(bounds[i] - SLACK_TOL))
        for r, i in np.argwhere(over)
    ]
    return ABDiagnostic(growth_flags, (x_lo, x_up), violations)
