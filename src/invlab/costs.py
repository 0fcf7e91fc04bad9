"""Inventory cost model and the scalar constants that decide policy regimes.

The holding/backorder curve is piecewise linear and convex, which makes the
asymptotic backorder slope exact and keeps every expectation a finite sum.
From it and the ordering costs we derive:

* ``k_h``: the backorder cost rate at deep backlog (minus the leftmost slope),
* ``alpha_star``: the critical discount factor ``1 - k_h / c_unit``,
* the growth condition on backorder costs (slope of ``E h(. - D)`` dropping
  below ``-c_unit`` somewhere), which is equivalent to ``alpha_star < 0``,
* ``N_alpha``: the first horizon index at which the ordering incentive
  reaches arbitrarily deep backlogs, i.e. the number of terminal
  never-order steps in the hybrid regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .demand import DemandDistribution

INEQ_TOL = 1e-9

INFINITE = math.inf


@dataclass(frozen=True)
class HoldingCost:
    """Convex piecewise-linear holding/backorder cost with ``h(0) = 0``.

    ``slopes`` has one entry per piece (``len(breakpoints) + 1``), strictly
    increasing left to right.  The leftmost slope must be negative and the
    rightmost positive so the cost blows up in both directions.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        bp = np.atleast_1d(np.asarray(self.breakpoints, dtype=float))
        sl = np.atleast_1d(np.asarray(self.slopes, dtype=float))
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        for what, arr in (("breakpoint", bp), ("slope", sl)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{what} {float(arr[~np.isfinite(arr)][0])!r} is not finite")
        if bp.size == 0:
            raise ValueError("need at least one breakpoint")
        if sl.size != bp.size + 1:
            raise ValueError(f"expected {bp.size + 1} slopes for {bp.size} breakpoints, got {sl.size}")
        if bp.size > 1 and np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(np.diff(sl) <= 0):
            raise ValueError("slopes must be strictly increasing piece to piece (convexity)")
        if not (sl[0] < 0 < sl[-1]):
            raise ValueError("leftmost slope must be negative and rightmost positive")
        # Values at the breakpoints, then anchored so that h(0) = 0.
        object.__setattr__(self, "_bp_values", np.cumsum(np.concatenate(([0.0], sl[1:-1] * np.diff(bp)))))
        object.__setattr__(self, "_bp_values", self._bp_values - self(0.0))
        if np.any(self._bp_values < -INEQ_TOL):
            raise ValueError("holding cost dips below zero; check breakpoints/slopes")

    def __call__(self, x) -> np.ndarray | float:
        x_arr = np.asarray(x, dtype=float)
        piece = np.searchsorted(self.breakpoints, x_arr, side="right")
        ref_idx = np.maximum(piece - 1, 0)
        vals = self._bp_values[ref_idx] + self.slopes[piece] * (x_arr - self.breakpoints[ref_idx])
        return float(vals) if np.isscalar(x) or x_arr.ndim == 0 else vals

    @classmethod
    def linear(cls, h_minus: float, h_plus: float) -> "HoldingCost":
        """Two-piece cost: backorder rate ``h_minus`` below zero, holding rate ``h_plus`` above."""
        return cls(np.array([0.0]), np.array([-h_minus, h_plus]))


@dataclass(frozen=True)
class CostModel:
    """Setup cost, per-unit order cost, and the holding/backorder curve."""

    K: float
    c_unit: float
    holding: HoldingCost

    def __post_init__(self):
        if not 0 <= self.K < INFINITE:
            raise ValueError(f"setup cost must be nonnegative and finite, got {self.K}")
        if not 0 < self.c_unit < INFINITE:
            raise ValueError(f"per-unit cost must be positive and finite, got {self.c_unit}")


def expected_holding(h: HoldingCost, x, d: DemandDistribution):
    """``E h(x - D)`` as an exact finite sum; ``x`` may be a scalar or an array."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    vals = h(x_arr[:, None] - d.values[None, :]) @ d.probs
    return float(vals[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else vals


def regime_constants(c: CostModel) -> tuple[float, float]:
    """Return ``(k_h, alpha_star)``: deep-backlog cost rate and critical discount factor."""
    k_h = -float(c.holding.slopes[0])
    return k_h, 1.0 - k_h / c.c_unit


def N_alpha(c: CostModel, alpha: float):
    """Smallest ``t`` with ``k_h * sum_{i<=t} alpha^i > c_unit``; ``INFINITE`` if none.

    Finite exactly when ``alpha > alpha_star``: the geometric sum grows to
    ``k_h/(1-alpha)``, so the strict threshold is reachable iff that limit
    exceeds ``c_unit``.  Closed form: ``sum_{i<=t} alpha^i > q = c_unit/k_h``
    iff ``t + 1 > log(1 - (1-alpha) q) / log(alpha)`` (``t + 1 > q`` at
    ``alpha = 1``); one step against the sum itself settles rounding at ties.
    """
    if not alpha >= 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    k_h, alpha_star = regime_constants(c)
    if alpha <= alpha_star:
        return INFINITE
    if k_h > c.c_unit:
        return 0

    def exceeds(t: int) -> bool:
        geometric = t + 1.0 if alpha == 1.0 else (1.0 - alpha ** (t + 1)) / (1.0 - alpha)
        return k_h * geometric > c.c_unit

    q = c.c_unit / k_h
    if alpha == 1.0:
        t = math.floor(q)
    else:  # alpha > 0 here; the clamp keeps a rounded (1 - alpha) q off log(0)
        z = max((alpha - 1.0) * q, math.nextafter(-1.0, 0.0))
        t = max(math.floor(math.log1p(z) / math.log1p(alpha - 1.0)), 0)
    if t > 0 and exceeds(t - 1):
        return t - 1
    return t if exceeds(t) else t + 1
