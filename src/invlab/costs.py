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

from .demand import DemandDistribution, convolve_power

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
        # Values at the breakpoints, anchored so that h(0) = 0.
        rel = np.zeros(bp.size)
        for j in range(1, bp.size):
            rel[j] = rel[j - 1] + sl[j] * (bp[j] - bp[j - 1])
        piece0 = int(np.searchsorted(bp, 0.0, side="right"))
        ref = bp[piece0 - 1] if piece0 >= 1 else bp[0]
        refval = rel[piece0 - 1] if piece0 >= 1 else rel[0]
        h0 = refval + sl[piece0] * (0.0 - ref) if piece0 >= 1 else refval + sl[0] * (0.0 - ref)
        object.__setattr__(self, "_bp_values", rel - h0)
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


@dataclass(frozen=True)
class GBResult:
    holds: bool
    witness: tuple[float, float] | None


def check_GB(c: CostModel, d: DemandDistribution, probe_range: tuple[float, float] | None = None) -> GBResult:
    """Search for a lattice pair ``z < y`` with slope of ``E h(. - D)`` below ``-c_unit``.

    Existence of such a pair says that deep backlog accrues cost faster than
    ordering out of it could ever pay back, which is exactly when threshold
    structure holds for every discount factor.  Returns the leftmost witness
    pair when the condition holds.
    """
    step = d.step
    if probe_range is None:
        lo = -10.0 * (d.max_value + 1.0) - d.max_value
        probe_range = (math.floor(lo / step) * step, 0.0)
    lo, hi = probe_range
    n = int(round((hi - lo) / step)) + 1
    xs = lo + step * np.arange(n)
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


def is_K_convex(g: np.ndarray, K: float, tol: float = INEQ_TOL) -> KConvexityResult:
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
        bad = margin < -tol
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


def N_alpha(c: CostModel, alpha: float):
    """Smallest ``t`` with ``k_h * sum_{i<=t} alpha^i > c_unit``; ``INFINITE`` if none.

    Finite exactly when ``alpha > alpha_star``: the geometric sum grows to
    ``k_h/(1-alpha)``, so the strict threshold is reachable iff that limit
    exceeds ``c_unit``.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    k_h, _ = regime_constants(c)
    if alpha < 1.0 and k_h / (1.0 - alpha) <= c.c_unit:
        return INFINITE
    partial = 0.0
    term = 1.0
    t = 0
    while True:
        partial += term
        if k_h * partial > c.c_unit:
            return t
        term *= alpha
        t += 1
        if t > 10_000_000:  # unreachable given the limit guard; defensive only
            return INFINITE
