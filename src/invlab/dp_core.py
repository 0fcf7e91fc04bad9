"""Grid MDPs of periodic-review inventory dynamics, plus value iteration.

States live on a contiguous lattice, actions on ``{0, step, ..., a_max}``.
The next state is the post-order inventory ``x + a`` less the demand, kept
at or above 0 under lost sales, clamped onto the nearest grid edge when it
falls off the grid.  Clamped mass is recorded per ``(state, action)`` so
truncation stays auditable; builds reject configurations where clamping is
material for a finite-cost action.

Infeasible pairs are modeled as ``+inf`` cost rather than restricted action
sets, so every state keeps the full action lattice and solvers simply never
pick the infinite entries.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .costs import CostModel, expected_holding
from .demand import DemandDistribution, _lattice_index, _lattice_offsets
from .errors import InvLabError

TIE_TOL = 1e-9  # an action is optimal when its backup is within TIE_TOL of the minimum
MAX_PAIRS = 2**22  # (state, action) pairs a lattice may have
PI_MAX_STEPS = 50  # policy-improvement steps before value iteration takes over


class Dynamics(enum.Enum):
    BACKORDER = "backorder"     # next = x + a - D
    LOST_SALES = "lost_sales"   # next = max(x + a - D, 0)


@dataclass
class GridMDP:
    """Finite MDP on a state lattice.

    Transitions are a level table plus the demand law: pair ``(i, j)`` sits
    on the post-order level ``_y_of[i, j] = i + j``, which moves to
    ``_y_next[level, k]`` with probability ``shock_probs[k]``; off-grid
    successors are clamped onto the edges, the clamped mass kept per pair in
    ``mass_loss``.  ``P`` is a dense view built on request.
    """

    grid: np.ndarray
    step: float
    actions: np.ndarray
    cost: np.ndarray
    mass_loss: np.ndarray
    shock_probs: np.ndarray
    dynamics: Dynamics
    _y_next: np.ndarray  # (levels, n_atoms) clamped successor of each level
    _y_of: np.ndarray    # (n, n_a) level of each (state, action) pair

    @property
    def shift_kernel(self) -> bool:
        """Always true: every level is a post-order inventory ``x + a``; kept for the benchmark's backup-bytes count."""
        return True

    @property
    def n_states(self) -> int:
        return self.grid.size

    @property
    def n_actions(self) -> int:
        return self.actions.size

    @functools.cached_property
    def P(self) -> np.ndarray:
        """Dense ``(n, n_a, n)`` transition rows, built from the level table on first access."""
        levels = self._y_next.shape[0]
        rows = np.zeros((levels, self.n_states))
        np.add.at(rows, (np.arange(levels)[:, None], self._y_next), self.shock_probs)
        return rows[self._y_of]

    def state_index(self, x):
        """Grid index of the state ``x``, a number or an array."""
        return _indices_on(self.grid, x, self.step, "state {} is not on the grid")

    def action_index(self, a):
        """Index of the action ``a``, a number or an array such as a stationary policy."""
        return _indices_on(self.actions, a, self.step, "action {} is not on the action lattice")

    def policy_rows(self, phi_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cost ``(n,)`` and successor rows ``(n, n_atoms)`` of the stationary policy with action indices ``phi_idx``."""
        rows = np.arange(self.n_states)
        return self.cost[rows, phi_idx], self._y_next[self._y_of[rows, phi_idx]]

    def expected_next(self, v: np.ndarray) -> np.ndarray:
        """``E v(next)`` for every (state, action) pair: one sum per level, gathered onto the pairs."""
        return (v[self._y_next] @ self.shock_probs)[self._y_of]

    def policy_backup(self, phi_idx: np.ndarray, v: np.ndarray, alpha: float = 1.0) -> np.ndarray:
        """``T_phi v = c(x, phi(x)) + alpha E v(next)`` at every state, for the action indices ``phi_idx``."""
        cost_phi, succ = self.policy_rows(phi_idx)
        return cost_phi + alpha * (np.asarray(v, dtype=float)[succ] @ self.shock_probs)


@dataclass
class ValueSolution:
    """Values plus the optimal-action mask of the final backup: ``optimal[i, j]`` when action ``j`` is optimal at state ``i``."""

    values: np.ndarray
    optimal: np.ndarray | None  # (n, n_a) bool
    residual: float
    iterations: int


def _indices_on(points: np.ndarray, x, step: float, message: str):
    """Indices of ``x`` on the lattice ``points``; ValueError ``message`` naming the first value of ``x`` off it."""
    i = _lattice_index(points, x, step)
    if np.any(i < 0):
        raise ValueError(message.format(np.atleast_1d(x)[np.atleast_1d(i) < 0][0]))
    return i


def _lattice(lo: float, hi: float, step: float, a_max: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The state lattice from ``lo`` to ``hi`` and the action lattice up to ``a_max``.

    Raises ValueError, before anything is allocated, when the state lattice
    has fewer than two points, ``a_max`` is negative or the two make more
    than ``MAX_PAIRS`` (state, action) pairs, and then when ``hi`` is not on
    the lattice from ``lo`` or ``a_max`` is not on the lattice from 0.
    """
    spans = ((hi - lo) / step, a_max / step)
    n, n_a = (int(round(s)) + 1 if math.isfinite(s) else math.inf for s in spans)
    if n < 2:
        raise ValueError(f"grid [{lo}, {hi}] has fewer than two lattice points at step {step}")
    if n_a < 1:
        raise ValueError(f"a_max {a_max} is negative")
    if not n * n_a <= MAX_PAIRS:  # an unbounded span makes it inf or nan
        raise ValueError(f"{n} states x {n_a} actions make {n * n_a} (state, action) pairs, above the cap of {MAX_PAIRS}")
    if not _lattice_offsets(hi, step, lo)[1]:
        raise ValueError(f"hi {hi} is not on the lattice from lo {lo} at step {step}")
    if not _lattice_offsets(a_max, step)[1]:
        raise ValueError(f"a_max {a_max} is not on the lattice at step {step}")
    return lo + step * np.arange(n), step * np.arange(n_a)


def build_mdp(
    dynamics: Dynamics,
    demand: DemandDistribution,
    grid_lo: float,
    grid_hi: float,
    a_max: float,
    cost,
    *,
    mass_tol: float = 1e-6,
) -> GridMDP:
    """Assemble a GridMDP from the dynamics, the demand law and an ``(n, n_a)`` cost table.

    The table is indexed by (state, action) and may hold ``+inf`` to mark
    infeasible pairs.  Raises ValueError for a table of another shape, for a
    NaN or ``-inf`` cost and past ``MAX_PAIRS`` (state, action) pairs,
    ``GRID_TOO_NARROW`` when a demand atom with probability above
    ``mass_tol`` would clamp at a grid edge under a finite-cost action, and
    ``NO_FINITE_ACTION`` when some state has no finite-cost action.
    """
    step = demand.step
    grid, actions = _lattice(grid_lo, grid_hi, step, a_max)
    n, n_a = grid.size, actions.size

    # one level per post-order inventory y = x + a, over the extended
    # range grid_lo .. grid_hi + a_max so infeasible pairs have rows too
    y_raw = np.arange(n + n_a - 1)[:, None] - demand.offsets()[None, :]
    if dynamics is Dynamics.LOST_SALES:
        zero_idx = _lattice_index(grid, 0.0, step)
        if zero_idx < 0:
            raise ValueError("lost-sales dynamics needs 0 on the grid")
        y_raw = np.maximum(y_raw, zero_idx)
    y_of = np.arange(n)[:, None] + np.arange(n_a)[None, :]
    clamped = (y_raw < 0) | (y_raw > n - 1)

    cost = np.asarray(cost, dtype=float)
    if cost.shape != (n, n_a):
        raise ValueError(f"cost table has shape {cost.shape}, expected ({n}, {n_a})")
    if np.any(np.isnan(cost)) or np.any(cost == -np.inf):
        raise ValueError("costs must be finite or +inf")
    finite = np.isfinite(cost)
    if not finite.any(axis=1).all():
        bad = int(np.nonzero(~finite.any(axis=1))[0][0])
        raise InvLabError("NO_FINITE_ACTION", f"state {grid[bad]} has no finite-cost action")

    mass_loss = (clamped * demand.probs).sum(axis=1)[y_of]
    too_narrow = clamped & (demand.probs > mass_tol)
    offending = too_narrow.any(axis=1)[y_of] & finite
    if offending.any():
        i, j = np.argwhere(offending)[0]
        k = int(np.argmax(too_narrow[y_of[i, j]]))
        raise InvLabError(
            "GRID_TOO_NARROW",
            f"shock atom {demand.values[k]} (p={demand.probs[k]}) clamps at the grid edge "
            f"from state {grid[i]} under action {actions[j]}",
        )

    return GridMDP(
        grid=grid,
        step=step,
        actions=actions,
        cost=cost,
        mass_loss=mass_loss,
        shock_probs=demand.probs,
        dynamics=dynamics,
        _y_next=np.clip(y_raw, 0, n - 1),
        _y_of=y_of,
    )


def make_inventory_mdp(
    cost_model: CostModel,
    demand: DemandDistribution,
    grid_lo: float,
    grid_hi: float,
    a_max: float | None = None,
    dynamics: Dynamics = Dynamics.BACKORDER,
    *,
    mass_tol: float = 1.0,
) -> GridMDP:
    """Periodic-review instance: cost ``K 1{a>0} + c_unit a + E h(x + a - D)``.

    The cost table is tabulated in one broadcast from ``E h(y - D)`` at every
    grid level ``y``: pair ``(i, j)`` reads level ``i + j``.  Orders that
    would land above the grid top are infeasible (+inf cost), so the action
    set is effectively ``{0, ..., hi - x}``.  Demand falling off the bottom
    edge clamps there; that is unavoidable on a truncated backorder grid, so
    the default ``mass_tol`` accepts it and leaves the audit trail in
    ``mass_loss``.
    """
    if a_max is None:
        a_max = grid_hi - grid_lo
    grid, actions = _lattice(grid_lo, grid_hi, demand.step, a_max)
    eh = expected_holding(cost_model.holding, grid, demand)  # E h(y - D) for every post-order level y
    eh = np.concatenate([eh, np.full(actions.size - 1, math.inf)])  # levels above the grid top are infeasible
    order = np.where(np.arange(actions.size) > 0, cost_model.K, 0.0) + cost_model.c_unit * actions
    cost = order[None, :] + eh[np.arange(grid.size)[:, None] + np.arange(actions.size)[None, :]]
    return build_mdp(dynamics, demand, grid_lo, grid_hi, a_max, cost, mass_tol=mass_tol)


def _optimal_mask(q: np.ndarray, bound) -> np.ndarray:
    """``q <= bound + TIE_TOL``, one bound per row of ``q``: the actions optimal against ``bound``."""
    return q <= np.asarray(bound)[..., None] + TIE_TOL


def _sup_diff(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.abs(a - b)
    both_inf = np.isinf(a) & np.isinf(b)
    diff = np.where(both_inf, 0.0, diff)
    return float(np.max(diff))


def _backup(mdp: GridMDP, v: np.ndarray, alpha: float):
    q = mdp.cost + alpha * mdp.expected_next(v) if alpha != 0.0 else mdp.cost
    return q, q.min(axis=1)


def finite_horizon_vi(mdp: GridMDP, N: int, alpha: float, terminal: np.ndarray) -> list[ValueSolution]:
    """Backward induction for ``N`` steps from the terminal values.

    Entry ``t`` of the result holds the optimal cost with ``t`` periods to
    go; its mask marks the optimal first actions at that depth (absent at
    ``t = 0``, where no decision is taken).
    """
    if N < 0:
        raise ValueError(f"horizon must be nonnegative, got {N}")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != (mdp.n_states,):
        raise ValueError("terminal values must be given on the full grid")
    if np.any(np.isneginf(terminal)) or np.any(np.isnan(terminal)):
        raise ValueError("terminal values must be bounded below")
    sols = [ValueSolution(terminal.copy(), None, 0.0, 0)]
    v = terminal
    for t in range(1, N + 1):
        q, vnew = _backup(mdp, v, alpha)
        sols.append(ValueSolution(vnew, _optimal_mask(q, vnew), _sup_diff(vnew, v), t))
        v = vnew
    return sols


def policy_values(mdp: GridMDP, phi_idx: np.ndarray, alpha: float) -> np.ndarray:
    """Exact discounted value of the stationary policy with action indices ``phi_idx``.

    Solves ``(I - alpha P_phi) v = c_phi``.  The ``n x n`` matrix is summed
    from the successor table and scaled in place, so no more than two such
    arrays (it and the solver's copy) are live at once.
    """
    n = mdp.n_states
    cost_phi, succ = mdp.policy_rows(phi_idx)
    flat = (np.arange(n)[:, None] * n + succ).ravel()
    weights = np.broadcast_to(mdp.shock_probs, succ.shape).ravel()
    A = np.bincount(flat, weights=weights, minlength=n * n).reshape(n, n)
    A *= -alpha
    A.flat[:: n + 1] += 1.0
    return np.linalg.solve(A, cost_phi)


def infinite_horizon_vi(mdp: GridMDP, alpha: float, eps: float) -> ValueSolution:
    """Value iteration from a policy-iteration start until the contraction bound certifies ``eps``.

    The start is the exact value of the policy that Howard policy iteration
    reaches from the myopic policy within ``PI_MAX_STEPS`` improvements
    (each keeps the current action unless another beats it by more than
    ``TIE_TOL``).  Sweeps then stop once the sup-norm successive difference
    drops to ``eps (1 - alpha) / (2 alpha)``, which bounds the distance to
    the fixed point by ``eps / 2`` from any start.  ``iterations`` counts the
    improvement backups plus the sweeps.  ``alpha = 0`` is a single exact
    minimization.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    if not np.isfinite(mdp.cost).any(axis=1).all():
        raise InvLabError("NO_FINITE_ACTION", "some state has no finite-cost action")
    if alpha == 0.0:
        q, v = _backup(mdp, np.zeros(mdp.n_states), 0.0)
        return ValueSolution(v, _optimal_mask(q, v), 0.0, 1)
    threshold = eps * (1.0 - alpha) / (2.0 * alpha)
    rows = np.arange(mdp.n_states)
    phi = mdp.cost.argmin(axis=1)
    iterations = 0
    for _ in range(PI_MAX_STEPS):
        v = policy_values(mdp, phi, alpha)
        q, vmin = _backup(mdp, v, alpha)
        iterations += 1
        improve = q[rows, phi] > vmin + TIE_TOL
        if not improve.any():
            break
        phi = np.where(improve, q.argmin(axis=1), phi)
    delta = math.inf
    max_iter = None
    while delta > threshold:
        _, vnew = _backup(mdp, v, alpha)
        delta = float(np.max(np.abs(vnew - v)))
        v = vnew
        iterations += 1
        if max_iter is None and delta > 0:
            max_iter = iterations + int(math.log(max(delta / threshold, 1.0)) / -math.log(alpha)) + 16
        if max_iter is not None and iterations > max_iter:
            raise RuntimeError(f"value iteration failed to contract after {iterations} sweeps")
    q, v_final = _backup(mdp, v, alpha)
    return ValueSolution(v_final, _optimal_mask(q, v_final), delta, iterations)


def min_action_policy(mdp: GridMDP, sol: ValueSolution) -> np.ndarray:
    """Smallest optimal action at each state (deterministic tie-break)."""
    if sol.optimal is None:
        raise ValueError("solution carries no optimal actions")
    return mdp.actions[sol.optimal.argmax(axis=1)]


def check_stationary_optimality(mdp: GridMDP, phi: np.ndarray, v: np.ndarray, alpha: float) -> float:
    """Max Bellman residual of a stationary policy against candidate values.

    A small residual certifies that ``phi`` attains the minimum in the
    optimality equation when ``v`` is (close to) the fixed point.
    """
    rhs = mdp.policy_backup(mdp.action_index(phi), v, alpha)
    return float(np.max(np.abs(np.asarray(v) - rhs)))
