"""Grid MDPs built from stochastic-equation dynamics, plus value iteration.

States live on a contiguous lattice, actions on ``{0, step, ..., a_max}``,
and the transition row for ``(x, a)`` pushes the shock law through the
next-state map, clamping anything that falls off the grid onto the nearest
edge.  Clamped mass is recorded per ``(state, action)`` so truncation stays
auditable; builds reject configurations where clamping is material for a
finite-cost action.

Infeasible pairs are modeled as ``+inf`` cost rather than restricted action
sets, so every state keeps the full action lattice and solvers simply never
pick the infinite entries.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .costs import CostModel, expected_holding
from .demand import DemandDistribution
from .errors import InvLabError

ROW_TOL = 1e-12
TIE_TOL = 1e-9
PI_MAX_STEPS = 50  # policy-improvement steps before value iteration takes over


def _lattice_index(points: np.ndarray, x, step: float) -> int | None:
    """Index of ``x`` on the uniform lattice ``points``, or None when ``x`` is off it.

    Off means no lattice point within ``1e-9 * max(1, step)`` of ``x``; NaN and
    infinite ``x`` are off every lattice.
    """
    offset = (float(x) - float(points[0])) / step
    if not math.isfinite(offset):
        return None
    i = int(round(offset))
    if 0 <= i < len(points) and abs(float(points[i]) - float(x)) <= 1e-9 * max(1.0, step):
        return i
    return None


class Dynamics(enum.Enum):
    BACKORDER = "backorder"     # next = x + a - D
    LOST_SALES = "lost_sales"   # next = max(x + a - D, 0)
    CUSTOM = "custom"           # next = tabulated F(x, a, shock)


@dataclass
class GridMDP:
    """Finite MDP on a state lattice.

    Transitions are a level table plus the shock law: pair ``(i, j)`` sits
    on level ``_y_of[i, j]``, which moves to ``_y_next[level, k]`` with
    probability ``shock_probs[k]``; off-grid successors are clamped onto the
    edges, the clamped mass kept per pair in ``mass_loss``.  A level is the
    post-order inventory ``x + a`` for backorder and lost sales, and one pair
    for custom dynamics.  ``next_idx`` and ``P`` are views built on request.
    """

    grid: np.ndarray
    step: float
    actions: np.ndarray
    cost: np.ndarray
    mass_loss: np.ndarray
    shock_probs: np.ndarray
    dynamics: Dynamics
    shift_kernel: bool   # levels are the post-order inventories x + a
    _y_next: np.ndarray  # (levels, n_atoms) clamped successor of each level
    _y_of: np.ndarray    # (n, n_a) level of each (state, action) pair

    @property
    def n_states(self) -> int:
        return self.grid.size

    @property
    def n_actions(self) -> int:
        return self.actions.size

    @property
    def min_finite_cost(self) -> float:
        return float(self.cost[np.isfinite(self.cost)].min())

    @functools.cached_property
    def next_idx(self) -> np.ndarray:
        """Per-pair successors ``(n, n_a, n_atoms)``, built from the level table on first access."""
        return self._y_next[self._y_of]

    @functools.cached_property
    def P(self) -> np.ndarray:
        """Dense ``(n, n_a, n)`` transition rows, built from the level table on first access."""
        levels = self._y_next.shape[0]
        rows = np.zeros((levels, self.n_states))
        np.add.at(rows, (np.arange(levels)[:, None], self._y_next), self.shock_probs)
        return rows[self._y_of]

    def state_index(self, x) -> int:
        i = _lattice_index(self.grid, x, self.step)
        if i is None:
            raise ValueError(f"state {x} is not on the grid")
        return i

    def action_index(self, a) -> int:
        j = _lattice_index(self.actions, a, self.step)
        if j is None:
            raise ValueError(f"action {a} is not on the action lattice")
        return j

    def policy_index(self, phi) -> np.ndarray:
        """Action index at every state of the stationary policy ``phi``."""
        return np.array([self.action_index(a) for a in np.asarray(phi, dtype=float)])

    def policy_rows(self, phi_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cost ``(n,)`` and successor rows ``(n, n_atoms)`` of the stationary policy with action indices ``phi_idx``."""
        rows = np.arange(self.n_states)
        return self.cost[rows, phi_idx], self._y_next[self._y_of[rows, phi_idx]]

    def expected_next(self, v: np.ndarray) -> np.ndarray:
        """``E v(next)`` for every (state, action) pair: one sum per level, gathered onto the pairs."""
        return (v[self._y_next] @ self.shock_probs)[self._y_of]

    def policy_expected_next(self, phi_idx: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``E v(next)`` at every state under the action indices ``phi_idx``."""
        return np.asarray(v, dtype=float)[self.policy_rows(phi_idx)[1]] @ self.shock_probs

    def predictive(self, z: np.ndarray, j: int) -> np.ndarray:
        """Next-state law ``sum_i z_i P(i, j, .)`` of the state law ``z`` under action index ``j``."""
        weights = z[:, None] * self.shock_probs
        return np.bincount(self._y_next[self._y_of[:, j]].ravel(), weights=weights.ravel(), minlength=self.n_states)


@dataclass
class ValueSolution:
    """Values plus the full optimal-action sets from the final backup."""

    values: np.ndarray
    argmin_sets: list[np.ndarray] | None
    residual: float
    iterations: int


def _lattice(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(round((hi - lo) / step)) + 1
    if n < 2:
        raise ValueError(f"grid [{lo}, {hi}] has fewer than two lattice points at step {step}")
    return lo + step * np.arange(n)


def _as_shock(shock, step):
    """Accept a DemandDistribution or a raw (values, probs) signed shock law."""
    if isinstance(shock, DemandDistribution):
        return shock.values, shock.probs, shock.step
    values = np.asarray(shock[0], dtype=float)
    probs = np.asarray(shock[1], dtype=float)
    if step is None:
        raise ValueError("a raw shock law needs an explicit step")
    if abs(probs.sum() - 1.0) > ROW_TOL:
        raise InvLabError("PROB_SUM", f"shock probabilities sum to {probs.sum()!r}")
    return values, probs, step


def build_mdp(
    dynamics: Dynamics,
    shock,
    grid_lo: float,
    grid_hi: float,
    a_max: float,
    cost_fn,
    *,
    step: float | None = None,
    mass_tol: float = 1e-6,
    custom_next=None,
) -> GridMDP:
    """Assemble a GridMDP from dynamics, a shock law, and a cost kernel.

    ``cost_fn(x, a)`` may return ``+inf`` to mark infeasible pairs.  Raises
    ``GRID_TOO_NARROW`` when a shock atom with probability above
    ``mass_tol`` would clamp at a grid edge under a finite-cost action,
    and ``NO_FINITE_ACTION`` when some state has no finite-cost action.
    """
    shock_values, shock_probs, step = _as_shock(shock, step)
    grid = _lattice(grid_lo, grid_hi, step)
    n = grid.size
    n_a = int(round(a_max / step)) + 1
    actions = step * np.arange(n_a)

    # raw successor lattice offsets per (y-or-(x,a), atom)
    shock_off = np.rint(shock_values / step).astype(np.int64)
    if np.any(np.abs(shock_values - shock_off * step) > 1e-9 * max(1.0, step)):
        raise InvLabError("OFF_LATTICE", "shock atoms must sit on the state lattice")

    if dynamics is Dynamics.CUSTOM:
        if custom_next is None:
            raise ValueError("CUSTOM dynamics needs a next-state function (x, a, shock) -> value")
        raw = np.empty((n * n_a, shock_values.size))
        for i, x in enumerate(grid):
            for j, a in enumerate(actions):
                raw[i * n_a + j, :] = [custom_next(float(x), float(a), float(s)) for s in shock_values]
        y_raw = np.rint((raw - grid[0]) / step).astype(np.int64)
        if np.any(np.abs(raw - (grid[0] + y_raw * step)) > 1e-9 * max(1.0, step)):
            raise InvLabError("OFF_LATTICE", "custom next states must sit on the state lattice")
        y_of = np.arange(n * n_a).reshape(n, n_a)  # every pair is its own level
    else:
        # one level per post-order inventory y = x + a, over the extended
        # range grid_lo .. grid_hi + a_max so infeasible pairs have rows too
        y_raw = np.arange(n + n_a - 1)[:, None] - shock_off[None, :]
        if dynamics is Dynamics.LOST_SALES:
            zero_idx = _lattice_index(grid, 0.0, step)
            if zero_idx is None:
                raise ValueError("lost-sales dynamics needs 0 on the grid")
            y_raw = np.maximum(y_raw, zero_idx)
        y_of = np.arange(n)[:, None] + np.arange(n_a)[None, :]
    clamped = (y_raw < 0) | (y_raw > n - 1)

    cost = np.empty((n, n_a))
    for i, x in enumerate(grid):
        for j, a in enumerate(actions):
            cost[i, j] = cost_fn(float(x), float(a))
    if np.any(np.isnan(cost)) or np.any(cost == -np.inf):
        raise ValueError("costs must be finite or +inf")
    finite = np.isfinite(cost)
    if not finite.any(axis=1).all():
        bad = int(np.nonzero(~finite.any(axis=1))[0][0])
        raise InvLabError("NO_FINITE_ACTION", f"state {grid[bad]} has no finite-cost action")

    mass_loss = (clamped * shock_probs).sum(axis=1)[y_of]
    too_narrow = clamped & (shock_probs > mass_tol)
    offending = too_narrow.any(axis=1)[y_of] & finite
    if offending.any():
        i, j = np.argwhere(offending)[0]
        k = int(np.argmax(too_narrow[y_of[i, j]]))
        raise InvLabError(
            "GRID_TOO_NARROW",
            f"shock atom {shock_values[k]} (p={shock_probs[k]}) clamps at the grid edge "
            f"from state {grid[i]} under action {actions[j]}",
        )

    return GridMDP(
        grid=grid,
        step=step,
        actions=actions,
        cost=cost,
        mass_loss=mass_loss,
        shock_probs=np.asarray(shock_probs, dtype=float),
        dynamics=dynamics,
        shift_kernel=dynamics is not Dynamics.CUSTOM,
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

    Orders that would land above the grid top are infeasible (+inf cost), so
    the action set is effectively ``{0, ..., hi - x}``.  Demand falling off
    the bottom edge clamps there; that is unavoidable on a truncated
    backorder grid, so the default ``mass_tol`` accepts it and leaves the
    audit trail in ``mass_loss``.
    """
    if a_max is None:
        a_max = grid_hi - grid_lo
    grid = _lattice(grid_lo, grid_hi, demand.step)
    eh = expected_holding(cost_model.holding, grid, demand)  # E h(y - D) for every post-order level y

    def cost_fn(x, a):
        y = x + a
        if y > grid_hi + 1e-9:
            return math.inf
        j = int(round((y - grid_lo) / demand.step))
        setup = cost_model.K if a > 1e-12 else 0.0
        return setup + cost_model.c_unit * a + eh[j]

    return build_mdp(dynamics, demand, grid_lo, grid_hi, a_max, cost_fn, mass_tol=mass_tol)


def _argmin_sets(mdp: GridMDP, q: np.ndarray, vmin: np.ndarray, tie_tol: float) -> list[np.ndarray]:
    return [mdp.actions[q[i] <= vmin[i] + tie_tol] for i in range(mdp.n_states)]


def _sup_diff(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.abs(a - b)
    both_inf = np.isinf(a) & np.isinf(b)
    diff = np.where(both_inf, 0.0, diff)
    return float(np.max(diff))


def _backup(mdp: GridMDP, v: np.ndarray, alpha: float):
    q = mdp.cost + alpha * mdp.expected_next(v) if alpha != 0.0 else mdp.cost
    return q, q.min(axis=1)


def finite_horizon_vi(mdp: GridMDP, N: int, alpha: float, terminal: np.ndarray, *, tie_tol: float = TIE_TOL) -> list[ValueSolution]:
    """Backward induction for ``N`` steps from the terminal values.

    Entry ``t`` of the result holds the optimal cost with ``t`` periods to
    go; its argmin sets are the optimal first actions at that depth (absent
    at ``t = 0``, where no decision is taken).
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
        sols.append(ValueSolution(vnew, _argmin_sets(mdp, q, vnew, tie_tol), _sup_diff(vnew, v), t))
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


def infinite_horizon_vi(mdp: GridMDP, alpha: float, eps: float, *, tie_tol: float = TIE_TOL) -> ValueSolution:
    """Value iteration from a policy-iteration start until the contraction bound certifies ``eps``.

    The start is the exact value of the policy that Howard policy iteration
    reaches from the myopic policy within ``PI_MAX_STEPS`` improvements
    (each keeps the current action unless another beats it by more than
    ``tie_tol``).  Sweeps then stop once the sup-norm successive difference
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
        return ValueSolution(v, _argmin_sets(mdp, q, v, tie_tol), 0.0, 1)
    threshold = eps * (1.0 - alpha) / (2.0 * alpha)
    rows = np.arange(mdp.n_states)
    phi = mdp.cost.argmin(axis=1)
    iterations = 0
    for _ in range(PI_MAX_STEPS):
        v = policy_values(mdp, phi, alpha)
        q, vmin = _backup(mdp, v, alpha)
        iterations += 1
        improve = q[rows, phi] > vmin + tie_tol
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
    return ValueSolution(v_final, _argmin_sets(mdp, q, v_final, tie_tol), delta, iterations)


def min_action_policy(sol: ValueSolution) -> np.ndarray:
    """Smallest optimal action at each state (deterministic tie-break)."""
    if sol.argmin_sets is None:
        raise ValueError("solution carries no argmin sets")
    return np.array([s[0] for s in sol.argmin_sets])


def check_stationary_optimality(mdp: GridMDP, phi: np.ndarray, v: np.ndarray, alpha: float) -> float:
    """Max Bellman residual of a stationary policy against candidate values.

    A small residual certifies that ``phi`` attains the minimum in the
    optimality equation when ``v`` is (close to) the fixed point.
    """
    cost_phi, succ = mdp.policy_rows(mdp.policy_index(phi))
    rhs = cost_phi + alpha * (np.asarray(v, dtype=float)[succ] @ mdp.shock_probs)
    return float(np.max(np.abs(np.asarray(v) - rhs)))


def k0_clone(cost_model: CostModel) -> CostModel:
    """Same cost structure with the setup cost removed."""
    return replace(cost_model, K=0.0)
