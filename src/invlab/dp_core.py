"""Grid MDPs of periodic-review inventory dynamics, backward induction and policy iteration.

States live on a contiguous lattice, actions on ``{0, step, ..., a_max}``.
The next state is the post-order inventory ``x + a`` less the demand, kept
at or above 0 under lost sales, clamped onto the nearest grid edge when it
falls off the grid.  Clamped mass is recorded per ``(state, action)`` so
truncation stays auditable; builds reject configurations where clamping is
material for a finite-cost action.

The one-step cost is separable, ``K 1{a>0} + c_unit a + L(x + a)``, with
one ``L`` value per post-order level; the successor law, too, depends only
on the level.  So every solver works on per-level arrays: a backup is
Scarf's order-up-to form ``T v(x) = min(F(x), K - c_unit x + min G(y))``
over the levels ``x < y <= x + a_max``, where ``F = L + alpha E v(next)``
and ``G(y) = c_unit y + F(y)``, and the inner minimum is a sliding-window
minimum.  Infeasible levels carry ``+inf`` cost rather than restricted
action sets, so every state keeps the full action lattice and solvers simply
never pick the infinite entries.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .costs import CostModel, expected_holding
from .demand import DemandDistribution, _lattice_index, _lattice_offsets
from .errors import InvLabError

TIE_TOL = 1e-9  # an action is optimal when its backup is within TIE_TOL of the minimum
MAX_PAIRS = 2**22  # (state, action) pairs a lattice may have
PI_MAX_STEPS = 50  # policy-improvement steps before the solve stops with PI_NOT_CONVERGED


class Dynamics(enum.Enum):
    BACKORDER = "backorder"     # next = x + a - D
    LOST_SALES = "lost_sales"   # next = max(x + a - D, 0)


@dataclass
class GridMDP:
    """Finite MDP on a state lattice with the cost ``K 1{a>0} + c_unit a + L(x + a)``.

    Transitions are a level table plus the demand law: pair ``(i, j)`` sits
    on the post-order level ``_y_of[i, j] = i + j``, which moves to
    ``_y_next[level, k]`` with probability ``shock_probs[k]``; off-grid
    successors are clamped onto the edges, the clamped mass kept per pair in
    ``mass_loss``.  ``L`` holds one cost per level, ``grid[0] + step * l``
    for ``l < n + n_a - 1``; ``_y_of`` and ``mass_loss`` are read-only views
    of one value per level (``_on_pairs``).  No (state, action) array is
    stored: the ``cost`` table and the dense ``P`` are built on request.
    """

    grid: np.ndarray
    step: float
    actions: np.ndarray
    K: float
    c_unit: float
    L: np.ndarray  # (levels,) cost of each post-order level, +inf where infeasible
    mass_loss: np.ndarray
    shock_probs: np.ndarray
    dynamics: Dynamics
    _y_next: np.ndarray  # (levels, n_atoms) clamped successor of each level
    _y_of: np.ndarray    # (n, n_a) level of each (state, action) pair, a view of the level numbers
    _order: np.ndarray         # (n_a,) order costs K 1{a>0} + c_unit a
    _setup_less_x: np.ndarray  # (n,) K - c_unit x: an order from x costs this plus c_unit y of the level y it reaches
    _cy: np.ndarray            # (levels,) c_unit y at every level

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
    def cost(self) -> np.ndarray:
        """The ``(n, n_a)`` one-step cost table ``order[j] + L[i + j]``, built on first access for the readers that want one."""
        return self._order[None, :] + _on_pairs(self.L, self.n_actions)

    @functools.cached_property
    def P(self) -> np.ndarray:
        """Dense ``(n, n_a, n)`` transition rows, built from the level table on first access."""
        levels = self._y_next.shape[0]
        rows = np.zeros((levels, self.n_states))
        np.add.at(rows, (np.arange(levels)[:, None], self._y_next), self.shock_probs)
        return rows[self._y_of]

    def finite_pairs(self) -> np.ndarray:
        """Read-only ``(n, n_a)`` bool view: the pairs of finite cost."""
        return _on_pairs(np.isfinite(self.L), self.n_actions)

    def state_index(self, x):
        """Grid index of the state ``x``, a number or an array."""
        return _indices_on(self.grid, x, self.step, "state {} is not on the grid")

    def action_index(self, a):
        """Index of the action ``a``, a number or an array such as a stationary policy."""
        return _indices_on(self.actions, a, self.step, "action {} is not on the action lattice")

    def policy_rows(self, phi_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cost ``(n,)`` and successor rows ``(n, n_atoms)`` of the stationary policy with action indices ``phi_idx``."""
        level = np.arange(self.n_states) + phi_idx
        return self._order[phi_idx] + self.L[level], self._y_next[level]

    def expected_next(self, v: np.ndarray) -> np.ndarray:
        """``E v(next)`` at every post-order level, ``(levels,)``: one sum per level, which pair ``(i, j)`` reads at ``i + j``."""
        return _expect(v, self._y_next, self.shock_probs)

    def policy_backup(self, phi_idx: np.ndarray, v: np.ndarray, alpha: float = 1.0) -> np.ndarray:
        """``T_phi v = c(x, phi(x)) + alpha E v(next)`` at every state, for the action indices ``phi_idx``."""
        cost_phi, succ = self.policy_rows(phi_idx)
        return cost_phi + alpha * _expect(np.asarray(v, dtype=float), succ, self.shock_probs)


@dataclass
class ValueSolution:
    """The discounted solver's result: values, certificate and ``optimal[i, j]``, action ``j`` optimal at state ``i``.

    ``values`` is the last backup's ``T v``; its ``F`` and ``G`` are kept so
    that the mask is read off that backup's pair Q on first access only: a
    discount-ladder rung reads the values alone.
    """

    values: np.ndarray
    residual: float
    iterations: int
    _mdp: GridMDP = field(repr=False)
    _F: np.ndarray = field(repr=False)
    _G: np.ndarray = field(repr=False)

    @functools.cached_property
    def optimal(self) -> np.ndarray:
        """``(n, n_a)`` bool: the actions within ``TIE_TOL`` of ``values`` in the last backup, one float per pair while built."""
        return _optimal_mask(_pair_q(self._mdp, self._F, self._G), self.values)


def _expect(v: np.ndarray, succ: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """``sum_k probs[k] v[succ[..., k]]``, one sum per row of ``succ``, rounded the same whichever rows sit beside it.

    einsum sums each row on its own.  BLAS's matrix-vector product, which
    ``@`` calls, rounds a row by its place in the matrix, so a policy's
    gathered rows would miss ``expected_next``'s sums in the last bit.
    """
    return np.einsum("...k,k->...", v[succ], probs)


def _on_pairs(per_level: np.ndarray, n_a: int) -> np.ndarray:
    """Read-only ``(levels - n_a + 1, n_a)`` view of a 1-D per-level array: pair ``(i, j)`` reads level ``i + j``."""
    s = per_level.strides[0]
    pairs = np.ndarray((per_level.shape[0] - n_a + 1, n_a), per_level.dtype, per_level, 0, (s, s))
    pairs.setflags(write=False)
    return pairs


def _indices_on(points: np.ndarray, x, step: float, message: str):
    """Indices of ``x`` on the lattice ``points``; ValueError ``message`` naming the first value of ``x`` off it."""
    i = _lattice_index(points, x, step)
    if np.any(i < 0):
        raise ValueError(message.format(np.atleast_1d(x)[np.atleast_1d(i) < 0][0]))
    return i


def _lattice(lo: float, hi: float, step: float, a_max: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The float state lattice from ``lo`` to ``hi`` and action lattice up to ``a_max``.

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
    return lo + step * np.arange(n, dtype=float), step * np.arange(n_a, dtype=float)


def build_mdp(
    dynamics: Dynamics,
    demand: DemandDistribution,
    grid_lo: float,
    grid_hi: float,
    a_max: float,
    K: float,
    c_unit: float,
    L,
    *,
    mass_tol: float = 1e-6,
) -> GridMDP:
    """Assemble a GridMDP from the dynamics, the demand law and the cost ``K 1{a>0} + c_unit a + L(x + a)``.

    ``L`` holds one cost per post-order level ``grid_lo + step * l``, ``l <
    n + n_a - 1``, and may hold ``+inf`` to mark infeasible levels.  Raises
    ValueError for an ``L`` of another shape, for a ``K`` or ``c_unit`` that
    is not finite, for a NaN or ``-inf`` cost and past ``MAX_PAIRS`` (state,
    action) pairs, ``GRID_TOO_NARROW`` when a demand atom with probability
    above ``mass_tol`` would clamp at a grid edge under a finite-cost action,
    and ``NO_FINITE_ACTION`` when some state has no finite-cost action.
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
    clamped = (y_raw < 0) | (y_raw > n - 1)

    L = np.asarray(L, dtype=float)
    if L.shape != (n + n_a - 1,):
        raise ValueError(f"level costs have shape {L.shape}, expected ({n + n_a - 1},)")
    if not (math.isfinite(K) and math.isfinite(c_unit)):
        raise ValueError(f"K and c_unit must be finite, got {K} and {c_unit}")
    if np.any(np.isnan(L)) or np.any(L == -np.inf):
        raise ValueError("costs must be finite or +inf")
    finite = np.isfinite(L)
    some_finite = _on_pairs(finite, n_a).any(axis=1)
    if not some_finite.all():
        bad = int(np.argmin(some_finite))
        raise InvLabError("NO_FINITE_ACTION", f"state {grid[bad]} has no finite-cost action")

    too_narrow = clamped & (demand.probs > mass_tol)
    offending = _on_pairs(too_narrow.any(axis=1) & finite, n_a)
    if offending.any():
        i, j = np.argwhere(offending)[0]
        k = int(np.argmax(too_narrow[i + j]))
        raise InvLabError(
            "GRID_TOO_NARROW",
            f"shock atom {demand.values[k]} (p={demand.probs[k]}) clamps at the grid edge "
            f"from state {grid[i]} under action {actions[j]}",
        )

    K, c_unit = float(K), float(c_unit)
    cy = c_unit * (grid_lo + step * np.arange(n + n_a - 1, dtype=float))  # its first n levels are c_unit * grid, bitwise
    return GridMDP(
        grid=grid,
        step=step,
        actions=actions,
        K=K,
        c_unit=c_unit,
        L=L,
        mass_loss=_on_pairs((clamped * demand.probs).sum(axis=1), n_a),
        shock_probs=demand.probs,
        dynamics=dynamics,
        _y_next=np.clip(y_raw, 0, n - 1),
        _y_of=_on_pairs(np.arange(n + n_a - 1), n_a),
        _order=np.where(np.arange(n_a) > 0, K, 0.0) + c_unit * actions,
        _setup_less_x=K - cy[:n],
        _cy=cy,
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

    ``L`` is ``E h(y - D)`` at every grid level ``y``.  Orders that would
    land above the grid top are infeasible (+inf cost), so the action set is
    effectively ``{0, ..., hi - x}``.  Demand falling off the bottom edge
    clamps there; that is unavoidable on a truncated backorder grid, so the
    default ``mass_tol`` accepts it and leaves the audit trail in
    ``mass_loss``.
    """
    if a_max is None:
        a_max = grid_hi - grid_lo
    grid, actions = _lattice(grid_lo, grid_hi, demand.step, a_max)
    eh = expected_holding(cost_model.holding, grid, demand)  # E h(y - D) for every post-order level y
    L = np.concatenate([eh, np.full(actions.size - 1, math.inf)])  # levels above the grid top are infeasible
    return build_mdp(dynamics, demand, grid_lo, grid_hi, a_max, cost_model.K, cost_model.c_unit, L, mass_tol=mass_tol)


def _optimal_mask(q: np.ndarray, bound) -> np.ndarray:
    """``q <= bound + TIE_TOL``, one bound per row of ``q`` (one number for a 1-D ``q``): the entries optimal against ``bound``.

    The package's one tie rule: optimal actions, ladder minimizers and both (s, S) masks read it.
    """
    return q <= np.asarray(bound)[..., None] + TIE_TOL


def _sup_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Sup-norm distance, 0 where both entries are infinite."""
    return float(np.max(np.where(np.isinf(a) & np.isinf(b), 0.0, np.abs(a - b))))


def _window_min(g: np.ndarray, w: int) -> np.ndarray:
    """``min(g[k : k + w])`` for every ``k <= g.size - w``, in O(g.size): the van Herk / Gil-Werman block scans.

    ``g`` is cut into blocks of ``w`` entries, the last padded with +inf, and
    each block is scanned for running minima from its left and from its
    right end; window ``k`` is the right scan of its block at ``k`` and the
    left scan of the next block at ``k + w - 1``.  ``w = g.size`` is one block.
    """
    pad = -g.size % w
    padded = np.concatenate([g, np.full(pad, np.inf)]) if pad else g
    left = np.minimum.accumulate(padded.reshape(-1, w), axis=1).ravel()
    right = np.minimum.accumulate(padded[::-1].reshape(-1, w), axis=1).ravel()[::-1]
    return np.minimum(right[:g.size - w + 1], left[w - 1:g.size])


def _backup(mdp: GridMDP, v: np.ndarray, alpha: float):
    """``(F, G, W, T v)``: one Bellman backup through the order-up-to objective, all on per-level arrays.

    ``F = L + alpha E v(next)`` is the cost of ordering nothing from each
    level and ``G = c_unit y + F``, both ``(levels,)``; ``W[i]`` is the
    minimum of ``G`` over the order window ``[i + 1, i + n_a - 1]`` (``+inf``
    when ``n_a = 1``), and ``T v = min(F[i], (K - c_unit x_i) + W[i])``.  At
    ``alpha = 0`` ``F`` is ``L`` itself and ``E v`` is not formed.
    """
    n, n_a = mdp.n_states, mdp.n_actions
    F = mdp.L if alpha == 0.0 else mdp.L + alpha * mdp.expected_next(v)
    G = mdp._cy + F
    W = np.full(n, np.inf) if n_a == 1 else _window_min(G[1:], n_a - 1)
    return F, G, W, np.minimum(F[:n], mdp._setup_less_x + W)


def _pair_q(mdp: GridMDP, F: np.ndarray, G: np.ndarray, rows=slice(None)) -> np.ndarray:
    """The backup's ``Q(i, j)`` on ``rows``, one float per pair: ``F[i]`` at ``j = 0``, ``(K - c_unit x_i) + G[i + j]`` above.

    Rounding ``(K - c_unit x_i) + g`` is monotone in ``g``, so each row's
    minimum is bitwise the backup's ``T v``; the ``j = 0`` column is bitwise
    ``cost[i, 0] + alpha E v``.
    """
    base = mdp._setup_less_x[rows]
    q = np.empty((base.size, mdp.n_actions))
    q[:, 0] = F[:mdp.n_states][rows]
    np.add(base[:, None], _on_pairs(G[1:], mdp.n_actions - 1)[rows], out=q[:, 1:])
    return q


def _chosen_q(mdp: GridMDP, phi_idx: np.ndarray, level: np.ndarray, F_chosen: np.ndarray) -> np.ndarray:
    """``Q(i, phi_i)`` from ``F`` at each state's chosen level ``i + phi_i``: ``_pair_q``'s entry, bitwise, in O(n)."""
    return np.where(phi_idx > 0, mdp._setup_less_x + (mdp._cy[level] + F_chosen), F_chosen)


def _policy_q(mdp: GridMDP, phi_idx: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    """The backup's ``Q(i, phi_i)`` for the action indices ``phi_idx``, with ``F`` formed at the chosen levels alone.

    ``E v`` is summed from those levels only, so this is no backup, yet each
    entry is bitwise ``_pair_q``'s for the same ``v`` (``_expect`` rounds a
    level the same wherever it is summed) and is tested against ``T v``
    with the same tie rule as a mask.
    """
    level = np.arange(mdp.n_states) + phi_idx
    F_chosen = mdp.L[level]
    if alpha != 0.0:
        F_chosen = F_chosen + alpha * _expect(np.asarray(v, dtype=float), mdp._y_next[level], mdp.shock_probs)
    return _chosen_q(mdp, phi_idx, level, F_chosen)


def _greedy(mdp: GridMDP, F: np.ndarray, G: np.ndarray, W: np.ndarray, tv: np.ndarray) -> np.ndarray:
    """An optimal action index per state: 0 where ordering nothing attains ``T v``, else the first level of the order window at ``W``.

    The window's levels are compared with ``W`` on the pair view, one byte per pair.
    """
    if mdp.n_actions == 1:
        return np.zeros(mdp.n_states, dtype=np.intp)
    first = (_on_pairs(G[1:], mdp.n_actions - 1) == W[:, None]).argmax(axis=1)
    return np.where(F[:mdp.n_states] == tv, 0, 1 + first)


def _backup_mask(mdp: GridMDP, v: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """``(T v, mask)``: one backup of ``v`` and its optimal-action mask, read off the one pair Q built for it."""
    F, G, _, tv = _backup(mdp, v, alpha)
    return tv, _optimal_mask(_pair_q(mdp, F, G), tv)


def finite_horizon_vi(mdp: GridMDP, N: int, alpha: float, terminal: np.ndarray) -> np.ndarray:
    """Backward induction for ``N`` steps from the terminal values.

    Row ``t`` of the ``(N + 1, n)`` result is the optimal cost with ``t``
    periods to go, one ``_backup`` of row ``t - 1``; no (state, action)
    array is formed.  No mask is kept: the optimal first actions at depth
    ``t`` are ``_backup_mask(mdp, values[t - 1], alpha)``.
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
    values = np.empty((N + 1, mdp.n_states))
    values[0] = terminal
    for t in range(1, N + 1):
        values[t] = _backup(mdp, values[t - 1], alpha)[3]
    return values


def policy_values(mdp: GridMDP, phi_idx: np.ndarray, alpha: float) -> np.ndarray:
    """Exact discounted value of the stationary policy with action indices ``phi_idx``.

    Solves ``(I - alpha P_phi) v = c_phi``.  The ``n x n`` matrix is summed
    from the successor table and scaled in place, so no more than two such
    arrays (it and the solver's copy) are live at once.
    """
    n = mdp.n_states
    cost_phi, succ = mdp.policy_rows(phi_idx)
    flat = (succ.T + n * np.arange(n)).ravel()  # atom-major; an entry still adds its atoms in index order, so bitwise the row-major sum
    A = np.bincount(flat, weights=np.repeat(mdp.shock_probs, n), minlength=n * n).reshape(n, n)
    A *= -alpha
    A.flat[:: n + 1] += 1.0
    return np.linalg.solve(A, cost_phi)


def _improve(mdp: GridMDP, phi: np.ndarray, v: np.ndarray, alpha: float, tol: float):
    """``(T v, phi', improved)``: one policy improvement of the action indices ``phi`` against ``v``.

    A state keeps its action unless the backup's ``Q(i, phi_i)``, read in
    O(n), exceeds ``T v`` by more than ``tol``; an improved state takes
    ``_greedy``'s action.
    """
    F, G, W, tv = _backup(mdp, v, alpha)
    level = np.arange(mdp.n_states) + phi
    improve = _chosen_q(mdp, phi, level, F[level]) > tv + tol
    if not improve.any():
        return tv, phi, False
    return tv, np.where(improve, _greedy(mdp, F, G, W, tv), phi), True


def infinite_horizon_vi(mdp: GridMDP, alpha: float, eps: float) -> ValueSolution:
    """Howard policy iteration from the myopic policy, certified to ``eps`` by one backup.

    Each step evaluates the policy exactly and keeps its action unless
    another beats it by more than ``min(TIE_TOL, threshold)``, where
    ``threshold = eps (1 - alpha) / (2 alpha)`` (``_improve``).  At the stop
    ``T v_phi`` is within ``threshold`` of ``v_phi`` in exact arithmetic, so
    within ``eps / 2`` of the fixed point; ``residual`` is the computed
    distance, read off the last step's own backup ``T v_phi``.  Values and
    mask are the backup of ``T v_phi``, the mask built from it when first
    read; ``iterations`` counts the steps.
    ``alpha = 0`` is a single exact minimization.  Raises InvLabError
    ``NOT_CERTIFIED`` when rounding leaves ``residual`` above ``threshold``
    and ``PI_NOT_CONVERGED`` after ``PI_MAX_STEPS`` steps.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    F, G, W, c_min = _backup(mdp, np.zeros(mdp.n_states), 0.0)
    if not np.isfinite(c_min).all():
        raise InvLabError("NO_FINITE_ACTION", "some state has no finite-cost action")
    if alpha == 0.0:
        return ValueSolution(c_min, 0.0, 1, mdp, F, G)
    phi = _greedy(mdp, F, G, W, c_min)
    threshold = eps * (1.0 - alpha) / (2.0 * alpha)
    for steps in range(1, PI_MAX_STEPS + 1):
        v = policy_values(mdp, phi, alpha)
        tv, phi, improved = _improve(mdp, phi, v, alpha, min(TIE_TOL, threshold))
        if not improved:
            break
    else:
        raise InvLabError("PI_NOT_CONVERGED", f"policy iteration still improving at the step cap PI_MAX_STEPS = {PI_MAX_STEPS}")
    residual = _sup_diff(tv, v)  # tv is T v_phi
    if residual > threshold:
        certified = 2.0 * alpha * residual / (1.0 - alpha)
        raise InvLabError("NOT_CERTIFIED", f"Bellman residual {residual:.3g} exceeds {threshold:.3g}: the values certify eps {certified:.3g}, not {eps}")
    F, G, _, values = _backup(mdp, tv, alpha)
    return ValueSolution(values, residual, steps, mdp, F, G)


def check_stationary_optimality(mdp: GridMDP, phi: np.ndarray, v: np.ndarray, alpha: float) -> float:
    """Max Bellman residual of a stationary policy, given as action values ``phi``, against candidate values.

    ``phi`` is the ``action`` column of a written ``policy.csv``; a small residual certifies that
    it attains the minimum in the optimality equation when ``v`` is (close to) the fixed point.
    """
    rhs = mdp.policy_backup(mdp.action_index(phi), v, alpha)
    return float(np.max(np.abs(np.asarray(v) - rhs)))
