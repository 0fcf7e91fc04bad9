"""Partially observed inventory: container observations and belief dynamics.

The grid range is split into containers (intervals of at least two lattice
points, lower-closed).  A transparent container reveals the exact inventory
level; a nontransparent one reveals only a fixed representative point inside
it.  Because the observation is a deterministic function of the hidden next
state, the Bayes update is a restriction of the one-step predictive
distribution to the observed container followed by renormalization, and the
observation space is finite, so the belief value iteration is exact over the
reachable tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .demand import _lattice_index
from .dp_core import GridMDP, _optimal_mask
from .errors import InvLabError

BELIEF_TOL = 1e-12
MERGE_DECIMALS = 10


@dataclass(frozen=True)
class Container:
    lo: float
    hi: float
    transparent: bool
    rep: float | None = None


@dataclass
class ContainerPartition:
    """Partition of the grid into observation containers.

    ``state_container[i]`` maps grid states to container ordinals,
    ``state_obs[i]`` to observation ids, and ``obs_values`` carries the
    emitted value per observation id (the state itself in transparent
    containers, the representative otherwise).  Container labels are
    1-based at the container holding inventory level zero.
    """

    containers: list[Container]
    grid: np.ndarray
    step: float
    state_container: np.ndarray = field(repr=False, default=None)
    state_obs: np.ndarray = field(repr=False, default=None)
    obs_values: np.ndarray = field(repr=False, default=None)
    labels: list[int] = field(repr=False, default=None)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        ordered = sorted(self.containers, key=lambda c: (c.lo, c.hi))
        # the intervals must cover [grid[0], grid[-1]], between lattice points too;
        # a sentinel at the grid top catches a gap above the last container
        cursor = float(grid[0])
        for cont in ordered + [Container(float(grid[-1]), math.inf, True)]:
            if cont.lo > cursor + 1e-9:
                raise ValueError(f"containers leave a gap: [{cursor}, {float(cont.lo)}] is uncovered")
            cursor = max(cursor, float(cont.hi))
        n = grid.size
        assignment = np.full(n, -1, dtype=np.int64)
        for k, cont in enumerate(ordered):
            # lower-closed intervals; the top container also claims its upper end
            mask = (grid >= cont.lo - 1e-9) & (grid < cont.hi - 1e-9)
            if k == len(ordered) - 1:
                mask |= np.abs(grid - cont.hi) <= 1e-9
            overlap = mask & (assignment >= 0)
            if overlap.any():
                raise ValueError(f"containers overlap at state {grid[overlap][0]}")
            assignment[mask] = k
        for k, cont in enumerate(ordered):
            count = int((assignment == k).sum())
            if count < 2:
                raise ValueError(f"container [{cont.lo}, {cont.hi}) covers {count} lattice point(s); need at least 2")

        reps = []
        fixed = []
        for k, cont in enumerate(ordered):
            if cont.transparent:
                fixed.append(cont)
                reps.append(None)
                continue
            members = grid[assignment == k]
            if cont.rep is None:
                # midpoint suggestion, snapped to the lattice and kept strictly inside
                mid = 0.5 * (cont.lo + cont.hi)
                rep = float(members[np.argmin(np.abs(members - mid))])
                rep = min(max(rep, cont.lo + self.step), cont.hi - self.step)
                rep = float(members[np.argmin(np.abs(members - rep))])
            else:
                rep = float(cont.rep)
            if not (cont.lo < rep < cont.hi):
                raise ValueError(f"representative {rep} is not strictly inside [{cont.lo}, {cont.hi})")
            i = _lattice_index(grid, rep, self.step)
            if i < 0 or assignment[i] != k:
                raise ValueError(f"representative {rep} is not a lattice state of its container")
            reps.append(rep)
            fixed.append(Container(cont.lo, cont.hi, False, rep))

        # observation ids: transparent states each get their own, containers share one
        state_obs = np.full(n, -1, dtype=np.int64)
        obs_values = []
        cont_obs = {}
        for i in range(n):
            k = int(assignment[i])
            if fixed[k].transparent:
                state_obs[i] = len(obs_values)
                obs_values.append(float(grid[i]))
            else:
                if k not in cont_obs:
                    cont_obs[k] = len(obs_values)
                    obs_values.append(reps[k])
                state_obs[i] = cont_obs[k]

        zero_k = None
        for k, cont in enumerate(fixed):
            if cont.lo - 1e-9 <= 0 < cont.hi - 1e-9 or (k == len(fixed) - 1 and abs(cont.hi) <= 1e-9):
                zero_k = k
                break
        if zero_k is None:
            zero_k = 0  # zero lies outside the grid range; label from the bottom
        labels = [k - zero_k + 1 for k in range(len(fixed))]

        self.containers = fixed
        self.grid = grid
        self.state_container = assignment
        self.state_obs = state_obs
        self.obs_values = np.asarray(obs_values)
        self.labels = labels

    @property
    def n_obs(self) -> int:
        return self.obs_values.size

    def obs_id_of_value(self, y: float) -> int:
        """Resolve an emitted observation value back to its id."""
        # y is emittable when the state at y emits y itself
        i = _lattice_index(self.grid, y, self.step)
        if i < 0 or _lattice_index(self.grid, self.obs_values[self.state_obs[i]], self.step) != i:
            raise InvLabError("IMPOSSIBLE_OBSERVATION", f"{y} is not an emittable observation")
        return int(self.state_obs[i])


def make_belief(atoms, grid: np.ndarray) -> np.ndarray:
    """Probability vector over the grid from (state, mass) pairs."""
    z = np.zeros(len(grid))
    lo, hi, step = float(grid[0]), float(grid[-1]), float(grid[1] - grid[0])
    for k, (x, p) in enumerate(atoms):
        i = _lattice_index(grid, x, step)
        if i < 0:
            raise ValueError(f"prior[{k}] state {x!r} is not on the grid [{lo}, {hi}] at step {step}")
        z[i] += p
    return validate_belief(z)


def validate_belief(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if np.any(z < -BELIEF_TOL):
        raise ValueError("belief has negative mass")
    # a NaN or infinite mass makes the sum NaN or infinite, which fails this test
    if not abs(float(z.sum()) - 1.0) <= BELIEF_TOL:
        raise ValueError(f"belief mass sums to {float(z.sum())!r}, not 1")
    return z


def observe_psi(part: ContainerPartition, x: float) -> float:
    """Observation emitted by a hidden state: itself, or its container's representative."""
    i = _lattice_index(part.grid, x, part.step)
    if i < 0:
        raise ValueError(f"state {x} is not on the grid")
    return float(part.obs_values[part.state_obs[i]])


def observation_marginal(mdp: GridMDP, part: ContainerPartition, z: np.ndarray, a: float) -> np.ndarray:
    """Distribution of the next observation, aligned with ``part.obs_values``."""
    z = validate_belief(z)
    pred = mdp.predictive(z, mdp.action_index(a))
    return np.bincount(part.state_obs, weights=pred, minlength=part.n_obs)


def bayes_filter(mdp: GridMDP, part: ContainerPartition, z: np.ndarray, a: float, y: float) -> np.ndarray:
    """Posterior over states after acting and observing.

    The predictive distribution restricted to the states consistent with the
    observation, renormalized.  Raises ``IMPOSSIBLE_OBSERVATION`` when the
    observation has zero predictive mass.
    """
    z = validate_belief(z)
    obs_id = part.obs_id_of_value(y)
    pred = mdp.predictive(z, mdp.action_index(a))
    masked = np.where(part.state_obs == obs_id, pred, 0.0)
    denom = float(masked.sum())
    if denom <= 0.0:
        raise InvLabError("IMPOSSIBLE_OBSERVATION", f"observation {y} has zero probability under this belief")
    return masked / denom


def comdp_cost(mdp: GridMDP, z: np.ndarray, j: int) -> float:
    """Expected one-step cost under the belief of the action with index ``j``; +inf if any charged state is infeasible."""
    z = validate_belief(z)
    col = mdp.cost[:, j]
    charged = z > 0
    if np.any(np.isinf(col[charged])):
        return math.inf
    return float(z[charged] @ col[charged])


def _belief_key(z: np.ndarray) -> bytes:
    return (np.round(z, MERGE_DECIMALS) + 0.0).tobytes()


@dataclass
class BeliefNode:
    value: float
    optimal: np.ndarray  # (n_a,) bool mask of the optimal actions; all False at depth 0
    children: dict  # (action_index, obs_id) -> child key at depth remaining - 1


@dataclass
class BeliefSolution:
    value: float
    root_actions: np.ndarray
    horizon: int
    root_key: bytes
    nodes: dict  # (key, remaining) -> BeliefNode
    node_count: int


def belief_value_iteration(
    mdp: GridMDP,
    part: ContainerPartition,
    p0: np.ndarray,
    N: int,
    alpha: float,
    *,
    max_nodes: int = 1_000_000,
) -> BeliefSolution:
    """Exact backward induction over the reachable belief tree.

    Beliefs agreeing to within the merge tolerance share a node; merging is
    an optimization only, since such beliefs have equal values to well below
    the solver tolerance.  Raises ``TREE_TOO_LARGE`` past ``max_nodes``.
    """
    if N < 0:
        raise ValueError(f"horizon must be nonnegative, got {N}")
    p0 = validate_belief(np.asarray(p0, dtype=float))
    nodes: dict = {}

    def solve(z: np.ndarray, remaining: int) -> tuple[bytes, float]:
        key = _belief_key(z)
        memo = nodes.get((key, remaining))
        if memo is not None:
            return key, memo.value
        if len(nodes) >= max_nodes:
            raise InvLabError("TREE_TOO_LARGE", f"belief tree exceeded {max_nodes} nodes")
        if remaining == 0:
            nodes[(key, 0)] = BeliefNode(0.0, np.zeros(mdp.n_actions, dtype=bool), {})
            return key, 0.0
        q = np.full(mdp.n_actions, math.inf)
        children: dict = {}
        for j in range(mdp.n_actions):
            cbar = comdp_cost(mdp, z, j)
            if not np.isfinite(cbar):
                continue
            total = cbar
            if remaining > 1:  # depth-0 children carry value 0 and are never replayed
                pred = mdp.predictive(z, j)
                marg = np.bincount(part.state_obs, weights=pred, minlength=part.n_obs)
                cont = 0.0
                for obs_id in np.nonzero(marg > 0)[0]:
                    masked = np.where(part.state_obs == obs_id, pred, 0.0)
                    child = masked / marg[obs_id]
                    ckey, cval = solve(child, remaining - 1)
                    children[(j, int(obs_id))] = ckey
                    cont += marg[obs_id] * cval
                total += alpha * cont
            q[j] = total
        vmin = float(q.min())
        nodes[(key, remaining)] = BeliefNode(vmin, _optimal_mask(q, vmin), children)
        return key, vmin

    root_key, value = solve(p0, N)
    root = nodes[(root_key, N)]
    return BeliefSolution(value, mdp.actions[root.optimal], N, root_key, nodes, len(nodes))


class TreePolicy:
    """Replay the optimal actions of a solved belief tree along observations; both are indices, as the tree stores them."""

    def __init__(self, solution: BeliefSolution, mdp: GridMDP, part: ContainerPartition):
        self.solution = solution
        self.mdp = mdp
        self.part = part

    def start(self):
        return (self.solution.root_key, self.solution.horizon)

    def action(self, cursor) -> int:
        return int(self.solution.nodes[cursor].optimal.argmax())  # the smallest optimal action

    def advance(self, cursor, obs_id: int):
        child = self.solution.nodes[cursor].children.get((self.action(cursor), int(obs_id)))
        if child is None:
            y = self.part.obs_values[obs_id]
            raise InvLabError("IMPOSSIBLE_OBSERVATION", f"observation {y} was unreachable in the solved tree")
        return (child, cursor[1] - 1)


@dataclass
class SimulationResult:
    samples: np.ndarray
    mean: float
    ci_low: float
    ci_high: float


def replication_uniforms(seed: int, reps: int, n: int, first: int = 0) -> np.ndarray:
    """``(reps, n)`` uniforms; row ``i`` is drawn from the Philox stream keyed ``(seed, first + i)``.

    Row ``i`` equals ``Generator(Philox(key=[seed, first + i])).random(n)``.
    One bit generator is re-keyed per row (zero counter, empty buffer)
    instead of building one per row, which would also seed an unused
    ``SeedSequence`` from OS entropy each time.
    """
    u = np.empty((reps, n))
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    key = [seed, first]
    # the state setter copies these values, so one dict serves every row
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i in range(reps):
        key[1] = first + i
        bits.state = state
        gen.random(out=u[i])
    return u


def summarize_samples(samples: np.ndarray) -> SimulationResult:
    samples = np.asarray(samples, dtype=float)
    mean = float(samples.mean())
    if samples.size > 1:
        half = 1.96 * float(samples.std(ddof=1)) / math.sqrt(samples.size)
    else:
        half = 0.0
    return SimulationResult(samples, mean, mean - half, mean + half)


def pomdp_simulate(
    mdp: GridMDP,
    part: ContainerPartition,
    policy,
    p0: np.ndarray,
    horizon: int,
    reps: int,
    seed: int,
    alpha: float,
) -> SimulationResult:
    """Monte Carlo rollout of a policy on the hidden chain.

    The hidden state starts from the prior, moves by the transition rows,
    and emits container observations; the policy sees only those.  Each
    replication consumes its own counter-based stream keyed by
    ``(seed, replication)``, so results are reproducible and order
    independent.
    """
    p0 = validate_belief(np.asarray(p0, dtype=float))
    is_tree = isinstance(policy, TreePolicy)
    samples = np.empty(reps)
    n = mdp.n_states
    point = np.eye(n)  # one-hot state laws, so predictive gives one state's row
    draws = replication_uniforms(seed, reps, horizon + 1)
    for rep in range(reps):
        u = draws[rep]
        x_idx = int(np.searchsorted(np.cumsum(p0), u[0] * p0.sum()))
        x_idx = min(x_idx, n - 1)
        total = 0.0
        disc = 1.0
        cursor = policy.start() if is_tree else None
        belief = p0.copy()
        for t in range(horizon):
            if is_tree:
                j = policy.action(cursor)
            else:
                a = float(policy(belief, t))
                j = mdp.action_index(a)
            total += disc * float(mdp.cost[x_idx, j])
            # inverse transform over the state-ordered row; sampling atoms would change the draws
            row_cum = np.cumsum(mdp.predictive(point[x_idx], j))
            x_idx = int(np.searchsorted(row_cum, u[t + 1] * row_cum[-1]))
            x_idx = min(x_idx, n - 1)
            obs_id = part.state_obs[x_idx]
            if not is_tree:
                belief = bayes_filter(mdp, part, belief, a, float(part.obs_values[obs_id]))
            elif t < horizon - 1:
                cursor = policy.advance(cursor, obs_id)
            disc *= alpha
        samples[rep] = total
    return summarize_samples(samples)
