"""Partially observed inventory: container observations, the belief tree and its rollouts.

The grid range is split into containers (intervals of at least two lattice
points, lower-closed).  A transparent container reveals the exact inventory
level; a nontransparent one reveals only a fixed representative point inside
it.  Because the observation is a deterministic function of the hidden next
state, the Bayes update is a restriction of the one-step predictive
distribution to the observed container followed by renormalization, and the
observation space is finite, so the belief value iteration is exact over the
reachable tree.  ``_posteriors`` computes a node's predictive laws,
observation marginals and posteriors for all its actions at once.  The
solved tree is one set of arrays over node ids (``BeliefSolution``), and
``pomdp_simulate`` replays it along observation ids on the hidden chain.
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
    containers, the representative otherwise).
    """

    containers: list[Container]
    grid: np.ndarray
    step: float
    state_container: np.ndarray = field(repr=False, default=None)
    state_obs: np.ndarray = field(repr=False, default=None)
    obs_values: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        ordered = sorted(self.containers, key=lambda c: (c.lo, c.hi))
        # the intervals must cover [grid[0], grid[-1]], between lattice points too;
        # a sentinel at the grid top catches a gap above the last container
        lo = np.array([c.lo for c in ordered] + [grid[-1]], dtype=float)
        hi = np.array([c.hi for c in ordered] + [math.inf], dtype=float)
        cursor = np.fmax.accumulate(np.append(grid[0], hi[:-1]))  # fmax passes over a NaN bound
        gap = np.flatnonzero(lo > cursor + 1e-9)
        if gap.size:
            raise ValueError(f"containers leave a gap: [{float(cursor[gap[0]])}, {float(lo[gap[0]])}] is uncovered")
        # member[k, i]: container k holds state i; lower-closed, and the top container also claims its upper end
        member = (grid >= lo[:-1, None] - 1e-9) & (grid < hi[:-1, None] - 1e-9)
        member[-1] |= np.abs(grid - hi[-2]) <= 1e-9
        held = member.any(axis=0)
        if not held.all():  # the 1e-9 gap allowance above can still skip a lattice state
            raise ValueError(f"state {grid[~held][0]} lies in no container")
        assignment = member.argmax(axis=0)  # the first container holding each state
        overlap = member & (np.arange(len(ordered))[:, None] > assignment)
        if overlap.any():
            k = overlap.any(axis=1).argmax()
            raise ValueError(f"containers overlap at state {grid[overlap[k]][0]}")
        counts = member.sum(axis=1)
        if (counts < 2).any():
            k = (counts < 2).argmax()
            raise ValueError(f"container [{ordered[k].lo}, {ordered[k].hi}) covers {counts[k]} lattice point(s); need at least 2")

        reps = np.full(len(ordered), math.nan)
        for k, cont in enumerate(ordered):
            if cont.transparent:
                continue
            members = grid[member[k]]
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
            if i < 0 or not member[k, i]:
                raise ValueError(f"representative {rep} is not a lattice state of its container")
            reps[k] = rep
            ordered[k] = Container(cont.lo, cont.hi, False, rep)

        # observation ids, by state: a transparent state opens its own, a container's first state the container's
        opaque = ~np.array([c.transparent for c in ordered])[assignment]
        opens = ~opaque
        opens[member.argmax(axis=1)] = True
        self.containers = ordered
        self.grid = grid
        self.state_container = assignment
        self.state_obs = np.cumsum(opens) - 1
        self.obs_values = np.where(opaque, reps[assignment], grid)[opens]

    @property
    def n_obs(self) -> int:
        return self.obs_values.size


def make_belief(atoms, grid: np.ndarray) -> np.ndarray:
    """Probability vector over the grid from (state, mass) pairs."""
    z = np.zeros(len(grid))
    lo, hi, step = float(grid[0]), float(grid[-1]), float(grid[1] - grid[0])
    for k, (x, p) in enumerate(atoms):
        i = _lattice_index(grid, x, step)
        if i < 0:
            raise ValueError(f"prior[{k}] state {x!r} is not on the grid [{lo}, {hi}] at step {step}")
        if p < 0:
            raise ValueError(f"prior[{k}] mass {p!r} is negative")
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


def comdp_cost(mdp: GridMDP, z: np.ndarray) -> np.ndarray:
    """Expected one-step cost under the belief ``z`` of every action, ``(n_a,)``.

    Only the charged states (``z > 0``) count, so an action is ``+inf`` when
    some charged state makes it infeasible.  Each action's cost is one dot
    product of the charged masses with that action's charged costs, taken
    from a contiguous copy of the columns: a strided column can move the
    last bit.
    """
    z = validate_belief(z)
    charged = z > 0
    zc = z[charged]
    return np.array([zc @ col for col in np.ascontiguousarray(mdp.cost[charged].T)])


def _posteriors(mdp: GridMDP, part: ContainerPartition, z: np.ndarray, actions: np.ndarray):
    """Posteriors of the belief ``z`` after each action index in ``actions`` and each observation of positive mass.

    Returns ``(act, obs, marg, states, mass, bounds)``: posterior ``g``
    follows action ``actions[act[g]]`` and observation ``obs[g]``, whose
    probability is ``marg[g]``, and holds the masses ``mass[bounds[g]:bounds[g + 1]]``
    on the ascending states ``states[...]``; posteriors come by action, then
    observation.  Every predictive law comes from one ``bincount`` over
    (action, state, atom) and every marginal from one over the nonzero
    predictive entries; each sum adds its terms in the order of a
    separate law per action.
    """
    n = mdp.n_states
    charged = np.flatnonzero(z > 0)
    succ = mdp._y_next[mdp._y_of[charged][:, actions].T]  # (action, state, atom)
    weights = np.broadcast_to(z[charged, None] * mdp.shock_probs, succ.shape)
    pred = np.bincount((succ + n * np.arange(actions.size)[:, None, None]).ravel(), weights=weights.ravel(), minlength=actions.size * n)
    hit = np.flatnonzero(pred)
    act, states = np.divmod(hit, n)
    group = act * part.n_obs + part.state_obs[states]
    order = np.argsort(group, kind="stable")  # keeps the states ascending within a posterior
    group, states, mass = group[order], states[order], pred[hit][order]
    new = np.concatenate(([True], group[1:] != group[:-1]))
    gid = np.cumsum(new) - 1
    marg = np.bincount(gid, weights=mass)
    mass /= marg[gid]
    first = np.flatnonzero(new)
    act, obs = np.divmod(group[first], part.n_obs)
    return act, obs, marg, states, mass, np.append(first, group.size)


def _belief_keys(states: np.ndarray, mass: np.ndarray, bounds: np.ndarray) -> list[bytes]:
    """Merge keys of the beliefs ``mass[bounds[g]:bounds[g + 1]]`` on ``states[...]``, one per ``g``.

    A key is the belief's nonzero entries after rounding to
    ``MERGE_DECIMALS``: their states, then their values.  Two beliefs share a
    key exactly when their rounded vectors over the grid are equal.
    """
    r = np.round(mass, MERGE_DECIMALS) + 0.0  # + 0.0 turns -0.0 into 0.0
    keep = r != 0
    kept = np.concatenate(([0], np.cumsum(keep)))[bounds] * 8  # byte offsets; states and values are 8 bytes each
    sb, rb = states[keep].astype(np.int64).tobytes(), r[keep].tobytes()
    return [sb[a:b] + rb[a:b] for a, b in zip(kept[:-1].tolist(), kept[1:].tolist())]


@dataclass
class BeliefSolution:
    """A solved belief tree as arrays over node ids, numbered in the order nodes finish, so children come first."""

    value: float
    horizon: int
    root: int  # node id of the prior at the full horizon
    node_count: int
    values: np.ndarray  # (node_count,) optimal value of each node
    optimal: np.ndarray  # (node_count, n_a) bool mask of each node's optimal actions; all False at depth 0
    children: np.ndarray  # (k, 4) int rows (node, action index, obs id, child), sorted in that order


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
    the solver tolerance.  A node is solved in a few array operations: the
    one-step costs from ``comdp_cost``, every feasible action's predictive
    law from one ``bincount`` over (action, state, atom), and every
    observation marginal and posterior from the nonzero entries of those
    laws.  Children are then visited by action and observation, ascending.
    Nodes get integer ids in the order they are finished; a memo maps each
    merge key and remaining horizon to its id.  Raises ``TREE_TOO_LARGE``
    past ``max_nodes``.
    """
    if N < 0:
        raise ValueError(f"horizon must be nonnegative, got {N}")
    p0 = validate_belief(np.asarray(p0, dtype=float))
    values: list[float] = []
    masks: list[np.ndarray] = []
    rows = [np.empty((0, 4), dtype=np.int64)]  # children of each finished node, in id order
    memo: dict = {}  # (key, remaining) -> node id

    def solve(z: np.ndarray, key: bytes, remaining: int) -> int:
        if len(values) >= max_nodes:
            raise InvLabError("TREE_TOO_LARGE", f"belief tree exceeded {max_nodes} nodes")
        if remaining == 0:
            vmin, mask = 0.0, np.zeros(mdp.n_actions, dtype=bool)
        else:
            q = comdp_cost(mdp, z)
            feasible = np.flatnonzero(q < math.inf)
            if remaining > 1 and feasible.size:  # depth-0 children carry value 0 and are never replayed
                act, obs, marg, states, mass, bounds = _posteriors(mdp, part, z, feasible)
                ids = []
                cont = [0.0] * feasible.size  # one term at a time, observations ascending
                for g, (ckey, k, m) in enumerate(zip(_belief_keys(states, mass, bounds), act.tolist(), marg.tolist())):
                    child = memo.get((ckey, remaining - 1))
                    if child is None:
                        zg = np.zeros(z.size)
                        zg[states[bounds[g]:bounds[g + 1]]] = mass[bounds[g]:bounds[g + 1]]
                        child = solve(zg, ckey, remaining - 1)
                    ids.append(child)
                    cont[k] += m * values[child]
                q[feasible] += alpha * np.array(cont)
                # every child is finished, so this node takes the next id
                rows.append(np.column_stack((np.full(len(ids), len(values)), feasible[act], obs, ids)))
            vmin = float(q.min())
            mask = _optimal_mask(q, vmin)
        memo[(key, remaining)] = len(values)
        values.append(vmin)
        masks.append(mask)
        return len(values) - 1

    n = mdp.n_states
    root = solve(p0, _belief_keys(np.arange(n), p0, np.array([0, n]))[0], N)
    return BeliefSolution(values[root], N, root, len(values), np.array(values), np.array(masks), np.concatenate(rows))


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


def _successor_cdf(mdp: GridMDP) -> tuple[np.ndarray, np.ndarray]:
    """Each level's distinct successors in state order and their cumulative masses, both ``(levels, n_atoms)``.

    Duplicate successors merge in atom order, so each mass is added as in
    the level's dense next-state law.  Past a level's last distinct
    successor the cumulative mass stays at its total.
    """
    y_next = mdp._y_next
    order = np.argsort(y_next, axis=1, kind="stable")
    succ = np.take_along_axis(y_next, order, axis=1)
    new = np.ones(succ.shape, dtype=bool)
    new[:, 1:] = succ[:, 1:] != succ[:, :-1]
    rows, slot = np.arange(succ.shape[0])[:, None], np.cumsum(new, axis=1) - 1
    mass = np.zeros(succ.shape)
    np.add.at(mass, (rows, slot), mdp.shock_probs[order])
    states = np.zeros_like(succ)
    states[rows, slot] = succ
    return states, np.cumsum(mass, axis=1)


def pomdp_simulate(
    mdp: GridMDP,
    part: ContainerPartition,
    solution: BeliefSolution,
    p0: np.ndarray,
    horizon: int,
    reps: int,
    seed: int,
    alpha: float,
) -> SimulationResult:
    """Monte Carlo rollout of a solved tree's policy on the hidden chain, every replication in lockstep.

    The hidden state starts from the prior, moves by the transition rows,
    and emits container observations; the policy sees only those, through
    one tree node per replication, all moved at once.  A node takes its
    smallest optimal action, and the node, that action and the observation
    id find the child by a ``searchsorted`` over the sorted keys
    ``(node * n_a + action) * n_obs + obs`` of the tree's children.  Each
    replication consumes its own counter-based stream keyed by
    ``(seed, replication)``, so results are reproducible and order
    independent.  A draw ``u`` picks the first state of the support whose
    cumulative mass reaches ``u`` times the total, on the prior's nonzero
    states and then on the distinct successors of the current level, both
    in state order.
    """
    p0 = validate_belief(np.asarray(p0, dtype=float))
    actions = solution.optimal.argmax(axis=1)
    node, act, obs, child = solution.children.T
    n_a, n_obs = mdp.n_actions, part.n_obs
    # n * n_a <= MAX_PAIRS keeps every key below node_count * 2**22; a sentinel past them keeps each lookup inside
    keys = np.append((node * n_a + act) * n_obs + obs, solution.node_count * n_a * n_obs)
    succ, cdf = _successor_cdf(mdp)
    draws = replication_uniforms(seed, reps, horizon + 1)
    support = np.flatnonzero(p0 > 0)
    prior_cdf = np.cumsum(p0[support])
    x = support[np.searchsorted(prior_cdf, draws[:, 0] * prior_cdf[-1])]
    total = np.zeros(reps)
    disc = 1.0
    cursor = np.full(reps, solution.root)
    for t in range(horizon):
        j = actions[cursor]
        total += disc * mdp.cost[x, j]
        level = mdp._y_of[x, j]
        x = succ[level, (cdf[level] < (draws[:, t + 1] * cdf[level, -1])[:, None]).sum(axis=1)]
        if t < horizon - 1:
            seen = part.state_obs[x]
            key = (cursor * n_a + j) * n_obs + seen
            pos = np.searchsorted(keys, key)
            missing = keys[pos] != key
            if missing.any():
                y = part.obs_values[seen[missing][0]]
                raise InvLabError("IMPOSSIBLE_OBSERVATION", f"observation {y} was unreachable in the solved tree")
            cursor = child[pos]
        disc *= alpha
    return summarize_samples(total)
