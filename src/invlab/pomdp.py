"""Partially observed inventory: container observations, the belief tree and its rollouts.

The grid range is split into containers (intervals of at least two lattice
points, lower-closed).  A transparent container reveals the exact inventory
level; a nontransparent one reveals only a fixed representative point inside
it.  Because the observation is a deterministic function of the hidden next
state, the Bayes update is a restriction of the one-step predictive
distribution to the observed container followed by renormalization, and the
observation space is finite, so the belief value iteration is exact over the
reachable tree.  ``_posteriors`` computes a node's predictive laws,
observation marginals and posteriors for all its actions at once;
``TreePolicy`` replays the solved tree along observation ids, and
``pomdp_simulate`` rolls it out on the hidden chain.
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

        self.containers = fixed
        self.grid = grid
        self.state_container = assignment
        self.state_obs = state_obs
        self.obs_values = np.asarray(obs_values)

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
class BeliefNode:
    value: float
    optimal: np.ndarray  # (n_a,) bool mask of the optimal actions; all False at depth 0
    children: np.ndarray  # (k, 3) int rows (action index, obs id, child node id), in (action, obs) order


@dataclass
class BeliefSolution:
    value: float
    root_actions: np.ndarray
    horizon: int
    root: int  # node id of the prior at the full horizon
    nodes: list  # BeliefNode by node id; a node's children come before it
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
    the solver tolerance.  A node is solved in a few array operations: the
    one-step costs from ``comdp_cost``, every feasible action's predictive
    law from one ``bincount`` over (action, state, atom), and every
    observation marginal and posterior from the nonzero entries of those
    laws.  Children are then visited by action and observation, ascending.
    Nodes are stored under integer ids in the order they are finished; a
    memo maps each merge key and remaining horizon to its id.  Raises
    ``TREE_TOO_LARGE`` past ``max_nodes``.
    """
    if N < 0:
        raise ValueError(f"horizon must be nonnegative, got {N}")
    p0 = validate_belief(np.asarray(p0, dtype=float))
    nodes: list[BeliefNode] = []
    memo: dict = {}  # (key, remaining) -> node id

    def solve(z: np.ndarray, key: bytes, remaining: int) -> int:
        if len(nodes) >= max_nodes:
            raise InvLabError("TREE_TOO_LARGE", f"belief tree exceeded {max_nodes} nodes")
        children = np.empty((0, 3), dtype=np.int64)
        if remaining == 0:
            node = BeliefNode(0.0, np.zeros(mdp.n_actions, dtype=bool), children)
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
                    cont[k] += m * nodes[child].value
                q[feasible] += alpha * np.array(cont)
                children = np.column_stack((feasible[act], obs, ids))
            vmin = float(q.min())
            node = BeliefNode(vmin, _optimal_mask(q, vmin), children)
        memo[(key, remaining)] = len(nodes)
        nodes.append(node)
        return len(nodes) - 1

    n = mdp.n_states
    root = solve(p0, _belief_keys(np.arange(n), p0, np.array([0, n]))[0], N)
    return BeliefSolution(nodes[root].value, mdp.actions[nodes[root].optimal], N, root, nodes, len(nodes))


class TreePolicy:
    """Replay the optimal actions of a solved belief tree along observations.

    Cursors are node ids, actions are indices and observations are ids, as
    the tree stores them; ``action`` and ``advance`` take one cursor or an
    array of them.  The replayed action of each node is its smallest optimal
    one, and the children of the replayed actions are kept as a sorted table
    of ``node * n_obs + obs`` keys, so its size is the number of those
    children whatever the number of observations.
    """

    def __init__(self, solution: BeliefSolution, part: ContainerPartition):
        self.solution = solution
        self.part = part
        nodes = solution.nodes
        self._actions = np.stack([node.optimal for node in nodes]).argmax(axis=1)
        owner = np.repeat(np.arange(len(nodes)), [len(node.children) for node in nodes])
        act, obs, child = np.concatenate([node.children for node in nodes]).T
        replayed = act == self._actions[owner]
        # a sentinel past every key keeps each lookup inside the table
        self._keys = np.append(owner[replayed] * part.n_obs + obs[replayed], len(nodes) * part.n_obs)
        self._children = np.append(child[replayed], -1)

    def start(self):
        return self.solution.root

    def action(self, cursor):
        return self._actions[cursor]

    def advance(self, cursor, obs_id):
        key = cursor * self.part.n_obs + obs_id
        pos = np.searchsorted(self._keys, key)
        missing = np.atleast_1d(self._keys[pos] != key)
        if missing.any():
            y = self.part.obs_values[np.atleast_1d(obs_id)[missing][0]]
            raise InvLabError("IMPOSSIBLE_OBSERVATION", f"observation {y} was unreachable in the solved tree")
        return self._children[pos]


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
    policy: TreePolicy,
    p0: np.ndarray,
    horizon: int,
    reps: int,
    seed: int,
    alpha: float,
) -> SimulationResult:
    """Monte Carlo rollout of a solved tree's policy on the hidden chain, every replication in lockstep.

    The hidden state starts from the prior, moves by the transition rows,
    and emits container observations; the policy sees only those, one
    cursor per replication, all moved at once.  Each replication consumes
    its own counter-based stream keyed by ``(seed, replication)``, so
    results are reproducible and order independent.  A draw ``u`` picks the
    first state of the support whose cumulative mass reaches ``u`` times the
    total, on the prior's nonzero states and then on the distinct successors
    of the current level, both in state order.
    """
    p0 = validate_belief(np.asarray(p0, dtype=float))
    succ, cdf = _successor_cdf(mdp)
    draws = replication_uniforms(seed, reps, horizon + 1)
    support = np.flatnonzero(p0 > 0)
    prior_cdf = np.cumsum(p0[support])
    x = support[np.searchsorted(prior_cdf, draws[:, 0] * prior_cdf[-1])]
    total = np.zeros(reps)
    disc = 1.0
    cursor = np.full(reps, policy.start())
    for t in range(horizon):
        j = policy.action(cursor)
        total += disc * mdp.cost[x, j]
        level = mdp._y_of[x, j]
        x = succ[level, (cdf[level] < (draws[:, t + 1] * cdf[level, -1])[:, None]).sum(axis=1)]
        if t < horizon - 1:
            cursor = policy.advance(cursor, part.state_obs[x])
        disc *= alpha
    return summarize_samples(total)
