"""Container observations, Bayes filtering, and belief-tree value iteration."""

import dataclasses
import importlib
import itertools
import math
import pkgutil
import re
import tracemalloc

import numpy as np
import pytest

import invlab
from invlab import pomdp
from invlab.costs import CostModel, HoldingCost
from invlab.demand import from_atoms
from invlab.dp_core import Dynamics, _optimal_mask, finite_horizon_vi, make_inventory_mdp
from invlab.errors import InvLabError
from invlab.pomdp import (
    Container,
    ContainerPartition,
    belief_value_iteration,
    comdp_cost,
    make_belief,
    pomdp_simulate,
    replication_uniforms,
    summarize_samples,
    validate_belief,
)
from oracles import bayes_filter, dense_rows, observation_marginal, observe_psi, partition_labels, successors, tree_walk

UNIT = from_atoms([(1, 1.0)], step=1)
TWO_POINT = from_atoms([(0, 0.5), (2, 0.5)], step=1)
MIXED = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1)
ABS_COST = CostModel(1.0, 1.0, HoldingCost.linear(1.0, 1.0))


def small_mdp(demand=MIXED, lo=-4, hi=4, cost=ABS_COST):
    return make_inventory_mdp(cost, demand, lo, hi)


def split_partition(mdp, boundary=0.0, rep=None):
    """Nontransparent below the boundary, transparent at and above it."""
    return ContainerPartition(
        [
            Container(float(mdp.grid[0]), boundary, False, rep),
            Container(boundary, float(mdp.grid[-1]), True),
        ],
        mdp.grid,
        mdp.step,
    )


def transparent_partition(mdp):
    return ContainerPartition(
        [Container(float(mdp.grid[0]), float(mdp.grid[-1]), True)], mdp.grid, mdp.step
    )


def opaque_partition(mdp):
    return ContainerPartition(
        [Container(float(mdp.grid[0]), float(mdp.grid[-1]), False, None)], mdp.grid, mdp.step
    )


class TestContainerPartition:
    def test_states_covered_exactly_once(self):
        m = small_mdp()
        part = split_partition(m)
        assert np.all(part.state_container >= 0)
        # boundary state 0 belongs to the upper (lower-closed) container
        assert part.state_container[m.state_index(0)] == 1
        assert part.state_container[m.state_index(-1)] == 0

    def test_gap_rejected(self):
        m = small_mdp()
        with pytest.raises(ValueError, match="uncovered"):
            ContainerPartition(
                [Container(-4, -2, False), Container(0, 4, True)], m.grid, m.step
            )

    def test_single_point_container_rejected(self):
        m = small_mdp()
        with pytest.raises(ValueError, match="at least 2"):
            ContainerPartition(
                [Container(-4, -3, False), Container(-3, 4, True)], m.grid, m.step
            )

    def test_default_representative_is_midpoint_on_lattice(self):
        m = small_mdp()
        part = split_partition(m)  # container [-4, 0): midpoint -2
        assert part.containers[0].rep == -2.0

    def test_explicit_rep_must_be_interior(self):
        m = small_mdp()
        with pytest.raises(ValueError, match="strictly inside"):
            ContainerPartition(
                [Container(-4, 0, False, -4.0), Container(0, 4, True)], m.grid, m.step
            )

    @pytest.mark.parametrize(
        "lo, hi, step, containers",
        [
            (-4, 4, 1.0, [(-4, 0, False, None), (0, 4, True, None)]),
            (-4, 4, 1.0, [(-4, 4, False, None)]),
            (-4, 4, 1.0, [(-4, 4, True, None)]),
            (-4, 4, 1.0, [(-1.5, 4, True, None), (-4, -1.5, False, None)]),
            (-2.5, 2.5, 0.5, [(-2.5, -1, False, None), (-1, 0.5, True, None), (0.5, 2.5, False, 1.5)]),
            (-12, 8, 1.0, [(0, 4, False, None), (-12, -6, True, None), (-6, 0, False, -3.0), (4, 8, True, None)]),
        ],
    )
    def test_labels_match_the_per_state_rule(self, lo, hi, step, containers):
        grid = lo + step * np.arange(round((hi - lo) / step) + 1)
        part = ContainerPartition([Container(*c) for c in containers], grid, step)
        labels, ids, values = partition_labels(part)
        assert part.state_container.tolist() == labels
        assert part.state_obs.tolist() == ids
        assert part.obs_values.tolist() == values


class TestObservePsi:
    def test_transparent_reveals_state(self):
        m = small_mdp()
        part = split_partition(m)
        assert observe_psi(part, 2.0) == 2.0

    def test_nontransparent_reveals_representative(self):
        m = small_mdp()
        part = split_partition(m)
        assert observe_psi(part, -3.0) == -2.0

    def test_boundary_state_follows_stored_convention(self):
        m = small_mdp()
        part = split_partition(m)
        # lower-closed: 0 sits in the transparent container, observed exactly
        assert observe_psi(part, 0.0) == 0.0


class TestObservationMarginal:
    def test_sums_to_one_on_random_beliefs(self):
        m = small_mdp()
        part = split_partition(m)
        rng = np.random.default_rng(3)
        for _ in range(25):
            z = rng.dirichlet(np.ones(m.n_states))
            a = float(rng.choice([0.0, 1.0, 2.0]))
            marg = observation_marginal(m, part, MIXED, z, a)
            assert marg.sum() == pytest.approx(1.0, abs=1e-12)

    def test_transparent_deterministic_chain(self):
        m = small_mdp(demand=UNIT)
        part = transparent_partition(m)
        z = make_belief([(1.0, 1.0)], m.grid)
        marg = observation_marginal(m, part, UNIT, z, 1.0)
        obs_id = np.argmax(marg)
        assert part.obs_values[obs_id] == 1.0  # 1 + 1 - 1
        assert marg[obs_id] == pytest.approx(1.0)

    def test_two_branch_hand_computation(self):
        m = small_mdp(demand=TWO_POINT, lo=-2, hi=2)
        part = ContainerPartition(
            [Container(-2, 0, False, -1.0), Container(0, 2, True)], m.grid, m.step
        )
        z = make_belief([(0.0, 1.0)], m.grid)
        marg = observation_marginal(m, part, TWO_POINT, z, 0.0)
        val_to_mass = dict(zip(part.obs_values, marg))
        assert val_to_mass[0.0] == pytest.approx(0.5)   # demand 0 keeps level 0
        assert val_to_mass[-1.0] == pytest.approx(0.5)  # demand 2 drops to -2, seen as rep -1


class TestBayesFilter:
    def test_transparent_observation_collapses(self):
        m = small_mdp()
        part = split_partition(m)
        z = np.full(m.n_states, 1.0 / m.n_states)
        post = bayes_filter(m, part, MIXED, z, 1.0, part.state_obs[m.state_index(2)])
        expected = np.zeros(m.n_states)
        expected[m.state_index(2)] = 1.0
        assert np.allclose(post, expected)

    def test_container_observation_is_restricted_predictive(self):
        m = small_mdp(demand=MIXED)
        part = split_partition(m)
        z = make_belief([(0.0, 0.5), (1.0, 0.5)], m.grid)
        a = 0.0
        pred = z @ dense_rows(m.grid, m.actions, MIXED, m.dynamics)[:, m.action_index(a), :]
        post = bayes_filter(m, part, MIXED, z, a, part.state_obs[m.state_index(-2.0)])  # the container's representative
        inside = part.state_container == 0
        expected = np.where(inside, pred, 0.0)
        expected /= expected.sum()
        assert np.allclose(post, expected, atol=1e-12)

    def test_impossible_observation_raises(self):
        m = small_mdp(demand=UNIT)
        part = split_partition(m)
        z = make_belief([(3.0, 1.0)], m.grid)
        with pytest.raises(InvLabError) as err:
            bayes_filter(m, part, UNIT, z, 0.0, part.state_obs[m.state_index(3.0)])  # 3 - 1 = 2, observing 3 is impossible
        assert err.value.code == "IMPOSSIBLE_OBSERVATION"

    def test_posterior_sums_to_one(self):
        m = small_mdp()
        part = split_partition(m)
        rng = np.random.default_rng(11)
        for _ in range(40):
            z = rng.dirichlet(np.ones(m.n_states))
            a = float(rng.choice([0.0, 1.0]))
            marg = observation_marginal(m, part, MIXED, z, a)
            for obs_id in np.nonzero(marg > 1e-12)[0]:
                post = bayes_filter(m, part, MIXED, z, a, obs_id)
                assert post.sum() == pytest.approx(1.0, abs=1e-12)

    def test_disintegration_identity(self):
        # mixing posteriors over observations recovers the predictive law
        m = small_mdp()
        part = split_partition(m)
        rng = np.random.default_rng(7)
        law = dense_rows(m.grid, m.actions, MIXED, m.dynamics)
        for _ in range(40):
            z = rng.dirichlet(np.ones(m.n_states) * rng.uniform(0.3, 3.0))
            a = float(rng.choice([0.0, 1.0, 3.0]))
            pred = z @ law[:, m.action_index(a), :]
            marg = observation_marginal(m, part, MIXED, z, a)
            mixture = np.zeros(m.n_states)
            for obs_id in np.nonzero(marg > 0)[0]:
                post = bayes_filter(m, part, MIXED, z, a, obs_id)
                mixture += marg[obs_id] * post
            assert np.allclose(mixture, pred, atol=1e-12)

    def test_fully_opaque_container_ignores_observation(self):
        m = small_mdp()
        part = opaque_partition(m)
        z = np.full(m.n_states, 1.0 / m.n_states)
        a = 1.0
        pred = z @ dense_rows(m.grid, m.actions, MIXED, m.dynamics)[:, m.action_index(a), :]
        post = bayes_filter(m, part, MIXED, z, a, 0)
        assert np.allclose(post, pred, atol=1e-12)

    def test_transparent_trajectory_tracks_hidden_state(self):
        # once a transparent observation lands, the belief rides the hidden path
        m = small_mdp(demand=MIXED)
        part = transparent_partition(m)
        rng = np.random.default_rng(21)
        x = m.state_index(1)
        belief = make_belief([(1.0, 1.0)], m.grid)
        law = dense_rows(m.grid, m.actions, MIXED, m.dynamics)
        for _ in range(6):
            a = float(rng.choice([0.0, 1.0]))
            row = law[x, m.action_index(a), :]
            x = int(rng.choice(m.n_states, p=row))
            belief = bayes_filter(m, part, MIXED, belief, a, part.state_obs[x])
            expected = np.zeros(m.n_states)
            expected[x] = 1.0
            assert np.allclose(belief, expected)


class TestComdpCost:
    def test_point_mass(self):
        m = small_mdp()
        z = make_belief([(1.0, 1.0)], m.grid)
        assert comdp_cost(m, z)[m.action_index(2)] == pytest.approx(m.cost[m.state_index(1), m.action_index(2)])

    def test_uniform_two_states(self):
        m = small_mdp()
        z = make_belief([(0.0, 0.5), (2.0, 0.5)], m.grid)
        expected = 0.5 * m.cost[m.state_index(0), 0] + 0.5 * m.cost[m.state_index(2), 0]
        assert comdp_cost(m, z)[m.action_index(0)] == pytest.approx(expected)

    def test_infeasible_state_poisons_cost(self):
        m = small_mdp()  # ordering above the grid top is infeasible
        z = make_belief([(4.0, 0.5), (0.0, 0.5)], m.grid)
        assert comdp_cost(m, z)[m.action_index(1)] == np.inf


class TestBeliefValueIteration:
    def test_zero_horizon_is_free(self):
        m = small_mdp()
        part = split_partition(m)
        z = np.full(m.n_states, 1.0 / m.n_states)
        sol = belief_value_iteration(m, part, z, 0, 0.9)
        assert sol.value == 0.0

    def test_one_step_is_myopic_expected_cost(self):
        m = small_mdp()
        part = split_partition(m)
        rng = np.random.default_rng(1)
        z = rng.dirichlet(np.ones(m.n_states))
        sol = belief_value_iteration(m, part, z, 1, 0.9)
        oracle = min(comdp_cost(m, z)[j] for j in range(m.n_actions))
        assert sol.value == pytest.approx(oracle, abs=1e-12)

    def test_transparent_partition_reproduces_mdp(self):
        m = small_mdp(demand=MIXED)
        part = transparent_partition(m)
        alpha, N = 0.9, 4
        values = finite_horizon_vi(m, N, alpha, np.zeros(m.n_states))
        for x in (-2.0, 0.0, 3.0):
            prior = make_belief([(x, 1.0)], m.grid)
            tree = belief_value_iteration(m, part, prior, N, alpha)
            assert tree.value == pytest.approx(values[N, m.state_index(x)], abs=1e-9)

    def test_coarser_observations_cannot_help(self):
        m = small_mdp(demand=MIXED)
        alpha, N = 0.9, 3
        prior = make_belief([(-1.0, 0.5), (1.0, 0.5)], m.grid)
        v_clear = belief_value_iteration(m, transparent_partition(m), prior, N, alpha).value
        v_blur = belief_value_iteration(m, opaque_partition(m), prior, N, alpha).value
        assert v_clear <= v_blur + 1e-9

    def test_node_cap_enforced(self):
        m = small_mdp(demand=MIXED)
        part = split_partition(m)
        z = np.full(m.n_states, 1.0 / m.n_states)
        with pytest.raises(InvLabError) as err:
            belief_value_iteration(m, part, z, 4, 0.9, max_nodes=10)
        assert err.value.code == "TREE_TOO_LARGE"

    def test_matches_path_enumeration_oracle(self):
        """Replay the solved tree's policy over every (state, demand path) and
        accumulate the discounted cost by hand; the optimal value must match."""
        m = small_mdp(demand=TWO_POINT, lo=-3, hi=3)
        part = split_partition(m, boundary=0.0)
        alpha, N = 0.9, 3
        prior = make_belief([(-1.0, 0.4), (1.0, 0.6)], m.grid)
        sol = belief_value_iteration(m, part, prior, N, alpha)
        action, advance = tree_walk(sol)
        atoms = list(zip(TWO_POINT.offsets(), TWO_POINT.probs))
        succ = successors(m.grid, m.actions, TWO_POINT, m.dynamics)
        total = 0.0
        for i0 in np.nonzero(prior > 0)[0]:
            for path in itertools.product(atoms, repeat=N):
                prob = prior[i0]
                cursor = sol.root
                x = int(i0)
                cost_sum = 0.0
                for t, (d_off, d_p) in enumerate(path):
                    j = action(cursor)
                    cost_sum += alpha**t * m.cost[x, j]
                    x = int(succ[x, j, list(TWO_POINT.offsets()).index(d_off)])
                    prob *= d_p
                    if t < N - 1:
                        cursor = advance(cursor, part.state_obs[x])
                total += prob * cost_sum
        assert sol.value == pytest.approx(total, abs=1e-9)


class TestPomdpSimulate:
    def test_deterministic_chain_zero_variance(self):
        m = small_mdp(demand=UNIT)
        part = transparent_partition(m)
        prior = make_belief([(2.0, 1.0)], m.grid)
        alpha, N = 0.9, 3
        sol = belief_value_iteration(m, part, prior, N, alpha)
        res = pomdp_simulate(m, part, sol, prior, N, 50, seed=9, alpha=alpha)
        assert np.allclose(res.samples, sol.value, atol=1e-9)

    def test_same_seed_identical_samples(self):
        m = small_mdp(demand=MIXED)
        part = split_partition(m)
        prior = make_belief([(0.0, 1.0)], m.grid)
        sol = belief_value_iteration(m, part, prior, 3, 0.9)
        a = pomdp_simulate(m, part, sol, prior, 3, 40, seed=5, alpha=0.9)
        b = pomdp_simulate(m, part, sol, prior, 3, 40, seed=5, alpha=0.9)
        assert np.array_equal(a.samples, b.samples)

    def test_replays_the_smallest_optimal_action(self):
        m = small_mdp(demand=MIXED)
        part = split_partition(m)
        prior = make_belief([(-1.0, 1.0)], m.grid)
        sol = belief_value_iteration(m, part, prior, 1, 0.9)
        optimal = np.zeros_like(sol.optimal)
        optimal[sol.root, [4, 2]] = True  # a tie between actions 2 and 4
        res = pomdp_simulate(m, part, dataclasses.replace(sol, optimal=optimal), prior, 1, 5, seed=1, alpha=0.9)
        assert np.all(res.samples == m.cost[m.state_index(-1.0), 2])

    def test_ci_covers_tree_value(self):
        m = small_mdp(demand=MIXED)
        part = split_partition(m)
        prior = make_belief([(-1.0, 0.5), (2.0, 0.5)], m.grid)
        alpha, N = 0.9, 3
        sol = belief_value_iteration(m, part, prior, N, alpha)
        res = pomdp_simulate(m, part, sol, prior, N, 4000, seed=123, alpha=alpha)
        assert res.ci_low <= sol.value <= res.ci_high


HALF_STEP = from_atoms([(0.5, 0.5), (1.0, 0.5)], step=0.5)


class TestHalfStepLattice:
    """On a step-0.5 lattice an action's index is twice its value, so confusing the two shows."""

    def test_tree_matches_path_enumeration_and_rollouts(self):
        m = make_inventory_mdp(CostModel(0.2, 0.5, HoldingCost.linear(4.0, 1.0)), HALF_STEP, -2.5, 2.5)
        part = split_partition(m, boundary=0.0)
        alpha, N = 0.9, 3
        prior = make_belief([(-0.5, 0.4), (0.5, 0.6)], m.grid)
        z = make_belief([(-2.5, 0.2), (-2.0, 0.3), (-1.5, 0.5)], m.grid)  # every action up to 4.0 is feasible
        for j in range(m.n_actions):
            cost = m.cost[z > 0, j]
            assert comdp_cost(m, z)[j] == (pytest.approx(z[z > 0] @ cost, rel=1e-12) if np.all(np.isfinite(cost)) else np.inf)
        sol = belief_value_iteration(m, part, prior, N, alpha)
        action, advance = tree_walk(sol)
        succ = successors(m.grid, m.actions, HALF_STEP, m.dynamics)
        total, taken = 0.0, set()
        for i0 in np.nonzero(prior > 0)[0]:
            for path in itertools.product(range(HALF_STEP.probs.size), repeat=N):
                prob, cursor, x, cost_sum = prior[i0], sol.root, int(i0), 0.0
                for t, k in enumerate(path):
                    j = action(cursor)
                    taken.add(j)
                    cost_sum += alpha**t * m.cost[x, j]
                    x = int(succ[x, j, k])
                    prob *= HALF_STEP.probs[k]
                    if t < N - 1:
                        cursor = advance(cursor, part.state_obs[x])
                total += prob * cost_sum
        assert max(taken) > 0  # some path orders, where index and value differ
        assert sol.value == pytest.approx(total, abs=1e-9)
        res = pomdp_simulate(m, part, sol, prior, N, 4000, seed=11, alpha=alpha)
        assert res.ci_low <= sol.value <= res.ci_high


def count_lattice_lookups(monkeypatch):
    """Count calls of the lattice helpers through every invlab module that binds them; returns the call list."""
    calls = []
    for info in pkgutil.iter_modules(invlab.__path__):
        module = importlib.import_module(f"invlab.{info.name}")
        for name in ("_lattice_index", "_lattice_offsets"):
            original = getattr(module, name, None)
            if callable(original):
                def spy(*args, _original=original, _name=name, **kwargs):
                    calls.append(_name)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, spy)
    return calls


def test_no_lattice_lookup_per_node_or_step(monkeypatch):
    m = small_mdp(demand=MIXED)
    part = split_partition(m)
    prior = make_belief([(-1.0, 0.5), (2.0, 0.5)], m.grid)
    calls = count_lattice_lookups(monkeypatch)
    counts = {}
    for N in (2, 4):
        for reps in (10, 1000):
            calls.clear()
            sol = belief_value_iteration(m, part, prior, N, 0.9)
            pomdp_simulate(m, part, sol, prior, N, reps, seed=3, alpha=0.9)
            counts[N, reps] = len(calls)
    assert len(set(counts.values())) == 1, counts


class TestPartitionAndBeliefBoundary:
    def test_sub_lattice_gap_rejected(self):
        # both containers hold lattice states only, but (0.5, 0.7) is covered by neither
        m = small_mdp()
        with pytest.raises(ValueError, match=r"gap: \[0.5, 0.7\] is uncovered"):
            ContainerPartition([Container(-4, 0.5, False), Container(0.7, 4, True)], m.grid, m.step)

    def test_top_gap_rejected(self):
        m = small_mdp()
        with pytest.raises(ValueError, match=r"gap: \[2.0, 4.0\] is uncovered"):
            ContainerPartition([Container(-4, 0, False), Container(0, 2, True)], m.grid, m.step)

    def test_nan_belief_mass_rejected(self):
        m = small_mdp()
        z = np.zeros(m.n_states)
        z[0], z[1] = 1.0, np.nan
        with pytest.raises(ValueError, match="sums to nan"):
            validate_belief(z)
        with pytest.raises(ValueError, match="sums to nan"):
            make_belief([(0.0, np.nan), (1.0, 1.0)], m.grid)

    def test_off_grid_prior_state_named(self):
        m = small_mdp()
        with pytest.raises(ValueError, match=r"prior\[1\] state nan is not on the grid \[-4.0, 4.0\] at step 1.0"):
            make_belief([(0.0, 0.5), (float("nan"), 0.5)], m.grid)


# ---------------------------------------------------------------------------
# reference implementations: one action, one observation and one replication at a time,
# on transition laws built from the demand law alone


def reference_tree(m, demand, part, p0, N, alpha):
    """Belief value iteration by the per-action recursion; returns the root's memo entry and the memo.

    The memo maps (rounded belief bytes, remaining) to (value, optimal mask,
    {(action index, obs id): child memo entry}).  Each predictive law adds
    one term per (state, atom), states then atoms ascending, from the
    successors of ``oracles.successors``.
    """
    succ = successors(m.grid, m.actions, demand, m.dynamics)
    nodes = {}

    def cost(z, j):
        z = validate_belief(z)
        col = m.cost[:, j]
        charged = z > 0
        if np.any(np.isinf(col[charged])):
            return math.inf
        return float(z[charged] @ col[charged])

    def solve(z, remaining):
        key = (np.round(z, 10) + 0.0).tobytes()
        if (key, remaining) in nodes:
            return (key, remaining), nodes[key, remaining][0]
        if remaining == 0:
            nodes[key, 0] = (0.0, np.zeros(m.n_actions, dtype=bool), {})
            return (key, 0), 0.0
        q = np.full(m.n_actions, math.inf)
        children = {}
        for j in range(m.n_actions):
            cbar = cost(z, j)
            if not np.isfinite(cbar):
                continue
            total = cbar
            if remaining > 1:
                pred = np.bincount(succ[:, j].ravel(), weights=(z[:, None] * demand.probs).ravel(), minlength=m.n_states)
                marg = np.bincount(part.state_obs, weights=pred, minlength=part.n_obs)
                cont = 0.0
                for obs_id in np.nonzero(marg > 0)[0]:
                    child = np.where(part.state_obs == obs_id, pred, 0.0) / marg[obs_id]
                    entry, cval = solve(child, remaining - 1)
                    children[j, int(obs_id)] = entry
                    cont += marg[obs_id] * cval
                total += alpha * cont
            q[j] = total
        vmin = float(q.min())
        nodes[key, remaining] = (vmin, _optimal_mask(q, vmin), children)
        return (key, remaining), vmin

    return solve(p0, N)[0], nodes


def reference_rollout(m, demand, part, sol, p0, horizon, reps, seed, alpha):
    """Rollouts of a solved tree one replication at a time, replayed by ``oracles.tree_walk``,
    each step drawn from the state's row of ``oracles.dense_rows``."""
    action, advance = tree_walk(sol)
    rows = dense_rows(m.grid, m.actions, demand, m.dynamics)
    samples = np.empty(reps)
    draws = replication_uniforms(seed, reps, horizon + 1)
    for rep in range(reps):
        u = draws[rep]
        x = min(int(np.searchsorted(np.cumsum(p0), u[0] * p0.sum())), m.n_states - 1)
        total, disc = 0.0, 1.0
        cursor = sol.root
        for t in range(horizon):
            j = action(cursor)
            total += disc * float(m.cost[x, j])
            row_cum = np.cumsum(rows[x, j])
            x = min(int(np.searchsorted(row_cum, u[t + 1] * row_cum[-1])), m.n_states - 1)
            if t < horizon - 1:
                cursor = advance(cursor, part.state_obs[x])
            disc *= alpha
        samples[rep] = total
    return summarize_samples(samples)


def assert_same_tree(sol, root_entry, ref_nodes):
    """Walk both trees from the root: same node count, and per node the same value bits, mask and children."""
    assert sol.node_count == len(sol.values) == len(sol.optimal) == len(ref_nodes)
    assert np.all(np.diff(sol.children[:, 0]) >= 0)  # rows grouped by node, in id order
    kids = {}  # node id -> {(action, observation): child}, built once
    for node_id, j, o, c in sol.children.tolist():
        kids.setdefault(node_id, {})[j, o] = c
    pairs, stack = {}, [(sol.root, root_entry)]
    while stack:
        node_id, entry = stack.pop()
        if pairs.setdefault(node_id, entry) != entry:
            raise AssertionError(f"node {node_id} stands for two reference nodes")
        value, optimal, children = ref_nodes[entry]
        assert np.float64(sol.values[node_id]).tobytes() == np.float64(value).tobytes()
        assert np.array_equal(sol.optimal[node_id], optimal)
        got = kids.get(node_id, {})
        assert list(got) == list(children)  # (action, observation) order too
        stack.extend((got[k], children[k]) for k in children)
    assert len(pairs) == len(set(pairs.values())) == sol.node_count


README_COST = CostModel(2.0, 1.0, HoldingCost.linear(3.0, 1.0))


def readme_mdp(lo=-12, hi=8, a_max=20):
    return make_inventory_mdp(README_COST, MIXED, lo, hi, a_max)


def oracle_cases():
    """(mdp, demand, partition, prior) of the README config, lost sales and the half-step lattice."""
    m = readme_mdp()
    ls = make_inventory_mdp(README_COST, MIXED, 0, 10, 6, Dynamics.LOST_SALES)
    half = make_inventory_mdp(CostModel(0.2, 0.5, HoldingCost.linear(4.0, 1.0)), HALF_STEP, -2.5, 2.5)
    return [
        pytest.param(m, MIXED, split_partition(m), make_belief([(0.0, 1.0)], m.grid), id="readme"),
        pytest.param(ls, MIXED, split_partition(ls, boundary=4.0), make_belief([(2.0, 0.5), (5.0, 0.5)], ls.grid), id="lost-sales"),
        pytest.param(half, HALF_STEP, split_partition(half), make_belief([(-0.5, 0.4), (0.5, 0.6)], half.grid), id="half-step"),
    ]


class TestAgainstReference:
    @pytest.mark.parametrize("N", range(6))
    def test_readme_tree_node_by_node(self, N):
        m = readme_mdp()
        part, prior = split_partition(m), make_belief([(0.0, 1.0)], m.grid)
        sol = belief_value_iteration(m, part, prior, N, 0.9)
        assert_same_tree(sol, *reference_tree(m, MIXED, part, prior, N, 0.9))

    @pytest.mark.parametrize("m, demand, part, prior", oracle_cases())
    def test_trees_and_rollouts(self, m, demand, part, prior):
        alpha, N = 0.9, 4
        sol = belief_value_iteration(m, part, prior, N, alpha)
        assert_same_tree(sol, *reference_tree(m, demand, part, prior, N, alpha))
        got = pomdp_simulate(m, part, sol, prior, N, 300, seed=17, alpha=alpha)
        assert np.array_equal(got.samples, reference_rollout(m, demand, part, sol, prior, N, 300, 17, alpha).samples)

    def test_corrupted_level_table_fails_the_check(self):
        m = readme_mdp()
        part, prior = split_partition(m), make_belief([(0.0, 1.0)], m.grid)
        level = m._y_of[m.state_index(0.0), 0]  # state 0, no order
        m._y_next[level, 1] = m._y_next[level, 0]  # demand 1 now lands where demand 0 does
        sol = belief_value_iteration(m, part, prior, 3, 0.9)
        with pytest.raises(AssertionError):
            assert_same_tree(sol, *reference_tree(m, MIXED, part, prior, 3, 0.9))


class TestZeroDraw:
    """A zero uniform picks the lowest state of the support, never the grid bottom."""

    def test_zero_draws_stay_on_the_support(self, monkeypatch):
        m = readme_mdp()
        part, prior = split_partition(m), make_belief([(0.0, 1.0)], m.grid)
        monkeypatch.setattr(pomdp, "replication_uniforms", lambda seed, reps, n: np.zeros((reps, n)))
        zero = m.state_index(0.0)
        one = belief_value_iteration(m, part, prior, 1, 0.9)
        res = pomdp_simulate(m, part, one, prior, 1, 3, seed=1, alpha=0.9)
        assert np.all(res.samples == m.cost[zero, tree_walk(one)[0](one.root)])
        # the second step starts from the lowest successor, after the largest demand (2)
        two = belief_value_iteration(m, part, prior, 2, 0.9)
        action, advance = tree_walk(two)
        j0 = action(two.root)
        x1 = m.state_index(float(m.actions[j0]) - 2.0)
        j1 = action(advance(two.root, part.state_obs[x1]))
        res = pomdp_simulate(m, part, two, prior, 2, 3, seed=1, alpha=0.9)
        assert np.all(res.samples == m.cost[zero, j0] + 0.9 * m.cost[x1, j1])

    def test_unreached_observation_raises(self, monkeypatch):
        # the zero draws force the observation of the lowest successor; its child row is gone
        m = readme_mdp()
        part, prior = split_partition(m), make_belief([(0.0, 1.0)], m.grid)
        monkeypatch.setattr(pomdp, "replication_uniforms", lambda seed, reps, n: np.zeros((reps, n)))
        sol = belief_value_iteration(m, part, prior, 2, 0.9)
        j0 = tree_walk(sol)[0](sol.root)
        seen = part.state_obs[m.state_index(float(m.actions[j0]) - 2.0)]
        kept = ~np.all(sol.children[:, :3] == [sol.root, j0, seen], axis=1)
        assert kept.sum() == len(kept) - 1
        pruned = dataclasses.replace(sol, children=sol.children[kept])
        with pytest.raises(InvLabError, match=re.escape(f"observation {part.obs_values[seen]} was unreachable")) as err:
            pomdp_simulate(m, part, pruned, prior, 2, 3, seed=1, alpha=0.9)
        assert err.value.code == "IMPOSSIBLE_OBSERVATION"


class TestWideLattice:
    """The README config on 4,001 states: nodes and rollouts hold no (n x n) array."""

    def test_tree_and_rollouts_stay_small(self):
        m = readme_mdp(-2000, 2000, 30)
        part, prior = split_partition(m), make_belief([(0.0, 1.0)], m.grid)
        tracemalloc.start()
        try:
            sol = belief_value_iteration(m, part, prior, 3, 0.9)
            tree_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            res = pomdp_simulate(m, part, sol, prior, 3, 10_000, seed=3, alpha=0.9)
            rollout_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert tree_peak < 20e6, tree_peak
        assert rollout_peak < 20e6, rollout_peak
        assert res.ci_low <= sol.value <= res.ci_high
