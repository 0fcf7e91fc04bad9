"""Container observations, Bayes filtering, and belief-tree value iteration."""

import itertools

import numpy as np
import pytest

from invlab.costs import CostModel, HoldingCost
from invlab.demand import from_atoms
from invlab.dp_core import finite_horizon_vi, make_inventory_mdp
from invlab.errors import InvLabError
from invlab.pomdp import (
    Container,
    ContainerPartition,
    TreePolicy,
    bayes_filter,
    belief_value_iteration,
    comdp_cost,
    make_belief,
    observation_marginal,
    observe_psi,
    pomdp_simulate,
    validate_belief,
)

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

    def test_zero_container_labeled_one(self):
        m = small_mdp()
        part = split_partition(m)
        assert part.labels == [0, 1]  # container holding level 0 gets label 1

    def test_explicit_rep_must_be_interior(self):
        m = small_mdp()
        with pytest.raises(ValueError, match="strictly inside"):
            ContainerPartition(
                [Container(-4, 0, False, -4.0), Container(0, 4, True)], m.grid, m.step
            )


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
            marg = observation_marginal(m, part, z, a)
            assert marg.sum() == pytest.approx(1.0, abs=1e-12)

    def test_transparent_deterministic_chain(self):
        m = small_mdp(demand=UNIT)
        part = transparent_partition(m)
        z = make_belief([(1.0, 1.0)], m.grid)
        marg = observation_marginal(m, part, z, 1.0)
        obs_id = np.argmax(marg)
        assert part.obs_values[obs_id] == 1.0  # 1 + 1 - 1
        assert marg[obs_id] == pytest.approx(1.0)

    def test_two_branch_hand_computation(self):
        m = small_mdp(demand=TWO_POINT, lo=-2, hi=2)
        part = ContainerPartition(
            [Container(-2, 0, False, -1.0), Container(0, 2, True)], m.grid, m.step
        )
        z = make_belief([(0.0, 1.0)], m.grid)
        marg = observation_marginal(m, part, z, 0.0)
        val_to_mass = dict(zip(part.obs_values, marg))
        assert val_to_mass[0.0] == pytest.approx(0.5)   # demand 0 keeps level 0
        assert val_to_mass[-1.0] == pytest.approx(0.5)  # demand 2 drops to -2, seen as rep -1


class TestBayesFilter:
    def test_transparent_observation_collapses(self):
        m = small_mdp()
        part = split_partition(m)
        z = np.full(m.n_states, 1.0 / m.n_states)
        post = bayes_filter(m, part, z, 1.0, 2.0)
        expected = np.zeros(m.n_states)
        expected[m.state_index(2)] = 1.0
        assert np.allclose(post, expected)

    def test_container_observation_is_restricted_predictive(self):
        m = small_mdp(demand=MIXED)
        part = split_partition(m)
        z = make_belief([(0.0, 0.5), (1.0, 0.5)], m.grid)
        a = 0.0
        pred = z @ m.P[:, m.action_index(a), :]
        post = bayes_filter(m, part, z, a, -2.0)  # the container's representative
        inside = part.state_container == 0
        expected = np.where(inside, pred, 0.0)
        expected /= expected.sum()
        assert np.allclose(post, expected, atol=1e-12)

    def test_impossible_observation_raises(self):
        m = small_mdp(demand=UNIT)
        part = split_partition(m)
        z = make_belief([(3.0, 1.0)], m.grid)
        with pytest.raises(InvLabError) as err:
            bayes_filter(m, part, z, 0.0, 3.0)  # 3 - 1 = 2, observing 3 is impossible
        assert err.value.code == "IMPOSSIBLE_OBSERVATION"

    def test_posterior_sums_to_one(self):
        m = small_mdp()
        part = split_partition(m)
        rng = np.random.default_rng(11)
        for _ in range(40):
            z = rng.dirichlet(np.ones(m.n_states))
            a = float(rng.choice([0.0, 1.0]))
            marg = observation_marginal(m, part, z, a)
            for obs_id in np.nonzero(marg > 1e-12)[0]:
                post = bayes_filter(m, part, z, a, float(part.obs_values[obs_id]))
                assert post.sum() == pytest.approx(1.0, abs=1e-12)

    def test_disintegration_identity(self):
        # mixing posteriors over observations recovers the predictive law
        m = small_mdp()
        part = split_partition(m)
        rng = np.random.default_rng(7)
        for _ in range(40):
            z = rng.dirichlet(np.ones(m.n_states) * rng.uniform(0.3, 3.0))
            a = float(rng.choice([0.0, 1.0, 3.0]))
            pred = z @ m.P[:, m.action_index(a), :]
            marg = observation_marginal(m, part, z, a)
            mixture = np.zeros(m.n_states)
            for obs_id in np.nonzero(marg > 0)[0]:
                post = bayes_filter(m, part, z, a, float(part.obs_values[obs_id]))
                mixture += marg[obs_id] * post
            assert np.allclose(mixture, pred, atol=1e-12)

    def test_fully_opaque_container_ignores_observation(self):
        m = small_mdp()
        part = opaque_partition(m)
        z = np.full(m.n_states, 1.0 / m.n_states)
        a = 1.0
        pred = z @ m.P[:, m.action_index(a), :]
        post = bayes_filter(m, part, z, a, float(part.obs_values[0]))
        assert np.allclose(post, pred, atol=1e-12)

    def test_transparent_trajectory_tracks_hidden_state(self):
        # once a transparent observation lands, the belief rides the hidden path
        m = small_mdp(demand=MIXED)
        part = transparent_partition(m)
        rng = np.random.default_rng(21)
        x = m.state_index(1)
        belief = make_belief([(1.0, 1.0)], m.grid)
        for _ in range(6):
            a = float(rng.choice([0.0, 1.0]))
            row = m.P[x, m.action_index(a), :]
            x = int(rng.choice(m.n_states, p=row))
            y = observe_psi(part, float(m.grid[x]))
            belief = bayes_filter(m, part, belief, a, y)
            expected = np.zeros(m.n_states)
            expected[x] = 1.0
            assert np.allclose(belief, expected)


class TestComdpCost:
    def test_point_mass(self):
        m = small_mdp()
        z = make_belief([(1.0, 1.0)], m.grid)
        assert comdp_cost(m, z, 2.0) == pytest.approx(m.cost[m.state_index(1), m.action_index(2)])

    def test_uniform_two_states(self):
        m = small_mdp()
        z = make_belief([(0.0, 0.5), (2.0, 0.5)], m.grid)
        expected = 0.5 * m.cost[m.state_index(0), 0] + 0.5 * m.cost[m.state_index(2), 0]
        assert comdp_cost(m, z, 0.0) == pytest.approx(expected)

    def test_infeasible_state_poisons_cost(self):
        m = small_mdp()  # ordering above the grid top is infeasible
        z = make_belief([(4.0, 0.5), (0.0, 0.5)], m.grid)
        assert comdp_cost(m, z, 1.0) == np.inf


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
        oracle = min(comdp_cost(m, z, float(a)) for a in m.actions)
        assert sol.value == pytest.approx(oracle, abs=1e-12)

    def test_transparent_partition_reproduces_mdp(self):
        m = small_mdp(demand=MIXED)
        part = transparent_partition(m)
        alpha, N = 0.9, 4
        sols = finite_horizon_vi(m, N, alpha, np.zeros(m.n_states))
        for x in (-2.0, 0.0, 3.0):
            prior = make_belief([(x, 1.0)], m.grid)
            tree = belief_value_iteration(m, part, prior, N, alpha)
            assert tree.value == pytest.approx(sols[N].values[m.state_index(x)], abs=1e-9)

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
        policy = TreePolicy(sol, m, part)
        atoms = list(zip(TWO_POINT.offsets(), TWO_POINT.probs))
        total = 0.0
        for i0 in np.nonzero(prior > 0)[0]:
            for path in itertools.product(atoms, repeat=N):
                prob = prior[i0]
                cursor = policy.start()
                x = int(i0)
                cost_sum = 0.0
                for t, (d_off, d_p) in enumerate(path):
                    a = policy.action(cursor)
                    j = m.action_index(a)
                    cost_sum += alpha**t * m.cost[x, j]
                    x = int(m.next_idx[x, j, list(TWO_POINT.offsets()).index(d_off)])
                    prob *= d_p
                    if t < N - 1:
                        y = float(part.obs_values[part.state_obs[x]])
                        cursor = policy.advance(cursor, y)
                total += prob * cost_sum
        assert sol.value == pytest.approx(total, abs=1e-9)


class TestPomdpSimulate:
    def test_deterministic_chain_zero_variance(self):
        m = small_mdp(demand=UNIT)
        part = transparent_partition(m)
        prior = make_belief([(2.0, 1.0)], m.grid)
        alpha, N = 0.9, 3
        sol = belief_value_iteration(m, part, prior, N, alpha)
        res = pomdp_simulate(m, part, TreePolicy(sol, m, part), prior, N, 50, seed=9, alpha=alpha)
        assert np.allclose(res.samples, sol.value, atol=1e-9)

    def test_same_seed_identical_samples(self):
        m = small_mdp(demand=MIXED)
        part = split_partition(m)
        prior = make_belief([(0.0, 1.0)], m.grid)
        sol = belief_value_iteration(m, part, prior, 3, 0.9)
        a = pomdp_simulate(m, part, TreePolicy(sol, m, part), prior, 3, 40, seed=5, alpha=0.9)
        b = pomdp_simulate(m, part, TreePolicy(sol, m, part), prior, 3, 40, seed=5, alpha=0.9)
        assert np.array_equal(a.samples, b.samples)

    def test_ci_covers_tree_value(self):
        m = small_mdp(demand=MIXED)
        part = split_partition(m)
        prior = make_belief([(-1.0, 0.5), (2.0, 0.5)], m.grid)
        alpha, N = 0.9, 3
        sol = belief_value_iteration(m, part, prior, N, alpha)
        res = pomdp_simulate(m, part, TreePolicy(sol, m, part), prior, N, 4000, seed=123, alpha=alpha)
        assert res.ci_low <= sol.value <= res.ci_high

    def test_callable_policy_with_filter(self):
        m = small_mdp(demand=MIXED)
        part = split_partition(m)
        prior = make_belief([(0.0, 1.0)], m.grid)

        def never_order(belief, t):
            return 0.0

        res = pomdp_simulate(m, part, never_order, prior, 4, 30, seed=2, alpha=0.9)
        assert np.all(np.isfinite(res.samples))


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
