"""Grid MDP construction and value iteration against hand and brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab.average_cost import check_optimality_inequality, long_run_average
from invlab.cli_sim import simulate_policy
from invlab.costs import CostModel, HoldingCost
from invlab.demand import from_atoms
from invlab.dp_core import (
    TIE_TOL,
    Dynamics,
    build_mdp,
    check_stationary_optimality,
    finite_horizon_vi,
    infinite_horizon_vi,
    make_inventory_mdp,
    min_action_policy,
    policy_values,
)
from invlab.errors import InvLabError
from invlab.policy_structure import g_function
from invlab.pomdp import Container, ContainerPartition, TreePolicy, belief_value_iteration, make_belief, pomdp_simulate

UNIT = from_atoms([(1, 1.0)], step=1)
ABS = CostModel(0.0, 1.0, HoldingCost.linear(1.0, 1.0))


def evaluate_stationary(mdp, phi_idx, alpha):
    """Oracle: exact policy value via the linear system (I - alpha P) v = c."""
    n = mdp.n_states
    rows = mdp.P[np.arange(n), phi_idx, :]
    c = mdp.cost[np.arange(n), phi_idx]
    return np.linalg.solve(np.eye(n) - alpha * rows, c)


class TestBuildMdp:
    def test_backorder_row_deterministic(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2)
        i, j = m.state_index(0), m.action_index(1)
        row = m.P[i, j]
        assert row[m.state_index(0)] == 1.0
        assert row.sum() == pytest.approx(1.0)

    def test_lost_sales_clamps_at_zero(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2, dynamics=Dynamics.LOST_SALES)
        row = m.P[m.state_index(0), m.action_index(0)]
        assert row[m.state_index(0)] == 1.0  # (0 + 0 - 1)^+ = 0
        assert m.mass_loss[m.state_index(0), m.action_index(0)] == 0.0

    def test_lost_sales_end_to_end(self):
        d = from_atoms([(0, 0.25), (1, 0.5), (2, 0.25)], step=1)
        cost = CostModel(1.5, 1.0, HoldingCost.linear(4.0, 1.0))
        m = make_inventory_mdp(cost, d, -2, 10, dynamics=Dynamics.LOST_SALES)
        alpha, eps = 0.9, 1e-6
        sol = infinite_horizon_vi(m, alpha, eps)
        phi = min_action_policy(sol)
        assert check_stationary_optimality(m, phi, sol.values, alpha) <= 2 * eps
        # negative states are unreachable from nonnegative starts
        reachable = np.zeros(m.n_states, dtype=bool)
        frontier = [m.state_index(0)]
        while frontier:
            i = frontier.pop()
            if reachable[i]:
                continue
            reachable[i] = True
            j = m.action_index(phi[i])
            for k in np.nonzero(m.P[i, j] > 0)[0]:
                if not reachable[k]:
                    frontier.append(int(k))
        assert not reachable[m.grid < 0].any()

    def test_bottom_edge_clamp_recorded(self):
        d = from_atoms([(0, 0.5), (2, 0.5)], step=1)
        m = make_inventory_mdp(CostModel(0.0, 1.0, HoldingCost.linear(1, 1)), d, -1, 3)
        i, j = m.state_index(0), m.action_index(0)
        assert m.P[i, j, m.state_index(0)] == pytest.approx(0.5)
        assert m.P[i, j, m.state_index(-1)] == pytest.approx(0.5)  # -2 clamped to -1
        assert m.mass_loss[i, j] == pytest.approx(0.5)

    def test_narrow_grid_rejected_at_tight_tolerance(self):
        d = from_atoms([(0, 0.5), (2, 0.5)], step=1)

        def cost_fn(x, a):
            return a  # finite everywhere

        with pytest.raises(InvLabError) as err:
            build_mdp(Dynamics.BACKORDER, d, -1, 3, 2, cost_fn, mass_tol=1e-6)
        assert err.value.code == "GRID_TOO_NARROW"

    def test_rows_sum_to_one_after_clamping(self):
        d = from_atoms([(0, 0.3), (1, 0.4), (3, 0.3)], step=1)
        m = make_inventory_mdp(ABS, d, -4, 6)
        sums = m.P.sum(axis=2)
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_mass_loss_zero_iff_strict_build_passes(self):
        # demand never leaves the grid from any feasible (x, a): wide enough grid
        d = from_atoms([(1, 1.0)], step=1)

        def cost_fn(x, a):
            if x + a > 3 or x + a < 1:
                return np.inf
            return a

        m = build_mdp(Dynamics.BACKORDER, d, 0, 3, 3, cost_fn, mass_tol=0.0)
        assert np.all(m.mass_loss[np.isfinite(m.cost)] == 0.0)

    def test_no_finite_action_rejected(self):
        with pytest.raises(InvLabError) as err:
            build_mdp(Dynamics.BACKORDER, UNIT, 0, 3, 1, lambda x, a: np.inf, mass_tol=1.0)
        assert err.value.code == "NO_FINITE_ACTION"

    def test_min_finite_cost_recorded(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2)
        assert m.min_finite_cost == pytest.approx(float(m.cost[np.isfinite(m.cost)].min()))
        assert np.isfinite(m.min_finite_cost)

    def test_custom_dynamics_table(self):
        # deterministic drift downward by the shock regardless of action
        m = build_mdp(
            Dynamics.CUSTOM,
            UNIT,
            0,
            3,
            1,
            lambda x, a: 0.0,
            custom_next=lambda x, a, s: max(x - s, 0.0),
        )
        assert m.P[m.state_index(2), 0, m.state_index(1)] == 1.0
        assert m.P[m.state_index(0), 0, m.state_index(0)] == 1.0

    def test_dense_rows_built_only_on_request(self):
        m = make_inventory_mdp(CostModel(2.0, 1.0, HoldingCost.linear(3, 1)), UNIT, -6, 4)
        alpha = 0.9
        sol = infinite_horizon_vi(m, alpha, 1e-6)
        phi = min_action_policy(sol)
        check_stationary_optimality(m, phi, sol.values, alpha)
        part = ContainerPartition([Container(-6, 0, False), Container(0, 4, True)], m.grid, m.step)
        prior = make_belief([(0.0, 1.0)], m.grid)
        tree = belief_value_iteration(m, part, prior, 3, alpha)
        pomdp_simulate(m, part, TreePolicy(tree, m, part), prior, 3, 20, 1, alpha)
        assert "P" not in m.__dict__
        assert m.P.shape == (m.n_states, m.n_actions, m.n_states)

    def test_per_pair_successors_built_only_on_request(self):
        cost = CostModel(2.0, 1.0, HoldingCost.linear(3, 1))
        m = make_inventory_mdp(cost, UNIT, -6, 4)
        alpha = 0.9
        part = ContainerPartition([Container(-6, 0, False), Container(0, 4, True)], m.grid, m.step)
        prior = make_belief([(0.0, 1.0)], m.grid)
        sol = infinite_horizon_vi(m, alpha, 1e-6)
        phi = min_action_policy(sol)
        tree = belief_value_iteration(m, part, prior, 3, alpha)
        steps = {
            "stationary check": lambda: check_stationary_optimality(m, phi, sol.values, alpha),
            "OI check": lambda: check_optimality_inequality(m, sol.values - sol.values.min(), 1.0, phi),
            "long-run average": lambda: long_run_average(m, phi, 5),
            "G-function": lambda: g_function(m, sol.values, alpha, cost, UNIT),
            "belief tree": lambda: belief_value_iteration(m, part, prior, 3, alpha),
            "POMDP rollout": lambda: pomdp_simulate(m, part, TreePolicy(tree, m, part), prior, 3, 20, 1, alpha),
            "policy simulation": lambda: simulate_policy(m, phi, 0.0, 10, alpha, 20, 1),
        }
        assert "next_idx" not in m.__dict__, "value iteration"
        for name, step in steps.items():
            step()
            assert "next_idx" not in m.__dict__, name
        assert m.next_idx.shape == (m.n_states, m.n_actions, UNIT.probs.size)

    def test_custom_replicates_builtin_backorder(self):
        d = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1)
        cost = CostModel(1.0, 1.0, HoldingCost.linear(2, 1))
        builtin = make_inventory_mdp(cost, d, -5, 5)

        def cost_fn(x, a):
            return builtin.cost[builtin.state_index(x), builtin.action_index(a)]

        custom = build_mdp(
            Dynamics.CUSTOM, d, -5, 5, 10, cost_fn,
            custom_next=lambda x, a, s: min(max(x + a - s, -5.0), 5.0),
            mass_tol=1.0,
        )
        assert np.allclose(custom.P, builtin.P, atol=1e-15)
        for alpha in (0.0, 0.8):
            a = infinite_horizon_vi(builtin, alpha, 1e-8)
            b = infinite_horizon_vi(custom, alpha, 1e-8)
            assert np.allclose(a.values, b.values, atol=1e-7)


SIGNED_SHOCK = (np.array([-1.0, 0.0, 2.0]), np.array([0.15, 0.6, 0.25]))


def per_pair_reference(grid, actions, shock, next_fn, cost_fn, mass_tol):
    """Clamped mass per pair and the first GRID_TOO_NARROW message, one successor at a time."""
    values, probs = shock
    lo, hi = grid[0], grid[-1]
    mass_loss = np.zeros((grid.size, actions.size))
    message = None
    for i, x in enumerate(grid):
        for j, a in enumerate(actions):
            finite = np.isfinite(cost_fn(float(x), float(a)))
            for k, s in enumerate(values):
                nxt = next_fn(float(x), float(a), float(s))
                if nxt < lo or nxt > hi:
                    mass_loss[i, j] += probs[k]
                    if message is None and finite and probs[k] > mass_tol:
                        message = (
                            f"shock atom {values[k]} (p={probs[k]}) clamps at the grid edge "
                            f"from state {grid[i]} under action {actions[j]}"
                        )
    return mass_loss, message


# (dynamics, grid lo, grid hi, a_max, next state, cost)
CLAMP_CASES = {
    "backorder": (
        Dynamics.BACKORDER, -3, 3, 2, lambda x, a, s: x + a - s,
        lambda x, a: np.inf if x + a > 4 or x + a < -1 else a,
    ),
    "lost_sales": (
        Dynamics.LOST_SALES, 0, 4, 2, lambda x, a, s: max(x + a - s, 0.0),
        lambda x, a: np.inf if x + a > 5 else a,
    ),
    "custom": (
        Dynamics.CUSTOM, -3, 3, 2, lambda x, a, s: x + (a if x < 0 else 2 * a) - s,
        lambda x, a: np.inf if x < -2 and a < 2 else a,
    ),
}


class TestClampAudit:
    """``mass_loss`` and the GRID_TOO_NARROW scan, against a per-pair reference."""

    @staticmethod
    def build(name, mass_tol):
        dynamics, lo, hi, a_max, next_fn, cost_fn = CLAMP_CASES[name]
        custom = next_fn if dynamics is Dynamics.CUSTOM else None
        return build_mdp(dynamics, SIGNED_SHOCK, lo, hi, a_max, cost_fn, step=1.0, mass_tol=mass_tol, custom_next=custom)

    @staticmethod
    def reference(name, mass_tol):
        _, lo, hi, a_max, next_fn, cost_fn = CLAMP_CASES[name]
        grid, actions = np.arange(lo, hi + 1.0), np.arange(0, a_max + 1.0)
        return per_pair_reference(grid, actions, SIGNED_SHOCK, next_fn, cost_fn, mass_tol)

    @pytest.mark.parametrize("name", CLAMP_CASES)
    def test_mass_loss_matches_per_pair_sum(self, name):
        m = self.build(name, 1.0)
        mass_loss, _ = self.reference(name, 1.0)
        assert mass_loss.any()
        assert np.allclose(m.mass_loss, mass_loss, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("mass_tol", [0.1, 0.2])
    @pytest.mark.parametrize("name", CLAMP_CASES)
    def test_first_offending_pair_and_atom(self, name, mass_tol):
        _, message = self.reference(name, mass_tol)
        assert message is not None
        with pytest.raises(InvLabError) as err:
            self.build(name, mass_tol)
        assert err.value.code == "GRID_TOO_NARROW"
        assert err.value.message == message


class TestFiniteHorizon:
    def test_zero_horizon_returns_terminal(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2)
        terminal = np.linspace(0, 1, m.n_states)
        sols = finite_horizon_vi(m, 0, 0.9, terminal)
        assert len(sols) == 1
        assert np.array_equal(sols[0].values, terminal)

    def test_one_step_hand_enumeration(self):
        m = make_inventory_mdp(ABS, UNIT, -1, 1)
        sols = finite_horizon_vi(m, 1, 0.9, np.zeros(m.n_states))
        v1 = sols[1].values
        assert v1[m.state_index(0)] == pytest.approx(1.0)
        assert v1[m.state_index(1)] == pytest.approx(0.0)
        sets = sols[1].argmin_sets
        assert sorted(sets[m.state_index(0)].tolist()) == [0.0, 1.0]
        assert sets[m.state_index(1)].tolist() == [0.0]

    def test_constant_cost_geometric_sum(self):
        m = build_mdp(Dynamics.BACKORDER, UNIT, -3, 3, 2, lambda x, a: 1.0, mass_tol=1.0)
        sols = finite_horizon_vi(m, 3, 0.5, np.zeros(m.n_states))
        assert np.allclose(sols[3].values, 1.75)

    def test_monotone_in_horizon_with_zero_terminal(self):
        d = from_atoms([(0, 0.4), (1, 0.6)], step=1)
        m = make_inventory_mdp(CostModel(1.0, 1.0, HoldingCost.linear(2, 1)), d, -5, 5)
        sols = finite_horizon_vi(m, 8, 0.9, np.zeros(m.n_states))
        for a, b in itertools.pairwise(sols):
            assert np.all(b.values >= a.values - 1e-12)

    def test_bellman_monotonicity_in_terminal(self):
        m = make_inventory_mdp(ABS, UNIT, -3, 3)
        f1 = np.zeros(m.n_states)
        f2 = f1 + 0.5
        s1 = finite_horizon_vi(m, 4, 0.8, f1)
        s2 = finite_horizon_vi(m, 4, 0.8, f2)
        for a, b in zip(s1, s2):
            assert np.all(a.values <= b.values + 1e-12)

    def test_argmin_sets_nonempty_everywhere(self):
        d = from_atoms([(0, 0.25), (2, 0.75)], step=1)
        m = make_inventory_mdp(CostModel(2.0, 0.7, HoldingCost.linear(3, 1)), d, -6, 6)
        sols = finite_horizon_vi(m, 6, 0.5, np.zeros(m.n_states))
        for sol in sols[1:]:
            assert all(len(s) > 0 for s in sol.argmin_sets)


class TestInfiniteHorizon:
    def test_alpha_zero_is_myopic(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2)
        sol = infinite_horizon_vi(m, 0.0, 1e-6)
        assert np.allclose(sol.values, m.cost.min(axis=1))
        assert sol.iterations == 1

    def test_constant_cost_fixed_point(self):
        m = build_mdp(Dynamics.BACKORDER, UNIT, -3, 3, 2, lambda x, a: 1.0, mass_tol=1.0)
        sol = infinite_horizon_vi(m, 0.8, 1e-6)
        assert np.allclose(sol.values, 5.0, atol=1e-6)

    def test_matches_exhaustive_policy_enumeration(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2)
        alpha = 0.5
        sol = infinite_horizon_vi(m, alpha, 1e-6)
        # oracle: enumerate every stationary policy over feasible actions
        feasible = [np.nonzero(np.isfinite(m.cost[i]))[0] for i in range(m.n_states)]
        best = np.full(m.n_states, np.inf)
        for combo in itertools.product(*feasible):
            v = evaluate_stationary(m, np.array(combo), alpha)
            best = np.minimum(best, v)
        assert np.allclose(sol.values, best, atol=1e-5)
        assert sol.values[m.state_index(0)] == pytest.approx(2.0, abs=1e-5)

    def test_lower_bound_preservation(self):
        d = from_atoms([(0, 0.5), (1, 0.5)], step=1)
        m = make_inventory_mdp(CostModel(1.0, 1.0, HoldingCost.linear(2, 1)), d, -4, 4)
        alpha = 0.9
        sol = infinite_horizon_vi(m, alpha, 1e-6)
        finite_costs = m.cost[np.isfinite(m.cost)]
        assert np.all((1 - alpha) * sol.values >= finite_costs.min() - 1e-9)
        assert np.all((1 - alpha) * sol.values <= finite_costs.max() + 1e-9)

    def test_contraction_certificate(self):
        d = from_atoms([(0, 0.3), (1, 0.5), (2, 0.2)], step=1)
        m = make_inventory_mdp(CostModel(1.5, 1.0, HoldingCost.linear(2, 1)), d, -6, 6)
        for alpha in (0.5, 0.9):
            eps = 1e-6
            sol = infinite_horizon_vi(m, alpha, eps)
            phi = min_action_policy(sol)
            assert check_stationary_optimality(m, phi, sol.values, alpha) <= 2 * eps


class TestStationaryCheck:
    def test_constant_cost_all_policies_equal(self):
        m = build_mdp(Dynamics.BACKORDER, UNIT, -2, 2, 1, lambda x, a: 1.0, mass_tol=1.0)
        sol = infinite_horizon_vi(m, 0.7, 1e-8)
        for a in (0.0, 1.0):
            phi = np.full(m.n_states, a)
            assert check_stationary_optimality(m, phi, sol.values, 0.7) <= 1e-6

    def test_perturbed_policy_has_positive_residual(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2)
        alpha = 0.5
        sol = infinite_horizon_vi(m, alpha, 1e-8)
        phi = min_action_policy(sol)
        base = check_stationary_optimality(m, phi, sol.values, alpha)
        worse = phi.copy()
        i = m.state_index(1)  # optimal action is 0 there; force an order of 1
        worse[i] = 1.0
        assert check_stationary_optimality(m, worse, sol.values, alpha) > base + 0.1

    def test_dense_rows_match_fast_expectation(self):
        d = from_atoms([(0, 0.2), (1, 0.5), (3, 0.3)], step=1)
        cost = CostModel(1.0, 0.8, HoldingCost.linear(2, 1))
        mdps = [
            make_inventory_mdp(cost, d, -5, 5),
            make_inventory_mdp(cost, d, -5, 5, dynamics=Dynamics.LOST_SALES),
            build_mdp(
                Dynamics.CUSTOM, d, -5, 5, 3, lambda x, a: a,
                custom_next=lambda x, a, s: min(max(x + a - 2 * s, -5.0), 5.0),
            ),
        ]
        rng = np.random.default_rng(0)
        for m in mdps:
            v = rng.normal(size=m.n_states)
            fast = m.expected_next(v)
            dense = np.einsum("ijk,k->ij", m.P, v)
            assert np.allclose(fast, dense, atol=1e-12)
            phi_idx = rng.integers(0, m.n_actions, size=m.n_states)
            policy = m.policy_expected_next(phi_idx, v)
            assert np.allclose(policy, dense[np.arange(m.n_states), phi_idx], atol=1e-12)
            z = rng.dirichlet(np.ones(m.n_states))
            for j in range(m.n_actions):
                assert np.allclose(m.predictive(z, j), z @ m.P[:, j, :], atol=1e-12)


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 4))
    offsets = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n, unique=True))
    if all(o == 0 for o in offsets):
        offsets.append(2)
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(offsets), max_size=len(offsets)))
    total = sum(weights)
    demand = from_atoms([(o, w / total) for o, w in zip(offsets, weights)], step=1)
    K = draw(st.floats(0.0, 3.0))
    c_unit = draw(st.floats(0.2, 2.0))
    k_h = draw(st.floats(0.3, 4.0))
    h_plus = draw(st.floats(0.2, 2.0))
    cost = CostModel(K, c_unit, HoldingCost.linear(k_h, h_plus))
    dynamics = draw(st.sampled_from([Dynamics.BACKORDER, Dynamics.LOST_SALES]))
    return cost, demand, dynamics


class TestBuildProperties:
    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_rows_are_distributions_everywhere(self, instance):
        cost, demand, dynamics = instance
        m = make_inventory_mdp(cost, demand, -6, 8, dynamics=dynamics)
        assert np.all(m.P >= 0)
        assert np.allclose(m.P.sum(axis=2), 1.0, atol=1e-12)
        assert np.isfinite(m.cost).any(axis=1).all()
        assert np.all(m.mass_loss >= 0)
        assert np.all(m.mass_loss <= 1 + 1e-12)


def from_zero_vi(mdp, alpha, eps):
    """Reference: plain value iteration from zero, same stopping rule and final backup."""
    threshold = eps * (1 - alpha) / (2 * alpha)
    v = np.zeros(mdp.n_states)
    delta = np.inf
    while delta > threshold:
        vnew = (mdp.cost + alpha * mdp.expected_next(v)).min(axis=1)
        delta = np.max(np.abs(vnew - v))
        v = vnew
    q = mdp.cost + alpha * mdp.expected_next(v)
    vmin = q.min(axis=1)
    return vmin, [mdp.actions[q[i] <= vmin[i] + TIE_TOL] for i in range(mdp.n_states)]


def half_backlog_mdp():
    """Custom dynamics: stock carries over, half of any shortfall is backlogged."""
    d = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1)
    h = HoldingCost.linear(3.0, 1.0)

    def next_state(x, a, s):
        y = x + a - s
        return max(y if y >= 0 else -((-y) // 2), -4.0)

    def cost_fn(x, a):
        return math.inf if x + a > 6 else (1.5 if a > 0 else 0.0) + a + d.probs @ h(x + a - d.values)

    return build_mdp(Dynamics.CUSTOM, d, -4, 6, 10, cost_fn, custom_next=next_state, mass_tol=1.0)


class TestPolicyIterationStart:
    @pytest.mark.parametrize("kind", ["backorder", "lost_sales", "custom"])
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99, 0.9999])
    def test_matches_value_iteration_from_zero(self, kind, alpha):
        if kind == "custom":
            m = half_backlog_mdp()
        else:
            d = from_atoms([(0, 0.25), (1, 0.45), (3, 0.3)], step=1)
            cost = CostModel(2.0, 1.0, HoldingCost.linear(3.0, 1.0))
            m = make_inventory_mdp(cost, d, -6 if kind == "backorder" else 0, 8, dynamics=Dynamics(kind))
        eps = 1e-6
        sol = infinite_horizon_vi(m, alpha, eps)
        ref_values, ref_sets = from_zero_vi(m, alpha, eps)
        assert np.max(np.abs(sol.values - ref_values)) <= eps
        for got, want in zip(sol.argmin_sets, ref_sets):
            assert np.array_equal(got, want)

    def test_policy_values_match_dense_solve(self):
        rng = np.random.default_rng(7)
        d = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1)
        cost = CostModel(1.0, 1.0, HoldingCost.linear(2, 1))
        for m in (
            make_inventory_mdp(cost, d, -5, 5),
            make_inventory_mdp(cost, d, 0, 6, dynamics=Dynamics.LOST_SALES),
            half_backlog_mdp(),
        ):
            phi_idx = np.array([rng.choice(np.nonzero(np.isfinite(row))[0]) for row in m.cost])
            for alpha in (0.5, 0.99):
                assert np.allclose(policy_values(m, phi_idx, alpha), evaluate_stationary(m, phi_idx, alpha), atol=1e-9)

    def test_matches_exhaustive_policy_enumeration_near_one(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2)
        alpha, eps = 0.99, 1e-6
        sol = infinite_horizon_vi(m, alpha, eps)
        feasible = [np.nonzero(np.isfinite(m.cost[i]))[0] for i in range(m.n_states)]
        values = [evaluate_stationary(m, np.array(combo), alpha) for combo in itertools.product(*feasible)]
        best = np.min(values, axis=0)
        assert np.max(np.abs(sol.values - best)) <= eps
        phi_idx = m.policy_index(min_action_policy(sol))
        assert np.max(np.abs(evaluate_stationary(m, phi_idx, alpha) - best)) <= eps

    def test_every_action_tied_terminates(self):
        m = build_mdp(Dynamics.BACKORDER, UNIT, -3, 3, 2, lambda x, a: 1.0, mass_tol=1.0)
        alpha = 0.9999
        sol = infinite_horizon_vi(m, alpha, 1e-6)
        assert sol.iterations <= 3
        assert np.allclose(sol.values, 1 / (1 - alpha), atol=1e-6)
        assert all(np.array_equal(s, m.actions) for s in sol.argmin_sets)
