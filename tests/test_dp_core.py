"""Grid MDP construction, backward induction and policy iteration against hand and brute-force oracles."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import dp_core
from invlab.average_cost import DiscountLadder, solve_ladder
from invlab.costs import CostModel, HoldingCost, expected_holding
from invlab.demand import from_atoms
from invlab.dp_core import (
    MAX_PAIRS,
    TIE_TOL,
    Dynamics,
    _backup,
    _backup_mask,
    _expect,
    _greedy,
    _improve,
    _lattice,
    _on_pairs,
    _pair_q,
    _policy_q,
    _window_min,
    build_mdp,
    check_stationary_optimality,
    finite_horizon_vi,
    infinite_horizon_vi,
    make_inventory_mdp,
    policy_values,
)
from invlab.errors import InvLabError
from invlab.policy_structure import extract_sS
from invlab.pomdp import Container, ContainerPartition, belief_value_iteration, make_belief, pomdp_simulate
from oracles import cost_table, dense_rows, exact_policy_values, pair_q

UNIT = from_atoms([(1, 1.0)], step=1)
ABS = CostModel(0.0, 1.0, HoldingCost.linear(1.0, 1.0))


def law(mdp, demand):
    """``oracles.dense_rows`` of ``mdp``, once ``mdp.expected_next`` is checked against it on a random vector."""
    rows = dense_rows(mdp.grid, mdp.actions, demand, mdp.dynamics)
    v = np.random.default_rng(0).normal(size=mdp.n_states)
    assert np.allclose(_on_pairs(mdp.expected_next(v), mdp.n_actions), rows @ v, rtol=0, atol=1e-12)
    return rows


def evaluate_stationary(mdp, rows, phi_idx, alpha):
    """Oracle: exact policy value via the linear system (I - alpha P) v = c, with ``rows`` the dense law."""
    n = mdp.n_states
    c = mdp.cost[np.arange(n), phi_idx]
    return np.linalg.solve(np.eye(n) - alpha * rows[np.arange(n), phi_idx, :], c)


class TestBuildMdp:
    def test_backorder_row_deterministic(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2)
        i, j = m.state_index(0), m.action_index(1)
        row = law(m, UNIT)[i, j]
        assert row[m.state_index(0)] == 1.0
        assert row.sum() == pytest.approx(1.0)

    def test_lost_sales_clamps_at_zero(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2, dynamics=Dynamics.LOST_SALES)
        row = law(m, UNIT)[m.state_index(0), m.action_index(0)]
        assert row[m.state_index(0)] == 1.0  # (0 + 0 - 1)^+ = 0
        assert m.mass_loss[m.state_index(0), m.action_index(0)] == 0.0

    def test_lost_sales_end_to_end(self):
        d = from_atoms([(0, 0.25), (1, 0.5), (2, 0.25)], step=1)
        cost = CostModel(1.5, 1.0, HoldingCost.linear(4.0, 1.0))
        m = make_inventory_mdp(cost, d, -2, 10, dynamics=Dynamics.LOST_SALES)
        alpha, eps = 0.9, 1e-6
        sol = infinite_horizon_vi(m, alpha, eps)
        phi = m.actions[sol.optimal.argmax(axis=1)]
        assert check_stationary_optimality(m, phi, sol.values, alpha) <= 2 * eps
        rows = law(m, d)
        # negative states are unreachable from nonnegative starts
        reachable = np.zeros(m.n_states, dtype=bool)
        frontier = [m.state_index(0)]
        while frontier:
            i = frontier.pop()
            if reachable[i]:
                continue
            reachable[i] = True
            j = m.action_index(phi[i])
            for k in np.nonzero(rows[i, j] > 0)[0]:
                if not reachable[k]:
                    frontier.append(int(k))
        assert not reachable[m.grid < 0].any()

    def test_bottom_edge_clamp_recorded(self):
        d = from_atoms([(0, 0.5), (2, 0.5)], step=1)
        m = make_inventory_mdp(CostModel(0.0, 1.0, HoldingCost.linear(1, 1)), d, -1, 3)
        i, j = m.state_index(0), m.action_index(0)
        rows = law(m, d)
        assert rows[i, j, m.state_index(0)] == pytest.approx(0.5)
        assert rows[i, j, m.state_index(-1)] == pytest.approx(0.5)  # -2 clamped to -1
        assert m.mass_loss[i, j] == pytest.approx(0.5)

    def test_narrow_grid_rejected_at_tight_tolerance(self):
        d = from_atoms([(0, 0.5), (2, 0.5)], step=1)
        with pytest.raises(InvLabError) as err:  # cost a, finite everywhere
            build_mdp(Dynamics.BACKORDER, d, -1, 3, 2, 0.0, 1.0, np.zeros(7), mass_tol=1e-6)
        assert err.value.code == "GRID_TOO_NARROW"

    def test_rows_sum_to_one_after_clamping(self):
        d = from_atoms([(0, 0.3), (1, 0.4), (3, 0.3)], step=1)
        m = make_inventory_mdp(ABS, d, -4, 6)
        sums = law(m, d).sum(axis=2)
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_mass_loss_zero_iff_strict_build_passes(self):
        # demand never leaves the grid from any feasible (x, a): wide enough grid
        d = from_atoms([(1, 1.0)], step=1)
        L = np.where((np.arange(7) > 3) | (np.arange(7) < 1), np.inf, 0.0)  # cost a on the levels 1 .. 3
        m = build_mdp(Dynamics.BACKORDER, d, 0, 3, 3, 0.0, 1.0, L, mass_tol=0.0)
        assert np.all(m.mass_loss[np.isfinite(m.cost)] == 0.0)

    def test_no_finite_action_rejected(self):
        with pytest.raises(InvLabError) as err:
            build_mdp(Dynamics.BACKORDER, UNIT, 0, 3, 1, 0.0, 0.0, np.full(5, np.inf), mass_tol=1.0)
        assert err.value.code == "NO_FINITE_ACTION"

    def test_dense_rows_built_only_on_request(self):
        m = make_inventory_mdp(CostModel(2.0, 1.0, HoldingCost.linear(3, 1)), UNIT, -6, 4)
        alpha = 0.9
        sol = infinite_horizon_vi(m, alpha, 1e-6)
        phi = m.actions[sol.optimal.argmax(axis=1)]
        check_stationary_optimality(m, phi, sol.values, alpha)
        part = ContainerPartition([Container(-6, 0, False), Container(0, 4, True)], m.grid, m.step)
        prior = make_belief([(0.0, 1.0)], m.grid)
        tree = belief_value_iteration(m, part, prior, 3, alpha)
        pomdp_simulate(m, part, tree, prior, 3, 20, 1, alpha)
        assert "P" not in m.__dict__
        assert m.P.shape == (m.n_states, m.n_actions, m.n_states)


CLAMP_DEMAND = from_atoms([(0, 0.25), (1, 0.6), (3, 0.15)], step=1.0)


def per_pair_reference(grid, actions, demand, next_fn, cost_fn, mass_tol):
    """Clamped mass per pair and the first GRID_TOO_NARROW message, one successor at a time."""
    lo, hi = grid[0], grid[-1]
    mass_loss = np.zeros((grid.size, actions.size))
    message = None
    for i, x in enumerate(grid):
        for j, a in enumerate(actions):
            finite = np.isfinite(cost_fn(float(x), float(a)))
            for k, d in enumerate(demand.values):
                nxt = next_fn(float(x), float(a), float(d))
                if nxt < lo or nxt > hi:
                    mass_loss[i, j] += demand.probs[k]
                    if message is None and finite and demand.probs[k] > mass_tol:
                        message = (
                            f"shock atom {demand.values[k]} (p={demand.probs[k]}) clamps at the grid edge "
                            f"from state {grid[i]} under action {actions[j]}"
                        )
    return mass_loss, message


# (dynamics, grid lo, grid hi, a_max, next state, level cost L(y)) under the
# cost a + L(x + a): some finite-cost pair clamps at each edge the dynamics
# can reach; the top edge from a level above hi under zero demand
CLAMP_CASES = {
    "backorder": (
        Dynamics.BACKORDER, -3, 3, 2, lambda x, a, d: x + a - d,
        lambda y: np.inf if y > 4 or y < -1 else 0.0,
    ),
    "lost_sales": (
        Dynamics.LOST_SALES, 0, 4, 2, lambda x, a, d: max(x + a - d, 0.0),
        lambda y: np.inf if y > 5 else 0.0,
    ),
}


class TestClampAudit:
    """``mass_loss`` and the GRID_TOO_NARROW scan, against a per-pair reference."""

    @staticmethod
    def build(name, mass_tol):
        dynamics, lo, hi, a_max, _, level_cost = CLAMP_CASES[name]
        L = [level_cost(float(y)) for y in np.arange(lo, hi + a_max + 1.0)]
        return build_mdp(dynamics, CLAMP_DEMAND, lo, hi, a_max, 0.0, 1.0, L, mass_tol=mass_tol)

    @staticmethod
    def reference(name, mass_tol):
        _, lo, hi, a_max, next_fn, level_cost = CLAMP_CASES[name]
        grid, actions = np.arange(lo, hi + 1.0), np.arange(0, a_max + 1.0)
        return per_pair_reference(grid, actions, CLAMP_DEMAND, next_fn, lambda x, a: a + level_cost(x + a), mass_tol)

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
        values = finite_horizon_vi(m, 0, 0.9, terminal)
        assert values.shape == (1, m.n_states)
        assert np.array_equal(values[0], terminal)

    def test_one_step_hand_enumeration(self):
        m = make_inventory_mdp(ABS, UNIT, -1, 1)
        values = finite_horizon_vi(m, 1, 0.9, np.zeros(m.n_states))
        v1 = values[1]
        assert v1[m.state_index(0)] == pytest.approx(1.0)
        assert v1[m.state_index(1)] == pytest.approx(0.0)
        optimal = _backup_mask(m, values[0], 0.9)[1]
        assert sorted(m.actions[optimal[m.state_index(0)]].tolist()) == [0.0, 1.0]
        assert m.actions[optimal[m.state_index(1)]].tolist() == [0.0]

    def test_constant_cost_geometric_sum(self):
        m = build_mdp(Dynamics.BACKORDER, UNIT, -3, 3, 2, 0.0, 0.0, np.ones(9), mass_tol=1.0)
        values = finite_horizon_vi(m, 3, 0.5, np.zeros(m.n_states))
        assert np.allclose(values[3], 1.75)

    def test_monotone_in_horizon_with_zero_terminal(self):
        d = from_atoms([(0, 0.4), (1, 0.6)], step=1)
        m = make_inventory_mdp(CostModel(1.0, 1.0, HoldingCost.linear(2, 1)), d, -5, 5)
        values = finite_horizon_vi(m, 8, 0.9, np.zeros(m.n_states))
        for a, b in itertools.pairwise(values):
            assert np.all(b >= a - 1e-12)

    def test_bellman_monotonicity_in_terminal(self):
        m = make_inventory_mdp(ABS, UNIT, -3, 3)
        f1 = np.zeros(m.n_states)
        f2 = f1 + 0.5
        s1 = finite_horizon_vi(m, 4, 0.8, f1)
        s2 = finite_horizon_vi(m, 4, 0.8, f2)
        for a, b in zip(s1, s2):
            assert np.all(a <= b + 1e-12)

    @pytest.mark.parametrize("N", [0, 1, 4])
    def test_one_table_each_row_one_backup_of_the_last(self, N):
        d = from_atoms([(0, 0.25), (2, 0.75)], step=1)
        m = make_inventory_mdp(CostModel(2.0, 0.7, HoldingCost.linear(3, 1)), d, -6, 6)
        terminal = np.linspace(0.0, 2.0, m.n_states)
        values = finite_horizon_vi(m, N, 0.5, terminal)
        assert isinstance(values, np.ndarray) and values.shape == (N + 1, m.n_states)
        assert np.array_equal(values[0], terminal)
        for t in range(1, N + 1):
            F, G, _, tv = _backup(m, values[t - 1], 0.5)
            assert np.array_equal(values[t], tv)
            assert np.array_equal(values[t], _pair_q(m, F, G).min(axis=1))

    def test_argmin_sets_nonempty_everywhere(self):
        d = from_atoms([(0, 0.25), (2, 0.75)], step=1)
        m = make_inventory_mdp(CostModel(2.0, 0.7, HoldingCost.linear(3, 1)), d, -6, 6)
        values = finite_horizon_vi(m, 6, 0.5, np.zeros(m.n_states))
        for t in range(1, len(values)):
            assert _backup_mask(m, values[t - 1], 0.5)[1].any(axis=1).all()


class TestInfiniteHorizon:
    def test_alpha_zero_is_myopic(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2)
        sol = infinite_horizon_vi(m, 0.0, 1e-6)
        assert np.allclose(sol.values, m.cost.min(axis=1))
        assert sol.iterations == 1

    def test_constant_cost_fixed_point(self):
        m = build_mdp(Dynamics.BACKORDER, UNIT, -3, 3, 2, 0.0, 0.0, np.ones(9), mass_tol=1.0)
        sol = infinite_horizon_vi(m, 0.8, 1e-6)
        assert np.allclose(sol.values, 5.0, atol=1e-6)

    def test_matches_exhaustive_policy_enumeration(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2)
        alpha = 0.5
        sol = infinite_horizon_vi(m, alpha, 1e-6)
        # oracle: enumerate every stationary policy over feasible actions
        rows = law(m, UNIT)
        feasible = [np.nonzero(np.isfinite(m.cost[i]))[0] for i in range(m.n_states)]
        best = np.full(m.n_states, np.inf)
        for combo in itertools.product(*feasible):
            v = evaluate_stationary(m, rows, np.array(combo), alpha)
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
            phi = m.actions[sol.optimal.argmax(axis=1)]
            assert check_stationary_optimality(m, phi, sol.values, alpha) <= 2 * eps


class TestStationaryCheck:
    def test_constant_cost_all_policies_equal(self):
        m = build_mdp(Dynamics.BACKORDER, UNIT, -2, 2, 1, 0.0, 0.0, np.ones(6), mass_tol=1.0)
        sol = infinite_horizon_vi(m, 0.7, 1e-8)
        for a in (0.0, 1.0):
            phi = np.full(m.n_states, a)
            assert check_stationary_optimality(m, phi, sol.values, 0.7) <= 1e-6

    def test_perturbed_policy_has_positive_residual(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2)
        alpha = 0.5
        sol = infinite_horizon_vi(m, alpha, 1e-8)
        phi = m.actions[sol.optimal.argmax(axis=1)]
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
        ]
        rng = np.random.default_rng(0)
        for m in mdps:
            oracle_law = dense_rows(m.grid, m.actions, d, m.dynamics)
            v = rng.normal(size=m.n_states)
            fast = _on_pairs(m.expected_next(v), m.n_actions)
            dense = np.einsum("ijk,k->ij", oracle_law, v)
            assert np.allclose(fast, dense, atol=1e-12)
            phi_idx = rng.integers(0, m.n_actions, size=m.n_states)
            rows = np.arange(m.n_states)
            for alpha in (0.0, 0.5, 1.0):
                oracle = m.cost[rows, phi_idx] + alpha * oracle_law[rows, phi_idx] @ v
                assert np.allclose(m.policy_backup(phi_idx, v, alpha), oracle, atol=1e-12)


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
        rows = law(m, demand)
        assert np.all(rows >= 0)
        assert np.allclose(rows.sum(axis=2), 1.0, atol=1e-12)
        assert np.isfinite(m.cost).any(axis=1).all()
        assert np.all(m.mass_loss >= 0)
        assert np.all(m.mass_loss <= 1 + 1e-12)


def from_zero_vi(mdp, alpha, eps):
    """Reference: plain value iteration from zero, same stopping rule and final backup."""
    threshold = eps * (1 - alpha) / (2 * alpha)
    v = np.zeros(mdp.n_states)
    delta = np.inf
    while delta > threshold:
        vnew = pair_q(mdp, v, alpha).min(axis=1)
        delta = np.max(np.abs(vnew - v))
        v = vnew
    q = pair_q(mdp, v, alpha)
    vmin = q.min(axis=1)
    return vmin, [mdp.actions[q[i] <= vmin[i] + TIE_TOL] for i in range(mdp.n_states)]


class TestPolicyIterationStart:
    @pytest.mark.parametrize("kind", ["backorder", "lost_sales"])
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99, 0.9999])
    def test_matches_value_iteration_from_zero(self, kind, alpha):
        d = from_atoms([(0, 0.25), (1, 0.45), (3, 0.3)], step=1)
        cost = CostModel(2.0, 1.0, HoldingCost.linear(3.0, 1.0))
        m = make_inventory_mdp(cost, d, -6 if kind == "backorder" else 0, 8, dynamics=Dynamics(kind))
        eps = 1e-6
        sol = infinite_horizon_vi(m, alpha, eps)
        ref_values, ref_sets = from_zero_vi(m, alpha, eps)
        assert np.max(np.abs(sol.values - ref_values)) <= eps
        for got, want in zip(sol.optimal, ref_sets):
            assert np.array_equal(m.actions[got], want)

    def test_policy_values_match_dense_solve(self):
        rng = np.random.default_rng(7)
        d = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1)
        cost = CostModel(1.0, 1.0, HoldingCost.linear(2, 1))
        for m in (
            make_inventory_mdp(cost, d, -5, 5),
            make_inventory_mdp(cost, d, 0, 6, dynamics=Dynamics.LOST_SALES),
        ):
            rows = law(m, d)
            phi_idx = np.array([rng.choice(np.nonzero(np.isfinite(row))[0]) for row in m.cost])
            for alpha in (0.5, 0.99):
                assert np.allclose(policy_values(m, phi_idx, alpha), evaluate_stationary(m, rows, phi_idx, alpha), atol=1e-9)

    def test_matches_exhaustive_policy_enumeration_near_one(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2)
        alpha, eps = 0.99, 1e-6
        sol = infinite_horizon_vi(m, alpha, eps)
        rows = law(m, UNIT)
        feasible = [np.nonzero(np.isfinite(m.cost[i]))[0] for i in range(m.n_states)]
        values = [evaluate_stationary(m, rows, np.array(combo), alpha) for combo in itertools.product(*feasible)]
        best = np.min(values, axis=0)
        assert np.max(np.abs(sol.values - best)) <= eps
        phi_idx = sol.optimal.argmax(axis=1)
        assert np.max(np.abs(evaluate_stationary(m, rows, phi_idx, alpha) - best)) <= eps

    @pytest.mark.parametrize(
        "K, c_unit, gaps",
        [
            # cost of ordering less cost of not ordering: gaps of 1e-12 to 1e-10, and an exact tie at state 4
            (2.0**-35, 0.0, [-(2.0**-35), 2.0**-38, 2.0**-32, 2.0**-38, 0.0]),
            # gaps of 1e-10 to 1e-9, up to TIE_TOL, of both signs
            (2.0**-35, 2.0**-29, [2.0**-32, -(2.0**-30), 2.0**-30, -(2.0**-30), 2.0**-33]),
        ],
    )
    def test_near_ties_match_exact_enumeration(self, K, c_unit, gaps):
        d = from_atoms([(0, 0.5), (1, 0.5)], step=1)
        L = 1.0 + np.concatenate([[0.0], np.cumsum(np.array(gaps) - (K + c_unit))])
        m = build_mdp(Dynamics.BACKORDER, d, 0, 4, 1, K, c_unit, L, mass_tol=1.0)
        assert np.array_equal(m.cost[:, 1] - m.cost[:, 0], gaps)  # exact: every number here is dyadic
        alpha = 0.9999
        sol = infinite_horizon_vi(m, alpha, 1e-6)
        rows = law(m, d)
        values = [exact_policy_values(rows, m.cost, combo, alpha) for combo in itertools.product(range(2), repeat=m.n_states)]
        best = [min(column) for column in zip(*values)]
        assert max(abs(float(v - b)) for v, b in zip(map(Fraction, sol.values), best)) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99, 0.9999])
    def test_certifies_with_the_last_steps_own_backup(self, monkeypatch, alpha):
        calls = {"policy_values": 0, "_backup": 0}
        sums = []
        expected_next = dp_core.GridMDP.expected_next
        monkeypatch.setattr(dp_core.GridMDP, "expected_next", lambda self, v: sums.append(1) or expected_next(self, v))

        def counted(name):
            fn = getattr(dp_core, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(dp_core, name, counted(name))
        d = from_atoms([(0, 0.25), (1, 0.45), (3, 0.3)], step=1)
        m = make_inventory_mdp(CostModel(2.0, 1.0, HoldingCost.linear(3.0, 1.0)), d, -6, 8)
        sol = infinite_horizon_vi(m, alpha, 1e-6)
        # the myopic start (the alpha = 0 backup, which sums no E v), one backup
        # per step, then the backup of T v_phi that gives values and mask
        assert calls["_backup"] == calls["policy_values"] + 2 == sol.iterations + 2
        assert len(sums) == sol.iterations + 1
        assert sol.iterations >= 2

    def test_mask_built_on_first_read(self, monkeypatch):
        built = []
        pair_q = dp_core._pair_q
        monkeypatch.setattr(dp_core, "_pair_q", lambda *args: built.append(1) or pair_q(*args))
        d = from_atoms([(0, 0.25), (1, 0.45), (3, 0.3)], step=1)
        m = make_inventory_mdp(CostModel(2.0, 1.0, HoldingCost.linear(3.0, 1.0)), d, -6, 8)
        solve_ladder(m, [0.5, 0.9, 0.99], 1e-6)
        assert not built  # a ladder rung reads its values alone
        for alpha in (0.0, 0.9):
            sol = infinite_horizon_vi(m, alpha, 1e-6)
            assert not built
            mask = sol.optimal
            assert sol.optimal is mask and len(built) == 1
            assert np.array_equal(pair_q(m, sol._F, sol._G).min(axis=1), sol.values)  # the backup that gave the values
            built.clear()

    def test_every_action_tied_terminates(self):
        m = build_mdp(Dynamics.BACKORDER, UNIT, -3, 3, 2, 0.0, 0.0, np.ones(9), mass_tol=1.0)
        alpha = 0.9999
        sol = infinite_horizon_vi(m, alpha, 1e-6)
        assert sol.iterations <= 3
        assert np.allclose(sol.values, 1 / (1 - alpha), atol=1e-6)
        assert sol.optimal.all()


class TestLatticeCap:
    """Lattices past MAX_PAIRS (state, action) pairs are refused before anything is allocated."""

    def test_huge_action_lattice_refused(self):
        with pytest.raises(ValueError, match=r"5 states x 1000000000000001 actions make 5000000000000005 \(state, action\) pairs"):
            make_inventory_mdp(ABS, UNIT, -2, 2, a_max=1e15)
        with pytest.raises(ValueError, match="above the cap of 4194304"):
            build_mdp(Dynamics.BACKORDER, UNIT, -2, 2, 1e15, 0.0, 1.0, np.zeros(1))

    def test_huge_grid_refused(self):
        with pytest.raises(ValueError, match=r"2000000000000001 states x 1 actions"):
            build_mdp(Dynamics.BACKORDER, UNIT, -1e15, 1e15, 0, 0.0, 1.0, np.zeros(1))
        with pytest.raises(ValueError, match="above the cap of 4194304"):
            make_inventory_mdp(ABS, UNIT, -1e15, 1e15)

    def test_cap_is_on_pairs(self):
        assert MAX_PAIRS == 2048 * 2048
        assert _lattice(0.0, 2047.0, 1.0, 2047.0)[0].size == 2048
        with pytest.raises(ValueError, match="2049 states x 2048 actions make 4196352"):
            _lattice(0.0, 2048.0, 1.0, 2047.0)

    def test_unbounded_span_refused(self):
        with pytest.raises(ValueError, match="inf states x 1 actions make inf"):
            _lattice(-1e308, 1e308, 1.0)

    def test_integer_arguments_give_float_lattices(self):
        grid, actions = _lattice(-2, 2, 1, 1)
        assert grid.dtype == actions.dtype == np.float64
        assert (grid.tolist(), actions.tolist()) == ([-2.0, -1.0, 0.0, 1.0, 2.0], [0.0, 1.0])
        with pytest.raises(InvLabError, match=r"from state -2\.0 under action 0\.0$"):
            build_mdp(Dynamics.BACKORDER, UNIT, -2, 2, 1, 0.0, 0.0, np.zeros(6), mass_tol=0.5)


class TestLatticeEnds:
    @pytest.mark.parametrize("lo, hi", [(-12.0, 8.6), (-12.0, 8.4), (-12.4, 8.0)])
    def test_off_lattice_hi_refused(self, lo, hi):
        d = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1.0)
        message = rf"hi {hi} is not on the lattice from lo {lo} at step 1.0"
        with pytest.raises(ValueError, match=message):
            make_inventory_mdp(ABS, d, lo, hi, a_max=20.0)
        with pytest.raises(ValueError, match=message):
            build_mdp(Dynamics.BACKORDER, d, lo, hi, 20.0, 0.0, 1.0, np.zeros(1))

    @pytest.mark.parametrize("a_max", [2.6, 2.4])
    def test_off_lattice_a_max_refused(self, a_max):
        d = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1.0)
        with pytest.raises(ValueError, match=rf"^a_max {a_max} is not on the lattice at step 1.0$"):
            make_inventory_mdp(ABS, d, -12.0, 8.0, a_max=a_max)
        with pytest.raises(ValueError, match=rf"^a_max {a_max} is not on the lattice at step 1.0$"):
            build_mdp(Dynamics.BACKORDER, d, -12.0, 8.0, a_max, 0.0, 1.0, np.zeros(1))

    def test_negative_a_max_refused(self):
        with pytest.raises(ValueError, match=r"^a_max -2.0 is negative$"):
            make_inventory_mdp(ABS, UNIT, -2, 2, a_max=-2.0)

    def test_on_lattice_a_max_is_the_top_action(self):
        d = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1.0)
        assert make_inventory_mdp(ABS, d, -12.0, 8.0, a_max=3.0).actions.tolist() == [0.0, 1.0, 2.0, 3.0]


def per_pair_inventory_cost(cost, d, lo, hi):
    """``K 1{a>0} + c_unit a + E h(x + a - D)`` one pair at a time, ``+inf`` above the grid top."""
    n = int(round((hi - lo) / d.step)) + 1
    eh = expected_holding(cost.holding, lo + d.step * np.arange(n), d)

    def cost_fn(x, a):
        level = int(round((x + a - lo) / d.step))
        if level > n - 1:
            return math.inf
        return (cost.K if a > 0 else 0.0) + cost.c_unit * a + eh[level]

    return cost_fn


class TestInventoryCostTable:
    """``make_inventory_mdp`` tabulates its cost in one broadcast; a per-pair table is the oracle."""

    COST = CostModel(2.5, 1.3, HoldingCost(np.array([-3.0, 0.0, 2.0]), np.array([-5.0, -2.0, 1.5, 3.0])))

    @pytest.mark.parametrize(
        "dynamics, step, lo, hi, a_max",
        [
            (Dynamics.BACKORDER, 1.0, -12.0, 8.0, None),
            (Dynamics.BACKORDER, 1.0, -12.0, 8.0, 3.0),
            (Dynamics.LOST_SALES, 1.0, -12.0, 8.0, 5.0),
            (Dynamics.BACKORDER, 0.5, -25.5, 11.5, 4.0),
            (Dynamics.LOST_SALES, 0.5, -25.5, 11.5, None),
            (Dynamics.BACKORDER, 0.1, -3.0, 2.0, None),
            (Dynamics.LOST_SALES, 0.1, -3.0, 2.0, 0.7),
        ],
    )
    def test_table_equals_per_pair_costs(self, dynamics, step, lo, hi, a_max):
        d = from_atoms([(0, 0.2), (step, 0.5), (3 * step, 0.3)], step=step)
        table = make_inventory_mdp(self.COST, d, lo, hi, a_max, dynamics).cost
        cap = hi - lo if a_max is None else a_max
        oracle = cost_table(per_pair_inventory_cost(self.COST, d, lo, hi), lo, hi, cap, step)
        assert np.array_equal(table, oracle)
        assert np.isinf(table).any()  # some orders land above the grid top

    def test_table_of_wrong_shape_refused(self):
        with pytest.raises(ValueError, match=r"level costs have shape \(5, 2\), expected \(7,\)"):
            build_mdp(Dynamics.BACKORDER, UNIT, -2, 2, 2, 0.0, 1.0, np.zeros((5, 2)), mass_tol=1.0)
        with pytest.raises(ValueError, match=r"level costs have shape \(6,\), expected \(7,\)"):
            build_mdp(Dynamics.BACKORDER, UNIT, -2, 2, 2, 0.0, 1.0, np.zeros(6), mass_tol=1.0)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_table_checked_like_a_callable(self, bad):
        L = np.zeros(7)
        L[3] = bad
        with pytest.raises(ValueError, match="costs must be finite or \\+inf"):
            build_mdp(Dynamics.BACKORDER, UNIT, -2, 2, 2, 0.0, 1.0, L, mass_tol=1.0)

    @pytest.mark.parametrize("K, c_unit", [(math.inf, 1.0), (0.0, math.nan), (0.0, -math.inf)])
    def test_order_costs_must_be_finite(self, K, c_unit):
        with pytest.raises(ValueError, match=r"^K and c_unit must be finite, got "):
            build_mdp(Dynamics.BACKORDER, UNIT, -2, 2, 2, K, c_unit, np.zeros(7), mass_tol=1.0)

    def test_table_without_a_finite_action_refused_like_a_callable(self):
        L = np.zeros(7)
        L[3:6] = math.inf  # every level state 3 reaches
        with pytest.raises(InvLabError) as err:
            build_mdp(Dynamics.BACKORDER, UNIT, -2, 2, 2, 0.0, 1.0, L, mass_tol=1.0)
        assert err.value.code == "NO_FINITE_ACTION"
        assert err.value.message == "state 1.0 has no finite-cost action"


class TestIndexLookups:
    def test_action_index_of_a_policy(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2)
        phi = np.array([4.0, 2.0, 0.0, 1.0, 0.0])
        assert m.action_index(phi).tolist() == [4, 2, 0, 1, 0]
        assert m.state_index(m.grid).tolist() == list(range(m.n_states))
        assert m.action_index(3.0) == 3

    def test_off_lattice_action_in_a_policy_named(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2)
        with pytest.raises(ValueError, match=r"^action 1.5 is not on the action lattice$"):
            m.action_index(np.array([0.0, 1.0, 1.5, 2.5, 0.0]))
        with pytest.raises(ValueError, match=r"^action 5.0 is not on the action lattice$"):
            m.action_index(np.array([0.0, 5.0]))
        with pytest.raises(ValueError, match=r"^state 0.5 is not on the grid$"):
            m.state_index(0.5)


class TestOptimalMask:
    """Every optimal-action mask is the tie rule ``q <= min + TIE_TOL`` on every row."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.95])
    def test_finite_horizon_masks_are_the_tie_rule(self, alpha):
        d = from_atoms([(0, 0.25), (1, 0.45), (3, 0.3)], step=1)
        m = make_inventory_mdp(CostModel(2.0, 1.0, HoldingCost.linear(3.0, 1.0)), d, -8, 8, a_max=6)
        values = finite_horizon_vi(m, 6, alpha, np.linspace(0.0, 3.0, m.n_states))
        for t in range(1, len(values)):
            F, G = _backup(m, values[t - 1], alpha)[:2]
            q = _pair_q(m, F, G)
            assert np.allclose(q, pair_q(m, values[t - 1], alpha), rtol=1e-14, atol=0)
            vmin = values[t]
            optimal = _backup_mask(m, values[t - 1], alpha)[1]
            assert optimal.shape == (m.n_states, m.n_actions)
            for i in range(m.n_states):
                assert np.array_equal(optimal[i], q[i] <= vmin[i] + TIE_TOL)

    def test_near_ties_split_at_the_tolerance(self):
        # actions 1 and 2 cost 0.7 and 1.4 TIE_TOL above the cheapest action
        m = build_mdp(Dynamics.BACKORDER, UNIT, -3, 3, 2, 0.0, 0.7 * TIE_TOL, np.ones(9), mass_tol=1.0)
        values = finite_horizon_vi(m, 2, 0.5, np.zeros(m.n_states))
        masks = [_backup_mask(m, values[t - 1], 0.5)[1] for t in (1, 2)] + [infinite_horizon_vi(m, 0.5, 1e-9).optimal]
        for optimal in masks:
            assert np.array_equal(optimal, np.tile([True, True, False], (m.n_states, 1)))

    def test_ties_kept_and_smallest_action_chosen(self):
        m = build_mdp(Dynamics.BACKORDER, UNIT, -3, 3, 2, 0.0, 0.0, np.ones(9), mass_tol=1.0)
        values = finite_horizon_vi(m, 2, 0.5, np.zeros(m.n_states))
        assert _backup_mask(m, values[1], 0.5)[1].all()
        sol = infinite_horizon_vi(m, 0.5, 1e-9)
        assert sol.optimal.all()
        assert np.array_equal(sol.optimal.argmax(axis=1), np.zeros(m.n_states, dtype=int))

    def test_one_tie_tolerance_serves_ladder_and_thresholds(self, monkeypatch):
        ladder = DiscountLadder(np.array([0.5]), np.array([[3.0, 1.0, 1.0 + 1e-4, 2.0]]), np.arange(4.0))
        g, grid, K = np.array([9.0, 4.0 + 1e-4, 1.0 + 1e-4, 1.0, 4.0, 9.0]), np.arange(6.0), 3.0
        assert ladder.minimizers.tolist() == [[False, True, False, False]]
        assert extract_sS(g, grid, K) == (2.0, 3.0)
        monkeypatch.setattr(dp_core, "TIE_TOL", 1e-3)
        assert ladder.minimizers.tolist() == [[False, True, True, False]]
        assert extract_sS(g, grid, K) == (1.0, 2.0)


# (dynamics, lo, hi, a_max): a_max None is the whole span; the others stop below it
PAIR_CASES = [
    (Dynamics.BACKORDER, -8, 8, None),
    (Dynamics.BACKORDER, -8, 8, 3),
    (Dynamics.LOST_SALES, 0, 12, None),
    (Dynamics.LOST_SALES, 0, 12, 4),
]
PAIR_DEMAND = from_atoms([(0, 0.25), (1, 0.45), (3, 0.3)], step=1)
PAIR_COST = CostModel(2.0, 1.0, HoldingCost.linear(3.0, 1.0))


def pair_levels(m):
    """Explicit ``(n, n_a)`` level index ``i + j`` of every (state, action) pair."""
    return np.arange(m.n_states)[:, None] + np.arange(m.n_actions)[None, :]


class TestPairViews:
    """``_y_of``, ``mass_loss`` and ``finite_pairs()`` are read-only views of one value per level, and ``expected_next(v)`` is one value per level."""

    @pytest.mark.parametrize("case", PAIR_CASES)
    def test_views_share_a_per_level_array(self, case):
        dynamics, lo, hi, a_max = case
        m = make_inventory_mdp(PAIR_COST, PAIR_DEMAND, lo, hi, a_max, dynamics)
        v = np.random.default_rng(1).normal(size=m.n_states)
        levels = m.n_states + m.n_actions - 1
        assert np.allclose(m.expected_next(v), v[m._y_next] @ m.shock_probs, rtol=0, atol=1e-14)
        assert m.expected_next(v).shape == m.L.shape == (levels,)
        for pairs, want in [
            (m._y_of, pair_levels(m)),
            (m.mass_loss, m.mass_loss.base[pair_levels(m)]),
            (m.finite_pairs(), np.isfinite(m.cost)),
        ]:
            assert pairs.shape == (m.n_states, m.n_actions)
            assert pairs.base.shape == (levels,)
            assert np.shares_memory(pairs, pairs.base)
            assert not pairs.flags.writeable
            assert np.array_equal(pairs, want)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("case", PAIR_CASES)
    def test_backup_is_bitwise_the_separable_sum(self, case, alpha):
        dynamics, lo, hi, a_max = case
        m = make_inventory_mdp(PAIR_COST, PAIR_DEMAND, lo, hi, a_max, dynamics)
        v = np.random.default_rng(2).normal(size=m.n_states)
        ev = m.expected_next(v)
        F, G, W, tv = _backup(m, v, alpha)
        assert np.array_equal(F, m.L + alpha * ev if alpha else m.L)
        assert np.array_equal(G, PAIR_COST.c_unit * (lo + np.arange(m.L.size)) + F)
        q = _pair_q(m, F, G)
        table = m.cost + alpha * ev[pair_levels(m)]
        assert np.array_equal(q[:, 0], table[:, 0])  # ordering nothing: bitwise the cost table's entry
        assert np.array_equal(q[:, 1:], (PAIR_COST.K - PAIR_COST.c_unit * m.grid)[:, None] + G[pair_levels(m)][:, 1:])
        assert np.array_equal(tv, q.min(axis=1))
        assert np.allclose(q, table, rtol=0, atol=1e-12)
        # one action's Q, summed at its levels alone, is bitwise its column
        phi = np.random.default_rng(3).integers(0, m.n_actions, size=m.n_states)
        for j in [np.zeros_like(phi), np.full_like(phi, m.n_actions - 1), phi]:
            assert np.array_equal(_policy_q(m, j, v, alpha), q[np.arange(m.n_states), j])

    @pytest.mark.parametrize("atoms", [3, 8, 37])
    def test_a_level_sums_the_same_wherever_it_is_gathered(self, atoms):
        # a policy's levels are summed alone (policy_backup, _policy_q) and must match
        # expected_next's sums there bitwise; a BLAS matrix-vector product rounds a row by
        # its place in the matrix and misses this at 37 atoms
        rng = np.random.default_rng(atoms)
        d = from_atoms(list(enumerate(rng.dirichlet(np.ones(atoms)))), step=1)
        m = make_inventory_mdp(PAIR_COST, d, -300, 60, a_max=40)
        v = rng.normal(size=m.n_states) * 10.0 ** rng.uniform(-3, 6, size=m.n_states)
        full = m.expected_next(v)
        phi = rng.integers(0, m.n_actions, size=m.n_states)
        level = np.arange(m.n_states) + phi
        for levels in [pair_levels(m), level, np.arange(m.L.size)[::-1][:5], np.array([7])]:
            assert np.array_equal(_expect(v, m._y_next[levels], m.shock_probs), full[levels])
        assert np.array_equal(m.policy_backup(phi, v, 0.9), m._order[phi] + m.L[level] + 0.9 * full[level])


class TestWindowMin:
    """The van Herk window minimum, and the backup's window and first argmin, against brute force over the ``_on_pairs`` view."""

    @pytest.mark.parametrize("size", [1, 2, 7, 24, 61])
    def test_matches_brute_force(self, size):
        rng = np.random.default_rng(size)
        for _ in range(20):
            g = rng.integers(0, 4, size=size).astype(float)  # few values: exact ties in most windows
            g[rng.random(size) < 0.3] = np.inf
            for w in sorted({1, 2, max(1, size // 3), max(1, size - 1), size}):  # w = size is one block
                assert np.array_equal(_window_min(g, w), _on_pairs(g, w).min(axis=1))

    # 13 states: one action, order windows of 1 and 2 levels, below the state count, at it and above it
    @pytest.mark.parametrize("a_max", [0, 1, 2, 6, 13, 17])
    def test_backup_window_and_greedy_action(self, a_max):
        rng = np.random.default_rng(a_max)
        n, n_a = 13, a_max + 1
        for k in range(12):
            # integer level costs and values: F and G hold exact ties; +inf at random levels above
            # the grid top, and at every level above it or one level higher, so that windows
            # reach past the last finite level
            L = rng.integers(0, 6, size=n + n_a - 1).astype(float)
            L[n:][rng.random(n_a - 1) < 0.5] = np.inf
            if k % 3 < 2:
                L[n + k % 3:] = np.inf
            m = build_mdp(Dynamics.BACKORDER, UNIT, -6, 6, a_max, 1.0, 1.0, L, mass_tol=1.0)
            v = rng.integers(0, 4, size=n).astype(float)
            F, G, W, tv = _backup(m, v, 1.0)
            order = _on_pairs(G[1:], n_a - 1)
            assert np.array_equal(W, order.min(axis=1) if n_a > 1 else np.full(n, np.inf))
            q = _pair_q(m, F, G)
            assert np.array_equal(tv, q.min(axis=1))
            phi = _greedy(m, F, G, W, tv)
            assert np.array_equal(q[np.arange(n), phi], tv)
            first_order = 1 + order.argmin(axis=1) if n_a > 1 else np.zeros(n, dtype=int)
            assert np.array_equal(phi, np.where(F[:n] == tv, 0, first_order))


class TestNoPairFloats:
    """On 4,001 states x 31 actions, backward induction and a policy-improvement step hold no float per (state, action) pair."""

    @pytest.fixture(scope="class")
    def wide(self):
        d = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1)
        m = make_inventory_mdp(CostModel(2.0, 1.0, HoldingCost.linear(3.0, 1.0)), d, -2000, 2000, a_max=30)
        assert (m.n_states, m.n_actions) == (4001, 31)
        return m

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_backward_induction(self, wide):
        values, peak = self.peak(lambda: finite_horizon_vi(wide, 5, 0.9, np.zeros(wide.n_states)))
        pair_floats = 8 * wide.n_states * wide.n_actions
        assert peak - values.nbytes < pair_floats, peak  # one float Q alone would reach pair_floats

    def test_policy_improvement_step(self, wide):
        v = finite_horizon_vi(wide, 5, 0.9, np.zeros(wide.n_states))[5]
        never = np.zeros(wide.n_states, dtype=np.intp)
        (tv, phi, improved), peak = self.peak(lambda: _improve(wide, never, v, 0.9, TIE_TOL))
        assert improved and (phi > 0).any()  # the greedy argmin ran
        pair_floats = 8 * wide.n_states * wide.n_actions
        assert peak < pair_floats, peak
