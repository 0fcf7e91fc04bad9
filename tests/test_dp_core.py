"""Grid MDP construction and value iteration against hand and brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab.costs import CostModel, HoldingCost, expected_holding
from invlab.demand import from_atoms
from invlab.dp_core import (
    MAX_PAIRS,
    TIE_TOL,
    Dynamics,
    _lattice,
    build_mdp,
    check_stationary_optimality,
    finite_horizon_vi,
    infinite_horizon_vi,
    make_inventory_mdp,
    min_action_policy,
    policy_values,
)
from invlab.errors import InvLabError
from invlab.pomdp import Container, ContainerPartition, TreePolicy, belief_value_iteration, make_belief, pomdp_simulate
from oracles import cost_table, dense_rows

UNIT = from_atoms([(1, 1.0)], step=1)
ABS = CostModel(0.0, 1.0, HoldingCost.linear(1.0, 1.0))


def law(mdp, demand):
    """``oracles.dense_rows`` of ``mdp``, once ``mdp.expected_next`` is checked against it on a random vector."""
    rows = dense_rows(mdp.grid, mdp.actions, demand, mdp.dynamics)
    v = np.random.default_rng(0).normal(size=mdp.n_states)
    assert np.allclose(mdp.expected_next(v), rows @ v, rtol=0, atol=1e-12)
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
        phi = min_action_policy(m, sol)
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
        cost = cost_table(lambda x, a: a, -1, 3, 2)  # finite everywhere
        with pytest.raises(InvLabError) as err:
            build_mdp(Dynamics.BACKORDER, d, -1, 3, 2, cost, mass_tol=1e-6)
        assert err.value.code == "GRID_TOO_NARROW"

    def test_rows_sum_to_one_after_clamping(self):
        d = from_atoms([(0, 0.3), (1, 0.4), (3, 0.3)], step=1)
        m = make_inventory_mdp(ABS, d, -4, 6)
        sums = law(m, d).sum(axis=2)
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_mass_loss_zero_iff_strict_build_passes(self):
        # demand never leaves the grid from any feasible (x, a): wide enough grid
        d = from_atoms([(1, 1.0)], step=1)
        cost = cost_table(lambda x, a: np.inf if x + a > 3 or x + a < 1 else a, 0, 3, 3)
        m = build_mdp(Dynamics.BACKORDER, d, 0, 3, 3, cost, mass_tol=0.0)
        assert np.all(m.mass_loss[np.isfinite(m.cost)] == 0.0)

    def test_no_finite_action_rejected(self):
        with pytest.raises(InvLabError) as err:
            build_mdp(Dynamics.BACKORDER, UNIT, 0, 3, 1, np.full((4, 2), np.inf), mass_tol=1.0)
        assert err.value.code == "NO_FINITE_ACTION"

    def test_dense_rows_built_only_on_request(self):
        m = make_inventory_mdp(CostModel(2.0, 1.0, HoldingCost.linear(3, 1)), UNIT, -6, 4)
        alpha = 0.9
        sol = infinite_horizon_vi(m, alpha, 1e-6)
        phi = min_action_policy(m, sol)
        check_stationary_optimality(m, phi, sol.values, alpha)
        part = ContainerPartition([Container(-6, 0, False), Container(0, 4, True)], m.grid, m.step)
        prior = make_belief([(0.0, 1.0)], m.grid)
        tree = belief_value_iteration(m, part, prior, 3, alpha)
        pomdp_simulate(m, part, TreePolicy(tree, part), prior, 3, 20, 1, alpha)
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


# (dynamics, grid lo, grid hi, a_max, next state, cost): some finite-cost pair
# clamps at each edge the dynamics can reach; the top edge from a level above
# hi under zero demand
CLAMP_CASES = {
    "backorder": (
        Dynamics.BACKORDER, -3, 3, 2, lambda x, a, d: x + a - d,
        lambda x, a: np.inf if x + a > 4 or x + a < -1 else a,
    ),
    "lost_sales": (
        Dynamics.LOST_SALES, 0, 4, 2, lambda x, a, d: max(x + a - d, 0.0),
        lambda x, a: np.inf if x + a > 5 else a,
    ),
}


class TestClampAudit:
    """``mass_loss`` and the GRID_TOO_NARROW scan, against a per-pair reference."""

    @staticmethod
    def build(name, mass_tol):
        dynamics, lo, hi, a_max, _, cost_fn = CLAMP_CASES[name]
        return build_mdp(dynamics, CLAMP_DEMAND, lo, hi, a_max, cost_table(cost_fn, lo, hi, a_max), mass_tol=mass_tol)

    @staticmethod
    def reference(name, mass_tol):
        _, lo, hi, a_max, next_fn, cost_fn = CLAMP_CASES[name]
        grid, actions = np.arange(lo, hi + 1.0), np.arange(0, a_max + 1.0)
        return per_pair_reference(grid, actions, CLAMP_DEMAND, next_fn, cost_fn, mass_tol)

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
        optimal = sols[1].optimal
        assert sorted(m.actions[optimal[m.state_index(0)]].tolist()) == [0.0, 1.0]
        assert m.actions[optimal[m.state_index(1)]].tolist() == [0.0]

    def test_constant_cost_geometric_sum(self):
        m = build_mdp(Dynamics.BACKORDER, UNIT, -3, 3, 2, np.ones((7, 3)), mass_tol=1.0)
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
            assert sol.optimal.any(axis=1).all()


class TestInfiniteHorizon:
    def test_alpha_zero_is_myopic(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2)
        sol = infinite_horizon_vi(m, 0.0, 1e-6)
        assert np.allclose(sol.values, m.cost.min(axis=1))
        assert sol.iterations == 1

    def test_constant_cost_fixed_point(self):
        m = build_mdp(Dynamics.BACKORDER, UNIT, -3, 3, 2, np.ones((7, 3)), mass_tol=1.0)
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
            phi = min_action_policy(m, sol)
            assert check_stationary_optimality(m, phi, sol.values, alpha) <= 2 * eps


class TestStationaryCheck:
    def test_constant_cost_all_policies_equal(self):
        m = build_mdp(Dynamics.BACKORDER, UNIT, -2, 2, 1, np.ones((5, 2)), mass_tol=1.0)
        sol = infinite_horizon_vi(m, 0.7, 1e-8)
        for a in (0.0, 1.0):
            phi = np.full(m.n_states, a)
            assert check_stationary_optimality(m, phi, sol.values, 0.7) <= 1e-6

    def test_perturbed_policy_has_positive_residual(self):
        m = make_inventory_mdp(ABS, UNIT, -2, 2)
        alpha = 0.5
        sol = infinite_horizon_vi(m, alpha, 1e-8)
        phi = min_action_policy(m, sol)
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
            fast = m.expected_next(v)
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
        vnew = (mdp.cost + alpha * mdp.expected_next(v)).min(axis=1)
        delta = np.max(np.abs(vnew - v))
        v = vnew
    q = mdp.cost + alpha * mdp.expected_next(v)
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
        phi_idx = m.action_index(min_action_policy(m, sol))
        assert np.max(np.abs(evaluate_stationary(m, rows, phi_idx, alpha) - best)) <= eps

    def test_every_action_tied_terminates(self):
        m = build_mdp(Dynamics.BACKORDER, UNIT, -3, 3, 2, np.ones((7, 3)), mass_tol=1.0)
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
            build_mdp(Dynamics.BACKORDER, UNIT, -2, 2, 1e15, np.zeros((1, 1)))

    def test_huge_grid_refused(self):
        with pytest.raises(ValueError, match=r"2000000000000001 states x 1 actions"):
            build_mdp(Dynamics.BACKORDER, UNIT, -1e15, 1e15, 0, np.zeros((1, 1)))
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


class TestLatticeEnds:
    @pytest.mark.parametrize("lo, hi", [(-12.0, 8.6), (-12.0, 8.4), (-12.4, 8.0)])
    def test_off_lattice_hi_refused(self, lo, hi):
        d = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1.0)
        message = rf"hi {hi} is not on the lattice from lo {lo} at step 1.0"
        with pytest.raises(ValueError, match=message):
            make_inventory_mdp(ABS, d, lo, hi, a_max=20.0)
        with pytest.raises(ValueError, match=message):
            build_mdp(Dynamics.BACKORDER, d, lo, hi, 20.0, np.zeros((1, 1)))

    @pytest.mark.parametrize("a_max", [2.6, 2.4])
    def test_off_lattice_a_max_refused(self, a_max):
        d = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1.0)
        with pytest.raises(ValueError, match=rf"^a_max {a_max} is not on the lattice at step 1.0$"):
            make_inventory_mdp(ABS, d, -12.0, 8.0, a_max=a_max)
        with pytest.raises(ValueError, match=rf"^a_max {a_max} is not on the lattice at step 1.0$"):
            build_mdp(Dynamics.BACKORDER, d, -12.0, 8.0, a_max, np.zeros((1, 1)))

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
        with pytest.raises(ValueError, match=r"cost table has shape \(5, 2\), expected \(5, 3\)"):
            build_mdp(Dynamics.BACKORDER, UNIT, -2, 2, 2, np.zeros((5, 2)), mass_tol=1.0)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_table_checked_like_a_callable(self, bad):
        table = np.zeros((5, 3))
        table[2, 1] = bad
        with pytest.raises(ValueError, match="costs must be finite or \\+inf"):
            build_mdp(Dynamics.BACKORDER, UNIT, -2, 2, 2, table, mass_tol=1.0)

    def test_table_without_a_finite_action_refused_like_a_callable(self):
        table = np.zeros((5, 3))
        table[3] = math.inf
        with pytest.raises(InvLabError) as err:
            build_mdp(Dynamics.BACKORDER, UNIT, -2, 2, 2, table, mass_tol=1.0)
        assert err.value.code == "NO_FINITE_ACTION"


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
    """``ValueSolution.optimal`` is the tie rule ``q <= min + TIE_TOL`` on every row."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.95])
    def test_finite_horizon_masks_are_the_tie_rule(self, alpha):
        d = from_atoms([(0, 0.25), (1, 0.45), (3, 0.3)], step=1)
        m = make_inventory_mdp(CostModel(2.0, 1.0, HoldingCost.linear(3.0, 1.0)), d, -8, 8, a_max=6)
        sols = finite_horizon_vi(m, 6, alpha, np.linspace(0.0, 3.0, m.n_states))
        assert sols[0].optimal is None
        for t in range(1, len(sols)):
            q = m.cost + alpha * m.expected_next(sols[t - 1].values) if alpha else m.cost
            vmin = sols[t].values
            assert sols[t].optimal.shape == (m.n_states, m.n_actions)
            for i in range(m.n_states):
                assert np.array_equal(sols[t].optimal[i], q[i] <= vmin[i] + TIE_TOL)

    def test_near_ties_split_at_the_tolerance(self):
        gaps = np.array([0.0, 0.7 * TIE_TOL, 1.5 * TIE_TOL])  # above the cheapest action
        m = build_mdp(Dynamics.BACKORDER, UNIT, -3, 3, 2, np.tile(1.0 + gaps, (7, 1)), mass_tol=1.0)
        for sol in finite_horizon_vi(m, 2, 0.5, np.zeros(m.n_states))[1:] + [infinite_horizon_vi(m, 0.5, 1e-9)]:
            assert np.array_equal(sol.optimal, np.tile([True, True, False], (m.n_states, 1)))

    def test_ties_kept_and_smallest_action_chosen(self):
        m = build_mdp(Dynamics.BACKORDER, UNIT, -3, 3, 2, np.ones((7, 3)), mass_tol=1.0)
        sols = finite_horizon_vi(m, 2, 0.5, np.zeros(m.n_states))
        assert sols[2].optimal.all()
        assert np.array_equal(min_action_policy(m, sols[2]), np.zeros(m.n_states))
        with pytest.raises(ValueError, match="no optimal actions"):
            min_action_policy(m, sols[0])
