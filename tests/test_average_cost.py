"""Vanishing-discount ladder, relative values, and average-cost certificates."""

import numpy as np
import pytest

from invlab.average_cost import (
    assumption_B_diagnostic,
    check_optimality_inequality,
    greedy_policy,
    relative_value,
    solve_ladder,
)
from invlab.costs import CostModel, HoldingCost
from invlab.demand import from_atoms
from invlab.dp_core import Dynamics, build_mdp, make_inventory_mdp
from oracles import long_run_average, threshold_limits

UNIT = from_atoms([(1, 1.0)], step=1)
MIXED = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1)
LADDER = [0.9, 0.95, 0.99]


def constant_mdp():
    return build_mdp(Dynamics.BACKORDER, UNIT, -3, 3, 2, np.ones((7, 3)), mass_tol=1.0)


def gb_mdp(K=2.0, c_unit=1.0, k_h=3.0, h_plus=1.0, lo=-12, hi=10):
    cost = CostModel(K, c_unit, HoldingCost.linear(k_h, h_plus))
    return make_inventory_mdp(cost, MIXED, lo, hi), cost


class TestSolveLadder:
    def test_constant_cost_rates(self):
        ladder = solve_ladder(constant_mdp(), LADDER, 1e-8)
        for entry in ladder.entries:
            assert entry.m_alpha == pytest.approx(1.0 / (1.0 - entry.alpha), rel=1e-6)
            assert entry.rate == pytest.approx(1.0, abs=1e-6)
            assert np.all(entry.u_alpha >= 0.0)
            assert entry.x_alpha.size > 0

    def test_rates_bounded_by_one_step_costs(self):
        m, _ = gb_mdp()
        ladder = solve_ladder(m, LADDER, 1e-6)
        cmax = float(m.cost[np.isfinite(m.cost)].max())
        for entry in ladder.entries:
            assert -1e-9 <= entry.rate <= cmax + 1e-9

    def test_minimizer_envelope_stays_interior(self):
        m, _ = gb_mdp()
        ladder = solve_ladder(m, LADDER, 1e-6)
        lo = min(e.x_alpha.min() for e in ladder.entries)
        hi = max(e.x_alpha.max() for e in ladder.entries)
        assert m.grid[0] < lo <= hi < m.grid[-1]

    def test_rejects_bad_ladder(self):
        with pytest.raises(ValueError):
            solve_ladder(constant_mdp(), [0.9, 0.8], 1e-6)


class TestRelativeValue:
    def test_constant_cost_collapses(self):
        ladder = solve_ladder(constant_mdp(), LADDER, 1e-8)
        rv = relative_value(ladder, 3)
        assert np.allclose(rv.u, 0.0, atol=1e-6)
        assert rv.w_lower == pytest.approx(1.0, abs=1e-6)
        assert rv.w_upper == pytest.approx(1.0, abs=1e-6)
        assert rv.w_lower <= rv.w_upper + 1e-12

    def test_min_of_identical_entries_is_identity(self):
        ladder = solve_ladder(constant_mdp(), LADDER, 1e-8)
        for e in ladder.entries:
            e.u_alpha[:] = np.arange(len(e.u_alpha), dtype=float)
        rv = relative_value(ladder, 3)
        assert np.array_equal(rv.u, np.arange(len(rv.u), dtype=float))

    def test_surrogate_nonnegative_and_touches_zero(self):
        m, _ = gb_mdp()
        ladder = solve_ladder(m, LADDER, 1e-6)
        rv = relative_value(ladder, 3)
        assert np.all(rv.u >= 0.0)
        assert rv.u.min() == pytest.approx(0.0, abs=1e-6)

    def test_requires_enough_rungs(self):
        ladder = solve_ladder(constant_mdp(), [0.9, 0.95], 1e-6)
        with pytest.raises(ValueError):
            relative_value(ladder, 3)


class TestOptimalityInequality:
    def test_constant_cost_exact_equality(self):
        m = constant_mdp()
        u = np.zeros(m.n_states)
        slack = check_optimality_inequality(m, u, 1.0, np.zeros(m.n_states))
        assert slack == pytest.approx(0.0, abs=1e-12)

    def test_greedy_policy_nearly_feasible(self):
        m, _ = gb_mdp()
        ladder = solve_ladder(m, [0.9, 0.95, 0.99, 0.995, 0.999], 1e-6)
        rv = relative_value(ladder, 3)
        greedy = greedy_policy(m, rv.u)
        slack = check_optimality_inequality(m, rv.u, rv.w_upper, greedy.actions)
        # surrogate truncation error scales with the tail's shallowest rung
        # (1 - 0.99) times the relative-value span of this unit-scale instance
        assert slack >= -0.5

    def test_greedy_slack_never_better_than_any_policy_gap(self):
        # ordering the cap amount everywhere is hopeless: strongly negative slack
        m, _ = gb_mdp()
        ladder = solve_ladder(m, [0.9, 0.99, 0.999], 1e-6)
        rv = relative_value(ladder, 3)
        cap = float(m.actions[-1])
        phi = np.minimum(np.full(m.n_states, cap), m.grid[-1] - m.grid)
        slack = check_optimality_inequality(m, rv.u, rv.w_upper, phi)
        assert slack < -0.5


class TestGreedyPolicy:
    def test_u_zero_is_myopic(self):
        m, _ = gb_mdp()
        res = greedy_policy(m, np.zeros(m.n_states))
        myopic = m.actions[np.argmin(m.cost, axis=1)]
        assert np.allclose(res.actions, myopic)

    def test_constant_cost_everything_ties(self):
        m = constant_mdp()
        res = greedy_policy(m, np.zeros(m.n_states))
        assert res.ties.all()

    def test_greedy_is_threshold_shaped_on_growth_instance(self):
        m, cost = gb_mdp()
        ladder = solve_ladder(m, [0.9, 0.99, 0.999], 1e-6)
        rv = relative_value(ladder, 3)
        res = greedy_policy(m, rv.u)
        ordering = res.actions > 0
        if ordering.any():
            # contiguous ordering block at the bottom, constant order-up-to level
            edge = int(np.nonzero(ordering)[0][-1])
            assert np.all(ordering[: edge + 1])
            assert np.all(~ordering[edge + 1 :])
            up_to = m.grid[: edge + 1] + res.actions[: edge + 1]
            assert np.allclose(up_to, up_to[0])

    def test_greedy_thresholds_match_discount_limit_pair(self):
        from invlab.policy_structure import extract_sS, g_function

        cost = CostModel(2.0, 1.0, HoldingCost.linear(3.0, 1.0))
        m = make_inventory_mdp(cost, MIXED, -12, 10)
        ladder = solve_ladder(m, [0.9, 0.95, 0.99, 0.995, 0.999], 1e-6)
        rv = relative_value(ladder, 3)
        res = greedy_policy(m, rv.u)
        ordering = res.actions > 0
        assert ordering.any()
        edge = int(np.nonzero(ordering)[0][-1])
        s_greedy = float(m.grid[edge]) + m.step  # first no-order state
        S_greedy = float(m.grid[edge] + res.actions[edge])
        pairs = []
        for e in ladder.entries:
            g = g_function(m, e.values, e.alpha, cost)
            pairs.append(extract_sS(g, m.grid, cost.K))
        limit = threshold_limits(pairs)
        assert limit.candidates
        s_lim, S_lim = limit.candidates[-1]
        assert abs(s_greedy - s_lim) <= m.step + 1e-9
        assert abs(S_greedy - S_lim) <= m.step + 1e-9


class TestAssumptionBDiagnostic:
    def test_constant_cost_clean(self):
        ladder = solve_ladder(constant_mdp(), LADDER, 1e-8)
        diag = assumption_B_diagnostic(ladder, CostModel(0.0, 1.0, HoldingCost.linear(1, 1)))
        assert diag.ok
        assert np.allclose(diag.sup_u, 0.0, atol=1e-6)

    def test_order_up_to_bound_left_of_envelope(self):
        m, cost = gb_mdp()
        ladder = solve_ladder(m, LADDER, 1e-6)
        diag = assumption_B_diagnostic(ladder, cost)
        assert not diag.bound_violations
        x_lo, x_up = diag.x_envelope
        left = m.grid < x_lo
        for e in ladder.entries:
            bound = cost.K + cost.c_unit * (x_up - m.grid[left]) + 1e-6
            assert np.all(e.u_alpha[left] <= bound)

    def test_starved_action_cap_flags_growth(self):
        # cap of zero: backlog can never be drained, relative values blow up
        cost = CostModel(0.0, 1.0, HoldingCost.linear(2, 1))
        m = make_inventory_mdp(cost, UNIT, -8, 4, a_max=0.0)
        ladder = solve_ladder(m, [0.9, 0.95, 0.99, 0.995], 1e-6)
        diag = assumption_B_diagnostic(ladder, cost)
        assert diag.growth_flags.any()


class TestLongRunAverage:
    def test_constant_cost_exact(self):
        m = constant_mdp()
        avg = long_run_average(m, np.zeros(m.n_states), 50)
        assert np.allclose(avg, 1.0)

    def test_hand_cycle_keep_one_on_order(self):
        # keep the post-order level at one unit: pay c_unit each period, land at 0
        cost = CostModel(0.0, 1.0, HoldingCost.linear(1, 1))
        m = make_inventory_mdp(cost, UNIT, -3, 3)
        phi = np.clip(1.0 - m.grid, 0.0, None)
        for n_steps in (1, 7, 100):
            avg = long_run_average(m, phi, n_steps)
            assert avg[m.state_index(0)] == pytest.approx(1.0)

    def test_greedy_average_tracks_w_upper(self):
        m, _ = gb_mdp()
        ladder = solve_ladder(m, [0.9, 0.95, 0.99, 0.995, 0.999], 1e-6)
        rv = relative_value(ladder, 3)
        res = greedy_policy(m, rv.u)
        avg = long_run_average(m, res.actions, 2000)
        assert np.max(np.abs(avg - rv.w_upper)) <= 0.05 * rv.w_upper
