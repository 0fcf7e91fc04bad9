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
from invlab.dp_core import Dynamics, build_mdp, infinite_horizon_vi, make_inventory_mdp
from oracles import ladder_diagnostic, long_run_average, threshold_limits

UNIT = from_atoms([(1, 1.0)], step=1)
MIXED = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1)
LADDER = [0.9, 0.95, 0.99]


def constant_mdp():
    return build_mdp(Dynamics.BACKORDER, UNIT, -3, 3, 2, 0.0, 0.0, np.ones(9), mass_tol=1.0)


def gb_mdp(K=2.0, c_unit=1.0, k_h=3.0, h_plus=1.0, lo=-12, hi=10):
    cost = CostModel(K, c_unit, HoldingCost.linear(k_h, h_plus))
    return make_inventory_mdp(cost, MIXED, lo, hi), cost


class TestSolveLadder:
    def test_constant_cost_rates(self):
        ladder = solve_ladder(constant_mdp(), LADDER, 1e-8)
        for alpha, m, rate, u, x_set in zip(ladder.alphas, ladder.m, ladder.rates(), ladder.u, ladder.minimizers):
            assert m == pytest.approx(1.0 / (1.0 - alpha), rel=1e-6)
            assert rate == pytest.approx(1.0, abs=1e-6)
            assert np.all(u >= 0.0)
            assert x_set.any()

    def test_rates_bounded_by_one_step_costs(self):
        m, _ = gb_mdp()
        ladder = solve_ladder(m, LADDER, 1e-6)
        cmax = float(m.cost[np.isfinite(m.cost)].max())
        for rate in ladder.rates():
            assert -1e-9 <= rate <= cmax + 1e-9

    def test_minimizer_envelope_stays_interior(self):
        m, _ = gb_mdp()
        ladder = solve_ladder(m, LADDER, 1e-6)
        envelope = m.grid[ladder.minimizers.any(axis=0)]
        lo, hi = envelope.min(), envelope.max()
        assert m.grid[0] < lo <= hi < m.grid[-1]

    def test_one_row_per_rung_in_order(self):
        m, _ = gb_mdp()
        ladder = solve_ladder(m, LADDER, 1e-6)
        assert ladder.alphas.tolist() == LADDER
        assert ladder.values.shape == (len(LADDER), m.n_states)
        for alpha, v in zip(LADDER, ladder.values):
            assert np.array_equal(v, infinite_horizon_vi(m, alpha, 1e-6).values)

    def test_rejects_bad_ladder(self):
        with pytest.raises(ValueError):
            solve_ladder(constant_mdp(), [0.9, 0.8], 1e-6)


class TestRelativeValue:
    def test_constant_cost_collapses(self):
        ladder = solve_ladder(constant_mdp(), LADDER, 1e-8)
        rv = relative_value(ladder)
        assert np.allclose(rv.u, 0.0, atol=1e-6)
        assert rv.w_lower == pytest.approx(1.0, abs=1e-6)
        assert rv.w_upper == pytest.approx(1.0, abs=1e-6)
        assert rv.w_lower <= rv.w_upper + 1e-12

    def test_min_of_identical_entries_is_identity(self):
        ladder = solve_ladder(constant_mdp(), LADDER, 1e-8)
        ladder.values[:] = np.arange(ladder.values.shape[1], dtype=float)
        rv = relative_value(ladder)
        assert np.array_equal(rv.u, np.arange(len(rv.u), dtype=float))

    def test_surrogate_nonnegative_and_touches_zero(self):
        m, _ = gb_mdp()
        ladder = solve_ladder(m, LADDER, 1e-6)
        rv = relative_value(ladder)
        assert np.all(rv.u >= 0.0)
        assert rv.u.min() == pytest.approx(0.0, abs=1e-6)

    def test_short_ladder_uses_every_rung(self):
        m, _ = gb_mdp()
        ladder = solve_ladder(m, [0.9, 0.95], 1e-6)
        rv = relative_value(ladder)
        assert np.array_equal(rv.u, np.minimum(ladder.u[0], ladder.u[1]))
        assert (rv.w_lower, rv.w_upper) == (ladder.rates().min(), ladder.rates().max())

    def test_tail_is_the_last_three_rungs(self):
        m, _ = gb_mdp()
        ladder = solve_ladder(m, [0.8, 0.9, 0.95, 0.99], 1e-6)
        rv = relative_value(ladder)
        assert np.array_equal(rv.u, ladder.u[1:].min(axis=0))
        assert (rv.w_lower, rv.w_upper) == (ladder.rates()[1:].min(), ladder.rates()[1:].max())


class TestOptimalityInequality:
    def test_constant_cost_exact_equality(self):
        m = constant_mdp()
        u = np.zeros(m.n_states)
        slack = check_optimality_inequality(m, u, 1.0, np.zeros(m.n_states, dtype=int))
        assert slack == pytest.approx(0.0, abs=1e-12)

    def test_greedy_policy_nearly_feasible(self):
        m, _ = gb_mdp()
        ladder = solve_ladder(m, [0.9, 0.95, 0.99, 0.995, 0.999], 1e-6)
        rv = relative_value(ladder)
        slack = check_optimality_inequality(m, rv.u, rv.w_upper, greedy_policy(m, rv.u).argmax(axis=1))
        # surrogate truncation error scales with the tail's shallowest rung
        # (1 - 0.99) times the relative-value span of this unit-scale instance
        assert slack >= -0.5

    def test_greedy_slack_never_better_than_any_policy_gap(self):
        # ordering the cap amount everywhere is hopeless: strongly negative slack
        m, _ = gb_mdp()
        ladder = solve_ladder(m, [0.9, 0.99, 0.999], 1e-6)
        rv = relative_value(ladder)
        cap = float(m.actions[-1])
        phi = np.minimum(np.full(m.n_states, cap), m.grid[-1] - m.grid)
        slack = check_optimality_inequality(m, rv.u, rv.w_upper, m.action_index(phi))
        assert slack < -0.5


class TestGreedyPolicy:
    def test_u_zero_is_myopic(self):
        m, _ = gb_mdp()
        phi = greedy_policy(m, np.zeros(m.n_states)).argmax(axis=1)
        assert np.array_equal(phi, np.argmin(m.cost, axis=1))

    def test_constant_cost_everything_ties(self):
        m = constant_mdp()
        assert greedy_policy(m, np.zeros(m.n_states)).all()

    def test_greedy_is_threshold_shaped_on_growth_instance(self):
        m, cost = gb_mdp()
        ladder = solve_ladder(m, [0.9, 0.99, 0.999], 1e-6)
        rv = relative_value(ladder)
        actions = m.actions[greedy_policy(m, rv.u).argmax(axis=1)]
        ordering = actions > 0
        if ordering.any():
            # contiguous ordering block at the bottom, constant order-up-to level
            edge = int(np.nonzero(ordering)[0][-1])
            assert np.all(ordering[: edge + 1])
            assert np.all(~ordering[edge + 1 :])
            up_to = m.grid[: edge + 1] + actions[: edge + 1]
            assert np.allclose(up_to, up_to[0])

    def test_greedy_thresholds_match_discount_limit_pair(self):
        from invlab.policy_structure import extract_sS, g_function

        cost = CostModel(2.0, 1.0, HoldingCost.linear(3.0, 1.0))
        m = make_inventory_mdp(cost, MIXED, -12, 10)
        ladder = solve_ladder(m, [0.9, 0.95, 0.99, 0.995, 0.999], 1e-6)
        rv = relative_value(ladder)
        actions = m.actions[greedy_policy(m, rv.u).argmax(axis=1)]
        ordering = actions > 0
        assert ordering.any()
        edge = int(np.nonzero(ordering)[0][-1])
        s_greedy = float(m.grid[edge]) + m.step  # first no-order state
        S_greedy = float(m.grid[edge] + actions[edge])
        pairs = []
        for alpha, values in zip(ladder.alphas, ladder.values):
            g = g_function(m, values, alpha, cost)
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
        assert np.allclose(ladder.u, 0.0, atol=1e-6)

    def test_order_up_to_bound_left_of_envelope(self):
        m, cost = gb_mdp()
        ladder = solve_ladder(m, LADDER, 1e-6)
        diag = assumption_B_diagnostic(ladder, cost)
        assert not diag.bound_violations
        x_lo, x_up = diag.x_envelope
        left = m.grid < x_lo
        for u in ladder.u:
            bound = cost.K + cost.c_unit * (x_up - m.grid[left]) + 1e-6
            assert np.all(u[left] <= bound)

    def test_starved_action_cap_flags_growth(self):
        # cap of zero: backlog can never be drained, relative values blow up
        cost = CostModel(0.0, 1.0, HoldingCost.linear(2, 1))
        m = make_inventory_mdp(cost, UNIT, -8, 4, a_max=0.0)
        ladder = solve_ladder(m, [0.9, 0.95, 0.99, 0.995], 1e-6)
        diag = assumption_B_diagnostic(ladder, cost)
        assert diag.growth_flags.any()

    @pytest.mark.parametrize("a_max, n_violations", [(0.0, 48), (1.0, 32), (2.0, 28)])
    def test_matches_the_per_rung_loop(self, a_max, n_violations):
        cost = CostModel(0.0, 1.0, HoldingCost.linear(2, 1))
        m = make_inventory_mdp(cost, UNIT, -8, 4, a_max=a_max)
        ladder = solve_ladder(m, [0.9, 0.95, 0.99, 0.995], 1e-6)
        diag = assumption_B_diagnostic(ladder, cost)
        growth_flags, x_envelope, violations = ladder_diagnostic(ladder, cost)
        assert len(diag.bound_violations) == n_violations
        assert diag.bound_violations == violations
        assert np.array_equal(diag.growth_flags, growth_flags)
        assert diag.x_envelope == x_envelope

    def test_one_rung_flags_no_growth(self):
        cost = CostModel(0.0, 1.0, HoldingCost.linear(2, 1))
        m = make_inventory_mdp(cost, UNIT, -8, 4, a_max=0.0)
        diag = assumption_B_diagnostic(solve_ladder(m, [0.99], 1e-6), cost)
        assert not diag.growth_flags.any()


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
        rv = relative_value(ladder)
        avg = long_run_average(m, m.actions[greedy_policy(m, rv.u).argmax(axis=1)], 2000)
        assert np.max(np.abs(avg - rv.w_upper)) <= 0.05 * rv.w_upper
