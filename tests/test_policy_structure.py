"""Threshold extraction, regime classification, and structure verification."""

from dataclasses import replace

import numpy as np
import pytest

from invlab.costs import CostModel, HoldingCost, INFINITE
from invlab.demand import from_atoms
from invlab.dp_core import (
    TIE_TOL,
    Dynamics,
    build_mdp,
    check_stationary_optimality,
    finite_horizon_vi,
    infinite_horizon_vi,
    make_inventory_mdp,
)
from invlab.errors import InvLabError
from invlab.policy_structure import (
    Regime,
    classify_regime,
    extract_sS,
    g_function,
    predict_finite_horizon,
    verify_structure,
)
from oracles import check_GB, dense_rows, is_K_convex, threshold_limits

UNIT = from_atoms([(1, 1.0)], step=1)
MIXED = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1)


def gb_cost(K=2.0):
    # k_h = 3 > c_unit = 1, so thresholds exist for every discount factor
    return CostModel(K, 1.0, HoldingCost.linear(3.0, 1.0))


def hybrid_cost(K=1.0):
    # k_h = 1, c_unit = 2: alpha_star = 0.5
    return CostModel(K, 2.0, HoldingCost.linear(1.0, 1.0))


def interior_slice(mdp, demand, margin_steps=0):
    """Indices where the continuation is untouched by bottom-edge clamping."""
    depth = int(round(demand.max_value / demand.step)) + margin_steps
    return slice(depth, mdp.n_states)


class TestGFunction:
    def test_zero_values_give_myopic_profile(self):
        c = gb_cost()
        m = make_inventory_mdp(c, MIXED, -15, 10)
        g = g_function(m, np.zeros(m.n_states), 0.7, c)
        from invlab.costs import expected_holding

        expected = c.c_unit * m.grid + expected_holding(c.holding, m.grid, MIXED)
        assert np.allclose(g, expected, atol=1e-12)

    def test_alpha_zero_ignores_values(self):
        c = gb_cost()
        m = make_inventory_mdp(c, MIXED, -15, 10)
        g0 = g_function(m, np.zeros(m.n_states), 0.0, c)
        g1 = g_function(m, np.full(m.n_states, 123.0), 0.0, c)
        assert np.allclose(g0, g1)

    def test_three_term_hand_sum(self):
        c = CostModel(0.0, 1.0, HoldingCost.linear(1, 1))
        m = make_inventory_mdp(c, UNIT, -3, 3)
        g = g_function(m, np.full(m.n_states, 10.0), 0.5, c)
        # x=1: 1 + h(0) + 0.5 * 10 = 6
        assert g[m.state_index(1)] == pytest.approx(6.0)

    def test_matches_bellman_decomposition(self):
        # c(x, a) + alpha E v = K 1{a>0} + G(x + a) - c_unit x, exactly
        c = gb_cost()
        m = make_inventory_mdp(c, MIXED, -15, 10)
        rng = np.random.default_rng(7)
        v = rng.uniform(0, 5, m.n_states)
        alpha = 0.9
        g = g_function(m, v, alpha, c)
        q = m.cost + alpha * m.expected_next(v)
        for i in (0, 5, 12, m.n_states - 1):
            for j in (0, 3):
                y = i + j
                if y >= m.n_states:
                    continue
                setup = c.K if j > 0 else 0.0
                assert q[i, j] == pytest.approx(setup + g[y] - c.c_unit * m.grid[i], abs=1e-9)

    @pytest.mark.parametrize("dynamics", [Dynamics.BACKORDER, Dynamics.LOST_SALES])
    @pytest.mark.parametrize("alpha", [0.0, 0.9])
    def test_matches_expected_holding_formula(self, dynamics, alpha):
        # oracle: c_unit x + E h(x - D) + alpha E_0 v, with E h recomputed from the demand law
        from invlab.costs import expected_holding

        c = gb_cost()
        m = make_inventory_mdp(c, MIXED, -15, 10, dynamics=dynamics)
        v = np.random.default_rng(3).uniform(0, 20, m.n_states)
        law = dense_rows(m.grid, m.actions, MIXED, dynamics)
        oracle = c.c_unit * m.grid + expected_holding(c.holding, m.grid, MIXED) + alpha * law[:, 0, :] @ v
        np.testing.assert_allclose(g_function(m, v, alpha, c), oracle, rtol=0, atol=1e-12)


class TestExtractSS:
    def test_quadratic_on_half_lattice(self):
        grid = np.arange(-3.0, 3.5, 0.5)
        g = grid**2
        s, S = extract_sS(g, grid, K=1.0)
        assert S == 0.0
        assert s == -1.0

    def test_zero_setup_cost_collapses_to_argmin(self):
        grid = np.arange(-3.0, 4.0)
        g = (grid - 1.0) ** 2
        s, S = extract_sS(g, grid, K=0.0)
        assert s == S == 1.0

    def test_flat_argmin_gives_same_s_for_any_choice(self):
        grid = np.arange(-3.0, 4.0)
        g = np.array([9.0, 4.0, 1.0, 0.0, 0.0, 1.0, 4.0])
        K = 1.5
        s, S = extract_sS(g, grid, K)
        assert S == 0.0  # smallest argmin
        # recompute s against each argmin choice: identical thresholds
        for S_choice in grid[np.abs(g - g.min()) <= 1e-12]:
            threshold = K + g[list(grid).index(S_choice)]
            s_alt = grid[np.nonzero(g <= threshold + 1e-9)[0][0]]
            assert s_alt == s

    def test_edge_argmin_rejected(self):
        grid = np.arange(0.0, 5.0)
        with pytest.raises(InvLabError) as err:
            extract_sS(grid.copy(), grid, K=1.0)  # strictly increasing: argmin at edge
        assert err.value.code == "GRID_TOO_NARROW"

    def test_non_finite_values_rejected(self):
        grid = np.arange(-2.0, 3.0)
        g = grid**2
        g[0] = np.inf
        with pytest.raises(ValueError):
            extract_sS(g, grid, K=1.0)


class TestClassifyRegime:
    def test_growth_regime_for_every_alpha(self):
        for alpha in (0.0, 0.5, 0.99):
            ps = classify_regime(gb_cost(), alpha)
            assert ps.regime is Regime.GB_SS
            assert ps.alpha_star == pytest.approx(-2.0)
            assert ps.n_alpha == 0

    def test_never_order_below_critical(self):
        ps = classify_regime(hybrid_cost(), 0.3)
        assert ps.regime is Regime.NEVER_ORDER
        assert ps.n_alpha == INFINITE

    def test_hybrid_above_critical(self):
        ps = classify_regime(hybrid_cost(), 0.9)
        assert ps.regime is Regime.HYBRID
        assert ps.n_alpha == 2

    def test_boundary_alpha_never_orders(self):
        ps = classify_regime(hybrid_cost(), 0.5)
        assert ps.regime is Regime.NEVER_ORDER


class TestPredictFiniteHorizon:
    def test_never_order_plan(self):
        ps = classify_regime(hybrid_cost(), 0.3)
        assert predict_finite_horizon(ps, 4) == [None] * 4

    def test_hybrid_short_horizon_never_orders(self):
        ps = classify_regime(hybrid_cost(), 0.9)
        assert ps.n_alpha == 2
        assert predict_finite_horizon(ps, 2) == [None, None]

    def test_hybrid_long_horizon_splits(self):
        ps = classify_regime(hybrid_cost(), 0.9)
        plan = predict_finite_horizon(ps, 5)
        assert plan == [4, 3, 2, None, None]

    def test_growth_regime_has_thresholds_everywhere(self):
        ps = classify_regime(gb_cost(), 0.5)
        assert predict_finite_horizon(ps, 3) == [2, 1, 0]


def solve_and_verify(cost, demand, alpha, N, lo, hi):
    mdp = make_inventory_mdp(cost, demand, lo, hi)
    sols = finite_horizon_vi(mdp, N, alpha, np.zeros(mdp.n_states))
    g_seq = [g_function(mdp, sols[t].values, alpha, cost) for t in range(N)]
    ps = classify_regime(cost, alpha)
    plan = predict_finite_horizon(ps, N)
    report = verify_structure(plan, sols, g_seq, mdp, cost.K)
    return mdp, sols, g_seq, report


class TestVerifyStructure:
    def test_growth_instance_zero_violations(self):
        _, _, _, report = solve_and_verify(gb_cost(), MIXED, 0.9, 5, -25, 12)
        assert report.ok, report.violations[:5]

    def test_hybrid_short_horizon_never_order_is_optimal(self):
        mdp, sols, g_seq, report = solve_and_verify(hybrid_cost(), MIXED, 0.9, 2, -30, 12)
        assert report.ok, report.violations[:5]
        for sol in sols[1:]:
            assert sol.optimal[:, 0].all()  # actions[0] == 0

    def test_swapped_thresholds_reported(self):
        cost = gb_cost()
        mdp, sols, g_seq, report = solve_and_verify(cost, MIXED, 0.9, 4, -25, 12)
        assert report.ok
        # negative control: raise s two lattice steps above the true trigger
        N = 4
        plan = predict_finite_horizon(classify_regime(cost, 0.9), N)
        bad_g = [g.copy() for g in g_seq]
        true_s, true_S = report.thresholds[0]
        # shifting the threshold comparison is easiest by editing the g used
        # for extraction: push two states below s over the K line
        g0 = bad_g[plan[0]]
        i_s = mdp.state_index(true_s)
        g0[i_s] = g0[i_s] + 1e6
        g0[i_s + 1] = g0[i_s + 1] + 1e6
        bad = verify_structure(plan, sols, bad_g, mdp, cost.K)
        assert not bad.ok
        states = {x for (_, x, _, _) in bad.violations}
        assert true_s in states or true_s + 1 in states


def reference_verify(prediction, solutions, g_sequence, mdp, K, alpha):
    """Per-(step, state) reference for ``verify_structure``: its earlier loop over argmin sets.

    The sets are rebuilt from the solved values with the backup's own
    arithmetic, so the reference does not read the solver's mask.
    """
    N = len(prediction)
    violations = []
    thresholds = []
    a_max = float(mdp.actions[-1])
    for t, entry in enumerate(prediction):
        depth = N - t
        q = mdp.cost + alpha * mdp.expected_next(solutions[depth - 1].values) if alpha else mdp.cost
        vmin = solutions[depth].values
        sets = [mdp.actions[q[i] <= vmin[i] + TIE_TOL] for i in range(mdp.n_states)]
        if entry is None:
            s_t = S_t = None
            thresholds.append(None)
        else:
            s_t, S_t = extract_sS(g_sequence[entry], mdp.grid, K)
            thresholds.append((s_t, S_t))
        for i, x in enumerate(mdp.grid):
            if entry is None or x >= s_t - 1e-9:
                predicted = 0.0
            else:
                predicted = S_t - x
            good = predicted <= a_max + 1e-9 and np.any(np.abs(sets[i] - predicted) <= 1e-9 * max(1.0, mdp.step))
            if not good:
                violations.append((t, float(x), float(predicted), sets[i].tolist()))
    return violations, thresholds


def shift_right(g, k):
    """``g`` moved ``k`` states up the grid (left part padded with its edge value), so s and S move up by ``k``."""
    return np.concatenate([np.full(k, g[0]), g[:-k]]) if k > 0 else np.concatenate([g[-k:], np.full(-k, g[-1])])


HALF = from_atoms([(0, 0.3), (0.5, 0.4), (1.0, 0.3)], step=0.5)

# name -> (cost, demand, alpha, N, lo, hi, a_max, how the plan or G-functions are altered)
ORACLE_CASES = {
    "growth": (gb_cost(), MIXED, 0.9, 5, -25, 12, None, None),
    "hybrid": (hybrid_cost(), MIXED, 0.9, 6, -35, 12, None, None),
    "alpha-zero": (gb_cost(), MIXED, 0.0, 3, -15, 10, None, None),
    "swapped-steps": (gb_cost(K=6.0), MIXED, 0.9, 5, -25, 12, None, "reverse"),
    "shifted-up": (gb_cost(), MIXED, 0.9, 5, -25, 12, None, 2),
    "shifted-down": (gb_cost(), MIXED, 0.9, 5, -25, 12, None, -3),
    "never-order-on-growth": (gb_cost(), MIXED, 0.9, 4, -25, 12, None, "never"),
    "deepest-thresholds-on-hybrid": (hybrid_cost(), MIXED, 0.9, 6, -35, 12, None, "deepest"),
    "tight-a_max": (gb_cost(), MIXED, 0.9, 5, -25, 12, 2.0, None),
    "tight-a_max-shifted": (gb_cost(K=4.0), MIXED, 0.9, 5, -25, 12, 3.0, 2),
    "half-step-shifted": (gb_cost(), HALF, 0.9, 4, -12, 6, None, 3),
}


class TestVerifyStructureOracle:
    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_matches_per_state_reference(self, name):
        cost, demand, alpha, N, lo, hi, a_max, alter = ORACLE_CASES[name]
        mdp = make_inventory_mdp(cost, demand, lo, hi, a_max)
        sols = finite_horizon_vi(mdp, N, alpha, np.zeros(mdp.n_states))
        g_seq = [g_function(mdp, sols[t].values, alpha, cost) for t in range(N)]
        plan = predict_finite_horizon(classify_regime(cost, alpha), N)
        if alter == "reverse":
            plan = plan[::-1]
        elif alter == "never":
            plan = [None] * N
        elif alter == "deepest":
            plan = [N - 1] * N
        elif alter is not None:
            g_seq = [shift_right(g, alter) for g in g_seq]
        report = verify_structure(plan, sols, g_seq, mdp, cost.K)
        violations, thresholds = reference_verify(plan, sols, g_seq, mdp, cost.K, alpha)
        assert report.thresholds == thresholds
        assert report.violations == violations
        assert report.ok == (name in ("growth", "hybrid", "alpha-zero"))
        if a_max is not None:
            assert any(predicted > a_max for _, _, predicted, _ in report.violations)


class TestV0Terminal:
    def test_k_zero_instance_unchanged(self):
        cost = gb_cost(K=0.0)
        mdp0 = make_inventory_mdp(replace(cost, K=0.0), MIXED, -20, 10)
        v0 = infinite_horizon_vi(mdp0, 0.9, 1e-6).values
        direct = infinite_horizon_vi(make_inventory_mdp(cost, MIXED, -20, 10), 0.9, 1e-6).values
        assert np.allclose(v0, direct)

    def test_constant_cost_fixed_point(self):
        m = build_mdp(Dynamics.BACKORDER, UNIT, -3, 3, 2, np.ones((7, 3)), mass_tol=1.0)
        assert np.allclose(infinite_horizon_vi(m, 0.5, 1e-9).values, 2.0, atol=1e-8)

    def test_relaxation_lower_bounds_true_values(self):
        cost = gb_cost(K=3.0)
        mdp = make_inventory_mdp(cost, MIXED, -20, 10)
        mdp0 = make_inventory_mdp(replace(cost, K=0.0), MIXED, -20, 10)
        v0 = infinite_horizon_vi(mdp0, 0.9, 1e-6).values
        v = infinite_horizon_vi(mdp, 0.9, 1e-6).values
        assert np.all(v0 <= v + 1e-6)


class TestThresholdLimits:
    def test_constant_sequence(self):
        report = threshold_limits([(-1.0, 0.0)] * 6)
        assert report.candidates == [(-1.0, 0.0)]
        assert report.envelope == (-1.0, -1.0, 0.0, 0.0)

    def test_half_offset_pairs_are_kept(self):
        # on a grid from -0.5 at step 1 the pairs are half-integers, not points of a lattice through zero
        assert threshold_limits([(-0.5, 1.5)] * 6).candidates == [(-0.5, 1.5)]
        cost = gb_cost()
        mdp = make_inventory_mdp(cost, MIXED, -25.5, 11.5)
        sols = finite_horizon_vi(mdp, 30, 0.9, np.zeros(mdp.n_states))
        pairs = [extract_sS(g_function(mdp, sols[t].values, 0.9, cost), mdp.grid, cost.K) for t in range(30)]
        candidates = threshold_limits(pairs).candidates
        assert candidates == [pairs[-1]]
        assert all(s in mdp.grid and S in mdp.grid for s, S in candidates)

    def test_finite_horizon_sequence_stabilizes_and_certifies(self):
        cost = gb_cost()
        alpha, eps = 0.9, 1e-6
        mdp = make_inventory_mdp(cost, MIXED, -25, 12)
        N = 30
        sols = finite_horizon_vi(mdp, N, alpha, np.zeros(mdp.n_states))
        pairs = []
        for t in range(N):
            g = g_function(mdp, sols[t].values, alpha, cost)
            pairs.append(extract_sS(g, mdp.grid, cost.K))
        report = threshold_limits(pairs)
        assert len(report.candidates) == 1
        s_lim, S_lim = report.candidates[0]
        sol = infinite_horizon_vi(mdp, alpha, eps)
        phi = np.where(mdp.grid < s_lim - 1e-9, S_lim - mdp.grid, 0.0)
        assert check_stationary_optimality(mdp, phi, sol.values, alpha) <= 2 * eps

    def test_alpha_ladder_envelope_bounded(self):
        cost = gb_cost()
        mdp = make_inventory_mdp(cost, MIXED, -25, 12)
        pairs = []
        for alpha in (0.9, 0.95, 0.99):
            sol = infinite_horizon_vi(mdp, alpha, 1e-6)
            g = g_function(mdp, sol.values, alpha, cost)
            pairs.append(extract_sS(g, mdp.grid, cost.K))
        report = threshold_limits(pairs)
        s_lo, s_hi, S_lo, S_hi = report.envelope
        assert mdp.grid[0] < s_lo <= s_hi < S_hi < mdp.grid[-1]


class TestStructureInvariants:
    def test_g_sequence_K_convex_on_clamp_free_interior(self):
        cost = gb_cost()
        demand = MIXED
        mdp = make_inventory_mdp(cost, demand, -25, 12)
        for alpha in (0.0, 0.5, 0.9):
            sols = finite_horizon_vi(mdp, 10, alpha, np.zeros(mdp.n_states))
            inner = interior_slice(mdp, demand)
            for t in range(10):
                g = g_function(mdp, sols[t].values, alpha, cost)
                res = is_K_convex(g[inner], cost.K)
                assert res.ok, (alpha, t, res.violation)

    def test_regime_matches_growth_check(self):
        d = MIXED
        for c_unit, k_h in [(1.0, 3.0), (2.0, 1.0), (0.7, 0.9), (1.5, 1.2)]:
            cost = CostModel(1.0, c_unit, HoldingCost.linear(k_h, 1.0))
            ps = classify_regime(cost, 0.9)
            assert (ps.regime is Regime.GB_SS) == check_GB(cost, d).holds

    def test_hybrid_terminal_steps_allow_zero(self):
        cost = hybrid_cost()
        alpha, N = 0.9, 6
        mdp = make_inventory_mdp(cost, MIXED, -35, 12)
        sols = finite_horizon_vi(mdp, N, alpha, np.zeros(mdp.n_states))
        n_alpha = 2
        # last n_alpha steps = shallow depths 1..n_alpha
        for depth in range(1, n_alpha + 1):
            assert sols[depth].optimal[:, 0].all()  # actions[0] == 0

    def test_infinite_horizon_threshold_policy_certified(self):
        cost = gb_cost()
        alpha, eps = 0.95, 1e-6
        mdp = make_inventory_mdp(cost, MIXED, -25, 12)
        sol = infinite_horizon_vi(mdp, alpha, eps)
        g = g_function(mdp, sol.values, alpha, cost)
        s_a, S_a = extract_sS(g, mdp.grid, cost.K)
        phi = np.where(mdp.grid < s_a - 1e-9, S_a - mdp.grid, 0.0)
        assert check_stationary_optimality(mdp, phi, sol.values, alpha) <= 2 * eps

    def test_k_free_terminal_restores_thresholds_in_hybrid_regime(self):
        # with zero terminal values the hybrid regime never orders near the
        # end; seeding the recursion with the setup-cost-free infinite-horizon
        # values yields threshold structure at every step instead
        cost = hybrid_cost()
        alpha, N = 0.9, 6
        mdp = make_inventory_mdp(cost, MIXED, -40, 14)
        mdp0 = make_inventory_mdp(replace(cost, K=0.0), MIXED, -40, 14)
        v0 = infinite_horizon_vi(mdp0, alpha, 1e-6).values
        sols = finite_horizon_vi(mdp, N, alpha, v0)
        g_seq = [g_function(mdp, sols[t].values, alpha, cost) for t in range(N)]
        plan = [N - t - 1 for t in range(N)]
        report = verify_structure(plan, sols, g_seq, mdp, cost.K)
        assert report.ok, report.violations[:5]
        assert all(t is not None for t in report.thresholds)
