"""Cost model: holding curves, regime constants, growth condition, K-convexity."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab.costs import (
    INFINITE,
    CostModel,
    HoldingCost,
    N_alpha,
    expected_holding,
    regime_constants,
)
from invlab.demand import from_atoms
import oracles
from oracles import check_GB, convolve_power, f_t_alpha, is_K_convex


def abs_cost(K=0.0, c_unit=1.0):
    return CostModel(K, c_unit, HoldingCost.linear(1.0, 1.0))


def linear_cost(K, c_unit, h_minus, h_plus):
    return CostModel(K, c_unit, HoldingCost.linear(h_minus, h_plus))


UNIT_DEMAND = from_atoms([(1, 1.0)], step=1)


class TestHoldingCost:
    def test_absolute_value(self):
        h = HoldingCost.linear(1.0, 1.0)
        xs = np.array([-3.0, -0.5, 0.0, 2.0])
        assert np.allclose(h(xs), np.abs(xs))

    def test_anchored_at_zero(self):
        h = HoldingCost(np.array([-2.0, 0.0, 3.0]), np.array([-5.0, -1.0, 0.5, 2.0]))
        assert h(0.0) == pytest.approx(0.0)

    def test_multi_piece_values(self):
        # pieces: slope -3 below -1, slope -1 on [-1, 0), slope 2 above 0
        h = HoldingCost(np.array([-1.0, 0.0]), np.array([-3.0, -1.0, 2.0]))
        assert h(-1.0) == pytest.approx(1.0)
        assert h(-2.0) == pytest.approx(4.0)
        assert h(1.5) == pytest.approx(3.0)

    def test_rejects_nonconvex_slopes(self):
        with pytest.raises(ValueError):
            HoldingCost(np.array([0.0]), np.array([1.0, -1.0]))

    def test_rejects_missing_sign_change(self):
        with pytest.raises(ValueError):
            HoldingCost(np.array([0.0]), np.array([-2.0, -1.0]))

    def test_rejects_negative_dip(self):
        # convex, correct slope signs, but h(5) = -5 < 0
        with pytest.raises(ValueError):
            HoldingCost(np.array([5.0]), np.array([-1.0, 1.0]))

    def test_flat_bottom_piece(self):
        # zero-slope piece across the origin: free storage band [-2, 0]
        h = HoldingCost(np.array([-2.0, 0.0]), np.array([-2.0, 0.0, 1.0]))
        assert h(-2.0) == pytest.approx(0.0)
        assert h(-1.0) == pytest.approx(0.0)
        assert h(-4.0) == pytest.approx(4.0)
        assert h(3.0) == pytest.approx(3.0)


class TestExpectedHolding:
    def test_unit_demand_at_zero(self):
        assert expected_holding(HoldingCost.linear(1, 1), 0.0, UNIT_DEMAND) == pytest.approx(1.0)

    def test_unit_demand_at_one(self):
        assert expected_holding(HoldingCost.linear(1, 1), 1.0, UNIT_DEMAND) == pytest.approx(0.0)

    def test_two_term_hand_sum(self):
        h = HoldingCost.linear(1.0, 2.0)  # backorder rate 1, holding rate 2
        d = from_atoms([(0, 0.5), (2, 0.5)], step=1)
        # 0.5 * h(0) + 0.5 * h(-2) = 0.5 * 0 + 0.5 * 2 = 1
        assert expected_holding(h, 0.0, d) == pytest.approx(1.0)

    def test_convex_in_x_on_lattice(self):
        h = HoldingCost(np.array([-1.0, 0.0, 2.0]), np.array([-4.0, -2.0, 0.5, 3.0]))
        d = from_atoms([(0, 0.25), (1, 0.5), (3, 0.25)], step=1)
        xs = np.arange(-10.0, 11.0)
        eh = expected_holding(h, xs, d)
        assert np.all(np.diff(eh, 2) >= -1e-9)


class TestRegimeConstants:
    def test_linear_model(self):
        k_h, a_star = regime_constants(linear_cost(0, 2.0, 1.0, 1.0))
        assert k_h == pytest.approx(1.0)
        assert a_star == pytest.approx(0.5)

    def test_leftmost_slope(self):
        c = CostModel(0, 1.0, HoldingCost(np.array([-1.0, 0.0]), np.array([-5.0, -1.0, 2.0])))
        k_h, _ = regime_constants(c)
        assert k_h == pytest.approx(5.0)

    def test_negative_alpha_star(self):
        _, a_star = regime_constants(linear_cost(0, 1.0, 3.0, 1.0))
        assert a_star == pytest.approx(-2.0)


class TestCheckGB:
    def test_holds_when_alpha_star_negative(self):
        c = linear_cost(0, 1.0, 3.0, 1.0)  # alpha* = -2
        d = from_atoms([(0, 0.5), (1, 0.5)], step=1)
        assert check_GB(c, d).holds

    def test_fails_when_alpha_star_nonnegative(self):
        c = linear_cost(0, 2.0, 1.0, 1.0)  # alpha* = 0.5
        d = from_atoms([(0, 0.5), (1, 0.5)], step=1)
        assert not check_GB(c, d).holds

    def test_hand_witness_slope(self):
        c = linear_cost(0, 0.5, 1.0, 1.0)
        d = from_atoms([(1, 1.0)], step=1)
        res = check_GB(c, d, probe_range=(-10.0, 0.0))
        assert res.holds
        z, y = res.witness
        # leftmost pair, and the slope there is -1 < -0.5
        assert (z, y) == (-10.0, -9.0)
        slope = (expected_holding(c.holding, y, d) - expected_holding(c.holding, z, d)) / (y - z)
        assert slope == pytest.approx(-1.0)

    def test_off_lattice_window_top_refused(self):
        c = linear_cost(0, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match=rf"^hi 0.0 is not on the lattice from lo -10.3 at step {UNIT_DEMAND.step}$"):
            check_GB(c, UNIT_DEMAND, probe_range=(-10.3, 0.0))
        with pytest.raises(ValueError, match=r"^probe range \(0.0, -10.0\) has hi below lo$"):
            check_GB(c, UNIT_DEMAND, probe_range=(0.0, -10.0))

    def test_window_ends_at_its_top(self, monkeypatch):
        probed = []

        def spy(h, x, d):
            probed.append(np.array(x))
            return expected_holding(h, x, d)

        monkeypatch.setattr(oracles, "expected_holding", spy)
        res = check_GB(linear_cost(0, 0.5, 1.0, 1.0), UNIT_DEMAND, probe_range=(-10.0, 0.0))
        assert res.witness == (-10.0, -9.0)
        assert probed[0].tolist() == [float(k) for k in range(-10, 1)]

    @given(st.floats(0.3, 3.0), st.floats(0.3, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_equivalent_to_negative_alpha_star(self, c_unit, k_h):
        if abs(k_h - c_unit) < 1e-3:
            return  # boundary: equivalence is about strict signs
        c = linear_cost(0, c_unit, k_h, 1.0)
        d = from_atoms([(0, 0.25), (2, 0.75)], step=1)
        _, a_star = regime_constants(c)
        assert check_GB(c, d).holds == (a_star < 0)


class TestKConvexity:
    def test_convex_function_is_K_convex_for_any_K(self):
        g = (np.arange(-5, 6, dtype=float)) ** 2
        for K in (0.0, 1.0, 10.0):
            assert is_K_convex(g, K).ok

    def test_spike_fails_small_K(self):
        res = is_K_convex(np.array([0.0, 2.0, 0.0]), 1.0)
        assert not res.ok
        assert res.violation == (0, 1, 2)

    def test_spike_passes_large_K(self):
        assert is_K_convex(np.array([0.0, 2.0, 0.0]), 4.0).ok

    def test_boundary_case_with_tolerance(self):
        # midpoint inequality holds with equality at K = 4: 2 <= 0.5 * 4
        assert is_K_convex(np.array([0.0, 2.0, 0.0]), 3.999999999).ok

    def test_slack_is_deepest_violation_over_all_rows(self):
        # (0, 1, 2) fails first by 1; (2, 3, 4) fails later by 5, hidden from x = 0 by g(0)
        g = np.array([40.0, 21.0, 0.0, 5.0, 0.0])
        res = is_K_convex(g, 0.0)
        assert not res.ok
        assert res.violation == (0, 1, 2)
        assert res.slack == pytest.approx(-5.0)

    @given(
        st.lists(st.floats(-5, 5), min_size=3, max_size=12),
        st.floats(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_triple_enumeration(self, values, K):
        g = np.asarray(values)
        expected = True
        for ix in range(len(values) - 2):
            for im in range(ix + 1, len(values) - 1):
                for iy in range(im + 1, len(values)):
                    lam = (im - ix) / (iy - ix)
                    if g[im] > (1 - lam) * g[ix] + lam * g[iy] + lam * K + 1e-9:
                        expected = False
        assert is_K_convex(g, K).ok == expected


class TestFtAlpha:
    def test_t0_equals_myopic_profile(self):
        c = linear_cost(0, 1.0, 1.0, 1.0)
        d = from_atoms([(0, 0.5), (2, 0.5)], step=1)
        for x in (-2.0, 0.0, 3.0):
            expected = c.c_unit * x + expected_holding(c.holding, x, d)
            assert f_t_alpha(c, d, 0, 0.7, x) == pytest.approx(expected)

    def test_alpha_zero_keeps_only_first_term(self):
        c = abs_cost(c_unit=1.0)
        assert f_t_alpha(c, UNIT_DEMAND, 3, 0.0, 0.0) == pytest.approx(1.0)

    def test_two_term_hand_sum(self):
        c = abs_cost(c_unit=1.0)
        # x=2: 2 + h(2 - S_1) + h(2 - S_2) = 2 + 1 + 0
        assert f_t_alpha(c, UNIT_DEMAND, 1, 1.0, 2.0) == pytest.approx(3.0)

    def test_geometric_sum_oracle(self):
        c = linear_cost(0, 1.0, 2.0, 1.0)
        d = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1)
        t, alpha, x = 3, 0.8, -1.0
        expected = c.c_unit * x
        for i in range(t + 1):
            s = convolve_power(d, i + 1)
            expected += alpha**i * sum(p * c.holding(x - v) for v, p in zip(s.values, s.probs))
        assert f_t_alpha(c, d, t, alpha, x) == pytest.approx(expected, abs=1e-10)


class TestNAlpha:
    def test_partial_sum_oracle(self):
        c = linear_cost(0, 2.0, 1.0, 1.0)  # k_h = 1
        # partial sums at alpha=0.9: 1, 1.9, 2.71 -> first exceeds 2 at t=2
        assert N_alpha(c, 0.9) == 2

    def test_infinite_at_or_below_alpha_star(self):
        c = linear_cost(0, 2.0, 1.0, 1.0)  # alpha* = 0.5
        assert N_alpha(c, 0.3) is INFINITE or N_alpha(c, 0.3) == INFINITE
        assert N_alpha(c, 0.5) == INFINITE  # boundary: limit equals c_unit, never exceeds

    def test_zero_when_growth_condition_holds(self):
        c = linear_cost(0, 0.5, 1.0, 1.0)  # alpha* = -1
        assert N_alpha(c, 0.0) == 0

    def test_undiscounted_case_is_always_finite(self):
        c = linear_cost(0, 5.0, 1.0, 1.0)
        # partial sums are 1, 2, 3, ...: first strict exceedance of 5 at t = 5
        assert N_alpha(c, 1.0) == 5

    @given(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.0, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_finite_iff_alpha_above_alpha_star(self, k_h, c_unit, alpha):
        c = linear_cost(0, c_unit, k_h, 1.0)
        _, a_star = regime_constants(c)
        if abs(alpha - a_star) < 1e-6:
            return  # strictness boundary
        n = N_alpha(c, alpha)
        assert (n != INFINITE) == (alpha > a_star)

    def test_non_increasing_in_alpha(self):
        c = linear_cost(0, 2.0, 1.0, 1.0)
        ladder = [0.55, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99]
        values = [N_alpha(c, a) for a in ladder]
        finite = [v for v in values if v != INFINITE]
        assert finite == sorted(finite, reverse=True)
        # and INFINITE entries only at the low end
        flags = [v == INFINITE for v in values]
        assert flags == sorted(flags, reverse=True)

    def test_matches_the_partial_sums(self):
        # ties included: at k_h 1 the sums 1 + 0.5 + 0.25 and 1 + 0.9375 equal c_unit 1.75 and 1.9375 exactly
        alphas = [0.0, 0.25, 0.3, 0.5, 0.6, 0.75, 0.8, 0.9, 0.9375, 0.95, 0.99, 0.995, 0.999, 1.0]
        values = [0.1, 0.2, 0.25, 0.3, 0.7, 1.0, 1.3125, 1.5, 1.75, 1.875, 1.9375, 2.0, 3.0, 5.0]
        for alpha, k_h, c_unit in itertools.product(alphas, values, values):
            c = linear_cost(0, c_unit, k_h, 1.0)
            if abs(alpha - regime_constants(c)[1]) < 1e-12:
                continue  # the sum's limit is c_unit up to rounding, which the float alpha_star settles: see the last test
            expected = oracles.n_alpha_partial_sums(c, alpha)
            assert N_alpha(c, alpha) == (INFINITE if expected is None else expected), (alpha, k_h, c_unit)

    @pytest.mark.parametrize(
        "alpha, c_unit, expected",
        [
            (0.7, 1.7, 2),  # 1 + 0.7 is 1.7 exactly, not above it: the log ratio alone gives 1
            (0.75, math.nextafter(1.75, 0.0), 1),  # 1 + 0.75 is one ulp above c_unit: the log ratio alone gives 2
        ],
    )
    def test_partial_sum_ties_settle_against_the_sum(self, alpha, c_unit, expected):
        c = linear_cost(0, c_unit, 1.0, 1.0)
        assert oracles.n_alpha_partial_sums(c, alpha) == expected
        assert N_alpha(c, alpha) == expected

    def test_near_critical_index_is_finite_and_exact(self):
        # alpha 1e-15 above alpha_star: the index is about 2.1e7, past what summing term by term reaches quickly
        from decimal import Decimal, localcontext

        c = CostModel(0.0, 1.0, HoldingCost(np.array([0.0]), np.array([-1.000000001e-06, 1.0])))
        alpha = 0.999999
        assert alpha > regime_constants(c)[1]
        n = N_alpha(c, alpha)
        assert n == 20_752_432
        with localcontext() as ctx:
            ctx.prec = 60
            k_h, a = Decimal(-c.holding.slopes[0]), Decimal(alpha)
            assert k_h * (1 - a ** (n + 1)) / (1 - a) > 1 >= k_h * (1 - a**n) / (1 - a)

    def test_infinite_when_alpha_equals_alpha_star_after_rounding(self):
        # 1 - 0.2/1 rounds to the float 0.8, so alpha is not above alpha_star, though k_h/(1 - alpha) rounds above c_unit
        c = linear_cost(0, 1.0, 0.2, 1.0)
        assert regime_constants(c)[1] == 0.8
        assert N_alpha(c, 0.8) == INFINITE


class TestFarLeftSlopeProbe:
    def test_slope_sign_flips_exactly_at_N_alpha(self):
        c = linear_cost(0, 2.0, 1.0, 1.0)
        d = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1)
        alpha = 0.9
        n_a = N_alpha(c, alpha)
        assert n_a == 2
        for t in range(5):
            x_probe = float(c.holding.breakpoints[0] - (t + 1) * d.max_value - 10)
            slope = f_t_alpha(c, d, t, alpha, x_probe) - f_t_alpha(c, d, t, alpha, x_probe - 1)
            if t < n_a:
                assert slope >= -1e-6  # flat-or-rising tail: no incentive reaches deep backlog
            else:
                assert slope < -1e-6  # blow-up at the left: f(x_probe - 1) > f(x_probe)


class TestNonFiniteCosts:
    @pytest.mark.parametrize(
        "K, c_unit, message",
        [
            (np.inf, 1.0, "setup cost must be nonnegative and finite, got inf"),
            (np.nan, 1.0, "setup cost must be nonnegative and finite, got nan"),
            (1.0, np.inf, "per-unit cost must be positive and finite, got inf"),
            (1.0, np.nan, "per-unit cost must be positive and finite, got nan"),
        ],
    )
    def test_cost_model_requires_finite_ordering_costs(self, K, c_unit, message):
        with pytest.raises(ValueError) as err:
            CostModel(K, c_unit, HoldingCost.linear(3.0, 1.0))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "breakpoints, slopes, message",
        [
            ([np.nan], [-3.0, 1.0], "breakpoint nan is not finite"),
            ([0.0, np.inf], [-3.0, 1.0, 2.0], "breakpoint inf is not finite"),
            ([0.0], [-3.0, np.inf], "slope inf is not finite"),
            ([0.0], [-np.inf, 1.0], "slope -inf is not finite"),
        ],
    )
    def test_holding_cost_requires_finite_pieces(self, breakpoints, slopes, message):
        with pytest.raises(ValueError) as err:
            HoldingCost(np.array(breakpoints), np.array(slopes))
        assert str(err.value) == message
