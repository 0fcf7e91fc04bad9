"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Instance families are seeded, so the suite is deterministic.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from invlab import average_cost
from invlab.average_cost import (
    check_optimality_inequality,
    greedy_policy,
    relative_value,
    solve_ladder,
)
from invlab.cli_sim import simulate_policy
from invlab.costs import CostModel, HoldingCost, N_alpha, regime_constants
from invlab.demand import from_atoms
from invlab.dp_core import (
    GridMDP,
    check_stationary_optimality,
    finite_horizon_vi,
    infinite_horizon_vi,
    make_inventory_mdp,
    min_action_policy,
)
from invlab.policy_structure import (
    classify_regime,
    extract_sS,
    g_function,
    predict_finite_horizon,
    verify_structure,
)
from invlab.pomdp import Container, ContainerPartition, TreePolicy, belief_value_iteration, make_belief, pomdp_simulate
from oracles import bayes_filter, dense_rows, f_t_alpha, is_K_convex, long_run_average, observation_marginal, successors, threshold_limits

EPS = 1e-6
DEFAULT_LADDER = [0.9, 0.95, 0.99, 0.995, 0.999]
DEEP_LADDER = [0.9, 0.99, 0.999, 0.9995, 0.9999]


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {num} FAIL: {desc}")
        raise
    print(f"\nCRITERION {num} PASS: {desc}")


# ---------------------------------------------------------------------------
# instance families


def random_demand(rng, step, max_atoms=6):
    n = int(rng.integers(1, max_atoms + 1))
    offsets = rng.choice(np.arange(0, 7), size=n, replace=False)
    if not np.any(offsets > 0):
        offsets = np.append(offsets, int(rng.integers(1, 7)))
    weights = rng.uniform(0.05, 1.0, size=len(offsets))
    probs = weights / weights.sum()
    return from_atoms([(float(o) * step, float(p)) for o, p in zip(offsets, probs)], step)


def random_gb_instance(rng):
    """Growth-condition instance with generous grid margins around the thresholds."""
    step = float(rng.choice([0.5, 1.0]))
    demand = random_demand(rng, step)
    c_unit = float(rng.uniform(0.5, 2.0))
    k_h = c_unit * float(rng.uniform(1.6, 3.0))
    h_plus = float(rng.uniform(0.2, 1.5))
    if rng.random() < 0.5:
        bp = -step * float(rng.integers(1, 4))
        mid = -k_h * float(rng.uniform(0.3, 0.8))
        holding = HoldingCost(np.array([bp, 0.0]), np.array([-k_h, mid, h_plus]))
    else:
        holding = HoldingCost.linear(k_h, h_plus)
    K = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.5, 3.0))
    cost = CostModel(K, c_unit, holding)
    max_d = demand.max_value
    lo = float(holding.breakpoints[0]) - 2 * max_d - 45 * step
    hi = max_d + 30 * step
    lo = math.floor(lo / step) * step
    hi = math.ceil(hi / step) * step
    return cost, demand, lo, hi


def small_scale_gb_instance(seed):
    """Compact, mildly priced instance for deep-discount ladders.

    The optimality-inequality certificate is checked at an absolute
    tolerance, while its intrinsic error scales with (1 - alpha_max) times
    the relative-value span; modest cost rates keep that product well under
    the tolerance at ladder depth 1e-4.
    """
    r = np.random.default_rng(seed)
    scale = 2e-4
    atoms = [(0, 0.2 + 0.2 * r.random()), (1, 0.3 + 0.2 * r.random()), (2, 0.2 + 0.1 * r.random())]
    total = sum(p for _, p in atoms)
    demand = from_atoms([(v, p / total) for v, p in atoms], step=1)
    c_unit = scale * (0.8 + 0.4 * r.random())
    k_h = c_unit * (1.8 + 0.8 * r.random())
    h_plus = scale * (0.5 + 0.5 * r.random())
    K = scale * (1.0 + 2.0 * r.random())
    cost = CostModel(K, c_unit, HoldingCost.linear(k_h, h_plus))
    return cost, demand, -8.0, 10.0


@pytest.fixture(scope="module")
def gb_suite():
    rng = np.random.default_rng(20240817)
    return [random_gb_instance(rng) for _ in range(20)]


@pytest.fixture(scope="module")
def avg_suite():
    """Five deep-ladder instances with both ladders solved once."""
    out = []
    for seed in range(5):
        cost, demand, lo, hi = small_scale_gb_instance(seed)
        mdp = make_inventory_mdp(cost, demand, lo, hi)
        default = solve_ladder(mdp, DEFAULT_LADDER, EPS)
        deep = solve_ladder(mdp, DEEP_LADDER, EPS)
        out.append({"cost": cost, "demand": demand, "mdp": mdp, "default": default, "deep": deep})
    return out


def greedy_from_values(mdp, values, alpha):
    q = mdp.cost + alpha * mdp.expected_next(values)
    return mdp.actions[np.argmin(q, axis=1)]


def threshold_policy(mdp, s, S):
    return np.where(mdp.grid < s - 1e-9, S - mdp.grid, 0.0)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_structural_optimality_under_growth(gb_suite):
    with criterion(1, "thresholds and K-convexity on 20 randomized growth instances"):
        start = time.time()
        checked = 0
        for cost, demand, lo, hi in gb_suite:
            _, a_star = regime_constants(cost)
            assert a_star < 0
            mdp = make_inventory_mdp(cost, demand, lo, hi)
            assert mdp.n_states <= 201
            depth = int(round(demand.max_value / demand.step))
            for alpha in (0.0, 0.5, 0.9):
                N = 10
                sols = finite_horizon_vi(mdp, N, alpha, np.zeros(mdp.n_states))
                g_seq = [g_function(mdp, sols[t].values, alpha, cost) for t in range(N)]
                for t, g in enumerate(g_seq):
                    res = is_K_convex(g[depth:], cost.K)
                    assert res.ok, (alpha, t, res.violation, res.slack)
                plan = predict_finite_horizon(classify_regime(cost, alpha), N)
                assert all(entry is not None for entry in plan)
                report = verify_structure(plan, sols, g_seq, mdp, cost.K)
                assert report.ok, (alpha, report.violations[:3])
                checked += 1
        elapsed = time.time() - start
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
        print(f"  [criterion 1] {checked} instance/alpha combinations in {elapsed:.1f}s")


def test_criterion_2_regime_table_reproduction():
    with criterion(2, "hybrid regime: never-order near the horizon end, thresholds deeper in"):
        cost = CostModel(1.0, 2.0, HoldingCost.linear(1.0, 1.0))  # alpha* = 0.5
        demand = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1)
        _, a_star = regime_constants(cost)
        assert a_star == pytest.approx(0.5)
        mdp = make_inventory_mdp(cost, demand, -40, 14)
        N = 6

        # (a) below the critical discount factor: never ordering is optimal
        sols_low = finite_horizon_vi(mdp, N, 0.3, np.zeros(mdp.n_states))
        for sol in sols_low[1:]:
            assert sol.optimal[:, 0].all()  # actions[0] == 0
        plan_low = predict_finite_horizon(classify_regime(cost, 0.3), N)
        assert plan_low == [None] * N
        report_low = verify_structure(plan_low, sols_low, [None] * N, mdp, cost.K)
        assert report_low.ok

        # (b) above it: N_alpha = 2 by the geometric-sum rule ...
        alpha = 0.9
        assert N_alpha(cost, alpha) == 2
        # ... and by far-left slope probing of the horizon cost profiles
        probed = None
        for t in range(6):
            x_probe = float(cost.holding.breakpoints[0] - (t + 1) * demand.max_value - 10)
            slope = f_t_alpha(cost, demand, t, alpha, x_probe) - f_t_alpha(cost, demand, t, alpha, x_probe - 1)
            if slope < -1e-6:
                probed = t
                break
        assert probed == 2

        sols = finite_horizon_vi(mdp, N, alpha, np.zeros(mdp.n_states))
        g_seq = [g_function(mdp, sols[t].values, alpha, cost) for t in range(N)]
        ps = classify_regime(cost, alpha)
        plan = predict_finite_horizon(ps, N)
        assert plan == [5, 4, 3, 2, None, None]
        report = verify_structure(plan, sols, g_seq, mdp, cost.K)
        assert report.ok, report.violations[:5]
        # never-order at the last two steps holds argmin membership of 0 everywhere
        for depth in (1, 2):
            assert sols[depth].optimal[:, 0].all()  # actions[0] == 0


def test_criterion_3_bellman_certificates(gb_suite, avg_suite):
    with criterion(3, "greedy stationary policies certify every discounted solve"):
        solves = 0
        for cost, demand, lo, hi in gb_suite[:10]:
            mdp = make_inventory_mdp(cost, demand, lo, hi)
            for alpha in (0.0, 0.5, 0.9):
                sol = infinite_horizon_vi(mdp, alpha, EPS)
                phi = min_action_policy(mdp, sol)
                residual = check_stationary_optimality(mdp, phi, sol.values, alpha)
                assert residual <= 2 * EPS, (alpha, residual)
                solves += 1
        for inst in avg_suite:
            for ladder in (inst["default"], inst["deep"]):
                for entry in ladder.entries:
                    phi = greedy_from_values(inst["mdp"], entry.values, entry.alpha)
                    residual = check_stationary_optimality(inst["mdp"], phi, entry.values, entry.alpha)
                    assert residual <= 2 * EPS, (entry.alpha, residual)
                    solves += 1
        print(f"  [criterion 3] {solves} infinite-horizon solves certified")


def test_criterion_4_vanishing_discount_chain(avg_suite):
    with criterion(4, "normalized rates bounded, minimizers interior, ladder tail tight"):
        for inst in avg_suite:
            mdp, ladder = inst["mdp"], inst["default"]
            cmax = float(mdp.cost[np.isfinite(mdp.cost)].max())
            for entry in ladder.entries:
                assert -1e-12 <= entry.rate <= cmax + 1e-12
            x_lo = min(float(e.x_alpha.min()) for e in ladder.entries)
            x_hi = max(float(e.x_alpha.max()) for e in ladder.entries)
            assert mdp.grid[0] < x_lo <= x_hi < mdp.grid[-1]
            rates = ladder.rates()[-3:]
            spread = (rates.max() - rates.min()) / abs(rates[-1])
            assert spread <= 0.05, spread


def test_criterion_5_average_cost_optimality_inequality(avg_suite):
    with criterion(5, "relative-value greedy policies within slack -1e-5 and 5% of the rate"):
        for inst in avg_suite:
            mdp = inst["mdp"]
            rv = relative_value(inst["deep"], k_tail=3)
            greedy = greedy_policy(mdp, rv.u)
            slack_upper = check_optimality_inequality(mdp, rv.u, rv.w_upper, greedy.actions)
            slack_lower = check_optimality_inequality(mdp, rv.u, rv.w_lower, greedy.actions)
            assert slack_upper >= -1e-5, slack_upper
            assert slack_lower >= -1e-5, slack_lower
            avg = long_run_average(mdp, greedy.actions, 2000)
            assert np.max(np.abs(avg - rv.w_upper)) <= 0.05 * rv.w_upper


def test_criterion_6_threshold_convergence(avg_suite):
    with criterion(6, "threshold sequences stabilize and their limit policies certify"):
        for inst in avg_suite:
            mdp, cost, demand = inst["mdp"], inst["cost"], inst["demand"]
            # finite-horizon thresholds at a fixed discount factor
            alpha = 0.99
            sols = finite_horizon_vi(mdp, 30, alpha, np.zeros(mdp.n_states))
            pairs = []
            for t in range(30):
                g = g_function(mdp, sols[t].values, alpha, cost)
                pairs.append(extract_sS(g, mdp.grid, cost.K))
            tail = pairs[-10:]
            assert all(p == tail[0] for p in tail), tail
            limits = threshold_limits(pairs)
            s_lim, S_lim = limits.candidates[0]
            entry = next(e for e in inst["default"].entries if abs(e.alpha - alpha) < 1e-12)
            phi = threshold_policy(mdp, s_lim, S_lim)
            residual = check_stationary_optimality(mdp, phi, entry.values, alpha)
            assert residual <= 2 * EPS, residual

            # discount-ladder thresholds: the recurring pair passes the slack test
            ladder_pairs = []
            for e in inst["deep"].entries:
                g = g_function(mdp, e.values, e.alpha, cost)
                ladder_pairs.append(extract_sS(g, mdp.grid, cost.K))
            limit_report = threshold_limits(ladder_pairs)
            assert limit_report.candidates, ladder_pairs
            s_a, S_a = limit_report.candidates[-1]
            rv = relative_value(inst["deep"], k_tail=3)
            phi_pair = threshold_policy(mdp, s_a, S_a)
            slack = check_optimality_inequality(mdp, rv.u, rv.w_upper, phi_pair)
            assert slack >= -1e-5, slack


def test_criterion_7_pomdp_reduction_sanity():
    with criterion(7, "belief machinery: disintegration, reduction, tree oracle, simulation"):
        demand = from_atoms([(0, 0.3), (1, 0.4), (2, 0.3)], step=1)
        cost = CostModel(1.0, 1.0, HoldingCost.linear(2.0, 1.0))
        mdp = make_inventory_mdp(cost, demand, -3, 5)  # 9 states
        assert mdp.n_states == 9
        part = ContainerPartition(
            [Container(-3.0, 1.0, False, None), Container(1.0, 5.0, True)], mdp.grid, mdp.step
        )
        alpha = 0.9

        # (a) filter/marginal disintegration on 100 random beliefs
        rng = np.random.default_rng(99)
        law = dense_rows(mdp.grid, mdp.actions, demand, mdp.dynamics)
        for _ in range(100):
            z = rng.dirichlet(np.ones(mdp.n_states) * rng.uniform(0.4, 4.0))
            a = float(rng.choice(mdp.actions[:6]))
            pred = z @ law[:, mdp.action_index(a), :]
            marg = observation_marginal(mdp, part, demand, z, a)
            mixture = np.zeros(mdp.n_states)
            for obs_id in np.nonzero(marg > 0)[0]:
                post = bayes_filter(mdp, part, demand, z, a, obs_id)
                mixture += marg[obs_id] * post
            assert np.max(np.abs(mixture - pred)) <= 1e-12

        # (b) fully transparent partition reproduces the grid solver
        clear = ContainerPartition([Container(-3.0, 5.0, True)], mdp.grid, mdp.step)
        sols = finite_horizon_vi(mdp, 4, alpha, np.zeros(mdp.n_states))
        for x in (-2.0, 0.0, 3.0):
            prior = make_belief([(x, 1.0)], mdp.grid)
            tree = belief_value_iteration(mdp, clear, prior, 4, alpha)
            assert abs(tree.value - sols[4].values[mdp.state_index(x)]) <= 1e-9

        # (c) brute-force expectation over all (state, demand) paths
        N = 4
        prior = make_belief([(-1.0, 0.35), (2.0, 0.65)], mdp.grid)
        sol = belief_value_iteration(mdp, part, prior, N, alpha)
        policy = TreePolicy(sol, part)
        offsets = demand.offsets()
        succ = successors(mdp.grid, mdp.actions, demand, mdp.dynamics)
        total = 0.0
        for i0 in np.nonzero(prior > 0)[0]:
            for path in itertools.product(range(len(offsets)), repeat=N):
                prob = float(prior[i0])
                cursor = policy.start()
                x = int(i0)
                path_cost = 0.0
                for t, k in enumerate(path):
                    j = policy.action(cursor)
                    path_cost += alpha**t * mdp.cost[x, j]
                    x = int(succ[x, j, k])
                    prob *= float(demand.probs[k])
                    if t < N - 1:
                        cursor = policy.advance(cursor, part.state_obs[x])
                total += prob * path_cost
        assert abs(sol.value - total) <= 1e-9

        # (d) ten-thousand-replication confidence interval covers the tree value
        res = pomdp_simulate(mdp, part, policy, prior, N, 10_000, seed=4242, alpha=alpha)
        assert res.ci_low <= sol.value <= res.ci_high


def test_criterion_8_monte_carlo_consistency(gb_suite):
    with criterion(8, "simulated discounted cost covers the solver value on 5 instances"):
        alpha, reps, N = 0.9, 10_000, 200
        for idx, (cost, demand, lo, hi) in enumerate(gb_suite[:5]):
            mdp = make_inventory_mdp(cost, demand, lo, hi)
            sol = infinite_horizon_vi(mdp, alpha, EPS)
            phi = min_action_policy(mdp, sol)
            x0 = 0.0
            cmax = float(mdp.cost[np.isfinite(mdp.cost)].max())
            allowance = EPS + cmax * alpha**N / (1 - alpha)
            disc, _ = simulate_policy(mdp, phi, x0, N, alpha, reps, seed=31_000 + idx)
            target = float(sol.values[mdp.state_index(x0)])
            assert disc.ci_low - allowance <= target <= disc.ci_high + allowance, (
                idx, disc.ci_low, target, disc.ci_high,
            )


def test_deep_ladder_backup_budget(monkeypatch):
    """Every deep-ladder rung starts from policy-iteration values, so it needs few Bellman backups."""
    calls = []
    expected_next = GridMDP.expected_next

    def counted(self, v):
        calls.append(1)
        return expected_next(self, v)

    per_rung = []

    def rung(mdp, alpha, eps):
        before = len(calls)
        sol = infinite_horizon_vi(mdp, alpha, eps)
        per_rung.append(len(calls) - before)
        return sol

    monkeypatch.setattr(GridMDP, "expected_next", counted)
    monkeypatch.setattr(average_cost, "infinite_horizon_vi", rung)
    for seed in range(5):
        cost, demand, lo, hi = small_scale_gb_instance(seed)
        solve_ladder(make_inventory_mdp(cost, demand, lo, hi), DEEP_LADDER, EPS)
    assert len(per_rung) == 5 * len(DEEP_LADDER)
    assert max(per_rung) < 100, per_rung
