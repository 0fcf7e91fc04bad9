"""The benchmark's workloads: seeded configs and the ``invctl`` commands of one pass.

Every input is drawn from the workload seed, so the same seed gives the same
configs.  ``size="tiny"`` shrinks each workload to a smoke-test scale with the
same commands and checks; the measured size is ``"full"``.
"""

from __future__ import annotations

import numpy as np

REFERENCE_SEED = 0
SIZES = ("full", "tiny")
EPS = 1e-6
DEEP_LADDER = [0.9, 0.99, 0.999, 0.9995, 0.9999]

WHY = {
    "ladder-deep": (
        "Bellman sweeps are nearly all the time (~161k in solve-discounted at alpha 0.9999, n = 19) "
        "and the MDP build is negligible: where policy iteration must show"
    ),
    "grid-wide": (
        "every command rebuilds a 516 MB dense P at n = 401 while VI needs few sweeps; also runs "
        "G-functions and argmin sets: where dropping the dense tensor must show"
    ),
    "pomdp-mc": (
        "belief tree and rollouts read dense P rows one at a time and per-replication Philox streams "
        "dominate: shows if faster backups slow these reads"
    ),
}

# (label, invctl command, config name); the label names the command's output directory
COMMANDS = {
    "ladder-deep": [
        ("solve-average", "solve-average", "main"),
        ("solve-discounted", "solve-discounted", "main"),
    ],
    "grid-wide": [
        ("solve-finite", "solve-finite", "backorder"),
        ("verify-structure", "verify-structure", "backorder"),
        ("solve-discounted", "solve-discounted", "backorder"),
        ("solve-discounted-lost-sales", "solve-discounted", "lost_sales"),
    ],
    "pomdp-mc": [
        ("pomdp-solve", "pomdp-solve", "pomdp"),
        ("pomdp-simulate", "pomdp-simulate", "pomdp"),
        ("simulate", "simulate", "sim"),
    ],
}

WORKLOADS = tuple(COMMANDS)


def _holding(k_h: float, h_plus: float) -> dict:
    return {"breakpoints": [0.0], "slopes": [-k_h, h_plus]}


def _ladder_deep(seed: int, size: str) -> dict:
    # drawn like small_scale_gb_instance in tests/test_acceptance.py: mild cost
    # rates keep the optimality-inequality error under 1e-5 at ladder depth 1e-4
    r = np.random.default_rng(seed)
    # the tiny ladder stops at 1e-3, so its cost rates shrink to keep that error bound
    scale = 2e-4 if size == "full" else 1e-6
    atoms = [(0, 0.2 + 0.2 * r.random()), (1, 0.3 + 0.2 * r.random()), (2, 0.2 + 0.1 * r.random())]
    total = sum(p for _, p in atoms)
    c_unit = scale * (0.8 + 0.4 * r.random())
    k_h = c_unit * (1.8 + 0.8 * r.random())
    h_plus = scale * (0.5 + 0.5 * r.random())
    K = scale * (1.0 + 2.0 * r.random())
    ladder = DEEP_LADDER if size == "full" else DEEP_LADDER[:3]
    return {
        "main": {
            "demand": {"step": 1.0, "atoms": [[float(v), p / total] for v, p in atoms]},
            "cost": {"K": K, "c_unit": c_unit, "holding": _holding(k_h, h_plus)},
            "grid": {"lo": -8.0, "hi": 10.0, "step": 1.0},
            "dynamics": "backorder",
            "solver": {"alpha": ladder[-1], "eps": EPS, "ladder": ladder},
            "seed": seed,
        }
    }


def _grid_wide(seed: int, size: str) -> dict:
    # growth condition (k_h > c_unit) puts every finite-horizon step in the
    # (s, S) regime, so verify-structure must report zero violations
    r = np.random.default_rng(seed)
    offsets = np.sort(r.choice(np.arange(0, 13), size=9, replace=False))
    weights = r.uniform(0.05, 1.0, size=9)
    probs = weights / weights.sum()
    c_unit = float(r.uniform(0.5, 2.0))
    k_h = c_unit * float(r.uniform(1.6, 3.0))
    h_plus = float(r.uniform(0.2, 1.5))
    half, ls_hi, horizon = (200.0, 300.0, 30) if size == "full" else (60.0, 80.0, 5)
    base = {
        "demand": {"step": 1.0, "atoms": [[float(o), float(p)] for o, p in zip(offsets, probs)]},
        "cost": {"K": 20.0, "c_unit": c_unit, "holding": _holding(k_h, h_plus)},
        "solver": {"alpha": 0.9, "eps": EPS, "horizon": horizon},
        "seed": seed,
    }
    return {
        "backorder": {**base, "grid": {"lo": -half, "hi": half, "step": 1.0}, "dynamics": "backorder"},
        "lost_sales": {**base, "grid": {"lo": 0.0, "hi": ls_hi, "step": 1.0}, "dynamics": "lost_sales"},
    }


def _pomdp_mc(seed: int, size: str) -> dict:
    # the README example config; the seed keys the Monte Carlo streams
    full = size == "full"
    base = {
        "demand": {"step": 1.0, "atoms": [[0, 0.3], [1, 0.4], [2, 0.3]]},
        "cost": {"K": 2.0, "c_unit": 1.0, "holding": {"breakpoints": [0.0], "slopes": [-3.0, 1.0]}},
        "grid": {"lo": -12.0, "hi": 8.0, "step": 1.0},
        "actions": {"a_max": 20.0},
        "dynamics": "backorder",
        "solver": {"alpha": 0.9, "eps": EPS, "horizon": 5},
        "pomdp": {
            "containers": [
                {"lo": -12.0, "hi": 0.0, "transparent": False},
                {"lo": 0.0, "hi": 8.0, "transparent": True},
            ],
            "prior": [[0.0, 1.0]],
            "horizon": 7 if full else 3,
            "max_nodes": 1_000_000,
        },
        "seed": seed,
    }
    return {
        "pomdp": {**base, "sim": {"x0": 0.0, "reps": 2000 if full else 200}},
        "sim": {**base, "sim": {"x0": 0.0, "reps": 100_000 if full else 2000, "horizon": 200 if full else 50}},
    }


_BUILDERS = {"ladder-deep": _ladder_deep, "grid-wide": _grid_wide, "pomdp-mc": _pomdp_mc}


def configs(workload: str, seed: int, size: str) -> dict:
    """Config dicts of one workload instance, keyed by the names ``COMMANDS`` uses."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return _BUILDERS[workload](seed, size)
