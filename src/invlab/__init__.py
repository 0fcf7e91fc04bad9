"""Desk-scale dynamic-programming laboratory for periodic-review inventory control."""

from .average_cost import (
    DEFAULT_LADDER,
    DiscountLadder,
    RelativeValue,
    assumption_B_diagnostic,
    check_optimality_inequality,
    greedy_policy,
    relative_value,
    solve_ladder,
)
from .costs import (
    INFINITE,
    CostModel,
    HoldingCost,
    N_alpha,
    expected_holding,
    regime_constants,
)
from .demand import DemandDistribution, from_atoms, quantize
from .dp_core import (
    Dynamics,
    GridMDP,
    ValueSolution,
    build_mdp,
    check_stationary_optimality,
    finite_horizon_vi,
    infinite_horizon_vi,
    make_inventory_mdp,
    policy_values,
)
from .errors import InvLabError, ValidationErrors
from .policy_structure import (
    PolicyStructure,
    Regime,
    classify_regime,
    extract_sS,
    g_function,
    predict_finite_horizon,
    verify_structure,
)
from .pomdp import (
    Container,
    ContainerPartition,
    belief_value_iteration,
    comdp_cost,
    make_belief,
    pomdp_simulate,
)

__version__ = "0.1.0"
