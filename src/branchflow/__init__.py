"""Branched-transport network approximation via atomic relay measures.

Approximates cost-optimal branched transport networks between atomic
measures by minimizing a q-Wasserstein objective with n free relay
atoms, and verifies at desk scale that n^(1-1/q) times the optimal
value converges to the network cost while the induced reduced trees
converge to the optimal network in Hausdorff distance.
"""

from .measures import (
    Atom,
    BALANCE_ATOL,
    CostParams,
    InvalidConfigError,
    SignedConfig,
    config_from_dict,
    config_to_dict,
    load_problem,
    parse_problem,
    save_problem,
    serialize_problem,
    total_mass,
    validate,
)
from .transport import (
    SolverError,
    TransportPlan,
    TreeBasis,
    check_plan,
    cost_matrix,
    min_cost_plan,
    plan_cost,
    wasserstein_coupling,
    wasserstein_q,
)
from .regularize import (
    cancel_flat_cycles,
    regularize,
)
from .graphs import (
    ChainGeometry,
    ReducedTree,
    StructureReport,
    WeightedDigraph,
    graph_cost,
    graph_from_dict,
    graph_to_dict,
    plan_to_graph,
    reduce_graph,
    verify_structure,
)
from .positions import (
    SolveResult,
    alternate_minimize,
    optimize_positions,
    position_gradient,
    solve_result_to_dict,
    w1_seed,
)
from .allocate import Allocation, allocate, optimal_fractions
from .oracle import (
    EnumerationBudgetError,
    OracleSolution,
    Terminals,
    Topology,
    enumerate_topologies,
    oracle,
    solve_topology,
)
from .hausdorff import hausdorff
from .instances import random_instance, single_edge, y_instance
from .sweep import SweepRecord, sweep, sweep_to_csv
from .render import render, render_svg

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "BALANCE_ATOL",
    "CostParams",
    "InvalidConfigError",
    "SignedConfig",
    "config_from_dict",
    "config_to_dict",
    "load_problem",
    "parse_problem",
    "save_problem",
    "serialize_problem",
    "total_mass",
    "validate",
    "SolverError",
    "TransportPlan",
    "TreeBasis",
    "check_plan",
    "cost_matrix",
    "min_cost_plan",
    "plan_cost",
    "wasserstein_coupling",
    "wasserstein_q",
    "cancel_flat_cycles",
    "regularize",
    "ChainGeometry",
    "ReducedTree",
    "StructureReport",
    "WeightedDigraph",
    "graph_cost",
    "graph_from_dict",
    "graph_to_dict",
    "plan_to_graph",
    "reduce_graph",
    "verify_structure",
    "SolveResult",
    "alternate_minimize",
    "optimize_positions",
    "position_gradient",
    "solve_result_to_dict",
    "w1_seed",
    "Allocation",
    "allocate",
    "optimal_fractions",
    "EnumerationBudgetError",
    "OracleSolution",
    "Terminals",
    "Topology",
    "enumerate_topologies",
    "oracle",
    "solve_topology",
    "hausdorff",
    "random_instance",
    "single_edge",
    "y_instance",
    "SweepRecord",
    "sweep",
    "sweep_to_csv",
    "render",
    "render_svg",
    "__version__",
]
