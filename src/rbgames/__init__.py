"""Equilibrium solver for games whose payoffs couple players bilinearly.

Each player minimizes a linear cost plus a bilinear interaction term
over a mixed-integer linear feasible set. The package ships two
solution paths: an outer-approximation scheme that refines linear
relaxations with cutting planes, and an exact enumeration fallback for
small instances.
"""

from .cutplay import (
    Algorithm,
    Cuts,
    Member,
    PlayerState,
    SolverOptions,
    cut_and_play,
    refine_region,
    separation_oracle,
    solve_game,
)
from .cuts import cover_cuts, gomory_cuts, knapsack_rows
from .enumeration import full_enumeration, lattice_points
from .errors import (
    BudgetExhausted,
    DocumentError,
    EmptyUnion,
    InfeasibleGame,
    NumericalFailure,
    UnsupportedGame,
)
from .game import (
    Deviation,
    EqStatus,
    EquilibriumResult,
    GameModel,
    PlayerStrategy,
    SolveStats,
    StrategyProfile,
    build_nash_lcp,
    deviation_check,
    opponents_vector,
    profile_payoffs,
    support_from_points,
)
from .generators import (
    canonical_knapsack_game,
    cyclic_matching_game,
    infeasible_game,
    random_knapsack_game,
)
from .ip import PlayerProgram, parametrized_objective, payoff, solve_ip
from .lcp import (
    FIX_FREE,
    FIX_W_ZERO,
    FIX_Z_ZERO,
    LCP,
    LCPSolution,
    NoSolution,
    solve_lcp,
    solve_lcp_with_fixings,
)
from .lp import LinearProgram, LPResult, LPStatus, solve_lp
from .model import (
    Instance,
    dumps_canonical,
    instance_from_document,
    instance_to_document,
    load_instance,
    result_to_document,
    save_instance,
    save_result,
)
from .numerics import (
    COMPLEMENTARITY_TOL,
    DEVIATION_EPS,
    FEAS_TOL,
    ZERO_TOL,
    SparseMatrix,
    seeded_rng,
)
from .poly import ExtendedHull, Polyhedron, convex_hull, decompose, hull_contains

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "BudgetExhausted",
    "COMPLEMENTARITY_TOL",
    "Cuts",
    "DEVIATION_EPS",
    "Deviation",
    "DocumentError",
    "EmptyUnion",
    "EqStatus",
    "EquilibriumResult",
    "ExtendedHull",
    "FEAS_TOL",
    "GameModel",
    "InfeasibleGame",
    "Instance",
    "FIX_FREE",
    "FIX_W_ZERO",
    "FIX_Z_ZERO",
    "LCP",
    "LCPSolution",
    "LPResult",
    "LPStatus",
    "LinearProgram",
    "Member",
    "NoSolution",
    "NumericalFailure",
    "PlayerProgram",
    "PlayerState",
    "PlayerStrategy",
    "Polyhedron",
    "SolveStats",
    "SolverOptions",
    "SparseMatrix",
    "StrategyProfile",
    "UnsupportedGame",
    "ZERO_TOL",
    "build_nash_lcp",
    "canonical_knapsack_game",
    "convex_hull",
    "cover_cuts",
    "cut_and_play",
    "cyclic_matching_game",
    "decompose",
    "deviation_check",
    "full_enumeration",
    "gomory_cuts",
    "hull_contains",
    "infeasible_game",
    "dumps_canonical",
    "instance_from_document",
    "instance_to_document",
    "knapsack_rows",
    "lattice_points",
    "load_instance",
    "opponents_vector",
    "parametrized_objective",
    "payoff",
    "profile_payoffs",
    "random_knapsack_game",
    "refine_region",
    "result_to_document",
    "save_instance",
    "save_result",
    "seeded_rng",
    "separation_oracle",
    "solve_game",
    "solve_ip",
    "solve_lcp",
    "solve_lcp_with_fixings",
    "solve_lp",
    "support_from_points",
]
