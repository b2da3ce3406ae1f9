"""mapfkit: an anytime multi-agent pathfinding engine.

Step generation by priority inheritance with backtracking (optionally
swap-enhanced), a complete high-level search over configurations, and its
anytime variant that converges to optimal solutions, plus benchmark-format
I/O, a solution validator, a brute-force optimality oracle, and an
experiment harness.
"""

from .core import (
    Config,
    INF_COST,
    Instance,
    Objective,
    ScenarioError,
    Solution,
    SolutionFormatError,
    Violation,
    ViolationKind,
    edge_cost,
    format_solution,
    heuristic,
    is_connected,
    parse_scenario,
    parse_solution,
    solution_cost,
    validate,
)
from .grid import (
    DistTable,
    ExplicitGraph,
    GridMap,
    MapParseError,
    UNREACHABLE,
    VertexGraph,
    bfs_dist_table,
    parse_map,
)
from .lacam import (
    Constraint,
    HighLevelNode,
    SolveOutcome,
    SolveStats,
    SolveStatus,
    SolverOptions,
    backtrack,
    generate_configuration,
    low_level_expand,
    rewire,
    solve,
)
from .oracle import OracleLimitError, is_solvable, optimal_cost
from .pibt import (
    PibtContext,
    PinError,
    initial_priorities,
    plan_step,
    swap_required_and_possible,
    update_priorities,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "Constraint",
    "DistTable",
    "ExplicitGraph",
    "GridMap",
    "HighLevelNode",
    "INF_COST",
    "Instance",
    "MapParseError",
    "Objective",
    "OracleLimitError",
    "PibtContext",
    "PinError",
    "ScenarioError",
    "Solution",
    "SolutionFormatError",
    "SolveOutcome",
    "SolveStats",
    "SolveStatus",
    "SolverOptions",
    "UNREACHABLE",
    "VertexGraph",
    "Violation",
    "ViolationKind",
    "backtrack",
    "bfs_dist_table",
    "edge_cost",
    "format_solution",
    "generate_configuration",
    "heuristic",
    "initial_priorities",
    "is_connected",
    "is_solvable",
    "low_level_expand",
    "optimal_cost",
    "parse_map",
    "parse_scenario",
    "parse_solution",
    "plan_step",
    "rewire",
    "solution_cost",
    "solve",
    "swap_required_and_possible",
    "update_priorities",
    "validate",
]
