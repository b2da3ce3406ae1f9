"""High-level search over configurations with lazy constraint addition.

LaCAM explores the graph whose vertices are configurations, using the step
generator from :mod:`mapfkit.pibt` to produce successors lazily. Each search
node carries a constraint tree: a breadth-first queue of agent-to-vertex
pins that steers the generator toward successors it would not pick on its
own, which makes the search exhaustive and therefore complete.

The anytime variant (LaCAM*) keeps searching after the goal configuration
is found: every arc between known nodes is recorded, and g-values and
parent pointers are rewritten by Dijkstra waves so that backtracking always
yields a shortest path in the discovered graph. Run to open-list
exhaustion, it returns an optimal solution; interrupted, it returns the
best solution found so far.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from .core import (
    Config,
    INF_COST,
    Instance,
    Objective,
    Solution,
    edge_cost_fn,
    heuristic,
)
from .grid import UNREACHABLE, VertexGraph
from .pibt import (
    PibtContext,
    PinError,
    StepRequest,
    bumped_priorities,
    initial_priorities,
    plan_step,
)


@dataclass(slots=True)
class Constraint:
    """One low-level tree node: pin agent ``who`` to vertex ``where``.

    The root has no pin; a tree node represents all pins on its root path.
    Agents on one root path are pairwise distinct by construction.
    """

    parent: Constraint | None = None
    who: int | None = None
    where: int | None = None
    depth: int = 0


@dataclass(eq=False, slots=True)
class HighLevelNode:
    """Search node: one per discovered configuration."""

    config: Config
    tree: deque[Constraint]
    parent: HighLevelNode | None
    # Successor -> weight of the arc to it, in the order the arcs were found.
    neighbors: dict[HighLevelNode, int]
    g: int
    h: int
    order: list[int]
    priorities: list[float]

    @property
    def f(self) -> int:
        return self.g + self.h


class SolveStatus(Enum):
    OPTIMAL = "OPTIMAL"
    SUBOPTIMAL = "SUBOPTIMAL"
    NO_SOLUTION = "NO_SOLUTION"
    FAILURE = "FAILURE"


@dataclass
class SolveStats:
    iterations: int = 0
    node_count: int = 0
    elapsed_ms: float = 0.0
    # (elapsed_ms, cost) recorded at every improvement of the incumbent.
    trace: list[tuple[float, int]] = field(default_factory=list)


@dataclass
class SolveOutcome:
    status: SolveStatus
    solution: Solution | None
    cost: int | None
    stats: SolveStats


@dataclass
class SolverOptions:
    """Knobs for :func:`solve`.

    ``anytime`` selects the optimal-converging variant; with it off the
    search returns at the first goal discovery and makes no optimality
    claim. ``discard_enabled`` controls skipping of nodes that cannot beat
    the incumbent (plus their revival on g-improvement); disabling it is
    mainly useful for measuring its effect. ``debug_check_g`` recomputes
    every stored arc weight and re-derives every g-value with a reference
    Dijkstra at each iteration, and ``improvement_callback`` receives
    (cost, solution) whenever the incumbent improves; both are test
    instrumentation.
    """

    objective: Objective = Objective.SUM_OF_LOSS
    time_budget: float | None = None
    iteration_budget: int | None = None
    anytime: bool = True
    swap_enabled: bool = True
    restart_probability: float = 0.001
    seed: int = 0
    discard_enabled: bool = True
    debug_check_g: bool = False
    improvement_callback: Callable[[int, Solution], None] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.restart_probability <= 1.0:
            raise ValueError("restart_probability must be in [0, 1]")
        if self.time_budget is not None and not (
            math.isfinite(self.time_budget) and self.time_budget >= 0
        ):
            raise ValueError("time_budget must be a finite number >= 0 or None")
        if self.iteration_budget is not None and self.iteration_budget < 0:
            raise ValueError("iteration_budget must be >= 0 or None")


def get_init_order(instance: Instance, dist_tables) -> list[int]:
    """Constraint order for the root node: farthest-from-goal agents first."""
    return sorted(
        range(instance.n),
        key=lambda i: (-dist_tables[i][instance.starts[i]], i),
    )


def get_order(priorities: Sequence[float]) -> list[int]:
    """Constraint order from a priority snapshot, highest priority first."""
    return sorted(range(len(priorities)), key=lambda i: -priorities[i])


def low_level_expand(node: HighLevelNode, constraint: Constraint, graph: VertexGraph) -> None:
    """Grow the node's constraint tree below a just-popped constraint.

    The next unconstrained agent (per the node's order) gets one child per
    possible location. Nothing is added once every agent is pinned.
    """
    n = len(node.config)
    if constraint.depth >= n:
        return
    agent = node.order[constraint.depth]
    here = node.config[agent]
    depth = constraint.depth + 1
    append = node.tree.append
    for u in (*graph.adjacency[here], here):
        append(Constraint(parent=constraint, who=agent, where=u, depth=depth))


def pins_from_constraint(constraint: Constraint) -> dict[int, int]:
    pins: dict[int, int] = {}
    c = constraint
    while c.parent is not None:
        assert c.who is not None and c.where is not None
        pins[c.who] = c.where
        c = c.parent
    return pins


def generate_configuration(
    node: HighLevelNode, constraint: Constraint, ctx: PibtContext
) -> Config | None:
    """Run the step generator under the constraint's pins; None on failure.

    Mutually colliding or off-neighborhood pins (the constraint tree does
    enumerate such combinations) are rejected as None rather than raised.
    """
    pins = pins_from_constraint(constraint)
    ctx.priorities = node.priorities
    ctx.order = node.order
    try:
        return plan_step(ctx, StepRequest(q_from=node.config, pins=pins))
    except PinError:
        return None


def rewire(
    from_node: HighLevelNode,
    goal_node: HighLevelNode | None = None,
    open_stack: list[HighLevelNode] | None = None,
) -> None:
    """Propagate a g-improvement wave after a new arc out of ``from_node``.

    Dijkstra over the recorded weighted arcs, in the order they were found,
    updating g and parent wherever strictly improved. When both
    ``goal_node`` and ``open_stack`` are given, updated nodes that can now
    beat the incumbent are pushed back for re-examination.
    """
    revive = goal_node is not None and open_stack is not None
    goal_f = goal_node.g + goal_node.h if revive else 0
    counter = itertools.count()
    heap: list[tuple[int, int, HighLevelNode]] = [(from_node.g, next(counter), from_node)]
    while heap:
        g_from, _, nf = heapq.heappop(heap)
        if g_from > nf.g:
            continue
        for nt, weight in nf.neighbors.items():
            g_new = g_from + weight
            if g_new < nt.g:
                nt.g = g_new
                nt.parent = nf
                heapq.heappush(heap, (g_new, next(counter), nt))
                if revive:
                    if nt is goal_node:
                        # The incumbent itself improved: later nodes must beat it.
                        goal_f = g_new + nt.h
                    elif g_new + nt.h < goal_f:
                        open_stack.append(nt)


def backtrack(node: HighLevelNode) -> Solution:
    """Configuration sequence from the start to ``node`` via parent links."""
    configs: list[Config] = []
    seen: set[int] = set()
    cur: HighLevelNode | None = node
    while cur is not None:
        if id(cur) in seen:
            raise RuntimeError("parent chain contains a cycle")
        seen.add(id(cur))
        configs.append(cur.config)
        cur = cur.parent
    configs.reverse()
    return Solution(configs=configs)


def _reference_g_values(
    start: HighLevelNode, objective: Objective, goals: Config
) -> dict[HighLevelNode, int]:
    """Independent Dijkstra over the discovered arcs.

    Every arc's cost is recomputed from the two configurations and must
    equal the weight stored with the arc.
    """
    dist: dict[HighLevelNode, int] = {start: 0}
    ecost = edge_cost_fn(objective, goals)
    counter = itertools.count()
    heap: list[tuple[int, int, HighLevelNode]] = [(0, next(counter), start)]
    while heap:
        d, _, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for nxt, stored in node.neighbors.items():
            cost = ecost(node.config, nxt.config)
            if cost != stored:
                raise AssertionError(
                    f"arc weight drift {node.config} -> {nxt.config}: "
                    f"stored {stored}, recomputed {cost}"
                )
            nd = d + cost
            if nd < dist.get(nxt, INF_COST):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, next(counter), nxt))
    return dist


def _assert_g_consistent(start: HighLevelNode, objective: Objective, goals: Config) -> None:
    """Check every g-value reachable from ``start`` against the reference."""
    for node, expect in _reference_g_values(start, objective, goals).items():
        if node.g != expect:
            raise AssertionError(
                f"g-value drift at {node.config}: stored {node.g}, "
                f"shortest path {expect}"
            )


def solve(instance: Instance, options: SolverOptions | None = None) -> SolveOutcome:
    """Solve a MAPF instance; see :class:`SolverOptions` for the variants.

    Returns OPTIMAL only when the open list was exhausted with a goal node
    in hand, SUBOPTIMAL when interrupted (or non-anytime) with a solution,
    NO_SOLUTION when the search space was exhausted without one, and
    FAILURE when interrupted empty-handed.
    """
    opts = options if options is not None else SolverOptions()
    started = time.monotonic()
    objective = opts.objective
    grid = instance.grid
    goals = instance.goals
    n = instance.n

    stats = SolveStats()

    def elapsed_ms() -> float:
        return (time.monotonic() - started) * 1000.0

    def finish(
        status: SolveStatus, solution: Solution | None, cost: int | None
    ) -> SolveOutcome:
        stats.elapsed_ms = elapsed_ms()
        return SolveOutcome(status=status, solution=solution, cost=cost, stats=stats)

    dist_tables = [grid.dist_table(g) for g in goals]
    for i in range(n):
        if dist_tables[i][instance.starts[i]] == UNREACHABLE:
            return finish(SolveStatus.NO_SOLUTION, None, None)

    rng = random.Random(opts.seed)
    ctx = PibtContext(grid, goals, swap_enabled=opts.swap_enabled, rng=rng)
    ecost = edge_cost_fn(objective, goals)

    root = HighLevelNode(
        config=instance.starts,
        tree=deque([Constraint()]),
        parent=None,
        neighbors={},
        g=0,
        h=heuristic(objective, instance.starts, dist_tables),
        order=get_init_order(instance, dist_tables),
        priorities=initial_priorities(n),
    )
    open_stack: list[HighLevelNode] = [root]
    explored: dict[Config, HighLevelNode] = {instance.starts: root}
    goal_node: HighLevelNode | None = None
    last_reported: int | None = None

    def interrupted() -> bool:
        if opts.iteration_budget is not None and stats.iterations >= opts.iteration_budget:
            return True
        if opts.time_budget is not None and time.monotonic() - started >= opts.time_budget:
            return True
        return False

    def report_incumbent() -> None:
        nonlocal last_reported
        assert goal_node is not None
        if last_reported is None or goal_node.g < last_reported:
            last_reported = goal_node.g
            stats.trace.append((elapsed_ms(), goal_node.g))
            if opts.improvement_callback is not None:
                opts.improvement_callback(goal_node.g, backtrack(goal_node))

    while open_stack:
        if interrupted():
            break
        stats.iterations += 1
        if opts.debug_check_g:
            _assert_g_consistent(root, objective, goals)

        node = open_stack[-1]

        if node.config == goals:
            goal_node = node
            report_incumbent()
            if not opts.anytime:
                break

        if (
            opts.discard_enabled
            and goal_node is not None
            and goal_node.f <= node.f
        ):
            open_stack.pop()
            continue

        if not node.tree:
            open_stack.pop()
            continue

        constraint = node.tree.popleft()
        low_level_expand(node, constraint, grid)
        q_new = generate_configuration(node, constraint, ctx)
        if q_new is None:
            continue

        known = explored.get(q_new)
        if known is not None:
            if known not in node.neighbors:
                node.neighbors[known] = ecost(node.config, q_new)
                rewire(node, goal_node, open_stack if opts.discard_enabled else None)
            # Reinsertion keeps deep branches alive; the rare restart pushes
            # the root instead so the search can escape bottleneck regions.
            if rng.random() < opts.restart_probability:
                open_stack.append(root)
            else:
                open_stack.append(known)
        else:
            child_priorities = bumped_priorities(node.priorities, q_new, goals)
            weight = ecost(node.config, q_new)
            child = HighLevelNode(
                config=q_new,
                tree=deque([Constraint()]),
                parent=node,
                neighbors={},
                g=node.g + weight,
                h=heuristic(objective, q_new, dist_tables),
                order=get_order(child_priorities),
                priorities=child_priorities,
            )
            node.neighbors[child] = weight
            explored[q_new] = child
            open_stack.append(child)

        if goal_node is not None:
            report_incumbent()

    stats.node_count = len(explored)
    exhausted = not open_stack

    if goal_node is not None:
        solution = backtrack(goal_node)
        status = SolveStatus.OPTIMAL if exhausted else SolveStatus.SUBOPTIMAL
        return finish(status, solution, goal_node.g)
    if exhausted:
        return finish(SolveStatus.NO_SOLUTION, None, None)
    return finish(SolveStatus.FAILURE, None, None)
