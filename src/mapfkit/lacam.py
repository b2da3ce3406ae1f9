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
import struct
import time
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .core import (
    Config,
    INF_COST,
    Instance,
    Objective,
    Solution,
    edge_cost_fn,
    heuristic,
)
from .grid import VertexGraph
from .pibt import (
    PibtContext,
    PinError,
    plan_step,
    step_counts,
    step_order,
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


# The root constraint of every node's queue. Nothing mutates a Constraint,
# so one instance serves all nodes.
_NO_PINS = Constraint()


def config_codec(
    graph: VertexGraph, n: int
) -> tuple[Callable[[Config], bytes], Callable[[bytes], Config], Callable[[bytes], Config]]:
    """``pack``, ``unpack`` and ``unpack_shared`` for n-agent configurations.

    ``pack(q)`` stores each vertex id in the narrowest unsigned width that
    holds every id of ``graph``: one byte up to 256 vertices, two up to
    65,536, four beyond. ``unpack`` returns the tuple again. Wider ids come
    back as new int objects; ``unpack_shared`` returns the ones the graph's
    adjacency rows hold instead, so a solution that outlives the search
    costs no int object per cell. One-byte ids are CPython's shared small
    ints either way.
    """
    size = graph.num_vertices
    if size <= 1 << 8:
        # bytes and tuple, not a struct layout: in a freshly forked process
        # a layout's first use faulted in 8-10 more pages before a 3-agent
        # search found its first solution, and that took ~8% longer.
        return bytes, tuple, tuple
    layout = struct.Struct(f"{n}{'H' if size <= 1 << 16 else 'I'}")
    ids: list[int] = []

    def unpack_shared(packed: bytes) -> Config:
        if not ids:
            # Built on first use: a search that returns nothing never pays.
            ids.extend([-1] * size)
            for row in graph.adjacency:
                for u in row:
                    ids[u] = u
            for v, u in enumerate(ids):
                if u < 0:
                    ids[v] = v  # no row names v
        return tuple(map(ids.__getitem__, layout.unpack(packed)))

    return (lambda q: layout.pack(*q)), layout.unpack, unpack_shared


@dataclass(eq=False, slots=True)
class HighLevelNode:
    """Search node: one per discovered configuration.

    A run keeps every node, so the fields are kept small. ``config`` is the
    configuration packed by the search's :func:`config_codec`. ``tree`` is
    the constraint queue, read from index ``popped`` on and emptied once
    spent. ``steps`` holds :func:`mapfkit.pibt.step_counts`, an unsigned
    array of 16-bit ints unless a count has passed 65,535. The agent order
    is not stored: the search derives it when the node is popped, as
    :func:`get_init_order` at the root and :func:`mapfkit.pibt.step_order`
    below it.
    """

    config: bytes
    tree: list[Constraint]
    popped: int
    # Left out of the repr, which would otherwise walk the whole search graph.
    parent: HighLevelNode | None = field(repr=False)
    # Successor -> weight of the arc to it, in the order the arcs were found.
    neighbors: dict[HighLevelNode, int] = field(repr=False)
    g: int
    h: int
    steps: array


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

    ``time_budget`` is checked before each iteration, so it does not cover
    set-up: the root's heuristic reads search every agent's distance table
    out to its start before the first check. On a 128x128 map with 500
    agents that alone takes about a second, so a 0.05 s budget returns
    FAILURE with 0 iterations after that second.
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
        self.objective = Objective(self.objective)
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


def low_level_expand(
    tree: list[Constraint],
    q: Config,
    constraint: Constraint,
    graph: VertexGraph,
    order: list[int],
) -> None:
    """Grow a node's constraint ``tree`` below a just-popped constraint.

    ``q`` is the node's configuration. The next unconstrained agent (per
    the node's agent ``order``) gets one child per possible location.
    Nothing is added once every agent is pinned.
    """
    if constraint.depth >= len(q):
        return
    agent = order[constraint.depth]
    here = q[agent]
    depth = constraint.depth + 1
    append = tree.append
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
    q: Config, constraint: Constraint, ctx: PibtContext, order: list[int]
) -> Config | None:
    """Run the step generator from ``q`` in ``order`` under the constraint's pins.

    Returns None on failure. Mutually colliding or off-neighborhood pins
    (the constraint tree does enumerate such combinations) are rejected as
    None rather than raised.
    """
    try:
        return plan_step(ctx, q, pins_from_constraint(constraint), order)
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


def backtrack(node: HighLevelNode, unpack: Callable[[bytes], Config]) -> Solution:
    """Configuration sequence from the start to ``node`` via parent links.

    ``unpack`` turns a node's packed configuration into the returned
    tuple; the search passes :func:`config_codec`'s ``unpack_shared``.
    """
    configs: list[Config] = []
    seen: set[int] = set()
    cur: HighLevelNode | None = node
    while cur is not None:
        if id(cur) in seen:
            raise RuntimeError("parent chain contains a cycle")
        seen.add(id(cur))
        configs.append(unpack(cur.config))
        cur = cur.parent
    configs.reverse()
    return Solution(configs=configs)


def _reference_g_values(
    start: HighLevelNode,
    objective: Objective,
    goals: Config,
    unpack: Callable[[bytes], Config],
) -> dict[HighLevelNode, int]:
    """Independent Dijkstra over the discovered arcs.

    Every arc's cost is recomputed from the two configurations, unpacked
    with ``unpack``, and must equal the weight stored with the arc.
    """
    dist: dict[HighLevelNode, int] = {start: 0}
    ecost = edge_cost_fn(objective, goals)
    counter = itertools.count()
    heap: list[tuple[int, int, HighLevelNode]] = [(0, next(counter), start)]
    while heap:
        d, _, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        q = unpack(node.config)
        for nxt, stored in node.neighbors.items():
            q_next = unpack(nxt.config)
            cost = ecost(q, q_next)
            if cost != stored:
                raise AssertionError(
                    f"arc weight drift {q} -> {q_next}: "
                    f"stored {stored}, recomputed {cost}"
                )
            nd = d + cost
            if nd < dist.get(nxt, INF_COST):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, next(counter), nxt))
    return dist


def _assert_g_consistent(
    start: HighLevelNode,
    objective: Objective,
    goals: Config,
    unpack: Callable[[bytes], Config],
) -> None:
    """Check every g-value reachable from ``start`` against the reference."""
    for node, expect in _reference_g_values(start, objective, goals, unpack).items():
        if node.g != expect:
            raise AssertionError(
                f"g-value drift at {unpack(node.config)}: stored {node.g}, "
                f"shortest path {expect}"
            )


class _Search:
    """One run of the search: owns every piece of its mutable state.

    Each :meth:`step` runs one iteration of the main loop; :func:`solve`
    decides when to stop. The engine functions it calls are looked up in
    this module at call time, so they can be wrapped from outside.
    """

    __slots__ = (
        "started", "opts", "stats", "ctx", "ecost",
        "pack", "unpack", "unpack_shared", "goal_config",
        "root", "root_order", "order_node", "order", "q",
        "open_stack", "explored", "goal_node",
    )

    def __init__(self, instance: Instance, opts: SolverOptions):
        self.started = time.monotonic()
        self.opts = opts
        self.stats = SolveStats()
        # The context's RNG also draws the search's restarts: one stream.
        self.ctx = PibtContext(
            instance.grid, instance.goals, seed=opts.seed, swap_enabled=opts.swap_enabled
        )
        self.ecost = edge_cost_fn(opts.objective, instance.goals)
        self.pack, self.unpack, self.unpack_shared = config_codec(instance.grid, instance.n)
        self.goal_config = self.pack(instance.goals)
        dist_tables = self.ctx.dist_tables
        self.root = HighLevelNode(
            config=self.pack(instance.starts),
            tree=[_NO_PINS],
            popped=0,
            parent=None,
            neighbors={},
            g=0,
            h=heuristic(opts.objective, instance.starts, dist_tables),
            steps=array("H", [0]) * instance.n,
        )
        # The root's order is not the step order of its all-zero counts.
        self.root_order = get_init_order(instance, dist_tables)
        # The last expanded node, its order and its unpacked configuration:
        # after a failed generator call the same node is expanded again at once.
        self.order_node: HighLevelNode | None = None
        self.order: list[int] = []
        self.q: Config = ()
        self.open_stack: list[HighLevelNode] = []
        # Keyed by packed configuration, as each node's ``config``.
        self.explored: dict[bytes, HighLevelNode] = {}
        self.goal_node: HighLevelNode | None = None
        # A start cut off from its goal (h is INF_COST) leaves the open list
        # empty, so the search ends exhausted without a goal: NO_SOLUTION.
        if self.root.h < INF_COST:
            self.open_stack.append(self.root)
            self.explored[self.root.config] = self.root

    def elapsed_ms(self) -> float:
        return (time.monotonic() - self.started) * 1000.0

    def interrupted(self) -> bool:
        budget = self.opts.iteration_budget
        if budget is not None and self.stats.iterations >= budget:
            return True
        budget_s = self.opts.time_budget
        return budget_s is not None and time.monotonic() - self.started >= budget_s

    def report_incumbent(self, goal_node: HighLevelNode) -> None:
        """Record the goal node's g; called when it is found or lowered."""
        self.stats.trace.append((self.elapsed_ms(), goal_node.g))
        if self.opts.improvement_callback is not None:
            self.opts.improvement_callback(
                goal_node.g, backtrack(goal_node, self.unpack_shared)
            )

    def step(self) -> bool:
        """Run one iteration; False once a non-anytime search has a solution."""
        opts = self.opts
        open_stack = self.open_stack
        self.stats.iterations += 1
        if opts.debug_check_g:
            _assert_g_consistent(
                self.root, opts.objective, self.ctx.goals, self.unpack
            )

        node = open_stack[-1]

        if self.goal_node is None and node.config == self.goal_config:
            self.goal_node = node
            self.report_incumbent(node)
            if not opts.anytime:
                return False

        goal_node = self.goal_node
        if (
            opts.discard_enabled
            and goal_node is not None
            and goal_node.g + goal_node.h <= node.g + node.h
        ):
            open_stack.pop()
            return True

        tree = node.tree
        popped = node.popped
        if popped == len(tree):
            open_stack.pop()
            return True

        if node is not self.order_node:
            self.order_node = node
            self.order = self.root_order if node is self.root else step_order(node.steps)
            self.q = self.unpack(node.config)
        order = self.order
        q = self.q

        constraint = tree[popped]
        popped += 1
        low_level_expand(tree, q, constraint, self.ctx.graph, order)
        if popped == len(tree):
            # Spent: free the constraints that no child refers to. The
            # node still reads as exhausted.
            tree.clear()
            popped = 0
        node.popped = popped
        q_new = generate_configuration(q, constraint, self.ctx, order)
        if q_new is None:
            return True

        packed = self.pack(q_new)
        known = self.explored.get(packed)
        if known is not None:
            if known not in node.neighbors:
                weight = self.ecost(q, q_new)
                node.neighbors[known] = weight
                # g-values are shortest over the arcs recorded before this
                # one, so only an arc that lowers known.g can change any.
                if node.g + weight < known.g:
                    incumbent = goal_node.g if goal_node is not None else INF_COST
                    rewire(node, goal_node, open_stack if opts.discard_enabled else None)
                    if goal_node is not None and goal_node.g < incumbent:
                        self.report_incumbent(goal_node)
            # Reinsertion keeps deep branches alive; the rare restart pushes
            # the root instead so the search can escape bottleneck regions.
            if self.ctx.rng.random() < opts.restart_probability:
                open_stack.append(self.root)
            else:
                open_stack.append(known)
        else:
            steps = step_counts(node.steps, q_new, self.ctx.goals)
            weight = self.ecost(q, q_new)
            child = HighLevelNode(
                config=packed,
                tree=[_NO_PINS],
                popped=0,
                parent=node,
                neighbors={},
                g=node.g + weight,
                h=heuristic(opts.objective, q_new, self.ctx.dist_tables),
                steps=steps,
            )
            node.neighbors[child] = weight
            self.explored[packed] = child
            open_stack.append(child)
        return True

    def outcome(self) -> SolveOutcome:
        stats = self.stats
        stats.node_count = len(self.explored)
        stats.elapsed_ms = self.elapsed_ms()
        exhausted = not self.open_stack
        goal_node = self.goal_node
        if goal_node is not None:
            status = SolveStatus.OPTIMAL if exhausted else SolveStatus.SUBOPTIMAL
            solution = backtrack(goal_node, self.unpack_shared)
            return SolveOutcome(status, solution, goal_node.g, stats)
        status = SolveStatus.NO_SOLUTION if exhausted else SolveStatus.FAILURE
        return SolveOutcome(status, None, None, stats)


def solve(instance: Instance, options: SolverOptions | None = None) -> SolveOutcome:
    """Solve a MAPF instance; see :class:`SolverOptions` for the variants.

    Returns OPTIMAL only when the open list was exhausted with a goal node
    in hand, SUBOPTIMAL when interrupted (or non-anytime) with a solution,
    NO_SOLUTION when the search space was exhausted without one, and
    FAILURE when interrupted empty-handed.
    """
    search = _Search(instance, options if options is not None else SolverOptions())
    while search.open_stack and not search.interrupted():
        if not search.step():
            break
    return search.outcome()
