"""MAPF instance and solution model.

Covers scenario parsing, configuration connectivity and collision
semantics, the three cost objectives, admissible heuristics, the solution
validator, and the plain-text solution file format.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence

from .grid import DistTable, GridMap, UNREACHABLE, VertexGraph

# A configuration is one vertex per agent; the atomic joint state.
Config = tuple[int, ...]

# Exact-integer stand-in for +infinity so g/h/f arithmetic never needs floats.
INF_COST = 1 << 60


class Objective(Enum):
    """Accumulated-transition-cost objectives."""

    MAKESPAN = "makespan"
    SUM_OF_LOSS = "sum-of-loss"
    SUM_OF_FUELS = "sum-of-fuels"


class ScenarioError(ValueError):
    """A ``.scen`` file violated the expected format or the map."""


class SolutionFormatError(ValueError):
    """A solution file could not be parsed against the map."""


@dataclass(frozen=True, eq=False)
class Instance:
    """A MAPF problem: a graph plus distinct starts and distinct goals.

    Vertex ids of any integer type, NumPy's included, are stored as ``int``;
    other types raise ``TypeError``.
    """

    grid: VertexGraph
    starts: Config
    goals: Config

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", tuple(map(operator.index, self.starts)))
        object.__setattr__(self, "goals", tuple(map(operator.index, self.goals)))
        if len(self.starts) != len(self.goals):
            raise ValueError("starts and goals must have equal length")
        for v in (*self.starts, *self.goals):
            self.grid.check_vertex(v)
        if len(set(self.starts)) != len(self.starts):
            raise ValueError("start vertices must be pairwise distinct")
        if len(set(self.goals)) != len(self.goals):
            raise ValueError("goal vertices must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.starts)


class ViolationKind(Enum):
    START = "START"
    GOAL = "GOAL"
    VERTEX = "VERTEX"
    EDGE = "EDGE"
    MOVE = "MOVE"


@dataclass(frozen=True)
class Violation:
    """First point at which a solution breaks the MAPF rules.

    ``step`` indexes the configuration where the problem manifests (the
    destination configuration for transition violations).
    """

    step: int
    kind: ViolationKind
    agents: tuple[int, ...]

    def describe(self) -> str:
        who = ", ".join(str(a) for a in self.agents) or "-"
        return f"{self.kind.value} violation at step {self.step} (agents: {who})"


@dataclass
class Solution:
    """A sequence of configurations from the start to the goal configuration.

    ``verified`` is set by :func:`validate` once the sequence has passed all
    checks against an instance.
    """

    configs: list[Config]
    verified: bool = field(default=False, compare=False)

    def __len__(self) -> int:
        return len(self.configs)

    def __getitem__(self, i: int) -> Config:
        return self.configs[i]

    def __iter__(self) -> Iterator[Config]:
        return iter(self.configs)


def parse_scenario(text: str, grid: GridMap, n: int) -> tuple[Config, Config]:
    """Read the first ``n`` start/goal pairs from ``.scen`` (version 1) text.

    Rows are ``bucket map w h sx sy gx gy opt`` with (sx, sy) = (column,
    row). Starts must be pairwise distinct, as must goals. Errors name the
    offending 1-based row number.
    """
    if n < 0:
        raise ValueError("agent count must be nonnegative")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines or lines[0].strip() != "version 1":
        raise ScenarioError("scenario header must be 'version 1'")
    rows = [line for line in lines[1:] if line.strip()]
    if n > len(rows):
        raise ScenarioError(f"requested {n} agents but scenario has {len(rows)} rows")

    starts: list[int] = []
    goals: list[int] = []
    seen_starts: dict[int, int] = {}
    seen_goals: dict[int, int] = {}
    for idx in range(n):
        row = idx + 1
        fields = rows[idx].split()
        if len(fields) < 8:
            raise ScenarioError(f"row {row}: expected at least 8 fields")
        try:
            sx, sy, gx, gy = (int(f) for f in fields[4:8])
        except ValueError:
            raise ScenarioError(f"row {row}: coordinates are not integers") from None
        try:
            s = grid.vertex_at(sx, sy)
        except ValueError as exc:
            raise ScenarioError(f"row {row}: start {exc}") from None
        try:
            g = grid.vertex_at(gx, gy)
        except ValueError as exc:
            raise ScenarioError(f"row {row}: goal {exc}") from None
        if s in seen_starts:
            raise ScenarioError(
                f"row {row}: start duplicates row {seen_starts[s]}"
            )
        if g in seen_goals:
            raise ScenarioError(f"row {row}: goal duplicates row {seen_goals[g]}")
        seen_starts[s] = row
        seen_goals[g] = row
        starts.append(s)
        goals.append(g)
    return tuple(starts), tuple(goals)


def _vertex_collision_agents(q: Config) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    bad: set[int] = set()
    for i, v in enumerate(q):
        if v in seen:
            bad.add(seen[v])
            bad.add(i)
        else:
            seen[v] = i
    return tuple(sorted(bad))


def _transition_violation(
    x: Config, y: Config, graph: VertexGraph
) -> tuple[ViolationKind, tuple[int, ...]] | None:
    """First rule broken by the transition x -> y, or None.

    Checks move validity per agent, then vertex collisions in y, then edge
    collisions between x and y. Collisions within x are not examined here.
    """
    movers = [
        i for i in range(len(x)) if y[i] != x[i] and y[i] not in graph.neighbors(x[i])
    ]
    if movers:
        return ViolationKind.MOVE, tuple(movers)
    vertex_bad = _vertex_collision_agents(y)
    if vertex_bad:
        return ViolationKind.VERTEX, vertex_bad
    at: dict[int, int] = {v: i for i, v in enumerate(x)}
    swaps: set[int] = set()
    for i, v in enumerate(y):
        j = at.get(v)
        if j is not None and j != i and y[j] == x[i]:
            swaps.add(i)
            swaps.add(j)
    if swaps:
        return ViolationKind.EDGE, tuple(sorted(swaps))
    return None


def is_connected(x: Config, y: Config, graph: VertexGraph) -> bool:
    """Whether ``y`` is a legal successor configuration of ``x``.

    True iff every agent stays or moves to a neighbor, ``y`` has no vertex
    collision, and no pair of agents exchanges vertices between ``x`` and
    ``y``. ``x`` itself is assumed collision-free.
    """
    if len(x) != len(y):
        raise ValueError("configurations must have equal length")
    return _transition_violation(x, y, graph) is None


def validate(instance: Instance, solution: Solution) -> Violation | None:
    """Check a solution against an instance; None means it is valid.

    On success the solution's ``verified`` flag is set. The first violation
    in temporal order is returned otherwise. The start configuration's own
    collision-freedom is checked explicitly so externally produced files
    get full scrutiny.
    """
    configs = solution.configs
    n = instance.n
    if not configs:
        return Violation(0, ViolationKind.START, ())
    for t, q in enumerate(configs):
        if len(q) != n:
            raise ValueError(f"configuration at step {t} has arity {len(q)}, expected {n}")

    q0 = configs[0]
    mismatched = tuple(i for i in range(n) if q0[i] != instance.starts[i])
    if mismatched:
        return Violation(0, ViolationKind.START, mismatched)
    vertex_bad = _vertex_collision_agents(q0)
    if vertex_bad:
        return Violation(0, ViolationKind.VERTEX, vertex_bad)

    for t in range(1, len(configs)):
        problem = _transition_violation(configs[t - 1], configs[t], instance.grid)
        if problem is not None:
            kind, agents = problem
            return Violation(t, kind, agents)

    last = configs[-1]
    mismatched = tuple(i for i in range(n) if last[i] != instance.goals[i])
    if mismatched:
        return Violation(len(configs) - 1, ViolationKind.GOAL, mismatched)

    solution.verified = True
    return None


def edge_cost(objective: Objective, x: Config, y: Config, goals: Config) -> int:
    """Cost of the transition x -> y under the given objective.

    MAKESPAN charges 1 per step, SUM_OF_FUELS counts moving agents, and
    SUM_OF_LOSS counts agents not resting on their goal.
    """
    if not (len(x) == len(y) == len(goals)):
        raise ValueError("configurations and goals must have equal length")
    if objective is Objective.MAKESPAN:
        return 1
    if objective is Objective.SUM_OF_FUELS:
        return sum(1 for a, b in zip(x, y) if a != b)
    return sum(1 for a, b, g in zip(x, y, goals) if not (a == b == g))


def edge_cost_fn(objective: Objective, goals: Config):
    """Specialized transition-cost function for hot search loops.

    Semantically identical to :func:`edge_cost` with ``goals`` bound.
    """
    if objective is Objective.MAKESPAN:
        return lambda x, y: 1
    if objective is Objective.SUM_OF_FUELS:

        def fuels(x: Config, y: Config) -> int:
            total = 0
            for a, b in zip(x, y):
                if a != b:
                    total += 1
            return total

        return fuels

    def loss(x: Config, y: Config) -> int:
        total = 0
        for a, b, g in zip(x, y, goals):
            if a != b or a != g:
                total += 1
        return total

    return loss


def solution_cost(
    objective: Objective, solution: Sequence[Config], goals: Config
) -> int:
    """Accumulated transition cost; a single-configuration solution costs 0."""
    if len(solution) == 0:
        raise ValueError("solution must contain at least one configuration")
    total = 0
    for t in range(1, len(solution)):
        total += edge_cost(objective, solution[t - 1], solution[t], goals)
    return total


def heuristic(
    objective: Objective, q: Config, dist_tables: Sequence[DistTable]
) -> int:
    """Admissible lower bound on the remaining cost from ``q``.

    Per-agent BFS distances are summed for the sum objectives and maxed for
    makespan. Any unreachable goal yields ``INF_COST``.
    """
    dists = []
    for i, v in enumerate(q):
        d = dist_tables[i][v]
        if d == UNREACHABLE:
            return INF_COST
        dists.append(d)
    if objective is Objective.MAKESPAN:
        return max(dists, default=0)
    return sum(dists)


def format_solution(solution: Sequence[Config], grid: GridMap) -> str:
    """Render a solution in the plain-text interchange format.

    Line 0 repeats the start configuration as ``starts=(x,y),...`` and each
    following line holds one configuration as ``t:(x,y),...`` with t counted
    from 0.
    """
    if len(solution) == 0:
        raise ValueError("cannot format an empty solution")

    def fmt(q: Config) -> str:
        return ",".join("({},{})".format(*grid.coords(v)) for v in q)

    lines = [f"starts={fmt(solution[0])}"]
    for t in range(len(solution)):
        lines.append(f"{t}:{fmt(solution[t])}")
    return "\n".join(lines) + "\n"


_COORD_RE = re.compile(r"\((-?\d+),(-?\d+)\)")


def _parse_config_coords(body: str, grid: GridMap, lineno: int) -> Config:
    body = body.strip()
    pairs = _COORD_RE.findall(body)
    rebuilt = ",".join(f"({x},{y})" for x, y in pairs)
    if rebuilt != body:
        raise SolutionFormatError(f"line {lineno}: malformed configuration {body!r}")
    vertices = []
    for x, y in pairs:
        try:
            vertices.append(grid.vertex_at(int(x), int(y)))
        except ValueError as exc:
            raise SolutionFormatError(f"line {lineno}: {exc}") from None
    return tuple(vertices)


def parse_solution(text: str, grid: GridMap) -> Solution:
    """Parse solution text produced by :func:`format_solution`."""
    lines = [ln for ln in text.replace("\r\n", "\n").split("\n") if ln.strip()]
    if not lines or not lines[0].startswith("starts="):
        raise SolutionFormatError("line 1: expected 'starts=' prefix")
    starts = _parse_config_coords(lines[0][len("starts=") :], grid, 1)
    configs: list[Config] = []
    for idx, line in enumerate(lines[1:]):
        lineno = idx + 2
        head, sep, body = line.partition(":")
        if not sep or head.strip() != str(idx):
            raise SolutionFormatError(f"line {lineno}: expected step index {idx}")
        q = _parse_config_coords(body, grid, lineno)
        if len(q) != len(starts):
            raise SolutionFormatError(
                f"line {lineno}: expected {len(starts)} agents, found {len(q)}"
            )
        configs.append(q)
    if not configs:
        raise SolutionFormatError("solution holds no configurations")
    if configs[0] != starts:
        raise SolutionFormatError("line 2: step 0 does not match the starts line")
    return Solution(configs=configs)
