from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from mapfkit import (
    GridMap,
    Instance,
    Objective,
    ScenarioError,
    Solution,
    SolutionFormatError,
    ViolationKind,
    edge_cost,
    format_solution,
    heuristic,
    parse_map,
    parse_scenario,
    parse_solution,
    solution_cost,
    validate,
)
from mapfkit.core import INF_COST, _transition_violation, edge_cost_fn, is_connected


def open_grid(w: int, h: int) -> GridMap:
    return GridMap(w, h, [True] * (w * h))


SCEN_2ROW = (
    "version 1\n"
    "0\tm.map\t3\t3\t0\t0\t2\t2\t4.0\n"
    "0\tm.map\t3\t3\t2\t0\t0\t2\t4.0\n"
)


class TestParseScenario:
    def test_first_row_only(self):
        grid = open_grid(3, 3)
        starts, goals = parse_scenario(SCEN_2ROW, grid, 1)
        assert starts == (grid.vertex_at(0, 0),)
        assert goals == (grid.vertex_at(2, 2),)

    def test_zero_agents(self):
        starts, goals = parse_scenario(SCEN_2ROW, open_grid(3, 3), 0)
        assert starts == () and goals == ()

    def test_goal_on_blocked_cell_names_row(self):
        grid = parse_map("type octile\nheight 1\nwidth 3\nmap\n.@.\n")
        text = "version 1\n0\tm.map\t3\t1\t0\t0\t1\t0\t1.0\n"
        with pytest.raises(ScenarioError, match="row 1.*goal"):
            parse_scenario(text, grid, 1)

    def test_too_many_agents(self):
        with pytest.raises(ScenarioError, match="2 rows"):
            parse_scenario(SCEN_2ROW, open_grid(3, 3), 3)

    def test_duplicate_start_rejected(self):
        text = (
            "version 1\n"
            "0\tm\t3\t3\t0\t0\t2\t2\t1\n"
            "0\tm\t3\t3\t0\t0\t1\t1\t1\n"
        )
        with pytest.raises(ScenarioError, match="row 2: start duplicates row 1"):
            parse_scenario(text, open_grid(3, 3), 2)

    def test_duplicate_goal_rejected(self):
        text = (
            "version 1\n"
            "0\tm\t3\t3\t0\t0\t2\t2\t1\n"
            "0\tm\t3\t3\t1\t0\t2\t2\t1\n"
        )
        with pytest.raises(ScenarioError, match="row 2: goal"):
            parse_scenario(text, open_grid(3, 3), 2)

    def test_bad_header(self):
        with pytest.raises(ScenarioError, match="version"):
            parse_scenario("version 7\n", open_grid(2, 2), 0)


class TestInstance:
    def test_duplicate_starts_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Instance(grid=open_grid(2, 2), starts=(0, 0), goals=(1, 2))

    def test_empty_instance_allowed(self):
        inst = Instance(grid=open_grid(2, 2), starts=(), goals=())
        assert inst.n == 0

    def test_numpy_vertex_ids_stored_as_int(self):
        np = pytest.importorskip("numpy")
        inst = Instance(grid=open_grid(2, 2), starts=(np.int64(0),), goals=np.array([3]))
        assert inst.starts == (0,) and inst.goals == (3,)
        assert all(type(v) is int for v in (*inst.starts, *inst.goals))

    @pytest.mark.parametrize("bad", [1.0, "1", None])
    def test_non_integer_vertex_ids_rejected(self, bad):
        with pytest.raises(TypeError):
            Instance(grid=open_grid(2, 2), starts=(bad,), goals=(2,))


class TestIsConnected:
    def test_all_stay(self):
        grid = open_grid(3, 1)
        assert is_connected((0, 2), (0, 2), grid)

    def test_exchange_rejected(self):
        grid = open_grid(3, 1)
        assert not is_connected((0, 1), (1, 0), grid)

    def test_shared_target_rejected(self):
        grid = open_grid(3, 1)
        assert not is_connected((0, 2), (1, 1), grid)

    def test_following_allowed(self):
        grid = open_grid(3, 1)
        assert is_connected((0, 1), (1, 2), grid)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            is_connected((0,), (0, 1), open_grid(2, 2))


class TestValidate:
    def test_trivial_stay_solution(self):
        grid = open_grid(2, 1)
        inst = Instance(grid=grid, starts=(0,), goals=(0,))
        sol = Solution(configs=[(0,)])
        assert validate(inst, sol) is None

    def test_teleport_reported_as_move(self):
        grid = open_grid(4, 1)
        inst = Instance(grid=grid, starts=(0,), goals=(3,))
        sol = Solution(configs=[(0,), (2,), (3,)])
        violation = validate(inst, sol)
        assert violation is not None
        assert violation.kind is ViolationKind.MOVE
        assert violation.step == 1
        assert violation.agents == (0,)

    def test_wrong_start(self):
        grid = open_grid(3, 1)
        inst = Instance(grid=grid, starts=(0,), goals=(2,))
        violation = validate(inst, Solution(configs=[(1,), (2,)]))
        assert violation.kind is ViolationKind.START and violation.step == 0

    def test_wrong_goal(self):
        grid = open_grid(3, 1)
        inst = Instance(grid=grid, starts=(0,), goals=(2,))
        violation = validate(inst, Solution(configs=[(0,), (1,)]))
        assert violation.kind is ViolationKind.GOAL
        assert violation.step == 1

    def test_edge_collision_detected(self):
        grid = open_grid(4, 1)
        inst = Instance(grid=grid, starts=(0, 1), goals=(2, 3))
        # both advance, then the middle configuration is corrupted into an exchange
        sol = Solution(configs=[(0, 1), (1, 2), (2, 1), (2, 3)])
        violation = validate(inst, sol)
        assert violation.kind is ViolationKind.EDGE
        assert violation.step == 2
        assert violation.agents == (0, 1)

    def test_vertex_collision_detected(self):
        grid = open_grid(3, 1)
        inst = Instance(grid=grid, starts=(0, 2), goals=(0, 2))
        sol = Solution(configs=[(0, 2), (1, 1), (0, 2)])
        violation = validate(inst, sol)
        assert violation.kind is ViolationKind.VERTEX
        assert violation.step == 1

    def test_empty_solution(self):
        grid = open_grid(2, 1)
        inst = Instance(grid=grid, starts=(0,), goals=(1,))
        violation = validate(inst, Solution(configs=[]))
        assert violation.kind is ViolationKind.START

    def test_matches_independent_checker_on_random_sequences(self):
        """Random (often invalid) sequences: agree with a re-derived checker."""

        def independent_ok(inst: Instance, configs) -> bool:
            if not configs or configs[0] != inst.starts or configs[-1] != inst.goals:
                return False
            if len(set(configs[0])) != len(configs[0]):
                return False
            for x, y in zip(configs, configs[1:]):
                for i in range(inst.n):
                    if y[i] != x[i] and y[i] not in inst.grid.neighbors(x[i]):
                        return False
                if len(set(y)) != len(y):
                    return False
                for i in range(inst.n):
                    for j in range(inst.n):
                        if i != j and x[i] == y[j] and y[i] == x[j]:
                            return False
            return True

        rng = random.Random(99)
        grid = open_grid(3, 3)
        agree = disagree = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            starts = tuple(rng.sample(range(9), n))
            goals = tuple(rng.sample(range(9), n))
            inst = Instance(grid=grid, starts=starts, goals=goals)
            configs = [starts]
            for _ in range(rng.randint(0, 4)):
                prev = configs[-1]
                nxt = tuple(
                    rng.choice([*grid.neighbors(prev[i]), prev[i]])
                    for i in range(n)
                )
                configs.append(nxt)
            if rng.random() < 0.5:
                configs.append(goals)
            ok = validate(inst, Solution(configs=list(configs))) is None
            assert ok == independent_ok(inst, configs)
            agree += ok
            disagree += not ok
        assert agree > 0 and disagree > 0  # both outcomes exercised


class TestCosts:
    def test_makespan_edge_is_always_one(self):
        grid = open_grid(2, 2)
        assert edge_cost(Objective.MAKESPAN, (0, 1), (0, 1), (2, 3)) == 1
        assert edge_cost(Objective.MAKESPAN, (0, 1), (2, 3), (2, 3)) == 1

    def test_loss_zero_when_resting_on_goals(self):
        assert edge_cost(Objective.SUM_OF_LOSS, (1, 2), (1, 2), (1, 2)) == 0

    def test_fuels_vs_loss_disagree(self):
        # one agent moves, two stay off their goals
        x, y, goals = (0, 1, 2), (3, 1, 2), (5, 6, 7)
        assert edge_cost(Objective.SUM_OF_FUELS, x, y, goals) == 1
        assert edge_cost(Objective.SUM_OF_LOSS, x, y, goals) == 3

    def test_solution_cost_makespan_counts_steps(self):
        grid = open_grid(4, 1)
        configs = [(0,), (1,), (2,), (3,)]
        assert solution_cost(Objective.MAKESPAN, configs, (3,)) == 3

    def test_single_config_costs_zero(self):
        for objective in Objective:
            assert solution_cost(objective, [(0, 5)], (0, 5)) == 0

    def test_single_agent_loss_equals_distance(self):
        configs = [(0,), (1,), (2,)]
        assert solution_cost(Objective.SUM_OF_LOSS, configs, (2,)) == 2

    def test_edge_cost_fn_matches_edge_cost(self):
        rng = random.Random(1)
        goals = tuple(rng.sample(range(10), 4))
        for objective in Objective:
            fn = edge_cost_fn(objective, goals)
            for _ in range(50):
                x = tuple(rng.randrange(10) for _ in range(4))
                y = tuple(rng.randrange(10) for _ in range(4))
                assert fn(x, y) == edge_cost(objective, x, y, goals)

    @given(
        st.lists(st.integers(0, 8), min_size=1, max_size=3, unique=True).flatmap(
            lambda goals: st.tuples(
                st.just(tuple(goals)),
                st.lists(
                    st.tuples(*[st.integers(0, 8) for _ in goals]),
                    min_size=2,
                    max_size=6,
                ),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_cost_additive_under_concatenation(self, data):
        goals, configs = data
        for objective in Objective:
            for cut in range(len(configs)):
                left = configs[: cut + 1]
                right = configs[cut:]
                assert solution_cost(objective, configs, goals) == solution_cost(
                    objective, left, goals
                ) + solution_cost(objective, right, goals)


class TestHeuristic:
    def test_zero_at_goals(self):
        grid = open_grid(3, 3)
        goals = (0, 8)
        tables = [grid.dist_table(g) for g in goals]
        for objective in Objective:
            assert heuristic(objective, goals, tables) == 0

    def test_single_agent_distance(self):
        grid = open_grid(6, 1)
        tables = [grid.dist_table(5)]
        assert heuristic(Objective.SUM_OF_LOSS, (0,), tables) == 5

    def test_makespan_takes_max(self):
        grid = open_grid(8, 1)
        tables = [grid.dist_table(3), grid.dist_table(7)]
        q = (0, 0)  # distances 3 and 7
        assert heuristic(Objective.MAKESPAN, q, tables) == 7
        assert heuristic(Objective.SUM_OF_LOSS, q, tables) == 10

    def test_unreachable_is_infinite(self):
        grid = parse_map("type octile\nheight 1\nwidth 3\nmap\n.@.\n")
        tables = [grid.dist_table(1)]
        assert heuristic(Objective.SUM_OF_LOSS, (0,), tables) == INF_COST


class TestSolutionFormat:
    def test_round_trip(self):
        grid = open_grid(3, 2)
        configs = [(0, 4), (1, 5), (2, 5)]
        text = format_solution(configs, grid)
        lines = text.splitlines()
        assert lines[0].startswith("starts=(0,0),(1,1)")
        assert lines[1].startswith("0:")
        parsed = parse_solution(text, grid)
        assert parsed.configs == configs

    def test_zero_agent_round_trip(self):
        grid = open_grid(2, 1)
        text = format_solution([()], grid)
        parsed = parse_solution(text, grid)
        assert parsed.configs == [()]

    def test_mismatched_starts_line_rejected(self):
        grid = open_grid(3, 1)
        text = "starts=(0,0)\n0:(1,0)\n"
        with pytest.raises(ValueError, match="step 0"):
            parse_solution(text, grid)

    def test_blocked_coordinate_rejected(self):
        grid = parse_map("type octile\nheight 1\nwidth 3\nmap\n.@.\n")
        with pytest.raises(ValueError, match="blocked"):
            parse_solution("starts=(1,0)\n0:(1,0)\n", grid)


# Reference implementations: the solution writer, reader and transition
# check as they were before they read per-grid lookup tables. The library
# must give the same text, configurations, violations and errors.


def reference_format_solution(solution, grid: GridMap) -> str:
    if len(solution) == 0:
        raise ValueError("cannot format an empty solution")

    def fmt(q):
        return ",".join("({},{})".format(*grid.coords(v)) for v in q)

    lines = [f"starts={fmt(solution[0])}"]
    for t in range(len(solution)):
        lines.append(f"{t}:{fmt(solution[t])}")
    return "\n".join(lines) + "\n"


_REFERENCE_COORD_RE = re.compile(r"\((-?\d+),(-?\d+)\)")


def reference_parse_config_coords(body: str, grid: GridMap, lineno: int):
    body = body.strip()
    pairs = _REFERENCE_COORD_RE.findall(body)
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


def reference_parse_solution(text: str, grid: GridMap) -> Solution:
    lines = [ln for ln in text.replace("\r\n", "\n").split("\n") if ln.strip()]
    if not lines or not lines[0].startswith("starts="):
        raise SolutionFormatError("line 1: expected 'starts=' prefix")
    starts = reference_parse_config_coords(lines[0][len("starts=") :], grid, 1)
    configs = []
    for idx, line in enumerate(lines[1:]):
        lineno = idx + 2
        head, sep, body = line.partition(":")
        if not sep or head.strip() != str(idx):
            raise SolutionFormatError(f"line {lineno}: expected step index {idx}")
        q = reference_parse_config_coords(body, grid, lineno)
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


def reference_vertex_collision_agents(q):
    seen = {}
    bad = set()
    for i, v in enumerate(q):
        if v in seen:
            bad.add(seen[v])
            bad.add(i)
        else:
            seen[v] = i
    return tuple(sorted(bad))


def reference_transition_violation(x, y, graph):
    movers = [
        i for i in range(len(x)) if y[i] != x[i] and y[i] not in graph.neighbors(x[i])
    ]
    if movers:
        return ViolationKind.MOVE, tuple(movers)
    vertex_bad = reference_vertex_collision_agents(y)
    if vertex_bad:
        return ViolationKind.VERTEX, vertex_bad
    at = {v: i for i, v in enumerate(x)}
    swaps = set()
    for i, v in enumerate(y):
        j = at.get(v)
        if j is not None and j != i and y[j] == x[i]:
            swaps.add(i)
            swaps.add(j)
    if swaps:
        return ViolationKind.EDGE, tuple(sorted(swaps))
    return None


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def walled_grids(draw, max_cells: int = 144) -> GridMap:
    """Random grids up to 12 cells a side, some cut by a fully blocked column."""
    width = draw(st.integers(1, 12))
    height = draw(st.integers(1, min(12, max_cells // width)))
    cells = width * height
    passable = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    wall = draw(st.none() | st.integers(0, width - 1))
    if wall is not None:
        for y in range(height):
            passable[y * width + wall] = False
    if not any(passable):
        passable[draw(st.integers(0, width * height - 1))] = True
    return GridMap(width, height, passable)


@st.composite
def grids_with_solutions(draw):
    """A grid and a solution that has fewer or more cells than its vertices.

    Small grids (up to 16 cells, up to 12 a side) put both the per-vertex
    and the lookup-table paths within reach.
    """
    grid = draw(walled_grids(max_cells=16))
    n = draw(st.integers(0, 5))
    vertex = st.integers(0, grid.num_vertices - 1)
    configs = draw(st.lists(st.tuples(*[vertex] * n), min_size=1, max_size=8))
    return grid, configs


@st.composite
def solution_texts(draw):
    """A grid and solution text, mostly canonical, with the reader's edge cases.

    Cells may be outside the map, negative or blocked, and be written with
    leading zeros or spaces; lines may be padded, end in CRLF, have a wrong
    step index or arity, or an empty body.
    """
    grid = draw(walled_grids(max_cells=16))
    n = draw(st.integers(0, 4))

    def cell() -> str:
        if draw(st.integers(0, 9)) < 8:
            x, y = grid.coords(draw(st.integers(0, grid.num_vertices - 1)))
        else:
            x = draw(st.integers(-2, grid.width + 1))
            y = draw(st.integers(-2, grid.height + 1))
        styles = ["({},{})"] * 6 + ["(0{},{})", "({},0{})", "({}, {})"]
        style = draw(st.sampled_from(styles))
        return style.format(x, y)

    def body(k: int) -> str:
        text = ",".join(cell() for _ in range(k))
        return draw(st.sampled_from([text] * 6 + [f"  {text} ", f"{text}\t", ""]))

    starts = body(n)
    lines = [f"starts={starts}"]
    for t in range(draw(st.integers(0, 6))):
        step = draw(st.sampled_from([t] * 8 + [t + 1, -1]))
        k = draw(st.sampled_from([n] * 8 + [max(n - 1, 0), n + 1]))
        rest = starts if t == 0 and draw(st.booleans()) else body(k)
        lines.append(f"{step}:{rest}")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return grid, newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))


@st.composite
def transitions(draw):
    """A grid and a pair (x, y): y mostly stays or steps, x may collide."""
    grid = draw(walled_grids())
    last = grid.num_vertices - 1
    n = draw(st.integers(0, 6))
    vertex = st.integers(0, last)
    if draw(st.booleans()):
        x = draw(st.lists(vertex, min_size=n, max_size=n))
    else:
        x = draw(st.lists(vertex, min_size=min(n, last + 1), max_size=n, unique=True))
    y = []
    for v in x:
        choice = draw(st.integers(0, 5))
        if choice < 2:
            y.append(v)
        elif choice < 5 and grid.adjacency[v]:
            y.append(draw(st.sampled_from(grid.adjacency[v])))
        else:
            y.append(draw(vertex))
    return grid, tuple(x), tuple(y)


class TestSolutionIoMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(grids_with_solutions())
    def test_format(self, case):
        grid, configs = case
        expected = reference_format_solution(configs, grid)
        assert format_solution(configs, grid) == expected

    @settings(max_examples=400, deadline=None)
    @given(solution_texts())
    def test_parse(self, case):
        grid, text = case
        assert outcome(parse_solution, text, grid) == outcome(
            reference_parse_solution, text, grid
        )

    @pytest.mark.parametrize(
        "text",
        [
            # Two agents over three steps (six cells): canonical, leading
            # zeros, padded bodies, CRLF, then a space, a negative, an
            # outside and a blocked cell, a wrong arity, a bad step index,
            # an empty body, no final newline, malformed bodies, a repeated
            # step and a starts line that step 0 does not match.
            "starts=(0,0),(2,1)\n0:(0,0),(2,1)\n1:(1,0),(2,1)\n2:(1,0),(2,1)\n",
            "starts=(00,0),(2,01)\n0:(0,0),(2,1)\n1:(1,0),(02,1)\n2:(1,0),(2,1)\n",
            "starts=  (0,0),(2,1)  \n0:\t(0,0),(2,1)\n1: (1,0),(2,1) \n2:(1,0),(2,1)\n",
            "starts=(0,0),(2,1)\r\n0:(0,0),(2,1)\r\n1:(1,0),(2,1)\r\n"
            "2:(1,0),(2,1)\r\n\r\n",
            "starts=(0,0),(2,1)\n0:(0,0),(2,1)\n1:(1,0),(2, 1)\n2:(1,0),(2,1)\n",
            "starts=(0,0),(2,1)\n0:(0,0),(2,1)\n1:(-1,0),(2,1)\n2:(1,0),(2,1)\n",
            "starts=(0,0),(2,1)\n0:(0,0),(2,1)\n1:(1,0),(3,1)\n2:(1,0),(2,1)\n",
            "starts=(0,0),(2,1)\n0:(0,0),(2,1)\n1:(1,0),(1,1)\n2:(1,0),(2,1)\n",
            "starts=(0,0),(2,1)\n0:(0,0),(2,1)\n1:(1,0)\n2:(1,0),(2,1)\n",
            "starts=(0,0),(2,1)\n0:(0,0),(2,1)\n2:(1,0),(2,1)\n2:(1,0),(2,1)\n",
            "starts=(0,0),(2,1)\n0:(0,0),(2,1)\n1:\n2:(1,0),(2,1)\n",
            "starts=(0,0),(2,1)\n0:(0,0),(2,1)\n1:(1,0),(2,1)\n2:(1,0),(2,1)",
            "starts=(0,0),(2,1)\n0:(0,0),(2,1)\n1:(1,0)(2,1)\n2:(1,0),(2,1)\n",
            "starts=(0,0),(2,1)\n0:(0,0),(2,1)\n1:((1,0),(2,1))\n2:(1,0),(2,1)\n",
            "starts=(0,0),(2,1)\n0:(0,0),(2,1)\n1:[1,0],[2,1]\n2:(1,0),(2,1)\n",
            "starts=(0,0),(2,1)\n0:(0,0),(2,1)\n1:[1,0),(2,1]\n2:(1,0),(2,1)\n",
            "starts=(0,0),(2,1)\n0:(0,0),(2,1)\n1:()\n2:(1,0),(2,1)\n",
            "starts=(0,0),(2,1)\n1:(0,0),(2,1)\n1:(0,0),(2,1)\n2:(1,0),(2,1)\n",
            "starts=(0,0),(2,1)\n0:(1,0),(2,1)\n1:(1,0),(2,1)\n2:(1,0),(2,1)\n",
            # One agent over six steps.
            "starts=(0,0)\n0:(0,0)\n1:[1,0]\n2:(1,0)\n3:(1,0)\n4:(1,0)\n5:(1,0)\n",
            "starts=(0,0),(2,1)\n",
            "starts=\n0:\n1:\n",
            "",
            "0:(0,0)\n",
        ],
    )
    @pytest.mark.parametrize("rows", [2, 12], ids=["table", "per-vertex"])
    def test_parse_cases(self, text, rows):
        # Both maps start "..@" / "@@."; on the 2-row map (3 vertices) the
        # six-cell cases are large enough to read through the lookup table,
        # on the 12-row one (33 vertices) they are read per vertex.
        body = "..@\n@@.\n" + "...\n" * (rows - 2)
        grid = parse_map(f"type octile\nheight {rows}\nwidth 3\nmap\n{body}")
        assert outcome(parse_solution, text, grid) == outcome(
            reference_parse_solution, text, grid
        )

    @pytest.mark.parametrize("size", [(2, 1), (4, 4)], ids=["table", "per-vertex"])
    @pytest.mark.parametrize("bad", [-1, "|V|", 1.0, None])
    def test_format_rejects_non_vertex_ids_as_before(self, size, bad):
        grid = open_grid(*size)
        if bad == "|V|":
            bad = grid.num_vertices
        for configs in ([(0, bad), (0, 1)], [(0, 1), (bad, 1)]):
            result = outcome(format_solution, configs, grid)
            assert result == outcome(reference_format_solution, configs, grid)
            assert result == (ValueError, f"invalid vertex id {bad!r}")

    @pytest.mark.parametrize("size", [(2, 1), (4, 4)], ids=["table", "per-vertex"])
    def test_format_numpy_ids_like_int(self, size):
        np = pytest.importorskip("numpy")
        grid = open_grid(*size)
        configs = [np.array([0, 1]), (np.int64(1), np.int64(0))]
        text = format_solution(configs, grid)
        assert text == reference_format_solution(configs, grid)
        assert text == format_solution([(0, 1), (1, 0)], grid)

    def test_small_solution_builds_no_table(self, monkeypatch):
        builds = []
        for name in ("coord_texts", "coord_vertices"):
            cache = GridMap.__dict__[name]

            def counting(grid, name=name, build=cache.func):
                builds.append(name)
                return build(grid)

            monkeypatch.setattr(cache, "func", counting)
        grid = open_grid(4, 4)
        configs = [(0, 15), (1, 14), (2, 13)] * 5  # 30 cells < 2 x 16 vertices
        text = format_solution(configs, grid)
        assert parse_solution(text, grid).configs == configs
        assert builds == []
        large = configs + configs[:1]  # 32 cells
        text = format_solution(large, grid)
        assert parse_solution(text, grid).configs == large
        assert builds == ["coord_texts", "coord_vertices"]

    def test_lone_cr_line_endings(self):
        grid = open_grid(3, 2)
        configs = [(0, 5), (1, 5), (2, 5)]
        text = format_solution(configs, grid).replace("\n", "\r")
        assert parse_solution(text, grid).configs == configs


class TestTransitionMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(transitions())
    @example((open_grid(3, 1), (0, 1), (1, 0)))  # swap
    @example((open_grid(3, 1), (1, 1, 0), (0, 1, 1)))  # x collides
    @example((open_grid(3, 1), (1, 1), (2, 0)))  # movers from one vertex
    def test_random_pairs(self, case):
        grid, x, y = case
        assert _transition_violation(x, y, grid) == reference_transition_violation(
            x, y, grid
        )

    @pytest.mark.parametrize(
        "x, y",
        [
            ((-1, 0), (0, 1)),
            ((-1, 0), (1, 0)),  # adjacency[-1] would hold 1
            ((3, 0), (2, 0)),
            ((1.0, 0), (2, 0)),
            ((None, 0), (1, 2)),
        ],
    )
    def test_non_vertex_source_raises_as_before(self, x, y):
        grid = open_grid(3, 1)
        result = outcome(_transition_violation, x, y, grid)
        assert result == outcome(reference_transition_violation, x, y, grid)
        assert result[0] is ValueError
