from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from mapfkit import (
    GridMap,
    Instance,
    Objective,
    ScenarioError,
    Solution,
    ViolationKind,
    edge_cost,
    format_solution,
    heuristic,
    is_connected,
    parse_map,
    parse_scenario,
    parse_solution,
    solution_cost,
    validate,
)
from mapfkit.core import INF_COST, edge_cost_fn


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
        assert sol.verified

    def test_teleport_reported_as_move(self):
        grid = open_grid(4, 1)
        inst = Instance(grid=grid, starts=(0,), goals=(3,))
        sol = Solution(configs=[(0,), (2,), (3,)])
        violation = validate(inst, sol)
        assert violation is not None
        assert violation.kind is ViolationKind.MOVE
        assert violation.step == 1
        assert violation.agents == (0,)
        assert not sol.verified

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
