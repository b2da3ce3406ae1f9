from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mapfkit import (
    GridMap,
    HighLevelNode,
    Instance,
    Objective,
    PibtContext,
    SolveStatus,
    SolverOptions,
    VertexGraph,
    backtrack,
    optimal_cost,
    parse_map,
    parse_scenario,
    solution_cost,
    solve,
    validate,
)
import mapfkit
import mapfkit.lacam as lacam
from mapfkit.core import edge_cost_fn
from mapfkit.lacam import (
    Constraint,
    config_codec,
    generate_configuration,
    low_level_expand,
    pins_from_constraint,
    rewire,
)
from mapfkit.pibt import step_counts, step_order

from conftest import fixture_text, random_instance


def open_grid(w: int, h: int) -> GridMap:
    return GridMap(w, h, [True] * (w * h))


def make_node(config, g=0, h=0, steps=None):
    # Vertex ids below 256 pack one byte each, as the search packs them on
    # graphs of at most 256 vertices; ``tuple(node.config)`` unpacks.
    return HighLevelNode(
        config=bytes(config),
        tree=[Constraint()],
        popped=0,
        parent=None,
        neighbors={},
        g=g,
        h=h,
        steps=steps if steps is not None else (0,) * len(config),
    )


class TestSolveBasics:
    def test_single_agent_corridor_optimal(self):
        grid = open_grid(4, 1)
        inst = Instance(grid=grid, starts=(0,), goals=(3,))
        out = solve(inst, SolverOptions(objective=Objective.SUM_OF_LOSS, seed=0))
        assert out.status is SolveStatus.OPTIMAL
        assert out.cost == 3
        assert validate(inst, out.solution) is None

    def test_two_vertex_swap_is_no_solution(self, swap2_instance):
        out = solve(swap2_instance, SolverOptions(seed=0))
        assert out.status is SolveStatus.NO_SOLUTION
        assert out.solution is None

    def test_unreachable_goal_is_no_solution(self):
        grid = parse_map("type octile\nheight 1\nwidth 3\nmap\n.@.\n")
        inst = Instance(grid=grid, starts=(0,), goals=(1,))
        out = solve(inst, SolverOptions(seed=0))
        assert out.status is SolveStatus.NO_SOLUTION
        assert out.stats.iterations == 0

    def test_zero_agents(self):
        inst = Instance(grid=open_grid(2, 2), starts=(), goals=())
        out = solve(inst, SolverOptions(seed=0))
        assert out.status is SolveStatus.OPTIMAL
        assert out.cost == 0
        assert out.solution.configs[0] == ()

    def test_start_equals_goal(self):
        grid = open_grid(3, 1)
        inst = Instance(grid=grid, starts=(1,), goals=(1,))
        out = solve(inst, SolverOptions(seed=0))
        assert out.status is SolveStatus.OPTIMAL
        assert out.cost == 0
        assert out.solution.configs == [(1,)]


class TestTunnel:
    def test_optimal_matches_oracle(self, tunnel_instance):
        expected = optimal_cost(tunnel_instance, Objective.MAKESPAN)
        for swap in (True, False):
            out = solve(
                tunnel_instance,
                SolverOptions(objective=Objective.MAKESPAN, swap_enabled=swap, seed=0),
            )
            assert out.status is SolveStatus.OPTIMAL
            assert out.cost == expected == 5
            assert validate(tunnel_instance, out.solution) is None

    def test_swap_reduces_search_effort(self, tunnel_instance):
        runs = {}
        for swap in (True, False):
            out = solve(
                tunnel_instance,
                SolverOptions(
                    objective=Objective.MAKESPAN,
                    swap_enabled=swap,
                    anytime=False,
                    seed=0,
                ),
            )
            assert out.solution is not None
            runs[swap] = out.stats.iterations
        assert runs[True] < runs[False]

    def test_first_solution_mode_claims_no_optimality(self, tunnel_instance):
        out = solve(
            tunnel_instance,
            SolverOptions(objective=Objective.MAKESPAN, anytime=False, seed=0),
        )
        assert out.status is SolveStatus.SUBOPTIMAL
        assert validate(tunnel_instance, out.solution) is None


class TestLowLevelExpand:
    def test_children_per_possible_location(self):
        grid = open_grid(3, 1)
        node = make_node((1, 0))
        root = node.tree[node.popped]
        node.popped += 1
        low_level_expand(node.tree, (1, 0), root, grid, [0, 1])
        children = node.tree[node.popped:]
        assert len(children) == 3  # agent 0 sits on a degree-2 cell
        assert all(c.who == 0 and c.depth == 1 and c.parent is root for c in children)

    def test_no_children_at_full_depth(self):
        grid = open_grid(3, 1)
        node = make_node((1, 0))
        c1 = Constraint(parent=node.tree[0], who=0, where=0, depth=1)
        c2 = Constraint(parent=c1, who=1, where=1, depth=2)
        node.tree.clear()
        low_level_expand(node.tree, (1, 0), c2, grid, [0, 1])
        assert len(node.tree) == 0

    def test_agents_distinct_along_chain(self):
        grid = open_grid(3, 3)
        node = make_node((0, 4, 8))
        order = [2, 0, 1]
        root = node.tree[node.popped]
        node.popped += 1
        low_level_expand(node.tree, (0, 4, 8), root, grid, order)
        child = node.tree[node.popped]
        low_level_expand(node.tree, (0, 4, 8), child, grid, order)
        grandchild = next(c for c in node.tree if c.parent is child)
        low_level_expand(node.tree, (0, 4, 8), grandchild, grid, order)
        great = next(c for c in node.tree if c.parent is grandchild)
        chain_agents = list(pins_from_constraint(great))
        assert sorted(chain_agents) == [0, 1, 2]


class TestStepOrder:
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 500),
        length=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=500, length=300, seed=0)
    @example(n=1, length=260, seed=1)
    def test_matches_float_priority_order_along_a_chain(self, n, length, seed):
        # Each agent stands on its goal never, rarely, half the time or
        # always, so counts tie in large groups, agents reach and leave their
        # goals, and the never-arriving ones count past 256.
        rng = random.Random(seed)
        goals = tuple(range(n))
        rates = [rng.choice((0.0, 0.05, 0.5, 1.0)) for _ in range(n)]

        # Reference: PIBT's priorities as floats, the steps off the goal
        # plus an agent-id fraction that breaks ties, planned in
        # descending order.
        def bumped(previous, q):
            return [
                previous[i] + 1.0 if q[i] != goals[i] else (n - i - 1) / n
                for i in range(n)
            ]

        def float_order(priorities):
            return sorted(range(n), key=lambda i: -priorities[i])

        priorities = [(n - i - 1) / n for i in range(n)]
        steps = (0,) * n
        assert step_order(steps) == float_order(priorities)
        for _ in range(length):
            q = tuple(i if rng.random() < rates[i] else n + i for i in range(n))
            priorities = bumped(priorities, q)
            steps = step_counts(steps, q, goals)
            assert step_order(steps) == float_order(priorities)
        assert all(type(s) is int for s in steps)
        if 0.0 in rates and length > 256:
            assert max(steps) == length


class TestDerivedOrder:
    def test_root_gets_init_order_and_others_their_step_order(self, monkeypatch):
        # Every duplicate successor restarts at the root, so the root is
        # popped again after other nodes were expanded.
        grid = parse_map(fixture_text("random-32-32-20.map"))
        starts, goals = parse_scenario(fixture_text("random-32-32-20.scen"), grid, 100)
        instance = Instance(grid=grid, starts=starts, goals=goals)
        calls = []
        original = lacam.generate_configuration

        def recording(q, constraint, ctx, order):
            # The expanded node stays on top of the open stack.
            node = search.open_stack[-1]
            assert q == search.unpack(node.config)
            calls.append((node, list(order)))
            return original(q, constraint, ctx, order)

        monkeypatch.setattr(lacam, "generate_configuration", recording)
        search = lacam._Search(
            instance, SolverOptions(restart_probability=1.0, seed=0, iteration_budget=300)
        )
        while search.open_stack and not search.interrupted():
            search.step()

        root_order = lacam.get_init_order(instance, search.ctx.dist_tables)
        assert root_order != step_order(search.root.steps)
        for node, order in calls:
            assert order == (root_order if node is search.root else step_order(node.steps))
        at_root = [node is search.root for node, _ in calls]
        assert True in at_root[at_root.index(False):]


class TestGenerateConfiguration:
    def test_root_constraint_always_produces(self, tunnel_instance):
        grid = tunnel_instance.grid
        ctx = PibtContext(grid, tunnel_instance.goals, seed=0)
        order = [0, 1]
        q = generate_configuration(tunnel_instance.starts, Constraint(), ctx, order)
        assert q is not None

    def test_colliding_pins_give_none(self, tunnel_instance):
        grid = tunnel_instance.grid
        ctx = PibtContext(grid, tunnel_instance.goals, seed=0)
        root = Constraint()
        c1 = Constraint(parent=root, who=0, where=4, depth=1)
        c2 = Constraint(parent=c1, who=1, where=4, depth=2)
        assert generate_configuration(tunnel_instance.starts, c2, ctx, [0, 1]) is None

    def test_pin_is_honored(self, branch_graph):
        # crossing scenario with the middle agent pinned to the junction
        goals = (4, 1, 0)
        ctx = PibtContext(branch_graph, goals, seed=0, swap_enabled=False)
        order = [0, 1, 2]
        root = Constraint()
        pin = Constraint(parent=root, who=2, where=1, depth=1)
        q = generate_configuration((3, 0, 2), pin, ctx, order)
        assert q is not None and q[2] == 1


class TestRewire:
    def test_shortcut_rewrites_downstream_g_values(self):
        # chain 0->2->3->4->5->6->7 with g = 0,1,2,3,4,5,6, a side node with
        # g = 1, and recorded back arcs; a new arc from the side node to the
        # g=5 node must drop downstream costs to 2, 3, 3
        ecost = edge_cost_fn(Objective.MAKESPAN, (0,))
        n0 = make_node((0,), g=0)
        n2 = make_node((1,), g=1)
        n3 = make_node((2,), g=2)
        n4 = make_node((3,), g=3)
        n5 = make_node((4,), g=4)
        n6 = make_node((5,), g=5)
        n7 = make_node((6,), g=6)
        n8 = make_node((7,), g=1)
        for a, b in [
            (n0, n2), (n2, n3), (n3, n4), (n4, n5), (n5, n6), (n6, n7), (n0, n8),
            (n4, n2), (n6, n3), (n3, n2), (n5, n4), (n6, n5),
        ]:
            a.neighbors[b] = ecost(tuple(a.config), tuple(b.config))
            if b.parent is None and b is not n0:
                b.parent = a

        n8.neighbors[n6] = ecost(tuple(n8.config), tuple(n6.config))
        rewire(n8)

        assert [n.g for n in (n0, n2, n3, n4, n5, n6, n7, n8)] == [
            0, 1, 2, 3, 3, 2, 3, 1,
        ]
        assert n6.parent is n8
        assert n5.parent is n6
        assert n7.parent is n6

    def test_non_improving_arc_changes_nothing(self):
        ecost = edge_cost_fn(Objective.MAKESPAN, (0,))
        n0 = make_node((0,), g=0)
        n1 = make_node((1,), g=1)
        n2 = make_node((2,), g=2)
        n0.neighbors[n1] = ecost(tuple(n0.config), tuple(n1.config))
        n1.neighbors[n2] = ecost(tuple(n1.config), tuple(n2.config))
        n1.parent, n2.parent = n0, n1
        # An arc back into a cheaper node.
        n2.neighbors[n1] = ecost(tuple(n2.config), tuple(n1.config))
        rewire(n2)
        assert (n0.g, n1.g, n2.g) == (0, 1, 2)
        assert n1.parent is n0

    def test_matches_reference_dijkstra_on_random_graphs(self):
        rng = random.Random(4)
        goals = (0,)
        ecost = edge_cost_fn(Objective.SUM_OF_FUELS, goals)

        def full_dijkstra(nodes):
            import heapq, itertools

            dist = {id(nodes[0]): 0}
            counter = itertools.count()
            heap = [(0, next(counter), nodes[0])]
            while heap:
                d, _, node = heapq.heappop(heap)
                if d > dist.get(id(node), 1 << 60):
                    continue
                for nxt in node.neighbors:
                    nd = d + ecost(tuple(node.config), tuple(nxt.config))
                    if nd < dist.get(id(nxt), 1 << 60):
                        dist[id(nxt)] = nd
                        heapq.heappush(heap, (nd, next(counter), nxt))
            return dist

        for _ in range(20):
            k = rng.randint(4, 12)
            nodes = [make_node((rng.randrange(3),), g=(1 << 60)) for _ in range(k)]
            nodes[0].g = 0
            # random connected base tree, arcs recorded in neighbors
            for i in range(1, k):
                p = nodes[rng.randrange(i)]
                p.neighbors[nodes[i]] = ecost(tuple(p.config), tuple(nodes[i].config))
            order = sorted(range(k), key=lambda i: 0)
            # settle initial g by waves from the root along tree arcs
            rewire(nodes[0])
            for _ in range(6):
                a, b = rng.sample(nodes, 2)
                if b in a.neighbors:
                    continue
                a.neighbors[b] = ecost(tuple(a.config), tuple(b.config))
                rewire(a)
                reference = full_dijkstra(nodes)
                for node in nodes:
                    want = reference.get(id(node), 1 << 60)
                    assert node.g == want


class TestConfigCodec:
    @pytest.mark.parametrize(
        ("size", "width"), [(1, 1), (256, 1), (257, 2), (65_536, 2), (65_537, 4)]
    )
    def test_narrowest_width_round_trips(self, size, width):
        pack, unpack, unpack_shared = config_codec(VertexGraph([()] * size), 3)
        q = (size - 1, 0, size // 2)
        packed = pack(q)
        assert len(packed) == 3 * width
        assert unpack(packed) == unpack_shared(packed) == q

    def test_shared_ids_are_the_adjacency_rows_ints(self):
        # Vertex 600 is named by no row and keeps an int of its own.
        rows = [(v + 1,) for v in range(599)] + [(598,), ()]
        graph = VertexGraph(rows)
        pack, _, unpack_shared = config_codec(graph, 2)
        q = unpack_shared(pack((500, 600)))
        assert q == (500, 600)
        assert q[0] is graph.adjacency[499][0]
        assert unpack_shared(pack((600, 500)))[1] is q[0]


class TestSolutionInts:
    def test_anytime_solution_shares_vertex_ints(self):
        grid = parse_map(fixture_text("random-32-32-20.map"))
        starts, goals = parse_scenario(fixture_text("random-32-32-20.scen"), grid, 100)
        instance = Instance(grid=grid, starts=starts, goals=goals)
        reported = []
        out = solve(
            instance,
            SolverOptions(
                seed=5,
                iteration_budget=300,
                improvement_callback=lambda cost, solution: reported.append(solution),
            ),
        )
        assert out.solution is not None and reported
        for solution in (out.solution, *reported):
            configs = solution.configs
            assert all(type(q) is tuple for q in configs)
            assert all(type(v) is int for q in configs for v in q)
            # Unpacked ids above 256 would be new ints, one per cell.
            assert len(configs) * instance.n > grid.num_vertices
            assert len({id(v) for q in configs for v in q}) <= grid.num_vertices


class TestBacktrack:
    def test_root_only(self):
        root = make_node((5,))
        assert backtrack(root, tuple).configs == [(5,)]

    def test_chain(self):
        a = make_node((0,))
        b = make_node((1,))
        c = make_node((2,))
        d = make_node((3,))
        b.parent, c.parent, d.parent = a, b, c
        assert backtrack(d, tuple).configs == [(0,), (1,), (2,), (3,)]

    def test_cycle_detected(self):
        a = make_node((0,))
        b = make_node((1,))
        a.parent, b.parent = b, a
        with pytest.raises(RuntimeError, match="cycle"):
            backtrack(a, tuple)


class TestRestartPolicy:
    @pytest.mark.parametrize("probability", [0.0, 1.0])
    def test_extreme_restart_probabilities_stay_optimal(
        self, tunnel_instance, probability
    ):
        out = solve(
            tunnel_instance,
            SolverOptions(
                objective=Objective.MAKESPAN,
                restart_probability=probability,
                seed=0,
            ),
        )
        assert out.status is SolveStatus.OPTIMAL
        assert out.cost == 5

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            SolverOptions(restart_probability=1.5)

    @pytest.mark.parametrize(
        "budgets",
        [
            {"time_budget": -1.0},
            {"time_budget": float("nan")},
            {"time_budget": float("inf")},
            {"iteration_budget": -5},
        ],
    )
    def test_invalid_budgets_rejected(self, budgets):
        with pytest.raises(ValueError, match="budget"):
            SolverOptions(**budgets)

    def test_zero_budgets_accepted(self, tunnel_instance):
        for budgets in ({"time_budget": 0.0}, {"iteration_budget": 0}):
            out = solve(tunnel_instance, SolverOptions(**budgets))
            assert out.status is SolveStatus.FAILURE

    def test_default_restart_rate_statistics(self):
        # the solver draws rng.random() < p per known-configuration find;
        # simulate that exact expression at the default rate
        rng = random.Random(0)
        draws = 100_000
        restarts = sum(1 for _ in range(draws) if rng.random() < 0.001)
        assert 0.0005 <= restarts / draws <= 0.002


class TestObjectiveOption:
    @pytest.mark.parametrize("objective", list(Objective))
    def test_value_solves_its_objective(self, tunnel_instance, objective):
        # The tunnel swap costs 5 under makespan and 10 under either sum.
        by_value = solve(tunnel_instance, SolverOptions(objective=objective.value))
        by_member = solve(tunnel_instance, SolverOptions(objective=objective))
        assert by_value.status is by_member.status is SolveStatus.OPTIMAL
        assert by_value.cost == by_member.cost
        assert SolverOptions(objective=objective.value).objective is objective

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="Objective"):
            SolverOptions(objective="nonsense")


class TestCompletenessOnTinyMaps:
    def exhaustive_two_agent_sweep(self, grid):
        outcomes = {True: 0, False: 0}
        v = grid.num_vertices
        for s0 in range(v):
            for s1 in range(v):
                if s1 == s0:
                    continue
                for g0 in range(v):
                    for g1 in range(v):
                        if g1 == g0:
                            continue
                        inst = Instance(grid=grid, starts=(s0, s1), goals=(g0, g1))
                        solvable = optimal_cost(inst, Objective.MAKESPAN) is not None
                        out = solve(
                            inst, SolverOptions(objective=Objective.MAKESPAN, seed=0)
                        )
                        if solvable:
                            assert out.status is SolveStatus.OPTIMAL
                        else:
                            assert out.status is SolveStatus.NO_SOLUTION
                        outcomes[solvable] += 1
        return outcomes

    def test_plus_shape_all_two_agent_placements(self):
        # a degree-4 junction makes every rearrangement feasible
        plus = parse_map("type octile\nheight 3\nwidth 3\nmap\n@.@\n...\n@.@\n")
        assert plus.num_vertices == 5
        outcomes = self.exhaustive_two_agent_sweep(plus)
        assert outcomes[True] == 400 and outcomes[False] == 0

    def test_corridor_all_two_agent_placements(self):
        # a pure corridor cannot reorder agents, so crossings are unsolvable
        corridor = parse_map("type octile\nheight 1\nwidth 5\nmap\n.....\n")
        outcomes = self.exhaustive_two_agent_sweep(corridor)
        assert outcomes[True] > 0 and outcomes[False] > 0

    def test_corridor_sampled_three_agent_placements(self):
        corridor = parse_map("type octile\nheight 1\nwidth 7\nmap\n.......\n")
        rng = random.Random(6)
        both = {True: 0, False: 0}
        for trial in range(60):
            starts = tuple(rng.sample(range(7), 3))
            goals = tuple(rng.sample(range(7), 3))
            inst = Instance(grid=corridor, starts=starts, goals=goals)
            expected = optimal_cost(inst, Objective.SUM_OF_LOSS)
            out = solve(inst, SolverOptions(objective=Objective.SUM_OF_LOSS, seed=trial))
            if expected is not None:
                assert out.status is SolveStatus.OPTIMAL
                assert out.cost == expected
            else:
                assert out.status is SolveStatus.NO_SOLUTION
            both[expected is not None] += 1
        assert both[True] > 0 and both[False] > 0


class TestAnytimeBehavior:
    def test_trace_is_non_increasing_and_starts_at_first_solution(self):
        rng = random.Random(12)
        inst = random_instance(rng, 8, 8, 0.15, 8, connected_only=True)
        out = solve(inst, SolverOptions(seed=3, time_budget=2.0))
        assert out.solution is not None
        costs = [c for _, c in out.stats.trace]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        times = [t for t, _ in out.stats.trace]
        assert times == sorted(times)

    def test_improvement_callback_sees_valid_solutions(self):
        rng = random.Random(5)
        inst = random_instance(rng, 6, 6, 0.1, 6, connected_only=True)
        seen = []

        def on_improve(cost, solution):
            seen.append((cost, solution))

        out = solve(
            inst,
            SolverOptions(seed=1, time_budget=2.0, improvement_callback=on_improve),
        )
        assert out.solution is not None
        assert seen
        for cost, solution in seen:
            assert validate(inst, solution) is None

    def test_interrupted_run_reports_suboptimal(self):
        rng = random.Random(9)
        inst = random_instance(rng, 8, 8, 0.1, 10, connected_only=True)
        out = solve(inst, SolverOptions(seed=0, iteration_budget=2000))
        assert out.status is SolveStatus.SUBOPTIMAL
        assert validate(inst, out.solution) is None
        assert out.cost == solution_cost(
            Objective.SUM_OF_LOSS, out.solution, inst.goals
        )

    def test_interrupted_before_goal_is_failure(self, tunnel4_instance):
        out = solve(
            tunnel4_instance,
            SolverOptions(
                objective=Objective.MAKESPAN,
                swap_enabled=False,
                iteration_budget=3,
                seed=0,
            ),
        )
        assert out.status is SolveStatus.FAILURE
        assert out.solution is None


class TestGValueInvariant:
    def test_debug_mode_holds_on_small_instances(self):
        rng = random.Random(21)
        for trial in range(3):
            inst = random_instance(rng, 4, 4, 0.2, 2)
            if inst is None:
                continue
            out = solve(
                inst,
                SolverOptions(seed=trial, debug_check_g=True),
            )
            assert out.status in (SolveStatus.OPTIMAL, SolveStatus.NO_SOLUTION)

    def test_debug_mode_detects_corrupted_arc_weight(self, tunnel_instance, monkeypatch):
        real_rewire = lacam.rewire

        def corrupting_rewire(from_node, *args):
            newest = next(reversed(from_node.neighbors))
            from_node.neighbors[newest] += 1
            return real_rewire(from_node, *args)

        monkeypatch.setattr(lacam, "rewire", corrupting_rewire)
        with pytest.raises(AssertionError, match="arc weight drift"):
            solve(
                tunnel_instance,
                SolverOptions(objective=Objective.MAKESPAN, seed=0, debug_check_g=True),
            )


class TestDiscarding:
    def test_discarding_preserves_final_cost(self):
        rng = random.Random(33)
        checked = 0
        while checked < 4:
            inst = random_instance(rng, 4, 4, 0.2, 2)
            if inst is None:
                continue
            opts_on = SolverOptions(seed=7, discard_enabled=True)
            opts_off = SolverOptions(seed=7, discard_enabled=False)
            a = solve(inst, opts_on)
            b = solve(inst, opts_off)
            assert a.status == b.status
            if a.status is SolveStatus.OPTIMAL:
                assert a.cost == b.cost
                assert a.stats.iterations <= b.stats.iterations
                checked += 1


# Solves 40 random proofs and prints their outcomes as JSON. The heap
# garbage allocated before the import moves every object address.
_DETERMINISM_SCRIPT = """
import json, random, sys
junk = [[object()] * (i % 13) for i in range(int(sys.argv[1]))]
del junk[::3]
from mapfkit import Objective, SolverOptions, solve
from mapfkit.bench import generate_map, sample_instance
rng = random.Random(2024)
rows = []
for k in range(40):
    inst = sample_instance(generate_map(5, 5, 0.2, rng), 3, rng)
    out = solve(inst, SolverOptions(objective=Objective.SUM_OF_FUELS, seed=k))
    trace = [cost for _, cost in out.stats.trace]
    rows.append([out.status.value, out.cost, out.stats.iterations, out.stats.node_count, trace])
print(json.dumps(rows))
"""


class TestDeterminism:
    def test_counts_repeat_across_heap_states(self):
        src = str(Path(mapfkit.__file__).resolve().parents[1])
        runs = []
        for garbage in (0, 30_000):
            proc = subprocess.run(
                [sys.executable, "-c", _DETERMINISM_SCRIPT, str(garbage)],
                env={**os.environ, "PYTHONPATH": src},
                capture_output=True,
                text=True,
                timeout=300,
                check=True,
            )
            runs.append(json.loads(proc.stdout))
        assert len(runs[0]) == 40
        assert runs[0] == runs[1]
