from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from mapfkit import (
    ExplicitGraph,
    GridMap,
    PibtContext,
    PinError,
    is_connected,
    parse_map,
    plan_step,
    swap_required_and_possible,
    update_priorities,
)
from mapfkit.pibt import (
    _fisher_yates_steps,
    _shuffle,
    bumped_priorities,
    initial_priorities,
)

from conftest import random_instance


def step(ctx, q_from, pins=None):
    return plan_step(ctx, q_from, pins)


def iterate(ctx, q, goals, limit):
    """Run the generator repeatedly; returns (reached, configs)."""
    path = [q]
    for _ in range(limit):
        q2 = step(ctx, q)
        assert q2 is not None
        assert is_connected(q, q2, ctx.graph)
        update_priorities(ctx, q2)
        q = q2
        path.append(q)
        if q == goals:
            return True, path
    return False, path


class TestPriorityInheritance:
    def test_blocked_agent_is_planned_first(self, branch_graph):
        # i on the upper branch heads for e but j sits on c; j makes way to
        # b before k (waiting at a for b) gets its turn, so k must stay.
        goals = (4, 1, 0)  # i -> e, k -> b, j -> a
        q_from = (3, 0, 2)
        ctx = PibtContext(
            branch_graph, goals, seed=0, swap_enabled=False, priorities=[3.0, 2.0, 1.0]
        )
        assert step(ctx, q_from) == (2, 0, 1)

    def test_same_outcome_with_swap_enabled(self, branch_graph):
        goals = (4, 1, 0)
        ctx = PibtContext(
            branch_graph, goals, seed=0, swap_enabled=True, priorities=[3.0, 2.0, 1.0]
        )
        assert step(ctx, (3, 0, 2)) == (2, 0, 1)

    def test_goal_configuration_is_absorbing(self, tunnel_grid):
        goals = (4, 3)
        ctx = PibtContext(tunnel_grid, goals, seed=0)
        assert step(ctx, goals) == goals

    @pytest.mark.parametrize("seed", range(8))
    def test_unreachable_candidates_rank_last(self, seed):
        # One-way arc 0 -> 2: vertex 0 cannot be reached from goal 1, but its
        # neighbor 2 can, so stepping to 2 beats staying at UNREACHABLE.
        graph = ExplicitGraph([(2,), (2,), (1,)])
        ctx = PibtContext(graph, (1,), seed=seed, swap_enabled=False)
        assert step(ctx, (0,)) == (2,)


class TestDynamicPriorities:
    def test_initial_fractions_order_by_agent_id(self):
        pri = initial_priorities(3)
        assert pri[0] > pri[1] > pri[2]
        assert all(0.0 <= p < 1.0 for p in pri)

    def test_at_goal_resets_to_zero_integer_part(self):
        goals = (0, 1)
        pri = bumped_priorities([5.5, 7.25], goals, goals)
        assert pri == initial_priorities(2)

    def test_off_goal_counts_updates(self):
        goals = (0, 1)
        q = (2, 3)
        pri = initial_priorities(2)
        for _ in range(3):
            pri = bumped_priorities(pri, q, goals)
        assert [int(p) for p in pri] == [3, 3]
        assert pri[0] > pri[1]

    def test_update_priorities_reorders_processing(self, tunnel_grid):
        ctx = PibtContext(tunnel_grid, (0, 2), seed=0)
        update_priorities(ctx, (1, 2))  # agent 0 off goal, agent 1 on goal
        assert ctx.priorities[0] > 1.0
        assert ctx.priorities[1] < 1.0


class TestVanillaLivelock:
    def test_head_to_head_in_stem_never_resolves(self, tunnel_grid):
        goals = (4, 3)
        ctx = PibtContext(tunnel_grid, goals, seed=0, swap_enabled=False)
        reached, path = iterate(ctx, (3, 4), goals, 10 * tunnel_grid.num_vertices)
        assert not reached
        # the tail oscillates among the three livelock configurations
        assert set(path[-6:]) <= {(1, 3), (3, 4), (4, 5)}


class TestSwapDetector:
    def test_detects_only_for_the_escapable_agent(self, tunnel_grid):
        goals = (4, 3)
        q = (3, 4)
        ctx = PibtContext(tunnel_grid, goals, seed=0)
        assert swap_required_and_possible(ctx, 0, q, best_candidate=4) == 1
        assert swap_required_and_possible(ctx, 1, q, best_candidate=3) is None

    def test_unoccupied_best_candidate(self, tunnel_grid):
        ctx = PibtContext(tunnel_grid, (5, 0), seed=0)
        q = (3, 0)
        assert swap_required_and_possible(ctx, 0, q, best_candidate=4) is None

    def test_dead_end_corridor_is_impossible(self):
        grid = parse_map("type octile\nheight 1\nwidth 4\nmap\n....\n")
        goals = (3, 0)
        q = (1, 2)
        ctx = PibtContext(grid, goals, seed=0)
        assert swap_required_and_possible(ctx, 0, q, best_candidate=2) is None
        assert swap_required_and_possible(ctx, 1, q, best_candidate=1) is None


class TestSwapStep:
    def test_tunnel_resolved_within_budget(self, tunnel_grid):
        goals = (4, 3)
        ctx = PibtContext(tunnel_grid, goals, seed=0, swap_enabled=True)
        reached, path = iterate(ctx, (3, 4), goals, 6 * tunnel_grid.num_vertices)
        assert reached
        # regression: the seed-0 run performs the minimal six-configuration
        # maneuver (retreat to the bar, rotate, re-enter swapped)
        assert len(path) - 1 == 5
        assert path == [(3, 4), (1, 3), (2, 1), (1, 0), (3, 1), (4, 3)]

    def test_tunnel_resolves_across_seeds(self, tunnel_grid):
        goals = (4, 3)
        for seed in range(5):
            ctx = PibtContext(tunnel_grid, goals, seed=seed, swap_enabled=True)
            reached, _ = iterate(ctx, (3, 4), goals, 6 * tunnel_grid.num_vertices)
            assert reached

    def test_no_pattern_means_no_behavior_change(self):
        # two agents crossing an open grid on parallel rows never meet, so
        # the detector stays silent and both modes emit the same stream
        grid = GridMap(5, 5, [True] * 25)
        goals = (grid.vertex_at(4, 0), grid.vertex_at(4, 4))
        q = (grid.vertex_at(0, 0), grid.vertex_at(0, 4))
        ctx_on = PibtContext(grid, goals, seed=7, swap_enabled=True)
        ctx_off = PibtContext(grid, goals, seed=7, swap_enabled=False)
        for _ in range(8):
            a = step(ctx_on, q)
            b = step(ctx_off, q)
            assert a == b
            update_priorities(ctx_on, a)
            update_priorities(ctx_off, b)
            q = a


class TestPins:
    def test_pinned_agent_lands_on_pin(self, tunnel_grid):
        goals = (4, 3)
        ctx = PibtContext(tunnel_grid, goals, seed=0)
        q_to = step(ctx, (3, 4), pins={0: 1})
        assert q_to is not None and q_to[0] == 1

    def test_full_pinning_determines_configuration(self, tunnel_grid):
        goals = (4, 3)
        ctx = PibtContext(tunnel_grid, goals, seed=0)
        assert step(ctx, (3, 4), pins={0: 1, 1: 3}) == (1, 3)

    def test_off_neighborhood_pin_raises(self, tunnel_grid):
        ctx = PibtContext(tunnel_grid, (4, 3), seed=0)
        with pytest.raises(PinError, match="neighborhood"):
            step(ctx, (3, 4), pins={0: 5})

    def test_colliding_pins_raise(self, tunnel_grid):
        ctx = PibtContext(tunnel_grid, (4, 3), seed=0)
        with pytest.raises(PinError, match="one vertex"):
            step(ctx, (3, 4), pins={0: 4, 1: 4})
        with pytest.raises(PinError, match="exchange"):
            step(ctx, (3, 4), pins={0: 4, 1: 3})

    def test_unsatisfiable_pin_forces_failure(self):
        grid = GridMap(2, 1, [True, True])
        ctx = PibtContext(grid, (1, 0), seed=0)
        # agent 1 is pinned into agent 0's cell while agent 0 has no escape
        assert step(ctx, (0, 1), pins={1: 0}) is None


class TestDeterminismAndSafety:
    @given(length=st.integers(0, 6), seed=st.integers())
    def test_shuffle_matches_random_shuffle(self, length, seed):
        expected_rng = random.Random(seed)
        expected = list(range(length))
        expected_rng.shuffle(expected)
        rng = random.Random(seed)
        items = list(range(length))
        _shuffle(items, _fisher_yates_steps(length), rng.getrandbits)
        assert items == expected
        assert rng.getstate() == expected_rng.getstate()

    def test_identical_seed_identical_stream(self):
        rng = random.Random(2)
        inst = random_instance(rng, 6, 6, 0.2, 5, connected_only=True)
        ctx_a = PibtContext(inst.grid, inst.goals, seed=123)
        ctx_b = PibtContext(inst.grid, inst.goals, seed=123)
        q = inst.starts
        for _ in range(20):
            a = step(ctx_a, q)
            b = step(ctx_b, q)
            assert a == b
            update_priorities(ctx_a, a)
            update_priorities(ctx_b, a)
            q = a

    def test_random_steps_stay_connected_and_honor_pins(self):
        rng = random.Random(8)
        for trial in range(150):
            inst = random_instance(
                rng, rng.randint(3, 6), rng.randint(3, 6), rng.uniform(0, 0.3),
                rng.randint(1, 5),
            )
            if inst is None:
                continue
            ctx = PibtContext(
                inst.grid, inst.goals, seed=trial, swap_enabled=bool(trial % 2)
            )
            q = inst.starts
            pins = {}
            if trial % 3 == 0 and inst.n:
                agent = rng.randrange(inst.n)
                choices = [*inst.grid.neighbors(q[agent]), q[agent]]
                pins = {agent: rng.choice(choices)}
            try:
                q_to = step(ctx, q, pins)
            except PinError:
                continue
            if q_to is None:
                continue
            assert is_connected(q, q_to, inst.grid)
            for agent, v in pins.items():
                assert q_to[agent] == v
