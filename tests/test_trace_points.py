"""The benchmark tracer's patch points stay on the engine's hot path.

``benchmark/tracer.py`` times layers by replacing module attributes where
their callers look them up. If a caller stopped resolving one of these
names through its module (an inlined call, a local alias), the traced
split would silently read zero for that layer; this test catches that.
"""

from __future__ import annotations

import collections

import mapfkit.grid as grid
import mapfkit.lacam as lacam
import mapfkit.pibt as pibt
from mapfkit import Instance, Objective, SolverOptions, SolveStatus, parse_map, solve

from conftest import fixture_text

TRACE_POINTS = (
    (lacam, "plan_step"),
    (pibt, "swap_required_and_possible"),
    (grid, "bfs_dist_table"),
    (lacam, "rewire"),
)


def test_every_trace_point_is_called(monkeypatch):
    calls: collections.Counter[str] = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in TRACE_POINTS:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))

    # Each solve creates its own tables, one bfs_dist_table call per agent.
    tunnel = parse_map(fixture_text("tunnel.map"))
    out = solve(
        Instance(grid=tunnel, starts=(3, 4), goals=(4, 3)),
        SolverOptions(objective=Objective.MAKESPAN, swap_enabled=True, seed=0),
    )
    assert out.status is SolveStatus.OPTIMAL
    assert calls["bfs_dist_table"] == 2
    for _, name in TRACE_POINTS:
        assert calls[name] > 0, f"{name} was never called through its module"


def test_edge_costs_are_computed_once_per_arc(monkeypatch, tunnel_instance):
    # Wraps ``edge_cost_fn`` as the tracer's ``core.edge_cost`` span does.
    # Every node but the root enters through one arc, and every arc to a
    # known node is recorded just before one ``rewire`` call.
    counts: collections.Counter[str] = collections.Counter()
    in_rewire = []
    real_cost_fn, real_rewire = lacam.edge_cost_fn, lacam.rewire

    def counting_factory(*args):
        counts["factory"] += 1
        cost = real_cost_fn(*args)

        def counted(x, y):
            counts["cost"] += 1
            counts["cost_in_rewire"] += bool(in_rewire)
            return cost(x, y)

        return counted

    def counting_rewire(*args):
        counts["rewire"] += 1
        in_rewire.append(True)
        try:
            return real_rewire(*args)
        finally:
            in_rewire.pop()

    monkeypatch.setattr(lacam, "edge_cost_fn", counting_factory)
    monkeypatch.setattr(lacam, "rewire", counting_rewire)
    out = solve(tunnel_instance, SolverOptions(objective=Objective.SUM_OF_FUELS, seed=2))
    assert out.status is SolveStatus.OPTIMAL
    assert counts["factory"] == 1
    assert counts["rewire"] > 0
    assert counts["cost"] == out.stats.node_count - 1 + counts["rewire"]
    assert counts["cost_in_rewire"] == 0
