"""The benchmark tracer's patch points stay on the engine's hot path.

``benchmark/tracer.py`` times layers by replacing module attributes where
their callers look them up. If a caller stopped resolving one of these
names through its module (an inlined call, a local alias), the traced
split would silently read zero for that layer; this test catches that.
"""

from __future__ import annotations

import collections

import pytest

import mapfkit.grid as grid
import mapfkit.lacam as lacam
import mapfkit.pibt as pibt
from mapfkit import (
    Instance,
    Objective,
    SolverOptions,
    SolveStatus,
    parse_map,
    parse_scenario,
    solve,
)
from mapfkit.lacam import _Search

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


def _run(instance: Instance, options: SolverOptions) -> _Search:
    """The search, stepped as :func:`mapfkit.lacam.solve` steps it."""
    search = _Search(instance, options)
    while search.open_stack and not search.interrupted():
        search.step()
    return search


def test_edge_costs_are_computed_once_per_arc(monkeypatch, tunnel_instance):
    # Wraps ``edge_cost_fn`` as the tracer's ``core.edge_cost`` span does.
    # Every recorded arc, to a new node or a known one, costs one call, and
    # no call is made inside a rewire wave, which reads the stored weights.
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
    search = _run(tunnel_instance, SolverOptions(objective=Objective.SUM_OF_FUELS, seed=2))
    assert search.outcome().status is SolveStatus.OPTIMAL
    nodes = search.explored.values()
    arcs = sum(len(node.neighbors) for node in nodes)
    assert counts["factory"] == 1
    assert counts["rewire"] > 0
    assert arcs > len(nodes) - 1  # some arcs lead to known nodes
    assert counts["cost"] == arcs
    assert counts["cost_in_rewire"] == 0


def _random32(n: int) -> Instance:
    """The first ``n`` agents of the golden 32x32 scenario."""
    grid_map = parse_map(fixture_text("random-32-32-20.map"))
    starts, goals = parse_scenario(fixture_text("random-32-32-20.scen"), grid_map, n)
    return Instance(grid=grid_map, starts=starts, goals=goals)


@pytest.mark.parametrize(
    "instance, options",
    [
        ("tunnel", SolverOptions(objective=Objective.SUM_OF_FUELS, seed=2)),
        ("tunnel", SolverOptions(objective=Objective.MAKESPAN, seed=0)),
        ("random32", SolverOptions(seed=3, iteration_budget=3000)),
    ],
)
def test_every_rewire_lowers_a_g(monkeypatch, request, instance, options):
    # A wave is started only for an arc that lowers the g of the node it
    # reaches; any other wave would change nothing.
    if instance == "tunnel":
        instance = request.getfixturevalue("tunnel_instance")
    else:
        instance = _random32(50)
    real_rewire = lacam.rewire
    lowered = []

    def checking_rewire(from_node, *args):
        before = {node: node.g for node in from_node.neighbors}
        real_rewire(from_node, *args)
        lowered.append(any(node.g < g for node, g in before.items()))

    monkeypatch.setattr(lacam, "rewire", checking_rewire)
    _run(instance, options)
    assert lowered and all(lowered)
