"""Cross-version golden outputs of the step generator and the solver.

The digests below are constants. They pin the random stream, the
candidate order and the search itself across versions of the engine,
which a test comparing two runs of one build cannot catch. Never
regenerate them to make a change pass: a change that is meant to alter
outputs says so and records new digests.
"""

from __future__ import annotations

import collections
import hashlib
import random
import sys

import pytest

import mapfkit.grid as grid
from mapfkit.lacam import HighLevelNode, _Search
from mapfkit import (
    GridMap,
    Instance,
    Objective,
    PibtContext,
    SolverOptions,
    SolveStatus,
    format_solution,
    parse_map,
    parse_scenario,
    parse_solution,
    plan_step,
    solve,
    update_priorities,
    validate,
)

from conftest import fixture_text, random_instance

N_AGENTS = 100
N_STEPS = 200

PLAN_STEP_DIGESTS = {
    True: "29927cf3e49802a8c2abd578c6426e264eae38fb714ae7ecfe5705a57c6ddbef",
    False: "317b52bd992362e276b7d4b5102f5591a2ce716275df297f2140d7b5a2fd84b1",
}
PLAIN_SOLVE_DIGEST = "ea5445823c40522c6ba7afbea247f308fa07fa60cf8e89467487767d5dbe6981"
PLAIN_SOLVE_COUNTS = (2768, 105, 77)  # cost, iterations, nodes
ANYTIME_ITERATIONS = 1000
ANYTIME_RESULT = (SolveStatus.SUBOPTIMAL, 2873)
# Recorded once arcs were walked in insertion order rather than by address.
ANYTIME_COUNTS = (1000, 451)  # iterations, nodes
ANYTIME_TRACE_COSTS = [2873]
# Incumbent reporting on 5x5/20% n=3 instances drawn from random.Random(8):
# the draws whose anytime runs improve the incumbent several times.
REPORTING_DRAWS = (7, 22, 25, 38)
REPORTING_ITERATIONS = 2000
REPORTING_DIGEST = "577196e81c53c11983bcf527cf239b23b0b8fe551491a73a848827eaff164d8a"
REPORTING_IMPROVEMENTS = 88
# Distance-table entries a plain solve (seed 0) searched, over its 100
# tables of 819 vertices; eager tables would search all 81,900. Recorded
# when the tables became lazy: a change that searches more fails here
# without any timing.
SEARCHED_VERTICES = 45927
# Bytes per search node (64-bit CPython), each object counted once over all
# nodes: of the anytime solve above, and of the reporting draws below run to
# exhaustion. Float priorities and a deque constraint queue made them ~6,100
# and ~1,410; integer step counts and a list queue that is cleared once
# spent ~3,300 and ~780 (~1,260 if spent queues were kept); an agent order
# derived when a node is popped, packed step counts and one shared root
# constraint ~2,020 and ~650.
ANYTIME_NODE_BYTES_BOUND = 2500
EXHAUSTIVE_NODES = 1191
EXHAUSTIVE_NODE_BYTES_BOUND = 720


@pytest.fixture(scope="module")
def random32() -> Instance:
    grid = parse_map(fixture_text("random-32-32-20.map"))
    starts, goals = parse_scenario(
        fixture_text("random-32-32-20.scen"), grid, N_AGENTS
    )
    return Instance(grid=grid, starts=starts, goals=goals)


def plan_step_digest(instance: Instance, swap_enabled: bool) -> str:
    ctx = PibtContext(instance.grid, instance.goals, seed=7, swap_enabled=swap_enabled)
    h = hashlib.sha256()
    q = instance.starts
    for _ in range(N_STEPS):
        q = plan_step(ctx, q)
        assert q is not None
        update_priorities(ctx, q)
        h.update((",".join(map(str, q)) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("swap_enabled", [True, False])
def test_plan_step_stream(random32, swap_enabled):
    assert plan_step_digest(random32, swap_enabled) == PLAN_STEP_DIGESTS[swap_enabled]


def test_plain_lacam_solution_bytes(random32):
    out = solve(random32, SolverOptions(anytime=False, seed=3))
    assert out.status is SolveStatus.SUBOPTIMAL
    text = format_solution(out.solution, random32.grid)
    assert hashlib.sha256(text.encode()).hexdigest() == PLAIN_SOLVE_DIGEST
    assert (out.cost, out.stats.iterations, out.stats.node_count) == PLAIN_SOLVE_COUNTS


def test_plain_lacam_searched_vertices(random32, monkeypatch):
    tables = []
    create = grid.bfs_dist_table

    def recording(graph, target):
        tables.append(create(graph, target))
        return tables[-1]

    monkeypatch.setattr(grid, "bfs_dist_table", recording)
    out = solve(random32, SolverOptions(anytime=False, seed=0))
    assert out.status is SolveStatus.SUBOPTIMAL
    assert len(tables) == random32.n
    searched = sum(table.searched for table in tables)
    assert searched < random32.n * random32.grid.num_vertices
    assert searched == SEARCHED_VERTICES


def test_solution_io_reads_lookup_tables(monkeypatch):
    # Writing, re-reading and validating a solution reads each grid's text
    # tables, built once, and makes no per-vertex call: a return to the
    # per-vertex path fails here without any timing.
    fresh = parse_map(fixture_text("random-32-32-20.map"))
    scen = fixture_text("random-32-32-20.scen")
    starts, goals = parse_scenario(scen, fresh, N_AGENTS)
    instance = Instance(grid=fresh, starts=starts, goals=goals)
    out = solve(instance, SolverOptions(anytime=False, seed=3))
    calls: collections.Counter[str] = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in (
        (GridMap, "coords"),
        (GridMap, "vertex_at"),
        (grid.VertexGraph, "neighbors"),
    ):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    for name in ("coord_texts", "coord_vertices"):
        cache = GridMap.__dict__[name]
        monkeypatch.setattr(cache, "func", counting(f"build {name}", cache.func))

    for _ in range(2):
        text = format_solution(out.solution, fresh)
        parsed = parse_solution(text, fresh)
        assert validate(instance, parsed) is None
    assert hashlib.sha256(text.encode()).hexdigest() == PLAIN_SOLVE_DIGEST
    assert parsed.configs == out.solution.configs
    assert calls == {"build coord_texts": 1, "build coord_vertices": 1}


def test_anytime_status_and_cost(random32):
    # Iteration and node counts of this solve are pinned separately, by
    # test_anytime_counts_and_trace; they repeat across processes.
    out = solve(
        random32, SolverOptions(seed=5, iteration_budget=ANYTIME_ITERATIONS)
    )
    assert (out.status, out.cost) == ANYTIME_RESULT


def test_anytime_counts_and_trace(random32):
    out = solve(
        random32, SolverOptions(seed=5, iteration_budget=ANYTIME_ITERATIONS)
    )
    assert (out.stats.iterations, out.stats.node_count) == ANYTIME_COUNTS
    assert [cost for _, cost in out.stats.trace] == ANYTIME_TRACE_COSTS


def _explored_nodes(instance: Instance, options: SolverOptions) -> list[HighLevelNode]:
    search = _Search(instance, options)
    while search.open_stack and not search.interrupted():
        search.step()
    return list(search.explored.values())


def _node_sizes(nodes: list[HighLevelNode]) -> tuple[float, set[str]]:
    """Bytes per node and the names of the fields that hold a float.

    The bytes are sys.getsizeof of each node and of each field's object and
    items, every object counted once, so the small ints that CPython shares
    cost nothing per node. An array holds no item objects: sys.getsizeof
    counts its buffer.
    """
    seen: set[int] = set()

    def size(obj) -> int:
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return sys.getsizeof(obj)

    total = 0
    float_fields: set[str] = set()
    for node in nodes:
        total += size(node)
        for name in HighLevelNode.__slots__:
            if name == "parent":
                continue
            value = getattr(node, name)
            items = value if isinstance(value, (list, tuple)) else ()
            if isinstance(value, float) or any(isinstance(x, float) for x in items):
                float_fields.add(name)
            total += size(value) + sum(size(x) for x in items)
    return total / len(nodes), float_fields


def test_anytime_node_bytes(random32):
    # A run keeps every node, so their size limits how far it can search.
    # Measured without RSS noise.
    nodes = _explored_nodes(
        random32, SolverOptions(seed=5, iteration_budget=ANYTIME_ITERATIONS)
    )
    assert len(nodes) == ANYTIME_COUNTS[1]
    per_node, float_fields = _node_sizes(nodes)
    assert float_fields == set()
    assert per_node < ANYTIME_NODE_BYTES_BOUND


def test_exhaustive_node_bytes():
    # Searched to exhaustion, most nodes spend their constraint queue; a
    # spent queue must not keep the constraints that no child refers to.
    rng = random.Random(8)
    draws = [random_instance(rng, 5, 5, 0.2, 3) for _ in range(max(REPORTING_DRAWS) + 1)]
    nodes = []
    for k in REPORTING_DRAWS:
        nodes += _explored_nodes(draws[k], SolverOptions(seed=k))
    assert len(nodes) == EXHAUSTIVE_NODES
    per_node, float_fields = _node_sizes(nodes)
    assert float_fields == set()
    assert per_node < EXHAUSTIVE_NODE_BYTES_BOUND


def _solution_digest(instance: Instance, solution) -> str:
    text = format_solution(solution, instance.grid)
    return hashlib.sha256(text.encode()).hexdigest()


def test_incumbent_reporting():
    # Digests the trace costs, the improvement callback's (cost, solution
    # bytes) sequence and the final outcome of every run, so a change to
    # when or how often the incumbent is reported shows up here.
    rng = random.Random(8)
    draws = [random_instance(rng, 5, 5, 0.2, 3) for _ in range(max(REPORTING_DRAWS) + 1)]
    h = hashlib.sha256()
    improvements = 0
    for k in REPORTING_DRAWS:
        instance = draws[k]
        for objective in Objective:
            for discard in (True, False):
                reported = []
                out = solve(
                    instance,
                    SolverOptions(
                        objective=objective,
                        seed=k,
                        discard_enabled=discard,
                        iteration_budget=REPORTING_ITERATIONS,
                        improvement_callback=lambda cost, sol: reported.append(
                            (cost, _solution_digest(instance, sol))
                        ),
                    ),
                )
                improvements += len(reported)
                final = (
                    out.status.value,
                    out.cost,
                    out.stats.iterations,
                    out.stats.node_count,
                    _solution_digest(instance, out.solution) if out.solution else None,
                )
                trace_costs = [cost for _, cost in out.stats.trace]
                h.update(repr((k, objective.value, discard, trace_costs, reported, final)).encode())
    assert improvements == REPORTING_IMPROVEMENTS
    assert h.hexdigest() == REPORTING_DIGEST
