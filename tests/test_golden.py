"""Cross-version golden outputs of the step generator and the solver.

The digests below are constants. They pin the random stream, the
candidate order and the search itself across versions of the engine,
which a test comparing two runs of one build cannot catch. Never
regenerate them to make a change pass: a change that is meant to alter
outputs says so and records new digests.
"""

from __future__ import annotations

import hashlib

import pytest

from mapfkit import (
    Instance,
    PibtContext,
    SolverOptions,
    SolveStatus,
    StepRequest,
    format_solution,
    parse_map,
    parse_scenario,
    plan_step,
    solve,
    update_priorities,
)

from conftest import fixture_text

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
        q = plan_step(ctx, StepRequest(q_from=q))
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


def test_anytime_status_and_cost(random32):
    # Iteration and node counts of an anytime solve are left out: rewire
    # walks set-valued arcs in address order, which varies between processes.
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
