"""Cross-version golden outputs of the step generator and the solver.

The digests below are constants. They pin the random stream, the
candidate order and the search itself across versions of the engine,
which a test comparing two runs of one build cannot catch. Never
regenerate them to make a change pass: a change that is meant to alter
outputs says so and records new digests.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from mapfkit import (
    Instance,
    Objective,
    PibtContext,
    SolverOptions,
    SolveStatus,
    format_solution,
    parse_map,
    parse_scenario,
    plan_step,
    solve,
    update_priorities,
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
