"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The random corpus is fixed-seed and deliberately weighted toward
small instances so the exhaustive-optimality checks stay fast.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import pytest

from mapfkit import (
    Instance,
    Objective,
    PibtContext,
    SolveStatus,
    SolverOptions,
    heuristic,
    is_connected,
    optimal_cost,
    parse_map,
    parse_scenario,
    plan_step,
    solve,
    update_priorities,
    validate,
)
from mapfkit.bench import (
    ExperimentConfig,
    SolverVariant,
    generate_map,
    largest_component,
    run_suite,
    sample_instance,
    write_csv,
)
from mapfkit.cli import main as cli_main

from conftest import FIXTURES, fixture_text


def report(criterion: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {verdict}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


@dataclass(frozen=True)
class CorpusEntry:
    instance: Instance
    label: str


def _build_corpus() -> list[CorpusEntry]:
    rng = random.Random(20240501)
    entries: list[CorpusEntry] = []

    def add(width, height, density, n, count, tag):
        made = 0
        while made < count:
            grid = generate_map(width, height, density, rng)
            if grid.num_vertices < n:
                continue
            pool = list(range(grid.num_vertices))
            starts = tuple(rng.sample(pool, n))
            goals = tuple(rng.sample(pool, n))
            entries.append(
                CorpusEntry(
                    Instance(grid=grid, starts=starts, goals=goals),
                    f"{tag}-{made}",
                )
            )
            made += 1

    add(4, 4, 0.00, 2, 40, "4x4-open-2")
    add(4, 4, 0.15, 2, 40, "4x4-d15-2")
    add(4, 4, 0.30, 2, 40, "4x4-d30-2")
    add(5, 5, 0.00, 2, 14, "5x5-open-2")
    add(5, 5, 0.20, 2, 14, "5x5-d20-2")
    add(5, 5, 0.30, 2, 14, "5x5-d30-2")
    add(4, 4, 0.15, 3, 12, "4x4-d15-3")
    add(4, 4, 0.30, 3, 12, "4x4-d30-3")
    add(5, 5, 0.30, 3, 6, "5x5-d30-3")
    add(4, 4, 0.30, 4, 6, "4x4-d30-4")

    # constructed unsolvable cases: head-on exchanges with no side room
    from mapfkit import GridMap

    two = GridMap(2, 1, [True, True])
    entries.append(CorpusEntry(Instance(grid=two, starts=(0, 1), goals=(1, 0)), "swap2"))
    three = GridMap(3, 1, [True] * 3)
    entries.append(
        CorpusEntry(Instance(grid=three, starts=(0, 2), goals=(2, 0)), "cross3")
    )
    return entries


@pytest.fixture(scope="module")
def corpus() -> list[CorpusEntry]:
    return _build_corpus()


@pytest.fixture(scope="module")
def oracle_costs(corpus) -> list[dict[Objective, int | None]]:
    return [
        {objective: optimal_cost(e.instance, objective) for objective in Objective}
        for e in corpus
    ]


def test_criterion_1_optimality_vs_oracle(corpus, oracle_costs):
    """Exhaustive runs return OPTIMAL with exactly the oracle's cost."""
    assert len(corpus) >= 200
    started = time.monotonic()
    solvable = unsolvable = 0
    for idx, entry in enumerate(corpus):
        for objective in Objective:
            expected = oracle_costs[idx][objective]
            out = solve(entry.instance, SolverOptions(objective=objective, seed=idx))
            if expected is None:
                assert out.status is SolveStatus.NO_SOLUTION, (
                    entry.label, objective, out.status)
                unsolvable += 1
            else:
                assert out.status is SolveStatus.OPTIMAL, (
                    entry.label, objective, out.status)
                assert out.cost == expected, (entry.label, objective)
                assert validate(entry.instance, out.solution) is None
                solvable += 1
    elapsed = time.monotonic() - started
    report(
        "criterion-1 optimality-vs-oracle",
        True,
        f"{len(corpus)} instances, {solvable} optimal + {unsolvable} unsolvable "
        f"runs in {elapsed:.1f}s",
    )


def test_criterion_2_g_value_invariant(corpus):
    """Debug mode re-derives every g-value each iteration without drift."""
    small = [e for e in corpus if e.label.startswith("4x4-d30-2")][:20]
    assert len(small) == 20
    started = time.monotonic()
    for idx, entry in enumerate(small):
        out = solve(
            entry.instance,
            SolverOptions(objective=Objective.SUM_OF_LOSS, seed=idx, debug_check_g=True),
        )
        assert out.status in (SolveStatus.OPTIMAL, SolveStatus.NO_SOLUTION)
    report(
        "criterion-2 shortest-path-g-invariant",
        True,
        f"20 instances checked in {time.monotonic() - started:.1f}s",
    )


def test_criterion_3_livelock_repair(tunnel_grid, tunnel_instance, tunnel4_instance):
    """The stem swap defeats iterated one-step planning but not the search."""
    goals = tunnel_instance.goals
    ctx = PibtContext(tunnel_grid, goals, seed=0, swap_enabled=False)
    q = tunnel_instance.starts
    reached = False
    for _ in range(10 * tunnel_grid.num_vertices):
        q = plan_step(ctx, q)
        update_priorities(ctx, q)
        if q == goals:
            reached = True
            break
    vanilla_fails = not reached

    with_swap = solve(
        tunnel_instance,
        SolverOptions(objective=Objective.MAKESPAN, anytime=False, seed=0),
    )
    lacam_solves = with_swap.solution is not None and (
        validate(tunnel_instance, with_swap.solution) is None
    )

    iters = {}
    for swap in (True, False):
        out = solve(
            tunnel4_instance,
            SolverOptions(
                objective=Objective.MAKESPAN, swap_enabled=swap, anytime=False, seed=2
            ),
        )
        assert out.solution is not None
        iters[swap] = out.stats.iterations
    ratio = iters[False] / iters[True]
    report(
        "criterion-3 livelock-repair",
        vanilla_fails and lacam_solves and ratio >= 10.0,
        f"vanilla stuck={vanilla_fails}, search solves={lacam_solves}, "
        f"4-agent iterations {iters[False]} vs {iters[True]} ({ratio:.0f}x)",
    )


def test_criterion_4_discarding_effect(corpus, oracle_costs):
    """Skipping dominated nodes never hurts and often helps, at equal cost."""
    picked = []
    for idx, entry in enumerate(corpus):
        if oracle_costs[idx][Objective.SUM_OF_LOSS] is None:
            continue
        if entry.label.startswith(("4x4-d30-2", "4x4-d15-2")):
            picked.append((idx, entry))
        if len(picked) == 20:
            break
    assert len(picked) == 20
    started = time.monotonic()
    reductions = 0
    for idx, entry in picked:
        on = solve(
            entry.instance,
            SolverOptions(objective=Objective.SUM_OF_LOSS, seed=idx, discard_enabled=True),
        )
        off = solve(
            entry.instance,
            SolverOptions(objective=Objective.SUM_OF_LOSS, seed=idx, discard_enabled=False),
        )
        assert on.status is off.status is SolveStatus.OPTIMAL
        assert on.cost == off.cost, entry.label
        assert on.stats.iterations <= off.stats.iterations, entry.label
        if on.stats.iterations < off.stats.iterations:
            reductions += 1
    report(
        "criterion-4 discarding-effect",
        reductions >= 5,
        f"strict reduction on {reductions}/20 instances "
        f"in {time.monotonic() - started:.1f}s",
    )


def test_criterion_5_anytime_refinement():
    """Traces never increase, appear quickly, and stay valid throughout."""
    rng = random.Random(77)
    checked = 0
    worst_init = 0.0
    while checked < 10:
        grid = generate_map(16, 16, 0.2, rng)
        pool = largest_component(grid)
        if len(pool) < 40:
            continue
        inst = sample_instance(grid, 20, rng, connected_only=True)
        intermediate = []

        def on_improve(cost, solution, _inst=inst, _sink=intermediate):
            _sink.append((cost, validate(_inst, solution) is None))

        out = solve(
            inst,
            SolverOptions(
                objective=Objective.SUM_OF_LOSS,
                seed=checked,
                time_budget=5.0,
                improvement_callback=on_improve,
            ),
        )
        assert out.solution is not None, "no initial solution within budget"
        costs = [c for _, c in out.stats.trace]
        assert all(b < a for a, b in zip(costs, costs[1:])), "trace increased"
        init_ms = out.stats.trace[0][0]
        worst_init = max(worst_init, init_ms)
        assert init_ms < 500.0, f"initial solution took {init_ms:.0f}ms"
        assert all(ok for _, ok in intermediate), "invalid intermediate solution"
        checked += 1
    report(
        "criterion-5 anytime-refinement",
        True,
        f"10 instances, worst initial-solution latency {worst_init:.0f}ms",
    )


def test_criterion_6_scalability_smoke():
    """200 agents on a 32x32/20% map: fast initial solution of sane quality."""
    grid = parse_map(fixture_text("random-32-32-20.map"))
    starts, goals = parse_scenario(fixture_text("random-32-32-20.scen"), grid, 200)
    inst = Instance(grid=grid, starts=starts, goals=goals)
    out = solve(
        inst,
        SolverOptions(objective=Objective.SUM_OF_LOSS, seed=0, time_budget=10.0),
    )
    ok_solved = out.solution is not None
    init_ms = out.stats.trace[0][0] if out.stats.trace else float("inf")
    ok_valid = ok_solved and validate(inst, out.solution) is None
    tables = [grid.dist_table(g) for g in goals]
    lower_bound = heuristic(Objective.SUM_OF_LOSS, starts, tables)
    first_cost = out.stats.trace[0][1] if out.stats.trace else None
    normalized = (first_cost / lower_bound) if first_cost else float("inf")
    report(
        "criterion-6 scalability-smoke",
        ok_solved and ok_valid and init_ms < 10_000 and normalized <= 5.0,
        f"initial in {init_ms:.0f}ms, normalized sum-of-loss {normalized:.2f}",
    )


def test_criterion_7_generator_safety():
    """10,000 step requests: connectivity always, pins always exact."""
    rng = random.Random(4242)
    calls = 0
    started = time.monotonic()
    while calls < 10_000:
        n = rng.randint(1, 6)
        grid = generate_map(rng.randint(4, 7), rng.randint(4, 7), rng.uniform(0, 0.3), rng)
        pool = list(range(grid.num_vertices))
        if len(pool) < n:
            continue
        goals = tuple(rng.sample(pool, n))
        q = tuple(rng.sample(pool, n))
        ctx = PibtContext(
            grid, goals, seed=calls, swap_enabled=bool(calls % 2)
        )
        for _ in range(25):
            pins = {}
            if rng.random() < 0.4:
                agent = rng.randrange(n)
                options = [*grid.neighbors(q[agent]), q[agent]]
                pins = {agent: rng.choice(options)}
            try:
                q_to = plan_step(ctx, q, pins)
            except Exception as exc:  # malformed pins are sampled legal; never expected
                raise AssertionError(f"unexpected error: {exc}") from exc
            calls += 1
            if q_to is None:
                continue
            assert is_connected(q, q_to, grid), "connectivity violated"
            for agent, v in pins.items():
                assert q_to[agent] == v, "pin not honored"
            update_priorities(ctx, q_to)
            q = q_to
            if calls >= 10_000:
                break
    report(
        "criterion-7 generator-safety",
        True,
        f"10,000 calls, zero violations, {time.monotonic() - started:.1f}s",
    )


def test_criterion_8_heuristic_admissibility(corpus, oracle_costs):
    """The start-state lower bound never exceeds the true optimum."""
    checked = 0
    for idx, entry in enumerate(corpus):
        tables = [entry.instance.grid.dist_table(g) for g in entry.instance.goals]
        for objective in Objective:
            expected = oracle_costs[idx][objective]
            if expected is None:
                continue
            assert heuristic(objective, entry.instance.starts, tables) <= expected
            checked += 1
    report(
        "criterion-8 heuristic-admissibility",
        True,
        f"{checked} instance-objective pairs",
    )


def test_criterion_9_determinism_and_format_closure(tmp_path):
    """Same seed, same bytes; every emitted file re-parses to equal values."""
    # solver determinism down to the solution file bytes
    solution_files = []
    for run in range(2):
        out_file = tmp_path / f"sol{run}.txt"
        code = cli_main(
            ["solve", "-m", str(FIXTURES / "tunnel.map"),
             "-i", str(FIXTURES / "tunnel.scen"), "-N", "2",
             "--objective", "makespan", "-s", "11", "-o", str(out_file)]
        )
        assert code == 0
        solution_files.append(out_file.read_bytes())
    same_solution = solution_files[0] == solution_files[1]

    # benchmark determinism, timing column excluded
    def csv_without_timing(path):
        rows = path.read_text().strip().splitlines()
        keep = []
        for row in rows[1:]:
            cells = row.split(",")
            del cells[6]  # init_time_ms
            keep.append(",".join(cells))
        return keep

    cfg = ExperimentConfig(
        map_paths=(str(FIXTURES / "tunnel.map"), str(FIXTURES / "corridor.map")),
        scen_paths=(str(FIXTURES / "tunnel.scen"), str(FIXTURES / "corridor.scen")),
        agents_start=1,
        agents_step=1,
        agents_max=1,
        objective=Objective.SUM_OF_LOSS,
        variants=(SolverVariant("full"), SolverVariant("noswap", swap_enabled=False)),
        seed=5,
    )
    a = write_csv(run_suite(cfg), tmp_path / "a.csv")
    b = write_csv(run_suite(cfg), tmp_path / "b.csv")
    same_csv = csv_without_timing(a) == csv_without_timing(b)

    # generation closure: emitted files re-parse to equal in-memory values
    code = cli_main(
        ["gen", "--size", "12x12", "--obstacle-density", "0.2", "--agents", "14",
         "--seed", "3", "-o", str(tmp_path / "gen")]
    )
    assert code == 0
    grid = parse_map((tmp_path / "gen.map").read_text())
    starts, goals = parse_scenario((tmp_path / "gen.scen").read_text(), grid, 14)
    regen = parse_map(grid.to_text())
    closure = regen == grid and len(starts) == 14 and len(set(goals)) == 14

    # solution files re-parse to the exact configuration sequence
    from mapfkit import parse_solution

    sol_text = (tmp_path / "sol0.txt").read_text()
    parsed = parse_solution(sol_text, parse_map(fixture_text("tunnel.map")))
    inst = Instance(
        grid=parse_map(fixture_text("tunnel.map")),
        starts=parse_scenario(fixture_text("tunnel.scen"), parse_map(fixture_text("tunnel.map")), 2)[0],
        goals=parse_scenario(fixture_text("tunnel.scen"), parse_map(fixture_text("tunnel.map")), 2)[1],
    )
    sol_valid = validate(inst, parsed) is None

    report(
        "criterion-9 determinism-and-closure",
        same_solution and same_csv and closure and sol_valid,
        f"solution-bytes={same_solution}, csv={same_csv}, closure={closure}",
    )
