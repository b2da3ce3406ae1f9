"""The benchmark's workloads and the input files they are solved from.

Every instance is made with ``mapfkit.bench.generate_map`` and
``sample_instance``, written as ``.map``/``.scen`` and read back through the
engine's parsers by the worker. Why each workload exists, and which layer
it loads, is recorded in NOTES.md beside this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

OBSTACLE_DENSITY = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # side of the square map
    agents: int
    instances: int  # instances in one pass
    objectives: tuple[str, ...]  # every instance is solved under each
    anytime: bool
    iteration_budget: int | None  # None runs to open-list exhaustion
    # Statuses a correct engine may return. An iteration-bounded search
    # returns FAILURE when it has found no solution within its budget.
    accepted: tuple[str, ...]
    # A fixed corpus is made from a constant seed, and the benchmark's seed
    # sets only the solver's seed; see NOTES.md for why.
    fixed_corpus: bool = False
    oracle_checks: int = 0  # instances per run checked against the oracle


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-anytime",
            size=32,
            agents=150,
            instances=20,
            objectives=("sum-of-loss",),
            anytime=True,
            iteration_budget=1000,
            accepted=("SUBOPTIMAL", "FAILURE"),
        ),
        Workload(
            name="large-first",
            size=128,
            agents=500,
            instances=3,
            objectives=("sum-of-loss",),
            anytime=False,
            iteration_budget=5000,
            accepted=("SUBOPTIMAL", "FAILURE"),
        ),
        Workload(
            name="small-exhaustive",
            size=5,
            agents=3,
            instances=40,
            objectives=("makespan", "sum-of-loss", "sum-of-fuels"),
            anytime=True,
            iteration_budget=None,
            accepted=("OPTIMAL",),
            fixed_corpus=True,
            oracle_checks=6,
        ),
    )
}


def scenario_text(grid, map_name: str, instance) -> str:
    """MovingAI ``.scen`` rows for the instance's start/goal pairs.

    The optimal-length column is written as 0: filling it needs one BFS per
    agent, as costly as the solve's own set-up on the large map, and the
    engine's parser does not read it.
    """
    rows = ["version 1"]
    for s, g in zip(instance.starts, instance.goals):
        (sx, sy), (gx, gy) = grid.coords(s), grid.coords(g)
        rows.append(f"0\t{map_name}\t{grid.width}\t{grid.height}\t{sx}\t{sy}\t{gx}\t{gy}\t0")
    return "\n".join(rows) + "\n"


def write_inputs(workload: Workload, seed: int, directory: Path) -> list[dict]:
    """Write the workload's instances for ``seed``; return one job per solve.

    The same seed always gives byte-identical files and the same jobs.
    """
    from mapfkit.bench import generate_map, sample_instance

    directory.mkdir(parents=True, exist_ok=True)
    corpus = "corpus" if workload.fixed_corpus else f"seed{seed}"
    checked = set(
        random.Random(f"{workload.name}:oracle:{seed}").sample(
            range(workload.instances), workload.oracle_checks
        )
    )
    jobs = []
    for k in range(workload.instances):
        rng = random.Random(f"{workload.name}:{corpus}:{k}")
        grid = generate_map(workload.size, workload.size, OBSTACLE_DENSITY, rng)
        instance = sample_instance(grid, workload.agents, rng)
        map_path = directory / f"{workload.name}-{k}.map"
        scen_path = directory / f"{workload.name}-{k}.scen"
        map_path.write_text(grid.to_text())
        scen_path.write_text(scenario_text(grid, map_path.name, instance))
        for objective in workload.objectives:
            jobs.append(
                {
                    "key": f"{k}/{objective}",
                    "map": str(map_path),
                    "scen": str(scen_path),
                    "n": workload.agents,
                    "objective": objective,
                    "anytime": workload.anytime,
                    "iteration_budget": workload.iteration_budget,
                    "solver_seed": seed * 1000 + k,
                    "accepted": list(workload.accepted),
                    "oracle": k in checked,
                    "trace": False,
                }
            )
    return jobs
