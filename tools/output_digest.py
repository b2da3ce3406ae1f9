"""Print sha256 digests of the engine's outputs on the benchmark's inputs.

    python3 tools/output_digest.py --seed 11 [workload ...]

Run from anywhere; the engine is imported from the ``src`` beside this
directory, and the inputs are written with ``benchmark/workloads.py``'s
``write_inputs`` into a temporary directory. Each job is solved once with the
options the benchmark worker uses. A job's record is its workload, key,
status, cost, iteration and node counts, the costs passed to the improvement
callback and the formatted solution. One digest is printed per workload, and
one over every record of the run. Two checkouts whose digests match on the
same seeds produced identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from mapfkit import Instance, Objective, SolverOptions, format_solution, solve  # noqa: E402
from mapfkit.core import parse_scenario  # noqa: E402
from mapfkit.grid import parse_map  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402


def job_record(workload: str, job: dict) -> tuple[bytes, float]:
    """Solve one benchmark job: the bytes its digest covers, and the solve's CPU seconds."""
    grid = parse_map(Path(job["map"]).read_text())
    starts, goals = parse_scenario(Path(job["scen"]).read_text(), grid, job["n"])
    instance = Instance(grid=grid, starts=starts, goals=goals)
    improvements: list[int] = []
    started = time.process_time()
    outcome = solve(
        instance,
        SolverOptions(
            objective=Objective(job["objective"]),
            iteration_budget=job["iteration_budget"],
            anytime=job["anytime"],
            seed=job["solver_seed"],
            improvement_callback=lambda cost, _solution: improvements.append(cost),
        ),
    )
    cpu_s = time.process_time() - started
    head = [
        workload,
        job["key"],
        outcome.status.value,
        outcome.cost,
        outcome.stats.iterations,
        outcome.stats.node_count,
        improvements,
    ]
    text = format_solution(outcome.solution, grid) if outcome.solution is not None else ""
    return (json.dumps(head) + "\n" + text + "\n").encode(), cpu_s


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("workloads", nargs="*", help="default: all of them")
    args = parser.parse_args(argv)
    names = args.workloads or sorted(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {sorted(WORKLOADS)}")
    overall = hashlib.sha256()
    solves = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            digest = hashlib.sha256()
            jobs = write_inputs(WORKLOADS[name], args.seed, Path(tmp) / name)
            for job in jobs:
                record, _ = job_record(name, job)
                digest.update(record)
                overall.update(record)
            solves += len(jobs)
            print(f"{name}\t{len(jobs)} solves\t{digest.hexdigest()}", flush=True)
    print(f"all\t{solves} solves\t{overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
