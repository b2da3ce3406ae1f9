"""Benchmark worker: runs solves on the engine built from a checkout's ``src``.

Reads one JSON task from standard input and writes one JSON line per
result to standard output. Two modes:

- ``setup``: import mapfkit, parse every instance of the task and build its
  ``Instance``; report the seconds since the parent's ``t0`` (both sides
  read ``time.monotonic``, one clock for every process on Linux).
- ``solve``: cycle through the task's jobs until ``seconds`` have passed,
  completing at least one pass. Each solve runs in a forked child, so it
  starts from a freshly parsed map, its peak RSS is its own, and a crash
  costs that one solve only. The child times the solve and the solution
  I/O path, then checks the answer outside the timed region. The
  reference loop (see ``reference_s``) also runs in a child, so its
  allocations cannot change what a solve's RSS growth reads.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback

# The reference loop runs once for each this much time of the run, before
# the next solve; it costs about 3% of a run.
REFERENCE_EVERY_S = 1.0


def _rss_kb() -> int:
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") // 1024


def _load(job: dict):
    """Parse the job's files into an Instance through the public parsers.

    Module attributes are looked up at call time, so a tracer installed on
    ``mapfkit.grid``/``mapfkit.core`` sees these calls.
    """
    import mapfkit.core as core
    import mapfkit.grid as grid_mod

    with open(job["map"]) as fh:
        grid = grid_mod.parse_map(fh.read())
    with open(job["scen"]) as fh:
        starts, goals = core.parse_scenario(fh.read(), grid, job["n"])
    return core.Instance(grid=grid, starts=starts, goals=goals)


def run_solve(job: dict) -> dict:
    """One solve with its I/O path and correctness check; a result record."""
    import mapfkit.core as core
    import mapfkit.lacam as lacam
    from mapfkit import Objective, SolverOptions, heuristic
    from mapfkit.oracle import optimal_cost

    from check import check_outcome
    from tracer import Tracer

    with Tracer() if job["trace"] else contextlib.nullcontext() as tracer:
        instance = _load(job)
        objective = Objective(job["objective"])
        first: list[float] = []

        def on_improvement(cost, solution) -> None:
            if not first:
                first.append(time.perf_counter())

        options = SolverOptions(
            objective=objective,
            iteration_budget=job["iteration_budget"],
            anytime=job["anytime"],
            seed=job["solver_seed"],
            improvement_callback=on_improvement,
        )
        rss_before = _rss_kb()
        start = time.perf_counter()
        outcome = lacam.solve(instance, options)
        solve_s = time.perf_counter() - start
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        io_ms = None
        io_problem = None
        if outcome.solution is not None:
            io_start = time.perf_counter()
            text = core.format_solution(outcome.solution, instance.grid)
            parsed = core.parse_solution(text, instance.grid)
            violation = core.validate(instance, parsed)
            io_ms = (time.perf_counter() - io_start) * 1000.0
            if violation is not None:
                io_problem = f"re-read solution is invalid: {violation.describe()}"
            elif parsed.configs != outcome.solution.configs:
                io_problem = "re-read solution differs from the returned one"

    status = outcome.status.value
    if job["anytime"]:
        first_s = first[0] - start if first else solve_s
    else:
        first_s = solve_s
    tables = [instance.grid.dist_table(g) for g in instance.goals]
    lower_bound = heuristic(objective, instance.starts, tables)
    optimum = optimal_cost(instance, objective) if job["oracle"] else None
    problems = check_outcome(
        instance,
        objective,
        status,
        outcome.cost,
        outcome.solution,
        lower_bound,
        tuple(job["accepted"]),
        optimum,
    )
    if io_problem is not None:
        problems.append(io_problem)
    record = {
        "key": job["key"],
        "trace": job["trace"],
        "status": status,
        "cost": outcome.cost,
        "lower_bound": lower_bound,
        "iterations": outcome.stats.iterations,
        "nodes": outcome.stats.node_count,
        "solved": outcome.solution is not None,
        "solve_s": solve_s,
        "first_s": first_s,
        "io_ms": io_ms,
        "configs": len(outcome.solution) if outcome.solution is not None else 0,
        "agents": instance.n,
        "peak_kb": peak_kb,
        "growth_kb": max(0, peak_kb - rss_before),
        "problems": problems,
    }
    if tracer is not None:
        record["spans"] = {
            name: [s.calls, s.total_s * 1000.0, s.self_s * 1000.0, s.empty]
            for name, s in tracer.spans.items()
        }
        record["relaxations"] = tracer.edges.get(("lacam.rewire", "core.edge_cost"), 0)
    return record


def _in_child(work, job: dict) -> dict:
    """Run ``work(job)`` in a forked child and collect the record it returns.

    The child's allocations die with it, so they never change the memory
    that later children start from.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_fd)
            try:
                record = work(job)
            except Exception:
                record = {"key": job["key"], "trace": job["trace"], "error": traceback.format_exc()}
            payload = json.dumps(record).encode()
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, wait_status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(wait_status)
    if code == 0 and payload:
        return json.loads(payload)
    return {
        "key": job["key"],
        "trace": job["trace"],
        "error": f"solve process ended with exit code {code}",
    }


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's current speed.

    Its work never changes, so its time moves only with the machine. It
    does what the engine spends its time on: dict lookups and stores,
    tuples, list appends and a sort, then a scattered pass over a list too
    large for the cache, as a BFS over a large map makes.
    """
    start = time.perf_counter()
    table: dict = {}
    picked = []
    for j in range(40_000):
        k = (j * 7919) & 4095
        table[k] = (j, table.get(k) is None)
        if j & 7 == 0:
            picked.append(k)
    picked.sort()
    size = 400_000
    dist = [-1] * size
    for i in range(0, size, 7):
        j = (i * 7919) % size
        if dist[j] < 0:
            dist[j] = i
    tuple(dist)
    return time.perf_counter() - start


def main() -> int:
    task = json.loads(sys.stdin.read())
    sys.path.insert(0, task["src"])
    import mapfkit  # noqa: F401  (import time belongs to setup)

    if task["mode"] == "setup":
        for job in task["jobs"]:
            _load(job)
        print(json.dumps({"setup_s": time.monotonic() - task["t0"]}), flush=True)
        return 0

    jobs = task["jobs"]
    started = time.monotonic()
    last_reference = time.monotonic() - REFERENCE_EVERY_S
    done = 0
    while done < len(jobs) or time.monotonic() - started < task["seconds"]:
        job = jobs[done % len(jobs)]
        # One reference sample per REFERENCE_EVERY_S that has passed, so
        # long solves get as many samples per second of run as short ones.
        due = int((time.monotonic() - last_reference) / REFERENCE_EVERY_S)
        references = []
        if due:
            samples = _in_child(lambda j: {"s": [reference_s() for _ in range(min(due, 10))]}, job)
            references = samples.get("s", [])
            last_reference = time.monotonic()
        # The oracle's answer cannot change between passes; ask it once.
        record = _in_child(run_solve, dict(job, oracle=job["oracle"] and done < len(jobs)))
        record["pass"] = done // len(jobs)
        record["reference_s"] = references
        print(json.dumps(record), flush=True)
        done += 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
