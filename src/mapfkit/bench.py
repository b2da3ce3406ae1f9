"""Experiment harness: instance sweeps, run records, CSV output.

Also hosts the random map/scenario generators shared with the CLI, so every
generated instance is written in the standard formats and stays
inspectable.
"""

from __future__ import annotations

import csv
import logging
import random
import statistics
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .core import Instance, Objective, parse_scenario
from .grid import GridMap, bfs_dist_table, parse_map
from .lacam import SolveOutcome, SolveStatus, SolverOptions, solve

log = logging.getLogger(__name__)

_SEED_STRIDE = 1_000_003  # distinct derived seed per planned run


@dataclass(frozen=True)
class SolverVariant:
    name: str
    swap_enabled: bool = True
    anytime: bool = True


# The ablation's named variants: LaCAM* or plain LaCAM, each with or without swap.
VARIANTS = {
    "full": SolverVariant("full", swap_enabled=True, anytime=True),
    "noswap": SolverVariant("noswap", swap_enabled=False, anytime=True),
    "nostar": SolverVariant("nostar", swap_enabled=True, anytime=False),
    "vanilla": SolverVariant("vanilla", swap_enabled=False, anytime=False),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark suite: problems x agent counts x solver variants.

    Problems come either from explicit (map, scen) path pairs or from
    ``random_count`` generated instances, which are written under
    ``gen_dir`` before use. Every run receives a distinct seed derived
    deterministically from ``seed`` and the run's position in the sweep.
    """

    map_paths: tuple[str, ...] = ()
    scen_paths: tuple[str, ...] = ()
    random_count: int = 0
    random_size: tuple[int, int] = (32, 32)
    random_density: float = 0.2
    gen_dir: str | None = None
    agents_start: int = 50
    agents_step: int = 50
    agents_max: int = 400
    time_budget: float | None = None
    iteration_budget: int | None = None
    objective: Objective = Objective.SUM_OF_LOSS
    variants: tuple[SolverVariant, ...] = (VARIANTS["full"],)
    seed: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        if len(self.map_paths) != len(self.scen_paths):
            raise ValueError("map_paths and scen_paths must pair up")
        if self.agents_start <= 0 or self.agents_step <= 0 or self.agents_max <= 0:
            raise ValueError("agent sweep bounds must be positive")
        if self.random_count and not self.gen_dir:
            raise ValueError("random instances need gen_dir to write files into")
        if self.jobs <= 0:
            raise ValueError("jobs must be positive")
        # Check map options and the options every run gets now, not after gen_dir is written.
        _check_random_map(*self.random_size, self.random_density)
        options = _variant_options(VARIANTS["full"], self, self.seed)
        object.__setattr__(self, "objective", options.objective)

    def agent_counts(self) -> list[int]:
        return list(range(self.agents_start, self.agents_max + 1, self.agents_step))


@dataclass(frozen=True)
class RunRecord:
    map: str
    scen: str
    n: int
    variant: str
    seed: int
    status: str
    init_time_ms: float | None
    init_cost: int | None
    final_cost: int | None
    iterations: int
    trace: tuple[tuple[float, int], ...] = field(default=())


CSV_COLUMNS = (
    "map",
    "scen",
    "n",
    "variant",
    "seed",
    "status",
    "init_time_ms",
    "init_cost",
    "final_cost",
    "iterations",
)


# ---------------------------------------------------------------------------
# Random instance generation


def _check_random_map(width: int, height: int, density: float) -> int:
    """Blocked cell count of a random map; raises ``ValueError`` if invalid."""
    if width <= 0 or height <= 0:
        raise ValueError("map dimensions must be positive")
    if not 0.0 <= density <= 1.0:
        raise ValueError("obstacle density must be in [0, 1]")
    cells = width * height
    blocked = int(density * cells)
    if blocked >= cells:
        raise ValueError("density leaves no passable cells")
    return blocked


def generate_map(width: int, height: int, density: float, rng: random.Random) -> GridMap:
    """Random grid with ``floor(density * width * height)`` blocked cells."""
    blocked = _check_random_map(width, height, density)
    passable = [True] * (width * height)
    for cell in rng.sample(range(len(passable)), blocked):
        passable[cell] = False
    return GridMap(width, height, passable)


def largest_component(grid: GridMap) -> list[int]:
    """Vertices of the largest connected component, ascending."""
    best: list[int] = []
    seen = [False] * grid.num_vertices
    for v0 in range(grid.num_vertices):
        if seen[v0]:
            continue
        component = [v0]
        seen[v0] = True
        stack = [v0]
        while stack:
            v = stack.pop()
            for u in grid.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    component.append(u)
                    stack.append(u)
        if len(component) > len(best):
            best = component
    return sorted(best)


def sample_instance(grid: GridMap, n: int, rng: random.Random) -> Instance:
    """Random instance with distinct starts and distinct goals.

    The vertices are drawn from the largest connected component, so the
    instance is guaranteed solvable for one agent per pair and
    benchmark-style for many.
    """
    if n < 0:
        raise ValueError("agent count must be nonnegative")
    pool = largest_component(grid)
    if n > len(pool):
        raise ValueError(f"cannot place {n} agents on {len(pool)} usable cells")
    starts = tuple(rng.sample(pool, n))
    goals = tuple(rng.sample(pool, n))
    return Instance(grid=grid, starts=starts, goals=goals)


def scenario_text(grid: GridMap, map_name: str, instance: Instance) -> str:
    """Render starts/goals as ``.scen`` version 1 rows."""
    lines = ["version 1"]
    for s, g in zip(instance.starts, instance.goals):
        sx, sy = grid.coords(s)
        gx, gy = grid.coords(g)
        d = bfs_dist_table(grid, g)[s]
        opt = float(d) if d >= 0 else -1.0
        lines.append(
            f"0\t{map_name}\t{grid.width}\t{grid.height}\t{sx}\t{sy}\t{gx}\t{gy}\t{opt}"
        )
    return "\n".join(lines) + "\n"


def write_instance_files(
    directory: str | Path, stem: str, grid: GridMap, instance: Instance
) -> tuple[Path, Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    map_path = directory / f"{stem}.map"
    scen_path = directory / f"{stem}.scen"
    map_path.write_text(grid.to_text())
    scen_path.write_text(scenario_text(grid, map_path.name, instance))
    return map_path, scen_path


# ---------------------------------------------------------------------------
# Suite execution


def _variant_options(
    variant: SolverVariant, cfg: ExperimentConfig, seed: int
) -> SolverOptions:
    return SolverOptions(
        objective=cfg.objective,
        time_budget=cfg.time_budget,
        iteration_budget=cfg.iteration_budget,
        anytime=variant.anytime,
        swap_enabled=variant.swap_enabled,
        seed=seed,
    )


def _record_from_outcome(
    map_path: str, scen_path: str, n: int, variant: str, seed: int, outcome: SolveOutcome
) -> RunRecord:
    trace = tuple(outcome.stats.trace)
    init_time_ms = trace[0][0] if trace else None
    init_cost = trace[0][1] if trace else None
    return RunRecord(
        map=map_path,
        scen=scen_path,
        n=n,
        variant=variant,
        seed=seed,
        status=outcome.status.value,
        init_time_ms=init_time_ms,
        init_cost=init_cost,
        final_cost=outcome.cost,
        iterations=outcome.stats.iterations,
        trace=trace,
    )


def _failure_record(args: tuple, why: str) -> RunRecord:
    """Log why the run of :func:`_execute_run` ``args`` failed; its record."""
    map_path, scen_path, n, variant, _cfg, seed = args
    log.warning("run (%s, %s, n=%d, %s) %s", map_path, scen_path, n, variant.name, why)
    return RunRecord(
        map=map_path,
        scen=scen_path,
        n=n,
        variant=variant.name,
        seed=seed,
        status=SolveStatus.FAILURE.value,
        init_time_ms=None,
        init_cost=None,
        final_cost=None,
        iterations=0,
    )


def _execute_run(
    map_path: str,
    scen_path: str,
    n: int,
    variant: SolverVariant,
    cfg: ExperimentConfig,
    seed: int,
) -> RunRecord:
    try:
        grid = parse_map(Path(map_path).read_text())
        starts, goals = parse_scenario(Path(scen_path).read_text(), grid, n)
        instance = Instance(grid=grid, starts=starts, goals=goals)
    except (OSError, ValueError) as exc:
        args = (map_path, scen_path, n, variant, cfg, seed)
        return _failure_record(args, f"unreadable: {exc}")
    outcome = solve(instance, _variant_options(variant, cfg, seed))
    return _record_from_outcome(map_path, scen_path, n, variant.name, seed, outcome)


def _execute_run_packed(args) -> RunRecord:
    # Looks _execute_run up when it runs, in the worker process too.
    return _execute_run(*args)


def _failed_run(args: tuple, exc: Exception) -> RunRecord:
    return _failure_record(args, f"failed: {type(exc).__name__}: {exc}")


def _run_or_fail(args: tuple) -> RunRecord:
    try:
        return _execute_run_packed(args)
    except Exception as exc:
        return _failed_run(args, exc)


def _run_round_pooled(
    pool: ProcessPoolExecutor, jobs: int, round_args: list
) -> tuple[ProcessPoolExecutor, list[RunRecord]]:
    """Run one round in ``pool``; return the pool to go on with and the records.

    A run that raises becomes a FAILURE record. A worker that dies breaks
    the pool and fails every run still in it, so those runs are repeated
    one at a time in a fresh pool: only the run that kills its worker
    again is recorded as failed.
    """
    futures = [pool.submit(_execute_run_packed, args) for args in round_args]
    records: list[RunRecord | None] = []
    broken = False
    for args, future in zip(round_args, futures):
        try:
            records.append(future.result())
        except BrokenProcessPool:
            records.append(None)
            broken = True
        except Exception as exc:
            records.append(_failed_run(args, exc))
    for k, args in enumerate(round_args):
        if records[k] is not None:
            continue
        if broken:
            pool.shutdown()
            pool = ProcessPoolExecutor(max_workers=jobs)
            broken = False
        try:
            records[k] = pool.submit(_execute_run_packed, args).result()
        except Exception as exc:
            records[k] = _failed_run(args, exc)
            broken = isinstance(exc, BrokenProcessPool)
    if broken:
        pool.shutdown()
        pool = ProcessPoolExecutor(max_workers=jobs)
    return pool, records


def _solved(record: RunRecord) -> bool:
    return record.status in (SolveStatus.OPTIMAL.value, SolveStatus.SUBOPTIMAL.value)


def _materialize_problems(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    problems = [
        (str(m), str(s)) for m, s in zip(cfg.map_paths, cfg.scen_paths)
    ]
    if cfg.random_count:
        rng = random.Random(cfg.seed)
        w, h = cfg.random_size
        for k in range(cfg.random_count):
            grid = generate_map(w, h, cfg.random_density, rng)
            pool_size = len(largest_component(grid))
            n_max = min(cfg.agents_max, pool_size)
            instance = sample_instance(grid, n_max, rng)
            stem = f"random-{w}-{h}-{int(cfg.random_density * 100)}-{k}"
            map_path, scen_path = write_instance_files(
                cfg.gen_dir or ".", stem, grid, instance
            )
            problems.append((str(map_path), str(scen_path)))
    return problems


def run_suite(cfg: ExperimentConfig) -> list[RunRecord]:
    """Execute the sweep and return one record per planned run.

    Within each variant, agent counts grow until a whole round yields no
    solutions, after which that variant is dropped from larger rounds.
    Records are deterministic for a fixed config (timings aside) and
    independent of the parallelism degree. A run that raises, or whose
    worker process dies, is logged and recorded as a FAILURE; the sweep
    goes on.
    """
    problems = _materialize_problems(cfg)
    counts = cfg.agent_counts()
    ordinal = 0
    records: list[RunRecord] = []
    pool = ProcessPoolExecutor(max_workers=cfg.jobs) if cfg.jobs > 1 else None
    try:
        for variant in cfg.variants:
            for n in counts:
                round_args = []
                for map_path, scen_path in problems:
                    seed = cfg.seed * _SEED_STRIDE + ordinal
                    ordinal += 1
                    round_args.append((map_path, scen_path, n, variant, cfg, seed))
                if pool is not None:
                    pool, round_records = _run_round_pooled(pool, cfg.jobs, round_args)
                else:
                    round_records = [_run_or_fail(a) for a in round_args]
                records.extend(round_records)
                if not any(_solved(r) for r in round_records):
                    break
    finally:
        if pool is not None:
            pool.shutdown()
    return records


# ---------------------------------------------------------------------------
# CSV I/O and aggregation


def write_csv(records: Sequence[RunRecord], path: str | Path) -> Path:
    """Write records to ``path``; traces go to sibling ``trace_<row>.csv``.

    A row without a trace removes any ``trace_<row>.csv`` left by an earlier
    write, so that :func:`read_csv` does not attach a stale trace to it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for record in records:
            writer.writerow(
                [
                    record.map,
                    record.scen,
                    record.n,
                    record.variant,
                    record.seed,
                    record.status,
                    "" if record.init_time_ms is None else repr(record.init_time_ms),
                    "" if record.init_cost is None else record.init_cost,
                    "" if record.final_cost is None else record.final_cost,
                    record.iterations,
                ]
            )
    for idx, record in enumerate(records):
        trace_path = path.parent / f"trace_{idx}.csv"
        if not record.trace:
            trace_path.unlink(missing_ok=True)
        else:
            with trace_path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("elapsed_ms", "cost"))
                for ms, cost in record.trace:
                    writer.writerow((repr(ms), cost))
    return path


def read_csv(path: str | Path) -> list[RunRecord]:
    """Parse a records CSV (and sibling trace files) back into memory."""
    path = Path(path)
    records: list[RunRecord] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header: {header}")
        for idx, row in enumerate(reader):
            trace: tuple[tuple[float, int], ...] = ()
            trace_path = path.parent / f"trace_{idx}.csv"
            if trace_path.exists():
                with trace_path.open(newline="") as tf:
                    trace_reader = csv.reader(tf)
                    next(trace_reader)
                    trace = tuple(
                        (float(ms), int(cost)) for ms, cost in trace_reader
                    )
            records.append(
                RunRecord(
                    map=row[0],
                    scen=row[1],
                    n=int(row[2]),
                    variant=row[3],
                    seed=int(row[4]),
                    status=row[5],
                    init_time_ms=float(row[6]) if row[6] else None,
                    init_cost=int(row[7]) if row[7] else None,
                    final_cost=int(row[8]) if row[8] else None,
                    iterations=int(row[9]),
                    trace=trace,
                )
            )
    return records


def summarize(records: Sequence[RunRecord]) -> list[dict[str, object]]:
    """Per (map, n, variant) success rate and median scores."""
    groups: dict[tuple[str, int, str], list[RunRecord]] = {}
    for record in records:
        groups.setdefault((record.map, record.n, record.variant), []).append(record)
    rows = []
    for (map_path, n, variant), group in sorted(groups.items()):
        solved = [r for r in group if _solved(r)]
        row: dict[str, object] = {
            "map": map_path,
            "n": n,
            "variant": variant,
            "runs": len(group),
            "solved": len(solved),
            "success_rate": len(solved) / len(group),
        }
        times = [r.init_time_ms for r in solved if r.init_time_ms is not None]
        costs = [r.final_cost for r in solved if r.final_cost is not None]
        row["median_init_time_ms"] = statistics.median(times) if times else ""
        row["median_final_cost"] = statistics.median(costs) if costs else ""
        rows.append(row)
    return rows


def write_summary_csv(rows: Sequence[dict[str, object]], path: str | Path) -> Path:
    path = Path(path)
    columns = (
        "map",
        "n",
        "variant",
        "runs",
        "solved",
        "success_rate",
        "median_init_time_ms",
        "median_final_cost",
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
    return path
