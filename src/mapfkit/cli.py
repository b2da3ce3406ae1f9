"""Command-line entry points: solve, validate, bench, gen."""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path

from . import bench
from .core import (
    Instance,
    Objective,
    SolutionFormatError,
    format_solution,
    parse_scenario,
    parse_solution,
    validate,
)
from .grid import parse_map
from .lacam import SolveStatus, SolverOptions, solve

USAGE_ERROR = 64

_OBJECTIVES = {o.value: o for o in Objective}

_EXIT_CODES = {
    SolveStatus.OPTIMAL: 0,
    SolveStatus.SUBOPTIMAL: 0,
    SolveStatus.NO_SOLUTION: 1,
    SolveStatus.FAILURE: 2,
}


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit code for usage errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _time_budget(text: str) -> float | None:
    if text.lower() == "none":
        return None
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            "time budget must be positive and finite, or 'none'"
        )
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="mapfkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    p_solve.add_argument("-m", "--map", required=True)
    p_solve.add_argument("-i", "--scen", required=True)
    p_solve.add_argument("-N", "--agents", type=int, required=True)
    p_solve.add_argument("-t", "--time-budget", type=_time_budget, default=30.0)
    p_solve.add_argument("-s", "--seed", type=int, default=0)
    p_solve.add_argument(
        "--objective", choices=sorted(_OBJECTIVES), default=Objective.SUM_OF_LOSS.value
    )
    p_solve.add_argument("--no-swap", action="store_true")
    p_solve.add_argument("--no-anytime", action="store_true")
    p_solve.add_argument("--restart-prob", type=float, default=0.001)
    p_solve.add_argument("-o", "--output")
    p_solve.add_argument("--trace")
    p_solve.add_argument("-v", "--verbose", type=int, choices=(0, 1, 2), default=0)

    p_val = sub.add_parser("validate", help="validate a solution file")
    p_val.add_argument("-m", "--map", required=True)
    p_val.add_argument("-i", "--scen", required=True)
    p_val.add_argument("-N", "--agents", type=int, required=True)
    p_val.add_argument("--solution", required=True)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("--map", action="append", default=[])
    p_bench.add_argument("--scen", action="append", default=[])
    p_bench.add_argument("--random", type=int, default=0, metavar="COUNT")
    p_bench.add_argument("--size", default="32x32")
    p_bench.add_argument("--density", type=float, default=0.2)
    p_bench.add_argument("--gen-dir")
    p_bench.add_argument("--agents", default="50:50:400", metavar="START:STEP:MAX")
    p_bench.add_argument("-t", "--time-budget", type=_time_budget, default=30.0)
    p_bench.add_argument(
        "--objective", choices=sorted(_OBJECTIVES), default=Objective.SUM_OF_LOSS.value
    )
    p_bench.add_argument("--variants", default="full")
    p_bench.add_argument("-s", "--seed", type=int, default=0)
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("-o", "--output", required=True)
    p_bench.add_argument("--summary")

    p_gen = sub.add_parser("gen", help="generate a random map and scenario")
    p_gen.add_argument("--size", required=True, metavar="WxH")
    p_gen.add_argument("--obstacle-density", type=float, default=0.0)
    group = p_gen.add_mutually_exclusive_group(required=True)
    group.add_argument("--agents", type=int)
    group.add_argument("--fill-ratio", type=float)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True, metavar="PREFIX")

    return parser


def _parse_size(text: str) -> tuple[int, int]:
    w, sep, h = text.lower().partition("x")
    if not sep:
        raise ValueError(f"size must look like 32x32, got {text!r}")
    return int(w), int(h)


def _load_instance(map_path: str, scen_path: str, n: int) -> Instance:
    grid = parse_map(Path(map_path).read_text())
    starts, goals = parse_scenario(Path(scen_path).read_text(), grid, n)
    return Instance(grid=grid, starts=starts, goals=goals)


def _check_writable(*paths: str | None) -> None:
    """Raise OSError unless each given path can be opened for writing.

    Run before the work, so that a bad output path is reported at once.
    Missing parent directories are created; an existing file is left as it
    is, and a file the check creates is removed again.
    """
    for path in paths:
        if not path:
            continue
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        existed = target.exists()
        with target.open("a"):
            pass
        if not existed:
            target.unlink()


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        instance = _load_instance(args.map, args.scen, args.agents)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        options = SolverOptions(
            objective=_OBJECTIVES[args.objective],
            time_budget=args.time_budget,
            anytime=not args.no_anytime,
            swap_enabled=not args.no_swap,
            restart_probability=args.restart_prob,
            seed=args.seed,
        )
        _check_writable(args.output, args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    outcome = solve(instance, options)

    shown = outcome.status.value
    if args.no_anytime and outcome.solution is not None:
        shown = "FOUND"  # first-solution mode makes no optimality claim
    cost = "-" if outcome.cost is None else outcome.cost
    print(
        f"status={shown} cost={cost} iterations={outcome.stats.iterations} "
        f"elapsed_ms={outcome.stats.elapsed_ms:.1f}"
    )
    if args.verbose >= 1:
        print(f"nodes={outcome.stats.node_count} seed={args.seed}")
    if args.verbose >= 2:
        for ms, c in outcome.stats.trace:
            print(f"improvement: {ms:.1f}ms cost={c}")

    try:
        if outcome.solution is not None and args.output:
            Path(args.output).write_text(format_solution(outcome.solution, instance.grid))
        if args.trace:
            lines = ["elapsed_ms,cost"]
            lines += [f"{ms!r},{c}" for ms, c in outcome.stats.trace]
            Path(args.trace).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return _EXIT_CODES[outcome.status]


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        instance = _load_instance(args.map, args.scen, args.agents)
        solution = parse_solution(
            Path(args.solution).read_text(), instance.grid
        )
        # Another agent count than the instance's is a usage error too.
        violation = validate(instance, solution)
    except (OSError, SolutionFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if violation is None:
        print("valid")
        return 0
    print(violation.describe())
    return 1


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        start, step, top = (int(x) for x in args.agents.split(":"))
        cfg = bench.ExperimentConfig(
            map_paths=tuple(args.map),
            scen_paths=tuple(args.scen),
            random_count=args.random,
            random_size=_parse_size(args.size),
            random_density=args.density,
            gen_dir=args.gen_dir,
            agents_start=start,
            agents_step=step,
            agents_max=top,
            time_budget=args.time_budget,
            objective=_OBJECTIVES[args.objective],
            variants=tuple(
                bench.VARIANTS[name.strip()] for name in args.variants.split(",")
            ),
            seed=args.seed,
            jobs=args.jobs,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: invalid bench configuration: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        _check_writable(args.output, args.summary)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    records = bench.run_suite(cfg)
    try:
        bench.write_csv(records, args.output)
        print(f"wrote {len(records)} records to {args.output}")
        if args.summary:
            bench.write_summary_csv(bench.summarize(records), args.summary)
            print(f"wrote summary to {args.summary}")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        width, height = _parse_size(args.size)
        rng = random.Random(args.seed)
        grid = bench.generate_map(width, height, args.obstacle_density, rng)
        pool = bench.largest_component(grid)
        if args.agents is not None:
            n = args.agents
        else:
            if not 0.0 < args.fill_ratio <= 1.0:
                raise ValueError("fill ratio must be in (0, 1]")
            n = int(args.fill_ratio * grid.num_vertices)
        if n > len(pool):
            raise ValueError(
                f"cannot place {n} agents: largest connected region has "
                f"{len(pool)} cells"
            )
        instance = bench.sample_instance(grid, n, rng)
        prefix = Path(args.output)
        map_path, scen_path = bench.write_instance_files(
            prefix.parent, prefix.name, grid, instance
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"wrote {map_path} and {scen_path} (agents={instance.n})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "bench":
        return _cmd_bench(args)
    return _cmd_gen(args)


if __name__ == "__main__":
    sys.exit(main())
