"""Run one workload of the mapfkit benchmark and print its metrics.

    python3 benchmark/run.py --workload dense-anytime --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the engine is imported from its ``src``.
Inputs are generated from ``--seed`` under ``.bench_work/`` and removed at
the end. One worker process runs the solves one at a time (a closed loop
with a single client), each in its own forked child, for ``--seconds``
seconds and at least one full pass over the workload's instances.

With ``--trace 0`` the end-to-end metrics are printed, with ``--trace 1``
the per-layer split of a traced pass and the tracing overhead. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A solve that raises,
crashes its process, returns a status the workload does not accept or
fails the correctness check counts as failed; the other solves go on.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, write_inputs

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 9
# Every run must end well inside three minutes, whatever --seconds says.
DEADLINE_S = 170.0
# Time metrics are given at the machine speed where the worker's reference
# loop takes this long; see end_to_end.
REFERENCE_S = 0.025


def run_worker(task: dict, timeout: float) -> tuple[list[dict], str | None]:
    """Run one worker on ``task``; return its records and any error text.

    The worker gets a process group of its own, so that stopping it at the
    deadline also stops the solve it has forked.
    """
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    error = None
    try:
        out, err = proc.communicate(json.dumps(task), timeout=max(timeout, 1.0))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        error = "worker passed the run's deadline and was stopped"
    if proc.returncode != 0 and error is None:
        error = f"worker exited with code {proc.returncode}: {err.strip()[-2000:]}"
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            pass  # a line cut short when the worker was stopped
    return records, error


def setup_seconds(jobs: list[dict], timeout: float) -> float:
    """Fresh process to instances in memory, once; see worker.py."""
    unique = list({(j["map"], j["scen"], j["n"]): j for j in jobs}.values())
    task = {"mode": "setup", "src": str(SRC), "jobs": unique, "t0": time.monotonic()}
    records, error = run_worker(task, timeout)
    if error is not None or not records:
        raise RuntimeError(f"set-up probe failed: {error}")
    return records[0]["setup_s"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _weighted_median(pairs) -> float:
    """Median of (value, weight) pairs: the value at half the total weight."""
    pairs = sorted(pairs)
    half = sum(w for _, w in pairs) / 2.0
    acc = 0.0
    for value, weight in pairs:
        acc += weight
        if acc >= half:
            return value
    return 0.0


def _fastest(records: list[dict], field: str) -> dict:
    """Each solve's smallest ``field`` over the passes that ran it.

    Solves repeat in interleaved passes; the fastest run of each filters
    out the slow periods that other tenants cause on a shared machine.
    """
    best: dict = {}
    for r in records:
        value = r[field]
        if value is not None:
            key = (r["key"], r["trace"])
            best[key] = min(value, best.get(key, value))
    return best


def end_to_end(records: list[dict], setups: list[float]) -> tuple[dict, float]:
    """End-to-end metrics at the reference speed, and the factor applied.

    Every time is multiplied by ``REFERENCE_S`` over the run's median time
    of the worker's reference loop (rates are divided by it), so a drift in
    the shared machine's speed cancels out. See NOTES.md, "Noise".
    """
    ok = [r for r in records if "error" not in r]
    first_pass = [r for r in ok if r["pass"] == 0]
    solved = [r for r in first_pass if r["solved"]]
    solve_s = _fastest(ok, "solve_s")
    scale = REFERENCE_S / statistics.median(t for r in records for t in r["reference_s"])
    metrics = {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "first_solution_ms": (
            _median(_fastest(ok, "first_s").values()) * 1000.0 * scale,
            "ms",
        ),
        "iters_per_s": (
            _weighted_median(
                (r["iterations"] / seconds, seconds)
                for r in first_pass
                for seconds in [solve_s[r["key"], False] * scale]
            ),
            "1/s",
        ),
        "cost_ratio": (
            _ratio(sum(r["cost"] for r in solved), sum(r["lower_bound"] for r in solved)),
            "ratio",
        ),
        "optimal_s": (sum(solve_s.values()) * scale, "s"),
        "peak_rss_mb": (_median(r["peak_kb"] for r in ok) / 1024.0, "MB"),
        "kb_per_node": (
            _ratio(sum(r["growth_kb"] for r in ok), sum(r["nodes"] for r in ok)),
            "KB",
        ),
        "solution_io_ms": (_median(_fastest(ok, "io_ms").values()) * scale, "ms"),
    }
    return metrics, scale


def per_layer(records: list[dict]) -> dict:
    """Layer split summed over each solve's fastest traced run.

    ``trace.overhead_ratio`` compares the fastest traced and untraced runs.
    """
    ok = [r for r in records if "error" not in r]
    fastest: dict = {}
    for r in ok:
        if r["trace"] and (r["key"] not in fastest or r["solve_s"] < fastest[r["key"]]["solve_s"]):
            fastest[r["key"]] = r
    traced = list(fastest.values())
    # name -> [calls, inclusive ms, self ms, calls returning None or raising]
    spans: dict[str, list[float]] = collections.defaultdict(lambda: [0, 0.0, 0.0, 0])
    for r in traced:
        for name, values in r["spans"].items():
            spans[name] = [a + b for a, b in zip(spans[name], values)]

    def calls(name):
        return spans[name][0]

    def ms(name):
        return spans[name][1]

    def empty(name):
        return spans[name][3]

    plan_agent_calls = sum(
        r["spans"].get("pibt.plan_step", [0])[0] * r["agents"] for r in traced
    )
    generated = calls("lacam.generate_configuration") - empty("lacam.generate_configuration")
    solve_s = _fastest(ok, "solve_s")
    untraced_s = sum(v for (_, trace), v in solve_s.items() if not trace)
    traced_s = sum(v for (_, trace), v in solve_s.items() if trace)
    return {
        "grid.bfs_dist_table.calls": (calls("grid.bfs_dist_table"), "count"),
        "grid.bfs_dist_table.ms": (ms("grid.bfs_dist_table"), "ms"),
        "grid.dist_table.calls": (calls("grid.dist_table"), "count"),
        "grid.parse_map.ms": (ms("grid.parse_map"), "ms"),
        "pibt.plan_step.calls": (calls("pibt.plan_step"), "count"),
        "pibt.plan_step.ms": (ms("pibt.plan_step"), "ms"),
        "pibt.plan_step.us_per_agent": (
            _ratio(ms("pibt.plan_step") * 1000.0, plan_agent_calls),
            "us",
        ),
        "pibt.plan_step.fail_ratio": (
            _ratio(empty("pibt.plan_step"), calls("pibt.plan_step")),
            "ratio",
        ),
        "pibt.swap_required_and_possible.calls": (
            calls("pibt.swap_required_and_possible"),
            "count",
        ),
        "pibt.swap_required_and_possible.hits": (
            calls("pibt.swap_required_and_possible") - empty("pibt.swap_required_and_possible"),
            "count",
        ),
        "pibt.swap_required_and_possible.ms": (ms("pibt.swap_required_and_possible"), "ms"),
        "lacam.rewire.calls": (calls("lacam.rewire"), "count"),
        "lacam.rewire.ms": (ms("lacam.rewire"), "ms"),
        "lacam.rewire.relaxations": (sum(r["relaxations"] for r in traced), "count"),
        "lacam.generate_configuration.calls": (calls("lacam.generate_configuration"), "count"),
        "lacam.generate_configuration.none_ratio": (
            _ratio(empty("lacam.generate_configuration"), calls("lacam.generate_configuration")),
            "ratio",
        ),
        "lacam.low_level_expand.ms": (ms("lacam.low_level_expand"), "ms"),
        "lacam.new_node_ratio": (
            _ratio(sum(r["nodes"] - 1 for r in traced), generated),
            "ratio",
        ),
        "lacam.self_ms": (spans["lacam.solve"][2], "ms"),
        "lacam.nodes": (sum(r["nodes"] for r in traced), "count"),
        "lacam.iterations": (sum(r["iterations"] for r in traced), "count"),
        "lacam.solve.ms": (ms("lacam.solve"), "ms"),
        "core.heuristic.ms": (ms("core.heuristic"), "ms"),
        "core.edge_cost.calls": (calls("core.edge_cost"), "count"),
        "core.edge_cost.ms": (ms("core.edge_cost"), "ms"),
        "core.validate.us_per_config": (
            _ratio(ms("core.validate") * 1000.0, sum(r["configs"] for r in traced)),
            "us",
        ),
        "core.format_solution.ms": (ms("core.format_solution"), "ms"),
        "core.parse_solution.ms": (ms("core.parse_solution"), "ms"),
        "core.parse_scenario.ms": (ms("core.parse_scenario"), "ms"),
        "trace.overhead_ratio": (_ratio(traced_s, untraced_s), "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mapfkit" / "__init__.py").is_file():
        print(f"error: no engine source at {SRC / 'mapfkit'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        jobs = write_inputs(workload, args.seed, workdir)
        setups = []
        if args.trace:
            jobs = jobs + [dict(j, trace=True, oracle=False) for j in jobs]
        else:
            setups = [setup_seconds(jobs, remaining()) for _ in range(SETUP_PROBES)]
        task = {"mode": "solve", "src": str(SRC), "jobs": jobs, "seconds": args.seconds}
        records, error = run_worker(task, remaining())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    # Solves of the first pass that never reported count as failed too.
    reported = {(r["pass"], r["key"], r["trace"]) for r in records}
    missing = [j for j in jobs if (0, j["key"], j["trace"]) not in reported]
    failures = [r for r in records if "error" in r or r["problems"]]
    for r in failures:
        print(f"failed: pass {r['pass']} solve {r['key']}: "
              f"{r.get('error') or '; '.join(r['problems'])}", file=sys.stderr)
    if error is not None:
        print(f"failed: {error}; {len(missing)} solves of the first pass never ran",
              file=sys.stderr)
    attempted = len(records) + len(missing)
    failed = len(failures) + len(missing)
    if not any("error" not in r for r in records):
        print("error: no solve completed", file=sys.stderr)
        return 1

    unsolved = sum(1 for r in records if "error" not in r and not r["solved"])
    print(f"workload {workload.name}  seed {args.seed}  solves {attempted}  "
          f"failed_ratio {_ratio(failed, attempted):.4f}  "
          f"unsolved within budget {unsolved}")
    if args.trace:
        metrics = per_layer(records)
    else:
        metrics, scale = end_to_end(records, setups)
        print(f"  times at reference speed: measured times x {scale:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.4f} {unit}")
    result = {
        "correct": not any(r.get("problems") for r in records),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
