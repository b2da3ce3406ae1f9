"""Alternated CPU-time A/B of two engine source trees on the benchmark's inputs.

    python3 tools/ab.py PARENT_SRC CHANGE_SRC [workload ...] [--seed 11] [--rounds 5]

PARENT_SRC and CHANGE_SRC are directories that hold a ``mapfkit`` package,
such as the ``src`` of two checkouts. The seed's inputs are written once,
with ``benchmark/workloads.py``'s ``write_inputs`` and the engine beside
this directory. Each round starts one fresh process per tree, the
parent's first in odd rounds and the change's first in even ones. A
process solves every job of the chosen workloads once through
``tools/output_digest.py``'s ``job_record``, which times each solve with
``time.process_time`` and returns the bytes its digest covers.

Printed per workload: each round's CPU seconds on both sides and their
ratio (change / parent), the median of each side, the median ratio, and
whether the two trees' output digests agree. The exit status is 1 when any
digest differs. CPU time is steadier than the benchmark's forked wall
clock but still moves between processes, so read a ratio against the
spread of its rounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
# Inputs are generated with this checkout's engine; solves never run here.
sys.path[:0] = [str(TOOLS.parent / "src"), str(TOOLS.parent / "benchmark")]

from workloads import WORKLOADS, write_inputs  # noqa: E402

# Runs in a fresh process: imports mapfkit from the tree given, then
# output_digest, whose own imports then reuse that package.
_CHILD = """
import hashlib, json, sys
from pathlib import Path
src, tools, jobs_path = sys.argv[1:]
sys.path.insert(0, src)
import mapfkit
if not Path(mapfkit.__file__).resolve().is_relative_to(Path(src).resolve()):
    sys.exit(f"mapfkit was imported from {mapfkit.__file__}, not from {src}")
sys.path.insert(0, tools)
from output_digest import job_record
result = {}
for name, jobs in json.loads(Path(jobs_path).read_text()).items():
    digest = hashlib.sha256()
    cpu_s = 0.0
    for job in jobs:
        record, seconds = job_record(name, job)
        digest.update(record)
        cpu_s += seconds
    result[name] = {"cpu_s": cpu_s, "digest": digest.hexdigest()}
print(json.dumps(result))
"""


def run_side(src: Path, jobs_path: Path) -> dict:
    """Solve every job in a fresh process on the engine in ``src``."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(TOOLS), str(jobs_path)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"solving on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("workloads", nargs="*", help="default: all of them")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    names = args.workloads or sorted(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {sorted(WORKLOADS)}")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for src in (args.parent_src, args.change_src):
        if not (src / "mapfkit" / "__init__.py").is_file():
            parser.error(f"{src} holds no mapfkit package")

    sides = {"parent": args.parent_src, "change": args.change_src}
    rounds: list[dict[str, dict]] = []
    with tempfile.TemporaryDirectory() as tmp:
        jobs = {name: write_inputs(WORKLOADS[name], args.seed, Path(tmp) / name) for name in names}
        jobs_path = Path(tmp) / "jobs.json"
        jobs_path.write_text(json.dumps(jobs))
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            rounds.append({side: run_side(sides[side], jobs_path) for side in order})

    agree = True
    for name in names:
        print(f"{name}: {len(jobs[name])} solves, seed {args.seed}")
        print("round\tfirst\tparent_s\tchange_s\tratio")
        ratios = []
        for r, result in enumerate(rounds, 1):
            parent_s = result["parent"][name]["cpu_s"]
            change_s = result["change"][name]["cpu_s"]
            ratios.append(change_s / parent_s)
            first = next(iter(result))
            print(f"{r}\t{first}\t{parent_s:.3f}\t{change_s:.3f}\t{ratios[-1]:.3f}")
        medians = {
            side: statistics.median(result[side][name]["cpu_s"] for result in rounds)
            for side in sides
        }
        print(
            f"median\t\t{medians['parent']:.3f}\t{medians['change']:.3f}\t"
            f"{statistics.median(ratios):.3f}"
            f" (rounds {min(ratios):.3f}-{max(ratios):.3f})"
        )
        digests = {result[side][name]["digest"] for result in rounds for side in sides}
        if len(digests) == 1:
            print(f"digests agree\t{digests.pop()}")
        else:
            agree = False
            print(f"digests DIFFER\t{' '.join(sorted(digests))}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
