"""Tests of the benchmark itself: tracer, inputs, correctness check, worker.

    python3 -m pytest benchmark
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mapfkit  # noqa: E402
import mapfkit.core as core  # noqa: E402
import mapfkit.grid as grid_mod  # noqa: E402
import mapfkit.lacam as lacam  # noqa: E402
import mapfkit.pibt as pibt  # noqa: E402
from mapfkit import Objective, Solution, SolverOptions, heuristic  # noqa: E402

from check import check_outcome  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

OWNERS = (grid_mod, grid_mod.VertexGraph, core, lacam, pibt)


def _attributes() -> dict:
    return {(id(o), name): value for o in OWNERS for name, value in vars(o).items()}


@pytest.fixture
def instance(tmp_path):
    job = write_inputs(WORKLOADS["small-exhaustive"], 0, tmp_path)[0]
    grid = mapfkit.parse_map(Path(job["map"]).read_text())
    starts, goals = mapfkit.parse_scenario(Path(job["scen"]).read_text(), grid, job["n"])
    return mapfkit.Instance(grid=grid, starts=starts, goals=goals)


def test_tracer_restores_every_patched_attribute(instance):
    before = _attributes()
    tracer = Tracer()
    tracer.install()
    patched = {(id(o), a) for o, a, _ in tracer._saved}
    assert len(patched) == 15
    assert all(before[key] is not _attributes()[key] for key in patched)
    try:
        lacam.solve(instance, SolverOptions(objective=Objective.MAKESPAN))
    finally:
        tracer.uninstall()
    after = _attributes()
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)
    spans = tracer.spans
    assert spans["lacam.solve"].calls == 1
    assert spans["pibt.plan_step"].calls == spans["lacam.generate_configuration"].calls
    assert spans["grid.bfs_dist_table"].calls == instance.n


def test_tracer_restores_when_a_traced_call_raises():
    before = _attributes()
    with pytest.raises(mapfkit.MapParseError):
        with Tracer():
            grid_mod.parse_map("not a map")
    assert all(before[key] is value for key, value in _attributes().items())


def test_tracer_self_time_excludes_children():
    tracer = Tracer(clock=iter(range(100)).__next__)
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner() or 1)
    outer()
    assert tracer.spans["outer"].total_s == 3
    assert tracer.spans["outer"].self_s == 2
    assert tracer.spans["inner"].empty == 1
    assert tracer.edges == {("outer", "inner"): 1, ("", "outer"): 1}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_byte_identical_for_a_seed(tmp_path, name):
    workload = WORKLOADS[name]
    if name == "large-first":
        workload = type(workload)(**{**vars(workload), "instances": 1})
    first = write_inputs(workload, 7, tmp_path / "a")
    second = write_inputs(workload, 7, tmp_path / "b")
    assert [dict(j, map=None, scen=None) for j in first] == [
        dict(j, map=None, scen=None) for j in second
    ]
    for a, b in zip(first, second):
        assert Path(a["map"]).read_bytes() == Path(b["map"]).read_bytes()
        assert Path(a["scen"]).read_bytes() == Path(b["scen"]).read_bytes()
    other = write_inputs(workload, 8, tmp_path / "c")
    changed = [Path(a["scen"]).read_bytes() != Path(c["scen"]).read_bytes()
               for a, c in zip(first, other)]
    assert any(changed) != workload.fixed_corpus


def _solve(instance, objective=Objective.SUM_OF_LOSS):
    outcome = lacam.solve(instance, SolverOptions(objective=objective))
    tables = [instance.grid.dist_table(g) for g in instance.goals]
    return outcome, heuristic(objective, instance.starts, tables)


def test_check_accepts_a_correct_solution(instance):
    outcome, bound = _solve(instance)
    optimum = mapfkit.optimal_cost(instance, Objective.SUM_OF_LOSS)
    assert check_outcome(instance, Objective.SUM_OF_LOSS, "OPTIMAL", outcome.cost,
                         outcome.solution, bound, ("OPTIMAL",), optimum) == []


def _corruptions(instance, configs):
    grid = instance.grid
    yield "dropped step", configs[:1] + configs[2:]
    yield "dropped last step", configs[:-1]
    q = list(configs[1])
    q[0] = q[1]  # two agents on one vertex
    yield "collision", configs[:1] + [tuple(q)] + configs[2:]
    q = list(configs[1])
    far = max(range(grid.num_vertices), key=lambda v: abs(v - configs[0][0]))
    q[0] = far  # a jump, not a move to a neighbor
    yield "jump", configs[:1] + [tuple(q)] + configs[2:]


def test_check_rejects_corrupted_solutions(instance):
    outcome, bound = _solve(instance)
    configs = list(outcome.solution.configs)
    assert len(configs) >= 3
    for label, bad in _corruptions(instance, configs):
        problems = check_outcome(instance, Objective.SUM_OF_LOSS, "OPTIMAL", outcome.cost,
                                 Solution(configs=bad), bound, ("OPTIMAL",))
        assert problems, label


def test_check_rejects_wrong_cost_status_and_optimum(instance):
    outcome, bound = _solve(instance)
    args = (instance, Objective.SUM_OF_LOSS)
    assert check_outcome(*args, "OPTIMAL", outcome.cost + 1, outcome.solution, bound,
                         ("OPTIMAL",))
    assert check_outcome(*args, "SUBOPTIMAL", outcome.cost, outcome.solution, bound,
                         ("OPTIMAL",))
    assert check_outcome(*args, "OPTIMAL", outcome.cost, outcome.solution, bound,
                         ("OPTIMAL",), optimum=outcome.cost - 1)
    assert check_outcome(*args, "OPTIMAL", outcome.cost, outcome.solution,
                         outcome.cost + 1, ("OPTIMAL",))
    assert check_outcome(*args, "FAILURE", outcome.cost, None, bound, ("FAILURE",))


def test_worker_keeps_going_after_a_failed_solve(tmp_path):
    jobs = write_inputs(WORKLOADS["small-exhaustive"], 0, tmp_path)[:2]
    jobs[0] = dict(jobs[0], map=str(tmp_path / "missing.map"))
    task = {"mode": "solve", "src": str(ROOT / "src"), "jobs": jobs, "seconds": 0}
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "worker.py")],
        input=json.dumps(task), capture_output=True, text=True, timeout=120, check=True,
    )
    first, second = (json.loads(line) for line in out.stdout.splitlines())
    assert "missing.map" in first["error"]
    assert second["status"] == "OPTIMAL" and second["problems"] == []
