from __future__ import annotations

import logging
import os
import random
from pathlib import Path

import pytest

import mapfkit.bench as bench
from mapfkit import Instance, Objective, VertexGraph, bfs_dist_table, parse_map
from mapfkit.bench import (
    ExperimentConfig,
    RunRecord,
    SolverVariant,
    generate_map,
    largest_component,
    read_csv,
    run_suite,
    sample_instance,
    scenario_text,
    summarize,
    write_csv,
    write_instance_files,
)

from conftest import FIXTURES


def small_cfg(tmp_path: Path, **overrides) -> ExperimentConfig:
    base = dict(
        map_paths=(str(FIXTURES / "corridor.map"),),
        scen_paths=(str(FIXTURES / "corridor.scen"),),
        agents_start=1,
        agents_step=1,
        agents_max=1,
        objective=Objective.SUM_OF_LOSS,
        variants=(SolverVariant("full"),),
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestGeneration:
    def test_map_has_exact_obstacle_count(self):
        grid = generate_map(10, 10, 0.3, random.Random(0))
        assert grid.num_vertices == 70

    def test_full_density_rejected(self):
        with pytest.raises(ValueError, match="passable"):
            generate_map(4, 4, 1.0, random.Random(0))

    def test_sampled_instances_are_distinct_and_connected(self):
        rng = random.Random(1)
        grid = generate_map(8, 8, 0.2, rng)
        inst = sample_instance(grid, 10, rng)
        component = set(largest_component(grid))
        assert set(inst.starts) <= component and set(inst.goals) <= component

    def test_write_and_reread_round_trip(self, tmp_path):
        rng = random.Random(2)
        grid = generate_map(6, 6, 0.2, rng)
        inst = sample_instance(grid, 4, rng)
        map_path, scen_path = write_instance_files(tmp_path, "t", grid, inst)
        from mapfkit import parse_map, parse_scenario

        again = parse_map(map_path.read_text())
        assert again == grid
        starts, goals = parse_scenario(scen_path.read_text(), again, 4)
        assert starts == inst.starts and goals == inst.goals

    def test_scenario_lengths_fill_no_graph_cache(self, monkeypatch):
        # The optimal-length column reads one lazy table per agent, never
        # a table searched to the end.
        def no_cache(graph, target):
            raise AssertionError("scenario_text searched a complete table")

        monkeypatch.setattr(VertexGraph, "dist_table", no_cache)
        # A blocked middle column leaves some start-goal pairs unreachable.
        terrain = "....@....\n.@..@..@.\n....@....\n"
        grid = parse_map("type octile\nheight 3\nwidth 9\nmap\n" + terrain)
        at = grid.vertex_at
        inst = Instance(
            grid=grid,
            starts=(at(0, 0), at(3, 2), at(5, 0), at(8, 2)),
            goals=(at(8, 0), at(2, 0), at(5, 2), at(0, 1)),
        )
        rows = scenario_text(grid, "m.map", inst).splitlines()[1:]
        assert "-1.0" in {row.split("\t")[8] for row in rows}
        for row, s, g in zip(rows, inst.starts, inst.goals):
            d = bfs_dist_table(grid, g).dist[s]
            assert row.split("\t")[8] == str(float(d) if d >= 0 else -1.0)


class TestExperimentConfig:
    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"iteration_budget": -1}, "budget"),
            ({"time_budget": float("nan")}, "budget"),
            ({"time_budget": -1.0}, "budget"),
            ({"random_density": 1.5}, "density"),
            ({"random_density": 1.0}, "passable"),
            ({"random_size": (0, 4)}, "dimensions"),
        ],
    )
    def test_bad_budget_rejected_before_any_file_is_written(self, tmp_path, kwargs, match):
        gen_dir = tmp_path / "gen"
        with pytest.raises(ValueError, match=match):
            small_cfg(tmp_path, random_count=2, gen_dir=str(gen_dir), **kwargs)
        assert not gen_dir.exists()


class TestRunSuite:
    def test_single_run_single_record(self, tmp_path):
        records = run_suite(small_cfg(tmp_path))
        assert len(records) == 1
        record = records[0]
        assert record.n == 1
        assert record.status == "OPTIMAL"
        assert record.final_cost == 3
        assert record.init_cost == 3

    def test_variant_stops_after_failing_round(self, tmp_path):
        cfg = small_cfg(
            tmp_path,
            map_paths=(str(FIXTURES / "swap2.map"),),
            scen_paths=(str(FIXTURES / "swap2.scen"),),
            agents_start=2,
            agents_step=1,
            agents_max=4,
        )
        records = run_suite(cfg)
        assert [r.n for r in records] == [2]  # rounds 3 and 4 skipped

    def test_unreadable_input_yields_failure_record(self, tmp_path):
        cfg = small_cfg(
            tmp_path,
            map_paths=(str(tmp_path / "missing.map"),),
            scen_paths=(str(tmp_path / "missing.scen"),),
        )
        records = run_suite(cfg)
        assert len(records) == 1
        assert records[0].status == "FAILURE"

    def test_deterministic_and_parallel_invariant(self, tmp_path):
        def strip_timing(records):
            return [
                (r.map, r.scen, r.n, r.variant, r.seed, r.status, r.init_cost,
                 r.final_cost, r.iterations)
                for r in records
            ]

        cfg1 = small_cfg(
            tmp_path,
            map_paths=(str(FIXTURES / "tunnel.map"),) * 2,
            scen_paths=(str(FIXTURES / "tunnel.scen"),) * 2,
            agents_start=1,
            agents_step=1,
            agents_max=2,
            objective=Objective.MAKESPAN,
        )
        sequential = run_suite(cfg1)
        repeat = run_suite(cfg1)
        parallel = run_suite(small_cfg(
            tmp_path,
            map_paths=cfg1.map_paths,
            scen_paths=cfg1.scen_paths,
            agents_start=1,
            agents_step=1,
            agents_max=2,
            objective=Objective.MAKESPAN,
            jobs=2,
        ))
        assert strip_timing(sequential) == strip_timing(repeat)
        assert strip_timing(sequential) == strip_timing(parallel)

    def test_distinct_seeds_per_run(self, tmp_path):
        cfg = small_cfg(
            tmp_path,
            map_paths=(str(FIXTURES / "tunnel.map"),) * 3,
            scen_paths=(str(FIXTURES / "tunnel.scen"),) * 3,
            agents_start=1,
            agents_step=1,
            agents_max=2,
        )
        records = run_suite(cfg)
        seeds = [r.seed for r in records]
        assert len(seeds) == len(set(seeds))


class TestFailedRuns:
    """A run that raises or kills its worker becomes one FAILURE record."""

    @staticmethod
    def cfg(tmp_path, jobs):
        return small_cfg(
            tmp_path,
            map_paths=(str(FIXTURES / "tunnel.map"),) * 3,
            scen_paths=(str(FIXTURES / "tunnel.scen"),) * 3,
            agents_start=1,
            agents_step=1,
            agents_max=2,
            objective=Objective.MAKESPAN,
            jobs=jobs,
        )

    @staticmethod
    def outcomes(records):
        return [(r.map, r.n, r.seed, r.status, r.final_cost, r.iterations) for r in records]

    def run_failing(self, tmp_path, monkeypatch, caplog, jobs, fail):
        """Sweep with the second run of round n=2 failing; return the log."""
        expected = self.outcomes(run_suite(self.cfg(tmp_path, jobs=1)))
        # Failing on the seed, which every worker process agrees on.
        fail_seed = expected[4][2]
        real = bench._execute_run

        def failing(map_path, scen_path, n, variant, cfg, seed):
            if seed == fail_seed:
                fail()
            return real(map_path, scen_path, n, variant, cfg, seed)

        monkeypatch.setattr(bench, "_execute_run", failing)
        with caplog.at_level(logging.WARNING, logger="mapfkit.bench"):
            got = self.outcomes(run_suite(self.cfg(tmp_path, jobs=jobs)))
        assert len(got) == len(expected) == 6
        assert [k for k in range(6) if got[k] != expected[k]] == [4]
        assert got[4][:3] == expected[4][:3] and got[4][3] == "FAILURE"
        assert "n=2, full) failed" in caplog.text
        return caplog.text

    def test_crashed_worker_keeps_other_records(self, tmp_path, monkeypatch, caplog):
        # The fork start method carries the patch into the pool's workers.
        log_text = self.run_failing(
            tmp_path, monkeypatch, caplog, jobs=2, fail=lambda: os._exit(3)
        )
        assert "BrokenProcessPool" in log_text

    def test_raising_run_keeps_other_records(self, tmp_path, monkeypatch, caplog):
        def boom():
            raise RuntimeError("boom")

        log_text = self.run_failing(tmp_path, monkeypatch, caplog, jobs=1, fail=boom)
        assert "RuntimeError: boom" in log_text


class TestCsv:
    def test_header_only_for_empty_records(self, tmp_path):
        path = write_csv([], tmp_path / "records.csv")
        lines = path.read_text().strip().splitlines()
        assert lines == [
            "map,scen,n,variant,seed,status,init_time_ms,init_cost,final_cost,iterations"
        ]

    def test_one_record_two_lines(self, tmp_path):
        record = RunRecord(
            map="m", scen="s", n=2, variant="full", seed=3, status="OPTIMAL",
            init_time_ms=1.25, init_cost=9, final_cost=7, iterations=42,
            trace=((1.25, 9), (2.5, 7)),
        )
        path = write_csv([record], tmp_path / "records.csv")
        assert len(path.read_text().strip().splitlines()) == 2
        assert (tmp_path / "trace_0.csv").exists()

    def test_round_trip(self, tmp_path):
        records = [
            RunRecord(
                map="a.map", scen="a.scen", n=1, variant="full", seed=1,
                status="OPTIMAL", init_time_ms=0.5, init_cost=3, final_cost=3,
                iterations=5, trace=((0.5, 3),),
            ),
            RunRecord(
                map="b.map", scen="b.scen", n=2, variant="noswap", seed=2,
                status="NO_SOLUTION", init_time_ms=None, init_cost=None,
                final_cost=None, iterations=11, trace=(),
            ),
        ]
        path = write_csv(records, tmp_path / "records.csv")
        assert read_csv(path) == records

    def test_rewrite_drops_stale_trace(self, tmp_path):
        traced = RunRecord(
            map="m", scen="s", n=2, variant="full", seed=3, status="OPTIMAL",
            init_time_ms=1.25, init_cost=9, final_cost=7, iterations=42,
            trace=((1.25, 9), (2.5, 7)),
        )
        failed = RunRecord(
            map="m", scen="s", n=2, variant="full", seed=3, status="FAILURE",
            init_time_ms=None, init_cost=None, final_cost=None, iterations=42,
        )
        path = write_csv([traced], tmp_path / "records.csv")
        write_csv([failed], path)
        assert not (tmp_path / "trace_0.csv").exists()
        assert read_csv(path) == [failed]


class TestAggregation:
    def test_summarize_success_rate(self):
        make = lambda status, n: RunRecord(
            map="m", scen="s", n=n, variant="full", seed=0, status=status,
            init_time_ms=1.0 if status == "OPTIMAL" else None,
            init_cost=5 if status == "OPTIMAL" else None,
            final_cost=5 if status == "OPTIMAL" else None, iterations=1,
        )
        rows = summarize([make("OPTIMAL", 2), make("FAILURE", 2), make("OPTIMAL", 4)])
        by_n = {row["n"]: row for row in rows}
        assert by_n[2]["success_rate"] == 0.5
        assert by_n[4]["success_rate"] == 1.0
