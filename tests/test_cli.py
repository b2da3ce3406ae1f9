from __future__ import annotations

from pathlib import Path

import pytest

import mapfkit.cli as cli
from mapfkit import bench, parse_map, parse_scenario
from mapfkit.cli import main

from conftest import FIXTURES


def fx(name: str) -> str:
    return str(FIXTURES / name)


def _must_not_run(*args, **kwargs):
    raise AssertionError("the work ran although an output path was bad")


class TestSolveCommand:
    def test_corridor_exits_zero_with_cost_three(self, capsys, tmp_path):
        out_file = tmp_path / "sol.txt"
        code = main(
            ["solve", "-m", fx("corridor.map"), "-i", fx("corridor.scen"),
             "-N", "1", "-o", str(out_file)]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "status=OPTIMAL" in captured
        assert "cost=3" in captured
        assert out_file.exists()

    def test_unsolvable_fixture_exits_one(self, capsys):
        code = main(
            ["solve", "-m", fx("swap2.map"), "-i", fx("swap2.scen"), "-N", "2"]
        )
        assert code == 1
        assert "status=NO_SOLUTION" in capsys.readouterr().out

    def test_no_anytime_prints_found(self, capsys):
        code = main(
            ["solve", "-m", fx("tunnel.map"), "-i", fx("tunnel.scen"), "-N", "2",
             "--no-anytime", "--objective", "makespan"]
        )
        assert code == 0
        assert "status=FOUND" in capsys.readouterr().out

    def test_missing_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "-m", fx("corridor.map")])
        assert exc.value.code == 64

    @pytest.mark.parametrize("budget", ["0", "-1", "nan", "inf"])
    def test_bad_time_budget_is_usage_error(self, budget):
        with pytest.raises(SystemExit) as exc:
            main(
                ["solve", "-m", fx("corridor.map"), "-i", fx("corridor.scen"),
                 "-N", "1", "-t", budget]
            )
        assert exc.value.code == 64

    def test_unreadable_map_is_usage_error(self, capsys, tmp_path):
        code = main(
            ["solve", "-m", str(tmp_path / "nope.map"), "-i", fx("corridor.scen"),
             "-N", "1"]
        )
        assert code == 64

    def test_trace_file_written(self, tmp_path):
        trace = tmp_path / "trace.csv"
        main(
            ["solve", "-m", fx("tunnel.map"), "-i", fx("tunnel.scen"), "-N", "2",
             "--objective", "makespan", "--trace", str(trace)]
        )
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "elapsed_ms,cost"
        assert len(lines) >= 2

    def test_outputs_go_into_missing_directories(self, capsys, tmp_path):
        sol = tmp_path / "a" / "b" / "sol.txt"
        trace = tmp_path / "c" / "trace.csv"
        code = main(
            ["solve", "-m", fx("tunnel.map"), "-i", fx("tunnel.scen"), "-N", "2",
             "--objective", "makespan", "-o", str(sol), "--trace", str(trace)]
        )
        assert code == 0
        assert sol.read_text().startswith("starts=")
        assert trace.read_text().startswith("elapsed_ms,cost\n")

    @pytest.mark.parametrize("option", ["-o", "--trace"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, option):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(
            ["solve", "-m", fx("corridor.map"), "-i", fx("corridor.scen"),
             "-N", "1", option, str(blocker / "out.txt")]
        )
        captured = capsys.readouterr()
        assert code == 64
        assert "status=" not in captured.out  # found before the solve
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_unwritable_output_runs_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "solve", _must_not_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(
            ["solve", "-m", fx("corridor.map"), "-i", fx("corridor.scen"),
             "-N", "1", "--trace", str(blocker / "trace.csv")]
        )
        assert code == 64

    def test_output_check_leaves_no_file_without_a_solution(self, capsys, tmp_path):
        sol = tmp_path / "d" / "sol.txt"
        kept = tmp_path / "kept.txt"
        kept.write_text("earlier\n")
        for path in (sol, kept):
            code = main(
                ["solve", "-m", fx("swap2.map"), "-i", fx("swap2.scen"), "-N", "2",
                 "-o", str(path)]
            )
            assert code == 1
        assert sol.parent.is_dir() and not sol.exists()
        assert kept.read_text() == "earlier\n"


class TestValidateCommand:
    def _solve_to(self, tmp_path: Path, name="sol.txt") -> Path:
        out_file = tmp_path / name
        main(
            ["solve", "-m", fx("tunnel.map"), "-i", fx("tunnel.scen"), "-N", "2",
             "--objective", "makespan", "-o", str(out_file)]
        )
        return out_file

    def test_solver_output_validates(self, capsys, tmp_path):
        sol = self._solve_to(tmp_path)
        code = main(
            ["validate", "-m", fx("tunnel.map"), "-i", fx("tunnel.scen"),
             "-N", "2", "--solution", str(sol)]
        )
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_lone_cr_line_endings_validate(self, capsys, tmp_path):
        sol = self._solve_to(tmp_path)
        sol.write_bytes(sol.read_bytes().replace(b"\n", b"\r"))
        code = main(
            ["validate", "-m", fx("tunnel.map"), "-i", fx("tunnel.scen"),
             "-N", "2", "--solution", str(sol)]
        )
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_corrupted_step_reports_edge(self, capsys, tmp_path):
        # two agents following each other; the step-2 configuration is
        # replaced by the exchange of their step-1 positions
        map_path = tmp_path / "line.map"
        scen_path = tmp_path / "line.scen"
        sol_path = tmp_path / "bad.txt"
        map_path.write_text("type octile\nheight 1\nwidth 4\nmap\n....\n")
        scen_path.write_text(
            "version 1\n"
            "0\tline.map\t4\t1\t0\t0\t2\t0\t2.0\n"
            "0\tline.map\t4\t1\t1\t0\t3\t0\t2.0\n"
        )
        sol_path.write_text(
            "starts=(0,0),(1,0)\n"
            "0:(0,0),(1,0)\n"
            "1:(1,0),(2,0)\n"
            "2:(2,0),(1,0)\n"
            "3:(2,0),(3,0)\n"
        )
        code = main(
            ["validate", "-m", str(map_path), "-i", str(scen_path),
             "-N", "2", "--solution", str(sol_path)]
        )
        captured = capsys.readouterr().out
        assert code == 1
        assert "EDGE violation at step 2" in captured

    def test_wrong_goal_reports_goal(self, capsys, tmp_path):
        sol = self._solve_to(tmp_path)
        lines = sol.read_text().strip().splitlines()
        lines = lines[:-1]  # drop the final configuration
        sol.write_text("\n".join(lines) + "\n")
        code = main(
            ["validate", "-m", fx("tunnel.map"), "-i", fx("tunnel.scen"),
             "-N", "2", "--solution", str(sol)]
        )
        captured = capsys.readouterr().out
        assert code == 1
        assert "GOAL" in captured

    def test_unreadable_solution_is_usage_error(self, tmp_path):
        code = main(
            ["validate", "-m", fx("tunnel.map"), "-i", fx("tunnel.scen"),
             "-N", "2", "--solution", str(tmp_path / "nope.txt")]
        )
        assert code == 64

    def test_solution_with_other_agent_count_is_usage_error(self, capsys, tmp_path):
        sol = self._solve_to(tmp_path)
        code = main(
            ["validate", "-m", fx("tunnel.map"), "-i", fx("tunnel.scen"),
             "-N", "1", "--solution", str(sol)]
        )
        captured = capsys.readouterr()
        assert code == 64
        assert captured.err.startswith("error: ")
        assert "arity 2, expected 1" in captured.err


class TestGenCommand:
    def test_fill_ratio_on_empty_8x8(self, capsys, tmp_path):
        prefix = tmp_path / "inst"
        code = main(
            ["gen", "--size", "8x8", "--obstacle-density", "0",
             "--fill-ratio", "0.9", "--seed", "1", "-o", str(prefix)]
        )
        assert code == 0
        assert "agents=57" in capsys.readouterr().out  # floor(0.9 * 64)
        grid = parse_map((tmp_path / "inst.map").read_text())
        starts, goals = parse_scenario((tmp_path / "inst.scen").read_text(), grid, 57)
        assert len(starts) == 57

    def test_seeded_generation_is_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for prefix in (a, b):
            main(
                ["gen", "--size", "6x6", "--obstacle-density", "0.2",
                 "--agents", "4", "--seed", "9", "-o", str(prefix)]
            )
        assert (tmp_path / "a.map").read_text() == (tmp_path / "b.map").read_text()
        a_scen = (tmp_path / "a.scen").read_text().replace("a.map", "X")
        b_scen = (tmp_path / "b.scen").read_text().replace("b.map", "X")
        assert a_scen == b_scen

    def test_generated_files_reparse(self, tmp_path):
        prefix = tmp_path / "g"
        main(
            ["gen", "--size", "10x10", "--obstacle-density", "0.15",
             "--agents", "12", "--seed", "3", "-o", str(prefix)]
        )
        grid = parse_map((tmp_path / "g.map").read_text())
        starts, goals = parse_scenario((tmp_path / "g.scen").read_text(), grid, 12)
        assert len(set(starts)) == 12 and len(set(goals)) == 12

    def test_full_density_is_an_error(self, capsys):
        code = main(
            ["gen", "--size", "4x4", "--obstacle-density", "1.0",
             "--agents", "1", "-o", "x"]
        )
        assert code == 64
        assert "passable" in capsys.readouterr().err

    def test_too_many_agents_is_an_error(self, capsys, tmp_path):
        code = main(
            ["gen", "--size", "3x3", "--obstacle-density", "0",
             "--agents", "10", "-o", str(tmp_path / "x")]
        )
        assert code == 64

    def test_negative_agents_is_an_error(self, capsys, tmp_path):
        code = main(
            ["gen", "--size", "4x4", "--agents", "-3", "-o", str(tmp_path / "x")]
        )
        assert code == 64
        assert capsys.readouterr().err == "error: agent count must be nonnegative\n"
        assert list(tmp_path.iterdir()) == []

    def test_agents_and_fill_ratio_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(
                ["gen", "--size", "4x4", "--agents", "2", "--fill-ratio", "0.5",
                 "-o", "x"]
            )
        assert exc.value.code == 64


class TestBenchCommand:
    def test_bench_writes_records_and_summary(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        summary = tmp_path / "summary.csv"
        code = main(
            ["bench", "--map", fx("tunnel.map"), "--scen", fx("tunnel.scen"),
             "--agents", "1:1:2", "--objective", "makespan",
             "-t", "none", "-o", str(records), "--summary", str(summary)]
        )
        assert code == 0
        body = records.read_text().strip().splitlines()
        assert body[0].startswith("map,scen,n,variant")
        assert len(body) == 3  # n = 1 and n = 2
        assert summary.exists()

    def test_outputs_go_into_missing_directories(self, capsys, tmp_path):
        records = tmp_path / "r" / "records.csv"
        summary = tmp_path / "s" / "t" / "summary.csv"
        code = main(
            ["bench", "--map", fx("tunnel.map"), "--scen", fx("tunnel.scen"),
             "--agents", "1:1:1", "--objective", "makespan",
             "-t", "none", "-o", str(records), "--summary", str(summary)]
        )
        assert code == 0
        assert len(records.read_text().strip().splitlines()) == 2
        assert summary.read_text().startswith("map,n,variant")

    @pytest.mark.parametrize("option", ["-o", "--summary"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, option):
        blocker = tmp_path / "file"
        blocker.write_text("")
        paths = {"-o": str(tmp_path / "r.csv"), "--summary": str(tmp_path / "s.csv")}
        paths[option] = str(blocker / "out.csv")
        code = main(
            ["bench", "--map", fx("tunnel.map"), "--scen", fx("tunnel.scen"),
             "--agents", "1:1:1", "--objective", "makespan", "-t", "none",
             "-o", paths["-o"], "--summary", paths["--summary"]]
        )
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""  # found before the sweep: nothing is written
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert not (tmp_path / "r.csv").exists() and not (tmp_path / "s.csv").exists()

    def test_unwritable_output_runs_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setattr(bench, "run_suite", _must_not_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(
            ["bench", "--map", fx("tunnel.map"), "--scen", fx("tunnel.scen"),
             "--agents", "1:1:1", "-o", str(blocker / "out.csv")]
        )
        assert code == 64

    def test_unknown_variant_is_usage_error(self, capsys, tmp_path):
        code = main(
            ["bench", "--map", fx("tunnel.map"), "--scen", fx("tunnel.scen"),
             "--agents", "1:1:1", "--variants", "bogus",
             "-o", str(tmp_path / "r.csv")]
        )
        assert code == 64

    @pytest.mark.parametrize(
        ("option", "match"),
        [
            (["--density", "1.5"], "density"),
            (["--density", "1.0"], "passable"),
            (["--size", "0x4"], "dimensions"),
        ],
    )
    def test_bad_random_map_is_usage_error(self, capsys, tmp_path, option, match):
        gen_dir = tmp_path / "gen"
        code = main(
            ["bench", "--random", "1", *option, "--gen-dir", str(gen_dir),
             "-o", str(tmp_path / "r.csv")]
        )
        assert code == 64
        err = capsys.readouterr().err
        assert "invalid bench configuration" in err and match in err
        assert "Traceback" not in err
        assert not gen_dir.exists()
