"""Tests for the command-line interface (in-process, no subprocesses)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.io import load_schedule, load_taskset


@pytest.fixture
def task_file(tmp_path):
    path = tmp_path / "tasks.json"
    assert main(["generate", str(path), "-n", "8", "--seed", "5"]) == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["schedule", "t.json"])
        assert args.cores == 4
        assert args.method == "der"
        assert args.alpha == 3.0

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8421
        assert args.workers == 0
        assert args.batch_max == 32
        assert args.cache_size == 256
        assert args.max_inflight == 256
        assert args.f_max is None

    def test_serve_flags_round_trip(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "0", "--workers", "4",
             "--batch-max", "64",
             "--cache-size", "1024", "--max-inflight", "100",
             "--timeout", "5", "-m", "8", "--alpha", "2.5", "--static", "0.1",
             "--f-max", "2.0", "--log-interval", "0"]
        )
        assert (args.host, args.port, args.workers) == ("0.0.0.0", 0, 4)
        assert args.batch_max == 64
        assert args.cache_size == 1024
        assert args.max_inflight == 100
        assert args.timeout == 5.0
        assert (args.cores, args.alpha, args.static) == (8, 2.5, 0.1)
        assert args.f_max == 2.0
        assert args.log_interval == 0.0

    def test_serve_args_build_a_valid_config(self):
        from repro.service import ServiceConfig

        args = build_parser().parse_args(["serve", "--batch-max", "1"])
        config = ServiceConfig(
            host=args.host, port=args.port, workers=args.workers,
            batch_max=args.batch_max,
            cache_size=args.cache_size, max_inflight=args.max_inflight,
            request_timeout=args.timeout, m=args.cores, alpha=args.alpha,
            static=args.static, f_max=args.f_max, log_interval=args.log_interval,
        )
        assert config.batch_max == 1

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.requests == 500
        assert args.concurrency == 16
        assert args.unique == 50
        assert args.optimal_frac == 0.0
        assert args.include_schedule is False

    def test_loadgen_flags_round_trip(self):
        args = build_parser().parse_args(
            ["loadgen", "--port", "9000", "-n", "100", "-c", "8",
             "--n-tasks", "12", "--unique", "10", "--optimal-frac", "0.2",
             "--admit-frac", "0.1", "--method", "even",
             "--include-schedule", "--seed", "7", "--json"]
        )
        assert (args.port, args.requests, args.concurrency) == (9000, 100, 8)
        assert (args.n_tasks, args.unique) == (12, 10)
        assert (args.optimal_frac, args.admit_frac) == (0.2, 0.1)
        assert args.method == "even"
        assert args.include_schedule is True
        assert args.seed == 7
        assert args.json is True

    def test_loadgen_rejects_bad_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--method", "magic"])

    def test_serve_robustness_flags_round_trip(self):
        args = build_parser().parse_args(
            ["serve", "--solver-timeout", "2.5", "--degrade-to", "even",
             "--retry-max", "3", "--retry-backoff", "0.2",
             "--chaos", "kill=0.1,seed=7"]
        )
        assert args.solver_timeout == 2.5
        assert args.degrade_to == "even"
        assert args.retry_max == 3
        assert args.retry_backoff == 0.2
        assert args.chaos == "kill=0.1,seed=7"

    def test_serve_robustness_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.solver_timeout == 10.0
        assert args.degrade_to == "subinterval-der"
        assert args.retry_max == 1
        assert args.chaos == ""

    def test_loadgen_chaos_flag(self):
        args = build_parser().parse_args(
            ["loadgen", "--chaos", "malform=0.2,seed=3"]
        )
        assert args.chaos == "malform=0.2,seed=3"
        assert build_parser().parse_args(["loadgen"]).chaos == ""


class TestGenerate:
    def test_writes_valid_taskset(self, task_file):
        tasks = load_taskset(task_file)
        assert len(tasks) == 8

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", str(a), "--seed", "9"])
        main(["generate", str(b), "--seed", "9"])
        assert load_taskset(a) == load_taskset(b)

    def test_csv_output(self, tmp_path):
        path = tmp_path / "tasks.csv"
        assert main(["generate", str(path), "-n", "5"]) == 0
        assert len(load_taskset(path)) == 5

    def test_xscale_generator(self, tmp_path):
        path = tmp_path / "x.json"
        assert main(["generate", str(path), "--xscale", "-n", "6"]) == 0
        tasks = load_taskset(path)
        assert all(t.work >= 4000 for t in tasks)


class TestSchedule:
    def test_schedules_and_saves(self, task_file, tmp_path, capsys):
        out = tmp_path / "sched.json"
        code = main(
            ["schedule", str(task_file), "--static", "0.1", "-o", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "S^F2" in captured
        assert "validation: OK" in captured
        sched = load_schedule(out)
        assert sched.completes_all(rtol=1e-6)

    def test_even_method(self, task_file, capsys):
        assert main(["schedule", str(task_file), "--method", "even"]) == 0
        assert "S^F1" in capsys.readouterr().out

    def test_online_method(self, task_file, capsys):
        assert main(["schedule", str(task_file), "--method", "online"]) == 0
        assert "re-plans" in capsys.readouterr().out

    def test_gantt_flag(self, task_file, capsys):
        main(["schedule", str(task_file), "--gantt"])
        assert "M1 |" in capsys.readouterr().out

    def test_svg_output(self, task_file, tmp_path):
        svg = tmp_path / "sched.svg"
        main(["schedule", str(task_file), "--svg", str(svg)])
        assert svg.read_text().startswith("<svg")


class TestOptimal:
    def test_reports_energy(self, task_file, capsys):
        assert main(["optimal", str(task_file), "--static", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "optimal energy" in out
        assert "interior-point" in out

    def test_alternate_solver(self, task_file, capsys):
        assert (
            main(["optimal", str(task_file), "--solver", "projected-gradient"]) == 0
        )
        assert "projected-gradient" in capsys.readouterr().out

    def test_optimal_not_above_heuristic(self, task_file, capsys):
        main(["schedule", str(task_file), "--static", "0.1"])
        sched_out = capsys.readouterr().out
        e_sched = float(
            next(l for l in sched_out.splitlines() if l.startswith("energy:")).split()[1]
        )
        main(["optimal", str(task_file), "--static", "0.1"])
        opt_out = capsys.readouterr().out
        e_opt = float(
            next(
                l for l in opt_out.splitlines() if l.startswith("optimal energy:")
            ).split()[2]
        )
        assert e_opt <= e_sched * (1 + 1e-6)


class TestSolveErrorPaths:
    def test_unknown_solver_exits_2_with_menu(self, task_file, capsys):
        assert main(["solve", str(task_file), "--solver", "magic"]) == 2
        out, err = capsys.readouterr()
        assert "unknown solver 'magic'" in out
        assert "subinterval-der" in out  # the menu names real solvers
        assert "repro solve --list" in out
        assert "Traceback" not in out + err

    def test_missing_task_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["solve", str(missing)]) == 2
        out, err = capsys.readouterr()
        assert "does not exist" in out
        assert "Traceback" not in out + err

    def test_list_flag_needs_no_task_file(self, capsys):
        assert main(["solve", "--list"]) == 0
        assert "subinterval-der" in capsys.readouterr().out


class TestSolveProfile:
    @staticmethod
    def _section(out: str, header: str) -> list[str]:
        lines = out.splitlines()
        start = lines.index(header) + 1
        end = next(
            (i for i in range(start, len(lines)) if not lines[i].startswith("  ")),
            len(lines),
        )
        return lines[start:end]

    def test_interior_point_profile(self, task_file, capsys):
        argv = ["solve", str(task_file), "--solver", "optimal:interior-point"]
        assert main(argv + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "  kernel: " in out and "dense fallbacks: " in out
        assert "span timings:" in out
        (per_center,) = [
            line for line in out.splitlines()
            if line.startswith("  newton per centering step: ")
        ]
        newton = json.loads(per_center.split(": ", 1)[1])
        header, *rows = self._section(out, "interior-point centering path:")
        assert header.split() == ["step", "t_ms", "gap", "newton"]
        assert [int(row.split()[0]) for row in rows] == list(
            range(1, len(newton) + 1)
        )
        assert [int(row.split()[-1]) for row in rows] == newton

    def test_heuristic_profile_has_no_kernel_section(self, task_file, capsys):
        argv = ["solve", str(task_file), "--solver", "subinterval-der"]
        assert main(argv + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "no kernel diagnostics" in out
        assert "centering path" not in out
        assert "span timings:" in out


class TestServeErrorPaths:
    def test_port_already_in_use_exits_1_with_hint(self, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen(1)
            port = sock.getsockname()[1]
            code = main(["serve", "--port", str(port), "--log-interval", "0"])
        out, err = capsys.readouterr()
        assert code == 1
        assert "already in use" in out
        assert "--port 0" in out  # the remedy is part of the message
        assert "Traceback" not in out + err

    def test_invalid_chaos_spec_exits_2(self, capsys):
        assert main(["serve", "--chaos", "bogus=1"]) == 2
        out, err = capsys.readouterr()
        assert "error" in out
        assert "Traceback" not in out + err


class TestInspect:
    def test_valid_schedule(self, task_file, tmp_path, capsys):
        out = tmp_path / "sched.json"
        main(["schedule", str(task_file), "--static", "0.1", "-o", str(out)])
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        text = capsys.readouterr().out
        assert "replayed energy" in text
        assert "deadline misses: none" in text

    def test_invalid_schedule_flagged(self, task_file, tmp_path, capsys):
        out = tmp_path / "sched.json"
        main(["schedule", str(task_file), "--static", "0.1", "-o", str(out)])
        payload = json.loads(out.read_text())
        payload["segments"] = payload["segments"][:1]  # drop most of the work
        out.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestReport:
    def test_generates_report(self, tmp_path, capsys):
        (tmp_path / "fig8.csv").write_text(
            "m,Idl,I1,F1,I2,F2\n2,0.7,3.3,2.8,1.8,1.4\n12,1,1,1,1,1.0\n"
        )
        assert main(["report", str(tmp_path)]) == 0
        assert "Claims passed" in capsys.readouterr().out

    def test_writes_file(self, tmp_path):
        (tmp_path / "fig8.csv").write_text(
            "m,Idl,I1,F1,I2,F2\n2,0.7,3.3,2.8,1.8,1.4\n12,1,1,1,1,1.0\n"
        )
        out = tmp_path / "report.md"
        main(["report", str(tmp_path), "-o", str(out)])
        assert out.read_text().startswith("# Reproduction report")

    def test_failing_claims_exit_nonzero(self, tmp_path):
        (tmp_path / "fig8.csv").write_text(
            "m,Idl,I1,F1,I2,F2\n2,1,1,1,1,1.0\n12,1,1,1,1,1.5\n"
        )
        assert main(["report", str(tmp_path)]) == 1

    def test_missing_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 1
        assert "not a directory" in capsys.readouterr().out


class TestExperiment:
    def test_runs_small_figure(self, capsys, tmp_path):
        csv = tmp_path / "fig8.csv"
        code = main(
            ["experiment", "fig8", "--reps", "2", "--csv", str(csv)]
        )
        assert code == 0
        assert "Fig. 8" in capsys.readouterr().out
        assert csv.exists()

    def test_runs_ablation(self, capsys):
        assert main(["experiment", "ablation-switching", "--reps", "2"]) == 0
        assert "switching" in capsys.readouterr().out

    def test_runs_core_selection(self, capsys):
        assert main(["experiment", "core-selection", "--reps", "2"]) == 0
        assert "core-count" in capsys.readouterr().out

    def test_runs_online_ablation(self, capsys):
        assert main(["experiment", "ablation-online", "--reps", "1"]) == 0
        assert "Online" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])
