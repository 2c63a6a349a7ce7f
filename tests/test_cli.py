import json
import os
import subprocess
import sys

import pytest

import txsched
from txsched import cli, experiment, read_table
from txsched.cli import main, resolve_scenario

SMALL = """\
format txsched/1
connection 0 deadline 405us packets 2 airtime 23us overhead 58us
connection 1 deadline 405us packets 2 airtime 23us overhead 58us
scheduler step 81us
schedulers tsgs random
channel slot_time 13us aifs 58us cw 15 airtime 23us
seeds 7 3
"""


def child_env():
    """Environment for a child that imports the package this test imports,
    installed or not."""
    src = os.path.dirname(os.path.dirname(txsched.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def no_work(*args, **kwargs):
    raise AssertionError("work started")


@pytest.fixture
def small_scn(tmp_path):
    path = tmp_path / "small.scn"
    path.write_text(SMALL)
    return str(path)


class TestValidate:
    def test_ok(self, small_scn, capsys):
        assert main(["validate", small_scn]) == 0
        assert capsys.readouterr().out.startswith("ok: 2 connections")

    def test_bundled_name(self, capsys):
        assert main(["validate", "table2"]) == 0
        assert "10 sweep points" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["validate", "/no/such/file.scn"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_sweep_too_long_for_len_is_refused(self, tmp_path, capsys):
        # len() of a range past sys.maxsize raises OverflowError; the points
        # are counted by arithmetic and the run refused, as run refuses it
        points = 10**30 + 1
        huge = tmp_path / "huge.scn"
        huge.write_text(SMALL + f"sweep start 0us stop {10**30}us step 1us\n")
        for verb in ("validate", "run"):
            assert main([verb, str(huge)]) == 1
            assert capsys.readouterr().err.startswith(
                f"error: run too large: {points * 2 * 3} rows and "
                f"{points * 2 * 2 * 4} simulated packets "
            )

    def test_grid_too_long_for_len_is_scheduled(self, tmp_path, capsys):
        # a grid of 10**29 - 22 points: tsgs and random count it by arithmetic
        huge = tmp_path / "huge.scn"
        huge.write_text(
            "format txsched/1\n"
            f"connection 0 deadline {10**29}us packets 1 airtime 23us\n"
            "scheduler step 1us\nschedulers tsgs random\nseeds 1\n"
        )
        assert main(["validate", str(huge)]) == 0
        assert capsys.readouterr().out.startswith("ok: 1 connections")
        assert main(["run", str(huge)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(captured.out.splitlines()) == 1 + 4

    def test_validate_refuses_what_sweep_refuses(self, tmp_path, capsys):
        # table2 with the 10**12-point sweep that
        # TestSweep.test_unbounded_sweep_refused_before_any_work runs
        text = resolve_scenario("table2").read_text()
        assert "sweep start 3280us stop 32800us step 3280us\n" in text
        huge = tmp_path / "huge.scn"
        huge.write_text(text.replace(
            "sweep start 3280us stop 32800us step 3280us\n",
            "sweep start 0us stop 1000000000000us step 1us\n",
        ))
        assert main(["validate", str(huge)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: run too large: 42000000000042 rows and 4000000000004000 "
            "simulated packets exceed the caps of 1000000 rows and "
            "1000000000 packets\n"
        )

    def test_exhaustive_cap_refused_by_validate_and_run(
        self, tmp_path, monkeypatch, capsys
    ):
        # eight connections with 42-point grids: 42**8 assignments
        huge = tmp_path / "huge.scn"
        huge.write_text(
            "format txsched/1\n"
            + "".join(
                f"connection {i} deadline 420us packets 1 airtime 10us\n"
                for i in range(8)
            )
            + "scheduler step 10us\nschedulers tsgs exhaustive\nseeds 1\n"
        )
        monkeypatch.setattr(experiment, "run_scheduler", no_work)
        monkeypatch.setattr(experiment, "simulate", no_work)
        for verb in ("validate", "run"):
            assert main([verb, str(huge)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: 9682651996416 grid assignments exceed the enumeration "
                "cap of 10000000\n"
            )

    def test_invalid_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("format txsched/1\nschedulers psychic\n")
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "bad.scn:2:" in err

    def test_non_utf8_scenario_is_a_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_bytes(SMALL.encode().replace(b"seeds", b"# caf\xe9\nseeds"))
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}:7: byte 0xe9 is not UTF-8 text\n"
        )


class TestRun:
    def test_csv_to_file(self, small_scn, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["run", small_scn, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("window_us,scheduler,seed,pdr")
        # 2 schedulers x 2 seeds + 2 aggregates, single native point
        assert len(lines) == 1 + 6
        assert capsys.readouterr().out == ""

    def test_stdout_by_default(self, small_scn, capsys):
        assert main(["run", small_scn]) == 0
        assert capsys.readouterr().out.startswith("window_us,")

    def test_json_round_trip(self, small_scn, tmp_path):
        out = tmp_path / "out.json"
        assert main(["run", small_scn, "--out", str(out), "--format", "json"]) == 0
        assert read_table(out).connections == 2

    def test_repeat_runs_byte_identical(self, small_scn, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", small_scn, "--out", str(a)]) == 0
        assert main(["run", small_scn, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_summary_flag(self, small_scn, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["run", small_scn, "--out", str(out), "--summary"]) == 0
        assert "pdr gap (tsgs - random):" in capsys.readouterr().out

    def test_json_summary_keeps_stdout_one_table(self, small_scn, tmp_path, capsys):
        # with the table on stdout the summary goes to stderr
        assert main(["run", small_scn, "--format", "json", "--summary"]) == 0
        captured = capsys.readouterr()
        out = tmp_path / "out.json"
        assert main(["run", small_scn, "--format", "json", "--out", str(out)]) == 0
        assert json.loads(captured.out)["connections"] == 2
        assert captured.out.encode() == out.read_bytes()
        assert "pdr gap (tsgs - random):" in captured.err

    def test_summary_with_one_scheduler_fails_before_any_table(
        self, tmp_path, capsys
    ):
        one = tmp_path / "one.scn"
        one.write_text(SMALL.replace("schedulers tsgs random", "schedulers tsgs"))
        out = tmp_path / "out.csv"
        assert main(["run", str(one), "--out", str(out), "--summary"]) == 2
        assert main(["run", str(one), "--summary"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(
            "error: comparison needs at least two schedulers, found ['tsgs']"
        ) == 2
        assert not out.exists()

    def test_exhaustive_blowup_is_runtime_error(self, tmp_path, capsys):
        huge = tmp_path / "huge.scn"
        huge.write_text(
            "format txsched/1\n"
            "connection 0 deadline 200000000us packets 1 airtime 10us\n"
            "scheduler step 1us\nschedulers exhaustive tsgs\nseeds 1\n"
        )
        assert main(["run", str(huge)]) == 2
        assert "enumeration cap" in capsys.readouterr().err


class TestFileErrors:
    # an unreadable scenario or an unwritable output is reported with its
    # exit code; an OSError raised inside the work is a fault and propagates

    @pytest.mark.parametrize(
        "argv, work",
        [
            (["validate", "table2"], "check_run_size"),
            (["run", "table2"], "run_experiment"),
            (["trace", "table2", "--scheduler", "tsgs", "--seed", "1"], "simulate"),
        ],
    )
    def test_timeout_inside_the_work_propagates(self, monkeypatch, capsys, argv, work):
        def expire(*args, **kwargs):
            raise TimeoutError("still running after 1 s")

        monkeypatch.setattr(cli, work, expire)
        with pytest.raises(TimeoutError):
            main(argv)
        assert capsys.readouterr() == ("", "")

    def test_unwritable_out_is_exit_2(self, small_scn, tmp_path, capsys):
        # a directory cannot be opened for writing, whoever runs the test
        assert main(["run", small_scn, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
        )

    def test_missing_out_directory_is_exit_1(self, small_scn, tmp_path, capsys):
        out = tmp_path / "no" / "out.csv"
        assert main(["run", small_scn, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        )

    def test_unreadable_scenario_is_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
        )

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_broken_pipe_on_stdout_is_exit_2(
        self, small_scn, monkeypatch, capsys, verb
    ):
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main([verb, small_scn]) == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


class TestSweep:
    def test_cli_grid_overrides(self, small_scn, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", small_scn, "--start", "162us", "--stop", "486us",
             "--step", "162", "--out", str(out)]
        )
        assert code == 0
        windows = {
            line.split(",")[0] for line in out.read_text().splitlines()[1:]
        }
        assert windows == {"162", "324", "486"}

    def test_unbounded_sweep_refused_before_any_work(self, monkeypatch, capsys):
        # validate counts these 10**12 + 1 points; running them would hold
        # 2 x 21 rows per point until memory runs out
        monkeypatch.setattr(experiment, "rescale_requests", no_work)
        monkeypatch.setattr(experiment, "simulate", no_work)
        argv = ["sweep", "table2", "--start", "0us", "--stop", "1000000000000us",
                "--step", "1us"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: run too large: 42000000000042 rows and 4000000000004000 "
            "simulated packets exceed the caps of 1000000 rows and "
            "1000000000 packets\n"
        )

    def test_exhaustive_cap_of_the_last_window_refused_before_any_work(
        self, tmp_path, monkeypatch, capsys
    ):
        # three 1us-step grids: 201**3 assignments at window 200us fit
        # the cap, 301**3 at the last window, 300us, do not
        scn = tmp_path / "three.scn"
        scn.write_text(
            "format txsched/1\n"
            + "".join(
                f"connection {i} deadline 10us packets 1 airtime 10us\n"
                for i in range(3)
            )
            + "scheduler step 1us\nschedulers exhaustive tsgs\nseeds 1\n"
        )
        for name in ("tsgs", "exhaustive", "random"):
            monkeypatch.setattr(experiment, f"{name}_schedule", no_work)
        monkeypatch.setattr(experiment, "simulate", no_work)
        argv = ["sweep", str(scn), "--start", "0us", "--stop", "300us",
                "--step", "100us"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 27270901 grid assignments exceed the enumeration cap of "
            "10000000\n"
        )

    def test_invalid_grid(self, small_scn, capsys):
        code = main(
            ["sweep", small_scn, "--start", "500", "--stop", "100", "--step", "50"]
        )
        assert code == 1
        assert "invalid sweep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value", [("--start", "3_280us"), ("--step", "\u0663")]
    )
    def test_lenient_integers_are_usage_errors(self, option, value, capsys):
        # int() alone reads '3_280us' as 3280 and '\u0663' as 3
        argv = {"--start": "3280", "--stop": "3280", "--step": "1"}
        argv[option] = value
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "table2"] + [t for kv in argv.items() for t in kv])
        assert exc.value.code == 2
        assert f"not a microsecond value: {value!r}" in capsys.readouterr().err


class TestTrace:
    def test_writes_phase_transitions(self, small_scn, tmp_path):
        out = tmp_path / "trace.txt"
        code = main(
            ["trace", small_scn, "--scheduler", "tsgs", "--seed", "7",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "0 c0 idle-until-start->sensing"
        assert any("->done" in line for line in lines)

    def test_window_option_rescales(self, small_scn, capsys):
        assert main(
            ["trace", small_scn, "--scheduler", "random", "--seed", "3",
             "--window", "810us"]
        ) == 0
        assert "->" in capsys.readouterr().out

    def test_negative_window_names_the_window(self, small_scn, capsys):
        code = main(
            ["trace", small_scn, "--scheduler", "tsgs", "--seed", "7",
             "--window", "-5"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: window must be >= 0, got -5\n"

    @pytest.mark.parametrize("seed", ["1_0", "\u0663"])
    def test_lenient_seed_is_usage_error(self, small_scn, seed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", small_scn, "--scheduler", "tsgs", "--seed", seed])
        assert exc.value.code == 2
        assert f"not an integer: {seed!r}" in capsys.readouterr().err


class TestResolution:
    def test_path_wins_over_bundled(self, small_scn):
        assert str(resolve_scenario(small_scn)) == small_scn

    def test_unknown_name(self):
        with pytest.raises(FileNotFoundError):
            resolve_scenario("does-not-exist")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "txsched", "validate", "table2"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("ok:")

    def test_cli_import_loads_neither_statistics_nor_json(self):
        added = modules_added_by("import txsched.cli")
        assert "txsched.cli" in added
        assert not added & {"statistics", "json"}

    def test_cli_import_loads_no_dataclasses_or_inspect(self):
        added = modules_added_by("import txsched.cli")
        assert "txsched.cli" in added
        assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_import_adds_only_stdlib_modules():
    # the package declares no runtime dependencies
    added = modules_added_by("import txsched")
    assert "txsched" in added
    allowed = sys.stdlib_module_names | {"txsched"}
    assert not {name for name in added if name.split(".")[0] not in allowed}


def test_package_exports():
    assert txsched.__all__ == [
        "ChannelConfig", "ComparisonSummary", "ConnectionStats",
        "InadmissibleRequestError", "InstanceTooLargeError",
        "MissingSchedulerError", "ScenarioError", "ScenarioSpec", "Schedule",
        "ScheduleResult", "SchedulerConfig", "SchedulerSummary", "SimReport",
        "SweepRow", "SweepTable", "TimePoint", "TimeSpan", "TransmissionRequest",
        "WindowSweep", "compute_duration", "exhaustive_schedule", "feasible",
        "format_summary", "load_scenario", "parse_scenario", "random_schedule",
        "read_table", "render", "report_comparison", "rescale_requests",
        "run_experiment", "run_scheduler", "simulate", "total_cost",
        "tsgs_schedule", "window",
    ]
    assert txsched.__all__ == sorted(txsched.__all__)
    for name in txsched.__all__:
        getattr(txsched, name)
    for name in ("pdr", "emit", "candidate_grid", "collision_summary"):
        assert name not in txsched.__all__
        assert not hasattr(txsched, name)


def modules_added_by(statement):
    """Modules a child interpreter holds after `statement` but not before;
    taken against a bare interpreter, as site's .pth files differ by host."""
    show = "import sys; print(' '.join(sys.modules))"

    def modules(code):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=child_env(),
            check=True,
        )
        return set(proc.stdout.split())

    return modules(f"{statement}; {show}") - modules(show)
