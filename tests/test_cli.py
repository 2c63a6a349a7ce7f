import json
import os
import subprocess
import sys

import pytest

import txsched
from txsched import read_table
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

    def test_invalid_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("format txsched/1\nschedulers psychic\n")
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "bad.scn:2:" in err


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
