#!/usr/bin/env python3
"""txsched benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload table2 --seed 7 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
and run as ``python -m txsched`` with ``PYTHONPATH=src``, so nothing needs
installing. Work files and a results file go to ``.perfbench/`` in the
checkout.

A run sets up first: it writes the workload's scenario file, times
``txsched validate`` as a child process (``setup_s``), executes the
scenario once in process as the reference output and executes the default
seed's scenario against its pinned digests. It then measures
closed-loop and serially, one operation at a time, for ``--seconds``,
repeating one round:

* ``--trace 0``: one in-process execution (``load_scenario`` ->
  ``run_experiment`` -> ``render(..., "csv")``), one ``txsched run``
  child process and one ``txsched validate`` child process. Prints the
  end-to-end metrics.
* ``--trace 1``: the same with one traced execution (see ``tracing.py``)
  after the untraced one. Prints the per-layer metrics.

Passes of the fixed calibration loop in ``calibrate.py`` bracket every
timed operation, in process around executions and in a child process
around child processes; the gated timings are medians of each sample in
units of the mean of its two bracketing passes.

Every operation is checked, and an operation that raises, exits non-zero,
breaks an invariant or produces other bytes than the reference counts as
failed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"

DEFAULT_SEED = 7
# Not used while the benchmark was written: check later claims on it too.
HELD_OUT_SEED = 1009
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10


def import_txsched():
    package = SRC / "txsched"
    if not (package / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no package sources at {package}; run from the root "
            "of a txsched checkout"
        )
    sys.path.insert(0, str(SRC))
    import txsched

    if Path(txsched.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported txsched from {txsched.__file__}, not {package}")
    return txsched


def sha256(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def git_commit() -> str | None:
    """HEAD's commit when the checkout is a git work tree, else None."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                self.failures.append(f"{what}: {problem}")
                print(f"FAIL {what}: {problem}", file=sys.stderr)
        return not problems


# -- child processes ---------------------------------------------------


class _ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _ChildTimeout


# A `run` child reports its own peak RSS: Linux carries the parent's peak
# into a forked child's ru_maxrss across exec, so wait4 would report this
# larger benchmark process. VmHWM covers only the memory of the process
# after exec. The module runs as `python -m txsched` would run it.
_RUN_REPORTING_PEAK = """\
import runpy, sys
peak_file = sys.argv.pop(1)
try:
    runpy.run_module("txsched", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        peak_kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(peak_file, "w") as out:
        out.write(peak_kib)
"""


def timed_child(command: list[str], out, err, env=None) -> tuple[float, int]:
    """Run `command` from the checkout's root; wall seconds and exit code,
    -1 when it was killed after CHILD_TIMEOUT_S. Waits for the child in
    every case."""
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=out, stderr=err, env=env, cwd=ROOT)
    # a blocking wait ends the moment the child does, unlike the polling
    # Popen.wait(timeout); the alarm bounds it
    status = None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        _, status = os.waitpid(proc.pid, 0)
    except _ChildTimeout:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    if status is None:
        proc.kill()
        proc.wait()
        return wall, -1
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode


def run_child(args: list[str], report_peak: bool = False) -> tuple[float, float, int, str]:
    """Run ``python -m txsched ARGS``; wall seconds, peak RSS in MiB (0
    unless `report_peak`), exit code and standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_path, peak_path = WORK / "child.out", WORK / "child.peak"
    peak_path.unlink(missing_ok=True)
    command = ([sys.executable, "-c", _RUN_REPORTING_PEAK, str(peak_path)] if report_peak
               else [sys.executable, "-m", "txsched"])
    with open(out_path, "wb") as out, open(WORK / "child.err", "wb") as err:
        wall, code = timed_child([*command, *args], out, err, env)
    if code == -1:
        return wall, 0.0, -1, ""
    peak_mib = int(peak_path.read_text()) / 1024 if report_peak and peak_path.exists() else 0.0
    return wall, peak_mib, code, out_path.read_text(encoding="utf-8")


def calibration_child() -> float:
    """Wall seconds of a fresh interpreter that runs one calibration pass."""
    wall, code = timed_child([sys.executable, str(CALIBRATE)],
                             subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise SystemExit(f"perfbench: the calibration child exited {code}; no result")
    return wall


# -- executions and their checks ---------------------------------------


def execute(txs, scenario: Path):
    """One in-process execution; (seconds, csv text, spec, table)."""
    start = time.perf_counter()
    spec = txs.load_scenario(scenario)
    table = txs.run_experiment(spec)
    text = txs.render(table, "csv")
    return time.perf_counter() - start, text, spec, table


def execute_traced(txs, scenario: Path):
    """One execution with every layer boundary traced; (seconds, csv
    text, spec, table, tracer)."""
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        start = time.perf_counter()
        with tracer.span("scenario.load"):
            spec = txs.load_scenario(scenario)
        with tracer.span("experiment.run"):
            table = txs.run_experiment(spec)
        with tracer.span("experiment.render"):
            text = txs.render(table, "csv")
        seconds = time.perf_counter() - start
    return seconds, text, spec, table, tracer


def windows(spec) -> list[int]:
    return spec.sweep.points() if spec.sweep is not None else [-1]


def check_table(spec, table) -> list[str]:
    """Invariants readable from the result table alone."""
    problems = []
    expected_rows = len(windows(spec)) * len(spec.schedulers) * (len(spec.seeds) + 1)
    if len(table.rows) != expected_rows:
        problems.append(f"{len(table.rows)} rows, expected {expected_rows}")
    offered = [req.packet_count for req in spec.requests]
    for row in table.seed_rows():
        if any(r + c > p for r, c, p in zip(row.received, row.collisions, offered)):
            problems.append(f"row {row.window_us}/{row.scheduler}/{row.seed}: "
                            "received + collided exceeds packets sent")
        if abs(row.pdr - sum(row.received) / sum(offered)) > 1e-12:
            problems.append(f"row {row.window_us}/{row.scheduler}/{row.seed}: "
                            "pdr is not received / packets sent")
    costs = {(r.window_us, r.scheduler): r.cost_us for r in table.seed_rows()}
    if "exhaustive" in spec.schedulers and "tsgs" in spec.schedulers:
        for w in windows(spec):
            if costs[(w, "exhaustive")] > costs[(w, "tsgs")]:
                problems.append(f"window {w}: exhaustive cost {costs[(w, 'exhaustive')]} "
                                f"exceeds tsgs cost {costs[(w, 'tsgs')]}")
    return problems


def check_instrumented_calls(spec, tracer) -> list[str]:
    """The traced boundaries must have seen every call the table implies,
    or the per-layer figures would silently read zero."""
    n_windows, n_seeds = len(windows(spec)), len(spec.seeds)
    expected = {"simulator.simulate": n_windows * len(spec.schedulers) * n_seeds}
    for name in spec.schedulers:
        expected[f"schedulers.{name}"] = n_windows * (n_seeds if name == "random" else 1)
    return [
        f"{span} traced {tracer.calls(span)} calls, expected {calls}"
        for span, calls in expected.items() if tracer.calls(span) != calls
    ]


def oracle_gap_us(spec, table) -> float:
    """Mean over windows of tsgs cost minus exhaustive cost; 0 when the
    workload runs no exhaustive search."""
    if "exhaustive" not in spec.schedulers:
        return 0.0
    costs = {(r.window_us, r.scheduler): r.cost_us for r in table.seed_rows()}
    return statistics.fmean(
        costs[(w, "tsgs")] - costs[(w, "exhaustive")] for w in windows(spec)
    )


LAYER_UNITS = {
    "scenario.load_s": "s",
    "schedulers.tsgs_s": "s",
    "schedulers.tsgs_calls": "count",
    "schedulers.tsgs_evals": "count",
    "schedulers.tsgs_ns_per_eval": "ns",
    "schedulers.exhaustive_s": "s",
    "schedulers.exhaustive_assignments": "count",
    "schedulers.exhaustive_ns_per_assignment": "ns",
    "schedulers.random_s": "s",
    "schedulers.oracle_gap_us": "us",
    "core.total_cost_s": "s",
    "core.total_cost_calls": "count",
    "simulator.simulate_s": "s",
    "simulator.calls": "count",
    "simulator.packets": "count",
    "simulator.pkts_per_s": "1/s",
    "simulator.us_per_packet": "us",
    "simulator.backoff_activations": "count",
    "simulator.collided": "count",
    "simulator.delivery_ratio": "ratio",
    "experiment.run_self_s": "s",
    "experiment.render_s": "s",
    "experiment.rows": "count",
    "experiment.pdr_gap": "ratio",
    "cli.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_figures(txs, tracer, spec, table) -> tuple[dict, dict]:
    """(times, counts) of one traced execution. Counts must repeat
    exactly from execution to execution; times are summarised by median."""
    t = tracer
    counts = {
        "schedulers.tsgs_calls": t.calls("schedulers.tsgs"),
        "schedulers.tsgs_evals": t.counts.get("schedulers.tsgs.evaluations", 0),
        "schedulers.exhaustive_assignments": t.counts.get("schedulers.exhaustive.evaluations", 0),
        "core.total_cost_calls": t.calls("core.total_cost"),
        "simulator.calls": t.calls("simulator.simulate"),
        "simulator.packets": t.counts.get("simulator.packets", 0),
        "simulator.backoff_activations": t.counts.get("simulator.backoff_activations", 0),
        "simulator.collided": t.counts.get("simulator.collided", 0),
        "experiment.rows": len(table.rows),
    }
    packets = counts["simulator.packets"]
    counts["simulator.delivery_ratio"] = t.counts.get("simulator.received", 0) / packets
    counts["experiment.pdr_gap"] = txs.report_comparison(table).pdr_gap
    counts["schedulers.oracle_gap_us"] = oracle_gap_us(spec, table)

    def per(seconds: float, count: int, scale: float) -> float:
        return seconds * scale / count if count else 0.0

    sim_s = t.seconds("simulator.simulate")
    # exhaustive's traced span would also time ~40 k nested total_cost spans
    exhaustive_s = tracing.untraced_seconds(t, "schedulers.exhaustive")
    times = {
        "scenario.load_s": t.seconds("scenario.load"),
        "schedulers.tsgs_s": t.seconds("schedulers.tsgs"),
        "schedulers.tsgs_ns_per_eval": per(
            t.seconds("schedulers.tsgs"), counts["schedulers.tsgs_evals"], 1e9),
        "schedulers.exhaustive_s": exhaustive_s,
        "schedulers.exhaustive_ns_per_assignment": per(
            exhaustive_s, counts["schedulers.exhaustive_assignments"], 1e9),
        "schedulers.random_s": t.seconds("schedulers.random"),
        "core.total_cost_s": t.seconds("core.total_cost"),
        "simulator.simulate_s": sim_s,
        "simulator.pkts_per_s": packets / sim_s,
        "simulator.us_per_packet": per(sim_s, packets, 1e6),
        "experiment.run_self_s": t.self_seconds("experiment.run"),
        "experiment.render_s": t.seconds("experiment.render"),
    }
    return times, counts


# -- summaries ---------------------------------------------------------


def summary(samples: list[float]) -> dict:
    """Median, sample count, the highest percentile that still has
    TAIL_BEYOND samples above it (None when there are too few), and the
    samples in the order they were taken."""
    ordered = sorted(samples)
    n = len(ordered)
    result = {"p50": statistics.median(ordered), "samples": n,
              "tail_percentile": None, "tail_value": None, "values": samples}
    if n > TAIL_BEYOND:
        rank = n - TAIL_BEYOND  # 1-based order statistic
        result["tail_percentile"] = 100 * rank // n
        result["tail_value"] = ordered[rank - 1]
    return result


def pinned_digests(workload: str, seed: int) -> dict:
    table = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})
    return dict(table.get("*") or table.get(str(seed)) or {})


def execute_default_seed(txs, workload: str):
    """Execute the default seed's scenario and compare both digests with
    their pins; (problems, table, or None if it raised)."""
    pinned = pinned_digests(workload, DEFAULT_SEED)
    text = workloads.scenario_text(workload, DEFAULT_SEED, SRC)
    try:
        table = txs.run_experiment(txs.parse_scenario(text))
        csv = txs.render(table, "csv")
    except Exception:
        return [traceback.format_exc()], None
    return [
        f"seed {DEFAULT_SEED} {key} {actual} differs from the pinned {pinned.get(key)}"
        for key, actual in (("scenario_sha256", sha256(text)), ("csv_sha256", sha256(csv)))
        if pinned.get(key) != actual
    ], table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    txs = import_txsched()
    WORK.mkdir(exist_ok=True)
    ledger = Ledger()

    # -- set-up: scenario, validate, reference execution
    text = workloads.scenario_text(args.workload, args.seed, SRC)
    scenario = WORK / f"{args.workload}-{args.seed}.scn"
    scenario.write_text(text, encoding="utf-8")
    scenario_sha = sha256(text)
    pinned = pinned_digests(args.workload, args.seed)

    # Calibration passes bracket every timed operation: in-process passes
    # the executions, calibration children the child processes (see
    # calibrate.py). Each sample is also expressed in units of the mean of
    # the two passes around it.
    passes: list[float] = []
    children: list[float] = []

    def pass_in_process() -> float:
        passes.append(calibrate.calibrate())
        return passes[-1]

    def pass_in_child() -> float:
        children.append(calibration_child())
        return children[-1]

    setup: list[float] = []
    setup_cal: list[float] = []

    def validate(opened: float) -> float:
        """Time one validate child after the pass `opened`; the closing pass."""
        wall, _, code, out = run_child(["validate", str(scenario)])
        closed = pass_in_child()
        if ledger.record("validate", [] if code == 0 and out.startswith("ok:")
                         else [f"exit {code}, output {out!r}"]):
            setup.append(wall)
            setup_cal.append(wall / ((opened + closed) / 2))
        return closed

    opened = pass_in_child()
    for _ in range(SETUP_REPEATS):
        opened = validate(opened)

    try:
        _, reference, spec, table = execute(txs, scenario)
    except Exception:
        ledger.record("reference execution", [traceback.format_exc()])
        raise SystemExit("perfbench: the reference execution failed; no result")
    problems = check_table(spec, table)
    for key, actual in (("scenario_sha256", scenario_sha), ("csv_sha256", sha256(reference))):
        if key in pinned and pinned[key] != actual:
            problems.append(f"{key} {actual} differs from the pinned {pinned[key]}")
    ledger.record("reference execution", problems)
    # Every run also executes the default seed's scenario against its pins,
    # so that a run at an unpinned seed notices a change in what is
    # simulated too. The gated pdr_tsgs is read from it: the delivery ratio
    # differs from seed to seed by more than a model change must be
    # allowed to move it.
    if text == workloads.scenario_text(args.workload, DEFAULT_SEED, SRC):
        default_table = table
    else:
        problems, default_table = execute_default_seed(txs, args.workload)
        ledger.record("default-seed execution", problems)
        if default_table is None:
            raise SystemExit("perfbench: the default-seed execution failed; no result")
    out_csv = WORK / f"{args.workload}-{args.seed}.csv"

    # -- measurement
    in_process, in_process_cal, untraced, cli, cli_cal, rss = [], [], [], [], [], []
    traced_seconds, layer_times, layer_counts, last_tracer = [], [], [], None

    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        ok = False
        opened = pass_in_process()
        try:
            seconds, text_out, _, _ = execute(txs, scenario)
            ok = ledger.record("execution", [] if text_out == reference
                               else ["csv differs from the reference execution"])
        except Exception:
            ledger.record("execution", [traceback.format_exc()])
        bracket = (opened + pass_in_process()) / 2
        if ok:
            (untraced if args.trace else in_process).append(seconds)
            in_process_cal.append(seconds / bracket)

        if args.trace:
            try:
                seconds, text_out, t_spec, t_table, tracer = execute_traced(txs, scenario)
                problems = list(tracer.failures) + check_instrumented_calls(t_spec, tracer)
                if text_out != reference:
                    problems.append("traced csv differs from the untraced reference")
                times, counts = layer_figures(txs, tracer, t_spec, t_table)
                if layer_counts and counts != layer_counts[0]:
                    problems.append(f"counts {counts} differ from the first traced "
                                    f"execution's {layer_counts[0]}")
                if ledger.record("traced execution", problems):
                    traced_seconds.append(seconds)
                    layer_times.append(times)
                    layer_counts.append(counts)
                    last_tracer = tracer
            except Exception:
                ledger.record("traced execution", [traceback.format_exc()])

        out_csv.unlink(missing_ok=True)
        opened = pass_in_child()
        wall, peak_mib, code, _ = run_child(["run", str(scenario), "--out", str(out_csv)],
                                            report_peak=True)
        closed = pass_in_child()
        bracket = (opened + closed) / 2
        problems = [] if code == 0 and peak_mib > 0 else [f"exit {code}, peak RSS {peak_mib} MiB"]
        if code == 0 and sha256(out_csv.read_bytes()) != sha256(reference):
            problems.append("csv differs from the in-process reference")
        if ledger.record("cli run", problems):
            cli.append(wall)
            cli_cal.append(wall / bracket)
            rss.append(peak_mib)
        validate(closed)

    # -- figures: name -> (value, unit)
    samples = {"scenario_s": untraced if args.trace else in_process, "cli_s": cli,
               "setup_s": setup, "peak_rss_mib": rss, "calibration_s": passes,
               "calibration_child_s": children, "scenario_cal": in_process_cal,
               "cli_cal": cli_cal, "setup_cal": setup_cal}
    if args.trace:
        samples["traced_s"] = traced_seconds
    if not all(samples.values()):
        raise SystemExit("perfbench: an operation kind had no successful sample; no result")
    distributions = {name: summary(values) for name, values in samples.items()}
    comparison = txs.report_comparison(table)
    failed_ratio = ledger.failed / ledger.attempted
    median = statistics.median
    if args.trace:
        figures = {name: (median(t[name] for t in layer_times), LAYER_UNITS[name])
                   for name in layer_times[0]}
        figures.update((name, (value, LAYER_UNITS[name]))
                       for name, value in layer_counts[0].items())
        figures["cli.overhead_s"] = (median(cli) - median(untraced), "s")
        figures["trace.overhead_ratio"] = (median(traced_seconds) / median(untraced), "ratio")
    else:
        # The gate reads calibrated timings: host load moved the per-run
        # median seconds by up to a third between runs (see calibrate.py).
        # setup_s is the calibrated median in seconds at the reference speed.
        figures = {
            "scenario_cal_p50": (median(in_process_cal), "cal"),
            "cli_cal_p50": (median(cli_cal), "calchild"),
            "setup_s": (median(setup_cal) * calibrate.REFERENCE_CHILD_S, "s"),
            "peak_rss_mib": (median(rss), "MiB"),
            "pdr_tsgs": (
                txs.report_comparison(default_table).per_scheduler["tsgs"].mean_pdr, "ratio"),
        }

    # Printed and recorded, not gated: seconds (see above), this seed's
    # tsgs PDR and the two gaps, which change from seed to seed (the gaps
    # in sign too), and failed_ratio, which is normally 0 and reaches the
    # gate as `attempted`/`failed`.
    report = dict(figures)
    report["failed_ratio"] = (failed_ratio, "ratio")
    if not args.trace:
        report["scenario_s_p50"] = (median(in_process), "s")
        report["cli_s_p50"] = (median(cli), "s")
        report["setup_wall_s_p50"] = (median(setup), "s")
        report["calibration_s_p50"] = (median(passes), "s")
        report["calibration_child_s_p50"] = (median(children), "s")
        report["pdr_tsgs_seed"] = (comparison.per_scheduler["tsgs"].mean_pdr, "ratio")
        report["pdr_gap"] = (comparison.pdr_gap, "ratio")
        if "exhaustive" in spec.schedulers:
            report["oracle_gap_us"] = (oracle_gap_us(spec, table), "us")
    for name, (value, unit) in report.items():
        print(f"{args.workload:<10} {name:<40} {value:>14.6g} {unit}")
    for name, d in distributions.items():
        tail = ("" if d["tail_percentile"] is None
                else f" p{d['tail_percentile']}={d['tail_value']:.6g}")
        print(f"{args.workload:<10} samples {name:<32} n={d['samples']} "
              f"min={min(d['values']):.6g} p50={d['p50']:.6g}{tail}")

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "scenario_sha256": scenario_sha,
        "csv_sha256": sha256(reference),
        "pinned": pinned,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_ratio": failed_ratio,
        "failures": ledger.failures,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in report.items()},
        "distributions": distributions,
    }
    if last_tracer is not None:
        results["span_totals"] = {
            name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
            for name, (c, t, s) in last_tracer.totals.items()
        }
        results["spans"] = last_tracer.spans
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in figures.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
