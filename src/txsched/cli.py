"""Command-line interface.

Verbs:

* ``validate <scenario>`` - parse and check a scenario, report ok/errors.
* ``run <scenario>`` - execute the scenario as written (including its
  sweep, if any) and emit the result table.
* ``sweep <scenario> --start --stop --step`` - execute with a window
  sweep given on the command line, overriding the scenario's own.
* ``trace <scenario> --scheduler NAME --seed N [--window US]`` - emit the
  channel event trace for one run.

Scenario arguments name either a file path or a bundled scenario (e.g.
``table2``). Exit codes: 0 success, 1 scenario validation error, 2
runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiment import (
    _require_comparison,
    check_run_size,
    format_summary,
    render,
    report_comparison,
    rescale_requests,
    run_experiment,
    run_scheduler,
)
from .scenario import (
    SCHEDULER_NAMES,
    ScenarioError,
    ScenarioSpec,
    WindowSweep,
    _is_integer,
    load_scenario,
)
from .simulator import simulate


def resolve_scenario(name: str) -> Path:
    """Resolve a CLI scenario argument to a readable file path.

    An existing path wins; otherwise the name (with or without the
    ``.scn`` extension) is looked up among the bundled scenarios.
    """
    path = Path(name)
    if path.exists():
        return path
    stem = name if name.endswith(".scn") else f"{name}.scn"
    # the scenarios ship as files beside this module; importlib.resources
    # would find the same files, but imports inspect and typing on 3.12+
    bundled = Path(__file__).with_name("scenarios") / stem
    if bundled.is_file():
        return bundled
    raise FileNotFoundError(
        f"no such scenario file or bundled scenario: {name!r}"
    )


def _parse_cli_us(value: str) -> int:
    # the CLI accepts both '3280us' and bare microsecond integers
    text = value[:-2] if value.endswith("us") else value
    if not _is_integer(text):
        raise argparse.ArgumentTypeError(f"not a microsecond value: {value!r}")
    return int(text)


def _parse_cli_int(value: str) -> int:
    if not _is_integer(value):
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="txsched",
        description=(
            "Overlap-minimizing transmission scheduling over a shared "
            "broadcast channel, with a deterministic channel simulator."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="parse and validate a scenario")
    p.add_argument("scenario")

    for verb, doc in (
        ("run", "execute a scenario and emit the result table"),
        ("sweep", "execute with a window sweep from the command line"),
    ):
        p = sub.add_parser(verb, help=doc)
        p.add_argument("scenario")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv",
            help="table format (default: csv)",
        )
        p.add_argument(
            "--summary", action="store_true",
            help="also print per-scheduler means and the PDR gap",
        )
        if verb == "sweep":
            p.add_argument("--start", type=_parse_cli_us, required=True)
            p.add_argument("--stop", type=_parse_cli_us, required=True)
            p.add_argument("--step", type=_parse_cli_us, required=True)

    p = sub.add_parser("trace", help="emit the event trace of one run")
    p.add_argument("scenario")
    p.add_argument("--scheduler", choices=SCHEDULER_NAMES, required=True)
    p.add_argument("--seed", type=_parse_cli_int, required=True)
    p.add_argument(
        "--window", type=_parse_cli_us, default=None,
        help="rescale all windows to this size (default: native deadlines)",
    )
    p.add_argument("--out", help="trace file (default: stdout)")
    return parser


def _cmd_validate(args) -> int:
    spec = load_scenario(resolve_scenario(args.scenario))
    check_run_size(spec)  # a scenario that validates also runs
    print(
        f"ok: {len(spec.requests)} connections, "
        f"{len(spec.schedulers)} schedulers, {len(spec.seeds)} seeds"
        + ("" if spec.sweep is None else f", {spec.sweep.count()} sweep points")
    )
    return 0


def _cmd_run(args, spec: ScenarioSpec) -> int:
    if args.summary:
        # fail before the work, and before any table is written
        _require_comparison(spec.schedulers)
    table = run_experiment(spec)
    if args.out:
        Path(args.out).write_text(render(table, args.format), encoding="utf-8")
        summary_to = sys.stdout
    else:
        sys.stdout.write(render(table, args.format))
        # keep stdout one parseable table
        summary_to = sys.stderr
    if args.summary:
        summary_to.write(format_summary(report_comparison(table)))
    return 0


def _cmd_trace(args, spec: ScenarioSpec) -> int:
    requests = spec.requests
    if args.window is not None:
        requests = rescale_requests(requests, args.window, spec.scheduler_config)
    result = run_scheduler(
        args.scheduler, requests, spec.scheduler_config, args.seed
    )
    trace: list[str] = []
    simulate(requests, result.schedule, spec.channel, args.seed, trace=trace)
    text = "\n".join(trace) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "validate":
            return _cmd_validate(args)
        spec = load_scenario(resolve_scenario(args.scenario))
        if args.verb == "sweep":
            try:
                sweep = WindowSweep(args.start, args.stop, args.step)
            except ValueError as exc:
                print(f"error: invalid sweep: {exc}", file=sys.stderr)
                return 1
            spec = spec.replace(sweep=sweep)
        if args.verb in ("run", "sweep"):
            return _cmd_run(args, spec)
        return _cmd_trace(args, spec)
    except (ScenarioError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
