"""Experiment orchestration: sweeps, seed batches, and table emission.

`run_experiment` executes a scenario into a flat result table with one
row per (window size, scheduler, seed), plus one aggregate row per
(window size, scheduler) averaging over seeds, flagged by the literal
seed value ``mean``. Rows are ordered by window size, then scheduler
name, then seed, so output is reproducible byte for byte.

Window sweeps rescale every connection's deadline so its start-time
window equals the sweep value; packet counts and airtimes stay fixed.
Rows from a scenario without a sweep carry ``window_us`` of -1, meaning
the scenario's own deadlines were used unchanged.
"""

from __future__ import annotations

import math
from pathlib import Path

from .core import (
    TransmissionRequest, _check_bound, _check_int, _check_requests, _check_type,
    _Record, compute_duration,
)
from .scenario import ScenarioError, ScenarioSpec
from .schedulers import (
    ScheduleResult,
    SchedulerConfig,
    _assignments,
    _tsgs_pairs,
    candidate_grid,
    exhaustive_schedule,
    random_schedule,
    tsgs_schedule,
)
from .simulator import _kept, simulate

NATIVE_WINDOW = -1

TABLE_FORMAT_TAG = "txsched-table/1"

# run_experiment refuses a scenario above either cap before any work: it
# holds every row until it returns, and it simulates every packet. table2
# makes 420 rows and simulates 40,000 packets.
MAX_ROWS = 1_000_000
MAX_PACKETS = 1_000_000_000
# tsgs's work grows with the pairs of connections it places against each
# other, summed over the windows. In process on a 2 vCPU host with Python
# 3.11, the costliest family found (one-packet trains of 1 to 30 ms on
# 28,572-point grids) took 1.8-2.4 us per pair at N = 1,000 to 4,000, so
# the cap, 6,325 connections in one window, stands for 35-50 s there; 81 us
# trains on 20-point grids take 20 ns per pair, 0.4 s at the cap.
MAX_TSGS_PAIRS = 20_000_000


class MissingSchedulerError(ValueError):
    """The comparison needs at least two schedulers' rows."""


class SweepRow(_Record):
    """One experiment outcome.

    Per-seed rows hold integer counts; aggregate rows (``seed == "mean"``)
    hold per-seed means and may be fractional. ``collisions`` and
    ``received`` are per connection, in scenario order.
    """

    window_us: int
    scheduler: str
    seed: int | str
    pdr: float
    cost_us: int | float
    candidate_evals: int | float
    collisions: tuple[int | float, ...]
    received: tuple[int | float, ...]
    mean_delay_us: float


class SweepTable(_Record):
    """All rows of one experiment, plus the connection count for layout."""

    connections: int
    rows: tuple[SweepRow, ...]

    def seed_rows(self) -> tuple[SweepRow, ...]:
        return tuple(r for r in self.rows if r.seed != "mean")


def rescale_requests(
    requests: tuple[TransmissionRequest, ...],
    window_us: int,
    config: SchedulerConfig,
) -> tuple[TransmissionRequest, ...]:
    """Copies whose deadlines give every connection exactly this window.

    Raises:
        ValueError: the window is not an int or is negative, a request is
            not a `TransmissionRequest`, or ``config`` is not a
            `SchedulerConfig`.
    """
    _check_int("window", window_us)
    _check_bound("window", window_us, ">=", 0)
    _check_requests(requests)
    _check_type("config", config, SchedulerConfig)
    return tuple(
        req.replace(deadline=window_us + compute_duration(req) + config.margin)
        for req in requests
    )


def run_scheduler(
    name: str,
    requests: list[TransmissionRequest] | tuple,
    config: SchedulerConfig,
    seed: int,
    *,
    memo: dict | None = None,
) -> ScheduleResult:
    """Dispatch one named strategy; `seed` and `memo` only matter for
    'random' (see `random_schedule`)."""
    if name == "tsgs":
        return tsgs_schedule(requests, config)
    if name == "exhaustive":
        return exhaustive_schedule(requests, config)
    if name == "random":
        return random_schedule(requests, config, seed, memo=memo)
    raise ValueError(f"unknown scheduler {name!r}")


def check_run_size(spec: ScenarioSpec) -> tuple[int, int]:
    """The rows and simulated packets ``run_experiment`` would make.

    Rows are points x schedulers x (seeds + 1) and packets are points x
    schedulers x seeds x the packets of all connections, counted by
    arithmetic however long the sweep.

    Raises:
        ScenarioError: the rows exceed ``MAX_ROWS`` or the packets
            ``MAX_PACKETS``, and the message names both counts; or tsgs
            is listed and its pairs of connections, summed over the
            windows, exceed ``MAX_TSGS_PAIRS``, and the message names
            that count.
        InstanceTooLargeError: exhaustive's cap refuses the widest window.
    """
    points = 1 if spec.sweep is None else spec.sweep.count()
    groups = points * len(spec.schedulers)
    rows = groups * (len(spec.seeds) + 1)
    packets = groups * len(spec.seeds) * sum(req.packet_count for req in spec.requests)
    if rows > MAX_ROWS or packets > MAX_PACKETS:
        raise ScenarioError(
            f"run too large: {rows} rows and {packets} simulated packets "
            f"exceed the caps of {MAX_ROWS} rows and {MAX_PACKETS} packets"
        )
    pairs = points * _tsgs_pairs(spec.requests)
    if "tsgs" in spec.schedulers and pairs > MAX_TSGS_PAIRS:
        raise ScenarioError(
            f"run too large: tsgs would place {pairs} pairs of connections, "
            f"above the cap of {MAX_TSGS_PAIRS} pairs"
        )
    if "exhaustive" in spec.schedulers:
        # every grid grows with the window, so the widest has the most
        requests = spec.requests if spec.sweep is None else rescale_requests(
            spec.requests, spec.sweep.points()[-1], spec.scheduler_config
        )
        _assignments([candidate_grid(r, spec.scheduler_config) for r in requests])
    return rows, packets


def run_experiment(spec: ScenarioSpec) -> SweepTable:
    """Run every (window, scheduler, seed) combination of the scenario.

    Greedy and exhaustive schedules are computed once per window size
    (they are seed-invariant); the random baseline re-draws per seed,
    every call sharing one `random_schedule` memo for this call only, so
    each seed's generator is seeded once and every window reads the same
    fresh draws from its words. The channel simulation always varies with
    the seed. Every row calls
    `simulate`, sharing one memo for this call only: once a window is
    longer than the trains, tsgs's placement stops changing, and trains
    placed apart make the same run wherever they sit. A row whose run
    (trains, channel, seed, and the starts up to the idle gaps a shift
    cannot change; see `simulate`) an earlier row made gets that row's
    report whenever its deadlines leave the report unchanged. A row's
    PDR, collided and received counts and mean delay are built once per
    distinct report and shared by every row that gets it back.
    Deterministic: the same spec yields an identical table.

    Raises:
        ScenarioError: ``check_run_size`` refuses the scenario; nothing
            is scheduled or simulated then.
    """
    check_run_size(spec)
    points = spec.sweep.points() if spec.sweep is not None else [NATIVE_WINDOW]
    seeds = sorted(spec.seeds)
    connections = len(spec.requests)
    rows: list[SweepRow] = []
    memo: dict = {}  # simulate's, for this call only
    draws: dict = {}  # random_schedule's word streams, for this call only
    # id(report) -> (report, pdr, collided, received, mean delay); holding
    # the report keeps its id from being reused within this call. Only the
    # reports simulate's memo keeps are filed: it returns no other again.
    made: dict[int, tuple] = {}
    for window_us in points:
        if window_us == NATIVE_WINDOW:
            requests = spec.requests
        else:
            requests = rescale_requests(
                spec.requests, window_us, spec.scheduler_config
            )
        for name in sorted(spec.schedulers):
            group: list[SweepRow] = []
            for seed in seeds:
                if name == "random" or not group:
                    result = run_scheduler(
                        name, requests, spec.scheduler_config, seed, memo=draws
                    )
                report = simulate(
                    requests, result.schedule, spec.channel, seed, memo=memo
                )
                values = made.get(id(report))
                if values is None:
                    values = (report, *_report_values(report))
                    if _kept(report):
                        made[id(report)] = values
                _, pdr, collided, received, delay = values
                group.append(
                    SweepRow(
                        window_us, name, seed, pdr, result.cost,
                        result.candidate_evaluations, collided, received, delay,
                    )
                )
            rows.extend(group)
            rows.append(_aggregate(group, connections))
    return SweepTable(connections=connections, rows=tuple(rows))


def _report_values(report) -> tuple:
    """A run's PDR, collided and received tuples and mean delay."""
    received, collided = [], []
    sent = delay = 0
    for c in report.per_connection:
        received.append(c.received)
        collided.append(c.collided)
        sent += c.sent
        delay += c.delay_total_us
    return sum(received) / sent, tuple(collided), tuple(received), delay / sent


def _mean(values) -> float:
    # statistics.fmean computes exactly this on 3.10-3.13; importing
    # statistics would cost every CLI verb its import
    data = list(values)
    return math.fsum(data) / len(data)


def _aggregate(group: list[SweepRow], connections: int) -> SweepRow:
    window_us, scheduler, _, *columns = zip(*map(_row_values, group))
    return _row(
        window_us[0], scheduler[0], "mean", [_mean(c) for c in columns], connections
    )


# -- emission ----------------------------------------------------------


def _columns(connections: int) -> list[str]:
    return (
        ["window_us", "scheduler", "seed", "pdr", "cost_us", "candidate_evals"]
        + [f"collisions_c{i}" for i in range(connections)]
        + [f"received_c{i}" for i in range(connections)]
        + ["mean_delay_us"]
    )


def _row_values(row: SweepRow) -> tuple:
    return (
        row.window_us, row.scheduler, row.seed, row.pdr, row.cost_us,
        row.candidate_evals, *row.collisions, *row.received, row.mean_delay_us,
    )


def _row(window_us, scheduler, seed, values, connections: int) -> SweepRow:
    """The inverse of ``_row_values``: ``values`` are the columns after seed."""
    pdr, cost_us, candidate_evals, *counts, mean_delay_us = values
    return SweepRow(
        window_us, scheduler, seed, pdr, cost_us, candidate_evals,
        tuple(counts[:connections]), tuple(counts[connections:]), mean_delay_us,
    )


def render(table: SweepTable, format: str) -> str:
    """Serialize the table; CSV uses fixed 6-decimal fractions, JSON keeps
    full float precision so a round-trip reproduces the table exactly."""
    columns = _columns(table.connections)
    if format == "csv":
        lines = [",".join(columns)]
        lines += [
            ",".join([
                f"{v:.6f}" if isinstance(v, float) else str(v)
                for v in _row_values(row)
            ])
            for row in table.rows
        ]
        return "\n".join(lines) + "\n"
    if format == "json":
        import json

        payload = {
            "format": TABLE_FORMAT_TAG,
            "connections": table.connections,
            "rows": [dict(zip(columns, _row_values(row))) for row in table.rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {format!r}; expected 'csv' or 'json'")


def read_table(path: str | Path) -> SweepTable:
    """Load a table previously emitted as JSON."""
    import json

    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != TABLE_FORMAT_TAG:
        raise ValueError(
            f"unsupported table format {payload.get('format')!r}"
        )
    n = payload["connections"]
    columns = _columns(n)
    rows = []
    for record in payload["rows"]:
        window_us, scheduler, seed, *values = [record[c] for c in columns]
        rows.append(_row(window_us, scheduler, seed, values, n))
    return SweepTable(connections=n, rows=tuple(rows))


# -- comparison --------------------------------------------------------


class SchedulerSummary(_Record):
    """Across all seed rows of one scheduler: mean PDR, mean collided
    packets per run, and mean per-packet delay."""

    mean_pdr: float
    mean_collided: float
    mean_delay_us: float


class _FrozenDict(dict):
    """A dict that refuses every change and hashes by its items."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} does not support changes")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return type(self), (dict(self),)


class ComparisonSummary(_Record):
    """Per-scheduler means plus the headline PDR gap.

    ``pdr_gap`` is the greedy scheduler's mean PDR minus the random
    baseline's, or None when either is absent from the table.
    ``per_scheduler`` is kept as a read-only dict, so the summary hashes.
    """

    per_scheduler: dict[str, SchedulerSummary]
    pdr_gap: float | None

    def __init__(
        self, per_scheduler: dict[str, SchedulerSummary], pdr_gap: float | None
    ) -> None:
        object.__setattr__(self, "per_scheduler", _FrozenDict(per_scheduler))
        object.__setattr__(self, "pdr_gap", pdr_gap)


def _require_comparison(schedulers) -> None:
    if len(schedulers) < 2:
        raise MissingSchedulerError(
            f"comparison needs at least two schedulers, found "
            f"{sorted(schedulers) or 'none'}"
        )


def report_comparison(table: SweepTable) -> ComparisonSummary:
    """Summarize each scheduler over all seed rows.

    Raises:
        MissingSchedulerError: fewer than two schedulers appear.
    """
    by_name: dict[str, list[SweepRow]] = {}
    for row in table.seed_rows():
        by_name.setdefault(row.scheduler, []).append(row)
    _require_comparison(by_name)
    per_scheduler = {
        name: SchedulerSummary(
            mean_pdr=_mean(r.pdr for r in rows),
            mean_collided=_mean(sum(r.collisions) for r in rows),
            mean_delay_us=_mean(r.mean_delay_us for r in rows),
        )
        for name, rows in sorted(by_name.items())
    }
    gap = None
    if "tsgs" in per_scheduler and "random" in per_scheduler:
        gap = per_scheduler["tsgs"].mean_pdr - per_scheduler["random"].mean_pdr
    return ComparisonSummary(per_scheduler=per_scheduler, pdr_gap=gap)


def format_summary(summary: ComparisonSummary) -> str:
    """Fixed-width text rendering of a comparison, one scheduler per line."""
    lines = ["scheduler    mean_pdr  mean_collided  mean_delay_us"]
    for name, s in summary.per_scheduler.items():
        lines.append(
            f"{name:<11}  {s.mean_pdr:8.6f}  {s.mean_collided:13.6f}  "
            f"{s.mean_delay_us:13.6f}"
        )
    if summary.pdr_gap is not None:
        lines.append(f"pdr gap (tsgs - random): {summary.pdr_gap:+.6f}")
    return "\n".join(lines) + "\n"
