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

from .core import TransmissionRequest, _Record, compute_duration
from .scenario import ScenarioSpec
from .schedulers import (
    ScheduleResult,
    SchedulerConfig,
    exhaustive_schedule,
    random_schedule,
    tsgs_schedule,
)
from .simulator import collision_summary, pdr, simulate

NATIVE_WINDOW = -1

TABLE_FORMAT_TAG = "txsched-table/1"


class MissingSchedulerError(ValueError):
    """The comparison needs at least two schedulers' rows."""


class SweepRow(_Record):
    """One experiment outcome.

    Per-seed rows hold integer counts; aggregate rows (``seed == "mean"``)
    hold per-seed means and may be fractional. ``collisions`` and
    ``received`` are per connection, in scenario order.
    """

    __slots__ = ("window_us", "scheduler", "seed", "pdr", "cost_us",
                 "candidate_evals", "collisions", "received", "mean_delay_us")
    window_us: int
    scheduler: str
    seed: int | str
    pdr: float
    cost_us: int | float
    candidate_evals: int | float
    collisions: tuple[int | float, ...]
    received: tuple[int | float, ...]
    mean_delay_us: float

    @property
    def is_aggregate(self) -> bool:
        return self.seed == "mean"


class SweepTable(_Record):
    """All rows of one experiment, plus the connection count for layout."""

    __slots__ = ("connections", "rows")
    connections: int
    rows: tuple[SweepRow, ...]

    def seed_rows(self) -> tuple[SweepRow, ...]:
        return tuple(r for r in self.rows if not r.is_aggregate)


def rescale_requests(
    requests: tuple[TransmissionRequest, ...],
    window_us: int,
    config: SchedulerConfig,
) -> tuple[TransmissionRequest, ...]:
    """Copies whose deadlines give every connection exactly this window.

    Raises:
        ValueError: the window is negative.
    """
    if window_us < 0:
        raise ValueError(f"window must be >= 0, got {window_us}")
    return tuple(
        req.replace(deadline=window_us + compute_duration(req) + config.margin)
        for req in requests
    )


def run_scheduler(
    name: str,
    requests: tuple[TransmissionRequest, ...],
    config: SchedulerConfig,
    seed: int,
) -> ScheduleResult:
    """Dispatch one named strategy; `seed` only matters for 'random'."""
    if name == "tsgs":
        return tsgs_schedule(list(requests), config)
    if name == "exhaustive":
        return exhaustive_schedule(list(requests), config)
    if name == "random":
        return random_schedule(list(requests), config, seed)
    raise ValueError(f"unknown scheduler {name!r}")


def run_experiment(spec: ScenarioSpec) -> SweepTable:
    """Run every (window, scheduler, seed) combination of the scenario.

    Greedy and exhaustive schedules are computed once per window size
    (they are seed-invariant); the random baseline re-draws per seed. The
    channel simulation always varies with the seed. Deterministic: the
    same spec yields an identical table.
    """
    points = spec.sweep.points() if spec.sweep is not None else [NATIVE_WINDOW]
    seeds = sorted(spec.seeds)
    rows: list[SweepRow] = []
    for window_us in points:
        if window_us == NATIVE_WINDOW:
            requests = spec.requests
        else:
            requests = rescale_requests(
                spec.requests, window_us, spec.scheduler_config
            )
        for name in sorted(spec.schedulers):
            fixed = (
                None
                if name == "random"
                else run_scheduler(name, requests, spec.scheduler_config, 0)
            )
            group: list[SweepRow] = []
            for seed in seeds:
                result = (
                    fixed
                    if fixed is not None
                    else run_scheduler(name, requests, spec.scheduler_config, seed)
                )
                report = simulate(
                    list(requests), result.schedule, spec.channel, seed
                )
                group.append(
                    SweepRow(
                        window_us=window_us,
                        scheduler=name,
                        seed=seed,
                        pdr=pdr(report),
                        cost_us=result.cost,
                        candidate_evals=result.candidate_evaluations,
                        collisions=tuple(collision_summary(report)),
                        received=tuple(
                            c.received for c in report.per_connection
                        ),
                        mean_delay_us=report.mean_delay_us,
                    )
                )
            rows.extend(group)
            rows.append(_aggregate(group))
    return SweepTable(connections=len(spec.requests), rows=tuple(rows))


def _mean(values) -> float:
    # statistics.fmean computes exactly this on 3.10-3.13; importing
    # statistics would cost every CLI verb its import
    data = list(values)
    return math.fsum(data) / len(data)


def _aggregate(group: list[SweepRow]) -> SweepRow:
    n = len(group[0].collisions)
    return SweepRow(
        window_us=group[0].window_us,
        scheduler=group[0].scheduler,
        seed="mean",
        pdr=_mean(r.pdr for r in group),
        cost_us=_mean(r.cost_us for r in group),
        candidate_evals=_mean(r.candidate_evals for r in group),
        collisions=tuple(
            _mean(r.collisions[i] for r in group) for i in range(n)
        ),
        received=tuple(_mean(r.received[i] for r in group) for i in range(n)),
        mean_delay_us=_mean(r.mean_delay_us for r in group),
    )


# -- emission ----------------------------------------------------------


def _columns(connections: int) -> list[str]:
    return (
        ["window_us", "scheduler", "seed", "pdr", "cost_us", "candidate_evals"]
        + [f"collisions_c{i}" for i in range(connections)]
        + [f"received_c{i}" for i in range(connections)]
        + ["mean_delay_us"]
    )


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _row_values(row: SweepRow) -> list:
    return (
        [row.window_us, row.scheduler, row.seed, row.pdr, row.cost_us,
         row.candidate_evals]
        + list(row.collisions)
        + list(row.received)
        + [row.mean_delay_us]
    )


def render(table: SweepTable, format: str) -> str:
    """Serialize the table; CSV uses fixed 6-decimal fractions, JSON keeps
    full float precision so a round-trip reproduces the table exactly."""
    if format == "csv":
        lines = [",".join(_columns(table.connections))]
        for row in table.rows:
            lines.append(",".join(_cell(v) for v in _row_values(row)))
        return "\n".join(lines) + "\n"
    if format == "json":
        import json

        payload = {
            "format": TABLE_FORMAT_TAG,
            "connections": table.connections,
            "rows": [
                dict(zip(_columns(table.connections), _row_values(row)))
                for row in table.rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {format!r}; expected 'csv' or 'json'")


def emit(table: SweepTable, format: str, path: str | Path) -> None:
    """Write the table to `path`; identical tables yield identical bytes."""
    Path(path).write_text(render(table, format), encoding="utf-8")


def read_table(path: str | Path) -> SweepTable:
    """Load a table previously emitted as JSON."""
    import json

    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != TABLE_FORMAT_TAG:
        raise ValueError(
            f"unsupported table format {payload.get('format')!r}"
        )
    n = payload["connections"]
    rows = []
    for record in payload["rows"]:
        rows.append(
            SweepRow(
                window_us=record["window_us"],
                scheduler=record["scheduler"],
                seed=record["seed"],
                pdr=record["pdr"],
                cost_us=record["cost_us"],
                candidate_evals=record["candidate_evals"],
                collisions=tuple(record[f"collisions_c{i}"] for i in range(n)),
                received=tuple(record[f"received_c{i}"] for i in range(n)),
                mean_delay_us=record["mean_delay_us"],
            )
        )
    return SweepTable(connections=n, rows=tuple(rows))


# -- comparison --------------------------------------------------------


class SchedulerSummary(_Record):
    """Across all seed rows of one scheduler: mean PDR, mean collided
    packets per run, and mean per-packet delay."""

    __slots__ = ("mean_pdr", "mean_collided", "mean_delay_us")
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

    __slots__ = ("per_scheduler", "pdr_gap")
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
