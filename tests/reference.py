"""Naive reference implementations of the overlap cost and the schedulers.

Each is the direct transcription of its definition: intervals are built
explicitly, every pair is scored with `overlap`, tsgs counts each pairwise
evaluation as it makes it, and exhaustive costs every assignment of
``itertools.product`` in full. The fast paths in ``txsched`` must agree
with these on schedule, cost and counter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from txsched import Schedule, ScheduleResult, candidate_grid, compute_duration


@dataclass(frozen=True)
class Interval:
    """Half-open occupancy interval [start, start + length)."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"interval start must be >= 0, got {self.start}")
        if self.length < 0:
            raise ValueError(f"interval length must be >= 0, got {self.length}")

    @property
    def end(self) -> int:
        return self.start + self.length


def overlap(a: Interval, b: Interval) -> int:
    """Length of the time intersection of two half-open intervals."""
    return max(0, min(a.end, b.end) - max(a.start, b.start))


def intervals(schedule, requests) -> tuple[Interval, ...]:
    """Occupancy interval of each connection under its scheduled start."""
    if len(schedule.starts) != len(requests):
        raise ValueError(
            f"schedule has {len(schedule.starts)} starts for {len(requests)} requests"
        )
    return tuple(
        Interval(start, compute_duration(req))
        for start, req in zip(schedule.starts, requests)
    )


def total_cost(schedule, requests) -> int:
    """Pairwise overlap summed over all ordered pairs (i, j), i != j."""
    ivals = intervals(schedule, requests)
    n = len(ivals)
    return sum(
        overlap(ivals[i], ivals[j]) for i in range(n) for j in range(n) if i != j
    )


def tsgs(requests, config) -> ScheduleResult:
    """Greedy placement, one pairwise evaluation at a time."""
    order = list(range(len(requests)))
    if config.ordering == "deadline-ascending":
        order.sort(key=lambda i: requests[i].deadline)
    starts = [None] * len(requests)
    fixed: list[Interval] = []
    evaluations = 0
    for idx in order:
        duration = compute_duration(requests[idx])
        best_start = best_score = None
        for start in candidate_grid(requests[idx], config):
            candidate = Interval(start, duration)
            score = 0
            for placed in fixed:
                score += overlap(candidate, placed)
                evaluations += 1
            if best_score is None or score < best_score:
                best_start, best_score = start, score
        starts[idx] = best_start
        fixed.append(Interval(best_start, duration))
    schedule = Schedule(tuple(starts))
    return ScheduleResult(schedule, total_cost(schedule, requests), evaluations)


def exhaustive(requests, config) -> ScheduleResult:
    """Cost every assignment; keep the first (lexicographically smallest)
    minimum."""
    grids = [candidate_grid(req, config) for req in requests]
    best_schedule = best_cost = None
    evaluations = 0
    for assignment in itertools.product(*grids):
        schedule = Schedule(assignment)
        cost = total_cost(schedule, requests)
        evaluations += 1
        if best_cost is None or cost < best_cost:
            best_schedule, best_cost = schedule, cost
    return ScheduleResult(best_schedule, best_cost, evaluations)
