"""Start-time assignment strategies over a shared broadcast channel.

Three strategies, differing only in how they pick from the same candidate
grid:

* ``tsgs_schedule`` - transmission-schedule greedy search: fixes one
  connection at a time at the grid point minimizing overlap with the
  connections already placed.
* ``exhaustive_schedule`` - enumerates the full cartesian product of
  candidate grids and returns a global overlap minimum (the oracle).
* ``random_schedule`` - draws each start uniformly from the grid, the
  uncoordinated baseline.

Each connection's grid is {0, step, 2*step, ..., sigma*step} with
sigma = floor(window / step), so every candidate finishes at least
``margin`` before the deadline by construction. All strategies report an
operation counter: pairwise-overlap evaluations for the greedy search,
full cost evaluations for the exhaustive one, zero for random draws.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import (
    Interval,
    Schedule,
    TimePoint,
    TimeSpan,
    TransmissionRequest,
    compute_duration,
    overlap,
    total_cost,
    window,
)

ORDERINGS = ("input-order", "deadline-ascending")

DEFAULT_ENUMERATION_CAP = 10_000_000


class InstanceTooLargeError(ValueError):
    """The candidate-grid product exceeds the exhaustive enumeration cap."""


@dataclass(frozen=True)
class SchedulerConfig:
    """Shared knobs for all strategies.

    ``step`` is the search granularity: candidate starts are multiples of
    it. ``margin`` reserves slack between a transmission's nominal end and
    its deadline. ``ordering`` controls the greedy processing order only;
    exhaustive and random treat connections symmetrically.
    """

    step: TimeSpan
    margin: TimeSpan = 0
    ordering: str = "input-order"

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.margin < 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        if self.ordering not in ORDERINGS:
            raise ValueError(
                f"ordering must be one of {ORDERINGS}, got {self.ordering!r}"
            )


@dataclass(frozen=True)
class ScheduleResult:
    """A schedule plus its total overlap cost and the work done to find it.

    ``candidate_evaluations`` counts pairwise-overlap evaluations for the
    greedy search and full cost evaluations for the exhaustive search, so
    the two growth rates (linear in grid size vs product of grid sizes)
    are directly observable.
    """

    schedule: Schedule
    cost: TimeSpan
    candidate_evaluations: int


def candidate_grid(request: TransmissionRequest, config: SchedulerConfig) -> range:
    """Admissible starts 0, step, ..., up to the window; raises if even
    start 0 misses the deadline."""
    return range(0, window(request, config.margin) + 1, config.step)


def _processing_order(
    requests: list[TransmissionRequest], config: SchedulerConfig
) -> list[int]:
    order = list(range(len(requests)))
    if config.ordering == "deadline-ascending":
        # stable sort: equal deadlines keep input order
        order.sort(key=lambda i: requests[i].deadline)
    return order


def tsgs_schedule(
    requests: list[TransmissionRequest], config: SchedulerConfig
) -> ScheduleResult:
    """Greedy search: place connections one at a time, never revisiting.

    For each connection in processing order, every candidate start is
    scored by its summed overlap against the intervals already fixed, and
    the connection is pinned at the lowest-scoring candidate (smallest
    grid index on ties). Earlier placements are never moved.
    """
    starts: list[TimePoint | None] = [None] * len(requests)
    fixed: list[Interval] = []
    evaluations = 0
    for idx in _processing_order(requests, config):
        req = requests[idx]
        duration = compute_duration(req)
        best_start = 0
        best_score = None
        for start in candidate_grid(req, config):
            candidate = Interval(start, duration)
            score = 0
            for placed in fixed:
                score += overlap(candidate, placed)
                evaluations += 1
            if best_score is None or score < best_score:
                best_score = score
                best_start = start
        starts[idx] = best_start
        fixed.append(Interval(best_start, duration))
    schedule = Schedule(tuple(starts))  # type: ignore[arg-type]
    return ScheduleResult(
        schedule=schedule,
        cost=total_cost(schedule, requests),
        candidate_evaluations=evaluations,
    )


def exhaustive_schedule(
    requests: list[TransmissionRequest],
    config: SchedulerConfig,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> ScheduleResult:
    """Enumerate every grid assignment and return a global cost minimum.

    Ties break toward the lexicographically smallest start tuple, which
    falls out of visiting assignments in lexicographic order and keeping
    strict improvements only. Every assignment is costed; the counter is
    exactly the product of grid sizes.

    Raises:
        InstanceTooLargeError: the product of grid sizes exceeds
            ``enumeration_cap``.
    """
    grids = [candidate_grid(req, config) for req in requests]
    size = 1
    for grid in grids:
        size *= len(grid)
    if size > enumeration_cap:
        raise InstanceTooLargeError(
            f"{size} grid assignments exceed the enumeration cap of "
            f"{enumeration_cap}"
        )
    best_schedule = None
    best_cost = None
    evaluations = 0
    for assignment in itertools.product(*grids):
        schedule = Schedule(assignment)
        cost = total_cost(schedule, requests)
        evaluations += 1
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_schedule = schedule
    if best_schedule is None:
        # zero connections: the empty schedule is the vacuous minimum
        best_schedule, best_cost = Schedule(()), 0
    return ScheduleResult(
        schedule=best_schedule, cost=best_cost, candidate_evaluations=evaluations
    )


def random_schedule(
    requests: list[TransmissionRequest], config: SchedulerConfig, seed: int
) -> ScheduleResult:
    """Draw each start independently and uniformly from its grid.

    Deterministic for a given seed; feasible by grid construction.
    """
    rng = random.Random(seed)
    starts = []
    for req in requests:
        grid = candidate_grid(req, config)
        starts.append(grid[rng.randrange(len(grid))])
    schedule = Schedule(tuple(starts))
    return ScheduleResult(
        schedule=schedule,
        cost=total_cost(schedule, requests),
        candidate_evaluations=0,
    )
