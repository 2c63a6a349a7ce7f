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
``margin`` before the deadline by construction.

Candidates are scored through a prefix integral. Let k(x) be the number
of placed half-open intervals covering instant x and C(t) the integral
of k from 0 to t. A candidate [s, s + d) overlaps the placed intervals
for C(s + d) - C(s) in total, and once the placed breakpoints are sorted
each C(t) is one bisection plus integer arithmetic. The score is
piecewise linear in s, so the first least-overlap start is one of at most
4N + 2 grid points next to its breakpoints (see ``_least_overlap``). A
connection placed against N intervals thus costs O(N log N) whatever its
grid size G, rather than N * G pairwise overlaps, and tsgs costs
O(N^2 log N) in all. The exhaustive walk scores whole grids on its inner
levels but skips every subtree whose partial overlap already reaches the
best cost found.

All strategies report an operation counter with the paper's meaning, in
closed form, not the work the fast path does: pairwise-overlap
evaluations sum(|grid| * |already fixed|) for the greedy search, the
product of grid sizes (assignments) for the exhaustive one, zero for
random draws.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Iterable

from .core import (
    Schedule,
    TimePoint,
    TimeSpan,
    TransmissionRequest,
    _Record,
    compute_duration,
    total_cost,
    window,
)

ORDERINGS = ("input-order", "deadline-ascending")

ENUMERATION_CAP = 10_000_000


class InstanceTooLargeError(ValueError):
    """The candidate-grid product exceeds the exhaustive enumeration cap."""


class SchedulerConfig(_Record):
    """Shared knobs for all strategies.

    ``step`` is the search granularity: candidate starts are multiples of
    it. ``margin`` reserves slack between a transmission's nominal end and
    its deadline. ``ordering`` controls the greedy processing order only;
    exhaustive and random treat connections symmetrically.
    """

    __slots__ = ("step", "margin", "ordering")
    _defaults = {"margin": 0, "ordering": "input-order"}
    step: TimeSpan
    margin: TimeSpan
    ordering: str

    def _check(self) -> None:
        if self.step <= 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.margin < 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        if self.ordering not in ORDERINGS:
            raise ValueError(
                f"ordering must be one of {ORDERINGS}, got {self.ordering!r}"
            )


class ScheduleResult(_Record):
    """A schedule plus its total overlap cost and the work to find it.

    ``candidate_evaluations`` is the paper's operation count in closed
    form: pairwise-overlap evaluations of the naive greedy search,
    sum(|grid| * |already fixed|), and full cost evaluations of the
    exhaustive search, the product of grid sizes. The two growth rates
    (linear in grid size vs product of grid sizes) stay observable, but
    the count is not the work the prefix-integral scoring does.
    """

    __slots__ = ("schedule", "cost", "candidate_evaluations")
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


_Spans = list[tuple[TimePoint, TimePoint]]


def _overlaps(starts: Iterable[TimePoint], duration: TimeSpan, spans: _Spans):
    """Yield each candidate [s, s + duration)'s summed overlap with the
    half-open spans [a, b), for s in starts, in order.

    The coverage integral is C(t) = base + slope * t between consecutive
    breakpoints; a breakpoint adds +1 to the slope (and -a to the base)
    per span starting there and -1 (and +b) per span ending there.
    """
    steps = {0: 0}  # a breakpoint at 0 gives every start >= 0 a segment
    for a, b in spans:
        steps[a] = steps.get(a, 0) + 1
        steps[b] = steps.get(b, 0) - 1
    points = sorted(steps)
    bases, slopes = [], []
    base = slope = 0
    for x in points:
        base -= steps[x] * x
        slope += steps[x]
        bases.append(base)
        slopes.append(slope)
    for s in starts:
        j = bisect_right(points, s) - 1
        e = s + duration
        i = bisect_right(points, e, j) - 1
        yield bases[i] + slopes[i] * e - bases[j] - slopes[j] * s


def _least_overlap(
    grid: range, duration: TimeSpan, spans: _Spans
) -> tuple[TimePoint, TimeSpan]:
    """The first start in grid with the least overlap, and that overlap.

    The score f(s) = C(s + d) - C(s) is continuous and piecewise linear,
    and its slope k(s + d) - k(s) rises only where a span ends at s
    (s = b) or begins at s + d (s = a - d). If the first least grid point
    g lies inside the grid, f falls from g - step to g and does not fall
    from g to g + step, so such a rise lies strictly between them: g is
    the grid point on one side of some b or a - d. Only the grid's two
    ends and those neighbours, at most 4 * len(spans) + 2 starts, are
    scored, in grid order; a grid no longer than that is scored whole.
    A zero score cannot be beaten, so it ends the scan.
    """
    starts = grid
    if len(grid) > 4 * len(spans) + 2:
        step = grid.step
        candidates = {0, grid[-1]}
        for a, b in spans:
            for rise in (b, a - duration):
                below = rise - rise % step
                candidates.add(below)
                candidates.add(below + step)
        starts = sorted(s for s in candidates if s in grid)
    best_start = best = None
    for start, score in zip(starts, _overlaps(starts, duration, spans)):
        if best is None or score < best:
            best_start, best = start, score
            if score == 0:
                break
    return best_start, best


def tsgs_schedule(
    requests: list[TransmissionRequest], config: SchedulerConfig
) -> ScheduleResult:
    """Greedy search: place connections one at a time, never revisiting.

    For each connection in processing order, every candidate start is
    scored by its summed overlap against the intervals already fixed, and
    the connection is pinned at the lowest-scoring candidate (smallest
    grid index on ties). Earlier placements are never moved.
    """
    starts: list[TimePoint] = [0] * len(requests)
    placed: _Spans = []
    evaluations = 0
    for idx in _processing_order(requests, config):
        req = requests[idx]
        grid = candidate_grid(req, config)
        duration = compute_duration(req)
        start, _ = _least_overlap(grid, duration, placed)
        evaluations += len(grid) * len(placed)
        starts[idx] = start
        placed.append((start, start + duration))
    schedule = Schedule(tuple(starts))
    return ScheduleResult(
        schedule=schedule,
        cost=total_cost(schedule, requests),
        candidate_evaluations=evaluations,
    )


def exhaustive_schedule(
    requests: list[TransmissionRequest], config: SchedulerConfig
) -> ScheduleResult:
    """Enumerate every grid assignment and return a global cost minimum.

    Ties break toward the lexicographically smallest start tuple. The
    walk is depth-first in lexicographic order: entering a level scores
    its grid against the starts fixed above it, the last level takes its
    first minimum (as tsgs does), and only strict improvements replace
    the best. It is a branch and bound: a partial sum never falls with
    depth, so a choice whose partial sum already reaches the best cost is
    neither descended into nor, at the last level, scored. Saturated
    instances can still leave most prefixes of the first N - 1 levels to
    visit. The counter stays exactly the product of grid sizes (1 for no
    connections, whose minimum is the empty schedule).

    Raises:
        InstanceTooLargeError: the product of grid sizes exceeds
            ``ENUMERATION_CAP``.
    """
    grids = [candidate_grid(req, config) for req in requests]
    size = 1
    for grid in grids:
        size *= len(grid)
    if size > ENUMERATION_CAP:
        raise InstanceTooLargeError(
            f"{size} grid assignments exceed the enumeration cap of "
            f"{ENUMERATION_CAP}"
        )
    durations = [compute_duration(req) for req in requests]
    last = len(requests) - 1
    best_starts: list[TimePoint] = []
    best_cost = math.inf
    spans: _Spans = []  # [start, end) of the levels fixed so far
    sums = [0]  # sums[j]: overlap among the first j spans, each pair once
    pending = []  # per entered level: its choices not yet visited
    while last >= 0:
        if len(spans) < last:
            level = len(spans)
            scores = list(_overlaps(grids[level], durations[level], spans))
            pending.append(zip(grids[level], scores))
        else:
            start, score = _least_overlap(grids[last], durations[last], spans)
            if sums[-1] + score < best_cost:
                best_cost = sums[-1] + score
                best_starts = [a for a, _ in spans] + [start]
        # fix the next choice whose partial sum stays below the best, at the
        # deepest level that has one; stop when no level has
        while pending:
            if len(spans) == len(pending):
                spans.pop()
                sums.pop()
            prefix = sums[-1]
            choice = next((c for c in pending[-1] if prefix + c[1] < best_cost), None)
            if choice is not None:
                start, score = choice
                spans.append((start, start + durations[len(spans)]))
                sums.append(prefix + score)
                break
            pending.pop()
        else:
            break
    schedule = Schedule(tuple(best_starts))
    return ScheduleResult(
        schedule=schedule,
        cost=total_cost(schedule, requests),
        candidate_evaluations=size,
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
