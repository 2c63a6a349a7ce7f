"""Start-time assignment strategies over a shared broadcast channel.

Three strategies, differing only in how they pick from the same candidate
grid:

* ``tsgs_schedule`` - transmission-schedule greedy search: fixes one
  connection at a time at the grid point minimizing overlap with the
  connections already placed.
* ``exhaustive_schedule`` - enumerates the full cartesian product of
  candidate grids and returns a global overlap minimum (the oracle).
* ``random_schedule`` - draws each start uniformly from the grid, the
  uncoordinated baseline. It reads ``Random(seed).randrange``'s draws
  from the seed's stream of 32-bit words; calls that share a memo share
  the stream, so a seed is seeded once however many windows draw from it.

Each connection's grid is {0, step, 2*step, ..., sigma*step} with
sigma = floor(window / step), so every candidate finishes at least
``margin`` before the deadline by construction. Each strategy first
raises ``ValueError`` for a request that is not a `TransmissionRequest`
or a config that is not a `SchedulerConfig`.

tsgs keeps the union of the placed intervals as one sorted list of
disjoint busy spans, merging each new placement in with two bisections
and one slice assignment (``_merge``), so touching spans join. A
placement first walks that union for the first grid point whose train
overlaps nothing (``_first_fit``). The least overlap is 0 exactly when
such a start exists, and the first one in grid order is the first least
start, so the walk's answer is the scan's. It costs O(U) for U busy
spans, and U is 1 when trains pack back to back.

Only a placement with no free start is scored, through a prefix
integral. Let k(x) be the number of placed half-open intervals covering
instant x and C(t) the integral of k from 0 to t. A candidate [s, s + d)
overlaps the placed intervals for C(s + d) - C(s) in total, and once the
placed breakpoints are sorted each C(t) is one bisection plus integer
arithmetic. The score is piecewise linear in s, so the first
least-overlap start is one of at most 4N + 2 grid points next to its
breakpoints (see ``_least_overlap``). Such a placement against N
intervals thus costs O(N log N) whatever its grid size G, rather than
N * G pairwise overlaps, and tsgs costs O(N^2 log N) in all when no
placement finds a free start.

The exhaustive walk scores whole grids on entering a level above the
penultimate one and skips every subtree whose partial overlap already
reaches the best cost found. Its last two levels are scored from
overlap-difference tables instead: every grid is a multiple of one step
from 0, so two trains' overlap depends only on the difference of their
grid indices, and a level's scores against one start fixed above it are
one slice of a table built once per search. Fixing a start adds its
slices to the last two grids' scores against the starts fixed before it,
so those scores are kept as stacks of vectors, one per fixed level.

All strategies report an operation counter with the paper's meaning, in
closed form, not the work the fast path does: pairwise-overlap
evaluations sum(|grid| * |already fixed|) for the greedy search, the
product of grid sizes (assignments) for the exhaustive one, zero for
random draws.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from itertools import repeat
from operator import add

from .core import (
    Schedule,
    TimePoint,
    TimeSpan,
    TransmissionRequest,
    _check_bound,
    _check_int,
    _check_requests,
    _check_type,
    _Record,
    compute_duration,
    total_cost,
    window,
)

ORDERINGS = ("input-order", "deadline-ascending")

ENUMERATION_CAP = 10_000_000

# exhaustive_schedule scores its last level from a table while the last grid
# has at most _TABLE_RATIO times the 4 * (N - 1) + 2 starts _least_overlap
# would score per choice; past it, slicing and adding the whole grid costs
# more than scoring those starts. Timed on saturated searches at N = 2 to 5,
# the table stopped winning from 22-37, 50-65, 60-80 and 70-90 last-grid
# points, so 5 puts the switch at 30, 50, 70 and 90.
_TABLE_RATIO = 5


class InstanceTooLargeError(ValueError):
    """The candidate-grid product exceeds the exhaustive enumeration cap."""


class SchedulerConfig(_Record):
    """Shared knobs for all strategies.

    ``step`` is the search granularity: candidate starts are multiples of
    it. ``margin`` reserves slack between a transmission's nominal end and
    its deadline. ``ordering`` controls the greedy processing order only;
    exhaustive and random treat connections symmetrically.
    """

    step: TimeSpan
    margin: TimeSpan = 0
    ordering: str = "input-order"

    def _check(self) -> None:
        for name in ("step", "margin"):
            _check_int(name, getattr(self, name))
        _check_bound("step", self.step, ">", 0)
        _check_bound("margin", self.margin, ">=", 0)
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

    schedule: Schedule
    cost: TimeSpan
    candidate_evaluations: int


def _result(
    starts: list[TimePoint], requests: list[TransmissionRequest] | tuple,
    evaluations: int,
) -> ScheduleResult:
    # total_cost is looked up in this module's globals at each call, so a
    # caller that swaps schedulers.total_cost sees every scheduler's call
    schedule = Schedule(tuple(starts))
    return ScheduleResult(schedule, total_cost(schedule, requests), evaluations)


def candidate_grid(request: TransmissionRequest, config: SchedulerConfig) -> range:
    """Admissible starts 0, step, ..., up to the window; raises if even
    start 0 misses the deadline."""
    return range(0, window(request, config.margin) + 1, config.step)


def _grid_size(last: TimePoint, step: TimeSpan) -> int:
    """The number of grid points 0, step, ... up to ``last``, by
    arithmetic: ``len()`` of a range raises ``OverflowError`` past
    ``sys.maxsize``."""
    return last // step + 1


def _processing_order(
    requests: list[TransmissionRequest] | tuple, config: SchedulerConfig
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
    step = grid.step
    if _grid_size(grid[-1], step) > 4 * len(spans) + 2:
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


def _first_fit(
    grid: range, duration: TimeSpan, busy: list[TimePoint]
) -> TimePoint | None:
    """The first start in grid whose [s, s + duration) overlaps none of
    the disjoint busy spans, or None if every start overlaps one.

    ``busy`` holds the spans' bounds in order, [a0, b0, a1, b1, ...]. The
    walk keeps the first start that clears every span before the current
    one; a span that the train would overlap moves it to the first grid
    point at or after the span's end.
    """
    step, last = grid.step, grid[-1]
    start = 0
    bounds = iter(busy)
    for a, b in zip(bounds, bounds):
        if start + duration <= a:
            break
        if start < b:
            start = -(-b // step) * step
            if start > last:
                return None
    return start


def _merge(busy: list[TimePoint], a: TimePoint, b: TimePoint) -> None:
    """Merge [a, b) into the disjoint sorted bounds ``busy`` in place;
    spans it overlaps or touches join it."""
    # an even index lies outside every span, so its bound survives; an odd
    # one lies inside or at the edge of a span that absorbs it
    i = bisect_left(busy, a)
    j = bisect_right(busy, b)
    busy[i:j] = ([a] if i % 2 == 0 else []) + ([b] if j % 2 == 0 else [])


def tsgs_schedule(
    requests: list[TransmissionRequest] | tuple, config: SchedulerConfig
) -> ScheduleResult:
    """Greedy search: place connections one at a time, never revisiting.

    For each connection in processing order, every candidate start is
    scored by its summed overlap against the intervals already fixed, and
    the connection is pinned at the lowest-scoring candidate (smallest
    grid index on ties). Earlier placements are never moved. The first
    start that overlaps nothing is found by ``_first_fit``; only when no
    such start exists are candidates scored, by ``_least_overlap``.
    """
    _check_requests(requests)
    _check_type("config", config, SchedulerConfig)
    starts: list[TimePoint] = [0] * len(requests)
    placed: _Spans = []
    busy: list[TimePoint] = []  # the union of placed, see _first_fit
    evaluations = 0
    for idx in _processing_order(requests, config):
        req = requests[idx]
        grid = candidate_grid(req, config)
        duration = compute_duration(req)
        start = _first_fit(grid, duration, busy)
        if start is None:
            start, _ = _least_overlap(grid, duration, placed)
        evaluations += _grid_size(grid[-1], grid.step) * len(placed)
        starts[idx] = start
        placed.append((start, start + duration))
        _merge(busy, start, start + duration)
    return _result(starts, requests, evaluations)


def _trapezoid(
    grid: range, duration: TimeSpan, other: range, other_duration: TimeSpan
) -> list[TimeSpan]:
    """Overlaps of every pair of choices of two levels, by their offset.

    Grids are multiples of one step from 0, so [m * step, m * step + d)
    and the other level's [k * step, k * step + d') overlap by an amount
    that depends on j = k - m only, a trapezoid in the start difference
    j * step: 0, then rising by step while j * step + d' < min(d, d'),
    flat at min(d, d'), falling by step while d - j * step < min(d, d'),
    and 0 again. It is stored at index j + len(grid) - 1, so choice m's
    overlaps with the whole other grid are the slice of len(other)
    entries from len(grid) - 1 - m. The table is built part by part, from
    ranges and repeated constants, each part clipped to the stored offsets.
    """
    step = grid.step
    first, stop = 1 - len(grid), len(other)  # the offsets stored

    def clip(offset: int) -> int:
        return min(max(offset, first), stop)

    plateau = min(duration, other_duration)
    rise = clip(-other_duration // step + 1)  # the first positive overlap
    flat = clip(-((other_duration - plateau) // step))
    fall = clip((duration - plateau) // step + 1)
    end = clip(-(-duration // step))  # the first 0 after the plateau
    table = [0] * (rise - first)
    table += range(rise * step + other_duration, flat * step + other_duration, step)
    table += repeat(plateau, fall - flat)
    table += range(duration - fall * step, duration - end * step, -step)
    table += repeat(0, stop - end)
    return table


def _first_least(base: list, row: list) -> tuple[int, TimeSpan]:
    """The first index of the least base[k] + row[k], and that sum."""
    scores = list(map(add, base, row))
    least = min(scores)
    return scores.index(least), least


def _push(rows: list, table: list, offset: int, size: int) -> None:
    """Push the top of ``rows``, or zeros if it is empty, plus the
    ``size`` entries of ``table`` from ``offset``."""
    row = table[offset : offset + size]
    rows.append(list(map(add, rows[-1], row)) if rows else row)


def _assignments(grids: list[range]) -> int:
    """The product of the grid sizes; raises above ``ENUMERATION_CAP``."""
    size = math.prod(_grid_size(grid[-1], grid.step) for grid in grids)
    if size > ENUMERATION_CAP:
        raise InstanceTooLargeError(
            f"{size} grid assignments exceed the enumeration cap of {ENUMERATION_CAP}"
        )
    return size


def exhaustive_schedule(
    requests: list[TransmissionRequest] | tuple, config: SchedulerConfig
) -> ScheduleResult:
    """Enumerate every grid assignment and return a global cost minimum.

    Ties break toward the lexicographically smallest start tuple. The
    walk is depth-first in lexicographic order and only strict
    improvements replace the best. It is a branch and bound: a partial
    sum never falls with depth, so a choice whose partial sum already
    reaches the best cost is neither descended into nor scored.
    Saturated instances can still leave most prefixes of the first N - 1
    levels to visit. The counter stays exactly the product of grid sizes
    (1 for no connections, whose minimum is the empty schedule).

    Every level above the penultimate is scored whole on entry against
    the spans fixed above it. The last two levels are scored from
    ``_trapezoid`` tables against every level above them instead: fixing
    a choice pushes the penultimate grid's scores against the spans fixed
    so far, the previous ones plus that choice's slice of its level's
    table, and likewise the last grid's, its base scores; backtracking
    pops them. Each penultimate choice, in grid order, then scores the
    last grid as base plus one slice of the (penultimate, last) table and
    takes its first minimum. A last grid longer than ``_TABLE_RATIO``
    times the starts ``_least_overlap`` scores is scored per choice by it
    instead and gets no tables, so the tables and stacks stay within a
    constant times N times the last two grid sizes plus the sum of the
    grid sizes.

    Raises:
        InstanceTooLargeError: the product of grid sizes exceeds
            ``ENUMERATION_CAP``.
    """
    _check_requests(requests)
    _check_type("config", config, SchedulerConfig)
    grids = [candidate_grid(req, config) for req in requests]
    size = _assignments(grids)
    durations = [compute_duration(req) for req in requests]
    pen = len(requests) - 2
    last = pen + 1
    best_starts = [0] * len(requests)  # fewer than two connections overlap nothing
    best_cost = math.inf
    if pen >= 0:
        pen_grid, last_grid = grids[pen:]
        pen_duration, last_duration = durations[pen:]
        pen_tables = [
            _trapezoid(grids[j], durations[j], pen_grid, pen_duration)
            for j in range(pen)
        ]
        pair = None
        if len(last_grid) <= _TABLE_RATIO * (4 * last + 2):
            pair = _trapezoid(pen_grid, pen_duration, last_grid, last_duration)
            last_tables = [
                _trapezoid(grids[j], durations[j], last_grid, last_duration)
                for j in range(pen)
            ]
    spans: _Spans = []  # [start, end) of the levels fixed so far
    sums = [0]  # sums[j]: overlap among the first j spans, each pair once
    # per fixed level: the penultimate grid's and, when it has tables, the
    # last grid's overlaps with the spans fixed down to that level
    pen_rows: list[list[TimeSpan]] = []
    last_rows: list[list[TimeSpan]] = []
    pending = []  # per entered level above the penultimate: choices not yet visited
    while pen >= 0:
        if len(spans) < pen:
            level = len(spans)
            scores = list(_overlaps(grids[level], durations[level], spans))
            pending.append(enumerate(scores))
        else:
            # the last two levels: each penultimate choice whose partial sum
            # stays below the best takes the last grid's first minimum
            if pair is not None:
                base = last_rows[-1] if last_rows else [0] * len(last_grid)
            prefix = sums[-1]
            for k, score in enumerate(
                pen_rows[-1] if pen_rows else repeat(0, len(pen_grid))
            ):
                partial = prefix + score
                if partial >= best_cost:
                    continue
                start = pen_grid[k]
                if pair is None:
                    placed = spans + [(start, start + pen_duration)]
                    least_start, least = _least_overlap(
                        last_grid, last_duration, placed
                    )
                else:
                    offset = len(pen_grid) - 1 - k
                    index, least = _first_least(
                        base, pair[offset : offset + len(last_grid)]
                    )
                    least_start = last_grid[index]
                if partial + least < best_cost:
                    best_cost = partial + least
                    best_starts = [a for a, _ in spans] + [start, least_start]
        # fix the next choice whose partial sum stays below the best, at the
        # deepest level that has one; stop when no level has
        while pending:
            if len(spans) == len(pending):
                spans.pop()
                sums.pop()
                pen_rows.pop()
                if pair is not None:
                    last_rows.pop()
            prefix = sums[-1]
            choice = next((c for c in pending[-1] if prefix + c[1] < best_cost), None)
            if choice is not None:
                k, score = choice
                level = len(spans)
                start = grids[level][k]
                offset = len(grids[level]) - 1 - k
                spans.append((start, start + durations[level]))
                sums.append(prefix + score)
                _push(pen_rows, pen_tables[level], offset, len(pen_grid))
                if pair is not None:
                    _push(last_rows, last_tables[level], offset, len(last_grid))
                break
            pending.pop()
        else:
            break
    return _result(best_starts, requests, size)


def random_schedule(
    requests: list[TransmissionRequest] | tuple,
    config: SchedulerConfig,
    seed: int,
    *,
    memo: dict | None = None,
) -> ScheduleResult:
    """Draw each start independently and uniformly from its grid.

    Deterministic for a given seed; feasible by grid construction. Each
    draw picks a grid index, and the start is that index times the step:
    the indices are exactly ``Random(seed).randrange(n)`` for each grid
    of n points in turn, as drawn from one fresh generator.

    The draws are read from the seed's stream of 32-bit words, as
    CPython's ``randrange`` reads them (``_randbelow_with_getrandbits``):
    with k = n.bit_length() and m = ceil(k / 32), a candidate is the next
    m words, least significant first, the last shifted right by
    32 * m - k; one that is >= n is rejected for the next m words.

    ``memo``, when given a dict, maps each seed to ``(getrandbits,
    words)``: a ``Random(seed)``'s ``getrandbits`` and the words drawn
    from it so far. Every call reads the words from the first one and
    draws more only when it needs them, so calls that share the dict get
    a fresh generator's draws without seeding one again. Without it, the
    call reads a stream of its own.

    Raises:
        ValueError: a request is not a `TransmissionRequest`, ``config``
            is not a `SchedulerConfig`, or ``seed`` is not an int.
    """
    _check_requests(requests)
    _check_type("config", config, SchedulerConfig)
    _check_int("seed", seed)
    if memo is None:
        memo = {}
    stream = memo.get(seed)
    if stream is None:
        stream = memo[seed] = (random.Random(seed).getrandbits, [])
    getrandbits, words = stream
    step, margin = config.step, config.margin
    starts = []
    i = 0  # the next unread word
    for req in requests:
        n = _grid_size(window(req, margin), step)
        k = n.bit_length()
        m = -(-k // 32)
        while True:
            j = i + m - 1  # the candidate's most significant word
            while len(words) <= j:
                words.append(getrandbits(32))
            r = words[j] >> (32 * m - k)
            while j > i:
                j -= 1
                r = r << 32 | words[j]
            i += m
            if r < n:
                break
        starts.append(r * step)
    return _result(starts, requests, 0)
