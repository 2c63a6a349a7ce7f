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
overlaps the placed intervals for C(s + d) - C(s) in total. The placed
intervals' coverage (``_Coverage``) keeps k's distinct breakpoints sorted
with k's change at each; it is built at a call's first scored placement
and takes each later placement in with two bisections and list inserts,
so a call whose placements all fit free pays nothing for it. A scored
placement sums the changes into C's prefix arrays, O(B) for B
breakpoints, and walks its starts and the breakpoints together. The
score is piecewise linear in s, so the first least-overlap start is one
of at most 4N + 2 grid points next to the breakpoints (see
``_candidates``); a grid no longer than that is scored whole. Such a
placement against N intervals thus costs O(N log N) whatever its grid
size G, rather than N * G pairwise overlaps, and tsgs costs
O(N^2 log N) in all when no placement finds a free start.

The exhaustive walk keeps the same coverage of the levels fixed above it
as a stack, adding a level's span on descent and removing it on
backtrack, and scores a whole grid from it on entering a level above the
penultimate one; it skips every subtree whose partial overlap already
reaches the best cost found. Its last two levels are scored from
overlap-difference tables instead: every grid is a multiple of one step
from 0, so two trains' overlap depends only on the difference of their
grid indices, and a level's scores against one start fixed above it are
one slice of a table built once per search. Fixing a start adds its
slices to the last two grids' scores against the starts fixed before it,
so those scores are kept as stacks of vectors, one per fixed level. A
penultimate choice is skipped when its partial sum plus a lower bound on
the last level's least overlap already reaches the best cost.

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
from itertools import accumulate, repeat
from operator import add, mul

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
# has at most _TABLE_RATIO times the 4 * (N - 1) + 2 starts _candidates
# would give per choice; past it, slicing and adding the whole grid costs
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


class _Coverage:
    """The number k(x) of spans covering each instant x, for a set of
    half-open spans [a, b) that changes by one span at a time.

    k is kept as its breakpoints in order, the change of k at each and that
    change times the breakpoint: a span adds +1 at a and -1 at b. A
    breakpoint whose changes cancel, such as a span ending where another
    starts, is dropped, so every kept one changes k. ``len()`` is the
    number of spans.
    """

    __slots__ = ("points", "changes", "moments", "spans")

    def __init__(self, spans: _Spans = ()) -> None:
        steps: dict[TimePoint, int] = {}
        for a, b in spans:
            steps[a] = steps.get(a, 0) + 1
            steps[b] = steps.get(b, 0) - 1
        self.points = sorted(x for x, change in steps.items() if change)
        self.changes = [steps[x] for x in self.points]
        self.moments = list(map(mul, self.changes, self.points))
        self.spans = len(spans)

    def __len__(self) -> int:
        return self.spans

    def _step(self, x: TimePoint, change: int) -> None:
        points, changes, moments = self.points, self.changes, self.moments
        i = bisect_left(points, x)
        if i == len(points) or points[i] != x:
            points.insert(i, x)
            changes.insert(i, change)
            moments.insert(i, change * x)
        elif changes[i] == -change:
            del points[i], changes[i], moments[i]
        else:
            changes[i] += change
            moments[i] += change * x

    def add(self, a: TimePoint, b: TimePoint) -> None:
        self._step(a, 1)
        self._step(b, -1)
        self.spans += 1

    def remove(self, a: TimePoint, b: TimePoint) -> None:
        self._step(a, -1)
        self._step(b, 1)
        self.spans -= 1

    def integral(self) -> tuple[list, list[int], list[int]]:
        """The breakpoints closed by an infinite one, and the prefix sums of
        the changes and of the moments from 0: the integral C(t) of k from
        0 to t is slopes[i] * t - offsets[i], where i counts the breakpoints
        at or before t. Built when a score is asked for, not on every
        change."""
        slopes = list(accumulate(self.changes, initial=0))
        offsets = list(accumulate(self.moments, initial=0))
        return self.points + [math.inf], slopes, offsets


def _overlaps(grid: range, duration: TimeSpan, coverage: _Coverage) -> list[TimeSpan]:
    """Each grid start s's overlap C(s + d) - C(s) with the coverage's
    spans, by the walk `_least_overlap` makes."""
    points, slopes, offsets = coverage.integral()
    scores = []
    j = i = 0
    for s in grid:
        if points[j] <= s:
            j += 1
            if points[j] <= s:
                j = bisect_right(points, s, j + 1)
        e = s + duration
        if points[i] <= e:
            i += 1
            if points[i] <= e:
                i = bisect_right(points, e, i + 1)
        scores.append(slopes[i] * e - offsets[i] - slopes[j] * s + offsets[j])
    return scores


def _candidates(
    grid: range, duration: TimeSpan, coverage: _Coverage
) -> range | list[TimePoint]:
    """The starts of grid that `_least_overlap` must score to find its
    first least one, in order.

    The score f(s) = C(s + d) - C(s) is continuous and piecewise linear,
    and its slope k(s + d) - k(s) rises only where k falls at s (a
    breakpoint x with a negative change, s = x) or rises at s + d (a
    positive change, s = x - d). If the first least grid point g lies
    inside the grid, f falls from g - step to g and does not fall from g
    to g + step, so such a rise lies strictly between them: g is the grid
    point on one side of some such x or x - d. So a grid longer than
    4 * len(coverage) + 2 points gives only its two ends and those
    neighbours, at most that many; a shorter one is scored whole.
    """
    step, last = grid.step, grid[-1]
    if _grid_size(last, step) <= 4 * len(coverage) + 2:
        return grid
    rises = [
        x if change < 0 else x - duration
        for x, change in zip(coverage.points, coverage.changes)
    ]
    below = [x - x % step for x in rises]
    candidates = {0, last, *below, *[x + step for x in below]}
    return sorted(s for s in candidates if 0 <= s <= last)


def _least_overlap(
    starts: Iterable[TimePoint], duration: TimeSpan, coverage: _Coverage
) -> tuple[TimePoint, TimeSpan]:
    """The first of the ascending starts with the least overlap with the
    coverage's spans, and that overlap.

    Each start s scores C(s + d) - C(s). One merge walk finds the
    breakpoints at or before s and s + d: each index moves one breakpoint
    on, or past several by a bisection, so the walk costs
    O(len(starts) + breakpoints passed) for dense starts and two
    bisections per start for sparse ones. A zero score cannot be beaten,
    so it ends the scan. `_overlaps` repeats the walk: sharing it through
    a generator cost about a tenth of tsgs's scoring time.
    """
    points, slopes, offsets = coverage.integral()
    best_start = best = None
    j = i = 0
    for s in starts:
        if points[j] <= s:
            j += 1
            if points[j] <= s:
                j = bisect_right(points, s, j + 1)
        e = s + duration
        if points[i] <= e:
            i += 1
            if points[i] <= e:
                i = bisect_right(points, e, i + 1)
        score = slopes[i] * e - offsets[i] - slopes[j] * s + offsets[j]
        if best is None or score < best:
            best_start, best = s, score
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
    such start exists are candidates scored, by ``_least_overlap`` against
    the placed spans' ``_Coverage``, which is built then and kept from
    there on.
    """
    _check_requests(requests)
    _check_type("config", config, SchedulerConfig)
    starts: list[TimePoint] = [0] * len(requests)
    placed: _Spans = []
    busy: list[TimePoint] = []  # the union of placed, see _first_fit
    coverage = None  # placed's, from the first scored placement on
    evaluations = 0
    for idx in _processing_order(requests, config):
        req = requests[idx]
        grid = candidate_grid(req, config)
        duration = compute_duration(req)
        start = _first_fit(grid, duration, busy)
        if start is None:
            if coverage is None:
                coverage = _Coverage(placed)
            start, _ = _least_overlap(
                _candidates(grid, duration, coverage), duration, coverage
            )
        evaluations += _grid_size(grid[-1], grid.step) * len(placed)
        starts[idx] = start
        end = start + duration
        placed.append((start, end))
        if coverage is not None:
            coverage.add(start, end)
        _merge(busy, start, end)
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


def _tsgs_pairs(requests: list[TransmissionRequest] | tuple) -> int:
    """The pairs of connections tsgs places against each other in one
    window, N * (N - 1) / 2. A placement against P placed spans costs
    O(P log P) whatever its grid, so tsgs's work grows with the pairs."""
    return len(requests) * (len(requests) - 1) // 2


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
    the spans fixed above it, whose ``_Coverage`` the walk keeps as a
    stack: a span is added on descent and removed on backtrack, and only
    while a level above the penultimate, or the last level's per-choice
    scoring, still reads it. The last two levels are scored from
    ``_trapezoid`` tables against every level above them instead: fixing
    a choice pushes the penultimate grid's scores against the spans fixed
    so far, the previous ones plus that choice's slice of its level's
    table, and likewise the last grid's, its base scores; backtracking
    pops them. Each penultimate choice, in grid order, then scores the
    last grid as base plus one slice of the (penultimate, last) table and
    takes its first minimum. That minimum is at least the least base
    score plus the least entry of the choice's slice, and a trapezoid's
    slice is least at one of its two ends, so a choice whose partial sum
    plus those two already reaches the best is skipped unscored; the
    bound is admissible and cuts only assignments that come after the
    best in lexicographic order, so the first optimum is kept. A last grid
    longer than ``_TABLE_RATIO`` times the starts ``_candidates`` gives
    is scored per choice by ``_least_overlap`` instead and gets no tables
    and no bound, so the tables and stacks stay within a constant times N
    times the last two grid sizes plus the sum of the grid sizes.

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
        # per penultimate choice, a lower bound on its overlap with the last
        # level's choice: 0 without tables
        pair_least = [0] * len(pen_grid)
        if len(last_grid) <= _TABLE_RATIO * (4 * last + 2):
            pair = _trapezoid(pen_grid, pen_duration, last_grid, last_duration)
            last_tables = [
                _trapezoid(grids[j], durations[j], last_grid, last_duration)
                for j in range(pen)
            ]
            # a trapezoid's slice is least at one of its ends
            width = len(last_grid) - 1
            pair_least = [
                min(pair[offset], pair[offset + width])
                for offset in reversed(range(len(pen_grid)))
            ]
    spans: _Spans = []  # [start, end) of the levels fixed so far
    coverage = _Coverage()  # of spans
    sums = [0]  # sums[j]: overlap among the first j spans, each pair once
    # per fixed level: the penultimate grid's and, when it has tables, the
    # last grid's overlaps with the spans fixed down to that level
    pen_rows: list[list[TimeSpan]] = []
    last_rows: list[list[TimeSpan]] = []
    pending = []  # per entered level above the penultimate: choices not yet visited
    while pen >= 0:
        if len(spans) < pen:
            level = len(spans)
            scores = _overlaps(grids[level], durations[level], coverage)
            pending.append(enumerate(scores))
        else:
            # the last two levels: each penultimate choice whose partial sum,
            # plus the last level's least overlap with the fixed spans and
            # the least with that choice, stays below the best takes the last
            # grid's first minimum
            prefix = sums[-1]
            floor = prefix
            if pair is not None:
                base = last_rows[-1] if last_rows else [0] * len(last_grid)
                floor += min(base)
            scores = pen_rows[-1] if pen_rows else repeat(0)
            for k, (score, low) in enumerate(zip(scores, pair_least)):
                if floor + score + low >= best_cost:
                    continue
                partial = prefix + score
                start = pen_grid[k]
                if pair is None:
                    coverage.add(start, start + pen_duration)
                    least_start, least = _least_overlap(
                        _candidates(last_grid, last_duration, coverage),
                        last_duration,
                        coverage,
                    )
                    coverage.remove(start, start + pen_duration)
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
                if len(spans) < pen or pair is None:
                    coverage.remove(*spans[-1])
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
                if level < pen - 1 or pair is None:  # else tables score what is left
                    coverage.add(start, start + durations[level])
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
