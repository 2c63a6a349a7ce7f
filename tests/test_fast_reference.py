"""The prefix-integral schedulers and the sweep cost equal the naive
references in ``reference.py`` on schedule, cost and counter, and the
simulator (shared countdown clock, inline uncontended packets, stretches
of a train run in one step, lock-step collisions run in one step) equals
the per-slot reference on report and trace."""

import itertools
from bisect import bisect_left
from collections import Counter
from operator import attrgetter

import pytest
import reference
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from strategies import channel_runs

from txsched import (
    ChannelConfig,
    Schedule,
    SchedulerConfig,
    TransmissionRequest,
    compute_duration,
    exhaustive_schedule,
    feasible,
    random_schedule,
    rescale_requests,
    schedulers,
    simulate,
    simulator,
    total_cost,
    tsgs_schedule,
)
from txsched.schedulers import candidate_grid

# derandomized: the same examples on every run, with no example database
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw, max_n=4, max_sigma=6):
    """Admissible requests and a config. Small steps and durations make
    ties common; windows below the step give one-point grids."""
    n = draw(st.integers(0, max_n))
    step = draw(st.integers(1, 30))
    margin = draw(st.sampled_from((0, 0, step // 2 + 1, 2 * step)))
    ordering = draw(st.sampled_from(("input-order", "deadline-ascending")))
    requests = []
    for i in range(n):
        packets = draw(st.integers(1, 3))
        airtime = draw(st.integers(1, 4 * step))
        overhead = draw(st.integers(0, step))
        window = draw(st.integers(0, max_sigma * step + step - 1))
        deadline = packets * (airtime + overhead) + margin + window
        requests.append(TransmissionRequest(i, deadline, packets, airtime, overhead))
    return requests, SchedulerConfig(step=step, margin=margin, ordering=ordering)


@PROPERTY
@given(instances(max_n=6, max_sigma=12))
def test_tsgs_equals_reference(instance):
    requests, config = instance
    assert tsgs_schedule(requests, config) == reference.tsgs(requests, config)


@PROPERTY
@given(instances())
def test_exhaustive_equals_reference(instance):
    requests, config = instance
    expected = reference.exhaustive(requests, config)
    assert exhaustive_schedule(requests, config) == expected


@PROPERTY
@given(instances(), st.integers(0, 2**16))
def test_schedules_feasible_and_oracle_below_greedy_below_worst(instance, seed):
    requests, config = instance
    greedy = tsgs_schedule(requests, config)
    oracle = exhaustive_schedule(requests, config)
    drawn = random_schedule(requests, config, seed)
    for result in (greedy, oracle, drawn):
        assert feasible(result.schedule, requests, config.margin)
    grids = [candidate_grid(req, config) for req in requests]
    worst = max(
        total_cost(Schedule(starts), requests) for starts in itertools.product(*grids)
    )
    assert oracle.cost <= greedy.cost <= worst


@st.composite
def large_grid_instances(draw, max_n=6, max_sigma=300):
    """Grids of 26 to 301 points, far more than the 4 * placed + 2 starts
    next to breakpoints that tsgs scores. Steps run from shorter than
    every train to longer than some (many breakpoints in one grid
    segment), and trains from one microsecond to longer than the window,
    so instances run from sparse (zero-score ties) to saturated."""
    n = draw(st.integers(1, max_n))
    step = draw(st.integers(1, 40))
    sigma = draw(st.integers(50, max_sigma))
    margin = draw(st.sampled_from((0, step // 2 + 1)))
    ordering = draw(st.sampled_from(("input-order", "deadline-ascending")))
    requests = []
    for i in range(n):
        packets = draw(st.integers(1, 3))
        airtime = draw(
            st.one_of(st.integers(1, step), st.integers(1, sigma * step // packets))
        )
        overhead = draw(st.integers(0, step // 4))
        window = draw(st.integers(sigma * step // 2, sigma * step + step - 1))
        deadline = packets * (airtime + overhead) + margin + window
        requests.append(TransmissionRequest(i, deadline, packets, airtime, overhead))
    return requests, SchedulerConfig(step=step, margin=margin, ordering=ordering)


def tsgs_reach(requests, config, starts):
    """The hard cases a tsgs instance holds, found by scoring every grid
    point naively against the placements ``starts``."""
    reached = set()
    durations = [compute_duration(req) for req in requests]
    if config.step > min(durations):
        reached.add("step longer than a train")
    if all(d % config.step for d in durations):
        reached.add("step divides no train")
    order = list(range(len(requests)))
    if config.ordering == "deadline-ascending":
        order.sort(key=lambda i: requests[i].deadline)
    placed = []
    for i in order:
        grid = candidate_grid(requests[i], config)
        d = durations[i]
        if placed and len(grid) > 4 * len(placed) + 2:
            # where the score's slope changes: a span begins or ends at s or s + d
            kinks = [
                q
                for p in placed
                for q in (p.start, p.end, p.start - d, p.end - d)
                if 0 < q < grid[-1] and q % config.step
            ]
            if max(Counter(q // config.step for q in kinks).values(), default=0) >= 3:
                reached.add("three breakpoints inside one grid segment")
            scores = [
                sum(reference.overlap(reference.Interval(s, d), p) for p in placed)
                for s in grid
            ]
            reached.add("first fit" if min(scores) == 0 else "no free start")
            if scores.count(min(scores)) > 1:
                reached.add("zero-score tie" if min(scores) == 0 else "positive tie")
        placed.append(reference.Interval(starts[i], d))
    return reached


def test_tsgs_large_grids_equal_reference():
    reached = set()

    @PROPERTY
    @given(large_grid_instances())
    def check(instance):
        requests, config = instance
        expected = reference.tsgs(requests, config)
        assert tsgs_schedule(requests, config) == expected
        reached.update(tsgs_reach(requests, config, expected.schedule.starts))

    check()
    assert reached == {
        "step longer than a train",
        "step divides no train",
        "three breakpoints inside one grid segment",
        "zero-score tie",
        "positive tie",
        "first fit",
        "no free start",
    }


@st.composite
def crowded_instances(draw):
    """150 to 300 trains on grids of 1 to 12 points. The first, with no
    window, is sometimes long enough to overlap every later start, so
    placements are scored while few spans are placed and their grids are
    longer than 4 * placed + 2; trains whose lengths are multiples of the
    step end where others start."""
    rng = draw(st.randoms(use_true_random=False))
    step = draw(st.integers(1, 12))
    first = draw(st.integers(1, 24 * step))
    requests = [TransmissionRequest(0, first, 1, first)]
    for i in range(1, draw(st.integers(150, 300))):
        packets = rng.randint(1, 3)
        airtime = rng.choice((rng.randint(1, 3 * step), step * rng.randint(1, 3)))
        overhead = rng.choice((0, rng.randint(0, step)))
        window = rng.randint(0, 12 * step - 1)
        deadline = packets * (airtime + overhead) + window
        requests.append(TransmissionRequest(i, deadline, packets, airtime, overhead))
    ordering = draw(st.sampled_from(("input-order", "deadline-ascending")))
    return requests, SchedulerConfig(step=step, ordering=ordering)


def test_crowded_tsgs_equals_reference(monkeypatch):
    reached = set()
    least_overlap = schedulers._least_overlap
    candidates = schedulers._candidates
    step = schedulers._Coverage._step

    def counted_least(starts, duration, coverage):
        reached.add("scored placement")
        return least_overlap(starts, duration, coverage)

    def counted_candidates(grid, duration, coverage):
        starts = candidates(grid, duration, coverage)
        if starts is not grid:
            reached.add("long-grid candidates")
        return starts

    def counted_step(coverage, x, change):
        # a start meeting a placed end, or an end meeting a placed start
        i = bisect_left(coverage.points, x)
        if coverage.points[i : i + 1] == [x] and coverage.changes[i] * change < 0:
            reached.add("a span ends where another starts")
        return step(coverage, x, change)

    monkeypatch.setattr(schedulers, "_least_overlap", counted_least)
    monkeypatch.setattr(schedulers, "_candidates", counted_candidates)
    monkeypatch.setattr(schedulers._Coverage, "_step", counted_step)

    # a failing instance of 300 trains would take minutes to shrink
    @settings(PROPERTY, max_examples=12, phases=(Phase.explicit, Phase.generate))
    @given(crowded_instances())
    def check(instance):
        requests, config = instance
        assert tsgs_schedule(requests, config) == reference.tsgs(requests, config)

    check()
    assert reached == {
        "scored placement",
        "long-grid candidates",
        "a span ends where another starts",
    }


@st.composite
def busy_walks(draw):
    """Spans laid left to right, each touching, a gap of exactly the
    train's duration d, or a drawn gap or overlap after the one before,
    merged in a drawn order; steps run from 1 to longer than a gap of d."""
    duration = draw(st.integers(1, 12))
    step = draw(st.integers(1, 3 * duration))
    spans = []
    end = draw(st.sampled_from((0, duration, step)))
    for _ in range(draw(st.integers(0, 6))):
        begin = end + draw(
            st.one_of(st.sampled_from((0, duration)), st.integers(-end, 2 * duration))
        )
        end = begin + draw(st.integers(1, 3 * duration))
        spans.append((begin, end))
    spans = draw(st.permutations(spans))
    last = draw(st.integers(0, end + 2 * step))
    return range(0, last + 1, step), duration, spans


@PROPERTY
@given(busy_walks())
def test_first_fit_equals_first_free_grid_point(walk):
    grid, duration, spans = walk
    busy = []
    for a, b in spans:
        schedulers._merge(busy, a, b)
    # the union: sorted bounds of disjoint spans that do not touch
    assert len(busy) % 2 == 0 and busy == sorted(set(busy))
    for x in range(max([0] + busy) + 1):
        inside = any(a <= x < b for a, b in zip(busy[::2], busy[1::2]))
        assert inside == any(a <= x < b for a, b in spans)
    free = [s for s in grid if all(s >= b or s + duration <= a for a, b in spans)]
    assert schedulers._first_fit(grid, duration, busy) == (free[0] if free else None)


@st.composite
def saturated_instances(draw, max_n=4, max_sigma=5):
    """Three or four trains of one to five steps in windows of three to
    six steps, on grids of four to six points: assignments overlap
    heavily, so the walk prunes at every level, and one or two shared
    train lengths make several assignments tie for the minimum."""
    n = draw(st.integers(3, max_n))
    step = draw(st.integers(1, 20))
    lengths = draw(st.lists(st.integers(step, 5 * step), min_size=1, max_size=2))
    requests = []
    for i in range(n):
        window = draw(st.integers(3 * step, max_sigma * step + step - 1))
        length = draw(st.sampled_from(lengths))
        requests.append(TransmissionRequest(i, length + window, 1, length))
    return requests, SchedulerConfig(step=step)


def test_saturated_exhaustive_equals_reference(monkeypatch):
    # a level above the penultimate is entered through one _overlaps call
    # with the spans fixed above it; the penultimate level is entered once
    # per choice fixed just above it, which calls _push twice, once for the
    # penultimate grid's stack of scores and once for the last grid's
    # (these grids are short enough for its tables); the last level is
    # recorded once per penultimate choice scanned, through _first_least
    entered = []
    last = []
    overlaps = schedulers._overlaps
    push = schedulers._push
    first_least = schedulers._first_least

    def counted_overlaps(starts, duration, spans):
        entered.append(len(spans))
        return overlaps(starts, duration, spans)

    def counted_push(rows, table, offset, size):
        if len(rows) == last[0] - 2:
            entered.append(last[0] - 1)
        return push(rows, table, offset, size)

    def counted_least(base, row):
        entered.append(last[0])
        return first_least(base, row)

    monkeypatch.setattr(schedulers, "_overlaps", counted_overlaps)
    monkeypatch.setattr(schedulers, "_push", counted_push)
    monkeypatch.setattr(schedulers, "_first_least", counted_least)
    reached = set()

    @PROPERTY
    @given(saturated_instances())
    def check(instance):
        requests, config = instance
        expected = reference.exhaustive(requests, config)
        entered.clear()
        last[:] = [len(requests) - 1]
        assert exhaustive_schedule(requests, config) == expected
        if expected.cost == 0:
            return
        grids = [candidate_grid(req, config) for req in requests]
        costs = [
            total_cost(Schedule(starts), requests)
            for starts in itertools.product(*grids)
        ]
        if costs.count(expected.cost) > 1:
            reached.add("tied minima")
        # a level is cut when fewer of its choices are entered than it
        # has; level 0 scores 0 everywhere, so only a zero best cuts it
        entries = Counter(entered)
        assert entries[last[0] - 1] % 2 == 0
        entries[last[0] - 1] //= 2
        if all(
            entries[level + 1] < entries[level] * len(grids[level])
            for level in range(1, len(grids) - 1)
        ):
            reached.add(f"{len(grids)} levels, cut below the first")

    check()
    assert reached == {
        "tied minima",
        "3 levels, cut below the first",
        "4 levels, cut below the first",
    }


def compare(a, b):
    return "shorter than" if a < b else "equal to" if a == b else "longer than"


@st.composite
def trapezoid_cases(draw):
    """Two grids of 1 to 40 points on one step of 1 to 50, with train
    durations shorter than, equal to or longer than the step and each
    other."""
    step = draw(st.integers(1, 50))
    grid, other = (
        range(0, (draw(st.integers(1, 40)) - 1) * step + 1, step) for _ in range(2)
    )
    durations = st.one_of(
        st.integers(1, step), st.just(step), st.integers(step, 5 * step)
    )
    duration = draw(durations)
    other_duration = draw(st.one_of(st.just(duration), durations))
    return grid, duration, other, other_duration


def test_trapezoid_equals_the_overlap_at_every_offset():
    reached = set()

    @PROPERTY
    @given(trapezoid_cases())
    def check(case):
        grid, d, other, d_other = case
        step = grid.step
        table = schedulers._trapezoid(grid, d, other, d_other)
        # the offset delta of the other start from this one, index by index
        offsets = range(-grid[-1], other[-1] + step, step)
        assert table == [
            max(0, min(d, delta + d_other) - max(0, delta)) for delta in offsets
        ]
        reached.add(f"a train {compare(d, d_other)} the other")
        for length in (d, d_other):
            reached.add(f"a train {compare(length, step)} the step")

    check()
    assert reached == {
        f"a train {relation} {than}"
        for relation in ("shorter than", "equal to", "longer than")
        for than in ("the other", "the step")
    }


@st.composite
def deep_instances(draw):
    """Five or six trains of one to four steps on grids of two or three
    points: the walk fixes three or four levels above the penultimate one,
    so its stacks of scores grow at least three deep."""
    n = draw(st.integers(5, 6))
    step = draw(st.integers(1, 20))
    requests = []
    for i in range(n):
        window = draw(st.integers(step, 3 * step - 1))
        length = draw(st.integers(1, 4 * step))
        requests.append(TransmissionRequest(i, length + window, 1, length))
    return requests, SchedulerConfig(step=step)


def test_deep_exhaustive_equals_reference(monkeypatch):
    # each choice fixed above the penultimate level pushes one row onto
    # each of the two stacks, at the depth of its level (these last grids
    # are short enough for their tables); a level is backtracked when it
    # fixes more choices than the level above it
    pushes = Counter()
    push = schedulers._push

    def counted_push(rows, table, offset, size):
        pushes[len(rows)] += 1
        return push(rows, table, offset, size)

    monkeypatch.setattr(schedulers, "_push", counted_push)
    reached = set()

    @settings(PROPERTY, max_examples=100)
    @given(deep_instances())
    def check(instance):
        requests, config = instance
        expected = reference.exhaustive(requests, config)
        pushes.clear()
        assert exhaustive_schedule(requests, config) == expected
        fixed = [pushes[level] // 2 for level in range(len(requests) - 2)]
        backtracked = [1 < fixed[0]] + [
            above < here for above, here in zip(fixed, fixed[1:])
        ]
        if sum(backtracked) >= 3:
            reached.add(f"{len(requests)} trains, backtracked at 3 levels")

    check()
    assert reached == {
        "5 trains, backtracked at 3 levels",
        "6 trains, backtracked at 3 levels",
    }


# how far past exhaustive's switch point each branch's last grids reach
SWITCH_OFFSETS = {"table": (-1, 0), "per choice": (1, 2)}


@st.composite
def switch_instances(draw, n, branch):
    """n trains whose last grid has one point below or at exhaustive's
    switch point (the "table" branch) or one or two points above it (the
    "per choice" branch). The switch is ``_TABLE_RATIO`` times the
    4 * (N - 1) + 2 starts ``_least_overlap`` scores: up to it the last
    level is scored from its table, past it choice by choice. Upper grids
    have one to three points. Trains run from one step to twice the last
    window, so some instances fit without overlap (the last grid then
    ties at zero) and others cannot. Returns the offset drawn too."""
    step = draw(st.integers(1, 20))
    switch = schedulers._TABLE_RATIO * (4 * (n - 1) + 2)
    offset = draw(st.sampled_from(SWITCH_OFFSETS[branch]))
    sizes = [draw(st.integers(1, 3 if n <= 3 else 2)) for _ in range(n - 1)]
    sizes.append(switch + offset)
    requests = []
    for i, size in enumerate(sizes):
        length = draw(st.integers(step, 2 * switch * step))
        window = (size - 1) * step + draw(st.integers(0, step - 1))
        requests.append(TransmissionRequest(i, length + window, 1, length))
    return (requests, SchedulerConfig(step=step)), offset


@pytest.mark.parametrize("branch", SWITCH_OFFSETS)
@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_exhaustive_switch_point_equals_reference(monkeypatch, n, branch):
    # the last level is scored by _first_least (from its table) or by
    # _least_overlap (choice by choice), never both in one search
    branches = []
    first_least = schedulers._first_least
    least_overlap = schedulers._least_overlap

    def counted_table(base, row):
        branches.append("table")
        return first_least(base, row)

    def counted_choice(grid, duration, spans):
        branches.append("per choice")
        return least_overlap(grid, duration, spans)

    monkeypatch.setattr(schedulers, "_first_least", counted_table)
    monkeypatch.setattr(schedulers, "_least_overlap", counted_choice)
    offsets = set()

    @settings(PROPERTY, max_examples=30)
    @given(switch_instances(n, branch))
    def check(drawn):
        (requests, config), offset = drawn
        expected = reference.exhaustive(requests, config)
        branches.clear()
        assert exhaustive_schedule(requests, config) == expected
        assert set(branches) == {branch}
        offsets.add(offset)

    check()
    assert offsets == set(SWITCH_OFFSETS[branch])


# the benchmark's oracle trains as (packets, airtime), on a 58 us overhead and
# a 300 us step; its seeds deal them to the three connections in any order
ORACLE_TRAINS = ((40, 47), (50, 31), (30, 23))


@pytest.mark.parametrize("window", (3000, 6000, 9000))
@pytest.mark.parametrize(
    "order", ["".join(order) for order in itertools.permutations("012")]
)
def test_oracle_windows_equal_reference(order, window):
    config = SchedulerConfig(step=300)
    trains = [
        TransmissionRequest(i, 10**6, *ORACLE_TRAINS[int(k)], 58)
        for i, k in enumerate(order)
    ]
    requests = rescale_requests(trains, window, config)
    expected = reference.exhaustive(requests, config)
    assert exhaustive_schedule(requests, config) == expected


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 400), st.integers(1, 200)), max_size=8))
def test_total_cost_equals_reference(spans):
    requests = [
        TransmissionRequest(i, 10_000, 1, length) for i, (_, length) in enumerate(spans)
    ]
    schedule = Schedule(tuple(start for start, _ in spans))
    assert total_cost(schedule, requests) == reference.total_cost(schedule, requests)


@st.composite
def laid_trains(draw):
    """Up to five trains laid one after another in a shuffled position
    order, each where the one laid before it ends on air, some way after
    that end, or some way before it down to the same start; with the AIFS,
    the arguments of ``simulator._closed_starts``."""
    aifs = draw(st.integers(0, 5))
    n = draw(st.integers(0, 5))
    trains = tuple((draw(st.integers(1, 4)), draw(st.integers(1, 5))) for _ in range(n))
    starts = [0] * n
    at = draw(st.integers(0, 50))  # where the train laid last ends on air
    length = 0  # that train's duration on air
    for i in draw(st.permutations(range(n))):
        before = st.integers(-length, -1) if length else st.just(0)
        starts[i] = at + draw(st.one_of(st.just(0), st.integers(1, 30), before))
        count, airtime = trains[i]
        length = count * (aifs + airtime)
        at = starts[i] + length
    return tuple(starts), trains, aifs


@PROPERTY
@given(laid_trains())
@example(((), (), 3))  # empty
@example(((17,), ((2, 5),), 3))  # one train
@example(((4, 9, 20), ((2, 5),) * 3, 3))  # packed: the second overlaps
@example(((40, 0, 16), ((2, 5),) * 3, 3))  # spaced: one touches, one gaps
@example(((30, 12, 12, 30), ((1, 1),) * 4, 2))  # tied starts, two pairs
def test_closing_walk_equals_its_reference(case):
    # the memo's key: a walk that closed one gap too many, or too few,
    # would share a run between schedules that make different ones
    assert simulator._closed_starts(*case) == reference.closed_starts(*case)


def assert_simulate_equals_reference(requests, schedule, channel, seed):
    """Equal report and trace lines, and an untraced run equal too;
    return the trace."""
    trace, expected_trace = [], []
    report = simulate(requests, schedule, channel, seed, trace=trace)
    expected = reference.simulate(
        requests, schedule, channel, seed, trace=expected_trace
    )
    assert report == expected
    assert trace == expected_trace
    # the trace switch changes nothing but the trace
    assert simulate(requests, schedule, channel, seed) == expected
    return trace


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(channel_runs())
def test_simulate_equals_reference(run):
    assert_simulate_equals_reference(*run)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(channel_runs(max_start_slot=100, max_packets=8))
def test_sparse_simulate_equals_reference(run):
    assert_simulate_equals_reference(*run)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(channel_runs(max_n=4, max_start_slot=300, max_packets=40))
def test_long_train_simulate_equals_reference(run):
    # long trains far apart: untraced, most packets run in stretches of
    # one arithmetic step, which must equal the per-packet accounting
    assert_simulate_equals_reference(*run)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(channel_runs(max_n=12, max_start_slot=3, max_cw=3))
def test_piled_up_simulate_equals_reference(run):
    # many senders starting within a few slots, with at most three backoff
    # values: deferrals pile up over several busy periods, many senders
    # share one target, and busy edges land exactly on slot ends
    assert_simulate_equals_reference(*run)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(channel_runs(max_n=8, max_start_slot=20, max_packets=20, max_cw=15))
def test_captured_simulate_equals_reference(run):
    # long trains and wide backoffs: a sender that has just transmitted
    # often captures the channel for many packets over frozen countdowns,
    # untraced in place and in stretches of one step
    assert_simulate_equals_reference(*run)


@pytest.fixture
def lockstep_rises(monkeypatch):
    """One entry per rise of a sender's collided count by more than one
    packet at once, which only the lock-step stretch makes: whether
    another sender was then deferred with packets left."""
    rises = []
    senders = []  # of the current run; call senders.clear() between runs
    slot = simulator.SenderState.collided  # the slot's descriptor

    class Watched(simulator.SenderState):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            senders.append(self)

        @property
        def collided(self):
            return slot.__get__(self)

        @collided.setter
        def collided(self, value):
            before = getattr(self, "collided", value)
            if value > before + 1:
                rises.append(any(
                    other.phase == "backoff-wait-idle" and other.sent < other.count
                    for other in senders
                ))
            slot.__set__(self, value)

    monkeypatch.setattr(simulator, "SenderState", Watched)
    return rises, senders


def test_lockstep_simulate_equals_reference(lockstep_rises):
    # senders of one airtime that start on multiples of aifs + airtime
    # meet at one commit instant and collide together packet after
    # packet; untraced, those rounds run in one step
    rises, senders = lockstep_rises

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(channel_runs(max_start_slot=4, max_packets=12, lockstep=True))
    def check(run):
        senders.clear()
        assert_simulate_equals_reference(*run)

    check()
    assert rises


def test_lockstep_over_deferred_simulate_equals_reference(lockstep_rises):
    # off-grid senders defer on a lock-step group's rounds, or on each
    # other's packets before a group meets; with at most three backoff
    # values, deferred senders often commit together as a group, counting
    # slots at its first busy edge. Untraced, the group's later rounds run
    # in one step over the other countdowns, frozen
    rises, senders = lockstep_rises

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        channel_runs(
            max_start_slot=4, max_packets=12, max_cw=3, lockstep=True, off_grid=3
        )
    )
    def check(run):
        senders.clear()
        assert_simulate_equals_reference(*run)

    check()
    assert any(rises)


@st.composite
def end_sum_runs(draw):
    """Groups of trains laid one after another, each alone on the channel:
    a single train, whose packets but the last run in one inline stretch,
    or two or three trains of one airtime that start together and collide
    in lock-step until the shortest ends, the longer ones then going on in
    lock-step or inline. Each deadline falls within its train's span, so
    it often splits a stretch; the ambient loss is in (0, 1) or exactly the
    int 1, so a lost packet past the deadline is common. Returns the run
    and the cases it reaches."""
    slot = draw(st.integers(1, 4))
    aifs = draw(st.integers(0, 9))
    loss = draw(
        st.one_of(st.just(1), st.floats(0, 1, exclude_min=True, exclude_max=True))
    )
    requests, starts, reached = [], [], set()
    at = 0
    for _ in range(draw(st.integers(1, 3))):
        airtime = draw(st.integers(1, 20))
        period = aifs + airtime
        counts = draw(st.lists(st.integers(1, 30), min_size=1, max_size=3))
        for packets in counts:
            deadline = at + draw(st.integers(0, packets * period + 1))
            requests.append(
                TransmissionRequest(len(requests), deadline, packets, airtime)
            )
            starts.append(at)
            stretch = (at + period, at + (packets - 1) * period)  # its ends
            if len(counts) == 1 and stretch[0] <= deadline < stretch[1]:
                reached.add("deadline inside a stretch")
        if len(counts) > 1 and sorted(counts)[1] >= 3:
            reached.add("lock-step run of two rounds or more")
        at += max(counts) * period + draw(st.integers(0, 50))
    reached.add("loss 1" if loss == 1 else "loss in (0, 1)")
    channel = ChannelConfig(
        slot_time=slot, aifs=aifs, cw=draw(st.integers(1, 6)), ambient_loss_rate=loss
    )
    run = requests, Schedule(tuple(starts)), channel, draw(st.integers(0, 2**16))
    return run, reached


def test_end_sums_equal_reference():
    # untraced, a stretch or a lock-step run adds its packets' ends to the
    # end sum in one term and counts its late packets by arithmetic; the
    # report's delay, lateness and duration equal the per-packet reference
    reached = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(end_sum_runs())
    def check(case):
        run, cases = case
        report = simulate(*run)
        expected = reference.simulate(*run)
        fields = attrgetter("delay_total_us", "delivered_late", "realized_duration_us")
        assert list(map(fields, report.per_connection)) == list(
            map(fields, expected.per_connection)
        )
        assert report == expected
        reached.update(cases)

    check()
    assert reached == {
        "deadline inside a stretch", "lock-step run of two rounds or more",
        "loss 1", "loss in (0, 1)",
    }


# One uncontended train of three packets under the default channel (aifs
# 58, slot 13): it senses at 0, 81 and 162, commits at 58, 139 and 220,
# and its packets end at 81, 162 and 243. A second sender starts at one of
# its edges.
_TRAIN = TransmissionRequest(0, 10_000, 3, 23)
_OTHER = TransmissionRequest(1, 10_000, 2, 23)
# A ten-packet train: untraced, its packets up to the next queued event run
# in one step. Packet 5 ends at 405.
_LONG = TransmissionRequest(0, 10_000, 10, 23)

EDGE_CASES = {
    # senses together with the train's next packet, both commit at 139
    "start-at-packet-end": ([_TRAIN, _OTHER], (0, 81), ChannelConfig(), 3),
    # senses the last microsecond of a packet and defers
    "start-before-packet-end": ([_TRAIN, _OTHER], (0, 80), ChannelConfig(), 3),
    # senses after the train's commit, before its start, then defers at
    # the busy edge
    "start-at-commit": ([_TRAIN, _OTHER], (0, 58), ChannelConfig(), 3),
    # the same instant with the positions swapped: c0's first sense
    # resolves before c1's commit, then defers at c1's busy edge
    "start-at-commit-lower-position": ([_OTHER, _TRAIN], (58, 0), ChannelConfig(), 3),
    # no AIFS: a sense is a commit, and the packet ends one airtime later
    "aifs-0": (
        [_TRAIN, _OTHER, TransmissionRequest(2, 10_000, 2, 23)],
        (0, 46, 100),
        ChannelConfig(aifs=0),
        3,
    ),
    # loss draws of an inline train interleave with another's backoff draw
    "ambient-loss": (
        [TransmissionRequest(0, 10_000, 8, 23), _OTHER],
        (0, 100),
        ChannelConfig(ambient_loss_rate=0.3),
        3,
    ),
    # the step ends with the packet that ends at the other's start, which
    # then senses together with the train's sixth packet
    "start-at-batched-end": ([_LONG, _OTHER], (0, 405), ChannelConfig(), 3),
    # the step ends one packet earlier; packet 5 then defers the other
    "start-before-batched-end": ([_LONG, _OTHER], (0, 404), ChannelConfig(), 3),
    # packet 5 ends exactly at the deadline and is on time, packet 6 is late
    "deadline-mid-train": (
        [TransmissionRequest(0, 405, 10, 23)], (0,), ChannelConfig(), 3
    ),
    "deadline-mid-train-loss": (
        [TransmissionRequest(0, 405, 10, 23)],
        (0,),
        ChannelConfig(ambient_loss_rate=0.3),
        3,
    ),
    # no AIFS, one-slot backoffs: c0 defers at c0's own end (1) and, at
    # c1's end (2), commits at that very instant; c1's next sense waits
    # behind the commit, which a queued timer at the end's instant decides
    "commit-at-packet-end": (
        [TransmissionRequest(0, 0, 2, 1), TransmissionRequest(1, 0, 2, 2)],
        (0, 0),
        ChannelConfig(slot_time=1, aifs=0, cw=1),
        0,
    ),
    # c1 and c3 defer on c0's packet and, with cw 1, commit at its idle
    # edge (81) + 58 = 139; c2 senses idle at 81 and commits at 139 too
    "holder-and-waiter-commit-together": (
        [TransmissionRequest(i, 10_000, 1, 23) for i in range(4)],
        (0, 60, 81, 62),
        ChannelConfig(cw=1),
        4,
    ),
    # c1 defers on c0's first packet and, at seed 14, draws 1 slot: at each
    # of c0's packet ends its commit falls one slot after c0's AIFS, so c0
    # captures the channel for its whole train over the frozen countdown
    "capture-over-frozen": (
        [TransmissionRequest(0, 10_000, 4, 23), TransmissionRequest(1, 10_000, 1, 23)],
        (0, 60),
        ChannelConfig(),
        14,
    ),
    # the same at seed 31, which draws 0: c1's commit at 81 + 58 = 139 ties
    # with c0's, and both start and collide
    "capture-tie-at-aifs": (
        [TransmissionRequest(0, 10_000, 4, 23), TransmissionRequest(1, 10_000, 1, 23)],
        (0, 60),
        ChannelConfig(),
        31,
    ),
    # c1 freezes 5 slots (seed 7) and its idle period starts at 81; c2's
    # scheduled start at 112 lies 2 slots and 5 us into it, so c2's start at
    # 170 counts 2 slots and c1 commits at 193 + 58 + 3 * 13 = 290
    "start-slots-into-idle": (
        [TransmissionRequest(i, 10_000, 1, 23) for i in range(3)],
        (0, 60, 112),
        ChannelConfig(),
        7,
    ),
    # c0 captures over c1's frozen one-slot countdown; untraced, the step
    # ends with the packet that ends at c2's queued sense (405), and c0 and
    # c2 then collide twice before c0 captures the channel again
    "batched-capture-to-queued-sense": (
        [_LONG, TransmissionRequest(1, 10_000, 1, 23), _OTHER],
        (0, 60, 405),
        ChannelConfig(),
        14,
    ),
    # c0..c2 commit together at 58 and collide on all five packets: the
    # first four rounds in one step, the last one queued
    "lockstep-three": (
        [TransmissionRequest(i, 10_000, 5, 23) for i in range(3)],
        (0, 0, 0),
        ChannelConfig(),
        3,
    ),
    # the step stops one round before c0's train ends; c1 then runs its
    # last three packets alone, inline
    "lockstep-unequal-packets": (
        [TransmissionRequest(0, 10_000, 3, 23), TransmissionRequest(1, 10_000, 6, 23)],
        (0, 0),
        ChannelConfig(),
        3,
    ),
    # rounds start at 58 + 81 * j and end at 81 + 81 * j. c2's sense at 280,
    # in the AIFS before round 3, ends the step after round 1: c2 waits
    # out an AIFS and defers at round 3's start
    "lockstep-sense-inside-stretch": (
        [_LONG, _LONG.replace(id=1), _OTHER.replace(id=2)],
        (0, 0, 280),
        ChannelConfig(),
        3,
    ),
    # c2 senses at round 3's commit instant (301); rounds 0 and 1 run in
    # the step, and c2 defers at round 3's start
    "lockstep-sense-at-commit": (
        [_LONG, _LONG.replace(id=1), _OTHER.replace(id=2)],
        (0, 0, 301),
        ChannelConfig(),
        3,
    ),
    # c2 senses at round 2's end (243), together with c0 and c1
    "lockstep-sense-at-round-end": (
        [_LONG, _LONG.replace(id=1), _OTHER.replace(id=2)],
        (0, 0, 243),
        ChannelConfig(),
        3,
    ),
    # no AIFS: round j runs from 23 * j to 23 * (j + 1), so c2's sense at
    # 69 is both round 2's end and round 3's commit; round 2 must end
    # first, and c2 then joins the collision
    "lockstep-aifs-0-sense-at-round-end": (
        [_LONG, _LONG.replace(id=1), _OTHER.replace(id=2)],
        (0, 0, 69),
        ChannelConfig(aifs=0),
        3,
    ),
    # c0 and c1 collide at 58, but c1 is still on air at c0's end (81):
    # c0 defers, so unequal airtimes are never one lock-step group
    "lockstep-unequal-airtime": (
        [TransmissionRequest(0, 10_000, 5, 23), TransmissionRequest(1, 10_000, 5, 24)],
        (0, 0),
        ChannelConfig(),
        3,
    ),
    # c1 and c2 defer on c0's packet with 3 slots and c3 with 4 (seed
    # 2759). c1 and c2 commit at 81 + 58 + 3 * 13 = 178 and collide in
    # lock-step; their first busy edge counts 3 slots, so c3's target lies
    # exactly one slot past the clock, and its commit falls one slot after
    # each round's start. The group's later rounds run in one step over
    # it, and c3 commits at 525 + 58 + 13 = 596, after the last round
    "lockstep-over-target-one-slot-past-clock": (
        [
            TransmissionRequest(0, 10_000, 1, 23),
            _LONG.replace(id=1, packet_count=5),
            _LONG.replace(id=2, packet_count=5),
            TransmissionRequest(3, 10_000, 1, 23),
        ],
        (0, 60, 62, 64),
        ChannelConfig(),
        2759,
    ),
    # the same with one packet each for c1 and c2: their group has no round
    # to run in one step, and its busy edge at 178 counts 3 slots as any
    # other does, so c3 commits at 201 + 58 + 13 = 272
    "lockstep-single-round-over-deferred": (
        [TransmissionRequest(i, 10_000, 1, 23) for i in range(4)],
        (0, 60, 62, 64),
        ChannelConfig(),
        2759,
    ),
    # no AIFS: c2 defers on round 0 (seed 3 draws 3 slots), and c0 and c1
    # sense and commit at round 0's end (23), the idle edge itself; the
    # later rounds run in one step over c2's frozen countdown
    "lockstep-over-deferred-aifs-0": (
        [_LONG, _LONG.replace(id=1), TransmissionRequest(2, 10_000, 1, 23)],
        (0, 0, 5),
        ChannelConfig(aifs=0),
        3,
    ),
    # c3 senses idle at 1 and still waits out its AIFS when c0..c2 start
    # together at 58; with cw 1 it draws 0 at that busy edge and joins the
    # group's next round at 139, so the rounds must not run in one step
    "lockstep-waiter-draws-0": (
        [_LONG.replace(id=i, packet_count=5) for i in range(3)]
        + [TransmissionRequest(3, 10_000, 1, 23)],
        (0, 0, 0, 1),
        ChannelConfig(cw=1),
        3,
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_simulate_edges_equal_reference(name):
    requests, starts, channel, seed = EDGE_CASES[name]
    assert_simulate_equals_reference(requests, Schedule(starts), channel, seed)


def test_holder_and_waiter_commit_in_position_order():
    # the holders' commits and the waiter's commit share one instant and
    # resolve by position, before any of the three starts
    requests, starts, channel, seed = EDGE_CASES["holder-and-waiter-commit-together"]
    trace = assert_simulate_equals_reference(requests, Schedule(starts), channel, seed)
    assert [line for line in trace if line.startswith("139 ")] == [
        "139 c1 backoff-aifs->tx-pending",
        "139 c2 aifs-wait->tx-pending",
        "139 c3 backoff-aifs->tx-pending",
        "139 c1 tx-pending->transmitting",
        "139 c2 tx-pending->transmitting",
        "139 c3 tx-pending->transmitting",
    ]


def test_idle_sense_with_pending_contender_equals_reference():
    # c1 defers at 60 and, at seed 1, draws 2 slots; at c0's packet end
    # (81) it contends with a commit at 81 + 58 + 26 = 165, after c0's
    # next packet would end (162). c0 senses idle at 81 but must still
    # wait its AIFS and start at 139, freezing c1's countdown there.
    requests = [TransmissionRequest(0, 10_000, 2, 23), _OTHER]
    trace = assert_simulate_equals_reference(
        requests, Schedule((0, 60)), ChannelConfig(), 1
    )
    assert "81 c0 sensing->aifs-wait" in trace
    assert "139 c1 backoff-countdown->backoff-wait-idle" in trace


def test_shared_zero_target_commits_together():
    # c0's packet is on air from 58 to 81; c1..c6 sense it busy and, with
    # cw 1, all draw 0 and share one target. At the idle edge (81) all six
    # commit at 81 + 58 = 139 and collide.
    requests = [TransmissionRequest(i, 10_000, 1, 23) for i in range(7)]
    starts = (0, 60, 62, 64, 66, 68, 70)
    trace = assert_simulate_equals_reference(
        requests, Schedule(starts), ChannelConfig(cw=1), 4
    )
    commits = [line for line in trace if line.endswith("->tx-pending")]
    assert commits[1:] == [f"139 c{i} backoff-aifs->tx-pending" for i in range(1, 7)]
    report = simulate(requests, Schedule(starts), ChannelConfig(cw=1), 4)
    assert [c.collided for c in report.per_connection] == [0] + [1] * 6
    assert report.backoff_activations == 6


# requests on a 10 us step, and the lexicographically first optimum
EXHAUSTIVE_CASES = {
    # saturated, N=4 and G=16: 1500 us trains in 150 us windows overlap
    # pairwise whatever the starts, and six assignments tie at the minimum
    "saturated": (
        [TransmissionRequest(i, 1650, 1, 1500) for i in range(4)],
        (0, 0, 150, 150),
    ),
    # 1,680 of the 14,641 assignments have no overlap at all
    "many-zero-optima": (
        [TransmissionRequest(i, 115, 1, 15) for i in range(4)],
        (0, 20, 40, 60),
    ),
}


@pytest.mark.parametrize("name", sorted(EXHAUSTIVE_CASES))
def test_exhaustive_cases_equal_reference(name):
    requests, starts = EXHAUSTIVE_CASES[name]
    config = SchedulerConfig(step=10)
    expected = reference.exhaustive(requests, config)
    assert expected.schedule.starts == starts
    assert exhaustive_schedule(requests, config) == expected


def test_saturated_bound_cuts_last_level_scans(monkeypatch):
    # without the bound on a penultimate choice, the walk scans the last
    # level for all 4,096 (penultimate, earlier) prefixes of this instance;
    # with it, 329, and 384 if ties with the best were not cut
    scans = []
    first_least = schedulers._first_least

    def counted(base, row):
        scans.append(1)
        return first_least(base, row)

    monkeypatch.setattr(schedulers, "_first_least", counted)
    requests, starts = EXHAUSTIVE_CASES["saturated"]
    assert exhaustive_schedule(requests, SchedulerConfig(step=10)).schedule.starts == starts
    assert len(scans) <= 329


def test_exhaustive_one_point_grids_do_not_recurse():
    # one-point grids keep the product at 1, so the cap does not bound N;
    # a recursive walk would exceed the interpreter's recursion limit
    requests = [TransmissionRequest(i, 23 + i % 5, 1, 23) for i in range(1200)]
    result = exhaustive_schedule(requests, SchedulerConfig(step=50))
    assert result.candidate_evaluations == 1
    assert result.schedule.starts == (0,) * 1200
    assert result.cost == total_cost(result.schedule, requests)
