"""The prefix-integral schedulers and the sweep cost equal the naive
references in ``reference.py`` on schedule, cost and counter, and the
simulator (shared countdown clock, inline uncontended packets, stretches
of a train run in one step) equals the per-slot reference on report and
trace."""

import itertools
from collections import Counter

import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import channel_runs

from txsched import (
    ChannelConfig,
    Schedule,
    SchedulerConfig,
    TransmissionRequest,
    candidate_grid,
    compute_duration,
    exhaustive_schedule,
    schedulers,
    simulate,
    total_cost,
    tsgs_schedule,
)

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
    }


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
    # _overlaps is called once per entered level (the last level through
    # _least_overlap), with the spans fixed above it
    entered = []
    overlaps = schedulers._overlaps

    def counted(starts, duration, spans):
        entered.append(len(spans))
        return overlaps(starts, duration, spans)

    monkeypatch.setattr(schedulers, "_overlaps", counted)
    reached = set()

    @PROPERTY
    @given(saturated_instances())
    def check(instance):
        requests, config = instance
        expected = reference.exhaustive(requests, config)
        entered.clear()
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


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 400), st.integers(1, 200)), max_size=8))
def test_total_cost_equals_reference(spans):
    requests = [
        TransmissionRequest(i, 10_000, 1, length) for i, (_, length) in enumerate(spans)
    ]
    schedule = Schedule(tuple(start for start, _ in spans))
    assert total_cost(schedule, requests) == reference.total_cost(schedule, requests)


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


def test_exhaustive_one_point_grids_do_not_recurse():
    # one-point grids keep the product at 1, so the cap does not bound N;
    # a recursive walk would exceed the interpreter's recursion limit
    requests = [TransmissionRequest(i, 23 + i % 5, 1, 23) for i in range(1200)]
    result = exhaustive_schedule(requests, SchedulerConfig(step=50))
    assert result.candidate_evaluations == 1
    assert result.schedule.starts == (0,) * 1200
    assert result.cost == total_cost(result.schedule, requests)
