"""The prefix-integral schedulers and the sweep cost equal the naive
references in ``reference.py`` on schedule, cost and counter, and the
simulator (shared countdown clock, inline uncontended packets) equals the
per-slot reference on report and trace."""

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
    exhaustive_schedule,
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

EDGE_CASES = {
    # senses together with the train's next packet, both commit at 139
    "start-at-packet-end": ([_TRAIN, _OTHER], (0, 81), ChannelConfig(), 3),
    # senses the last microsecond of a packet and defers
    "start-before-packet-end": ([_TRAIN, _OTHER], (0, 80), ChannelConfig(), 3),
    # senses after the train's commit, before its start, then defers at
    # the busy edge; with the ids swapped it senses before the commit
    "start-at-commit": ([_TRAIN, _OTHER], (0, 58), ChannelConfig(), 3),
    "start-at-commit-lower-id": (
        [TransmissionRequest(1, 10_000, 3, 23), TransmissionRequest(0, 10_000, 2, 23)],
        (0, 58),
        ChannelConfig(),
        3,
    ),
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
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_simulate_edges_equal_reference(name):
    requests, starts, channel, seed = EDGE_CASES[name]
    assert_simulate_equals_reference(requests, Schedule(starts), channel, seed)


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


def test_exhaustive_one_point_grids_do_not_recurse():
    # one-point grids keep the product at 1, so the cap does not bound N;
    # a recursive walk would exceed the interpreter's recursion limit
    requests = [TransmissionRequest(i, 23 + i % 5, 1, 23) for i in range(1200)]
    result = exhaustive_schedule(requests, SchedulerConfig(step=50))
    assert result.candidate_evaluations == 1
    assert result.schedule.starts == (0,) * 1200
    assert result.cost == total_cost(result.schedule, requests)
