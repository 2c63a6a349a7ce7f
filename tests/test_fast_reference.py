"""The prefix-integral schedulers and the sweep cost equal the naive
references in ``reference.py`` on schedule, cost and counter, and the
simulator's arithmetic countdown equals the per-slot reference on report
and trace."""

import reference
from hypothesis import given, settings
from hypothesis import strategies as st

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


@st.composite
def channel_runs(draw, max_n=6):
    """Senders and a channel built for ties: starts on the slot grid,
    airtimes in whole slots and AIFS often a slot multiple, so idle and
    busy edges, AIFS ends and slot ends keep landing on one instant. Half
    the examples repeat connection ids; the others shuffle distinct ids so
    that id order differs from position order."""
    slot = draw(st.integers(1, 4))
    aifs = draw(st.sampled_from((0, slot, 2 * slot, draw(st.integers(0, 9)))))
    cw = draw(st.integers(1, 6))
    loss = draw(st.sampled_from((0.0, 0.3)))
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        ids = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    else:
        ids = draw(st.permutations(range(n)))
    requests = [
        TransmissionRequest(
            ids[i],
            draw(st.integers(0, 60)),
            draw(st.integers(1, 4)),
            slot * draw(st.integers(1, 4)),
        )
        for i in range(n)
    ]
    starts = tuple(slot * draw(st.integers(0, 12)) for _ in range(n))
    channel = ChannelConfig(
        slot_time=slot, aifs=aifs, cw=cw, ambient_loss_rate=loss
    )
    return requests, Schedule(starts), channel, draw(st.integers(0, 2**16))


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(channel_runs())
def test_simulate_equals_reference(run):
    requests, schedule, channel, seed = run
    trace, expected_trace = [], []
    report = simulate(requests, schedule, channel, seed, trace=trace)
    expected = reference.simulate(
        requests, schedule, channel, seed, trace=expected_trace
    )
    assert report == expected
    assert trace == expected_trace
    # the trace switch changes nothing but the trace
    assert simulate(requests, schedule, channel, seed) == expected


def test_exhaustive_one_point_grids_do_not_recurse():
    # one-point grids keep the product at 1, so the cap does not bound N;
    # a recursive walk would exceed the interpreter's recursion limit
    requests = [TransmissionRequest(i, 23 + i % 5, 1, 23) for i in range(1200)]
    result = exhaustive_schedule(requests, SchedulerConfig(step=50))
    assert result.candidate_evaluations == 1
    assert result.schedule.starts == (0,) * 1200
    assert result.cost == total_cost(result.schedule, requests)
