"""Hypothesis strategies shared by the simulator tests."""

from hypothesis import strategies as st

from txsched import ChannelConfig, Schedule, TransmissionRequest


@st.composite
def channel_runs(
    draw, max_n=6, max_start_slot=12, max_packets=4, max_cw=6, lockstep=False,
    off_grid=0,
):
    """Senders and a channel built for ties: starts on the slot grid,
    airtimes in whole slots and AIFS often a slot multiple, so idle and
    busy edges, AIFS ends and slot ends keep landing on one instant. Half
    the examples repeat connection ids; the others shuffle distinct ids so
    that id order differs from position order. Starts spread over many
    slots with long trains leave runs of uncontended packets between the
    contended ones. Deadlines run from before the start (every packet
    late) to the train's uncontended end, so they often fall mid-train.
    With ``lockstep``, every sender has one airtime and starts on a
    multiple of aifs + airtime, so senders that meet collide together for
    many packets. ``off_grid`` adds up to that many further senders of one
    or two packets and any airtime, starting off that grid among the
    group's rounds: they sense a round busy or wait out an AIFS into one,
    so a group often starts again while they are deferred."""
    slot = draw(st.integers(1, 4))
    aifs = draw(st.sampled_from((0, slot, 2 * slot, draw(st.integers(0, 9)))))
    cw = draw(st.integers(1, max_cw))
    loss = draw(st.sampled_from((0.0, 0.3)))
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        ids = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    else:
        ids = draw(st.permutations(range(n)))
    shared = slot * draw(st.integers(1, 4)) if lockstep else None
    unit = aifs + shared if lockstep else slot
    starts = tuple(unit * draw(st.integers(0, max_start_slot)) for _ in range(n))
    requests = []
    for i in range(n):
        packets = draw(st.integers(1, max_packets))
        airtime = shared or slot * draw(st.integers(1, 4))
        end = starts[i] + packets * (aifs + airtime)
        requests.append(
            TransmissionRequest(ids[i], draw(st.integers(0, end)), packets, airtime)
        )
    for i in range(draw(st.integers(1, off_grid)) if off_grid else 0):
        offset = draw(st.integers(1, max(1, unit - 1)))
        start = unit * draw(st.integers(0, max_start_slot)) + offset
        packets = draw(st.integers(1, 2))
        airtime = slot * draw(st.integers(1, 4))
        end = start + packets * (aifs + airtime)
        requests.append(
            TransmissionRequest(n + i, draw(st.integers(0, end)), packets, airtime)
        )
        starts += (start,)
    channel = ChannelConfig(
        slot_time=slot, aifs=aifs, cw=cw, ambient_loss_rate=loss
    )
    return requests, Schedule(starts), channel, draw(st.integers(0, 2**16))


@st.composite
def spaced_runs(draw, overlap=True):
    """Two to five trains laid out one after another in a shuffled position
    order: each starts at the planned end of the one before it (start +
    packets * (airtime + overhead)), some way after it or, with
    ``overlap``, some way before it, down to the same start. Without
    ``overlap`` every overhead is at least the AIFS, often equal to it, so
    the schedule has zero total cost and trains often start exactly where
    another ends on air. With it, overheads also fall below the AIFS, so a
    train's planned end can come before its end on air. Each deadline lies
    between its start and a little past its uncontended end."""
    slot = draw(st.integers(1, 4))
    aifs = draw(st.sampled_from((0, slot, 2 * slot, draw(st.integers(0, 9)))))
    cw = draw(st.integers(1, 6))
    loss = draw(st.sampled_from((0.0, 0.3)))
    n = draw(st.integers(2, 5))
    shapes = []
    for _ in range(n):
        packets = draw(st.integers(1, 4))
        airtime = draw(st.integers(1, 4 * slot))
        if overlap:
            overhead = draw(st.sampled_from((aifs, 0, aifs // 2, aifs + 1)))
        else:
            overhead = aifs + draw(st.integers(0, 2))
        shapes.append((packets, airtime, overhead))
    starts = [0] * n
    at = draw(st.integers(0, 200))  # the planned end of the last train laid
    planned = 0  # that train's planned duration
    for i in draw(st.permutations(range(n))):
        gap = draw(st.one_of(st.just(0), st.integers(1, 30)))
        if overlap and draw(st.booleans()):
            gap = -draw(st.integers(1, max(1, planned)))
        starts[i] = max(0, at + gap)
        packets, airtime, overhead = shapes[i]
        planned = packets * (airtime + overhead)
        at = starts[i] + planned
    requests = [
        TransmissionRequest(
            i, start + draw(st.integers(0, packets * (aifs + airtime) + 20)),
            packets, airtime, overhead,
        )
        for i, (start, (packets, airtime, overhead)) in enumerate(zip(starts, shapes))
    ]
    channel = ChannelConfig(
        slot_time=slot, aifs=aifs, cw=cw, ambient_loss_rate=loss
    )
    return requests, Schedule(tuple(starts)), channel, draw(st.integers(0, 2**16))
