"""Hypothesis strategies shared by the simulator tests."""

from hypothesis import strategies as st

from txsched import ChannelConfig, Schedule, TransmissionRequest


@st.composite
def channel_runs(draw, max_n=6, max_start_slot=12, max_packets=4, max_cw=6):
    """Senders and a channel built for ties: starts on the slot grid,
    airtimes in whole slots and AIFS often a slot multiple, so idle and
    busy edges, AIFS ends and slot ends keep landing on one instant. Half
    the examples repeat connection ids; the others shuffle distinct ids so
    that id order differs from position order. Starts spread over many
    slots with long trains leave runs of uncontended packets between the
    contended ones. Deadlines run from before the start (every packet
    late) to the train's uncontended end, so they often fall mid-train."""
    slot = draw(st.integers(1, 4))
    aifs = draw(st.sampled_from((0, slot, 2 * slot, draw(st.integers(0, 9)))))
    cw = draw(st.integers(1, max_cw))
    loss = draw(st.sampled_from((0.0, 0.3)))
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        ids = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    else:
        ids = draw(st.permutations(range(n)))
    starts = tuple(slot * draw(st.integers(0, max_start_slot)) for _ in range(n))
    requests = []
    for i in range(n):
        packets = draw(st.integers(1, max_packets))
        airtime = slot * draw(st.integers(1, 4))
        end = starts[i] + packets * (aifs + airtime)
        requests.append(
            TransmissionRequest(ids[i], draw(st.integers(0, end)), packets, airtime)
        )
    channel = ChannelConfig(
        slot_time=slot, aifs=aifs, cw=cw, ambient_loss_rate=loss
    )
    return requests, Schedule(starts), channel, draw(st.integers(0, 2**16))
