"""Deterministic event-driven simulation of one shared broadcast channel.

Every sender hears every other sender (a single collision domain) and
follows a simplified, non-acknowledged CSMA/CA discipline for each packet
of its train:

1. At its turn (the scheduled start, or right after its previous packet),
   sense the channel.
2. Idle: wait one AIFS. If the channel stays idle throughout, transmit.
3. Busy at the sense, or busy before the AIFS completes: defer. Draw a
   backoff of uniform [0, cw - 1] slots, once per packet. Then, each time
   the channel goes idle, wait a full AIFS and count the backoff down one
   slot at a time; transmit when it reaches zero. Any interruption by a
   new transmission freezes the remaining slot count (a partially waited
   AIFS or slot restarts from scratch after the next idle transition).

Broadcast gives the sender no feedback, so there are no retransmissions,
no acknowledgements, and no contention-window doubling. Two transmissions
whose airtimes overlap in time destroy each other: every packet involved
is counted as collided at all receivers, though each still occupies the
channel for its full airtime. Airtime intervals are half-open, so a packet
starting exactly when another ends is clean.

Determinism is absolute: events are taken in (time, priority, position)
order, with transmission endings resolved before same-instant sense/timer
decisions, and every sender that commits at an instant starts only once
no decision remains at it. Senders whose access decisions land on the
same instant therefore transmit together and collide, with no hidden
jitter. Identical (requests, schedule, channel config, seed) reproduce
byte-identical reports.

A sender's identity is its position in the request list: it breaks
same-instant ties, names the sender ``cN`` in traces and orders the
report. Connection ids play no part, so two requests may share one.

The countdown still means one decrement per idle slot, but no sender
counts: the channel keeps one clock of idle slots counted, and a deferring
sender stores the target clock + b. At an idle edge t the holders of the
least target L commit at t + aifs + (L - clock) * slot_time. At the next
busy edge T the clock advances by (T - t - aifs) // slot_time (a slot
ending exactly at T counts, as decisions resolve before starts). The live
targets are dict keys with a heap beside them, not a ring of cw buckets,
as cw has no upper bound. So an edge costs O(1) beyond its fresh draws
(in position order, from the shared RNG) and its earliest commits.

Every pending commit (an AIFS-waiter's, or a least-target holder's) is a
timer in a second, small heap beside the event heap; the loop takes the
smaller top of the two. Any commit pending at a busy edge is void, so the
edge clears the timer heap outright and nothing void is ever popped. A
commit does not queue its start: the sender joins a list of those
committed at the current instant, and once neither heap holds another
event at that instant they start in position order, colliding if more
than one starts or the channel is already busy. A contended packet thus
costs a few heap operations: its sense, its commit and its end.

A packet that nothing can contend with costs no events at all. When a
sender senses an idle channel, no other sender is waiting out an AIFS or
has committed at this instant and not yet started, and no queued event
falls before the packet's end at now + aifs + airtime, its AIFS, start
and end run inline. An event at exactly the end may stay queued, since
an ending resolves before anything else at its instant. Outcome
accounting and the ambient-loss draw happen where the queued events would
have made them, so the RNG order and every output byte are unchanged. A
trace keeps every packet on the queued route.

Deferred senders need not stop an inline packet. If the least-target
holders' commit (then the timer heap's top) falls strictly after
now + aifs, every countdown is still frozen when the packet starts, and
the start is a busy edge done in place: the clock advances by the slots
the idle period has counted, (now - idle_since) // slot_time, and the
timers clear. A commit at exactly now + aifs starts together with this
packet and collides, so it takes the queued route. This is capture: with
no post-backoff, a sender that has just transmitted senses again at once,
and while its idle gaps are one AIFS the frozen countdowns count no slot.

A sender whose packet runs inline also runs, in one step, every further
packet of its train that ends by the next queued event (the heap's top
time h). With period P = aifs + airtime and k packets left,
m = min(k, (h - now) // P) packets fit, and packet j ends at now + j * P.
Over frozen senders every packet of the stretch ends in an idle edge and
starts in a busy edge that counts no slot, so the step holds unchanged.
Only the ambient-loss draws, in packet order, are taken one by one;
lateness is end > deadline, and the ends join the end sum (below) in one
term. The last of the m packets is accounted as a single inline packet,
so the train's end and a re-queue at an instant shared with another event
keep one definition.

Senders that start together collide, and if they share one airtime a and
the channel was idle, with nobody waiting out an AIFS, they end together,
sense together and start together again one period P = aifs + a later:
they collide in lock-step until a train ends or a queued event (a
sender's first sense) breaks in. Untraced, the group accounts its next
rounds = min(k - 1, (h - now - 1) // P) collided packets in one step, k
being the fewest packets any member has left, so every queued event falls
strictly after the start of the last round, which the group starts as a
queued one. Collided packets take no loss draw and count no lateness;
the rounds' ends join each member's end sum in one term.

Deferred senders need not stop the stretch either; the capture argument
holds for a group. The group's first busy edge leaves every deferred
target beyond the clock, since a target the idle period had reached would
have committed with the group. Every later idle gap is one AIFS and
counts no slot, so the countdowns stay frozen for the whole stretch and no
commit falls at a round's start. When rounds > 0 the step makes the first
round's busy edge, clock += (now - idle_since - aifs) // slot_time, and
sets idle_since to the end of the last batched round, so the last round's
queued busy edge counts no slot and clears the timers. A sender waiting
out an AIFS does stop it: it draws at the group's busy edge, and a draw
of 0 joins the next round.

No packet's delay is kept. Each sender sums its packets' end times: m
packets from end E, P apart, add m * E + P * m(m - 1) / 2. Uncontended,
packet j ends at start + j * P, so the report's delay is that end sum
less sent * start + P * sent(sent + 1) / 2.
"""

from __future__ import annotations

import heapq
import random
from operator import attrgetter

from .core import (
    Schedule, TimePoint, TimeSpan, TransmissionRequest, _check_bound, _check_counts,
    _check_int, _check_type, _Record,
)

# Same-instant resolution order. Endings free the channel before anyone
# senses or commits; senders that commit start once every decision made at
# that instant is done, outside the heaps.
_PRIO_TX_END = 0
_PRIO_DECISION = 1

# Event kinds. Packet ends and senses go in the event heap; commits and
# countdown marks are timers, kept in a second heap that a busy edge
# clears. A countdown mark only prints the "backoff-aifs->backoff-countdown"
# line where a contender's AIFS ends, and is pushed only when a trace is
# kept.
_TX_END, _SENSE, _COMMIT, _COUNTDOWN_MARK = range(4)


class ChannelConfig(_Record):
    """MAC and channel parameters shared by all senders.

    Each sender's on-air duration is its request's airtime.
    ``ambient_loss_rate`` is an independent per-packet loss probability
    applied to packets that did not collide, standing in for every
    non-collision loss source (fading, noise, distance).
    """

    slot_time: TimeSpan = 13
    aifs: TimeSpan = 58
    cw: int = 15
    ambient_loss_rate: float = 0.0

    def _check(self) -> None:
        for name in ("slot_time", "aifs", "cw"):
            _check_int(name, getattr(self, name))
        loss = self.ambient_loss_rate
        if type(loss) not in (int, float):  # a bool would pass the range check
            raise ValueError(
                f"ambient_loss_rate must be an int or a float, got {loss!r}"
            )
        _check_bound("slot_time", self.slot_time, ">", 0)
        _check_bound("aifs", self.aifs, ">=", 0)
        _check_bound("cw", self.cw, ">=", 1)
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"ambient_loss_rate must be in [0, 1], got {loss}")


class SenderState:
    """Mutable per-connection state advanced by the event loop.

    ``phase`` is named as the trace prints it. The nine phases are
    idle-until-start, sensing, aifs-wait, backoff-wait-idle, backoff-aifs,
    backoff-countdown, tx-pending, transmitting and done; "sensing" and
    "done" are only printed, and "tx-pending" lasts one instant. The three
    backoff-* phases refine the deferred state and are told apart only with
    a trace: without one a deferred sender stays "backoff-wait-idle", and
    only a commit reads the phase. ``backoff_target`` is the
    channel clock reading at which its countdown reaches zero, fixed from
    the draw to the commit. ``count`` is the train's packet count, kept
    once: the packets left are ``count - sent``. ``end_total`` sums the
    sent packets' end times; ``last_tx_end`` is set at the train's end.
    """

    __slots__ = (
        "scheduled_start", "airtime", "deadline", "count",
        "phase", "backoff_target", "current_collided",
        # outcome counters
        "sent", "received", "collided", "ambient_lost", "delivered_late",
        "end_total", "last_tx_end",
    )

    def __init__(
        self, request: TransmissionRequest, scheduled_start: TimePoint
    ) -> None:
        self.scheduled_start = scheduled_start
        self.airtime = request.packet_airtime
        self.deadline = request.deadline
        self.count = request.packet_count
        self.phase = "idle-until-start"
        self.backoff_target = 0
        self.current_collided = False
        self.sent = 0
        self.received = 0
        self.collided = 0
        self.ambient_lost = 0
        self.delivered_late = 0
        self.end_total = 0
        self.last_tx_end = 0


class ConnectionStats(_Record):
    """Final per-connection outcome counters.

    Conservation holds exactly: sent = received + collided + ambient_lost.
    ``delivered_late`` is the subset of received packets that finished
    after the deadline.
    ``realized_duration_us`` spans from the scheduled start, when the
    sender first contends, to its last packet's end; under zero contention
    it equals packet_count * (aifs + airtime). ``delay_total_us`` sums,
    over all sent packets, how far each packet's end lagged behind that
    uncontended pace.
    """

    sent: int
    received: int
    collided: int
    ambient_lost: int
    delivered_late: int
    delay_total_us: int
    realized_duration_us: TimeSpan


class SimReport(_Record):
    """Outcome of one simulation run; ``per_connection`` is in request order."""

    per_connection: tuple[ConnectionStats, ...]
    backoff_activations: int

    @property
    def total_sent(self) -> int:
        return sum(c.sent for c in self.per_connection)

    @property
    def total_received(self) -> int:
        return sum(c.received for c in self.per_connection)

    @property
    def total_collided(self) -> int:
        return sum(c.collided for c in self.per_connection)

    @property
    def total_ambient_lost(self) -> int:
        return sum(c.ambient_lost for c in self.per_connection)


def _run(
    senders: list[SenderState],
    channel: ChannelConfig,
    seed: int,
    trace: list[str] | None,
) -> int:
    """Advance every sender through its whole train; return the number of
    backoff activations.

    Entries of both heaps are ``(time, priority, position, kind)``, all
    ints: ``heap`` holds senses and packet ends, ``timers`` commits and
    countdown marks. A busy edge clears ``timers``; every entry still in
    it is live. A commit appends its sender to ``starting``, and the
    start block at the end of an iteration runs once neither heap holds
    an event at ``now``; untraced and with nobody waiting out an AIFS, a
    lock-step group (see the module docstring) first takes all its rounds
    but the last in one step, over any frozen countdowns. The
    handlers are inlined here. Only a trace makes an edge visit every
    sender (in position order, for its line and its phase).

    Senses and packet ends share one block, so a packet run inline (see
    the module docstring) is accounted for by the same code as a queued
    one. With frozen senders an inline end is an idle edge, which queues
    the least-target holders' commit, and the next in-place start clears
    it. After any end the sender's next sense runs at once, unless another
    event or timer is queued at that instant; ``starting`` is always empty
    at an end, as endings resolve first and an inline packet needs it
    empty. An inline packet first takes the packets of its train before the
    last one that ends by the heap's top time in one arithmetic step.

    A backoff is ``getrandbits(cw.bit_length())`` redrawn while >= cw,
    the body of ``Random._randbelow_with_getrandbits`` that
    ``randrange(cw)`` runs: the same draws from the same generator.
    """
    rng = random.Random(seed)
    aifs = channel.aifs
    slot = channel.slot_time
    cw = channel.cw
    width = cw.bit_length()
    loss = channel.ambient_loss_rate
    push = heapq.heappush
    pop = heapq.heappop
    draw = rng.random
    bits = rng.getrandbits
    traced = trace is not None

    active: dict[int, SenderState] = {}  # on air, by position
    waiting: set[int] = set()  # aifs-wait
    # backoff target -> holders: the contenders while idle, the frozen while busy
    deferred: dict[int, set[int]] = {}
    targets: list[int] = []  # min-heap of deferred's keys
    clock = 0  # idle slots counted down by every deferred sender
    idle_since = 0
    activations = 0
    timers: list[tuple[int, int, int, int]] = []  # commits and marks
    starting: list[int] = []  # committed at now, in position order

    def defer(p: int) -> None:
        # draw a fresh backoff for sender p, as randrange(cw) would, and
        # file it under its target
        b = bits(width)
        while b >= cw:
            b = bits(width)
        senders[p].phase = "backoff-wait-idle"
        senders[p].backoff_target = target = clock + b
        holders = deferred.get(target)
        if holders is None:
            holders = deferred[target] = set()
            push(targets, target)
        holders.add(p)

    heap = [
        (s.scheduled_start, _PRIO_DECISION, p, _SENSE) for p, s in enumerate(senders)
    ]
    heapq.heapify(heap)
    while heap or timers:
        if timers and (not heap or timers[0] < heap[0]):
            now, _prio, pos, kind = pop(timers)
        else:
            now, _prio, pos, kind = pop(heap)
        s = senders[pos]
        if kind == _COMMIT:
            if traced:
                trace.append(f"{now} c{pos} {s.phase}->tx-pending")
            if s.phase == "aifs-wait":
                waiting.remove(pos)
            else:
                holders = deferred[s.backoff_target]
                holders.remove(pos)
                if not holders:  # the least target, on top since its idle edge
                    del deferred[s.backoff_target]
                    pop(targets)
            s.phase = "tx-pending"
            starting.append(pos)

        elif kind == _COUNTDOWN_MARK:  # only with a trace
            trace.append(f"{now} c{pos} backoff-aifs->backoff-countdown")
            s.phase = "backoff-countdown"

        else:
            # a sense or a packet end, then the same sender's next ones
            # for as long as each is the next event (see the docstring)
            while True:
                if kind == _SENSE:
                    if traced:
                        trace.append(f"{now} c{pos} {s.phase}->sensing")
                    if active:
                        # first contention for this packet: draw the backoff
                        defer(pos)
                        activations += 1
                        if traced:
                            trace.append(f"{now} c{pos} sensing->backoff-wait-idle")
                        break
                    if traced:
                        trace.append(f"{now} c{pos} sensing->aifs-wait")
                    end = now + aifs + s.airtime
                    if (
                        waiting or starting or (heap and heap[0][0] < end)
                        or (deferred and timers[0][0] <= now + aifs)
                        or traced
                    ):
                        s.phase = "aifs-wait"
                        push(timers, (now + aifs, _PRIO_DECISION, pos, _COMMIT))
                        waiting.add(pos)
                        break
                    # uncontended: no other event comes before this packet's
                    # end, and at the end its own ending resolves first
                    if deferred:
                        # every countdown is frozen past this start: its
                        # busy edge, in place
                        clock += (now - idle_since) // slot
                        timers.clear()
                    # the packets before the last one to end by the next
                    # queued event, in one step (see the docstring)
                    period = aifs + s.airtime
                    batch = s.count - s.sent - 1
                    if heap:
                        batch = min(batch, (heap[0][0] - now) // period - 1)
                    if batch > 0:
                        # packet i of the stretch ends at end + i * period
                        first_late = max(0, (s.deadline - end) // period + 1)
                        lost = lost_late = 0
                        if loss > 0:
                            for i in range(batch):
                                if draw() < loss:
                                    lost += 1
                                    if i >= first_late:
                                        lost_late += 1
                        s.sent += batch
                        s.received += batch - lost
                        s.ambient_lost += lost
                        # a lost packet is never late
                        s.delivered_late += max(0, batch - first_late) - lost_late
                        s.end_total += batch * end + batch * (batch - 1) // 2 * period
                        end += batch * period
                    s.current_collided = False
                    now = end
                else:
                    del active[pos]
                s.sent += 1
                if s.current_collided:
                    s.collided += 1
                    outcome = "collided"
                elif loss > 0 and draw() < loss:
                    s.ambient_lost += 1
                    outcome = "ambient-lost"
                else:
                    s.received += 1
                    if now > s.deadline:
                        s.delivered_late += 1
                    outcome = "received"
                if traced:
                    trace.append(f"{now} c{pos} packet {s.sent - 1} {outcome}")
                s.end_total += now
                if not active and deferred:
                    # idle edge: every deferred sender restarts its AIFS now,
                    # and the holders of the least target commit first
                    idle_since = now
                    least = targets[0]
                    commit_at = now + aifs + (least - clock) * slot
                    for p in deferred[least]:
                        push(timers, (commit_at, _PRIO_DECISION, p, _COMMIT))
                    if traced:
                        for p, other in enumerate(senders):
                            if other.phase != "backoff-wait-idle":
                                continue
                            trace.append(f"{now} c{p} backoff-wait-idle->backoff-aifs")
                            other.phase = "backoff-aifs"
                            if other.backoff_target != clock:
                                mark = (now + aifs, _PRIO_DECISION, p, _COUNTDOWN_MARK)
                                push(timers, mark)
                if s.sent == s.count:
                    s.last_tx_end = now
                    if traced:
                        trace.append(f"{now} c{pos} transmitting->done")
                    break
                if (heap and heap[0][0] <= now) or (timers and timers[0][0] <= now):
                    # another event at this instant may resolve first
                    push(heap, (now, _PRIO_DECISION, pos, _SENSE))
                    break
                kind = _SENSE

        if not starting or (heap and heap[0][0] == now) or (
            timers and timers[0][0] == now
        ):
            continue
        if len(starting) > 1 and not traced and not (active or waiting):
            # with equal airtimes, a lock-step group: its rounds before the
            # last one to start before the next queued event collide in one
            # step, over frozen countdowns (see the docstring)
            first = senders[starting[0]]
            a = first.airtime
            left = first.count - first.sent  # the fewest packets left
            for p in starting:
                m = senders[p]
                if m.airtime != a:
                    break
                if m.count - m.sent < left:
                    left = m.count - m.sent
            else:
                period = aifs + a
                rounds = left - 1
                if heap:
                    rounds = min(rounds, (heap[0][0] - now - 1) // period)
                # round j ends at now + a + j * period
                ends = rounds * (now + a) + rounds * (rounds - 1) // 2 * period
                for p in starting:
                    m = senders[p]
                    m.end_total += ends
                    m.sent += rounds
                    m.collided += rounds
                if rounds > 0 and deferred:
                    # the first round's busy edge; the last round's then
                    # counts no slot from the end of the round before it
                    clock += (now - idle_since - aifs) // slot
                    idle_since = now + (rounds - 1) * period + a
                now += rounds * period
        # every decision at this instant is made: the committed senders
        # start, in position order
        for pos in starting:
            s = senders[pos]
            if traced:
                trace.append(f"{now} c{pos} tx-pending->transmitting")
            s.phase = "transmitting"
            push(heap, (now + s.airtime, _PRIO_TX_END, pos, _TX_END))
            if active:
                # overlap on start destroys every packet in the air, ours included
                for other in active.values():
                    other.current_collided = True
                s.current_collided = True
                active[pos] = s
                continue
            s.current_collided = False
            active[pos] = s
            if not (waiting or deferred):
                continue
            # busy edge: drop every pending commit and freeze every countdown
            timers.clear()
            if deferred:
                clock += (now - idle_since - aifs) // slot
            if traced:
                for p, other in enumerate(senders):
                    if other.phase in (
                        "aifs-wait", "backoff-aifs", "backoff-countdown"
                    ):
                        trace.append(f"{now} c{p} {other.phase}->backoff-wait-idle")
                        other.phase = "backoff-wait-idle"
            if waiting:
                for p in sorted(waiting):  # fresh draws in input order
                    defer(p)
                activations += len(waiting)
                waiting.clear()
        starting.clear()
    return activations


_train = attrgetter("packet_count", "packet_airtime")


def _closed_starts(
    starts: tuple[TimePoint, ...], trains: tuple[tuple[int, int], ...], aifs: TimeSpan
) -> tuple[TimePoint, ...]:
    """The starts as `simulate`'s memo files them, with every idle gap
    closed that a shift cannot change (see `simulate`): one walk in start
    order, ties by position, that moves each train back to where every
    earlier one ends and stops at the first overlap. A packed schedule,
    whose second train in start order overlaps the first, costs one sort
    and one subtraction pass."""
    order = sorted(range(len(starts)), key=starts.__getitem__)
    closed = list(starts)
    end = gap = 0  # where every train walked so far ends; the gaps closed
    for k, i in enumerate(order):
        start = starts[i] - gap
        if start < end:
            for i in order[k:]:
                closed[i] -= gap
            break
        gap += start - end
        closed[i] = end
        count, airtime = trains[i]
        end += count * (aifs + airtime)
    return tuple(closed)


def simulate(
    requests: list[TransmissionRequest] | tuple,
    schedule: Schedule,
    channel: ChannelConfig,
    seed: int,
    trace: list[str] | None = None,
    *,
    memo: dict | None = None,
) -> SimReport:
    """Run every sender's packet train to completion and report outcomes.

    Each connection i starts contending for the channel at
    ``schedule.starts[i]`` and transmits ``requests[i].packet_count``
    packets of ``requests[i].packet_airtime`` each under the module's
    CSMA/CA discipline. The run always completes all trains; deadline
    overruns are counted in each connection's ``delivered_late``, never
    prevented.

    ``trace``, when given a list, receives one human-readable line per
    phase transition (``TIME cN OLD->NEW``) and per packet outcome
    (``TIME cN packet K received|collided|ambient-lost``), N being the
    sender's position in ``requests``.

    ``memo``, when given a dict, lets repeated untraced calls share one
    run. A run reads each request's packet count and airtime, the channel,
    the seed, and the starts up to the idle gaps that a shift cannot
    change; deadlines only decide which received packets count as late.
    The memo files a run by its starts with those gaps closed: in start
    order, ties by position, the first train moves to 0, and while every
    earlier train has run alone, a train that starts at or after the end
    of every earlier one moves back to that end, a train alone ending
    packet_count * (aifs + airtime) after its start. Such a train finds
    the channel idle with no sender deferred, waiting out an AIFS or
    committed; an ending at its start resolves before its sense, and the
    channel's slot clock is read only while a sender is deferred. So the
    events and the random draws come in the same order, shifted, and every
    report field is measured from the connection's own start. After the
    first overlap a train's end is known only once the run is made, so
    every later train keeps the shift reached there. The memo holds one
    entry per trains and channel: the closed starts of each raw
    ``schedule.starts`` it has seen, so a repeated schedule is closed
    once, and the reports by closed starts and seed. It keeps the
    reports that count no late packet, and returns a kept report of the
    same run when every new deadline falls at or after its connection's
    last packet end, counted from the call's own start, since the fresh
    run would then count none late either. So the result equals a fresh
    run's field for field. A traced call neither reads nor writes the
    memo, and the checks run before the lookup.

    Raises:
        ValueError: ``schedule`` is not a `Schedule` with one start per
            request, a request is not a `TransmissionRequest`, ``channel``
            is not a `ChannelConfig`, or ``seed`` is not an int (None
            would seed the generator from the operating system, so equal
            calls could differ).
    """
    _check_counts(schedule, requests)
    _check_type("channel", channel, ChannelConfig)
    _check_int("seed", seed)
    runs = None
    if memo is not None and trace is None:
        # the trains and channel are shared by every call of an experiment,
        # so the reports are filed by them once, then by closed starts and
        # seed; each schedule's closed starts are made once per entry
        trains = tuple(map(_train, requests))
        entry = memo.get((trains, channel))
        if entry is None:
            entry = memo[trains, channel] = ({}, {})
        closed_of, runs = entry
        starts = schedule.starts
        closed = closed_of.get(starts)
        if closed is None:
            closed = closed_of[starts] = _closed_starts(starts, trains, channel.aifs)
        key = (closed, seed)
        stored = runs.get(key)
        if stored is not None:
            for req, start, c in zip(requests, starts, stored.per_connection):
                if req.deadline < start + c.realized_duration_us:
                    break
            else:
                return stored
    senders = [SenderState(req, start) for req, start in zip(requests, schedule.starts)]
    activations = _run(senders, channel, seed, trace)
    # the delay: the end sum less that of the uncontended ends (see the
    # module docstring)
    stats = tuple(
        ConnectionStats(
            s.sent, s.received, s.collided, s.ambient_lost, s.delivered_late,
            s.end_total - s.sent * s.scheduled_start
            - s.sent * (s.sent + 1) // 2 * (channel.aifs + s.airtime),
            s.last_tx_end - s.scheduled_start,
        )
        for s in senders
    )
    report = SimReport(stats, activations)
    if runs is not None and _kept(report):
        runs[key] = report
    return report


def _kept(report: SimReport) -> bool:
    """Whether `simulate`'s memo keeps ``report``: only if it counts no
    late packet, as a report that counts one is never returned."""
    return not any(c.delivered_late for c in report.per_connection)
