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

Determinism is absolute: the event queue is ordered by
(time, event-type priority, connection id, insertion order), with
transmission endings resolved before same-instant sense/timer decisions,
and those before same-instant transmission starts. Senders whose access
decisions land on the same instant therefore transmit together and
collide, with no hidden jitter. Identical (requests, schedule, channel
config, seed) reproduce byte-identical reports.

A sender's identity is its position in the request list. Connection ids
are labels only: they break same-instant ties and name senders in traces
and stats, so two requests may share one.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from .core import Schedule, TimePoint, TimeSpan, TransmissionRequest

# Same-instant resolution order. Endings free the channel before anyone
# senses; all starts commit after every decision made at that instant.
_PRIO_TX_END = 0
_PRIO_DECISION = 1
_PRIO_TX_START = 2

# Event kinds, indexing the handler table in `_Sim.run`. Timers come last:
# an event is a timer iff its kind >= _AIFS_END.
_TX_END, _SENSE, _TX_START, _AIFS_END, _BK_AIFS_END, _SLOT_END = range(6)

PHASES = (
    "idle-until-start",
    "sensing",
    "aifs-wait",
    "backoff-wait-idle",
    "backoff-aifs",
    "backoff-countdown",
    "tx-pending",
    "transmitting",
    "done",
)


@dataclass(frozen=True)
class ChannelConfig:
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

    def __post_init__(self) -> None:
        if self.slot_time <= 0:
            raise ValueError(f"slot_time must be > 0, got {self.slot_time}")
        if self.aifs < 0:
            raise ValueError(f"aifs must be >= 0, got {self.aifs}")
        if self.cw < 1:
            raise ValueError(f"cw must be >= 1, got {self.cw}")
        if not 0.0 <= self.ambient_loss_rate <= 1.0:
            raise ValueError(
                f"ambient_loss_rate must be in [0, 1], got {self.ambient_loss_rate}"
            )


@dataclass
class SenderState:
    """Mutable per-connection state advanced by the event loop.

    ``phase`` is one of ``PHASES``; the three backoff-* phases refine the
    deferred state ("sensing" and "tx-pending" only ever persist within a
    single instant). ``backoff_slots_remaining`` is meaningful in the
    backoff-* phases and holds the frozen countdown across busy periods.
    ``timer_token`` invalidates stale timer events: every scheduled or
    cancelled timer bumps it, and an expiry whose token no longer matches
    is ignored.
    """

    position: int
    connection_id: int
    scheduled_start: TimePoint
    airtime: TimeSpan
    deadline: TimePoint
    packets_remaining: int
    phase: str = "idle-until-start"
    backoff_slots_remaining: int = 0
    timer_token: int = 0
    # per-packet bookkeeping
    packet_index: int = 0
    current_tx_start: TimePoint = 0
    current_collided: bool = False
    # outcome counters
    sent: int = 0
    received: int = 0
    collided: int = 0
    ambient_lost: int = 0
    delivered_late: int = 0
    delay_total_us: int = 0
    last_tx_end: TimePoint = 0


@dataclass(frozen=True)
class ConnectionStats:
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

    connection_id: int
    sent: int
    received: int
    collided: int
    ambient_lost: int
    delivered_late: int
    delay_total_us: int
    realized_duration_us: TimeSpan

    @property
    def mean_delay_us(self) -> float:
        return self.delay_total_us / self.sent if self.sent else 0.0


@dataclass(frozen=True)
class SimReport:
    """Outcome of one simulation run."""

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

    @property
    def mean_delay_us(self) -> float:
        sent = self.total_sent
        total = sum(c.delay_total_us for c in self.per_connection)
        return total / sent if sent else 0.0


def pdr(report: SimReport) -> float:
    """Packet delivery ratio: total received / total sent.

    Raises:
        ValueError: the report covers no sent packets.
    """
    if report.total_sent == 0:
        raise ValueError("no packets sent; PDR undefined")
    return report.total_received / report.total_sent


def collision_summary(report: SimReport) -> list[int]:
    """Collided-packet count of each connection, in request order."""
    return [c.collided for c in report.per_connection]


class _Sim:
    """One simulation run; see `simulate` for the public contract."""

    def __init__(
        self,
        requests: list[TransmissionRequest],
        schedule: Schedule,
        channel: ChannelConfig,
        seed: int,
        trace: list[str] | None,
    ) -> None:
        if len(schedule.starts) != len(requests):
            raise ValueError(
                f"schedule has {len(schedule.starts)} starts for "
                f"{len(requests)} requests"
            )
        for start in schedule.starts:
            if start < 0:
                raise ValueError(f"scheduled start must be >= 0, got {start}")
        self.channel = channel
        self.rng = random.Random(seed)
        self.trace = trace
        self.senders = [
            SenderState(
                position=position,
                connection_id=req.id,
                scheduled_start=start,
                airtime=req.packet_airtime,
                deadline=req.deadline,
                packets_remaining=req.packet_count,
            )
            for position, (req, start) in enumerate(zip(requests, schedule.starts))
        ]
        self.active: dict[int, SenderState] = {}
        self.heap: list[tuple] = []
        self.seq = 0
        self.backoff_activations = 0

    # -- event plumbing ------------------------------------------------

    def _push(self, time: TimePoint, prio: int, sender: SenderState, kind: int,
              token: int = -1) -> None:
        self.seq += 1
        heapq.heappush(
            self.heap,
            (time, prio, sender.connection_id, self.seq, sender, kind, token),
        )

    def _schedule_timer(self, sender: SenderState, kind: int, time: TimePoint) -> None:
        # a sender holds at most one live timer; scheduling replaces it
        sender.timer_token += 1
        self._push(time, _PRIO_DECISION, sender, kind, sender.timer_token)

    def _cancel_timer(self, sender: SenderState) -> None:
        sender.timer_token += 1

    def _set_phase(self, sender: SenderState, phase: str, now: TimePoint) -> None:
        if self.trace is not None and phase != sender.phase:
            self.trace.append(
                f"{now} c{sender.connection_id} {sender.phase}->{phase}"
            )
        sender.phase = phase

    def _note_outcome(self, sender: SenderState, now: TimePoint, outcome: str) -> None:
        if self.trace is not None:
            self.trace.append(
                f"{now} c{sender.connection_id} packet {sender.packet_index} {outcome}"
            )

    # -- access decisions ----------------------------------------------

    def _commit(self, sender: SenderState, now: TimePoint) -> None:
        """The access decision is made; the transmission starts this instant."""
        self._set_phase(sender, "tx-pending", now)
        self._push(now, _PRIO_TX_START, sender, _TX_START)

    def _defer(self, sender: SenderState, now: TimePoint) -> None:
        """First contention for this packet: draw the backoff and wait."""
        sender.backoff_slots_remaining = self.rng.randrange(self.channel.cw)
        self.backoff_activations += 1
        self._set_phase(sender, "backoff-wait-idle", now)

    def _on_sense(self, sender: SenderState, now: TimePoint) -> None:
        self._set_phase(sender, "sensing", now)
        if self.active:
            self._defer(sender, now)
        else:
            self._set_phase(sender, "aifs-wait", now)
            self._schedule_timer(sender, _AIFS_END, now + self.channel.aifs)

    def _on_backoff_aifs_end(self, sender: SenderState, now: TimePoint) -> None:
        if sender.backoff_slots_remaining == 0:
            self._commit(sender, now)
        else:
            self._set_phase(sender, "backoff-countdown", now)
            self._schedule_timer(sender, _SLOT_END, now + self.channel.slot_time)

    def _on_slot_end(self, sender: SenderState, now: TimePoint) -> None:
        sender.backoff_slots_remaining -= 1
        if sender.backoff_slots_remaining == 0:
            self._commit(sender, now)
        else:
            self._schedule_timer(sender, _SLOT_END, now + self.channel.slot_time)

    # -- channel occupancy ---------------------------------------------

    def _on_tx_start(self, sender: SenderState, now: TimePoint) -> None:
        was_idle = not self.active
        sender.current_tx_start = now
        sender.current_collided = False
        if self.active:
            # overlap on start destroys every packet in the air, ours included
            for other in self.active.values():
                other.current_collided = True
            sender.current_collided = True
        self.active[sender.position] = sender
        self._set_phase(sender, "transmitting", now)
        self._push(now + sender.airtime, _PRIO_TX_END, sender, _TX_END)
        if was_idle:
            # the idle->busy edge interrupts everyone mid-decision
            for other in self.senders:
                if other is sender:
                    continue
                if other.phase == "aifs-wait":
                    self._cancel_timer(other)
                    self._defer(other, now)
                elif other.phase in ("backoff-aifs", "backoff-countdown"):
                    self._cancel_timer(other)
                    self._set_phase(other, "backoff-wait-idle", now)

    def _on_tx_end(self, sender: SenderState, now: TimePoint) -> None:
        sender.sent += 1
        if sender.current_collided:
            sender.collided += 1
            self._note_outcome(sender, now, "collided")
        elif (
            self.channel.ambient_loss_rate > 0
            and self.rng.random() < self.channel.ambient_loss_rate
        ):
            sender.ambient_lost += 1
            self._note_outcome(sender, now, "ambient-lost")
        else:
            sender.received += 1
            if now > sender.deadline:
                sender.delivered_late += 1
            self._note_outcome(sender, now, "received")
        cycle = self.channel.aifs + sender.airtime
        nominal_end = sender.scheduled_start + (sender.packet_index + 1) * cycle
        sender.delay_total_us += now - nominal_end
        sender.last_tx_end = now
        sender.packet_index += 1
        sender.packets_remaining -= 1
        del self.active[sender.position]
        if not self.active:
            # idle edge: every frozen sender restarts its AIFS now
            for other in self.senders:
                if other.phase == "backoff-wait-idle":
                    self._set_phase(other, "backoff-aifs", now)
                    self._schedule_timer(
                        other, _BK_AIFS_END, now + self.channel.aifs
                    )
        if sender.packets_remaining > 0:
            self._push(now, _PRIO_DECISION, sender, _SENSE)
        else:
            self._set_phase(sender, "done", now)

    # -- main loop -----------------------------------------------------

    def run(self) -> SimReport:
        for sender in self.senders:
            self._push(
                sender.scheduled_start, _PRIO_DECISION, sender, _SENSE
            )
        handlers = (
            self._on_tx_end,
            self._on_sense,
            self._on_tx_start,
            self._commit,
            self._on_backoff_aifs_end,
            self._on_slot_end,
        )
        while self.heap:
            time, _prio, _id, _seq, sender, kind, token = heapq.heappop(self.heap)
            if kind >= _AIFS_END and token != sender.timer_token:
                continue  # cancelled
            handlers[kind](sender, time)
        stats = tuple(
            ConnectionStats(
                connection_id=s.connection_id,
                sent=s.sent,
                received=s.received,
                collided=s.collided,
                ambient_lost=s.ambient_lost,
                delivered_late=s.delivered_late,
                delay_total_us=s.delay_total_us,
                realized_duration_us=s.last_tx_end - s.scheduled_start,
            )
            for s in self.senders
        )
        return SimReport(
            per_connection=stats, backoff_activations=self.backoff_activations
        )


def simulate(
    requests: list[TransmissionRequest],
    schedule: Schedule,
    channel: ChannelConfig,
    seed: int,
    trace: list[str] | None = None,
) -> SimReport:
    """Run every sender's packet train to completion and report outcomes.

    Each connection i starts contending for the channel at
    ``schedule.starts[i]`` and transmits ``requests[i].packet_count``
    packets of ``requests[i].packet_airtime`` each under the module's
    CSMA/CA discipline. The run always completes all trains; deadline
    overruns are counted in each connection's ``delivered_late``, never
    prevented.

    ``trace``, when given a list, receives one human-readable line per
    phase transition (``TIME cID OLD->NEW``) and per packet outcome
    (``TIME cID packet N received|collided|ambient-lost``).

    Raises:
        ValueError: schedule and request counts differ, or a start is
            negative.
    """
    return _Sim(requests, schedule, channel, seed, trace).run()
