"""Naive reference implementations of the overlap cost, the schedulers and
the channel simulator.

Each is the direct transcription of its definition: intervals are built
explicitly, every pair is scored with `overlap`, tsgs counts each pairwise
evaluation as it makes it, exhaustive costs every assignment of
``itertools.product`` in full, and the simulator counts every backoff down
with one timer event per idle slot. The fast paths in ``txsched`` must
agree with these on schedule, cost and counter, and on report and trace.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass

from txsched import (
    ConnectionStats,
    Schedule,
    ScheduleResult,
    SimReport,
    compute_duration,
)
from txsched.schedulers import candidate_grid


@dataclass(frozen=True)
class Interval:
    """Half-open occupancy interval [start, start + length)."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"interval start must be >= 0, got {self.start}")
        if self.length < 0:
            raise ValueError(f"interval length must be >= 0, got {self.length}")

    @property
    def end(self) -> int:
        return self.start + self.length


def overlap(a: Interval, b: Interval) -> int:
    """Length of the time intersection of two half-open intervals."""
    return max(0, min(a.end, b.end) - max(a.start, b.start))


def intervals(schedule, requests) -> tuple[Interval, ...]:
    """Occupancy interval of each connection under its scheduled start."""
    if len(schedule.starts) != len(requests):
        raise ValueError(
            f"schedule has {len(schedule.starts)} starts for {len(requests)} requests"
        )
    return tuple(
        Interval(start, compute_duration(req))
        for start, req in zip(schedule.starts, requests)
    )


def total_cost(schedule, requests) -> int:
    """Pairwise overlap summed over all ordered pairs (i, j), i != j."""
    ivals = intervals(schedule, requests)
    n = len(ivals)
    return sum(
        overlap(ivals[i], ivals[j]) for i in range(n) for j in range(n) if i != j
    )


def tsgs(requests, config) -> ScheduleResult:
    """Greedy placement, one pairwise evaluation at a time."""
    order = list(range(len(requests)))
    if config.ordering == "deadline-ascending":
        order.sort(key=lambda i: requests[i].deadline)
    starts = [None] * len(requests)
    fixed: list[Interval] = []
    evaluations = 0
    for idx in order:
        duration = compute_duration(requests[idx])
        best_start = best_score = None
        for start in candidate_grid(requests[idx], config):
            candidate = Interval(start, duration)
            score = 0
            for placed in fixed:
                score += overlap(candidate, placed)
                evaluations += 1
            if best_score is None or score < best_score:
                best_start, best_score = start, score
        starts[idx] = best_start
        fixed.append(Interval(best_start, duration))
    schedule = Schedule(tuple(starts))
    return ScheduleResult(schedule, total_cost(schedule, requests), evaluations)


def exhaustive(requests, config) -> ScheduleResult:
    """Cost every assignment; keep the first (lexicographically smallest)
    minimum."""
    grids = [candidate_grid(req, config) for req in requests]
    best_schedule = best_cost = None
    evaluations = 0
    for assignment in itertools.product(*grids):
        schedule = Schedule(assignment)
        cost = total_cost(schedule, requests)
        evaluations += 1
        if best_cost is None or cost < best_cost:
            best_schedule, best_cost = schedule, cost
    return ScheduleResult(best_schedule, best_cost, evaluations)


# -- the channel simulator, one event per backoff slot ---------------------

_PRIO_TX_END, _PRIO_DECISION, _PRIO_TX_START = range(3)
_TX_END, _SENSE, _TX_START, _AIFS_END, _BK_AIFS_END, _SLOT_END = range(6)


@dataclass
class _Sender:
    position: int
    scheduled_start: int
    airtime: int
    deadline: int
    packets_remaining: int
    phase: str = "idle-until-start"
    backoff_slots_remaining: int = 0
    timer_token: int = 0
    packet_index: int = 0
    current_collided: bool = False
    sent: int = 0
    received: int = 0
    collided: int = 0
    ambient_lost: int = 0
    delivered_late: int = 0
    delay_total_us: int = 0
    last_tx_end: int = 0


class _Sim:
    """Every sender's countdown is a chain of timers: a full AIFS after
    each idle edge, then one timer per slot, each cancelled (and the
    count frozen) by the next busy edge. Events are ordered by (time,
    priority, position), then by insertion; a sender prints as
    ``c<position>``."""

    def __init__(self, requests, schedule, channel, seed, trace):
        self.channel = channel
        self.rng = random.Random(seed)
        self.trace = trace
        self.senders = [
            _Sender(position, start, req.packet_airtime, req.deadline,
                    req.packet_count)
            for position, (req, start) in enumerate(zip(requests, schedule.starts))
        ]
        self.active: dict[int, _Sender] = {}
        self.heap: list[tuple] = []
        self.seq = 0
        self.backoff_activations = 0

    def _push(self, time, prio, sender, kind, token=-1):
        self.seq += 1
        heapq.heappush(
            self.heap,
            (time, prio, sender.position, self.seq, kind, token),
        )

    def _schedule_timer(self, sender, kind, time):
        sender.timer_token += 1
        self._push(time, _PRIO_DECISION, sender, kind, sender.timer_token)

    def _set_phase(self, sender, phase, now):
        if self.trace is not None and phase != sender.phase:
            self.trace.append(f"{now} c{sender.position} {sender.phase}->{phase}")
        sender.phase = phase

    def _note_outcome(self, sender, now, outcome):
        if self.trace is not None:
            self.trace.append(
                f"{now} c{sender.position} packet {sender.packet_index} {outcome}"
            )

    def _commit(self, sender, now):
        self._set_phase(sender, "tx-pending", now)
        self._push(now, _PRIO_TX_START, sender, _TX_START)

    def _defer(self, sender, now):
        sender.backoff_slots_remaining = self.rng.randrange(self.channel.cw)
        self.backoff_activations += 1
        self._set_phase(sender, "backoff-wait-idle", now)

    def _on_sense(self, sender, now):
        self._set_phase(sender, "sensing", now)
        if self.active:
            self._defer(sender, now)
        else:
            self._set_phase(sender, "aifs-wait", now)
            self._schedule_timer(sender, _AIFS_END, now + self.channel.aifs)

    def _on_backoff_aifs_end(self, sender, now):
        if sender.backoff_slots_remaining == 0:
            self._commit(sender, now)
        else:
            self._set_phase(sender, "backoff-countdown", now)
            self._schedule_timer(sender, _SLOT_END, now + self.channel.slot_time)

    def _on_slot_end(self, sender, now):
        sender.backoff_slots_remaining -= 1
        if sender.backoff_slots_remaining == 0:
            self._commit(sender, now)
        else:
            self._schedule_timer(sender, _SLOT_END, now + self.channel.slot_time)

    def _on_tx_start(self, sender, now):
        was_idle = not self.active
        sender.current_collided = False
        if self.active:
            for other in self.active.values():
                other.current_collided = True
            sender.current_collided = True
        self.active[sender.position] = sender
        self._set_phase(sender, "transmitting", now)
        self._push(now + sender.airtime, _PRIO_TX_END, sender, _TX_END)
        if was_idle:
            for other in self.senders:
                if other is sender:
                    continue
                if other.phase == "aifs-wait":
                    other.timer_token += 1
                    self._defer(other, now)
                elif other.phase in ("backoff-aifs", "backoff-countdown"):
                    other.timer_token += 1
                    self._set_phase(other, "backoff-wait-idle", now)

    def _on_tx_end(self, sender, now):
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
            for other in self.senders:
                if other.phase == "backoff-wait-idle":
                    self._set_phase(other, "backoff-aifs", now)
                    self._schedule_timer(other, _BK_AIFS_END, now + self.channel.aifs)
        if sender.packets_remaining > 0:
            self._push(now, _PRIO_DECISION, sender, _SENSE)
        else:
            self._set_phase(sender, "done", now)

    def run(self) -> SimReport:
        for sender in self.senders:
            self._push(sender.scheduled_start, _PRIO_DECISION, sender, _SENSE)
        handlers = (
            self._on_tx_end,
            self._on_sense,
            self._on_tx_start,
            self._commit,
            self._on_backoff_aifs_end,
            self._on_slot_end,
        )
        while self.heap:
            time, _prio, position, _seq, kind, token = heapq.heappop(self.heap)
            sender = self.senders[position]
            if kind >= _AIFS_END and token != sender.timer_token:
                continue  # cancelled
            handlers[kind](sender, time)
        return SimReport(
            per_connection=tuple(
                ConnectionStats(
                    sent=s.sent,
                    received=s.received,
                    collided=s.collided,
                    ambient_lost=s.ambient_lost,
                    delivered_late=s.delivered_late,
                    delay_total_us=s.delay_total_us,
                    realized_duration_us=s.last_tx_end - s.scheduled_start,
                )
                for s in self.senders
            ),
            backoff_activations=self.backoff_activations,
        )


def simulate(requests, schedule, channel, seed, trace=None) -> SimReport:
    """The per-slot event simulator; same contract as `txsched.simulate`."""
    return _Sim(requests, schedule, channel, seed, trace).run()


# -- the memo's closing walk ------------------------------------------------


def closed_starts(starts, trains, aifs) -> tuple[int, ...]:
    """The starts with every idle gap closed that a shift cannot change, as
    `txsched.simulate`'s docstring states the rule. ``trains[i]`` is
    connection i's (packet_count, airtime); a train alone ends
    packet_count * (aifs + airtime) after its start.

    In start order, ties by position, the first train moves to 0. While
    every earlier train has run alone, a train that starts at or after the
    end of every earlier one moves back to that end. At the first train
    that starts before that end the walk stops, and it and every later
    train keep the shift reached."""
    order = sorted(range(len(starts)), key=lambda i: (starts[i], i))
    moved: dict[int, int] = {}  # position -> its closed start
    shift = 0  # how far the trains walked so far moved back
    for i in order:
        ends = [moved[j] + trains[j][0] * (aifs + trains[j][1]) for j in moved]
        end = max(ends, default=0)
        if starts[i] - shift < end:
            break
        moved[i] = end
        shift = starts[i] - end
    return tuple(moved.get(i, start - shift) for i, start in enumerate(starts))
