"""Time model, transmission requests, and the interval-overlap cost.

All times are exact integer microsecond ticks: a ``TimePoint`` is a
non-negative absolute instant, a ``TimeSpan`` a non-negative duration.
Nothing in this module rounds, and intervals are half-open
``[start, start + length)``, so two transmissions that merely touch at an
instant neither overlap nor collide. The same convention is used by the
channel simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

TimePoint = int
TimeSpan = int


class InadmissibleRequestError(ValueError):
    """No start time >= 0 lets this transmission finish by its deadline."""


@dataclass(frozen=True)
class TransmissionRequest:
    """One connection's transmission requirement.

    ``deadline`` is the absolute instant by which the whole packet train
    must have finished. ``per_packet_overhead`` is the nominal inter-packet
    gap used when estimating the train's duration; set it to the channel's
    AIFS to make planned durations match uncontended on-air occupancy.
    """

    id: int
    deadline: TimePoint
    packet_count: int
    packet_airtime: TimeSpan
    per_packet_overhead: TimeSpan = 0

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"connection id must be >= 0, got {self.id}")
        if self.deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {self.deadline}")
        if self.packet_count < 1:
            raise ValueError(f"packet_count must be >= 1, got {self.packet_count}")
        if self.packet_airtime <= 0:
            raise ValueError(f"packet_airtime must be > 0, got {self.packet_airtime}")
        if self.per_packet_overhead < 0:
            raise ValueError(
                f"per_packet_overhead must be >= 0, got {self.per_packet_overhead}"
            )


@dataclass(frozen=True)
class Schedule:
    """Assigned start-sending times, index i holding connection i's start."""

    starts: tuple[TimePoint, ...]


def compute_duration(request: TransmissionRequest) -> TimeSpan:
    """Nominal duration of the packet train: count * (airtime + overhead).

    This is the scheduler's planning value; the simulator's realized
    duration can exceed it once contention activates backoff. It checks
    nothing: `window` is the admissibility check.
    """
    return request.packet_count * (request.packet_airtime + request.per_packet_overhead)


def window(request: TransmissionRequest, margin: TimeSpan = 0) -> TimeSpan:
    """Latest admissible start time: deadline - duration - margin.

    Candidate start times lie in [0, window]. ``margin`` is the safety
    slack reserved for backoff-induced delay; 0 by default.

    Raises:
        InadmissibleRequestError: the train plus the margin cannot fit
            before the deadline even when started at time 0.
    """
    d = compute_duration(request)
    if d + margin > request.deadline:
        raise InadmissibleRequestError(
            f"connection {request.id}: duration {d}us + margin {margin}us "
            f"exceeds deadline {request.deadline}us"
        )
    return request.deadline - d - margin


def total_cost(schedule: Schedule, requests: list[TransmissionRequest] | tuple) -> TimeSpan:
    """Total pairwise overlap, summed over all ordered pairs (i, j), i != j.

    Each unordered pair is counted twice; pairwise-disjoint intervals
    (touching endpoints allowed) cost 0. With k(x) the number of
    occupancy intervals covering instant x, the sum equals the integral of
    k(k - 1), taken in one sweep over the sorted endpoints.
    """
    if len(schedule.starts) != len(requests):
        raise ValueError(
            f"schedule has {len(schedule.starts)} starts for {len(requests)} requests"
        )
    steps: dict[TimePoint, int] = {}
    for start, req in zip(schedule.starts, requests):
        if start < 0:
            raise ValueError(f"interval start must be >= 0, got {start}")
        end = start + compute_duration(req)
        steps[start] = steps.get(start, 0) + 1
        steps[end] = steps.get(end, 0) - 1
    total = covered = previous = 0
    for point in sorted(steps):
        total += covered * (covered - 1) * (point - previous)
        covered += steps[point]
        previous = point
    return total


def feasible(
    schedule: Schedule,
    requests: list[TransmissionRequest] | tuple,
    margin: TimeSpan = 0,
) -> bool:
    """True iff every start is >= 0 and start + duration + margin <= deadline."""
    if len(schedule.starts) != len(requests):
        raise ValueError(
            f"schedule has {len(schedule.starts)} starts for {len(requests)} requests"
        )
    for start, req in zip(schedule.starts, requests):
        if start < 0 or start + compute_duration(req) + margin > req.deadline:
            return False
    return True
