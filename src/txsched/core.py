"""Time model, transmission requests, and the interval-overlap cost.

All times are exact integer microsecond ticks: a ``TimePoint`` is a
non-negative absolute instant, a ``TimeSpan`` a non-negative duration.
Nothing in this module rounds, and intervals are half-open
``[start, start + length)``, so two transmissions that merely touch at an
instant neither overlap nor collide. The same convention is used by the
channel simulator.

The value types of the package are immutable slotted records built on
``_Record``: they compare, hash and print by their fields, refuse
assignment, and ``replace(**changes)`` returns a checked copy.
"""

from __future__ import annotations

from operator import attrgetter

TimePoint = int
TimeSpan = int


class _Record:
    """Shared behaviour of the package's immutable value types.

    A subclass declares its fields once, in ``__slots__``, in constructor
    order. Trailing fields may take defaults from a ``_defaults`` dict of
    field name to value. When the subclass is created, ``_Record`` writes
    its ``__init__``: one parameter per field, each field stored through
    its slot's member descriptor (``Cls.field.__set__``, bound once here),
    then ``self._check()`` if the subclass defines one. ``_check`` reads
    the fields and raises ``ValueError`` on a bad value. A subclass that
    must convert a value before storing it (``ComparisonSummary`` keeps a
    read-only copy of its dict) writes its own ``__init__``, setting each
    field through ``object.__setattr__``.

    The fields are read back together through one ``operator.attrgetter``
    per class, ``_fields``, which always gives a tuple. Records compare
    and hash as that tuple, and only to records of the same class;
    ``repr`` reads ``Name(field=value, ...)``. ``replace``, ``copy``,
    ``deepcopy`` and ``pickle`` all rebuild a record through its
    constructor, so every copy is checked again.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        get = attrgetter(*fields)
        if len(fields) == 1:
            get_one = get

            def get(record):
                return (get_one(record),)

        cls._fields = staticmethod(get)
        if "__init__" in cls.__dict__:
            return
        defaults = cls.__dict__.get("_defaults", {})
        parameters = ", ".join(
            f"{name}=_defaults[{name!r}]" if name in defaults else name
            for name in fields
        )
        lines = [f"    _set{i}(self, {name})" for i, name in enumerate(fields)]
        if hasattr(cls, "_check"):
            lines.append("    self._check()")
        namespace = {
            f"_set{i}": cls.__dict__[name].__set__ for i, name in enumerate(fields)
        }
        namespace["_defaults"] = defaults
        exec(f"def __init__(self, {parameters}):\n" + "\n".join(lines), namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__
        cls.__init__ = init

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._fields
        return get(self) == get(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields(self)

    def replace(self, **changes):
        """A copy with the named fields changed, checked by the constructor."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        return self.__class__(**{**fields, **changes})


class InadmissibleRequestError(ValueError):
    """No start time >= 0 lets this transmission finish by its deadline."""


class TransmissionRequest(_Record):
    """One connection's transmission requirement.

    ``deadline`` is the absolute instant by which the whole packet train
    must have finished. ``per_packet_overhead`` is the nominal inter-packet
    gap used when estimating the train's duration; set it to the channel's
    AIFS to make planned durations match uncontended on-air occupancy.
    """

    __slots__ = ("id", "deadline", "packet_count", "packet_airtime",
                 "per_packet_overhead")
    _defaults = {"per_packet_overhead": 0}
    id: int
    deadline: TimePoint
    packet_count: int
    packet_airtime: TimeSpan
    per_packet_overhead: TimeSpan

    def _check(self) -> None:
        for name in self.__slots__:
            _check_int(name, getattr(self, name))
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


class Schedule(_Record):
    """Assigned start-sending times, index i holding connection i's start."""

    __slots__ = ("starts",)
    starts: tuple[TimePoint, ...]

    def _check(self) -> None:
        if type(self.starts) is not tuple:
            raise ValueError(f"starts must be a tuple, got {type(self.starts).__name__}")
        for start in self.starts:
            _check_int("scheduled start", start)
            if start < 0:
                raise ValueError(f"scheduled start must be >= 0, got {start}")


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


def _check_int(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an int: every time is a
    whole microsecond, and a float or a bool would pass the range checks
    and corrupt the integer arithmetic behind them."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def _check_counts(
    schedule: Schedule, requests: list[TransmissionRequest] | tuple
) -> None:
    """Raise ``ValueError`` unless ``schedule`` is a `Schedule`, whose
    starts its constructor checked, with one start per request."""
    if type(schedule) is not Schedule:
        raise ValueError(f"schedule must be a Schedule, got {type(schedule).__name__}")
    if len(schedule.starts) != len(requests):
        raise ValueError(
            f"schedule has {len(schedule.starts)} starts for {len(requests)} requests"
        )


def total_cost(schedule: Schedule, requests: list[TransmissionRequest] | tuple) -> TimeSpan:
    """Total pairwise overlap, summed over all ordered pairs (i, j), i != j.

    Each unordered pair is counted twice; pairwise-disjoint intervals
    (touching endpoints allowed) cost 0. With k(x) the number of
    occupancy intervals covering instant x, the sum equals the integral of
    k(k - 1), taken in one sweep over the sorted endpoints.

    Raises:
        ValueError: ``schedule`` is not a `Schedule` with one start per request.
    """
    _check_counts(schedule, requests)
    steps: dict[TimePoint, int] = {}
    for start, req in zip(schedule.starts, requests):
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
    """True iff start + duration + margin <= deadline for every connection.

    Raises:
        ValueError: ``schedule`` is not a `Schedule` with one start per request.
    """
    _check_counts(schedule, requests)
    for start, req in zip(schedule.starts, requests):
        if start + compute_duration(req) + margin > req.deadline:
            return False
    return True
