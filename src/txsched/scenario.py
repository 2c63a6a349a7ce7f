"""Scenario files: the experiment inputs, parsed and validated.

A scenario is a line-oriented text file. ``#`` starts a comment, blank
lines are ignored, and every other line is a directive followed by
whitespace-separated arguments. Every time value carries an explicit
``us`` suffix so microseconds never get confused with milliseconds or
seconds. The first directive must be ``format txsched/1``.

Directives::

    format txsched/1
    connection <id> deadline <T>us packets <N> [airtime <T>us] [overhead <T>us]
    scheduler step <T>us [margin <T>us] [ordering input-order|deadline-ascending]
    schedulers <name> [<name> ...]          # tsgs, exhaustive, random
    channel [slot_time <T>us] [aifs <T>us] [cw <N>] [airtime <T>us]
            [ambient_loss <P>]
    sweep start <T>us stop <T>us step <T>us
    seeds <N> [<N> ...]                     # repeatable, appends

Keys come in any order, each at most once. ``connection`` lines may omit
``airtime``; the channel line's airtime is used, or ``DEFAULT_AIRTIME``.
``channel`` and ``sweep`` are optional; everything else is required.
Errors carry ``path:line:`` prefixes pointing at the offending directive.
"""

from __future__ import annotations

from pathlib import Path

from .core import (
    TimeSpan,
    TransmissionRequest,
    _check_bound,
    _check_int,
    _check_type,
    _Record,
    window,
)
from .schedulers import SchedulerConfig
from .simulator import ChannelConfig

FORMAT_TAG = "txsched/1"

SCHEDULER_NAMES = ("exhaustive", "random", "tsgs")

DEFAULT_AIRTIME = 23


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


class WindowSweep(_Record):
    """Evenly spaced window sizes applied to every connection's deadline."""

    __slots__ = ("start", "stop", "step")
    start: TimeSpan
    stop: TimeSpan
    step: TimeSpan

    def _check(self) -> None:
        for name in self.__slots__:
            _check_int(f"sweep {name}", getattr(self, name))
        _check_bound("sweep step", self.step, ">", 0)
        _check_bound("sweep start", self.start, ">=", 0)
        if self.stop < self.start:
            raise ValueError(f"sweep stop {self.stop} is below start {self.start}")

    def points(self) -> range:
        """The window sizes, start to stop inclusive; a ``range``, so its
        ``len`` costs nothing however many points it holds."""
        return range(self.start, self.stop + 1, self.step)

    def count(self) -> int:
        """How many points; ``len(points())`` overflows past ``sys.maxsize``."""
        return (self.stop - self.start) // self.step + 1


class ScenarioSpec(_Record):
    """A fully validated experiment description. The constructor first
    checks each field's type as `Schedule` does: ``requests``,
    ``schedulers`` and ``seeds`` are tuples, each request a
    `TransmissionRequest`, the configs a `SchedulerConfig` and a
    `ChannelConfig`, and ``sweep`` None or a `WindowSweep`. It then
    applies the parser's rules, and messages, to connections, seeds and
    schedulers, and `window`'s admissibility rule to every request under
    the margin."""

    __slots__ = ("requests", "schedulers", "scheduler_config", "channel",
                 "seeds", "sweep")
    _defaults = {"sweep": None}
    requests: tuple[TransmissionRequest, ...]
    schedulers: tuple[str, ...]
    scheduler_config: SchedulerConfig
    channel: ChannelConfig
    seeds: tuple[int, ...]
    sweep: WindowSweep | None

    def _check(self) -> None:
        for name in ("requests", "schedulers", "seeds"):
            _check_type(name, getattr(self, name), tuple, ScenarioError)
        for request in self.requests:
            _check_type("request", request, TransmissionRequest, ScenarioError)
        config = self.scheduler_config
        _check_type("scheduler_config", config, SchedulerConfig, ScenarioError)
        _check_type("channel", self.channel, ChannelConfig, ScenarioError)
        if self.sweep is not None:
            _check_type("sweep", self.sweep, WindowSweep, ScenarioError)
        _need(self.requests, "connections")
        _need(self.seeds, "seeds")
        seen: set = set()
        for seed in self.seeds:
            _add_seed(seed, seen)
        _need(self.schedulers, "schedulers")
        seen = set()
        for name in self.schedulers:
            _add_scheduler(name, seen)
        for request in self.requests:
            window(request, config.margin)


# the rules that make a spec runnable, one function each; ScenarioSpec and
# parse_scenario both apply them, the parser one directive at a time


def _need(items, what: str) -> None:
    if not items:
        raise ScenarioError(f"scenario defines no {what}")


def _add_seed(seed, seen: set) -> None:
    """Refuse a seed that is not an int or is in `seen`; else add it."""
    _check_int("seed", seed, ScenarioError)
    if seed in seen:
        raise ScenarioError(f"seed {seed} listed twice")
    seen.add(seed)


def _add_scheduler(name, seen: set) -> None:
    """Refuse an unknown scheduler name or one in `seen`; else add it."""
    if name not in SCHEDULER_NAMES:
        raise ScenarioError(
            f"unknown scheduler {name!r}; expected one of {SCHEDULER_NAMES}"
        )
    if name in seen:
        raise ScenarioError(f"scheduler {name!r} listed twice")
    seen.add(name)


def _fail(source: str, lineno: int, message: str) -> None:
    raise ScenarioError(f"{source}:{lineno}: {message}")


def _is_integer(text: str) -> bool:
    # an optional '-' and ASCII digits; int() alone would also take
    # '1_000', '+5' and non-ASCII digits such as '٣', and raise past its
    # digit limit, which is never below 640
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit() and len(digits) <= 640


def _parse_us(source: str, lineno: int, field: str, token: str) -> int:
    if not token.endswith("us"):
        _fail(source, lineno, f"{field} must carry a 'us' suffix, got {token!r}")
    if not _is_integer(token[:-2]):
        _fail(source, lineno, f"{field} is not an integer microsecond value: {token!r}")
    return int(token[:-2])


def _parse_int(source: str, lineno: int, field: str, token: str) -> int:
    if not _is_integer(token):
        _fail(source, lineno, f"{field} is not an integer: {token!r}")
    return int(token)


def _parse_float(source: str, lineno: int, field: str, token: str) -> float:
    # an integer with at most one '.'; float() alone would also take
    # '0.0_1', '1e-2', 'nan' and non-ASCII digits such as '٠.5'
    if not _is_integer(token.replace(".", "", 1)):
        _fail(source, lineno, f"{field} is not a decimal number: {token!r}")
    return float(token)


def _keep(source: str, lineno: int, field: str, token: str) -> str:
    return token


# key/value directive -> ({key: token parser}, required keys)
_KEYS = {
    "connection": ({"deadline": _parse_us, "packets": _parse_int,
                    "airtime": _parse_us, "overhead": _parse_us},
                   ("deadline", "packets")),
    "scheduler": ({"step": _parse_us, "margin": _parse_us, "ordering": _keep},
                  ("step",)),
    "channel": ({"slot_time": _parse_us, "aifs": _parse_us, "cw": _parse_int,
                 "airtime": _parse_us, "ambient_loss": _parse_float}, ()),
    "sweep": ({"start": _parse_us, "stop": _parse_us, "step": _parse_us},
              ("start", "stop", "step")),
}


def _fields(source: str, lineno: int, directive: str, args: list[str], name: str):
    """Parse `args` as `directive`'s key/value pairs; `name` is what a
    missing key is missing from."""
    parsers, required = _KEYS[directive]
    if len(args) % 2 != 0:
        _fail(source, lineno, f"{directive} expects key/value pairs")
    keys = args[::2]
    seen: set[str] = set()
    for key in keys:
        if key in seen:
            _fail(source, lineno, f"{directive} repeats {key!r}")
        seen.add(key)
    fields = {}
    for key, token in zip(keys, args[1::2]):
        if key not in parsers:
            _fail(source, lineno, f"unknown {directive} field {key!r}")
        fields[key] = parsers[key](source, lineno, key, token)
    for key in required:
        if key not in fields:
            _fail(source, lineno, f"{name} is missing {key!r}")
    return fields


def _build(source: str, lineno: int, what: str | None, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError reported at this line, as
    ``invalid <what>: ...`` when `what` is given."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        _fail(source, lineno, f"invalid {what}: {exc}" if what else str(exc))


def _channel(airtime: TimeSpan = DEFAULT_AIRTIME, **config) -> tuple[ChannelConfig, int]:
    """The channel line's config and default airtime; no keys for no line."""
    _check_bound("airtime", airtime, ">", 0)
    if "ambient_loss" in config:
        config["ambient_loss_rate"] = config.pop("ambient_loss")
    return ChannelConfig(**config), airtime


# the directives given at most once, each to what builds its value
_ONCE = {"scheduler": SchedulerConfig, "channel": _channel, "sweep": WindowSweep}


def parse_scenario(text: str, source: str = "<string>") -> ScenarioSpec:
    """Parse scenario text; `source` names it in error messages."""
    format_seen = False
    connections: list[tuple[int, dict, int]] = []  # (id, fields, lineno)
    built: dict[str, object] = {}  # _ONCE directive -> its value
    scheduler_names: list[str] = []
    seeds: list[int] = []
    seen_seeds: set[int] = set()
    seen_ids: set[int] = set()

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if not format_seen:
            if directive != "format":
                _fail(source, lineno, f"first directive must be 'format {FORMAT_TAG}'")
            if args != [FORMAT_TAG]:
                _fail(source, lineno, f"unsupported format {' '.join(args)!r}")
            format_seen = True
            continue
        if directive == "format":
            _fail(source, lineno, "duplicate format directive")
        elif directive == "connection":
            if not args:
                _fail(source, lineno, "connection needs an id")
            conn_id = _parse_int(source, lineno, "connection id", args[0])
            if conn_id in seen_ids:
                _fail(source, lineno, f"duplicate connection id {conn_id}")
            seen_ids.add(conn_id)
            name = f"connection {conn_id}"
            fields = _fields(source, lineno, directive, args[1:], name)
            connections.append((conn_id, fields, lineno))
        elif directive in _ONCE:
            if directive in built:
                _fail(source, lineno, f"duplicate {directive} directive")
            fields = _fields(source, lineno, directive, args, directive)
            make = _ONCE[directive]
            built[directive] = _build(source, lineno, directive, make, **fields)
        elif directive == "schedulers":
            if scheduler_names:
                _fail(source, lineno, "duplicate schedulers directive")
            if not args:
                _fail(source, lineno, "schedulers needs at least one name")
            seen_names: set[str] = set()
            for name in args:
                _build(source, lineno, None, _add_scheduler, name, seen_names)
            scheduler_names = args
        elif directive == "seeds":
            if not args:
                _fail(source, lineno, "seeds needs at least one value")
            for token in args:
                seed = _parse_int(source, lineno, "seed", token)
                _build(source, lineno, None, _add_seed, seed, seen_seeds)
                seeds.append(seed)
        else:
            _fail(source, lineno, f"unknown directive {directive!r}")

    if not format_seen:
        _fail(source, 1, f"missing 'format {FORMAT_TAG}' directive")
    _build(source, 1, None, _need, connections, "connections")
    if "scheduler" not in built:
        _fail(source, 1, "scenario is missing the scheduler directive")
    if not scheduler_names:
        _fail(source, 1, "scenario is missing the schedulers directive")
    _build(source, 1, None, _need, seeds, "seeds")
    config = built["scheduler"]
    channel, default_airtime = built.get("channel") or _channel()

    requests = []
    for conn_id, fields, lineno in connections:
        what = f"connection {conn_id}"
        request = _build(
            source, lineno, what, TransmissionRequest,
            id=conn_id,
            deadline=fields["deadline"],
            packet_count=fields["packets"],
            packet_airtime=fields.get("airtime", default_airtime),
            per_packet_overhead=fields.get("overhead", 0),
        )
        # admissibility under this margin
        _build(source, lineno, what, window, request, config.margin)
        requests.append(request)

    return ScenarioSpec(
        requests=tuple(requests),
        schedulers=tuple(scheduler_names),
        scheduler_config=config,
        channel=channel,
        seeds=tuple(seeds),
        sweep=built.get("sweep"),
    )


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load and validate a scenario file.

    Raises:
        ScenarioError: the file does not parse or an invariant fails; the
            message carries a path:line prefix.
        OSError: the file cannot be read.
    """
    path = Path(path)
    # a leading UTF-8 byte-order mark, as some editors write, is not text;
    # stripped here, not by 'utf-8-sig', so error offsets stay in the data
    data = path.read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line, counted as parse_scenario counts lines
        lineno = len(data[: exc.start + 1].decode("utf-8", "replace").splitlines())
        _fail(str(path), lineno, f"byte {data[exc.start]:#04x} is not UTF-8 text")
    return parse_scenario(text, source=str(path))
