"""A fixed pure-Python workload that gauges how fast the host runs now.

On a shared host the same code can run up to twice as slowly for seconds
to minutes at a time, depending on other tenants, which moved a run's
median seconds by up to a third from run to run. The benchmark therefore
runs a pass of this loop right before and right after each timed
operation and also reports the operation in units of the mean of the two
passes:

* an in-process execution against passes run in process (unit "cal");
* a child process against calibration children, each a fresh interpreter
  that runs one pass (``python3 perfbench/calibrate.py``; unit
  "calchild"). Interpreter start-up and imports speed up less than Python
  code when the host does, and a calibration child has them too. In two
  trials of a few minutes, child processes timed against in-process
  passes read 10-13 % lower while the host was slow than while it was
  fast; against calibration children, 2 % lower.

The loop uses no txsched code, so a change to the package cannot move it.
It leans on what the package leans on, over a working set of a similar
size, in three parts of about equal time:

* an event loop like the simulator's: a heap of event tuples, attribute
  updates on a few thousand small objects, dict lookups, string
  comparisons and a seeded random generator;
* a scoring loop like the schedulers': small interval objects built and
  validated in Python, a property and a function call per pairwise
  overlap, ``min``/``max`` and integer sums;
* edge scans like the simulator's under contention: method calls that
  walk a list of 40 small objects, compare their phase strings and
  update the ones that match.

Other tenants slow these kinds of code by different amounts. In trials of
a few minutes on a shared 2-vCPU VM, the calibrated time of an in-process
execution differed between the host's slow and fast spells by up to 9 %
against the event loop alone, by up to 10 % against the first two parts
and by up to 5 % against all three, on each of the four workloads.
"""

from __future__ import annotations

import heapq
import random
import time

EVENTS = 6000
SENDERS = 4096
CANDIDATES = 1300
PLACED = 12
NODES = 40
EDGES = 1900
# Seconds a calibration child usually took on the 2-vCPU VM the benchmark
# was written on. `setup_s` is given in seconds at that speed: the median
# over validate children of their wall time in calibration children, times
# this constant.
REFERENCE_CHILD_S = 0.115


class _Sender:
    __slots__ = ("key", "phase", "sent", "token")

    def __init__(self, key: int) -> None:
        self.key = key
        self.phase = "idle"
        self.sent = 0
        self.token = 0


class _Span:
    __slots__ = ("start", "length")

    def __init__(self, start: int, length: int) -> None:
        if start < 0 or length < 0:
            raise ValueError("negative span")
        self.start = start
        self.length = length

    @property
    def end(self) -> int:
        return self.start + self.length


def _overlap(a: _Span, b: _Span) -> int:
    return max(0, min(a.end, b.end) - max(a.start, b.start))


class _Node:
    __slots__ = ("key", "phase", "token", "slots")

    def __init__(self, key: int, phase: str) -> None:
        self.key = key
        self.phase = phase
        self.token = 0
        self.slots = 0


class _Channel:
    _PHASES = ("idle", "aifs-wait", "backoff-aifs", "backoff-countdown",
               "backoff-wait-idle", "transmitting")

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.nodes = [_Node(key, rng.choice(self._PHASES)) for key in range(NODES)]
        self.active: dict[int, _Node] = {}

    def _freeze(self, node: _Node) -> None:
        node.token += 1
        node.phase = "backoff-wait-idle"

    def busy(self, sender: _Node) -> None:
        self.active[sender.key] = sender
        for other in self.nodes:
            if other is sender:
                continue
            if other.phase == "aifs-wait":
                self._freeze(other)
                other.slots = self.rng.randrange(15)
            elif other.phase in ("backoff-aifs", "backoff-countdown"):
                self._freeze(other)

    def idle(self, sender: _Node) -> None:
        del self.active[sender.key]
        for other in self.nodes:
            if other.phase == "backoff-wait-idle":
                other.token += 1
                other.phase = "backoff-aifs"
        for other in self.nodes:
            if other.phase == "backoff-aifs" and other.slots == 0:
                other.phase = "aifs-wait"


def _events() -> int:
    rng = random.Random(20210118)
    senders = {key: _Sender(key) for key in range(SENDERS)}
    heap = [(rng.randrange(100), 0, key, key, "sense", 0) for key in senders]
    heapq.heapify(heap)
    seq = len(heap)
    for _ in range(EVENTS):
        now, _, key, _, kind, token = heapq.heappop(heap)
        sender = senders[key]
        if kind == "timer" and token != sender.token:
            continue
        if kind == "sense":
            sender.phase = "waiting"
            sender.token += 1
            kind, delay = "timer", 58 + rng.randrange(15) * 13
        else:
            sender.phase = "sending"
            sender.sent += 1
            kind, delay = "sense", 23
        seq += 1
        heapq.heappush(heap, (now + delay, 1, key, seq, kind, sender.token))
    return sum(s.sent for s in senders.values())


def _scores() -> int:
    rng = random.Random(20210118)
    placed = [_Span(rng.randrange(20_000), 300 + rng.randrange(900)) for _ in range(PLACED)]
    best = None
    for k in range(CANDIDATES):
        candidate = _Span(k * 15, 700)
        score = 0
        for other in placed:
            score += _overlap(candidate, other)
        if best is None or score < best:
            best = score
    return best


def _scans() -> int:
    channel = _Channel(random.Random(20210118))
    for edge in range(EDGES):
        sender = channel.nodes[edge % NODES]
        channel.busy(sender)
        channel.idle(sender)
    return sum(node.token for node in channel.nodes)


def calibrate() -> float:
    """Seconds one pass of the fixed workload takes now."""
    start = time.perf_counter()
    _events()
    _scores()
    _scans()
    return time.perf_counter() - start


if __name__ == "__main__":
    calibrate()
