"""Deterministic scenario texts for the benchmark workloads.

Every workload is a txsched scenario file. ``table2`` is the bundled
reference scenario, copied byte for byte; the others are generated from
``random.Random(f"{name}:{seed}")``, so one (name, seed) pair always gives
the same text on any platform and Python version. The program under test
only ever reads the resulting text.

Why each workload exists (the layer it makes dominant):

* ``table2`` - the paper's reference experiment. N=2 with cheap channel
  edges, so the simulator's fixed per-packet cost dominates and tsgs does
  almost nothing.
* ``contention`` - N=40 on a busy channel: half the packets collide and
  about 1,600 backoffs activate, so the simulator's O(N) idle/busy edge
  scans, frozen backoffs and heap churn dominate.
* ``greedy`` - N=22 with grids of 1001 points and native deadlines: the
  only workload where tsgs's O(N^2 * G) pairwise scoring dominates.
* ``oracle`` - N=3 with grids of 11 to 31 points: exhaustive enumeration
  (40,383 assignments, each a full `total_cost`) dominates, and it yields
  the greedy-versus-oracle cost gap.

Each execution takes well under a second, so that a timed run holds many
samples: on a shared host the same code can run up to twice as slowly
for seconds at a time, and a run's fastest sample is only steady when
there are many of them.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("table2", "contention", "greedy", "oracle")

# MAC timing shared by the generated workloads, equal to table2's.
_CHANNEL = "channel slot_time 13us aifs 58us cw 15 airtime 23us ambient_loss 0.01"
AIFS = 58
_AIRTIMES = (23, 31, 47)


def deadline(packets: int, airtime: int, window: int) -> int:
    """The deadline that leaves a start-time window of `window` us.

    Connections use overhead = AIFS, which makes the planned duration
    equal the uncontended on-air occupancy.
    """
    return packets * (airtime + AIFS) + window


def _connection(conn_id: int, packets: int, airtime: int, window: int) -> str:
    deadline_us = deadline(packets, airtime, window)
    return (
        f"connection {conn_id} deadline {deadline_us}us packets {packets} "
        f"airtime {airtime}us overhead {AIFS}us"
    )


def _seeds(rng: random.Random, count: int) -> str:
    return "seeds " + " ".join(str(s) for s in sorted(rng.sample(range(1, 1_000_000), count)))


def trains(rng: random.Random, n: int, fewest: int, most: int) -> list[tuple[int, int]]:
    """(packet count, airtime) of `n` connections.

    Every seed deals the same multiset of packet counts (spread evenly over
    fewest..most) and airtimes to the connections in another order, so the
    offered load, and with it the simulated work, is the same for every
    seed: seeds vary the arrangement the schedulers see, not the amount of
    work, which keeps timings comparable from seed to seed.
    """
    packets = [fewest + (most - fewest) * i // (n - 1) for i in range(n)]
    airtimes = [_AIRTIMES[i % len(_AIRTIMES)] for i in range(n)]
    rng.shuffle(packets)
    rng.shuffle(airtimes)
    return list(zip(packets, airtimes))


def _connections(rng: random.Random, n: int, fewest: int, most: int, window: int) -> list[str]:
    return [
        _connection(i, packets, airtime, window)
        for i, (packets, airtime) in enumerate(trains(rng, n, fewest, most))
    ]


def _contention(rng: random.Random) -> list[str]:
    lines = _connections(rng, 40, 5, 20, 9000)
    return lines + [
        "scheduler step 500us margin 0us ordering input-order",
        "schedulers tsgs random",
        _CHANNEL,
        "sweep start 1000us stop 9000us step 4000us",
        _seeds(rng, 4),
    ]


def _greedy(rng: random.Random) -> list[str]:
    # equal 25 ms windows give every connection 1001 candidates, so tsgs
    # does exactly 1001 * (0 + 1 + ... + 21) pairwise evaluations
    lines = _connections(rng, 22, 5, 20, 25_000)
    return lines + [
        "scheduler step 25us margin 0us ordering input-order",
        "schedulers tsgs random",
        _CHANNEL,
        _seeds(rng, 3),
    ]


def _oracle(rng: random.Random) -> list[str]:
    lines = _connections(rng, 3, 30, 50, 9000)
    return lines + [
        "scheduler step 300us margin 0us ordering input-order",
        "schedulers exhaustive tsgs random",
        _CHANNEL,
        "sweep start 3000us stop 9000us step 3000us",
        _seeds(rng, 3),
    ]


_GENERATORS = {"contention": _contention, "greedy": _greedy, "oracle": _oracle}


def scenario_text(name: str, seed: int, src: Path) -> str:
    """The scenario file text of workload `name` at `seed`.

    `src` is the package source root; ``table2`` is read from its bundled
    scenarios and does not depend on `seed`.
    """
    if name == "table2":
        return (src / "txsched" / "scenarios" / "table2.scn").read_text(encoding="utf-8")
    lines = [f"# benchmark workload {name}, seed {seed}", "format txsched/1"]
    lines += _GENERATORS[name](random.Random(f"{name}:{seed}"))
    return "\n".join(lines) + "\n"
