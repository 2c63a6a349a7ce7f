#!/usr/bin/env python3
"""Scaling report: per-unit cost of each hot layer as N grows.

    python3 perfbench/scaling.py [--seed 7]

Run from the root of a checkout. Kept apart from the gated workloads of
``run.py``; it takes about 30 s. It times the public functions directly,
untraced, and reports the median of several repeats of identical work:

* ``simulator.pkts_per_s`` at N in {2, 20, 200}: about 4000 packets
  split over N connections, randomly placed in a 400 ms window, so the
  channel load is about the same at every N and the per-packet cost shows
  how the edge scans grow with N;
* ``schedulers.tsgs_ns_per_eval`` at N in {10, 50}, with 2001 candidates
  per connection (tsgs at N=200 takes about 40 s and is left out);
* ``schedulers.exhaustive_ns_per_assignment`` at N=3, 24^3 = 13,824
  assignments.

Prints one line per point and writes ``.perfbench/results/scaling.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time

import run
import workloads

SIM_POINTS = (2, 20, 200)
TSGS_POINTS = (10, 50)
EXHAUSTIVE_N = 3


def requests(txs, rng: random.Random, n: int, fewest: int, most: int, window: int):
    return [
        txs.TransmissionRequest(
            id=i, deadline=workloads.deadline(packets, airtime, window),
            packet_count=packets, packet_airtime=airtime,
            per_packet_overhead=workloads.AIFS,
        )
        for i, (packets, airtime) in enumerate(workloads.trains(rng, n, fewest, most))
    ]


def timed(fn, repeats: int) -> tuple[float, object]:
    """Median seconds of `repeats` calls, and the last call's result."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args(argv)
    txs = run.import_txsched()
    channel = txs.ChannelConfig(ambient_loss_rate=0.01)
    points = []

    def point(metric: str, n: int, value: float, unit: str, **detail) -> None:
        points.append({"metric": metric, "n": n, "value": value, "unit": unit, **detail})
        extra = ", ".join(f"{k}={v}" for k, v in detail.items())
        print(f"{metric:<42} N={n:<4} {value:>12.6g} {unit}  ({extra})")

    for n in SIM_POINTS:
        rng = random.Random(f"scaling-sim:{n}:{args.seed}")
        reqs = requests(txs, rng, n, 2000 // n, 6000 // n, 400_000)
        config = txs.SchedulerConfig(step=100)
        schedule = txs.random_schedule(reqs, config, args.seed).schedule
        seconds, report = timed(lambda: txs.simulate(reqs, schedule, channel, args.seed), 5)
        point("simulator.pkts_per_s", n, report.total_sent / seconds, "1/s",
              packets=report.total_sent, seconds=seconds,
              backoff_activations=report.backoff_activations)

    for n in TSGS_POINTS:
        rng = random.Random(f"scaling-tsgs:{n}:{args.seed}")
        reqs = requests(txs, rng, n, 5, 20, 50_000)
        config = txs.SchedulerConfig(step=25)
        seconds, result = timed(lambda: txs.tsgs_schedule(reqs, config), 3)
        evals = result.candidate_evaluations
        point("schedulers.tsgs_ns_per_eval", n, seconds * 1e9 / evals, "ns",
              evals=evals, seconds=seconds)

    rng = random.Random(f"scaling-exhaustive:{args.seed}")
    reqs = requests(txs, rng, EXHAUSTIVE_N, 30, 50, 4600)
    config = txs.SchedulerConfig(step=200)
    seconds, result = timed(lambda: txs.exhaustive_schedule(reqs, config), 5)
    assignments = result.candidate_evaluations
    point("schedulers.exhaustive_ns_per_assignment", EXHAUSTIVE_N,
          seconds * 1e9 / assignments, "ns", assignments=assignments, seconds=seconds)

    results_dir = run.WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "scaling.json").write_text(json.dumps({
        "seed": args.seed,
        "python": platform.python_version(),
        "git_commit": run.git_commit(),
        "nproc": os.cpu_count(),
        "points": points,
    }, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
