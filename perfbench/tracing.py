"""Spans and counters recorded at txsched's layer boundaries.

Nothing inside the package is edited. For a traced execution,
`instrument` swaps the module attributes through which one layer calls the
next for timing wrappers, and puts the originals back afterwards:

* ``experiment`` -> ``schedulers``: ``tsgs_schedule``,
  ``exhaustive_schedule`` and ``random_schedule`` as bound in
  ``txsched.experiment``;
* ``experiment`` -> ``simulator``: ``simulate`` as bound in
  ``txsched.experiment``;
* ``schedulers`` -> ``core``: ``total_cost`` as bound in
  ``txsched.schedulers``.

The benchmark itself opens the ``scenario.load``, ``experiment.run`` and
``experiment.render`` spans around its own calls. Each wrapper also checks
an invariant from outside, after its span has closed: every schedule is
feasible under the requests it was computed for, and every simulation
conserves packets.

A ``total_cost`` call takes a few microseconds, close to the cost of a
span, so a traced ``exhaustive`` call partly times the tracer. The
scheduler wrappers therefore also keep each call's arguments;
`untraced_seconds` replays them after the traced execution, with nothing
instrumented, to time the scheduler layer alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns

# Spans kept per traced execution; totals and counters cover every call.
MAX_SPANS = 20_000


class Tracer:
    """In-memory spans and per-name totals for one traced execution.

    ``totals[name]`` is ``[calls, total_ns, self_ns]``; a span's self time
    is its duration minus the time its child spans cover. At most
    `MAX_SPANS` spans are kept (``total_cost`` runs about 40,000 times per
    `oracle` execution). ``recorded[name]`` holds the ``(function, args,
    kwargs)`` of every scheduler call, for `untraced_seconds`.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.totals: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.failures: list[str] = []
        self.recorded: dict[str, list[tuple]] = {}
        self._stack: list[list] = []  # [name, start_ns, child_ns, span index]

    def begin(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        start = perf_counter_ns()
        index = -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append([name, start, None, parent])
        self._stack.append([name, start, 0, index])

    def end(self) -> None:
        end = perf_counter_ns()
        name, start, child_ns, index = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][2] = end
        total = self.totals.setdefault(name, [0, 0, 0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_ns

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[1] / 1e9

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[2] / 1e9


def _traced_scheduler(tracer: Tracer, name: str, fn, feasible):
    span = f"schedulers.{name}"

    def traced(requests, config, *args, **kwargs):
        tracer.recorded.setdefault(span, []).append((fn, (requests, config, *args), kwargs))
        tracer.begin(span)
        try:
            result = fn(requests, config, *args, **kwargs)
        finally:
            tracer.end()
        tracer.add(f"{span}.evaluations", result.candidate_evaluations)
        if not feasible(result.schedule, requests, config.margin):
            tracer.failures.append(
                f"{name} returned an infeasible schedule {result.schedule.starts}"
            )
        return result

    return traced


def _traced_simulate(tracer: Tracer, fn):
    def traced(requests, schedule, channel, seed, *args, **kwargs):
        tracer.begin("simulator.simulate")
        try:
            report = fn(requests, schedule, channel, seed, *args, **kwargs)
        finally:
            tracer.end()
        sent = report.total_sent
        tracer.add("simulator.packets", sent)
        tracer.add("simulator.received", report.total_received)
        tracer.add("simulator.collided", report.total_collided)
        tracer.add("simulator.backoff_activations", report.backoff_activations)
        offered = sum(req.packet_count for req in requests)
        accounted = (
            report.total_received + report.total_collided + report.total_ambient_lost
        )
        if not sent == accounted == offered:
            tracer.failures.append(
                f"seed {seed}: packets not conserved: sent {sent}, "
                f"received+collided+lost {accounted}, offered {offered}"
            )
        return report

    return traced


def _traced_total_cost(tracer: Tracer, fn):
    def traced(schedule, requests):
        tracer.begin("core.total_cost")
        try:
            return fn(schedule, requests)
        finally:
            tracer.end()

    return traced


def untraced_seconds(tracer: Tracer, span: str) -> float:
    """Seconds that the calls recorded under `span` take when replayed with
    nothing instrumented; call it outside `instrument`."""
    start = perf_counter_ns()
    for fn, args, kwargs in tracer.recorded.get(span, ()):
        fn(*args, **kwargs)
    return (perf_counter_ns() - start) / 1e9


def _swap(module, name: str, replacement, saved: list) -> None:
    if not hasattr(module, name):
        raise RuntimeError(
            f"{module.__name__}.{name} is gone; the benchmark's layer "
            "boundaries no longer match the package"
        )
    saved.append((module, name, getattr(module, name)))
    setattr(module, name, replacement)


@contextmanager
def instrument(tracer: Tracer):
    """Route txsched's cross-layer calls through `tracer` while active."""
    from txsched import core, experiment, schedulers

    saved: list = []
    try:
        for name in ("tsgs", "exhaustive", "random"):
            attr = f"{name}_schedule"
            _swap(
                experiment, attr,
                _traced_scheduler(tracer, name, getattr(experiment, attr), core.feasible),
                saved,
            )
        _swap(experiment, "simulate", _traced_simulate(tracer, experiment.simulate), saved)
        _swap(schedulers, "total_cost", _traced_total_cost(tracer, schedulers.total_cost), saved)
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
