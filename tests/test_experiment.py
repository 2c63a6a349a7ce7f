import importlib.util
import statistics
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txsched import (
    ChannelConfig,
    MissingSchedulerError,
    ScenarioError,
    ScenarioSpec,
    SchedulerConfig,
    SweepRow,
    SweepTable,
    TransmissionRequest,
    WindowSweep,
    format_summary,
    parse_scenario,
    random_schedule,
    read_table,
    render,
    report_comparison,
    rescale_requests,
    run_experiment,
    run_scheduler,
    simulate,
    simulator,
    window,
)
from txsched import experiment
from txsched.cli import resolve_scenario
from txsched.experiment import _mean
from txsched.scenario import load_scenario

SMALL = """\
format txsched/1
connection 0 deadline 405us packets 2 airtime 23us overhead 58us
connection 1 deadline 405us packets 2 airtime 23us overhead 58us
scheduler step 81us
schedulers tsgs random exhaustive
channel slot_time 13us aifs 58us cw 15 airtime 23us
sweep start 243us stop 729us step 243us
seeds 7 3 11
"""


def no_work(*args, **kwargs):
    raise AssertionError("work started")


def small_table():
    return run_experiment(parse_scenario(SMALL))


def synthetic_row(scheduler, seed, pdr):
    return SweepRow(
        window_us=100,
        scheduler=scheduler,
        seed=seed,
        pdr=pdr,
        cost_us=0,
        candidate_evals=0,
        collisions=(0, 0),
        received=(50, 50),
        mean_delay_us=0.0,
    )


class TestRescale:
    def test_native_deadline_below_duration(self):
        # the native deadline need not admit the train; rescaling does
        request = TransmissionRequest(
            0, deadline=100, packet_count=5, packet_airtime=23,
            per_packet_overhead=58,
        )
        (rescaled,) = rescale_requests((request,), 1000, SchedulerConfig(step=10))
        assert rescaled.deadline == 1000 + 405 + 0

    @pytest.mark.parametrize("window_us", (True, 2.5, None), ids=repr)
    def test_non_int_window_refused(self, window_us):
        # True built deadlines for a 1 us window, and 2.5 was refused for
        # a deadline the caller never gave
        request = TransmissionRequest(0, 100, 5, 23, 58)
        with pytest.raises(ValueError) as info:
            rescale_requests((request,), window_us, SchedulerConfig(step=10))
        assert str(info.value) == f"window must be an int, got {window_us!r}"

    @pytest.mark.parametrize(
        "requests, config, message",
        [
            ((SimpleNamespace(id=0, deadline=100, packet_count=5, packet_airtime=23,
                              per_packet_overhead=58),),
             SchedulerConfig(step=10),
             "request must be a TransmissionRequest, got SimpleNamespace"),
            ((TransmissionRequest(0, 100, 5, 23, 58), None), SchedulerConfig(step=10),
             "request must be a TransmissionRequest, got NoneType"),
            ((TransmissionRequest(0, 100, 5, 23, 58),), None,
             "config must be a SchedulerConfig, got NoneType"),
            ((TransmissionRequest(0, 100, 5, 23, 58),),
             SimpleNamespace(step=10, margin=0, ordering="input-order"),
             "config must be a SchedulerConfig, got SimpleNamespace"),
        ],
        ids=("look-alike request", "None request", "None config", "look-alike config"),
    )
    def test_look_alike_requests_and_config_refused(self, requests, config, message):
        # a None config raised AttributeError, and a look-alike request or
        # config was copied through replace or read for its margin
        with pytest.raises(ValueError) as info:
            rescale_requests(requests, 10, config)
        assert str(info.value) == message

    def test_window_checked_before_requests_and_config(self):
        with pytest.raises(ValueError) as info:
            rescale_requests((None,), -1, None)
        assert str(info.value) == "window must be >= 0, got -1"


class TestRunExperiment:
    def test_row_accounting(self):
        table = small_table()
        # 3 sweep points x 3 schedulers x 3 seeds, plus 9 aggregates
        assert len(table.seed_rows()) == 27
        assert sum(r.seed == "mean" for r in table.rows) == 9
        assert table.connections == 2

    def test_rows_sorted_by_window_scheduler_seed(self):
        keys = [
            (r.window_us, r.scheduler, r.seed)
            for r in small_table().seed_rows()
        ]
        assert keys == sorted(keys)

    def test_aggregate_follows_its_group(self):
        rows = small_table().rows
        for i, row in enumerate(rows):
            if row.seed == "mean":
                prev = rows[i - 1]
                assert (prev.window_us, prev.scheduler) == (
                    row.window_us,
                    row.scheduler,
                )
                assert prev.seed != "mean"

    def test_aggregate_means(self):
        table = small_table()
        for agg in (r for r in table.rows if r.seed == "mean"):
            group = [
                r
                for r in table.seed_rows()
                if (r.window_us, r.scheduler) == (agg.window_us, agg.scheduler)
            ]
            assert agg.pdr == pytest.approx(sum(r.pdr for r in group) / len(group))
            assert agg.collisions[0] == pytest.approx(
                sum(r.collisions[0] for r in group) / len(group)
            )

    def test_deterministic_schedulers_pin_cost_across_seeds(self):
        table = small_table()
        for name in ("tsgs", "exhaustive"):
            for w in (243, 486, 729):
                costs = {
                    r.cost_us
                    for r in table.seed_rows()
                    if r.scheduler == name and r.window_us == w
                }
                assert len(costs) == 1

    def test_pdr_consistent_with_received_columns(self):
        spec = parse_scenario(SMALL)
        total = sum(r.packet_count for r in spec.requests)
        for row in run_experiment(spec).seed_rows():
            assert row.pdr == pytest.approx(sum(row.received) / total)

    def test_zero_cost_rows_have_zero_collisions(self):
        for row in small_table().seed_rows():
            if row.cost_us == 0:
                assert sum(row.collisions) == 0

    def test_native_window_sentinel_without_sweep(self):
        text = SMALL.replace("sweep start 243us stop 729us step 243us\n", "")
        table = run_experiment(parse_scenario(text))
        assert {r.window_us for r in table.rows} == {-1}
        assert len(table.seed_rows()) == 9

    @pytest.mark.parametrize(
        "cap, sweep, rows, packets",
        [
            # 3 points x 3 schedulers x (3 seeds + 1) rows; 27 runs of 4 packets
            ("MAX_ROWS", True, 36, 108),
            ("MAX_PACKETS", True, 36, 108),
            # without a sweep, one point
            ("MAX_ROWS", False, 12, 36),
        ],
    )
    def test_caps_refuse_before_any_work(self, monkeypatch, cap, sweep, rows, packets):
        text = SMALL if sweep else SMALL.replace(
            "sweep start 243us stop 729us step 243us\n", ""
        )
        spec = parse_scenario(text)
        monkeypatch.setattr(experiment, cap, rows if cap == "MAX_ROWS" else packets)
        assert experiment.check_run_size(spec) == (rows, packets)
        assert len(run_experiment(spec).rows) == rows
        monkeypatch.setattr(experiment, cap, getattr(experiment, cap) - 1)
        monkeypatch.setattr(experiment, "run_scheduler", no_work)
        monkeypatch.setattr(experiment, "simulate", no_work)
        with pytest.raises(
            ScenarioError,
            match=f"^run too large: {rows} rows and {packets} simulated packets ",
        ):
            run_experiment(spec)

    def test_no_connections_refused_before_any_work(self):
        # no row of such a spec has a PDR; the spec cannot be built
        spec = parse_scenario(SMALL)
        with pytest.raises(ScenarioError, match="^scenario defines no connections$"):
            spec.replace(requests=())

    def test_no_seeds_refused_before_any_work(self):
        # every row's aggregate needs at least one seed
        spec = parse_scenario(SMALL)
        with pytest.raises(ScenarioError, match="^scenario defines no seeds$"):
            spec.replace(seeds=())

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # the parser refuses each of these; a library caller's spec
            # is refused the same way, when it is built
            ("seeds", ("mean",), "seed must be an int, got 'mean'"),
            ("seeds", (7.0,), "seed must be an int, got 7.0"),
            ("seeds", (True,), "seed must be an int, got True"),
            ("seeds", (101, 101, 102), "seed 101 listed twice"),
            ("schedulers", ("tsgs", "zzz"),
             "unknown scheduler 'zzz'; expected one of "
             "('exhaustive', 'random', 'tsgs')"),
            ("schedulers", (), "scenario defines no schedulers"),
            ("schedulers", ("tsgs", "tsgs"), "scheduler 'tsgs' listed twice"),
        ],
        ids=["str-seed", "float-seed", "bool-seed", "repeated-seed",
             "unknown-scheduler", "no-schedulers", "repeated-scheduler"],
    )
    def test_bad_seeds_and_schedulers_refused_before_any_work(
        self, field, value, message
    ):
        spec = parse_scenario(SMALL)
        with pytest.raises(ScenarioError) as info:
            spec.replace(**{field: value})
        assert str(info.value) == message

    def test_unknown_scheduler_name(self):
        requests = parse_scenario(SMALL).requests
        with pytest.raises(ValueError) as err:
            run_scheduler("nope", requests, SchedulerConfig(step=81), 0)
        assert str(err.value) == "unknown scheduler 'nope'"

    def test_repeat_runs_identical(self):
        spec = parse_scenario(SMALL)
        assert run_experiment(spec) == run_experiment(spec)

    def test_rescaling_sets_exact_windows(self):
        spec = parse_scenario(SMALL)
        for w in (243, 486):
            for r in rescale_requests(spec.requests, w, spec.scheduler_config):
                assert window(r, spec.scheduler_config.margin) == w


class TestEmission:
    HEADER = (
        "window_us,scheduler,seed,pdr,cost_us,candidate_evals,"
        "collisions_c0,collisions_c1,received_c0,received_c1,mean_delay_us"
    )

    def test_csv_header_and_line_count(self, tmp_path):
        table = small_table()
        out = tmp_path / "t.csv"
        out.write_text(render(table, "csv"), encoding="utf-8")
        lines = out.read_text().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 1 + len(table.rows)

    def test_csv_cell_formats(self):
        text = render(small_table(), "csv")
        first = text.splitlines()[1].split(",")
        assert first[0] == "243"
        assert first[1] == "exhaustive"
        assert first[2] == "3"  # sorted seeds: 3 first
        assert "." in first[3] and len(first[3].split(".")[1]) == 6

    def test_aggregate_rows_flagged_mean(self):
        text = render(small_table(), "csv")
        mean_lines = [l for l in text.splitlines() if ",mean," in l]
        assert len(mean_lines) == 9

    def test_empty_table_renders_header_only(self):
        text = render(SweepTable(connections=2, rows=()), "csv")
        assert text == self.HEADER + "\n"

    def test_byte_identical_re_render(self):
        assert render(small_table(), "csv") == render(small_table(), "csv")
        assert render(small_table(), "json") == render(small_table(), "json")

    def test_json_round_trip(self, tmp_path):
        table = small_table()
        out = tmp_path / "t.json"
        out.write_text(render(table, "json"), encoding="utf-8")
        assert read_table(out) == table

    def test_json_rejects_other_payloads(self, tmp_path):
        out = tmp_path / "bogus.json"
        out.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            read_table(out)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render(small_table(), "xml")


class TestComparison:
    def test_fixed_gap(self):
        rows = tuple(
            synthetic_row(name, seed, p)
            for name, p in (("tsgs", 1.0), ("random", 0.8))
            for seed in (1, 2, 3)
        )
        summary = report_comparison(SweepTable(connections=2, rows=rows))
        assert summary.pdr_gap == pytest.approx(0.2)
        assert summary.per_scheduler["tsgs"].mean_pdr == pytest.approx(1.0)
        assert summary.per_scheduler["random"].mean_pdr == pytest.approx(0.8)

    def test_per_scheduler_is_read_only(self):
        rows = tuple(
            synthetic_row(name, seed, p)
            for name, p in (("tsgs", 1.0), ("random", 0.8))
            for seed in (1, 2)
        )
        summary = report_comparison(SweepTable(connections=2, rows=rows))
        before = format_summary(summary)
        tsgs = summary.per_scheduler["tsgs"]
        with pytest.raises(TypeError):
            summary.per_scheduler["tsgs"] = summary.per_scheduler["random"]
        for change in (
            lambda d: d.pop("tsgs"),
            lambda d: d.update(x=tsgs),
            lambda d: d.setdefault("x", tsgs),
            lambda d: d.clear(),
        ):
            with pytest.raises(TypeError):
                change(summary.per_scheduler)
        with pytest.raises(TypeError):
            del summary.per_scheduler["tsgs"]
        assert format_summary(summary) == before
        assert hash(summary) == hash(report_comparison(SweepTable(2, rows)))

    def test_single_scheduler_rejected(self):
        rows = (synthetic_row("tsgs", 1, 1.0), synthetic_row("tsgs", 2, 0.9))
        with pytest.raises(MissingSchedulerError):
            report_comparison(SweepTable(connections=2, rows=rows))

    def test_aggregate_rows_do_not_double_count(self):
        table = small_table()
        trimmed = SweepTable(connections=2, rows=table.seed_rows())
        assert report_comparison(table) == report_comparison(trimmed)

    def test_gap_none_without_the_pair(self):
        rows = (
            synthetic_row("tsgs", 1, 1.0),
            synthetic_row("exhaustive", 1, 1.0),
        )
        summary = report_comparison(SweepTable(connections=2, rows=rows))
        assert summary.pdr_gap is None

    def test_format_summary_layout(self):
        rows = tuple(
            synthetic_row(name, seed, p)
            for name, p in (("tsgs", 1.0), ("random", 0.8))
            for seed in (1, 2)
        )
        text = format_summary(report_comparison(SweepTable(connections=2, rows=rows)))
        assert text.splitlines()[0].startswith("scheduler")
        assert "pdr gap (tsgs - random): +0.200000" in text


# ints and floats from subnormal to 1e300, mixed in one list
MIXED = st.one_of(
    st.integers(-(10**18), 10**18),
    st.floats(-1e300, 1e300),
    st.floats(-1e-300, 1e-300),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(MIXED, min_size=1, max_size=40))
def test_mean_is_fmean_bit_for_bit(values):
    assert _mean(iter(values)).hex() == statistics.fmean(values).hex()


def _hexes(row):
    """Every value of a row, floats as their exact hex strings."""
    values = (
        row.window_us, row.scheduler, row.seed, row.pdr, row.cost_us,
        row.candidate_evals, *row.collisions, "|", *row.received,
        row.mean_delay_us,
    )
    return [v.hex() if isinstance(v, float) else v for v in values]


def _fmean_aggregate(group):
    """The aggregate row, every column through statistics.fmean."""
    first = group[0]

    def per_connection(name):
        return tuple(
            statistics.fmean(column)
            for column in zip(*(getattr(r, name) for r in group))
        )

    return SweepRow(
        first.window_us,
        first.scheduler,
        "mean",
        statistics.fmean(r.pdr for r in group),
        statistics.fmean(r.cost_us for r in group),
        statistics.fmean(r.candidate_evals for r in group),
        per_connection("collisions"),
        per_connection("received"),
        statistics.fmean(r.mean_delay_us for r in group),
    )


def test_aggregate_of_ten_tenths_is_a_tenth():
    # ten 0.1s sum to 0.9999999999999999 in plain floats, so a plain
    # sum / len gives 0.09999999999999999; fsum gives 0.1
    group = [
        SweepRow(500, "random", seed, 0.1, 3, 0, (1, 0), (49, 50), 0.1)
        for seed in range(10)
    ]
    aggregate = experiment._aggregate(group, 2)
    assert _hexes(aggregate) == _hexes(_fmean_aggregate(group))
    assert (aggregate.pdr, aggregate.mean_delay_us) == (0.1, 0.1)


@st.composite
def aggregate_groups(draw):
    """Seed rows of one (window, scheduler) group, every measured value a
    MIXED int or float."""
    n = draw(st.integers(0, 3))
    window_us = draw(st.integers(-1, 10**6))

    def values(count):
        return tuple(draw(MIXED) for _ in range(count))

    return [
        SweepRow(window_us, "tsgs", seed, *values(3), values(n), values(n),
                 draw(MIXED))
        for seed in range(draw(st.integers(1, 12)))
    ]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(aggregate_groups())
def test_aggregate_is_fmean_bit_for_bit(group):
    aggregate = experiment._aggregate(group, len(group[0].collisions))
    assert _hexes(aggregate) == _hexes(_fmean_aggregate(group))


# -- one simulation per distinct run -------------------------------------


def table_without_memo(spec):
    """The table with every row's run simulated from scratch."""

    def fresh(*args, memo=None, **kwargs):
        return simulate(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "simulate", fresh)
        return run_experiment(spec)


@st.composite
def sweep_specs(draw):
    """Small scenarios whose sweeps run past the longest train, so that
    tsgs's placement settles and later windows repeat earlier runs. A
    margin of 0 and a busy channel often push packets past the deadline,
    so some repeated runs count late packets."""
    slot = draw(st.integers(1, 4))
    aifs = draw(st.sampled_from((0, slot, 2 * slot)))
    channel = ChannelConfig(
        slot, aifs, draw(st.integers(1, 6)), draw(st.sampled_from((0.0, 0.3)))
    )
    shapes = draw(st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4).map(lambda k: k * slot)),
        min_size=1, max_size=3,
    ))
    longest = max(packets * (aifs + airtime) for packets, airtime in shapes)
    config = SchedulerConfig(
        step=draw(st.integers(max(1, longest // 2), longest + 1)),
        margin=draw(st.sampled_from((0, slot))),
    )
    requests = tuple(
        TransmissionRequest(i, packets * (aifs + airtime) + config.margin,
                            packets, airtime, aifs)
        for i, (packets, airtime) in enumerate(shapes)
    )
    sweep = None
    if draw(st.integers(0, 3)):
        step = draw(st.integers(1, longest))
        start = draw(st.integers(0, longest))
        sweep = WindowSweep(start, start + step * draw(st.integers(0, 5)), step)
    schedulers = draw(st.lists(
        st.sampled_from(("exhaustive", "random", "tsgs")), min_size=1, unique=True
    ))
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=3, unique=True))
    return ScenarioSpec(
        requests, tuple(schedulers), config, channel, tuple(seeds), sweep
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sweep_specs())
def test_generated_tables_equal_tables_without_memo(spec):
    assert run_experiment(spec) == table_without_memo(spec)


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", (7, 1009))
@pytest.mark.parametrize("name", ("table2", "contention", "greedy", "oracle"))
def test_workload_tables_equal_tables_without_memo(name, seed):
    src = Path(experiment.__file__).resolve().parents[1]
    spec = parse_scenario(_workloads().scenario_text(name, seed, src))
    assert run_experiment(spec) == table_without_memo(spec)


def one_packet_spec(n, windows=1, schedulers=("tsgs",)):
    """n one-packet connections, one seed, in one window or a sweep of
    ``windows``."""
    requests = tuple(TransmissionRequest(i, 100, 1, 23) for i in range(n))
    sweep = None if windows == 1 else WindowSweep(100, 100 * windows, 100)
    return ScenarioSpec(
        requests, schedulers, SchedulerConfig(step=50), ChannelConfig(), (1,), sweep
    )


class TestTsgsCap:
    # check_run_size caps tsgs's pairs of connections, summed over windows

    @pytest.mark.parametrize("n, windows", [(6325, 1), (4472, 2)])
    def test_cap_between_largest_admitted_and_smallest_refused(self, n, windows):
        cap = experiment.MAX_TSGS_PAIRS
        assert windows * n * (n - 1) // 2 <= cap
        assert experiment.check_run_size(one_packet_spec(n, windows)) == (
            2 * windows, n * windows,
        )
        pairs = windows * (n + 1) * n // 2
        assert pairs > cap
        with pytest.raises(
            ScenarioError,
            match=f"^run too large: tsgs would place {pairs} pairs of connections, "
            f"above the cap of {cap} pairs$",
        ):
            experiment.check_run_size(one_packet_spec(n + 1, windows))
        # random places no pairs
        experiment.check_run_size(one_packet_spec(n + 1, windows, ("random",)))

    @pytest.mark.parametrize("seed", (7, 1009))
    @pytest.mark.parametrize("name", ("table2", "contention", "greedy", "oracle"))
    def test_bundled_and_benchmark_scenarios_admitted(self, name, seed):
        src = Path(experiment.__file__).resolve().parents[1]
        spec = parse_scenario(_workloads().scenario_text(name, seed, src))
        experiment.check_run_size(spec)
        points = 1 if spec.sweep is None else spec.sweep.count()
        n = len(spec.requests)
        # contention, 40 connections in 3 windows, places the most
        assert points * n * (n - 1) // 2 <= 2340

    def test_refused_before_any_work(self, monkeypatch):
        # two connections in three windows: one pair each
        spec = parse_scenario(SMALL)
        monkeypatch.setattr(experiment, "MAX_TSGS_PAIRS", 3)
        assert experiment.check_run_size(spec) == (36, 108)
        monkeypatch.setattr(experiment, "MAX_TSGS_PAIRS", 2)
        for name in (
            "tsgs_schedule", "exhaustive_schedule", "random_schedule",
            "run_scheduler", "simulate",
        ):
            monkeypatch.setattr(experiment, name, no_work)
        with pytest.raises(
            ScenarioError,
            match="^run too large: tsgs would place 3 pairs of connections, "
            "above the cap of 2 pairs$",
        ):
            run_experiment(spec)


def test_table2_simulates_each_distinct_run_once_per_call(monkeypatch):
    calls, closings, runs, builds = [], [], [], []

    def counted(module, name, made):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, **kwargs: made.append(1) or real(*args, **kwargs)
        )

    counted(experiment, "simulate", calls)
    counted(simulator, "_closed_starts", closings)
    counted(simulator, "_run", runs)
    counted(experiment, "_report_values", builds)
    spec = load_scenario(resolve_scenario("table2"))
    # the memo and the row values live for one call: a second one does as
    # much work again
    for _ in range(2):
        for made in (calls, closings, runs, builds):
            made.clear()
        run_experiment(spec)
        # one simulate call per row, 87 distinct schedules among the 400,
        # each closed once, and 83 distinct runs: a run is its starts up to
        # the idle gaps that a shift cannot change, so rows whose trains
        # sit apart share one run wherever they start. Each run's row
        # values are built once.
        assert (len(calls), len(closings), len(runs), len(builds)) == (
            400, 87, 83, 83
        )


def test_table2_random_calls_share_one_draw_memo(monkeypatch):
    # a tracer swaps experiment.random_schedule and must see one call per
    # (window, seed), each forwarding the experiment's one word-stream memo
    memos = []

    def spy(requests, config, seed, **kwargs):
        memos.append((seed, kwargs["memo"]))
        return random_schedule(requests, config, seed, **kwargs)

    monkeypatch.setattr(experiment, "random_schedule", spy)
    spec = load_scenario(resolve_scenario("table2"))
    run_experiment(spec)
    assert len(memos) == 200
    assert all(memo is memos[0][1] for _, memo in memos)
    # every seed has a stream, and a second call gets a new memo
    assert sorted(memos[0][1]) == sorted(spec.seeds)
    first = memos[0][1]
    memos.clear()
    run_experiment(spec)
    assert len(memos) == 200 and memos[0][1] is not first


def test_fresh_report_per_row_gets_its_own_values(monkeypatch):
    # with no memo every row gets a new report, and one freed after its
    # row could hand its id to a later one; the row cache holds each
    # report it files, so within a call no filed id is reused
    expected = []

    def fresh(*args, memo=None, **kwargs):
        report = simulate(*args, **kwargs)
        expected.append(experiment._report_values(report))
        return report

    monkeypatch.setattr(experiment, "simulate", fresh)
    table = run_experiment(load_scenario(resolve_scenario("table2")))
    assert len(expected) == 400
    assert [
        (r.pdr, r.collisions, r.received, r.mean_delay_us) for r in table.seed_rows()
    ] == expected


# -- rows and rendering against naive references -----------------------


def _requests_at(spec, window_us):
    if window_us == experiment.NATIVE_WINDOW:
        return spec.requests
    return rescale_requests(spec.requests, window_us, spec.scheduler_config)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sweep_specs())
def test_rows_equal_a_naive_reference(spec):
    table = run_experiment(spec)
    groups = {}
    for row in table.seed_rows():
        requests = _requests_at(spec, row.window_us)
        result = run_scheduler(
            row.scheduler, requests, spec.scheduler_config, row.seed
        )
        report = simulate(list(requests), result.schedule, spec.channel, row.seed)
        sent = report.total_sent
        assert row.pdr.hex() == (report.total_received / sent).hex()
        assert row.collisions == tuple(c.collided for c in report.per_connection)
        assert row.received == tuple(c.received for c in report.per_connection)
        delay = sum(c.delay_total_us for c in report.per_connection)
        assert row.mean_delay_us.hex() == (delay / sent).hex()
        assert (row.cost_us, row.candidate_evals) == (
            result.cost, result.candidate_evaluations
        )
        groups.setdefault((row.window_us, row.scheduler), []).append(row)
    aggregates = [r for r in table.rows if r.seed == "mean"]
    assert len(aggregates) == len(groups)
    for agg in aggregates:
        group = groups[agg.window_us, agg.scheduler]
        for name in ("pdr", "cost_us", "candidate_evals", "mean_delay_us"):
            expected = statistics.fmean(getattr(r, name) for r in group)
            assert getattr(agg, name).hex() == expected.hex(), name
        for name in ("collisions", "received"):
            for i, value in enumerate(getattr(agg, name)):
                expected = statistics.fmean(getattr(r, name)[i] for r in group)
                assert value.hex() == expected.hex(), (name, i)


def reference_csv(table):
    """The CSV by the per-cell rule: a float, subclasses included, with
    six decimals, anything else through str."""

    def cell(value):
        if isinstance(value, float):
            return f"{value:.6f}"
        return str(value)

    n = table.connections
    lines = [",".join(
        ["window_us", "scheduler", "seed", "pdr", "cost_us", "candidate_evals"]
        + [f"collisions_c{i}" for i in range(n)]
        + [f"received_c{i}" for i in range(n)]
        + ["mean_delay_us"]
    )]
    for row in table.rows:
        values = (
            [row.window_us, row.scheduler, row.seed, row.pdr, row.cost_us,
             row.candidate_evals]
            + list(row.collisions)
            + list(row.received)
            + [row.mean_delay_us]
        )
        lines.append(",".join(cell(v) for v in values))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sweep_specs())
def test_json_round_trip_of_generated_tables(spec):
    table = run_experiment(spec)
    text = render(table, "json")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.json"
        path.write_text(text, encoding="utf-8")
        read_back = read_table(path)
    assert read_back == table
    # records compare 1 == 1.0; the bytes tell an int read back as a float
    assert render(read_back, "json") == text


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sweep_specs())
def test_csv_equals_the_per_cell_rule(spec):
    table = run_experiment(spec)
    assert render(table, "csv") == reference_csv(table)


class _Ratio(float):
    """A float subclass, as a caller's own table may hold."""


def test_csv_of_a_hand_made_table():
    rows = (
        SweepRow(-1, "tsgs", 7, _Ratio(0.5), 2, 3, (1, 0), (2, 2), 1.25),
        SweepRow(
            -1, "tsgs", "mean", 0.5, 2.0, 3.0, (1.0, 0.0), (2.0, 2.0), _Ratio(1 / 3)
        ),
    )
    table = SweepTable(connections=2, rows=rows)
    text = render(table, "csv")
    assert text == reference_csv(table)
    assert text.splitlines()[1:] == [
        "-1,tsgs,7,0.500000,2,3,1,0,2,2,1.250000",
        "-1,tsgs,mean,0.500000,2.000000,3.000000,1.000000,0.000000,"
        "2.000000,2.000000,0.333333",
    ]
