import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txsched import (
    MissingSchedulerError,
    SchedulerConfig,
    SweepRow,
    SweepTable,
    TransmissionRequest,
    emit,
    format_summary,
    parse_scenario,
    read_table,
    render,
    report_comparison,
    rescale_requests,
    run_experiment,
    run_scheduler,
    window,
)
from txsched.experiment import _mean

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


class TestRunExperiment:
    def test_row_accounting(self):
        table = small_table()
        # 3 sweep points x 3 schedulers x 3 seeds, plus 9 aggregates
        assert len(table.seed_rows()) == 27
        assert sum(r.is_aggregate for r in table.rows) == 9
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
            if row.is_aggregate:
                prev = rows[i - 1]
                assert (prev.window_us, prev.scheduler) == (
                    row.window_us,
                    row.scheduler,
                )
                assert not prev.is_aggregate

    def test_aggregate_means(self):
        table = small_table()
        for agg in (r for r in table.rows if r.is_aggregate):
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
        emit(table, "csv", out)
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
        emit(table, "json", out)
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
