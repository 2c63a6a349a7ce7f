import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txsched import (
    ScenarioError,
    ScenarioSpec,
    WindowSweep,
    load_scenario,
    parse_scenario,
    window,
)
from txsched.cli import resolve_scenario

MINIMAL = """\
format txsched/1
connection 0 deadline 200us packets 1 airtime 50us
connection 1 deadline 200us packets 1 airtime 50us
scheduler step 50us
schedulers tsgs random
seeds 1 2 3
"""


def parse(text):
    return parse_scenario(text, source="test.scn")


# each key/value directive's keys, each with a value it accepts
VALID = {
    "connection": {
        "deadline": "100us", "packets": "1", "airtime": "10us", "overhead": "0us",
    },
    "scheduler": {"step": "5us", "margin": "0us", "ordering": "input-order"},
    "channel": {
        "slot_time": "13us", "aifs": "58us", "cw": "15", "airtime": "23us",
        "ambient_loss": "0.5",
    },
    "sweep": {"start": "0us", "stop": "10us", "step": "5us"},
}
MALFORMED = (
    "1_0", "1_0us", "\u0663", "\u0663us", "-", "-us", ".", "nan", "1e3", "+5",
    "us", "10", "0us", "-5us", "0", "-1", "1.5", "10.5us", "0.0_1",
    str(10**30), f"{10**30}us", "9" * 5000, "9" * 5000 + "us", "0." + "9" * 5000,
)
KEYS = sorted({key for keys in VALID.values() for key in keys}) + ["bogus"]
TOKENS = (
    sorted({value for keys in VALID.values() for value in keys.values()})
    + ["tsgs", "random", "exhaustive", "deadline-ascending", "txsched/1"]
    + list(MALFORMED)
)
WHOLE_LINES = (
    "connection 2 deadline 100us packets 1",
    "connection 3 deadline 50us packets 2 airtime 10us overhead 5us",
    "scheduler step 5us margin 10us",
    "schedulers tsgs random",
    "channel airtime 30us ambient_loss 0.5",
    "sweep start 0us stop 10us step 5us",
    "seeds 1 2",
)


def key_value_line(directive):
    """`directive` with distinct keys, each value valid for its key or
    malformed."""
    keys = VALID[directive]
    pair = st.sampled_from([*keys, "bogus"]).flatmap(
        lambda key: st.tuples(
            st.just(key),
            st.one_of(st.just(keys.get(key, "1")), st.sampled_from(MALFORMED)),
        )
    )
    head = st.just(directive)
    if directive == "connection":
        head = st.sampled_from(("connection 1", "connection 2", "connection 3"))
    return st.builds(
        lambda head, pairs: " ".join([head, *(word for kv in pairs for word in kv)]),
        head,
        st.lists(pair, max_size=5, unique_by=lambda kv: kv[0]),
    )


LINES = st.one_of(
    st.sampled_from(WHOLE_LINES),
    st.sampled_from(list(VALID)).flatmap(key_value_line),
    st.builds(
        lambda directive, words: " ".join((directive, *words)),
        st.sampled_from([*VALID, "format", "schedulers", "seeds", "frobnicate"]),
        st.lists(st.sampled_from(KEYS + TOKENS), max_size=9),
    ),
)
# mostly the right header, so that most examples get past it
HEADERS = st.sampled_from(["format txsched/1"] * 6 + ["", "format txsched/9"])


class TestBundledScenario:
    def test_loads_and_matches_documented_shape(self):
        spec = load_scenario(resolve_scenario("table2"))
        assert len(spec.requests) == 2
        for r in spec.requests:
            assert r.packet_count == 50
            assert r.packet_airtime == 23
            assert r.per_packet_overhead == 58
            assert r.deadline == 36_850
            assert window(r, spec.scheduler_config.margin) == 32_800
        assert spec.schedulers == ("tsgs", "random")
        assert spec.scheduler_config.step == 1377
        assert spec.channel.ambient_loss_rate == 0.01
        assert spec.seeds == tuple(range(101, 121))
        assert spec.sweep is not None
        assert spec.sweep.points() == range(3280, 32_801, 3280)

    def test_name_with_extension_also_resolves(self):
        assert resolve_scenario("table2.scn").read_text().startswith("#")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        table2 = resolve_scenario("table2")
        path = tmp_path / "bom.scn"
        path.write_bytes(b"\xef\xbb\xbf" + table2.read_bytes())
        assert load_scenario(path) == load_scenario(table2)


class TestParsing:
    def test_minimal_scenario(self):
        spec = parse(MINIMAL)
        assert len(spec.requests) == 2
        assert spec.sweep is None
        assert spec.channel.aifs == 58  # defaults apply

    def test_comments_and_blank_lines_ignored(self):
        spec = parse(
            "# leading comment\n\nformat txsched/1\n"
            "connection 0 deadline 100us packets 1 airtime 10us  # trailing\n"
            "scheduler step 10us\nschedulers tsgs random\nseeds 9\n"
        )
        assert spec.requests[0].deadline == 100

    def test_airtime_defaults_to_channel(self):
        spec = parse(
            "format txsched/1\n"
            "connection 0 deadline 1000us packets 3\n"
            "scheduler step 10us\nschedulers tsgs random\n"
            "channel airtime 37us\nseeds 1\n"
        )
        assert spec.requests[0].packet_airtime == 37

    def test_overhead_defaults_to_zero(self):
        assert parse(MINIMAL).requests[0].per_packet_overhead == 0

    def test_seeds_accumulate_across_lines(self):
        spec = parse(MINIMAL + "seeds 4 5\n")
        assert spec.seeds == (1, 2, 3, 4, 5)

    def test_sweep_points_inclusive(self):
        assert list(WindowSweep(10, 50, 20).points()) == [10, 30, 50]
        assert list(WindowSweep(0, 0, 5).points()) == [0]

    def test_sweep_points_not_materialised(self):
        # the type check comes first: a list-building points() must never
        # be asked for the huge sweep below
        assert isinstance(WindowSweep(10, 50, 20).points(), range)
        assert len(WindowSweep(0, 10**15 - 1, 1).points()) == 10**15
        assert len(WindowSweep(5, 10**15, 10**9).points()) == 10**6

    def test_sweep_count_is_len_of_points_without_its_limit(self):
        for sweep in (WindowSweep(10, 50, 20), WindowSweep(10, 49, 20),
                      WindowSweep(0, 0, 5), WindowSweep(5, 10**15, 10**9)):
            assert sweep.count() == len(sweep.points())
        # len() raises OverflowError past sys.maxsize
        assert WindowSweep(0, 10**30, 1).count() == 10**30 + 1


class TestErrors:
    def expect(self, text, fragment, line=None):
        with pytest.raises(ScenarioError) as err:
            parse(text)
        message = str(err.value)
        assert fragment in message
        if line is not None:
            assert f"test.scn:{line}:" in message

    def test_missing_format(self):
        self.expect("connection 0 deadline 9us packets 1\n", "format", line=1)

    def test_unsupported_format(self):
        self.expect("format txsched/9\n", "unsupported format", line=1)

    def test_empty_scenario(self):
        self.expect("format txsched/1\n", "no connections")

    def test_zero_packets_names_connection_and_line(self):
        self.expect(
            "format txsched/1\n"
            "connection 0 deadline 100us packets 0 airtime 10us\n"
            "scheduler step 10us\nschedulers tsgs\nseeds 1\n",
            "connection 0",
            line=2,
        )

    def test_inadmissible_deadline(self):
        self.expect(
            "format txsched/1\n"
            "connection 0 deadline 10us packets 5 airtime 10us\n"
            "scheduler step 10us\nschedulers tsgs\nseeds 1\n",
            "connection 0",
            line=2,
        )

    def test_margin_breaks_admissibility(self):
        self.expect(
            "format txsched/1\n"
            "connection 0 deadline 100us packets 1 airtime 90us\n"
            "scheduler step 10us margin 20us\nschedulers tsgs\nseeds 1\n",
            "connection 0",
        )

    def test_duplicate_connection_id(self):
        self.expect(
            "format txsched/1\n"
            "connection 0 deadline 100us packets 1 airtime 10us\n"
            "connection 0 deadline 100us packets 1 airtime 10us\n"
            "scheduler step 10us\nschedulers tsgs\nseeds 1\n",
            "duplicate connection id",
            line=3,
        )

    def test_spec_refuses_duplicate_connection_ids(self):
        # the parser's rule, kept by the spec too: the parser's message is
        # unchanged, and a spec built by hand refuses what it refuses
        text = MINIMAL.replace("connection 1 ", "connection 0 ")
        with pytest.raises(ScenarioError) as err:
            parse(text)
        assert str(err.value) == "test.scn:3: duplicate connection id 0"
        spec = parse(MINIMAL)
        first = spec.requests[0]
        with pytest.raises(ScenarioError) as err:
            spec.replace(requests=(first, first))
        assert str(err.value) == "duplicate connection id 0"
        with pytest.raises(ScenarioError) as err:
            spec.replace(requests=(first, spec.requests[1].replace(id=0)))
        assert str(err.value) == "duplicate connection id 0"

    def test_missing_us_suffix(self):
        self.expect(
            "format txsched/1\n"
            "connection 0 deadline 100 packets 1 airtime 10us\n",
            "'us' suffix",
            line=2,
        )

    def test_unknown_directive(self):
        self.expect("format txsched/1\nfrobnicate 3\n", "unknown directive", line=2)

    def test_unknown_scheduler(self):
        self.expect(
            "format txsched/1\nschedulers psychic\n", "unknown scheduler", line=2
        )

    def test_seeds_without_values(self):
        self.expect(
            "format txsched/1\nseeds\n", ": seeds needs at least one value", line=2
        )

    def test_duplicate_scheduler_name(self):
        self.expect(
            "format txsched/1\nschedulers tsgs tsgs\n", "listed twice", line=2
        )

    def test_missing_seeds(self):
        self.expect(
            "format txsched/1\n"
            "connection 0 deadline 100us packets 1 airtime 10us\n"
            "scheduler step 10us\nschedulers tsgs\n",
            "no seeds",
        )

    def test_duplicate_seed(self):
        self.expect("format txsched/1\nseeds 5 5\n", "seed 5 listed twice", line=2)

    def test_duplicate_seed_across_lines(self):
        self.expect(
            "format txsched/1\nseeds 5 6\nseeds 7 5\n", "seed 5 listed twice", line=3
        )

    def test_scheduler_without_step(self):
        self.expect("format txsched/1\nscheduler margin 0us\n", "missing 'step'", line=2)

    def test_bad_ordering(self):
        self.expect(
            "format txsched/1\nscheduler step 5us ordering random-ish\n",
            "ordering",
            line=2,
        )

    def test_odd_key_value_pairs(self):
        self.expect(
            "format txsched/1\nchannel aifs\n", "key/value pairs", line=2
        )

    def test_invalid_channel_value(self):
        self.expect("format txsched/1\nchannel cw 0\n", "invalid channel", line=2)
        self.expect(
            "format txsched/1\nchannel airtime 0us\n", "invalid channel", line=2
        )

    def test_invalid_sweep(self):
        self.expect(
            "format txsched/1\nsweep start 100us stop 50us step 10us\n",
            "invalid sweep",
        )

    def test_sweep_step_zero_rejected(self):
        self.expect(
            "format txsched/1\nsweep start 0us stop 50us step 0us\n",
            "invalid sweep",
        )

    def test_duplicate_directives(self):
        self.expect(
            "format txsched/1\nscheduler step 5us\nscheduler step 6us\n",
            "duplicate scheduler",
            line=3,
        )

    def test_repeated_key_in_directive(self):
        self.expect(
            "format txsched/1\n"
            "connection 0 deadline 100us deadline 5000us packets 1 airtime 10us\n",
            "connection repeats 'deadline'",
            line=2,
        )
        self.expect(
            "format txsched/1\nscheduler step 5us step 7us\n",
            "scheduler repeats 'step'",
            line=2,
        )

    def test_underscored_digits_rejected(self):
        self.expect(
            "format txsched/1\n"
            "connection 0 deadline 1_000us packets 1 airtime 10us\n",
            "not an integer microsecond value: '1_000us'",
            line=2,
        )
        self.expect("format txsched/1\nseeds 1_0\n", "not an integer: '1_0'", line=2)

    def test_non_ascii_digits_rejected(self):
        self.expect(
            "format txsched/1\n"
            "connection 0 deadline \u0663\u0660\u0660\u0660us packets 1 airtime 10us\n",
            "not an integer microsecond value",
            line=2,
        )
        self.expect(
            "format txsched/1\nconnection 0 deadline 100us packets \u0663\n",
            "packets is not an integer",
            line=2,
        )

    def test_lenient_decimals_rejected(self):
        # float() alone reads '0.0_1' as 0.01 and '\u0660.5' as 0.5
        for token in ("0.0_1", "\u0660.5", "1e-2", "nan", "0.1.2", "."):
            self.expect(
                f"format txsched/1\nchannel ambient_loss {token}\n",
                f"ambient_loss is not a decimal number: {token!r}",
                line=2,
            )

    def test_plain_decimals_accepted(self):
        spec = parse(
            "format txsched/1\n"
            "connection 0 deadline 100us packets 1 airtime 10us\n"
            "scheduler step 10us\nschedulers tsgs\nseeds 1\n"
            "channel ambient_loss .25\n"
        )
        assert spec.channel.ambient_loss_rate == 0.25
        self.expect(
            "format txsched/1\nchannel ambient_loss -0.5\n",
            "invalid channel",
            line=2,
        )

    def test_negative_values_reach_range_checks(self):
        self.expect(
            "format txsched/1\n"
            "connection 0 deadline -5us packets 1 airtime 10us\n"
            "scheduler step 10us\nschedulers tsgs\nseeds 1\n",
            "deadline must be >= 0",
            line=2,
        )
        self.expect(
            "format txsched/1\nscheduler step -5us\n",
            "step must be > 0",
            line=2,
        )

    def test_overlong_integers_rejected(self):
        # int() raises its own ValueError past its digit limit
        digits = "9" * 5000
        self.expect(
            f"format txsched/1\nseeds {digits}\n", "seed is not an integer", line=2
        )
        self.expect(
            f"format txsched/1\nconnection 0 deadline {digits}us packets 1\n",
            "deadline is not an integer microsecond value",
            line=2,
        )

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_scenario("/nonexistent/path.scn")

    @pytest.mark.parametrize(
        "data, line, byte",
        [
            (b"format txsched/1\n# caf\xe9\n", 2, "0xe9"),
            (b"format txsched/1\r\n\r\nseeds 1 \xff\n", 3, "0xff"),
            (b"\xe9", 1, "0xe9"),
            # utf-8-sig would report offsets past the mark and the wrong byte
            (b"\xef\xbb\xbfformat txsched/1\n\n# caf\xe9\n", 3, "0xe9"),
        ],
        ids=["comment", "crlf", "first-byte", "byte-order-mark"],
    )
    def test_non_utf8_file_names_its_line(self, tmp_path, data, line, byte):
        path = tmp_path / "latin1.scn"
        path.write_bytes(data)
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == f"{path}:{line}: byte {byte} is not UTF-8 text"

    def test_error_is_value_error(self):
        assert issubclass(ScenarioError, ValueError)


class TestFuzz:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(HEADERS, st.booleans(), st.lists(LINES, max_size=8))
    def test_token_soup_raises_only_scenario_error(self, header, minimal, lines):
        # MINIMAL's body first lets the lines after it reach whole-scenario checks
        body = MINIMAL.splitlines()[1:] if minimal else []
        text = "\n".join([header, *body, *lines])
        try:
            assert isinstance(parse(text), ScenarioSpec)
        except ScenarioError:
            pass

    @pytest.mark.parametrize(
        "directive,key",
        [(directive, key) for directive, keys in VALID.items() for key in keys],
    )
    def test_bad_token_names_key_and_line(self, directive, key):
        # the other keys valid, so the line's error can only be this key's
        head = "connection 0" if directive == "connection" else directive
        others = [f"{k} {v}" for k, v in VALID[directive].items() if k != key]
        line = f"format txsched/1\n{head} {' '.join(others)} {key} "
        for token in MALFORMED:
            with pytest.raises(ScenarioError):
                parse(line + token)
        with pytest.raises(ScenarioError) as err:
            parse(line + "\u0663")
        message = str(err.value)
        assert message.startswith("test.scn:2: ")
        assert key in message.removeprefix("test.scn:2: ")
