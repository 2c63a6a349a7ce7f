import ast
import copy
import inspect
import pickle
import random
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import txsched
from reference import intervals, overlap
from txsched import (
    ChannelConfig,
    ComparisonSummary,
    ConnectionStats,
    InadmissibleRequestError,
    ScenarioError,
    ScenarioSpec,
    Schedule,
    ScheduleResult,
    SchedulerConfig,
    SchedulerSummary,
    SimReport,
    SweepRow,
    SweepTable,
    TransmissionRequest,
    WindowSweep,
    compute_duration,
    feasible,
    simulate,
    total_cost,
    window,
)
from txsched.core import _Record
from txsched.schedulers import candidate_grid


def req(deadline, packets=1, airtime=23, overhead=0, id=0):
    return TransmissionRequest(
        id=id,
        deadline=deadline,
        packet_count=packets,
        packet_airtime=airtime,
        per_packet_overhead=overhead,
    )


class TestComputeDuration:
    def test_fifty_packets_pure_airtime(self):
        assert compute_duration(req(10_000_000, packets=50)) == 1150

    def test_single_packet(self):
        assert compute_duration(req(100)) == 23

    def test_overhead_included(self):
        assert compute_duration(req(10_000_000, packets=50, overhead=10)) == 1650

    def test_inadmissible_raises(self):
        # the duration is the bare formula; window is the admissibility check
        assert compute_duration(req(22)) == 23
        with pytest.raises(InadmissibleRequestError):
            window(req(22))

    def test_boundary_deadline_is_admissible(self):
        assert compute_duration(req(23)) == 23

    def test_error_is_a_value_error(self):
        assert issubclass(InadmissibleRequestError, ValueError)


class TestWindow:
    def test_long_window(self):
        assert window(req(8_032_800, packets=50)) == 8_031_650

    def test_degenerate_window(self):
        assert window(req(23)) == 0

    def test_margin_consumes_slack(self):
        assert window(req(200, airtime=50), 10) == 140

    def test_margin_can_make_inadmissible(self):
        with pytest.raises(InadmissibleRequestError):
            window(req(55, airtime=50), 10)

    def test_window_plus_duration_is_deadline(self):
        rng = random.Random(20240813)
        for _ in range(300):
            d = rng.randint(1, 500)
            r = req(d + rng.randint(0, 10_000), airtime=d)
            assert window(r) + compute_duration(r) == r.deadline


def pair_overlap(start_a, length_a, start_b, length_b):
    """Overlap of [start_a, start_a + length_a) and [start_b, ...), read
    through total_cost, which counts the one pair twice."""
    rs = [req(10_000, airtime=length_a), req(10_000, airtime=length_b, id=1)]
    return total_cost(Schedule((start_a, start_b)), rs) // 2


class TestOverlap:
    def test_half_shifted(self):
        assert pair_overlap(0, 100, 50, 100) == 50

    def test_touching_is_zero(self):
        assert pair_overlap(0, 100, 100, 100) == 0

    def test_nested(self):
        assert pair_overlap(0, 100, 25, 50) == 50

    def test_symmetric_bounded_translation_invariant(self):
        rng = random.Random(99)
        for _ in range(500):
            a = (rng.randint(0, 1000), rng.randint(1, 300))
            b = (rng.randint(0, 1000), rng.randint(1, 300))
            o = pair_overlap(*a, *b)
            assert o == pair_overlap(*b, *a)
            assert 0 <= o <= min(a[1], b[1])
            shift = rng.randint(0, 500)
            assert o == pair_overlap(a[0] + shift, a[1], b[0] + shift, b[1])


class TestTotalCost:
    def test_double_counted_pair(self):
        rs = [req(1000, airtime=100, id=0), req(1000, airtime=100, id=1)]
        assert total_cost(Schedule((0, 50)), rs) == 100

    def test_disjoint_is_zero(self):
        rs = [req(1000, airtime=100, id=i) for i in range(3)]
        assert total_cost(Schedule((0, 100, 200)), rs) == 0

    def test_three_identical(self):
        rs = [req(1000, airtime=100, id=i) for i in range(3)]
        assert total_cost(Schedule((0, 0, 0)), rs) == 600

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            total_cost(Schedule((0,)), [req(100), req(100, id=1)])

    def _random_instance(self, rng):
        n = rng.randint(1, 4)
        rs = [
            req(5000, airtime=rng.randint(1, 200), id=i) for i in range(n)
        ]
        starts = tuple(rng.randint(0, 800) for _ in range(n))
        return Schedule(starts), rs

    def test_equals_twice_unordered_sum(self):
        rng = random.Random(4242)
        for _ in range(300):
            schedule, rs = self._random_instance(rng)
            ivals = intervals(schedule, rs)
            unordered = sum(
                overlap(ivals[i], ivals[j])
                for i in range(len(ivals))
                for j in range(i + 1, len(ivals))
            )
            assert total_cost(schedule, rs) == 2 * unordered

    def test_zero_iff_pairwise_disjoint(self):
        rng = random.Random(777)
        for _ in range(300):
            schedule, rs = self._random_instance(rng)
            spans = [
                (start, start + compute_duration(r))
                for start, r in zip(schedule.starts, rs)
            ]
            disjoint = all(
                spans[i][1] <= spans[j][0] or spans[j][1] <= spans[i][0]
                for i in range(len(spans))
                for j in range(i + 1, len(spans))
            )
            assert (total_cost(schedule, rs) == 0) == disjoint


class TestFeasible:
    def test_boundary_equality(self):
        assert feasible(Schedule((0,)), [req(50, airtime=50)])

    def test_one_past_deadline(self):
        assert not feasible(Schedule((1,)), [req(50, airtime=50)])

    def test_margin_consumes_slack(self):
        assert not feasible(Schedule((0,)), [req(55, airtime=50)], 10)

    def test_negative_start(self):
        # no Schedule holds one, and a look-alike that does is refused
        with pytest.raises(ValueError, match="schedule must be a Schedule"):
            feasible(SimpleNamespace(starts=(-1,)), [req(100, airtime=50)])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            feasible(Schedule((0, 0)), [req(100)])


class TestValidation:
    def test_zero_packets(self):
        with pytest.raises(ValueError):
            req(100, packets=0)

    def test_zero_airtime(self):
        with pytest.raises(ValueError):
            req(100, airtime=0)

    def test_negative_overhead(self):
        with pytest.raises(ValueError):
            req(100, overhead=-1)

    def test_negative_deadline(self):
        with pytest.raises(ValueError):
            req(-1)

    def test_negative_id(self):
        with pytest.raises(ValueError):
            req(100, id=-1)

    def test_negative_interval_start(self):
        with pytest.raises(ValueError):
            total_cost(Schedule((-1, 0)), [req(100), req(100, id=1)])

    def test_negative_interval_length(self):
        # occupancy lengths are train durations, kept positive by the request
        assert compute_duration(req(1, airtime=1)) == 1
        with pytest.raises(ValueError):
            req(100, airtime=-10)

    @pytest.mark.parametrize(
        "call",
        [
            total_cost,
            feasible,
            lambda schedule, rs: simulate(rs, schedule, ChannelConfig(), seed=1),
        ],
        ids=["total_cost", "feasible", "simulate"],
    )
    def test_count_mismatch_message(self, call):
        with pytest.raises(ValueError) as err:
            call(Schedule((0,)), [req(100), req(100, id=1)])
        assert str(err.value) == "schedule has 1 starts for 2 requests"

    @pytest.mark.parametrize(
        "call",
        [
            total_cost,
            feasible,
            lambda schedule, rs: simulate(rs, schedule, ChannelConfig(), seed=1),
        ],
        ids=["total_cost", "feasible", "simulate"],
    )
    @pytest.mark.parametrize("start", [0.5, True], ids=["float", "bool"])
    def test_non_int_start_message(self, call, start):
        # Schedule refuses such a start (TYPE_CHECKS), so each entry point
        # checks only that it was given a Schedule; a look-alike is refused
        rs = [req(10_000, packets=2, overhead=58, id=i) for i in range(2)]
        with pytest.raises(ValueError) as err:
            call(SimpleNamespace(starts=(start, 1)), rs)
        assert str(err.value) == "schedule must be a Schedule, got SimpleNamespace"

    @pytest.mark.parametrize(
        "call",
        [
            total_cost,
            feasible,
            lambda schedule, rs: simulate(rs, schedule, ChannelConfig(), seed=1),
        ],
        ids=["total_cost", "feasible", "simulate"],
    )
    def test_look_alike_request_message(self, call):
        # a look-alike's float airtime made a report of float counts
        look_alike = SimpleNamespace(
            id=1, deadline=1000, packet_count=2, packet_airtime=23.5,
            per_packet_overhead=0,
        )
        with pytest.raises(ValueError) as err:
            call(Schedule((0, 0)), [req(100), look_alike])
        assert str(err.value) == (
            "request must be a TransmissionRequest, got SimpleNamespace"
        )
        # the schedule is checked first, so its messages keep their order
        with pytest.raises(ValueError) as err:
            call(Schedule((0,)), [req(100), look_alike])
        assert str(err.value) == "schedule has 1 starts for 2 requests"

    @pytest.mark.parametrize(
        "call",
        [
            window,
            lambda request: window(request, 10),
            lambda request: candidate_grid(request, SchedulerConfig(step=1)),
        ],
        ids=["window", "window-margin", "candidate_grid"],
    )
    @pytest.mark.parametrize("airtime", [23.5, 23], ids=["float", "int"])
    def test_window_refuses_look_alike_request(self, call, airtime):
        # a look-alike's float airtime made window return the float 53.0
        look_alike = SimpleNamespace(
            id=0, deadline=100, packet_count=2, packet_airtime=airtime,
            per_packet_overhead=0,
        )
        with pytest.raises(ValueError) as err:
            call(look_alike)
        assert str(err.value) == (
            "request must be a TransmissionRequest, got SimpleNamespace"
        )

    def test_interval_end(self):
        # [40, 100) ends where [100, 110) starts; one tick earlier they overlap
        rs = [req(1000, airtime=60), req(1000, airtime=10, id=1)]
        assert total_cost(Schedule((40, 100)), rs) == 0
        assert total_cost(Schedule((40, 99)), rs) == 2


# -- record semantics ---------------------------------------------------

_REQUEST = dict(
    id=3, deadline=900, packet_count=2, packet_airtime=23, per_packet_overhead=58
)
_STATS = dict(
    sent=4, received=3, collided=1, ambient_lost=0, delivered_late=1,
    delay_total_us=26, realized_duration_us=330,
)
_ROW = dict(
    window_us=243, scheduler="tsgs", seed=7, pdr=0.75, cost_us=0,
    candidate_evals=4, collisions=(1, 0), received=(1, 2), mean_delay_us=6.5,
)
_SUMMARY = dict(mean_pdr=0.75, mean_collided=1.0, mean_delay_us=6.5)
_SPEC = dict(
    requests=(TransmissionRequest(**_REQUEST),),
    schedulers=("random", "tsgs"),
    scheduler_config=SchedulerConfig(step=81),
    channel=ChannelConfig(),
    seeds=(3, 7),
    sweep=WindowSweep(243, 729, 243),
)

# every public value type: its fields in declaration order, and one field
# changed to another valid value
RECORDS = [
    (TransmissionRequest, _REQUEST, ("deadline", 901)),
    (Schedule, dict(starts=(0, 81)), ("starts", (0, 82))),
    (
        ChannelConfig,
        dict(slot_time=13, aifs=58, cw=15, ambient_loss_rate=0.25),
        ("cw", 16),
    ),
    (ConnectionStats, _STATS, ("collided", 2)),
    (
        SimReport,
        dict(per_connection=(ConnectionStats(**_STATS),), backoff_activations=2),
        ("backoff_activations", 3),
    ),
    (
        SchedulerConfig,
        dict(step=81, margin=5, ordering="deadline-ascending"),
        ("margin", 6),
    ),
    (
        ScheduleResult,
        dict(schedule=Schedule((0, 81)), cost=0, candidate_evaluations=4),
        ("cost", 2),
    ),
    (WindowSweep, dict(start=243, stop=729, step=243), ("stop", 486)),
    (ScenarioSpec, _SPEC, ("sweep", None)),
    (SweepRow, _ROW, ("seed", "mean")),
    (SweepTable, dict(connections=2, rows=(SweepRow(**_ROW),)), ("rows", ())),
    (SchedulerSummary, _SUMMARY, ("mean_pdr", 0.5)),
    (
        ComparisonSummary,
        dict(per_scheduler={"tsgs": SchedulerSummary(**_SUMMARY)}, pdr_gap=0.25),
        ("pdr_gap", None),
    ),
]


@pytest.mark.parametrize(
    "cls, fields, change", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
class TestRecordSemantics:
    def test_equality_by_fields(self, cls, fields, change):
        name, value = change
        assert cls(**fields) == cls(**fields)
        assert cls(**fields) != cls(**{**fields, name: value})
        assert cls(**fields) != tuple(fields.values())
        for other, other_fields, _ in RECORDS:
            if other is not cls:
                assert cls(**fields) != other(**other_fields)

    def test_equal_values_hash_equal(self, cls, fields, change):
        assert hash(cls(**fields)) == hash(cls(**fields))

    def test_repr(self, cls, fields, change):
        text = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({text})"

    def test_frozen(self, cls, fields, change):
        record = cls(**fields)
        name, value = change
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert record == cls(**fields)

    def test_copy_deepcopy_pickle(self, cls, fields, change):
        record = cls(**fields)
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


# the records whose constructor _Record writes from their annotations;
# exec gives its code the file name "<string>"
GENERATED = [r for r in RECORDS if r[0].__init__.__code__.co_filename == "<string>"]


@pytest.mark.parametrize(
    "cls, fields, change", GENERATED, ids=[r[0].__name__ for r in GENERATED]
)
def test_generated_constructor_stores_each_argument(cls, fields, change):
    positional = cls(*(fields[name] for name in cls.__slots__))
    keyword = cls(**fields)
    assert positional == keyword
    assert hash(positional) == hash(keyword)
    for record in (positional, keyword):
        for name, value in fields.items():
            assert getattr(record, name) is value, name


# the defaults of every constructor, by class; a field not named here is
# required
DEFAULTS = {
    TransmissionRequest: {"per_packet_overhead": 0},
    ChannelConfig: {"slot_time": 13, "aifs": 58, "cw": 15, "ambient_loss_rate": 0.0},
    SchedulerConfig: {"margin": 0, "ordering": "input-order"},
    ScenarioSpec: {"sweep": None},
}


@pytest.mark.parametrize(
    "cls, fields, change", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_constructor_signature(cls, fields, change):
    parameters = inspect.signature(cls).parameters
    assert tuple(parameters) == cls.__slots__
    defaults = {
        name: p.default
        for name, p in parameters.items()
        if p.default is not inspect.Parameter.empty
    }
    assert defaults == DEFAULTS.get(cls, {})
    assert all(
        p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in parameters.values()
    )
    name = re.escape(f"{cls.__name__}.__init__()")
    if len(defaults) < len(parameters):
        with pytest.raises(TypeError, match=f"^{name} missing"):
            cls()
    with pytest.raises(TypeError, match=f"^{name} got an unexpected keyword"):
        cls(**fields, no_such_field=1)


def test_records_declare_fields_only_as_annotations():
    # a second list of the fields, or of the defaults, could drift from the
    # annotations that _Record reads
    package = Path(txsched.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "_Record"
                for base in node.bases
            ):
                for statement in node.body:
                    if isinstance(statement, ast.Assign):
                        targets = statement.targets
                    elif isinstance(statement, ast.AnnAssign):
                        targets = [statement.target]
                    else:
                        continue
                    found += [
                        f"{path.name}:{node.name}.{target.id}"
                        for target in targets
                        if isinstance(target, ast.Name)
                        and target.id in ("__slots__", "_defaults")
                    ]
    assert found == []


def test_record_without_annotated_fields_is_refused():
    # a record whose fields the metaclass cannot see would build empty
    with pytest.raises(TypeError) as info:
        class Bare(_Record):
            def _check(self):
                pass
    assert str(info.value) == "record Bare declares no annotated field"
    with pytest.raises(TypeError) as info:
        class Slotted(_Record):
            __slots__ = ("start",)
    assert str(info.value) == "record Slotted declares no annotated field"


# every check a constructor makes, with one failing field and its full
# message
_VALID = {
    TransmissionRequest: _REQUEST,
    Schedule: {"starts": (0, 81)},
    ChannelConfig: {},
    SchedulerConfig: {"step": 81},
    WindowSweep: {"start": 243, "stop": 729, "step": 243},
    ScenarioSpec: _SPEC,
}
CHECKS = [
    (TransmissionRequest, {"id": -1}, "connection id must be >= 0, got -1"),
    (TransmissionRequest, {"deadline": -1}, "deadline must be >= 0, got -1"),
    (TransmissionRequest, {"packet_count": 0}, "packet_count must be >= 1, got 0"),
    (TransmissionRequest, {"packet_airtime": 0}, "packet_airtime must be > 0, got 0"),
    (
        TransmissionRequest,
        {"per_packet_overhead": -1},
        "per_packet_overhead must be >= 0, got -1",
    ),
    (Schedule, {"starts": (0, -1)}, "scheduled start must be >= 0, got -1"),
    # a list would build a schedule that cannot hash
    (Schedule, {"starts": [0, 81]}, "starts must be a tuple, got list"),
    (ChannelConfig, {"slot_time": 0}, "slot_time must be > 0, got 0"),
    (ChannelConfig, {"aifs": -1}, "aifs must be >= 0, got -1"),
    (ChannelConfig, {"cw": 0}, "cw must be >= 1, got 0"),
    (
        ChannelConfig,
        {"ambient_loss_rate": 1.5},
        "ambient_loss_rate must be in [0, 1], got 1.5",
    ),
    (SchedulerConfig, {"step": 0}, "step must be > 0, got 0"),
    (SchedulerConfig, {"margin": -1}, "margin must be >= 0, got -1"),
    (
        SchedulerConfig,
        {"ordering": "sideways"},
        "ordering must be one of ('input-order', 'deadline-ascending'), "
        "got 'sideways'",
    ),
    (WindowSweep, {"step": 0}, "sweep step must be > 0, got 0"),
    (WindowSweep, {"start": -1}, "sweep start must be >= 0, got -1"),
    (WindowSweep, {"stop": 242}, "sweep stop 242 is below start 243"),
    (ScenarioSpec, {"requests": ()}, "scenario defines no connections"),
    (ScenarioSpec, {"seeds": ()}, "scenario defines no seeds"),
    (ScenarioSpec, {"seeds": (3, 7, 3)}, "seed 3 listed twice"),
    (ScenarioSpec, {"schedulers": ()}, "scenario defines no schedulers"),
    (
        ScenarioSpec,
        {"schedulers": ("tsgs", "zzz")},
        "unknown scheduler 'zzz'; expected one of ('exhaustive', 'random', 'tsgs')",
    ),
    (ScenarioSpec, {"schedulers": ("tsgs", "tsgs")}, "scheduler 'tsgs' listed twice"),
    (
        ScenarioSpec,
        {"scheduler_config": SchedulerConfig(step=81, margin=800)},
        "connection 3: duration 162us + margin 800us exceeds deadline 900us",
    ),
]


@pytest.mark.parametrize(
    "cls, bad, message",
    CHECKS,
    ids=[f"{cls.__name__}-{next(iter(bad))}" for cls, bad, _ in CHECKS],
)
def test_check_message(cls, bad, message):
    with pytest.raises(ValueError) as info:
        cls(**{**_VALID[cls], **bad})
    assert str(info.value) == message


def test_every_checked_record_has_check_cases():
    # a public record whose _check no CHECKS row reaches could lose a rule
    # unnoticed
    checked = {
        cls for cls in (getattr(txsched, name) for name in txsched.__all__)
        if isinstance(cls, type) and issubclass(cls, _Record) and hasattr(cls, "_check")
    }
    assert Schedule in checked
    assert checked <= _VALID.keys()
    assert checked <= {cls for cls, _, _ in CHECKS}


# times and counts are whole numbers: a float or a bool passes every range
# check and would corrupt the integer arithmetic behind it
TYPE_CHECKS = [
    (
        TransmissionRequest,
        {"packet_airtime": 23.5},
        "packet_airtime must be an int, got 23.5",
    ),
    (TransmissionRequest, {"packet_count": True}, "packet_count must be an int, got True"),
    (Schedule, {"starts": (0.5, 1)}, "scheduled start must be an int, got 0.5"),
    (Schedule, {"starts": (True, 1)}, "scheduled start must be an int, got True"),
    (ChannelConfig, {"slot_time": 13.0}, "slot_time must be an int, got 13.0"),
    (SchedulerConfig, {"step": 10.5}, "step must be an int, got 10.5"),
    (SchedulerConfig, {"margin": True}, "margin must be an int, got True"),
    (WindowSweep, {"start": 0.5}, "sweep start must be an int, got 0.5"),
    (WindowSweep, {"stop": 729.0}, "sweep stop must be an int, got 729.0"),
    (WindowSweep, {"step": True}, "sweep step must be an int, got True"),
    (ScenarioSpec, {"seeds": (3.0,)}, "seed must be an int, got 3.0"),
    (ScenarioSpec, {"seeds": (True,)}, "seed must be an int, got True"),
    # a string raised TypeError from the range check, and a bool passed it
    (
        ChannelConfig,
        {"ambient_loss_rate": "0.1"},
        "ambient_loss_rate must be an int or a float, got '0.1'",
    ),
    (
        ChannelConfig,
        {"ambient_loss_rate": True},
        "ambient_loss_rate must be an int or a float, got True",
    ),
    # a spec's fields, typed as a Schedule's starts are: a list built a
    # spec that cannot hash, and a None or a tuple in a record's place
    # built one that failed only when run
    (
        ScenarioSpec,
        {"requests": list(_SPEC["requests"])},
        "requests must be a tuple, got list",
    ),
    (ScenarioSpec, {"seeds": [3]}, "seeds must be a tuple, got list"),
    (ScenarioSpec, {"schedulers": ["tsgs"]}, "schedulers must be a tuple, got list"),
    (
        ScenarioSpec,
        {"requests": (1,)},
        "request must be a TransmissionRequest, got int",
    ),
    (
        ScenarioSpec,
        {"scheduler_config": None},
        "scheduler_config must be a SchedulerConfig, got NoneType",
    ),
    (ScenarioSpec, {"channel": None}, "channel must be a ChannelConfig, got NoneType"),
    (ScenarioSpec, {"sweep": (1, 2, 3)}, "sweep must be a WindowSweep, got tuple"),
]


@pytest.mark.parametrize(
    "cls, bad, message",
    TYPE_CHECKS,
    ids=[f"{cls.__name__}-{next(iter(bad))}" for cls, bad, _ in TYPE_CHECKS],
)
def test_type_check_message(cls, bad, message):
    with pytest.raises(ValueError) as info:
        cls(**{**_VALID[cls], **bad})
    assert str(info.value) == message


def test_spec_type_refusals_are_scenario_errors():
    # the CLI reports a ScenarioError as a fault of the scenario, exit 1
    for cls, bad, message in TYPE_CHECKS:
        if cls is ScenarioSpec:
            with pytest.raises(ScenarioError, match=re.escape(message)):
                ScenarioSpec(**{**_SPEC, **bad})


def test_equal_fields_of_another_type_differ():
    assert WindowSweep(1, 2, 3) != SchedulerSummary(1, 2, 3)


def test_replace_runs_the_constructor_again():
    request = TransmissionRequest(**_REQUEST)
    assert request.replace(deadline=901) == TransmissionRequest(
        **{**_REQUEST, "deadline": 901}
    )
    assert request == TransmissionRequest(**_REQUEST)
    with pytest.raises(ValueError, match="packet_count must be >= 1, got 0"):
        request.replace(packet_count=0)
    with pytest.raises(TypeError):
        request.replace(no_such_field=1)


def test_positional_construction_follows_field_order():
    assert TransmissionRequest(*_REQUEST.values()) == TransmissionRequest(**_REQUEST)
    assert SweepRow(*_ROW.values()) == SweepRow(**_ROW)
    assert ChannelConfig() == ChannelConfig(13, 58, 15, 0.0)
