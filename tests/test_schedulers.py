import itertools
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from timeouts import bounded

from txsched import (
    InstanceTooLargeError,
    Schedule,
    SchedulerConfig,
    TransmissionRequest,
    compute_duration,
    exhaustive_schedule,
    feasible,
    random_schedule,
    schedulers,
    total_cost,
    tsgs_schedule,
    window,
)
from txsched.schedulers import candidate_grid


def req(deadline, airtime, id=0, packets=1, overhead=0):
    return TransmissionRequest(
        id=id,
        deadline=deadline,
        packet_count=packets,
        packet_airtime=airtime,
        per_packet_overhead=overhead,
    )


def pair_200_50():
    return [req(200, 50, id=0), req(200, 50, id=1)]


def random_instance(rng, max_n=3, max_sigma=7):
    """Admissible instance with per-connection windows of at most
    max_sigma steps; returns (requests, config)."""
    n = rng.randint(1, max_n)
    step = rng.randint(1, 40)
    margin = rng.choice((0, 0, rng.randint(1, 3 * step)))
    requests = []
    for i in range(n):
        d = rng.randint(1, 6 * step)
        w = rng.randint(0, max_sigma * step)
        requests.append(req(w + d + margin, d, id=i))
    return requests, SchedulerConfig(step=step, margin=margin)


def grid_starts(request, config):
    # independent of candidate_grid: rebuild the grid from the definition
    w = request.deadline - compute_duration(request) - config.margin
    return [k * config.step for k in range(w // config.step + 1)]


def enumerate_costs(requests, config):
    grids = [grid_starts(r, config) for r in requests]
    return [
        (total_cost(Schedule(starts), requests), starts)
        for starts in itertools.product(*grids)
    ]


class TestCandidateGrid:
    def test_inclusive_endpoints(self):
        grid = candidate_grid(req(200, 50), SchedulerConfig(step=50))
        assert grid == range(0, 151, 50)
        assert tuple(grid) == (0, 50, 100, 150)
        assert len(grid) == 4

    def test_floor_on_non_divisible_window(self):
        # window 149 with step 50 keeps only multiples up to 100
        grid = candidate_grid(req(199, 50), SchedulerConfig(step=50))
        assert tuple(grid) == (0, 50, 100)

    def test_every_candidate_is_admissible(self):
        rng = random.Random(31)
        for _ in range(300):
            requests, config = random_instance(rng)
            for r in requests:
                grid = candidate_grid(r, config)
                for c in grid:
                    assert c + compute_duration(r) + config.margin <= r.deadline

    def test_out_of_range_index(self):
        grid = candidate_grid(req(80, 50), SchedulerConfig(step=10))
        assert grid[3] == 30
        with pytest.raises(IndexError):
            grid[4]


class TestTsgs:
    def test_two_connections_earliest_disjoint(self):
        result = tsgs_schedule(pair_200_50(), SchedulerConfig(step=50))
        assert result.schedule.starts == (0, 50)
        assert result.cost == 0

    def test_single_connection_starts_at_zero(self):
        result = tsgs_schedule([req(900, 77)], SchedulerConfig(step=13))
        assert result.schedule.starts == (0,)
        assert result.cost == 0
        assert result.candidate_evaluations == 0

    def test_wide_window_packet_trains(self):
        rs = [
            req(33_950, 23, id=0, packets=50),
            req(33_950, 23, id=1, packets=50),
        ]
        result = tsgs_schedule(rs, SchedulerConfig(step=1150))
        assert result.cost == 0
        assert result.schedule.starts == (0, 1150)

    def test_smallest_index_wins_ties(self):
        # second connection has zero-overlap candidates 50, 100, 150
        result = tsgs_schedule(pair_200_50(), SchedulerConfig(step=50))
        assert result.schedule.starts[1] == 50

    def test_earlier_placements_never_move(self):
        rng = random.Random(555)
        for _ in range(100):
            requests, config = random_instance(rng)
            starts = tsgs_schedule(requests, config).schedule.starts
            prefix = tsgs_schedule(requests[:-1], config).schedule.starts
            assert starts[: len(prefix)] == prefix

    def test_deterministic(self):
        requests, config = random_instance(random.Random(8))
        assert tsgs_schedule(requests, config) == tsgs_schedule(requests, config)

    def test_work_bounded_by_breakpoints_not_grid(self, monkeypatch):
        # trains of 100 to 111 ms in windows of about 100 ms, on grids of
        # over 10**5 points each: the first sits at 0 and the second fits
        # free at 100,000, right after it; every later start overlaps the
        # first two, so only those placements are scored
        rs = [
            req(100_000 + 37 * i + length, length, id=i)
            for i, length in enumerate(range(100_000, 112_000, 1_000))
        ]
        config = SchedulerConfig(step=1)
        scored = []
        overlaps = schedulers._overlaps

        def counted(starts, duration, spans):
            starts = list(starts)
            scored.append((len(starts), len(spans)))
            return overlaps(starts, duration, spans)

        monkeypatch.setattr(schedulers, "_overlaps", counted)
        result = tsgs_schedule(rs, config)
        grids = [len(candidate_grid(r, config)) for r in rs]
        assert min(grids) > 10**5
        assert result.schedule.starts[:2] == (0, 100_000)
        assert [placed for _, placed in scored] == list(range(2, len(rs)))
        assert all(count <= 4 * placed + 2 for count, placed in scored)
        assert feasible(result.schedule, rs)
        assert result.cost == total_cost(result.schedule, rs) > 0
        assert result.candidate_evaluations == sum(g * i for i, g in enumerate(grids))

    def test_deadline_ascending_order_can_beat_input_order(self):
        # long duration first is a greedy trap: placed at 0 it leaves the
        # tight second connection nowhere to go
        rs = [req(13, 7, id=0), req(3, 3, id=1)]
        config = SchedulerConfig(step=3)
        assert tsgs_schedule(rs, config).cost > 0
        ordered = SchedulerConfig(step=3, ordering="deadline-ascending")
        result = tsgs_schedule(rs, ordered)
        assert result.cost == 0
        assert result.schedule.starts == (3, 0)

    def test_equal_windows_ascending_matches_oracle_zeroes(self):
        # with equal windows, deadline order is duration order, and the
        # second-processed connection only needs to clear the shorter
        # duration; a zero-cost grid point is then always reachable
        rng = random.Random(1212)
        config = SchedulerConfig(step=5, ordering="deadline-ascending")
        for _ in range(300):
            sigma = rng.randint(0, 8)
            w = sigma * 5
            d1, d2 = rng.randint(1, 30), rng.randint(1, 30)
            rs = [req(w + d1, d1, id=0), req(w + d2, d2, id=1)]
            oracle = min(c for c, _ in enumerate_costs(rs, config))
            greedy = tsgs_schedule(rs, config).cost
            if oracle == 0:
                assert greedy == 0


class TestExhaustive:
    def test_lexicographically_smallest_zero(self):
        result = exhaustive_schedule(pair_200_50(), SchedulerConfig(step=50))
        assert result.schedule.starts == (0, 50)
        assert result.cost == 0

    def test_single_connection(self):
        result = exhaustive_schedule([req(900, 77)], SchedulerConfig(step=13))
        assert result.schedule.starts == (0,)
        assert result.cost == 0

    def test_forced_total_overlap(self):
        rs = [req(100, 100, id=i) for i in range(3)]
        result = exhaustive_schedule(rs, SchedulerConfig(step=10))
        assert result.schedule.starts == (0, 0, 0)
        assert result.cost == 600

    def test_matches_test_local_enumeration(self):
        rng = random.Random(2023)
        for _ in range(150):
            requests, config = random_instance(rng)
            costs = enumerate_costs(requests, config)
            best_cost, best_starts = min(costs)
            result = exhaustive_schedule(requests, config)
            assert result.cost == best_cost
            assert result.schedule.starts == best_starts

    def test_enumeration_cap(self):
        # grids are ranges and the cap is checked before any work, so both
        # sides of the real cap are instant: one grid of exactly the cap is
        # solved by its last level alone, two of cap + 1 points are refused
        cap = schedulers.ENUMERATION_CAP
        config = SchedulerConfig(step=1)
        at_cap = exhaustive_schedule([req(cap - 1 + 10, 10)], config)
        assert at_cap.candidate_evaluations == cap
        rs = [req(cap + 10, 10, id=0), req(cap + 10, 10, id=1)]
        with pytest.raises(InstanceTooLargeError, match=f"cap of {cap}$"):
            exhaustive_schedule(rs, config)

    def test_deterministic(self):
        requests, config = random_instance(random.Random(9))
        assert exhaustive_schedule(requests, config) == exhaustive_schedule(
            requests, config
        )

    @staticmethod
    def traced(requests, config):
        """The search's result and its peak traced allocation in bytes."""
        tracemalloc.start()
        try:
            result = exhaustive_schedule(requests, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_last_grid_at_the_cap_allocates_nothing_by_grid(self):
        # a one-point first grid and a last grid of ENUMERATION_CAP points:
        # past the switch point, so the last level is scored per choice and
        # no table of the last grid is built; never enumerate this
        cap = schedulers.ENUMERATION_CAP
        rs = [req(10, 10, id=0), req(cap - 1 + 10, 10, id=1)]
        result, peak = self.traced(rs, SchedulerConfig(step=1))
        assert len(candidate_grid(rs[1], SchedulerConfig(step=1))) == cap
        assert result.schedule.starts == (0, 10)
        assert result.cost == 0
        assert result.candidate_evaluations == cap
        assert peak < 1 << 20

    def test_long_last_grid_of_three_allocates_nothing_by_grid(self):
        # [0, 100) is fixed and [k, k + 100) overlaps it by 100 - k for k in
        # {0, 1, 2}; the 50 us last train first fits free at 100 + k, among
        # 10**5 starts, so k = 2 is best and each pair counts twice
        rs = [req(100, 100, id=0), req(102, 100, id=1), req(10**5 - 1 + 50, 50, id=2)]
        result, peak = self.traced(rs, SchedulerConfig(step=1))
        assert result.schedule.starts == (0, 2, 102)
        assert result.cost == 2 * 98
        assert result.candidate_evaluations == 3 * 10**5
        assert peak < 1 << 20


class TestRandom:
    @pytest.fixture(autouse=True)
    def bounded_draws(self):
        with bounded(10):
            yield

    def test_same_seed_same_schedule(self):
        requests, config = random_instance(random.Random(77))
        a = random_schedule(requests, config, 12345)
        b = random_schedule(requests, config, 12345)
        assert a == b

    def test_zero_window_forces_zero_starts(self):
        rs = [req(50, 50, id=0), req(70, 70, id=1)]
        for seed in range(20):
            result = random_schedule(rs, SchedulerConfig(step=10), seed)
            assert result.schedule.starts == (0, 0)

    def test_two_candidate_grid_is_uniform(self):
        rs = [req(100, 50)]  # window 50, step 50: candidates {0, 50}
        config = SchedulerConfig(step=50)
        zeros = sum(
            random_schedule(rs, config, seed).schedule.starts[0] == 0
            for seed in range(10_000)
        )
        assert abs(zeros / 10_000 - 0.5) <= 0.02

    def test_no_evaluations_counted(self):
        requests, config = random_instance(random.Random(3))
        assert random_schedule(requests, config, 5).candidate_evaluations == 0

    @pytest.mark.parametrize("seed", (None, 1.5, "7", True), ids=repr)
    def test_non_int_seed_refused(self, seed):
        # None would seed from the operating system: two calls could differ
        requests, config = random_instance(random.Random(3))
        with pytest.raises(ValueError) as info:
            random_schedule(requests, config, seed)
        assert str(info.value) == f"seed must be an int, got {seed!r}"


# grid sizes on both sides of every word boundary: one point, powers of two
# and their neighbours up to five words, and the 10**29-point grid
_GRID_SIZES = st.one_of(
    st.integers(1, 3000),
    st.builds(
        lambda j, d: 2**j + d, st.integers(1, 160), st.sampled_from((-1, 0, 1))
    ),
    st.sampled_from((1, 2**32 - 1, 2**32, 2**32 + 1, 10**29 - 22)),
)


@st.composite
def draw_calls(draw):
    """Calls sharing one config, as (seed, requests) in any seed and
    window order, each request given a grid of a drawn size."""
    step = draw(st.integers(1, 7))
    margin = draw(st.sampled_from((0, 0, draw(st.integers(1, 3 * step)))))
    config = SchedulerConfig(step=step, margin=margin)
    seeds = draw(st.lists(
        st.integers(-(2**40), 2**40), min_size=1, max_size=4, unique=True
    ))
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        requests = []
        for i in range(draw(st.integers(0, 4))):
            n = draw(_GRID_SIZES)
            duration = draw(st.integers(1, 60))
            w = (n - 1) * step + draw(st.integers(0, step - 1))
            requests.append(req(w + duration + margin, duration, id=i))
        calls.append((draw(st.sampled_from(seeds)), requests))
    return config, calls


class TestRandomDrawMemo:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(draw_calls())
    # seed 0 rejects its first candidate for 3 points, and 2**32 + 1 points
    # read two words with the high one shifted by 31
    @example((SchedulerConfig(step=1), [(0, [req(2 + 5, 5)])]))
    @example((SchedulerConfig(step=3), [(1, [req(3 * 2**32 + 5, 5)])] * 2))
    def test_shared_memo_draws_what_a_fresh_generator_draws(self, case):
        config, calls = case
        memo = {}
        with bounded(10):
            for seed, requests in calls:
                drawn = random_schedule(requests, config, seed, memo=memo)
                fresh = random.Random(seed)
                assert drawn.schedule.starts == tuple(
                    fresh.randrange(window(r, config.margin) // config.step + 1)
                    * config.step
                    for r in requests
                )
                assert drawn == random_schedule(requests, config, seed)
        assert sorted(memo) == sorted({seed for seed, _ in calls})

    @pytest.mark.parametrize(
        "n, seed",
        [(1, 3), (3, 0), (2**10 - 1, 9), (2**32 + 1, 4), (10**29 - 22, 1)],
    )
    def test_memo_holds_the_words_a_fresh_draw_reads(self, n, seed):
        # one stream per seed, holding exactly the words that
        # Random(seed).randrange(n) reads, rejected candidates included;
        # a second call reads them again and draws none
        rs = [req(n - 1 + 5, 5)]
        memo = {}
        for _ in range(2):
            with bounded(10):
                random_schedule(rs, SchedulerConfig(step=1), seed, memo=memo)
            _, words = memo[seed]
            fresh, replay = random.Random(seed), random.Random(seed)
            fresh.randrange(n)
            assert words == [replay.getrandbits(32) for _ in words]
            assert replay.getstate() == fresh.getstate()

    def test_huge_grid_start(self):
        # CI traces this scenario's random schedule at seed 1
        result = random_schedule([req(10**29, 23)], SchedulerConfig(step=1), 1)
        assert result.schedule.starts == (20208650671704010362418805700,)

    def test_checks_run_before_the_memo(self):
        memo = {}
        with pytest.raises(ValueError) as info:
            random_schedule([req(100, 50)], SchedulerConfig(step=10), 1.5, memo=memo)
        assert str(info.value) == "seed must be an int, got 1.5"
        with pytest.raises(ValueError) as info:
            random_schedule([None], SchedulerConfig(step=10), 1, memo=memo)
        assert str(info.value) == "request must be a TransmissionRequest, got NoneType"
        assert memo == {}


class TestAllStrategies:
    def test_outputs_feasible_and_cost_consistent(self):
        rng = random.Random(60_601)
        for _ in range(200):
            requests, config = random_instance(rng)
            results = [
                tsgs_schedule(requests, config),
                exhaustive_schedule(requests, config),
                random_schedule(requests, config, rng.randint(0, 10**6)),
            ]
            for result in results:
                assert feasible(result.schedule, requests, config.margin)
                assert result.cost == total_cost(result.schedule, requests)

    @pytest.mark.parametrize("n", (0, 1, 3))
    @pytest.mark.parametrize("name", ("tsgs", "exhaustive", "random"))
    def test_cost_looked_up_through_the_module(self, monkeypatch, name, n):
        # a tracer swaps schedulers.total_cost at run time; a scheduler that
        # bound it at import would bypass the swap and count nothing
        calls = []

        def counting(schedule, requests):
            calls.append(schedule)
            return total_cost(schedule, requests)

        monkeypatch.setattr(schedulers, "total_cost", counting)
        requests = [req(400, 50, id=i, packets=2) for i in range(n)]
        config = SchedulerConfig(step=50)
        args = (requests, config, 11) if name == "random" else (requests, config)
        result = getattr(schedulers, f"{name}_schedule")(*args)
        assert calls == [result.schedule]
        assert result.cost == total_cost(result.schedule, requests)

    def test_oracle_dominance(self):
        rng = random.Random(404)
        for _ in range(200):
            requests, config = random_instance(rng)
            oracle = exhaustive_schedule(requests, config)
            greedy = tsgs_schedule(requests, config)
            worst = max(c for c, _ in enumerate_costs(requests, config))
            assert oracle.cost <= greedy.cost <= worst

    def test_scale_invariance_of_selection(self):
        rng = random.Random(1717)
        for _ in range(100):
            requests, config = random_instance(rng)
            factor = rng.randint(2, 9)
            scaled_requests = [
                req(
                    r.deadline * factor,
                    r.packet_airtime * factor,
                    id=r.id,
                    packets=r.packet_count,
                )
                for r in requests
            ]
            scaled_config = SchedulerConfig(
                step=config.step * factor, margin=config.margin * factor
            )
            for fn in (tsgs_schedule, exhaustive_schedule):
                base = fn(requests, config)
                scaled = fn(scaled_requests, scaled_config)
                assert scaled.cost == base.cost * factor
                assert scaled.schedule.starts == tuple(
                    s * factor for s in base.schedule.starts
                )


class TestCounters:
    def test_tsgs_linear_in_grid_for_fixed_n(self):
        def evals(sigma):
            rs = [req(sigma * 10 + 10, 10, id=i) for i in range(3)]
            return tsgs_schedule(rs, SchedulerConfig(step=10)).candidate_evaluations

        # sum over positions of (sigma+1)*(position-1) = 3*(sigma+1)
        assert evals(4) == 15
        assert evals(9) == 30
        assert evals(19) == 60

    def test_exhaustive_product_growth(self):
        def evals(sigma, n):
            rs = [req(sigma * 10 + 10, 10, id=i) for i in range(n)]
            return exhaustive_schedule(
                rs, SchedulerConfig(step=10)
            ).candidate_evaluations

        assert evals(4, 2) == 25
        assert evals(4, 3) == 125
        assert evals(9, 2) == 100


class TestCompareCost:
    def test_equal(self):
        a = exhaustive_schedule(pair_200_50(), SchedulerConfig(step=50))
        b = tsgs_schedule(pair_200_50(), SchedulerConfig(step=50))
        assert a.cost == b.cost

    def test_oracle_smaller(self):
        rs = [req(13, 7, id=0), req(3, 3, id=1)]
        config = SchedulerConfig(step=3)
        oracle = exhaustive_schedule(rs, config)
        greedy = tsgs_schedule(rs, config)
        assert oracle.cost < greedy.cost

    def test_greedy_never_beats_oracle(self):
        rng = random.Random(808)
        for _ in range(200):
            requests, config = random_instance(rng)
            oracle = exhaustive_schedule(requests, config)
            greedy = tsgs_schedule(requests, config)
            assert greedy.cost >= oracle.cost


class TestConfigValidation:
    def test_zero_step(self):
        with pytest.raises(ValueError):
            SchedulerConfig(step=0)

    def test_negative_margin(self):
        with pytest.raises(ValueError):
            SchedulerConfig(step=10, margin=-1)

    def test_unknown_ordering(self):
        with pytest.raises(ValueError):
            SchedulerConfig(step=10, ordering="by-vibes")

    @pytest.mark.parametrize(
        "scheduler",
        (tsgs_schedule, exhaustive_schedule, lambda rs, c: random_schedule(rs, c, 1)),
        ids=("tsgs", "exhaustive", "random"),
    )
    def test_each_scheduler_refuses_look_alike_inputs(self, scheduler):
        # a None config raised AttributeError, and a look-alike request or
        # config was scheduled as if it had been checked
        rs = [req(200, 50, id=0), req(200, 50, id=1)]
        config = SchedulerConfig(step=50)
        look_alike_request = SimpleNamespace(
            id=1, deadline=200, packet_count=1, packet_airtime=50,
            per_packet_overhead=0,
        )
        look_alike_config = SimpleNamespace(step=50, margin=0, ordering="input-order")
        cases = [
            ((rs[:1] + [look_alike_request], config),
             "request must be a TransmissionRequest, got SimpleNamespace"),
            ((rs, None), "config must be a SchedulerConfig, got NoneType"),
            ((rs, look_alike_config),
             "config must be a SchedulerConfig, got SimpleNamespace"),
        ]
        for (requests, cfg), message in cases:
            with pytest.raises(ValueError) as info:
                scheduler(requests, cfg)
            assert str(info.value) == message
        # a list of requests stays accepted, and gives the tuple's result
        assert scheduler(rs, config) == scheduler(tuple(rs), config)

    def test_inadmissible_request_propagates(self):
        rs = [req(100, 10, id=0)]
        with pytest.raises(ValueError):
            tsgs_schedule(rs, SchedulerConfig(step=10, margin=95))
