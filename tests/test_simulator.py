import heapq
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import channel_runs, spaced_runs

from txsched import (
    ChannelConfig,
    ConnectionStats,
    Schedule,
    SimReport,
    TransmissionRequest,
    simulate,
    simulator,
    total_cost,
)


def req(id=0, deadline=1_000_000, packets=1, airtime=23, overhead=58):
    return TransmissionRequest(
        id=id,
        deadline=deadline,
        packet_count=packets,
        packet_airtime=airtime,
        per_packet_overhead=overhead,
    )


def train(n, packets=50, **kw):
    return [req(id=i, packets=packets, **kw) for i in range(n)]


def stats(sent, received=0, collided=0, ambient=0):
    return ConnectionStats(
        sent=sent,
        received=received,
        collided=collided,
        ambient_lost=ambient,
        delivered_late=0,
        delay_total_us=0,
        realized_duration_us=0,
    )


class TestUncontended:
    def test_closed_form_timeline(self):
        # each packet costs exactly aifs + airtime when nobody contends
        report = simulate(train(1), Schedule((0,)), ChannelConfig(), seed=1)
        c = report.per_connection[0]
        assert c.sent == c.received == 50
        assert c.realized_duration_us == 50 * (58 + 23)
        assert c.delay_total_us == 0
        assert report.backoff_activations == 0

    def test_nonzero_start_shifts_nothing_else(self):
        report = simulate(train(1), Schedule((977,)), ChannelConfig(), seed=1)
        c = report.per_connection[0]
        assert c.realized_duration_us == 50 * 81
        assert c.delay_total_us == 0


class TestForcedTies:
    def test_two_way_simultaneous_commit(self):
        reqs = train(2, packets=1)
        report = simulate(reqs, Schedule((0, 0)), ChannelConfig(cw=1), seed=5)
        assert [c.collided for c in report.per_connection] == [1, 1]
        assert report.total_received / report.total_sent == 0.0
        assert report.backoff_activations == 0

    def test_three_way_simultaneous_commit(self):
        reqs = train(3, packets=1)
        report = simulate(reqs, Schedule((0, 0, 0)), ChannelConfig(), seed=5)
        assert [c.collided for c in report.per_connection] == [1, 1, 1]
        assert report.total_received / report.total_sent == 0.0

    def test_aligned_full_trains_all_collide(self):
        report = simulate(train(2), Schedule((0, 0)), ChannelConfig(), seed=3)
        assert [c.collided for c in report.per_connection] == [50, 50]
        assert report.total_received / report.total_sent == 0.0


class TestDisjointSchedules:
    def test_gap_after_full_train_is_clean(self):
        report = simulate(train(2), Schedule((0, 4131)), ChannelConfig(), seed=9)
        assert [c.collided for c in report.per_connection] == [0, 0]
        assert report.total_received / report.total_sent == 1.0
        assert report.backoff_activations == 0

    def test_random_disjoint_with_aifs_gaps(self):
        # nominal durations use overhead = aifs, so back-to-back trains
        # with at least an aifs of slack never contend
        rng = random.Random(424242)
        for _ in range(60):
            n = rng.randint(1, 3)
            reqs = train(n, packets=rng.randint(1, 5))
            starts, t = [], 0
            for r in reqs:
                t += rng.randint(0, 300)
                starts.append(t)
                t += r.packet_count * (58 + 23) + 58
            report = simulate(reqs, Schedule(tuple(starts)), ChannelConfig(), seed=7)
            assert report.total_received / report.total_sent == 1.0
            assert report.total_collided == 0
            assert report.backoff_activations == 0


class TestHandTracedContention:
    def test_aifs_abort_then_lockstep_cascade(self):
        # Second sender arrives at 100, mid first sender's inter-packet
        # AIFS. Its own AIFS is cut short at 139 by the first sender's
        # transmission (one backoff activation; cw=1 draws 0). From the
        # next idle instant both AIFS expiries coincide at 220, so packets
        # collide in lockstep until the first train ends at 4050, leaving
        # the second sender's last two packets clean, each delayed 62us.
        reqs = train(2)
        config = ChannelConfig(cw=1)
        report = simulate(reqs, Schedule((0, 100)), config, seed=11)
        a, b = report.per_connection
        assert (a.received, a.collided) == (2, 48)
        assert (b.received, b.collided) == (2, 48)
        assert report.backoff_activations == 1
        assert a.delay_total_us == 0
        assert b.delay_total_us == 50 * 62
        assert a.realized_duration_us == 4050
        assert b.realized_duration_us == 4212 - 100
        # cw=1 leaves nothing to the RNG: any seed reproduces this
        assert report == simulate(reqs, Schedule((0, 100)), config, seed=999)

    def test_partial_overlap_collides_exactly_in_the_overlap(self):
        # 17-cycle offset: later arrival is aligned to the packet cycle,
        # so the 33 overlapped packet pairs collide and the rest deliver
        report = simulate(train(2), Schedule((0, 17 * 81)), ChannelConfig(), seed=2)
        a, b = report.per_connection
        assert (a.received, a.collided) == (17, 33)
        assert (b.received, b.collided) == (17, 33)
        assert report.total_received / report.total_sent == 0.34


class TestConservationAndDeterminism:
    def _random_run(self, rng):
        n = rng.randint(1, 3)
        reqs = [
            req(
                id=i,
                packets=rng.randint(1, 6),
                airtime=rng.randint(5, 40),
            )
            for i in range(n)
        ]
        schedule = Schedule(tuple(rng.randint(0, 2000) for _ in range(n)))
        channel = ChannelConfig(
            slot_time=rng.choice((9, 13)),
            aifs=rng.choice((34, 58)),
            cw=rng.choice((1, 2, 8, 15)),
            ambient_loss_rate=rng.choice((0.0, 0.1, 0.5)),
        )
        seed = rng.randint(0, 10**9)
        return reqs, schedule, channel, seed

    def test_conservation_every_run(self):
        rng = random.Random(515151)
        for _ in range(250):
            reqs, schedule, channel, seed = self._random_run(rng)
            report = simulate(reqs, schedule, channel, seed)
            for r, c in zip(reqs, report.per_connection):
                assert c.sent == r.packet_count
                assert c.sent == c.received + c.collided + c.ambient_lost
                assert c.delay_total_us >= 0
                # pacing can only lose to the uncontended closed form
                assert c.realized_duration_us >= r.packet_count * (
                    channel.aifs + r.packet_airtime
                )
            assert 0.0 <= report.total_received / report.total_sent <= 1.0

    def test_collisions_always_mutual(self):
        rng = random.Random(626262)
        seen_collision = False
        for _ in range(200):
            reqs, schedule, channel, seed = self._random_run(rng)
            report = simulate(reqs, schedule, channel, seed)
            colliding = [c for c in report.per_connection if c.collided > 0]
            if colliding:
                seen_collision = True
                assert len(colliding) >= 2
        assert seen_collision

    def test_two_connection_collision_counts_match(self):
        rng = random.Random(737373)
        for _ in range(150):
            reqs, schedule, channel, seed = self._random_run(rng)
            reqs, schedule = reqs[:2], Schedule(schedule.starts[:2])
            if len(reqs) < 2:
                continue
            report = simulate(reqs, schedule, channel, seed)
            a, b = report.per_connection
            assert a.collided == b.collided

    def test_identical_seeds_identical_reports(self):
        rng = random.Random(848484)
        for _ in range(60):
            reqs, schedule, channel, seed = self._random_run(rng)
            first = simulate(reqs, schedule, channel, seed)
            second = simulate(reqs, schedule, channel, seed)
            assert first == second
            assert repr(first) == repr(second)

    def test_no_backoff_without_simultaneous_contention(self):
        rng = random.Random(959595)
        for _ in range(100):
            reqs, schedule, channel, seed = self._random_run(rng)
            report = simulate(reqs, schedule, channel, seed)
            if len(reqs) == 1:
                assert report.backoff_activations == 0


# every channel_runs shape: tie-heavy, sparse, and piled-up deferrals
ANY_CHANNEL_RUN = st.one_of(
    channel_runs(),
    channel_runs(max_start_slot=100, max_packets=8),
    channel_runs(max_n=12, max_start_slot=3, max_cw=3),
)
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestProperties:
    @PROPERTY
    @given(ANY_CHANNEL_RUN)
    def test_packets_conserved(self, run):
        requests, schedule, channel, seed = run
        report = simulate(requests, schedule, channel, seed)
        for c in report.per_connection:
            assert c.sent == c.received + c.collided + c.ambient_lost
        assert report.total_sent == sum(r.packet_count for r in requests)

    @PROPERTY
    @given(ANY_CHANNEL_RUN)
    def test_at_most_one_backoff_per_packet(self, run):
        report = simulate(*run)
        assert report.backoff_activations <= report.total_sent

    @PROPERTY
    @given(ANY_CHANNEL_RUN)
    def test_same_inputs_same_report_and_trace(self, run):
        first, second = [], []
        assert simulate(*run, trace=first) == simulate(*run, trace=second)
        assert first == second

    @PROPERTY
    @given(ANY_CHANNEL_RUN)
    def test_ids_play_no_part(self, run):
        requests, schedule, channel, seed = run
        by_position = [r.replace(id=i) for i, r in enumerate(requests)]
        first, second = [], []
        assert simulate(requests, schedule, channel, seed, trace=first) == simulate(
            by_position, schedule, channel, seed, trace=second
        )
        assert first == second


def closed_starts(requests, schedule, channel):
    """The starts that `simulate`'s memo files `schedule` under, with the
    idle gaps closed that a shift cannot change, read from the memo."""
    memo = {}
    roomy = [r.replace(deadline=10**9) for r in requests]
    simulate(roomy, schedule, channel, 0, memo=memo)
    [(_closed_of, runs)] = memo.values()
    [(starts, _seed)] = runs
    return Schedule(starts)


class TestSpacedTrains:
    @PROPERTY
    @given(spaced_runs(overlap=False))
    def test_zero_cost_schedule_never_contends(self, run):
        # with every overhead at least the AIFS, disjoint planned spans
        # hold disjoint trains on air, even where one starts just as
        # another ends; a trace takes every packet on the queued route
        requests, schedule, channel, seed = run
        assert total_cost(schedule, requests) == 0
        for trace in (None, []):
            report = simulate(requests, schedule, channel, seed, trace)
            assert report.total_collided == 0
            assert report.backoff_activations == 0

    @PROPERTY
    @given(spaced_runs())
    def test_closing_idle_gaps_changes_no_field(self, run):
        requests, schedule, channel, seed = run
        closed = closed_starts(requests, schedule, channel)
        assert closed_starts(requests, closed, channel) == closed
        # each deadline moves with its start, so the same packets are late
        moved = [
            r.replace(deadline=r.deadline - (start - at))
            for r, start, at in zip(requests, schedule.starts, closed.starts)
        ]
        assert simulate(requests, schedule, channel, seed) == simulate(
            moved, closed, channel, seed
        )


class TestLockStep:
    @PROPERTY
    @given(
        channel_runs(max_start_slot=6, max_packets=8, lockstep=True),
        st.integers(0, 9),
    )
    def test_phase_locked_trains_collide_without_backoff(self, run, overhead):
        # every train has one airtime a and starts on a multiple of
        # P = aifs + a, so every round begins on an idle channel: trains
        # that meet sense, wait out the AIFS and collide together, and
        # nobody ever defers; the overhead plays no part in a run
        requests, schedule, channel, seed = run
        requests = [r.replace(per_packet_overhead=overhead) for r in requests]
        period = channel.aifs + requests[0].packet_airtime
        rounds = [
            range(start // period, start // period + r.packet_count)
            for start, r in zip(schedule.starts, requests)
        ]
        # a round collides when any other train occupies it too
        shared = [
            sum(any(k in other for other in rounds[:i] + rounds[i + 1:]) for k in own)
            for i, own in enumerate(rounds)
        ]
        for run_seed in (seed, seed + 1):
            report = simulate(requests, schedule, channel, run_seed)
            assert report.backoff_activations == 0
            assert [c.collided for c in report.per_connection] == shared
            for c, r in zip(report.per_connection, requests):
                assert c.delay_total_us == 0
                assert c.realized_duration_us == r.packet_count * period

    @PROPERTY
    @given(
        st.integers(1, 4), st.integers(0, 9), st.integers(1, 6),
        st.sampled_from((0.0, 0.3)), st.data(),
    )
    def test_off_phase_start_inside_a_train_draws_a_backoff(
        self, slot, aifs, cw, loss, data
    ):
        # the converse: a second train that starts off the period P and
        # inside the first train's span senses it busy, or has its AIFS
        # cut by the first train's next packet, whatever the seed
        airtime = slot * data.draw(st.integers(1, 4))
        period = aifs + airtime
        assume(period > 1)
        first = data.draw(st.integers(1, 8))
        start = data.draw(st.integers(0, 50))
        lag = period * data.draw(st.integers(0, first - 1)) + data.draw(
            st.integers(1, period - 1)
        )
        trains = [(start, first), (start + lag, data.draw(st.integers(1, 8)))]
        if data.draw(st.booleans()):
            trains.reverse()
        requests = [
            TransmissionRequest(i, 10**6, packets, airtime, aifs)
            for i, (_, packets) in enumerate(trains)
        ]
        schedule = Schedule(tuple(s for s, _ in trains))
        channel = ChannelConfig(slot, aifs, cw, loss)
        seed = data.draw(st.integers(0, 2**16))
        for run_seed in (seed, seed + 1):
            report = simulate(requests, schedule, channel, run_seed)
            assert report.backoff_activations >= 1


@pytest.fixture
def heap_pops(monkeypatch):
    """One entry per event the simulator pops. More than 10,000 pops
    raise, so a run that never ends fails instead of hanging."""
    pops = []

    def counted(heap):
        pops.append(None)
        if len(pops) > 10_000:
            raise RuntimeError("more than 10,000 heap pops")
        return heapq.heappop(heap)

    monkeypatch.setattr(
        simulator,
        "heapq",
        SimpleNamespace(
            heapify=heapq.heapify, heappush=heapq.heappush, heappop=counted
        ),
    )
    return pops


class TestResourceBound:
    def test_huge_cw_allocates_nothing_by_cw(self):
        # a table sized by cw would take gigabytes here; never run this
        # against reference.simulate, which steps up to 10**9 slots
        reqs = train(10, packets=20)
        schedule = Schedule(tuple(range(0, 100, 10)))
        tracemalloc.start()
        try:
            report = simulate(reqs, schedule, ChannelConfig(cw=10**9), seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.total_sent == 200
        for c in report.per_connection:
            assert c.sent == c.received + c.collided + c.ambient_lost == 20
        assert report.backoff_activations > 0
        assert peak < 1 << 20

    def test_captured_train_pops_events_independent_of_its_length(self, heap_pops):
        # c1 freezes a one-slot countdown (seed 14) on c0's first packet;
        # c0 then captures the channel for the rest of its train, in place
        # and in one step, so a longer train pops no more events
        counts = []
        for packets in (10, 40):
            heap_pops.clear()
            reqs = [req(id=0, packets=packets), req(id=1)]
            report = simulate(reqs, Schedule((0, 60)), ChannelConfig(), seed=14)
            assert report.total_collided == 0
            assert report.backoff_activations == 1
            counts.append(len(heap_pops))
        assert counts[0] == counts[1]

    def test_lockstep_pair_pops_events_independent_of_its_length(self, heap_pops):
        # two equal trains that commit together collide on every packet;
        # untraced, all rounds but the last run in one step
        counts = []
        for packets in (10, 40):
            heap_pops.clear()
            report = simulate(
                train(2, packets=packets), Schedule((0, 0)), ChannelConfig(), seed=3
            )
            assert report.total_collided == 2 * packets
            assert report.backoff_activations == 0
            counts.append(len(heap_pops))
        assert counts[0] == counts[1]

    def test_lockstep_pair_over_frozen_sender_pops_events_independent_of_its_length(
        self, heap_pops
    ):
        # c2 defers on the pair's first round and freezes a one-slot
        # countdown (seed 14); untraced, the pair's later rounds but the
        # last run in one step over it
        counts = []
        for packets in (10, 40):
            heap_pops.clear()
            reqs = train(2, packets=packets) + [req(id=2)]
            report = simulate(reqs, Schedule((0, 0, 60)), ChannelConfig(), seed=14)
            assert report.total_collided == 2 * packets
            assert report.backoff_activations == 1
            counts.append(len(heap_pops))
        assert counts[0] == counts[1]


class TestAmbientLoss:
    def test_rate_one_loses_every_clean_packet(self):
        channel = ChannelConfig(ambient_loss_rate=1.0)
        report = simulate(train(1), Schedule((0,)), channel, seed=4)
        c = report.per_connection[0]
        assert (c.received, c.ambient_lost, c.collided) == (0, 50, 0)
        assert report.total_received / report.total_sent == 0.0

    def test_rate_frequency_on_long_train(self):
        channel = ChannelConfig(ambient_loss_rate=0.3)
        reqs = [req(packets=2000, deadline=10_000_000)]
        report = simulate(reqs, Schedule((0,)), channel, seed=17)
        lost = report.per_connection[0].ambient_lost
        assert abs(lost / 2000 - 0.3) <= 0.05

    def test_losses_do_not_break_conservation(self):
        channel = ChannelConfig(ambient_loss_rate=0.25)
        report = simulate(train(2), Schedule((0, 17 * 81)), channel, seed=6)
        for c in report.per_connection:
            assert c.sent == c.received + c.collided + c.ambient_lost
        # collided packets never roll an ambient loss: the 33-pair overlap
        # stays exact even with lossy air
        assert [c.collided for c in report.per_connection] == [33, 33]


class TestAnalyticMAC:
    # c0's 200us packet is on air over [58, 258); c1 and c2 sense it busy
    # at 100 and 150 and each draw a fresh uniform backoff of [0, cw - 1]
    # slots. Both restart their AIFS at the idle edge 258 and commit
    # together, colliding, exactly when the two draws are equal: with
    # probability 1/cw, whatever the draws (Bianchi, IEEE JSAC 18(3), 2000).
    SEEDS = 4000

    @pytest.mark.parametrize("cw", [1, 2, 4, 15])
    def test_two_deferred_senders_collide_with_probability_one_over_cw(self, cw):
        reqs = [req(0, airtime=200), req(1), req(2)]
        schedule = Schedule((0, 100, 150))
        channel = ChannelConfig(cw=cw)
        collided = 0
        for seed in range(self.SEEDS):
            report = simulate(reqs, schedule, channel, seed)
            assert report.backoff_activations == 2
            assert report.per_connection[0].collided == 0
            c1, c2 = report.per_connection[1:]
            assert c1.collided == c2.collided  # collisions are mutual
            collided += c1.collided
        p = 1 / cw
        sigma = (p * (1 - p) / self.SEEDS) ** 0.5
        assert abs(collided / self.SEEDS - p) <= 4 * sigma


class TestConnectionIdentity:
    def test_duplicate_ids_conserve_packets(self):
        # ids are labels: two trains that share one still each send theirs
        reqs = [req(id=0, packets=5), req(id=0, packets=5)]
        report = simulate(reqs, Schedule((0, 5000)), ChannelConfig(), seed=1)
        for c in report.per_connection:
            assert c.sent == 5 == c.received + c.collided + c.ambient_lost

    def test_shared_id_traces_by_position(self):
        trace = []
        reqs = [req(id=0), req(id=0)]
        simulate(reqs, Schedule((0, 1000)), ChannelConfig(), seed=1, trace=trace)
        assert "81 c0 packet 0 received" in trace
        assert "1081 c1 packet 0 received" in trace
        assert not any(line.startswith("1081 c0") for line in trace)

    def test_swapped_ids_same_trace_and_report(self):
        # same-instant senses and commits: any tie broken by id would show
        def run(ids):
            trace = []
            reqs = [req(id=i, packets=3) for i in ids]
            report = simulate(reqs, Schedule((0, 0)), ChannelConfig(), seed=4,
                              trace=trace)
            return report, trace

        assert run((1, 0)) == run((0, 1))


class TestDeadlineAccounting:
    def test_on_time_packets_not_counted(self):
        # packets end at 81 and 162; ending exactly at the deadline is on time
        reqs = [req(deadline=162, packets=2)]
        report = simulate(reqs, Schedule((0,)), ChannelConfig(), seed=1)
        c = report.per_connection[0]
        assert c.received == 2
        assert c.delivered_late == 0

    def test_late_packets_counted(self):
        # packets end at 81 and 162; only the second misses deadline 100
        reqs = [req(deadline=100, packets=2)]
        report = simulate(reqs, Schedule((0,)), ChannelConfig(), seed=1)
        c = report.per_connection[0]
        assert c.received == 2
        assert c.delivered_late == 1


def last_ends(requests, schedule, channel, seed):
    """Each connection's last packet end in a fresh run."""
    report = simulate(requests, schedule, channel, seed)
    return [
        start + c.realized_duration_us
        for start, c in zip(schedule.starts, report.per_connection)
    ]


def deadlines_around(ends):
    """One deadline per connection, drawn near its last packet end: at it,
    one tick before it, after it, or anywhere up to it, so a vector often
    cuts through a train."""
    return st.tuples(*(
        st.one_of(
            st.just(end), st.just(max(0, end - 1)), st.integers(end, end + 50),
            st.integers(0, end),
        )
        for end in ends
    ))


class TestMemo:
    @PROPERTY
    @given(ANY_CHANNEL_RUN, st.data())
    def test_result_equals_a_fresh_run(self, run, data):
        requests, schedule, channel, seed = run
        ends = last_ends(*run)
        # prime with the run's own deadlines or with ones near the ends,
        # which often leave the stored report with no late packet
        first = data.draw(
            st.one_of(st.just([r.deadline for r in requests]), deadlines_around(ends))
        )
        memo = {}
        primed = [r.replace(deadline=d) for r, d in zip(requests, first)]
        simulate(primed, schedule, channel, seed, memo=memo)
        # ids and overheads play no part in a run, so they may differ too
        again = [
            r.replace(deadline=d, id=data.draw(st.integers(0, 3)),
                      per_packet_overhead=data.draw(st.integers(0, 9)))
            for r, d in zip(requests, data.draw(deadlines_around(ends)))
        ]
        assert simulate(again, schedule, channel, seed, memo=memo) == simulate(
            again, schedule, channel, seed
        )

    @PROPERTY
    @given(spaced_runs(), st.data())
    def test_shifted_or_regapped_schedule_equals_a_fresh_run(self, run, data):
        requests, schedule, channel, seed = run
        memo = {}
        roomy = [r.replace(deadline=10**9) for r in requests]
        stored = simulate(roomy, schedule, channel, seed, memo=memo)
        # move every train from the k-th in start order on by delta: all
        # of them when k is 0, otherwise one gap widens or narrows
        starts = schedule.starts
        order = sorted(range(len(starts)), key=starts.__getitem__)
        k = data.draw(st.integers(0, len(order) - 1))
        room = starts[order[k]] - (starts[order[k - 1]] if k else 0)
        delta = data.draw(st.integers(-room, 60))
        moved = set(order[k:])
        later = Schedule(tuple(
            start + delta if i in moved else start for i, start in enumerate(starts)
        ))
        ends = last_ends(requests, later, channel, seed)
        again = [
            r.replace(deadline=d)
            for r, d in zip(requests, data.draw(deadlines_around(ends)))
        ]
        result = simulate(again, later, channel, seed, memo=memo)
        assert result == simulate(again, later, channel, seed)
        # the stored report answers, with no new run, exactly when the key
        # matches and no deadline falls before its connection's last end
        same_run = closed_starts(requests, later, channel) == closed_starts(
            requests, schedule, channel
        )
        safe = all(r.deadline >= end for r, end in zip(again, ends))
        assert (result is stored) == (same_run and safe)

    @pytest.fixture
    def runs(self, monkeypatch):
        """One entry per run the simulator actually makes."""
        made, real_run = [], simulator._run
        monkeypatch.setattr(
            simulator, "_run", lambda *args: made.append(1) or real_run(*args)
        )
        return made

    def test_safe_hit_returns_the_stored_report(self, runs):
        memo, schedule = {}, Schedule((0, 200))
        first = simulate(train(2, packets=5), schedule, ChannelConfig(), 3, memo=memo)
        later = train(2, packets=5, deadline=2_000_000)
        assert simulate(later, schedule, ChannelConfig(), 3, memo=memo) is first
        assert len(runs) == 1

    def test_deadline_before_the_last_end_runs_again(self, runs):
        # packets end at 81 and 162: a report with no late packet answers
        # no deadline before 162
        memo = {}
        on_time = simulate([req(deadline=162, packets=2)], Schedule((0,)),
                           ChannelConfig(), seed=1, memo=memo)
        assert on_time.per_connection[0].delivered_late == 0
        late = simulate([req(deadline=161, packets=2)], Schedule((0,)),
                        ChannelConfig(), seed=1, memo=memo)
        assert late.per_connection[0].delivered_late == 1
        # the late report is not kept, so the on-time one still answers
        again = simulate([req(deadline=200, packets=2)], Schedule((0,)),
                         ChannelConfig(), seed=1, memo=memo)
        assert again is on_time
        assert len(runs) == 2

    def test_late_report_is_never_returned(self, runs):
        memo = {}
        for deadline in (100, 200):
            simulate([req(deadline=deadline, packets=2)], Schedule((0,)),
                     ChannelConfig(), seed=1, memo=memo)
        assert len(runs) == 2

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(ANY_CHANNEL_RUN)
    def test_traced_call_leaves_the_memo_untouched(self, run):
        requests, schedule, channel, seed = run
        # no packet is late, so the untraced report is kept
        run = ([r.replace(deadline=10**9) for r in requests], schedule, channel, seed)
        memo = {}
        assert simulate(*run, trace=[], memo=memo) == simulate(*run)
        assert memo == {}
        stored = simulate(*run, memo=memo)
        before = {
            key: (dict(closed_of), dict(runs))
            for key, (closed_of, runs) in memo.items()
        }
        assert [list(runs.values()) for _, runs in before.values()] == [[stored]]
        trace = []
        assert simulate(*run, trace=trace, memo=memo) == stored
        assert trace
        assert memo == before

    def test_checks_run_before_the_lookup(self):
        # a look-alike of a filed schedule would be answered by a lookup
        # first, and one holding a list would raise TypeError there
        memo = {}
        simulate(train(1), Schedule((0,)), ChannelConfig(), seed=1, memo=memo)
        for starts in ((0,), [0], (0.0,)):
            with pytest.raises(ValueError) as info:
                simulate(
                    train(1), SimpleNamespace(starts=starts), ChannelConfig(),
                    seed=1, memo=memo,
                )
            assert str(info.value) == "schedule must be a Schedule, got SimpleNamespace"
        with pytest.raises(ValueError) as info:
            simulate(train(1), Schedule((0, 0)), ChannelConfig(), seed=1, memo=memo)
        assert str(info.value) == "schedule has 2 starts for 1 requests"


class TestReportOps:
    def test_pdr_arithmetic(self):
        report = SimReport(
            per_connection=(
                stats(50, received=43, collided=7),
                stats(50, received=43, collided=7),
            ),
            backoff_activations=0,
        )
        assert report.total_received / report.total_sent == 0.86

    def test_collided_counts_in_request_order(self):
        report = SimReport(
            per_connection=(
                stats(5, received=4, collided=1),
                stats(5, received=2, collided=3),
            ),
            backoff_activations=0,
        )
        assert [c.collided for c in report.per_connection] == [1, 3]

    def test_totals_sum_connections(self):
        report = SimReport(
            per_connection=(
                stats(5, received=3, collided=1, ambient=1),
                stats(4, received=2, ambient=2),
            ),
            backoff_activations=0,
        )
        totals = (report.total_sent, report.total_received,
                  report.total_collided, report.total_ambient_lost)
        assert totals == (9, 5, 1, 3)


class TestTrace:
    def test_uncontended_trace_shape(self):
        trace = []
        simulate(
            [req(packets=2)], Schedule((0,)), ChannelConfig(), seed=1, trace=trace
        )
        assert trace[0] == "0 c0 idle-until-start->sensing"
        assert trace[1] == "0 c0 sensing->aifs-wait"
        assert "58 c0 aifs-wait->tx-pending" in trace
        assert "81 c0 packet 0 received" in trace
        assert trace[-1].endswith("transmitting->done")
        assert sum("received" in line for line in trace) == 2

    def test_defer_shows_in_trace(self):
        trace = []
        simulate(
            train(2), Schedule((0, 100)), ChannelConfig(cw=1), seed=1, trace=trace
        )
        assert any("aifs-wait->backoff-wait-idle" in line for line in trace)
        assert any("backoff-aifs" in line for line in trace)


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            simulate(train(2), Schedule((0,)), ChannelConfig(), seed=1)

    def test_negative_start(self):
        with pytest.raises(ValueError):
            simulate(train(1), Schedule((-5,)), ChannelConfig(), seed=1)

    def test_float_start(self):
        # a float start would make every count of the report a float
        with pytest.raises(ValueError) as info:
            simulate(train(1), Schedule((23.5,)), ChannelConfig(), seed=1)
        assert str(info.value) == "scheduled start must be an int, got 23.5"

    @pytest.mark.parametrize("seed", (None, 1.5, "7", True), ids=repr)
    def test_non_int_seed_refused_before_the_memo(self, seed):
        # None would seed from the operating system, so two calls would
        # differ, and a memo would then return the first run for both
        memo = {}
        args = (train(2), Schedule((0, 10)), ChannelConfig(ambient_loss_rate=0.3))
        with pytest.raises(ValueError) as info:
            simulate(*args, seed=seed, memo=memo)
        assert str(info.value) == f"seed must be an int, got {seed!r}"
        assert memo == {}

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(slot_time=0)
        with pytest.raises(ValueError):
            ChannelConfig(cw=0)
        with pytest.raises(ValueError):
            ChannelConfig(ambient_loss_rate=1.5)
