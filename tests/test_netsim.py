import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import agectl
from agectl.metrics import (
    age_trace_from_deliveries,
    default_horizon,
    step_average,
    time_average_age,
)
from agectl.netsim import (
    DELIVERED,
    DETERMINISTIC,
    DROPPED,
    ENQUEUED,
    EXPONENTIAL,
    GENERATED,
    PRIO_PACKET,
    PRIO_SLOT,
    PRIO_TIMER,
    SERVICE_START,
    EventQueue,
    MultiaccessChannel,
    MultiaccessConfig,
    SimConfig,
    StationConfig,
    StationQueue,
    _Network,
    rtt_vs_load_curve,
    run_simulation,
    simulate_station_system_time,
    sweep_min_age,
)
from agectl.wire import UpdatePacket

PACKET_BITS = 8 * (19 + 1024)


def occupancy_average(trace, src, t0, t1):
    deltas = [(t, +1) for t, s, k, _ in trace if k == GENERATED and s == src]
    deltas += [(t, -1) for t, s, k, _ in trace if k in (DELIVERED, "dropped") and s == src]
    deltas.sort()
    steps, level = [], 0
    for t, d in deltas:
        level += d
        steps.append((t, level))
    return step_average(steps, t0, t1)


class TestDeterministicPipeline:
    def make_run(self, service=2**-10, duration=1.0):
        rate_bits = PACKET_BITS / service
        st = StationConfig(service=DETERMINISTIC, rate=rate_bits)
        cfg = SimConfig(stations=(st, st, st), n_sources=1,
                        protocol=f"constant:{1 / service}", duration=duration,
                        seed=1, ack_path="instant", record_trace=True)
        return run_simulation(cfg), service

    def test_every_delay_is_three_service_times(self):
        result, s = self.make_run()
        gen = {q: t for t, _, k, q in result.trace if k == GENERATED}
        dlv = {q: t for t, _, k, q in result.trace if k == DELIVERED}
        assert len(dlv) > 500
        assert all(dlv[q] - gen[q] == 3 * s for q in dlv)

    def test_steady_occupancy_is_three(self):
        result, s = self.make_run()
        avg = occupancy_average(result.trace, 0, 3 * s, 1.0)
        assert avg == pytest.approx(3.0, abs=1e-9)

    def test_millisecond_variant_within_float_noise(self):
        result, s = self.make_run(service=1e-3)
        gen = {q: t for t, _, k, q in result.trace if k == GENERATED}
        dlv = {q: t for t, _, k, q in result.trace if k == DELIVERED}
        assert all(abs(dlv[q] - gen[q] - 3e-3) < 1e-12 for q in dlv)


def test_same_config_and_seed_replays_identical_trace():
    st = StationConfig(service=EXPONENTIAL, rate=6e6, buffer=50, prop_delay=1e-3)
    cfg = SimConfig(stations=(st,), n_sources=3, protocol="acp+", duration=5.0,
                    seed=77, multiaccess=MultiaccessConfig(per_source_loss=0.05),
                    record_trace=True)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert a.trace == b.trace
    assert repr(a.trace).encode() == repr(b.trace).encode()


def test_different_seed_changes_trace():
    st = StationConfig(service=EXPONENTIAL, rate=6e6)
    base = dict(stations=(st,), n_sources=1, protocol="poisson:200", duration=2.0,
                record_trace=True)
    a = run_simulation(SimConfig(seed=1, **base))
    b = run_simulation(SimConfig(seed=2, **base))
    assert a.trace != b.trace


class TestMultiaccess:
    def test_uncontended_access_delay_is_frame_time(self):
        ma = MultiaccessConfig(link_rate=12e6)
        st = StationConfig(service=DETERMINISTIC, rate=6e6)
        cfg = SimConfig(stations=(st,), n_sources=1, protocol="constant:50",
                        duration=2.0, seed=3, multiaccess=ma, ack_path="instant")
        result = run_simulation(cfg)
        frame = PACKET_BITS / 12e6
        assert len(result.channel.access_delays) > 90
        assert all(abs(d - frame) < 1e-12 for d in result.channel.access_delays)

    def test_access_delay_nondecreasing_in_contenders(self):
        means = []
        for n in (1, 6, 12, 24, 48):
            ma = MultiaccessConfig(slot=2.5e-4, persistence=0.25, max_backoff_exp=5)
            st = StationConfig(service=DETERMINISTIC, rate=48e6)
            cfg = SimConfig(stations=(st,), n_sources=n, protocol="poisson:40",
                            duration=8.0, seed=5, multiaccess=ma, ack_path="instant",
                            record_trace=False)
            result = run_simulation(cfg)
            delays = result.channel.access_delays
            means.append(sum(delays) / len(delays))
        assert all(b >= a * 0.999 for a, b in zip(means, means[1:])), means

    def test_per_source_loss_drops_count(self):
        ma = MultiaccessConfig(per_source_loss=0.3)
        st = StationConfig(service=DETERMINISTIC, rate=48e6)
        cfg = SimConfig(stations=(st,), n_sources=1, protocol="constant:200",
                        duration=10.0, seed=9, multiaccess=ma, ack_path="instant")
        result = run_simulation(cfg)
        frac = result.dropped[0] / result.generated[0]
        assert 0.25 < frac < 0.35
        assert result.channel.lost == result.dropped[0]


class StubClock:
    """Event clock for driving one component by hand: pushes are logged and run in order."""

    def __init__(self):
        self.now = 0.0
        self.pending = []  # (time, priority, order, fn, args)
        self.pushed = []  # (time, fn name, args) of every push

    def push(self, time, priority, fn, *args):
        self.pending.append((time, priority, len(self.pushed), fn, args))
        self.pushed.append((time, fn.__name__, args))

    def run(self):
        while self.pending:
            event = min(self.pending, key=lambda e: e[:3])
            self.pending.remove(event)
            self.now, _, _, fn, args = event
            fn(*args)


class GeomDraw:
    """Random stream whose every draw makes a persistence-1/2 station wait k idle slots."""

    def __init__(self, k):
        self.u = 1.0 - 0.5 ** (k + 0.5)

    def random(self):
        return self.u


def test_countdown_freezes_while_another_frame_is_on_air():
    # one-second slots; a 5-bit frame at 2 bit/s is on air for 2.5 slots
    clock = StubClock()
    delivered = []
    channel = MultiaccessChannel(
        clock, MultiaccessConfig(link_rate=2.0, slot=1.0, persistence=0.5), 3, 0, 5,
        sink=lambda src, pkt, t: delivered.append((t, src)))
    channel.rngs = [GeomDraw(0), GeomDraw(0), GeomDraw(4)]
    channel.accept(0, UpdatePacket(0, 0))  # idle channel: on air at once
    clock.now = 0.5
    channel.accept(1, UpdatePacket(0, 0))  # attempts in slot 3 + 0
    channel.accept(2, UpdatePacket(0, 0))  # attempts in slot 3 + 4
    clock.run()
    # station 1 wins slot 3 and its frame ends at 5.5, so the channel is idle
    # again from slot 6; station 2 still had 7 - 3 = 4 idle slots to count
    attempts = [args[1] for _, name, args in clock.pushed if name == "_attempt"]
    assert attempts[-1] == 6 + (7 - 3)
    assert delivered == [(2.5, 0), (5.5, 1), (12.5, 2)]
    assert channel.access_delays == [2.5, 5.0, 12.0]
    assert channel.collisions == 0


class BackoffDraw(GeomDraw):
    """GeomDraw that also takes a fixed backoff slot after each collision.

    The channel draws a window of 1 << c slots as getrandbits(c + 1) until the
    value is below 1 << c, so every value returned here is below that.
    """

    def __init__(self, k, backoff):
        super().__init__(k)
        self.backoff = backoff

    def getrandbits(self, k):
        return min(self.backoff, (1 << (k - 1)) - 1)


def test_frames_ending_after_the_horizon_are_left_out_of_the_statistics():
    # the frame outcome is settled when it starts; the run ends at 5.0
    clock = StubClock()
    channel = MultiaccessChannel(
        clock, MultiaccessConfig(link_rate=2.0, slot=1.0, persistence=0.5), 2, 0, 5,
        sink=lambda src, pkt, t: None, horizon=5.0)
    channel.rngs = [BackoffDraw(0, 0), BackoffDraw(0, 1)]
    channel.accept(0, UpdatePacket(0, 0))  # on air over [0, 2.5]
    channel.accept(0, UpdatePacket(1, 0))  # attempts in slot 3
    clock.now = 0.5
    channel.accept(1, UpdatePacket(0, 0))  # attempts in slot 3 too
    clock.run()
    # the slot-3 collision ends at 5.5 and both retries later still
    assert channel.access_delays == [2.5]
    assert channel.collisions == 0


class ReferenceChannel:
    """Brute-force MultiaccessChannel: absolute target slots and a linear min.

    Each waiter keeps the grid slot of its next attempt. A frame moves every
    other waiter by resume - attempt_slot, and every change of the targets
    schedules a fresh attempt event that supersedes the last. Draws come
    from the channel's per-station streams in its order: the geometric
    countdown, and randrange then the countdown after a collision.
    """

    def __init__(self, evq, cfg, n_sources, seed, frame_bits, sink):
        self.evq, self.cfg, self.sink = evq, cfg, sink
        self.frame_bits = frame_bits
        self.queues = [[] for _ in range(n_sources)]
        self.attempts = [0] * n_sources
        self.target = {}  # station -> grid slot of its next attempt
        self.rngs = [random.Random(f"{seed}/ma/{i}") for i in range(n_sources)]
        self.busy_until = 0.0
        self.generation = 0
        self.access_delays = []
        self.collisions = 0

    def slot_after(self, t):
        return math.ceil(t / self.cfg.slot - 1e-9)

    def geom(self, src):
        p = self.cfg.persistence
        if p == 1.0:
            return 0
        return int(math.log(1.0 - self.rngs[src].random()) / math.log(1.0 - p))

    def accept(self, src, pkt):
        now = self.evq.now
        self.queues[src].append((pkt, now))
        if len(self.queues[src]) > 1:
            return
        if now >= self.busy_until and not self.target:
            self.transmit([src])
        else:
            self.target[src] = self.slot_after(max(now, self.busy_until)) + self.geom(src)
            self.reschedule()

    def reschedule(self):
        self.generation += 1
        if self.target:
            t = min(self.target.values())
            self.evq.push(t * self.cfg.slot, PRIO_SLOT, self.attempt, self.generation, t)

    def attempt(self, generation, t):
        if generation == self.generation:
            self.transmit([i for i, slot in sorted(self.target.items()) if slot == t])

    def transmit(self, senders):
        now = self.evq.now
        for i in senders:
            self.target.pop(i, None)
        end = self.busy_until = now + self.frame_bits / self.cfg.link_rate
        resume, attempt_slot = self.slot_after(end), self.slot_after(now)
        assert all(slot > attempt_slot for slot in self.target.values())
        for i in self.target:
            self.target[i] += resume - attempt_slot
        if len(senders) > 1:
            self.collisions += 1
            for i in senders:
                self.attempts[i] += 1
                window = 1 << min(self.attempts[i], self.cfg.max_backoff_exp)
                self.target[i] = resume + self.rngs[i].randrange(window) + self.geom(i)
        else:
            src = senders[0]
            pkt, enq_time = self.queues[src].pop(0)
            self.attempts[src] = 0
            self.access_delays.append(end - enq_time)
            if self.queues[src]:
                self.target[src] = resume + self.geom(src)
            self.sink(src, pkt, end)
        self.reschedule()


def drive_channel(make, n_sources, persistence, max_backoff_exp, seed):
    """Deliveries (end, src, seq), collisions and access delays under seeded arrivals.

    Bursts of 1 to 4 back-to-back arrivals at a random station come about
    every 0.6 mean frame times; a quarter of them fall exactly on a slot
    edge, where an attempt may be due at the same instant. All frames of a
    case have one size, drawn per case so that frames last 0.7 to 4.8 slots.
    """
    cfg = MultiaccessConfig(link_rate=12e6, slot=2.5e-4, persistence=persistence,
                            max_backoff_exp=max_backoff_exp)
    evq = EventQueue()
    delivered = []
    frame_bits = random.Random(f"{seed}/frame").randint(2_000, 14_400)
    channel = make(evq, cfg, n_sources, seed, frame_bits,
                   lambda src, pkt, end: delivered.append((end, src, pkt.seq)))
    arrivals = random.Random(f"{seed}/arrivals")
    seqs = [0] * n_sources
    t = 0.0
    for _ in range(120):
        t += arrivals.expovariate(1.0 / 4e-4)
        at = math.ceil(t / cfg.slot) * cfg.slot if arrivals.random() < 0.25 else t
        src = arrivals.randrange(n_sources)
        for _ in range(arrivals.randint(1, 4)):
            evq.push(at, PRIO_PACKET, channel.accept, src, UpdatePacket(seqs[src], 0))
            seqs[src] += 1
    # colliders at p = 1 with no backoff window collide for ever: stop the clock
    evq.run_until(1.0)
    return delivered, channel.collisions, channel.access_delays


@pytest.mark.parametrize("max_backoff_exp", [0, 3, 5, 10])
@pytest.mark.parametrize("persistence", [0.05, 0.25, 1.0])
def test_slot_buckets_match_a_brute_force_channel(persistence, max_backoff_exp):
    collisions = 0
    for n_sources in (1, 2, 3, 5, 8, 13, 24, 40, 64):
        seed = f"{n_sources}/{persistence}/{max_backoff_exp}"
        expected = drive_channel(ReferenceChannel, n_sources, persistence, max_backoff_exp, seed)
        assert drive_channel(MultiaccessChannel, n_sources, persistence, max_backoff_exp,
                             seed) == expected
        collisions += expected[1]
    assert collisions > 0


class BitsLog(random.Random):
    """random.Random that adds the bit count of each getrandbits call to `widths`."""

    def getrandbits(self, k):
        self.widths.add(k)
        return super().getrandbits(k)


def test_ten_collisions_in_a_row_draw_every_window_up_to_the_cap():
    widths = set()

    def logged_channel(*args):
        channel = MultiaccessChannel(*args)
        for i, rng in enumerate(channel.rngs):
            channel.rngs[i] = BitsLog()
            channel.rngs[i].setstate(rng.getstate())
            channel.rngs[i].widths = widths
        return channel

    seed = "64/0.25/10"
    expected = drive_channel(ReferenceChannel, 64, 0.25, 10, seed)
    assert drive_channel(logged_channel, 64, 0.25, 10, seed) == expected
    # the window 1 << c costs getrandbits(c + 1), and c reaches the cap of 10
    # only for a station whose last 10 attempts all collided
    assert widths == set(range(2, 12))


class TestStationHop:
    """One FCFS drop-tail hop, timed by the Lindley recursion at entry."""

    def test_departure_at_t_frees_the_slot_for_an_arrival_at_t(self):
        # 8 bits at 8 bit/s: one second of service, then 0.5 s of propagation
        hop = StationQueue(StationConfig(service=DETERMINISTIC, rate=8.0, buffer=1,
                                         prop_delay=0.5), None)
        assert hop.enter(0.0, 8) == (0.0, 1.5)
        assert hop.enter(0.999, 8) is None  # the first packet is still in service
        assert hop.enter(1.0, 8) == (1.0, 2.5)  # it departs at 1.0: its slot is free
        assert hop.dropped == 1

    def test_packet_waits_for_the_previous_departure(self):
        hop = StationQueue(StationConfig(service=DETERMINISTIC, rate=8.0), None)
        assert [hop.enter(t, 8) for t in (0.0, 0.25, 0.5, 4.0)] == [
            (0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (4.0, 5.0)]

    def test_exponential_service_is_drawn_in_fifo_order(self):
        hop = StationQueue(StationConfig(service=EXPONENTIAL, rate=1e3),
                           random.Random("hop"))
        sizes = [800, 80, 8000, 800, 8]
        departures = [hop.enter(0.0, bits)[1] for bits in sizes]  # all queue at t = 0
        reference = random.Random("hop")
        expected, t = [], 0.0
        for bits in sizes:
            t += reference.expovariate(1e3 / bits)
            expected.append(t)
        assert departures == expected


class TestFutureRows:
    """An update is carried through every station when it enters the tandem.

    A constant source sends every 0.1 s from t = 0 to t = 1. Station 1 serves
    in 0.01 s, then propagates for 0.3 s. Station 2 serves in 0.25 s with room
    for one packet, so of every three arrivals it takes one and drops two.
    The run stops at 1.05 s, before the fate of the last four updates.
    """

    DURATION = 1.05

    def run(self):
        fast = StationConfig(service=DETERMINISTIC, rate=PACKET_BITS / 0.01, prop_delay=0.3)
        slow = StationConfig(service=DETERMINISTIC, rate=PACKET_BITS / 0.25, buffer=1)
        cfg = SimConfig(stations=(fast, slow), protocol="constant:10", duration=self.DURATION,
                        seed=1, ack_path="instant", record_trace=True)
        return run_simulation(cfg)

    def test_second_hop_drop_is_recorded_at_its_own_time(self):
        result = self.run()
        drops = [(seq, t) for t, _, kind, seq in result.trace if kind == DROPPED]
        assert [seq for seq, _ in drops] == [1, 2, 4, 5, 7]
        # the drop happens on arrival at station 2, 0.31 s after the send
        assert [t for _, t in drops] == pytest.approx([0.41, 0.51, 0.71, 0.81, 1.01], abs=1e-12)

    def test_future_drops_and_deliveries_count_as_in_flight(self):
        result = self.run()
        # seq 6 and 9 are delivered after the end, seq 8 and 10 dropped after it
        assert result.generated[0] == 11
        assert (result.delivered[0], result.dropped[0]) == (2, 5)
        assert result.in_flight(0) == 4
        assert result.resident_census() == [4]

    def test_rows_are_sorted_stably_and_cut_at_the_end(self):
        trace = self.run().trace
        times = [t for t, _, _, _ in trace]
        assert times == sorted(times)
        assert times[-1] <= self.DURATION
        # an idle station 1 gives each send three rows at one time, in lifecycle order
        for seq in range(11):
            rows = [kind for _, _, kind, q in trace if q == seq]
            assert rows[:3] == [GENERATED, ENQUEUED, SERVICE_START]
        # seq 9 reaches station 2 at 1.21 s, after the end: only its first rows exist
        assert [kind for _, _, kind, q in trace if q == 9] == [GENERATED, ENQUEUED, SERVICE_START]
        # seq 0 is delivered at 0.56 s, between the sends of seq 5 and seq 6
        order = [(kind, q) for _, _, kind, q in trace]
        assert order.index((GENERATED, 5)) < order.index((DELIVERED, 0)) < order.index((GENERATED, 6))


class TestConservation:
    @pytest.mark.parametrize("ack_path", ["instant", "symmetric"])
    def test_generated_equals_delivered_dropped_inflight(self, ack_path):
        ma = MultiaccessConfig(per_source_loss=0.1)
        st = StationConfig(service=EXPONENTIAL, rate=4e6, buffer=5, prop_delay=2e-3)
        cfg = SimConfig(stations=(st, st), n_sources=4, protocol="poisson:150",
                        duration=5.0, seed=13, multiaccess=ma, ack_path=ack_path,
                        record_trace=True)
        result = run_simulation(cfg)
        census = result.resident_census()
        for i in range(4):
            trace_gen = sum(1 for _, s, k, _ in result.trace if s == i and k == GENERATED)
            trace_dlv = sum(1 for _, s, k, _ in result.trace if s == i and k == DELIVERED)
            trace_drop = sum(1 for _, s, k, _ in result.trace if s == i and k == "dropped")
            assert trace_gen == result.generated[i]
            assert trace_gen == trace_dlv + trace_drop + result.in_flight(i)
            assert result.in_flight(i) == census[i]
            assert result.in_flight(i) >= 0

    def test_buffer_overflow_drops(self):
        st = StationConfig(service=DETERMINISTIC, rate=1e6, buffer=2)
        cfg = SimConfig(stations=(st,), n_sources=1, protocol="constant:1000",
                        duration=1.0, seed=1, ack_path="instant")
        result = run_simulation(cfg)
        assert result.dropped[0] > 0
        assert result.generated[0] == result.delivered[0] + result.dropped[0] + result.in_flight(0)


def test_fcfs_service_order_matches_arrival_order():
    st = StationConfig(service=EXPONENTIAL, rate=5e6)
    cfg = SimConfig(stations=(st,), n_sources=2, protocol="poisson:200,poisson:170",
                    duration=3.0, seed=21, ack_path="instant", record_trace=True)
    result = run_simulation(cfg)
    enq = [(s, q) for _, s, k, q in result.trace if k == ENQUEUED]
    srv = [(s, q) for _, s, k, q in result.trace if k == SERVICE_START]
    assert srv == enq[: len(srv)]


def test_zero_loss_in_order_no_discards():
    st = StationConfig(service=EXPONENTIAL, rate=6e6)
    cfg = SimConfig(stations=(st, st), n_sources=2, protocol="constant:100",
                    duration=5.0, seed=31)
    result = run_simulation(cfg)
    for i in range(2):
        assert result.monitors[i].discarded == 0
        assert result.sources[i].discarded_acks == 0
        assert result.sources[i].violations == 0
        # every delivered update was acked exactly once
        assert len(result.sources[i].ack_log) == len(result.monitors[i].delivery_log)


class TestLoadCurve:
    def test_deterministic_below_capacity_is_base(self):
        st = StationConfig(service=DETERMINISTIC, rate=1000 * PACKET_BITS)
        curve = rtt_vs_load_curve(st, rtt_base=0.02, loads=[500.0])
        assert curve[0][1] == pytest.approx(0.02)

    def test_deterministic_saturation_with_buffer(self):
        st = StationConfig(service=DETERMINISTIC, rate=1000 * PACKET_BITS, buffer=50)
        curve = rtt_vs_load_curve(st, rtt_base=0.02, loads=[2000.0])
        assert curve[0][1] == pytest.approx(0.02 + 49 / 1000)

    def test_unbounded_overload_is_flagged_unstable(self):
        st = StationConfig(service=EXPONENTIAL, rate=1000 * PACKET_BITS)
        curve = rtt_vs_load_curve(st, rtt_base=0.0, loads=[500.0, 1500.0])
        assert curve[0][1] == pytest.approx(1.0 / 500.0)
        assert math.isinf(curve[1][1])

    def test_simulated_mm1_matches_closed_form(self):
        mu = 1000.0
        st = StationConfig(service=EXPONENTIAL, rate=mu * PACKET_BITS)
        lam = 0.5 * mu
        measured = simulate_station_system_time(st, lam, packets=200_000, seed=3,
                                                packet_bits=PACKET_BITS)
        assert measured == pytest.approx(1.0 / (mu - lam), rel=0.05)


def single_source_age(service, rho, seed, duration, mu=1000.0):
    """Time-average age of Poisson updates at rate rho * mu through one FCFS station."""
    st = StationConfig(service=service, rate=mu * PACKET_BITS)
    cfg = SimConfig(stations=(st,), protocol=f"poisson:{rho * mu}", duration=duration,
                    seed=seed, ack_path="instant")
    result = run_simulation(cfg)
    horizon = default_horizon(0.0, duration)
    rows = [(r, g) for r, _, g in result.delivery_rows(0)]
    return time_average_age(age_trace_from_deliveries(rows, horizon), horizon)


class TestMM1AgeOracle:
    """Single-source FCFS M/M/1 age against its closed form.

    Kaul, Yates and Gruteser (INFOCOM 2012): Poisson updates at rate
    lambda through one exponential server of rate mu have time-average age
    (1/mu)(1 + 1/rho + rho^2/(1 - rho)), rho = lambda/mu. Each case averages
    two 400 s runs. The tolerance is four standard deviations of that
    two-run mean, taken from the spread of 12 single 400 s runs (seeds
    100-111): a per-run standard deviation of 0.29%, 0.23% and 1.85% of the
    closed form at rho = 0.3, 0.53 and 0.8.
    """

    @pytest.mark.parametrize("rho, rel_tol", [(0.3, 0.01), (0.53, 0.0075), (0.8, 0.055)])
    def test_average_age_matches_closed_form(self, rho, rel_tol):
        exact = (1 + 1 / rho + rho**2 / (1 - rho)) / 1000.0
        measured = sum(single_source_age(EXPONENTIAL, rho, seed, 400.0) for seed in (1, 2)) / 2
        assert measured == pytest.approx(exact, rel=rel_tol)


class TestMD1AgeOracle:
    """Single-source FCFS M/D/1 age against its closed form.

    Kaul, Yates and Gruteser (CISS 2012): Poisson updates at rate lambda
    through one deterministic server of rate mu have time-average age
    (1/mu)(1/(2(1 - rho)) + 1/2 + (1 - rho)e^rho/rho), rho = lambda/mu.
    Each case is one 200 s run, about 6 s of CPU for the three values of
    rho. The tolerance is four standard deviations of one run, taken from
    the spread of 12 runs (seeds 100-111): 0.41%, 0.23% and 0.75% of the
    closed form at rho = 0.3, 0.53 and 0.8, with means within 0.25% of it.
    """

    @pytest.mark.parametrize("rho, rel_tol", [(0.3, 0.017), (0.53, 0.0095), (0.8, 0.03)])
    def test_average_age_matches_closed_form(self, rho, rel_tol):
        exact = (1 / (2 * (1 - rho)) + 0.5 + (1 - rho) * math.exp(rho) / rho) / 1000.0
        measured = single_source_age(DETERMINISTIC, rho, seed=1, duration=200.0)
        assert measured == pytest.approx(exact, rel=rel_tol)


class TestSweep:
    def test_single_station_age_curve_is_u_shaped(self):
        mu = 1000.0
        rates = [0.1 * mu, 0.3 * mu, 0.5 * mu, 0.7 * mu, 0.95 * mu]
        result = sweep_min_age(mu * PACKET_BITS, rates, duration=30.0, seed=2,
                               stations=1)
        ages = {p.rate: p.avg_age for p in result.curve}
        assert ages[0.1 * mu] > result.best_age
        assert ages[0.95 * mu] > result.best_age
        assert result.best_rate not in (0.1 * mu, 0.95 * mu)

    def test_starvation_limit_age_blows_up(self):
        mu = 1000.0
        result = sweep_min_age(mu * PACKET_BITS, [1.0, 500.0], duration=30.0, seed=4)
        ages = {p.rate: p.avg_age for p in result.curve}
        assert ages[1.0] > 50 * ages[500.0]


# _timer_fire pushes on the run below under the previous design, which
# pushed a fresh event each time one of a source's per-kind deadlines moved
KIND_DIFF_TIMER_PUSHES = {"lazy": 2421, "acp+": 2031}


@pytest.mark.parametrize("protocol", ["lazy", "acp+"])
def test_one_live_timer_event_per_source(protocol, monkeypatch):
    # lazy's ACKs move its guard later on every update; acp+'s first ACK
    # moves both its deadlines
    station = StationConfig(service=DETERMINISTIC, rate=6e6, buffer=100, prop_delay=0.002)
    cfg = SimConfig(stations=(station, station), n_sources=12, protocol=protocol,
                    duration=3.0, seed=3,
                    multiaccess=MultiaccessConfig(slot=2.5e-4, max_backoff_exp=5,
                                                  per_source_loss=0.01))
    pushes = []
    push = EventQueue.push

    def counting_push(evq, time, priority, fn, *args):
        if getattr(fn, "__func__", None) is _Network._timer_fire:
            pushes.append(args)
        push(evq, time, priority, fn, *args)

    monkeypatch.setattr(EventQueue, "push", counting_push)
    net = run_simulation(cfg)
    live = [0] * cfg.n_sources
    for _, priority, _, fn, args in net.evq._heap:
        if getattr(fn, "__func__", None) is _Network._timer_fire:
            src, t = args
            assert priority == PRIO_TIMER and t > cfg.duration
            live[src] += t == net.timer_at[src]
    assert live == [1] * cfg.n_sources
    assert all(net.timer_at[i] <= s.deadline() for i, s in enumerate(net.sources))
    assert len(pushes) <= KIND_DIFF_TIMER_PUSHES[protocol]


def test_lazy_sim_backlog_near_one():
    st = StationConfig(service=EXPONENTIAL, rate=6e6, prop_delay=1e-3)
    cfg = SimConfig(stations=(st, st), n_sources=1, protocol="lazy",
                    duration=30.0, seed=8)
    result = run_simulation(cfg)
    horizon = default_horizon(0.0, 30.0)
    assert 0.8 <= result.backlog_average(0, horizon) <= 1.2
    # every 100-round-trip window stays near one update in flight
    rtts = [rtt for _, _, rtt in result.sources[0].ack_log]
    window = 100 * sum(rtts) / len(rtts)
    t = horizon[0]
    while t + window <= horizon[1]:
        avg = step_average(result.sources[0].backlog_trace, t, t + window)
        assert 0.5 <= avg <= 1.5
        t += window / 2


def test_trace_rows_follow_packet_lifecycle():
    st = StationConfig(service=EXPONENTIAL, rate=4e6, prop_delay=1e-3)
    cfg = SimConfig(stations=(st, st), n_sources=2, protocol="poisson:100",
                    duration=3.0, seed=17, record_trace=True)
    result = run_simulation(cfg)
    order = {GENERATED: 0, ENQUEUED: 1, SERVICE_START: 2, DELIVERED: 3}
    progress = {}
    for t, src, kind, seq in result.trace:
        if kind not in order:
            continue
        key = (src, seq)
        prev_kind, prev_t = progress.get(key, (-1, -1.0))
        # each packet's records appear in lifecycle order and never go back in time
        assert order[kind] >= prev_kind - 1  # enqueue/service repeat per station
        if kind == GENERATED:
            assert prev_kind == -1
        if kind == DELIVERED:
            assert prev_kind >= order[SERVICE_START]
        assert t >= prev_t
        progress[key] = (order[kind], t)


def test_acp_age_beats_starved_constant_on_shared_path():
    # sanity: the adaptive source ends with fresher data than a trickle sender
    st = StationConfig(service=DETERMINISTIC, rate=6e6, prop_delay=1e-3)
    horizon = default_horizon(0.0, 20.0)
    ages = {}
    for proto in ("acp+", "constant:2"):
        cfg = SimConfig(stations=(st, st), n_sources=1, protocol=proto,
                        duration=20.0, seed=6)
        result = run_simulation(cfg)
        rows = [(r, g) for r, _, g in result.delivery_rows(0)]
        ages[proto] = time_average_age(age_trace_from_deliveries(rows, horizon), horizon)
    assert ages["acp+"] < ages["constant:2"]


def test_config_validation():
    st = StationConfig(service=DETERMINISTIC, rate=1e6)
    with pytest.raises(ValueError):
        SimConfig(stations=(), duration=1.0)
    with pytest.raises(ValueError):
        SimConfig(stations=(st,), duration=0.0)
    with pytest.raises(ValueError):
        SimConfig(stations=(st,), n_sources=2, protocol="acp+,lazy,lazy")
    with pytest.raises(ValueError):
        StationConfig(service="uniform", rate=1e6)
    with pytest.raises(ValueError):
        StationConfig(service=DETERMINISTIC, rate=1e6, buffer=0)
    with pytest.raises(ValueError):
        MultiaccessConfig(persistence=0.0)
    with pytest.raises(ValueError, match="payload_bytes must be >= 0"):
        SimConfig(stations=(st,), payload_bytes=-1)
    SimConfig(stations=(st,), payload_bytes=0)
    with pytest.raises(ValueError, match="max_backoff_exp must be >= 0"):
        MultiaccessConfig(max_backoff_exp=-1)
    for rate in (0.0, -12e6):
        with pytest.raises(ValueError, match="link_rate must be positive"):
            MultiaccessConfig(link_rate=rate)
    stuck = MultiaccessConfig(persistence=1.0, max_backoff_exp=0)
    SimConfig(stations=(st,), multiaccess=stuck)  # a lone source never collides
    with pytest.raises(ValueError, match="colliders collide for ever"):
        SimConfig(stations=(st,), n_sources=2, multiaccess=stuck)
    cfg = SimConfig(stations=(st,), n_sources=2, protocol="acp+,lazy")
    assert cfg.mode_for(0) == "acp+" and cfg.mode_for(1) == "lazy"


def test_importing_netsim_loads_nothing_from_site_packages():
    # the runtime is stdlib-only (pyproject's dependencies = []); the site
    # .pth hooks load some site-packages modules at start-up, so only the
    # modules that the import adds count
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import agectl.netsim\n"
             "for name in set(sys.modules) - before:\n"
             "    print(name, getattr(sys.modules[name], '__file__', None))\n")
    src = str(Path(agectl.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    loaded = dict(line.split(" ", 1) for line in out.splitlines())
    assert "agectl.netsim" in loaded
    assert [name for name, path in loaded.items() if "site-packages" in Path(path).parts] == []
