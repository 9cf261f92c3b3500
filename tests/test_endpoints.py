import heapq
import logging
import math
import random
from collections import deque

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from agectl.controller import epoch_length, update_lambda
from agectl.endpoints import (
    AcpPlusSource,
    ConstantSource,
    LazySource,
    Monitor,
    PairLog,
    RowLog,
    make_source,
    parse_mode,
)
from agectl.wire import AckPacket, UpdatePacket


def ack_for(pkt: UpdatePacket) -> AckPacket:
    return AckPacket(seq=pkt.seq, gen_ts=pkt.gen_ts)


class TestMonitor:
    def test_in_order_sequence_acked(self):
        mon = Monitor()
        acks = [mon.on_update(UpdatePacket(seq=s, gen_ts=s * 10), now=s * 0.01)
                for s in (0, 1, 2)]
        assert all(a is not None for a in acks)
        assert len(mon.delivery_log) == 3
        assert [a.seq for a in acks] == [0, 1, 2]

    def test_out_of_sequence_discarded(self):
        mon = Monitor()
        assert mon.on_update(UpdatePacket(seq=0, gen_ts=0), 0.0) is not None
        assert mon.on_update(UpdatePacket(seq=2, gen_ts=2), 0.1) is not None
        assert mon.on_update(UpdatePacket(seq=1, gen_ts=1), 0.2) is None
        assert mon.discarded == 1
        assert len(mon.delivery_log) == 2

    def test_duplicate_discarded(self):
        mon = Monitor()
        mon.on_update(UpdatePacket(seq=2, gen_ts=2), 0.0)
        assert mon.on_update(UpdatePacket(seq=2, gen_ts=2), 0.1) is None

    def test_log_strictly_increasing(self):
        mon = Monitor()
        for s in (0, 3, 1, 4, 4, 2, 7):
            mon.on_update(UpdatePacket(seq=s, gen_ts=s), s * 0.1)
        seqs = [s for _, s, _ in mon.delivery_log]
        gens = [g for _, _, g in mon.delivery_log]
        assert seqs == sorted(set(seqs)) == [0, 3, 4, 7]
        assert gens == sorted(gens)


class TestConstantSource:
    def test_first_packet_and_backlog(self):
        src = ConstantSource(rate=100.0)
        (pkt,) = src.start(0.0)
        assert pkt.seq == 0
        assert src.backlog == 1
        assert list(src.backlog_trace) == [(0.0, 1)]

    def test_tick_interval_is_reciprocal_rate(self):
        src = ConstantSource(rate=100.0)
        src.start(0.0)
        assert src.deadline() == pytest.approx(0.01)
        assert len(src.fire(src.deadline())) == 1
        assert src.deadline() == pytest.approx(0.02)

    def test_a_gap_below_the_clock_resolution_sends_once_per_fire(self):
        # 1e-17 s does not move a clock that reads 1 s, so the next send is due at once
        src = ConstantSource(rate=1e17)
        src.start(0.0)
        for _ in range(3):
            assert len(src.fire(1.0)) == 1
            assert src.deadline() == 1.0

    def test_unacked_sends_accumulate(self):
        src = ConstantSource(rate=1.0)
        src.start(0.0)
        for i in range(1, 5):
            src.fire(float(i))
        assert src.backlog == 5


class TestAckHandling:
    def make_source_with_sends(self, n=6):
        src = ConstantSource(rate=1.0)
        pkts = src.start(0.0)
        for i in range(1, n):
            pkts += src.fire(float(i))
        assert len(pkts) == n
        return src, pkts

    def test_stale_ack_discarded(self):
        src, pkts = self.make_source_with_sends(8)
        src.on_ack(ack_for(pkts[7]), 8.0)
        before = len(src.ack_log)
        assert src.on_ack(ack_for(pkts[5]), 8.1) == []
        assert src.discarded_acks == 1
        assert len(src.ack_log) == before

    def test_supersession_clears_older(self):
        src, pkts = self.make_source_with_sends(6)
        src.on_ack(ack_for(pkts[2]), 6.0)  # acks 2; 0,1 superseded
        assert src.backlog == 3
        src.on_ack(ack_for(pkts[5]), 6.5)  # acks 5; 3,4 superseded
        assert src.backlog == 0
        assert src.highest_acked_seq == 5

    def test_never_sent_ack_is_violation(self):
        src, _ = self.make_source_with_sends(3)
        assert src.on_ack(AckPacket(seq=99, gen_ts=0), 5.0) == []
        assert src.violations == 1
        assert src.highest_acked_seq is None

    def test_forged_gen_ts_is_dropped_as_violation(self):
        # a sent seq with a gen_ts in the future would give a negative RTT sample
        src, pkts = self.make_source_with_sends(3)
        assert src.on_ack(AckPacket(seq=0, gen_ts=10**12), 0.5) == []
        assert src.on_ack(AckPacket(seq=2, gen_ts=pkts[2].gen_ts + 1), 3.0) == []
        assert src.violations == 2
        assert list(src.ack_log) == [] and src.backlog == 3
        assert src.highest_acked_seq is None
        src.on_ack(ack_for(pkts[1]), 3.0)  # the genuine ACK still counts
        assert src.highest_acked_seq == 1 and src.backlog == 1

    def test_forged_acks_are_counted_not_logged_one_by_one(self, caplog):
        # run_source logs the total at exit; a flood must not flood stderr
        src, pkts = self.make_source_with_sends(3)
        with caplog.at_level(logging.WARNING):
            for k in range(50):
                src.on_ack(AckPacket(seq=1000 + k, gen_ts=0), 4.0)
                src.on_ack(AckPacket(seq=2, gen_ts=pkts[2].gen_ts + 1 + k), 4.0)
        assert caplog.records == []
        assert src.violations == 100

    def test_zero_loss_in_order_every_update_acked_once(self):
        src = ConstantSource(rate=10.0)
        pkts = src.start(0.0)
        for i in range(1, 50):
            assert src.deadline() == pytest.approx(i * 0.1)
            pkts += src.fire(src.deadline())
        for i, pkt in enumerate(pkts):
            src.on_ack(ack_for(pkt), i * 0.1 + 0.05)
        assert len(src.ack_log) == 50
        assert src.discarded_acks == 0 and src.violations == 0
        assert src.backlog == 0

    def test_backlog_counts_sends_minus_acked_and_superseded(self):
        src, pkts = self.make_source_with_sends(10)
        src.on_ack(ack_for(pkts[3]), 10.0)
        acked_or_superseded = 4  # seqs 0..3
        assert src.backlog == 10 - acked_or_superseded
        assert src.backlog >= 0


class TestLazySource:
    def test_bootstrap_sends_immediately(self):
        src = LazySource()
        pkts = src.start(0.0)
        assert len(pkts) == 1 and pkts[0].seq == 0
        assert src.deadline() == pytest.approx(1.0)

    def test_ack_clocked_send_keeps_backlog_one(self):
        src = LazySource()
        (pkt,) = src.start(0.0)
        rtt = 0.05
        now = 0.0
        for _ in range(40):
            now += rtt
            out = src.on_ack(ack_for(pkt), now)
            assert len(out) == 1  # pipe emptied: exactly one fresh update
            assert src.backlog == 1
            (pkt,) = out
        # guard timer re-arms one smoothed rtt after the last activity
        assert src.deadline() == pytest.approx(now + src.estimator.rtt_bar)

    def test_fallback_fires_replacement_after_loss(self):
        src = LazySource()
        (p0,) = src.start(0.0)
        (p1,) = src.on_ack(ack_for(p0), 0.05)  # ack-clocked send; rtt_bar = 0.05
        # p1's ack never arrives; the guard fires one replacement one
        # smoothed rtt after the send
        t = src.deadline()
        assert t == pytest.approx(0.05 + 0.05)
        out = src.fire(t)
        assert len(out) == 1
        assert src.backlog == 2  # the lost update stays outstanding until superseded

    def test_ack_with_pipe_still_full_does_not_send(self):
        src = LazySource()
        (p0,) = src.start(0.0)
        (p1,) = src.on_ack(ack_for(p0), 0.05)
        (p2,) = src.fire(src.deadline())  # spurious guard: two in flight
        # ack for p1 leaves p2 outstanding: healing, no new send yet
        assert src.on_ack(ack_for(p1), 0.21) == []
        (p3,) = src.on_ack(ack_for(p2), 0.25)
        assert p3.seq == p2.seq + 1


class TestAcpPlusSource:
    def drive_to_first_ack(self, rtt=0.1):
        src = AcpPlusSource()
        (p0,) = src.start(0.0)
        src.on_ack(ack_for(p0), rtt)
        return src

    def test_bootstrap_rate_set_from_first_rtt(self):
        src = self.drive_to_first_ack(rtt=0.1)
        assert src.rate == pytest.approx(10.0)
        assert epoch_length(src.rate) == pytest.approx(1.0)
        assert src.next_epoch_time == pytest.approx(0.1 + 1.0)

    def test_epoch_length_rescales_with_rate(self):
        src = self.drive_to_first_ack(rtt=0.1)
        assert src.deadline() == pytest.approx(0.2)  # the next send comes first
        assert src.next_epoch_time == pytest.approx(1.1)
        # after a rate change the epoch horizon is 10 / new rate
        src._close_epoch(1.1)
        assert src.next_epoch_time == pytest.approx(1.1 + 10.0 / src.rate)

    def test_identical_epochs_zero_signs_give_dec(self):
        src = self.drive_to_first_ack(rtt=0.1)
        now = 0.1
        # two epochs with the same traffic pattern: send + ack each 0.1 s,
        # the first send at the epoch start, off the source's send timer
        for epoch in range(2):
            for _ in range(10):
                pkt = src._emit(now)
                src.on_ack(ack_for(pkt), now + 0.1)
                now += 0.1
            src._close_epoch(src.next_epoch_time)
        k, _, _, action, b_star, b_k, delta_k, flag, gamma = src.epoch_rows[-1]
        assert action == "dec"
        assert b_star == -1.0
        assert abs(b_k) < 1e-9 and abs(delta_k) < 1e-9

    def test_stalled_epochs_hold_rate(self):
        src = AcpPlusSource()
        src.start(0.0)
        while len(src.epoch_rows) < 3:
            src.fire(src.deadline())
        assert src.rate == 1.0
        assert [row[3] for row in src.epoch_rows] == ["hold", "hold", "hold"]
        assert [row[1] for row in src.epoch_rows] == [10.0, 20.0, 30.0]
        assert src.next_seq == 31  # a send each second, after the epoch close on a tie

    def test_epoch_index_counts_on_across_the_first_ack(self):
        # bootstrap epochs close at 10 and 20 s; the first ACK at 25.05 s
        # restarts the window and the timers, not the epoch count
        src = AcpPlusSource()
        (p0,) = src.start(0.0)
        while src.deadline() < 25.05:
            src.fire(src.deadline())
        src.on_ack(ack_for(p0), 25.05)
        while len(src.epoch_rows) < 6:
            src.fire(src.deadline())
        assert [row[0] for row in src.epoch_rows] == [0, 1, 2, 3, 4, 5]
        assert [row[1] for row in src.epoch_rows[:2]] == [10.0, 20.0]
        assert src.epoch_rows[2][1] == pytest.approx(25.05 + 10 * 25.05)

    def test_stalled_epoch_after_control_starts_reuses_averages(self):
        src = self.drive_to_first_ack(rtt=0.1)
        now = 0.1
        for _ in range(2):  # init, then one controlled epoch
            for _ in range(10):
                pkt = src._emit(now)  # off the send timer, as in the test above
                src.on_ack(ack_for(pkt), now + 0.1)
                now += 0.1
            src._close_epoch(src.next_epoch_time)
        assert [row[3] for row in src.epoch_rows] == ["init", "dec"]
        # no ACK in the next two epochs: b_k = delta_k = 0, and control still acts
        for _ in range(2):
            prev = src.rate
            src._emit(src.next_epoch_time - 0.01)
            src._close_epoch(src.next_epoch_time)
            _, _, rate, action, b_star, b_k, delta_k, flag, gamma = src.epoch_rows[-1]
            assert (action, b_star, b_k, delta_k) == ("dec", -1.0, 0.0, 0.0)
            est = src.estimator
            assert rate == src.rate == update_lambda(prev, est.z_bar, est.rtt_bar, -1.0)
            assert src.rate == pytest.approx(0.75 * prev)  # 1/z_bar - 1/rtt_bar is clamped

    def test_acks_at_one_instant_hold_control_until_a_gap(self):
        # two ACKs drained in one pass leave z_bar = 0, and 1/z_bar has no value
        src = AcpPlusSource()
        (p0,) = src.start(0.0)
        (p1,) = src.fire(1.0)
        src.on_ack(ack_for(p0), 1.5)
        src.on_ack(ack_for(p1), 1.5)
        assert src.estimator.z_bar == 0.0
        while len(src.epoch_rows) < 3:
            src.fire(src.deadline())
        assert [row[3] for row in src.epoch_rows] == ["hold"] * 3
        assert src.rate == 1.0 / 1.5  # one update per first RTT, then held

    def test_rate_moves_within_clamp_band(self):
        src = self.drive_to_first_ack(rtt=0.1)
        now, rtt = 0.1, 0.1
        rates = [src.rate]
        for _ in range(300):
            now = src.deadline()
            epochs = len(src.epoch_rows)
            for pkt in src.fire(now):
                src.on_ack(ack_for(pkt), now + rtt * (1 + 0.01 * (pkt.seq % 3)))
            if len(src.epoch_rows) > epochs:
                rates.append(src.rate)
        for prev, cur in zip(rates, rates[1:]):
            assert 0.75 * prev - 1e-9 <= cur <= 1.25 * prev + 1e-9
            assert cur > 0

    @staticmethod
    def run_epochs(clear_logs, epochs=40):
        """epoch_rows of an acp+ source on a path that loses every seventh update.

        An ACK comes back 40 to 120 ms after its update was sent, so ACKs
        overtake each other. With `clear_logs`, every column of the ACK and
        backlog logs is emptied after each epoch close.
        """
        src = AcpPlusSource()
        pending = []  # heap of (ack_time, seq, gen_ts)

        def send(pkts, now):
            for pkt in pkts:
                if pkt.seq % 7 != 3:
                    heapq.heappush(pending, (now + 0.04 + 0.02 * (pkt.seq % 5), pkt.seq,
                                             pkt.gen_ts))

        send(src.start(0.0), 0.0)
        while len(src.epoch_rows) < epochs:
            closed = len(src.epoch_rows)
            if pending and pending[0][0] <= src.deadline():
                now, seq, gen_ts = heapq.heappop(pending)
                send(src.on_ack(AckPacket(seq, gen_ts), now), now)
            else:
                now = src.deadline()
                send(src.fire(now), now)
            if clear_logs and len(src.epoch_rows) > closed:
                for log in (src.ack_log, src.backlog_trace):
                    for column in log.columns:
                        del column[:]
        return src.epoch_rows

    def test_control_never_reads_the_logs(self):
        rows = self.run_epochs(clear_logs=False)
        assert {"inc", "dec"} <= {row[3] for row in rows}
        assert self.run_epochs(clear_logs=True) == rows


def test_make_source_modes():
    assert isinstance(make_source("acp+"), AcpPlusSource)
    assert isinstance(make_source("lazy"), LazySource)
    src = make_source("constant:250")
    assert isinstance(src, ConstantSource) and src.rate == 250.0
    with pytest.raises(ValueError):
        make_source("constant")
    with pytest.raises(ValueError):
        make_source("tcp")


@pytest.mark.parametrize("mode", ["constant:10", "poisson:10", "lazy", "acp+"])
def test_updates_of_one_source_share_one_payload(mode):
    src = make_source(mode, payload_bytes=100)
    sent = src.start(0.0)
    while len(sent) < 2:
        sent += src.fire(src.deadline())
    first, second = sent[:2]
    assert first.seq != second.seq
    assert first.payload is second.payload and first.payload == bytes(100)


def test_sources_of_one_payload_size_share_one_payload():
    payloads = [make_source(mode, payload_bytes=100).payload
                for mode in ("constant:10", "poisson:10", "lazy", "acp+")]
    assert all(p is payloads[0] for p in payloads) and payloads[0] == bytes(100)
    assert make_source("lazy", payload_bytes=101).payload == bytes(101)


SEQ_MAX, GEN_TS_MAX = 2**32 - 1, 2**64 - 1  # the largest seq and gen_ts the wire carries


class TestRowLog:
    ROWS = [(0.25, 0, 7), (0.5, 3, 9), (1.0 / 3.0, SEQ_MAX, GEN_TS_MAX)]

    def log(self, rows=ROWS):
        log = RowLog("d", "Q", "Q")
        for row in rows:
            log.append(row)
        return log

    def test_monitor_keeps_the_wire_extremes_exactly(self):
        mon = Monitor()
        mon.on_update(UpdatePacket(seq=SEQ_MAX, gen_ts=GEN_TS_MAX), 0.1)
        assert list(mon.delivery_log) == [(0.1, SEQ_MAX, GEN_TS_MAX)]
        (row,) = mon.delivery_log
        assert [type(v) for v in row] == [float, int, int]

    def test_source_logs_keep_the_largest_seq_exactly(self):
        src = ConstantSource(rate=10.0)
        src.next_seq = SEQ_MAX
        (pkt,) = src.start(0.5)
        src.on_ack(ack_for(pkt), 0.75)
        ((ack_time, seq, rtt),) = src.ack_log
        assert (ack_time, seq) == (0.75, SEQ_MAX) and rtt == 0.75 - pkt.gen_ts / 1e9
        assert [type(v) for v in src.ack_log[0]] == [float, int, float]
        assert list(src.backlog_trace) == [(0.5, 1), (0.75, 0)]
        assert [type(v) for v in src.backlog_trace[-1]] == [float, int]

    def test_reads_back_like_the_list_of_tuples(self):
        log, rows = self.log(), list(self.ROWS)
        assert len(log) == 3 and list(log) == rows
        assert repr(log) == repr(rows) and repr(RowLog("d", "Q", "d")) == "[]"
        assert log[0] == rows[0] and log[-1] == rows[-1] and log[-2] == rows[-2]
        for i in range(-4, 5):  # the benchmark's delivery checks slice a monitor's log
            assert log[i:] == rows[i:]
        with pytest.raises(IndexError):
            RowLog("d", "Q", "d")[-1]

    def test_pairs(self):
        log = PairLog("d", "Q")
        for row in [(0.0, 1), (0.5, 2), (0.75, 0)]:
            log.append(row)
        assert list(log) == [(0.0, 1), (0.5, 2), (0.75, 0)] and log[1:] == [(0.5, 2), (0.75, 0)]
        assert repr(log) == repr([(0.0, 1), (0.5, 2), (0.75, 0)])

    @pytest.mark.parametrize("row, pair, error", [
        ((2.0, 1.5, 3), (2.0, 1.5), TypeError),
        ((2.0, 1, -1), (2.0, -1), OverflowError),
        ((2.0, 1, 2**64), (2.0, 2**64), OverflowError),
        (("2.0", 1, 1), ("2.0", 1), TypeError),
    ])
    def test_a_value_its_column_cannot_hold_leaves_the_log_as_it_was(self, row, pair, error):
        log = self.log()
        with pytest.raises(error):
            log.append(row)
        assert list(log) == self.ROWS and [len(c) for c in log.columns] == [3, 3, 3]
        pairs = PairLog("d", "Q")
        pairs.append((1.0, 2))
        with pytest.raises(error):
            pairs.append(pair)
        assert list(pairs) == [(1.0, 2)] and [len(c) for c in pairs.columns] == [1, 1]


def test_parse_mode():
    assert parse_mode("acp+") == ("acp+", None)
    assert parse_mode("lazy") == ("lazy", None)
    assert parse_mode("constant:250") == ("constant", 250.0)
    assert parse_mode("poisson:0.5") == ("poisson", 0.5)
    for bad in ("constant", "constant:", "constant:abc", "constant:0", "poisson:-1",
                "poisson:nan", "poisson:inf", "tcp", "lazy:3", "Constant:5"):
        with pytest.raises(ValueError):
            parse_mode(bad)


def poisson_deadlines(src, n):
    src.start(0.0)
    deadlines = []
    for _ in range(n):
        t = src.deadline()
        deadlines.append(t)
        src.fire(t)
    return deadlines


def test_poisson_mode_draws_exponential_gaps_from_its_seed():
    src = make_source("poisson:1000", seed=3)
    assert isinstance(src, ConstantSource) and src.rate == 1000.0
    deadlines = poisson_deadlines(src, 2000)
    draws = random.Random(3)
    expected = [0.0]
    for _ in range(3):
        expected.append(expected[-1] + draws.expovariate(1000.0))
    assert deadlines[:3] == expected[1:]
    assert deadlines[-1] / len(deadlines) == pytest.approx(1e-3, rel=0.1)
    # without a seed it seeds from the OS, so a live source can run it
    live = poisson_deadlines(make_source("poisson:1000"), 20)
    gaps = [b - a for a, b in zip([0.0] + live, live)]
    assert len(set(gaps)) == 20 and min(gaps) > 0


def plain_state(src):
    """Every field of a source as a comparable value, nested objects and rng included."""
    out = {}
    for name, value in vars(src).items():
        if isinstance(value, random.Random):
            value = value.getstate()
        elif isinstance(value, (list, deque)):
            value = list(value)
        elif hasattr(value, "__dict__"):  # estimator, controller state, epoch window
            value = dict(vars(value))
        out[name] = value
    return out


class SourceContract(RuleBasedStateMachine):
    """Any interleaving of timer fires and ACKs, genuine or not, on a virtual clock.

    ACKs come at least 1 us after their update was sent, and may share a
    time with each other, as ACKs drained in one pass of the live loop do.
    """

    @initialize(mode=st.sampled_from(["constant:50", "poisson:50", "lazy", "acp+"]),
                seed=st.integers(0, 2**32))
    def start(self, mode, seed):
        self.src = make_source(mode, seed=seed)
        self.now = 0.0
        self.sent = self.src.start(0.0)

    def fire(self, now):
        src = self.src
        rate = getattr(src, "rate", None)
        self.now = now
        self.sent += src.fire(now)
        assert src.deadline() > now  # the timer loop cannot spin
        if isinstance(src, AcpPlusSource):  # at most one epoch closes per call
            assert 0.75 * rate <= src.rate <= 1.25 * rate and src.rate > 0

    @rule(times=st.integers(1, 30))
    def fire_at_deadline(self, times):
        for _ in range(times):
            self.fire(max(self.now, self.src.deadline()))

    @rule(late=st.floats(1e-9, 5.0))
    def fire_late(self, late):
        self.fire(max(self.now, self.src.deadline()) + late)

    @rule(frac=st.floats(0.0, 1.0, exclude_max=True))
    def fire_early(self, frac):
        deadline = self.src.deadline()
        now = self.now + frac * (deadline - self.now)
        if now < deadline:
            before = plain_state(self.src)
            assert self.src.fire(now) == []
            assert plain_state(self.src) == before
            self.now = now

    def ack(self, ack, gen_ts, delay):
        self.now = max(self.now + delay, gen_ts / 1e9 + 1e-6)
        self.sent += self.src.on_ack(ack, self.now)

    @rule(data=st.data(), delay=st.sampled_from([0.0, 1e-6, 0.01, 0.3]))
    def ack_in_order(self, data, delay):
        """ACK some outstanding updates, in seq order, at one instant."""
        outstanding = list(self.src.outstanding)
        if outstanding:
            picked = data.draw(st.lists(st.sampled_from(outstanding), min_size=1, max_size=3,
                                        unique=True))
            for seq, gen_ts in sorted(picked):
                acks = len(self.src.ack_log)
                self.ack(AckPacket(seq, gen_ts), gen_ts, delay)
                assert len(self.src.ack_log) == acks + 1 and self.src.highest_acked_seq == seq
                delay = 0.0

    @rule(data=st.data(), delay=st.sampled_from([0.0, 0.01]))
    def ack_stale_or_duplicate(self, data, delay):
        highest = self.src.highest_acked_seq
        done = [p for p in self.sent if highest is not None and p.seq <= highest]
        if done:
            pkt = data.draw(st.sampled_from(done))
            discarded = self.src.discarded_acks
            self.ack(ack_for(pkt), pkt.gen_ts, delay)
            assert self.src.discarded_acks == discarded + 1

    @rule(data=st.data(), never_sent=st.booleans(), offset=st.integers(1, 10**9))
    def ack_forged(self, data, never_sent, offset):
        src = self.src
        if never_sent:
            ack = AckPacket(src.next_seq + offset, data.draw(st.integers(0, 2**63)))
        elif src.outstanding:
            seq, gen_ts = data.draw(st.sampled_from(list(src.outstanding)))
            ack = AckPacket(seq, gen_ts + data.draw(st.sampled_from([-offset, offset])))
        else:
            return
        violations = src.violations
        self.ack(ack, 0, 0.0)
        assert src.violations == violations + 1

    @invariant()
    def backlog_is_the_outstanding_updates(self):
        src = self.src
        assert src.backlog == len(src.outstanding) >= 0
        assert src.backlog_trace[-1] == (src.backlog_trace[-1][0], src.backlog)
        first = 0 if src.highest_acked_seq is None else src.highest_acked_seq + 1
        assert [seq for seq, _ in src.outstanding] == list(range(first, src.next_seq))
        assert src.deadline() < math.inf


TestSourceContract = SourceContract.TestCase
TestSourceContract.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)
