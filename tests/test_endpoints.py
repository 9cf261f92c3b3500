import logging
import random

import pytest

from agectl.controller import epoch_length, update_lambda
from agectl.endpoints import (
    EPOCH,
    FALLBACK,
    SEND,
    AcpPlusSource,
    ConstantSource,
    LazySource,
    Monitor,
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
        assert src.backlog_trace == [(0.0, 1)]

    def test_tick_interval_is_reciprocal_rate(self):
        src = ConstantSource(rate=100.0)
        src.start(0.0)
        assert src.timers() == [(SEND, pytest.approx(0.01))]
        src.fire(SEND, 0.01)
        assert src.timers() == [(SEND, pytest.approx(0.02))]

    def test_unacked_sends_accumulate(self):
        src = ConstantSource(rate=1.0)
        src.start(0.0)
        for i in range(1, 5):
            src.fire(SEND, float(i))
        assert src.backlog == 5


class TestAckHandling:
    def make_source_with_sends(self, n=6):
        src = ConstantSource(rate=1.0)
        pkts = src.start(0.0)
        for i in range(1, n):
            pkts += src.fire(SEND, float(i))
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
        # a sent seq with a gen_ts in the future used to raise ClockAnomaly
        src, pkts = self.make_source_with_sends(3)
        assert src.on_ack(AckPacket(seq=0, gen_ts=10**12), 0.5) == []
        assert src.on_ack(AckPacket(seq=2, gen_ts=pkts[2].gen_ts + 1), 3.0) == []
        assert src.violations == 2
        assert src.ack_log == [] and src.backlog == 3
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
            pkts += src.fire(SEND, i * 0.1)
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
        assert src.timers() == [(FALLBACK, pytest.approx(1.0))]

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
        (kind, t) = src.timers()[0]
        assert kind == FALLBACK
        assert t == pytest.approx(now + src.estimator.rtt_bar)

    def test_fallback_fires_replacement_after_loss(self):
        src = LazySource()
        (p0,) = src.start(0.0)
        (p1,) = src.on_ack(ack_for(p0), 0.05)  # ack-clocked send; rtt_bar = 0.05
        # p1's ack never arrives; the guard fires one replacement one
        # smoothed rtt after the send
        kind, t = src.timers()[0]
        assert kind == FALLBACK
        assert t == pytest.approx(0.05 + 0.05)
        out = src.fire(FALLBACK, t)
        assert len(out) == 1
        assert src.backlog == 2  # the lost update stays outstanding until superseded

    def test_ack_with_pipe_still_full_does_not_send(self):
        src = LazySource()
        (p0,) = src.start(0.0)
        (p1,) = src.on_ack(ack_for(p0), 0.05)
        (p2,) = src.fire(FALLBACK, src.timers()[0][1])  # spurious guard: two in flight
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
        assert epoch_length(src.controller_state.rate) == pytest.approx(1.0)
        assert src.next_epoch_time == pytest.approx(0.1 + 1.0)

    def test_epoch_length_rescales_with_rate(self):
        src = self.drive_to_first_ack(rtt=0.1)
        assert src.timers()[1] == (EPOCH, pytest.approx(1.1))
        # after a rate change the epoch horizon is 10 / new rate
        src._close_epoch(1.1)
        assert src.next_epoch_time == pytest.approx(1.1 + 10.0 / src.rate)

    def test_identical_epochs_zero_signs_give_dec(self):
        src = self.drive_to_first_ack(rtt=0.1)
        now = 0.1
        # two epochs with the same traffic pattern: send + ack each 0.1 s
        for epoch in range(2):
            for _ in range(10):
                (pkt,) = src.fire(SEND, now)
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
        for boundary in (10.0, 20.0, 30.0):
            src.fire(EPOCH, boundary)
        assert src.rate == 1.0
        assert [row[3] for row in src.epoch_rows] == ["hold", "hold", "hold"]

    def test_stalled_epoch_after_control_starts_reuses_averages(self):
        src = self.drive_to_first_ack(rtt=0.1)
        now = 0.1
        for _ in range(2):  # init, then one controlled epoch
            for _ in range(10):
                (pkt,) = src.fire(SEND, now)
                src.on_ack(ack_for(pkt), now + 0.1)
                now += 0.1
            src.fire(EPOCH, src.next_epoch_time)
        assert [row[3] for row in src.epoch_rows] == ["init", "dec"]
        # no ACK in the next two epochs: b_k = delta_k = 0, and control still acts
        for _ in range(2):
            prev = src.rate
            src.fire(SEND, src.next_epoch_time - 0.01)
            src.fire(EPOCH, src.next_epoch_time)
            _, _, rate, action, b_star, b_k, delta_k, flag, gamma = src.epoch_rows[-1]
            assert (action, b_star, b_k, delta_k) == ("dec", -1.0, 0.0, 0.0)
            est = src.estimator
            assert rate == src.rate == update_lambda(prev, est.z_bar, est.rtt_bar, -1.0)
            assert src.rate == pytest.approx(0.75 * prev)  # 1/z_bar - 1/rtt_bar is clamped

    def test_rate_moves_within_clamp_band(self):
        src = self.drive_to_first_ack(rtt=0.1)
        now, rtt = 0.1, 0.1
        rates = [src.rate]
        for _ in range(300):
            timers = dict((k, t) for k, t in src.timers())
            if timers[SEND] <= timers[EPOCH]:
                now = timers[SEND]
                (pkt,) = src.fire(SEND, now)
                src.on_ack(ack_for(pkt), now + rtt * (1 + 0.01 * (pkt.seq % 3)))
            else:
                now = timers[EPOCH]
                src.fire(EPOCH, now)
                rates.append(src.rate)
        for prev, cur in zip(rates, rates[1:]):
            assert 0.75 * prev - 1e-9 <= cur <= 1.25 * prev + 1e-9
            assert cur > 0


def test_make_source_modes():
    assert isinstance(make_source("acp+"), AcpPlusSource)
    assert isinstance(make_source("lazy"), LazySource)
    src = make_source("constant:250")
    assert isinstance(src, ConstantSource) and src.rate == 250.0
    with pytest.raises(ValueError):
        make_source("constant")
    with pytest.raises(ValueError):
        make_source("tcp")


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
        ((_, t),) = src.timers()
        deadlines.append(t)
        src.fire(SEND, t)
    return deadlines


def test_poisson_mode_draws_exponential_gaps_from_rng():
    src = make_source("poisson:1000", rng=random.Random(3))
    assert isinstance(src, ConstantSource) and src.rate == 1000.0
    deadlines = poisson_deadlines(src, 2000)
    draws = random.Random(3)
    expected = [0.0]
    for _ in range(3):
        expected.append(expected[-1] + draws.expovariate(1000.0))
    assert deadlines[:3] == expected[1:]
    assert deadlines[-1] / len(deadlines) == pytest.approx(1e-3, rel=0.1)
    # without an rng it seeds its own, so a live source can run it
    live = poisson_deadlines(make_source("poisson:1000"), 20)
    gaps = [b - a for a, b in zip([0.0] + live, live)]
    assert len(set(gaps)) == 20 and min(gaps) > 0

