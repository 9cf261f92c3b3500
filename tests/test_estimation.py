import math
import random

import pytest
from hypothesis import given, strategies as st

from agectl.estimation import (
    EpochWindow,
    NetworkEstimator,
    NoSamples,
    ewma_update,
)


class TestEwma:
    def test_fixed_point(self):
        assert ewma_update(0.25, 0.25, 0.875) == 0.25

    def test_hand_value(self):
        # 0.875 * 0.1 + 0.125 * 0.2 = 0.1125
        assert ewma_update(0.1, 0.2, 0.875) == pytest.approx(0.1125, abs=1e-15)

    def test_first_sample_initializes(self):
        assert ewma_update(None, 0.3, 0.875) == 0.3

    def test_converges_to_constant(self):
        est = 5.0
        for _ in range(500):
            est = ewma_update(est, 1.0, 0.875)
        assert abs(est - 1.0) < 1e-9

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            ewma_update(0.1, -0.1, 0.875)

    @given(
        prev=st.floats(0, 10, allow_nan=False),
        sample=st.floats(0, 10, allow_nan=False),
        alpha=st.floats(0.01, 0.99),
    )
    def test_output_between_prev_and_sample(self, prev, sample, alpha):
        out = ewma_update(prev, sample, alpha)
        lo, hi = min(prev, sample), max(prev, sample)
        assert lo - 1e-12 <= out <= hi + 1e-12


class TestNetworkEstimator:
    def test_first_ack(self):
        est = NetworkEstimator()
        est.record_ack(0.1, 0.0)
        assert est.rtt_bar == pytest.approx(0.1)
        assert est.z_bar is None
        assert not est.ready

    def test_second_ack_initializes_gap(self):
        est = NetworkEstimator()
        est.record_ack(0.1, 0.0)
        est.record_ack(0.2, 0.1)
        assert est.z_bar == pytest.approx(0.1)
        # two identical samples keep the smoothed rtt there
        assert est.rtt_bar == pytest.approx(0.1)
        assert est.ready

    def test_ack_before_generation_rejected(self):
        est = NetworkEstimator()
        with pytest.raises(ValueError, match="negative sample"):
            est.record_ack(0.1, 0.2)


def make_window(start=0.0, anchor=(0.0, 0.0), backlog=0):
    """A window opened at `start` on a source's logs: (window, ack_log, backlog_trace).

    The backlog trace holds the level at the start; the ACK log is empty.
    """
    ack_log, backlog_trace = [], [(start, backlog)]
    return EpochWindow(ack_log, backlog_trace, start, *anchor), ack_log, backlog_trace


def log_ack(ack_log, ack_time, rtt):
    ack_log.append((ack_time, len(ack_log), rtt))


class TestEpochAge:
    def test_two_acks_hand_trapezoid(self):
        # acks at 0 and 0.5 with rtt 0.1: each half ramps 0.1 -> 0.6,
        # averaging (0.1 + 0.6) / 2 = 0.35
        w, acks, _ = make_window()
        log_ack(acks, 0.0, 0.1)
        log_ack(acks, 0.5, 0.1)
        assert w.age_average(1.0) == pytest.approx(0.35)

    def test_single_ack_ramp(self):
        # one ack at the window start: average is rtt + length / 2
        for r, length in [(0.05, 1.0), (0.2, 2.5)]:
            w, acks, _ = make_window()
            log_ack(acks, 0.0, r)
            assert w.age_average(length) == pytest.approx(r + length / 2)

    def test_shift_all_samples_by_constant(self):
        # with the whole trajectory driven by resets (first ack at the
        # epoch start), raising every sample by c raises the mean by c
        rng = random.Random(1)
        times = [0.0] + sorted(rng.uniform(0, 1) for _ in range(9))
        rtts = [rng.uniform(0.01, 0.2) for _ in range(10)]
        (w1, acks1, _), (w2, acks2, _) = make_window(), make_window()
        c = 0.037
        for t, r in zip(times, rtts):
            log_ack(acks1, t, r)
            log_ack(acks2, t, r + c)
        assert w2.age_average(1.0) - w1.age_average(1.0) == pytest.approx(c)

    def test_empty_epoch_raises(self):
        with pytest.raises(NoSamples):
            make_window()[0].age_average(1.0)
        # an ACK of the epoch before is not one of this epoch's
        with pytest.raises(NoSamples):
            EpochWindow([(0.5, 0, 0.1)], [], 1.0, 0.5, 0.1, first_ack=1).age_average(2.0)

    def test_anchor_carries_previous_trajectory(self):
        # anchor (t=-1, age=0.2): at window start age is 0.2 + 1 = 1.2,
        # one ack at 0.5 resets to 0.1; integral = ramp(1.2, 0.5) + ramp(0.1, 0.5)
        w, acks, _ = make_window(start=0.0, anchor=(-1.0, 0.2))
        log_ack(acks, 0.5, 0.1)
        expected = (1.2 * 0.5 + 0.5 * 0.25) + (0.1 * 0.5 + 0.5 * 0.25)
        assert w.age_average(1.0) == pytest.approx(expected)

    def test_matches_midpoint_riemann(self):
        # sawtooth integral vs brute-force midpoint evaluation on a 1e-5 grid,
        # with all event times quantized to the grid so both are exact
        rng = random.Random(7)
        step = 1e-5
        for _ in range(20):
            n = rng.randint(1, 12)
            times = sorted(round(rng.uniform(0, 1), 5) for _ in range(n))
            w, acks, _ = make_window()
            for t in sorted(set(times)):
                log_ack(acks, t, round(rng.uniform(0.01, 0.3), 5))
            exact = w.age_average(1.0)
            total = 0.0
            cells = int(round(1.0 / step))
            events = [(t, r) for t, _, r in acks]
            idx = 0
            ref_t, ref_age = 0.0, 0.0
            for c in range(cells):
                mid = (c + 0.5) * step
                while idx < len(events) and events[idx][0] <= mid:
                    ref_t, ref_age = events[idx]
                    idx += 1
                total += ref_age + (mid - ref_t)
            brute = total / cells
            assert exact == pytest.approx(brute, rel=1e-6)


class TestEpochBacklog:
    def test_step_integral(self):
        # backlog 1 on [0, 0.4), 2 on [0.4, 1.0): 1*0.4 + 2*0.6 = 1.6
        w, _, steps = make_window(backlog=1)
        steps.append((0.4, 2))
        assert w.backlog_average(1.0) == pytest.approx(1.6)

    def test_constant(self):
        w, _, _ = make_window(backlog=3)
        assert w.backlog_average(2.0) == pytest.approx(3.0)

    def test_zero(self):
        w, _, _ = make_window(backlog=0)
        assert w.backlog_average(1.0) == 0.0

    def test_split_segment_invariance(self):
        w1, _, steps1 = make_window(backlog=2)
        steps1.append((0.6, 5))
        w2, _, steps2 = make_window(backlog=2)
        steps2.append((0.3, 2))  # split the first segment into two equal pieces
        steps2.append((0.6, 5))
        assert w1.backlog_average(1.0) == pytest.approx(w2.backlog_average(1.0))


class TestRoll:
    def test_roll_carries_anchor_and_level(self):
        w, acks, steps = make_window(backlog=1)
        log_ack(acks, 0.7, 0.05)
        steps.append((0.9, 4))
        nxt = w.roll(1.0)
        assert nxt.epoch_start == 1.0
        assert nxt.anchor_time == 0.7 and nxt.anchor_age == 0.05
        assert nxt.backlog_average(1.5) == 4.0
        # the new window starts on the old trajectory (age 0.05 + 0.3 at 1.0)
        # and ramps over 0.2 s to its first ACK: mean 0.35 + 0.1
        log_ack(acks, 1.2, 0.01)
        assert nxt.age_average(1.2) == pytest.approx(0.05 + 0.3 + 0.1)

    def test_roll_without_acks_keeps_old_anchor(self):
        w, acks, _ = make_window(anchor=(-0.5, 0.0))
        nxt = w.roll(1.0)
        assert nxt.anchor_time == -0.5
        log_ack(acks, 1.2, 0.01)
        assert nxt.age_average(1.2) == pytest.approx(1.5 + 0.1)

    def test_windows_before_the_first_backlog_row_read_the_rows_that_follow(self):
        # a source opens its first window before it logs its first send
        ack_log, backlog_trace = [], []
        w = EpochWindow(ack_log, backlog_trace, 0.0, 0.0, 0.0)
        nxt = w.roll(0.5)
        backlog_trace.append((0.6, 2))
        assert w.backlog_average(1.0) == pytest.approx(0.8)
        assert nxt.backlog_average(1.0) == pytest.approx(1.6)
