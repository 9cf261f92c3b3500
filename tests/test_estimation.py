import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from agectl.endpoints import AcpPlusSource
from agectl.estimation import EpochWindow, NetworkEstimator, ewma_update
from agectl.metrics import step_average, time_average_age
from agectl.wire import AckPacket


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


def make_window(start=0.0, anchor=None, backlog=0):
    """A window opened at `start` with this backlog level.

    With an `anchor` (time, age) before `start`, the window is the next
    epoch of one that saw its last ACK there, so its sawtooth carries on
    from that reset.
    """
    return EpochWindow(start, (start, 0.0) if anchor is None else anchor, backlog)


class TestEpochAge:
    def test_two_acks_hand_trapezoid(self):
        # acks at 0 and 0.5 with rtt 0.1: each half ramps 0.1 -> 0.6,
        # averaging (0.1 + 0.6) / 2 = 0.35
        w = make_window()
        w.reset(0.0, 0.1)
        w.reset(0.5, 0.1)
        assert w.age_average(1.0) == pytest.approx(0.35)

    def test_single_ack_ramp(self):
        # one ack at the window start: average is rtt + length / 2
        for r, length in [(0.05, 1.0), (0.2, 2.5)]:
            w = make_window()
            w.reset(0.0, r)
            assert w.age_average(length) == pytest.approx(r + length / 2)

    def test_shift_all_samples_by_constant(self):
        # with the whole trajectory driven by resets (first ack at the
        # epoch start), raising every sample by c raises the mean by c
        rng = random.Random(1)
        times = [0.0] + sorted(rng.uniform(0, 1) for _ in range(9))
        rtts = [rng.uniform(0.01, 0.2) for _ in range(10)]
        w1, w2 = make_window(), make_window()
        c = 0.037
        for t, r in zip(times, rtts):
            w1.reset(t, r)
            w2.reset(t, r + c)
        assert w2.age_average(1.0) - w1.age_average(1.0) == pytest.approx(c)

    def test_acks_count_this_epochs_acks(self):
        w = make_window()
        assert w.acks == 0
        w.reset(0.5, 0.1)
        w.reset(1.0, 0.1)  # at the close instant: still this epoch's
        assert w.acks == 2
        w.roll(1.0)
        assert w.acks == 0

    def test_anchor_carries_previous_trajectory(self):
        # anchor (t=-1, age=0.2): at window start age is 0.2 + 1 = 1.2,
        # one ack at 0.5 resets to 0.1; integral = ramp(1.2, 0.5) + ramp(0.1, 0.5)
        w = make_window(start=0.0, anchor=(-1.0, 0.2))
        w.reset(0.5, 0.1)
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
            w = make_window()
            events = [(t, round(rng.uniform(0.01, 0.3), 5)) for t in sorted(set(times))]
            for t, r in events:
                w.reset(t, r)
            exact = w.age_average(1.0)
            total = 0.0
            cells = int(round(1.0 / step))
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
        w = make_window(backlog=1)
        w.step(0.4, 2)
        assert w.backlog_average(1.0) == pytest.approx(1.6)

    def test_constant(self):
        assert make_window(backlog=3).backlog_average(2.0) == pytest.approx(3.0)

    def test_zero(self):
        assert make_window(backlog=0).backlog_average(1.0) == 0.0

    def test_split_segment_invariance(self):
        w1 = make_window(backlog=2)
        w1.step(0.6, 5)
        w2 = make_window(backlog=2)
        w2.step(0.3, 2)  # split the first segment into two equal pieces
        w2.step(0.6, 5)
        assert w1.backlog_average(1.0) == pytest.approx(w2.backlog_average(1.0))

    def test_an_ack_steps_the_backlog(self):
        # backlog 3 on [0, 0.25), then the ACK clears it to 1; the acp+
        # source resets the age and steps the backlog at each ACK
        w = make_window(backlog=3)
        w.reset(0.25, 0.1)
        w.step(0.25, 1)
        assert w.backlog_average(1.0) == pytest.approx(0.75 + 0.75)


class TestRoll:
    def test_roll_carries_anchor_and_level(self):
        w = make_window(backlog=1)
        w.reset(0.7, 0.05)
        w.step(0.9, 4)
        w.roll(1.0)
        assert w.start == 1.0
        assert w.last_reset == (0.7, 0.05)
        assert w.backlog_average(1.5) == 4.0
        # the new window starts on the old trajectory (age 0.05 + 0.3 at 1.0)
        # and ramps over 0.2 s to its first ACK: mean 0.35 + 0.1
        w.reset(1.2, 0.01)
        assert w.age_average(1.2) == pytest.approx(0.05 + 0.3 + 0.1)

    def test_roll_without_acks_keeps_old_anchor(self):
        w = make_window(anchor=(-0.5, 0.0))
        w.roll(1.0)
        assert w.last_reset == (-0.5, 0.0)
        w.reset(1.2, 0.01)
        assert w.age_average(1.2) == pytest.approx(1.5 + 0.1)

    def test_a_new_window_starts_at_zero_backlog(self):
        # a source opens its first window before it logs its first send
        w = EpochWindow(0.0, (0.0, 0.0))
        w.step(0.6, 2)
        assert w.backlog_average(1.0) == pytest.approx(0.8)
        w = EpochWindow(0.0, (0.0, 0.0))
        w.roll(0.5)
        w.step(0.6, 2)
        assert w.backlog_average(1.0) == pytest.approx(1.6)


def offline_averages(ack_log, backlog_trace, anchor, t0, t1):
    """The epoch's averages from the full logs, by the offline drivers of the window."""
    trace = (anchor, *((t, rtt) for t, _, rtt in ack_log))
    times, levels = [t for t, _ in backlog_trace], [level for _, level in backlog_trace]
    return time_average_age(trace, (t0, t1)), step_average(times, levels, t0, t1)


def exact_averages(ack_log, backlog_trace, anchor, t0, t1):
    """The epoch's averages from the full logs, in exact rational arithmetic.

    Over the exact values of the logged floats, each sawtooth piece is a
    difference of squares and each step piece a rectangle, clipped to
    [t0, t1]. The backlog is 0 until its first step.
    """
    t0, t1 = Fraction(t0), Fraction(t1)

    def pieces(points):
        """(a, b, time, value) for each point's stretch, clipped to [t0, t1]."""
        ends = [Fraction(t) for t, _ in points[1:]] + [t1]
        for (t, value), end in zip(points, ends):
            a, b = max(Fraction(t), t0), min(end, t1)
            if a < b:
                yield a, b, Fraction(t), Fraction(value)

    age_area = sum(((age + b - t) ** 2 - (age + a - t) ** 2) / 2
                   for a, b, t, age in pieces([anchor] + [(t, rtt) for t, _, rtt in ack_log]))
    backlog_area = sum(level * (b - a)
                       for a, b, _, level in pieces([(anchor[0], 0)] + list(backlog_trace)))
    return age_area / (t1 - t0), backlog_area / (t1 - t0)


# the largest relative errors of the window's averages against
# exact_averages over the 300 seeds below are 3.77e-16 (age) and 3.83e-16
# (backlog), both under two units in the last place
EXACT_REL = 4e-16


class TestRunningSumsMatchTheOfflineIntegrators:
    """The window's averages equal, bit for bit, those its offline drivers integrate
    from the full logs, and come within EXACT_REL of the exact averages."""

    def drive(self, seed):
        """Random sends, ACKs and closes on a 10 ms grid, so that many of them tie."""
        rng = random.Random(seed)
        start = round(rng.uniform(0, 1), 2)
        w = EpochWindow(start, (start, 0.0))
        ack_log, backlog_trace, backlog = [], [], 0
        epoch_start, acks, checked = start, 0, []
        closes = sorted({round(start + rng.uniform(0.01, 3), 2) for _ in range(rng.randint(1, 8))})
        events = [(t, "close") for t in closes]
        # a few closes come with an ACK and a send on their very instant
        for t in rng.sample(closes, k=len(closes) // 2):
            events += [(t, "ack"), (t, "send")]
        events += [(start, rng.choice(["ack", "send"]))]
        for _ in range(rng.randint(0, 40)):
            events.append((round(rng.uniform(start, closes[-1]), 2), rng.choice(["ack", "send"])))
        rng.shuffle(events)
        events.sort(key=lambda e: e[0])  # ties keep a random order
        for t, kind in events:
            if kind == "send":
                backlog += 1
                backlog_trace.append((t, backlog))
                w.step(t, backlog)
            elif kind == "ack":
                backlog = rng.randint(0, backlog)
                rtt = rng.uniform(0.001, 0.5)
                ack_log.append((t, len(ack_log), rtt))
                backlog_trace.append((t, backlog))
                w.reset(t, rtt)
                w.step(t, backlog)
                acks += 1
            else:
                got = w.age_average(t), w.backlog_average(t)
                assert got == offline_averages(ack_log, backlog_trace, (start, 0.0), epoch_start, t)
                exact = exact_averages(ack_log, backlog_trace, (start, 0.0), epoch_start, t)
                for value, ref in zip(got, exact):
                    assert abs(Fraction(value) - ref) <= EXACT_REL * ref
                assert w.acks == acks
                checked.append(acks)
                w.roll(t)
                epoch_start, acks = t, 0
        return checked

    def test_random_sequences_with_ties_at_the_epoch_edges(self):
        checked = [acks for seed in range(300) for acks in self.drive(seed)]
        # epochs with no ACK, which carry the old anchor, are among them
        assert len(checked) > 1000 and 0 in checked and max(checked) > 5

    def test_the_last_piece_is_added_as_one_term(self):
        # here (area + age * d) + 0.5 * d * d rounds differently from
        # area + (age * d + 0.5 * d * d), which is the offline integrator's sum
        w = EpochWindow(0.0, (0.0, 0.0))
        w.reset(0.0, 0.36)
        w.reset(0.76, 0.01)
        expected, _ = offline_averages([(0.0, 0, 0.36), (0.76, 1, 0.01)], [], (0.0, 0.0),
                                       0.0, 1.21)
        assert w.age_average(1.21) == expected
        area, d = 0.36 * 0.76 + 0.5 * 0.76 * 0.76, 1.21 - 0.76
        assert (area + 0.01 * d + 0.5 * d * d) / 1.21 != expected

    def test_the_window_opened_at_the_first_ack_counts_that_ack(self):
        # the first epoch sees no ACK but the one it opened on, which still
        # gives it averages for the next epoch to compare against
        src = AcpPlusSource()
        (pkt,) = src.start(0.0)
        src.on_ack(AckPacket(pkt.seq, pkt.gen_ts), 0.1)
        assert src.epoch_window.acks == 1
        end = src.next_epoch_time
        while not src.epoch_rows:
            src.fire(src.deadline())
        assert src.epoch_rows[0][1] == end
        assert (src.prev_age_avg, src.prev_backlog_avg) == offline_averages(
            src.ack_log, src.backlog_trace, (0.0, 0.0), 0.1, end)
        assert src.prev_age_avg == pytest.approx(0.1 + (end - 0.1) / 2)
