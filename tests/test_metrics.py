import math
import random

import numpy as np
import pytest

from agectl.metrics import (
    age_trace_from_deliveries,
    age_trace_from_rtt_samples,
    default_horizon,
    jain_fairness,
    step_average,
    summarize,
    time_average_age,
)


def age_at(trace, t):
    """The sawtooth's age at t: that of its last point at or before t, plus the time since."""
    ref_t, ref_a = [p for p in trace if p[0] <= t][-1]
    return ref_a + (t - ref_t)


class TestAgeTrace:
    def test_three_delivery_sawtooth(self):
        # deliveries at 0.5, 1.5, 2.5 of updates generated at 0, 1, 2:
        # every reset lands at age 0.5 and each ramp peaks at 1.5
        log = [(0.5, 0.0), (1.5, 1.0), (2.5, 2.0)]
        trace = age_trace_from_deliveries(log, (0.5, 2.5))
        assert trace[0] == (0.5, 0.5)
        for r, g in log:
            assert age_at(trace, r) == pytest.approx(r - g)
        assert age_at(trace, 1.5 - 1e-12) == pytest.approx(1.5, abs=1e-9)
        assert time_average_age(trace, (0.5, 2.5)) == pytest.approx(1.0)

    def test_zero_delay_periodic(self):
        tau = 0.25
        log = [(k * tau, k * tau) for k in range(1, 41)]
        trace = age_trace_from_deliveries(log, (tau, 10 * tau))
        assert time_average_age(trace, (tau, 10 * tau)) == pytest.approx(tau / 2)

    def test_single_delivery_ramps_to_horizon(self):
        trace = age_trace_from_deliveries([(1.0, 0.8)], (1.0, 3.0))
        # age 0.2 at the delivery, ramping to 2.2: mean 1.2
        assert time_average_age(trace, (1.0, 3.0)) == pytest.approx(1.2)

    def test_near_constant_age(self):
        # dense deliveries with identical delay approximate a flat trace
        c, gap = 0.5, 1e-4
        log = [(k * gap, k * gap - c) for k in range(1, 20001)]
        trace = age_trace_from_deliveries(log, (gap, 2.0))
        assert time_average_age(trace, (gap, 2.0)) == pytest.approx(c + gap / 2, rel=1e-3)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            age_trace_from_deliveries([], (0, 1))

    def test_horizon_anchoring_uses_last_prior_delivery(self):
        log = [(0.5, 0.4), (3.0, 2.9)]
        trace = age_trace_from_deliveries(log, (1.0, 4.0))
        # at t0=1.0 the freshest update is the 0.5 delivery: age 1.0 - 0.4
        assert age_at(trace, 1.0) == pytest.approx(0.6)

    def test_lost_first_updates_anchor_at_run_start(self):
        # every update generated before the horizon start 0.75 was lost; the
        # first delivered one was generated at 1.0
        log = [(1.25, 1.0), (2.25, 2.0)]
        with pytest.raises(ValueError, match="horizon starts before"):
            age_trace_from_deliveries(log, (0.75, 3.0))
        trace = age_trace_from_deliveries(log, (0.75, 3.0), run_start=0.0)
        assert trace == ((0.75, 0.75), (1.25, 0.25), (2.25, 0.25))

    def test_run_start_unused_when_first_update_precedes_horizon(self):
        log = [(1.25, 0.5), (2.25, 2.0)]
        assert (age_trace_from_deliveries(log, (0.75, 3.0), run_start=0.0)
                == age_trace_from_deliveries(log, (0.75, 3.0)))

    def test_rtt_samples_mode_matches_delivery_mode(self):
        # the same sawtooth as deliveries generated at t - rtt, except that
        # the resets are the samples themselves, not t - (t - rtt)
        samples = [(0.5, 0.1), (0.8, 0.2), (1.4, 0.15)]
        t1 = age_trace_from_rtt_samples(samples, (0.5, 2.0))
        t2 = age_trace_from_deliveries([(t, t - r) for t, r in samples], (0.5, 2.0))
        assert t1 == tuple(samples)
        assert [t for t, _ in t1] == [t for t, _ in t2]
        assert [a for _, a in t1] == pytest.approx([a for _, a in t2], abs=1e-15)

    def test_rtt_breakpoints_are_the_samples_exactly(self):
        # 1000.1 - (1000.1 - 0.0123) is 0.012299999999981992 in floating point
        samples = [(1000.0, 0.0125), (1000.1, 0.0123), (1000.3, 0.0121)]
        trace = age_trace_from_rtt_samples(samples, (1000.05, 1000.3))
        assert trace[1:] == ((1000.1, 0.0123), (1000.3, 0.0121))
        assert trace[0] == (1000.05, 0.0125 + (1000.05 - 1000.0))


class TestTimeAverageAge:
    def test_matches_midpoint_riemann_randomized(self):
        rng = random.Random(3)
        step = 1e-5
        for _ in range(25):
            n = rng.randint(1, 15)
            recv = sorted({round(rng.uniform(0.05, 0.95), 5) for _ in range(n)})
            log = [(r, r - round(rng.uniform(0.001, 0.04), 5)) for r in recv]
            horizon = (round(log[0][0], 5), 1.0)
            trace = age_trace_from_deliveries(log, horizon)
            exact = time_average_age(trace, horizon)
            cells = round((horizon[1] - horizon[0]) / step)
            grid = horizon[0] + (np.arange(cells) + 0.5) * step
            rtimes = np.array([r for r, _ in log])
            gens = np.array([g for _, g in log])
            idx = np.searchsorted(rtimes, grid, side="right") - 1
            ages = grid - gens[np.clip(idx, 0, None)]
            brute = float(ages.mean())
            assert exact == pytest.approx(brute, rel=1e-6)

    def test_age_never_below_delay(self):
        rng = random.Random(9)
        for _ in range(20):
            recv = sorted({round(rng.uniform(0.1, 0.9), 4) for _ in range(10)})
            log = [(r, r - rng.uniform(0.01, 0.1)) for r in recv]
            horizon = (log[0][0], 1.0)
            trace = age_trace_from_deliveries(log, horizon)
            avg_age = time_average_age(trace, horizon)
            avg_delay = sum(r - g for r, g in log) / len(log)
            assert avg_age >= avg_delay

    def test_constant_delay_shift(self):
        log = [(0.2, 0.15), (0.5, 0.42), (0.9, 0.85)]
        horizon = (0.2, 1.2)
        base = time_average_age(age_trace_from_deliveries(log, horizon), horizon)
        c = 0.05
        shifted = [(r, g - c) for r, g in log]
        up = time_average_age(age_trace_from_deliveries(shifted, horizon), horizon)
        assert up - base == pytest.approx(c)

    def test_empty_horizon_rejected(self):
        with pytest.raises(ValueError):
            time_average_age(((0.0, 0.0),), (1.0, 1.0))


class TestJain:
    def test_equal_values(self):
        assert jain_fairness([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_nonzero(self):
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_scale_invariant(self):
        values = [0.5, 1.5, 2.0, 4.0]
        assert jain_fairness([7 * v for v in values]) == pytest.approx(jain_fairness(values))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([0.0, 0.0])
        with pytest.raises(ValueError):
            jain_fairness([])


class TestStepAverage:
    def test_basic_integral(self):
        steps = [(0.0, 1), (0.4, 2)]
        assert step_average(steps, 0.0, 1.0) == pytest.approx(1.6)

    def test_value_at_horizon_start(self):
        steps = [(0.0, 5), (2.0, 1)]
        assert step_average(steps, 1.0, 3.0) == pytest.approx(3.0)


class TestSummarize:
    def test_throughput_arithmetic(self):
        # 100 deliveries of 1024-byte payloads in one second
        log = [(0.01 * (k + 1), k, 0.01 * k) for k in range(100)]
        stats = summarize(log, (0.0, 1.0), payload_bytes=1024)
        assert stats.throughput == pytest.approx(819200.0)
        assert stats.delivered_count == 100
        assert stats.loss_fraction == pytest.approx(0.0)
        assert stats.avg_inter_delivery == pytest.approx(0.01)

    def test_gaps_in_sequence_count_as_loss(self):
        log = [(0.1, 0, 0.0), (0.2, 1, 0.1), (0.4, 3, 0.3)]
        stats = summarize(log, (0.0, 1.0), payload_bytes=100)
        assert stats.loss_fraction == pytest.approx(1 - 3 / 4)

    def test_empty_horizon_flags_no_deliveries(self):
        stats = summarize([(5.0, 0, 4.9)], (0.0, 1.0), payload_bytes=100)
        assert stats.delivered_count == 0
        assert math.isnan(stats.avg_age)

    def test_deliveries_all_before_the_horizon_give_the_age_from_the_log(self):
        log = [(0.2, 0, 0.1), (0.5, 1, 0.4)]
        stats = summarize(log, (1.0, 2.0), payload_bytes=100, run_start=0.0)
        # the age continues from the last delivery: 0.6 at t = 1, 1.6 at t = 2
        assert stats.avg_age == pytest.approx(1.1)
        assert stats.delivered_count == 0 and stats.throughput == 0.0
        assert math.isnan(stats.avg_delay)

    def test_empty_log_with_run_start_is_the_ramp_from_it(self):
        stats = summarize([], (1.0, 3.0), payload_bytes=100, run_start=0.5)
        assert stats.avg_age == pytest.approx(1.5)  # t - 0.5 averaged over [1, 3]
        assert stats.delivered_count == 0

    def test_empty_log_without_run_start_has_no_age(self):
        assert math.isnan(summarize([], (1.0, 3.0), payload_bytes=100).avg_age)

    def test_run_start_anchors_age_when_first_updates_were_lost(self):
        rows = [(1.25, 1, 1.0), (2.25, 2, 2.0)]
        with pytest.raises(ValueError):
            summarize(rows, (0.75, 3.0), payload_bytes=100)
        stats = summarize(rows, (0.75, 3.0), payload_bytes=100, run_start=0.0)
        # ramps 0.75 -> 1.25, 0.25 -> 1.25 and 0.25 -> 1.0
        assert stats.avg_age == pytest.approx((0.5 + 0.75 + 0.46875) / 2.25)
        assert stats.delivered_count == 2


def test_default_horizon_trims_warmup():
    assert default_horizon(0.0, 10.0) == (1.0, 10.0)
    assert default_horizon(2.0, 12.0, warmup_frac=0.25) == (4.5, 12.0)
