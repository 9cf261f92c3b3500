import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agectl.metrics import (
    age_trace,
    average_age,
    default_horizon,
    jain_fairness,
    step_average,
    summarize,
    time_average_age,
)


def delivery_trace(log, horizon, run_start=None):
    """age_trace of (receive_time, gen_ts) pairs in seconds: each drop is r - g."""
    return age_trace([r for r, _ in log], [r - g for r, g in log], horizon, run_start)


def age_at(trace, t):
    """The sawtooth's age at t: that of its last point at or before t, plus the time since."""
    ref_t, ref_a = [p for p in trace if p[0] <= t][-1]
    return ref_a + (t - ref_t)


class TestAgeTrace:
    def test_three_delivery_sawtooth(self):
        # deliveries at 0.5, 1.5, 2.5 of updates generated at 0, 1, 2:
        # every reset lands at age 0.5 and each ramp peaks at 1.5
        log = [(0.5, 0.0), (1.5, 1.0), (2.5, 2.0)]
        trace = delivery_trace(log, (0.5, 2.5))
        assert trace[0] == (0.5, 0.5)
        for r, g in log:
            assert age_at(trace, r) == pytest.approx(r - g)
        assert age_at(trace, 1.5 - 1e-12) == pytest.approx(1.5, abs=1e-9)
        assert time_average_age(trace, (0.5, 2.5)) == pytest.approx(1.0)

    def test_zero_delay_periodic(self):
        tau = 0.25
        log = [(k * tau, k * tau) for k in range(1, 41)]
        trace = delivery_trace(log, (tau, 10 * tau))
        assert time_average_age(trace, (tau, 10 * tau)) == pytest.approx(tau / 2)

    def test_single_delivery_ramps_to_horizon(self):
        trace = delivery_trace([(1.0, 0.8)], (1.0, 3.0))
        # age 0.2 at the delivery, ramping to 2.2: mean 1.2
        assert time_average_age(trace, (1.0, 3.0)) == pytest.approx(1.2)

    def test_near_constant_age(self):
        # dense deliveries with identical delay approximate a flat trace
        c, gap = 0.5, 1e-4
        log = [(k * gap, k * gap - c) for k in range(1, 20001)]
        trace = delivery_trace(log, (gap, 2.0))
        assert time_average_age(trace, (gap, 2.0)) == pytest.approx(c + gap / 2, rel=1e-3)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            delivery_trace([], (0, 1))

    def test_horizon_anchoring_uses_last_prior_delivery(self):
        log = [(0.5, 0.4), (3.0, 2.9)]
        trace = delivery_trace(log, (1.0, 4.0))
        # at t0=1.0 the freshest update is the 0.5 delivery: age 1.0 - 0.4
        assert age_at(trace, 1.0) == pytest.approx(0.6)

    def test_lost_first_updates_anchor_at_run_start(self):
        # every update generated before the horizon start 0.75 was lost; the
        # first delivered one was generated at 1.0
        log = [(1.25, 1.0), (2.25, 2.0)]
        with pytest.raises(ValueError, match="horizon starts before"):
            delivery_trace(log, (0.75, 3.0))
        trace = delivery_trace(log, (0.75, 3.0), run_start=0.0)
        assert trace == ((0.75, 0.75), (1.25, 0.25), (2.25, 0.25))

    def test_run_start_unused_when_first_update_precedes_horizon(self):
        log = [(1.25, 0.5), (2.25, 2.0)]
        assert (delivery_trace(log, (0.75, 3.0), run_start=0.0)
                == delivery_trace(log, (0.75, 3.0)))


def walked_trace(times, ages, horizon, run_start=None):
    """age_trace as a walk over every row: the last at or before t0 anchors, the rest follow."""
    t0, t1 = horizon
    before, inside = None, []
    for t, age in zip(times, ages):
        if t <= t0:
            before = t, age
        elif t <= t1:
            inside.append((t, age))
        else:
            break
    t, age = before or (times[0], ages[0])
    anchor_age = age + (t0 - t)
    if anchor_age < 0:
        if run_start is None:
            raise ValueError("horizon starts before the first update was generated")
        anchor_age = t0 - run_start
    return ((t0, anchor_age), *inside)


QUARTERS = st.integers(-4, 48).map(lambda k: k / 4)  # exact, so resets often fall on t0 or t1


@st.composite
def logs_and_horizons(draw):
    """(times, ages, horizon, run_start): a log whose times never fall, and a horizon."""
    times = sorted(draw(st.lists(QUARTERS, min_size=1, max_size=10)))
    ages = draw(st.lists(QUARTERS.filter(lambda a: a >= 0) | st.floats(0, 3),
                         min_size=len(times), max_size=len(times)))
    t0 = draw(QUARTERS)
    t1 = t0 + draw(st.integers(1, 24)) / 4
    run_start = draw(st.none() | st.floats(t0 - 3, t0))
    return times, ages, (t0, t1), run_start


@settings(max_examples=400, derandomize=True)
@given(logs_and_horizons())
@example(([0.5, 1.0, 2.0], [0.1, 0.2, 0.3], (1.0, 3.0), None))  # a reset exactly at t0
@example(([0.5, 1.5, 3.0], [0.1, 0.2, 0.3], (1.0, 3.0), None))  # a reset exactly at t1
@example(([2.0, 3.0], [0.5, 0.5], (1.0, 4.0), None))  # the horizon starts before generation
@example(([2.0, 3.0], [0.5, 0.5], (1.0, 4.0), 0.0))  # ... and ramps from the run start
@example(([2.0, 3.0], [1.5, 0.5], (1.0, 4.0), None))  # ... before the first reset only
@example(([0.5, 1.0], [0.1, 0.2], (2.0, 3.0), None))  # the log ends before t0
# the resets are the samples: 1000.1 - (1000.1 - 0.0123) is not 0.0123 in floating point
@example(([1000.0, 1000.1, 1000.3], [0.0125, 0.0123, 0.0121], (1000.05, 1000.3), None))
def test_age_trace_matches_the_walk_over_every_row(case):
    times, ages, horizon, run_start = case
    t0, t1 = horizon
    try:
        expected = walked_trace(times, ages, horizon, run_start)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            age_trace(times, ages, horizon, run_start)
        return
    trace = age_trace(times, ages, horizon, run_start)
    assert trace == expected
    # a reset at t0 anchors, one at t1 ends the trace, and each is the logged sample exactly
    assert trace[1:] == tuple((t, a) for t, a in zip(times, ages) if t0 < t <= t1)
    # the reset at t1 adds no area
    average = time_average_age(trace, horizon)
    assert average == time_average_age(trace[:1] + tuple(p for p in trace[1:] if p[0] < t1),
                                        horizon)


class TestTimeAverageAge:
    def test_matches_midpoint_riemann_randomized(self):
        rng = random.Random(3)
        step = 1e-5
        for _ in range(25):
            n = rng.randint(1, 15)
            recv = sorted({round(rng.uniform(0.05, 0.95), 5) for _ in range(n)})
            log = [(r, r - round(rng.uniform(0.001, 0.04), 5)) for r in recv]
            horizon = (round(log[0][0], 5), 1.0)
            trace = delivery_trace(log, horizon)
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
            trace = delivery_trace(log, horizon)
            avg_age = time_average_age(trace, horizon)
            avg_delay = sum(r - g for r, g in log) / len(log)
            assert avg_age >= avg_delay

    def test_constant_delay_shift(self):
        log = [(0.2, 0.15), (0.5, 0.42), (0.9, 0.85)]
        horizon = (0.2, 1.2)
        base = time_average_age(delivery_trace(log, horizon), horizon)
        c = 0.05
        shifted = [(r, g - c) for r, g in log]
        up = time_average_age(delivery_trace(shifted, horizon), horizon)
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
        assert step_average([0.0, 0.4], [1, 2], 0.0, 1.0) == pytest.approx(1.6)

    def test_value_at_horizon_start(self):
        assert step_average([0.0, 2.0], [5, 1], 1.0, 3.0) == pytest.approx(3.0)

    def test_steps_at_the_horizon_edges(self):
        # the step at t0 sets the level, the one at t1 adds nothing
        assert step_average([0.0, 1.0, 3.0], [5, 1, 9], 1.0, 3.0) == 1.0


def summarize_rows(rows, horizon, **kw):
    """summarize over (receive_time, seq, gen_ts) rows in seconds."""
    times, seqs = [r for r, _, _ in rows], [seq for _, seq, _ in rows]
    return summarize(times, seqs, [r - g for r, _, g in rows], horizon, **kw)


def average_age_rows(rows, horizon, run_start=None):
    """average_age over (receive_time, seq, gen_ts) rows in seconds."""
    return average_age([r for r, _, _ in rows], [r - g for r, _, g in rows], horizon, run_start)


class TestSummarize:
    def test_throughput_arithmetic(self):
        # 100 deliveries of 1024-byte payloads in one second
        log = [(0.01 * (k + 1), k, 0.01 * k) for k in range(100)]
        stats = summarize_rows(log, (0.0, 1.0), payload_bytes=1024)
        assert stats.throughput == pytest.approx(819200.0)
        assert stats.delivered_count == 100
        assert stats.loss_fraction == pytest.approx(0.0)
        assert stats.avg_inter_delivery == pytest.approx(0.01)

    def test_gaps_in_sequence_count_as_loss(self):
        log = [(0.1, 0, 0.0), (0.2, 1, 0.1), (0.4, 3, 0.3)]
        stats = summarize_rows(log, (0.0, 1.0), payload_bytes=100)
        assert stats.loss_fraction == pytest.approx(1 - 3 / 4)

    def test_an_ack_log_gives_its_mean_rtt_and_inter_ack_gap(self):
        # (ack_time, seq, rtt): the ACK at 0.5 s precedes the horizon
        times, seqs, rtts = [0.5, 1.0, 1.5, 2.5], [0, 1, 3, 4], [0.2, 0.1, 0.3, 0.2]
        stats = summarize(times, seqs, rtts, (1.0, 3.0), payload_bytes=100)
        assert stats.delivered_count == 3
        assert stats.avg_delay == pytest.approx(0.2)
        assert stats.avg_inter_delivery == pytest.approx(0.75)


class TestAverageAge:
    # each case pairs the horizon's age with summarize's figures of the same rows
    def test_empty_horizon_flags_no_deliveries(self):
        log = [(5.0, 0, 4.9)]
        assert summarize_rows(log, (0.0, 1.0), payload_bytes=100).delivered_count == 0
        assert math.isnan(average_age_rows(log, (0.0, 1.0)))

    def test_deliveries_all_before_the_horizon_give_the_age_from_the_log(self):
        log = [(0.2, 0, 0.1), (0.5, 1, 0.4)]
        stats = summarize_rows(log, (1.0, 2.0), payload_bytes=100)
        # the age continues from the last delivery: 0.6 at t = 1, 1.6 at t = 2
        assert average_age_rows(log, (1.0, 2.0), run_start=0.0) == pytest.approx(1.1)
        assert stats.delivered_count == 0 and stats.throughput == 0.0
        assert math.isnan(stats.avg_delay)

    def test_empty_log_with_run_start_is_the_ramp_from_it(self):
        # t - 0.5 averaged over [1, 3]
        assert average_age_rows([], (1.0, 3.0), run_start=0.5) == pytest.approx(1.5)
        assert summarize_rows([], (1.0, 3.0), payload_bytes=100).delivered_count == 0

    def test_empty_log_without_run_start_has_no_age(self):
        assert math.isnan(average_age_rows([], (1.0, 3.0)))

    def test_run_start_anchors_age_when_first_updates_were_lost(self):
        rows = [(1.25, 1, 1.0), (2.25, 2, 2.0)]
        with pytest.raises(ValueError):
            average_age_rows(rows, (0.75, 3.0))
        # ramps 0.75 -> 1.25, 0.25 -> 1.25 and 0.25 -> 1.0
        assert average_age_rows(rows, (0.75, 3.0), run_start=0.0) == pytest.approx(
            (0.5 + 0.75 + 0.46875) / 2.25)
        assert summarize_rows(rows, (0.75, 3.0), payload_bytes=100).delivered_count == 2


def test_default_horizon_trims_warmup():
    assert default_horizon(0.0, 10.0) == (1.0, 10.0)
    assert default_horizon(2.0, 12.0, warmup_frac=0.25) == (4.5, 12.0)
