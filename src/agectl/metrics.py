"""Offline evaluation: age, delay, throughput, fairness.

The central object is the age sawtooth: instantaneous age grows at slope
one and drops to (receive_time - gen_ts) whenever a fresher update lands.
In simulation the drop value is the one-way delivery delay; over real
sockets only the source clock is trusted, so the round-trip time stands in
for it and the same sawtooth is built from the source's ACK log. Either
way a log reads as two columns, the times and the ages the sawtooth drops
to at them, and `age_trace` builds the sawtooth from them. A trace is a
tuple of time-ordered (time, age) points: the age drops to `age` at `time`
and grows at slope one until the next point. The estimation module's
EpochWindow integrates it, and every step function, over a horizon.

Each endpoint log is reduced over a horizon in two parts: `summarize` gives
its count, mean sample, mean gap, throughput and seq-span loss, whichever
kind of log it is, and `average_age` its time-average age.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .estimation import EpochWindow

DEFAULT_WARMUP_FRAC = 0.10


def default_horizon(t_begin: float, t_end: float, warmup_frac: float = DEFAULT_WARMUP_FRAC):
    """Trim the leading warm-up fraction of a run."""
    return (t_begin + warmup_frac * (t_end - t_begin), t_end)


def one_way_delays(receive_times, gen_ts_ns) -> list:
    """The delays in seconds of the deliveries in a monitor log's columns."""
    return [r - g / 1e9 for r, g in zip(receive_times, gen_ts_ns)]


def age_trace(times, ages, horizon, run_start=None) -> tuple:
    """The sawtooth over `horizon`: it drops to ages[i] at times[i].

    `times` never decreases. The trace starts at the horizon start t0 with
    the age of the last drop at or before t0 grown to t0, or, before any
    drop, of the first drop taken back to t0. If that is negative, no update
    had been generated by t0: the age then ramps from `run_start`, and
    without one this raises ValueError. The drops after t0 and up to the
    horizon end follow, exactly as logged.
    """
    if not times:
        raise ValueError("empty log")
    t0, t1 = horizon
    if t1 <= t0:
        raise ValueError("empty horizon")
    k = bisect_right(times, t0)
    j = bisect_right(times, t1, k)
    i = k - 1 if k else 0
    anchor_age = ages[i] + (t0 - times[i])
    if anchor_age < 0:
        if run_start is None:
            raise ValueError("horizon starts before the first update was generated")
        anchor_age = t0 - run_start
    return ((t0, anchor_age), *zip(times[k:j], ages[k:j]))


def time_average_age(trace, horizon) -> float:
    """Exact trapezoid integral of the sawtooth over the horizon, divided by its length.

    The age at the horizon start continues from the last point at or before it.
    """
    t0, t1 = horizon
    if t1 <= t0:
        raise ValueError("empty horizon")
    k = bisect_right(trace, t0, key=itemgetter(0))
    if not k:
        raise ValueError("trace does not cover the horizon start")
    window = EpochWindow(t0, trace[k - 1])
    reset = window.reset
    for t, age in trace[k:]:
        if t >= t1:
            break
        reset(t, age)
    return window.age_average(t1)


def step_average(times, levels, t0: float, t1: float) -> float:
    """Time-weighted mean over [t0, t1] of the step function that becomes levels[i] at times[i].

    The level at t0 is the last one at or before t0 (0 if none).
    """
    if t1 <= t0:
        raise ValueError("empty horizon")
    k = bisect_right(times, t0)
    j = bisect_left(times, t1, k)
    window = EpochWindow(t0, (t0, 0.0), levels[k - 1] if k else 0)
    step = window.step
    for t, level in zip(times[k:j], levels[k:j]):
        step(t, level)
    return window.backlog_average(t1)


def jain_fairness(values) -> float:
    """(sum x)^2 / (n * sum x^2); 1.0 means perfect equality."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if any(v < 0 for v in values):
        raise ValueError("values must be non-negative")
    sq = sum(v * v for v in values)
    if sq == 0:
        raise ValueError("all values are zero")
    s = sum(values)
    return (s * s) / (len(values) * sq)


def average_age(times, ages, horizon, run_start=None) -> float:
    """The time-average age over `horizon` of the sawtooth that drops to ages[i] at times[i].

    The age comes from the log whenever a drop precedes the horizon end; with
    an empty log it is the ramp from `run_start`, and otherwise nan.
    """
    t0, t1 = horizon
    if times and times[0] <= t1:
        # the full log, so the pre-horizon trajectory anchors the trace
        return time_average_age(age_trace(times, ages, horizon, run_start), horizon)
    if not times and run_start is not None:
        return (t0 + t1) / 2 - run_start
    return math.nan


@dataclass(frozen=True)
class SummaryStats:
    """One endpoint log over a horizon; nan where there are too few entries.

    For a monitor log an entry is a delivery and its sample the one-way
    delay. For an ACK log an entry is an ACK and its sample the RTT, so
    avg_delay is the mean RTT and avg_inter_delivery the mean inter-ACK gap.
    """

    avg_delay: float  # mean sample, seconds
    throughput: float  # payload bits per second
    avg_inter_delivery: float
    delivered_count: int
    loss_fraction: float  # of the seq span inside the horizon


def summarize(times, seqs, samples, horizon, payload_bytes: int) -> SummaryStats:
    """One endpoint log within a horizon: count, mean sample and gap, throughput and loss.

    times, seqs, samples: a log's columns, with each entry's sample in
    seconds. Entries sent are estimated from the seq span, so superseded and
    lost ones count as losses.
    """
    t0, t1 = horizon
    lo, hi = bisect_left(times, t0), bisect_right(times, t1)
    delivered = hi - lo
    if not delivered:
        return SummaryStats(avg_delay=math.nan, throughput=0.0, avg_inter_delivery=math.nan,
                            delivered_count=0, loss_fraction=math.nan)
    avg_delay = sum(samples[lo:hi]) / delivered
    throughput = delivered * payload_bytes * 8 / (t1 - t0)
    avg_gap = (times[hi - 1] - times[lo]) / (delivered - 1) if delivered > 1 else math.nan
    sent_count = seqs[hi - 1] - seqs[lo] + 1  # seq span within the horizon
    loss_fraction = 1.0 - delivered / sent_count if sent_count else math.nan
    return SummaryStats(avg_delay=avg_delay, throughput=throughput, avg_inter_delivery=avg_gap,
                        delivered_count=delivered, loss_fraction=loss_fraction)
