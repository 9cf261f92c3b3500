"""Offline evaluation: age, delay, throughput, fairness.

The central object is the age sawtooth: instantaneous age grows at slope
one and drops to (receive_time - gen_ts) whenever a fresher update lands.
In simulation the drop value is the one-way delivery delay; over real
sockets only the source clock is trusted, so the round-trip time stands in
for it and the same sawtooth is built from the source's ACK log. A trace
is a tuple of time-ordered (time, age) points: the age drops to `age` at
`time` and grows at slope one until the next point. The estimation
module's EpochWindow integrates it, and every step function, over a
horizon.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .estimation import EpochWindow

DEFAULT_WARMUP_FRAC = 0.10


def default_horizon(t_begin: float, t_end: float, warmup_frac: float = DEFAULT_WARMUP_FRAC):
    """Trim the leading warm-up fraction of a run."""
    return (t_begin + warmup_frac * (t_end - t_begin), t_end)


def _split_at_horizon(log, horizon):
    """The last entry at or before the horizon start (or None) and the entries inside it."""
    if not log:
        raise ValueError("empty log")
    t0, t1 = horizon
    if t1 <= t0:
        raise ValueError("empty horizon")
    before, inside = None, []
    for entry in log:
        if entry[0] <= t0:
            before = entry
        elif entry[0] <= t1:
            inside.append(entry)
        else:
            break
    return before, inside


def age_trace_from_deliveries(log, horizon, run_start=None) -> tuple:
    """Sawtooth from monitor deliveries: resets to r - g at each receive.

    log: time-ordered (receive_time, gen_ts_seconds) with strictly
    increasing gen_ts (the monitor already filtered staleness). The age at
    the horizon start continues the trajectory of the freshest update
    delivered before it; before any delivery it ramps from the first
    delivered update's generation, or from `run_start` if that is after t0.
    """
    before, inside = _split_at_horizon(log, horizon)
    t0 = horizon[0]
    # with no delivery before t0, ramp from the first generation instant
    freshest_gen = (before or log[0])[1]
    anchor_age = t0 - freshest_gen
    if anchor_age < 0:
        if run_start is None:
            raise ValueError("horizon starts before the first update was generated")
        anchor_age = t0 - run_start
    return ((t0, anchor_age), *((r, r - g) for r, g in inside))


def age_trace_from_rtt_samples(ack_log, horizon) -> tuple:
    """Sawtooth from the source's ACK log: resets to the RTT sample.

    ack_log: time-ordered (ack_time, rtt_seconds). This is the round-trip
    approximation of age used when only the source clock is available.
    The age at the horizon start continues from the last ACK before it.
    """
    before, inside = _split_at_horizon(ack_log, horizon)
    t0 = horizon[0]
    ack_time, rtt = before or ack_log[0]
    anchor_age = rtt + (t0 - ack_time)
    if anchor_age < 0:
        raise ValueError("horizon starts before the first update was generated")
    return ((t0, anchor_age), *inside)


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


def step_average(steps, t0: float, t1: float) -> float:
    """Time-weighted mean of a step function given as time-ordered (time, value) pairs.

    The value at t0 is the last step at or before t0 (0 if none).
    """
    if t1 <= t0:
        raise ValueError("empty horizon")
    k = bisect_right(steps, t0, key=itemgetter(0))
    window = EpochWindow(t0, (t0, 0.0), steps[k - 1][1] if k else 0)
    step = window.step
    for t, value in steps[k:]:
        if t >= t1:
            break
        step(t, value)
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


@dataclass(frozen=True)
class SummaryStats:
    avg_age: float  # seconds; nan when no age is known (see summarize)
    avg_delay: float
    throughput: float  # payload bits per second
    avg_inter_delivery: float
    delivered_count: int
    loss_fraction: float


def summarize(monitor_log, horizon, payload_bytes: int, run_start=None) -> SummaryStats:
    """Run-level statistics over one source's deliveries within a horizon.

    monitor_log: (receive_time, seq, gen_ts_seconds) rows. Updates sent are
    estimated from the seq span, so superseded and lost ones count as losses.
    The age comes from the log whenever a delivery precedes the horizon end;
    with an empty log it is the ramp from `run_start`, and otherwise nan.
    """
    t0, t1 = horizon
    rows = [row for row in monitor_log if t0 <= row[0] <= t1]
    if monitor_log and monitor_log[0][0] <= t1:
        # the full log, so the pre-horizon trajectory anchors the trace
        trace = age_trace_from_deliveries([(r, g) for r, _, g in monitor_log], horizon,
                                          run_start)
        avg_age = time_average_age(trace, horizon)
    elif not monitor_log and run_start is not None:
        avg_age = (t0 + t1) / 2 - run_start
    else:
        avg_age = math.nan
    if not rows:
        return SummaryStats(
            avg_age=avg_age, avg_delay=math.nan, throughput=0.0,
            avg_inter_delivery=math.nan, delivered_count=0, loss_fraction=math.nan,
        )
    delivered = len(rows)
    delays = [r - g for r, _, g in rows]
    avg_delay = sum(delays) / delivered
    throughput = delivered * payload_bytes * 8 / (t1 - t0)
    if delivered > 1:
        avg_inter_delivery = (rows[-1][0] - rows[0][0]) / (delivered - 1)
    else:
        avg_inter_delivery = math.nan
    sent_count = rows[-1][1] - rows[0][1] + 1  # seq span within the horizon
    loss_fraction = 1.0 - delivered / sent_count if sent_count else math.nan
    return SummaryStats(
        avg_age=avg_age,
        avg_delay=avg_delay,
        throughput=throughput,
        avg_inter_delivery=avg_inter_delivery,
        delivered_count=delivered,
        loss_fraction=loss_fraction,
    )
