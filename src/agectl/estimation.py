"""Network estimates the rate controller feeds on.

Two smoothed quantities are kept per session: the round-trip time of
acknowledged updates and the gap between consecutive ACK arrivals (a proxy
for the inter-delivery time at the monitor). Their smoothing weight is a
constant of the algorithm, fixed at 0.875 on the previous estimate. Per
control epoch, an EpochWindow that the source feeds at each send and each
ACK gives the time-average age and time-average backlog over that epoch,
from running sums: control never reads the source's logs. The same window
integrates the offline averages in `metrics`.
"""

DEFAULT_SMOOTHING = 0.875  # retention weight on the previous estimate


def ewma_update(prev: float, sample: float, alpha: float) -> float:
    """One smoothing step: alpha * prev + (1 - alpha) * sample.

    A first sample (prev is None) initializes the estimate to the sample.
    """
    if sample < 0:
        raise ValueError(f"negative sample {sample}")
    if prev is None:
        return sample
    return alpha * prev + (1.0 - alpha) * sample


class NetworkEstimator:
    """Smoothed round-trip time and smoothed inter-ACK gap.

    Single-writer: only the session's event loop calls record_ack.
    """

    def __init__(self):
        self.rtt_bar = None
        self.z_bar = None
        self.last_ack_time = None

    @property
    def ready(self) -> bool:
        """True once both estimates are positive, so a rate can be derived from them.

        The gap estimate stays 0 while every ACK so far came at one instant,
        as ACKs drained in one pass of the live loop do.
        """
        return bool(self.rtt_bar) and bool(self.z_bar)

    def record_ack(self, ack_time: float, gen_ts: float) -> None:
        """Fold one in-sequence ACK into the estimates.

        The round-trip sample is ack_time - gen_ts (same clock), and a
        negative one raises ValueError; the gap sample is the time since the
        previous ACK, available from the second ACK on.
        """
        self.rtt_bar = ewma_update(self.rtt_bar, ack_time - gen_ts, DEFAULT_SMOOTHING)
        if self.last_ack_time is not None:
            self.z_bar = ewma_update(self.z_bar, ack_time - self.last_ack_time, DEFAULT_SMOOTHING)
        self.last_ack_time = ack_time


class EpochWindow:
    """Running areas of the age sawtooth and a step function over one epoch.

    Fed in time order: `reset(time, age)` where the age drops to `age`,
    after which it grows at slope one, and `step(time, level)` where the
    level (the acp+ source's backlog) changes. Each event adds one exact
    piece to its area, so the averages are exact trapezoid and step
    integrals. This is the only age integrator: the acp+ source keeps one
    window per control epoch, and `metrics` drives one over a horizon. An
    event at the close instant adds a zero piece to the closing epoch and
    carries into the next.
    """

    def __init__(self, start: float, last_reset: tuple, level=0):
        """Open at `start`, on the sawtooth's last reset (time, age) at or before it."""
        self.last_reset, self.level = last_reset, level
        self.roll(start)

    def roll(self, start: float) -> None:
        """Open the next epoch at `start`, carrying the last reset and the level."""
        self.start = self.level_time = start
        self.age_area = self.backlog_area = 0.0
        self.acks = 0
        t, age = self.last_reset
        self.since = start, age + (start - t)  # (time, age) where the age integral stands

    def reset(self, time: float, age: float) -> None:
        """The age drops to `age` at `time` (an in-sequence ACK, or a delivery)."""
        t, a = self.since
        d = time - t
        self.age_area += a * d + 0.5 * d * d
        self.since = self.last_reset = time, age
        self.acks += 1

    def step(self, time: float, level) -> None:
        """The level becomes `level` at `time`."""
        self.backlog_area += self.level * (time - self.level_time)
        self.level_time, self.level = time, level

    def age_average(self, end: float) -> float:
        """Time-average of the age sawtooth over [start, end]."""
        t, age = self.since
        d = end - t  # the last piece is one term like every other: split, it rounds differently
        return (self.age_area + (age * d + 0.5 * d * d)) / (end - self.start)

    def backlog_average(self, end: float) -> float:
        """Time-weighted mean of the level over [start, end]."""
        return (self.backlog_area + self.level * (end - self.level_time)) / (end - self.start)
