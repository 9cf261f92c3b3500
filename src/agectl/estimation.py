"""Network estimates the rate controller feeds on.

Two smoothed quantities are kept per session: the round-trip time of
acknowledged updates and the gap between consecutive ACK arrivals (a proxy
for the inter-delivery time at the monitor). Per control epoch, a window
accumulator turns the raw ACK/backlog events into the time-average age and
time-average backlog over that epoch.
"""

from dataclasses import dataclass, field

from .metrics import AgeTrace, step_average, time_average_age

DEFAULT_SMOOTHING = 0.875  # retention weight on the previous estimate


class NoSamples(Exception):
    """Raised when an epoch closed without a single ACK."""


class ClockAnomaly(ValueError):
    """An ACK appears to precede the generation of the update it covers."""


def ewma_update(prev: float, sample: float, alpha: float) -> float:
    """One smoothing step: alpha * prev + (1 - alpha) * sample.

    A first sample (prev is None) initializes the estimate to the sample.
    """
    if sample < 0:
        raise ValueError(f"negative sample {sample}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if prev is None:
        return sample
    return alpha * prev + (1.0 - alpha) * sample


class NetworkEstimator:
    """Smoothed round-trip time and smoothed inter-ACK gap.

    Single-writer: only the session's event loop calls record_ack.
    """

    def __init__(self, alpha: float = DEFAULT_SMOOTHING):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self.rtt_bar = None
        self.z_bar = None
        self.last_ack_time = None

    @property
    def ready(self) -> bool:
        """True once both estimates carry at least one sample."""
        return self.rtt_bar is not None and self.z_bar is not None

    def record_ack(self, ack_time: float, gen_ts: float) -> None:
        """Fold one in-sequence ACK into the estimates.

        The round-trip sample is ack_time - gen_ts (same clock); the gap
        sample is the time since the previous ACK, available from the
        second ACK on.
        """
        if ack_time < gen_ts:
            raise ClockAnomaly(f"ack at {ack_time} precedes generation {gen_ts}")
        self.rtt_bar = ewma_update(self.rtt_bar, ack_time - gen_ts, self.alpha)
        if self.last_ack_time is not None:
            self.z_bar = ewma_update(self.z_bar, ack_time - self.last_ack_time, self.alpha)
        self.last_ack_time = ack_time


@dataclass
class EpochWindow:
    """Event accumulator for one control epoch.

    The instantaneous age estimate resets to the ACK's round-trip sample at
    each ACK arrival and grows at slope one in between. `anchor_time` /
    `anchor_age` pin the trajectory carried in from before this window
    (at session start: zero age at the first send).
    """

    epoch_start: float
    anchor_time: float
    anchor_age: float
    backlog_at_start: int = 0
    ack_events: list = field(default_factory=list)  # (ack_time, rtt_sample)
    backlog_steps: list = field(default_factory=list)  # (time, backlog)

    def __post_init__(self):
        if not self.backlog_steps:
            self.backlog_steps.append((self.epoch_start, self.backlog_at_start))

    def add_ack(self, ack_time: float, rtt_sample: float) -> None:
        self.ack_events.append((ack_time, rtt_sample))

    def set_backlog(self, time: float, backlog: int) -> None:
        if backlog < 0:
            raise ValueError(f"negative backlog {backlog}")
        self.backlog_steps.append((time, backlog))

    def age_average(self, epoch_end: float) -> float:
        """Time-average of the age sawtooth over [epoch_start, epoch_end]."""
        if not self.ack_events:
            raise NoSamples("no ACKs in this epoch")
        start_age = self.anchor_age + (self.epoch_start - self.anchor_time)
        trace = AgeTrace(((self.epoch_start, start_age), *self.ack_events))
        return time_average_age(trace, (self.epoch_start, epoch_end))

    def backlog_average(self, epoch_end: float) -> float:
        """Time-weighted mean of the backlog step function over the epoch."""
        return step_average(self.backlog_steps, self.epoch_start, epoch_end)

    def roll(self, epoch_end: float) -> "EpochWindow":
        """Open the next window, carrying the sawtooth anchor and backlog level."""
        if self.ack_events:
            anchor_time, anchor_age = self.ack_events[-1]
        else:
            anchor_time, anchor_age = self.anchor_time, self.anchor_age
        return EpochWindow(
            epoch_start=epoch_end,
            anchor_time=anchor_time,
            anchor_age=anchor_age,
            backlog_at_start=self.backlog_steps[-1][1],
        )
