"""Network estimates the rate controller feeds on.

Two smoothed quantities are kept per session: the round-trip time of
acknowledged updates and the gap between consecutive ACK arrivals (a proxy
for the inter-delivery time at the monitor). Per control epoch, a window
on the source's ACK and backlog logs gives the time-average age and
time-average backlog over that epoch.
"""

from dataclasses import dataclass, field

from .metrics import AgeTrace, step_average, time_average_age

DEFAULT_SMOOTHING = 0.875  # retention weight on the previous estimate


class NoSamples(Exception):
    """Raised when an epoch closed without a single ACK."""


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
        self.rtt_bar = ewma_update(self.rtt_bar, ack_time - gen_ts, self.alpha)
        if self.last_ack_time is not None:
            self.z_bar = ewma_update(self.z_bar, ack_time - self.last_ack_time, self.alpha)
        self.last_ack_time = ack_time


@dataclass
class EpochWindow:
    """One control epoch, read from the source's own logs.

    The epoch's ACKs are `ack_log[first_ack:]`, (ack_time, seq, rtt) rows.
    Its backlog steps are `backlog_trace[first_step:]`, (time, backlog) rows
    from one at or before `epoch_start` on; the backlog is 0 before the
    first row. Either log may be a list or an endpoints.RowLog: the window
    reads only len, int indexing and `[i:]` slices. The instantaneous age
    estimate resets to the ACK's round-trip sample at each ACK arrival and
    grows at slope one in between. `anchor_time` / `anchor_age` pin the
    trajectory carried in from before this window (at session start: zero
    age at the first send).
    """

    ack_log: list = field(repr=False)
    backlog_trace: list = field(repr=False)
    epoch_start: float
    anchor_time: float
    anchor_age: float
    first_ack: int = 0
    first_step: int = 0

    def age_average(self, epoch_end: float) -> float:
        """Time-average of the age sawtooth over [epoch_start, epoch_end]."""
        acks = self.ack_log
        if len(acks) <= self.first_ack:
            raise NoSamples("no ACKs in this epoch")
        start_age = self.anchor_age + (self.epoch_start - self.anchor_time)
        resets = ((t, rtt) for t, _, rtt in acks[self.first_ack:])
        trace = AgeTrace(((self.epoch_start, start_age), *resets))
        return time_average_age(trace, (self.epoch_start, epoch_end))

    def backlog_average(self, epoch_end: float) -> float:
        """Time-weighted mean of the backlog step function over the epoch."""
        return step_average(self.backlog_trace[self.first_step:], self.epoch_start, epoch_end)

    def roll(self, epoch_end: float) -> "EpochWindow":
        """Open the next window at epoch_end, carrying the sawtooth anchor."""
        acks = self.ack_log
        if len(acks) > self.first_ack:
            anchor_time, _, anchor_age = acks[-1]
        else:
            anchor_time, anchor_age = self.anchor_time, self.anchor_age
        return EpochWindow(acks, self.backlog_trace, epoch_end, anchor_time, anchor_age,
                           first_ack=len(acks), first_step=max(len(self.backlog_trace) - 1, 0))
