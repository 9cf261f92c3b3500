"""Network estimates the rate controller feeds on.

Two smoothed quantities are kept per session: the round-trip time of
acknowledged updates and the gap between consecutive ACK arrivals (a proxy
for the inter-delivery time at the monitor). Per control epoch, an
EpochWindow that the source feeds at each send and each ACK gives the
time-average age and time-average backlog over that epoch, from running
sums: control never reads the source's logs.
"""

DEFAULT_SMOOTHING = 0.875  # retention weight on the previous estimate


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


class EpochWindow:
    """Running sums for one control epoch, fed by the acp+ source.

    The source calls `ack(time, rtt, backlog)` per in-sequence ACK and
    `step(time, backlog)` per send, in time order. The age resets to the
    RTT at each ACK and grows at slope one in between. The window keeps the
    epoch's age and backlog areas, the last reset, the backlog level and an
    ACK count. It adds one piece per event, as `metrics.time_average_age`
    and `metrics.step_average` do, so its averages equal theirs bit for
    bit: an event at the close instant adds a zero piece to the closing
    epoch and carries into the next. A new window starts at zero age and
    zero backlog.
    """

    def __init__(self, start: float):
        self.reset_time, self.reset_age, self.level = start, 0.0, 0
        self.roll(start)

    def roll(self, start: float) -> None:
        """Open the next epoch at `start`, carrying the last reset and the backlog level."""
        self.start = self.level_time = start
        self.age_area = self.backlog_area = 0.0
        self.acks = 0

    def _age_from(self):
        """(time, age) where the age integral stands: the epoch start, or its last reset."""
        if self.acks:
            return self.reset_time, self.reset_age
        return self.start, self.reset_age + (self.start - self.reset_time)

    def ack(self, time: float, rtt: float, backlog: int) -> None:
        """An in-sequence ACK at `time`: the age resets to `rtt` and the backlog steps."""
        t, age = self._age_from()
        d = time - t
        self.age_area += age * d + 0.5 * d * d
        self.reset_time, self.reset_age = time, rtt
        self.acks += 1
        self.step(time, backlog)

    def step(self, time: float, backlog: int) -> None:
        """The backlog becomes `backlog` at `time`."""
        self.backlog_area += self.level * (time - self.level_time)
        self.level_time, self.level = time, backlog

    def age_average(self, end: float) -> float:
        """Time-average of the age sawtooth over [start, end]."""
        t, age = self._age_from()
        d = end - t  # the last piece is one term, as metrics adds it: this keeps the last bits
        return (self.age_area + (age * d + 0.5 * d * d)) / (end - self.start)

    def backlog_average(self, end: float) -> float:
        """Time-weighted mean of the backlog over [start, end]."""
        return (self.backlog_area + self.level * (end - self.level_time)) / (end - self.start)
