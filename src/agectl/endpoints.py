"""Protocol actors: update sources and the acknowledging monitor.

Each endpoint is a single logical event loop consuming time-ordered events
(timer due, packet in). The caller owns scheduling. A source has one
deadline, `deadline()` (`math.inf` when nothing is scheduled); the caller
calls `fire(now)` once the clock reaches it, and `on_ack(ack, now)` when a
datagram arrives. Every source runs `SourceBase.fire`: `fire(now)` handles
everything due at or before `now`, earliest first and an epoch close (acp+
only) before a send at the same time, and schedules the next send `_gap()`
after `now`. Before the deadline it returns `[]` and changes nothing, and
after it the deadline is past `now`. Both calls return the updates to
transmit, so the same state machines run unchanged under the discrete event
simulator and over real sockets. An ACK may move the deadline either way.

Backlog is the set of updates sent but not yet acknowledged or superseded.
An in-sequence ACK for seq n clears everything up to n: the monitor
discards out-of-sequence arrivals, so an older in-flight update can never
contribute to freshness once n is acknowledged.

The delivery, ACK and backlog logs are RowLogs: one typed array per
column, so a row costs its raw numbers rather than a tuple of boxed ones.
"""

import functools
import logging
import math
import random
from array import array
from collections import deque

from .controller import control_step, epoch_length, update_lambda
from .estimation import DEFAULT_SMOOTHING, EpochWindow, NetworkEstimator
from .wire import DEFAULT_PAYLOAD_BYTES, AckPacket, UpdatePacket

log = logging.getLogger(__name__)

MODE_ACP_PLUS = "acp+"
MODE_LAZY = "lazy"
MODE_CONSTANT = "constant"
MODE_POISSON = "poisson"

BOOTSTRAP_RATE = 1.0  # acp+ updates/s until the first RTT sample exists
INITIAL_TIMEOUT = 1.0  # lazy resend guard before any RTT estimate

# column types: 'd' for times and RTTs; 'Q' (64-bit unsigned) holds any seq
# or gen_ts the wire carries, and any backlog
TIME, COUNT = "d", "Q"


class RowLog:
    """Append-only log of numeric triples, kept as one typed array per column.

    It reads back like the list of tuples it replaces: len, iteration, int
    indexing, `[i:]` slices (as lists), `==` against a list of tuples and
    that list's repr. Doubles and ints round-trip exactly, so every reader
    of the list reads the same numbers. A value a column cannot hold (a
    float seq, a negative count) raises TypeError or OverflowError from
    append and leaves the log as it was.
    """

    __slots__ = ("columns",)

    def __init__(self, *typecodes):
        self.columns = tuple(array(code) for code in typecodes)

    def append(self, row):
        a, b, c = self.columns
        x, y, z = row
        try:
            a.append(x)
            b.append(y)
            c.append(z)
        except (TypeError, OverflowError):
            self._drop_partial_row()
            raise

    def _drop_partial_row(self):
        rows = min(map(len, self.columns))
        for column in self.columns:
            del column[rows:]

    def __len__(self):
        return len(self.columns[0])

    def __iter__(self):
        return zip(*self.columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(*(column[index] for column in self.columns)))
        return tuple(column[index] for column in self.columns)

    def __eq__(self, other):
        if isinstance(other, (list, RowLog)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self):
        return repr(list(self))


class PairLog(RowLog):
    """A RowLog of pairs."""

    __slots__ = ()

    def append(self, row):
        a, b = self.columns
        x, y = row
        try:
            a.append(x)
            b.append(y)
        except (TypeError, OverflowError):
            self._drop_partial_row()
            raise


@functools.lru_cache(maxsize=1)  # a run uses one size, so the last one is the one in use
def zero_payload(payload_bytes: int) -> bytes:
    """An all-zero payload of this size; bytes are immutable, so every update shares it."""
    return bytes(payload_bytes)


class Monitor:
    """Receives updates, discards stale ones, acknowledges the rest."""

    def __init__(self):
        self.highest_seq_received = None
        self.delivery_log = RowLog(TIME, COUNT, COUNT)  # (receive_time, seq, gen_ts_ns)
        self.discarded = 0

    def on_update(self, pkt: UpdatePacket, now: float):
        """Return the ACK to send, or None for an out-of-sequence update."""
        if self.highest_seq_received is not None and pkt.seq <= self.highest_seq_received:
            self.discarded += 1
            return None
        self.delivery_log.append((now, pkt.seq, pkt.gen_ts))
        self.highest_seq_received = pkt.seq
        return AckPacket(seq=pkt.seq, gen_ts=pkt.gen_ts)


class SourceBase:
    """Shared bookkeeping: sequence space, backlog, estimates, logs."""

    def __init__(self, payload_bytes=DEFAULT_PAYLOAD_BYTES, alpha=DEFAULT_SMOOTHING):
        self.payload = zero_payload(payload_bytes)
        self.next_seq = 0
        self.outstanding = deque()  # (seq, gen_ts_ns), consecutive ascending seqs
        self.highest_acked_seq = None
        self.estimator = NetworkEstimator(alpha)
        self.backlog_trace = PairLog(TIME, COUNT)  # (time, backlog) over the whole session
        self.ack_log = RowLog(TIME, COUNT, TIME)  # (ack_time, seq, rtt_seconds)
        self.epoch_rows = []
        self.violations = 0
        self.discarded_acks = 0
        self.next_send_time = math.inf
        self.next_epoch_time = math.inf  # only acp+ closes epochs

    @property
    def backlog(self) -> int:
        return len(self.outstanding)

    def start(self, now: float) -> list:
        self.next_send_time = now
        return self.fire(now)

    def deadline(self) -> float:
        """When fire() next has work to do; math.inf for never."""
        send, epoch = self.next_send_time, self.next_epoch_time
        return epoch if epoch < send else send

    def fire(self, now: float) -> list:
        """The one timer loop of every source; see the module doc."""
        out = []
        while True:
            epoch = self.next_epoch_time
            if epoch <= now and epoch <= self.next_send_time:
                self._close_epoch(now)
            # one send per call, so a gap too small to move `now` cannot spin here
            elif self.next_send_time <= now and not out:
                out.append(self._emit(now))
                self.next_send_time = now + self._gap()
            else:
                return out

    def _gap(self) -> float:
        """Seconds from a send to the next one."""
        raise NotImplementedError

    def _emit(self, now: float) -> UpdatePacket:
        pkt = UpdatePacket(seq=self.next_seq, gen_ts=round(now * 1e9), payload=self.payload)
        self.next_seq += 1
        self.outstanding.append((pkt.seq, pkt.gen_ts))
        self.backlog_trace.append((now, len(self.outstanding)))
        return pkt

    def on_ack(self, ack: AckPacket, now: float) -> list:
        """Consume an ACK; returns updates to transmit in response (if any)."""
        if ack.seq >= self.next_seq:
            self.violations += 1
            log.debug("ack for never-sent seq %d discarded", ack.seq)
            return []
        if self.highest_acked_seq is not None and ack.seq <= self.highest_acked_seq:
            self.discarded_acks += 1
            return []
        # every seq above the highest acked one is outstanding, in order
        if ack.gen_ts != self.outstanding[ack.seq - self.outstanding[0][0]][1]:
            self.violations += 1
            log.debug("ack for seq %d echoes a gen_ts it was not sent with", ack.seq)
            return []
        gen_seconds = ack.gen_ts / 1e9
        self.estimator.record_ack(now, gen_seconds)
        rtt = now - gen_seconds
        self.ack_log.append((now, ack.seq, rtt))
        while self.outstanding and self.outstanding[0][0] <= ack.seq:
            self.outstanding.popleft()
        self.highest_acked_seq = ack.seq
        self.backlog_trace.append((now, len(self.outstanding)))
        return self._after_ack(now, rtt)

    def _after_ack(self, now: float, rtt: float) -> list:
        return []


class ConstantSource(SourceBase):
    """Generate-at-will source: gaps of 1/rate, or exponential ones drawn from `rng`.

    With an `rng` this is the memoryless (Poisson) update stream that the
    queueing experiments assume.
    """

    def __init__(self, rate: float, rng=None, **kw):
        super().__init__(**kw)
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        self.rng = rng

    def _gap(self):
        return self.rng.expovariate(self.rate) if self.rng else 1.0 / self.rate


class LazySource(SourceBase):
    """One update per round trip: send when the pipe empties.

    A fresh update goes out whenever an in-sequence ACK clears the backlog;
    a guard timer of one smoothed RTT after the last send replaces updates
    whose ACKs never show up, so the source keeps about one update in
    flight.
    """

    def _gap(self):
        """The guard delay: one smoothed RTT, or INITIAL_TIMEOUT before any."""
        rtt = self.estimator.rtt_bar
        return rtt if rtt is not None else INITIAL_TIMEOUT

    def _after_ack(self, now, rtt):
        out = []
        if not self.outstanding:
            out.append(self._emit(now))
        self.next_send_time = now + self._gap()
        return out


class AcpPlusSource(SourceBase):
    """Rate-adaptive source driven by the epoch controller.

    One update goes out immediately at session start; the first ACK seeds
    the rate at one update per measured round trip and opens the first
    measurement epoch. Before that the source ticks at BOOTSTRAP_RATE, and
    epochs log `hold` (or `init`) and leave the rate untouched. Later an
    epoch without any ACK reuses the previous averages, so b_k = delta_k = 0:
    it logs `dec` (or keeps `mdec`) and the rate still moves to
    update_lambda(previous rate, z_bar, rtt_bar, target).
    """

    def __init__(self, **kw):
        super().__init__(**kw)
        self.rate = BOOTSTRAP_RATE
        self.in_bootstrap = True
        self.epoch_window = None

    def start(self, now: float) -> list:
        self._open_epochs(now)
        return super().start(now)

    def _gap(self):
        return 1.0 / self.rate

    def _open_epochs(self, now):
        """Restart control at the current rate from now: at start() and at the first ACK."""
        self.epoch_index = 0
        self.flag = False  # set by a backlog-up/age-up epoch, cleared by INC or a plain DEC
        self.gamma = 0  # MDEC escalation level
        self.prev_age_avg = self.prev_backlog_avg = None
        self.epoch_window = EpochWindow(now)
        self.next_send_time = now + self._gap()
        self.next_epoch_time = now + epoch_length(self.rate)

    def _emit(self, now):
        pkt = super()._emit(now)
        self.epoch_window.step(now, len(self.outstanding))
        return pkt

    def _after_ack(self, now, rtt):
        if self.in_bootstrap:
            # first RTT sample: adopt one update per round trip and start
            # epoch accounting from here
            self.in_bootstrap = False
            self.rate = 1.0 / self.estimator.rtt_bar
            self._open_epochs(now)
        self.epoch_window.ack(now, rtt, len(self.outstanding))
        return []

    def _close_epoch(self, now):
        window = self.epoch_window
        if window.acks:
            age_avg, backlog_avg = window.age_average(now), window.backlog_average(now)
        else:  # stalled epoch: reuse the previous averages so control keeps acting
            age_avg, backlog_avg = self.prev_age_avg, self.prev_backlog_avg

        if age_avg is None or not self.estimator.ready:
            action, b_star, b_k, delta_k = "hold", 0.0, 0.0, 0.0
        elif self.prev_age_avg is None:
            action, b_star, b_k, delta_k = "init", 0.0, 0.0, 0.0
        else:
            b_k = backlog_avg - self.prev_backlog_avg
            delta_k = age_avg - self.prev_age_avg
            action, b_star, self.flag, self.gamma = control_step(
                self.flag, self.gamma, b_k, delta_k, backlog_avg)
            self.rate = update_lambda(self.rate, self.estimator.z_bar, self.estimator.rtt_bar,
                                      b_star)
            self.next_send_time = now + self._gap()

        self.prev_age_avg, self.prev_backlog_avg = age_avg, backlog_avg
        window.roll(now)
        self.next_epoch_time = now + epoch_length(self.rate)
        self.epoch_rows.append((self.epoch_index, now, self.rate, action, b_star, b_k, delta_k,
                                int(self.flag), self.gamma))
        self.epoch_index += 1


def parse_mode(mode: str):
    """(kind, rate) of acp+ | lazy | constant:<rate> | poisson:<rate>; rate is None without one.

    Raises ValueError for an unknown kind or a missing, non-numeric or
    non-positive rate.
    """
    if mode in (MODE_ACP_PLUS, MODE_LAZY):
        return mode, None
    kind, _, rate = mode.partition(":")
    if kind not in (MODE_CONSTANT, MODE_POISSON):
        raise ValueError(f"unknown mode {mode!r}: use acp+, lazy, constant:<rate> "
                         "or poisson:<rate>")
    try:
        value = float(rate)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise ValueError(f"{kind} mode needs a positive rate, e.g. {kind}:100, got {mode!r}")
    return kind, value


def make_source(mode: str, rng=None, **kw) -> SourceBase:
    """Build a source from a mode string (see parse_mode).

    `rng` draws a poisson source's gaps (a fresh random.Random() if None).
    """
    kind, rate = parse_mode(mode)
    if kind == MODE_ACP_PLUS:
        return AcpPlusSource(**kw)
    if kind == MODE_LAZY:
        return LazySource(**kw)
    if kind == MODE_POISSON:
        return ConstantSource(rate, rng=rng or random.Random(), **kw)
    return ConstantSource(rate, **kw)
