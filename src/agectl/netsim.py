"""Deterministic discrete-event simulation of end-to-end update paths.

Topology: every source's updates cross an optional shared multiaccess
uplink (slotted contention with binary exponential backoff) and then a
tandem of FCFS store-and-forward stations to the monitor. ACKs return
through the same stations in the reverse direction (each direction has its
own queue), plus an uncontended downlink when a multiaccess hop is
present; alternatively the config can declare an instantaneous reverse
path to isolate forward effects.

Each path costs one event. Packets enter a tandem in time order and FIFO
keeps that order, so a drop-tail FCFS hop fixes a packet's departure the
moment it enters (Lindley's recursion). An update is carried through every
station when it enters the tandem and leaves one delivery event at the
monitor, or one drop event at the hop that refuses it; an ACK crosses the
reverse stations and the downlink the same way to one event at its source.
The channel settles a frame's outcome when the frame starts. It keeps its
waiters in buckets by grid slot, so all the senders of one attempt come out
of one heap pop, and at most one of its attempt events is live. Trace rows
of the hops are written ahead of time and sorted by time when the run ends.

Every random stream is derived from (seed, entity id), so adding a source
or station never perturbs the draws of the others, and identical
(config, seed) pairs replay identical event traces. The network only
names the streams of sources and stations (`{seed}/source/{i}`,
`{seed}/station/{idx}/{direction}`). Each part seeds a stream only if it
draws from it: `make_source` for poisson gaps, `StationQueue` for
exponential service and the channel for backoff and a nonzero loss.
"""

import heapq
import math
import random
from array import array
from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from .endpoints import Monitor, make_source
from .metrics import DEFAULT_WARMUP_FRAC
from .wire import ACK_SIZE, DEFAULT_PAYLOAD_BYTES, UpdatePacket, update_bits

# event priorities at equal timestamps: packets move first, then the
# contention slot machinery, then the source timers
PRIO_PACKET = 0
PRIO_SLOT = 1
PRIO_TIMER = 2

DETERMINISTIC = "deterministic"
EXPONENTIAL = "exponential"

# event-trace record kinds
GENERATED = "generated"
ENQUEUED = "enqueued"
DROPPED = "dropped"
SERVICE_START = "service_start"
DELIVERED = "delivered"


class EventQueue:
    """Global clock plus a priority event heap."""

    def __init__(self):
        self._heap = []
        self._count = 0
        self.now = 0.0

    def push(self, time, priority, fn, *args):
        self._count += 1
        heapq.heappush(self._heap, (time, priority, self._count, fn, args))

    def run_until(self, t_end):
        heap = self._heap
        while heap and heap[0][0] <= t_end:
            time, _, _, fn, args = heapq.heappop(heap)
            self.now = time
            fn(*args)
        self.now = t_end


@dataclass(frozen=True)
class StationConfig:
    """One hop: single FCFS server, optional finite buffer, then propagation."""

    rate: float  # bits/s; the mean for EXPONENTIAL service
    service: str = DETERMINISTIC  # or EXPONENTIAL
    buffer: int | None = None  # packets including the one in service
    prop_delay: float = 0.0

    def __post_init__(self):
        if self.service not in (DETERMINISTIC, EXPONENTIAL):
            raise ValueError(f"unknown service kind {self.service!r}")
        if not self.rate > 0:  # `not x > 0` rejects NaN too, as the checks below do
            raise ValueError("station rate must be positive")
        if self.rate == math.inf:
            raise ValueError("station rate must be finite")
        if self.buffer is not None and self.buffer < 1:
            raise ValueError("finite buffer must hold at least one packet")
        if not self.prop_delay >= 0:
            raise ValueError("propagation delay must be non-negative")
        if self.prop_delay == math.inf:
            raise ValueError("propagation delay must be finite")


@dataclass(frozen=True)
class MultiaccessConfig:
    """Shared uplink: slotted persistence with binary exponential backoff."""

    link_rate: float = 12e6
    slot: float = 2e-5
    persistence: float = 0.25
    max_backoff_exp: int = 10
    per_source_loss: float = 0.0  # stand-in for channel (shadowing) losses

    def __post_init__(self):
        if not self.link_rate > 0:
            raise ValueError("link_rate must be positive")
        if self.link_rate == math.inf:
            raise ValueError("link_rate must be finite")
        if not 0 < self.persistence <= 1:
            raise ValueError("persistence must be in (0, 1]")
        if not self.slot > 0:
            raise ValueError("slot must be positive")
        if self.slot == math.inf:
            raise ValueError("slot must be finite")
        if not isinstance(self.max_backoff_exp, int):
            raise ValueError(f"max_backoff_exp must be an int, got {self.max_backoff_exp!r}")
        if self.max_backoff_exp < 0:
            raise ValueError("max_backoff_exp must be >= 0")
        if not 0 <= self.per_source_loss < 1:
            raise ValueError("per_source_loss must be in [0, 1)")


@dataclass(frozen=True)
class SimConfig:
    stations: tuple
    n_sources: int = 1
    protocol: str = "acp+"  # one mode string, or comma list with one entry per source
    duration: float = 10.0
    seed: int = 0
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES
    multiaccess: MultiaccessConfig | None = None
    ack_path: str = "symmetric"  # or "instant"
    record_trace: bool = False

    def __post_init__(self):
        object.__setattr__(self, "stations", tuple(self.stations))
        if not self.stations:
            raise ValueError("at least one station is required")
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if self.n_sources < 1:
            raise ValueError("need at least one source")
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        if self.ack_path not in ("symmetric", "instant"):
            raise ValueError(f"unknown ack_path {self.ack_path!r}")
        modes = self.protocol.split(",")
        if len(modes) not in (1, self.n_sources):
            raise ValueError("protocol must be one mode or one per source")
        ma = self.multiaccess
        if ma and ma.persistence == 1 and ma.max_backoff_exp == 0 and self.n_sources > 1:
            raise ValueError("persistence 1 with max_backoff_exp 0: colliders collide for ever")

    def mode_for(self, src: int) -> str:
        modes = self.protocol.split(",")
        return modes[0] if len(modes) == 1 else modes[src]


class StationQueue:
    """One direction of a station: FCFS single server with drop-tail buffer.

    A pure hop with no events. Packets reach it in time order, so each one's
    departure is fixed on arrival by the Lindley recursion
    departure = max(arrival, previous departure) + service. The hop keeps
    the departure times of the packets still inside (in service or queued).
    A departure at time t frees its buffer slot for an arrival at t.

    Only exponential service draws, in FIFO order, from random.Random(seed);
    a seed of None seeds from the OS.
    """

    def __init__(self, cfg: StationConfig, seed=None):
        self.cfg = cfg
        self.rng = random.Random(seed) if cfg.service == EXPONENTIAL else None
        self.departures = deque()
        self.dropped = 0

    def enter(self, t, bits):
        """(service_start, exit_time) of a packet arriving at t, or None if it is dropped.

        The exit time adds the propagation delay to the departure.
        """
        cfg = self.cfg
        departures = self.departures
        while departures and departures[0] <= t:
            departures.popleft()
        if cfg.buffer is not None and len(departures) >= cfg.buffer:
            self.dropped += 1
            return None
        if cfg.service == DETERMINISTIC:
            service = bits / cfg.rate
        else:
            service = self.rng.expovariate(cfg.rate / bits)
        start = departures[-1] if departures else t
        departure = start + service
        departures.append(departure)
        return start, departure + cfg.prop_delay


class MultiaccessChannel:
    """Shared uplink with per-source FIFO queues and slotted contention.

    A packet arriving to an idle channel with no other contender transmits
    at once. Otherwise each station holding a head-of-line packet attempts
    after backoff-plus-geometric(persistence) idle slots; the earliest
    attempt wins the channel and ties collide, after which each collider
    redraws with a binary-exponential backoff window. The window draw is
    CPython's `randrange` written out inline; the brute-force differential
    test in `tests/test_netsim.py` pins it draw for draw. Collided packets are
    retried, never lost; the per-source loss applies to successes instead.

    Countdowns freeze while the channel is busy (the frozen backoff of
    802.11 DCF), so a frame delays every waiter by the same number of slots.
    This gives a frame's senders a capture: a frame from grid slot a that
    ends in slot r moves each waiter from slot k to k + r - a, so no waiter
    attempts in the resume slot r, while the senders redraw from r on and
    may. The acceptance trends (acp+ ages below lazy's, its RTT within twice
    its one-source value) and the deliveries of a 768-source crowd rest on
    this capture; `TestCaptureChainOracle` pins it with an exact chain.

    Waiters sit in slot buckets: a waiter that attempts in grid slot
    key + shift is listed in `buckets[key]`, and `slots` is a heap of the
    keys in `buckets`. The earliest bucket holds all the senders of the
    next attempt, and a frame only advances `shift`. One attempt event is
    live at a time, for grid slot `next_attempt`; an arrival to a busy
    channel schedules a new one only when it attempts earlier.

    Every frame carries `frame_bits`, so every frame is on air for the same
    time. A frame's outcome is settled when it starts: the winner leaves its
    queue, the senders draw their next countdowns and the loss is drawn.
    A delivered frame goes to the sink with its end time, and a lost one
    ends in a drop event at that time. Frames ending after `horizon` are
    left out of the statistics, as the run stops before they end.
    """

    def __init__(self, evq, cfg: MultiaccessConfig, n_sources, seed, frame_bits, sink,
                 on_drop=None, horizon=math.inf):
        self.evq = evq
        self.cfg = cfg
        self.frame_time = frame_bits / cfg.link_rate
        self.sink = sink  # sink(src, pkt, end_time) on successful (and not lost) transmission
        self.on_drop = on_drop
        self.horizon = horizon
        self.queues = [deque() for _ in range(n_sources)]
        self.attempts = [0] * n_sources
        self.buckets = {}  # key -> stations attempting in grid slot key + shift
        self.slots = []  # heap of the keys of buckets
        self.shift = 0
        self.next_attempt = math.inf  # grid slot of the live attempt event
        # log(1 - p) of the geometric countdown; None when p = 1 draws nothing
        self.log_q = math.log(1.0 - cfg.persistence) if cfg.persistence < 1.0 else None
        self.rngs = [random.Random(f"{seed}/ma/{i}") for i in range(n_sources)]
        self.loss_rngs = ([random.Random(f"{seed}/ma-loss/{i}") for i in range(n_sources)]
                          if cfg.per_source_loss else None)
        self.busy_until = 0.0
        self.serial = 0  # invalidates superseded attempt events
        self.access_delays = array("d")  # enqueue-to-transmission-end, successes only
        self.collisions = 0
        self.lost = 0

    def accept(self, src, pkt):
        now = self.evq.now
        q = self.queues[src]
        fresh = not q
        q.append((pkt, now))
        if not fresh:
            return  # not head of line yet; it waits when it gets there
        if now >= self.busy_until and not self.slots:
            self._transmit([src])  # idle channel, sole contender: go now
            return
        slot = self._slot_after(max(now, self.busy_until)) + self._geom(self.rngs[src])
        self._wait(src, slot - self.shift)
        if slot < self.next_attempt:
            self._schedule(slot)

    def _wait(self, src, key):
        """List src among the stations attempting in grid slot key + shift."""
        bucket = self.buckets.get(key)
        if bucket is None:
            self.buckets[key] = [src]
            heapq.heappush(self.slots, key)
        else:
            bucket.append(src)

    def _slot_after(self, t):
        return math.ceil(t / self.cfg.slot - 1e-9)

    def _geom(self, rng):
        """Idle slots until a persistence-p station attempts (0-based)."""
        if self.log_q is None:
            return 0
        return int(math.log(1.0 - rng.random()) / self.log_q)  # 1 - random() is in (0, 1]

    def _schedule(self, slot):
        self.serial += 1
        self.next_attempt = slot
        self.evq.push(slot * self.cfg.slot, PRIO_SLOT, self._attempt, self.serial, slot)

    def _attempt(self, serial, t):
        if serial != self.serial:
            return  # superseded by an earlier attempt
        key = heapq.heappop(self.slots)
        assert key + self.shift == t
        self._transmit(self.buckets.pop(key))

    def _transmit(self, senders):
        now = self.evq.now
        cfg = self.cfg
        queues = self.queues
        slots = self.slots
        end = self.busy_until = now + self.frame_time
        resume = self._slot_after(end)
        attempt_slot = self._slot_after(now)
        # stations that lost this round resume their countdown after the frame
        assert not slots or slots[0] + self.shift > attempt_slot
        self.shift += resume - attempt_slot
        base = resume - self.shift  # key of the resume slot
        counted = end <= self.horizon
        if len(senders) > 1:
            if counted:
                self.collisions += 1
            attempts, rngs, buckets = self.attempts, self.rngs, self.buckets
            cap, log_q = cfg.max_backoff_exp, self.log_q
            log, heappush = math.log, heapq.heappush
            for i in senders:  # _geom, _wait and randrange, inlined in the hottest loop
                n = attempts[i] = attempts[i] + 1
                rng = rngs[i]
                c = n if n < cap else cap
                r = rng.getrandbits(c + 1)  # randrange(1 << c) as CPython draws it
                while r >> c:
                    r = rng.getrandbits(c + 1)
                key = base + r
                if log_q is not None:
                    key += int(log(1.0 - rng.random()) / log_q)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [i]
                    heappush(slots, key)
                else:
                    bucket.append(i)
        else:
            src = senders[0]
            pkt, enq_time = queues[src].popleft()
            self.attempts[src] = 0
            if counted:
                self.access_delays.append(end - enq_time)
            if queues[src]:
                self._wait(src, base + self._geom(self.rngs[src]))
            if cfg.per_source_loss and self.loss_rngs[src].random() < cfg.per_source_loss:
                self.evq.push(end, PRIO_PACKET, self._lose, src, pkt)
            else:
                self.sink(src, pkt, end)
        if slots:
            self._schedule(slots[0] + self.shift)
        else:
            self.next_attempt = math.inf

    def _lose(self, src, pkt):
        self.lost += 1
        if self.on_drop:
            self.on_drop(src, pkt)


class _Network:
    """Wires endpoints, channel and stations together and drives the clock.

    `run_simulation` returns the network it ran, so its sources, monitors,
    channel, hops and per-source counts are the results. Updates and ACKs
    travel as the endpoints' own packets, with the source index beside them.

    A finished network holds no reference cycle, so it is freed as soon as
    its last reference goes, without the garbage collector. Its leftover
    events keep their handlers as plain functions, which leaves them
    readable but not runnable: a finished network cannot be resumed.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.evq = EventQueue()
        self.trace = [] if cfg.record_trace else None  # (time, source_id, kind, seq)
        self.generated = [0] * cfg.n_sources
        self.delivered = [0] * cfg.n_sources
        self.dropped = [0] * cfg.n_sources
        self.update_bits = update_bits(cfg.payload_bytes)
        self.ack_bits = ACK_SIZE * 8

        seed = cfg.seed
        self.sources = [make_source(cfg.mode_for(i), f"{seed}/source/{i}",
                                    payload_bytes=cfg.payload_bytes)
                        for i in range(cfg.n_sources)]
        self.monitors = [Monitor() for _ in range(cfg.n_sources)]
        self.timer_at = [math.inf] * cfg.n_sources  # time of each source's live timer event

        # forward: multiaccess -> stations -> monitor
        self.fwd_hops = [StationQueue(st, f"{seed}/station/{idx}/fwd")
                         for idx, st in enumerate(cfg.stations)]
        self.channel = None
        if cfg.multiaccess is not None:
            self.channel = MultiaccessChannel(
                self.evq, cfg.multiaccess, cfg.n_sources, seed, self.update_bits,
                sink=self._forward, on_drop=self._drop_update, horizon=cfg.duration,
            )

        # reverse, for ACKs: stations reversed, then the downlink; None is instant
        self.rev_hops = None
        if cfg.ack_path == "symmetric":
            self.rev_hops = [StationQueue(st, f"{seed}/station/{idx}/rev")
                             for idx, st in enumerate(cfg.stations)][::-1]
            if cfg.multiaccess is not None:
                self.rev_hops.append(StationQueue(StationConfig(rate=cfg.multiaccess.link_rate)))

    # -- trace and accounting hooks

    def _record(self, t, kind, src, pkt):
        if self.trace is not None:
            self.trace.append((t, src, kind, pkt.seq))

    def _drop_update(self, src, pkt):
        self.dropped[src] += 1
        self._record(self.evq.now, DROPPED, src, pkt)

    # -- packet movement

    def _forward(self, src, pkt, t):
        """Carry an update through the stations from time t to one delivery or drop event."""
        record = self.trace is not None
        for hop in self.fwd_hops:
            passed = hop.enter(t, self.update_bits)
            if passed is None:
                self.evq.push(t, PRIO_PACKET, self._drop_update, src, pkt)
                return
            if record:
                self._record(t, ENQUEUED, src, pkt)
                self._record(passed[0], SERVICE_START, src, pkt)
            t = passed[1]
        self.evq.push(t, PRIO_PACKET, self._monitor_in, src, pkt)

    def _send_update(self, src, pkt):
        self.generated[src] += 1
        now = self.evq.now
        self._record(now, GENERATED, src, pkt)
        if self.channel is not None:
            self._record(now, ENQUEUED, src, pkt)
            self.channel.accept(src, pkt)
        else:
            self._forward(src, pkt, now)

    def _monitor_in(self, src, pkt):
        now = self.evq.now
        self.delivered[src] += 1
        self._record(now, DELIVERED, src, pkt)
        ack = self.monitors[src].on_update(pkt, now)
        if ack is None:
            return
        if self.rev_hops is None:
            self._source_in(src, ack)
            return
        t = now
        for hop in self.rev_hops:
            passed = hop.enter(t, self.ack_bits)
            if passed is None:
                return  # the ACK is dropped
            t = passed[1]
        self.evq.push(t, PRIO_PACKET, self._source_in, src, ack)

    def _source_in(self, src, ack):
        for pkt in self.sources[src].on_ack(ack, self.evq.now):
            self._send_update(src, pkt)
        self._arm(src)

    # -- endpoint timers: one live event per source

    def _arm(self, src):
        """Push a timer event if the source's deadline moved before its live one.

        A deadline that moved later is left to the live event, which finds
        nothing due and re-arms when it fires.
        """
        t = self.sources[src].deadline()
        if t < self.timer_at[src]:
            self.timer_at[src] = t
            self.evq.push(t, PRIO_TIMER, self._timer_fire, src, t)

    def _timer_fire(self, src, t):
        if t != self.timer_at[src]:
            return  # superseded by an earlier deadline
        self.timer_at[src] = math.inf
        for pkt in self.sources[src].fire(t):
            self._send_update(src, pkt)
        self._arm(src)

    # -- run and results

    def run(self):
        for src in range(self.cfg.n_sources):
            for pkt in self.sources[src].start(0.0):
                self._send_update(src, pkt)
            self._arm(src)
        duration = self.cfg.duration
        self.evq.run_until(duration)
        # break every cycle: leftover events drop their bound methods, and the
        # channel its hooks into the network
        heap = self.evq._heap
        for k, (t, prio, n, fn, args) in enumerate(heap):
            heap[k] = (t, prio, n, getattr(fn, "__func__", fn), args)
        if self.channel is not None:
            self.channel.sink = self.channel.on_drop = None
            # a finished channel draws nothing more: let its streams go
            self.channel.rngs = self.channel.loss_rngs = None
        # hop rows were written ahead of their time
        self.trace = sorted((row for row in self.trace or () if row[0] <= duration),
                            key=itemgetter(0))
        return self

    def in_flight(self, src):
        return self.generated[src] - self.delivered[src] - self.dropped[src]

    def resident_census(self):
        """Updates actually sitting in the network, counted per source.

        Counts the channel queues plus the pending delivery and drop events;
        an update whose delivery or drop falls after the run end is in flight.
        """
        counts = [0] * self.cfg.n_sources
        if self.channel is not None:
            counts = [len(q) for q in self.channel.queues]
        for _, _, _, _, args in self.evq._heap:
            if isinstance(args[-1], UpdatePacket):  # (src, update) of a packet event
                counts[args[0]] += 1
        return counts


def run_simulation(cfg: SimConfig) -> _Network:
    return _Network(cfg).run()


# -- load/delay characterization of a single station


def simulate_station_system_time(station_cfg, arrival_rate, packets, seed=0,
                                 packet_bits=update_bits(DEFAULT_PAYLOAD_BYTES)):
    """Mean time through one station of the packets it delivers, under Poisson arrivals.

    The warm-up skips the first tenth of the `packets` arrivals. Raises
    ValueError when `packets` is below 1 or the station delivers none of
    the arrivals after the warm-up.
    """
    if packets < 1:
        raise ValueError(f"packets must be >= 1, got {packets}")
    arrivals = random.Random(f"{seed}/arrivals")
    hop = StationQueue(station_cfg, f"{seed}/service")
    skip = int(packets * DEFAULT_WARMUP_FRAC)
    t, total, counted = 0.0, 0.0, 0
    for n in range(packets):
        passed = hop.enter(t, packet_bits)
        if passed is not None and n >= skip:
            total += passed[1] - t
            counted += 1
        t += arrivals.expovariate(arrival_rate)
    if not counted:
        raise ValueError(f"none of the {packets - skip} arrivals after the warm-up was delivered")
    return total / counted


def rtt_vs_load_curve(station_cfg, rtt_base, loads, mode="analytic",
                      packet_bits=update_bits(DEFAULT_PAYLOAD_BYTES),
                      packets=200_000, seed=0):
    """Mean round-trip time per offered load through a single station.

    Analytic mode: a deterministic server below capacity adds nothing to
    rtt_base and saturates at the full-buffer wait above it; an exponential
    server adds the mean system time 1/(mu - lambda) while stable. An
    unstable load on an unbounded buffer is flagged as an infinite point.
    Simulate mode runs the station under Poisson arrivals and
    reports rtt_base plus the measured mean system time.
    """
    if not 0 <= rtt_base < math.inf:
        raise ValueError(f"rtt_base must be finite and >= 0, got {rtt_base}")
    mu = station_cfg.rate / packet_bits  # packets per second
    out = []
    for load in loads:
        if not 0 < load < math.inf:
            raise ValueError(f"loads must be positive and finite, got {load}")
        if mode == "simulate":
            rtt = rtt_base + simulate_station_system_time(
                station_cfg, load, packets, seed=f"{seed}/load{load}",
                packet_bits=packet_bits,
            )
        elif load >= mu and station_cfg.buffer is None:
            rtt = math.inf  # unstable point
        elif station_cfg.service == DETERMINISTIC:
            if load < mu:
                rtt = rtt_base
            else:
                rtt = rtt_base + (station_cfg.buffer - 1) / mu
        else:
            if load < mu:
                rtt = rtt_base + 1.0 / (mu - load)
            else:
                rtt = rtt_base + station_cfg.buffer / mu
        out.append((load, rtt))
    return out

