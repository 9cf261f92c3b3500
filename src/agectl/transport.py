"""Live endpoints over UDP sockets, plus an in-path delay/loss proxy.

The protocol state machines come unchanged from `endpoints`; this module
only supplies wall clocks, datagram IO and CSV output. All timers run on
the monotonic clock relative to session start, and generation timestamps
travel as that clock's nanoseconds, so round-trip math never needs the
peer's clock. The proxy relays datagrams between a source-facing and a
monitor-facing socket, applying the same delay and loss in each
direction; with reordering disabled it never releases a datagram before an
earlier one of the same direction.
"""

import heapq
import logging
import math
import os
import random
import select
import socket
import time
from collections import Counter
from dataclasses import dataclass

from .csvio import ack_csv_path, write_ack_log, write_epoch_log, write_monitor_log
from .endpoints import Monitor, make_source
from .wire import (
    DEFAULT_PAYLOAD_BYTES,
    OutOfRange,
    WireError,
    decode_ack,
    decode_update,
    encode_ack,
    encode_update,
)

log = logging.getLogger(__name__)

CONSTANT = "constant"
EXPONENTIAL = "exponential"

_POLL = 0.05  # upper bound on select timeouts; keeps duration checks timely
_UNDECODABLE = "undecodable"  # the key of undecodable datagrams among the lost ones
_PR_SET_TIMERSLACK, _PR_GET_TIMERSLACK = 29, 30  # prctl options, linux/prctl.h
_TIGHT_SLACK_NS = 1  # the least slack; 0 would reset the thread to its default


def _parse_addr(text):
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1", int(port))


def _bound_socket(addr):
    """A non-blocking UDP socket bound to addr ("host:port" or a tuple)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.bind(_parse_addr(addr) if isinstance(addr, str) else addr)
    except OSError:
        sock.close()
        raise
    sock.setblocking(False)
    return sock


def _wait_readable(socks, timeout):
    """Sockets with datagrams waiting, after at most min(timeout, _POLL) seconds."""
    return select.select(socks, [], [], max(0.0, min(timeout, _POLL)))[0]


def _send(sock, data, addr, lost):
    """sendto; True if the host took the datagram, else it is lost and counted by error."""
    try:
        sock.sendto(data, addr)
        return True
    except OSError as exc:  # a full send buffer, a refused destination, ...
        lost[exc.strerror or type(exc).__name__] += 1
        return False


def _set_timer_slack(ns):
    """Set the calling thread's timer slack to `ns` nanoseconds; returns the old value.

    Linux lets every timed wait of a thread, `select` timeouts included, end
    up to its timer slack late: 50 µs by default. Where libc has no `prctl`,
    or it fails, nothing changes and None is returned.
    """
    import ctypes  # loaded by the first timed session, not at import

    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (AttributeError, OSError, TypeError) as exc:
        log.debug("timer slack left as it is: %s", exc)
        return None
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    old = prctl(_PR_GET_TIMERSLACK, 0, 0, 0, 0)
    if old == -1 or prctl(_PR_SET_TIMERSLACK, ns, 0, 0, 0) == -1:
        log.debug("timer slack left as it is: %s", os.strerror(ctypes.get_errno()))
        return None
    return old


def _lateness_summary(late):
    """One line on a histogram of timer lateness, keyed by µs bit length."""
    due = sum(late.values())
    if not due:
        return "timer lateness over 0 due passes"

    def edge(q):  # upper edge of the bucket that holds the q-quantile
        seen = 0
        for bucket in sorted(late):
            seen += late[bucket]
            if seen >= q * due:
                return 1 << bucket

    return f"timer lateness over {due} due passes: p50 < {edge(0.5)} us, p99 < {edge(0.99)} us"


def _never():
    return math.inf


def _session(socks, duration, stop, lost, on_datagram, deadline=_never,
             fire=lambda now: None, start=lambda: None, finish=lambda: None):
    """The one live session loop, shared by source, monitor and proxy.

    Session time is monotonic seconds since entry; `start()` runs at 0.0
    unless `duration` is 0. Until `duration` passes or `stop` is set, each
    pass waits for a datagram or the endpoint's `deadline()`, hands each
    datagram to `on_datagram(sock, data, addr, now)`, then calls `fire(now)`
    at a fresh clock read. `lost` counts undecodable datagrams and, through
    `_send`, refused sends. An update the wire cannot carry ends the session
    early. However it ends, `finish()` runs and each kind of loss is logged.

    A session with a `deadline` is timed: it runs with the calling thread's
    timer slack at 1 ns, restored at exit, and it logs at exit how late its
    due passes fired, in power-of-two µs buckets. Nothing wakes early.
    """
    t0 = time.monotonic()
    timed = deadline is not _never
    old_slack = _set_timer_slack(_TIGHT_SLACK_NS) if timed else None
    late = Counter()  # bit length of the whole µs a due pass fired late -> passes
    try:
        if duration > 0:
            start()
        while True:
            now = time.monotonic() - t0
            if now >= duration or (stop is not None and stop.is_set()):
                return
            readable = _wait_readable(socks, min(deadline(), duration) - now)
            now = time.monotonic() - t0
            for sock in readable:  # drain each non-blocking socket
                while True:
                    try:
                        data, addr = sock.recvfrom(65535)
                    except (BlockingIOError, InterruptedError):
                        break
                    try:
                        on_datagram(sock, data, addr, now)
                    except OutOfRange:
                        raise  # a seq the wire cannot carry, not a bad datagram
                    except WireError as exc:
                        lost[_UNDECODABLE] += 1
                        log.debug("undecodable datagram: %s", exc)
            now = time.monotonic() - t0
            if timed:
                due = deadline()
                if now >= due:
                    late[int((now - due) * 1e6).bit_length()] += 1
            fire(now)
    except OutOfRange as exc:  # the wire's seq space is used up
        log.warning("session ended early: %s", exc)
    finally:
        if old_slack is not None:
            _set_timer_slack(old_slack)
        finish()
        undecodable = lost.pop(_UNDECODABLE, 0)
        if undecodable:
            log.warning("%d undecodable datagrams ignored", undecodable)
        if lost:
            reasons = ", ".join(f"{n} {why}" for why, n in sorted(lost.items()))
            log.warning("%d datagrams not sent (%s)", sum(lost.values()), reasons)
        if timed:
            log.info("%s", _lateness_summary(late))


def run_source(peer, mode, duration, out, payload_bytes=DEFAULT_PAYLOAD_BYTES,
               listen=None, stop=None):
    """Drive an update source against a remote monitor; returns exit status.

    Writes the per-epoch controller log to `out` and the per-ACK RTT
    samples next to it (needed to estimate age when only this end's clock
    is trusted). The socket stays unconnected, so an ICMP error from the
    peer cannot end the session; forged ACKs are counted and dropped, and
    so is an update the host fails to send. When seq outgrows the wire's
    32 bits the session ends early, logs written.
    """
    peer_addr = _parse_addr(peer) if isinstance(peer, str) else peer
    try:
        with _bound_socket(listen or ("0.0.0.0", 0)) as sock:
            source = make_source(mode, payload_bytes=payload_bytes)
            lost = Counter()

            def send_all(packets):
                for pkt in packets:
                    _send(sock, encode_update(pkt), peer_addr, lost)

            def on_ack(sock, data, addr, now):
                send_all(source.on_ack(decode_ack(data), now))

            def finish():
                write_epoch_log(out, source.epoch_rows)
                write_ack_log(ack_csv_path(out), source.ack_log)
                if source.violations:
                    log.warning("%d acks for unsent seqs or mismatched gen_ts dropped",
                                source.violations)

            _session([sock], duration, stop, lost, on_ack, deadline=source.deadline,
                     fire=lambda now: send_all(source.fire(now)),
                     start=lambda: send_all(source.start(0.0)), finish=finish)
        return 0
    except OSError as exc:
        log.error("source socket failure: %s", exc)
        return 1


def run_monitor(listen, duration, out, stop=None):
    """Receive updates, ACK the fresh ones, log deliveries; returns exit status.

    An ACK the host fails to send is counted as lost, and the session goes on.
    """
    try:
        with _bound_socket(listen) as sock:
            monitor = Monitor()
            lost = Counter()

            def on_update(sock, data, addr, now):
                ack = monitor.on_update(decode_update(data), now)
                if ack is not None:
                    _send(sock, encode_ack(ack), addr, lost)

            def finish():
                write_monitor_log(out, monitor.delivery_log)
                if monitor.discarded:
                    log.info("%d out-of-sequence updates discarded", monitor.discarded)

            _session([sock], duration, stop, lost, on_update, finish=finish)
        return 0
    except OSError as exc:
        log.error("monitor socket failure: %s", exc)
        return 1


@dataclass
class ProxyConfig:
    """Relay between a source-facing and a monitor-facing UDP socket.

    delay and loss apply in each direction alike. With reorder off, each
    direction is released strictly FIFO even when sampled delays would
    overtake.
    """

    listen: str
    forward: str
    delay: float = 0.0  # seconds each way
    delay_dist: str = CONSTANT  # or EXPONENTIAL (delay = mean)
    loss: float = 0.0  # probability each way
    reorder: bool = False
    seed: int | None = None

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError("delays must be non-negative")
        if not self.delay < math.inf:
            raise ValueError(f"delays must be finite, got {self.delay}")
        if not 0 <= self.loss < 1:
            raise ValueError("loss probability must be in [0, 1)")
        if self.delay_dist not in (CONSTANT, EXPONENTIAL):
            raise ValueError(f"unknown delay distribution {self.delay_dist!r}")


class ProxyStats:
    """Per-direction datagram counts (0 = forward, 1 = reverse).

    Each datagram received is forwarded, dropped by the sampled loss, still
    unreleased when the session ends, or refused by the host on release;
    the last are the session's lost sends, logged at exit.
    """

    def __init__(self):
        self.received = [0, 0]
        self.forwarded = [0, 0]
        self.dropped = [0, 0]
        self.unreleased = [0, 0]  # still held for their delay at exit


def run_proxy(cfg: ProxyConfig, duration=None, stop=None, stats=None):
    """Forward datagrams with sampled delay and loss until stopped."""
    rng = random.Random(cfg.seed)
    stats = stats if stats is not None else ProxyStats()

    try:
        with _bound_socket(cfg.listen) as sock_src, _bound_socket(("0.0.0.0", 0)) as sock_mon:
            # sock_src faces the source, sock_mon the monitor
            forward_addr = _parse_addr(cfg.forward)
            source_addr = None  # learned from the first forward datagram
            heap = []  # (release_time, counter, direction, out_sock, out_addr, data)
            counter = 0
            last_release = [0.0, 0.0]
            lost = Counter()

            def on_datagram(sock, data, addr, now):
                nonlocal source_addr, counter
                if sock is sock_src:
                    direction = 0
                    source_addr = addr
                    out_sock, out_addr = sock_mon, forward_addr
                else:
                    direction = 1
                    if source_addr is None:
                        return  # nothing to return to yet
                    out_sock, out_addr = sock_src, source_addr
                stats.received[direction] += 1
                if cfg.loss and rng.random() < cfg.loss:
                    stats.dropped[direction] += 1
                    return
                delay = cfg.delay
                if cfg.delay_dist == EXPONENTIAL and delay:
                    delay = rng.expovariate(1.0 / delay)
                release = now + delay
                if not cfg.reorder:
                    release = max(release, last_release[direction])
                    last_release[direction] = release
                counter += 1
                heapq.heappush(heap, (release, counter, direction, out_sock, out_addr, data))

            def release_due(now):
                while heap and heap[0][0] <= now:
                    _, _, direction, out_sock, out_addr, data = heapq.heappop(heap)
                    if _send(out_sock, data, out_addr, lost):
                        stats.forwarded[direction] += 1

            def finish():
                for _, _, direction, _, _, _ in heap:
                    stats.unreleased[direction] += 1

            _session([sock_src, sock_mon], math.inf if duration is None else duration, stop,
                     lost, on_datagram, deadline=lambda: heap[0][0] if heap else math.inf,
                     fire=release_due, finish=finish)
        return 0
    except OSError as exc:
        log.error("proxy socket failure: %s", exc)
        return 1
