import csv
import logging
import math
import socket
import statistics
import threading
import time

import pytest

from agectl import transport
from agectl.csvio import ack_csv_path, read_ack_log, read_monitor_log
from agectl.transport import ProxyConfig, ProxyStats, run_monitor, run_proxy, run_source
from agectl.wire import AckPacket, UpdatePacket, decode_ack, decode_update, encode_ack, encode_update

HOST = "127.0.0.1"


def free_port():
    s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    s.bind((HOST, 0))
    port = s.getsockname()[1]
    s.close()
    return port


def start_proxy(cfg, duration):
    stats = ProxyStats()
    stop = threading.Event()
    thread = threading.Thread(target=run_proxy, args=(cfg,),
                              kwargs=dict(duration=duration, stop=stop, stats=stats))
    thread.start()
    return thread, stop, stats


def await_forwarding(sender, sink, listen, stats):
    """Probe the proxy until it forwards; leave `sink` empty and non-blocking.

    Probes go out one at a time until the latest one reaches the sink. With
    reordering off the proxy keeps FIFO order, so every earlier probe it took
    in has reached the sink before that one and has been read. Returns the
    forward-direction (received, forwarded) counts once the proxy has caught
    up, so that a test can count exactly what it sends after this.
    """
    deadline = time.monotonic() + 5.0
    sink.settimeout(0.05)
    probe = 0
    while True:
        assert time.monotonic() < deadline, "proxy forwarded no probe"
        tag = b"probe" + probe.to_bytes(4, "big")
        sender.sendto(tag, (HOST, listen))
        try:
            while sink.recvfrom(2048)[0] != tag:
                pass
            break
        except socket.timeout:
            probe += 1
    while stats.forwarded[0] != stats.received[0]:
        assert time.monotonic() < deadline, "proxy holds a probe"
        time.sleep(0.001)
    sink.setblocking(False)
    return stats.received[0], stats.forwarded[0]


def send_and_collect(sender, sink, listen, n, gap):
    """Send datagrams 0..n-1, `gap` seconds apart, to the proxy at `listen`.

    Returns the numbers read back at the non-blocking `sink`, in arrival
    order. The sink is read after every send, not only at the end: its
    receive buffer holds fewer small datagrams than a test sends, and the
    kernel drops the overflow.
    """
    seen = []

    def drain():
        while True:
            try:
                data, _ = sink.recvfrom(2048)
            except BlockingIOError:
                return
            seen.append(int.from_bytes(data, "big"))

    for i in range(n):
        sender.sendto(i.to_bytes(4, "big"), (HOST, listen))
        time.sleep(gap)
        drain()
    deadline = time.monotonic() + 1.0
    while len(seen) < n and time.monotonic() < deadline:
        time.sleep(0.01)
        drain()
    return seen


class TestProxy:
    def test_zero_loss_conserves_datagrams(self):
        listen, sink_port = free_port(), free_port()
        cfg = ProxyConfig(listen=f"{HOST}:{listen}", forward=f"{HOST}:{sink_port}",
                          delay=0.0, loss=0.0, seed=1)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sink, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            sink.bind((HOST, sink_port))
            thread, stop, stats = start_proxy(cfg, duration=5.0)
            try:
                received0, forwarded0 = await_forwarding(sender, sink, listen, stats)
                n = 300
                got = len(send_and_collect(sender, sink, listen, n, gap=0.001))
            finally:
                stop.set()
                thread.join()
        assert got == n
        assert stats.received[0] - received0 == n and stats.forwarded[0] - forwarded0 == n

    def test_heavy_loss_both_ways_quarter_delivery(self):
        # loss 0.5 each way: P(update and its echo both survive) = 0.25
        listen, echo_port = free_port(), free_port()
        cfg = ProxyConfig(listen=f"{HOST}:{listen}", forward=f"{HOST}:{echo_port}",
                          delay=0.0, loss=0.5, seed=1234)
        echo = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        echo.bind((HOST, echo_port))
        echo.setblocking(False)
        thread, stop, stats = start_proxy(cfg, duration=30.0)
        time.sleep(0.2)  # let the proxy bind; the bound below absorbs a late one
        client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        client.bind((HOST, 0))
        client.setblocking(False)

        n = 10_000
        returned = 0
        payload = bytes(16)

        def pump_echo():
            while True:
                try:
                    data, addr = echo.recvfrom(2048)
                    echo.sendto(data, addr)
                except BlockingIOError:
                    return

        for i in range(n):
            client.sendto(payload, (HOST, listen))
            if i % 10 == 0:
                time.sleep(0.0008)
            pump_echo()
            while True:
                try:
                    client.recvfrom(2048)
                    returned += 1
                except BlockingIOError:
                    break
        deadline = time.time() + 2.0
        while time.time() < deadline:
            pump_echo()
            try:
                client.recvfrom(2048)
                returned += 1
            except BlockingIOError:
                time.sleep(0.01)
        stop.set()
        thread.join()
        p = 0.25
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(returned / n - p) < 3 * sigma + 0.01, returned / n

    def test_fifo_preserved_without_reorder(self):
        listen, sink_port = free_port(), free_port()
        cfg = ProxyConfig(listen=f"{HOST}:{listen}", forward=f"{HOST}:{sink_port}",
                          delay=0.004, delay_dist="exponential", loss=0.0,
                          reorder=False, seed=5)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sink, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            sink.bind((HOST, sink_port))
            thread, stop, stats = start_proxy(cfg, duration=10.0)
            try:
                await_forwarding(sender, sink, listen, stats)
                n = 200
                seen = send_and_collect(sender, sink, listen, n, gap=0.0005)
            finally:
                stop.set()
                thread.join()
        assert len(seen) == n
        assert seen == sorted(seen)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ProxyConfig(listen="a:1", forward="b:2", delay=-0.1)
        with pytest.raises(ValueError):
            ProxyConfig(listen="a:1", forward="b:2", loss=1.0)
        with pytest.raises(ValueError):
            ProxyConfig(listen="a:1", forward="b:2", delay_dist="gamma")


class TestLiveEndpoints:
    def test_zero_duration_writes_header_only(self, tmp_path):
        out = tmp_path / "src.csv"
        rc = run_source(f"{HOST}:{free_port()}", "constant:10", 0.0, str(out))
        assert rc == 0
        rows = list(csv.reader(open(out)))
        assert rows == [["k", "t_k", "lambda", "action", "b_star", "b_k",
                         "delta_k", "flag", "gamma"]]
        assert read_ack_log(ack_csv_path(out)) == []

    def test_monitor_zero_duration(self, tmp_path):
        out = tmp_path / "mon.csv"
        rc = run_monitor(f"{HOST}:{free_port()}", 0.0, str(out))
        assert rc == 0
        assert read_monitor_log(out) == []

    def test_monitor_acks_in_order_and_discards_stale(self, tmp_path):
        port = free_port()
        out = tmp_path / "mon.csv"
        t = threading.Thread(target=run_monitor, args=(f"{HOST}:{port}", 1.5, str(out)))
        t.start()
        time.sleep(0.2)
        client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        client.bind((HOST, 0))
        client.settimeout(0.5)
        acked = []
        for seq in (0, 2, 1, 3):
            client.sendto(encode_update(UpdatePacket(seq=seq, gen_ts=seq * 1000)),
                          (HOST, port))
            try:
                data, _ = client.recvfrom(2048)
                acked.append(decode_ack(data).seq)
            except socket.timeout:
                pass
        client.sendto(b"\x00garbage", (HOST, port))  # malformed: ignored
        client.sendto(encode_update(UpdatePacket(seq=4, gen_ts=4000)), (HOST, port))
        data, _ = client.recvfrom(2048)
        acked.append(decode_ack(data).seq)
        t.join()
        assert acked == [0, 2, 3, 4]  # seq 1 was stale: no ack
        rows = read_monitor_log(out)
        assert [s for _, s, _ in rows] == [0, 2, 3, 4]

    def test_source_against_scripted_monitor(self, tmp_path):
        src_port, mon_port = free_port(), free_port()
        out = tmp_path / "src.csv"
        mon = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        mon.bind((HOST, mon_port))
        mon.settimeout(2.0)
        done = threading.Event()

        def monitor_loop():
            while not done.is_set():
                try:
                    data, addr = mon.recvfrom(65535)
                except socket.timeout:
                    return
                pkt = decode_update(data)
                mon.sendto(encode_ack(AckPacket(seq=pkt.seq, gen_ts=pkt.gen_ts)), addr)

        t = threading.Thread(target=monitor_loop)
        t.start()
        rc = run_source(f"{HOST}:{mon_port}", "constant:100", 1.5, str(out),
                        listen=f"{HOST}:{src_port}")
        done.set()
        t.join()
        assert rc == 0
        acks = read_ack_log(ack_csv_path(out))
        assert len(acks) > 100
        assert all(rtt < 0.05 for _, _, rtt in acks)

    def test_forged_ack_is_dropped_and_logs_survive(self, tmp_path, monkeypatch):
        made = []
        monkeypatch.setattr(transport, "make_source", _keeping(made, transport.make_source))
        src_port, mon_port = free_port(), free_port()
        out = tmp_path / "src.csv"
        status = {}

        def source_main():
            status["rc"] = run_source(f"{HOST}:{mon_port}", "constant:50", 1.0, str(out),
                                      listen=f"{HOST}:{src_port}")

        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as mon:
            mon.bind((HOST, mon_port))
            mon.settimeout(1.0)
            t = threading.Thread(target=source_main)
            t.start()
            try:
                data, addr = mon.recvfrom(65535)
                first = decode_update(data)
                # a sent seq with a gen_ts far in the future, from another socket
                forged = encode_ack(AckPacket(seq=first.seq, gen_ts=10**12))
                assert len(forged) == 17
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as attacker:
                    attacker.sendto(forged, addr)
                mon.sendto(encode_ack(AckPacket(seq=first.seq, gen_ts=first.gen_ts)), addr)
                while True:
                    try:
                        data, addr = mon.recvfrom(65535)
                    except socket.timeout:
                        break
                    pkt = decode_update(data)
                    mon.sendto(encode_ack(AckPacket(seq=pkt.seq, gen_ts=pkt.gen_ts)), addr)
            finally:
                t.join()
        assert status == {"rc": 0}
        assert made[0].violations == 1
        acks = read_ack_log(ack_csv_path(out))
        assert acks[0][1] == first.seq and all(0 <= rtt < 1.0 for _, _, rtt in acks)
        assert out.exists()

    def test_session_ends_cleanly_when_the_seq_space_runs_out(self, tmp_path, monkeypatch,
                                                              caplog):
        made = []
        factory = transport.make_source

        def near_the_end(*args, **kw):
            made.append(factory(*args, **kw))
            made[-1].next_seq = 2**32 - 3
            return made[-1]

        monkeypatch.setattr(transport, "make_source", near_the_end)
        mon_port = free_port()
        out = tmp_path / "src.csv"
        received = []

        def monitor_loop(mon):
            while True:
                try:
                    data, addr = mon.recvfrom(65535)
                except socket.timeout:
                    return
                pkt = decode_update(data)
                received.append(pkt.seq)
                mon.sendto(encode_ack(AckPacket(seq=pkt.seq, gen_ts=pkt.gen_ts)), addr)

        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as mon:
            mon.bind((HOST, mon_port))
            mon.settimeout(1.0)
            t = threading.Thread(target=monitor_loop, args=(mon,))
            t.start()
            start = time.monotonic()
            try:
                with caplog.at_level(logging.WARNING, logger=transport.__name__):
                    rc = run_source(f"{HOST}:{mon_port}", "constant:200", 5.0, str(out))
                elapsed = time.monotonic() - start
            finally:
                t.join()
        assert rc == 0 and elapsed < 2.0
        # seq 2**32 does not fit the wire's 32-bit field, so the session ends before it
        assert received == [2**32 - 3, 2**32 - 2, 2**32 - 1]
        assert "session ended early" in caplog.text
        acks = read_ack_log(ack_csv_path(out))
        assert [seq for _, seq, _ in acks] == [seq for _, seq, _ in made[0].ack_log]
        assert out.exists()

    def test_refused_peer_does_not_end_the_session(self, tmp_path):
        # nothing listens on the peer port; an unconnected socket never sees
        # the ICMP port-unreachable replies
        out = tmp_path / "src.csv"
        assert run_source(f"{HOST}:{free_port()}", "constant:200", 0.3, str(out)) == 0
        assert out.exists() and read_ack_log(ack_csv_path(out)) == []

    def test_acp_source_on_loopback_rate_clamps(self, tmp_path):
        mon_port = free_port()
        out = tmp_path / "src.csv"
        mon_out = tmp_path / "mon.csv"
        tm = threading.Thread(target=run_monitor,
                              args=(f"{HOST}:{mon_port}", 2.6, str(mon_out)))
        tm.start()
        time.sleep(0.2)
        rc = run_source(f"{HOST}:{mon_port}", "acp+", 2.2, str(out))
        tm.join()
        assert rc == 0
        acks = read_ack_log(ack_csv_path(out))
        # the median, not every RTT: one host stall must not fail a loopback run
        assert acks and statistics.median(rtt for _, _, rtt in acks) < 0.05
        rows = list(csv.DictReader(open(out)))
        rates = [float(r["lambda"]) for r in rows if r["action"] not in ("hold", "init")]
        for prev, cur in zip(rates, rates[1:]):
            assert 0.75 * prev - 1e-6 <= cur <= 1.25 * prev + 1e-6

    def test_unreachable_peer_stalls_cleanly(self, tmp_path):
        out = tmp_path / "src.csv"
        # 203.0.113.0/24 is reserved for documentation: nothing answers
        rc = run_source("203.0.113.1:9", "acp+", 0.5, str(out))
        assert rc == 0
        assert read_ack_log(ack_csv_path(out)) == []


def _keeping(made, factory):
    def build(*args, **kw):
        made.append(factory(*args, **kw))
        return made[-1]
    return build
