import csv
import logging
import math
import os
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import agectl
from agectl import transport
from agectl.csvio import ack_csv_path, read_log
from agectl.transport import ProxyConfig, ProxyStats, run_monitor, run_proxy, run_source
from agectl.wire import AckPacket, UpdatePacket, decode_ack, decode_update, encode_ack, encode_update

HOST = "127.0.0.1"


def read_rows(path):
    """An endpoint log's rows as tuples."""
    return list(zip(*read_log(path)))


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

    Probes go out one at a time until the latest one reaches the sink. Once
    the proxy has forwarded every probe it took in, the sink is drained of
    any earlier probe that a reordering proxy released late. Returns the
    forward-direction (received, forwarded) counts at that point, so that a
    test can count exactly what it sends after this.
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
    while True:
        try:
            sink.recvfrom(2048)
        except BlockingIOError:
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

    @pytest.mark.parametrize("reorder", [False, True])
    def test_fifo_preserved_without_reorder(self, reorder):
        listen, sink_port = free_port(), free_port()
        cfg = ProxyConfig(listen=f"{HOST}:{listen}", forward=f"{HOST}:{sink_port}",
                          delay=0.004, delay_dist="exponential", loss=0.0,
                          reorder=reorder, seed=5)
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
        assert sorted(seen) == list(range(n))
        # 4 ms mean delays on sends 0.5 ms apart overtake unless the proxy holds them back
        assert (seen == sorted(seen)) is not reorder

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ProxyConfig(listen="a:1", forward="b:2", delay=-0.1)
        with pytest.raises(ValueError):
            ProxyConfig(listen="a:1", forward="b:2", loss=1.0)
        with pytest.raises(ValueError):
            ProxyConfig(listen="a:1", forward="b:2", delay_dist="gamma")
        with pytest.raises(ValueError):
            ProxyConfig(listen="a:1", forward="b:2", delay=math.nan)
        with pytest.raises(ValueError):
            ProxyConfig(listen="a:1", forward="b:2", delay=math.inf)

    def test_a_refused_send_is_counted_not_forwarded(self, caplog):
        listen = free_port()
        # without SO_BROADCAST the host refuses each send (EACCES) before anything leaves it
        cfg = ProxyConfig(listen=f"{HOST}:{listen}", forward="255.255.255.255:9", seed=1)
        stats = ProxyStats()
        proxy = threading.Thread(target=run_proxy, args=(cfg,),
                                 kwargs=dict(duration=0.3, stats=stats))
        with caplog.at_level(logging.WARNING, logger="agectl.transport"), \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            proxy.start()
            while proxy.is_alive():  # sent before the proxy binds, or after it ends, is lost
                sender.sendto(b"update", (HOST, listen))
                time.sleep(0.005)
            proxy.join()
        received = stats.received[0]
        assert received > 0 and stats.forwarded == [0, 0] and stats.dropped == [0, 0]
        # with no delay, every datagram taken in was released, and refused, before the end
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
            f"{received} datagrams not sent ({received} Permission denied)"]

    def test_every_datagram_received_is_accounted_for_at_exit(self):
        # 200 ms each way and a 0.5 s session: datagrams are still held at the end
        listen, mon_port = free_port(), free_port()
        cfg = ProxyConfig(listen=f"{HOST}:{listen}", forward=f"{HOST}:{mon_port}",
                          delay=0.2, loss=0.2, seed=7)
        stop = threading.Event()
        monitor = threading.Thread(target=run_monitor,
                                   args=(f"{HOST}:{mon_port}", 10.0, os.devnull, stop))
        stats = ProxyStats()
        proxy = threading.Thread(target=run_proxy, args=(cfg,),
                                 kwargs=dict(duration=0.5, stats=stats))
        monitor.start()
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
                proxy.start()
                seq = 0
                while proxy.is_alive():  # sent before the proxy binds is lost
                    sender.sendto(encode_update(UpdatePacket(seq=seq, gen_ts=seq)),
                                  (HOST, listen))
                    seq += 1
                    time.sleep(0.005)
                proxy.join()
        finally:
            stop.set()
            monitor.join()
        for d in (0, 1):
            assert stats.received[d] == (stats.forwarded[d] + stats.dropped[d]
                                         + stats.unreleased[d]), d
            assert stats.forwarded[d] > 0 and stats.dropped[d] > 0 and stats.unreleased[d] > 0


TIMERSLACK = Path("/proc/self/timerslack_ns")  # the main thread's, where pytest runs tests


def timer_slack():
    return int(TIMERSLACK.read_text())


@pytest.mark.skipif(not TIMERSLACK.exists(), reason="no per-thread timer slack here")
class TestTimerSlack:
    def test_a_source_runs_with_1_ns_slack_and_restores_it(self, tmp_path, monkeypatch):
        during = []
        factory = transport.make_source

        def make_source(*args, **kw):
            source = factory(*args, **kw)
            fire = source.fire
            source.fire = lambda now: during.append(timer_slack()) or fire(now)
            return source

        monkeypatch.setattr(transport, "make_source", make_source)
        before = timer_slack()
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as silent:
            silent.bind((HOST, 0))
            assert run_source(f"{HOST}:{silent.getsockname()[1]}", "constant:200", 0.2,
                              str(tmp_path / "src.csv")) == 0
        assert before != 1 and during and set(during) == {1}
        assert timer_slack() == before

    def test_a_monitor_leaves_the_slack_as_it_was(self, tmp_path, monkeypatch):
        during = []

        class Monitor(transport.Monitor):
            def on_update(self, pkt, now):
                during.append(timer_slack())
                return super().on_update(pkt, now)

        monkeypatch.setattr(transport, "Monitor", Monitor)
        before = timer_slack()
        port = free_port()
        done = threading.Event()

        def feed():
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
                seq = 0
                while not done.is_set():  # sent before the monitor binds is lost
                    client.sendto(encode_update(UpdatePacket(seq=seq, gen_ts=seq)), (HOST, port))
                    seq += 1
                    time.sleep(0.005)

        feeder = threading.Thread(target=feed)
        feeder.start()
        try:
            assert run_monitor(f"{HOST}:{port}", 0.3, str(tmp_path / "mon.csv")) == 0
        finally:
            done.set()
            feeder.join()
        assert during and set(during) == {before}
        assert timer_slack() == before

    def test_without_prctl_a_session_runs_as_before(self, tmp_path, monkeypatch, caplog):
        import ctypes

        def no_libc(*args, **kw):
            raise OSError("no libc")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        before = timer_slack()
        with caplog.at_level(logging.DEBUG, logger="agectl.transport"), \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as silent:
            silent.bind((HOST, 0))
            assert run_source(f"{HOST}:{silent.getsockname()[1]}", "constant:200", 0.1,
                              str(tmp_path / "src.csv")) == 0
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG] == [
            "timer slack left as it is: no libc"]
        assert timer_slack() == before


def modules_loaded_by(statement):
    """Names that `statement` adds to sys.modules in a fresh interpreter."""
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             f"{statement}\n"
             "print(*sorted(set(sys.modules) - before))\n")
    src = str(Path(agectl.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_importing_the_cli_and_transport_loads_no_ctypes():
    # only a timed session needs ctypes; the CLI's start-up does not pay for it
    loaded = modules_loaded_by("import agectl.cli, agectl.transport")
    assert "agectl.transport" in loaded
    assert not [name for name in loaded if "ctypes" in name]


def test_importing_transport_loads_no_dataclasses():
    # packets and ProxyConfig are plain classes, so the live path skips
    # dataclasses and the inspect and ast modules it pulls in
    loaded = modules_loaded_by("import agectl.transport")
    assert "agectl.transport" in loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_a_session_fires_only_when_its_deadline_is_due():
    calls = Counter()

    def on_datagram(sock, data, addr, now):
        calls["datagram"] += 1

    def fire(now):
        calls["fire"] += 1

    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client, \
            transport._bound_socket((HOST, 0)) as sock:
        client.sendto(b"early", sock.getsockname())  # waits in the buffer for the first pass
        transport._session([sock], 0.4, None, Counter(), on_datagram,
                           deadline=lambda: 0.1 if calls["fire"] == 0 else math.inf,
                           fire=fire)
    assert calls == {"datagram": 1, "fire": 1}


def test_timer_lateness_is_logged_once_per_timed_session(tmp_path, monkeypatch, caplog):
    due = []
    factory = transport.make_source

    def make_source(*args, **kw):
        source = factory(*args, **kw)
        fire = source.fire

        def counting(now):
            due.append(now >= source.deadline())
            return fire(now)

        source.fire = counting
        return source

    monkeypatch.setattr(transport, "make_source", make_source)
    with caplog.at_level(logging.INFO, logger="agectl.transport"), \
            socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as silent:
        silent.bind((HOST, 0))
        assert run_source(f"{HOST}:{silent.getsockname()[1]}", "constant:200", 0.3,
                          str(tmp_path / "src.csv")) == 0
    [line] = [r.getMessage() for r in caplog.records if "timer lateness" in r.getMessage()]
    passes = sum(due) - 1  # start(0.0) sends the first update through fire, not a pass
    assert passes >= 10  # about 60 sends in 0.3 s
    assert line.startswith(f"timer lateness over {passes} due passes: p50 < ")


def test_lateness_quantiles_are_bucket_upper_edges():
    # bucket b holds the lateness of whole µs with bit length b: [2^(b-1), 2^b) µs
    assert transport._lateness_summary(Counter()) == "timer lateness over 0 due passes"
    late = Counter({0: 1, 7: 98, 11: 1})
    assert transport._lateness_summary(late) == (
        "timer lateness over 100 due passes: p50 < 128 us, p99 < 128 us")
    late[11] += 1
    assert transport._lateness_summary(late).endswith("p99 < 2048 us")


class TestLiveEndpoints:
    def test_zero_duration_writes_header_only(self, tmp_path):
        out = tmp_path / "src.csv"
        rc = run_source(f"{HOST}:{free_port()}", "constant:10", 0.0, str(out))
        assert rc == 0
        rows = list(csv.reader(open(out)))
        assert rows == [["k", "t_k", "lambda", "action", "b_star", "b_k",
                         "delta_k", "flag", "gamma"]]
        assert read_rows(ack_csv_path(out)) == []

    def test_monitor_zero_duration(self, tmp_path):
        out = tmp_path / "mon.csv"
        rc = run_monitor(f"{HOST}:{free_port()}", 0.0, str(out))
        assert rc == 0
        assert read_rows(out) == []

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
        rows = read_rows(out)
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
        acks = read_rows(ack_csv_path(out))
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
        acks = read_rows(ack_csv_path(out))
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
        acks = read_rows(ack_csv_path(out))
        assert [seq for _, seq, _ in acks] == [seq for _, seq, _ in made[0].ack_log]
        assert out.exists()

    def test_refused_peer_does_not_end_the_session(self, tmp_path):
        # nothing listens on the peer port; an unconnected socket never sees
        # the ICMP port-unreachable replies
        out = tmp_path / "src.csv"
        assert run_source(f"{HOST}:{free_port()}", "constant:200", 0.3, str(out)) == 0
        assert out.exists() and read_rows(ack_csv_path(out)) == []

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
        acks = read_rows(ack_csv_path(out))
        # the median, not every RTT: one host stall must not fail a loopback run
        assert acks and statistics.median(rtt for _, _, rtt in acks) < 0.05
        rows = list(csv.DictReader(open(out)))
        rates = [float(r["lambda"]) for r in rows if r["action"] not in ("hold", "init")]
        for prev, cur in zip(rates, rates[1:]):
            assert 0.75 * prev - 1e-6 <= cur <= 1.25 * prev + 1e-6

    def test_unreachable_peer_stalls_cleanly(self, tmp_path):
        out = tmp_path / "src.csv"
        # a socket that is bound but never read: the updates land, nothing answers
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as silent:
            silent.bind((HOST, 0))
            rc = run_source(f"{HOST}:{silent.getsockname()[1]}", "acp+", 0.5, str(out))
        assert rc == 0
        assert read_rows(ack_csv_path(out)) == []

    def test_a_failed_update_send_is_a_lost_update(self, tmp_path, caplog):
        out = tmp_path / "src.csv"
        # without SO_BROADCAST the host refuses each send (EACCES) before anything leaves it
        with caplog.at_level(logging.WARNING, logger="agectl.transport"):
            rc = run_source("255.255.255.255:9", "constant:200", 0.3, str(out))
        assert rc == 0
        assert list(csv.reader(open(out)))[0][0] == "k"
        assert read_rows(ack_csv_path(out)) == []
        [warning] = [r.getMessage() for r in caplog.records if "not sent" in r.getMessage()]
        assert int(warning.split()[0]) >= 10  # about 60 sends in 0.3 s, each counted once

    def test_a_failed_ack_send_is_a_lost_ack(self, tmp_path, caplog, monkeypatch):
        # an ACK too large for one datagram: the host refuses each send (EMSGSIZE)
        monkeypatch.setattr(transport, "encode_ack", lambda ack: bytes(70_000))
        port = free_port()
        out = tmp_path / "mon.csv"
        status = []
        t = threading.Thread(target=lambda: status.append(
            run_monitor(f"{HOST}:{port}", 0.5, str(out))))
        with caplog.at_level(logging.WARNING, logger="agectl.transport"), \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
            t.start()
            seq = 0
            while t.is_alive():
                client.sendto(encode_update(UpdatePacket(seq=seq, gen_ts=seq)), (HOST, port))
                seq += 1
                time.sleep(0.01)
            t.join()
        assert status == [0]
        delivered = len(read_rows(out))
        assert delivered >= 1
        [warning] = [r.getMessage() for r in caplog.records if "not sent" in r.getMessage()]
        assert warning == f"{delivered} datagrams not sent ({delivered} Message too long)"


def _keeping(made, factory):
    def build(*args, **kw):
        made.append(factory(*args, **kw))
        return made[-1]
    return build
