"""The benchmark's traced run still finds every agectl name it patches.

`perfbench/run.py --trace 1` wraps agectl's layer functions in timing spans
by looking them up by name (`instrument()`), and the live workload swaps
`transport.make_source` and `transport.Monitor`. A refactor that renames or
removes one of them breaks the benchmark without failing any other test.
This runs `instrument()` around one small simulation and its run summary,
checks that every layer it patches was entered, and that `restore()` puts
the originals back. The summary enters `cli.summarize` once per endpoint
log, the monitor's and the ACK log of each source, so the traced run's
`metrics.summarize.s` is both logs' figures and holds no age integral.
A short loopback session checks that the live endpoints look up each name
the benchmark swaps or wraps on `transport` at call time, not at import.
The stations schedule no events of their own, so the `netsim.station` span
must stay empty, while `timed_push` still looks up `netsim.StationQueue`.
`observed_simulation` reads counts from each `run_simulation` result by
attribute name, so it runs here too.
"""

import sys
import threading
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402

from agectl import cli, endpoints, estimation, netsim, transport  # noqa: E402

SPANS = (
    "endpoints.fire", "endpoints.on_ack", "endpoints.monitor_on_update",
    "estimation.record_ack", "estimation.age_average", "estimation.backlog_average",
    "controller.control_step", "controller.update_lambda",
    "netsim.channel", "netsim.timer", "netsim.delivery", "metrics.summarize",
)


def small_config():
    station = netsim.StationConfig(service=netsim.EXPONENTIAL, rate=3e6, buffer=8,
                                   prop_delay=0.002)
    return netsim.SimConfig(
        stations=(station,), n_sources=3, protocol="acp+,lazy,poisson:40", duration=3.0,
        seed=5, multiaccess=netsim.MultiaccessConfig(slot=2.5e-4), record_trace=False,
    )


def test_instrument_spans_every_layer_and_restores():
    patched = [
        (netsim.EventQueue, "push"), (endpoints.SourceBase, "on_ack"),
        (estimation.EpochWindow, "age_average"), (estimation.EpochWindow, "backlog_average"),
        (endpoints, "control_step"), (transport, "encode_update"), (transport, "decode_ack"),
        (cli, "summarize"), (cli, "write_rows"),
    ]
    originals = [getattr(owner, name) for owner, name in patched]
    tracer = Tracer()
    bench.instrument(tracer)
    try:
        cli.summarize_run(netsim.run_simulation(small_config()), 0.1)
    finally:
        tracer.restore()
    totals = tracer.totals()
    assert [span for span in SPANS if totals.get(span, (0,))[0] == 0] == []
    assert totals["metrics.summarize"][0] == 2 * small_config().n_sources
    assert totals.get("netsim.station", (0,))[0] == 0
    assert hasattr(netsim, "StationQueue")
    assert [getattr(owner, name) for owner, name in patched] == originals


def test_observed_simulation_reads_the_result_names():
    # the traced run counts these from every run_simulation result it sees
    tracer = Tracer()
    result = bench.observed_simulation(tracer, netsim.run_simulation)(small_config())
    counts = dict(tracer.counts)
    assert tracer.totals()["netsim.run_simulation"][0] == 1
    assert counts["netsim.generated"] == sum(source.next_seq for source in result.sources)
    # each update delivered or dropped in the run went through a counted frame
    finished = sum(result.delivered) + counts["netsim.dropped"]
    assert finished <= counts["netsim.channel.successes"] <= counts["netsim.generated"]
    assert counts["netsim.channel.lost"] <= counts["netsim.dropped"]
    assert counts["netsim.channel.collisions"] > 0
    assert counts == {
        "netsim.generated": sum(result.generated),
        "netsim.dropped": sum(result.dropped),
        "netsim.channel.successes": len(result.channel.access_delays),
        "netsim.channel.collisions": result.channel.collisions,
        "netsim.channel.lost": result.channel.lost,
    }


def test_live_workload_names_exist():
    # loopback_session() replaces these two module globals to keep the objects
    assert transport.make_source is endpoints.make_source
    assert transport.Monitor is endpoints.Monitor


def test_a_live_session_enters_every_name_the_benchmark_replaces(tmp_path, monkeypatch):
    # loopback_session() swaps the two factories and instrument() wraps the four codecs
    names = ("make_source", "Monitor", "encode_update", "decode_update", "encode_ack",
             "decode_ack")
    entered = Counter()

    def counting(name, fn):
        def wrapper(*args, **kw):
            entered[name] += 1
            return fn(*args, **kw)
        return wrapper

    for name in names:
        monkeypatch.setattr(transport, name, counting(name, getattr(transport, name)))
    port = bench.wl.free_udp_port()
    peer = (bench.wl.LOOPBACK_HOST, port)
    stop = threading.Event()
    monitor = threading.Thread(target=transport.run_monitor,
                               args=(peer, 10.0, str(tmp_path / "monitor.csv"), stop))
    monitor.start()
    try:
        bench.wl.wait_port_bound(port)
        assert transport.run_source(peer, "constant:100", 0.3, str(tmp_path / "source.csv")) == 0
    finally:
        stop.set()
        monitor.join(timeout=10.0)
    assert not monitor.is_alive()
    assert [name for name in names if not entered[name]] == []
