"""Benchmark for agectl: three workloads, their end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the repository root; it imports agectl from `src/`. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end_to_end
ones of BENCHMARK.json, measured over `--seconds` seconds; with `--trace 1`
they are its per_layer ones, from one traced round (see README.md). A copy
of each result, with the commit, nproc and Python version, goes to
`perfbench/results/`. `--workload all` runs every workload in a process
of its own, first untraced and then traced.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import checks
import workloads as wl
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
RESULTS_DIR = BENCH_DIR / "results"

SETUP_PROBES = 7
DRAIN_TIMEOUT = 2.0  # seconds the monitor gets to take in the last updates sent
MIN_DELAY = checks.fixed_path_delay(wl.LINK_RATE, wl.STATION_RATE, wl.PROP_DELAY)

# A traced run measures every layer its workload enters; a layer it never
# enters is measured in the same run on the workload named here.
HOME = {
    "netsim": wl.TREND, "endpoints": wl.TREND, "estimation": wl.TREND,
    "controller": wl.TREND, "metrics": wl.TREND, "csvio": wl.TREND, "cli": wl.TREND,
    "wire": wl.LOOPBACK, "transport": wl.LOOPBACK,
}

# per-layer metric -> spans whose time is summed, per call of the first span
SPAN_MEANS = {
    "endpoints.on_ack.us": ("endpoints.on_ack",),
    "endpoints.fire.us": ("endpoints.fire",),
    "endpoints.monitor_on_update.us": ("endpoints.monitor_on_update",),
    "estimation.record_ack.us": ("estimation.record_ack",),
    "estimation.epoch_close.us": ("estimation.age_average", "estimation.backlog_average"),
    "controller.control_step.us": ("controller.control_step",),
    "controller.update_lambda.us": ("controller.update_lambda",),
    "wire.encode_update.us": ("wire.encode_update",),
    "wire.decode_update.us": ("wire.decode_update",),
    "wire.encode_ack.us": ("wire.encode_ack",),
    "wire.decode_ack.us": ("wire.decode_ack",),
}
EVENT_OWNERS = ("station", "channel", "timer", "delivery")


class Tally:
    """What one phase of a run did, and what its checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.delivered = 0
        self.busy_s = 0.0  # host seconds spent inside the program
        self.cpu_s = 0.0
        # one median per round: a list of every sample would grow with the
        # number of rounds, and so would peak memory
        self.rtt_medians = []

    @contextlib.contextmanager
    def timed(self):
        cpu, start = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            self.busy_s += time.perf_counter() - start
            self.cpu_s += time.process_time() - cpu


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def csv_row_count(path):
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def tree_digest(top):
    """sha256 over every file's relative path and bytes under `top`."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(top).rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# -- trend-n48: `agectl simulate` on the criterion-6 multiaccess spec


def trend_round(seed, work, tally):
    """One round (acp+ and lazy) through cli.cmd_simulate; checks it, returns its digest."""
    from agectl import cli

    work.mkdir(parents=True, exist_ok=True)
    spec_path = work / "spec.txt"
    spec_path.write_text(wl.trend_spec(seed))
    with tally.timed(), contextlib.redirect_stdout(io.StringIO()):
        cli.cmd_simulate(str(spec_path), str(work / "runs"), jobs=1)
    exp = work / "runs" / wl.TREND
    runs = checks.read_csv(exp / "runs.csv")
    tally.attempted += len(wl.PROTOCOLS)
    tally.failed += len(wl.PROTOCOLS) - len(runs)
    summaries, rtts = {}, []
    for row in runs:
        proto = row["protocol"]
        run_dir = exp / f"sources-{wl.TREND_SOURCES:03d}" / proto.replace(":", "-") / "rep00"
        problems, summaries[proto] = checks.check_trend_run(
            run_dir, wl.TREND_SOURCES, wl.TREND_DURATION, wl.WARMUP_FRAC, wl.PAYLOAD_BYTES,
            MIN_DELAY)
        tally.problems += problems
        for i in range(wl.TREND_SOURCES):
            tally.delivered += csv_row_count(run_dir / f"monitor_{i:03d}.csv")
            rtts += [rtt for _, _, rtt in checks.ack_rows(run_dir / f"acks_{i:03d}.csv")]
    if rtts:
        tally.rtt_medians.append(statistics.median(rtts))
    if len(summaries) == len(wl.PROTOCOLS):
        tally.problems += checks.check_acp_beats_lazy(
            f"trend seed {seed}", summaries["acp+"], summaries["lazy"],
            ("avg_age_ms", "backlog_avg"))
    return tree_digest(exp)


# -- crowd-n768: netsim.run_simulation with 768 sources on the same channel


def crowd_round(seed, work, tally):
    """One round (acp+ and lazy) through netsim.run_simulation; checks it, returns its digest."""
    from agectl import netsim

    digest = hashlib.sha256()
    ages, rtts = {}, []
    t0, t1 = wl.WARMUP_FRAC * wl.CROWD_DURATION, wl.CROWD_DURATION
    for proto in wl.PROTOCOLS:
        cfg = wl.crowd_config(netsim, seed, proto)
        tally.attempted += 1
        try:
            with tally.timed():
                result = netsim.run_simulation(cfg)
        except Exception:  # a failed simulation is counted, and the round goes on
            tally.failed += 1
            print(f"FAILED crowd seed {seed} {proto}:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        per_source = []
        for i, monitor in enumerate(result.monitors):
            log = monitor.delivery_log
            tally.problems += checks.check_deliveries(f"crowd {proto} source {i}", log, MIN_DELAY)
            # every source generates its first update at t = 0
            per_source.append(checks.sawtooth_average([(r, g / 1e9) for r, _, g in log], t0, t1, 0.0))
            tally.delivered += len(log)
        ages[proto] = {"avg_age": sum(per_source) / len(per_source)}
        tally.problems += checks.check_conservation(
            result.generated, result.delivered, result.dropped, result.resident_census())
        rtts += [rtt for source in result.sources for _, _, rtt in source.ack_log]
        digest.update(repr((
            result.generated, result.delivered, result.dropped,
            [m.delivery_log for m in result.monitors],
            [(s.ack_log, s.backlog_trace, s.epoch_rows) for s in result.sources],
        )).encode())
        del result
    if len(ages) == len(wl.PROTOCOLS):
        tally.problems += checks.check_acp_beats_lazy(
            f"crowd seed {seed}", ages["acp+"], ages["lazy"], ("avg_age",))
    if rtts:
        tally.rtt_medians.append(statistics.median(rtts))
    return digest.hexdigest()


# -- loopback-constant: transport.run_source to transport.run_monitor over 127.0.0.1


def rcvbuf_errors():
    """System-wide UDP RcvbufErrors from /proc/net/snmp."""
    with open("/proc/net/snmp") as fh:
        udp = [line.split() for line in fh if line.startswith("Udp:")]
    return int(udp[1][udp[0].index("RcvbufErrors")])


def loopback_session(seconds, work, tally):
    """One live session, source and monitor each on a thread of this process."""
    from agectl import transport

    work.mkdir(parents=True, exist_ok=True)
    made = {}

    def keeping(key, factory):
        def build(*args, **kw):
            made[key] = factory(*args, **kw)
            return made[key]
        return build

    port = wl.free_udp_port()
    peer = (wl.LOOPBACK_HOST, port)
    mon_csv, src_csv = work / "monitor.csv", work / "source.csv"
    stop = threading.Event()
    status = {}

    def monitor_main():
        status["monitor"] = transport.run_monitor(peer, seconds + 60.0, str(mon_csv), stop)

    originals = transport.make_source, transport.Monitor
    transport.make_source = keeping("source", transport.make_source)
    transport.Monitor = keeping("monitor", transport.Monitor)
    # both threads on one CPU: wake-ups then cost the same in every session
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    monitor = threading.Thread(target=monitor_main)
    try:
        monitor.start()
        wl.wait_port_bound(port)
        drops = rcvbuf_errors()
        cpu, start = time.process_time(), time.perf_counter()
        status["source"] = transport.run_source(peer, f"constant:{wl.LOOPBACK_RATE}",
                                                seconds, str(src_csv))
        wall = time.perf_counter() - start
        sent = made["source"].next_seq
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while len(made["monitor"].delivery_log) < sent and time.monotonic() < deadline:
            time.sleep(0.001)
    finally:
        stop.set()
        monitor.join()
        os.sched_setaffinity(0, cpus)
        transport.make_source, transport.Monitor = originals
    cpu = time.process_time() - cpu
    drops = rcvbuf_errors() - drops

    mon_rows = checks.monitor_rows(mon_csv)
    acks = checks.ack_rows(work / "source_acks.csv")
    if status != {"source": 0, "monitor": 0}:
        tally.problems.append(f"live endpoints exited with {status}")
    tally.problems += checks.check_loopback(sent, mon_rows, acks, wl.LOOPBACK_RATE)
    tally.attempted += sent
    tally.failed += sent - len(mon_rows)
    tally.delivered += len(mon_rows)
    tally.busy_s += wall
    tally.cpu_s += cpu
    tally.rtt_medians.append(statistics.median(rtt for _, _, rtt in acks))
    return {"monitor": mon_rows, "acks": acks, "rcvbuf_errors": drops}


# -- end-to-end run


def measure_rounds(round_fn, seconds, seed, work, tally):
    index = 0
    while index == 0 or tally.busy_s < seconds:
        round_fn(wl.round_seed(seed, index), work / f"round{index}", tally)
        shutil.rmtree(work / f"round{index}", ignore_errors=True)
        index += 1


def measure_loopback(seconds, seed, work, tally):
    # a constant source draws nothing at random, so the seed changes no input
    sessions = max(1, round(seconds / wl.SESSION_SECONDS))
    for index in range(sessions):
        loopback_session(seconds / sessions, work / f"session{index}", tally)


MEASURE = {
    wl.TREND: functools.partial(measure_rounds, trend_round),
    wl.CROWD: functools.partial(measure_rounds, crowd_round),
    wl.LOOPBACK: measure_loopback,
}


def measure_setup(workload, work):
    """Median over fresh interpreters of the workload's set-up time."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(work), str(SRC)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(workload, seed, seconds, work):
    setup_s = measure_setup(workload, work)
    tally = Tally()
    MEASURE[workload](seconds, seed, work, tally)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not tally.delivered or not tally.rtt_medians:
        raise RuntimeError(f"{workload} delivered nothing")
    metrics = {
        "updates_per_s": tally.delivered / tally.busy_s,
        "cpu_us_per_update": tally.cpu_s / tally.delivered * 1e6,
        "rtt_p50_us": statistics.median(tally.rtt_medians) * 1e6,
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": setup_s,
    }
    extra = {"measured_s": tally.busy_s, "delivered": tally.delivered}
    return metrics, [tally], extra


# -- traced run


def instrument(tracer):
    """Put a span around each call into agectl's layers, from outside the program."""
    from agectl import cli, csvio, endpoints, estimation, netsim, transport

    tracer.patch(netsim.EventQueue, "push", wrapper=functools.partial(timed_push, tracer, netsim))
    for cls in (endpoints.ConstantSource, endpoints.LazySource, endpoints.AcpPlusSource):
        tracer.patch(cls, "fire", "endpoints.fire")
    tracer.patch(endpoints.SourceBase, "on_ack", "endpoints.on_ack")
    tracer.patch(endpoints.Monitor, "on_update", "endpoints.monitor_on_update")
    tracer.patch(estimation.NetworkEstimator, "record_ack", "estimation.record_ack")
    tracer.patch(estimation.EpochWindow, "age_average", "estimation.age_average")
    tracer.patch(estimation.EpochWindow, "backlog_average", "estimation.backlog_average")
    tracer.patch(endpoints, "control_step", "controller.control_step")
    tracer.patch(endpoints, "update_lambda", "controller.update_lambda")
    tracer.patch(cli, "summarize", "metrics.summarize")
    for module in (csvio, cli):
        tracer.patch(module, "write_rows", wrapper=functools.partial(counted_write, tracer))
    for name in ("encode_update", "decode_update", "encode_ack", "decode_ack"):
        tracer.patch(transport, name, f"wire.{name}")


def timed_push(tracer, netsim, push):
    """EventQueue.push that times each scheduled handler under the object that owns it."""
    owners = {}

    def owner(fn):
        target = getattr(fn, "__self__", None)
        if isinstance(target, netsim.StationQueue):
            return "netsim.station"
        if isinstance(target, netsim.MultiaccessChannel):
            return "netsim.channel"
        if getattr(fn, "__func__", None) is netsim._Network._timer_fire:
            return "netsim.timer"
        return "netsim.delivery"

    def traced_push(evq, time, priority, fn, *args):
        key = getattr(fn, "__func__", fn)
        name = owners.get(key)
        if name is None:
            name = owners[key] = owner(fn)
        push(evq, time, priority, functools.partial(tracer.call, name, fn), *args)

    return traced_push


def counted_write(tracer, write_rows):
    def traced_write_rows(path, columns, rows):
        rows = list(rows)
        tracer.counts["csvio.rows_written"] += len(rows)
        return tracer.call("csvio.write_rows", write_rows, path, columns, rows)
    return traced_write_rows


def observed_simulation(tracer, run_simulation):
    """run_simulation timed as a whole, with the model statistics of its result."""
    def traced_run_simulation(cfg):
        result = tracer.call("netsim.run_simulation", run_simulation, cfg)
        counts = tracer.counts
        counts["netsim.generated"] += sum(result.generated)
        counts["netsim.dropped"] += sum(result.dropped)
        counts["netsim.channel.successes"] += len(result.channel.access_delays)
        counts["netsim.channel.collisions"] += result.channel.collisions
        counts["netsim.channel.lost"] += result.channel.lost
        return result
    return traced_run_simulation


def span_metrics(tracer):
    """Per-layer metrics of every span the tracer saw called."""
    out = {}
    for metric, names in SPAN_MEANS.items():
        us = tracer.mean_us(*names)
        if us is not None:
            out[metric] = us
    totals = tracer.totals()
    if "metrics.summarize" in totals:
        out["metrics.summarize.s"] = totals["metrics.summarize"][1]
    if "csvio.write_rows" in totals:
        out["csvio.write_s"] = totals["csvio.write_rows"][1]
        out["csvio.rows_written"] = tracer.counts["csvio.rows_written"]
    return out


def sim_pass(workload, seed, work):
    """The same round untraced, then traced: per-layer metrics, overhead, identical outputs."""
    from agectl import cli, netsim

    round_fn = trend_round if workload == wl.TREND else crowd_round
    runs = {}
    for mode in ("untraced", "traced"):
        tracer = Tracer()
        for module in (cli, netsim):
            tracer.patch(module, "run_simulation",
                         wrapper=functools.partial(observed_simulation, tracer))
        if mode == "traced":
            instrument(tracer)
        tally = Tally()
        try:
            digest = round_fn(seed, work / mode, tally)
        finally:
            tracer.restore()
        runs[mode] = tracer, tally, digest

    base, base_tally, base_digest = runs["untraced"]
    tracer, tally, digest = runs["traced"]
    totals, counts = tracer.totals(), tracer.counts
    events = {k: totals.get(f"netsim.{k}", (0, 0.0, 0.0)) for k in EVENT_OWNERS}
    n_events = sum(e[0] for e in events.values())
    sim_s = base.totals()["netsim.run_simulation"][1]
    successes, collisions = counts["netsim.channel.successes"], counts["netsim.channel.collisions"]
    metrics = {
        "netsim.events_per_update": n_events / counts["netsim.generated"],
        "netsim.us_per_event": sim_s / n_events * 1e6,
        "netsim.station.events": events["station"][0],
        "netsim.station.self_s": events["station"][2],
        "netsim.channel.events": events["channel"][0],
        "netsim.channel.self_s": events["channel"][2],
        "netsim.timer.self_s": events["timer"][2],
        "netsim.delivery.self_s": events["delivery"][2],
        "netsim.channel.success_ratio": successes / (successes + collisions),
        "netsim.station.drops": counts["netsim.dropped"] - counts["netsim.channel.lost"],
    }
    if workload == wl.TREND:
        metrics["cli.post_s"] = base_tally.busy_s - sim_s
    metrics.update(span_metrics(tracer))
    identical = digest == base_digest
    if not identical:
        tally.problems.append(f"{workload}: traced outputs differ from the untraced ones")
    info = {
        "workload": workload, "seed": seed,
        "untraced_s": base_tally.busy_s, "traced_s": tally.busy_s,
        "overhead": tally.busy_s / base_tally.busy_s - 1,
        "outputs_identical": identical, "untraced_digest": base_digest, "traced_digest": digest,
        "trace": tracer.dump(),
    }
    return metrics, info, [base_tally, tally]


def loopback_pass(seed, work):
    """An untraced session for the transport figures, then a traced one for the spans."""
    base = Tally()
    session = loopback_session(wl.SESSION_SECONDS, work / "untraced", base)
    tracer = Tracer()
    instrument(tracer)
    tally = Tally()
    try:
        loopback_session(wl.SESSION_SECONDS, work / "traced", tally)
    finally:
        tracer.restore()
    rows = session["monitor"]
    interval_us = 1e6 / wl.LOOPBACK_RATE
    lateness = [(b[2] - a[2]) / 1e3 - interval_us for a, b in zip(rows, rows[1:])]
    acks = session["acks"]
    rtt_samples = [(t, t - rtt) for t, _, rtt in acks]
    first, last = acks[0][0], acks[-1][0]
    start = first + wl.WARMUP_FRAC * (last - first)
    metrics = {
        "transport.send_lateness_p50_us": quantile(lateness, 0.5),
        "transport.send_lateness_p99_us": quantile(lateness, 0.99),
        "transport.rtt_p99_us": quantile([a[2] for a in acks], 0.99) * 1e6,
        "transport.age_us": checks.sawtooth_average(rtt_samples, start, last,
                                                    rtt_samples[0][1]) * 1e6,
        "transport.rcvbuf_errors": session["rcvbuf_errors"],
    }
    metrics.update(span_metrics(tracer))
    base_cost, cost = base.cpu_s / base.delivered, tally.cpu_s / tally.delivered
    info = {
        "workload": wl.LOOPBACK, "seed": seed,
        "untraced_cpu_us_per_update": base_cost * 1e6, "traced_cpu_us_per_update": cost * 1e6,
        "overhead": cost / base_cost - 1,
        "trace": tracer.dump(),
    }
    return metrics, info, [base, tally]


PASSES = {
    wl.TREND: functools.partial(sim_pass, wl.TREND),
    wl.CROWD: functools.partial(sim_pass, wl.CROWD),
    wl.LOOPBACK: loopback_pass,
}


def traced_run(workload, seed, work, names):
    metrics, measured_on, passes, tallies = {}, {}, [], []
    queue = [workload]
    while queue:
        name = queue.pop(0)
        found, info, pass_tallies = PASSES[name](wl.round_seed(seed, 0), work / name)
        passes.append(info)
        tallies += pass_tallies
        for metric in names:
            home = HOME[metric.split(".")[0]]
            if metric in found and metric not in metrics and name in (workload, home):
                metrics[metric] = found[metric]
                measured_on[metric] = name
        if name == workload:
            queue = sorted({HOME[m.split(".")[0]] for m in names if m not in metrics} - {workload})
    missing = [m for m in names if m not in metrics]
    if missing:
        raise RuntimeError(f"traced run measured no {missing}")
    for info in passes:
        print(f"trace overhead on {info['workload']}: {info['overhead'] * 100:+.1f}%",
              file=sys.stderr)
    return metrics, tallies, {"measured_on": measured_on, "passes": passes}


# -- reporting


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"  # not a git checkout of its own
    return lines[1]


def environment():
    return {
        "commit": commit(),
        "source_sha256": tree_digest(SRC / "agectl"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def run_one(args, spec):
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    work = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            values, tallies, extra = traced_run(args.workload, args.seed, work, list(units))
        else:
            values, tallies, extra = end_to_end(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = [p for t in tallies for p in t.problems]
    result = {
        "correct": not problems,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    trace_dump = extra.pop("passes", None) if args.trace else None
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **environment(), **extra, "problems": problems,
              "result": result}
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2))
    if trace_dump is not None:
        (RESULTS_DIR / f"{stem}.spans.json").write_text(json.dumps(trace_dump))

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, each in its own process: untraced, then traced."""
    status = 0
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("\n".join(out.stdout.splitlines()[:-1]) + "\n")
            status = status or out.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase; a traced run is one round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "agectl" / "__init__.py").is_file():
        print(f"agectl sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
