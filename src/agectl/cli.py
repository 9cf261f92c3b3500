"""Command-line entry point: simulations, live endpoints, proxy, reports.

Experiment specs are flat key-value files with repeatable [station] blocks
and an optional [multiaccess] block, keyed by the fields of netsim's config
dataclasses; see the README for the format. Each run writes its own
directory with per-source CSVs and a manifest that pins the seed, config
snapshot and code version, so any run can be reproduced exactly.

The live transport is imported only by the source, monitor and proxy
commands, and the process pool only by a simulate that runs more than one
run at a time. argparse is imported by build_parser, so code that imports
this module as a library does not load it.
"""

import bisect
import dataclasses
import hashlib
import json
import math
import signal
import statistics
import sys
import threading
import typing
from pathlib import Path

from . import __version__
from .csvio import (
    ACK_COLUMNS,
    MONITOR_COLUMNS,
    SUMMARY_COLUMNS,
    read_ack_log,
    read_header,
    read_monitor_log,
    write_ack_log,
    write_epoch_log,
    write_monitor_log,
    write_rows,
    write_trace,
)
from .endpoints import parse_mode
from .metrics import (
    DEFAULT_WARMUP_FRAC,
    age_trace_from_deliveries,
    age_trace_from_rtt_samples,
    default_horizon,
    jain_fairness,
    step_average,
    summarize,
    time_average_age,
)
from .netsim import (
    EXPONENTIAL,
    MultiaccessConfig,
    SimConfig,
    StationConfig,
    rtt_vs_load_curve,
    run_simulation,
)
from .wire import DEFAULT_PAYLOAD_BYTES, MAX_PAYLOAD, update_bits

# -- spec file parsing


class SpecError(ValueError):
    pass


def _coerce(value):
    text = value.strip()
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if low in ("none", "unbounded"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_spec(text):
    """Flat key = value lines plus repeatable [station] / [multiaccess] blocks."""
    top = {}
    stations = []
    multiaccess = None
    section = top
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            name = line.strip("[]").strip().lower()
            if name == "station":
                stations.append({})
                section = stations[-1]
            elif name == "multiaccess":
                multiaccess = {}
                section = multiaccess
            else:
                raise SpecError(f"line {lineno}: unknown section [{name}]")
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if "," in value:
            section[key] = [_coerce(v) for v in value.split(",")]
        else:
            section[key] = _coerce(value)
    return top, stations, multiaccess


def _convert(value, kind, key):
    """A spec value as a field of type `kind`; an int field takes only integral numbers."""
    kinds = typing.get_args(kind) or (kind,)
    base = kinds[0]
    if value is None and type(None) in kinds or type(value) is base:
        return value
    if base is float and type(value) is int:
        return float(value)
    if base is int and type(value) is float and value.is_integer():
        return int(value)
    raise SpecError(f"{key} must be {base.__name__}, got {value!r}")


def _build(cls, block, section, exclude=(), **given):
    """cls(**given, **block); each key of the block must name a field outside `exclude`."""
    types = {f.name: f.type for f in dataclasses.fields(cls)
             if f.name not in exclude and f.name not in given}
    for key in block:
        if key not in types:
            raise SpecError(f"{section}: unknown key {key!r}")
    try:
        return cls(**given, **{k: _convert(v, types[k], k) for k, v in block.items()})
    except (TypeError, ValueError) as exc:  # a value, a missing field or a __post_init__ check
        raise SpecError(f"{section}: {exc}") from None


def _as_list(value):
    return value if isinstance(value, list) else [value]


def _warmup_frac(value):
    """value as a float in [0, 1), the leading fraction of a run that summaries leave out."""
    value = float(value)
    if not 0 <= value < 1:
        raise ValueError(f"warmup_frac must be in [0, 1), got {value}")
    return value


# top-level keys that shape the sweep; every other one is a SimConfig field
RUN_KEYS = ("name", "repetitions", "warmup_frac", "sweep_sources", "sources",
            "protocols", "protocol")


class ExperimentSpec:
    """One sweep: (sweep value x protocol x repetition) simulation runs.

    The blocks build their configs by field name, and the top-level keys
    outside RUN_KEYS build `base`, the SimConfig that each run varies.
    """

    def __init__(self, text):
        top, stations, multiaccess = parse_spec(text)
        if not stations:
            raise SpecError("at least one [station] block is required")
        self.text = text
        run = {key: top.pop(key) for key in RUN_KEYS if key in top}
        self.name = str(run.get("name", "experiment"))
        self.repetitions = _convert(run.get("repetitions", 1), int, "repetitions")
        if self.repetitions < 1:
            raise SpecError("repetitions must be >= 1")
        try:
            self.warmup_frac = _warmup_frac(_convert(run.get("warmup_frac", DEFAULT_WARMUP_FRAC),
                                                     float, "warmup_frac"))
        except ValueError as exc:
            raise SpecError(exc) from None
        counts = _as_list(run.get("sweep_sources", run.get("sources", SimConfig.n_sources)))
        self.source_counts = [_convert(v, int, "sweep_sources") for v in counts]
        if len(set(self.source_counts)) != len(self.source_counts):
            raise SpecError("sweep values must be distinct")
        if min(self.source_counts) < 1:
            raise SpecError(f"source counts must be >= 1, got {min(self.source_counts)}")
        protocols = _as_list(run.get("protocols", run.get("protocol", SimConfig.protocol)))
        self.protocols = [str(p) for p in protocols]
        for mode in self.protocols:
            try:
                parse_mode(mode)
            except ValueError as exc:
                raise SpecError(f"protocols: {exc}") from None
        self.base = _build(
            SimConfig, top, "top level", exclude=("n_sources", "protocol"),
            stations=tuple(_build(StationConfig, block, f"[station {i}]")
                           for i, block in enumerate(stations, 1)),
            multiaccess=None if multiaccess is None else _build(
                MultiaccessConfig, multiaccess, "[multiaccess]"),
        )
        for n in self.source_counts:  # checks that depend on the source count
            try:
                dataclasses.replace(self.base, n_sources=n)
            except ValueError as exc:
                raise SpecError(f"{n} sources: {exc}") from None

    def runs(self):
        for n in self.source_counts:
            for proto in self.protocols:
                for rep in range(self.repetitions):
                    yield n, proto, rep

    def sim_config(self, n_sources, protocol, rep):
        seed_text = f"{self.name}/{self.base.seed}/{n_sources}/{protocol}/{rep}"
        seed = int.from_bytes(hashlib.sha256(seed_text.encode()).digest()[:8], "big")
        return dataclasses.replace(self.base, n_sources=n_sources, protocol=protocol, seed=seed)


# -- run execution and summaries

# the summary columns that rollup.csv aggregates: every metric but inter_ack_ms,
# which would change rollup.csv's layout
ROLLUP_METRICS = slice(3, 9)


def _fmt(value):
    return "" if math.isnan(value) else round(value, 6)


def source_rows(network, horizon):
    """One row of plain numbers per source of a finished run, over `horizon`.

    A row holds metrics.summarize's fields, with the age anchored at the run start, the
    time-average backlog, and the mean RTT (rtt) and mean gap (inter_ack) of the ACKs
    inside the horizon, nan when there are too few.
    """
    rows = []
    for source, monitor in zip(network.sources, network.monitors):
        stats = summarize([(r, seq, g / 1e9) for r, seq, g in monitor.delivery_log], horizon,
                          network.cfg.payload_bytes, run_start=0.0)
        times, _, rtts = source.ack_log.columns
        lo, hi = bisect.bisect_left(times, horizon[0]), bisect.bisect_right(times, horizon[1])
        rows.append({**vars(stats), "backlog": step_average(source.backlog_trace, *horizon),
                     "rtt": statistics.fmean(rtts[lo:hi]) if hi > lo else math.nan,
                     "inter_ack": (times[hi - 1] - times[lo]) / (hi - lo - 1)
                     if hi - lo > 1 else math.nan})
    return rows


def summarize_run(result, warmup_frac):
    """summary.csv's metrics of a finished run from its source_rows; every source counts."""
    rows = source_rows(result, default_horizon(0.0, result.cfg.duration, warmup_frac))
    ages = [row["avg_age"] for row in rows]

    def mean_ms(key):  # over the sources that have a value
        values = [row[key] for row in rows if not math.isnan(row[key])]
        return statistics.mean(values) * 1e3 if values else math.nan
    return {
        "avg_age_ms": statistics.mean(ages) * 1e3,
        "avg_delay_ms": mean_ms("avg_delay"),
        "throughput_bps": sum(row["throughput"] for row in rows),
        "inter_delivery_ms": mean_ms("avg_inter_delivery"),
        "backlog_avg": statistics.mean(row["backlog"] for row in rows),
        "fairness": jain_fairness(ages) if len(ages) > 1 else 1.0,
        "inter_ack_ms": mean_ms("inter_ack"),
    }


def sweep_min_age(base, modes, warmup_frac=DEFAULT_WARMUP_FRAC):
    """The summarize_run dict of one run of `base` per mode, in order.

    The age-minimizing mode is the one with the least avg_age_ms.
    """
    return [summarize_run(run_simulation(dataclasses.replace(base, protocol=mode)), warmup_frac)
            for mode in modes]


def _execute_run(args):
    spec_text, n, proto, rep, run_dir = args
    spec = ExperimentSpec(spec_text)
    cfg = spec.sim_config(n, proto, rep)
    result = run_simulation(cfg)
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    for i, (source, monitor) in enumerate(zip(result.sources, result.monitors)):
        write_monitor_log(run_dir / f"monitor_{i:03d}.csv", monitor.delivery_log)
        write_ack_log(run_dir / f"acks_{i:03d}.csv", source.ack_log)
        if source.epoch_rows:
            write_epoch_log(run_dir / f"source_{i:03d}.csv", source.epoch_rows)
    if cfg.record_trace:
        write_trace(run_dir / "trace.csv", result.trace)
    summary = summarize_run(result, spec.warmup_frac)
    run_id = f"{spec.name}/N{n}/{proto}/rep{rep}"
    manifest = {
        "run_id": run_id,
        "seed": cfg.seed,
        "sources": n,
        "protocol": proto,
        "repetition": rep,
        "duration": cfg.duration,
        "version": __version__,
        "spec": spec_text,
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    row = [run_id, proto, n] + [_fmt(summary[k]) for k in SUMMARY_COLUMNS[3:]]
    write_rows(run_dir / "summary.csv", SUMMARY_COLUMNS, [row])
    return row


def cmd_simulate(spec_path, out_dir, jobs=1):
    if jobs < 1:
        print(f"simulate: jobs must be >= 1, got {jobs}", file=sys.stderr)
        return 2
    try:
        spec = ExperimentSpec(Path(spec_path).read_text())
    except (SpecError, OSError) as exc:
        print(f"{spec_path}: {exc}", file=sys.stderr)
        return 2
    out = Path(out_dir) / spec.name
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names a file
        print(f"simulate: cannot create {out}: {exc.strerror}", file=sys.stderr)
        return 2
    tasks = []
    for n, proto, rep in spec.runs():
        run_dir = out / f"sources-{n:03d}" / proto.replace(":", "-") / f"rep{rep:02d}"
        tasks.append((spec.text, n, proto, rep, str(run_dir)))
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_safely, tasks))
    else:
        outcomes = [_run_safely(task) for task in tasks]
    rows = [row for row in outcomes if not isinstance(row, Exception)]
    write_rows(out / "runs.csv", SUMMARY_COLUMNS, rows)
    rollup = _rollup(rows)
    write_rows(
        out / "rollup.csv",
        ("sources", "protocol", "runs") + tuple(
            f"{m}_{s}" for m in SUMMARY_COLUMNS[ROLLUP_METRICS] for s in ("mean", "std")
        ),
        rollup,
    )
    for task, outcome in zip(tasks, outcomes):
        if isinstance(outcome, Exception):
            print(f"FAILED {task[1]}x{task[2]} rep{task[3]}: {outcome}", file=sys.stderr)
    print(f"{len(rows)} runs -> {out}")
    return 1 if len(rows) < len(tasks) else 0


def _run_safely(task):
    try:
        return _execute_run(task)
    except Exception as exc:  # recorded per run, reported at exit
        return exc


def _rollup(rows):
    groups = {}
    for row in rows:
        groups.setdefault((row[2], row[1]), []).append(row)
    out = []
    for (n, proto), members in sorted(groups.items()):
        entry = [n, proto, len(members)]
        for column in list(zip(*members))[ROLLUP_METRICS]:
            values = [float(v) for v in column if v != ""]
            if values:
                entry.append(round(statistics.mean(values), 6))
                entry.append(round(statistics.stdev(values), 6) if len(values) > 1 else 0.0)
            else:
                entry.extend(["", ""])
        out.append(entry)
    return out


# -- reports


def cmd_report(run_dir, warmup_frac=DEFAULT_WARMUP_FRAC):
    run_dir = Path(run_dir)
    # endpoint logs are told apart by their header row; anything else is skipped
    headers = {path: read_header(path) for path in sorted(run_dir.glob("*.csv"))}
    monitor_files = [path for path, h in headers.items() if h == MONITOR_COLUMNS]
    ack_files = [path for path, h in headers.items() if h == ACK_COLUMNS]
    if not monitor_files and not ack_files:
        print(f"no endpoint CSVs found in {run_dir}", file=sys.stderr)
        return 1
    errors = 0
    # a simulated run's manifest holds its spec; live logs do not record the size
    manifest = run_dir / "manifest.json"
    payload_bytes = DEFAULT_PAYLOAD_BYTES
    if manifest.exists():
        try:
            spec = ExperimentSpec(json.loads(manifest.read_text())["spec"])
            payload_bytes = spec.base.payload_bytes
        except (ValueError, KeyError, TypeError, OSError) as exc:  # ValueError: bad JSON or spec
            print(f"{manifest.name}: unreadable ({exc}); "
                  f"assuming {DEFAULT_PAYLOAD_BYTES}-byte payloads", file=sys.stderr)
            errors += 1
    rows = []
    scatter = []
    for path in monitor_files + ack_files:
        one_way = path in monitor_files
        mode = "one-way" if one_way else "rtt-based"
        try:
            log_rows = (read_monitor_log if one_way else read_ack_log)(path)
        except (ValueError, KeyError, TypeError, OSError) as exc:  # TypeError: short row
            print(f"{path.name}: unreadable ({exc})", file=sys.stderr)
            errors += 1
            continue
        if len({row[0] for row in log_rows}) < 2:  # no span of time to average over
            rows.append((path.stem, mode, len(log_rows), "", "", "", ""))
            continue
        horizon = default_horizon(log_rows[0][0], log_rows[-1][0], warmup_frac)
        try:
            if one_way:
                deliveries = [(r, s, g / 1e9) for r, s, g in log_rows]
                stats = summarize(deliveries, horizon, payload_bytes)
                trace = age_trace_from_deliveries([(r, g) for r, _, g in deliveries], horizon)
                row = (stats.delivered_count, stats.avg_age, stats.avg_delay,
                       f"{stats.throughput:.0f}", f"{stats.loss_fraction:.4f}")
                scatter.append((path.stem, stats.avg_delay * 1e3, stats.avg_age * 1e3,
                                stats.throughput))
            else:
                samples = [(t, rtt) for t, _, rtt in log_rows]
                trace = age_trace_from_rtt_samples(samples, horizon)
                rtts = [rtt for t, rtt in samples if horizon[0] <= t <= horizon[1]]
                row = (len(rtts), time_average_age(trace, horizon), statistics.mean(rtts), "", "")
        except ValueError as exc:  # e.g. receive times behind the generation times
            print(f"{path.name}: unusable ({exc})", file=sys.stderr)
            errors += 1
            continue
        _export_trace(run_dir / f"age_{path.stem}.csv", trace)
        count, age, delay, throughput, loss = row
        rows.append((path.stem, mode, count, f"{age * 1e3:.3f}", f"{delay * 1e3:.3f}",
                     throughput, loss))
    header = ("session", "age_mode", "delivered", "avg_age_ms", "avg_delay_ms",
              "throughput_bps", "loss_fraction")
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    ages = [age for _, _, age, _ in scatter]  # unrounded: a printed 0.000 may be any small age
    if len(ages) > 1:
        print(f"jain_fairness_over_ages  {jain_fairness(ages):.4f}")
    if scatter:
        write_rows(run_dir / "delay_vs_age.csv",
                   ("session", "avg_delay_ms", "avg_age_ms"),
                   [(s, f"{d:.3f}", f"{a:.3f}") for s, d, a, _ in scatter])
        write_rows(run_dir / "throughput_vs_age.csv",
                   ("session", "throughput_bps", "avg_age_ms"),
                   [(s, f"{t:.0f}", f"{a:.3f}") for s, _, a, t in scatter])
    return 1 if errors else 0


def _export_trace(path, trace):
    write_rows(path, ("time", "age"), [(f"{t:.9f}", f"{a:.9f}") for t, a in trace.breakpoints])


# -- small subcommands


def cmd_sweep_min_age(args):
    try:
        mu = args.station_rate_bits / update_bits(args.payload_bytes)
        rates = args.rates or [round(f * mu, 3) for f in
                               (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
        modes = [f"poisson:{rate}" for rate in rates]
        for mode in modes:  # check them all before running any
            parse_mode(mode)
        station = StationConfig(service=EXPONENTIAL, rate=args.station_rate_bits)
        base = SimConfig(stations=(station, station), duration=args.duration, seed=args.seed,
                         payload_bytes=args.payload_bytes, ack_path="instant")
        summaries = sweep_min_age(base, modes)
    except ValueError as exc:
        print(f"sweep-min-age: {exc}", file=sys.stderr)
        return 2
    rows = [(rate, f"{s['avg_age_ms'] / 1e3:.6f}", f"{s['backlog_avg']:.4f}")
            for rate, s in zip(rates, summaries)]
    if args.out:
        write_rows(args.out, ("rate", "avg_age", "avg_backlog"), rows)
    for r in rows:
        print(*r)
    best = min(range(len(rates)), key=lambda k: summaries[k]["avg_age_ms"])
    print(f"best_rate={rows[best][0]} best_age={rows[best][1]} "
          f"backlog_at_best={rows[best][2]}")
    return 0


def cmd_rtt_curve(args):
    try:
        bits = update_bits(args.payload_bytes)
        mu = args.rate_bits / bits
        loads = args.loads or [round(f * mu, 3) for f in (0.1, 0.3, 0.5, 0.7, 0.9, 1.1)]
        station = StationConfig(service=args.service, rate=args.rate_bits, buffer=args.buffer)
        curve = rtt_vs_load_curve(station, args.rtt_base, loads, mode=args.mode,
                                  packet_bits=bits, packets=args.packets, seed=args.seed)
    except ValueError as exc:
        print(f"rtt-curve: {exc}", file=sys.stderr)
        return 2
    rows = [(load, "unstable" if math.isinf(rtt) else f"{rtt:.6f}") for load, rtt in curve]
    if args.out:
        write_rows(args.out, ("load", "mean_rtt"), rows)
    for r in rows:
        print(*r)
    return 0


def _arg_type(convert):
    """An argparse type that reports the ValueError of convert(text) as a usage error."""
    import argparse

    def parse(text):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _mode(text):
    parse_mode(text)
    return text


def _address(text):
    """text as a host:port the live transport can bind or send to."""
    from .transport import _parse_addr

    _parse_addr(text)
    return text


def _out_file(text):
    """text as a file the command writes when it ends: its directory must exist."""
    path = Path(text)
    if path.is_dir():
        raise ValueError(f"{text!r} is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"directory {str(path.parent)!r} does not exist")
    return text


def _duration(text):
    """text as a live session's length: a finite number of seconds, 0 or more."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise ValueError(f"duration must be finite and >= 0, got {text}")
    return value


def _until_signalled(run, *args, **kw):
    """run(*args, stop=..., **kw), where SIGINT or SIGTERM ends the session as `stop` does.

    The endpoint then writes its logs as at any other end, and the exit
    status is 128 + the signal number, as shells report a killed process.
    Off the main thread, where Python delivers no signals, run is just called.
    """
    if threading.current_thread() is not threading.main_thread():
        return run(*args, **kw)
    stop = threading.Event()
    caught = []

    def handle(signum, frame):
        caught.append(signum)
        stop.set()

    previous = {sig: signal.signal(sig, handle) for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        status = run(*args, stop=stop, **kw)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 128 + caught[0] if caught and status == 0 else status


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(prog="agectl",
                                     description="age-control update transport toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run an experiment spec file")
    p.add_argument("spec")
    p.add_argument("--out", default="runs")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("source", help="run a live update source")
    p.add_argument("--peer", type=_arg_type(_address), required=True)
    p.add_argument("--mode", type=_arg_type(_mode), default="acp+")
    p.add_argument("--duration", type=_arg_type(_duration), required=True)
    p.add_argument("--payload-bytes", type=int, default=DEFAULT_PAYLOAD_BYTES)
    p.add_argument("--listen", type=_arg_type(_address), default=None)
    p.add_argument("--out", type=_arg_type(_out_file), required=True)

    p = sub.add_parser("monitor", help="run a live monitor")
    p.add_argument("--listen", type=_arg_type(_address), required=True)
    p.add_argument("--duration", type=_arg_type(_duration), required=True)
    p.add_argument("--out", type=_arg_type(_out_file), required=True)

    p = sub.add_parser("proxy", help="run the delay/loss proxy")
    p.add_argument("--listen", type=_arg_type(_address), required=True)
    p.add_argument("--forward", type=_arg_type(_address), required=True)
    p.add_argument("--delay-ms", type=float, default=0.0)
    p.add_argument("--delay-dist", choices=("constant", "exponential"), default="constant")
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--reorder", action="store_true")
    p.add_argument("--duration", type=_arg_type(_duration), default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("sweep-min-age", help="find the age-minimizing constant rate")
    p.add_argument("--station-rate-bits", type=float, default=8.344e6)
    p.add_argument("--rates", type=float, nargs="*", default=None)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--payload-bytes", type=int, default=DEFAULT_PAYLOAD_BYTES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=_arg_type(_out_file), default=None)

    p = sub.add_parser("rtt-curve", help="round-trip time vs offered load for one station")
    p.add_argument("--service", choices=("deterministic", "exponential"), default="exponential")
    p.add_argument("--rate-bits", type=float, default=8.344e6)
    p.add_argument("--rtt-base", type=float, default=0.0)
    p.add_argument("--buffer", type=int, default=None)
    p.add_argument("--loads", type=float, nargs="*", default=None)
    p.add_argument("--mode", choices=("analytic", "simulate"), default="analytic")
    p.add_argument("--packets", type=int, default=200_000)
    p.add_argument("--payload-bytes", type=int, default=DEFAULT_PAYLOAD_BYTES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=_arg_type(_out_file), default=None)

    p = sub.add_parser("report", help="summarize a run directory")
    p.add_argument("run_dir")
    p.add_argument("--warmup-frac", type=_arg_type(_warmup_frac), default=DEFAULT_WARMUP_FRAC)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args.spec, args.out, jobs=args.jobs)
    if args.command == "source":
        if not 0 <= args.payload_bytes <= MAX_PAYLOAD:
            print(f"source: payload_bytes must be in [0, {MAX_PAYLOAD}], got {args.payload_bytes}",
                  file=sys.stderr)
            return 2
        from .transport import run_source

        return _until_signalled(run_source, args.peer, args.mode, args.duration, args.out,
                                payload_bytes=args.payload_bytes, listen=args.listen)
    if args.command == "monitor":
        from .transport import run_monitor

        return _until_signalled(run_monitor, args.listen, args.duration, args.out)
    if args.command == "proxy":
        from .transport import ProxyConfig, ProxyStats, run_proxy

        try:
            cfg = ProxyConfig(listen=args.listen, forward=args.forward,
                              delay=args.delay_ms / 1e3, delay_dist=args.delay_dist,
                              loss=args.loss, reorder=args.reorder, seed=args.seed)
        except ValueError as exc:
            print(f"proxy: {exc}", file=sys.stderr)
            return 2
        stats = ProxyStats()
        status = _until_signalled(run_proxy, cfg, duration=args.duration, stats=stats)
        for d, direction in enumerate(("forward", "reverse")):
            print(f"proxy {direction}: received {stats.received[d]}, "
                  f"forwarded {stats.forwarded[d]}, dropped {stats.dropped[d]}, "
                  f"unreleased {stats.unreleased[d]}")
        return status
    if args.command == "sweep-min-age":
        return cmd_sweep_min_age(args)
    if args.command == "rtt-curve":
        return cmd_rtt_curve(args)
    if args.command == "report":
        return cmd_report(args.run_dir, warmup_frac=args.warmup_frac)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
