"""Output checks for the benchmark, computed apart from agectl.

Nothing here imports agectl: every figure the program reports is
recomputed from its raw outputs with the benchmark's own arithmetic, so a
fault in the program's summaries cannot hide itself. Each check returns a
list of problems; an empty list means the output passed.
"""

import csv
from pathlib import Path

UPDATE_BITS = (19 + 1024) * 8  # update header plus the default payload
GEN_TS_SLACK = 1e-9  # gen_ts is rounded to whole nanoseconds
REL_TOL = 1e-6


def fixed_path_delay(link_rate, station_rate, prop_delay, stations=2):
    """Least one-way delay: one uplink frame plus service and propagation per hop."""
    return UPDATE_BITS / link_rate + stations * (UPDATE_BITS / station_rate + prop_delay)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def monitor_rows(path):
    """(receive_time, seq, gen_ts_ns) rows of a monitor CSV."""
    return [(float(r["receive_time"]), int(r["seq"]), int(r["gen_ts"])) for r in read_csv(path)]


def ack_rows(path):
    """(ack_time, seq, rtt_seconds) rows of a source ACK CSV."""
    return [(float(r["ack_time"]), int(r["seq"]), float(r["rtt"])) for r in read_csv(path)]


def sawtooth_average(deliveries, t0, t1, gen_before_first):
    """Time-average age over [t0, t1] from (receive_time, gen_seconds) pairs.

    Age grows at slope one and drops to receive_time - gen at each
    delivery. At t0 it continues from the freshest update received at or
    before t0, or from `gen_before_first` when none was.
    """
    gen = gen_before_first
    t, area = t0, 0.0
    age = None
    for r, g in deliveries:
        if r <= t0:
            gen = g
            continue
        if age is None:
            age = t0 - gen
        if r > t1:
            break
        d = r - t
        area += age * d + 0.5 * d * d
        t, age = r, r - g
    if age is None:
        age = t0 - gen
    d = t1 - t
    area += age * d + 0.5 * d * d
    return area / (t1 - t0)


def close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def check_deliveries(name, rows, min_delay):
    """Monitor rows rise strictly in seq and gen_ts and never beat the fixed path cost."""
    problems = []
    for prev, row in zip(rows, rows[1:]):
        if row[1] <= prev[1] or row[2] <= prev[2]:
            problems.append(f"{name}: seq/gen_ts not strictly rising at seq {row[1]}")
            break
    for r, seq, g in rows:
        if r - g / 1e9 < min_delay - GEN_TS_SLACK:
            problems.append(f"{name}: seq {seq} delivered in {(r - g / 1e9) * 1e3:.6f} ms, "
                            f"below the path's fixed {min_delay * 1e3:.6f} ms")
            break
    return problems


# -- trend-n48: the output tree of `agectl simulate`


def check_trend_run(run_dir, n_sources, duration, warmup_frac, payload_bytes, min_delay):
    """Check one run directory; returns (problems, summary row as floats)."""
    run_dir = Path(run_dir)
    problems = []
    summary = read_csv(run_dir / "summary.csv")
    if len(summary) != 1:
        return [f"{run_dir}: summary.csv holds {len(summary)} rows"], None
    row = {k: float(v) for k, v in summary[0].items() if k not in ("run_id", "protocol")}
    t0, t1 = warmup_frac * duration, duration
    ages, delivered = [], 0
    for i in range(n_sources):
        rows = monitor_rows(run_dir / f"monitor_{i:03d}.csv")
        problems += check_deliveries(f"{run_dir.name}/monitor_{i:03d}", rows, min_delay)
        in_horizon = [r for r in rows if t0 <= r[0] <= t1]
        if not in_horizon:
            continue
        delivered += len(in_horizon)
        deliveries = [(r, g / 1e9) for r, _, g in rows]
        ages.append(sawtooth_average(deliveries, t0, t1, deliveries[0][1]))
    if not ages:
        return problems + [f"{run_dir}: no source delivered within the horizon"], row
    age_ms = sum(ages) / len(ages) * 1e3
    if not close(age_ms, row["avg_age_ms"]):
        problems.append(f"{run_dir}: avg_age_ms {row['avg_age_ms']} but the monitor logs give {age_ms}")
    throughput = delivered * payload_bytes * 8 / (t1 - t0)
    if not close(throughput, row["throughput_bps"]):
        problems.append(f"{run_dir}: throughput_bps {row['throughput_bps']} but the monitor logs "
                        f"give {throughput}")
    if not 1.0 / n_sources - REL_TOL <= row["fairness"] <= 1.0 + REL_TOL:
        problems.append(f"{run_dir}: Jain fairness {row['fairness']} outside [1/{n_sources}, 1]")
    return problems, row


def check_acp_beats_lazy(label, acp, lazy, keys):
    """The paper's claim: acp+ reads lower than lazy on each named key."""
    return [f"{label}: acp+ {k} {acp[k]:.6g} is not below lazy's {lazy[k]:.6g}"
            for k in keys if not acp[k] < lazy[k]]


# -- crowd-n768: a RunResult's raw logs


def check_conservation(generated, delivered, dropped, resident):
    """Per source, every generated update is delivered, dropped or still in the network."""
    for src, (g, d, x, r) in enumerate(zip(generated, delivered, dropped, resident)):
        if g != d + x + r:
            return [f"source {src}: generated {g} != delivered {d} + dropped {x} + resident {r}"]
    return []


# -- loopback-constant: the live source's and monitor's CSVs


def check_loopback(sent, mon_rows, acks, rate):
    """Nothing lost, every ACK matches a delivery, and the source never sent early."""
    problems = []
    if len(mon_rows) != sent:
        problems.append(f"monitor logged {len(mon_rows)} deliveries of {sent} updates sent")
    delivered = {seq for _, seq, _ in mon_rows}
    stray = [seq for _, seq, _ in acks if seq not in delivered]
    if stray:
        problems.append(f"{len(stray)} ACK rows for seqs never delivered, first {stray[0]}")
    least_gap_ns = 1e9 / rate - 1
    for prev, row in zip(mon_rows, mon_rows[1:]):
        if row[2] - prev[2] < least_gap_ns:
            problems.append(f"seq {row[1]} generated {(row[2] - prev[2]) / 1e3:.3f} us after "
                            f"seq {prev[1]}, under the {1e6 / rate:.3f} us interval")
            break
    return problems
