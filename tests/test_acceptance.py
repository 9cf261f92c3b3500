"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete. The multiaccess trend runs go through a process
pool with one worker per available CPU; everything here is deterministic
(frozen seeds).
"""

import math
import multiprocessing
import os
import pathlib
import random
import socket
import statistics
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from agectl.cli import source_rows, sweep_min_age
from agectl.controller import control_step, update_lambda
from agectl.csvio import ack_csv_path, read_log
from agectl.metrics import (
    age_trace,
    default_horizon,
    jain_fairness,
    step_average,
    time_average_age,
)
from agectl.netsim import (
    DELIVERED,
    DETERMINISTIC,
    EXPONENTIAL,
    GENERATED,
    MultiaccessConfig,
    SimConfig,
    StationConfig,
    run_simulation,
    simulate_station_system_time,
)
from agectl.transport import ProxyConfig, ProxyStats, run_monitor, run_proxy, run_source

PACKET_BITS = 8 * (19 + 1024)


def report(number, name, passed, detail):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


# -- criterion 1: controller conformance ------------------------------------


def expected_action(flag, gamma, b, d, backlog_avg):
    """Independent statement of the control law for the table test."""
    if b > 0 and d > 0:
        if flag:
            g = gamma + 1
            return (f"mdec{g}", -(1.0 - 2.0 ** (-g)) * backlog_avg, True, g)
        return ("dec", -1.0, True, gamma)
    if (b > 0 and d <= 0) or (b <= 0 and d > 0):
        return ("inc", 1.0, False, 0)
    if flag and gamma > 0:
        return (f"mdec{gamma}", -(1.0 - 2.0 ** (-gamma)) * backlog_avg, True, gamma)
    return ("dec", -1.0, False, 0)


def test_criterion_1_controller_conformance():
    start = time.monotonic()
    backlog_avg = 4.0
    checked = 0
    failures = []
    for flag, gammas in ((False, (0,)), (True, (0, 1, 2, 3))):
        for gamma in gammas:
            for b in (0.4, 0.0, -0.3):
                for d in (0.002, 0.0, -0.001):
                    got = control_step(flag, gamma, b, d, backlog_avg)
                    checked += 1
                    if got != expected_action(flag, gamma, b, d, backlog_avg):
                        failures.append((flag, gamma, b, d, got))
    elapsed = time.monotonic() - start
    report(1, "controller-conformance",
           not failures and elapsed < 1.0,
           f"{checked} cases exact, {elapsed:.2f}s" if not failures else f"{failures[:3]}")


# -- criterion 2: rate-clamp safety ------------------------------------------


def test_criterion_2_rate_clamp_safety():
    start = time.monotonic()
    rng = random.Random(20240)
    steps = 100_000
    flag, gamma = False, 0
    rate = rng.uniform(0.5, 200.0)
    violations = 0
    for _ in range(steps):
        b_k = rng.uniform(-3, 3) if rng.random() > 0.05 else 0.0
        delta_k = rng.uniform(-0.05, 0.05) if rng.random() > 0.05 else 0.0
        backlog_avg = rng.uniform(0.0, 20.0)
        _, target, flag, gamma = control_step(flag, gamma, b_k, delta_k, backlog_avg)
        new_rate = update_lambda(rate, rng.uniform(1e-4, 2.0), rng.uniform(1e-4, 2.0), target)
        if not (0.75 * rate <= new_rate <= 1.25 * rate and new_rate > 0):
            violations += 1
        rate = new_rate
    elapsed = time.monotonic() - start
    report(2, "rate-clamp-safety", violations == 0 and elapsed < 10.0,
           f"{steps} steps, 0 violations, {elapsed:.1f}s" if not violations
           else f"{violations} violations")


# -- criterion 3: age-metric oracle -------------------------------------------


def test_criterion_3_age_metric_oracle():
    start = time.monotonic()
    rng = random.Random(3033)
    step = 1e-5
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 30)
        recv = sorted({round(rng.uniform(0.02, 0.98), 5) for _ in range(n)})
        log = [(r, r - round(rng.uniform(0.001, 0.05), 5)) for r in recv]
        horizon = (log[0][0], 1.0)
        trace = age_trace(recv, [r - g for r, g in log], horizon)
        exact = time_average_age(trace, horizon)
        cells = round((horizon[1] - horizon[0]) / step)
        grid = horizon[0] + (np.arange(cells) + 0.5) * step
        rtimes = np.array([r for r, _ in log])
        gens = np.array([g for _, g in log])
        idx = np.clip(np.searchsorted(rtimes, grid, side="right") - 1, 0, None)
        brute = float((grid - gens[idx]).mean())
        worst = max(worst, abs(exact - brute) / brute)
    elapsed = time.monotonic() - start
    report(3, "age-metric-oracle", worst <= 1e-6 and elapsed < 30.0,
           f"1000 logs, worst rel err {worst:.2e}, {elapsed:.1f}s")


# -- criterion 4: tandem pipeline and M/M/1 reproduction ----------------------


def test_criterion_4a_deterministic_pipeline_exact():
    service = 2**-10  # dyadic: event arithmetic stays exact
    st = StationConfig(service=DETERMINISTIC, rate=PACKET_BITS / service)
    cfg = SimConfig(stations=(st, st, st), n_sources=1,
                    protocol=f"constant:{1 / service}", duration=1.0, seed=1,
                    ack_path="instant", record_trace=True)
    result = run_simulation(cfg)
    gen = {q: t for t, _, k, q in result.trace if k == GENERATED}
    dlv = {q: t for t, _, k, q in result.trace if k == DELIVERED}
    delays_exact = all(dlv[q] - gen[q] == 3 * service for q in dlv)
    deltas = sorted([(t, +1) for t, _, k, _ in result.trace if k == GENERATED]
                    + [(t, -1) for t, _, k, _ in result.trace if k == DELIVERED])
    levels, level = [], 0
    for _, d in deltas:
        level += d
        levels.append(level)
    occupancy = step_average([t for t, _ in deltas], levels, 3 * service, 1.0)
    report("4a", "deterministic-pipeline", delays_exact and occupancy == 3.0,
           f"{len(dlv)} packets, delay = 3 service times exactly, occupancy {occupancy}")


def test_criterion_4b_mm1_system_time():
    start = time.monotonic()
    mu = 1000.0
    st = StationConfig(service=EXPONENTIAL, rate=mu * PACKET_BITS)
    results = []
    ok = True
    for rho in (0.3, 0.5, 0.7, 0.9):
        lam = rho * mu
        measured = simulate_station_system_time(st, lam, packets=1_000_000,
                                                seed=f"accept4b/{rho}",
                                                packet_bits=PACKET_BITS)
        analytic = 1.0 / (mu - lam)
        err = abs(measured - analytic) / analytic
        results.append(f"rho={rho}: {err * 100:.2f}%")
        ok = ok and err < 0.05
    elapsed = time.monotonic() - start
    report("4b", "mm1-system-time", ok and elapsed < 120.0,
           f"{'; '.join(results)}, {elapsed:.0f}s")


# -- criterion 5: tandem optimum occupancy ------------------------------------


def test_criterion_5_tandem_optimum_backlog():
    start = time.monotonic()
    mu = 1000.0
    rates = [f * mu for f in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
    station = StationConfig(service=EXPONENTIAL, rate=mu * PACKET_BITS)
    base = SimConfig(stations=(station, station), duration=60.0, seed=5, ack_path="instant")
    curve = sweep_min_age(base, [f"poisson:{rate}" for rate in rates])
    best = min(range(len(rates)), key=lambda k: curve[k]["avg_age_ms"])
    backlog = curve[best]["backlog_avg"]
    elapsed = time.monotonic() - start
    ok = 1.1 <= backlog <= 2.1 and elapsed < 120.0
    report(5, "tandem-optimum-backlog", ok,
           f"best rate {rates[best]:.0f}/s, age {curve[best]['avg_age_ms']:.2f} ms, "
           f"backlog {backlog:.2f} in [1.1, 2.1], {elapsed:.0f}s")


# -- criterion 6: multiaccess trends ------------------------------------------

TREND_STATION = StationConfig(service=DETERMINISTIC, rate=6e6, buffer=100,
                              prop_delay=0.002)
TREND_CHANNEL = MultiaccessConfig(link_rate=12e6, slot=2.5e-4, persistence=0.25,
                                  max_backoff_exp=5, per_source_loss=0.01)
TREND_DURATION = 60.0
TREND_REPS = 10
TREND_COUNTS = (1, 6, 12, 24, 48)


def _trend_run(n, proto, rep):
    """(age, mean RTT, backlog) per source of one trend run, after a 0.3 warm-up."""
    cfg = SimConfig(stations=(TREND_STATION, TREND_STATION), n_sources=n,
                    protocol=proto, duration=TREND_DURATION, seed=1000 + rep,
                    multiaccess=TREND_CHANNEL, record_trace=False)
    rows = source_rows(run_simulation(cfg), default_horizon(0.0, TREND_DURATION, 0.3))
    return [(row["avg_age"], row["rtt"], row["backlog"]) for row in rows]


def test_criterion_6_multiaccess_trends():
    start = time.monotonic()
    runs = [(n, proto, rep) for proto in ("acp+", "lazy") for n in TREND_COUNTS
            for rep in range(TREND_REPS)]
    # spawned, not forked: earlier tests may leave threads in this process
    with ProcessPoolExecutor(max_workers=len(os.sched_getaffinity(0)),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        results = dict(zip(runs, pool.map(_trend_run, *zip(*runs))))
    agg = {}
    for proto in ("acp+", "lazy"):
        for n in TREND_COUNTS:
            per_source = [[] for _ in range(n)]
            run_jains = []
            for rep in range(TREND_REPS):
                values = results[(n, proto, rep)]
                for i, v in enumerate(values):
                    per_source[i].append(v)
                run_jains.append(jain_fairness([v[0] for v in values]))
            src_ages = [statistics.mean(v[0] for v in reps) for reps in per_source]
            agg[(proto, n)] = {
                "age": statistics.mean(src_ages),
                "rtt": statistics.mean(statistics.mean(v[1] for v in reps)
                                       for reps in per_source),
                "backlog": statistics.mean(statistics.mean(v[2] for v in reps)
                                           for reps in per_source),
                "jain": jain_fairness(src_ages),
                "jain_per_run": statistics.mean(run_jains),
            }
    elapsed = time.monotonic() - start

    backlogs = [agg[("acp+", n)]["backlog"] for n in TREND_COUNTS]
    a = all(x > y for x, y in zip(backlogs, backlogs[1:])) \
        and backlogs[0] > 2.0 and backlogs[-1] < 0.6
    report("6a", "backlog-decreasing", a,
           "backlog/source " + " > ".join(f"{b:.2f}" for b in backlogs))

    pairs = [(n, agg[("acp+", n)]["age"] * 1e3, agg[("lazy", n)]["age"] * 1e3)
             for n in (12, 24, 48)]
    b = all(acp < lazy for _, acp, lazy in pairs)
    report("6b", "age-beats-lazy", b,
           "; ".join(f"N={n}: {acp:.1f} vs {lazy:.1f} ms" for n, acp, lazy in pairs))

    acp_ratio = agg[("acp+", 48)]["rtt"] / agg[("acp+", 1)]["rtt"]
    lazy_ratio = agg[("lazy", 48)]["rtt"] / agg[("lazy", 1)]["rtt"]
    c = acp_ratio < 2.0 and lazy_ratio > 5.0
    report("6c", "rtt-ratios", c,
           f"adaptive x{acp_ratio:.2f} (<2), lazy x{lazy_ratio:.1f} (>5)")

    j6 = agg[("acp+", 6)]["jain"]
    j48 = agg[("acp+", 48)]["jain"]
    d = j6 >= 0.85 and j48 >= 0.75
    report("6d", "age-fairness", d and elapsed < 600.0,
           f"jain over rep-averaged ages: N=6 {j6:.3f} (>=0.85), N=48 {j48:.3f} (>=0.75); "
           f"per-run means {agg[('acp+', 6)]['jain_per_run']:.3f}/"
           f"{agg[('acp+', 48)]['jain_per_run']:.3f}; {elapsed:.0f}s total")


# -- criterion 7: lazy backlog ------------------------------------------------


def test_criterion_7_lazy_backlog():
    start = time.monotonic()
    st = StationConfig(service=EXPONENTIAL, rate=6e6, prop_delay=1e-3)
    values = []
    for seed in (1, 2, 3):
        cfg = SimConfig(stations=(st, st), n_sources=1, protocol="lazy",
                        duration=60.0, seed=seed, record_trace=False)
        values.append(source_rows(run_simulation(cfg), default_horizon(0.0, 60.0))[0]["backlog"])
    elapsed = time.monotonic() - start
    ok = all(0.8 <= v <= 1.2 for v in values) and elapsed < 60.0
    report(7, "lazy-backlog", ok,
           "zero-loss time-average backlog " + ", ".join(f"{v:.3f}" for v in values))


# -- criterion 8: live sockets through the proxy ------------------------------


def _free_port():
    s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def test_criterion_8_live_socket_sanity(tmp_path):
    duration = 60.0
    proxy_port, monitor_port = _free_port(), _free_port()
    proxy_cfg = ProxyConfig(listen=f"127.0.0.1:{proxy_port}",
                            forward=f"127.0.0.1:{monitor_port}",
                            delay=0.055, delay_dist="constant", loss=0.0, seed=8)
    stop = threading.Event()
    proxy = threading.Thread(target=run_proxy, args=(proxy_cfg,),
                             kwargs=dict(duration=duration + 8, stop=stop))
    mon_out = tmp_path / "monitor.csv"
    monitor = threading.Thread(target=run_monitor,
                               args=(f"127.0.0.1:{monitor_port}", duration + 4,
                                     str(mon_out)))
    proxy.start()
    monitor.start()
    time.sleep(0.3)
    src_out = tmp_path / "source.csv"
    rc = run_source(f"127.0.0.1:{proxy_port}", "acp+", duration, str(src_out))
    monitor.join()
    stop.set()
    proxy.join()
    assert rc == 0

    ack_times, _, rtts = read_log(ack_csv_path(src_out))
    horizon = default_horizon(0.0, duration)
    age = time_average_age(age_trace(ack_times, rtts, horizon), horizon)
    delay = statistics.mean(rtt for t, rtt in zip(ack_times, rtts) if t >= horizon[0])
    receive_times, _, _ = read_log(mon_out)
    throughput = len(receive_times) * 1024 * 8 / duration
    ok = (0.110 <= age <= 0.165 and 0.108 <= delay <= 0.120
          and throughput < 5e6)
    report(8, "live-socket-sanity", ok,
           f"age {age * 1e3:.1f} ms in [110, 165], delay {delay * 1e3:.2f} ms in "
           f"[108, 120], throughput {throughput / 1e6:.2f} Mbps < 5")


# -- criterion 9: out-of-scope statement --------------------------------------


def test_criterion_9_out_of_scope_statement():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = " ".join(readme.read_text().split())
    documented = "not reproducible" in text.lower() and "TCP" in text
    report(9, "out-of-scope-statement", documented,
           "README documents that the wide-area TCP congestion-control comparison "
           "is out of scope; covered only by criterion 8 and the metric oracles")
