"""Each benchmark check passes on real agectl output and rejects a corrupted copy of it.

    PYTHONPATH=src python -m pytest -q perfbench/test_bench_checks.py
"""

import contextlib
import csv
import io
import shutil
import sys

import pytest

import checks
import run
import workloads as wl

sys.path.insert(0, str(run.SRC))

from agectl import cli, netsim  # noqa: E402

TREND_TEST_DURATION = 10.0  # simulated seconds; the ordering of acp+ and lazy already holds


@pytest.fixture(scope="module")
def trend_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("trend")
    spec = out / "spec.txt"
    spec.write_text(wl.trend_spec(7, duration=TREND_TEST_DURATION))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.cmd_simulate(str(spec), str(out / "runs")) == 0
    return out / "runs" / wl.TREND / f"sources-{wl.TREND_SOURCES:03d}"


def check_trend(run_dir):
    return checks.check_trend_run(run_dir, wl.TREND_SOURCES, TREND_TEST_DURATION,
                                  wl.WARMUP_FRAC, wl.PAYLOAD_BYTES, run.MIN_DELAY)


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_fixed_path_delay_matches_the_hand_figure():
    assert run.MIN_DELAY == pytest.approx(2 * (8344 / 6e6 + 0.002) + 8344 / 12e6)
    assert round(run.MIN_DELAY * 1e3, 3) == 7.477


def test_sawtooth_average_by_hand():
    # age ramps from 0.5 at t = 0.5, drops to 0.5 at t = 1 and to 0.2 at t = 2
    deliveries = [(1.0, 0.5), (2.0, 1.8)]
    area = (0.5 * 0.5 + 0.125) + (0.5 * 1 + 0.5) + (0.2 * 1 + 0.5)
    assert checks.sawtooth_average(deliveries, 0.5, 3.0, 0.0) == pytest.approx(area / 2.5)


def test_trend_output_passes(trend_runs):
    rows = {}
    for proto in wl.PROTOCOLS:
        problems, rows[proto] = check_trend(trend_runs / proto / "rep00")
        assert problems == []
    assert checks.check_acp_beats_lazy("trend", rows["acp+"], rows["lazy"],
                                       ("avg_age_ms", "backlog_avg")) == []


def test_moved_gen_ts_is_rejected(trend_runs, tmp_path):
    copy = shutil.copytree(trend_runs / "acp+" / "rep00", tmp_path / "run")

    def move_past_successor(rows):
        k = len(rows) // 2
        rows[k][2] = str(int(rows[k + 1][2]) + 1)

    rewrite_csv(copy / "monitor_000.csv", move_past_successor)
    problems, _ = check_trend(copy)
    assert any("not strictly rising" in p for p in problems)


def test_delivery_faster_than_the_path_is_rejected(trend_runs, tmp_path):
    copy = shutil.copytree(trend_runs / "acp+" / "rep00", tmp_path / "run")

    def deliver_in_5_ms(rows):
        k = len(rows) // 2
        rows[k][0] = repr(int(rows[k][2]) / 1e9 + 0.005)

    rewrite_csv(copy / "monitor_001.csv", deliver_in_5_ms)
    problems, _ = check_trend(copy)
    assert any("below the path's fixed" in p for p in problems)


@pytest.mark.parametrize("column, corrupt", [
    ("avg_age_ms", lambda v: v * 1.01),
    ("throughput_bps", lambda v: v * 1.01),
    ("fairness", lambda v: 1.5),
])
def test_corrupted_summary_is_rejected(trend_runs, tmp_path, column, corrupt):
    copy = shutil.copytree(trend_runs / "lazy" / "rep00", tmp_path / "run")

    def edit(rows):
        col = rows[0].index(column)
        rows[1][col] = repr(corrupt(float(rows[1][col])))

    rewrite_csv(copy / "summary.csv", edit)
    problems, _ = check_trend(copy)
    assert any(column in p for p in problems)


def test_lost_ordering_is_rejected():
    problems = checks.check_acp_beats_lazy("trend", {"avg_age_ms": 200.0}, {"avg_age_ms": 150.0},
                                           ("avg_age_ms",))
    assert problems


def test_crowd_conservation_rejects_a_miscount():
    cfg = wl.crowd_config(netsim, 3, "lazy")
    small = netsim.SimConfig(stations=cfg.stations, n_sources=8, protocol="lazy", duration=2.0,
                             seed=3, multiaccess=cfg.multiaccess, record_trace=False)
    result = netsim.run_simulation(small)
    counts = (list(result.generated), result.delivered, result.dropped, result.resident_census())
    assert checks.check_conservation(*counts) == []
    counts[0][5] += 1
    assert checks.check_conservation(*counts)


@pytest.fixture(scope="module")
def live_session(tmp_path_factory):
    tally = run.Tally()
    session = run.loopback_session(0.5, tmp_path_factory.mktemp("live"), tally)
    assert tally.problems == []
    assert tally.attempted > 0 and tally.failed == 0
    return session["monitor"], session["acks"]


def test_ack_for_undelivered_seq_is_rejected(live_session):
    mon, acks = live_session
    forged = acks + [(acks[-1][0] + 1e-3, mon[-1][1] + 1, 1e-4)]
    problems = checks.check_loopback(len(mon), mon, forged, wl.LOOPBACK_RATE)
    assert any("never delivered" in p for p in problems)


def test_early_send_is_rejected(live_session):
    mon, acks = list(live_session[0]), live_session[1]
    k = len(mon) // 2
    half_interval_ns = int(0.5e9 / wl.LOOPBACK_RATE)
    mon[k] = (mon[k][0], mon[k][1], mon[k - 1][2] + half_interval_ns)
    problems = checks.check_loopback(len(mon), mon, acks, wl.LOOPBACK_RATE)
    assert any("under the" in p for p in problems)


def test_lost_update_is_rejected(live_session):
    mon, acks = live_session
    problems = checks.check_loopback(len(mon) + 1, mon, acks, wl.LOOPBACK_RATE)
    assert any("deliveries of" in p for p in problems)
