import csv
import dataclasses
import hashlib
import json
import os
import random
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import typing
from pathlib import Path

import pytest

import agectl
from agectl import cli, metrics
from agectl.cli import (
    ExperimentSpec,
    SpecError,
    build_parser,
    cmd_report,
    cmd_simulate,
    main,
    parse_spec,
    sweep_min_age,
)
from agectl.csvio import (
    ack_csv_path,
    read_log,
    write_ack_log,
    write_epoch_log,
    write_monitor_log,
)
from agectl.netsim import (
    DETERMINISTIC,
    EXPONENTIAL,
    MultiaccessConfig,
    SimConfig,
    StationConfig,
    run_simulation,
)
from agectl.wire import UpdatePacket, decode_ack, encode_update
from test_golden import SPEC as GOLDEN_SPEC


SPEC_TEXT = """
name = tiny
duration = 3
seed = 9
repetitions = 2
sweep_sources = 1,2
protocols = acp+,lazy
warmup_frac = 0.2

[station]
service = deterministic
rate = 6e6
buffer = 50
prop_delay = 0.001

[station]
service = exponential
rate = 6e6
prop_delay = 0.001
"""


class TestSpecParsing:
    def test_values_and_sections(self):
        top, stations, multiaccess = parse_spec(
            "a = 1\nb = 2.5\nc = on\nd = x,y\n[station]\nrate = 1e6\n[multiaccess]\nslot = 1e-4\n"
        )
        # each value is its stripped text; ExperimentSpec types it by the key it sets
        assert top == {"a": "1", "b": "2.5", "c": "on", "d": "x,y"}
        assert stations == [{"rate": "1e6"}]
        assert multiaccess == {"slot": "1e-4"}

    def test_comments_and_blanks_ignored(self):
        top, _, _ = parse_spec("# comment\n\nx = 3  # trailing\n")
        assert top == {"x": "3"}

    def test_unknown_section_rejected(self):
        with pytest.raises(SpecError):
            parse_spec("[weird]\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(SpecError):
            parse_spec("just words\n")

    def test_duplicate_sweep_values_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(SPEC_TEXT.replace("1,2", "2,2"))

    def test_station_required(self):
        with pytest.raises(SpecError):
            ExperimentSpec("name = x\n")

    def test_run_enumeration_counts(self):
        spec = ExperimentSpec(SPEC_TEXT)
        runs = list(spec.runs())
        assert len(runs) == 2 * 2 * 2
        assert runs[0] == (1, "acp+", 0)

    def test_seed_derivation_is_stable_and_distinct(self):
        spec = ExperimentSpec(SPEC_TEXT)
        a = spec.sim_config(1, "acp+", 0).seed
        b = spec.sim_config(1, "acp+", 1).seed
        assert a == spec.sim_config(1, "acp+", 0).seed
        assert a != b


class TestSpecKeys:
    MINIMAL = "duration = 2\n[multiaccess]\nslot = 1e-4\n[station]\nrate = 6e6\n"

    @pytest.mark.parametrize("good, bad, where", [
        ("duration = 2", "duraton = 2", "top level"),
        ("slot = 1e-4", "persistance = 0.9", "[multiaccess]"),
        ("rate = 6e6", "rate = 6e6\nbufer = 2", "[station 1]"),
    ])
    def test_misspelt_key_is_named(self, good, bad, where):
        ExperimentSpec(self.MINIMAL)
        with pytest.raises(SpecError, match=re.escape(f"{where}: unknown key '{bad.split()[-3]}'")):
            ExperimentSpec(self.MINIMAL.replace(good, bad))

    @pytest.mark.parametrize("line", ["sorces = 4", "bootstrap_rate = 2", "n_sources = 4",
                                      "stations = 1"])
    def test_keys_that_name_no_setting_are_rejected(self, line):
        with pytest.raises(SpecError, match=line.split()[0]):
            ExperimentSpec(line + "\n" + self.MINIMAL)

    def test_non_integral_int_is_rejected(self):
        spec = self.MINIMAL.replace("slot = 1e-4", "max_backoff_exp = 5.5")
        with pytest.raises(SpecError, match="max_backoff_exp must be int, got 5.5"):
            ExperimentSpec(spec)
        spec = ExperimentSpec(self.MINIMAL.replace("slot = 1e-4", "max_backoff_exp = 5.0"))
        assert spec.base.multiaccess.max_backoff_exp == 5

    def test_station_defaults_and_checks(self):
        (station,) = ExperimentSpec(self.MINIMAL).base.stations
        assert station == StationConfig(rate=6e6)
        assert station.service == DETERMINISTIC and station.buffer is None
        for bad, message in (("rate = -1", "station rate must be positive"),
                             ("rate = 6e6\nbuffer = 0", "finite buffer"),
                             ("rate = 6e6\nservice = uniform", "unknown service kind"),
                             ("prop_delay = 0.002", ".*missing .*'rate'")):
            with pytest.raises(SpecError, match=r"\[station 1\]: " + message):
                ExperimentSpec(self.MINIMAL.replace("rate = 6e6", bad))

    def test_readme_example_is_the_criterion_6_setup(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Experiment spec files", 1)[1]
        spec = ExperimentSpec(section.split("```")[1])
        assert spec.base.multiaccess == MultiaccessConfig(
            link_rate=12e6, slot=2.5e-4, persistence=0.25, max_backoff_exp=5,
            per_source_loss=0.01)
        station = StationConfig(rate=6e6, buffer=100, prop_delay=0.002)
        assert spec.base.stations == (station, station)
        assert spec.base.duration == 60.0 and spec.repetitions == 10
        assert spec.source_counts == [1, 6, 12, 24, 48] and spec.protocols == ["acp+", "lazy"]

    def test_run_config_replaces_count_protocol_and_seed_only(self):
        spec = ExperimentSpec(SPEC_TEXT)
        cfg = spec.sim_config(2, "lazy", 1)
        assert (cfg.n_sources, cfg.protocol) == (2, "lazy")
        assert cfg.duration == 3.0 and not cfg.record_trace and cfg.stations == spec.base.stations
        assert spec.warmup_frac == 0.2


# The typing that the spec layer used to do, frozen as the reference for the
# one that replaced it: a type was guessed from the text, then checked
# against the field the value landed in.
def _parent_coerce(value):
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


def _parent_convert(value, kind, key):
    kinds = typing.get_args(kind) or (kind,)
    base = kinds[0]
    if value is None and type(None) in kinds or type(value) is base:
        return value
    if base is float and type(value) is int:
        return float(value)
    if base is int and type(value) is float and value.is_integer():
        return int(value)
    raise SpecError(f"{key} must be {base.__name__}, got {value!r}")


def _typed(convert, text, kind):
    """(type, repr) of the value, which tells -0.0 from 0.0 and matches nan; or "rejected"."""
    try:
        value = convert(text, kind)
    except (ValueError, OverflowError):
        return "rejected"
    return type(value), repr(value)


def _typing_inputs():
    rng = random.Random(26)
    fixed = ["-0", "+5", "5.0", "5.5", "1e3", "1_000", "1_234_567_890_123_456_789_012", "nan",
             "inf", "-inf", "0x10", "", "1e400", "-0.0", "5.", "abc", "True", "NONE",
             "true", "yes", "on", "false", "no", "off", "none", "unbounded"]
    ints = [repr(rng.choice((-1, 1)) * rng.randrange(10 ** rng.randint(1, 30)))
            for _ in range(600)]
    floats = [repr(rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-30, 30))
              for _ in range(500)]
    integral = [repr(float(rng.randrange(10 ** rng.randint(1, 25)))) for _ in range(100)]
    return fixed + ints + floats + integral


@pytest.mark.parametrize("kind", [int, float, bool, int | None])
def test_spec_typing_matches_the_guess_then_check_it_replaced(kind):
    def parent(text, kind):
        return _parent_convert(_parent_coerce(text), kind, "key")

    def new(text, kind):
        return cli._convert(text, kind, "key")
    inputs = _typing_inputs()
    assert len(inputs) > 1000
    for text in inputs:
        assert _typed(new, text, kind) == _typed(parent, text, kind), text


@pytest.mark.parametrize("name", ["true", "1e3", "none", "a,b"])
def test_name_is_the_output_directory_and_seed_as_written(name, tmp_path):
    spec = tmp_path / "named.spec"
    spec.write_text(f"name = {name}\nduration = 1\n[station]\nrate = 6e6\n")
    assert cmd_simulate(str(spec), str(tmp_path / "runs")) == 0
    assert [p.name for p in (tmp_path / "runs").iterdir()] == [name]
    run = tmp_path / "runs" / name / "sources-001" / "acp+" / "rep00"
    manifest = json.loads((run / "manifest.json").read_text())
    seed = hashlib.sha256(f"{name}/0/1/acp+/0".encode()).digest()[:8]
    assert manifest["seed"] == int.from_bytes(seed, "big")
    assert manifest["run_id"] == f"{name}/N1/acp+/rep0"


# README table header -> the config class whose fields its keys set
SPEC_TABLES = {"Top-level key": SimConfig, "`[station]` key": StationConfig,
               "`[multiaccess]` key": MultiaccessConfig}


def readme_key_tables():
    """{table header: {key: its default cell's text}} of the README's spec key tables."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Experiment spec files", 1)[1].split("\n## ", 1)[0]
    tables = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if not line.startswith("|") or cells[0] == "---":
            continue
        if cells[1] == "Default":
            table = tables[cells[0]] = {}
            continue
        default = re.match(r"`([^`]*)`", cells[1])
        for key in re.findall(r"`(\w+)`", cells[0]):
            table[key] = default.group(1) if default else cells[1]
    return tables


def spec_with(cls, line):
    """A spec of defaults (one station at 6e6 b/s, a [multiaccess] block) plus `line`
    in the section of cls."""
    sections = {SimConfig: "", MultiaccessConfig: "", StationConfig: "rate = 6e6\n"}
    sections[cls] += line + "\n"
    return (f"{sections[SimConfig]}[multiaccess]\n{sections[MultiaccessConfig]}"
            f"[station]\n{sections[StationConfig]}")


def test_readme_key_tables_list_exactly_the_keys_a_spec_takes():
    tables = readme_key_tables()
    assert list(tables) == list(SPEC_TABLES)
    for title, cls in SPEC_TABLES.items():
        keys = {f.name for f in dataclasses.fields(cls)}
        keys |= set(cli.RUN_KEYS) if cls is SimConfig else set()
        assert set(tables[title]) <= keys
        for key in keys - set(tables[title]):  # a field left out of a table is refused
            with pytest.raises(SpecError, match=f"unknown key '{key}'"):
                ExperimentSpec(spec_with(cls, f"{key} = 1"))


def test_readme_defaults_are_the_defaults_a_spec_gets():
    def state(text):
        return {k: v for k, v in vars(ExperimentSpec(text)).items() if k != "text"}
    defaults = state(spec_with(SimConfig, ""))
    for title, cls in SPEC_TABLES.items():
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for key, default in readme_key_tables()[title].items():
            if default == "required":
                continue
            if key in fields:
                value = cli._convert(default, fields[key].type, key)
                field_default = fields[key].default
                assert (type(value), value) == (type(field_default), field_default), key
            assert state(spec_with(cls, f"{key} = {default}")) == defaults, key


@pytest.mark.parametrize("text, message", [
    ("[weird]\n", "line 1: unknown section [weird]"),
    (TestSpecKeys.MINIMAL.replace("duration", "duraton"), "top level: unknown key 'duraton'"),
    (TestSpecKeys.MINIMAL.replace("6e6", "-1"), "[station 1]: station rate must be positive"),
    ("protocols = acp+,acp+\n" + TestSpecKeys.MINIMAL, "protocols must be distinct"),
    ("name = ..\n" + TestSpecKeys.MINIMAL, "name must be one directory name, got '..'"),
    ("name = .\n" + TestSpecKeys.MINIMAL, "name must be one directory name, got '.'"),
    ("name =\n" + TestSpecKeys.MINIMAL, "name must be one directory name, got ''"),
    ("name = a/b\n" + TestSpecKeys.MINIMAL, "name must be one directory name, got 'a/b'"),
    ("name = /nonexistent/abs\n" + TestSpecKeys.MINIMAL,
     "name must be one directory name, got '/nonexistent/abs'"),
    ("name = a\0b\n" + TestSpecKeys.MINIMAL, "name must be one directory name, got 'a\\x00b'"),
    (TestSpecKeys.MINIMAL + "service = 5\n", "[station 1]: unknown service kind '5'"),
    ("ack_path = none\n" + TestSpecKeys.MINIMAL, "top level: unknown ack_path 'none'"),
    ("record_trace = 1\n" + TestSpecKeys.MINIMAL, "top level: record_trace must be bool, got 1"),
    (TestSpecKeys.MINIMAL + "buffer = 1.5\n", "[station 1]: buffer must be int, got 1.5"),
    pytest.param(TestSpecKeys.MINIMAL.replace("duration = 2", "duration = 1" + "0" * 400),
                 "top level: duration must be float, got 1" + "0" * 400, id="int-beyond-float"),
    ("protocols = acp+,tcp\n" + TestSpecKeys.MINIMAL,
     "protocols: unknown mode 'tcp': use acp+, lazy, constant:<rate> or poisson:<rate>"),
    ("protocols = constant:0\n" + TestSpecKeys.MINIMAL,
     "protocols: constant mode needs a positive rate, e.g. constant:100, got 'constant:0'"),
    ("sweep_sources = 1,0\n" + TestSpecKeys.MINIMAL, "source counts must be >= 1, got 0"),
    ("sweep_sources = -2\n" + TestSpecKeys.MINIMAL, "source counts must be >= 1, got -2"),
    (TestSpecKeys.MINIMAL.replace("slot = 1e-4", "max_backoff_exp = -1"),
     "[multiaccess]: max_backoff_exp must be >= 0"),
    (TestSpecKeys.MINIMAL.replace("slot = 1e-4", "link_rate = 0"),
     "[multiaccess]: link_rate must be positive"),
    (TestSpecKeys.MINIMAL.replace("slot = 1e-4", "link_rate = -12e6"),
     "[multiaccess]: link_rate must be positive"),
    ("sweep_sources = 1,4\n"
     + TestSpecKeys.MINIMAL.replace("slot = 1e-4", "persistence = 1\nmax_backoff_exp = 0"),
     "4 sources: persistence 1 with max_backoff_exp 0: colliders collide for ever"),
    ("payload_bytes = -1\n" + TestSpecKeys.MINIMAL, "top level: payload_bytes must be >= 0"),
    ("warmup_frac = 1.5\n" + TestSpecKeys.MINIMAL, "warmup_frac must be in [0, 1), got 1.5"),
    ("warmup_frac = -0.5\n" + TestSpecKeys.MINIMAL, "warmup_frac must be in [0, 1), got -0.5"),
    ("warmup_frac = 1\n" + TestSpecKeys.MINIMAL, "warmup_frac must be in [0, 1), got 1.0"),
    (TestSpecKeys.MINIMAL.replace("duration = 2", "duration = nan"),
     "top level: duration must be positive and finite"),
    (TestSpecKeys.MINIMAL.replace("duration = 2", "duration = inf"),
     "top level: duration must be positive and finite"),
    ("alpha = 0.875\n" + TestSpecKeys.MINIMAL, "top level: unknown key 'alpha'"),
    ("sources = 2\n" + TestSpecKeys.MINIMAL, "top level: unknown key 'sources'"),
    ("protocol = acp+\n" + TestSpecKeys.MINIMAL, "top level: unknown key 'protocol'"),
    (TestSpecKeys.MINIMAL.replace("6e6", "nan"), "[station 1]: station rate must be positive"),
    (TestSpecKeys.MINIMAL + "prop_delay = nan\n",
     "[station 1]: propagation delay must be non-negative"),
    (TestSpecKeys.MINIMAL.replace("slot = 1e-4", "slot = nan"),
     "[multiaccess]: slot must be positive"),
    (TestSpecKeys.MINIMAL.replace("slot = 1e-4", "link_rate = nan"),
     "[multiaccess]: link_rate must be positive"),
    (TestSpecKeys.MINIMAL.replace("6e6", "inf"), "[station 1]: station rate must be finite"),
    (TestSpecKeys.MINIMAL + "prop_delay = inf\n",
     "[station 1]: propagation delay must be finite"),
    (TestSpecKeys.MINIMAL.replace("slot = 1e-4", "slot = inf"),
     "[multiaccess]: slot must be finite"),
    (TestSpecKeys.MINIMAL.replace("slot = 1e-4", "link_rate = inf"),
     "[multiaccess]: link_rate must be finite"),
])
def test_simulate_reports_a_bad_spec_in_one_line(tmp_path, capsys, text, message):
    spec = tmp_path / "bad.spec"
    spec.write_text(text)
    assert main(["simulate", str(spec), "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err == f"{spec}: {message}\n"
    assert not (tmp_path / "runs").exists()


def test_simulate_reports_a_missing_spec_in_one_line(tmp_path, capsys):
    spec = tmp_path / "nope.spec"
    assert main(["simulate", str(spec), "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err == f"{spec}: [Errno 2] No such file or directory: '{spec}'\n"
    assert not (tmp_path / "runs").exists()


@pytest.fixture(scope="module")
def run_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    spec = root / "tiny.spec"
    spec.write_text(SPEC_TEXT)
    rc = cmd_simulate(str(spec), str(root), jobs=2)
    return rc, root / "tiny"


class TestSimulateCommand:
    def test_exit_code_and_directory_count(self, run_tree):
        rc, out = run_tree
        assert rc == 0
        run_dirs = sorted(p for p in out.glob("sources-*/*/rep*") if p.is_dir())
        assert len(run_dirs) == 8

    def test_run_dir_contents(self, run_tree):
        _, out = run_tree
        run = out / "sources-002" / "acp+" / "rep00"
        names = {p.name for p in run.iterdir()}
        assert {"monitor_000.csv", "monitor_001.csv", "acks_000.csv",
                "summary.csv", "manifest.json"} <= names
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["sources"] == 2 and manifest["protocol"] == "acp+"
        assert "seed" in manifest and manifest["spec"].startswith("\nname = tiny")

    def test_rollup_shape(self, run_tree):
        _, out = run_tree
        rows = list(csv.DictReader(open(out / "rollup.csv")))
        assert len(rows) == 4  # 2 sweep values x 2 protocols
        assert {r["protocol"] for r in rows} == {"acp+", "lazy"}
        for r in rows:
            assert r["runs"] == "2"
            assert float(r["avg_age_ms_mean"]) > 0

    def test_runs_csv_columns(self, run_tree):
        _, out = run_tree
        rows = list(csv.DictReader(open(out / "runs.csv")))
        assert len(rows) == 8
        assert set(rows[0]) == {"run_id", "protocol", "sources", "avg_age_ms",
                                "avg_delay_ms", "throughput_bps", "inter_delivery_ms",
                                "backlog_avg", "fairness", "inter_ack_ms"}

    def test_report_on_run_dir(self, run_tree, capsys):
        _, out = run_tree
        run = out / "sources-002" / "lazy" / "rep01"
        rc = cmd_report(str(run))
        assert rc == 0
        printed = capsys.readouterr().out
        assert "avg_age_ms" in printed and "jain_fairness_over_ages" in printed
        assert (run / "delay_vs_age.csv").exists()
        assert (run / "throughput_vs_age.csv").exists()

    def test_reports_do_not_change_run_data(self, run_tree):
        _, out = run_tree
        run = out / "sources-001" / "acp+" / "rep00"
        before = (run / "monitor_000.csv").read_bytes()
        cmd_report(str(run))
        assert (run / "monitor_000.csv").read_bytes() == before

    def test_report_runs_twice_on_one_directory(self, run_tree, capsys):
        _, out = run_tree
        run = out / "sources-002" / "acp+" / "rep01"
        assert cmd_report(str(run)) == 0
        first = capsys.readouterr().out
        assert (run / "age_acks_000.csv").exists()
        assert cmd_report(str(run)) == 0
        assert capsys.readouterr().out == first


def test_report_integrates_each_spanned_log_once(tmp_path, monkeypatch):
    # the golden acp+ run: 12 monitor and 12 ACK logs, each spanning time, so
    # one age window per log and none for its summary
    spec = tmp_path / "spec.txt"
    spec.write_text(GOLDEN_SPEC)
    assert cmd_simulate(str(spec), str(tmp_path / "runs")) == 0
    run_dir = tmp_path / "runs" / "golden" / "sources-012" / "acp+" / "rep00"
    opened = []
    window = metrics.EpochWindow

    def counting(*args):
        opened.append(args)
        return window(*args)

    monkeypatch.setattr(metrics, "EpochWindow", counting)
    assert cmd_report(str(run_dir)) == 0
    logs = [*run_dir.glob("monitor_*.csv"), *run_dir.glob("acks_*.csv")]
    assert len(logs) == 24
    assert len(opened) == len(logs)


LOSSY_SPEC = """
name = lossy
duration = 4
seed = 11
sweep_sources = 16
protocols = acp+,lazy

[multiaccess]
per_source_loss = 0.01
slot = 2.5e-4
max_backoff_exp = 5

[station]
service = exponential
rate = 3e6
buffer = 8
prop_delay = 0.002
"""


@pytest.fixture
def kept_runs(monkeypatch):
    """The networks that cmd_simulate runs in this process, in order."""
    results = []
    run_simulation = cli.run_simulation

    def keep(cfg):
        results.append(run_simulation(cfg))
        return results[-1]

    monkeypatch.setattr(cli, "run_simulation", keep)
    return results


def test_simulate_survives_lost_first_updates(tmp_path, kept_runs):
    # some source loses every update generated before the warm-up cut, so
    # its age at the cut is counted from the start of the run
    spec = tmp_path / "lossy.spec"
    spec.write_text(LOSSY_SPEC)
    assert cmd_simulate(str(spec), str(tmp_path)) == 0
    cut = 0.1 * 4  # default warmup_frac times duration
    assert any(m.delivery_log[0][2] / 1e9 > cut for r in kept_runs for m in r.monitors)
    rows = list(csv.DictReader(open(tmp_path / "lossy" / "runs.csv")))
    assert [r["protocol"] for r in rows] == ["acp+", "lazy"]
    assert all(float(r["avg_age_ms"]) > 0 for r in rows)


def reference_age(deliveries, t0, t1):
    """Time-average over [t0, t1] of t - G(t), integrated apart from agectl.metrics.

    G(t) is the generation time of the freshest update received by t.
    Before the first delivery G is that update's generation time if it
    precedes t0, and the run start 0 otherwise, or if nothing was delivered.
    """
    first_gen = deliveries[0][1] if deliveries else 0.0
    gen = first_gen if first_gen <= t0 else 0.0
    t, area = t0, 0.0
    for r, g in deliveries:
        if r <= t0:
            gen = g
            continue
        if r > t1:
            break
        area += ((r - gen) ** 2 - (t - gen) ** 2) / 2
        t, gen = r, g
    area += ((t1 - gen) ** 2 - (t - gen) ** 2) / 2
    return area / (t1 - t0)


def test_run_summary_counts_every_source_including_the_starving_ones():
    # 3 s of the crowd-n768 channel: half the sources deliver nothing after
    # the warm-up, and most of those deliver nothing at all
    station = StationConfig(service=DETERMINISTIC, rate=6e6, buffer=100, prop_delay=0.002)
    channel = MultiaccessConfig(link_rate=12e6, slot=2.5e-4, persistence=0.25,
                                max_backoff_exp=5, per_source_loss=0.01)
    cfg = SimConfig(stations=(station, station), n_sources=768, protocol="acp+", duration=3.0,
                    seed=5, multiaccess=channel, record_trace=False)
    result = run_simulation(cfg)
    t0, t1 = 0.3, 3.0
    ages, starving, silent = [], 0, 0
    for monitor in result.monitors:
        deliveries = [(r, g / 1e9) for r, _, g in monitor.delivery_log]
        starving += not any(t0 <= r <= t1 for r, _ in deliveries)
        silent += not deliveries
        ages.append(reference_age(deliveries, t0, t1))
    assert (starving, silent) == (383, 361)
    summary = cli.summarize_run(result, 0.1)
    assert summary["avg_age_ms"] == pytest.approx(statistics.mean(ages) * 1e3, rel=1e-9)
    jain = sum(ages) ** 2 / (len(ages) * sum(a * a for a in ages))
    assert summary["fairness"] == pytest.approx(jain, rel=1e-9)


def test_a_one_run_spec_runs_in_process_at_any_jobs(tmp_path, kept_runs):
    # a pool worker would run it in a child process, out of kept_runs' reach
    spec = tmp_path / "one.spec"
    spec.write_text(SPEC_TEXT.replace("repetitions = 2", "repetitions = 1")
                    .replace("sweep_sources = 1,2", "sweep_sources = 1")
                    .replace("protocols = acp+,lazy", "protocols = acp+"))
    assert cmd_simulate(str(spec), str(tmp_path), jobs=2) == 0
    assert [(r.cfg.n_sources, r.cfg.protocol) for r in kept_runs] == [(1, "acp+")]


def test_importing_the_cli_loads_no_pool_transport_or_parser():
    # the pool, the live transport and the parser load in the code that runs
    # them, not when the module is imported
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import agectl.cli\n"
             "lazy = {'concurrent.futures.process', 'multiprocessing', 'argparse', 'socket',\n"
             "        'agectl.transport'}\n"
             "print(sorted(lazy & (set(sys.modules) - before)))\n")
    src = str(Path(agectl.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


PACKET_BITS = 8 * (19 + 1024)


def sweep_ages(stations, rates, duration, seed):
    """{rate: avg_age_ms} of poisson sources over exponential stations with instant ACKs."""
    station = StationConfig(service=EXPONENTIAL, rate=1000.0 * PACKET_BITS)
    base = SimConfig(stations=(station,) * stations, duration=duration, seed=seed,
                     ack_path="instant")
    curve = sweep_min_age(base, [f"poisson:{r}" for r in rates])
    return {r: s["avg_age_ms"] for r, s in zip(rates, curve)}


class TestSweep:
    def test_single_station_age_curve_is_u_shaped(self):
        mu = 1000.0
        rates = [0.1 * mu, 0.3 * mu, 0.5 * mu, 0.7 * mu, 0.95 * mu]
        ages = sweep_ages(1, rates, 30.0, seed=2)
        best_rate = min(ages, key=ages.get)
        assert ages[0.1 * mu] > ages[best_rate]
        assert ages[0.95 * mu] > ages[best_rate]
        assert best_rate not in (0.1 * mu, 0.95 * mu)

    def test_starvation_limit_age_blows_up(self):
        ages = sweep_ages(2, [1.0, 500.0], 30.0, seed=4)
        assert ages[1.0] > 50 * ages[500.0]


def test_sweep_never_picks_a_rate_with_nothing_delivered_after_the_warm_up(capsys):
    # poisson:0.01 delivers its t = 0 update and, at this seed, nothing more in
    # 5 s, so its age is the ramp from that update: (0.5 + 5) / 2 s
    assert main(["sweep-min-age", "--duration", "5", "--rates", "0.01", "200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0.01 2.750000 0.0000"
    assert lines[-1].startswith("best_rate=200.0 ")


def test_report_empty_directory_fails(tmp_path):
    assert cmd_report(str(tmp_path)) == 1


def test_main_rejects_bad_mode(tmp_path):
    with pytest.raises(SystemExit):
        main(["source", "--peer", "127.0.0.1:1", "--mode", "tcp",
              "--duration", "0", "--out", str(tmp_path / "x.csv")])


@pytest.mark.parametrize("mode", ["constant:abc", "constant:0", "constant", "poisson:-1"])
def test_source_mode_without_a_positive_rate_exits_2(mode, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["source", "--peer", "127.0.0.1:1", "--mode", mode,
                                   "--duration", "1", "--out", "x.csv"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["source", "--peer", "127.0.0.1:1", "--out", "src.csv", "--duration", "nan"],
    ["monitor", "--listen", "127.0.0.1:0", "--out", "m.csv", "--duration", "nan"],
    ["monitor", "--listen", "127.0.0.1:0", "--out", "m.csv", "--duration", "-1"],
    ["proxy", "--listen", "127.0.0.1:0", "--forward", "127.0.0.1:1", "--duration", "inf"],
])
def test_live_duration_must_be_finite_and_not_negative(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    message = f"--duration: duration must be finite and >= 0, got {argv[-1]}"
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert build_parser().parse_args(argv[:-1] + ["0"]).duration == 0.0


@pytest.mark.parametrize("argv, flag", [
    (["sweep-min-age", "--rates", "--duration", "1"], "--rates"),
    (["rtt-curve", "--loads"], "--loads"),
])
def test_a_list_flag_with_no_values_is_a_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: expected at least one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, address", [
    (["monitor", "--listen", "nonsense", "--out", "m.csv"], "--listen", "nonsense"),
    (["monitor", "--listen", "127.0.0.1:99999", "--out", "m.csv"], "--listen", "127.0.0.1:99999"),
    (["source", "--peer", "127.0.0.1:notaport", "--out", "s.csv"], "--peer", "127.0.0.1:notaport"),
    (["source", "--peer", "127.0.0.1:1", "--listen", "127.0.0.1:-1", "--out", "s.csv"],
     "--listen", "127.0.0.1:-1"),
    (["proxy", "--listen", ":port", "--forward", "127.0.0.1:1"], "--listen", ":port"),
    (["proxy", "--listen", "127.0.0.1:0", "--forward", "bogus"], "--forward", "bogus"),
])
def test_a_malformed_address_is_a_usage_error_before_any_socket(argv, flag, address, tmp_path,
                                                                capsys, monkeypatch):
    from agectl import transport

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(transport, "_bound_socket", lambda addr: pytest.fail("socket bound"))
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--duration", "0.2"])
    assert exc.value.code == 2
    assert (f"argument {flag}: expected host:port with a port in [0, 65535], got {address!r}"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag, address", [
    (["source", "--peer", "127.0.0.1:0", "--mode", "constant:50", "--out", "p.csv"],
     "--peer", "127.0.0.1:0"),
    (["proxy", "--listen", "127.0.0.1:0", "--forward", ":0"], "--forward", ":0"),
])
def test_a_destination_port_of_0_is_a_usage_error_before_any_socket(argv, flag, address,
                                                                    tmp_path, capsys,
                                                                    monkeypatch):
    from agectl import transport

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(transport, "_bound_socket", lambda addr: pytest.fail("socket bound"))
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--duration", "0.3"])
    assert exc.value.code == 2
    assert (f"argument {flag}: a destination needs a port in [1, 65535], got {address!r}"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []
    # a listen port of 0 is any free port, and still parses
    assert build_parser().parse_args(["monitor", "--listen", ":0", "--duration", "0",
                                      "--out", "m.csv"]).listen == ":0"


@pytest.mark.parametrize("argv", [
    ["monitor", "--listen", "127.0.0.1:0", "--duration", "0.2"],
    ["source", "--peer", "127.0.0.1:1", "--duration", "0.2"],
    ["rtt-curve"],
])
@pytest.mark.parametrize("out, message", [
    ("missing/log.csv", "directory 'missing' does not exist"),
    (".", "'.' is a directory"),
])
def test_an_out_file_that_cannot_be_written_is_a_usage_error(argv, out, message, tmp_path,
                                                             capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", out])
    assert exc.value.code == 2
    assert f"argument --out: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_into_a_file_is_a_one_line_error_that_writes_nothing(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(TestSpecKeys.MINIMAL)
    blocker = tmp_path / "runs"
    blocker.write_text("")
    assert main(["simulate", str(spec), "--out", str(blocker)]) == 2
    message = f"simulate: cannot create {blocker / 'experiment'}: Not a directory\n"
    assert capsys.readouterr().err == message
    assert sorted(tmp_path.iterdir()) == [blocker, spec]
    assert blocker.read_text() == ""


def test_source_accepts_poisson_mode(tmp_path):
    out = tmp_path / "src.csv"
    assert main(["source", "--peer", "127.0.0.1:1", "--mode", "poisson:50",
                 "--duration", "0", "--out", str(out)]) == 0
    assert out.exists()


def test_report_finds_logs_by_header_under_readme_names(tmp_path, capsys):
    # the README's live session writes mon.csv, src.csv and src_acks.csv
    write_monitor_log(tmp_path / "mon.csv",
                      [(0.1 * k + 0.02, k, round(0.1 * k * 1e9)) for k in range(50)])
    write_ack_log(tmp_path / "src_acks.csv", [(0.1 * k + 0.04, k, 0.04) for k in range(50)])
    write_epoch_log(tmp_path / "src.csv", [])
    assert cmd_report(str(tmp_path)) == 0
    sessions = [line.split()[:2] for line in capsys.readouterr().out.splitlines()[1:]]
    assert sessions == [["mon", "one-way"], ["src_acks", "rtt-based"]]
    # a second report skips its own exports, which are not endpoint logs
    assert (tmp_path / "age_mon.csv").exists() and (tmp_path / "age_src_acks.csv").exists()
    assert cmd_report(str(tmp_path)) == 0
    sessions = [line.split()[:2] for line in capsys.readouterr().out.splitlines()[1:]]
    assert sessions == [["mon", "one-way"], ["src_acks", "rtt-based"]]


def test_report_flags_a_truncated_log_as_unreadable(tmp_path, capsys):
    (tmp_path / "mon.csv").write_text("receive_time,seq,gen_ts\n0.1,0,100000000\n0.2,1\n")
    write_ack_log(tmp_path / "src_acks.csv", [(0.1 * k + 0.04, k, 0.04) for k in range(5)])
    assert cmd_report(str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert "mon.csv: unreadable" in captured.err
    assert "src_acks" in captured.out


@pytest.mark.parametrize("name, header, last, row", [
    ("mon", "receive_time,seq,gen_ts", "400000000", "1.0,1,900000000,77"),
    ("mon", "receive_time,seq,gen_ts", "400000000", "1.0,1"),
    ("src_acks", "ack_time,seq,rtt", "0.1", "1.0,1,0.1,0.1"),
])
def test_report_flags_a_row_with_the_wrong_number_of_fields_as_unreadable(
        tmp_path, capsys, name, header, last, row):
    # the log's second data row is its third row, after the header
    (tmp_path / f"{name}.csv").write_text(f"{header}\r\n0.5,0,{last}\r\n{row}\r\n")
    assert cmd_report(str(tmp_path)) == 1
    fields = len(row.split(","))
    assert capsys.readouterr().err == (f"{name}.csv: unreadable (row 3 has {fields} fields, "
                                       "the header 3)\n")
    assert not (tmp_path / f"age_{name}.csv").exists()


def report_rows(capsys):
    """session -> the fields of its row in the report table."""
    lines = capsys.readouterr().out.splitlines()[1:]
    return {line.split()[0]: line.split()[1:] for line in lines if not line.startswith("jain")}


@pytest.mark.parametrize("write, name, mode, log", [
    (write_monitor_log, "mon", "one-way", [(0.5, 0, 400_000_000)]),
    (write_monitor_log, "mon", "one-way", [(0.5, k, 400_000_000 + k) for k in range(4)]),
    (write_monitor_log, "mon", "one-way", []),
    (write_ack_log, "src_acks", "rtt-based", [(0.5, 0, 0.04)]),
    (write_ack_log, "src_acks", "rtt-based", [(0.5, k, 0.04) for k in range(3)]),
    (write_ack_log, "src_acks", "rtt-based", []),
])
def test_report_gives_a_log_without_a_time_span_a_blank_row(tmp_path, capsys, write, name,
                                                            mode, log):
    write(tmp_path / f"{name}.csv", log)
    assert cmd_report(str(tmp_path)) == 0
    assert report_rows(capsys) == {name: [mode, str(len(log))]}


def test_report_flags_receive_times_behind_generation_as_unusable(tmp_path, capsys):
    # a live monitor started after its source: its clock reads less than gen_ts
    write_monitor_log(tmp_path / "mon.csv",
                      [(0.1 * k, k, round((5 + 0.1 * k) * 1e9)) for k in range(20)])
    write_ack_log(tmp_path / "src_acks.csv", [(0.1 * k + 0.04, k, 0.04) for k in range(5)])
    assert cmd_report(str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.err == ("mon.csv: unusable (horizon starts before the first update "
                            "was generated)\n")
    assert "src_acks" in captured.out and "mon " not in captured.out


@pytest.mark.parametrize("write, log, reason", [
    (write_monitor_log, [(1.0, 0, 500_000_000), (3.0, 1, 1_500_000_000),
                         (2.0, 2, 1_600_000_000), (4.0, 3, 3_500_000_000)],
     "seq 2 at 2.0 s follows seq 1 at 3.0 s"),
    (write_monitor_log, [(1.0 + 0.5 * k, k, round((0.9 + 0.5 * k) * 1e9)) for k in range(6)]
     + [(4.0, 6, 4_500_000_000), (4.5, 7, 4_400_000_000)], "seq 6 has delay -0.5 s"),
    (write_monitor_log, [(0.5, 0, 600_000_000)], "seq 0 has delay -0.1 s"),
    (write_ack_log, [(1.0, 0, 0.1), (2.0, 2, 0.1), (3.0, 1, 0.1), (4.0, 3, 0.1)],
     "seq 1 at 3.0 s follows seq 2 at 2.0 s"),
    (write_ack_log, [(1.0, 0, 0.1), (2.0, 1, 0.1), (3.0, 2, -0.2), (4.0, 3, 0.1)],
     "seq 2 has rtt -0.2 s"),
    (write_ack_log, [(1.0, 0, 0.1), (1.0, 0, 0.1), (2.0, 1, 0.1)],
     "seq 0 at 1.0 s follows seq 0 at 1.0 s"),
    # checked before the metrics bisect the times, which here would find no ACK in the horizon
    (write_ack_log, [(1.0, 0, 0.1), (10.0, 1, 0.1), (3.0, 2, 0.1), (2.0, 3, 0.1)],
     "seq 2 at 3.0 s follows seq 1 at 10.0 s"),
])
def test_report_flags_a_log_out_of_order_or_with_a_negative_delay_as_unusable(
        tmp_path, capsys, write, log, reason):
    write(tmp_path / "bad.csv", log)
    write_monitor_log(tmp_path / "mon.csv",
                      [(0.1 * k + 0.02, k, round(0.1 * k * 1e9)) for k in range(50)])
    assert cmd_report(str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"bad.csv: unusable ({reason})\n"
    assert [line.split()[0] for line in captured.out.splitlines()[1:]] == ["mon"]
    assert not (tmp_path / "age_bad.csv").exists() and (tmp_path / "age_mon.csv").exists()


def test_report_rtt_rows_cover_the_horizon_only(tmp_path, capsys):
    # ten warm-up ACKs at 0.5 s RTT, then 90 at 0.04 s; the warm-up ends at 1.99 s
    log = [(1.0 + k * 0.1, k, 0.5 if k < 10 else 0.04) for k in range(100)]
    write_ack_log(tmp_path / "src_acks.csv", log)
    assert cmd_report(str(tmp_path)) == 0
    _, count, _, delay = report_rows(capsys)["src_acks"]
    assert (count, delay) == ("90", "40.000")


def test_report_takes_fairness_from_unrounded_ages(tmp_path, capsys):
    # ages of 0.1-0.2 µs print as 0.000 ms; their fairness is still defined
    for name, k0 in (("mon_a", 1), ("mon_b", 51)):
        write_monitor_log(tmp_path / f"{name}.csv",
                          [(k * 1e-7, k, (k - 1) * 100) for k in range(k0, k0 + 50)])
    assert cmd_report(str(tmp_path)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[3] for line in lines[1:3]] == ["0.000", "0.000"]
    assert lines[-1] == "jain_fairness_over_ages  1.0000"
    assert (tmp_path / "delay_vs_age.csv").exists()
    assert (tmp_path / "throughput_vs_age.csv").exists()


def test_rtt_curve_cli(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = main(["rtt-curve", "--mode", "analytic", "--loads", "100", "500",
               "--rate-bits", "8.344e6", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 2 and float(rows[0]["mean_rtt"]) > 0


def test_report_throughput_uses_the_simulated_payload_size(tmp_path, capsys):
    spec = tmp_path / "small.spec"
    spec.write_text("name = small\nduration = 10\nseed = 3\nprotocols = constant:50\n"
                    "payload_bytes = 200\nack_path = instant\n\n"
                    "[station]\nservice = deterministic\nrate = 6e6\n")
    assert cmd_simulate(str(spec), str(tmp_path)) == 0
    run = tmp_path / "small" / "sources-001" / "constant-50" / "rep00"
    summary = next(csv.DictReader(open(run / "summary.csv")))
    capsys.readouterr()
    assert cmd_report(str(run)) == 0
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
    reported = float(rows["monitor_000"][5])
    # about 50 updates/s of 200 bytes; the two horizons differ by their start
    assert reported == pytest.approx(float(summary["throughput_bps"]), rel=0.02)
    assert reported == pytest.approx(50 * 200 * 8, rel=0.02)


def test_report_flags_an_unreadable_manifest(tmp_path, capsys):
    write_monitor_log(tmp_path / "monitor_000.csv",
                      [(0.1 * k + 0.02, k, round(0.1 * k * 1e9)) for k in range(50)])
    (tmp_path / "manifest.json").write_text("{not json")
    assert cmd_report(str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert "manifest.json: unreadable" in captured.err
    assert "monitor_000" in captured.out


def test_rtt_curve_simulates_a_station_that_drops_most_arrivals(capsys):
    # a one-packet buffer at 20x the service rate drops about 95% of the arrivals
    for service in ("exponential", "deterministic"):
        assert main(["rtt-curve", "--mode", "simulate", "--buffer", "1", "--loads", "20000",
                     "--packets", "2000", "--service", service]) == 0
    out = capsys.readouterr().out.split()
    assert out[0] == out[2] == "20000.0" and float(out[1]) > 0
    # a deterministic server never queues behind a one-packet buffer
    assert float(out[3]) == pytest.approx(8 * (19 + 1024) / 8.344e6, abs=1e-6)


def test_rtt_curve_with_nothing_delivered_after_the_warm_up_exits_2(capsys):
    assert main(["rtt-curve", "--mode", "simulate", "--buffer", "1", "--loads", "1e9",
                 "--packets", "10"]) == 2
    err = capsys.readouterr().err
    assert err == "rtt-curve: none of the 9 arrivals after the warm-up was delivered\n"
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("frac", ["1.5", "-0.5", "1", "nan"])
def test_report_warmup_frac_outside_zero_to_one_is_a_usage_error(frac, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", str(tmp_path), "--warmup-frac", frac])
    assert exc.value.code == 2
    assert "--warmup-frac: warmup_frac must be in [0, 1)" in capsys.readouterr().err
    assert build_parser().parse_args(["report", ".", "--warmup-frac", "0"]).warmup_frac == 0.0


@pytest.mark.parametrize("argv, message", [
    (["proxy", "--loss", "1.5"], "proxy: loss probability must be in [0, 1)"),
    (["proxy", "--delay-ms", "-5"], "proxy: delays must be non-negative"),
    (["proxy", "--delay-ms", "nan"], "proxy: delays must be finite, got nan"),
    (["proxy", "--delay-ms", "inf"], "proxy: delays must be finite, got inf"),
    (["rtt-curve", "--buffer", "0"], "rtt-curve: finite buffer must hold at least one packet"),
    (["rtt-curve", "--loads", "nan"], "rtt-curve: loads must be positive and finite, got nan"),
    (["rtt-curve", "--loads", "100", "0"],
     "rtt-curve: loads must be positive and finite, got 0.0"),
    (["rtt-curve", "--loads", "inf"], "rtt-curve: loads must be positive and finite, got inf"),
    (["rtt-curve", "--mode", "simulate", "--loads", "1e400", "--packets", "100"],
     "rtt-curve: loads must be positive and finite, got inf"),
    (["rtt-curve", "--rtt-base", "nan"], "rtt-curve: rtt_base must be finite and >= 0, got nan"),
    (["rtt-curve", "--rtt-base", "inf"], "rtt-curve: rtt_base must be finite and >= 0, got inf"),
    (["rtt-curve", "--rtt-base", "-1"], "rtt-curve: rtt_base must be finite and >= 0, got -1.0"),
    (["sweep-min-age", "--rates", "0"],
     "sweep-min-age: poisson mode needs a positive rate, e.g. poisson:100, got 'poisson:0.0'"),
    (["sweep-min-age", "--rates", "100", "-3"],
     "sweep-min-age: poisson mode needs a positive rate, e.g. poisson:100, got 'poisson:-3.0'"),
    (["sweep-min-age", "--payload-bytes", "-19"],
     "sweep-min-age: payload_bytes must be >= 0, got -19"),
    (["sweep-min-age", "--payload-bytes", "-100"],
     "sweep-min-age: payload_bytes must be >= 0, got -100"),
    (["rtt-curve", "--payload-bytes", "-19"], "rtt-curve: payload_bytes must be >= 0, got -19"),
    (["rtt-curve", "--payload-bytes", "-100"], "rtt-curve: payload_bytes must be >= 0, got -100"),
    (["rtt-curve", "--mode", "simulate", "--packets", "0"],
     "rtt-curve: packets must be >= 1, got 0"),
    (["rtt-curve", "--mode", "simulate", "--packets", "-5"],
     "rtt-curve: packets must be >= 1, got -5"),
    (["simulate", "spec.txt", "--jobs", "0"], "simulate: jobs must be >= 1, got 0"),
    (["simulate", "spec.txt", "--jobs", "-4"], "simulate: jobs must be >= 1, got -4"),
    (["source", "--payload-bytes", "-1"], "source: payload_bytes must be in [0, 65488], got -1"),
    (["source", "--payload-bytes", "70000"],
     "source: payload_bytes must be in [0, 65488], got 70000"),
])
def test_out_of_range_numbers_are_one_line_errors_that_write_nothing(argv, message, tmp_path,
                                                                     capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    extra = {
        "proxy": ["--listen", "127.0.0.1:0", "--forward", "127.0.0.1:1", "--duration", "0"],
        "source": ["--peer", "127.0.0.1:1", "--duration", "0.2", "--out", "src.csv"],
    }.get(argv[0], ["--out", "out.csv"])
    assert main(argv + extra) == 2
    assert capsys.readouterr().err == message + "\n"
    assert list(tmp_path.iterdir()) == []


def test_proxy_prints_its_counters_per_direction(capsys):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sink, \
            socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
        sink.bind(("127.0.0.1", 0))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as free:
            free.bind(("127.0.0.1", 0))
            listen = free.getsockname()[1]
        status = []
        argv = ["proxy", "--listen", f"127.0.0.1:{listen}",
                "--forward", f"127.0.0.1:{sink.getsockname()[1]}", "--duration", "0.2"]
        proxy = threading.Thread(target=lambda: status.append(main(argv)))
        proxy.start()
        while proxy.is_alive():  # sent before the proxy binds, or after it ends, is lost
            sender.sendto(b"update", ("127.0.0.1", listen))
            time.sleep(0.005)
        proxy.join()
        sink.setblocking(False)
        arrived = 0
        while True:
            try:
                sink.recvfrom(2048)
            except BlockingIOError:
                break
            arrived += 1
    assert status == [0] and arrived > 0
    assert capsys.readouterr().out.splitlines() == [
        f"proxy forward: received {arrived}, forwarded {arrived}, dropped 0, unreleased 0",
        "proxy reverse: received 0, forwarded 0, dropped 0, unreleased 0",
    ]


def live_command(argv, cwd):
    """`agectl` with argv in a new Python process, stderr captured."""
    src = str(Path(agectl.__file__).resolve().parents[1])
    return subprocess.Popen([sys.executable, "-m", "agectl.cli", *argv], cwd=cwd,
                            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)


def test_a_signalled_source_exits_130_or_143_with_its_logs(tmp_path):
    for signum, status in ((signal.SIGINT, 130), (signal.SIGTERM, 143)):
        # the updates go to a socket that is bound but never read
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as silent:
            silent.bind(("127.0.0.1", 0))
            peer = f"127.0.0.1:{silent.getsockname()[1]}"
            out = tmp_path / f"src{signum}.csv"
            source = live_command(["source", "--peer", peer, "--mode", "constant:200",
                                   "--duration", "30", "--out", str(out)], tmp_path)
            try:
                # an update has arrived, so the session runs
                assert select.select([silent], [], [], 10.0)[0] == [silent]
                source.send_signal(signum)
                _, err = source.communicate(timeout=10.0)
            finally:
                source.kill()
            assert (source.returncode, err) == (status, "")
            assert list(csv.reader(open(out)))[0][0] == "k"
            assert read_log(ack_csv_path(out)) == ([], [], [])


def test_a_signalled_monitor_exits_130_or_143_with_its_logs(tmp_path):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
        client.settimeout(0.05)
        for signum, status in ((signal.SIGINT, 130), (signal.SIGTERM, 143)):
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as free:
                free.bind(("127.0.0.1", 0))
                port = free.getsockname()[1]
            out = tmp_path / f"mon{signum}.csv"
            monitor = live_command(["monitor", "--listen", f"127.0.0.1:{port}",
                                    "--duration", "30", "--out", str(out)], tmp_path)
            acked = []
            try:
                deadline = time.monotonic() + 10.0
                while len(acked) < 3:  # updates sent before the monitor binds are lost
                    assert time.monotonic() < deadline, "the monitor acknowledged nothing"
                    seq = len(acked)
                    client.sendto(encode_update(UpdatePacket(seq=seq, gen_ts=seq)),
                                  ("127.0.0.1", port))
                    try:
                        acked.append(decode_ack(client.recvfrom(2048)[0]).seq)
                    except socket.timeout:
                        pass
                monitor.send_signal(signum)
                _, err = monitor.communicate(timeout=10.0)
            finally:
                monitor.kill()
            assert (monitor.returncode, err) == (status, "")
            assert read_log(out)[1] == acked == [0, 1, 2]
