"""Golden outputs: `agectl simulate` replays a fixed spec byte for byte, and
`agectl report` on one of its runs writes and prints the same bytes.

The spec runs acp+, lazy and a Poisson source over a multiaccess uplink
crowded enough to collide, ahead of an exponential station whose small
buffer drops updates. `golden_simulate.sha256` (sha256sum format) holds
the expected digest of every file in the output tree. A change that is
meant to move an output must say why and regenerate that file with
`sha256sum` over a fresh output tree. The tree must not depend on whether
the runs share one process or spread over a process pool.
`golden_report.sha256` holds the report's digests in the same format.
"""

import hashlib
from pathlib import Path

import pytest

from agectl import cli

GOLDEN = Path(__file__).with_name("golden_simulate.sha256")
REPORT_GOLDEN = Path(__file__).with_name("golden_report.sha256")

SPEC = """
name = golden
duration = 4
seed = 11
repetitions = 1
sweep_sources = 12
protocols = acp+,lazy,poisson:40
warmup_frac = 0.1
record_trace = true

[multiaccess]
link_rate = 12e6
slot = 2.5e-4
persistence = 0.25
max_backoff_exp = 5
per_source_loss = 0.01

[station]
service = exponential
rate = 3e6
buffer = 8
prop_delay = 0.002

[station]
service = deterministic
rate = 6e6
prop_delay = 0.001
"""


def assert_digests(got, golden):
    """`got` ({path: sha256}) names the files of `golden` (sha256sum format), with their digests."""
    expected = {}
    for line in golden.read_text().splitlines():
        digest, path = line.split()
        expected[path] = digest
    assert sorted(got) == sorted(expected)
    changed = sorted(p for p in expected if got[p] != expected[p])
    assert changed == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_simulate_outputs_match_golden(jobs, tmp_path, monkeypatch):
    results = []
    if jobs == 1:  # the runs stay in this process, where they can be kept
        run_simulation = cli.run_simulation

        def keep(cfg):
            results.append(run_simulation(cfg))
            return results[-1]

        monkeypatch.setattr(cli, "run_simulation", keep)
    spec = tmp_path / "spec.txt"
    spec.write_text(SPEC)
    assert cli.cmd_simulate(str(spec), str(tmp_path / "runs"), jobs=jobs) == 0

    if jobs == 1:
        # every protocol went through collisions and station drops
        assert [r.cfg.protocol for r in results] == ["acp+", "lazy", "poisson:40"]
        for r in results:
            assert r.channel.collisions > 0
            assert sum(r.dropped) > r.channel.lost

    top = tmp_path / "runs" / "golden"
    got = {p.relative_to(top).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in top.rglob("*") if p.is_file()}
    assert_digests(got, GOLDEN)


def test_report_outputs_match_golden(tmp_path, capsys):
    # `agectl report` on the acp+ run of the golden spec: 12 monitor logs
    # (one-way ages) and 12 ACK logs (RTT-based ages). `golden_report.sha256`
    # holds the digest of every file the report writes and, as `stdout`,
    # of what it prints.
    spec = tmp_path / "spec.txt"
    spec.write_text(SPEC)
    assert cli.cmd_simulate(str(spec), str(tmp_path / "runs"), jobs=1) == 0
    run_dir = tmp_path / "runs" / "golden" / "sources-012" / "acp+" / "rep00"
    before = {p.name for p in run_dir.iterdir()}
    capsys.readouterr()
    assert cli.cmd_report(str(run_dir)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in run_dir.iterdir() if p.name not in before}
    got["stdout"] = hashlib.sha256(out.encode()).hexdigest()
    assert_digests(got, REPORT_GOLDEN)
