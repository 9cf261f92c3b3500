"""Workload definitions shared by the benchmark and its set-up probe.

This module imports nothing at load time, so the set-up probe can start
its clock before any of agectl's imports (or the stdlib modules they pull
in) have run.
"""

TREND = "trend-n48"
CROWD = "crowd-n768"
LOOPBACK = "loopback-constant"
WORKLOADS = (TREND, CROWD, LOOPBACK)

PROTOCOLS = ("acp+", "lazy")

# the multiaccess setting of acceptance criterion 6 (TREND_CHANNEL and
# TREND_STATION in tests/test_acceptance.py, and the README's trend spec)
LINK_RATE = 12e6
SLOT = 2.5e-4
PERSISTENCE = 0.25
MAX_BACKOFF_EXP = 5
PER_SOURCE_LOSS = 0.01
STATION_RATE = 6e6
STATION_BUFFER = 100
PROP_DELAY = 0.002
PAYLOAD_BYTES = 1024
WARMUP_FRAC = 0.1

TREND_SOURCES = 48
TREND_DURATION = 60.0  # simulated seconds; one round is about 5 host seconds
CROWD_SOURCES = 768
CROWD_DURATION = 10.0  # simulated seconds; one round is about 10 host seconds

# Offered rate of the live source, well below the first loss: no datagram
# was lost at 4000/s, while 64000/s lost hundreds per run. The source's
# timer slips add up (see CHANGES.md), so the delivered rate is
# 1 / (1/rate + mean slip), and the host moves the mean slip between about
# 90 and 200 us from one minute to the next. At 4000/s that swung
# updates_per_s by 30% between runs; at 500/s it moves it by about 5%.
LOOPBACK_RATE = 500
SESSION_SECONDS = 5.0
LOOPBACK_HOST = "127.0.0.1"


def round_seed(seed, index):
    """Input seed of round `index` of a run started with `seed`."""
    return seed * 1000 + index


def trend_spec(seed, duration=TREND_DURATION):
    """`agectl simulate` spec text of one trend-n48 round."""
    station = (f"[station]\nservice = deterministic\nrate = {STATION_RATE:g}\n"
               f"buffer = {STATION_BUFFER}\nprop_delay = {PROP_DELAY:g}\n")
    return (
        f"name = {TREND}\n"
        f"duration = {duration:g}\n"
        f"seed = {seed}\n"
        f"repetitions = 1\n"
        f"sweep_sources = {TREND_SOURCES}\n"
        f"protocols = {','.join(PROTOCOLS)}\n"
        f"warmup_frac = {WARMUP_FRAC:g}\n"
        f"payload_bytes = {PAYLOAD_BYTES}\n"
        f"\n[multiaccess]\nlink_rate = {LINK_RATE:g}\nslot = {SLOT:g}\n"
        f"persistence = {PERSISTENCE:g}\nmax_backoff_exp = {MAX_BACKOFF_EXP}\n"
        f"per_source_loss = {PER_SOURCE_LOSS:g}\n"
        f"\n{station}\n{station}"
    )


def crowd_config(netsim, seed, protocol):
    """netsim.SimConfig of one crowd-n768 simulation."""
    station = netsim.StationConfig(service=netsim.DETERMINISTIC, rate=STATION_RATE,
                                   buffer=STATION_BUFFER, prop_delay=PROP_DELAY)
    channel = netsim.MultiaccessConfig(link_rate=LINK_RATE, slot=SLOT,
                                       persistence=PERSISTENCE,
                                       max_backoff_exp=MAX_BACKOFF_EXP,
                                       per_source_loss=PER_SOURCE_LOSS)
    return netsim.SimConfig(stations=(station, station), n_sources=CROWD_SOURCES,
                            protocol=protocol, duration=CROWD_DURATION, seed=seed,
                            payload_bytes=PAYLOAD_BYTES, multiaccess=channel,
                            record_trace=False)


def free_udp_port():
    import socket

    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind((LOOPBACK_HOST, 0))
        return s.getsockname()[1]


def udp_port_bound(port):
    """True once some socket is bound to the UDP port.

    Read from /proc/net/udp: probing with a bind of our own could take the
    port from the monitor in the instant before it binds.
    """
    suffix = f":{port:04X}"
    with open("/proc/net/udp") as fh:
        return any(line.split()[1].endswith(suffix) for line in fh.readlines()[1:])


def wait_port_bound(port, timeout=10.0):
    import time

    deadline = time.monotonic() + timeout
    while not udp_port_bound(port):
        if time.monotonic() > deadline:
            raise TimeoutError(f"nothing bound UDP port {port} within {timeout} s")
        time.sleep(0.0002)
