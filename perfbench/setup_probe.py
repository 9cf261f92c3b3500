"""Time one cold set-up of a workload in a fresh interpreter; prints seconds.

    python3 perfbench/setup_probe.py WORKLOAD WORK_DIR SRC_DIR

Set-up is what a user pays before the first update: agectl's imports, the
spec parse and config build, and for the live workload also the monitor's
socket bind, up to the moment the monitor is ready to receive. Only `sys`,
`time` and the import-free `workloads` module load before the clock starts.
"""

import sys
import time

import workloads

start = time.perf_counter()
name, work, src = sys.argv[1:4]
sys.path.insert(0, src)
if name == workloads.TREND:
    from agectl.cli import ExperimentSpec

    spec = ExperimentSpec(workloads.trend_spec(workloads.round_seed(0, 0)))
    configs = [spec.sim_config(*run) for run in spec.runs()]
    print(time.perf_counter() - start)
elif name == workloads.CROWD:
    from agectl import netsim

    configs = [workloads.crowd_config(netsim, 0, p) for p in workloads.PROTOCOLS]
    print(time.perf_counter() - start)
elif name == workloads.LOOPBACK:
    import threading

    from agectl import transport

    port = workloads.free_udp_port()
    stop = threading.Event()
    monitor = threading.Thread(target=transport.run_monitor,
                               args=((workloads.LOOPBACK_HOST, port), 60.0,
                                     f"{work}/probe_monitor.csv", stop))
    monitor.start()
    try:
        workloads.wait_port_bound(port)
        print(time.perf_counter() - start)
    finally:
        stop.set()
        monitor.join()
else:
    sys.exit(f"unknown workload {name!r}")
