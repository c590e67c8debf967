"""The ``query_mix`` workload's program side: a streamed run serving queries.

Builds what ``repro simulate --stream --retain-windows R --alarm-pool B
--query-listen 127.0.0.1:0`` builds, prints the bound query address,
streams ``--windows`` windows, prints one JSON line of facts about the
finished stream, then keeps the (now idle) store queryable until its
stdin closes.  The benchmark process is the only client.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from repro.cluster.builders import build_single_pool_fleet
from repro.cluster.simulation import DEFAULT_COUNTERS, SimulationConfig, Simulator
from repro.cluster.streaming import ALARM_COUNTERS, StreamingSimulator
from repro.core.regression_analysis import OnlineRegressionAlarm


def build_stream(servers: int, retain: int, seed: int, query_listen=None):
    """The streamed single-pool fleet both streaming workloads drive."""
    fleet = build_single_pool_fleet(
        "B", n_datacenters=1, servers_per_deployment=servers, seed=seed
    )
    config = SimulationConfig(
        record_request_classes=True,
        block_windows=64,
        counters=tuple(dict.fromkeys(DEFAULT_COUNTERS + ALARM_COUNTERS)),
    )
    simulator = Simulator(fleet, seed=seed, config=config)
    return StreamingSimulator(
        simulator, retain_windows=retain, alarm=OnlineRegressionAlarm("B"),
        query_listen=query_listen,
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--servers", type=int, required=True)
    parser.add_argument("--windows", type=int, required=True)
    parser.add_argument("--retain", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    stream = build_stream(
        args.servers, args.retain, args.seed, query_listen="127.0.0.1:0"
    )
    try:
        print(f"query server listening on {stream.query_address}", flush=True)
        started = perf_counter()
        report = stream.run(max_windows=args.windows)
        elapsed = perf_counter() - started
        store = stream.sim.store
        print(json.dumps({
            "samples": store.sample_count(),
            "hot_samples": store.hot_sample_count(),
            "sealed_through": stream.sealed_window,
            "alerts": len(report.alerts),
            "stream_s": elapsed,
        }), flush=True)
        sys.stdin.read()  # serve until the benchmark closes our stdin
    finally:
        stream.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
