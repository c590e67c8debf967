"""Simulation + ingest throughput: sharding and block emission.

Measures windows/sec and samples/sec on a large synthetic fleet (1000
servers x 1000 windows) for:

* the default configuration (``block_windows=1``, unsharded) — the
  ``batch`` baseline row every other configuration is judged against;
* a sweep of (shards, block_windows, backend) configurations
  combining the sharded store (:class:`~repro.telemetry.sharding.\
ShardedMetricStore`) with cross-window block emission
  (``SimulationConfig.block_windows``) across both shard backends.
  The tcp backend pays one wire crossing per row, so on a single host
  it documents the distribution seam's cost, not a speedup; the
  ``tcp`` rows run against a real ``repro shard-server`` subprocess on
  loopback, so they price a true process boundary plus socket framing;
* a ``streaming`` row: a 100k-window ``simulate --stream`` clock loop
  with rolling retention, run in its own subprocess so its
  ``peak_rss_mb`` (``ru_maxrss``) prices exactly the streaming run —
  the standing proof that a long horizon streams with bounded hot
  memory (``tools/bench_check.py`` requires the row, its stage
  breakdown, and the measured peak RSS);
* a ``query_latency`` row: the same streamed horizon with a live
  query server attached, hammered by a concurrent client — p50/p99
  round-trip of a live aggregate query, lock-seam waits included
  (``tools/bench_check.py`` requires this row too).

The best configuration must clear ``TARGET_BLOCK_SPEEDUP`` x the batch
baseline; all results land in ``BENCH_sim_throughput.json`` for the
perf trajectory.

Run as a pytest benchmark (``pytest benchmarks/bench_sim_throughput.py``)
or directly (``PYTHONPATH=src python benchmarks/bench_sim_throughput.py``;
pass ``--smoke`` for a fast, JSON-less sanity run or ``--tcp`` for the
serial-vs-loopback-TCP sweep behind ``make bench-tcp``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

try:
    import resource
except ImportError:  # non-POSIX: the streaming row reports rss 0
    resource = None
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from repro.cluster.builders import build_single_pool_fleet
from repro.cluster.simulation import SimulationConfig, Simulator
from repro.telemetry.sharding import ShardedMetricStore

#: Headline configuration (the ISSUE's 1000-server x 1000-window run).
SERVERS = 1000
WINDOWS = 1000

#: Required speedup of the best (shards, block) configuration over the
#: default block-of-one baseline.
TARGET_BLOCK_SPEEDUP = 1.5

#: The (shards, block_windows, backend) sweep.  Single-shard + blocks
#: is the expected winner on small machines; the sharded variants
#: document the fan-out cost of each backend at the same (4-shard,
#: block=64) point: serial = partitioning pass only, tcp = one wire
#: crossing per row through a loopback socket to a real shard-server
#: subprocess (the price of the distribution seam, paid off only with
#: real cores or machines behind it).
CONFIGS = (
    {"shards": 1, "block_windows": 16},
    {"shards": 1, "block_windows": 64},
    {"shards": 4, "block_windows": 64, "backend": "serial"},
    {"shards": 4, "block_windows": 64, "backend": "tcp"},
    # Replicated tcp: every ingest frame is mirrored to a replica
    # session on a second shard-server subprocess — the steady-state
    # price of surviving a primary's death (tools/bench_check.py
    # requires this row).
    {"shards": 4, "block_windows": 64, "backend": "tcp", "replicas": 1},
)

#: Fleet size of the loopback-TCP sweep behind ``make bench-tcp``
#: (``--tcp``).
BACKEND_SWEEP_SERVERS = 200
BACKEND_SWEEP_WINDOWS = 200

#: The streaming row (``simulate --stream``): a long-horizon clock loop
#: with rolling retention, priced for throughput *and* peak memory —
#: the row demonstrates that 100k windows stream with bounded hot
#: memory.  Small fleet: the point is horizon length, not fleet width.
STREAM_WINDOWS = 100_000
STREAM_SERVERS = 64
STREAM_RETAIN = 2048
STREAM_BLOCK = 64

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim_throughput.json"
REPO_ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def _loopback_shard_server(max_sessions: int):
    """A real ``repro shard-server`` subprocess on an ephemeral port.

    Yields its ``host:port`` (parsed from the server's first stdout
    line, the documented scripting interface for ``--listen`` port 0),
    so tcp rows measure a true process boundary plus socket framing —
    not a same-process thread pretending to be remote.  Twin of the
    spawn helper in ``tests/test_cli.py`` — keep the stdout-line
    contract changes in sync.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "shard-server",
            "--listen", "127.0.0.1:0",
            "--max-sessions", str(max_sessions),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        line = process.stdout.readline()
        if not line.startswith("shard-server listening on "):
            raise RuntimeError(
                f"shard-server failed to start (got {line!r})"
            )
        yield line.rsplit(" ", 1)[-1].strip()
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
        process.stdout.close()


def _measure(
    n_windows: int,
    servers: int = SERVERS,
    shards: int = 1,
    block_windows: int = 1,
    backend: Optional[str] = None,
    shard_addrs: Optional[list] = None,
    replicas: int = 0,
    replica_addrs: Optional[list] = None,
) -> dict:
    if backend == "tcp" and shard_addrs is None:
        # tcp rows own their server subprocess unless handed addresses;
        # a replicated row gets a second subprocess for the replica
        # sessions, so the mirror crosses a real process boundary too.
        with _loopback_shard_server(max_sessions=shards) as address:
            kwargs = dict(
                shards=shards,
                block_windows=block_windows,
                backend=backend,
                shard_addrs=[address] * shards,
                replicas=replicas,
            )
            if replicas:
                with _loopback_shard_server(
                    max_sessions=shards * replicas
                ) as replica_address:
                    return _measure(
                        n_windows, servers,
                        replica_addrs=[
                            [replica_address] * replicas
                        ] * shards,
                        **kwargs,
                    )
            return _measure(n_windows, servers, **kwargs)
    fleet = build_single_pool_fleet(
        "B", n_datacenters=1, servers_per_deployment=servers, seed=29
    )
    store_kwargs = {}
    if replica_addrs is not None:
        store_kwargs["replica_addrs"] = replica_addrs
    store = (
        ShardedMetricStore(
            n_shards=shards,
            backend=backend,
            shard_addrs=shard_addrs,
            **store_kwargs,
        )
        if shards > 1 or backend is not None
        else None
    )
    sim = Simulator(
        fleet,
        store=store,
        seed=29,
        config=SimulationConfig(block_windows=block_windows),
    )
    started = time.perf_counter()
    sim.run(n_windows)
    # sample_count() is the read barrier: on the tcp backend it
    # flushes every shard and waits for the answer, so buffered ingest
    # cannot hide outside the timed region.
    samples = sim.store.sample_count()
    elapsed = time.perf_counter() - started
    if store is not None:
        store.close()
    return {
        "servers": servers,
        "windows": n_windows,
        "shards": shards,
        "block_windows": block_windows,
        "backend": store.backend if store is not None else "none",
        # Replica sessions mirrored per shard (tcp only); the
        # replicated-tcp row prices the fan-out's ingest cost.
        "replicas": replicas,
        "elapsed_s": elapsed,
        "samples": samples,
        "windows_per_sec": n_windows / elapsed,
        "samples_per_sec": samples / elapsed,
        # Per-stage wall-clock (demand tensor / counter emission /
        # store ingest).
        "stages": {k: round(v, 6) for k, v in sim.stage_seconds.items()},
    }


def _stream_row(
    windows: int,
    servers: int,
    retain: int,
    block_windows: int,
) -> dict:
    """The ``--stream-row`` subprocess body: stream, measure, report.

    Runs in a child process because ``ru_maxrss`` is a process-lifetime
    high-water mark — measured in the parent it would price every
    earlier benchmark allocation, not the streaming run's bounded hot
    set.
    """
    from repro.cluster.streaming import StreamingSimulator

    fleet = build_single_pool_fleet(
        "B", n_datacenters=1, servers_per_deployment=servers, seed=29
    )
    sim = Simulator(
        fleet,
        seed=29,
        config=SimulationConfig(block_windows=block_windows),
    )
    stream = StreamingSimulator(sim, retain_windows=retain)
    started = time.perf_counter()
    report = stream.run(max_windows=windows)
    samples = sim.store.sample_count()
    elapsed = time.perf_counter() - started
    if resource is not None:
        # KiB on Linux, bytes on macOS.
        raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_rss_mb = raw / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)
    else:
        peak_rss_mb = 0.0
    return {
        "mode": "stream",
        "servers": servers,
        "windows": windows,
        "block_windows": block_windows,
        "retain_windows": retain,
        "elapsed_s": elapsed,
        "samples": samples,
        "hot_samples": sim.store.hot_sample_count(),
        "evicted_rows": report.evicted_rows,
        "windows_per_sec": windows / elapsed,
        "samples_per_sec": samples / elapsed,
        "peak_rss_mb": round(peak_rss_mb, 1),
        "stages": {k: round(v, 6) for k, v in sim.stage_seconds.items()},
    }


def _query_row(
    windows: int,
    servers: int,
    retain: int,
    block_windows: int,
) -> dict:
    """The ``--query-row`` subprocess body: hammer a live run, report.

    Streams the same run as the streaming row but with a query server
    attached, and measures the round-trip latency of live aggregate
    queries issued from a second thread WHILE the clock loop ingests —
    the number an operator watching ``repro query --watch`` actually
    experiences.  The p99 includes waits for the block mutation span
    (the lock seam readers queue behind), so it prices the consistency
    guarantee, not just the wire.
    """
    import threading

    import numpy as np

    from repro.cluster.streaming import StreamingSimulator
    from repro.telemetry.counters import Counter
    from repro.telemetry.query_server import QueryClient

    fleet = build_single_pool_fleet(
        "B", n_datacenters=1, servers_per_deployment=servers, seed=29
    )
    sim = Simulator(
        fleet,
        seed=29,
        config=SimulationConfig(block_windows=block_windows),
    )
    pool, counter = "B", Counter.REQUESTS.value
    stream = StreamingSimulator(
        sim,
        retain_windows=retain,
        track=((pool, counter, None, "mean"),),
        query_listen="127.0.0.1:0",
    )
    runner = threading.Thread(target=lambda: stream.run(max_windows=windows))
    latencies = []
    started = time.perf_counter()
    try:
        with QueryClient(stream.query_address, io_timeout=60) as client:
            runner.start()
            # Keep hammering while the run is live; a short post-run
            # tail guarantees a measurable sample even on smoke sizes.
            while runner.is_alive() or len(latencies) < 32:
                t0 = time.perf_counter()
                answer = client.aggregate(pool, counter)
                latencies.append(time.perf_counter() - t0)
        runner.join()
    finally:
        stream.close()
    elapsed = time.perf_counter() - started
    lat_ms = np.asarray(latencies) * 1000.0
    return {
        "mode": "query_latency",
        "servers": servers,
        "windows": windows,
        "block_windows": block_windows,
        "retain_windows": retain,
        "queries": int(lat_ms.size),
        "p50_ms": round(float(np.percentile(lat_ms, 50)), 4),
        "p99_ms": round(float(np.percentile(lat_ms, 99)), 4),
        "queries_per_sec": lat_ms.size / elapsed,
        "final_sealed_through": int(answer["sealed_through"]),
    }


def _measure_query_latency(
    windows: int = STREAM_WINDOWS,
    servers: int = STREAM_SERVERS,
    retain: int = STREAM_RETAIN,
    block_windows: int = STREAM_BLOCK,
) -> dict:
    """Run the query-latency row in a fresh subprocess, parse its JSON.

    A subprocess for the same reason as the streaming row: the hammer
    thread and the clock loop must share a machine state no earlier
    benchmark allocation distorts.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()), "--query-row",
            "--windows", str(windows),
            "--servers", str(servers),
            "--retain", str(retain),
            "--block", str(block_windows),
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(completed.stdout)


def _measure_streaming(
    windows: int = STREAM_WINDOWS,
    servers: int = STREAM_SERVERS,
    retain: int = STREAM_RETAIN,
    block_windows: int = STREAM_BLOCK,
) -> dict:
    """Run the streaming row in a fresh subprocess and parse its JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()), "--stream-row",
            "--windows", str(windows),
            "--servers", str(servers),
            "--retain", str(retain),
            "--block", str(block_windows),
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(completed.stdout)


def run_benchmark(
    windows: int = WINDOWS,
    servers: int = SERVERS,
    stream_windows: int = STREAM_WINDOWS,
    stream_servers: int = STREAM_SERVERS,
    stream_retain: int = STREAM_RETAIN,
    result_path: Optional[Path] = RESULT_PATH,
) -> dict:
    batch = _measure(windows, servers)
    configs = [_measure(windows, servers, **config) for config in CONFIGS]
    streaming = _measure_streaming(
        windows=stream_windows, servers=stream_servers, retain=stream_retain
    )
    query_latency = _measure_query_latency(
        windows=stream_windows, servers=stream_servers, retain=stream_retain
    )
    best = max(configs, key=lambda r: r["windows_per_sec"])
    result = {
        "benchmark": "sim_throughput",
        "fleet": {"pool": "B", "servers": servers, "windows": windows},
        "batch": batch,
        "configs": configs,
        "streaming": streaming,
        "query_latency": query_latency,
        "best": best,
        "best_speedup_vs_batch": best["windows_per_sec"] / batch["windows_per_sec"],
    }
    if result_path is not None:
        result_path.write_text(json.dumps(result, indent=2) + "\n")
    return result


def run_tcp_sweep(
    windows: int = BACKEND_SWEEP_WINDOWS,
    servers: int = BACKEND_SWEEP_SERVERS,
    block_windows: int = 64,
) -> list:
    """Loopback-TCP shard sweep: distribution cost vs shard count.

    One ``repro shard-server`` subprocess hosts every session; rows
    compare the serial reference and tcp at increasing shard counts —
    the `make bench-tcp` answer to "what does putting shards behind
    the network cost on this machine?".
    """
    results = [
        _measure(windows, servers, block_windows=block_windows,
                 backend="serial", shards=4),
    ]
    for shards in (1, 2, 4):
        results.append(
            _measure(windows, servers, shards=shards,
                     block_windows=block_windows, backend="tcp")
        )
    return results


def _config_label(entry: dict) -> str:
    label = (
        f"shards={entry['shards']} "
        f"block={entry['block_windows']} backend={entry['backend']}"
    )
    if entry.get("replicas"):
        label += f" replicas={entry['replicas']}"
    return label


def _print_result(result: dict) -> None:
    batch = result["batch"]
    print(
        f"batch (block=1): {batch['windows_per_sec']:8.1f} windows/s "
        f"({batch['samples_per_sec']:,.0f} samples/s) over "
        f"{batch['windows']} windows x {batch['servers']} servers"
    )
    for entry in result["configs"]:
        print(
            f"  {_config_label(entry):48s} {entry['windows_per_sec']:8.1f} windows/s "
            f"({entry['samples_per_sec']:,.0f} samples/s)"
        )
    streaming = result.get("streaming")
    if streaming:
        print(
            f"  {'stream retain=' + str(streaming['retain_windows']) + ' block=' + str(streaming['block_windows']):48s} "
            f"{streaming['windows_per_sec']:8.1f} windows/s "
            f"({streaming['samples_per_sec']:,.0f} samples/s) over "
            f"{streaming['windows']} windows, peak rss "
            f"{streaming['peak_rss_mb']:.0f} MB, "
            f"{streaming['hot_samples']:,} of {streaming['samples']:,} "
            f"samples hot"
        )
    query_latency = result.get("query_latency")
    if query_latency:
        print(
            f"  {'live query latency':48s} "
            f"p50 {query_latency['p50_ms']:.2f} ms, "
            f"p99 {query_latency['p99_ms']:.2f} ms over "
            f"{query_latency['queries']:,} queries during a "
            f"{query_latency['windows']:,}-window streamed run"
        )
    best = result["best"]
    stages = best.get("stages", {})
    if any(stages.values()):
        total = sum(stages.values())
        breakdown = ", ".join(
            f"{name} {seconds:.3f}s ({seconds / total:.0%})"
            for name, seconds in stages.items()
        )
        print(f"best config stages: {breakdown}")
    print(
        f"best config: shards={best['shards']} "
        f"block={best['block_windows']} backend={best['backend']} -> "
        f"{result['best_speedup_vs_batch']:.2f}x batch"
    )


def test_sim_throughput():
    result = run_benchmark()
    print()
    _print_result(result)
    print(f"-> {RESULT_PATH.name}")
    assert result["best_speedup_vs_batch"] >= TARGET_BLOCK_SPEEDUP


def _argv_int(argv: list, flag: str, default: int) -> int:
    return int(argv[argv.index(flag) + 1]) if flag in argv else default


if __name__ == "__main__":
    argv = sys.argv[1:]
    if "--stream-row" in argv:
        # Subprocess entry of _measure_streaming: one JSON row on stdout.
        row = _stream_row(
            windows=_argv_int(argv, "--windows", STREAM_WINDOWS),
            servers=_argv_int(argv, "--servers", STREAM_SERVERS),
            retain=_argv_int(argv, "--retain", STREAM_RETAIN),
            block_windows=_argv_int(argv, "--block", STREAM_BLOCK),
        )
        print(json.dumps(row))
    elif "--query-row" in argv:
        # Subprocess entry of _measure_query_latency: one JSON row.
        row = _query_row(
            windows=_argv_int(argv, "--windows", STREAM_WINDOWS),
            servers=_argv_int(argv, "--servers", STREAM_SERVERS),
            retain=_argv_int(argv, "--retain", STREAM_RETAIN),
            block_windows=_argv_int(argv, "--block", STREAM_BLOCK),
        )
        print(json.dumps(row))
    elif "--tcp" in argv:
        sweep = run_tcp_sweep()
        print(
            f"loopback-TCP sweep: {BACKEND_SWEEP_SERVERS} servers x "
            f"{BACKEND_SWEEP_WINDOWS} windows, block=64, one shard-server "
            f"subprocess hosting every session"
        )
        for entry in sweep:
            print(
                f"  {entry['backend']:10s} shards={entry['shards']} "
                f"{entry['windows_per_sec']:8.1f} windows/s "
                f"({entry['samples_per_sec']:,.0f} samples/s)"
            )
    elif "--smoke" in argv:
        outcome = run_benchmark(
            windows=60,
            servers=100,
            stream_windows=2000,
            stream_servers=32,
            stream_retain=256,
            result_path=None,
        )
        _print_result(outcome)
    else:
        outcome = run_benchmark()
        _print_result(outcome)
        print(f"results written to {RESULT_PATH}")
