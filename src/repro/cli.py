"""Command-line interface: ``python -m repro <command>``.

Wraps the common workflows so the library is usable without writing
Python:

* ``simulate`` — build a canonical fleet, run it for N days, and write
  the telemetry archive;
* ``shard-server`` — host remote telemetry shards over TCP for
  ``simulate --shard-backend tcp`` (see ``docs/DISTRIBUTED.md``);
* ``plan`` — run the capacity planner over an archive and print the
  Table IV savings summary;
* ``validate`` — run Step-1 metric validation over an archive;
* ``availability`` — the §III-B2 availability study over an archive.

Archives are the CSV format of :mod:`repro.telemetry.export` (gzip
when the filename ends in ``.gz``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cluster.builders import PAPER_DATACENTERS, build_paper_fleet
from repro.cluster.service import service_catalog
from repro.cluster.simulation import DEFAULT_COUNTERS, SimulationConfig, Simulator
from repro.telemetry.sharding import BACKENDS, ShardedMetricStore
from repro.telemetry.store import CLASSES, REDUCERS, MetricStore
from repro.telemetry.workers import ShardServer
from repro.core.availability import study_fleet_availability
from repro.core.metric_validation import MetricValidator
from repro.core.planner import CapacityPlanner
from repro.core.slo import QoSRequirement
from repro.telemetry.export import export_store, import_store


def _int_at_least(floor: int):
    """argparse type for an integer flag with a floor (clean error, exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
        return value

    parse.__name__ = "int"  # argparse: "invalid int value: 'x'"
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _nonnegative_days(text: str) -> float:
    """argparse type for ``--days``: a finite number >= 0."""
    value = float(text)
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _pool_letters(text: str) -> Optional[List[str]]:
    """argparse type for ``--pools``: letters of the service catalog
    (empty = every pool, like leaving the flag out)."""
    letters = text.split(",") if text else None
    catalog = service_catalog()
    unknown = [letter for letter in letters or () if letter not in catalog]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown pool(s) {', '.join(map(repr, unknown))}; "
            f"valid letters: {','.join(sorted(catalog))}"
        )
    return letters


def _check_distributed_flags(args: argparse.Namespace):
    """Validate the tcp/addrs flag combination before any work starts.

    Returns ``(shard_addrs, replica_addrs, fault_spec)`` (each ``None``
    when not used) or raises ``ValueError`` with a usage-style message
    — the flag mistakes below must fail in argument validation, not as
    a late crash deep in fleet build or store construction.
    """
    shard_addrs = (
        [addr.strip() for addr in args.shard_addrs.split(",") if addr.strip()]
        if args.shard_addrs is not None
        else None
    )
    if shard_addrs is not None and args.shard_backend != "tcp":
        raise ValueError("--shard-addrs requires --shard-backend tcp")
    if args.shard_backend == "tcp":
        if not shard_addrs:
            raise ValueError(
                "--shard-backend tcp requires --shard-addrs "
                "(comma-separated host:port list, one per shard)"
            )
        from repro.telemetry.transport import parse_address

        for address in shard_addrs:
            parse_address(address)  # ValueError names the bad input
    replica_addrs = None
    if args.replica_addrs is not None:
        if args.shard_backend != "tcp":
            raise ValueError("--replica-addrs requires --shard-backend tcp")
        # Keep empty entries: "a,,b" replicates shards 0 and 2 only.
        replica_addrs = [
            addr.strip() or None for addr in args.replica_addrs.split(",")
        ]
        if len(replica_addrs) != len(shard_addrs):
            raise ValueError(
                f"--replica-addrs must list one address per shard "
                f"(got {len(replica_addrs)}, have {len(shard_addrs)} "
                f"shards); leave an entry empty to skip a shard"
            )
        from repro.telemetry.transport import parse_address

        for address in replica_addrs:
            if address is not None:
                parse_address(address)
    n_shards = len(shard_addrs) if shard_addrs else args.shards
    if n_shards > CLASSES:
        raise ValueError(
            f"at most {CLASSES} shards (one per server class); got {n_shards}"
        )
    fault_spec = None
    if args.inject_fault is not None:
        if args.shard_backend != "tcp":
            raise ValueError("--inject-fault requires --shard-backend tcp")
        from repro.telemetry.faultinject import parse_fault_spec

        fault_spec = parse_fault_spec(args.inject_fault)
    return shard_addrs, replica_addrs, fault_spec


def _check_stream_flags(args: argparse.Namespace) -> None:
    """Validate the streaming flag combination (raises ``ValueError``)."""
    if not args.stream:
        for flag, value in (
            ("--max-windows", args.max_windows),
            ("--retain-windows", args.retain_windows),
            ("--alarm-pool", args.alarm_pool),
            ("--inject-regression", args.inject_regression),
            ("--query-listen", args.query_listen),
        ):
            if value is not None:
                raise ValueError(f"{flag} requires --stream")
        return
    if args.inject_regression is not None and args.alarm_pool is None:
        raise ValueError("--inject-regression requires --alarm-pool")
    if args.query_listen is not None:
        from repro.telemetry.transport import parse_address

        parse_address(args.query_listen)  # ValueError names the bad input


def _run_stream(args: argparse.Namespace, simulator) -> tuple:
    """Run the streaming clock loop; returns (samples, windows run)."""
    from repro.cluster.streaming import StreamingSimulator
    from repro.core.regression_analysis import OnlineRegressionAlarm

    alarm = (
        OnlineRegressionAlarm(args.alarm_pool)
        if args.alarm_pool is not None
        else None
    )
    stream = StreamingSimulator(
        simulator, retain_windows=args.retain_windows, alarm=alarm,
        query_listen=args.query_listen,
    )
    if stream.query_address is not None:
        # stdout + flush: the scripting interface for --query-listen
        # port 0, mirroring the shard-server line.
        print(f"query server listening on {stream.query_address}", flush=True)
    if args.inject_regression is not None:
        from repro.cluster.deployment import leak_fix_with_latency_regression

        stream.schedule(
            args.inject_regression,
            lambda: simulator.set_version(
                args.alarm_pool,
                leak_fix_with_latency_regression(queue_multiplier=3.0),
            ),
        )
        print(
            f"regression injection armed: pool {args.alarm_pool} at "
            f"window {args.inject_regression}",
            file=sys.stderr,
        )
    try:
        report = stream.run(max_windows=args.max_windows)
    finally:
        stream.close()
    for alert in report.alerts:
        print(
            f"ALERT {alert.name}: pool {alert.pool_id} at window "
            f"{alert.window} — {alert.detail}",
            file=sys.stderr,
        )
    store = simulator.store
    samples = store.sample_count()
    if args.retain_windows is not None:
        print(
            f"streamed {report.blocks} block(s); retention kept "
            f"{store.hot_sample_count()} of {samples} samples hot "
            f"({report.evicted_rows} evicted to spill)",
            file=sys.stderr,
        )
    if report.stopped_by == "interrupt":
        print("stream interrupted; finishing up", file=sys.stderr)
    return samples, report.windows


def _cmd_simulate(args: argparse.Namespace) -> int:
    import time

    try:
        shard_addrs, replica_addrs, fault_spec = _check_distributed_flags(args)
        _check_stream_flags(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    datacenters = PAPER_DATACENTERS[: args.datacenters]
    fleet = build_paper_fleet(
        servers_per_deployment=args.servers,
        datacenters=datacenters,
        pools=args.pools,
        seed=args.seed,
    )
    n_windows = (
        args.windows
        if args.windows is not None
        else int(round(args.days * 720))
    )
    try:
        if args.shards > 1 or args.shard_backend is not None:
            store = ShardedMetricStore(
                n_shards=args.shards,
                backend=args.shard_backend,
                shard_addrs=shard_addrs,
                connect_timeout=args.connect_timeout,
                io_timeout=args.io_timeout,
                replica_addrs=replica_addrs,
            )
            store_desc = (
                f"{store.n_shards}-shard store (backend={store.backend!r})"
            )
            if shard_addrs is not None:
                store_desc += f" at {','.join(shard_addrs)}"
            if replica_addrs is not None:
                replicated = sum(1 for addr in replica_addrs if addr)
                store_desc += f", {replicated} shard(s) replicated"
        else:
            store = MetricStore()
            store_desc = "single store"
        if fault_spec is not None:
            from repro.telemetry.faultinject import inject_store

            inject_store(store, fault_spec)
            print(
                f"fault injection armed: {fault_spec.mode!r} on shard "
                f"{fault_spec.shard} after {fault_spec.after_frames} "
                f"frame(s)",
                file=sys.stderr,
            )
    except (ValueError, ConnectionError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    horizon = (
        f"until --max-windows={args.max_windows} or Ctrl-C"
        if args.stream and args.max_windows is not None
        else "until Ctrl-C" if args.stream
        else f"for {n_windows} window(s)"
    )
    print(
        f"simulating {fleet.total_servers()} servers "
        f"({len(fleet.pool_ids)} pools x {len(datacenters)} DCs) "
        f"{horizon} (block={args.block_windows}) into a {store_desc} ...",
        file=sys.stderr,
    )
    try:
        try:
            counters = None
            if args.alarm_pool is not None:
                if args.alarm_pool not in fleet.pool_ids:
                    raise ValueError(
                        f"--alarm-pool {args.alarm_pool!r} is not in the "
                        f"fleet (pools: {','.join(fleet.pool_ids)})"
                    )
                # The alarm's profiles also need the working-set
                # counter, which the default recorded set omits.
                from repro.cluster.streaming import ALARM_COUNTERS

                counters = tuple(
                    dict.fromkeys(DEFAULT_COUNTERS + ALARM_COUNTERS)
                )
            config = SimulationConfig(
                record_request_classes=True,
                block_windows=args.block_windows,
                **({"counters": counters} if counters is not None else {}),
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        simulator = Simulator(fleet, store=store, seed=args.seed, config=config)
        started = time.perf_counter()
        if args.stream:
            samples, n_windows = _run_stream(args, simulator)
        else:
            simulator.run(n_windows)
            samples = simulator.store.sample_count()
        elapsed = time.perf_counter() - started
        rate = n_windows / elapsed if elapsed > 0 else float("inf")
        print(
            f"simulated {n_windows} windows ({samples} samples) in {elapsed:.2f}s "
            f"= {rate:.1f} windows/s, {samples / max(elapsed, 1e-9):,.0f} samples/s",
            file=sys.stderr,
        )
        if args.output is not None:
            rows = export_store(simulator.store, args.output)
            print(f"wrote {rows} samples to {args.output}", file=sys.stderr)
    except RuntimeError as error:
        # A remote shard died mid-run (e.g. a killed shard-server):
        # the store raises a RuntimeError naming the shard and address.
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        # Shard sessions (shard-backend=tcp) must be ended even when
        # the run fails; close() is a no-op for in-process stores.
        if isinstance(store, ShardedMetricStore):
            store.close()
    return 0


def _cmd_shard_server(args: argparse.Namespace) -> int:
    try:
        server = ShardServer(args.listen, max_sessions=args.max_sessions)
        server.start()
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # The bound address goes to stdout (flushed) so scripts can listen
    # on port 0 and parse the ephemeral port the OS picked.
    print(f"shard-server listening on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shard-server interrupted; shutting down", file=sys.stderr)
    finally:
        server.stop()
    return 0


def _print_query_status(status: dict) -> None:
    progress = ""
    if "windows" in status:
        progress = (
            f" windows={status['windows']} blocks={status['blocks']}"
        )
    print(
        f"sealed_through={status['sealed_through']} "
        f"max_window={status['max_window']} "
        f"evicted_before={status['evicted_before']} "
        f"hot_samples={status['hot_samples']} "
        f"samples={status['samples']} "
        f"pools={','.join(status['pools'])}{progress}"
    )
    for alert in status["alerts"]:
        print(
            f"ALERT {alert['name']}: pool {alert['pool_id']} at window "
            f"{alert['window']} — {alert['detail']}"
        )


def _print_aggregate_tail(answer: dict, since: int, last: int) -> int:
    """Print sealed windows newer than ``since``; returns the new high."""
    windows, values = answer["windows"], answer["values"]
    start = 0
    if since >= 0:
        import numpy as np

        start = int(np.searchsorted(windows, since + 1))
    if last is not None and windows.size - start > last:
        start = windows.size - last
    for window, value in zip(windows[start:], values[start:]):
        print(f"{int(window):>10d}  {float(value)!r}")
    return int(windows[-1]) if windows.size else since


def _cmd_query(args: argparse.Namespace) -> int:
    import time

    from repro.telemetry.query_server import QueryClient
    from repro.telemetry.transport import parse_address

    if (args.pool is None) != (args.counter is None):
        print("error: --pool and --counter must be given together",
              file=sys.stderr)
        return 2
    try:
        parse_address(args.address)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        client = QueryClient(
            args.address,
            connect_timeout=args.connect_timeout,
            io_timeout=args.io_timeout,
        )
    except ConnectionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        sealed = -1
        while True:
            if args.pool is None:
                _print_query_status(client.status())
            else:
                answer = client.aggregate(
                    args.pool, args.counter,
                    datacenter_id=args.dc, reducer=args.reducer,
                )
                if answer["sealed_through"] > sealed or not args.watch:
                    # One-shot prints the newest --last windows; watch
                    # clamps only the initial backlog, then prints every
                    # newly sealed window.
                    clamp = (
                        args.last if (not args.watch or sealed < 0) else None
                    )
                    sealed = _print_aggregate_tail(
                        answer, sealed if args.watch else -1, clamp
                    )
                    print(
                        f"# sealed through window "
                        f"{answer['sealed_through']}",
                        file=sys.stderr,
                    )
            if not args.watch:
                return 0
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except RuntimeError as error:
        # The server died or hung mid-session: the named, bounded
        # connection error — same contract as a shard session.
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        client.close()


def _qos_for_pools(store) -> dict:
    catalog = service_catalog()
    qos = {}
    for pool_id in store.pools:
        if pool_id in catalog:
            qos[pool_id] = QoSRequirement(
                latency_p95_ms=catalog[pool_id].slo_latency_ms
            )
    return qos


def _on_archive(command):
    """Run ``command(store, args)`` on the store of ``args.archive``.

    An archive that cannot be read — missing, not an archive, a
    malformed row — is a one-line ``error:`` and exit status 2.
    """

    def run(args: argparse.Namespace) -> int:
        try:
            store = import_store(args.archive)
        except (ValueError, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        return command(store, args)

    return run


@_on_archive
def _cmd_plan(store, args: argparse.Namespace) -> int:
    qos = _qos_for_pools(store)
    if args.slo_ms is not None:
        qos = {pool: QoSRequirement(latency_p95_ms=args.slo_ms) for pool in store.pools}
    if not qos:
        print("no pools with known QoS in the archive; pass --slo-ms", file=sys.stderr)
        return 2
    planner = CapacityPlanner(
        store, qos, survive_dc_loss=not args.no_dr
    )
    plan = planner.plan()
    print(plan.render_savings_table())
    print(
        f"\nfleet-wide: {plan.mean_total_savings:.0%} total savings at "
        f"+{plan.mean_latency_impact_ms:.1f} ms average peak-latency impact"
    )
    return 0


@_on_archive
def _cmd_validate(store, args: argparse.Namespace) -> int:
    validator = MetricValidator(store, min_r2=args.min_r2)
    failures = 0
    for report in validator.validate_all():
        print(report.describe())
        if not report.status.is_valid:
            failures += 1
    return 1 if failures else 0


@_on_archive
def _cmd_availability(store, args: argparse.Namespace) -> int:
    study = study_fleet_availability(store)
    print(f"fleet mean availability: {study.overall_mean:.1%}")
    print(f"infrastructure overhead: {study.infrastructure_overhead:.1%}")
    for report in study.reports:
        print(f"  {report.describe()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Black-box capacity-headroom right-sizing "
        "(reproduction of Verbowski et al., ICDCS 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="simulate a fleet and archive telemetry")
    simulate.add_argument(
        "output", nargs="?", default=None,
        help="archive path (.csv or .csv.gz); omit to only print throughput "
             "(large-fleet benchmarking runs)",
    )
    simulate.add_argument("--days", type=_nonnegative_days, default=2.0)
    simulate.add_argument(
        "--windows", type=_nonnegative_int, default=None,
        help="simulate exactly N windows (overrides --days; 720 windows = 1 day)",
    )
    simulate.add_argument(
        "--servers", type=_int_at_least(2), default=6,
        help="servers per deployment (>= 2)",
    )
    simulate.add_argument(
        "--datacenters", type=int, default=9, choices=range(1, 10), metavar="1-9"
    )
    simulate.add_argument(
        "--pools", type=_pool_letters, default=None,
        help="comma-separated pool letters",
    )
    simulate.add_argument("--seed", type=_nonnegative_int, default=0)
    simulate.add_argument(
        "--shards", type=_positive_int, default=1, metavar="N",
        help="hash-partition the metric store across N shards "
             "(1 = single store; sharded telemetry is bit-identical)",
    )
    simulate.add_argument(
        "--shard-backend", default=None, choices=BACKENDS,
        help="where shards live: 'serial' (in-process, caller thread; "
             "the default) or 'tcp' (one shard-server session per "
             "address in --shard-addrs: coalesced ingest frames + query "
             "RPC over the network)",
    )
    simulate.add_argument(
        "--shard-addrs", default=None, metavar="HOST:PORT,...",
        help="comma-separated shard-server addresses for "
             "--shard-backend tcp (one session = one shard; repeating an "
             "address hosts several shards on that server); overrides "
             "--shards with the address count",
    )
    simulate.add_argument(
        "--replica-addrs", default=None, metavar="HOST:PORT,...",
        help="comma-separated replica shard-server addresses aligned "
             "with --shard-addrs (one per shard; leave an entry empty "
             "to skip that shard).  Every ingest frame is mirrored to "
             "the replica, and a dead or hung primary fails over to it "
             "with bit-identical results (--shard-backend tcp only)",
    )
    simulate.add_argument(
        "--inject-fault", default=None, metavar="MODE[:AFTER]",
        help="debugging aid: break shard 0's primary connection on "
             "purpose after AFTER outgoing frames (default 0).  MODE "
             "is delay, drop, hang, corrupt or kill; with "
             "--replica-addrs the run completes via failover, without "
             "it the run fails with the named per-shard error "
             "(--shard-backend tcp only)",
    )
    simulate.add_argument(
        "--connect-timeout", type=float, default=5.0, metavar="SECONDS",
        help="how long each tcp shard connection retries a refused dial "
             "before failing (--shard-backend tcp only)",
    )
    simulate.add_argument(
        "--io-timeout", type=float, default=60.0, metavar="SECONDS",
        help="per-operation socket timeout for tcp shards: a send or "
             "recv stuck this long fails with a clear per-shard error "
             "instead of hanging on a hung-but-alive server (0 = no "
             "timeout; --shard-backend tcp only)",
    )
    simulate.add_argument(
        "--block-windows", type=_positive_int, default=1, metavar="W",
        help="emit W windows per (pool, counter) block to amortize "
             "per-window overhead (1 = per-window)",
    )
    simulate.add_argument(
        "--stream", action="store_true",
        help="streaming mode: run an unbounded clock loop emitting one "
             "block per tick (until --max-windows or Ctrl-C), sealing "
             "incremental aggregates and applying rolling retention "
             "after each block; telemetry is bit-identical to a batch "
             "run of the same horizon",
    )
    simulate.add_argument(
        "--max-windows", type=_positive_int, default=None, metavar="N",
        help="streaming mode: stop after N windows (default: stream "
             "until interrupted; --windows/--days are batch-mode flags "
             "and are ignored with --stream)",
    )
    simulate.add_argument(
        "--retain-windows", type=_positive_int, default=None, metavar="N",
        help="streaming mode: keep only the trailing N windows hot in "
             "memory, evicting older rows to the spill archive "
             "(queries and the final export still answer exactly; "
             "default: retain everything)",
    )
    simulate.add_argument(
        "--alarm-pool", default=None, metavar="POOL",
        help="streaming mode: run the online regression alarm on this "
             "pool — the regression gate checked once per block "
             "against a baseline profiled from the start of the run "
             "(refitted in batch only when the verdict could fail); "
             "a named alert is printed the block it fires",
    )
    simulate.add_argument(
        "--inject-regression", type=_nonnegative_int, default=None,
        metavar="WINDOW",
        help="debugging aid for the online alarm: deploy a latency-"
             "regressing software version to --alarm-pool at the given "
             "window, mid-stream (requires --stream and --alarm-pool)",
    )
    simulate.add_argument(
        "--query-listen", default=None, metavar="HOST:PORT",
        help="streaming mode: serve live operator queries (repro query) "
             "on this address while the stream runs; answers are as of "
             "the sealed watermark, bit-identical to a batch run of the "
             "sealed horizon.  Port 0 picks an ephemeral port (printed "
             "to stdout); bind only to loopback or a trusted network — "
             "the protocol is pickle-based (docs/DISTRIBUTED.md)",
    )
    simulate.set_defaults(func=_cmd_simulate)

    shard_server = sub.add_parser(
        "shard-server",
        help="host remote telemetry shards over TCP (one session = one shard)",
    )
    shard_server.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="listen address; port 0 picks an ephemeral port (the bound "
             "address is printed to stdout).  Bind only to loopback or a "
             "trusted network — the protocol is pickle-based "
             "(docs/DISTRIBUTED.md)",
    )
    shard_server.add_argument(
        "--max-sessions", type=_positive_int, default=None, metavar="N",
        help="exit after N sessions have been accepted and have ended "
             "(default: serve until interrupted)",
    )
    shard_server.set_defaults(func=_cmd_shard_server)

    query = sub.add_parser(
        "query",
        help="query a running simulate --stream --query-listen server",
    )
    query.add_argument(
        "address", metavar="HOST:PORT",
        help="the stream's --query-listen address (printed on its "
             "stdout when listening on port 0)",
    )
    query.add_argument(
        "--pool", default=None, metavar="POOL",
        help="pool to aggregate (with --counter); omit both to print "
             "run status instead: watermark, retention, progress, and "
             "any latched alarm alerts",
    )
    query.add_argument(
        "--counter", default=None, metavar="NAME",
        help="counter to aggregate (with --pool)",
    )
    query.add_argument(
        "--dc", default=None, metavar="DC",
        help="restrict the aggregate to one datacenter (default: all)",
    )
    query.add_argument(
        "--reducer", default="mean", choices=REDUCERS,
        help="per-window reduction over the pool's servers",
    )
    query.add_argument(
        "--last", type=_positive_int, default=10, metavar="N",
        help="print only the newest N sealed windows of a one-shot "
             "aggregate (watch mode prints every newly sealed window)",
    )
    query.add_argument(
        "--watch", action="store_true",
        help="poll until Ctrl-C, printing newly sealed windows (or the "
             "status line) every --interval seconds",
    )
    query.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="watch-mode poll interval",
    )
    query.add_argument(
        "--connect-timeout", type=float, default=5.0, metavar="SECONDS",
        help="how long to retry a refused dial before failing",
    )
    query.add_argument(
        "--io-timeout", type=float, default=60.0, metavar="SECONDS",
        help="per-operation socket timeout: a query stuck this long "
             "fails with a clear error instead of hanging on a "
             "hung-but-alive server (0 = no timeout)",
    )
    query.set_defaults(func=_cmd_query)

    plan = sub.add_parser("plan", help="right-size pools from an archive")
    plan.add_argument("archive")
    plan.add_argument("--slo-ms", type=float, default=None,
                      help="override every pool's latency SLO")
    plan.add_argument("--no-dr", action="store_true",
                      help="drop the survive-one-DC constraint")
    plan.set_defaults(func=_cmd_plan)

    validate = sub.add_parser("validate", help="Step-1 metric validation")
    validate.add_argument("archive")
    validate.add_argument("--min-r2", type=float, default=0.85)
    validate.set_defaults(func=_cmd_validate)

    availability = sub.add_parser("availability", help="availability study")
    availability.add_argument("archive")
    availability.set_defaults(func=_cmd_availability)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
