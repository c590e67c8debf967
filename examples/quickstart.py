"""Quickstart: right-size a small geo-distributed service.

Builds the Table I micro-service fleet across the paper's nine
datacenters, simulates diurnal production traffic, then runs the
black-box capacity planner over the recorded telemetry and prints the
per-pool savings table (the paper's Table IV layout).

The simulation knobs mirror the CLI (``python -m repro simulate``):

Run:
    python examples/quickstart.py
    python examples/quickstart.py --windows 240
    python examples/quickstart.py --shards 4 --block-windows 32

    # distributed: `python -m repro shard-server` in another terminal,
    # then point the shards at it (docs/DISTRIBUTED.md):
    python examples/quickstart.py --shard-backend tcp \
        --shard-addrs 127.0.0.1:9400,127.0.0.1:9400
"""

import argparse

from repro import (
    CapacityPlanner,
    MetricStore,
    QoSRequirement,
    ShardedMetricStore,
    Simulator,
    build_paper_fleet,
)
from repro.cluster.builders import PAPER_DATACENTERS
from repro.cluster.service import service_catalog
from repro.cluster.simulation import SimulationConfig
from repro.telemetry import BACKENDS


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--windows", type=positive_int, default=1440,
        help="windows to simulate (720 = 1 day; default 2 days)",
    )
    parser.add_argument(
        "--block-windows", type=positive_int, default=1,
        help="windows emitted per block (1 = per-window)",
    )
    parser.add_argument(
        "--shards", type=positive_int, default=1,
        help="metric store shard count (1 = single store)",
    )
    parser.add_argument(
        "--shard-backend", default=None, choices=BACKENDS,
        help="where shards live (default: serial; 'tcp' runs one "
             "shard-server session per --shard-addrs entry)",
    )
    parser.add_argument(
        "--shard-addrs", default=None, metavar="HOST:PORT,...",
        help="shard-server addresses for --shard-backend tcp "
             "(one session = one shard)",
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if args.shard_addrs is not None and args.shard_backend != "tcp":
        parser.error("--shard-addrs requires --shard-backend tcp")
    if args.shard_backend == "tcp" and args.shard_addrs is None:
        parser.error("--shard-backend tcp requires --shard-addrs")
    return args


def main() -> None:
    args = parse_args()
    # Every pool of Table I across all nine regions.  Nine matters:
    # the survive-one-datacenter headroom is then ~1/8 of demand, as in
    # the paper's fleet; with very few regions the disaster-recovery
    # constraint alone would consume all the reclaimable capacity.
    fleet = build_paper_fleet(
        servers_per_deployment=6,
        datacenters=PAPER_DATACENTERS,
        seed=args.seed,
    )
    shard_addrs = (
        [addr.strip() for addr in args.shard_addrs.split(",") if addr.strip()]
        if args.shard_addrs is not None
        else None
    )
    store = (
        ShardedMetricStore(
            n_shards=args.shards,
            backend=args.shard_backend,
            shard_addrs=shard_addrs,
        )
        if args.shards > 1 or args.shard_backend is not None
        else MetricStore()
    )
    sharded = isinstance(store, ShardedMetricStore)
    print(
        f"simulating {fleet.total_servers()} servers, "
        f"{len(fleet.pool_ids)} micro-services, "
        f"{len(fleet.datacenters)} datacenters "
        f"({args.windows} windows, block={args.block_windows}, "
        f"shards={store.n_shards if sharded else 1}, "
        f"backend={store.backend if sharded else '-'}) ..."
    )
    simulator = Simulator(
        fleet,
        store=store,
        seed=args.seed,
        config=SimulationConfig(
            record_request_classes=True,
            block_windows=args.block_windows,
        ),
    )
    simulator.run(args.windows)

    # Each pool's QoS contract comes from its owning team; here we use
    # the catalogue's SLOs.
    qos = {
        name: QoSRequirement(latency_p95_ms=profile.slo_latency_ms)
        for name, profile in service_catalog().items()
    }

    planner = CapacityPlanner(simulator.store, qos, survive_dc_loss=True)
    plan = planner.plan()
    print()
    print(plan.render_savings_table())
    print()
    print(
        f"fleet-wide: {plan.mean_total_savings:.0%} of servers reclaimable "
        f"at an average +{plan.mean_latency_impact_ms:.1f} ms latency cost"
    )

    # Every number above came from telemetry alone: the planner never
    # saw the simulator's ground-truth cost or latency parameters.
    for summary in plan.summaries:
        print(f"  {summary.validation.describe().splitlines()[0]}")

    # End the shard sessions when --shard-backend tcp was used.
    if isinstance(store, ShardedMetricStore):
        store.close()


if __name__ == "__main__":
    main()
