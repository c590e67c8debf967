"""Golden stream pin: the simulator's emitted bytes, frozen as digests.

``tests/data/sim_golden.json`` holds one SHA-256 per (pool, counter)
— fed every table of that counter: its windows, server-index and value
column bytes, in append order — for a handful of seeded scenarios, plus
the NumPy version that produced them.  Any change to the demand, mask,
counter or RNG code that moves a single bit of telemetry fails here and
names the counters that moved.  The digests depend on NumPy's
generator streams, so the suite skips — with the reason — on a
different NumPy major.minor.

Regenerate deliberately (a golden-baseline reset) with
``PYTHONPATH=src python tests/test_sim_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.builders import PAPER_DATACENTERS, build_paper_fleet
from repro.cluster.deployment import leaky_version
from repro.cluster.faults import DatacenterOutage, RandomFailures, TrafficSurge
from repro.cluster.service import service_catalog
from repro.cluster.simulation import SimulationConfig, Simulator
from repro.telemetry.sharding import ShardedMetricStore
from repro.workload.diurnal import DiurnalPattern
from repro.workload.traces import generate_trace

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "sim_golden.json"


def _numpy_minor() -> str:
    return ".".join(np.__version__.split(".")[:2])


def _table_digests(store):
    """``"pool/counter"`` -> SHA-256 over its tables' column bytes.

    One digest per counter rather than per table keeps the fixture
    small; the datacenters' tables (and, on a sharded store, each
    shard's slice of them) feed the hash in ``iter_tables`` order.
    """
    hashers = {}
    for (pool, _dc, counter), windows, servers, values in store.iter_tables():
        h = hashers.setdefault(f"{pool}/{counter}", hashlib.sha256())
        for column, dtype in ((windows, np.int64), (servers, np.int64), (values, float)):
            h.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return {name: h.hexdigest() for name, h in sorted(hashers.items())}


def _paper_fleet_block1():
    """(a) Table-I fleet, every counter plus request classes, block=1."""
    sim = Simulator(
        build_paper_fleet(servers_per_deployment=3, seed=5),
        seed=5,
        config=SimulationConfig(counters=None, record_request_classes=True),
    )
    sim.run(40)
    return sim.store


def _events(block_windows, store=None):
    """(b)/(c) surges, outage, random failures, mid-run resize, leaky version.

    Pool A's mix drifts, so the share-jitter draws are exercised; the
    resize and deploy land between ``run`` calls, off a block boundary.
    """
    sim = Simulator(
        build_paper_fleet(
            servers_per_deployment=5, datacenters=PAPER_DATACENTERS[:3],
            pools=["A"], seed=11, mixed_hardware_pools=["A"],
        ),
        store=store,
        seed=11,
        config=SimulationConfig(
            counters=None,
            record_request_classes=True,
            random_failures=RandomFailures(daily_probability=0.3, seed=7),
            block_windows=block_windows,
        ),
    )
    sim.add_surge(TrafficSurge("DC2", start_window=40, duration_windows=80, factor=3.0))
    sim.add_surge(
        TrafficSurge("DC1", start_window=60, duration_windows=30, factor=1.5, pool_id="A")
    )
    sim.add_outage(DatacenterOutage("DC3", start_window=100, duration_windows=60))
    sim.run(90)
    sim.resize_pool("A", "DC1", 8)
    sim.resize_pool("A", "DC2", 3)
    sim.set_version("A", leaky_version(), datacenter_id="DC1")
    sim.run(110)
    return sim.store


def _trace_digests():
    """(d) ``generate_trace`` over pool A's drifting two-table mix."""
    trace = generate_trace(
        DiurnalPattern(base_rps=5000.0),
        service_catalog()["A"].mix,
        n_windows=300,
        rng=np.random.default_rng(23),
        start_window=700,
    )
    columns = {"totals": trace.totals, **trace.class_volumes}
    return {
        name: hashlib.sha256(np.ascontiguousarray(column).tobytes()).hexdigest()
        for name, column in sorted(columns.items())
    }


def _sharded_events():
    with ShardedMetricStore(n_shards=3, backend="serial") as store:
        return _table_digests(_events(64, store=store))


SCENARIOS = {
    "paper_fleet_block1": lambda: _table_digests(_paper_fleet_block1()),
    "events_block1": lambda: _table_digests(_events(1)),
    "events_block64": lambda: _table_digests(_events(64)),
    "events_block64_sharded3": _sharded_events,
    "trace": _trace_digests,
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_digests_match_golden(scenario):
    golden = json.loads(GOLDEN_PATH.read_text())
    if golden["numpy"] != _numpy_minor():
        pytest.skip(
            f"golden digests were produced by NumPy {golden['numpy']}; "
            f"this is NumPy {_numpy_minor()} and generator streams may differ"
        )
    expected = golden["scenarios"][scenario]
    actual = SCENARIOS[scenario]()
    assert sorted(actual) == sorted(expected)
    moved = [name for name in expected if actual[name] != expected[name]]
    assert not moved, f"{len(moved)} of {len(expected)} digests moved: {moved[:10]}"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "numpy": _numpy_minor(),
                "scenarios": {name: SCENARIOS[name]() for name in sorted(SCENARIOS)},
            },
            indent=1,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
