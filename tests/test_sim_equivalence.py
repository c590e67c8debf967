"""Determinism and sharded/blocked equivalence of the columnar path.

* a fixed seed reproduces bit-identical store contents run over run
  (the exact bytes are pinned by ``tests/test_sim_golden.py``);
* a :class:`~repro.telemetry.sharding.ShardedMetricStore` — any shard
  count, any backend (serial or loopback-TCP ingest) — answers every
  query bit-identically to a single store fed by the same run;
* every block size keeps identical availability masks and sample
  counts, and agrees statistically on the noisy counters.
"""

import numpy as np
import pytest

from repro.cluster.builders import build_single_pool_fleet
from repro.cluster.faults import RandomFailures
from repro.cluster.simulation import SimulationConfig, Simulator
from repro.telemetry.counters import Counter
from repro.telemetry.sharding import BACKENDS, ShardedMetricStore


def _sharded(n_shards=3, backend="serial", server=None):
    kwargs = {}
    if backend == "tcp":
        kwargs["shard_addrs"] = [server.address] * n_shards
    return ShardedMetricStore(n_shards=n_shards, backend=backend, **kwargs)


def _run(seed: int = 41, windows: int = 180, store=None, **config_kwargs):
    fleet = build_single_pool_fleet(
        "B", n_datacenters=2, servers_per_deployment=6, seed=seed
    )
    sim = Simulator(
        fleet,
        store=store,
        seed=seed,
        config=SimulationConfig(
            random_failures=RandomFailures(daily_probability=0.3, seed=7),
            **config_kwargs,
        ),
    )
    sim.run(windows)
    return sim.store


def _assert_stores_identical(a, b):
    assert a.pools == b.pools
    assert a.sample_count() == b.sample_count()
    assert a.max_window == b.max_window
    for pool in a.pools:
        assert a.counters_for_pool(pool) == b.counters_for_pool(pool)
        for counter in a.counters_for_pool(pool):
            for reducer in ("mean", "sum", "max", "count"):
                sa = a.pool_window_aggregate(pool, counter, reducer=reducer)
                sb = b.pool_window_aggregate(pool, counter, reducer=reducer)
                np.testing.assert_array_equal(sa.windows, sb.windows)
                np.testing.assert_array_equal(sa.values, sb.values)
            assert a.servers_in_pool(pool) == b.servers_in_pool(pool)
            for server in a.servers_in_pool(pool):
                xa = a.server_series(pool, counter, server)
                xb = b.server_series(pool, counter, server)
                np.testing.assert_array_equal(xa.windows, xb.windows)
                np.testing.assert_array_equal(xa.values, xb.values)


class TestBatchedEquivalence:
    def test_deterministic_bit_identical(self):
        """Same seed => bit-identical store contents."""
        _assert_stores_identical(_run(), _run())

    def test_empty_counter_tuple_means_record_everything(self):
        """counters=() is falsy => all counters, exactly like None."""
        empty = _run(counters=(), windows=30)
        everything = _run(counters=None, windows=30)
        assert len(empty.counters_for_pool("B")) > len(
            _run(windows=30).counters_for_pool("B")
        )
        _assert_stores_identical(empty, everything)


class TestShardedEquivalence:
    """Sharded ingest is bit-identical to the single-store run,
    whichever backend (serial / threads / processes / tcp) holds the
    shards."""

    @pytest.mark.parametrize("n_shards", [2, 3, 5])
    def test_sharded_matches_single_store(self, n_shards):
        single = _run()
        sharded = _run(store=ShardedMetricStore(n_shards=n_shards))
        _assert_stores_identical(single, sharded)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_matches_single_store(self, backend, shard_server):
        """Every backend stores and answers exactly like one store."""
        single = _run()
        with _sharded(n_shards=4, backend=backend, server=shard_server) as store:
            sharded = _run(store=store)
            _assert_stores_identical(single, sharded)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sharded_blocked_matches_single_blocked(self, backend, shard_server):
        """Sharding composes with cross-window block emission."""
        single = _run(block_windows=16)
        with _sharded(n_shards=3, backend=backend, server=shard_server) as store:
            sharded = _run(store=store, block_windows=16)
            _assert_stores_identical(single, sharded)

    def test_sharded_all_counters(self):
        single = _run(counters=None, windows=60)
        sharded = _run(counters=None, windows=60, store=ShardedMetricStore(3))
        _assert_stores_identical(single, sharded)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_exports_byte_identical(self, backend, tmp_path, shard_server):
        """The archive written through any backend is byte-identical."""
        from repro.telemetry.export import export_store

        single = _run(windows=60)
        single_path = tmp_path / "single.csv"
        export_store(single, single_path)
        with _sharded(n_shards=4, backend=backend, server=shard_server) as store:
            sharded = _run(windows=60, store=store)
            sharded_path = tmp_path / f"{backend}.csv"
            export_store(sharded, sharded_path)
        assert single_path.read_bytes() == sharded_path.read_bytes()


class TestBlockedEquivalence:
    """Cross-window block emission vs window-by-window stepping."""

    def test_blocked_availability_and_counts_identical(self):
        """Masks are RNG-free, so any block size keeps them identical."""
        batch = _run()
        blocked = _run(block_windows=32)
        assert batch.sample_count() == blocked.sample_count()
        for dc in batch.datacenters_for_pool("B"):
            a = batch.pool_window_aggregate(
                "B", Counter.AVAILABILITY.value, datacenter_id=dc
            )
            b = blocked.pool_window_aggregate(
                "B", Counter.AVAILABILITY.value, datacenter_id=dc
            )
            np.testing.assert_array_equal(a.windows, b.windows)
            np.testing.assert_array_equal(a.values, b.values)

    def test_blocked_truncates_final_partial_block(self):
        """n_windows not divisible by block_windows still runs them all."""
        blocked = _run(block_windows=50, windows=130)
        assert blocked.max_window == 129

    def test_blocked_deterministic(self):
        _assert_stores_identical(_run(block_windows=16), _run(block_windows=16))

    @pytest.mark.parametrize(
        "counter, tolerance",
        [
            (Counter.REQUESTS.value, 0.02),
            (Counter.PROCESSOR_UTILIZATION.value, 0.02),
            (Counter.LATENCY_P95.value, 0.02),
        ],
    )
    def test_blocked_statistically_equivalent(self, counter, tolerance):
        batch = _run(windows=720)
        blocked = _run(block_windows=48, windows=720)
        a = batch.pool_window_aggregate("B", counter).values
        b = blocked.pool_window_aggregate("B", counter).values
        assert a.mean() == pytest.approx(b.mean(), rel=tolerance)
        assert a.std() == pytest.approx(b.std(), rel=0.15)

    def test_blocked_request_classes(self):
        batch = _run(record_request_classes=True, windows=60)
        blocked = _run(record_request_classes=True, windows=60, block_windows=8)
        assert "Requests/sec[query]" in blocked.counters_for_pool("B")
        assert batch.sample_count() == blocked.sample_count()

    def test_block_windows_must_be_positive(self):
        with pytest.raises(ValueError):
            SimulationConfig(block_windows=0)
