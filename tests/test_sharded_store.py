"""Unit tests of the hash-partitioned ShardedMetricStore facade.

The facade contract: identical answers to a single MetricStore fed the
same batches — bit-identical for every query whose accumulation order
is defined (aggregates, matrices, per-server reads, series, exports) —
with rows physically spread across shards by server index.  The
``pair`` fixture parametrizes the whole equivalence suite over every
entry of ``BACKENDS``, so every assertion below — including the
byte-identical export check — also proves the network RPC path.
"""

import numpy as np
import pytest

from repro.telemetry.export import export_store, import_store
from repro.telemetry.sharding import BACKENDS, ShardedMetricStore
from repro.telemetry.store import MetricStore

REDUCERS = ("mean", "sum", "max", "count")


def _sharded(n_shards=3, backend="serial", server=None, **kwargs):
    """A sharded store for one backend.

    ``server`` is the loopback ``ShardServer`` the tcp backend dials
    (``n_shards`` sessions against the one listener).
    """
    if backend == "tcp":
        kwargs["shard_addrs"] = [server.address] * n_shards
    return ShardedMetricStore(n_shards=n_shards, backend=backend, **kwargs)


def _fill(store, n_servers=20, n_windows=30, pools=("A", "B"), dcs=("dc1", "dc2")):
    """Feed identical batches through any store's record_batch path."""
    rng = np.random.default_rng(17)
    for pool in pools:
        for dc in dcs:
            server_ids = [f"{dc}.{pool}.s{i:03d}" for i in range(n_servers)]
            indices = store.intern_servers(server_ids)
            for window in range(n_windows):
                for counter in ("cpu", "rps"):
                    values = rng.uniform(0.0, 100.0, size=n_servers)
                    store.record_batch(pool, dc, counter, window, indices, values)
    return store


@pytest.fixture(scope="module", params=BACKENDS)
def pair(request, shard_server):
    single = _fill(MetricStore())
    sharded = _fill(_sharded(backend=request.param, server=shard_server))
    yield single, sharded
    sharded.close()


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedMetricStore(n_shards=0)

    def test_rows_actually_partitioned(self, pair):
        _single, sharded = pair
        counts = [shard.sample_count() for shard in sharded.shards]
        assert all(count > 0 for count in counts)
        assert sum(counts) == sharded.sample_count()

    def test_shard_routing_by_index(self, pair):
        """Every row is on its server's ``shard_of`` shard and on no
        other: the shards' rows add up to the single store's."""
        single, sharded = pair
        for shard_id, shard in enumerate(sharded.shards):
            for _key, _w, servers, _v in shard.iter_tables():
                owners = [sharded.shard_of(int(i)) for i in servers]
                assert owners == [shard_id] * servers.size
        assert sum(shard.sample_count() for shard in sharded.shards) == (
            single.sample_count()
        )


class TestRouting:
    """Rows go by server class, ``(index & 63) % n``: a class is whole
    on one shard, so its partial sums merge without a float add."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_power_of_two_counts_route_by_index_modulo(self, n):
        store = ShardedMetricStore(n_shards=n)
        assert [store.shard_of(i) for i in range(1000)] == [
            i % n for i in range(1000)
        ]

    def test_three_shards_own_22_21_21_classes(self):
        store = ShardedMetricStore(n_shards=3)
        owners = [store.shard_of(c) for c in range(64)]
        assert [owners.count(k) for k in range(3)] == [22, 21, 21]
        # A server's shard is its class's.
        assert all(store.shard_of(i) == owners[i % 64] for i in range(500))

    def test_more_than_64_shards_refused(self):
        with pytest.raises(ValueError, match="<= 64"):
            ShardedMetricStore(n_shards=65)
        with pytest.raises(ValueError, match="<= 64"):
            ShardedMetricStore(
                backend="tcp", shard_addrs=["127.0.0.1:1"] * 65
            )
        ShardedMetricStore(n_shards=64).close()


class TestQueryEquivalence:
    def test_introspection(self, pair):
        single, sharded = pair
        assert single.pools == sharded.pools
        assert single.datacenters == sharded.datacenters
        assert single.max_window == sharded.max_window
        assert single.sample_count() == sharded.sample_count()
        for pool in single.pools:
            assert single.counters_for_pool(pool) == sharded.counters_for_pool(pool)
            assert single.datacenters_for_pool(pool) == sharded.datacenters_for_pool(
                pool
            )
            assert single.servers_in_pool(pool) == sharded.servers_in_pool(pool)
            assert single.servers_in_pool(pool, "dc1") == sharded.servers_in_pool(
                pool, "dc1"
            )

    @pytest.mark.parametrize("reducer", REDUCERS)
    def test_pool_window_aggregate_bit_identical(self, pair, reducer):
        single, sharded = pair
        for dc in (None, "dc1"):
            for start, stop in ((None, None), (5, 20)):
                a = single.pool_window_aggregate(
                    "A", "cpu", datacenter_id=dc, start=start, stop=stop,
                    reducer=reducer,
                )
                b = sharded.pool_window_aggregate(
                    "A", "cpu", datacenter_id=dc, start=start, stop=stop,
                    reducer=reducer,
                )
                np.testing.assert_array_equal(a.windows, b.windows)
                np.testing.assert_array_equal(a.values, b.values)

    def test_unknown_reducer_raises(self, pair):
        _single, sharded = pair
        with pytest.raises(ValueError):
            sharded.pool_window_aggregate("A", "cpu", reducer="median")

    def test_empty_aggregate(self, pair):
        _single, sharded = pair
        assert len(sharded.pool_window_aggregate("A", "nope")) == 0

    def test_per_server_values(self, pair):
        single, sharded = pair
        a = single.per_server_values("B", "rps")
        b = sharded.per_server_values("B", "rps")
        assert set(a) == set(b)
        for server in a:
            np.testing.assert_array_equal(a[server], b[server])

    def test_per_server_values_key_order(self):
        """Keys come out datacenter by datacenter, then by server index —
        the single store's order — even when interning interleaves the
        datacenters, so index order alone would not do."""
        single, sharded = MetricStore(), ShardedMetricStore(n_shards=3)
        for store in (single, sharded):
            for i in range(6):
                dc = ("dc2", "dc1")[i % 2]
                store.record_fast(0, f"{dc}.s{i}", "P", dc, "cpu", float(i))
        want = single.per_server_values("P", "cpu")
        assert list(want) == [
            "dc1.s1", "dc1.s3", "dc1.s5", "dc2.s0", "dc2.s2", "dc2.s4"
        ]
        assert list(sharded.per_server_values("P", "cpu")) == list(want)

    def test_pool_matrix(self, pair):
        single, sharded = pair
        wa, na, ma = single.pool_matrix("A", "cpu")
        wb, nb, mb = sharded.pool_matrix("A", "cpu", start=None, stop=None)
        np.testing.assert_array_equal(wa, wb)
        assert na == nb
        np.testing.assert_array_equal(ma, mb)

    def test_pool_matrix_window_slice(self, pair):
        single, sharded = pair
        wa, na, ma = single.pool_matrix("B", "rps", datacenter_id="dc2", start=3, stop=9)
        wb, nb, mb = sharded.pool_matrix("B", "rps", datacenter_id="dc2", start=3, stop=9)
        np.testing.assert_array_equal(wa, wb)
        assert na == nb
        np.testing.assert_array_equal(ma, mb)

    def test_pool_matrix_empty(self, pair):
        _single, sharded = pair
        windows, names, matrix = sharded.pool_matrix("A", "nope")
        assert windows.size == 0 and names == () and matrix.size == 0

    def test_server_series(self, pair):
        single, sharded = pair
        for server in single.servers_in_pool("A")[:5]:
            a = single.server_series("A", "cpu", server, start=2, stop=25)
            b = sharded.server_series("A", "cpu", server, start=2, stop=25)
            np.testing.assert_array_equal(a.windows, b.windows)
            np.testing.assert_array_equal(a.values, b.values)
        assert len(sharded.server_series("A", "cpu", "unknown-server")) == 0

    def test_gather_columns_canonical_order(self, pair):
        single, sharded = pair
        wa, sa, va = single.gather_columns("A", "cpu")
        wb, sb, vb = sharded.gather_columns("A", "cpu")
        np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(sa, sb)
        np.testing.assert_array_equal(va, vb)


class TestIngestPaths:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_record_fast_routes_to_owner_shard(self, backend, shard_server):
        with _sharded(n_shards=2, backend=backend, server=shard_server) as store:
            store.record_fast(0, "s0", "P", "dc", "cpu", 1.0)
            store.record_fast(0, "s1", "P", "dc", "cpu", 2.0)
            idx0 = store.interner.index["s0"]
            idx1 = store.interner.index["s1"]
            assert store.shards[store.shard_of(idx0)].sample_count() == 1
            assert store.shards[store.shard_of(idx1)].sample_count() == 1
            series = store.pool_window_aggregate("P", "cpu", reducer="sum")
            assert series.values[0] == pytest.approx(3.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_record_fast_rows_match_single_store(self, backend, shard_server):
        single = MetricStore()
        samples = [
            (w, f"s{i}", "P", "dc", "cpu", float(w * 10 + i))
            for w in range(4)
            for i in range(7)
        ]
        with _sharded(backend=backend, server=shard_server) as sharded:
            for sample in samples:
                single.record_fast(*sample)
                sharded.record_fast(*sample)
            assert single.sample_count() == sharded.sample_count()
            a = single.pool_window_aggregate("P", "cpu")
            b = sharded.pool_window_aggregate("P", "cpu")
            np.testing.assert_array_equal(a.windows, b.windows)
            np.testing.assert_array_equal(a.values, b.values)
            sharded.record_fast(*samples[0])
            assert sharded.sample_count() == single.sample_count() + 1

    def test_record_batch_validation(self):
        store = ShardedMetricStore(n_shards=2)
        with pytest.raises(ValueError):
            store.record_batch("P", "dc", "cpu", 0, ["a", "b"], np.ones(3))
        store.record_batch("P", "dc", "cpu", 0, [], np.array([]))
        assert store.sample_count() == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cache_invalidated_on_ingest(self, backend, shard_server):
        with _fill(
            _sharded(n_shards=2, backend=backend, server=shard_server),
            n_servers=4, n_windows=3,
        ) as store:
            before = store.pool_window_aggregate("A", "cpu")
            assert store.pool_window_aggregate("A", "cpu") is before  # memoized
            store.record_batch(
                "A", "dc1", "cpu", 99, store.intern_servers(["dc1.A.s000"]),
                np.array([1.0]),
            )
            after = store.pool_window_aggregate("A", "cpu")
            assert after is not before
            assert after.windows[-1] == 99

    def test_memoized_series_frozen(self):
        store = _fill(ShardedMetricStore(n_shards=2), n_servers=4, n_windows=3)
        series = store.pool_window_aggregate("A", "cpu")
        with pytest.raises(ValueError):
            series.values[0] = -1.0

    def test_close_is_idempotent(self):
        store = ShardedMetricStore(n_shards=2)
        _fill(store, n_servers=4, n_windows=2)
        store.close()
        store.close()


class TestCloseRace:
    """Ingest after close() is a deterministic, clearly worded
    ``RuntimeError`` — never a write to a torn-down connection."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ingest_after_close_raises_cleanly(self, backend, shard_server):
        store = _sharded(n_shards=2, backend=backend, server=shard_server)
        ids = store.intern_servers(["a", "b"])
        store.record_batch("P", "dc", "cpu", 0, ids, np.ones(2))
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.record_batch("P", "dc", "cpu", 1, ids, np.ones(2))
        with pytest.raises(RuntimeError, match="closed"):
            store.record_fast(1, "a", "P", "dc", "cpu", 1.0)


class TestExport:
    def test_export_identical_to_single_store(self, tmp_path, pair):
        single, sharded = pair
        single_path = tmp_path / "single.csv"
        sharded_path = tmp_path / "sharded.csv"
        assert export_store(single, single_path) == export_store(
            sharded, sharded_path
        )
        assert single_path.read_text() == sharded_path.read_text()

    def test_roundtrip_queries(self, tmp_path, pair):
        _single, sharded = pair
        path = tmp_path / "archive.csv"
        export_store(sharded, path)
        loaded = import_store(path)
        assert loaded.sample_count() == sharded.sample_count()
        a = loaded.pool_window_aggregate("A", "cpu", reducer="count")
        b = sharded.pool_window_aggregate("A", "cpu", reducer="count")
        np.testing.assert_array_equal(a.windows, b.windows)
        np.testing.assert_array_equal(a.values, b.values)
