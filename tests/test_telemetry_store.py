"""Unit tests for repro.telemetry.store and counters."""

import numpy as np
import pytest

from repro.telemetry.counters import Counter, CounterSample, WINDOW_SECONDS, workload_counter
from repro.telemetry.store import MetricStore


def _sample(window, server="s0", pool="P", dc="DC1", counter="cpu", value=1.0):
    return CounterSample(
        window_index=window,
        server_id=server,
        pool_id=pool,
        datacenter_id=dc,
        counter=counter,
        value=value,
    )


@pytest.fixture()
def store():
    s = MetricStore()
    for w in range(10):
        s.record(_sample(w, server="s0", value=float(w)))
        s.record(_sample(w, server="s1", value=float(w) * 2))
        s.record(_sample(w, server="s0", counter="lat", value=10.0 + w))
    s.record(_sample(0, server="s2", pool="Q", dc="DC2", value=5.0))
    return s


class TestCounters:
    def test_window_seconds_is_paper_value(self):
        assert WINDOW_SECONDS == 120

    def test_workload_counter_name(self):
        assert workload_counter("table_a") == "Requests/sec[table_a]"

    def test_workload_counter_empty_rejected(self):
        with pytest.raises(ValueError):
            workload_counter("")

    def test_sample_time_seconds(self):
        assert _sample(3).time_seconds == 360.0

    def test_resource_classification(self):
        assert Counter.PROCESSOR_UTILIZATION.is_resource
        assert not Counter.LATENCY_P95.is_resource
        assert Counter.LATENCY_P95.is_qos
        assert not Counter.AVAILABILITY.is_qos


class TestIngest:
    def test_sample_count(self, store):
        assert store.sample_count() == 31

    def test_pools_and_datacenters(self, store):
        assert store.pools == ("P", "Q")
        assert store.datacenters == ("DC1", "DC2")

    def test_max_window(self, store):
        assert store.max_window == 9

    def test_empty_store(self):
        s = MetricStore()
        assert s.max_window == -1
        assert s.sample_count() == 0

    def test_record_fast_equivalent(self):
        a, b = MetricStore(), MetricStore()
        a.record(_sample(1, value=3.0))
        b.record_fast(1, "s0", "P", "DC1", "cpu", 3.0)
        sa = a.server_series("P", "cpu", "s0")
        sb = b.server_series("P", "cpu", "s0")
        np.testing.assert_array_equal(sa.values, sb.values)
        np.testing.assert_array_equal(sa.windows, sb.windows)


class TestBatchIngest:
    def test_record_batch_equivalent_to_record(self):
        a, b = MetricStore(), MetricStore()
        for w in range(3):
            for i, server in enumerate(["s0", "s1", "s2"]):
                a.record(_sample(w, server=server, value=float(w * 10 + i)))
        for w in range(3):
            b.record_batch(
                "P", "DC1", "cpu", w,
                ["s0", "s1", "s2"],
                np.array([w * 10.0, w * 10.0 + 1, w * 10.0 + 2]),
            )
        assert a.sample_count() == b.sample_count()
        for server in ("s0", "s1", "s2"):
            sa = a.server_series("P", "cpu", server)
            sb = b.server_series("P", "cpu", server)
            np.testing.assert_array_equal(sa.windows, sb.windows)
            np.testing.assert_array_equal(sa.values, sb.values)
        for reducer in ("mean", "sum", "max", "count"):
            np.testing.assert_array_equal(
                a.pool_window_aggregate("P", "cpu", reducer=reducer).values,
                b.pool_window_aggregate("P", "cpu", reducer=reducer).values,
            )

    def test_record_batch_with_interned_indices(self):
        store = MetricStore()
        indices = store.intern_servers(["s0", "s1"])
        store.record_batch("P", "DC1", "cpu", 0, indices, np.array([1.0, 2.0]))
        store.record_batch("P", "DC1", "cpu", 1, indices, np.array([3.0, 4.0]))
        assert store.servers_in_pool("P") == ("s0", "s1")
        series = store.server_series("P", "cpu", "s1")
        np.testing.assert_array_equal(series.values, [2.0, 4.0])

    def test_record_batch_copies_caller_buffers(self):
        store = MetricStore()
        buffer = np.array([1.0, 2.0])
        indices = store.intern_servers(["s0", "s1"])
        store.record_batch("P", "DC1", "cpu", 0, indices, buffer)
        buffer[:] = 99.0  # caller reuses the scratch array
        np.testing.assert_array_equal(
            store.pool_window_aggregate("P", "cpu", reducer="sum").values, [3.0]
        )

    def test_record_batch_misaligned_rejected(self):
        store = MetricStore()
        with pytest.raises(ValueError):
            store.record_batch("P", "DC1", "cpu", 0, ["s0"], np.array([1.0, 2.0]))

    def test_record_columns_rejects_misaligned_columns(self):
        """Used to be accepted (``sample_count() == 1``) and only blow
        up in the next aggregate query."""
        store = MetricStore()
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match=r"shapes \(\(2,\), \(1,\), \(1,\)\)"):
            store.record_columns(
                "P", "DC1", "cpu", np.zeros(2, dtype=np.int64), one, np.ones(1)
            )
        with pytest.raises(ValueError, match=r"dtypes \('float64', 'int64'"):
            store.record_columns("P", "DC1", "cpu", np.zeros(1), one, np.ones(1))
        assert store.sample_count() == 0 and store.pools == ()

    def test_record_columns_stores_lossless_casts_in_layout(self):
        """``int32`` columns used to be stored as ``int32``."""
        store = MetricStore()
        store.record_columns(
            "P", "DC1", "cpu",
            np.arange(3, dtype=np.int32),
            np.zeros(3, dtype=np.int32),
            np.array([1, 2, 3], dtype=np.float32),
        )
        store.record_columns("P", "DC1", "cpu", [3], [0], [4.0])
        windows, servers, values = store.gather_columns("P", "cpu")
        assert (windows.dtype, servers.dtype, values.dtype) == (
            np.int64, np.int64, np.float64
        )
        np.testing.assert_array_equal(windows, [0, 1, 2, 3])
        np.testing.assert_array_equal(values, [1.0, 2.0, 3.0, 4.0])

    def test_record_many_delegates_to_batch_path(self):
        store = MetricStore()
        store.record_many(
            [
                _sample(0, server="s0", value=1.0),
                _sample(0, server="s1", value=2.0),
                _sample(1, server="s0", counter="lat", value=9.0),
            ]
        )
        assert store.sample_count() == 3
        assert store.pool_window_aggregate("P", "cpu", reducer="sum").values[0] == 3.0
        assert store.server_series("P", "lat", "s0").values[0] == 9.0

    def test_aggregate_cache_invalidated_on_ingest(self):
        store = MetricStore()
        store.record_batch("P", "DC1", "cpu", 0, ["s0"], np.array([1.0]))
        first = store.pool_window_aggregate("P", "cpu")
        # Same query twice returns the memoized object.
        assert store.pool_window_aggregate("P", "cpu") is first
        store.record_batch("P", "DC1", "cpu", 1, ["s0"], np.array([5.0]))
        refreshed = store.pool_window_aggregate("P", "cpu")
        assert refreshed is not first
        np.testing.assert_array_equal(refreshed.values, [1.0, 5.0])

    def test_pool_matrix_dense_view(self):
        store = MetricStore()
        store.record_batch("P", "DC1", "cpu", 0, ["s0", "s1"], np.array([1.0, 2.0]))
        store.record_batch("P", "DC1", "cpu", 2, ["s0"], np.array([3.0]))
        windows, names, matrix = store.pool_matrix("P", "cpu")
        np.testing.assert_array_equal(windows, [0, 2])
        assert names == ("s0", "s1")
        np.testing.assert_array_equal(matrix[:, 0], [1.0, 3.0])
        assert matrix[1, 1] != matrix[1, 1]  # NaN for the missing sample


class TestQueries:
    def test_server_series(self, store):
        series = store.server_series("P", "cpu", "s0")
        assert len(series) == 10
        assert series.values[3] == 3.0

    def test_server_series_sliced(self, store):
        series = store.server_series("P", "cpu", "s0", start=2, stop=5)
        np.testing.assert_array_equal(series.windows, [2, 3, 4])

    def test_missing_series_empty(self, store):
        assert store.server_series("P", "cpu", "nope").is_empty

    def test_pool_mean_aggregate(self, store):
        series = store.pool_window_aggregate("P", "cpu")
        # mean of (w, 2w) = 1.5w
        assert series.values[4] == pytest.approx(6.0)

    def test_pool_sum_aggregate(self, store):
        series = store.pool_window_aggregate("P", "cpu", reducer="sum")
        assert series.values[4] == pytest.approx(12.0)

    def test_pool_max_aggregate(self, store):
        series = store.pool_window_aggregate("P", "cpu", reducer="max")
        assert series.values[4] == pytest.approx(8.0)

    def test_pool_count_aggregate(self, store):
        series = store.pool_window_aggregate("P", "cpu", reducer="count")
        assert series.values[0] == 2.0

    def test_unknown_reducer_rejected(self, store):
        with pytest.raises(ValueError):
            store.pool_window_aggregate("P", "cpu", reducer="median")

    def test_dc_filter(self, store):
        series = store.pool_window_aggregate("Q", "cpu", datacenter_id="DC2")
        assert len(series) == 1
        empty = store.pool_window_aggregate("Q", "cpu", datacenter_id="DC1")
        assert empty.is_empty

    def test_per_server_values(self, store):
        per_server = store.per_server_values("P", "cpu")
        assert set(per_server) == {"s0", "s1"}
        assert per_server["s1"][2] == 4.0

    def test_per_server_values_window_sliced(self, store):
        per_server = store.per_server_values("P", "cpu", start=8)
        assert per_server["s0"].size == 2

    def test_all_values(self, store):
        values = store.all_values("cpu")
        assert values.size == 21

    def test_all_values_pool_filtered(self, store):
        values = store.all_values("cpu", pool_ids=["Q"])
        assert values.size == 1

    def test_all_values_missing_counter(self, store):
        assert store.all_values("nothing").size == 0

    def test_servers_in_pool(self, store):
        assert store.servers_in_pool("P") == ("s0", "s1")
        assert store.servers_in_pool("P", datacenter_id="DC2") == ()

    def test_counters_for_pool(self, store):
        assert set(store.counters_for_pool("P")) == {"cpu", "lat"}

    def test_datacenters_for_pool(self, store):
        assert store.datacenters_for_pool("P") == ("DC1",)
        assert store.datacenters_for_pool("Q") == ("DC2",)
