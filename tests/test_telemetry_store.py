"""Unit tests for repro.telemetry.store and counters."""

import errno

import numpy as np
import pytest

from repro.telemetry.counters import Counter, CounterSample, WINDOW_SECONDS, workload_counter
from repro.telemetry.export import export_store
from repro.telemetry.store import MetricStore, SpillArchive
from tests.conftest import chunk_list_rows


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


REDUCERS = ("mean", "sum", "max", "count")
_SERVERS = ("s0", "s1", "s2")
#: (start, stop) ranges the chunk-list cases read: everything, and
#: edges that fall on, inside and outside chunk spans.
_RANGES = [(None, None), (0, None), (None, 7), (3, 9), (5, 6), (8, 40), (-3, 2)]


def _put(store, windows, servers=(0, 1, 2), dc="DC1", scale=1.0):
    """One ``record_columns`` call — one chunk — of inexact float values."""
    w = np.repeat(np.asarray(windows, dtype=np.int64), len(servers))
    s = np.tile(np.asarray(servers, dtype=np.int64), len(windows))
    store.record_columns("B", dc, "rps", w, s, 0.1 * (w * 7 + s * 3 + 1) * scale)


def _twins():
    evicting, reference = MetricStore(), MetricStore()
    for store in (evicting, reference):
        store.intern_servers(_SERVERS)
    return evicting, reference


def _windows_read(store, start=None, stop=None, dc=None):
    return store.gather_columns("B", "rps", dc, start, stop)[0].tolist()


def _assert_same_answers(store, reference, ranges=_RANGES):
    """Every read of ``store`` equals the never-evicted ``reference``'s."""
    assert store.sample_count() == reference.sample_count()
    for got, want in zip(store.iter_tables(), reference.iter_tables(), strict=True):
        assert got[0] == want[0]
        for column, expected in zip(got[1:], want[1:]):
            np.testing.assert_array_equal(column, expected)
    np.testing.assert_array_equal(
        store.all_values("rps"), reference.all_values("rps")
    )
    for start, stop in ranges:
        for dc in (None,) + reference.datacenters:
            for column, expected in zip(
                store.gather_columns("B", "rps", dc, start, stop),
                reference.gather_columns("B", "rps", dc, start, stop),
            ):
                np.testing.assert_array_equal(column, expected)
            for reducer in REDUCERS:
                a = store.pool_window_aggregate("B", "rps", dc, start, stop, reducer)
                b = reference.pool_window_aggregate("B", "rps", dc, start, stop, reducer)
                np.testing.assert_array_equal(a.windows, b.windows)
                np.testing.assert_array_equal(a.values, b.values)
            a = store.per_server_values("B", "rps", dc, start, stop)
            b = reference.per_server_values("B", "rps", dc, start, stop)
            assert list(a) == list(b)
            for server in a:
                np.testing.assert_array_equal(a[server], b[server])
            a = store.pool_matrix("B", "rps", dc, start, stop)
            b = reference.pool_matrix("B", "rps", dc, start, stop)
            np.testing.assert_array_equal(a[0], b[0])
            assert a[1] == b[1]
            np.testing.assert_array_equal(a[2], b[2])
        for server in _SERVERS:
            a = store.server_series("B", "rps", server, start, stop)
            b = reference.server_series("B", "rps", server, start, stop)
            np.testing.assert_array_equal(a.windows, b.windows)
            np.testing.assert_array_equal(a.values, b.values)


class TestChunkList:
    """The table's chunk list through the steps the Hypothesis suites
    reach only by luck; every case checks ``_Table``'s invariant after
    each step and compares with a store that never evicted.  Read-back
    orders and totals marked *pinned* were captured at the parent of
    the change that introduced the chunk list."""

    def test_cutoff_straddling_a_chunk(self):
        # Blocks of 4 windows, 6 retained: every cutoff but the first
        # splits a chunk.
        evicting, reference = _twins()
        evicted = []
        for start in range(0, 24, 4):
            for store in (evicting, reference):
                _put(store, range(start, start + 4))
                _put(store, range(start, start + 4), dc="DC2", scale=3.0)
            evicted.append(evicting.evict_windows(start + 4 - 6))
            chunk_list_rows(evicting)
            _assert_same_answers(evicting, reference)
        assert evicted == [0, 12, 24, 24, 24, 24]  # pinned
        assert evicting.hot_sample_count() == 36
        assert evicting.evicted_before == 18

    def test_one_big_chunk_evicted_in_steps(self):
        # What an imported archive is: one chunk per table.
        evicting, reference = _twins()
        for store in (evicting, reference):
            _put(store, range(20))
        steps = [(3, 9, 51), (4, 3, 48), (11, 21, 27), (19, 24, 3), (25, 3, 0)]
        for cutoff, moved, hot in steps:  # pinned
            assert evicting.evict_windows(cutoff) == moved
            assert evicting.hot_sample_count() == hot
            chunk_list_rows(evicting)
            _assert_same_answers(evicting, reference)

    def test_pool_matrix_over_sparse_windows(self):
        # Windows 2**40 apart: the matrix has a row per window present,
        # not per window in the span, and a cell's later row wins.
        windows = [-(1 << 40), 0, 5, 1 << 40]
        evicting, reference = _twins()
        for store in (evicting, reference):
            for window in windows:
                _put(store, [window])
            _put(store, [5], servers=(1,), scale=2.0)
        assert evicting.evict_windows(1) == 6
        w = np.array(windows, dtype=np.int64)[:, None]
        expected = 0.1 * (w * 7 + np.arange(3) * 3 + 1)
        expected[2, 1] *= 2.0
        for store in (evicting, reference):
            got_windows, names, matrix = store.pool_matrix("B", "rps")
            np.testing.assert_array_equal(got_windows, windows)
            assert names == _SERVERS
            np.testing.assert_array_equal(matrix, expected)
            got_windows, _names, matrix = store.pool_matrix("B", "rps", start=5)
            np.testing.assert_array_equal(got_windows, windows[2:])
            np.testing.assert_array_equal(matrix, expected[2:])

    def test_full_read_between_blocks_then_more_evictions(self):
        evicting, reference = _twins()
        evicted = []
        for start in range(0, 30, 3):
            for store in (evicting, reference):
                _put(store, range(start, start + 3))
            if start >= 9:
                # A full-range read: fuses the hot chunks ...
                _assert_same_answers(evicting, reference)
                assert len(evicting._tables["B", "DC1", "rps"]._hot) == 1
            # ... which the next cutoff then has to split.
            evicted.append(evicting.evict_windows(start + 3 - 7))
            chunk_list_rows(evicting)
            _assert_same_answers(evicting, reference, [(None, None), (start, None)])
        assert evicted == [0, 0, 6, 9, 9, 9, 9, 9, 9, 9]  # pinned
        assert evicting.hot_sample_count() == 21
        _assert_same_answers(evicting, reference)

    def test_rows_below_the_watermark_after_an_eviction(self):
        evicting, reference = _twins()
        for store in (evicting, reference):
            for start in range(0, 12, 2):
                _put(store, [start, start + 1], servers=(0, 1))
        assert evicting.evict_windows(8) == 16
        for store in (evicting, reference):
            _put(store, [3], servers=(1,), scale=2.0)  # late
            _put(store, [12, 13], servers=(0, 1))
        chunk_list_rows(evicting)
        # The late row stays hot and reads back after the spilled
        # chunks, where it was appended (pinned).
        late_then_hot = [3, 12, 12, 13, 13]
        assert evicting.hot_sample_count() == 13
        assert _windows_read(evicting) == (
            [w for w in range(12) for _ in range(2)] + late_then_hot
        )
        assert _windows_read(evicting, 2, 10) == (
            [w for w in range(2, 10) for _ in range(2)] + [3]
        )
        _assert_same_answers(
            evicting, reference, [(None, None), (None, 7), (3, 9), (-3, 2)]
        )
        # The next eviction takes it along, in hot order: behind
        # window 10, ahead of window 11 (pinned) — from here on row
        # order differs from the never-evicted store's, values do not.
        assert evicting.evict_windows(11) == 7
        chunk_list_rows(evicting)
        assert evicting.hot_sample_count() == 6
        assert _windows_read(evicting) == (
            [w for w in range(11) for _ in range(2)]
            + [3, 11, 11, 12, 12, 13, 13]
        )
        for start, stop in _RANGES:
            for reducer in REDUCERS:
                a = evicting.pool_window_aggregate("B", "rps", None, start, stop, reducer)
                b = reference.pool_window_aggregate("B", "rps", None, start, stop, reducer)
                np.testing.assert_array_equal(a.windows, b.windows)
                np.testing.assert_array_equal(a.values, b.values)

    def test_range_above_a_late_row_leaves_it_out(self):
        # The parent returned the late window-3 row for [5, ...): its
        # shortcut took the hot column whole once anything had spilled.
        evicting, reference = _twins()
        for store in (evicting, reference):
            _put(store, range(10))
        evicting.evict_windows(8)
        for store in (evicting, reference):
            _put(store, [3], servers=(1,))
        assert 3 not in _windows_read(evicting, 5, None)
        _assert_same_answers(evicting, reference, [(5, None), (5, 10), (8, None)])

    @pytest.mark.parametrize("cutoff", [None, 1])
    def test_negative_window_read_in_full(self, tmp_path, cutoff):
        store = MetricStore()
        store.intern_servers(_SERVERS)
        _put(store, [-2, 0, 1], servers=(0, 1))
        if cutoff is not None:
            assert store.evict_windows(cutoff) == 4
        chunk_list_rows(store)
        # start=None, stop=None is every row (pinned) ...
        ((key, windows, servers, values),) = store.iter_tables()
        assert key == ("B", "DC1", "rps")
        assert windows.tolist() == [-2, -2, 0, 0, 1, 1]
        assert servers.tolist() == [0, 1, 0, 1, 0, 1]
        assert _windows_read(store) == [-2, -2, 0, 0, 1, 1]
        assert store.pool_window_aggregate(
            "B", "rps", reducer="count"
        ).windows.tolist() == [-2, 0, 1]
        # ... an explicit range is not ...
        assert _windows_read(store, 1, 2) == [1, 1]
        assert _windows_read(store, -5, 0) == [-2, -2]
        # ... and the archive has all of it (pinned bytes).
        path = tmp_path / "negative.csv"
        assert export_store(store, path) == 6
        assert path.read_bytes() == (
            b"window,server_id,pool_id,datacenter_id,counter,value\r\n"
            b"-2,s0,B,DC1,rps,-1.3\r\n"
            b"0,s0,B,DC1,rps,0.1\r\n"
            b"1,s0,B,DC1,rps,0.8\r\n"
            b"-2,s1,B,DC1,rps,-1.0\r\n"
            b"0,s1,B,DC1,rps,0.4\r\n"
            b"1,s1,B,DC1,rps,1.1\r\n"
        )

    def test_several_chunks_evicted_by_one_call(self):
        evicting, reference = _twins()
        for store in (evicting, reference):
            for start in range(0, 16, 2):
                _put(store, [start, start + 1])
                _put(store, [start, start + 1], dc="DC2", scale=3.0)
        # Five whole chunks and half of a sixth per table, one call.
        assert evicting.evict_windows(11) == 66
        table = evicting._tables["B", "DC1", "rps"]
        assert [(c.lo, c.hi) for c in table._cold] == [
            (0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 10)
        ]
        assert [(c.lo, c.hi) for c in table._hot] == [(11, 11), (12, 13), (14, 15)]
        chunk_list_rows(evicting)
        assert _windows_read(evicting, dc="DC1") == [  # pinned
            w for w in range(16) for _ in range(3)
        ]
        _assert_same_answers(evicting, reference)

    @pytest.mark.parametrize("failing_write", [1, 2, 3, 4])
    def test_spill_write_failing_mid_eviction(self, monkeypatch, failing_write):
        # Two tables, two chunks each below the cutoff: four writes, of
        # which the n-th fails as a full disk would.  At the parent the
        # chunks written before it were already cold *and* still hot
        # (n = 2, 4: 36 rows read back as 42), or one table was ahead
        # of the watermark and ranged reads skipped its cold rows
        # (n = 3).
        evicting, reference = _twins()
        for store in (evicting, reference):
            for start in (0, 2, 4):
                _put(store, [start, start + 1])
                _put(store, [start, start + 1], dc="DC2", scale=3.0)
        append, writes = SpillArchive.append, []

        def full_disk(self, buffers):
            writes.append(buffers)
            if len(writes) == failing_write:
                raise OSError(errno.ENOSPC, "No space left on device")
            return append(self, buffers)

        monkeypatch.setattr(SpillArchive, "append", full_disk)
        with pytest.raises(OSError, match="No space left"):
            evicting.evict_windows(4)
        # All or nothing: the store is as it was ...
        assert evicting.evicted_before == 0
        assert evicting.hot_sample_count() == evicting.sample_count() == 36
        chunk_list_rows(evicting)
        _assert_same_answers(evicting, reference)
        # ... and the retry evicts exactly what the failed call did not.
        assert evicting.evict_windows(4) == 24
        assert evicting.evicted_before == 4
        assert evicting.hot_sample_count() == 12
        chunk_list_rows(evicting)
        assert _windows_read(evicting, dc="DC1") == [
            w for w in range(6) for _ in range(3)
        ]
        _assert_same_answers(evicting, reference)
