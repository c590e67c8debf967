"""The spill log and the reads over it, by property rather than by clock.

``SpillArchive`` is a positional byte log; a cold chunk is one record
in it (its values, then its windows and server indices as narrow
offsets); range reads come back a batch of chunks at a time and
``server_series`` selects one server's rows per batch.  Every case here
compares bytes (or a never-evicted twin's answers), and the memory
bound and the bytes read are counted (``tracemalloc``, ``preadv``
calls), not timed.
"""

import errno
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.telemetry import store as store_module
from repro.telemetry.export import export_store
from repro.telemetry.store import REDUCERS, MetricStore, SpillArchive, _Table

#: Cutoff above every generated window (and inside int64).
_ABOVE = 1 << 62


def _short_pwrite(limit):
    """An ``os.pwrite`` that writes at most ``limit`` bytes per call."""
    pwrite = store_module.os.pwrite

    def short(fd, data, offset):
        return pwrite(fd, memoryview(data)[:limit], offset)

    return mock.patch.object(store_module.os, "pwrite", short)


def _short_preadv(limit):
    """An ``os.preadv`` that fills at most ``limit`` bytes per call — what
    a truncated spill file hands back."""
    preadv = store_module.os.preadv

    def short(fd, buffers, offset):
        views, left = [], limit
        for buffer in buffers:
            views.append(memoryview(buffer).cast("B")[:left])
            left -= len(views[-1])
        return preadv(fd, views, offset)

    return mock.patch.object(store_module.os, "preadv", short)


_limits = st.one_of(st.just(1 << 30), st.integers(1, 97))


class TestByteLog:
    """``append`` returns where the bytes start; ``read`` returns them."""

    @given(
        records=st.lists(
            st.lists(st.binary(max_size=200), max_size=4), max_size=12
        ),
        reads=st.lists(st.integers(0, 11), max_size=12),
        limit=_limits,
    )
    @settings(max_examples=60, deadline=None)
    def test_reads_interleaved_with_appends(self, records, reads, limit):
        log, written = SpillArchive(), []
        try:
            with _short_pwrite(limit):
                for buffers, peek in zip(records, reads + [0] * len(records)):
                    written.append((log.append(buffers), b"".join(buffers)))
                    offset, expected = written[peek % len(written)]
                    assert log.read(offset, len(expected)) == expected
            for offset, expected in reversed(written):
                assert log.read(offset, len(expected)) == expected
            # Records lie back to back: the log is as long as its bytes.
            assert log.append([]) == sum(len(data) for _, data in written)
        finally:
            log.close()

    def test_failed_append_leaves_no_record(self):
        """A write that dies half-way does not move the end: the next
        record lands where the failed one started."""
        log = SpillArchive()
        first = log.append([b"abcdef"])
        pwrite = store_module.os.pwrite

        def full_after_three_bytes(fd, data, offset):
            if offset >= 9:
                raise OSError(errno.ENOSPC, "No space left on device")
            return pwrite(fd, memoryview(data)[:3], offset)

        with mock.patch.object(store_module.os, "pwrite", full_after_three_bytes):
            with pytest.raises(OSError):
                log.append([b"0123456789"])
        second = log.append([b"xy", b"z"])
        assert (first, second) == (0, 6)
        assert log.read(0, 9) == b"abcdefxyz"
        log.close()

    def test_reading_past_the_end_is_an_error(self):
        log = SpillArchive()
        log.append([b"abc"])
        with pytest.raises(OSError, match="holds 1 of the 5 bytes"):
            log.read(2, 5)
        log.close()

    def test_a_short_read_is_an_error(self):
        log = SpillArchive()
        log.append([b"abcdef"])
        target = (bytearray(2), np.zeros(4, np.uint8))
        with _short_preadv(3):
            with pytest.raises(
                OSError, match="holds 3 of the 6 bytes expected at offset 0"
            ):
                log.read_into(0, target, 6)
        log.read_into(0, target, 6)
        assert bytes(target[0]) + target[1].tobytes() == b"abcdef"
        log.close()


def _bits(column) -> bytes:
    return np.ascontiguousarray(column).tobytes()


#: Window and server index ranges a chunk draws from: every offset
#: width a cold record can use, around zero, far from it, and the whole
#: of int64 (below the eviction cutoff).
_SPANS = st.sampled_from([
    (0, 0), (-3, 250), (1 << 40, (1 << 40) + 255), (-(1 << 40), -(1 << 40) + 70_000),
    (-(1 << 40), 1 << 40), (-(1 << 63), _ABOVE - 1),
])


@st.composite
def _chunks(draw):
    """One ingest batch: any float64 bit pattern (NaN payloads, -0.0,
    subnormals), windows and server indices in unsorted order over
    every record width, negative and 2**40-scale alike; short spans
    repeat (window, server) cells."""
    rows = draw(st.one_of(st.integers(1, 40), st.integers(41, 5000)))
    columns = []
    for _column in range(2):
        lo, hi = draw(_SPANS)
        columns.append(draw(arrays(np.int64, rows, elements=st.integers(lo, hi))))
    values = draw(arrays(np.uint64, rows)).view(np.float64)
    return columns[0], columns[1], values


def _read(table, log, lo=-math.inf, hi=math.inf):
    """The one range read over ``table``: its batches, widened."""
    chunks = table.overlapping(lo, hi, cold=True)
    return [batch.columns() for batch in table.read(chunks, lo, hi, log)]


class TestColdChunkRoundTrip:
    """``_Table`` over a ``_ColdLog``: what goes cold comes back as the
    exact bytes appended, in append order, whatever the interleaving of
    appends, evictions and reads — whole, window-sliced, or one
    server's rows selected on the narrow column."""

    @given(
        steps=st.lists(st.tuples(_chunks(), st.booleans(), st.booleans()),
                       min_size=1, max_size=6),
        limit=_limits,
        cut=st.tuples(st.integers(-(1 << 41), 1 << 41), st.integers(0, 1 << 42)),
        pick=st.integers(0, 1 << 30),
        # A scratch of 4 kB splits runs into many batches and leaves the
        # larger chunks a buffer of their own.
        scratch=st.sampled_from([store_module._SCRATCH_BYTES, 4096]),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_bit_exact(self, steps, limit, cut, pick, scratch):
        with mock.patch.object(store_module, "_SCRATCH_BYTES", scratch):
            self._round_trip(steps, limit, cut, pick)

    def _round_trip(self, steps, limit, cut, pick):
        log, table, appended = store_module._ColdLog(), _Table(), []
        try:
            with _short_pwrite(limit):
                for columns, evict, read in steps:
                    windows = columns[0]
                    table.append_batch(int(windows.min()), int(windows.max()), columns)
                    appended.append(columns)
                    if evict:
                        table.settle(*table.spill_below(_ABOVE, log))
                        assert table.hot_rows == 0
                    if read:
                        self._assert_reads_back(table, log, appended)
            self._assert_reads_back(table, log, appended)
            self._assert_slices_match(table, log, appended, cut, pick)
        finally:
            log.archive.close()

    @staticmethod
    def _assert_reads_back(table, log, appended):
        parts = _read(table, log)
        for position, expected in enumerate(zip(*appended)):
            got = np.concatenate([part[position] for part in parts])
            assert got.dtype == expected[0].dtype
            assert _bits(got) == b"".join(_bits(column) for column in expected)
        assert table.n_rows == sum(columns[0].size for columns in appended)

    @staticmethod
    def _assert_slices_match(table, log, appended, cut, pick):
        windows, servers, values = (np.concatenate(c) for c in zip(*appended))
        lo, hi = cut[0], cut[0] + cut[1]
        inside = (windows >= lo) & (windows < hi)
        parts = _read(table, log, lo, hi)
        assert sum(part[0].size for part in parts) == np.count_nonzero(inside)
        for got, want in zip(zip(*parts), (windows, servers, values)):
            assert _bits(np.concatenate(got)) == _bits(want[inside])
        server = int(servers[pick % servers.size])
        chunks = table.overlapping(-math.inf, math.inf, cold=True)
        got = [batch.select(server) for batch in table.read(
            chunks, -math.inf, math.inf, log
        )]
        mine = servers == server
        assert _bits(np.concatenate([w for w, _v in got])) == _bits(windows[mine])
        assert _bits(np.concatenate([v for _w, v in got])) == _bits(values[mine])


class TestOneServerReadHoldsOneChunk:
    """``server_series`` over a mostly spilled table: the answer of the
    never-evicted twin, from one chunk of memory at a time."""

    SERVERS, BLOCK, CHUNKS = 64, 32, 80

    @pytest.fixture(scope="class")
    def twins(self):
        evicting, reference = MetricStore(), MetricStore()
        rng = np.random.default_rng(5)
        for store in (evicting, reference):
            store.intern_servers([f"s{i}" for i in range(self.SERVERS)])
        for block in range(self.CHUNKS):
            # The last server reports in odd blocks only.
            present = self.SERVERS - (block % 2 == 0)
            windows = np.repeat(
                np.arange(block * self.BLOCK, (block + 1) * self.BLOCK), present
            )
            servers = np.tile(np.arange(present), self.BLOCK)
            values = rng.standard_normal(windows.size)
            for store in (evicting, reference):
                store.record_columns("B", "DC1", "rps", windows, servers, values)
        evicting.evict_windows((self.CHUNKS - 1) * self.BLOCK)
        assert len(evicting._tables["B", "DC1", "rps"]._cold) == self.CHUNKS - 1 >= 64
        return evicting, reference

    def test_every_server_matches_the_twin(self, twins):
        evicting, reference = twins
        ranges = [(None, None), (100, 1000), (self.BLOCK * 70, None), (-5, 40)]
        for server in [f"s{i}" for i in range(self.SERVERS)] + ["nobody"]:
            for start, stop in ranges:
                got = evicting.server_series("B", "rps", server, start, stop)
                want = reference.server_series("B", "rps", server, start, stop)
                np.testing.assert_array_equal(got.windows, want.windows)
                assert _bits(got.values) == _bits(want.values)
        assert len(evicting.server_series("B", "rps", "nobody")) == 0
        last = evicting.server_series("B", "rps", f"s{self.SERVERS - 1}")
        assert len(last) == self.BLOCK * self.CHUNKS // 2

    def test_peak_memory_is_a_few_chunks_not_the_table(self, twins):
        evicting, _reference = twins
        chunk_bytes = 24 * self.SERVERS * self.BLOCK
        table_bytes = 24 * evicting.sample_count()
        evicting.server_series("B", "rps", "s3")  # nothing lazy left to set up
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            series = evicting.server_series("B", "rps", "s3")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        answer_bytes = series.windows.nbytes + series.values.nbytes
        assert len(series) == self.BLOCK * self.CHUNKS
        assert peak < 4 * chunk_bytes + answer_bytes < table_bytes / 8

    def test_every_other_answer_matches_the_twin(self, twins, tmp_path):
        evicting, reference = twins
        for start, stop in [(None, None), (100, 1000), (-5, 40), (2500, 2600)]:
            args = ("B", "rps", None, start, stop)
            for got, want in zip(
                evicting.gather_columns(*args), reference.gather_columns(*args)
            ):
                assert _bits(got) == _bits(want)
            got, want = evicting.pool_matrix(*args), reference.pool_matrix(*args)
            assert _bits(got[0]) == _bits(want[0]) and got[1] == want[1]
            assert _bits(got[2]) == _bits(want[2])
            got = evicting.per_server_values(*args)
            want = reference.per_server_values(*args)
            assert list(got) == list(want)
            assert all(_bits(got[name]) == _bits(want[name]) for name in want)
            for reducer in REDUCERS:
                got = evicting.pool_window_aggregate(*args, reducer=reducer)
                want = reference.pool_window_aggregate(*args, reducer=reducer)
                assert _bits(got.windows) == _bits(want.windows)
                assert _bits(got.values) == _bits(want.values)
        export_store(evicting, tmp_path / "evicting.csv")
        export_store(reference, tmp_path / "reference.csv")
        assert (tmp_path / "evicting.csv").read_bytes() == (
            tmp_path / "reference.csv"
        ).read_bytes()

    def test_reads_only_the_narrow_records_it_touches(self, twins):
        """One ``preadv`` per cold chunk the range touches, of exactly its
        record — 10 B a row for 32 windows of 64 servers — so the bytes
        read grow with the range: 4x the chunks, at most 4.4x the bytes."""
        evicting, _reference = twins
        cold = evicting._tables["B", "DC1", "rps"]._cold
        calls = []
        preadv = store_module.os.preadv

        def counting(fd, buffers, offset):
            calls.append((offset, preadv(fd, buffers, offset)))
            return calls[-1][1]

        read = {}
        with mock.patch.object(store_module.os, "preadv", counting):
            for chunks in (8, 32, len(cold)):
                calls.clear()
                evicting.server_series("B", "rps", "s3", 0, chunks * self.BLOCK)
                touched = cold[:chunks]
                assert [offset for offset, _n in calls] == [
                    chunk.offset for chunk in touched
                ]
                rows = sum(chunk.rows for chunk in touched)
                record_bytes = sum(
                    chunk.rows * (8 + chunk.window_size + chunk.server_size)
                    for chunk in touched
                )
                read[chunks] = sum(nbytes for _offset, nbytes in calls)
                assert read[chunks] == record_bytes <= 10 * rows
        assert read[32] <= 4.4 * read[8]

    def test_a_short_read_fails_the_query(self, twins):
        """A spill file that hands back fewer bytes than a record holds
        is the located ``OSError``, never a partial answer — and the
        store answers in full once the file reads whole again."""
        evicting, reference = twins
        with _short_preadv(100):
            for read in (
                lambda store: store.server_series("B", "rps", "s3"),
                lambda store: store.pool_matrix("B", "rps"),
                lambda store: store.gather_columns("B", "rps"),
            ):
                with pytest.raises(
                    OSError, match=r"holds 100 of the \d+ bytes expected at offset 0"
                ):
                    read(evicting)
        got = evicting.server_series("B", "rps", "s3")
        want = reference.server_series("B", "rps", "s3")
        assert _bits(got.values) == _bits(want.values)
