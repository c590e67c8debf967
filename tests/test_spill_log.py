"""The spill log and the reads over it, by property rather than by clock.

``SpillArchive`` is a positional byte log; a cold chunk is the raw
bytes of its three columns in it; ``server_series`` selects one
server's rows a chunk at a time.  Every case here compares bytes (or
a never-evicted twin's answers), and the memory bound is counted with
``tracemalloc``, not timed.
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
from repro.telemetry.store import MetricStore, SpillArchive, _Table

#: Cutoff above every generated window (and inside int64).
_ABOVE = 1 << 62


def _short_pwrite(limit):
    """An ``os.pwrite`` that writes at most ``limit`` bytes per call."""
    pwrite = store_module.os.pwrite

    def short(fd, data, offset):
        return pwrite(fd, memoryview(data)[:limit], offset)

    return mock.patch.object(store_module.os, "pwrite", short)


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


def _bits(column) -> bytes:
    return np.ascontiguousarray(column).tobytes()


@st.composite
def _chunks(draw):
    """One ingest batch: any float64 bit pattern (NaN payloads, -0.0,
    subnormals), windows negative and far beyond 2**31."""
    rows = draw(st.one_of(st.integers(1, 40), st.integers(41, 5000)))
    windows = draw(arrays(np.int64, rows, elements=st.integers(-_ABOVE, _ABOVE - 1)))
    servers = draw(arrays(np.int64, rows, elements=st.integers(0, 1 << 40)))
    values = draw(arrays(np.uint64, rows)).view(np.float64)
    return windows, servers, values


class TestColdChunkRoundTrip:
    """``_Table`` over a ``SpillArchive``: what goes cold comes back as
    the exact bytes appended, in append order, whatever the
    interleaving of appends, evictions and reads."""

    @given(
        steps=st.lists(st.tuples(_chunks(), st.booleans(), st.booleans()),
                       min_size=1, max_size=6),
        limit=_limits,
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_bit_exact(self, steps, limit):
        spill, table, appended = SpillArchive(), _Table(), []
        try:
            with _short_pwrite(limit):
                for columns, evict, read in steps:
                    windows = columns[0]
                    table.append_batch(int(windows.min()), int(windows.max()), columns)
                    appended.append(columns)
                    if evict:
                        table.settle(*table.spill_below(_ABOVE, spill))
                        assert table.hot_rows == 0
                    if read:
                        self._assert_reads_back(table, spill, appended)
            self._assert_reads_back(table, spill, appended)
        finally:
            spill.close()

    @staticmethod
    def _assert_reads_back(table, spill, appended):
        parts = list(table.read(-math.inf, math.inf, spill))
        for position, expected in enumerate(zip(*appended)):
            got = np.concatenate([part[position] for part in parts])
            assert got.dtype == expected[0].dtype
            assert _bits(got) == b"".join(_bits(column) for column in expected)
        assert table.n_rows == sum(columns[0].size for columns in appended)


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
