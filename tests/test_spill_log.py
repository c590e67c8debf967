"""The spill log and the reads over it, by property rather than by clock.

``SpillArchive`` is a positional byte log; a cold chunk is one record
in it (its values, then its windows and server indices as narrow
offsets), and a table's open records are coalesced into one once they
fill a scratch buffer, stored by server when their keys allow it;
range reads come back a record at a time and ``server_series`` reads
only its own rows of a server-major record.  Every case here compares
bytes (or a never-evicted twin's answers), and the memory bound, the
records and the bytes read and written are counted (``tracemalloc``,
``preadv`` calls, the log's length), not timed.
"""

import contextlib
import errno
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster.builders import build_single_pool_fleet
from repro.cluster.simulation import SimulationConfig, Simulator
from repro.cluster.streaming import StreamingSimulator
from repro.telemetry import store as store_module
from repro.telemetry.counters import Counter
from repro.telemetry.export import export_store
from repro.telemetry.store import REDUCERS, MetricStore, SpillArchive, _Table
from tests.conftest import chunk_list_rows

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
    never-evicted twin, from one record of memory at a time.  A 64 kB
    scratch closes a record every few chunks, so the table holds many."""

    SERVERS, BLOCK, CHUNKS = 64, 32, 80
    SCRATCH = 64 << 10

    @pytest.fixture(scope="class")
    def twins(self):
        with mock.patch.object(store_module, "_SCRATCH_BYTES", self.SCRATCH):
            yield self._twins()

    def _twins(self):
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
        table = evicting._tables["B", "DC1", "rps"]
        assert table._open == len(table._cold) == self.CHUNKS - 1
        evicting.sample_count()  # no read below the watermark: still open
        assert table._open == self.CHUNKS - 1
        evicting.gather_columns("B", "rps", None, 0, 1)  # this one coalesces
        return evicting, reference

    def test_cold_records_fill_a_scratch(self, twins):
        """At most one record per scratch of evicted rows, plus the open
        tail: every closed record is at or above its floor and stored by
        server, every open one below it and in append order."""
        evicting, _reference = twins
        table = evicting._tables["B", "DC1", "rps"]
        closed = table._cold[:len(table._cold) - table._open]
        tail = table._cold[len(closed):]
        floor = min(chunk.floor for chunk in closed)
        evicted = sum(chunk.rows for chunk in table._cold)
        assert len(table._cold) <= math.ceil(evicted / floor) + len(tail)
        assert len(closed) >= 16 and floor >= self.SCRATCH // 11 - 8
        assert all(c.rows >= c.floor and c.directory is not None for c in closed)
        assert all(c.rows < c.floor and c.directory is None for c in tail)

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

    def test_reads_only_the_narrow_records_it_touches(self):
        """From each server-major record the range touches, one ``pread``
        of the server's values and one of its window offsets — exactly its
        own rows, 9 B a row here.  The open tail is read whole, one
        ``preadv`` a record, once per version of it: by the first read
        that reaches it, by no read after that, and again only once an
        eviction has made a new tail.  So the bytes read grow with the
        range: 4x the chunks, at most 4.4x the bytes."""
        with mock.patch.object(store_module, "_SCRATCH_BYTES", self.SCRATCH):
            self._read_records_once(*self._twins())  # no one-server read yet

    def _read_records_once(self, evicting, reference):
        table = evicting._tables["B", "DC1", "rps"]
        server = evicting._interner.index["s3"]
        calls = []
        preadv = store_module.os.preadv

        def counting(fd, buffers, offset):
            calls.append((offset, preadv(fd, buffers, offset)))
            return calls[-1][1]

        def whole(chunk):
            return chunk.offset, chunk.rows * sum(d.itemsize for d in chunk.dtypes)

        def narrow(chunk):
            dtypes = chunk.dtypes
            present, starts = chunk.directory
            (at,) = np.flatnonzero(present == server - chunk.server_lo)
            begin, end = starts[at], starts[at + 1]
            return [
                (chunk.offset + 8 * begin, 8 * (end - begin)),
                (chunk.offset + 8 * chunk.rows + dtypes[1].itemsize * begin,
                 dtypes[1].itemsize * (end - begin)),
            ]

        def read(stop, tail_read, coalesced=()):
            """Read ``s3`` below ``stop`` and check every call it made:
            the open records compaction consumed, read whole; two
            ``pread`` s per closed record touched; the tail, if read."""
            calls.clear()
            answer = evicting.server_series("B", "rps", "s3", 0, stop)
            want = reference.server_series("B", "rps", "s3", 0, stop)
            assert _bits(answer.windows) == _bits(want.windows)
            assert _bits(answer.values) == _bits(want.values)
            closed = table._cold[:len(table._cold) - table._open]
            assert all(chunk.directory is not None for chunk in closed)
            tail = table._cold[len(closed):] if tail_read else []
            assert calls == (
                [whole(c) for c in coalesced if all(c is not d for d in table._cold)]
                + [call for c in closed if c.lo < stop for call in narrow(c)]
                + [whole(c) for c in tail]
            )
            nbytes = sum(nbytes for _offset, nbytes in calls)
            if not (coalesced or tail):
                assert nbytes <= 9 * len(answer)
            return nbytes

        with mock.patch.object(store_module.os, "preadv", counting):
            every = self.CHUNKS * self.BLOCK
            read_8, read_32 = (read(n * self.BLOCK, False) for n in (8, 32))
            assert read_32 <= 4.4 * read_8
            read(every, tail_read=True)
            read(every, tail_read=False)
            windows = np.repeat(np.arange(every, every + self.BLOCK), self.SERVERS)
            servers = np.tile(np.arange(self.SERVERS), self.BLOCK)
            for store in (evicting, reference):
                store.record_columns("B", "DC1", "rps", windows, servers,
                                     np.arange(windows.size, dtype=float))
            read(every + self.BLOCK, tail_read=False)
            for before in (every, every + self.BLOCK // 2):  # two new records
                evicting.evict_windows(before)
            open_before = table._cold[len(table._cold) - table._open:]
            read(every + self.BLOCK, tail_read=True, coalesced=open_before)
            assert table._open == 1 < len(open_before)  # a new, shorter tail
            read(every + self.BLOCK, tail_read=False)

    def test_a_short_read_fails_the_query(self, twins):
        """A spill file that hands back fewer bytes than a record holds
        is the located ``OSError``, never a partial answer — and the
        store answers in full once the file reads whole again."""
        evicting, reference = twins
        first = evicting._tables["B", "DC1", "rps"]._cold[0]
        run = first.directory[1][evicting._interner.index["s3"] - first.server_lo]
        with _short_preadv(100):
            for read, offset in (
                (lambda store: store.server_series("B", "rps", "s3"),
                 first.offset + 8 * run),
                (lambda store: store.pool_matrix("B", "rps"), first.offset),
                (lambda store: store.gather_columns("B", "rps"), first.offset),
            ):
                with pytest.raises(
                    OSError,
                    match=rf"holds 100 of the \d+ bytes expected at offset {offset}$",
                ):
                    read(evicting)
        got = evicting.server_series("B", "rps", "s3")
        want = reference.server_series("B", "rps", "s3")
        assert _bits(got.values) == _bits(want.values)


class TestByServerIndexBuilds:
    """The by-server index counted, not timed: on an idle streamed store
    a hundred one-server reads, whole and sliced, build each part of
    each read table's index once, and one mutation makes the next read
    rebuild only the parts it changed, once each."""

    COUNTER = Counter.REQUESTS.value

    @pytest.fixture
    def streamed(self):
        fleet = build_single_pool_fleet(
            "B", n_datacenters=2, servers_per_deployment=6, seed=3
        )
        sim = Simulator(fleet, seed=3, config=SimulationConfig(block_windows=16))
        StreamingSimulator(sim, retain_windows=48).run(max_windows=400)
        return sim.store

    @staticmethod
    @contextlib.contextmanager
    def _builds():
        """Every index part built inside the block: (kind, what it indexes)."""
        built = []

        def spy(kind):
            build = getattr(store_module._Runs, kind)
            return mock.patch.object(
                store_module._Runs, kind,
                lambda of, *rest: built.append((kind, id(of))) or build(of, *rest),
            )

        with spy("tail"), spy("hot"):
            yield built

    def _reads(self, store, n):
        names = store.servers_in_pool("B")
        for i in range(n):
            start, stop = ((None, None), (0, 300), (340, 390))[i % 3]
            store.server_series("B", self.COUNTER, names[i % len(names)], start, stop)

    def test_a_hundred_reads_build_each_part_once(self, streamed):
        tables = streamed._matching_tables("B", self.COUNTER, None)
        assert all(table._open and table._hot for table in tables)
        with self._builds() as built:
            self._reads(streamed, 100)
        assert sorted(built) == sorted(
            (kind, id(of)) for table in tables
            for kind, of in (("tail", table._tail), ("hot", table._hot[0]))
        )

    def test_one_mutation_rebuilds_what_it_changed_once(self, streamed):
        tables = streamed._matching_tables("B", self.COUNTER, None)
        self._reads(streamed, 3)
        with self._builds() as built:
            streamed.evict_windows(streamed.evicted_before + 16)
            self._reads(streamed, 10)
        assert sorted(built) == sorted(
            (kind, id(of)) for table in tables
            for kind, of in (("tail", table._tail), ("hot", table._hot[0]))
        )
        table = tables[0]
        windows = np.full(2, streamed.max_window + 1)
        with self._builds() as built:
            streamed.record_columns(
                "B", "DC1", self.COUNTER, windows,
                streamed.intern_servers(["late0", "late1"]), np.zeros(2),
            )
            self._reads(streamed, 10)
        assert built == [("hot", id(table._hot[0]))]
        assert table._hot[0].hi == windows[0]

    def test_an_eviction_releases_the_index(self, streamed):
        table = streamed._matching_tables("B", self.COUNTER, None)[0]
        self._reads(streamed, 3)
        assert all(part is not None for part in table._index)
        streamed.evict_windows(streamed.evicted_before + 16)
        assert table._index == (None, None)  # holds no evicted row

    def test_a_compaction_rebuilds_the_tail_part(self, streamed):
        """A compaction replaces the tail without an eviction (here: a
        smaller scratch lowers the floor under it); the next read builds
        the tail's part again and answers as before, bit for bit."""
        names = streamed.servers_in_pool("B")
        before = [streamed.server_series("B", self.COUNTER, name) for name in names]
        tables = streamed._matching_tables("B", self.COUNTER, None)
        with mock.patch.object(store_module, "_SCRATCH_BYTES", 8 << 10):
            with self._builds() as built:
                after = [streamed.server_series("B", self.COUNTER, n) for n in names]
        assert all(t._cold[0].directory is not None and t._open for t in tables)
        assert sorted(built) == sorted(
            ("tail", id(table._tail)) for table in tables if table._tail is not None
        )
        for got, want in zip(after, before):
            assert _bits(got.windows) == _bits(want.windows)
            assert _bits(got.values) == _bits(want.values)


class TestCompactionCosts:
    """What eviction and the compactions of reads below the watermark
    write, counted at n and 4n blocks: records of a scratch each, and
    every evicted row written at most twice."""

    SERVERS, BLOCK = 48, 16

    def _evicted(self, blocks):
        store = MetricStore()
        rng = np.random.default_rng(blocks)
        servers = np.tile(np.arange(self.SERVERS), self.BLOCK)
        with mock.patch.object(store_module, "_SCRATCH_BYTES", 32 << 10):
            for block in range(blocks):
                windows = np.repeat(
                    np.arange(block * self.BLOCK, (block + 1) * self.BLOCK),
                    self.SERVERS,
                )
                for counter in ("rps", "cpu"):
                    store.record_columns(
                        "B", "DC1", counter, windows, servers,
                        rng.standard_normal(windows.size),
                    )
                store.evict_windows((block + 1) * self.BLOCK)
                if block % 7 == 6 or block == blocks - 1:
                    for counter in ("rps", "cpu"):
                        store.gather_columns("B", counter, None, 0, 1)
            floors = {
                key: min([c.floor for c in table._cold[:len(table._cold) - table._open]]
                         or [math.inf])
                for key, table in store._tables.items()
            }
        return store, floors

    @pytest.mark.parametrize("blocks", [40, 160])
    def test_records_and_bytes_written_are_linear(self, blocks):
        store, floors = self._evicted(blocks)
        evicted = store.sample_count() - store.hot_sample_count()
        assert evicted == 2 * blocks * self.BLOCK * self.SERVERS
        row_bytes = 0
        for key, table in store._tables.items():
            rows = sum(chunk.rows for chunk in table._cold)
            assert len(table._cold) <= math.ceil(rows / floors[key]) + table._open
            assert table._open < floors[key] / (self.BLOCK * self.SERVERS)
            row_bytes = max(
                [row_bytes] + [sum(d.itemsize for d in c.dtypes) for c in table._cold]
            )
        appended = store._spill.archive.append([])
        assert evicted * 10 <= appended <= 2 * evicted * row_bytes


def _blocks(draw, rng, mode, start, watermark):
    """One ingest batch of ``mode`` for windows from ``start`` (``late``:
    below ``watermark``) over up to five servers."""
    width = draw(st.integers(1, 3))
    first = max(watermark - 4, 0) if mode == "late" else start
    windows, servers = [], []
    for window in range(first, first + width):
        present = np.flatnonzero(rng.random(5) < 0.8)
        if mode == "shuffled":
            present = rng.permutation(present)
        if mode == "duplicates" and present.size:
            present = np.sort(np.concatenate([present, present[:2]]))
        windows += [window] * present.size
        servers += present.tolist()
    return (np.array(windows, np.int64), np.array(servers, np.int64),
            rng.standard_normal(len(windows)))


def _snapshot(store):
    return store._evicted_before, [
        (table._cold[:], table._hot[:], table._open, table._tail,
         table.n_rows, table.hot_rows)
        for table in store._tables.values()
    ]


def _assert_same_snapshot(before, after):
    assert before[0] == after[0]
    for old, new in zip(before[1], after[1], strict=True):
        for old_list, new_list in zip(old[:2], new[:2]):
            assert len(old_list) == len(new_list)
            assert all(a is b for a, b in zip(old_list, new_list))
        assert old[2] == new[2] and old[3] is new[3] and old[4:] == new[4:]


def _failing_pwrite(fail_at):
    """An ``os.pwrite`` that writes at most 97 bytes per call and fails
    its ``fail_at``-th call as a full disk would."""
    pwrite, calls = store_module.os.pwrite, []

    def failing(fd, data, offset):
        calls.append(offset)
        if len(calls) == fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return pwrite(fd, memoryview(data)[:97], offset)

    return mock.patch.object(store_module.os, "pwrite", failing)


def _assert_records_keep_their_order(store):
    """A record is server-major exactly when it is closed and its keys
    are in (window, server) order; every other one is stored as its rows
    came."""
    log = store._spill
    for table in store._tables.values():
        for at, chunk in enumerate(table._cold):
            windows, servers, values = log.load(chunk).columns()
            closed = at < len(table._cold) - table._open
            assert not closed or chunk.rows >= chunk.floor
            major = closed and store_module._canonical(windows, servers)
            assert (chunk.directory is not None) == major
            value_dtype, window_dtype, server_dtype = chunk.dtypes
            data = log.archive.read(
                chunk.offset,
                chunk.rows * sum(d.itemsize for d in chunk.dtypes),
            )
            stored_values = np.frombuffer(data, value_dtype, chunk.rows)
            stored_windows = np.frombuffer(
                data, window_dtype, chunk.rows, 8 * chunk.rows
            ).astype(np.int64) + chunk.lo
            order = np.argsort(servers, kind="stable") if major else slice(None)
            assert _bits(stored_values) == _bits(values[order])
            assert _bits(stored_windows) == _bits(windows[order])



class TestCompactionKeepsAppendOrder:
    """Evictions that cross compaction boundaries, over rows in
    canonical order, shuffled within a window, with duplicate cells and
    late rows below the watermark: every read answers what the
    never-evicted twin answers (fed the rows in the order eviction
    defines: evicted rows as evicted, then the rest as appended), a
    compaction that fails leaves the store exactly as it was, and only
    closed records whose keys are in order are stored by server."""

    MODES = st.sampled_from(["canonical", "shuffled", "duplicates", "late"])

    @given(data=st.data(), seed=st.integers(0, 1 << 16))
    @settings(max_examples=30, deadline=None)
    def test_reads_match_the_twin(self, data, seed):
        with mock.patch.object(store_module, "_SCRATCH_BYTES", 512):
            self._run(data.draw, np.random.default_rng(seed))

    def _run(self, draw, rng):
        store = MetricStore()
        store.intern_servers([f"s{i}" for i in range(5)])
        cold = {"DC1": [], "DC2": []}
        hot = {"DC1": [], "DC2": []}
        start = watermark = 0
        for _step in range(draw(st.integers(1, 24))):
            columns = _blocks(draw, rng, draw(self.MODES), start, watermark)
            if columns[0].size == 0:
                continue
            start = max(start, int(columns[0].max()) + 1)
            for dc, scale in (("DC1", 1.0), ("DC2", 3.0)):
                part = columns[:2] + (columns[2] * scale,)
                store.record_columns("B", dc, "rps", *part)
                hot[dc].append(part)
            if draw(st.booleans()):
                self._read(store, draw(st.integers(0, 20)))
            if not draw(st.booleans()):
                continue
            before = start - draw(st.integers(0, 2))
            fail_at = draw(st.integers(0, 20))
            if fail_at and before > watermark:
                snapshot = _snapshot(store)
                try:
                    with _failing_pwrite(fail_at):
                        store.evict_windows(before)
                except OSError:
                    _assert_same_snapshot(snapshot, _snapshot(store))
            store.evict_windows(before)  # a no-op if the first try got through
            if before > watermark:
                watermark = before
                for dc in hot:
                    kept = []
                    for w, s, v in hot[dc]:
                        moved = w < before
                        if moved.any():
                            cold[dc].append((w[moved], s[moved], v[moved]))
                        if (~moved).any():
                            kept.append((w[~moved], s[~moved], v[~moved]))
                    hot[dc] = kept
        twin = MetricStore()
        twin.intern_servers([f"s{i}" for i in range(5)])
        for dc in ("DC1", "DC2"):
            for part in cold[dc] + hot[dc]:
                twin.record_columns("B", dc, "rps", *part)
        self._assert_same(store, twin, watermark)

    @staticmethod
    def _read(store, fail_at):
        """A read below the watermark, which compacts what it can; with
        ``fail_at``, one whose ``fail_at``-th write fails, leaving the
        store exactly as it was."""
        if fail_at:
            snapshot = _snapshot(store)
            try:
                with _failing_pwrite(fail_at):
                    store.gather_columns("B", "rps", "DC1", 0, 1)
            except OSError:
                _assert_same_snapshot(snapshot, _snapshot(store))
        store.gather_columns("B", "rps", "DC1", 0, 1)

    @staticmethod
    def _assert_same(store, twin, watermark):
        assert store.evicted_before == watermark
        rows = chunk_list_rows(store)
        for key, *columns in twin.iter_tables():
            assert all(_bits(a) == _bits(b) for a, b in zip(rows[key], columns))
        if store._spill is not None:
            _assert_records_keep_their_order(store)
        top = twin.max_window + 1
        for name in ("pools", "datacenters", "max_window"):
            assert getattr(store, name) == getattr(twin, name)
        for name, args in (
            ("counters_for_pool", ("B",)),
            ("servers_in_pool", ("B",)),
            ("datacenters_for_pool", ("B",)),
            ("datacenters_for_pool_counter", ("B", "rps")),
            ("server_name", (3,)),
            ("sample_count", ()),
        ):
            assert getattr(store, name)(*args) == getattr(twin, name)(*args)
        for got, want in zip(store.iter_tables(), twin.iter_tables(), strict=True):
            assert got[0] == want[0]
            assert all(_bits(a) == _bits(b) for a, b in zip(got[1:], want[1:]))
        for start, stop in ((None, None), (watermark - 2, top), (1, watermark + 1)):
            for dc in (None, "DC1", "DC2"):
                args = ("B", "rps", dc, start, stop)
                assert all(_bits(a) == _bits(b) for a, b in zip(
                    store.gather_columns(*args), twin.gather_columns(*args)
                ))
                for reducer in REDUCERS:
                    a = store.pool_window_aggregate(*args, reducer=reducer)
                    b = twin.pool_window_aggregate(*args, reducer=reducer)
                    assert _bits(a.windows) == _bits(b.windows)
                    assert _bits(a.values) == _bits(b.values)
                a, b = store.per_server_values(*args), twin.per_server_values(*args)
                assert list(a) == list(b)
                assert all(_bits(a[name]) == _bits(b[name]) for name in b)
                a, b = store.pool_matrix(*args), twin.pool_matrix(*args)
                assert _bits(a[0]) == _bits(b[0]) and a[1] == b[1]
                assert _bits(a[2]) == _bits(b[2])
            for server in [f"s{i}" for i in range(5)]:
                a = store.server_series("B", "rps", server, start, stop)
                b = twin.server_series("B", "rps", server, start, stop)
                assert _bits(a.windows) == _bits(b.windows)
                assert _bits(a.values) == _bits(b.values)
        with tempfile.TemporaryDirectory() as scratch:
            export_store(store, Path(scratch) / "a.csv")
            export_store(twin, Path(scratch) / "b.csv")
            assert (Path(scratch) / "a.csv").read_bytes() == (
                Path(scratch) / "b.csv"
            ).read_bytes()

    def test_a_failed_compaction_leaves_the_store_as_it_was(self):
        """Evictions leave their records open; the first read below the
        watermark coalesces them.  When its one write fails, the read
        fails and the store is exactly as before it; the retry closes
        the records."""
        store, twin = MetricStore(), MetricStore()
        for target in (store, twin):
            target.intern_servers([f"s{i}" for i in range(8)])
        servers = np.tile(np.arange(8), 4)
        with mock.patch.object(store_module, "_SCRATCH_BYTES", 1024):
            for block in range(12):
                windows = np.repeat(np.arange(4 * block, 4 * block + 4), 8)
                values = np.arange(32.0) + block
                for target in (store, twin):
                    target.record_columns("B", "DC1", "rps", windows, servers, values)
                store.evict_windows(4 * block + 4)
            table = store._tables["B", "DC1", "rps"]
            assert table._open == len(table._cold) == 12
            assert table._tail.rows >= table._tail.floor
            snapshot, calls = _snapshot(store), []

            def full_on_compaction(log, buffers):
                calls.append(len(calls))
                raise OSError(errno.ENOSPC, "No space left on device")

            with mock.patch.object(SpillArchive, "append", full_on_compaction):
                with pytest.raises(OSError, match="No space left"):
                    store.server_series("B", "rps", "s3")
            assert calls == [0]
            _assert_same_snapshot(snapshot, _snapshot(store))
            self._assert_same(store, twin, store.evicted_before)
            # Four closed records of three blocks (96 rows: a 1 kB floor).
            assert table._open == 0 and len(table._cold) == 4
            assert all(chunk.directory is not None for chunk in table._cold)
