"""In-memory columnar metric store.

The paper's pipeline ingests ~3 GB/s of counters into a trace store and
answers pool/datacenter/time-scoped aggregate queries over 90 days of
history.  This module provides the equivalent for the simulator, built
around an end-to-end columnar data flow:

* **Ingest** is batched: the simulator emits one NumPy array per
  (pool, datacenter, counter, window) and hands it to
  :meth:`MetricStore.record_batch`, which appends whole arrays to the
  matching table.  Server ids are interned once into integer indices
  (:meth:`MetricStore.intern_servers`), so the hot path never hashes
  strings per sample.  Every ingest verb reduces to one
  :meth:`MetricStore.record_columns` call, which checks the
  ``(int64, int64, float64)`` equal-length column layout once, where
  rows enter.
* **Storage** is one table per (pool, datacenter, counter): one
  append-ordered list of chunks — the (window, server index, value)
  columns of one ingest batch, tagged with the window span they cover.
  A chunk is hot (holds its columns) or cold (holds the offset rolling
  retention spilled them to: the values bit for bit, the windows and
  server indices as offsets in the narrowest unsigned dtype their span
  allows — 10 B per row for a 64-window block of up to 256 servers).
  One range read selects chunks by span and yields their rows in
  batches: hot chunks as they are, runs of cold ones read with one
  ``preadv`` per chunk into one scratch buffer and handled in one
  vectorised pass per batch, so a read that keeps few rows — one
  server's series — never holds the table.
* **Queries** (:meth:`pool_window_aggregate`, :meth:`per_server_values`,
  :meth:`pool_matrix`) group with ``np.bincount`` / stable argsort over
  the gathered columns instead of per-sample Python loops, and the
  common pool aggregates are memoized in a cache that is invalidated
  whenever new samples arrive.

Horizontal scaling lives one layer up:
:class:`~repro.telemetry.sharding.ShardedMetricStore` hash-partitions
rows across several ``MetricStore`` shards that share one global
:class:`ServerInterner` id space, and merges query results shard-wise
so callers see the exact same answers as a single store.  Shards can
be held in-process or served by a
:class:`~repro.telemetry.workers.ShardServer`, in which case each
session runs a plain ``MetricStore`` exactly like this one and replays
interner names from per-message deltas.
"""

from __future__ import annotations

import math
import os
import tempfile
import threading
from collections import defaultdict
from itertools import chain
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.telemetry.counters import CounterSample
from repro.telemetry.series import TimeSeries


class ServerInterner:
    """Bidirectional server id <-> integer index mapping.

    Interning assigns indices in first-seen order, so the hot ingest
    path never hashes strings per sample.  A single interner may be
    shared by several :class:`MetricStore` shards (see
    :class:`~repro.telemetry.sharding.ShardedMetricStore`), which is
    what keeps interned indices — and therefore query ordering —
    globally consistent across shards.
    """

    __slots__ = ("names", "index")

    def __init__(self) -> None:
        self.names: List[str] = []
        self.index: Dict[str, int] = {}

    def intern(self, server_id: str) -> int:
        """Map a server id to its stable integer index."""
        index = self.index.get(server_id)
        if index is None:
            index = len(self.names)
            self.index[server_id] = index
            self.names.append(server_id)
        return index

    def intern_many(self, server_ids: Sequence[str]) -> np.ndarray:
        """Intern many server ids at once; returns the index array."""
        return np.fromiter(
            (self.intern(s) for s in server_ids),
            dtype=np.int64,
            count=len(server_ids),
        )

    def name(self, index: int) -> str:
        return self.names[index]

    def __len__(self) -> int:
        return len(self.names)


#: The per-window reducers :func:`window_aggregate_arrays` implements —
#: the one spelling every aggregate entry point and the CLI validate
#: against.
REDUCERS = ("mean", "sum", "max", "count")


def window_aggregate_arrays(
    windows: np.ndarray,
    values: np.ndarray,
    reducer: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Group ``values`` by window with ``np.bincount``.

    The aggregation kernel behind
    :meth:`MetricStore.pool_window_aggregate`, shared with the sharded
    facade so both paths accumulate in exactly the same order (bit-for-
    bit identical floating-point sums).  Returns ``(out_windows,
    out_values)`` for the windows that have at least one sample.
    """
    base = int(windows.min())
    shifted = windows - base
    length = int(shifted.max()) + 1
    counts = np.bincount(shifted, minlength=length)
    present = counts > 0
    out_windows = np.flatnonzero(present) + base
    if reducer == "count":
        out_values = counts[present].astype(float)
    elif reducer == "max":
        maxima = np.full(length, -np.inf)
        np.maximum.at(maxima, shifted, values)
        out_values = maxima[present]
    else:
        sums = np.bincount(shifted, weights=values, minlength=length)
        if reducer == "sum":
            out_values = sums[present]
        else:  # mean
            out_values = sums[present] / counts[present]
    return out_windows, out_values


def _axis(
    column: np.ndarray, base: int, length: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(column, return_inverse=True)`` for integers known to
    lie in ``[base, base + length)``, by presence instead of a sort.

    O(rows + length), the way :func:`window_aggregate_arrays` finds its
    windows; a span much wider than the column (sparse windows) is not
    worth allocating and goes through the sort.
    """
    if length > 4 * column.size:
        return np.unique(column, return_inverse=True)
    shifted = column - base
    present = np.zeros(length, dtype=bool)
    present[shifted] = True
    return np.flatnonzero(present) + base, (np.cumsum(present) - 1)[shifted]


class SpillArchive:
    """Append-only positional byte log in one anonymous temp file.

    What this process wrote and may want back but need not keep in
    memory: the cold chunks of rolling retention
    (:meth:`MetricStore.evict_windows`) and the spilled batches of a
    :class:`~repro.telemetry.sharding.ShardJournal`.  The log knows
    bytes and nothing else: :meth:`append` writes buffers back to back
    at the end and returns where they start, :meth:`read_into` scatters
    a byte range back into the caller's buffers (:meth:`read` into a
    new one), and what the bytes mean (and how many there are) is the
    caller's to remember.  Both are positional (``pwrite`` /
    ``preadv``), so no reader can move where the next record lands, and
    the end only advances once a record is whole — what a failed
    append wrote is overwritten by the next.  The file has no name and
    is never mapped (mapped pages would count against the memory
    retention promises to bound); the OS reclaims it when the owner
    goes away.
    """

    def __init__(self) -> None:
        self._file = tempfile.TemporaryFile(prefix="metric-spill-", buffering=0)
        self._end = 0

    def append(self, buffers: Iterable) -> int:
        """Write ``buffers`` back to back at the end; returns the offset
        of the first byte."""
        fd = self._file.fileno()
        position = self._end
        for buffer in buffers:
            view = memoryview(buffer).cast("B")
            while view:  # a write may be short
                written = os.pwrite(fd, view, position)
                position += written
                view = view[written:]
        offset, self._end = self._end, position
        return offset

    def read_into(self, offset: int, buffers: Sequence, nbytes: int) -> None:
        """Fill ``buffers`` (``nbytes`` in all) back to back with the
        bytes :meth:`append` put at ``offset`` — one ``preadv``, so they
        land where the caller wants them with no copy in between.  A
        short read is an error, never a partial fill."""
        got = os.preadv(self._file.fileno(), buffers, offset)
        if got != nbytes:
            raise OSError(
                f"spill log holds {got} of the {nbytes} bytes "
                f"expected at offset {offset}"
            )

    def read(self, offset: int, nbytes: int) -> bytearray:
        """The ``nbytes`` bytes :meth:`append` put at ``offset``."""
        data = bytearray(nbytes)
        self.read_into(offset, [data], nbytes)
        return data

    def close(self) -> None:
        try:
            self._file.close()
        except Exception:  # pragma: no cover - best effort
            pass


class _TrackedAggregate:
    """One incrementally maintained per-window aggregate series.

    The streaming replacement for cache-invalidate-recompute: instead
    of re-gathering the whole table on every query after every ingest,
    :meth:`MetricStore.seal_through` appends each newly *sealed* block
    of windows' aggregate values here exactly once.  Per-window bins of
    :func:`window_aggregate_arrays` only ever mix rows of their own
    window, so the per-block partials are bit-identical to what one
    full-horizon recompute would produce — the incremental-maintenance
    invariant ``tests/test_streaming.py`` asserts.
    """

    __slots__ = ("reducer", "sealed_through", "_window_parts", "_value_parts")

    def __init__(self, reducer: str) -> None:
        self.reducer = reducer
        #: Largest window whose aggregate is final; -1 before any seal.
        self.sealed_through = -1
        self._window_parts: List[np.ndarray] = [np.array([], dtype=np.int64)]
        self._value_parts: List[np.ndarray] = [np.array([], dtype=float)]

    def extend(
        self, windows: np.ndarray, values: np.ndarray, through: int
    ) -> None:
        """Append one sealed block's aggregate rows (ascending windows)."""
        if windows.size:
            self._window_parts.append(windows)
            self._value_parts.append(values)
        self.sealed_through = through

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The full (windows, values) series, read-only."""
        if len(self._window_parts) > 1:
            # Re-chunk so repeated reads stay O(1).
            self._window_parts = [np.concatenate(self._window_parts)]
            self._value_parts = [np.concatenate(self._value_parts)]
        windows, values = self._window_parts[0], self._value_parts[0]
        windows.setflags(write=False)
        values.setflags(write=False)
        return windows, values

    def series_slice(self, lo: int, hi: int) -> TimeSeries:
        """The tracked series restricted to windows in [lo, hi)."""
        windows, values = self.columns()
        i = int(np.searchsorted(windows, lo, side="left"))
        j = int(np.searchsorted(windows, hi, side="left"))
        return TimeSeries.from_sorted(windows[i:j], values[i:j])


#: One (windows, server indices, values) triple of aligned columns.
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: The one layout rows enter a table in — (windows, server indices,
#: values) — which is also the kind-1 wire frame's column layout.  A
#: cold chunk's record narrows the two index columns (:class:`_ColdLog`).
_COLUMN_DTYPES = (np.dtype(np.int64), np.dtype(np.int64), np.dtype(np.float64))

#: A cold record's offset column dtypes, by itemsize.
_OFFSET_DTYPES = {
    dtype.itemsize: dtype
    for dtype in map(np.dtype, (np.uint8, np.uint16, np.uint32, np.uint64))
}

#: Bytes of the one buffer a store reads cold chunks into, a batch at a time.
_SCRATCH_BYTES = 512 << 10


def _offset_size(span: int) -> int:
    """Itemsize of the narrowest unsigned dtype that holds ``span``."""
    return next(size for size in (1, 2, 4, 8) if span < 1 << 8 * size)


def _offsets(column: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``column`` (every value in ``[lo, hi]``) as offsets from ``lo`` in
    the narrowest unsigned dtype that holds ``hi - lo``.  Computed
    modulo the dtype's range, which loses nothing because every offset
    fits it — so any ``int64`` span, up to 2**64 - 1, is exact."""
    size = _offset_size(hi - lo)
    return np.subtract(
        column, np.int64(lo), dtype=_OFFSET_DTYPES[size], casting="unsafe"
    )


def _add_origin(offsets: np.ndarray, origin: int, out=None) -> np.ndarray:
    """``origin + offsets`` as ``int64``, the inverse of :func:`_offsets`
    (wrapping, so a ``uint64`` offset lands back on its ``int64``)."""
    return np.add(
        offsets, np.int64(origin), out=out, dtype=np.int64, casting="unsafe"
    )


def _concat_columns(parts: List[Columns]) -> Columns:
    """One (windows, server indices, values) triple from aligned parts."""
    if not parts:
        empty = np.array([], dtype=np.int64)
        return empty, empty, np.array([], dtype=float)
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(column) for column in zip(*parts))


class _Chunk(NamedTuple):
    """Rows of one table that were appended (or fused) together."""

    lo: int  #: smallest window among the rows
    hi: int  #: largest window among the rows
    rows: int
    columns: Optional[Columns]  #: hot: the rows themselves
    offset: Optional[int]  #: cold: where its record starts in the spill log
    #: cold: the record's layout (see :class:`_ColdLog`) — the itemsizes
    #: of its window and server offset columns, and its smallest server
    #: index, which the server offsets count from.
    window_size: int = 0
    server_size: int = 0
    server_base: int = 0

    @classmethod
    def of(cls, columns: Columns) -> "_Chunk":
        windows = columns[0]
        return cls(
            int(windows.min()), int(windows.max()), windows.size, columns, None
        )

    @property
    def layout(self) -> Tuple[int, int, int]:
        """What cold chunks must share to be read as one batch."""
        return self.window_size, self.server_size, self.server_base


class _Batch(NamedTuple):
    """Rows a range read yields at once, in append order.

    Row ``i`` is window ``origins[k] + windows[i]``, server index
    ``base + servers[i]`` and value ``values[i]``, where ``k`` is the
    chunk whose rows end (exclusive) at the first ``ends[k] > i``.  A
    hot batch (``origins`` None) is wide columns as stored; a cold one
    views the store's scratch in its record's narrow dtypes and is
    valid only until the read moves on, so consumers keep copies
    (:meth:`select`, :meth:`widen_into`), never the batch.
    """

    windows: np.ndarray
    servers: np.ndarray
    values: np.ndarray
    base: int = 0
    origins: Optional[np.ndarray] = None
    ends: Optional[np.ndarray] = None

    def _windows_into(self, out: np.ndarray, shift: int = 0) -> None:
        if self.origins is None:
            np.subtract(self.windows, shift, out=out)
            return
        start = 0
        for origin, end in zip(self.origins.tolist(), self.ends.tolist()):
            _add_origin(self.windows[start:end], origin - shift, out[start:end])
            start = end

    def window_column(self, shift: int = 0) -> np.ndarray:
        """Every row's window minus ``shift``, as a new ``int64`` array."""
        out = np.empty(self.values.size, np.int64)
        self._windows_into(out, shift)
        return out

    def widen_into(self, out: Columns, at: int) -> int:
        """Write the rows as ``int64, int64, float64`` into ``out`` from
        row ``at``; returns the row after the last."""
        end = at + self.values.size
        windows, servers, values = (column[at:end] for column in out)
        self._windows_into(windows)
        _add_origin(self.servers, self.base, servers)
        values[...] = self.values
        return end

    def columns(self) -> Columns:
        """The rows as wide columns: a hot batch's own, else new ones."""
        if self.origins is None:
            return self.windows, self.servers, self.values
        out = tuple(np.empty(self.values.size, dtype) for dtype in _COLUMN_DTYPES)
        self.widen_into(out, 0)
        return out

    def within(self, lo: float, hi: float) -> "_Batch":
        """The rows with ``lo <= window < hi``, as a new hot batch."""
        columns = self.columns()
        mask = (columns[0] >= lo) & (columns[0] < hi)
        return _Batch(*(column[mask] for column in columns))

    def select(self, server: int) -> Tuple[np.ndarray, np.ndarray]:
        """(windows, values) of one server index's rows: one compare on
        the stored server column, and only the rows kept are widened."""
        rows = np.flatnonzero(self.servers == server - self.base)
        windows = self.windows[rows]
        if self.origins is not None:
            chunk = np.searchsorted(self.ends, rows, side="right")
            windows = _add_origin(windows, self.origins[chunk])
        return windows, self.values[rows]

    def server_column(self, lookup: np.ndarray) -> np.ndarray:
        """``lookup[server index]`` for every row."""
        return lookup[self.base:][self.servers]


class _ColdLog:
    """Where a store's cold chunks live, and the one way back.

    A record is one chunk's values (``float64``, bit for bit), then its
    windows as offsets from the chunk's ``lo``, then its server indices
    as offsets from their smallest, back to back in native byte order
    with no header.  Each offset column takes the narrowest unsigned
    dtype its span fits (:func:`_offsets`) and the chunk remembers the
    two itemsizes and the smallest server index: 10 B per row for a 64-window
    block of up to 256 servers, 24 at most.  Records go to one
    :class:`SpillArchive` and come back a batch at a time:
    :meth:`batches` reads a run of whole chunks that share a layout
    with one ``preadv`` per chunk, scattering the chunk's three columns
    straight into a scratch buffer allocated once.
    """

    def __init__(self) -> None:
        self.archive = SpillArchive()
        self._scratch = np.empty(_SCRATCH_BYTES, np.uint8)

    def write(self, chunk: _Chunk) -> _Chunk:
        """Append a hot chunk's record; returns the chunk made cold."""
        windows, servers, values = chunk.columns
        base = int(servers.min())
        windows = _offsets(windows, chunk.lo, chunk.hi)
        servers = _offsets(servers, base, int(servers.max()))
        return chunk._replace(
            columns=None,
            offset=self.archive.append((values, windows, servers)),
            window_size=windows.itemsize,
            server_size=servers.itemsize,
            server_base=base,
        )

    @staticmethod
    def _capacity(chunk: _Chunk) -> int:
        """Rows of ``chunk``'s layout the scratch holds (a multiple of 8,
        so every column region starts aligned)."""
        return _SCRATCH_BYTES // (8 + chunk.window_size + chunk.server_size) & ~7

    def batches(
        self, chunks: List[_Chunk], lo: float, hi: float
    ) -> Iterator[_Batch]:
        """The rows with ``lo <= window < hi`` of the cold ``chunks``, in
        order: each run of whole chunks with one layout that fits the
        scratch is one batch; a chunk the range covers only partly is a
        batch of its own, widened and masked."""
        run: List[_Chunk] = []
        rows = capacity = 0
        for chunk in chunks:
            whole = lo <= chunk.lo and chunk.hi < hi
            if run and (
                not whole
                or chunk.layout != layout
                or rows + chunk.rows > capacity
            ):
                yield self._load(run, rows)
                run, rows = [], 0
            if not run:
                layout, capacity = chunk.layout, self._capacity(chunk)
            run.append(chunk)
            rows += chunk.rows
            if not whole:
                yield self._load(run, rows).within(lo, hi)
                run, rows = [], 0
        if run:
            yield self._load(run, rows)

    def _load(self, run: List[_Chunk], rows: int) -> _Batch:
        """Read ``run`` (``rows`` rows, one layout) into the scratch — or,
        for one chunk bigger than it, a buffer of its own."""
        first = run[0]
        sizes = (8, first.window_size, first.server_size)
        capacity = self._capacity(first)
        buffer = self._scratch
        if rows > capacity:
            capacity = -(-rows // 8) * 8
            buffer = np.empty(capacity * sum(sizes), np.uint8)
        regions, start = [], 0
        for size in sizes:
            regions.append(memoryview(buffer[start:start + capacity * size]))
            start += capacity * size
        values, windows, servers = regions
        _, window_size, server_size = sizes
        row_bytes = sum(sizes)
        ends, at = [], 0
        for chunk in run:
            end = at + chunk.rows
            self.archive.read_into(
                chunk.offset,
                (
                    values[8 * at:8 * end],
                    windows[window_size * at:window_size * end],
                    servers[server_size * at:server_size * end],
                ),
                row_bytes * chunk.rows,
            )
            ends.append(end)
            at = end
        return _Batch(
            np.frombuffer(windows, _OFFSET_DTYPES[window_size], at),
            np.frombuffer(servers, _OFFSET_DTYPES[server_size], at),
            np.frombuffer(values, np.float64, at),
            first.server_base,
            np.array([chunk.lo for chunk in run], np.int64),
            np.array(ends),
        )


class _Table:
    """Rows of one table: a list of cold chunks, then a list of hot ones.

    The invariant every read relies on:

    1. ``_cold ++ _hot`` is append order — the order rows arrived in,
       given that they arrive in non-decreasing block order (otherwise:
       rows in the order they were evicted, then the rest as appended).
    2. Each chunk's ``(lo, hi)`` is the min/max of its window column
       and ``rows`` its length; a cold chunk holds an offset and no
       columns, a hot chunk columns and no offset.
    3. ``n_rows`` is the row sum over all chunks, ``hot_rows`` over
       ``_hot``.

    Each mutator preserves it: :meth:`append_batch` adds one hot chunk
    at the end with the span its caller measured; :meth:`spill_below`
    changes nothing and :meth:`settle` then moves the chunks it wrote
    to the end of ``_cold`` in hot order, both halves of a split one
    measured, in one step that cannot fail; the fuse in :meth:`read`
    replaces all hot chunks by their concatenation in list order under
    their joint span.
    """

    __slots__ = ("_cold", "_hot", "n_rows", "hot_rows")

    def __init__(self) -> None:
        self._cold: List[_Chunk] = []
        self._hot: List[_Chunk] = []
        self.n_rows: int = 0
        #: Rows still held in memory (total minus spilled).
        self.hot_rows: int = 0

    def append_batch(self, lo: int, hi: int, columns: Columns) -> None:
        """Append rows whose windows span exactly ``[lo, hi]``."""
        rows = columns[0].size
        self._hot.append(_Chunk(lo, hi, rows, columns, None))
        self.n_rows += rows
        self.hot_rows += rows

    def spill_below(
        self, before: int, log: _ColdLog
    ) -> Tuple[List[_Chunk], List[_Chunk]]:
        """Write every hot row with ``window < before`` to ``log``.

        Whole chunks go as they are, one record each; only a chunk that
        straddles the cutoff is split.  The table is unchanged: the
        result is the ``(moved, kept)`` chunk lists for :meth:`settle`,
        so a write that fails leaves no row in two places.
        """
        moved: List[_Chunk] = []
        kept: List[_Chunk] = []
        for chunk in self._hot:
            if chunk.lo >= before:
                kept.append(chunk)
                continue
            if chunk.hi >= before:
                mask = chunk.columns[0] < before
                kept.append(_Chunk.of(tuple(c[~mask] for c in chunk.columns)))
                chunk = _Chunk.of(tuple(c[mask] for c in chunk.columns))
            moved.append(log.write(chunk))
        return moved, kept

    def settle(self, moved: List[_Chunk], kept: List[_Chunk]) -> int:
        """Make the chunks :meth:`spill_below` wrote cold; returns rows moved."""
        rows = sum(chunk.rows for chunk in moved)
        self._cold += moved
        self._hot = kept
        self.hot_rows -= rows
        return rows

    def overlapping(self, lo: float, hi: float, cold: bool) -> List[_Chunk]:
        """The chunks whose span meets ``[lo, hi)`` — the cold ones only
        if ``cold`` (the caller knows whether the range dips below them)
        — cold then hot, in list order."""
        return [
            chunk
            for chunk in chain(self._cold if cold else (), self._hot)
            if chunk.hi >= lo and chunk.lo < hi
        ]

    def read(
        self,
        chunks: List[_Chunk],
        lo: float,
        hi: float,
        log: Optional[_ColdLog],
    ) -> Iterator[_Batch]:
        """The rows with ``lo <= window < hi`` of ``chunks`` (what
        :meth:`overlapping` picked), as batches in append order.

        Cold chunks come back through ``log`` a batch at a time (see
        :meth:`_ColdLog.batches`), each read before the next is loaded —
        a consumer that keeps a selection of each holds one batch, not
        the table.  Hot chunks are yielded as they are, a partial
        overlap masked.  A read that takes every hot chunk whole leaves
        them fused, so full reads concatenate once.
        """
        cold = sum(chunk.columns is None for chunk in chunks)
        if cold:
            yield from log.batches(chunks[:cold], lo, hi)
        hot: List[_Batch] = []
        whole_hot = 0
        for chunk in chunks[cold:]:
            batch = _Batch(*chunk.columns)
            if lo <= chunk.lo and chunk.hi < hi:
                whole_hot += 1
            else:
                batch = batch.within(lo, hi)
            hot.append(batch)
        if whole_hot == len(self._hot) > 1:
            fused = _concat_columns([chunk.columns for chunk in self._hot])
            self._hot = [_Chunk(
                min(chunk.lo for chunk in self._hot),
                max(chunk.hi for chunk in self._hot),
                self.hot_rows, fused, None,
            )]
            hot = [_Batch(*fused)]
        yield from hot


#: Key of one stored table: (pool_id, datacenter_id, counter).
TableKey = Tuple[str, str, str]


def _check_columns(*columns: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Check ``(windows, server_indices, values)`` once, where rows enter.

    Every public ``record_columns`` (store, sharded facade, shard
    client) runs this first, so nothing downstream — tables, the
    partitioner, the wire encoder — re-discovers a malformed batch.
    The invariant: three 1-D columns of one length, contiguous
    ``(int64, int64, float64)``.  Columns already in layout come back
    as the same objects (O(1); the facade's partition memo keys on
    identity); lossless casts (``int32`` indices, a list) are
    converted; anything else is an eager ``ValueError``.
    """
    if not all(
        type(column) is np.ndarray
        and column.dtype == dtype
        and column.flags.c_contiguous
        for column, dtype in zip(columns, _COLUMN_DTYPES)
    ):
        columns = tuple(np.asarray(column) for column in columns)
        if all(
            np.can_cast(column.dtype, dtype, casting="safe")
            for column, dtype in zip(columns, _COLUMN_DTYPES)
        ):
            columns = tuple(
                np.asarray(column, dtype=dtype, order="C")
                for column, dtype in zip(columns, _COLUMN_DTYPES)
            )
    windows, server_indices, values = columns
    if not (
        windows.ndim == 1
        and windows.shape == server_indices.shape == values.shape
        and tuple(column.dtype for column in columns) == _COLUMN_DTYPES
    ):
        raise ValueError(
            "record_columns takes (windows, server_indices, values) as "
            "three 1-D columns of one length, castable without loss to "
            "(int64, int64, float64); got shapes "
            f"{tuple(column.shape for column in columns)} and dtypes "
            f"{tuple(str(column.dtype) for column in columns)}"
        )
    return columns


class _RecordVerbs:
    """Server interning and the convenience ingest verbs, each one
    ``record_columns`` call.

    Written once for :class:`MetricStore` and
    :class:`~repro.telemetry.sharding.ShardedMetricStore`, which supply
    ``_interner`` and ``record_columns``; what ``record_columns`` does
    with the rows (append, partition, journal, buffer for the wire) is
    the only thing that differs between them.
    """

    @property
    def interner(self) -> ServerInterner:
        """The server id <-> index mapping: a store's own (possibly
        shared with sibling shards), or the facade's authoritative id
        space, which remote shards replicate from name-delta messages
        (see :mod:`repro.telemetry.workers`)."""
        return self._interner

    def intern_server(self, server_id: str) -> int:
        """Map a server id to its stable integer index."""
        return self._interner.intern(server_id)

    def intern_servers(self, server_ids: Sequence[str]) -> np.ndarray:
        """Intern many server ids at once (the batch hot path setup).

        Returns the integer index array to pass to
        :meth:`record_columns`; callers cache it per pool.
        """
        return self._interner.intern_many(server_ids)

    def server_name(self, index: int) -> str:
        return self._interner.name(index)

    def record_batch(
        self,
        pool_id: str,
        datacenter_id: str,
        counter: str,
        window: int,
        server_ids: Sequence[str],
        values: np.ndarray,
    ) -> None:
        """Append one window of one counter for many servers at once.

        ``server_ids`` may be a sequence of id strings or an integer
        ndarray previously obtained from ``intern_servers``.
        ``values`` must be aligned with ``server_ids``.  Both arrays
        are copied, so callers may reuse scratch buffers across calls.
        """
        if isinstance(server_ids, np.ndarray) and server_ids.dtype.kind in "iu":
            indices = np.array(server_ids, dtype=np.int64)
        else:
            indices = self.intern_servers(server_ids)
        values = np.array(values, dtype=float)
        windows = np.full(indices.size, window, dtype=np.int64)
        self.record_columns(
            pool_id, datacenter_id, counter, windows, indices, values
        )

    def record_many(self, samples: Iterable[CounterSample]) -> None:
        """Append loose samples: one ``record_columns`` call per
        (pool, datacenter, counter), rows in input order."""
        grouped: Dict[TableKey, Tuple[List[int], List[int], List[float]]] = {}
        for sample in samples:
            key = (sample.pool_id, sample.datacenter_id, sample.counter)
            windows, indices, values = grouped.setdefault(key, ([], [], []))
            windows.append(sample.window_index)
            indices.append(self.intern_server(sample.server_id))
            values.append(sample.value)
        for key, (windows, indices, values) in grouped.items():
            self.record_columns(
                *key,
                np.asarray(windows, dtype=np.int64),
                np.asarray(indices, dtype=np.int64),
                np.asarray(values, dtype=float),
            )

    def record_fast(
        self,
        window: int,
        server_id: str,
        pool_id: str,
        datacenter_id: str,
        counter: str,
        value: float,
    ) -> None:
        """Append one sample: a one-row ``record_columns`` call.

        For tests and ad-hoc use; bulk callers build arrays and call
        ``record_columns`` (or ``record_batch``) themselves.
        """
        self.record_columns(
            pool_id,
            datacenter_id,
            counter,
            np.array([window], dtype=np.int64),
            np.array([self.intern_server(server_id)], dtype=np.int64),
            np.array([value], dtype=float),
        )

    def record(self, sample: CounterSample) -> None:
        """Append one :class:`CounterSample` (see :meth:`record_fast`)."""
        self.record_fast(
            sample.window_index,
            sample.server_id,
            sample.pool_id,
            sample.datacenter_id,
            sample.counter,
            sample.value,
        )


#: The store's read surface, declared once: name -> is it a property.
#: Every name is defined on :class:`MetricStore` and on
#: :class:`~repro.telemetry.sharding.ShardedMetricStore`, mutates
#: nothing, and is what a shard session or the live query surface
#: answers to a ``call`` — the remote-shard proxies and the query
#: surface are generated from this table (:func:`forward_reads`), and
#: the serve loop refuses any name outside it (plus the few extras the
#: served object declares).  ``sealed_through`` is deliberately absent:
#: the live surface answers it from its streamer, not from the store.
READ_SURFACE = {
    "pools": True,
    "datacenters": True,
    "max_window": True,
    "evicted_before": True,
    "counters_for_pool": False,
    "servers_in_pool": False,
    "datacenters_for_pool": False,
    "datacenters_for_pool_counter": False,
    "server_name": False,
    "sample_count": False,
    "hot_sample_count": False,
    "iter_tables": False,
    "gather_columns": False,
    "pool_window_aggregate": False,
    "per_server_values": False,
    "server_series": False,
    "pool_matrix": False,
    "all_values": False,
}


def _forwarder(name: str, via: str):
    def read(self, *args, **kwargs):
        return getattr(self, via)(name, *args, **kwargs)

    read.__name__ = name
    read.__doc__ = f"The store's ``{name}``, answered through ``{via}``."
    return read


def forward_reads(via: str):
    """Class decorator: give a class every :data:`READ_SURFACE` name.

    Each generated method (or property) forwards to
    ``getattr(self, via)(name, *args, **kwargs)`` — ``call`` for the
    remote-shard proxies, the lock-holding ``_read`` for the live
    query surface — so a stand-in for the store spells the surface
    zero times instead of once per name.
    """

    def decorate(cls):
        for name, is_property in READ_SURFACE.items():
            read = _forwarder(name, via)
            setattr(cls, name, property(read) if is_property else read)
        return cls

    return decorate


class _AggregateFront:
    """Tracked series and memo in front of one uncached aggregate.

    Written once for :class:`MetricStore` and
    :class:`~repro.telemetry.sharding.ShardedMetricStore`, which supply
    ``_tracked`` / ``_agg_cache`` / ``max_window`` and their own
    ``_compute_window_aggregate(pool_id, counter, datacenter_id, start,
    stop, reducer)``; how the rows of a window range are gathered and
    reduced (one store's tables, or a merge across shards) is the only
    thing that differs between them.
    """

    def track_aggregate(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        reducer: str = "mean",
    ) -> None:
        """Maintain ``pool_window_aggregate(...)`` incrementally.

        After registration, :meth:`seal_through` appends each newly
        sealed block's per-window aggregate to a persistent series, and
        :meth:`pool_window_aggregate` answers any query fully inside
        the sealed range by slicing that series — no re-gather, no
        spill reads, no shard round-trips, however long the run.
        Registering the same aggregate twice is a no-op.
        """
        if reducer not in REDUCERS:
            raise ValueError(f"unknown reducer {reducer!r}")
        key = (pool_id, counter, datacenter_id, reducer)
        if key not in self._tracked:
            self._tracked[key] = _TrackedAggregate(reducer)

    @property
    def sealed_through(self) -> int:
        """Largest window every tracked aggregate is final through; -1
        with no tracked aggregates (or before the first seal)."""
        if not self._tracked:
            return -1
        return min(t.sealed_through for t in self._tracked.values())

    def seal_through(self, window: int) -> None:
        """Mark windows ``<= window`` complete; extend tracked series.

        Callers must have ingested *all* rows of the sealed windows
        first (the streaming driver seals at block boundaries).  Each
        tracked aggregate computes only the not-yet-sealed window range
        and appends its per-window values — bit-identical to a full
        recompute because aggregate bins never mix windows.
        """
        for (pool_id, counter, datacenter_id, reducer), tracker in self._tracked.items():
            if window <= tracker.sealed_through:
                continue
            series = self._compute_window_aggregate(
                pool_id, counter, datacenter_id,
                tracker.sealed_through + 1, window + 1, reducer,
            )
            tracker.extend(series.windows, series.values, window)

    def pool_window_aggregate(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
        reducer: str = "mean",
    ) -> TimeSeries:
        """Per-window aggregate across a pool's servers.

        ``reducer``: one of :data:`REDUCERS` (default ``"mean"``).  The
        planner's workhorse — e.g. average RPS/server or summed pool
        workload per window.  A tracked aggregate answers any range
        inside its sealed span from the maintained series; everything
        else is computed once and memoized until the next ingest.
        """
        if reducer not in REDUCERS:
            raise ValueError(f"unknown reducer {reducer!r}")
        tracked = self._tracked.get((pool_id, counter, datacenter_id, reducer))
        if tracked is not None:
            lo = start if start is not None else 0
            hi = stop if stop is not None else self.max_window + 1
            if hi - 1 <= tracked.sealed_through:
                return tracked.series_slice(lo, hi)
        cache_key = (pool_id, counter, datacenter_id, start, stop, reducer)
        series = self._agg_cache.get(cache_key)
        if series is None:
            series = self._compute_window_aggregate(
                pool_id, counter, datacenter_id, start, stop, reducer
            )
            # The memoized object is shared across callers; freeze its
            # arrays so an accidental in-place mutation raises instead
            # of silently poisoning the cache.
            series.windows.setflags(write=False)
            series.values.setflags(write=False)
            self._agg_cache[cache_key] = series
        return series


class _ServerMembership:
    """Which interned server indices appeared for one (pool, DC).

    Ingest-hot bookkeeping: the per-batch update is a vectorized
    boolean scatter (``seen[indices] = True``) instead of the previous
    ``set.update(np.unique(...).tolist())`` — on coalesced ingest
    frames the unique/set path cost roughly as much CPU as the column
    appends themselves.  Reads (:meth:`indices`) materialise the
    sorted index array; they only happen on the cold query path.
    """

    __slots__ = ("_seen",)

    def __init__(self) -> None:
        self._seen = np.zeros(0, dtype=bool)

    def _ensure(self, top: int) -> None:
        if top >= self._seen.size:
            grown = np.zeros(max(64, 2 * (top + 1)), dtype=bool)
            grown[: self._seen.size] = self._seen
            self._seen = grown

    def update_from(self, indices: np.ndarray) -> None:
        """Mark every index in ``indices`` (duplicates are free)."""
        if indices.size == 0:
            return
        self._ensure(int(indices.max()))
        self._seen[indices] = True

    def indices(self) -> np.ndarray:
        """All marked indices, ascending (``int64``)."""
        return np.flatnonzero(self._seen)


class MetricStore(_RecordVerbs, _AggregateFront):
    """Columnar store of counter samples with pool/DC-scoped queries.

    The single-node building block of the telemetry layer.  Ingest via
    :meth:`record_columns` (pre-columnised rows) or the convenience
    verbs over it (:meth:`record_batch`, :meth:`record_many`,
    :meth:`record_fast`, :meth:`record`); query via
    :meth:`pool_window_aggregate`, :meth:`per_server_values`,
    :meth:`pool_matrix` and :meth:`server_series`.  All query results
    are independent of ingest batching: the same rows in the same
    order store bit-identical tables whichever verb delivered them.

    ``interner`` optionally shares a :class:`ServerInterner` with other
    stores — the mechanism :class:`~repro.telemetry.sharding.\
ShardedMetricStore` uses to keep one global id space across shards.
    """

    def __init__(self, interner: Optional[ServerInterner] = None) -> None:
        self._tables: Dict[TableKey, _Table] = {}
        self._by_pool_counter: Dict[Tuple[str, str], List[TableKey]] = defaultdict(list)
        self._pools: Set[str] = set()
        self._datacenters: Set[str] = set()
        self._servers_by_pool_dc: Dict[Tuple[str, str], _ServerMembership] = (
            defaultdict(_ServerMembership)
        )
        self._interner = interner if interner is not None else ServerInterner()
        self._max_window: int = -1
        # One-entry span memo: the blocked engine hands one windows
        # array to every counter of a block, so its min/max are scanned
        # once.  The strong reference keeps the identity check sound.
        self._span_cache: Tuple[Optional[np.ndarray], int, int] = (None, 0, 0)
        self._agg_cache: Dict[Tuple, TimeSeries] = {}
        #: Rolling-retention state: rows of windows < _evicted_before
        #: live in the spill log, everything newer is hot.
        self._spill: Optional[_ColdLog] = None
        self._evicted_before: int = 0
        #: Incrementally maintained aggregates, keyed by
        #: (pool, counter, datacenter, reducer).
        self._tracked: Dict[Tuple, _TrackedAggregate] = {}
        #: Synchronization seam for concurrent readers (the live query
        #: server).  The store itself stays single-owner — methods do
        #: not self-lock — but a writer holding :attr:`lock` across a
        #: mutation span and readers taking it per query observe the
        #: store only at the boundaries the writer chooses.
        self._lock = threading.RLock()

    @property
    def lock(self) -> "threading.RLock":
        """Reentrant lock serializing a clock-loop writer and readers.

        The streaming loop holds it across each ingest→seal→evict
        block span; :class:`~repro.telemetry.query_server.\
LiveQuerySurface` takes it around every read, so a live reader only
        ever sees sealed block boundaries, never a half-ingested block.
        """
        return self._lock

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _table(self, pool_id: str, datacenter_id: str, counter: str) -> _Table:
        key = (pool_id, datacenter_id, counter)
        table = self._tables.get(key)
        if table is None:
            table = _Table()
            self._tables[key] = table
            self._by_pool_counter[(pool_id, counter)].append(key)
            self._pools.add(pool_id)
            self._datacenters.add(datacenter_id)
        return table

    def record_columns(
        self,
        pool_id: str,
        datacenter_id: str,
        counter: str,
        windows: np.ndarray,
        server_indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Append pre-columnised rows: the one ingest primitive.

        ``server_indices`` are interned indices from
        :meth:`intern_server` / :meth:`intern_servers`.  The columns
        must satisfy the layout :func:`_check_columns` states (a
        malformed batch raises ``ValueError`` and stores nothing).  The
        store takes ownership of the arrays — callers must not mutate
        them afterwards.  Every other ``record*`` verb and the archive
        importer reduce to this call.
        """
        windows, server_indices, values = _check_columns(
            windows, server_indices, values
        )
        if values.size == 0:
            return
        if self._span_cache[0] is not windows:
            self._span_cache = (windows, int(windows.min()), int(windows.max()))
        _, lo, hi = self._span_cache
        self._table(pool_id, datacenter_id, counter).append_batch(
            lo, hi, (windows, server_indices, values)
        )
        self._servers_by_pool_dc[(pool_id, datacenter_id)].update_from(
            server_indices
        )
        if hi > self._max_window:
            self._max_window = hi
        if self._agg_cache:
            self._agg_cache.clear()

    # ------------------------------------------------------------------
    # Streaming: rolling retention and incremental aggregates
    # ------------------------------------------------------------------
    @property
    def evicted_before(self) -> int:
        """Windows below this index live in the spill archive (0 = none)."""
        return self._evicted_before

    def evict_windows(self, before: int) -> int:
        """Move every row with ``window < before`` to the spill archive.

        The rolling-retention primitive of streaming mode: hot memory
        stays bounded by the retained window span while queries keep
        answering *exactly* — each table's evicted chunks become cold
        in place (one spill record per chunk, hot order: its values,
        then its window and server columns narrowed, see
        :class:`_ColdLog`), so ranges that dip below the watermark
        read them back ahead of the hot chunks and ranges above it
        never touch the disk.  Requires rows to have arrived in
        non-decreasing block order (which the simulation engine's
        emission guarantees) for that read-back to be the original
        append order; returns the number of rows evicted.  Evicting is
        idempotent — a cutoff at or below the current watermark is a
        no-op — and all or nothing: every table's rows are written
        before any table or the watermark changes, so a write that
        fails (a full disk) leaves the store as it was and the call can
        be retried.
        """
        if before <= self._evicted_before:
            return 0
        if self._spill is None:
            self._spill = _ColdLog()
        tables = list(self._tables.values())
        written = [table.spill_below(before, self._spill) for table in tables]
        evicted = sum(
            table.settle(*lists) for table, lists in zip(tables, written)
        )
        self._evicted_before = before
        if evicted and self._agg_cache:
            self._agg_cache.clear()
        return evicted

    def hot_sample_count(self) -> int:
        """Samples currently held in memory (excludes spilled rows)."""
        return sum(table.hot_rows for table in self._tables.values())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pools(self) -> Tuple[str, ...]:
        return tuple(sorted(self._pools))

    @property
    def datacenters(self) -> Tuple[str, ...]:
        return tuple(sorted(self._datacenters))

    @property
    def max_window(self) -> int:
        """Largest window index seen; -1 when empty."""
        return self._max_window

    def counters_for_pool(self, pool_id: str) -> Tuple[str, ...]:
        names = {
            counter
            for (pool, counter) in self._by_pool_counter
            if pool == pool_id
        }
        return tuple(sorted(names))

    def servers_in_pool(
        self,
        pool_id: str,
        datacenter_id: Optional[str] = None,
    ) -> Tuple[str, ...]:
        indices: Set[int] = set()
        for (pool, dc), members in self._servers_by_pool_dc.items():
            if pool != pool_id:
                continue
            if datacenter_id is None or dc == datacenter_id:
                indices.update(members.indices().tolist())
        return tuple(sorted(self._interner.name(i) for i in indices))

    def datacenters_for_pool(self, pool_id: str) -> Tuple[str, ...]:
        dcs = {
            dc
            for (pool, dc, _counter) in self._tables
            if pool == pool_id
        }
        return tuple(sorted(dcs))

    def datacenters_for_pool_counter(
        self, pool_id: str, counter: str
    ) -> Tuple[str, ...]:
        """Datacenters with (pool, counter) rows, sorted.

        The table-directory read the sharded facade uses to plan its
        per-datacenter merges; public (rather than a peek at
        ``_by_pool_counter``) so process-backed shards can answer it
        over RPC.
        """
        return tuple(sorted(key[1] for key in self._by_pool_counter.get((pool_id, counter), [])))

    def iter_tables(
        self,
    ) -> Iterator[Tuple[TableKey, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield (key, windows, server indices, values) per table.

        The export module's bulk read: every row of every table, cold
        chunks then hot ones, so exports stay byte-identical whether or
        not retention evicted.
        """
        lo, hi = self._window_range(None, None)
        for key, table in self._tables.items():
            yield (key,) + self._gather([table], lo, hi)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _matching_tables(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str],
    ) -> List[_Table]:
        keys = self._by_pool_counter.get((pool_id, counter), [])
        # Sorted by datacenter so query results never depend on table
        # creation order (which an export/import round trip reshuffles).
        return [
            self._tables[key]
            for key in sorted(keys, key=lambda k: k[1])
            if datacenter_id is None or key[1] == datacenter_id
        ]

    def _window_range(
        self, start: Optional[int], stop: Optional[int]
    ) -> Tuple[float, float]:
        """The ``[lo, hi)`` window range a query's ``start``/``stop``
        mean: from 0 to past the newest window by default, and a range
        from 0 (or below) to past the newest window means every row,
        rows at negative windows included."""
        lo = start if start is not None else 0
        hi = stop if stop is not None else self._max_window + 1
        if lo <= 0 and hi > self._max_window:
            return -math.inf, math.inf
        return lo, hi

    def _parts(
        self, tables: List[_Table], lo: float, hi: float
    ) -> Tuple[List[_Chunk], Iterator[_Batch]]:
        """The one range read over many tables: the chunks it touches,
        and their rows as batches — tables in the order given, append
        order within each.

        Ranges entirely above the eviction watermark skip the cold
        chunks (no disk reads on the streaming hot path).
        """
        log = self._spill if lo < self._evicted_before else None
        picked = [table.overlapping(lo, hi, log is not None) for table in tables]
        batches = chain.from_iterable(
            table.read(chunks, lo, hi, log) for table, chunks in zip(tables, picked)
        )
        return [chunk for chunks in picked for chunk in chunks], batches

    def _gather(self, tables: List[_Table], lo: float, hi: float) -> Columns:
        """Every row of :meth:`_parts` as one column triple.

        Hot parts are concatenated (a lone one comes back as it is);
        once a cold chunk is involved, every batch is widened straight
        into columns sized by the chunks' row count.
        """
        chunks, batches = self._parts(tables, lo, hi)
        if all(chunk.columns is not None for chunk in chunks):
            return _concat_columns([batch.columns() for batch in batches])
        rows = sum(chunk.rows for chunk in chunks)
        out = tuple(np.empty(rows, dtype) for dtype in _COLUMN_DTYPES)
        end = 0
        for batch in batches:
            end = batch.widen_into(out, end)
        return tuple(column[:end] for column in out)

    def gather_columns(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
    ) -> Columns:
        """Raw window-sliced (windows, server indices, values) columns.

        Rows come out table by table — tables sorted by datacenter, rows
        in append order within each table — which is the canonical order
        every aggregate query accumulates in.  The sharded facade reads
        shards through this method to rebuild that exact order.
        """
        tables = self._matching_tables(pool_id, counter, datacenter_id)
        return self._gather(tables, *self._window_range(start, stop))

    def server_series(
        self,
        pool_id: str,
        counter: str,
        server_id: str,
        start: Optional[int] = None,
        stop: Optional[int] = None,
    ) -> TimeSeries:
        """Series of one counter on one server, optionally window-sliced.

        Selects the server's rows batch by batch — one compare on the
        stored (for cold chunks, narrow) server column, hot or cold
        alike — and widens and concatenates only the selections, so the
        cost is one pass over the range's record bytes and the memory
        one batch plus the answer, never the table.
        """
        index = self._interner.index.get(server_id)
        window_parts: List[np.ndarray] = [np.array([], dtype=int)]
        value_parts: List[np.ndarray] = [np.array([], dtype=float)]
        if index is not None:
            tables = self._matching_tables(pool_id, counter, None)
            _chunks, batches = self._parts(
                tables, *self._window_range(start, stop)
            )
            for batch in batches:
                windows, values = batch.select(index)
                if values.size:
                    window_parts.append(windows)
                    value_parts.append(values)
        return TimeSeries(
            np.concatenate(window_parts), np.concatenate(value_parts)
        )

    def _compute_window_aggregate(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str],
        start: Optional[int],
        stop: Optional[int],
        reducer: str,
    ) -> TimeSeries:
        """The uncached aggregate behind :meth:`pool_window_aggregate`
        and :meth:`seal_through`: one gather, then a pair of
        ``np.bincount`` calls over the window column."""
        windows, _servers, values = self.gather_columns(
            pool_id, counter, datacenter_id, start, stop
        )
        if windows.size == 0:
            return TimeSeries(np.array([], dtype=int), np.array([], dtype=float))
        return TimeSeries.from_sorted(
            *window_aggregate_arrays(windows, values, reducer)
        )

    def per_server_values(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
    ) -> Dict[str, np.ndarray]:
        """All window values per server (for percentile feature vectors).

        Values keep their append (window) order within each server;
        grouping is one stable argsort over the interned server column.
        """
        lo, hi = self._window_range(start, stop)
        out: Dict[str, np.ndarray] = {}
        for table in self._matching_tables(pool_id, counter, datacenter_id):
            _windows, servers, values = self._gather([table], lo, hi)
            if values.size == 0:
                continue
            order = np.argsort(servers, kind="stable")
            sorted_servers = servers[order]
            sorted_values = values[order]
            boundaries = np.flatnonzero(np.diff(sorted_servers)) + 1
            starts = np.concatenate(([0], boundaries))
            pieces = np.split(sorted_values, boundaries)
            for offset, piece in zip(starts, pieces):
                out[self._interner.name(sorted_servers[offset])] = piece
        return out

    def pool_matrix(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
    ) -> Tuple[np.ndarray, Tuple[str, ...], np.ndarray]:
        """Dense (windows, server_ids, values[window, server]) cube.

        Missing observations (offline servers, late joiners) are NaN.
        This is the array-native view consumers use to compute
        per-server statistics in one vectorized pass.  Built batch by
        batch: the chunks' spans bound the window axis and the pool's
        server membership the server axis, each batch scatters its
        values through one flat index (a later row of a cell wins, as
        in append order), and windows or servers no row hit are
        dropped at the end.
        """
        empty = (
            np.array([], dtype=np.int64),
            (),
            np.empty((0, 0), dtype=float),
        )
        lo, hi = self._window_range(start, stop)
        tables = self._matching_tables(pool_id, counter, datacenter_id)
        chunks, batches = self._parts(tables, lo, hi)
        if not chunks:
            return empty
        servers = np.unique(np.concatenate([
            self._servers_by_pool_dc[pool_id, dc].indices()
            for dc in self.datacenters_for_pool_counter(pool_id, counter)
            if datacenter_id in (None, dc)
        ]))
        column_of = np.zeros(servers[-1] + 1, dtype=np.int64)
        column_of[servers] = np.arange(servers.size)
        first = max(lo, min(chunk.lo for chunk in chunks))
        span = min(hi - 1, max(chunk.hi for chunk in chunks)) - first + 1
        axis = None
        if span * servers.size > 4 * sum(chunk.rows for chunk in chunks):
            # Sparse windows: which are present only the rows can say,
            # so they are read once for that first.
            axis = np.unique(np.concatenate(
                [np.unique(batch.window_column()) for batch in batches]
            ))
            span = axis.size
            batches = self._parts(tables, lo, hi)[1]
        matrix = np.full((span, servers.size), np.nan)
        window_seen = np.zeros(span, dtype=bool)
        server_seen = np.zeros(servers.size, dtype=bool)
        cells = matrix.reshape(-1)
        for batch in batches:
            if axis is None:
                at = batch.window_column(first)
            else:
                at = np.searchsorted(axis, batch.window_column())
            columns = batch.server_column(column_of)
            window_seen[at] = True
            server_seen[columns] = True
            at *= servers.size
            at += columns
            cells[at] = batch.values
        if not window_seen.any():
            return empty
        windows = np.flatnonzero(window_seen) + first if axis is None else axis
        if not window_seen.all():
            matrix = matrix[window_seen]
        if not server_seen.all():
            matrix = matrix[:, server_seen]
        names = tuple(self._interner.name(i) for i in servers[server_seen])
        return windows, names, matrix

    def all_values(
        self,
        counter: str,
        pool_ids: Optional[Sequence[str]] = None,
    ) -> np.ndarray:
        """Every stored value of ``counter``, optionally pool-filtered.

        Powers the fleet-wide distribution studies (Figs 12-14).
        """
        pools = list(pool_ids) if pool_ids is not None else list(self._pools)
        chunks: List[np.ndarray] = []
        for pool in pools:
            for key in self._by_pool_counter.get((pool, counter), []):
                _windows, _servers, values = self._gather(
                    [self._tables[key]], *self._window_range(None, None)
                )
                if values.size:
                    chunks.append(values)
        if not chunks:
            return np.array([], dtype=float)
        return np.concatenate(chunks)

    def sample_count(self) -> int:
        """Total number of stored samples."""
        return sum(table.n_rows for table in self._tables.values())
