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
  The first read below the watermark coalesces them into records of a
  scratch buffer's worth of rows, sorted by server when the rows allow
  (a stream nobody reads back never pays for it).  One range read
  selects chunks by span and yields their rows in batches: hot chunks
  as they are, each cold record read with one ``preadv`` into one
  scratch buffer, so a read that keeps few rows — one server's series
  — never holds the table, and reads only its own rows of a sorted
  record.
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


class TurnLock:
    """A reentrant lock its holder can hand to the threads waiting for it.

    The lock of :attr:`MetricStore.lock` and the sharded facade's: a
    streaming writer holds it across each block, live readers take it
    per read.  A plain lock is not fair — a writer that releases it and
    takes it again for the next block usually wins, and a reader starves
    for the whole run.  Here a thread that has to wait says so first,
    and :meth:`hand_over`, called by the writer between blocks, returns
    only once every thread waiting at that moment has taken the lock.  An
    uncontended acquire and a hand-over with nobody waiting never touch
    that bookkeeping.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._turns = threading.Condition(threading.Lock())
        self._waiting: Set[object] = set()

    def acquire(self) -> bool:
        if self._lock.acquire(blocking=False):
            return True
        ticket = object()
        with self._turns:
            self._waiting.add(ticket)
        try:
            return self._lock.acquire()
        finally:
            with self._turns:
                self._waiting.discard(ticket)
                self._turns.notify_all()

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    @property
    def waiting(self) -> int:
        """Threads blocked in :meth:`acquire` right now."""
        return len(self._waiting)

    def hand_over(self) -> None:
        """Return once every thread waiting now has taken the lock; at
        once when none waits.  Call it without holding the lock."""
        if not self._waiting:
            return
        with self._turns:
            waiting = set(self._waiting)
            self._turns.wait_for(lambda: waiting.isdisjoint(self._waiting))


#: The per-window reducers :class:`WindowPartials` reduce to — the one
#: spelling every aggregate entry point and the CLI validate against.
REDUCERS = ("mean", "sum", "max", "count")

#: Server classes: a row's class is the low six bits of its server
#: index, ``index & (CLASSES - 1)``.  A ``sum`` / ``mean`` partial holds
#: one sum per (class, window), and the sharded facade routes a whole
#: class to one shard, so partials merge without adding two floats.
CLASSES = 64


class WindowPartials(NamedTuple):
    """Per-window partial aggregates of a scope's rows, mergeable exactly.

    What :meth:`MetricStore.window_partials` answers and the sharded
    facade's ``partials`` rule merges.  ``windows`` are the windows with
    rows, ascending, and ``counts`` their rows; per reducer the rest is
    ``classes`` — the server classes with rows, ascending — and
    ``sums[k, j]``, class ``classes[k]``'s rows of window ``windows[j]``
    summed in row order (``sum``/``mean``), or the per-window
    ``maxima`` (``max``); fields a reducer does not need are empty.

    A class's sum only ever meets its own rows, and the total folds the
    classes in ascending order, so the answer depends on the order of
    rows within one (class, window) and nothing else: the same on one
    store, on any shards, for any ingest interleaving of classes.
    """

    windows: np.ndarray
    counts: np.ndarray
    classes: np.ndarray
    sums: np.ndarray
    maxima: np.ndarray

    @classmethod
    def of(
        cls,
        windows: np.ndarray,
        servers: np.ndarray,
        values: np.ndarray,
        reducer: str,
    ) -> "WindowPartials":
        """The partials of gathered rows: one ``np.bincount`` over a
        (class, window) key folds each class's rows sequentially; only
        classes present get a row of ``sums``."""
        if reducer not in REDUCERS:
            raise ValueError(f"unknown reducer {reducer!r}")
        empty = np.empty(0)
        if windows.size == 0:
            return cls(
                np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.int64), np.empty((0, 0)), empty,
            )
        lo, hi = int(windows.min()), int(windows.max())
        length = hi - lo + 1
        # Windows bin as they are when that costs at most a bin per row
        # — no shifted copy of the column — else from the lowest.
        origin = 0 if 0 <= lo <= windows.size else lo
        index = windows if origin == 0 else windows - origin
        counts = np.bincount(index, minlength=hi - origin + 1)[lo - origin:]
        dense = bool(counts.all())
        present = np.arange(length) if dense else counts.nonzero()[0]
        classes, sums, maxima = np.empty(0, np.int64), np.empty((0, 0)), empty
        if reducer == "max":
            maxima = np.full(hi - origin + 1, -np.inf)
            np.maximum.at(maxima, index, values)
            # IEEE maximum(-0.0, +0.0) is +0.0 whichever comes first, so
            # the sign of a zero maximum does not depend on row order.
            zero = maxima == 0
            if zero.any():
                plus_zero = np.zeros(maxima.size, dtype=bool)
                plus_zero[index[(values == 0) & ~np.signbit(values)]] = True
                maxima[plus_zero & zero] = 0.0
            maxima = maxima[lo - origin:]
            maxima = maxima if dense else maxima[present]
        elif reducer != "count":
            # key = rank of the row's class among those present x
            # length + window - lo, built in the one array it needs.
            key = servers & (CLASSES - 1)
            seen = np.bincount(key, minlength=CLASSES)
            classes = seen.nonzero()[0]
            if classes.size < CLASSES:
                np.take(np.cumsum(seen > 0) - 1, key, out=key, mode="clip")
            key *= length
            key += index
            if lo > origin:
                key -= lo - origin
            sums = np.bincount(
                key, weights=values, minlength=classes.size * length
            ).reshape(classes.size, length)
            sums = sums if dense else sums[:, present]
        return cls(
            present + lo, counts if dense else counts[present],
            classes, sums, maxima,
        )

    def series(self, reducer: str) -> TimeSeries:
        """The reduced per-window series: counts, maxima, or the classes'
        sums folded in ascending class order into one array (a
        sequential fold, where ``np.sum`` promises no order), divided by
        the counts for ``mean``."""
        if reducer == "count":
            values = self.counts.astype(float)
        elif reducer == "max":
            values = self.maxima
        elif self.windows.size == 0:
            values = np.empty(0)
        elif self.sums.size <= 1 << 13:
            # A few cache lines: one accumulate (sequential by
            # definition) is cheaper than a loop of row adds.
            values = np.add.accumulate(self.sums, axis=0)[-1]
        else:
            values = self.sums[0].copy()
            for row in self.sums[1:]:
                values += row
        if reducer == "mean":
            values = values / self.counts
        nan = np.isnan(values)
        if nan.any():
            # Which NaN an add of two NaNs keeps varies with the SIMD
            # path numpy takes, so every NaN answer is the one quiet NaN.
            values = np.where(nan, np.nan, values)
        return TimeSeries.from_sorted(self.windows, values)


def _axis(
    column: np.ndarray, base: int, length: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(column, return_inverse=True)`` for integers known to
    lie in ``[base, base + length)``, by presence instead of a sort.

    O(rows + length), the way :meth:`WindowPartials.of` finds its
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
    :class:`WindowPartials` only ever mix rows of their own window, so
    the per-block partials are bit-identical to what one
    full-horizon recompute would produce — the incremental-maintenance
    invariant ``tests/test_streaming.py`` asserts.

    The series lives in capacity-doubling buffers, so an append costs
    amortised O(its rows) and a read is a view: rows of the series are
    never written again (a grown buffer is a new one), so views handed
    out stay valid and unchanged.
    """

    __slots__ = ("reducer", "sealed_through", "_size", "_windows", "_values")

    def __init__(self, reducer: str) -> None:
        self.reducer = reducer
        #: Largest window whose aggregate is final; -1 before any seal.
        self.sealed_through = -1
        #: Rows of the series; the buffers' capacity may exceed it.
        self._size = 0
        self._windows = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=float)

    def extend(
        self, windows: np.ndarray, values: np.ndarray, through: int
    ) -> None:
        """Append one sealed block's aggregate rows (ascending windows)."""
        size, end = self._size, self._size + windows.size
        if end > self._windows.size:
            capacity = max(end, 2 * self._windows.size, 64)
            for name in ("_windows", "_values"):
                old = getattr(self, name)
                grown = np.empty(capacity, dtype=old.dtype)
                grown[:size] = old[:size]
                setattr(self, name, grown)
        self._windows[size:end] = windows
        self._values[size:end] = values
        self._size = end
        self.sealed_through = through

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The full (windows, values) series, as read-only views."""
        windows = self._windows[: self._size]
        values = self._values[: self._size]
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

#: Bytes of the buffer a store reads a cold record into.  It also sets
#: when a record is closed: once it holds as many rows as this holds at
#: its layout (:attr:`_Chunk.floor`).
_SCRATCH_BYTES = 512 << 10


def _offset_size(span: int) -> int:
    """Itemsize of the narrowest unsigned dtype that holds ``span``."""
    for size in (1, 2, 4):
        if span < 1 << 8 * size:
            return size
    return 8


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


def _canonical(windows: np.ndarray, servers: np.ndarray) -> bool:
    """Whether the (window, server) keys are non-decreasing, row to row."""
    later, earlier = windows[1:], windows[:-1]
    return bool(np.all(
        (later > earlier) | ((later == earlier) & (servers[1:] >= servers[:-1]))
    ))


def _by_server(servers: np.ndarray) -> tuple:
    """The stable order that sorts a record's server offsets, and its
    directory: the servers present and where each one's run starts."""
    order = np.argsort(servers, kind="stable")
    counts = np.bincount(servers)
    present = np.flatnonzero(counts)
    starts = np.concatenate(([0], np.cumsum(counts[present])))
    return order, (present.astype(servers.dtype), starts)


def _concat_columns(parts: List[Columns]) -> Columns:
    """One (windows, server indices, values) triple from aligned parts."""
    if not parts:
        empty = np.array([], dtype=np.int64)
        return empty, empty, np.array([], dtype=float)
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(column) for column in zip(*parts))


class _Chunk(NamedTuple):
    """Rows of one table that were appended (or fused, or spilled) together."""

    lo: int  #: smallest window among the rows
    hi: int  #: largest window among the rows
    rows: int
    columns: Optional[Columns]  #: hot: the rows themselves
    offset: Optional[int]  #: cold: where its record starts in the spill log
    #: cold: the smallest and largest server index among the rows; the
    #: record's server offsets count from the first.
    server_lo: int = 0
    server_hi: int = 0
    #: cold, server-major records only (see :class:`_ColdLog`): the
    #: server offsets present, ascending, and the row each one's run
    #: starts at, then the row count.
    directory: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def of(cls, columns: Columns) -> "_Chunk":
        windows = columns[0]
        return cls(
            int(windows.min()), int(windows.max()), windows.size, columns, None
        )

    def joint(self, other: "_Chunk") -> "_Chunk":
        """The spans and row count of both chunks' rows together, as a
        chunk that holds no rows of its own."""
        return _Chunk(
            min(self.lo, other.lo), max(self.hi, other.hi),
            self.rows + other.rows, None, None,
            min(self.server_lo, other.server_lo),
            max(self.server_hi, other.server_hi),
        )

    @property
    def dtypes(self) -> Tuple[np.dtype, np.dtype, np.dtype]:
        """A record's column dtypes: values, window and server offsets."""
        return (
            _COLUMN_DTYPES[2],
            _OFFSET_DTYPES[_offset_size(self.hi - self.lo)],
            _OFFSET_DTYPES[_offset_size(self.server_hi - self.server_lo)],
        )

    @property
    def floor(self) -> int:
        """Rows a ``_SCRATCH_BYTES`` scratch holds at this record layout,
        a multiple of 8 so column regions align: a record this long is closed."""
        window, server = self.hi - self.lo, self.server_hi - self.server_lo
        return _SCRATCH_BYTES // (8 + _offset_size(window) + _offset_size(server)) & ~7


class _Batch(NamedTuple):
    """Rows a range read yields at once, in append order.

    Row ``i`` is window ``origin + windows[i]``, server index ``base +
    servers[i]`` and value ``values[i]``.  A hot batch (``origin``
    None) is wide columns as stored; a cold one is one record's narrow
    columns, which view the store's scratch and are valid only until
    the read moves on, so consumers keep copies (:meth:`select`,
    :meth:`widen_into`), never the batch.  A one-server read's batch
    has no server column (``servers`` None) and is only ``select``-ed.
    """

    windows: np.ndarray
    servers: np.ndarray
    values: np.ndarray
    base: int = 0
    origin: Optional[int] = None

    def _windows_into(self, out: np.ndarray, shift: int = 0) -> None:
        if self.origin is None:
            np.subtract(self.windows, shift, out=out)
        else:
            _add_origin(self.windows, self.origin - shift, out)

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
        if self.origin is None:
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
        the stored server column, and only the rows kept are widened —
        or, from :meth:`_ColdLog.rows_of`, the batch as it is."""
        if self.servers is None:
            return self.windows, self.values
        rows = np.flatnonzero(self.servers == server - self.base)
        windows = self.windows[rows]
        if self.origin is not None:
            windows = _add_origin(windows, self.origin)
        return windows, self.values[rows]

    def server_column(self, lookup: np.ndarray) -> np.ndarray:
        """``lookup[server index]`` for every row."""
        return lookup[self.base:][self.servers]


class _ColdLog:
    """Where a store's cold chunks live, and the ways back.

    A record is its rows' values (``float64``, bit for bit), then their
    windows as offsets from the chunk's ``lo``, then their server
    indices as offsets from its ``server_lo``, back to back with no
    header, each offset column in the narrowest unsigned dtype its span
    fits (:attr:`_Chunk.dtypes`): 10 B a row for a 64-window block of up
    to 256 servers, 24 at most.  A closed record whose (window, server)
    keys are non-decreasing — the order every engine emits — is stored
    *server-major*, stably sorted by server, its chunk keeping a
    directory of where each server's run starts: one server's rows are
    two ``pread`` s (:meth:`rows_of`).  Every other read takes a whole
    record with one ``preadv`` into a scratch buffer, grown to the
    largest record read (:meth:`load`), and a server-major one gets
    append order back by one stable argsort by window — exact, as
    sorting (window, server)-ordered rows stably by server and then by
    window returns them to that order.  Other records, open ones
    included, stay in append order.
    """

    def __init__(self) -> None:
        self.archive = SpillArchive()
        self._scratch = np.empty(_SCRATCH_BYTES, np.uint8)

    def write(self, columns: Columns, span: _Chunk, closed: bool) -> _Chunk:
        """Append ``columns``' record (``span``: their spans and row
        count; ``closed``: whether it is); returns the cold chunk."""
        windows = _offsets(columns[0], span.lo, span.hi)
        servers = _offsets(columns[1], span.server_lo, span.server_hi)
        return self._append(columns[2], windows, servers, span, closed)

    def coalesce(self, tail: List[_Chunk], span: _Chunk) -> _Chunk:
        """Append one closed record of the open ``tail`` records' rows
        (``span``: all of theirs), each read back into place with one
        ``preadv``; returns the cold chunk."""
        values, windows, servers = (np.empty(span.rows, d) for d in span.dtypes)
        at = 0
        for chunk in tail:  # open, so in append order
            end = at + chunk.rows
            offsets = [np.empty(chunk.rows, dtype) for dtype in chunk.dtypes[1:]]
            self.archive.read_into(
                chunk.offset, [values[at:end]] + offsets,
                chunk.rows * sum(dtype.itemsize for dtype in chunk.dtypes),
            )
            shifts = chunk.lo - span.lo, chunk.server_lo - span.server_lo
            for column, narrow, shift in zip((windows, servers), offsets, shifts):
                np.add(narrow, shift, out=column[at:end], dtype=column.dtype)
            at = end
        return self._append(values, windows, servers, span, True)

    def _append(
        self, values: np.ndarray, windows: np.ndarray, servers: np.ndarray,
        span: _Chunk, closed: bool,
    ) -> _Chunk:
        """Append one record, server-major if it is ``closed`` and its
        keys allow it; returns the cold chunk."""
        directory = None
        if closed and _canonical(windows, servers):
            order, directory = _by_server(servers)
            values, windows = values[order], windows[order]
            servers = np.repeat(directory[0], np.diff(directory[1]))
        return span._replace(
            columns=None,
            offset=self.archive.append((values, windows, servers)),
            directory=directory,
        )

    def load(self, chunk: _Chunk) -> _Batch:
        """A cold chunk's rows in append order: its record read with one
        ``preadv`` into the scratch, each column region row-aligned."""
        dtypes = chunk.dtypes
        padded = -(-chunk.rows // 8) * 8
        row_bytes = sum(dtype.itemsize for dtype in dtypes)
        if self._scratch.size < padded * row_bytes:
            self._scratch = np.empty(padded * row_bytes, np.uint8)
        regions, start = [], 0
        for dtype in dtypes:
            regions.append(self._scratch[start:start + dtype.itemsize * chunk.rows])
            start += dtype.itemsize * padded
        self.archive.read_into(chunk.offset, regions, chunk.rows * row_bytes)
        values, windows, servers = (
            region.view(dtype) for region, dtype in zip(regions, dtypes)
        )
        if chunk.directory is not None:
            order = np.argsort(windows, kind="stable")
            values, windows, servers = values[order], windows[order], servers[order]
        return _Batch(windows, servers, values, chunk.server_lo, chunk.lo)

    def rows_of(self, chunk: _Chunk, server: int, lo: float, hi: float) -> _Batch:
        """One server index's rows with ``lo <= window < hi`` of a
        server-major chunk — its run's values and window offsets, one
        ``pread`` each — as a batch with no server column."""
        present, starts = chunk.directory
        target = server - chunk.server_lo
        inside = chunk.server_lo <= server <= chunk.server_hi
        at = np.searchsorted(present, target) if inside else 0
        if at == present.size or present[at] != target:
            return _Batch(np.empty(0, np.int64), None, np.empty(0))
        begin, end = int(starts[at]), int(starts[at + 1])
        window_dtype = chunk.dtypes[1]
        values = np.empty(end - begin)
        windows = np.empty(end - begin, window_dtype)
        self.archive.read_into(chunk.offset + 8 * begin, [values], values.nbytes)
        self.archive.read_into(
            chunk.offset + 8 * chunk.rows + window_dtype.itemsize * begin,
            [windows], windows.nbytes,
        )
        windows = _add_origin(windows, chunk.lo)
        if not (lo <= chunk.lo and chunk.hi < hi):
            keep = (windows >= lo) & (windows < hi)
            windows, values = windows[keep], values[keep]
        return _Batch(windows, None, values)

    def batches(
        self, chunks: List[_Chunk], lo: float, hi: float,
        server: Optional[int] = None,
    ) -> Iterator[_Batch]:
        """The rows with ``lo <= window < hi`` of the cold ``chunks``, one
        batch a chunk (of a server-major one, only ``server``'s rows, if
        given); a chunk the range covers only partly is widened and masked."""
        for chunk in chunks:
            if server is not None and chunk.directory is not None:
                yield self.rows_of(chunk, server, lo, hi)
            elif lo <= chunk.lo and chunk.hi < hi:
                yield self.load(chunk)
            else:
                yield self.load(chunk).within(lo, hi)


class _Table:
    """Rows of one table: a list of cold chunks, then a list of hot ones.

    The invariant every read relies on:

    1. ``_cold ++ _hot`` is append order — the order rows arrived in,
       given that they arrive in non-decreasing block order (otherwise:
       rows in the order they were evicted, then the rest as appended).
    2. Each chunk's ``(lo, hi)`` is the min/max of its window column
       and ``rows`` its length; a cold chunk holds an offset and no
       columns (and the min/max of its server column), a hot chunk
       columns and no offset.
    3. ``n_rows`` is the row sum over all chunks, ``hot_rows`` over
       ``_hot``.
    4. The last ``_open`` cold chunks are the open tail — what eviction
       wrote since the last :meth:`compact` — and ``_tail`` is their
       joint span (None when there are none); every cold chunk before
       them is closed, at or above its :attr:`~_Chunk.floor`.

    Each mutator preserves it: :meth:`append_batch` adds one hot chunk
    at the end with the span its caller measured; :meth:`spill_below`
    changes nothing and :meth:`settle` then moves the chunks it wrote
    to the end of ``_cold`` in hot order, both halves of a split one
    measured, in one step that cannot fail; :meth:`compact` swaps each
    closed record in for the open run it holds, in one such step; the
    fuse in :meth:`read` replaces all hot chunks by their concatenation
    in list order under their joint span.
    """

    __slots__ = ("_cold", "_hot", "n_rows", "hot_rows", "_open", "_tail")

    def __init__(self) -> None:
        self._cold: List[_Chunk] = []
        self._hot: List[_Chunk] = []
        self.n_rows: int = 0
        #: Rows still held in memory (total minus spilled).
        self.hot_rows: int = 0
        self._open: int = 0
        self._tail: Optional[_Chunk] = None

    def append_batch(self, lo: int, hi: int, columns: Columns) -> None:
        """Append rows whose windows span exactly ``[lo, hi]``."""
        rows = columns[0].size
        self._hot.append(_Chunk(lo, hi, rows, columns, None))
        self.n_rows += rows
        self.hot_rows += rows

    def spill_below(
        self, before: int, log: _ColdLog
    ) -> Tuple[List[_Chunk], List[_Chunk], int]:
        """Write every hot row with ``window < before`` to ``log``.

        Whole chunks go as they are, one open record each; only a chunk
        that straddles the cutoff is split, and one that reaches its
        floor alone with no open record before it (a wide fleet's block)
        is written closed.  The table is unchanged: the result is the
        ``(moved, kept, opened)`` for :meth:`settle`, so a write that
        fails leaves no row in two places.
        """
        moved: List[_Chunk] = []
        kept: List[_Chunk] = []
        opened = 0
        for chunk in self._hot:
            if chunk.lo >= before:
                kept.append(chunk)
                continue
            if chunk.hi >= before:
                mask = chunk.columns[0] < before
                kept.append(_Chunk.of(tuple(c[~mask] for c in chunk.columns)))
                chunk = _Chunk.of(tuple(c[mask] for c in chunk.columns))
            servers = chunk.columns[1]
            chunk = chunk._replace(
                server_lo=int(servers.min()), server_hi=int(servers.max())
            )
            closed = not (self._open or opened) and chunk.rows >= chunk.floor
            moved.append(log.write(chunk.columns, chunk, closed))
            opened += not closed
        return moved, kept, opened

    def settle(self, moved: List[_Chunk], kept: List[_Chunk], opened: int) -> int:
        """Make the chunks :meth:`spill_below` wrote cold; returns rows moved."""
        rows = sum(chunk.rows for chunk in moved)
        for chunk in moved[len(moved) - opened:]:
            self._tail = chunk if self._tail is None else self._tail.joint(chunk)
        self._cold += moved
        self._open += opened
        self._hot = kept
        self.hot_rows -= rows
        return rows

    def compact(self, log: _ColdLog) -> None:
        """Coalesce the open tail: each run of its records that reaches
        the floor of its joint layout is read back and written as one
        closed record, the rest stays open.  Every record is written
        before the tail is swapped, in one step that cannot fail."""
        if self._tail is None or self._tail.rows < self._tail.floor:
            return
        first = len(self._cold) - self._open
        closed, start, joint = [], first, None
        for at in range(first, len(self._cold)):
            joint = self._cold[at] if joint is None else joint.joint(self._cold[at])
            if joint.rows >= joint.floor:
                closed.append(log.coalesce(self._cold[start:at + 1], joint))
                start, joint = at + 1, None
        self._cold[first:start] = closed
        self._open -= start - first
        self._tail = joint

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
        server: Optional[int] = None,
    ) -> Iterator[_Batch]:
        """The rows with ``lo <= window < hi`` of ``chunks`` (what
        :meth:`overlapping` picked), as batches in append order.

        Cold chunks come back through ``log`` one record a batch (see
        :meth:`_ColdLog.batches`; a ``server`` hint narrows server-major
        ones to its rows), each read before the next is loaded — a
        consumer that keeps a selection of each holds one batch, not
        the table.  Hot chunks are yielded as they are, a partial
        overlap masked.  A read that takes every hot chunk whole leaves
        them fused, so full reads concatenate once.
        """
        cold = sum(chunk.columns is None for chunk in chunks)
        if cold:
            yield from log.batches(chunks[:cold], lo, hi, server)
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


#: The store's read surface, declared once: name -> (is it a property,
#: how the sharded facade merges its shards' answers).  Every name is
#: defined on :class:`MetricStore`, mutates nothing, and is what a
#: shard session or the live query surface answers to a ``call`` — the
#: remote-shard proxies, the query surface and the sharded facade's
#: reads are generated from this table (:func:`forward_reads`), and the
#: serve loop refuses any name outside it (plus the few extras the
#: served object declares).  The merge rules are a closed set, each
#: written once in :mod:`repro.telemetry.sharding` (``MERGES``, whose
#: module docstring states them); ``"facade"`` marks a read
#: :class:`~repro.telemetry.sharding.ShardedMetricStore` answers
#: itself.  ``sealed_through`` is deliberately absent: the live surface
#: answers it from its streamer, not from the store.
READ_SURFACE = {
    "pools": (True, "union"),
    "datacenters": (True, "union"),
    "max_window": (True, "max"),
    "evicted_before": (True, "facade"),
    "counters_for_pool": (False, "union"),
    "servers_in_pool": (False, "union"),
    "datacenters_for_pool": (False, "union"),
    "datacenters_for_pool_counter": (False, "union"),
    "server_name": (False, "facade"),
    "sample_count": (False, "sum"),
    "hot_sample_count": (False, "sum"),
    "iter_tables": (False, "shard_order"),
    "gather_columns": (False, "canonical_rows"),
    "window_partials": (False, "partials"),
    "pool_window_aggregate": (False, "facade"),
    "per_server_values": (False, "column_stack_per_dc"),
    "server_series": (False, "owner"),
    "pool_matrix": (False, "column_stack"),
}


def _forwarder(name: str, via: str):
    def read(self, *args, **kwargs):
        return getattr(self, via)(name, *args, **kwargs)

    read.__name__ = name
    read.__doc__ = f"The store's ``{name}``, answered through ``{via}``."
    return read


def forward_reads(via: str, skip: Optional[str] = None):
    """Class decorator: give a class every :data:`READ_SURFACE` name
    whose merge rule is not ``skip``.

    Each generated method (or property) forwards to
    ``getattr(self, via)(name, *args, **kwargs)`` — ``call`` for the
    remote-shard proxies, the lock-holding ``_read`` for the live
    query surface, the shard merge for the sharded facade, which skips
    the ``"facade"`` rows it answers itself — so a stand-in for the
    store spells the surface zero times instead of once per name.
    """

    def decorate(cls):
        for name, (is_property, merge) in READ_SURFACE.items():
            if merge == skip:
                continue
            read = _forwarder(name, via)
            setattr(cls, name, property(read) if is_property else read)
        return cls

    return decorate


class _AggregateFront:
    """Tracked series and memo in front of one uncached aggregate.

    Written once for :class:`MetricStore` and
    :class:`~repro.telemetry.sharding.ShardedMetricStore`, which supply
    ``_tracked`` / ``_agg_cache`` / ``max_window`` and the
    ``window_partials`` read; where the partials come from (one store's
    tables, or the shards' partials merged) is the only thing that
    differs between them, and every aggregate reduces them here.
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
            series = self.window_partials(
                pool_id, counter, datacenter_id,
                tracker.sealed_through + 1, window + 1, reducer,
            ).series(reducer)
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
            series = self.window_partials(
                pool_id, counter, datacenter_id, start, stop, reducer
            ).series(reducer)
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
    verbs over it (:meth:`record_batch`, :meth:`record_fast`); query via
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
        self._lock = TurnLock()

    @property
    def lock(self) -> TurnLock:
        """Reentrant lock serializing a clock-loop writer and readers.

        The streaming loop holds it across each ingest→seal→evict
        block span and hands it over to waiting readers between blocks;
        :class:`~repro.telemetry.query_server.LiveQuerySurface` takes
        it around every read, so a live reader only ever sees sealed
        block boundaries, never a half-ingested block.
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
        answering *exactly* — each table's evicted rows become cold in
        place (one record per chunk: its values, then its window and
        server columns narrowed, see :class:`_ColdLog`; the first read
        below the watermark coalesces them, :meth:`_Table.compact`), so
        ranges that dip below the
        watermark read them back ahead of the hot chunks and ranges
        above it never touch the disk.  Requires rows to have arrived in
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
        self, tables: List[_Table], lo: float, hi: float,
        server: Optional[int] = None,
    ) -> Tuple[List[_Chunk], Iterator[_Batch]]:
        """The one range read over many tables: the chunks it touches,
        and their rows as batches — tables in the order given, append
        order within each (``server``: see :meth:`_Table.read`).

        Ranges entirely above the eviction watermark skip the cold
        chunks (no disk reads on the streaming hot path); one below it
        first compacts the tables' open tails, so a write that fails
        fails the read and leaves the store as it was.
        """
        log = self._spill if lo < self._evicted_before else None
        for table in tables if log is not None else ():
            table.compact(log)
        picked = [table.overlapping(lo, hi, log is not None) for table in tables]
        batches = chain.from_iterable(
            table.read(chunks, lo, hi, log, server)
            for table, chunks in zip(tables, picked)
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
        alike — and widens and concatenates only the selections.  A
        server-major cold record reads only the server's own rows; any
        other is one pass over its bytes.  The memory is one batch plus
        the answer, never the table.
        """
        index = self._interner.index.get(server_id)
        window_parts: List[np.ndarray] = [np.array([], dtype=int)]
        value_parts: List[np.ndarray] = [np.array([], dtype=float)]
        if index is not None:
            tables = self._matching_tables(pool_id, counter, None)
            _chunks, batches = self._parts(
                tables, *self._window_range(start, stop), index
            )
            for batch in batches:
                windows, values = batch.select(index)
                if values.size:
                    window_parts.append(windows)
                    value_parts.append(values)
        return TimeSeries(
            np.concatenate(window_parts), np.concatenate(value_parts)
        )

    def window_partials(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
        reducer: str = "mean",
    ) -> WindowPartials:
        """Per-window partials of the rows :meth:`gather_columns` reads,
        for ``reducer`` (see :class:`WindowPartials`): what every
        aggregate reduces, and all a shard sends the facade for one."""
        return WindowPartials.of(
            *self.gather_columns(pool_id, counter, datacenter_id, start, stop),
            reducer,
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

    def sample_count(self) -> int:
        """Total number of stored samples."""
        return sum(table.n_rows for table in self._tables.values())
