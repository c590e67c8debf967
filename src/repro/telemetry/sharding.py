"""Hash-partitioned sharding of the metric store.

The paper's production pipeline ingests ~3 GB/s by spreading counter
rows across many trace-store machines and merging scoped queries over
the partitions.  :class:`ShardedMetricStore` is that topology behind
one facade: N shards, rows routed by server class —
``(interned_server_index & 63) % n_shards``, so one shard holds all of
a class (:data:`~repro.telemetry.store.CLASSES`, which also caps
``n_shards`` at 64) — and one shared
:class:`~repro.telemetry.store.ServerInterner` (or a replicated copy
per remote shard) so indices — and thus query ordering — stay
globally consistent.  For a power-of-two shard count the rule is
``index % n_shards``.

Two interchangeable **backends** decide where the shards live:

``"serial"``
    N local :class:`~repro.telemetry.store.MetricStore` objects,
    appended to one after another on the caller's thread.  The
    reference the other backend must match bit-for-bit.
``"tcp"``
    Each shard is a :class:`~repro.telemetry.workers.TcpShardClient`:
    a session on a ``repro shard-server`` (one ``host:port`` per shard
    in ``shard_addrs``; the same address may repeat — every
    connection gets its own fresh store) plus one more per replica in
    ``replica_addrs``, fed coalesced ingest frames and queried over
    RPC: a read sends every shard its call frame before it reads any
    reply, so the shards answer at once.  Its duty is placement,
    capacity and failover — shard memory and query CPU live in another
    process or on another machine, and outlive a peer's death — paid
    for with one wire crossing per row.  See :mod:`repro.telemetry.workers` for the
    message protocol and ``docs/DISTRIBUTED.md`` for the wire format,
    operations and the measured cost of the seam.

**Reads** are generated from :data:`~repro.telemetry.store.READ_SURFACE`:
each row names the rule that merges the shards' answers, the same for
every backend, and each rule is one function here (:data:`MERGES`):

* ``union`` — the sorted union of names: ``pools``, ``datacenters``,
  ``counters_for_pool``, ``servers_in_pool``, ``datacenters_for_pool``,
  ``datacenters_for_pool_counter``;
* ``max`` / ``sum`` of scalars — ``max_window``; ``sample_count``
  (on tcp also the cheapest read-your-writes barrier: it flushes and
  round-trips every shard), ``hot_sample_count``;
* ``owner`` — the shard that owns the server answers alone:
  ``server_series``;
* ``shard_order`` — answers one after another: ``iter_tables`` (the
  exporter regroups rows per server, so exports are byte-identical);
* ``canonical_rows`` — per datacenter, rows concatenated and stably
  reordered by (window, server index), the order every engine appends
  in: ``gather_columns``;
* ``partials`` — per-window partial aggregates on the union of
  windows: counts add, maxima take the maximum, and each server class's
  sums are placed on zeros, never added to another shard's float,
  because a class lives on one shard: ``window_partials``, which every
  aggregate reduces;
* ``column_stack`` / ``column_stack_per_dc`` — a server's column lives
  on one shard and is placed, never combined, in index order:
  ``pool_matrix`` (rows on the union of windows), ``per_server_values``
  (per datacenter, as the single store groups it per table);
* ``facade`` — answered by the facade itself: ``evicted_before``,
  ``server_name``, and ``pool_window_aggregate`` (the tracked series
  and memo of :class:`~repro.telemetry.store._AggregateFront` over the
  merged ``window_partials``).

The per-datacenter rules ask the ``union`` read which datacenters hold
(pool, counter) rows once per ingest; the answer is memoized beside the
aggregates.

The result: every query on a :class:`ShardedMetricStore` is
**bit-identical** to the same query on a single :class:`MetricStore`
fed the same rows, in any order — for both backends, including
byte-identical archive exports — proven by
``tests/test_sharded_store.py``, ``tests/test_sim_equivalence.py`` and
the Hypothesis property in ``tests/test_window_partials.py``.
"""

from __future__ import annotations

import inspect
import threading
from functools import lru_cache
from itertools import chain, groupby
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.telemetry.transport import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_IO_TIMEOUT,
    decode_binary_ingest,
    encode_binary_ingest,
    parse_address,
)
from repro.telemetry.workers import DEFAULT_FLUSH_ROWS, TcpShardClient
from repro.telemetry.store import (
    CLASSES,
    READ_SURFACE,
    MetricStore,
    ServerInterner,
    SpillArchive,
    TurnLock,
    WindowPartials,
    _COLUMN_DTYPES,
    _AggregateFront,
    _axis,
    _check_columns,
    _concat_columns,
    _RecordVerbs,
    _TrackedAggregate,
    forward_reads,
)

#: Valid values of the ``backend`` constructor knob.
BACKENDS = ("serial", "tcp")


def _window_server_order(windows: np.ndarray, servers: np.ndarray) -> np.ndarray:
    """``np.lexsort((servers, windows))`` as one stable argsort of one
    ``int64`` key, dense window rank x (largest server index + 1) +
    server index — several times faster on concatenated shard parts,
    each already a sorted run.  Ranking the windows (:func:`_axis`)
    keeps the key in range whatever they are; server indices are
    interned, so below the interner's size."""
    base = int(windows.min())
    _uniq, rank = _axis(windows, base, int(windows.max()) - base + 1)
    return np.argsort(rank * (int(servers.max()) + 1) + servers, kind="stable")


#: A shard handle: a local store or the remote-shard client proxy (one
#: TCP session per address it mirrors the shard on).  Both expose
#: ``record_columns``, ``evict_windows`` and every :data:`READ_SURFACE`
#: read, which is what lets the facade treat "where does this shard
#: live" as a construction detail.
Shard = Union[MetricStore, TcpShardClient]


class ShardJournal:
    """Replayable log of one shard's ingest commands, spillable to disk.

    The raw material of :meth:`ShardedMetricStore.rejoin_shard`: every
    ingest command the facade dispatches to a shard is also appended
    here, so a restarted shard server can be replayed back to the
    exact pre-crash store state (commands re-run in the original
    order produce bit-identical tables).

    Memory is bounded: commands are journaled *by reference* (stores
    never mutate ingested columns, so no copy is needed), and once
    ``memory_rows`` rows are buffered the batch leaves the buffer and
    the references are dropped.  Its ``record_columns`` commands go to
    a :class:`~repro.telemetry.store.SpillArchive` as the payload the
    wire already carries them in (one kind-1 ingest frame body per run
    of consecutive commands, no names — see
    :func:`~repro.telemetry.transport.encode_binary_ingest`),
    remembered as ``(offset, nbytes)``; a command without columns
    (``evict_windows`` and its cutoff) is a few bytes and stays in the
    entry list, in position.  Steady-state memory is one batch plus
    one small entry per spill or eviction, however long the run.
    ``replay`` decodes spilled runs back by offset first, then the
    still-buffered tail, in exact append order; it holds no position
    in the log, so an abandoned replay leaves nothing behind.

    Single-owner, like the facade's ingest path; not thread-safe.
    """

    def __init__(self, memory_rows: int) -> None:
        if memory_rows < 1:
            raise ValueError("memory_rows must be >= 1")
        self._memory_rows = memory_rows
        self._commands: List[Tuple[str, tuple]] = []
        self._rows = 0
        self._log: Optional[SpillArchive] = None
        #: What left the buffer, in order: ``(None, (offset, nbytes))``
        #: for a spilled run, ``(method, args)`` for a kept command.
        self._entries: List[Tuple[Optional[str], tuple]] = []
        #: How many batches left the buffer (observable spill
        #: behaviour, asserted by the fault-tolerance tests).
        self.spilled_batches = 0

    def append(self, method: str, args: tuple, n_rows: int) -> None:
        self._commands.append((method, args))
        self._rows += n_rows
        if self._rows < self._memory_rows:
            return
        if self._log is None:
            self._log = SpillArchive()
        entries: List[Tuple[Optional[str], tuple]] = []
        for has_columns, run in groupby(
            self._commands, key=lambda command: command[0] == "record_columns"
        ):
            if has_columns:
                # The frame without its header: what the decoder takes.
                batches = [columns for _method, columns in run]
                payload = encode_binary_ingest([], batches)[1:]
                nbytes = sum(len(buffer) for buffer in payload)
                entries.append((None, (self._log.append(payload), nbytes)))
            else:
                entries.extend(run)
        # Only now, every write done, does the batch change hands.
        self._entries += entries
        self._commands = []
        self._rows = 0
        self.spilled_batches += 1

    def replay(self) -> Iterator[Tuple[str, tuple]]:
        """Yield every journaled ``(method, args)`` in append order."""
        for method, args in self._entries:
            if method is None:
                _tag, _names, commands = decode_binary_ingest(
                    self._log.read(*args)
                )
                for command in commands:
                    yield "record_columns", command
            else:
                yield method, args
        yield from list(self._commands)

    def close(self) -> None:
        """Drop the buffer and delete the spill file; idempotent."""
        if self._log is not None:
            self._log.close()
            self._log = None
        self._entries = []
        self._commands = []
        self._rows = 0


def _shard_member_addresses(
    shard_addrs: Sequence[str],
    replica_addrs: Optional[Sequence],
) -> List[Tuple[str, ...]]:
    """Resolve the tcp topology: per shard, (primary, *replicas).

    ``replica_addrs`` must align with ``shard_addrs`` when given; each
    entry is one ``host:port``, a sequence of them, or ``None``/``""``
    for an un-replicated shard.  Every address is parse-validated here,
    before anything is dialled.
    """
    if replica_addrs is not None and len(replica_addrs) != len(shard_addrs):
        raise ValueError(
            f"replica_addrs must align with shard_addrs "
            f"({len(replica_addrs)} != {len(shard_addrs)})"
        )
    members: List[Tuple[str, ...]] = []
    for shard_id, address in enumerate(shard_addrs):
        parse_address(address)
        addresses = [address]
        if replica_addrs is not None:
            entry = replica_addrs[shard_id]
            replicas = (
                []
                if entry is None or entry == ""
                else [entry] if isinstance(entry, str) else list(entry)
            )
            for replica in replicas:
                parse_address(replica)
            addresses.extend(replicas)
        members.append(tuple(addresses))
    return members


# ----------------------------------------------------------------------
# Read merges: one function per rule of the module docstring, each
# called as rule(facade, read name, args, kwargs)
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _signature(name: str) -> inspect.Signature:
    """The read's parameters on :class:`MetricStore`, ``self`` dropped."""
    signature = inspect.signature(getattr(MetricStore, name))
    return signature.replace(parameters=list(signature.parameters.values())[1:])


def _bind(name: str, args: tuple, kwargs: dict) -> inspect.BoundArguments:
    """A read's arguments by parameter name, defaults filled in."""
    call = _signature(name).bind(*args, **kwargs)
    call.apply_defaults()
    return call


def _answers(facade, name, args, kwargs) -> list:
    """Every shard's answer to one read, in shard order.

    On tcp the read is scattered, then gathered: every shard's call
    frame is sent before any reply is read, so the shards compute at
    once.  A failure — an ``err`` reply, a shard whose last session
    died — is raised only once every reply already asked for has been
    read, so no session is left holding one.
    """
    if facade._backend != "tcp":
        if READ_SURFACE[name][0]:
            return [getattr(shard, name) for shard in facade._shards]
        return [getattr(shard, name)(*args, **kwargs) for shard in facade._shards]
    sent, failure = [], None
    for shard in facade._shards:
        try:
            sent.append((shard, shard.send_call(name, args, kwargs)))
        except Exception as error:  # noqa: BLE001 — raised below
            failure = error
            break
    answers = []
    for shard, ticket in sent:
        try:
            answers.append(shard.receive(ticket))
        except Exception as error:  # noqa: BLE001 — raised below
            failure = failure or error
    if failure is not None:
        raise failure
    return answers


def _per_datacenter(facade, name, args, kwargs) -> List[Tuple[tuple, dict]]:
    """The read's arguments once per datacenter it covers, sorted: the
    one it names, else each that holds (pool, counter) rows."""
    call = _bind(name, args, kwargs)
    scope = call.arguments
    if scope["datacenter_id"] is not None:
        return [(call.args, call.kwargs)]
    key = ("datacenters", scope["pool_id"], scope["counter"])
    if key not in facade._agg_cache:
        facade._agg_cache[key] = facade.datacenters_for_pool_counter(
            scope["pool_id"], scope["counter"]
        )
    calls = []
    for dc in facade._agg_cache[key]:
        scope["datacenter_id"] = dc
        calls.append((call.args, call.kwargs))
    return calls


def _union_sorted(facade, name, args, kwargs) -> Tuple[str, ...]:
    return tuple(sorted(set().union(*_answers(facade, name, args, kwargs))))


def _max(facade, name, args, kwargs):
    return max(_answers(facade, name, args, kwargs))


def _sum(facade, name, args, kwargs):
    return sum(_answers(facade, name, args, kwargs))


def _owner(facade, name, args, kwargs):
    # An unknown server is asked of shard 0, which knows it no better.
    server_id = _bind(name, args, kwargs).arguments["server_id"]
    shard = facade.shard_of(facade._interner.index.get(server_id, 0))
    return getattr(facade._shards[shard], name)(*args, **kwargs)


def _shard_order(facade, name, args, kwargs) -> Iterator:
    # Lazily, so a local shard's tables are gathered one at a time.
    return chain.from_iterable(
        getattr(shard, name)(*args, **kwargs) for shard in facade._shards
    )


def _canonical_rows(facade, name, args, kwargs) -> Tuple[np.ndarray, ...]:
    merged = []
    for dc_args, dc_kwargs in _per_datacenter(facade, name, args, kwargs):
        parts = [
            part for part in _answers(facade, name, dc_args, dc_kwargs)
            if part[0].size
        ]
        if parts:
            columns = _concat_columns(parts)
            order = _window_server_order(columns[0], columns[1])
            merged.append(tuple(column[order] for column in columns))
    if not merged:
        return tuple(np.array([], dtype=dtype) for dtype in _COLUMN_DTYPES)
    return tuple(np.concatenate(column) for column in zip(*merged))


def _partials(facade, name, args, kwargs) -> WindowPartials:
    answers = _answers(facade, name, args, kwargs)
    parts = [part for part in answers if part.windows.size]
    if len(parts) < 2:
        return parts[0] if parts else answers[0]
    windows = np.unique(np.concatenate([part.windows for part in parts]))
    classes = np.sort(np.concatenate([part.classes for part in parts]))
    counts = np.zeros(windows.size, dtype=np.int64)
    sums = np.zeros((classes.size, windows.size))
    maxima = np.full(windows.size if parts[0].maxima.size else 0, -np.inf)
    for part in parts:
        at = np.searchsorted(windows, part.windows)
        counts[at] += part.counts
        if part.classes.size:
            rows = np.searchsorted(classes, part.classes)
            sums[np.ix_(rows, at)] += part.sums
        if maxima.size:
            before = maxima[at]
            merged = np.maximum(before, part.maxima)
            # The IEEE maximum of two zeros is their sum: +0.0 unless
            # both are -0.0, as WindowPartials.of decides within a shard.
            zeros = (before == 0) & (part.maxima == 0)
            merged[zeros] = before[zeros] + part.maxima[zeros]
            maxima[at] = merged
    return WindowPartials(windows, counts, classes, sums, maxima)


def _column_stack(facade, name, args, kwargs):
    index_of = facade._interner.index
    parts = []  # (windows, server index array, matrix) per shard
    for windows, names, matrix in _answers(facade, name, args, kwargs):
        if matrix.size:
            indices = np.array([index_of[n] for n in names], dtype=np.int64)
            parts.append((windows, indices, matrix))
    if not parts:
        return np.array([], dtype=np.int64), (), np.empty((0, 0), dtype=float)
    all_windows = parts[0][0]
    for windows, _indices, _matrix in parts[1:]:
        all_windows = np.union1d(all_windows, windows)
    all_servers = np.sort(np.concatenate([p[1] for p in parts]))
    out = np.full((all_windows.size, all_servers.size), np.nan)
    for windows, indices, matrix in parts:
        row_pos = np.searchsorted(all_windows, windows)
        col_pos = np.searchsorted(all_servers, indices)
        out[np.ix_(row_pos, col_pos)] = matrix
    names = tuple(facade.server_name(int(i)) for i in all_servers)
    return all_windows, names, out


def _column_stack_per_dc(facade, name, args, kwargs) -> Dict[str, np.ndarray]:
    index_of = facade._interner.index
    out: Dict[str, np.ndarray] = {}
    for dc_args, dc_kwargs in _per_datacenter(facade, name, args, kwargs):
        columns: Dict[str, np.ndarray] = {}
        for answer in _answers(facade, name, dc_args, dc_kwargs):
            columns.update(answer)
        for server in sorted(columns, key=index_of.__getitem__):
            out[server] = columns[server]
    return out


#: The closed set of merge rules a :data:`READ_SURFACE` row may name,
#: besides ``"facade"`` (a read :class:`ShardedMetricStore` answers
#: itself).
MERGES = {
    "union": _union_sorted,
    "max": _max,
    "sum": _sum,
    "owner": _owner,
    "shard_order": _shard_order,
    "canonical_rows": _canonical_rows,
    "partials": _partials,
    "column_stack": _column_stack,
    "column_stack_per_dc": _column_stack_per_dc,
}


@forward_reads("_merge", skip="facade")
class ShardedMetricStore(_RecordVerbs, _AggregateFront):
    """N hash-partitioned metric-store shards behind one facade.

    Drop-in replacement for a single :class:`MetricStore`: the public
    surface (interning, ``record*`` ingest, every query, and
    :meth:`iter_tables` for the archive exporter) matches.  Query
    results are bit-identical to a single store fed the same batches,
    in any row order and independent of ``backend``: aggregates merge
    per-class partials (:class:`~repro.telemetry.store.WindowPartials`),
    and every other read places rows or columns it never combines.

    Parameters
    ----------
    n_shards:
        Number of partitions, at most 64.  Rows are routed by server
        class, ``(server_index & 63) % n_shards``, so one server's
        history — and all of its class's — lives on one shard.
    backend:
        ``"serial"`` or ``"tcp"`` (see the module docstring for the
        trade-offs).  ``None`` (default) means ``"serial"``.
    flush_rows:
        TCP backend only: how many buffered rows trigger one coalesced
        ingest message to a shard (see :meth:`TcpShardClient.flush`).
        Smaller values lower peak memory; larger values amortise
        encoding better.
    shard_addrs:
        TCP backend only (and required by it): one ``host:port`` per
        shard, each dialled as its own ``repro shard-server`` session.
        Addresses may repeat — every connection gets an independent
        store on the server — and ``n_shards`` is taken from
        ``len(shard_addrs)``.
    connect_timeout:
        TCP backend only: how long each shard connection retries a
        refused dial before failing (covers starting client and
        server concurrently).
    io_timeout:
        TCP backend only: per-operation socket bound (seconds).  A
        send or recv that makes no progress for this long raises a
        per-shard ``RuntimeError`` naming the shard and address
        instead of hanging on a hung-but-alive peer; ``None`` (or
        ``<= 0``) disables the bound.
    replica_addrs:
        TCP backend only: replica addresses aligned with
        ``shard_addrs`` — entry *i* is the replica (a ``host:port``
        string) or replica set (a sequence of them) mirroring shard
        *i*; ``None`` or ``""`` entries leave that shard
        un-replicated.  The shard's one client sends every ingest
        frame to each of its sessions, so when a primary dies or hangs
        (the per-shard timeout/EOF errors) queries and further ingest
        fail over to a live replica with **bit-identical** results —
        every live session has been sent the same frames, so failover
        is invisible in every answer and export.  The run only fails
        when a shard's *last* session dies.
    journal_rows:
        TCP backend only: enable the per-shard ingest journal that
        :meth:`rejoin_shard` replays into a restarted shard server,
        keeping at most this many rows buffered in memory per shard
        before spilling the batch to an anonymous temp file.  ``None``
        (default) disables journaling — and with it ``rejoin_shard``
        — at zero cost.

    A store with remote shards owns connections, so treat it like a
    file: use the context-manager form or call :meth:`close` when
    done.  ``close`` is idempotent and fork-safe, and ingest after it
    raises a clean ``RuntimeError``.
    """

    def __init__(
        self,
        n_shards: int = 4,
        backend: Optional[str] = None,
        flush_rows: int = DEFAULT_FLUSH_ROWS,
        shard_addrs: Optional[Sequence[str]] = None,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        io_timeout: Optional[float] = DEFAULT_IO_TIMEOUT,
        replica_addrs: Optional[Sequence] = None,
        journal_rows: Optional[int] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if backend is None:
            backend = "serial"
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if backend == "tcp":
            if not shard_addrs:
                raise ValueError(
                    "backend='tcp' requires shard_addrs (one host:port "
                    "per shard)"
                )
            # Validate the whole topology — primaries and replicas —
            # before dialling anything: a typo in address 3 must not
            # leave sessions 0-2 connected to servers that will never
            # get a stop message.
            shard_addresses = _shard_member_addresses(shard_addrs, replica_addrs)
            n_shards = len(shard_addresses)
            if journal_rows is not None and journal_rows < 1:
                raise ValueError("journal_rows must be >= 1 (or None)")
        else:
            if shard_addrs is not None:
                raise ValueError(
                    "shard_addrs is only meaningful with backend='tcp'"
                )
            if replica_addrs is not None:
                raise ValueError(
                    "replica_addrs is only meaningful with backend='tcp'"
                )
            if journal_rows is not None:
                raise ValueError(
                    "journal_rows is only meaningful with backend='tcp'"
                )
        if n_shards > CLASSES:
            raise ValueError(
                f"n_shards must be <= {CLASSES}, the number of server "
                f"classes a shard owns whole; got {n_shards}"
            )
        self._backend = backend
        self._interner = ServerInterner()
        self._tcp_kwargs = dict(
            flush_rows=flush_rows,
            connect_timeout=connect_timeout,
            io_timeout=io_timeout,
        )
        self._journals: Optional[List[ShardJournal]] = (
            [ShardJournal(journal_rows) for _ in range(n_shards)]
            if backend == "tcp" and journal_rows is not None
            else None
        )
        self._shards: List[Shard]
        if backend == "tcp":
            self._shards = []
            try:
                for shard_id, addresses in enumerate(shard_addresses):
                    self._shards.append(self._dial_shard(shard_id, addresses))
            except BaseException:
                # A later dial failed: say goodbye to the sessions
                # already opened instead of leaking them server-side.
                for shard in self._shards:
                    try:
                        shard.close()
                    except Exception:  # pragma: no cover - best effort
                        pass
                raise
        else:
            self._shards = [
                MetricStore(interner=self._interner) for _ in range(n_shards)
            ]
        #: Reads memoized until the next ingest: aggregates, and the
        #: datacenter lists of the per-datacenter merges.
        self._agg_cache: Dict[Tuple, object] = {}
        #: Streaming state mirrored at the facade: the eviction
        #: watermark applied to every shard, and the incrementally
        #: maintained aggregate series (facade-merged, so they are
        #: bit-identical to the unsharded store's tracked series).
        self._evicted_before: int = 0
        self._tracked: Dict[Tuple, _TrackedAggregate] = {}
        self._lifecycle_lock = threading.Lock()
        self._closed = False
        #: Synchronization seam for concurrent readers (the live query
        #: server) — same contract as :attr:`MetricStore.lock`: the
        #: facade stays single-owner, a streaming writer holds the lock
        #: across each block span and readers take it per query.
        self._lock = TurnLock()
        # One-entry partition memo: the blocked engine hands the same
        # (windows, server_indices) array pair to record_columns once
        # per counter, so the shard routing of a block is computed once
        # and reused ~a-dozen times.  Holding strong references to the
        # keyed arrays keeps the identity check sound (their ids cannot
        # be recycled while cached).
        self._partition_cache: Optional[Tuple] = None

    @property
    def lock(self) -> TurnLock:
        """Reentrant lock serializing a clock-loop writer and readers.

        Queries on the tcp backend flush shard ingest buffers, so a
        reader thread must never interleave with the writer's block —
        the streaming loop holds this across each ingest→seal→evict
        span and :class:`~repro.telemetry.query_server.\
LiveQuerySurface` takes it around every read.
        """
        return self._lock

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def backend(self) -> str:
        """The shard placement backend: serial or tcp."""
        return self._backend

    @property
    def shards(self) -> Tuple[Shard, ...]:
        """The underlying shard handles (read-only view, for tests).

        Local :class:`MetricStore` objects for the serial backend,
        :class:`TcpShardClient` proxies for tcp (one per shard, however
        many replicas mirror it) — both answer the same query methods,
        the proxies over RPC.
        """
        return tuple(self._shards)

    def shard_of(self, server_index: int) -> int:
        """The shard that owns a server's rows (any backend): its
        class's, ``(server_index & 63) % n_shards``."""
        return (server_index & (CLASSES - 1)) % len(self._shards)

    def _dial_shard(self, shard_id: int, addresses: Tuple[str, ...]) -> Shard:
        """Connect one tcp shard: one session per address, primary first."""
        return TcpShardClient(
            shard_id, self._interner, addresses, **self._tcp_kwargs
        )

    def rejoin_shard(self, shard_id: int, address: Optional[str] = None) -> None:
        """Re-attach a restarted shard server and replay its journal.

        The recovery path for the tcp backend: after shard
        ``shard_id``'s server died (its queries raise the per-shard
        connection error) and was restarted — on the same address or,
        with ``address``, somewhere new — this drops the dead session,
        dials a fresh one, sends the ``resync`` RPC (the serve loop
        swaps in an empty store and receives the *full* interner name
        table), and replays every journaled ingest command in original
        order.  The rejoined shard's store is then **bit-identical**
        to the pre-crash one: same commands, same order, same tables —
        every query and export answers as if the crash never happened.

        Requires ``journal_rows`` (journaling) to have been enabled at
        construction; raises ``RuntimeError`` otherwise.  For a
        replicated shard every session is re-dialled and re-seeded.
        On any failure the half-built client is closed and the old
        (dead) handle stays in place, so ``rejoin_shard`` can simply
        be retried.
        """
        self._ensure_open()
        if self._backend != "tcp":
            raise ValueError("rejoin_shard requires backend='tcp'")
        if not 0 <= shard_id < len(self._shards):
            raise ValueError(
                f"shard_id {shard_id} out of range "
                f"(store has {len(self._shards)} shards)"
            )
        if self._journals is None:
            raise RuntimeError(
                "rejoin_shard requires the ingest journal — construct "
                "the store with journal_rows=N"
            )
        old = self._shards[shard_id]
        addresses = (
            (address,) if address is not None else tuple(old.addresses)
        )
        for member in addresses:
            parse_address(member)
        try:
            old.close()
        except Exception:  # pragma: no cover - dead peer teardown
            pass
        client = self._dial_shard(shard_id, addresses)
        try:
            client.resync()
            for method, args in self._journals[shard_id].replay():
                getattr(client, method)(*args)
            client.flush()
        except BaseException:
            try:
                client.close()
            except Exception:  # pragma: no cover - best effort
                pass
            raise
        self._shards[shard_id] = client
        self._agg_cache.clear()

    def close(self) -> None:
        """Release backend resources; idempotent and fork-safe.

        TCP backend: ends every shard session (graceful ``stop``
        message), after which the store no longer answers queries —
        archive first.  Calling ``close`` a second time is a no-op, and
        from a process that forked after construction it only releases
        the inherited descriptors: only the creating process ever ends
        a session, so a forked child closing its copy cannot yank live
        shards out from under the parent.

        ``close`` may also race an in-flight ingest on another thread:
        the closed flag is a lock-guarded test-and-set, and the racing
        ``record_*`` call either runs to completion or raises a clean
        ``RuntimeError`` — never a torn shard state.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
        if self._backend == "tcp":
            for shard in self._shards:
                shard.close()
        if self._journals is not None:
            for journal in self._journals:
                journal.close()

    def __enter__(self) -> "ShardedMetricStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def flush(self) -> None:
        """Force buffered remote ingest out (tcp backend).

        No-op for serial, where appends are synchronous.  Not
        normally needed — every query flushes the shard it reads — but
        useful to bound parent-side buffer memory at a known point.
        Frames are sent on the caller's thread; ``sendall`` under
        ``io_timeout`` is the backpressure against a slow shard.
        """
        if self._backend == "tcp":
            for shard in self._shards:
                shard.flush()

    def _ensure_open(self) -> None:
        """Ingest guard: a closed store must fail loudly, not race.

        Raised eagerly on every ``record_*`` entry point so the tcp
        backend cannot write to a torn-down connection.
        """
        if self._closed:
            raise RuntimeError("ShardedMetricStore is closed")

    # ------------------------------------------------------------------
    # Ingest (shard fan-out)
    # ------------------------------------------------------------------
    def record_columns(
        self,
        pool_id: str,
        datacenter_id: str,
        counter: str,
        windows: np.ndarray,
        server_indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Partition pre-columnised rows by server index and append.

        Same contract as :meth:`MetricStore.record_columns`; the
        relative row order within each shard is preserved, which is
        what keeps shard tables in the canonical (window, server)
        order the merge layer relies on — for the tcp backend too,
        because each serve loop applies its command stream FIFO.  With
        remote shards the partitioned arrays are buffered and later
        sent once each; with serial they are appended to local chunk
        lists with no copy.
        """
        self._ensure_open()
        windows, server_indices, values = _check_columns(
            windows, server_indices, values
        )
        if values.size == 0:
            return
        n = len(self._shards)
        parts: List[Tuple[int, tuple]]
        if n == 1:
            parts = [(0, (pool_id, datacenter_id, counter, windows,
                          server_indices, values))]
        else:
            cached = self._partition_cache
            if (
                cached is None
                or cached[0] is not windows
                or cached[1] is not server_indices
            ):
                # Route rows to shards once per distinct column pair.
                # Row positions (flatnonzero) rather than boolean masks:
                # the per-counter value gather then only touches the
                # selected rows.  The gathered windows/index arrays are
                # shared by every counter of the block, which is safe
                # for the same reason the unsharded store may receive
                # one windows array for all counters: stores never
                # mutate ingested columns.
                shard_ids = (server_indices & (CLASSES - 1)) % n
                routing = []
                for shard_id in range(n):
                    rows = np.flatnonzero(shard_ids == shard_id)
                    if rows.size == 0:
                        continue
                    routing.append(
                        (shard_id, rows, windows[rows], server_indices[rows])
                    )
                cached = (windows, server_indices, routing)
                self._partition_cache = cached
            parts = [
                (
                    shard_id,
                    (pool_id, datacenter_id, counter, shard_windows,
                     shard_indices, values[rows]),
                )
                for shard_id, rows, shard_windows, shard_indices in cached[2]
            ]
        if self._journals is not None:
            # Journal before dispatch: rows being sent to a shard that
            # dies mid-dispatch must still be replayable.
            for shard_id, args in parts:
                self._journals[shard_id].append(
                    "record_columns", args, int(args[5].size)
                )
        for shard_id, args in parts:
            self._shards[shard_id].record_columns(*args)
        if self._agg_cache:
            self._agg_cache.clear()

    # ------------------------------------------------------------------
    # Streaming: rolling retention and incremental aggregates
    # ------------------------------------------------------------------
    @property
    def evicted_before(self) -> int:
        """Windows below this index live in shard spill archives."""
        return self._evicted_before

    def evict_windows(self, before: int) -> int:
        """Move rows with ``window < before`` to every shard's spill.

        Same contract as :meth:`MetricStore.evict_windows`, fanned out
        to all shards (each shard owns its servers' rows, so the union
        of shard evictions is exactly the unsharded eviction).  The
        command is journaled like ingest, so a rejoined shard replays
        its eviction history and reproduces the same hot/spill split.
        Returns the total rows evicted across shards.
        """
        self._ensure_open()
        if before <= self._evicted_before:
            return 0
        if self._journals is not None:
            for journal in self._journals:
                journal.append("evict_windows", (before,), 0)
        evicted = 0
        for shard in self._shards:
            evicted += int(shard.evict_windows(before) or 0)
        self._evicted_before = before
        if evicted and self._agg_cache:
            self._agg_cache.clear()
        return evicted

    # ------------------------------------------------------------------
    # Reads: generated from READ_SURFACE, merged by each row's rule
    # ------------------------------------------------------------------
    def _merge(self, name: str, *args, **kwargs):
        """Every generated read: the shards' answers, merged by the rule
        the name's :data:`READ_SURFACE` row names (:data:`MERGES`)."""
        return MERGES[READ_SURFACE[name][1]](self, name, args, kwargs)
