"""Remote shards: TCP shard servers behind one client and one protocol.

The paper's pipeline spreads its ~3 GB/s counter stream across many
trace-store *machines*; :class:`~repro.telemetry.sharding.\
ShardedMetricStore` reproduces the partitioning in-process, and this
module moves each partition behind a real placement boundary.  The
shape is the classic actor: one
:class:`~repro.telemetry.store.MetricStore` owned by a serve loop on
the far side of a :class:`~repro.telemetry.transport.TcpTransport`
connection, a command channel in front of it, and a client-side proxy
object whose query methods are generated from the store's one read
table (:data:`~repro.telemetry.store.READ_SURFACE`) — the facade
cannot tell a remote shard from a local one.

:class:`TcpShardClient` / :class:`ShardServer`
    One TCP session per shard.  A :class:`ShardServer` — also exposed
    as the ``repro shard-server`` CLI command — accepts any number of
    sessions and gives each one its own fresh ``MetricStore``, so *one
    connection is one shard* and a facade pointed at
    ``host:port,host:port,...`` has true multi-machine shards.  The
    ``"tcp"`` backend.  Client and server must run the same tree:
    there is no version negotiation on the wire.

Message protocol (one connection per shard, all messages tuples,
strictly FIFO; the wire encoding is the transport's business):

``("ingest", names, commands)``
    Fire-and-forget bulk append.  ``commands`` is a list of
    ``(pool, datacenter, counter, windows, server_indices, values)``
    tuples — the arguments of one ``record_columns`` call each —
    applied in order by the serve loop.  Small parts coalesce: the
    proxy buffers commands until ``flush_rows`` rows are pending (or a
    query/close forces a flush), so one message amortises encoding
    and wakeup cost across many appends.  This is the one message that
    never crosses as pickle (see :mod:`repro.telemetry.transport`).
``("call", names, method, args, kwargs)``
    Synchronous query RPC.  The serve loop answers only a ``method``
    the served object declares — the read table plus
    :data:`SHARD_EXTRAS` for a shard session — resolving it on its
    store (plain attributes answer property reads, generators are
    materialised into lists so they can cross the connection), and
    replies ``("ok", result)`` or ``("err", exception)``; any other
    name is an ``AttributeError`` reply that never reaches
    ``getattr``.  Any exception a previous *ingest* message raised is
    delivered here instead — ingest errors are deferred, never lost.
``("stop",)``
    Graceful shutdown of this session; so is a clean EOF (the client
    vanishing ends the session, never the server).

One method name is reserved: ``resync`` makes the serve loop drop this
session's store and start over from the client's authoritative state —
the *full* interner name table rides the resync call's names field
(not a delta), and the client follows up with ordinary ingest frames
replaying its journal.  This is the rejoin path for a restarted shard
server: the rebuilt session reconverges to the exact pre-crash store
state (see
:meth:`~repro.telemetry.sharding.ShardedMetricStore.rejoin_shard`).

**Replication**: :class:`ReplicatedShardClient` mirrors one shard
across several TCP sessions (a primary plus replicas).  Every ingest
call fans out to every live member, so each member buffers and
coalesces the identical command stream into identical frames; queries
are answered by the first live member.  When a member dies or times
out (a :class:`ShardConnectionError`) it is retired and the survivors
carry on: queries and subsequent ingest fail over with
**bit-identical** answers, because every member's store consumed the
same calls in the same order.  Only when every member of a shard has
failed does the error reach the caller.

**Sending**: a proxy's ``flush`` encodes and sends the coalesced frame
on the caller's thread.  ``sendall`` under ``io_timeout`` is the
backpressure against a slow shard, and a dead or timed-out peer raises
the per-shard :class:`ShardConnectionError` from the very ``flush`` or
query that hit it.  Every query RPC flushes first, so reads observe
all previously buffered ingest.

``names`` on every message is the **interner delta**: the slice of
server names the parent interned since the previous message.  The
serve loop replays the slice into its own
:class:`~repro.telemetry.store.ServerInterner`, so both sides agree on
the global id space without sharing memory — ingest ships only
``int64`` index columns, and name-returning queries
(``per_server_values``, ``pool_matrix``, ``servers_in_pool``) still
answer with the right strings.

Cost model: every row crosses the placement boundary exactly once as
part of an ``int64``/``float64`` column (~24 bytes/row of payload),
and every query result crosses back once.  On a single host that
serialisation is pure overhead — the serial backend exists for exactly
that reason — but a remote shard keeps its entire store, freeze, and
aggregate-cache workload off the simulating process, which is what
pays once shards outgrow one core or one host.

Equivalence: a remote shard applies the identical ``record_columns``
calls in the identical order a local shard would see, so its tables —
and therefore every query answer and export — are bit-identical to the
serial backend's.  ``tests/test_sharded_store.py`` and
``tests/test_sim_equivalence.py`` enforce this for both backends.
"""

from __future__ import annotations

import os
import socket
import threading
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.store import (
    READ_SURFACE,
    MetricStore,
    ServerInterner,
    _check_columns,
    forward_reads,
)
from repro.telemetry.transport import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_IO_TIMEOUT,
    TcpTransport,
    format_address,
)

#: Default number of pending rows that triggers an ingest flush.
DEFAULT_FLUSH_ROWS = 65536

#: How long ``ShardServer.stop`` waits for a thread to exit (seconds).
_JOIN_TIMEOUT = 5.0

#: What a shard session answers beside the read table: the one mutator
#: the facade sends as a ``call`` (it rides the ordered command stream
#: and returns a count), and the reserved session-level ``resync``.
SHARD_EXTRAS = ("evict_windows", "resync")
SHARD_CALLS = frozenset(READ_SURFACE).union(SHARD_EXTRAS)


def serve_shard(transport, store: Optional[MetricStore] = None) -> None:
    """Serve one shard session: own one ``MetricStore``, drain messages.

    The far half of the actor, run by a :class:`ShardServer` session
    thread.  Runs until a ``("stop",)`` message, a clean EOF (the
    client closed), a transport error (the client died or sent a frame
    that does not decode), or a message that is none of ingest / a
    well-formed call / stop (the peer is not speaking the protocol) —
    each ends this session only.  The transport is closed on every
    exit path, so the peer of a broken session sees EOF instead of
    waiting out its ``io_timeout``.  Ingest exceptions are remembered
    and surfaced on the next ``call`` so the fire-and-forget fast path
    never needs an acknowledgement round trip.

    A ``call`` is answered only for a name the served object declares:
    its ``rpc_names`` if it has one (the live query surface), else
    :data:`SHARD_CALLS`.  Any other name — mutators, dunders and
    underscore attributes included — is an ``AttributeError`` reply
    that never reaches ``getattr``, and the session keeps serving.
    """
    store = store if store is not None else MetricStore()
    allowed = getattr(store, "rpc_names", SHARD_CALLS)
    deferred: Optional[BaseException] = None
    try:
        while True:
            try:
                message = transport.recv()
            except (EOFError, OSError):
                break
            # A non-tuple falls through with the other unknown tags.
            kind = message[0] if isinstance(message, tuple) and message else None
            if kind == "ingest":
                _replay_names(store.interner, message[1])
                try:
                    for command in message[2]:
                        store.record_columns(*command)
                except BaseException as error:  # noqa: BLE001 — re-raised on next call
                    deferred = error
            elif kind == "call" and _well_formed_call(message):
                _kind, names, method, args, kwargs = message
                if method == "resync" and method in allowed:
                    # Session-level rejoin: drop whatever this session's
                    # store holds and rebuild from the client's
                    # authoritative state.  The *full* interner name table
                    # rides this message (the client reset its delta
                    # counter), so it must replay into the fresh store,
                    # not the one being discarded; the journal replay
                    # follows as ordinary ingest frames.
                    store, deferred = MetricStore(), None
                _replay_names(store.interner, names)
                if deferred is not None:
                    reply, deferred = ("err", deferred), None
                elif method not in allowed:
                    reply = ("err", AttributeError(
                        f"{method!r} is not a name this session answers"
                    ))
                elif method == "resync":
                    reply = ("ok", True)
                else:
                    try:
                        attr = getattr(store, method)
                        result = attr(*args, **kwargs) if callable(attr) else attr
                        if isinstance(result, Iterator):
                            result = list(result)
                        reply = ("ok", result)
                    except BaseException as error:  # noqa: BLE001
                        reply = ("err", error)
                if not _send_reply(transport, reply):
                    break
            else:  # "stop", or a peer not speaking the protocol
                break
    finally:
        transport.close()


def _well_formed_call(message: tuple) -> bool:
    """Is this ``("call", names, method, args, kwargs)`` with a list of
    string names, a string method, a tuple and a dict?  Anything else
    is a peer not speaking the protocol, not a query to answer."""
    if len(message) != 5:
        return False
    _kind, names, method, args, kwargs = message
    return (
        isinstance(names, list)
        and all(isinstance(name, str) for name in names)
        and isinstance(method, str)
        and isinstance(args, tuple)
        and isinstance(kwargs, dict)
    )


def _replay_names(interner: ServerInterner, names: List[str]) -> None:
    """Append the parent's interner delta, preserving global indices."""
    for name in names:
        interner.intern(name)


def _send_reply(transport, reply) -> bool:
    """Send an RPC reply; ``False`` means the client is gone.

    A client that died with a call in flight must end the session
    (the loop breaks and closes the transport) rather than crash the
    serving thread; a reply payload that cannot be pickled degrades
    to an ``err`` naming the problem so the client still gets an
    answer.
    """
    try:
        transport.send(reply)
        return True
    except (EOFError, OSError):
        return False
    except Exception as error:  # unpicklable result/exception
        try:
            transport.send(("err", RuntimeError(repr(error))))
            return True
        except (EOFError, OSError):  # pragma: no cover - client died too
            return False


class ShardConnectionError(RuntimeError):
    """A shard's connection died, reset, or timed out.

    The error every shard client raises on the connection failure
    paths (peer vanished → ``EOFError``/``OSError``, hung-but-alive peer
    → ``TimeoutError``), distinct from exceptions the *remote store*
    raised and shipped back (a bad query argument is a ``ValueError``
    here exactly as it would be locally).  The distinction is what
    replication keys failover on: a connection-level failure means
    "try another member", a store-level exception means the call
    itself was wrong and every member would answer the same.
    Subclasses ``RuntimeError``, so pre-replication callers that
    caught ``RuntimeError`` keep working unchanged.
    """


def _connection_lost(
    peer: str, io_timeout: Optional[float], error: BaseException
) -> ShardConnectionError:
    """The named error for a dead (EOF/reset) or hung (timeout) peer."""
    if isinstance(error, TimeoutError):
        bound = f" after {io_timeout:g}s" if io_timeout is not None else ""
        return ShardConnectionError(
            f"{peer}: I/O timed out{bound} — peer is alive but not "
            f"making progress"
        )
    return ShardConnectionError(f"{peer}: connection lost")


def round_trip(
    transport, peer: str, io_timeout: Optional[float], request: tuple
) -> Any:
    """Send one ``call`` frame and return what the reply carries.

    The one client half of the RPC, shared by :class:`TcpShardClient`
    and :class:`~repro.telemetry.query_server.QueryClient`: a dead or
    hung peer becomes a :class:`ShardConnectionError` naming ``peer``;
    an ``err`` reply re-raises the exception the far side shipped.
    """
    try:
        transport.send(request)
        kind, payload = transport.recv()
    except (EOFError, OSError) as error:
        raise _connection_lost(peer, io_timeout, error) from error
    if kind == "err":
        raise payload
    return payload


@forward_reads("call")
class _ShardQuerySurface:
    """The query half of the remote-shard proxy surface.

    Every :data:`~repro.telemetry.store.READ_SURFACE` name is generated
    as a forward through ``self.call`` (provided by the subclass) —
    shared by :class:`TcpShardClient` (one session) and
    :class:`ReplicatedShardClient` (a failover group), so the facade
    cannot tell them, or a local store, apart.  ``iter_tables`` comes
    back as the list the serve loop materialised: one pickle of the
    shard's full columns, paid once per export.
    """

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        raise NotImplementedError

    def evict_windows(self, before: int) -> int:
        """Evict windows below ``before`` on the remote store.

        Rides the ordered command stream like ingest (``call`` flushes
        buffered rows first), so eviction observes every previously
        ingested row.
        """
        return self.call("evict_windows", before)


class TcpShardClient(_ShardQuerySurface):
    """Client-side proxy to one ``MetricStore`` session on a
    :class:`ShardServer`.

    Duck-types the slice of the :class:`MetricStore` surface the
    sharded facade uses — buffered ``record_columns`` ingest plus
    every query and introspection method — so
    :class:`~repro.telemetry.sharding.ShardedMetricStore` can hold
    remote-shard handles where it would otherwise hold local stores.
    All answers are bit-identical to a local shard fed the same calls
    (the serve loop applies the same calls in the same order); the
    difference is purely *where* the rows live and the one wire
    crossing each row (ingest) and each result (query) pays.

    Dials ``address`` eagerly in ``__init__`` (with the transport's
    refused-connection retry window, so starting client and server
    "at the same time" works) and owns exactly one server session —
    the server made a fresh store when this connection arrived and
    will drop it when the connection ends.  A vanished server surfaces
    as a ``RuntimeError`` naming the address, and ``io_timeout`` bounds
    every socket operation so even a hung-but-alive server is an error
    naming the shard and address — never a hang.

    Not thread-safe: one owner (the facade) talks to one shard.
    :meth:`close` is idempotent and fork-safe: a forked copy of the
    proxy only drops its inherited descriptor — the session belongs to
    the original owner, and ending it from the fork would yank a live
    store out from under that owner.
    """

    def __init__(
        self,
        shard_id: int,
        interner: ServerInterner,
        address: str,
        flush_rows: int = DEFAULT_FLUSH_ROWS,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        io_timeout: Optional[float] = DEFAULT_IO_TIMEOUT,
    ) -> None:
        if flush_rows < 1:
            raise ValueError("flush_rows must be >= 1")
        if io_timeout is not None and io_timeout <= 0:
            io_timeout = None  # 0 / negative = "no bound", like the CLI
        self._shard_id = shard_id
        self._interner = interner
        self._address = address
        self._peer = f"shard {shard_id} ({address})"
        self._flush_rows = flush_rows
        self._io_timeout = io_timeout
        self._synced_names = 0
        #: Buffered ``record_columns`` argument tuples, oldest first.
        self._pending: List[tuple] = []
        self._pending_rows = 0
        self._closed = False
        self._close_lock = threading.Lock()
        self._owner_pid = os.getpid()
        self._transport = TcpTransport.connect(
            address, timeout=connect_timeout, io_timeout=io_timeout
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def shard_id(self) -> int:
        return self._shard_id

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def address(self) -> str:
        """The ``host:port`` this shard's session is connected to."""
        return self._address

    @property
    def addresses(self) -> Tuple[str, ...]:
        """The member address list (one entry — no replicas here)."""
        return (self._address,)

    def close(self) -> None:
        """End the session (a ``("stop",)`` goodbye, then the socket);
        idempotent and fork-safe.

        Called from a *forked* copy of the owner (``os.getpid()``
        differs from the pid that created the proxy) it only releases
        the inherited descriptor: the session belongs to the original
        parent, so the fork neither says ``stop`` nor shuts the shared
        connection down.  Double-close is a no-op — including *concurrent*
        double-close: a replication group retiring a dead member races
        the facade's own ``close()`` against the same proxy, so the
        closed flag is a lock-guarded test-and-set and exactly one
        caller runs the teardown (the transport is never closed
        twice); late callers wait for it and return.  Rows still
        buffered are dropped — archive before closing.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            self._pending.clear()
            self._pending_rows = 0
            if os.getpid() != self._owner_pid:
                # Forked copy: the session is the original owner's.
                # Release our duplicated descriptor and leave the
                # connection alone.
                self._transport.detach()
                return
            try:
                self._transport.send(("stop",))
            except (EOFError, OSError):
                pass
            self._transport.close()

    def _names_delta(self) -> List[str]:
        """Server names interned since the last message to this shard."""
        names = self._interner.names
        if self._synced_names == len(names):
            return []
        delta = names[self._synced_names:]
        self._synced_names = len(names)
        return delta

    def flush(self) -> None:
        """Ship buffered ingest commands as one coalesced message.

        Called automatically when ``flush_rows`` rows are pending and
        before every query RPC, so readers always observe their own
        writes.  The frame is sent on the caller's thread; a dead or
        timed-out peer surfaces here as a :class:`ShardConnectionError`
        naming the shard and where it lived — never a hang.
        """
        if self._closed:
            raise RuntimeError("TcpShardClient is closed")
        if not self._pending:
            return
        names = self._names_delta()
        pending, self._pending = self._pending, []
        self._pending_rows = 0
        try:
            self._transport.send_ingest(names, pending)
        except (EOFError, OSError) as error:
            raise _connection_lost(self._peer, self._io_timeout, error) from error

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Synchronous RPC: flush pending ingest, run ``store.method``.

        The flush puts every buffered row on the wire ahead of the
        call frame, so the answer is ordered after all prior ingest.
        Exceptions raised in the remote shard — including deferred
        ingest errors — are re-raised here.  The result pays one pickle
        round trip; everything else about it (values, dtypes, ordering)
        is exactly what the local shard would have returned.
        """
        self.flush()
        return round_trip(
            self._transport, self._peer, self._io_timeout,
            ("call", self._names_delta(), method, args, kwargs),
        )

    def resync(self) -> None:
        """Re-seed the peer session from scratch (the rejoin handshake).

        Resets the interner-delta counter so the *full* name table —
        not a delta — rides the reserved ``resync`` call, and the serve
        loop swaps in a fresh store for this session.  The caller
        (:meth:`~repro.telemetry.sharding.ShardedMetricStore.\
rejoin_shard`) then replays its journal as ordinary ingest, after
        which the rejoined shard's store is bit-identical to the one
        that crashed.
        """
        self._synced_names = 0
        self.call("resync")

    # ------------------------------------------------------------------
    # Ingest (buffered, fire-and-forget)
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
        """Buffer one pre-partitioned column append for the remote shard.

        Same contract as :meth:`MetricStore.record_columns` — the
        layout is checked here, at the caller, so a malformed batch
        raises before anything is buffered or sent; the proxy takes
        ownership of the arrays (they are held until the next flush,
        then sent across the connection).  Nothing crosses the
        placement boundary until the batching threshold is hit, so
        per-window parts from a blocked simulation coalesce into few
        large messages.
        """
        if self._closed:
            raise RuntimeError("TcpShardClient is closed")
        windows, server_indices, values = _check_columns(
            windows, server_indices, values
        )
        if values.size == 0:
            return
        self._pending.append(
            (pool_id, datacenter_id, counter, windows, server_indices, values)
        )
        self._pending_rows += int(values.size)
        if self._pending_rows >= self._flush_rows:
            self.flush()


class ReplicatedShardClient(_ShardQuerySurface):
    """One shard mirrored across several TCP sessions, with failover.

    Holds a :class:`TcpShardClient` per address — the first is the
    primary, the rest replicas — and duck-types the single-session
    surface, so the facade treats a replicated shard exactly like a
    plain one.  Every ingest call (``record_columns`` / ``flush``)
    fans out to every live member: each
    member buffers the identical command stream with the same
    ``flush_rows`` threshold, so the coalesced frames on every wire —
    and therefore every member's store — are identical.  Queries are
    answered by the first live member.

    When any operation on a member raises
    :class:`ShardConnectionError` (dead peer, reset, I/O timeout), the
    member is retired (closed and removed) and the survivors carry on;
    an interrupted query is retried on the next member, whose answer is **bit-identical** because its store
    consumed the same calls in the same order.  Store-level exceptions
    (a bad query argument) are *not* failed over — every member would
    answer the same — and propagate unchanged.  Only when the last
    member dies does a ``ShardConnectionError`` naming every failed
    address reach the caller.

    What replication cannot save: rows buffered parent-side (the
    pending lists) when the *caller* dies, same as the
    single-session contract; and a member that fails is gone for good
    — re-attach a replacement via the facade's ``rejoin_shard``, which
    needs the journal.  Not thread-safe for ingest (one owner, like
    ``TcpShardClient``); ``close`` may race a concurrent retirement and
    is safe (see :meth:`TcpShardClient.close`).
    """

    def __init__(
        self,
        shard_id: int,
        interner: ServerInterner,
        addresses: Sequence[str],
        flush_rows: int = DEFAULT_FLUSH_ROWS,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        io_timeout: Optional[float] = DEFAULT_IO_TIMEOUT,
    ) -> None:
        if not addresses:
            raise ValueError("ReplicatedShardClient needs at least one address")
        self._shard_id = shard_id
        self._addresses = tuple(addresses)
        self._closed = False
        # Guards membership changes and the closed flag: _retire may
        # run on whichever thread observed the failure while close()
        # runs on another.
        self._members_lock = threading.Lock()
        self._members: List[TcpShardClient] = []
        self._failures: List[str] = []
        try:
            for address in addresses:
                self._members.append(
                    TcpShardClient(
                        shard_id,
                        interner,
                        address,
                        flush_rows=flush_rows,
                        connect_timeout=connect_timeout,
                        io_timeout=io_timeout,
                    )
                )
        except BaseException:
            # A later member failed to dial: close the sessions already
            # opened instead of leaking them server-side.
            for member in self._members:
                try:
                    member.close()
                except Exception:  # pragma: no cover - best effort
                    pass
            raise

    # ------------------------------------------------------------------
    # Lifecycle and membership
    # ------------------------------------------------------------------
    @property
    def shard_id(self) -> int:
        return self._shard_id

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def address(self) -> str:
        """The primary's address (stable even after failover)."""
        return self._addresses[0]

    @property
    def addresses(self) -> Tuple[str, ...]:
        """Every configured member address, primary first."""
        return self._addresses

    @property
    def live_addresses(self) -> Tuple[str, ...]:
        """Addresses of the members still serving (for tests/ops)."""
        with self._members_lock:
            return tuple(member.address for member in self._members)

    def _live_members(self) -> List[TcpShardClient]:
        with self._members_lock:
            return list(self._members)

    def _retire(self, member: TcpShardClient, error: BaseException) -> None:
        """Drop a failed member: survivors own the shard from now on.

        The member is closed *outside* the membership lock (its
        goodbye ``stop`` is a socket send) — safe against a
        concurrent ``close()`` of the whole group because
        :meth:`TcpShardClient.close` is itself lock-guarded and
        idempotent, so the transport is never double-closed.
        """
        with self._members_lock:
            if member in self._members:
                self._members.remove(member)
                self._failures.append(f"{member.address}: {error}")
        try:
            member.close()
        except Exception:  # pragma: no cover - dead peer teardown
            pass

    def _all_members_dead(self) -> ShardConnectionError:
        detail = "; ".join(self._failures) if self._failures else "none dialled"
        return ShardConnectionError(
            f"shard {self._shard_id}: every member failed "
            f"({len(self._addresses)} configured — {detail})"
        )

    def close(self) -> None:
        """Close every member session; idempotent and race-safe."""
        with self._members_lock:
            if self._closed:
                return
            self._closed = True
            members = list(self._members)
        for member in members:
            member.close()

    # ------------------------------------------------------------------
    # Mirrored ingest and failover queries
    # ------------------------------------------------------------------
    def _fan_out(self, method: str, args: tuple) -> Any:
        """Run one call on every live member, retiring failures.

        A member that raises :class:`ShardConnectionError` mid-fan-out
        missed this and all future calls — which is fine, because it is
        retired on the spot and never answers a query again.  The call
        only fails upward when it leaves *no* live member.  Members
        hold identical state, so every answer is equal; the first live
        member's is returned.
        """
        if self._closed:
            raise RuntimeError("ReplicatedShardClient is closed")
        answers = []
        for member in self._live_members():
            try:
                answers.append(getattr(member, method)(*args))
            except ShardConnectionError as error:
                self._retire(member, error)
        if not answers or not self._live_members():
            raise self._all_members_dead()
        return answers[0]

    def record_columns(self, *args: Any) -> None:
        self._fan_out("record_columns", args)

    def flush(self) -> None:
        self._fan_out("flush", ())

    def resync(self) -> None:
        """Re-seed every member session (the group rejoin handshake)."""
        self._fan_out("resync", ())

    def evict_windows(self, before: int) -> int:
        """Evict on *every* live member, not just the query target.

        Eviction mutates store state, and replicas must stay mirrors —
        a replica that kept old rows hot would answer differently
        after a failover.
        """
        return self._fan_out("evict_windows", (before,))

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Query the first live member; fail over on connection loss.

        Flushes *every* live member first, so whichever member ends up
        answering — even after a mid-call failover — has consumed all
        buffered ingest: read-your-writes holds across failover.
        Exceptions the remote store raised propagate
        without failover; only :class:`ShardConnectionError` moves on
        to the next member.
        """
        self._fan_out("flush", ())
        while True:
            members = self._live_members()
            if not members:
                raise self._all_members_dead()
            member = members[0]
            try:
                return member.call(method, *args, **kwargs)
            except ShardConnectionError as error:
                self._retire(member, error)


class ShardServer:
    """Host remote metric-store shards over TCP: one session, one shard.

    Every accepted connection gets its own session thread running
    :func:`serve_shard` over a fresh ``MetricStore`` — so a facade
    that opens N connections (even N connections to the *same*
    server) gets N independent shards, and spreading the addresses
    across machines is purely a deployment decision.  This is the
    library form of the ``repro shard-server`` CLI command; tests and
    benchmarks embed it, operators run the CLI.

    ``max_sessions`` bounds the server's lifetime for scripted runs:
    after accepting that many sessions it stops listening and
    :meth:`serve_forever` returns once they all end (the CLI's
    ``--max-sessions``).  Bind to port 0 to let the OS pick an
    ephemeral port; :attr:`address` reports the real one.

    ``stop()`` closes the listener and every live session; it is
    idempotent.  Sessions end individually on their client's
    ``("stop",)`` or clean EOF — a client vanishing never takes the
    server down.  Security note: ``call`` frames are unpickled, so
    listen only on loopback or a trusted network (see
    :mod:`repro.telemetry.transport`).
    """

    def __init__(
        self,
        address: str = "127.0.0.1:0",
        max_sessions: Optional[int] = None,
    ) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        from repro.telemetry.transport import parse_address

        self._requested = parse_address(address)
        self._max_sessions = max_sessions
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._sessions: List[Tuple[TcpTransport, threading.Thread]] = []
        self._lock = threading.Lock()
        self._stopping = False
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardServer":
        """Bind, listen, and start accepting sessions in the background.

        The socket family follows the listen host: ``127.0.0.1`` binds
        IPv4, a bracketed ``[::1]`` (parsed to ``::1``) binds IPv6 —
        ``getaddrinfo`` decides, so names resolve too.
        """
        if self._started:
            raise RuntimeError("ShardServer already started")
        self._started = True
        host, port = self._requested
        try:
            family, _type, _proto, _cname, sockaddr = socket.getaddrinfo(
                host, port, type=socket.SOCK_STREAM
            )[0]
        except socket.gaierror as error:
            raise OSError(
                f"cannot resolve listen address {format_address(host, port)}: "
                f"{error}"
            ) from error
        listener = socket.socket(family, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(sockaddr)
        listener.listen()
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="shard-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> str:
        """The bound ``host:port`` (real port, even when asked for 0)."""
        if self._listener is None:
            raise RuntimeError("ShardServer is not started")
        host, port = self._listener.getsockname()[:2]
        return format_address(host, port)

    def serve_forever(self) -> None:
        """Block until :meth:`stop` — or, with ``max_sessions``, until
        every accepted session has ended."""
        if self._accept_thread is None:
            raise RuntimeError("ShardServer is not started")
        self._accept_thread.join()
        for _transport, thread in list(self._sessions):
            thread.join()

    def stop(self) -> None:
        """Close the listener and every live session; idempotent."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        if self._listener is not None:
            try:
                # shutdown() (not just close()) wakes a thread blocked
                # in accept() immediately instead of leaving it to the
                # join timeout below.
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        for transport, _thread in list(self._sessions):
            transport.close()
        if self._accept_thread is not None:
            self._accept_thread.join(_JOIN_TIMEOUT)
        for _transport, thread in list(self._sessions):
            thread.join(_JOIN_TIMEOUT)

    def __enter__(self) -> "ShardServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Accepting and serving
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        accepted = 0
        while not self._stopping:
            if self._max_sessions is not None and accepted >= self._max_sessions:
                break
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed by stop()
                break
            accepted += 1
            transport = TcpTransport(conn)
            thread = threading.Thread(
                target=self._serve_session,
                args=(transport,),
                name=f"shard-session-{accepted}",
                daemon=True,
            )
            with self._lock:
                if self._stopping:
                    # Lost the race with stop(): it already snapshotted
                    # the session list, so this connection would never
                    # be torn down — refuse it instead.
                    transport.close()
                    break
                self._sessions.append((transport, thread))
            thread.start()
        if self._max_sessions is not None and not self._stopping:
            # Reached the session budget: stop listening, let the live
            # sessions run to their own stop/EOF.
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass

    def _session_store(self):
        """The store a new session serves; ``None`` = fresh per session.

        The shard-server default (one connection = one empty shard
        store) — :class:`~repro.telemetry.query_server.QueryServer`
        overrides this to hand every session one shared read-only
        surface over the live store.
        """
        return None

    def _serve_session(self, transport: TcpTransport) -> None:
        """One session thread: serve, then drop the bookkeeping entry.

        Pruning on exit keeps a long-running server's session list
        proportional to *live* sessions instead of every connection
        ever accepted.
        """
        try:
            serve_shard(transport, store=self._session_store())
        finally:
            with self._lock:
                self._sessions = [
                    entry for entry in self._sessions if entry[0] is not transport
                ]
