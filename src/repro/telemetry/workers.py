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
    One TCP session per shard (and one more per replica).  A
    :class:`ShardServer` — also exposed as the ``repro shard-server``
    CLI command — accepts any number of sessions and gives each one
    its own fresh ``MetricStore``, so *one connection is one store* and
    a facade pointed at ``host:port,host:port,...`` has true
    multi-machine shards.  The ``"tcp"`` backend.  Client and server
    must run the same tree: there is no version negotiation on the wire.

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

**Replication** is a property of the one client, not a second class:
a :class:`TcpShardClient` owns a list of sessions, one per configured
address (first = primary; an un-replicated shard is the list of one).
Rows are buffered once and every flush hands the same command list to
every live session, which is the whole invariant: **every live session
has been sent the same frames**, so a read may ask any one of them.
Reads ask the first; a session whose send or recv fails (dead peer,
reset, I/O timeout) is retired and the read is retried on the next,
with a **bit-identical** answer.  The two mutating calls
(:data:`SHARD_EXTRAS`) go to every live session.  Only when the last
session is gone does one :class:`ShardConnectionError` reach the
caller, from the very ``flush`` or query that hit it.

``names`` on every message is the **interner delta**: the slice of
server names the parent interned since the previous message.  The
serve loop replays the slice into its own
:class:`~repro.telemetry.store.ServerInterner`, so both sides agree on
the global id space without sharing memory — ingest ships only
``int64`` index columns, and name-returning queries
(``per_server_values``, ``pool_matrix``, ``servers_in_pool``) still
answer with the right strings.

Cost model: every row crosses the placement boundary once per live
session as part of an ``int64``/``float64`` column (~24 bytes/row of
payload), and every query result crosses back once.  That crossing is
what the backend costs, not what it is for: its duty is placement,
capacity and failover — a shard's store, freeze and aggregate cache
live in another process or on another machine, and outlive a peer's
death (``docs/DISTRIBUTED.md``, "Which backend, when", has the numbers).

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
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

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
    parse_address,
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
    "try another session", a store-level exception means the call
    itself was wrong and every session would answer the same.
    Subclasses ``RuntimeError``, so pre-replication callers that
    caught ``RuntimeError`` keep working unchanged.
    """


class ClientSession:
    """The client end of one connection: address, transport, names sent.

    The one home of the client half of the wire — held in a list by
    :class:`TcpShardClient`, singly by
    :class:`~repro.telemetry.query_server.QueryClient`.  Dials eagerly
    (with the transport's refused-connection retry window, so starting
    client and server "at the same time" works); ``io_timeout`` bounds
    every socket operation, so a dead *or* hung peer is a
    :class:`ShardConnectionError` naming ``label`` and the address —
    never a hang — after which the session is unusable (a partial
    frame may be in flight) and its owner drops it.

    ``names_sent``, how much of the owner's interner this peer has been
    told, is per session on purpose: a ``call`` frame carries the delta
    only to the session that answers it.
    """

    def __init__(
        self,
        label: str,
        address: str,
        connect_timeout: float,
        io_timeout: Optional[float],
    ) -> None:
        if io_timeout is not None and io_timeout <= 0:
            io_timeout = None  # 0 / negative = "no bound", like the CLI
        self.address = address
        self.names_sent = 0
        self._peer = f"{label} ({address})"
        self._bound = f" after {io_timeout:g}s" if io_timeout is not None else ""
        self._lost = False
        self._owner_pid = os.getpid()
        self.transport = TcpTransport.connect(
            address, timeout=connect_timeout, io_timeout=io_timeout
        )

    def _names_delta(self, names: List[str]) -> List[str]:
        """The slice of ``names`` this peer has not been sent yet."""
        delta = names[self.names_sent:]
        self.names_sent = len(names)
        return delta

    def _connection_lost(self, error: BaseException) -> ShardConnectionError:
        """The named error for a dead (EOF/reset) or hung (timeout) peer."""
        self._lost = True
        if isinstance(error, TimeoutError):
            return ShardConnectionError(
                f"{self._peer}: I/O timed out{self._bound} — peer is alive "
                f"but not making progress"
            )
        return ShardConnectionError(f"{self._peer}: connection lost")

    def send_ingest(self, names: List[str], commands: List[tuple]) -> None:
        """Send one coalesced ingest frame (fire-and-forget)."""
        try:
            self.transport.send_ingest(self._names_delta(names), commands)
        except (EOFError, OSError) as error:
            raise self._connection_lost(error) from error

    def round_trip(
        self, names: List[str], method: str, args: tuple, kwargs: dict
    ) -> Tuple[str, Any]:
        """Send one ``call`` frame and return the ``(kind, payload)``
        reply; :func:`answer` turns it into a result or a raise."""
        try:
            self.transport.send(
                ("call", self._names_delta(names), method, args, kwargs)
            )
            return self.transport.recv()
        except (EOFError, OSError) as error:
            raise self._connection_lost(error) from error

    def goodbye(self) -> None:
        """End the session: ``("stop",)``, tolerate a dead peer, close.

        Fork-safe: called from a *forked* copy of the owner
        (``os.getpid()`` differs from the pid that dialled) it only
        releases the inherited descriptor — the session belongs to the
        original process, and ending it from the fork would yank a live
        store out from under that owner.  A wire that already failed is
        closed without the ``stop``: it may hold half a frame, and a
        hung peer would cost a second ``io_timeout``.
        """
        if os.getpid() != self._owner_pid:
            self.transport.detach()
            return
        if not self._lost:
            try:
                self.transport.send(("stop",))
            except (EOFError, OSError):
                pass
        self.transport.close()


def answer(reply: Tuple[str, Any]) -> Any:
    """What a ``call`` reply carries: the result of ``("ok", result)``,
    or the far side's exception re-raised from ``("err", exception)``."""
    kind, payload = reply
    if kind == "err":
        raise payload
    return payload


@forward_reads("call")
class TcpShardClient:
    """Client-side proxy to one shard: a ``MetricStore`` on a
    :class:`ShardServer`, mirrored on one session per address given.

    Duck-types the slice of the :class:`MetricStore` surface the
    sharded facade uses — buffered ``record_columns`` ingest plus every
    :data:`~repro.telemetry.store.READ_SURFACE` read, generated as
    forwards through :meth:`call` — so
    :class:`~repro.telemetry.sharding.ShardedMetricStore` can hold
    remote-shard handles where it would otherwise hold local stores.
    All answers are bit-identical to a local shard fed the same calls
    (the serve loop applies the same calls in the same order); the
    difference is purely *where* the rows live and the one wire
    crossing each row (ingest) and each result (query) pays.

    ``addresses`` is one ``host:port`` or a sequence of them, primary
    first; each is dialled eagerly as its own :class:`ClientSession`
    (each server made a fresh store when the connection arrived), and
    the list is run as the module docstring's **Replication** paragraph
    says — an un-replicated shard is the list of one, run by the same
    loops.  A session whose send or recv fails is retired: taken off
    the list, and closed by whoever took it off.  Store-level
    exceptions (a bad query argument) retire nobody, because every
    session would answer the same.  When the list runs empty the caller
    gets one :class:`ShardConnectionError` naming the shard and what
    happened at every address, its ``__cause__`` the last transport
    error.

    What replication cannot save: rows still buffered here when the
    *caller* dies; and a retired session is gone for good — re-attach a
    replacement via the facade's ``rejoin_shard``, which needs the
    journal.  Not thread-safe for ingest and queries: one owner (the
    facade) talks to one shard.  :meth:`close` is idempotent, fork-safe
    and may race a retirement on another thread.
    """

    def __init__(
        self,
        shard_id: int,
        interner: ServerInterner,
        addresses: Union[str, Sequence[str]],
        flush_rows: int = DEFAULT_FLUSH_ROWS,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        io_timeout: Optional[float] = DEFAULT_IO_TIMEOUT,
    ) -> None:
        if flush_rows < 1:
            raise ValueError("flush_rows must be >= 1")
        if isinstance(addresses, str):
            addresses = (addresses,)
        if not addresses:
            raise ValueError("TcpShardClient needs at least one address")
        self.shard_id = shard_id
        self._interner = interner
        self._addresses = tuple(addresses)
        self._flush_rows = flush_rows
        #: Buffered ``record_columns`` argument tuples, oldest first.
        self._pending: List[tuple] = []
        self._pending_rows = 0
        self._closed = False
        # Guards the session list and the closed flag: a retirement
        # runs on whichever thread saw the failure while close() may
        # run on another.
        self._lock = threading.Lock()
        self._sessions: List[ClientSession] = []
        self._failures: List[ShardConnectionError] = []
        try:
            for address in self._addresses:
                self._sessions.append(ClientSession(
                    f"shard {shard_id}", address, connect_timeout, io_timeout
                ))
        except BaseException:
            # A later address failed to dial: end the sessions already
            # opened instead of leaking them server-side.
            self.close()
            raise

    # ------------------------------------------------------------------
    # Lifecycle and membership
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def address(self) -> str:
        """The primary's ``host:port`` (stable even after failover)."""
        return self._addresses[0]

    @property
    def addresses(self) -> Tuple[str, ...]:
        """Every configured address, primary first."""
        return self._addresses

    @property
    def live_addresses(self) -> Tuple[str, ...]:
        """Addresses of the sessions still serving (for tests/ops)."""
        return tuple(session.address for session in self._live())

    def _live(self) -> List[ClientSession]:
        with self._lock:
            return list(self._sessions)

    @property
    def _transport(self):
        """The first live session's transport: the seam fault injection
        wraps and the tests that kill a primary reach for."""
        return self._live()[0].transport

    @_transport.setter
    def _transport(self, transport) -> None:
        self._live()[0].transport = transport

    def _retire(self, session: ClientSession, error: ShardConnectionError) -> None:
        """Drop a failed session: the survivors own the shard from now.

        Exactly-once teardown: whoever takes a session off the list,
        under the lock, is the one that closes it — here or in a
        concurrent :meth:`close`, never both.  (A failed wire is closed
        without a word, so nothing here blocks under the lock.)
        """
        with self._lock:
            if session in self._sessions:
                self._sessions.remove(session)
                self._failures.append(error)
                session.goodbye()

    def close(self) -> None:
        """End every live session; idempotent, fork-safe, race-safe.

        The closed flag is a lock-guarded test-and-set, so of any
        number of concurrent callers exactly one runs the teardown
        (:meth:`ClientSession.goodbye`) and late ones wait for it.
        Rows still buffered are dropped — archive before closing.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._pending.clear()
            self._pending_rows = 0
            for session in self._sessions:
                session.goodbye()
            self._sessions.clear()

    def _each_live(self, step, every: bool) -> list:
        """Run ``step(session)`` down the live list; return the results.

        The one send step.  With ``every`` it visits all live sessions
        — a session that fails missed this and all future frames, which
        is fine, because it is retired on the spot and never answers
        again — otherwise it stops at the first that answers.  Raises
        only when no session is left to answer.
        """
        results = []
        for session in self._live():
            try:
                results.append(step(session))
            except ShardConnectionError as error:
                self._retire(session, error)
                continue
            if not every:
                break
        if results:
            return results
        if self._closed:
            raise RuntimeError("TcpShardClient is closed")
        raise ShardConnectionError(
            "; ".join(str(failure) for failure in self._failures)
        ) from self._failures[-1].__cause__

    def flush(self) -> None:
        """Ship buffered ingest commands as one coalesced message —
        the same one to every live session.

        Called automatically when ``flush_rows`` rows are pending and
        before every query RPC, so readers always observe their own
        writes.  Frames are encoded and sent on the caller's thread:
        ``sendall`` under ``io_timeout`` is the backpressure against a
        slow shard, and a dead or timed-out last session surfaces here
        as a :class:`ShardConnectionError` — never a hang.
        """
        if self._closed:
            raise RuntimeError("TcpShardClient is closed")
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        self._pending_rows = 0
        names = self._interner.names
        self._each_live(
            lambda session: session.send_ingest(names, pending), every=True
        )

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Synchronous RPC: flush pending ingest, run ``store.method``.

        The flush puts every buffered row on every live wire ahead of
        the call frame, so the answer is ordered after all prior ingest
        whichever session gives it.  A read asks the first live session
        and fails over to the next; a mutating call
        (:data:`SHARD_EXTRAS`) goes to every live session, because they
        must stay mirrors.  Exceptions raised in the remote shard —
        deferred ingest errors included — are re-raised here, for a
        mutating call only once every live session has been asked, so
        an ``err`` leaves no session one call behind the others.  The
        result pays one pickle round trip and is otherwise exactly what
        the local shard would have returned.
        """
        self.flush()
        names = self._interner.names
        replies = self._each_live(
            lambda session: session.round_trip(names, method, args, kwargs),
            every=method in SHARD_EXTRAS,
        )
        return [answer(reply) for reply in replies][0]

    def evict_windows(self, before: int) -> int:
        """Evict windows below ``before`` on the remote store(s).

        Rides the ordered command stream like ingest (``call`` flushes
        buffered rows first), so eviction observes every previously
        ingested row.
        """
        return self.call("evict_windows", before)

    def resync(self) -> None:
        """Re-seed the peer session(s) from scratch (the rejoin handshake).

        Zeroes every session's names counter so the *full* name table —
        not a delta — rides the reserved ``resync`` call, and each
        serve loop swaps in a fresh store for its session.  The caller
        (:meth:`~repro.telemetry.sharding.ShardedMetricStore.\
rejoin_shard`) then replays its journal as ordinary ingest, after
        which the rejoined shard's store is bit-identical to the one
        that crashed.
        """
        for session in self._live():
            session.names_sent = 0
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
        then sent across every live connection).  Nothing crosses the
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
