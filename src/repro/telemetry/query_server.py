"""Live operator queries against a running streaming simulation.

The paper's operators analyze fleet telemetry *while the fleet is
running*; until now ``simulate --stream`` owned the process, so answers
only existed after the clock loop exited.  This module closes that gap
by composition: the existing shard RPC loop
(:func:`~repro.telemetry.workers.serve_shard`), the length-prefixed
transport (:class:`~repro.telemetry.transport.TcpTransport`), and the
sealed-watermark semantics of ``track_aggregate``/``seal_through``
already provide everything a query server needs.

Three pieces:

* :class:`LiveQuerySurface` — a read-only view over the live store
  (plain :class:`~repro.telemetry.store.MetricStore` or the
  :class:`~repro.telemetry.sharding.ShardedMetricStore` facade over any
  backend), generated from the store's one read table
  (:data:`~repro.telemetry.store.READ_SURFACE`) plus three compound
  reads and the watermark.  Every read takes the store's :attr:`lock`,
  which the streaming clock loop holds across each whole
  ingest→seal→evict block span — so a reader only ever observes the
  store at sealed block boundaries, never a half-ingested block.  That is the entire
  consistency argument: at a boundary every visible window is sealed,
  so a live answer for any window ``w <= sealed_through`` is
  bit-identical to the same query against a finished same-seed batch
  run.  The serve loop answers only the names the surface declares
  (``rpc_names``); any other — a mutator, a dunder — is an
  ``AttributeError`` reply that never reaches ``getattr``.
* :class:`QueryServer` — a :class:`~repro.telemetry.workers.ShardServer`
  whose sessions all serve the one shared surface instead of a fresh
  per-session store.  Same wire, same framing, same failure semantics
  as ``repro shard-server``.
* :class:`QueryClient` — the client side of ``repro query``: dial,
  ``call`` methods by name, get the pickled result back.  Connection
  failures surface as the usual named, ``io_timeout``-bounded
  :class:`~repro.telemetry.workers.ShardConnectionError` — never a
  hang.

The security note of ``docs/DISTRIBUTED.md`` applies unchanged: the
wire is pickle, so bind the query listener to loopback or a trusted
network only.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.telemetry.store import READ_SURFACE, ServerInterner, forward_reads
from repro.telemetry.transport import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_IO_TIMEOUT,
    format_address,
    parse_address,
)
from repro.telemetry.workers import ClientSession, ShardServer, answer

#: What the live surface answers beside the read table: the three
#: compound reads and the watermark its streamer owns.
LIVE_EXTRAS = ("status", "aggregate", "snapshot", "sealed_through")


@forward_reads("_read")
class LiveQuerySurface:
    """Read-only, lock-serialized view of a live (possibly sharded) store.

    ``streamer`` optionally attaches the driving
    :class:`~repro.cluster.streaming.StreamingSimulator`, which
    contributes the authoritative sealed watermark, run progress, and
    the latched alarm alerts to :meth:`status`.

    The serve loop replays interner deltas on every message, so the
    surface carries its own throwaway :class:`ServerInterner` — a query
    client never sends real deltas, and a stray one lands in the
    sandbox instead of the live store's id space.
    """

    #: The names the serve loop answers for this object; everything
    #: else is refused before it is looked up.
    rpc_names = frozenset(READ_SURFACE).union(LIVE_EXTRAS)

    def __init__(self, store, streamer=None) -> None:
        self._store = store
        self._streamer = streamer
        self.interner = ServerInterner()
        self._lock = store.lock

    def _read(self, name: str, *args, **kwargs):
        """The one read path: one table read under one lock hold."""
        with self._lock:
            result = getattr(self._store, name)
            if not READ_SURFACE[name]:
                result = result(*args, **kwargs)
            # A generator (``iter_tables``) is drained inside the hold —
            # the serve loop would drain it anyway, but outside it.
            return list(result) if isinstance(result, Iterator) else result

    @property
    def sealed_through(self) -> int:
        """Largest window a live answer is final through (-1 = none)."""
        with self._lock:
            if self._streamer is not None:
                return self._streamer.sealed_window
            return max(self._store.sealed_through, self._store.max_window)

    # -- atomic compound reads (one lock hold = one consistent answer) -
    def aggregate(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        reducer: str = "mean",
    ) -> Dict[str, Any]:
        """One aggregate series plus the watermark it is valid as of.

        Taken under a single lock hold, so ``sealed_through`` and the
        series describe the same block boundary — the pair a live
        client needs to compare its answer against a batch twin.
        """
        with self._lock:
            series = self._store.pool_window_aggregate(
                pool_id, counter, datacenter_id=datacenter_id, reducer=reducer
            )
            return {
                "sealed_through": self.sealed_through,
                "windows": series.windows,
                "values": series.values,
            }

    def status(self) -> Dict[str, Any]:
        """One consistent snapshot of run progress and alarm state."""
        with self._lock:
            store = self._store
            info: Dict[str, Any] = {
                "sealed_through": self.sealed_through,
                "evicted_before": store.evicted_before,
                "max_window": store.max_window,
                "hot_samples": store.hot_sample_count(),
                "samples": store.sample_count(),
                "pools": store.pools,
                "alerts": [],
            }
            streamer = self._streamer
            if streamer is not None:
                info["windows"] = streamer.windows
                info["blocks"] = streamer.blocks
                info["alerts"] = [
                    {
                        "name": alert.name,
                        "pool_id": alert.pool_id,
                        "window": alert.window,
                        "detail": alert.detail,
                    }
                    for alert in streamer.alerts
                ]
            return info

    def snapshot(self) -> Dict[str, Any]:
        """Every table and the name table, atomically.

        Everything :func:`~repro.telemetry.export.export_store` needs
        to write the archive client-side (wrap in
        :class:`StoreSnapshot`) — the live half of the byte-identical
        export guarantee.
        """
        with self._lock:
            return {
                "sealed_through": self.sealed_through,
                "server_names": list(self._store.interner.names),
                "tables": list(self._store.iter_tables()),
            }


class StoreSnapshot:
    """A :meth:`LiveQuerySurface.snapshot` result as an exportable store.

    Duck-types the ``iter_tables``/``server_name`` surface
    :func:`~repro.telemetry.export.export_store` reads, so a client can
    write a byte-identical archive from a snapshot it fetched over the
    wire.
    """

    def __init__(self, snapshot: Dict[str, Any]) -> None:
        self._tables = snapshot["tables"]
        self._names = snapshot["server_names"]
        self.sealed_through = snapshot["sealed_through"]

    def iter_tables(self):
        return iter(self._tables)

    def server_name(self, index: int) -> str:
        return self._names[index]


class QueryServer(ShardServer):
    """A :class:`ShardServer` whose sessions share one live surface.

    Everything else — accept loop, session threads, idempotent
    ``stop()``, ``max_sessions``, ephemeral-port binding — is inherited
    unchanged; the only difference is that a session serves the shared
    read-only surface instead of a fresh private store.
    """

    def __init__(
        self,
        surface: LiveQuerySurface,
        address: str = "127.0.0.1:0",
        max_sessions: Optional[int] = None,
    ) -> None:
        super().__init__(address, max_sessions=max_sessions)
        self._surface = surface

    def _session_store(self) -> LiveQuerySurface:
        return self._surface


class QueryClient:
    """One connection to a :class:`QueryServer`; the ``repro query`` core.

    Dial errors carry the address; a server that dies or hangs
    mid-session surfaces as a named
    :class:`~repro.telemetry.workers.ShardConnectionError` within the
    ``io_timeout`` bound (0 or ``None`` disables the bound) — the same
    failure contract as a shard session, because it is the same wire.
    """

    def __init__(
        self,
        address: str,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        io_timeout: Optional[float] = DEFAULT_IO_TIMEOUT,
    ) -> None:
        self.address = format_address(*parse_address(address))
        self._session = ClientSession(
            "query server", self.address, connect_timeout, io_timeout
        )
        self._closed = False

    def call(self, method: str, *args, **kwargs) -> Any:
        """Invoke ``method`` on the server's surface, return its result."""
        if self._closed:
            raise RuntimeError("query client is closed")
        return answer(self._session.round_trip([], method, args, kwargs))

    # Convenience wrappers for the three compound reads.
    def status(self) -> Dict[str, Any]:
        return self.call("status")

    def aggregate(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        reducer: str = "mean",
    ) -> Dict[str, Any]:
        return self.call(
            "aggregate", pool_id, counter,
            datacenter_id=datacenter_id, reducer=reducer,
        )

    def snapshot(self) -> Dict[str, Any]:
        return self.call("snapshot")

    def close(self) -> None:
        """End the session (idempotent; safe against a dead server)."""
        if self._closed:
            return
        self._closed = True
        self._session.goodbye()

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
