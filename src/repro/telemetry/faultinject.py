"""Deterministic fault injection for the tcp shard transport.

The fault-tolerance claims of the replicated tcp backend — failover on
the timeout/EOF paths, bounded errors instead of hangs, rejoin
after restart — are only worth anything if they are *provoked* under
test.  Real networks misbehave in ways a unit test cannot wait for, so
this module wraps a :class:`~repro.telemetry.transport.TcpTransport`
in a :class:`FaultyTransport` that misbehaves on cue: after a chosen
number of outgoing frames it can blackhole sends, wedge like a
hung-but-alive peer, delay every operation, corrupt a frame header, or
kill the socket outright.

Two entry points:

* Tests wrap a transport directly (``FaultyTransport(inner, "hang",
  ...)``) or call :func:`inject_store` on a constructed
  :class:`~repro.telemetry.sharding.ShardedMetricStore`.
* Operators pass ``repro simulate --inject-fault MODE[:AFTER]`` to
  watch a failure land on shard 0 mid-run — with ``--replica-addrs``
  the run completes via failover, without it the run fails with the
  named per-shard error.  A debugging aid, never on by default.

Every mode resolves to one of the error paths the client stack already
handles — nothing here adds new failure semantics, it only makes the
existing ones reachable on demand:

``delay``
    Sleep ``delay_s`` before every send and recv.  Everything still
    works (latency injection); results stay bit-identical.
``drop``
    After ``after_frames`` outgoing frames, silently discard every
    further send.  The peer never sees the query frame, so the reply
    wait runs into the socket's ``io_timeout`` → ``TimeoutError`` →
    the per-shard "I/O timed out" error.
``hang``
    After ``after_frames`` frames, every send blocks without progress
    until the ``io_timeout`` bound elapses, then raises
    ``TimeoutError`` — exactly what a wedged ``sendall`` against a
    peer that stopped reading looks like.  (With no bound configured
    it blocks until the transport is closed, which is also what the
    real thing does.)
``corrupt``
    After ``after_frames`` frames, the next frame goes out with an
    unknown frame kind in its header.  The peer refuses it
    ("peer is not speaking the shard protocol") and drops the
    session; the client sees the connection die → "connection lost".
``kill``
    After ``after_frames`` frames, close the socket abruptly
    (the in-process stand-in for ``kill -9`` of the server);
    the triggering send fails → "connection lost".
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.telemetry.transport import _HEADER, _KIND_SHIFT

#: Valid fault modes, in the order documented above.
MODES = ("delay", "drop", "hang", "corrupt", "kill")

#: A frame kind no protocol revision uses — what ``corrupt`` stamps
#: into the wire so the peer rejects the frame as garbage.
_BAD_FRAME_KIND = 0x7F

#: How often a hung send re-checks for close/timeout (seconds); bounds
#: how stale the deadline check can be, not the accuracy of the fault.
_POLL_INTERVAL = 0.05

#: Default extra latency of the ``delay`` mode (seconds).
DEFAULT_DELAY_S = 0.01


@dataclass
class FaultSpec:
    """One parsed fault: what to break, when, and on which shard."""

    mode: str
    after_frames: int = 0
    delay_s: float = DEFAULT_DELAY_S
    shard: int = 0


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse the CLI's ``MODE[:AFTER]`` syntax into a :class:`FaultSpec`.

    ``MODE`` is one of :data:`MODES`; ``AFTER`` (optional, default 0 =
    immediately) is how many outgoing frames pass unharmed first.
    Raises ``ValueError`` with a usage-style message on anything else.
    """
    head, _sep, tail = text.partition(":")
    mode = head.strip().lower()
    if mode not in MODES:
        raise ValueError(
            f"unknown fault mode {mode!r}; expected one of {', '.join(MODES)}"
        )
    after_frames = 0
    if tail:
        try:
            after_frames = int(tail)
        except ValueError as error:
            raise ValueError(
                f"bad fault spec {text!r}: AFTER must be an integer "
                f"frame count (MODE[:AFTER])"
            ) from error
        if after_frames < 0:
            raise ValueError(f"bad fault spec {text!r}: AFTER must be >= 0")
    return FaultSpec(mode=mode, after_frames=after_frames)


class FaultyTransport:
    """A transport wrapper that misbehaves on cue (see module docs).

    Duck-types the transport surface the client stack uses — ``send``,
    ``send_ingest``, ``recv``, ``close`` and ``detach`` — so it can be
    swapped in front of any
    :class:`~repro.telemetry.transport.TcpTransport` (including one
    already owned by a live ``TcpShardClient``, whose session reads
    the attribute on every operation).  Frame counting covers both send
    flavours; the fault arms once ``after_frames`` frames have gone
    out.  ``close`` is safe at any time, including while a ``hang``
    send is blocking — it wakes the hung thread, which then raises
    ``ConnectionError`` exactly as a closed-under-send socket would.
    """

    def __init__(
        self,
        inner: Any,
        mode: str,
        after_frames: int = 0,
        delay_s: float = DEFAULT_DELAY_S,
        io_timeout: Optional[float] = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(
                f"unknown fault mode {mode!r}; expected one of {MODES}"
            )
        if after_frames < 0:
            raise ValueError("after_frames must be >= 0")
        self._inner = inner
        self._mode = mode
        self._after_frames = after_frames
        self._delay_s = delay_s
        self._io_timeout = io_timeout
        self._frames_sent = 0
        self._corrupted = False
        self._closed = threading.Event()

    @property
    def frames_sent(self) -> int:
        """Outgoing frames counted so far (dropped ones included)."""
        return self._frames_sent

    @property
    def armed(self) -> bool:
        """Whether the fault has started firing."""
        return self._frames_sent >= self._after_frames

    def _hang_until_timeout(self) -> None:
        """Block like a wedged ``sendall``: wake on close or timeout."""
        deadline = (
            None
            if self._io_timeout is None
            else time.monotonic() + self._io_timeout
        )
        while not self._closed.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    "fault injection: peer made no progress"
                )
            self._closed.wait(_POLL_INTERVAL)
        raise ConnectionError("fault injection: transport closed while hung")

    def _before_send(self) -> bool:
        """Apply the armed fault; ``False`` means swallow this frame."""
        if self._mode == "delay":
            time.sleep(self._delay_s)
            return True
        if not self.armed:
            return True
        if self._mode == "drop":
            return False
        if self._mode == "hang":
            self._hang_until_timeout()
        if self._mode == "corrupt":
            if not self._corrupted:
                self._corrupted = True
                # One frame with a kind no peer accepts: 8 bytes of
                # header claiming an 8-byte payload of garbage.  The
                # peer answers by dropping the session.
                self._inner._sock.sendall(
                    _HEADER.pack((_BAD_FRAME_KIND << _KIND_SHIFT) | 8)
                    + b"<fault!>"
                )
            return False
        if self._mode == "kill":
            # Abrupt socket death; the real send below then fails the
            # way a killed peer's RST would.
            self._inner.close()
        return True

    def send(self, message: Any) -> None:
        if self._before_send():
            self._inner.send(message)
        self._frames_sent += 1

    def send_ingest(self, names: List[str], commands: List[tuple]) -> None:
        if self._before_send():
            self._inner.send_ingest(names, commands)
        self._frames_sent += 1

    def recv(self) -> Any:
        if self._mode == "delay":
            time.sleep(self._delay_s)
        return self._inner.recv()

    def close(self) -> None:
        self._closed.set()
        self._inner.close()

    def detach(self) -> None:
        self._closed.set()
        self._inner.detach()


def inject_client(client: Any, spec: FaultSpec) -> FaultyTransport:
    """Wrap one shard client's transport per ``spec``; returns the wrap.

    The fault lands on the client's *first live session* — the primary
    — only; a replicated shard's other sessions stay healthy, which is
    exactly the failover scenario worth provoking.  The wrap hangs for
    as long as the socket under it would: its ``io_timeout``.
    """
    inner = client._transport
    wrapped = FaultyTransport(
        inner,
        spec.mode,
        after_frames=spec.after_frames,
        delay_s=spec.delay_s,
        io_timeout=inner._sock.gettimeout(),
    )
    client._transport = wrapped
    return wrapped


def inject_store(store: Any, spec: FaultSpec) -> FaultyTransport:
    """Apply ``spec`` to one shard of a tcp ``ShardedMetricStore``.

    The CLI's ``--inject-fault`` entry point: validates that the
    target shard is a remote (tcp) one and wraps its (primary)
    transport.  Raises ``ValueError`` for non-tcp backends or an
    out-of-range shard — usage errors, reported before any simulation
    work starts.
    """
    if getattr(store, "backend", None) != "tcp":
        raise ValueError(
            "--inject-fault requires the tcp shard backend "
            "(--shard-backend tcp)"
        )
    shards = store.shards
    if not 0 <= spec.shard < len(shards):
        raise ValueError(
            f"fault target shard {spec.shard} out of range "
            f"(store has {len(shards)} shards)"
        )
    return inject_client(shards[spec.shard], spec)
