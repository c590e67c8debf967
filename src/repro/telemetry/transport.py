"""The shard transport: the byte pipe under the shard message protocol.

:mod:`repro.telemetry.workers` defines the actor protocol (coalesced
``ingest`` messages, synchronous ``call`` RPC, interner name-delta
replication, ``stop``/EOF shutdown) on the explicit assumption that the
two sides share **nothing** — not memory, not an interner, not a
process.  :class:`TcpTransport` is the one pipe under it: a TCP socket
speaking the length-prefixed frames below, exposing ``send(message)``,
``send_ingest(names, commands)`` (the ingest fast path), ``recv()``
(raising :class:`EOFError` on clean peer close) and ``close()``.  The
full operator-facing spec lives in ``docs/DISTRIBUTED.md``.

Wire format of :class:`TcpTransport` (one *frame* per protocol
message)::

    +------------------------------------+---------------------------+
    | header: 8 bytes, unsigned          | payload: ``length`` bytes |
    | big-endian; top byte = frame kind, |                           |
    | low 7 bytes = payload length       |                           |
    +------------------------------------+---------------------------+

Frame kind 0 (``pickle``) carries ``pickle.dumps(message,
protocol=HIGHEST_PROTOCOL)`` and is the control plane only: calls,
replies, ``stop``.  An ``ingest`` message arriving as kind 0 is
refused like any other malformed frame.

Frame kind 1 (``binary ingest``) is the pickle-free data plane: the
one hot message, ``("ingest", names, commands)``, where every command
is the argument tuple of one ``record_columns`` call over the fixed
``(int64, int64, float64)`` column layout (checked where rows enter —
see :func:`repro.telemetry.store._check_columns` — so the encoder
trusts it).  Layout of the payload (lengths big-endian, array data
little-endian)::

    u32 n_names; n_names x (u32 byte_len, utf-8 bytes)
    u32 n_commands
    per command:
        3 x (u32 byte_len, utf-8 bytes)   pool, datacenter, counter
        u64 n_rows
        n_rows x i64 (LE)                  windows
        n_rows x i64 (LE)                  server indices
        n_rows x f64 (LE)                  values

Both ends of a connection must run the same tree — nothing is
negotiated.  Frames are strictly sequential per connection (the
protocol is FIFO by design); a frame claiming an unknown kind or more
than ``MAX_FRAME_BYTES``, or whose payload does not decode, is treated
as evidence the peer is not speaking this protocol and kills the
connection rather than attempting a giant allocation.

**Security**: kind-0 frames are unpickled, and pickle deserialisation
executes arbitrary code by design.  A shard server must only ever
listen on loopback or an otherwise trusted, access-controlled network
— the reason the default listen address is ``127.0.0.1``.
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
from typing import Any, List, Sequence, Tuple

import numpy as np

#: Frame header: one 8-byte unsigned big-endian int — frame kind in
#: the top byte, payload length in the low 7 bytes.  Also packed by
#: :mod:`repro.telemetry.faultinject` to forge a bad-kind frame, so
#: layout changes must keep that corruption path in step.
_HEADER = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")

#: Header frame kinds.
FRAME_PICKLE = 0
FRAME_BINARY_INGEST = 1

_KIND_SHIFT = 56
_LENGTH_MASK = (1 << _KIND_SHIFT) - 1

#: Upper bound on a single frame's payload.  Real messages are far
#: smaller (an ingest message holds at most ``flush_rows`` rows); a
#: length beyond this means the peer is not speaking the protocol.
MAX_FRAME_BYTES = 1 << 40

#: How long :meth:`TcpTransport.connect` keeps retrying a refused
#: connection before giving up (seconds).  Covers the "client raced the
#: server's bind" window of the two-terminal workflow.
DEFAULT_CONNECT_TIMEOUT = 5.0

#: Default per-operation socket timeout (seconds): how long one send
#: or recv may sit with *no progress* before the connection is declared
#: dead.  Bounds every RPC against a hung-but-alive peer; ``None``
#: disables the bound (block forever).
DEFAULT_IO_TIMEOUT = 60.0

_RETRY_INTERVAL = 0.05

#: Buffers at least this large are written straight to the socket
#: instead of being joined into the frame's small-field buffer — the
#: column arrays of a binary ingest frame cross with no extra copy.
_SENDV_COALESCE_BYTES = 1 << 16

#: The binary ingest frame's column dtypes (explicitly little-endian;
#: a big-endian host byte-swaps on the way out and in).
_COLUMN_DTYPES = (np.dtype("<i8"), np.dtype("<i8"), np.dtype("<f8"))

#: Bytes one row occupies across the three columns of a kind-1 frame.
_ROW_BYTES = sum(dtype.itemsize for dtype in _COLUMN_DTYPES)


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``host:port`` string into a ``(host, port)`` pair.

    The CLI's address syntax (``--listen``, ``--shard-addrs``); port 0
    is valid for listeners and means "pick an ephemeral port".  IPv6
    hosts must be bracketed, RFC-3986 style — ``[::1]:9400`` parses to
    ``("::1", 9400)`` — because a bare-colon form like ``::1:9400`` is
    ambiguous and is rejected.  The port must be a bare decimal
    integer in ``[0, 65535]``: signs, spaces, underscores and empty
    strings are rejected with the offending input named.
    """
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"invalid address {address!r}: expected host:port"
        )
    if host.startswith("[") or host.endswith("]"):
        if not (host.startswith("[") and host.endswith("]")):
            raise ValueError(
                f"invalid address {address!r}: unbalanced brackets in host"
            )
        host = host[1:-1]
        if not host:
            raise ValueError(f"invalid address {address!r}: empty host")
    elif ":" in host:
        raise ValueError(
            f"invalid address {address!r}: IPv6 hosts must be written "
            f"[host]:port (e.g. [::1]:9400)"
        )
    if not port_text.isascii() or not port_text.isdigit():
        raise ValueError(
            f"invalid address {address!r}: port {port_text!r} is not a "
            f"decimal integer"
        )
    port = int(port_text)
    if port > 65535:
        raise ValueError(
            f"invalid address {address!r}: port {port} out of range 0-65535"
        )
    return host, port


def format_address(host: str, port: int) -> str:
    """The inverse of :func:`parse_address` (brackets IPv6 hosts)."""
    if ":" in host:
        return f"[{host}]:{port}"
    return f"{host}:{port}"


class TcpTransport:
    """Length-prefixed frames (pickle or binary) over one TCP connection.

    One transport per shard session; created either by
    :meth:`connect` (client side) or around an accepted socket (server
    side).  ``TCP_NODELAY`` is set because the protocol is
    request/response at query time — Nagle would add a round-trip's
    latency to every RPC for no batching benefit (ingest messages are
    already coalesced parent-side).

    ``io_timeout`` bounds every socket operation: one send or recv that
    makes *no progress* for that many seconds raises
    :class:`TimeoutError` instead of blocking forever against a
    hung-but-alive peer (``None`` disables the bound).  The connection
    is unusable after a timeout — a partial frame may be in flight —
    so callers must treat it as lost.
    """

    def __init__(
        self,
        sock: socket.socket,
        io_timeout: float | None = None,
    ) -> None:
        self._sock = sock
        sock.settimeout(io_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP test doubles
            pass

    @classmethod
    def connect(
        cls,
        address: str,
        timeout: float = DEFAULT_CONNECT_TIMEOUT,
        io_timeout: float | None = None,
    ) -> "TcpTransport":
        """Dial ``host:port``, retrying refused connections.

        A freshly started server may not have bound yet (the
        two-terminal workflow has no ordering guarantee), so connection
        refusals — and only refusals — are retried every
        ``_RETRY_INTERVAL`` seconds until ``timeout`` elapses.
        Permanent failures (a DNS typo, an unreachable network) are
        knowable on the first attempt and fail immediately; every
        failure is re-raised with the address in the message.
        ``io_timeout`` becomes the connected transport's per-operation
        bound.
        """
        host, port = parse_address(address)
        deadline = time.monotonic() + timeout
        while True:
            try:
                sock = socket.create_connection((host, port), timeout=timeout)
                return cls(sock, io_timeout=io_timeout)
            except ConnectionRefusedError as error:
                if time.monotonic() >= deadline:
                    raise ConnectionError(
                        f"cannot connect to shard server at {address}: {error}"
                    ) from error
                time.sleep(_RETRY_INTERVAL)
            except OSError as error:
                raise ConnectionError(
                    f"cannot connect to shard server at {address}: {error}"
                ) from error

    def send(self, message: Any) -> None:
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        self._sendv((_HEADER.pack(len(payload)), payload))

    def send_ingest(self, names: List[str], commands: List[tuple]) -> None:
        """Send one ``("ingest", names, commands)`` message as a
        kind-1 binary frame — the only encoding ingest has."""
        self._sendv(encode_binary_ingest(names, commands))

    def _sendv(self, buffers: Sequence) -> None:
        """Write a buffer sequence: small fields coalesce into one
        ``sendall``, large ones (the column arrays) go straight to the
        socket with no join copy."""
        small: List[bytes] = []
        small_size = 0
        for buffer in buffers:
            if len(buffer) >= _SENDV_COALESCE_BYTES:
                if small:
                    self._sock.sendall(b"".join(small))
                    small = []
                    small_size = 0
                self._sock.sendall(buffer)
            else:
                small.append(bytes(buffer))
                small_size += len(buffer)
                if small_size >= _SENDV_COALESCE_BYTES:
                    self._sock.sendall(b"".join(small))
                    small = []
                    small_size = 0
        if small:
            self._sock.sendall(b"".join(small))

    def recv(self) -> Any:
        header = self._recv_exact(_HEADER.size, eof_ok=True)
        (word,) = _HEADER.unpack(header)
        kind = word >> _KIND_SHIFT
        length = word & _LENGTH_MASK
        if kind not in (FRAME_PICKLE, FRAME_BINARY_INGEST):
            raise ConnectionError(
                f"unknown frame kind {kind}: peer is not speaking "
                f"the shard protocol"
            )
        if length > MAX_FRAME_BYTES:
            raise ConnectionError(
                f"oversized frame ({length} bytes): peer is not speaking "
                f"the shard protocol"
            )
        payload = self._recv_exact(length)
        if kind == FRAME_BINARY_INGEST:
            return decode_binary_ingest(payload)
        try:
            message = pickle.loads(payload)
        except Exception as error:  # noqa: BLE001 — garbage raises anything
            raise ConnectionError(
                f"malformed pickle frame: {error!r}"
            ) from None
        if isinstance(message, tuple) and message[:1] == ("ingest",):
            raise ConnectionError(
                "ingest message in a pickle frame: peer is not speaking "
                "the shard protocol"
            )
        return message

    def _recv_exact(self, n: int, eof_ok: bool = False) -> bytearray:
        """Read exactly ``n`` bytes into one (writable) buffer.

        EOF on a frame boundary (``eof_ok``) is the peer's clean
        goodbye and raises :class:`EOFError`; EOF mid-frame means the
        peer died and raises :class:`ConnectionError`.  Returning a
        ``bytearray`` lets the binary decoder hand out writable ndarray
        views of the payload with zero further copies.
        """
        buffer = bytearray(n)
        view = memoryview(buffer)
        received = 0
        while received < n:
            chunk = self._sock.recv_into(view[received:])
            if not chunk:
                if eof_ok and received == 0:
                    raise EOFError("peer closed the connection")
                raise ConnectionError("connection closed mid-frame")
            received += chunk
        return buffer

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def detach(self) -> None:
        """Release this process's descriptor and nothing else.

        What a forked copy does instead of :meth:`close`:
        ``shutdown()`` acts on the connection itself, which the owner
        still shares, so it would end the owner's session.
        """
        self._sock.close()


def encode_binary_ingest(names, commands) -> List:
    """Encode an ingest message as the buffers of one kind-1 frame.

    ``commands`` are ``record_columns`` argument tuples whose columns
    already passed the layout check at the public entry points, so
    nothing is re-validated here.  Returns the full buffer sequence —
    header first — ready for a vectored send; column arrays are passed
    through as memoryviews, so large arrays are never copied on the way
    out.  The buffers after the header are the payload
    :func:`decode_binary_ingest` takes, which is also how a
    :class:`~repro.telemetry.sharding.ShardJournal` keeps a spilled
    batch.
    """
    fields = bytearray()
    buffers: List = [b""]  # header placeholder, filled in below
    fields += _U32.pack(len(names))
    for name in names:
        encoded = name.encode("utf-8")
        fields += _U32.pack(len(encoded)) + encoded
    fields += _U32.pack(len(commands))
    buffers.append(fields)
    total = len(fields)
    for pool_id, datacenter_id, counter, *columns in commands:
        meta = bytearray()
        for text in (pool_id, datacenter_id, counter):
            encoded = text.encode("utf-8")
            meta += _U32.pack(len(encoded)) + encoded
        meta += _U64.pack(columns[0].size)
        buffers.append(meta)
        total += len(meta)
        for array, dtype in zip(columns, _COLUMN_DTYPES):
            if not dtype.isnative:  # pragma: no cover - BE hosts
                array = array.astype(dtype)
            data = memoryview(array).cast("B")
            buffers.append(data)
            total += len(data)
    buffers[0] = _HEADER.pack((FRAME_BINARY_INGEST << _KIND_SHIFT) | total)
    return buffers


def _decode_text(view: memoryview, offset: int) -> Tuple[str, int]:
    """One ``(u32 byte_len, utf-8 bytes)`` field; returns (text, end)."""
    (byte_len,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    if byte_len > len(view) - offset:
        raise ValueError(f"text field of {byte_len} bytes overruns the frame")
    return bytes(view[offset:offset + byte_len]).decode("utf-8"), offset + byte_len


def decode_binary_ingest(payload: bytearray):
    """Decode a kind-1 payload back into ``("ingest", names, commands)``.

    Column arrays are writable ndarray views sharing the received
    buffer — one allocation per frame, no per-array copy (the store
    takes ownership of them).  Every count and length the payload
    claims is bounded by the bytes actually left *before* anything is
    allocated or sliced, and every failure raises
    :class:`ConnectionError`: the same not-speaking-the-protocol
    verdict as a bad frame header.
    """
    view = memoryview(payload)
    try:
        (n_names,) = _U32.unpack_from(view, 0)
        offset = _U32.size
        if n_names * _U32.size > len(view) - offset:
            raise ValueError(f"{n_names} names overrun the frame")
        names = []
        for _ in range(n_names):
            name, offset = _decode_text(view, offset)
            names.append(name)
        (n_commands,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        if n_commands * (3 * _U32.size + _U64.size) > len(view) - offset:
            raise ValueError(f"{n_commands} commands overrun the frame")
        commands = []
        for _ in range(n_commands):
            command = []
            for _field in range(3):
                text, offset = _decode_text(view, offset)
                command.append(text)
            (n_rows,) = _U64.unpack_from(view, offset)
            offset += _U64.size
            if n_rows * _ROW_BYTES > len(view) - offset:
                raise ValueError(f"{n_rows} rows overrun the frame")
            for dtype in _COLUMN_DTYPES:
                array = np.frombuffer(view, dtype=dtype, count=n_rows,
                                      offset=offset)
                if not dtype.isnative:  # pragma: no cover - BE hosts
                    array = array.astype(dtype.newbyteorder("="))
                command.append(array)
                offset += n_rows * dtype.itemsize
            commands.append(tuple(command))
        if offset != len(payload):
            raise ValueError("trailing bytes")
    except (struct.error, ValueError) as error:
        raise ConnectionError(
            f"malformed binary ingest frame: {error}"
        ) from None
    return ("ingest", names, commands)
