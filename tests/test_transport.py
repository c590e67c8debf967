"""The TCP shard transport: framing, server lifecycle, failure modes.

Equivalence of the ``tcp`` backend (bit-identical queries,
byte-identical exports) is proven by the backend-parametrized suites
in ``test_sharded_store.py`` / ``test_sim_equivalence.py``; this file
covers what is specific to the transport itself: the length-prefixed
frame codec (pickle control frames, binary ingest frames, and the
rejection of frames that do not decode — a Hypothesis property over
arbitrary and damaged frames), ``host:port`` parsing, the connect-retry
window, the one-connection-one-shard server (``ShardServer``), both
shutdown paths (``stop`` message vs clean EOF), the single
caller-thread sender (ordering, dead peer, close) and — the operational
headline — that a server dying *or hanging* mid-run surfaces as a
clear error on the client, never a hang.
"""

import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.telemetry.sharding import ShardedMetricStore
from repro.telemetry.store import ServerInterner
from repro.telemetry.transport import (
    FRAME_BINARY_INGEST,
    MAX_FRAME_BYTES,
    TcpTransport,
    decode_binary_ingest,
    encode_binary_ingest,
    format_address,
    parse_address,
)
from repro.telemetry.workers import (
    ShardConnectionError,
    ShardServer,
    TcpShardClient,
)


def _loopback_pair():
    """A connected (client transport, server transport) pair."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client_sock = socket.create_connection(listener.getsockname())
    server_sock, _ = listener.accept()
    listener.close()
    return TcpTransport(client_sock), TcpTransport(server_sock)


class TestAddressSyntax:
    def test_roundtrip(self):
        assert parse_address("127.0.0.1:9400") == ("127.0.0.1", 9400)
        assert format_address("127.0.0.1", 9400) == "127.0.0.1:9400"
        assert parse_address("host:0") == ("host", 0)

    def test_ipv6_brackets(self):
        """IPv6 hosts are supported, RFC-3986 bracketed form only."""
        assert parse_address("[::1]:9400") == ("::1", 9400)
        assert parse_address("[fe80::1]:0") == ("fe80::1", 0)
        assert format_address("::1", 9400) == "[::1]:9400"
        assert parse_address(format_address("::1", 9400)) == ("::1", 9400)

    @pytest.mark.parametrize(
        "bad",
        [
            "no-port",
            ":9400",
            "host:",
            "host:notaport",
            "host:70000",
            "",
            ":",
            "host: 99",      # int() would accept the space
            "host:9_9",      # int() would accept the underscore
            "host:+99",      # int() would accept the sign
            "host:-1",
            "::1:9400",      # bare-colon IPv6 is ambiguous: brackets required
            "[::1:9400",     # unbalanced brackets
            "::1]:9400",
            "[]:9400",       # empty bracketed host
        ],
    )
    def test_invalid_addresses_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid address"):
            parse_address(bad)

    def test_error_names_the_bad_input(self):
        with pytest.raises(ValueError, match="notaport"):
            parse_address("host:notaport")
        with pytest.raises(ValueError, match="70001"):
            parse_address("host:70001")


class TestFraming:
    def test_message_roundtrip_including_ndarrays(self):
        client, server = _loopback_pair()
        try:
            payload = (
                "ok",
                ["srv-0", "srv-1"],
                [("gather_columns", (np.arange(1000), np.ones(1000)))],
            )
            client.send(payload)
            kind, names, commands = server.recv()
            assert kind == "ok" and names == ["srv-0", "srv-1"]
            np.testing.assert_array_equal(commands[0][1][0], np.arange(1000))
            # And the other direction, several frames back to back.
            for i in range(5):
                server.send(("ok", i))
            assert [client.recv() for _ in range(5)] == [
                ("ok", i) for i in range(5)
            ]
        finally:
            client.close()
            server.close()

    def test_clean_eof_raises_eoferror(self):
        client, server = _loopback_pair()
        client.close()
        with pytest.raises(EOFError):
            server.recv()
        server.close()

    def test_mid_frame_eof_raises_connection_error(self):
        client, server = _loopback_pair()
        # A header promising 100 bytes, then nothing: the peer died
        # mid-frame, which must not look like a clean goodbye.
        client._sock.sendall((100).to_bytes(8, "big") + b"partial")
        client.close()
        with pytest.raises(ConnectionError):
            server.recv()
        server.close()

    def test_oversized_frame_rejected(self):
        client, server = _loopback_pair()
        client._sock.sendall((MAX_FRAME_BYTES + 1).to_bytes(8, "big"))
        with pytest.raises(ConnectionError, match="oversized"):
            server.recv()
        client.close()
        server.close()

    def test_connect_refused_names_the_address(self):
        # Grab a port and close it so nothing listens there.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ConnectionError, match=f"127.0.0.1:{port}"):
            TcpTransport.connect(f"127.0.0.1:{port}", timeout=0.3)

    def test_connect_retries_until_server_binds(self):
        """The two-terminal race: client dials before the server binds."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        server = ShardServer(f"127.0.0.1:{port}")

        def start_late():
            server.start()

        timer = threading.Timer(0.2, start_late)
        timer.start()
        try:
            transport = TcpTransport.connect(f"127.0.0.1:{port}", timeout=5.0)
            transport.close()
        finally:
            timer.join()
            server.stop()


class TestShardServer:
    def test_ephemeral_port_reported(self):
        with ShardServer("127.0.0.1:0") as server:
            host, port = parse_address(server.address)
            assert host == "127.0.0.1" and port > 0

    def test_each_session_is_an_independent_shard(self):
        """Two sessions to one server = two stores, not one."""
        interner = ServerInterner()
        with ShardServer() as server:
            a = TcpShardClient(0, interner, server.address)
            b = TcpShardClient(1, interner, server.address)
            idx = interner.intern("s0")
            a.record_columns(
                "P", "dc", "cpu",
                np.array([0]), np.array([idx], dtype=np.int64), np.ones(1),
            )
            assert a.sample_count() == 1
            assert b.sample_count() == 0  # b's store never saw the row
            a.close()
            b.close()

    def test_client_eof_does_not_kill_server(self):
        """A vanishing client ends its session, never the server."""
        interner = ServerInterner()
        with ShardServer() as server:
            first = TcpShardClient(0, interner, server.address)
            first._transport.close()  # vanish without a stop message
            second = TcpShardClient(1, interner, server.address)
            assert second.sample_count() == 0  # server still answering
            second.close()

    def test_max_sessions_ends_serve_forever(self):
        server = ShardServer("127.0.0.1:0", max_sessions=1)
        server.start()
        interner = ServerInterner()
        client = TcpShardClient(0, interner, server.address)
        done = threading.Event()

        def wait():
            server.serve_forever()
            done.set()

        waiter = threading.Thread(target=wait)
        waiter.start()
        assert client.sample_count() == 0
        client.close()
        assert done.wait(10), "serve_forever did not return after last session"
        waiter.join()
        server.stop()

    def test_client_death_with_reply_in_flight_keeps_server(self):
        """A client that vanishes before reading its RPC reply must
        end only its own session — the reply send's broken pipe must
        not crash the serving thread or the server."""
        interner = ServerInterner()
        with ShardServer() as server:
            rude = TcpTransport.connect(server.address)
            rude.send(("call", [], "sample_count", (), {}))
            rude.close()  # gone before the reply lands
            survivor = TcpShardClient(0, interner, server.address)
            assert survivor.sample_count() == 0
            survivor.close()

    def test_undecodable_frame_ends_only_its_session(self):
        """A well-formed header followed by bytes that are not a pickle
        must end that session with a prompt EOF for the peer — not kill
        the session thread with the socket left open, stranding the
        peer until its I/O timeout — and the server keeps serving."""
        interner = ServerInterner()
        with ShardServer() as server:
            rude = socket.create_connection(parse_address(server.address))
            rude.settimeout(10)
            try:
                rude.sendall((16).to_bytes(8, "big") + b"\xff" * 16)
                assert rude.recv(1) == b""  # the server hung up on us
            finally:
                rude.close()
            survivor = TcpShardClient(0, interner, server.address)
            assert survivor.sample_count() == 0
            survivor.close()

    @pytest.mark.parametrize(
        "message",
        [
            ("flush",),
            ("ingest", [], []),
            "stop",
            (),
            ("call",),
            ("call", 5, "sample_count", (), {}),
        ],
        ids=[
            "unknown-tag", "pickled-ingest", "not-a-tuple", "empty-tuple",
            "short-call", "bad-names",
        ],
    )
    def test_unknown_message_ends_only_its_session(self, message, monkeypatch):
        """A well-formed pickle frame whose message is none of ingest /
        a five-field call / stop — including an ``ingest`` that crossed
        as pickle, which the protocol no longer has — is a peer not
        speaking the protocol: it gets a prompt EOF instead of waiting
        out its I/O timeout for a reply, the session thread ends without
        an exception, and the server keeps serving."""
        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        interner = ServerInterner()
        with ShardServer() as server:
            rude = TcpTransport.connect(server.address, io_timeout=10)
            try:
                rude.send(message)
                with pytest.raises(EOFError):
                    rude.recv()
            finally:
                rude.close()
            survivor = TcpShardClient(0, interner, server.address)
            assert survivor.sample_count() == 0
            survivor.close()
        # stop() joined the session threads: a crash would be here by now.
        assert not crashes, crashes[0].exc_value

    @pytest.mark.parametrize("name", ["_tables", "__class__", "record_columns"])
    def test_shard_session_refuses_undeclared_names(self, name):
        """A shard session answers the read table, ``evict_windows`` and
        ``resync``; any other name is an ``AttributeError`` reply and
        the session keeps serving."""
        interner = ServerInterner()
        with ShardServer() as server:
            client = TcpShardClient(0, interner, server.address)
            client.record_columns(
                "P", "dc", "cpu", np.array([0, 1]),
                np.array([interner.intern("a")] * 2), np.ones(2),
            )
            with pytest.raises(AttributeError, match=name):
                client.call(name)
            assert client.sample_count() == 2
            assert client.evict_windows(1) == 1
            assert client.hot_sample_count() == 1
            client.resync()
            assert client.sample_count() == 0
            client.close()

    def test_ended_sessions_are_pruned(self):
        """The session list tracks live sessions, not history —
        a long-running server must not accumulate dead entries."""
        interner = ServerInterner()
        with ShardServer() as server:
            for shard_id in range(5):
                client = TcpShardClient(shard_id, interner, server.address)
                assert client.sample_count() == 0
                client.close()
            deadline = threading.Event()
            for _ in range(100):  # session teardown is asynchronous
                if not server._sessions:
                    break
                deadline.wait(0.05)
            assert server._sessions == []

    def test_stop_is_idempotent(self):
        server = ShardServer().start()
        server.stop()
        server.stop()

    def test_double_start_rejected(self):
        with ShardServer() as server:
            with pytest.raises(RuntimeError):
                server.start()


class TestServerFailure:
    """Killing the server mid-run must fail loudly, never hang."""

    def _filled_store(self, server, n_shards=2):
        store = ShardedMetricStore(
            backend="tcp", shard_addrs=[server.address] * n_shards
        )
        ids = store.intern_servers([f"s{i}" for i in range(8)])
        for window in range(4):
            store.record_batch("P", "dc", "cpu", window, ids, np.ones(8))
        assert store.sample_count() == 32
        return store, ids

    def test_query_after_server_death_raises_clearly(self):
        server = ShardServer().start()
        store, ids = self._filled_store(server)
        address = server.address
        server.stop()  # the "kill -9 the server box" stand-in
        # Buffer fresh rows parent-side, then force them over the dead
        # wire: either the flush's send or the query's recv must raise
        # a RuntimeError naming the shard's address — within seconds,
        # not by hanging on a half-open socket.
        store.record_batch("P", "dc", "cpu", 99, ids, np.ones(8))
        with pytest.raises(RuntimeError, match=address.split(":")[0]):
            store.sample_count()
        store.close()  # still clean: close after failure is a no-op path

    def test_ingest_flush_after_server_death_raises(self):
        server = ShardServer().start()
        interner = ServerInterner()
        client = TcpShardClient(0, interner, server.address, flush_rows=4)
        server.stop()
        idx = np.array([interner.intern("s0")], dtype=np.int64)
        with pytest.raises(RuntimeError, match="connection lost"):
            # Repeated sends must eventually trip the threshold flush
            # and surface the dead peer (first sends may land in OS
            # buffers before the reset is observed).
            for window in range(1024):
                client.record_columns(
                    "P", "dc", "cpu",
                    np.array([window]), idx, np.ones(1),
                )
        client.close()

    def test_connect_to_never_started_server_fails_fast(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ConnectionError):
            ShardedMetricStore(
                backend="tcp",
                shard_addrs=[f"127.0.0.1:{port}"],
                connect_timeout=0.3,
            )

    def test_bad_address_in_list_leaves_no_leaked_sessions(self, shard_server):
        """A typo in address N must not leave sessions 0..N-1 dangling:
        the facade validates the whole list before dialling anything."""
        with pytest.raises(ValueError, match="notaport"):
            ShardedMetricStore(
                backend="tcp",
                shard_addrs=[shard_server.address, "host:notaport"],
            )
        # The good address was never dialled; the shared server has no
        # session to prune (give teardown a moment to be sure).
        deadline = time.monotonic() + 2.0
        while shard_server._sessions and time.monotonic() < deadline:
            time.sleep(0.02)
        assert shard_server._sessions == []


def _serving_listener(serve, host="127.0.0.1"):
    """A raw loopback listener whose first connection is handed to
    ``serve(TcpTransport)`` on a daemon thread.  Returns the address."""
    listener = socket.socket()
    listener.bind((host, 0))
    listener.listen(1)

    def accept_one():
        conn, _addr = listener.accept()
        listener.close()
        serve(TcpTransport(conn))

    threading.Thread(target=accept_one, daemon=True).start()
    return format_address(*listener.getsockname()[:2])


def _payload(names, commands) -> bytearray:
    """The kind-1 payload ``recv`` would hand the decoder (header off)."""
    return bytearray(b"".join(
        bytes(buffer) for buffer in encode_binary_ingest(names, commands)[1:]
    ))


_text = st.text(max_size=12)


@st.composite
def _commands(draw):
    n_rows = draw(st.integers(0, 40))
    return (
        draw(_text), draw(_text), draw(_text),
        draw(arrays(np.int64, n_rows)),
        draw(arrays(np.int64, n_rows)),
        draw(arrays(np.float64, n_rows, elements=st.floats(allow_nan=False))),
    )


_frames = st.tuples(
    st.lists(_text, max_size=5), st.lists(_commands(), max_size=6)
)


def _assert_well_formed(message):
    tag, names, commands = message
    assert tag == "ingest"
    assert all(isinstance(name, str) for name in names)
    for pool, dc, counter, windows, servers, values in commands:
        assert all(isinstance(text, str) for text in (pool, dc, counter))
        assert (windows.dtype, servers.dtype, values.dtype) == (
            np.int64, np.int64, np.float64
        )
        assert windows.shape == servers.shape == values.shape
        assert windows.ndim == 1


class TestBinaryFrames:
    """The kind-1 binary column frame: the only encoding ingest has."""

    def _ingest_message(self, n_rows=1000):
        return (
            ["srv-0", "srv-1"],
            [
                (
                    "P", "dc", "cpu",
                    np.arange(n_rows, dtype=np.int64),
                    np.arange(n_rows, dtype=np.int64) % 7,
                    np.linspace(0.0, 1.0, n_rows),
                ),
                (
                    "P", "dc", "rps",
                    np.arange(4, dtype=np.int64),
                    np.zeros(4, dtype=np.int64),
                    np.full(4, 2.5),
                ),
            ],
        )

    def test_binary_roundtrip_bit_identical(self):
        client, server = _loopback_pair()
        try:
            names, commands = self._ingest_message()
            client.send_ingest(names, commands)
            kind, got_names, got_commands = server.recv()
            assert kind == "ingest" and got_names == names
            assert len(got_commands) == len(commands)
            for args, got_args in zip(commands, got_commands):
                assert got_args[:3] == args[:3]
                for sent, received in zip(args[3:], got_args[3:]):
                    assert received.dtype == sent.dtype
                    np.testing.assert_array_equal(received, sent)
                    # The store takes ownership of decoded arrays, so
                    # they must be writable.
                    assert received.flags.writeable
        finally:
            client.close()
            server.close()

    def test_absurd_row_count_is_a_connection_error(self):
        """A frame claiming ``n_rows >= 2**63`` used to raise
        ``OverflowError`` out of ``np.frombuffer`` — past ``recv``'s
        decode handler, the serve loop and the client's failover."""
        client, server = _loopback_pair()
        try:
            payload = _payload([], [("P", "dc", "cpu", *(np.zeros(0),) * 3)])
            payload[-8:] = (2**63).to_bytes(8, "big")
            header = (FRAME_BINARY_INGEST << 56) | len(payload)
            client._sock.sendall(header.to_bytes(8, "big") + payload)
            with pytest.raises(ConnectionError, match="malformed binary"):
                server.recv()
        finally:
            client.close()
            server.close()

    @given(frame=_frames)
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_is_the_identity(self, frame):
        """Arbitrary unicode names/keys, zero-row and many-command
        frames all survive the codec bit for bit."""
        names, commands = frame
        tag, got_names, got_commands = decode_binary_ingest(
            _payload(names, commands)
        )
        assert (tag, got_names) == ("ingest", names)
        assert len(got_commands) == len(commands)
        for sent, received in zip(commands, got_commands):
            assert received[:3] == sent[:3]
            for a, b in zip(sent[3:], received[3:]):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    @given(
        frame=_frames,
        damage=st.one_of(
            st.tuples(st.just("truncate"), st.integers(0, 2**16)),
            st.tuples(st.just("flip"), st.integers(0, 2**16),
                      st.integers(1, 255)),
            st.tuples(st.just("length"), st.integers(0, 2**16),
                      st.sampled_from([4, 8]), st.integers(0, 2**64 - 1)),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_damaged_frame_is_refused_or_well_formed(self, frame, damage):
        """Any truncation, byte flip or overwritten length field yields
        ``ConnectionError`` or a well-formed message — never another
        exception, and never an allocation sized by the damage."""
        payload = _payload(*frame)
        kind, at, *rest = damage
        at %= len(payload)
        if kind == "truncate":
            del payload[at:]
        elif kind == "flip":
            payload[at] ^= rest[0]
        else:
            width, value = rest
            field = (value % 2 ** (8 * width)).to_bytes(width, "big")
            payload[at:at + width] = field[: len(payload) - at]
        try:
            message = decode_binary_ingest(payload)
        except ConnectionError:
            return
        _assert_well_formed(message)


class TestIoTimeout:
    """A hung-but-alive peer must become a clear error, not a hang."""

    def test_rpc_against_hung_peer_raises_named_error(self):
        def hang(transport):
            # Accept frames forever, never answer: alive but wedged.
            try:
                while True:
                    transport.recv()
            except (EOFError, OSError):
                pass

        address = _serving_listener(hang)
        interner = ServerInterner()
        client = TcpShardClient(
            3, interner, address, io_timeout=0.4,
        )
        started = time.monotonic()
        with pytest.raises(RuntimeError) as excinfo:
            client.sample_count()
        elapsed = time.monotonic() - started
        message = str(excinfo.value)
        assert "shard 3" in message and address in message
        assert "timed out" in message
        assert elapsed < 5.0, "timeout did not bound the hung RPC"
        client.close()

    def test_io_timeout_zero_disables_the_bound(self, shard_server):
        """0 (the CLI's 'off') must behave like None, not 'instant'."""
        interner = ServerInterner()
        client = TcpShardClient(0, interner, shard_server.address, io_timeout=0)
        try:
            assert client.sample_count() == 0
        finally:
            client.close()

    def test_garbage_reply_is_a_named_connection_error(self):
        """A reply that is not a pickle is the peer not speaking the
        protocol: the named per-shard error, never a raw unpickling
        exception leaking out of the client."""
        def babble(transport):
            try:
                transport.recv()
                transport._sock.sendall((16).to_bytes(8, "big") + b"\xff" * 16)
                transport.recv()  # hold the socket until the client leaves
            except (EOFError, OSError):
                pass
            transport.close()

        address = _serving_listener(babble)
        client = TcpShardClient(4, ServerInterner(), address, io_timeout=10)
        try:
            with pytest.raises(ShardConnectionError, match="shard 4") as excinfo:
                client.sample_count()
            assert address in str(excinfo.value)
            assert "malformed pickle frame" in str(excinfo.value.__cause__)
        finally:
            client.close()


class TestSingleSender:
    """``flush`` sends on the caller's thread: ordering, backpressure,
    dead peers and teardown without a queue or a writer."""

    def test_query_sees_all_prior_ingest_and_no_thread_is_started(self):
        interner = ServerInterner()
        with ShardServer() as server:
            client = TcpShardClient(0, interner, server.address, flush_rows=8)
            try:
                assert client.sample_count() == 0  # the session is up
                threads_before = threading.active_count()
                ids = np.array(
                    [interner.intern(f"s{i}") for i in range(4)], dtype=np.int64
                )
                total = 0
                for window in range(50):
                    client.record_columns(
                        "P", "dc", "cpu",
                        np.full(4, window, dtype=np.int64), ids, np.ones(4),
                    )
                    total += 4
                    if window % 9 == 0:
                        # Interleaved reads: each must observe everything
                        # buffered so far.
                        assert client.sample_count() == total
                assert client.sample_count() == total
                series = client.pool_window_aggregate("P", "cpu", reducer="count")
                np.testing.assert_array_equal(series.windows, np.arange(50))
                assert threading.active_count() == threads_before
            finally:
                client.close()

    def test_peer_that_stopped_reading_backpressures_until_io_timeout(self):
        """``sendall`` under ``io_timeout`` is the backpressure: a flush
        against a peer that never reads blocks, then fails with the
        named per-shard timeout — not an unbounded client-side queue,
        not a hang."""
        listener = socket.socket()
        # Set on the listener, before accept: shrinking the buffer of a
        # live connection stalls the TCP window.
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32 * 1024)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        interner = ServerInterner()
        client = TcpShardClient(
            0, interner, format_address(*listener.getsockname()[:2]),
            flush_rows=1, io_timeout=0.5,
        )
        conn, _addr = listener.accept()  # held open, never read
        try:
            interner.intern("s0")
            rows = 400_000  # ~9.6 MB: far beyond the socket buffers
            started = time.monotonic()
            with pytest.raises(ShardConnectionError, match="timed out"):
                client.record_columns(
                    "P", "dc", "cpu",
                    np.zeros(rows, dtype=np.int64),
                    np.zeros(rows, dtype=np.int64),
                    np.ones(rows),
                )
            assert time.monotonic() - started < 10.0
        finally:
            client.close()
            conn.close()
            listener.close()

    def test_dead_peer_surfaces_on_next_flush_or_query(self):
        server = ShardServer().start()
        interner = ServerInterner()
        client = TcpShardClient(0, interner, server.address, flush_rows=1)
        server.stop()
        idx = np.array([interner.intern("s0")], dtype=np.int64)
        with pytest.raises(ShardConnectionError, match="shard 0"):
            # The first sends may land in OS buffers before the reset
            # is observed; the query cannot.
            for window in range(64):
                client.record_columns(
                    "P", "dc", "cpu", np.array([window]), idx, np.ones(1)
                )
            client.sample_count()
        client.close()

    def test_close_after_peer_death_returns_promptly(self):
        server = ShardServer().start()
        interner = ServerInterner()
        client = TcpShardClient(
            0, interner, server.address, flush_rows=10_000, io_timeout=30,
        )
        idx = np.array([interner.intern("s0")], dtype=np.int64)
        client.record_columns("P", "dc", "cpu", np.array([0]), idx, np.ones(1))
        server.stop()
        started = time.monotonic()
        client.close()  # buffered rows dropped, goodbye send may fail
        client.close()
        assert time.monotonic() - started < 5.0
        assert client.closed


class TestIPv6:
    def test_server_and_client_over_ipv6_loopback(self):
        if not socket.has_ipv6:  # pragma: no cover - kernel without v6
            pytest.skip("IPv6 not available")
        try:
            server = ShardServer("[::1]:0").start()
        except OSError:  # pragma: no cover - v6 loopback disabled
            pytest.skip("IPv6 loopback not usable")
        try:
            assert server.address.startswith("[::1]:")
            interner = ServerInterner()
            client = TcpShardClient(0, interner, server.address)
            idx = np.array([interner.intern("s0")], dtype=np.int64)
            client.record_columns("P", "dc", "cpu", np.array([0]), idx, np.ones(1))
            assert client.sample_count() == 1
            client.close()
        finally:
            server.stop()
