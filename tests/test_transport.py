"""The TCP shard transport: framing, server lifecycle, failure modes.

Equivalence of the ``tcp`` backend (bit-identical queries,
byte-identical exports) is proven by the backend-parametrized suites
in ``test_sharded_store.py`` / ``test_sim_equivalence.py``; this file
covers what is specific to the transport itself: the length-prefixed
frame codec (pickle and binary column frames, and the rejection of
frames that do not decode), ``host:port`` parsing, the connect-retry window, the one-connection-one-shard
server (``ShardServer``), both shutdown paths (``stop`` message vs
clean EOF), the pipelined ingest path (bounded queue, ordering,
close-with-frames-in-flight) and — the operational headline — that a
server dying *or hanging* mid-run surfaces as a clear error on the
client, never a hang.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.telemetry.sharding import ShardedMetricStore
from repro.telemetry.store import MetricStore, ServerInterner
from repro.telemetry.transport import (
    MAX_FRAME_BYTES,
    TcpTransport,
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
                "ingest",
                ["srv-0", "srv-1"],
                [("record_columns", (np.arange(1000), np.ones(1000)))],
            )
            client.send(payload)
            kind, names, commands = server.recv()
            assert kind == "ingest" and names == ["srv-0", "srv-1"]
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


class TestBinaryFrames:
    """The kind-1 binary column frame and its kind-0 fallback."""

    def _ingest_message(self, n_rows=1000):
        return (
            ["srv-0", "srv-1"],
            [
                (
                    "record_columns",
                    (
                        "P", "dc", "cpu",
                        np.arange(n_rows, dtype=np.int64),
                        np.arange(n_rows, dtype=np.int64) % 7,
                        np.linspace(0.0, 1.0, n_rows),
                    ),
                ),
                (
                    "record_columns",
                    (
                        "P", "dc", "rps",
                        np.arange(4, dtype=np.int64),
                        np.zeros(4, dtype=np.int64),
                        np.full(4, 2.5),
                    ),
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
            for (method, args), (got_method, got_args) in zip(
                commands, got_commands
            ):
                assert got_method == method
                assert got_args[:3] == args[:3]
                for sent, received in zip(args[3:], got_args[3:]):
                    assert received.dtype == sent.dtype
                    np.testing.assert_array_equal(received, sent)
                    # The store takes ownership of decoded arrays, so
                    # they must be writable like unpickled ones.
                    assert received.flags.writeable
        finally:
            client.close()
            server.close()

    def test_record_fast_commands_fall_back_to_pickle(self):
        """A compatibility command in the batch degrades the whole
        frame to pickle — never a partial/mixed encoding."""
        client, server = _loopback_pair()
        try:
            commands = [
                ("record_fast", (3, "s0", "P", "dc", "cpu", 1.5)),
                (
                    "record_columns",
                    (
                        "P", "dc", "cpu",
                        np.arange(2, dtype=np.int64),
                        np.zeros(2, dtype=np.int64),
                        np.ones(2),
                    ),
                ),
            ]
            client.send_ingest(["s0"], commands)
            kind, names, got = server.recv()
            assert kind == "ingest"
            assert got[0] == ("record_fast", (3, "s0", "P", "dc", "cpu", 1.5))
            np.testing.assert_array_equal(got[1][1][3], np.arange(2))
        finally:
            client.close()
            server.close()


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
            3, interner, address, io_timeout=0.4, pipeline_depth=0,
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


class TestPipelinedIngest:
    """The bounded send queue: backpressure, ordering, clean teardown."""

    def _slow_reader(self):
        """An accepted connection nobody reads until ``release`` is set;
        afterwards a minimal serve loop drains it.  A small receive
        buffer — set on the *listener*, before accept, because
        shrinking it on a live connection stalls the TCP window —
        makes the writer thread block in sendall quickly."""
        release = threading.Event()
        store = MetricStore()
        done = threading.Event()
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32 * 1024)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def serve():
            conn, _addr = listener.accept()
            listener.close()
            transport = TcpTransport(conn)
            release.wait(30)
            try:
                while True:
                    message = transport.recv()
                    if message[0] == "ingest":
                        for name in message[1]:
                            store.interner.intern(name)
                        for method, args in message[2]:
                            getattr(store, method)(*args)
                    elif message[0] == "call":
                        attr = getattr(store, message[2])
                        result = (
                            attr(*message[3], **message[4])
                            if callable(attr)
                            else attr
                        )
                        transport.send(("ok", result))
                    else:
                        break
            except (EOFError, OSError):
                pass
            transport.close()
            done.set()

        threading.Thread(target=serve, daemon=True).start()
        address = format_address(*listener.getsockname()[:2])
        return address, release, store, done

    #: Rows per frame in the slow-reader tests: ~9.6 MB on the wire, far
    #: beyond any combination of loopback socket buffers, so one frame
    #: reliably wedges the writer's sendall until the reader drains.
    BIG_ROWS = 400_000

    def _big_batch(self, interner, window, rows=BIG_ROWS):
        interner.intern("s0")
        return (
            np.full(rows, window, dtype=np.int64),
            np.zeros(rows, dtype=np.int64),
            np.full(rows, 1.0),
        )

    def test_queue_depth_is_bounded_and_backpressures(self):
        address, release, _store, _done = self._slow_reader()
        interner = ServerInterner()
        client = TcpShardClient(
            0, interner, address,
            flush_rows=1, pipeline_depth=2, io_timeout=30,
        )
        try:
            blocked = threading.Event()
            finished = threading.Event()

            def producer():
                # Each flush is ~9.6 MB — far beyond the socket buffers,
                # so the writer wedges on frame 1 and the queue fills.
                for window in range(6):
                    windows, idx, values = self._big_batch(interner, window)
                    client.record_columns("P", "dc", "cpu", windows, idx, values)
                    if window >= 3:
                        blocked.set()  # should never get this far early
                finished.set()

            thread = threading.Thread(target=producer, daemon=True)
            thread.start()
            # The producer must stall: depth 2 means at most ~3 frames
            # absorbed (1 in flight + 2 queued) before flush blocks.
            assert not blocked.wait(1.0), (
                "producer ran past the pipeline depth — queue is unbounded"
            )
            assert client._unsent <= 2
            release.set()  # slow reader starts draining
            assert finished.wait(30), "producer never unblocked"
            # Query-after-flush barrier: every row is visible.
            assert client.sample_count() == 6 * self.BIG_ROWS
        finally:
            client.close()

    def test_ordering_query_sees_all_prior_ingest(self, shard_server):
        interner = ServerInterner()
        client = TcpShardClient(
            0, interner, shard_server.address,
            flush_rows=8, pipeline_depth=4,
        )
        try:
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
                    # buffered so far, despite frames still in flight.
                    assert client.sample_count() == total
            assert client.sample_count() == total
            series = client.pool_window_aggregate("P", "cpu", reducer="count")
            np.testing.assert_array_equal(series.windows, np.arange(50))
        finally:
            client.close()

    def test_close_with_frames_in_flight_does_not_deadlock(self):
        address, release, _store, _done = self._slow_reader()
        interner = ServerInterner()
        # io_timeout far beyond the test budget: close() must free the
        # wedged writer itself (by aborting the in-flight send), not
        # ride on the I/O timeout expiring.
        client = TcpShardClient(
            0, interner, address,
            flush_rows=1, pipeline_depth=2, io_timeout=30,
        )
        try:
            # Two frames: one wedges in the writer's sendall, one sits
            # queued — close() must deal with both.  (A third flush
            # would backpressure this thread, which is the *other*
            # test's subject.)
            for window in range(2):
                windows, idx, values = self._big_batch(interner, window)
                client.record_columns("P", "dc", "cpu", windows, idx, values)
            assert client._unsent == 2  # 1 wedged in flight + 1 queued
        finally:
            closed = threading.Event()

            def close():
                client.close()
                closed.set()

            thread = threading.Thread(target=close, daemon=True)
            thread.start()
            assert closed.wait(15), "close() deadlocked on in-flight frames"
            release.set()

    def test_writer_error_surfaces_on_next_flush(self):
        server = ShardServer().start()
        interner = ServerInterner()
        client = TcpShardClient(
            0, interner, server.address, flush_rows=1, pipeline_depth=4,
        )
        server.stop()
        idx = np.array([interner.intern("s0")], dtype=np.int64)
        with pytest.raises(RuntimeError, match="shard 0"):
            for window in range(4096):
                client.record_columns(
                    "P", "dc", "cpu", np.array([window]), idx, np.ones(1)
                )
        client.close()

    def test_pipeline_depth_zero_is_synchronous(self, shard_server):
        interner = ServerInterner()
        client = TcpShardClient(
            0, interner, shard_server.address, flush_rows=1, pipeline_depth=0,
        )
        try:
            idx = np.array([interner.intern("s0")], dtype=np.int64)
            client.record_columns("P", "dc", "cpu", np.array([0]), idx, np.ones(1))
            assert client._writer is None  # no writer thread ever started
            assert client.sample_count() == 1
        finally:
            client.close()

    def test_negative_pipeline_depth_rejected(self):
        with pytest.raises(ValueError):
            ShardedMetricStore(n_shards=2, pipeline_depth=-1)


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
