"""CLI argument parsing and the simulate command's store wiring.

Covers the shards/shard-backend/block-windows combinations,
the archive-optional path of ``python -m repro simulate``, and the
distributed path: ``repro shard-server`` hosting remote shards that
``simulate --shard-backend tcp`` writes through.
"""

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.telemetry.sharding import BACKENDS

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestSimulateParsing:
    def setup_method(self):
        self.parser = build_parser()

    def test_defaults(self):
        args = self.parser.parse_args(["simulate"])
        assert args.output is None
        assert args.shards == 1
        assert args.block_windows == 1
        assert args.shard_backend is None
        assert args.windows is None
        assert args.days == 2.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_shard_backend_choices(self, backend):
        args = self.parser.parse_args(["simulate", "--shard-backend", backend])
        assert args.shard_backend == backend

    def test_unknown_shard_backend_rejected(self):
        with pytest.raises(SystemExit):
            self.parser.parse_args(["simulate", "--shard-backend", "rayon"])

    def test_shard_flags(self):
        args = self.parser.parse_args(
            [
                "simulate",
                "out.csv",
                "--shards", "4",
                "--block-windows", "32",
                "--windows", "10",
            ]
        )
        assert args.output == "out.csv"
        assert (args.shards, args.block_windows) == (4, 32)
        assert args.windows == 10

    def test_archive_is_optional(self):
        args = self.parser.parse_args(["simulate", "--windows", "5"])
        assert args.output is None

    @pytest.mark.parametrize("flag", ["--shards", "--block-windows"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_out_of_range_values_rejected_cleanly(self, flag, value):
        """Invalid shard/block values exit 2 via argparse."""
        with pytest.raises(SystemExit) as excinfo:
            self.parser.parse_args(["simulate", flag, value])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--windows", "-5", "must be >= 0, got -5"),
            ("--days", "-1", "must be finite and >= 0, got -1"),
            ("--servers", "0", "must be >= 2, got 0"),
            ("--servers", "1", "must be >= 2, got 1"),
            ("--pools", "Z", "unknown pool(s) 'Z'; valid letters: A,B,C,D,E,F,G"),
            ("--seed", "-1", "must be >= 0, got -1"),
        ],
    )
    def test_fleet_flag_mistakes_are_usage_errors(
        self, flag, value, named, capsys
    ):
        """A fleet-shaping flag out of range is one ``error:`` line
        naming the flag and the value, exit 2 — not the traceback of
        whatever constructor it would have reached."""
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", flag, value])
        assert excinfo.value.code == 2
        assert f"error: argument {flag}: {named}" in capsys.readouterr().err

    def test_shard_addrs_flag(self):
        args = self.parser.parse_args(
            ["simulate", "--shard-backend", "tcp",
             "--shard-addrs", "127.0.0.1:9400,127.0.0.1:9401"]
        )
        assert args.shard_backend == "tcp"
        assert args.shard_addrs == "127.0.0.1:9400,127.0.0.1:9401"
        assert self.parser.parse_args(["simulate"]).shard_addrs is None

    def test_io_timeout_default_and_flag(self):
        assert self.parser.parse_args(["simulate"]).io_timeout == 60.0
        args = self.parser.parse_args(["simulate", "--io-timeout", "2.5"])
        assert args.io_timeout == 2.5

    def test_shard_server_defaults(self):
        args = self.parser.parse_args(["shard-server"])
        assert args.listen == "127.0.0.1:0"
        assert args.max_sessions is None

    def test_shard_server_flags(self):
        args = self.parser.parse_args(
            ["shard-server", "--listen", "0.0.0.0:9400", "--max-sessions", "4"]
        )
        assert args.listen == "0.0.0.0:9400"
        assert args.max_sessions == 4
        with pytest.raises(SystemExit):
            self.parser.parse_args(["shard-server", "--max-sessions", "0"])

    def test_other_commands_require_archive(self):
        for command in ("plan", "validate", "availability"):
            with pytest.raises(SystemExit):
                self.parser.parse_args([command])
            args = self.parser.parse_args([command, "some.csv"])
            assert args.archive == "some.csv"


class TestSimulateExecution:
    """Tiny end-to-end runs through main() for each store configuration."""

    BASE = [
        "simulate",
        "--windows", "4",
        "--servers", "2",
        "--datacenters", "1",
        "--pools", "B",
    ]

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--shards", "2"],
            ["--block-windows", "2"],
            ["--shards", "3", "--block-windows", "2"],
            ["--shards", "2", "--shard-backend", "serial"],
            ["--shard-backend", "serial"],  # implies a sharded store
        ],
        ids=lambda extra: " ".join(extra) or "defaults",
    )
    def test_simulate_without_archive(self, extra):
        assert main(self.BASE + extra) == 0

    def test_simulate_writes_archive(self, tmp_path):
        archive = tmp_path / "telemetry.csv"
        assert main(self.BASE + ["--shards", "2", str(archive)]) == 0
        header = archive.read_text().splitlines()[0]
        assert header == "window,server_id,pool_id,datacenter_id,counter,value"

    def test_blocked_sharded_archive_matches_single(self, tmp_path):
        """The full CLI path: sharded+blocked export == single-store export."""
        single = tmp_path / "single.csv"
        sharded = tmp_path / "sharded.csv"
        base = self.BASE + ["--windows", "6"]
        assert main(base + [str(single)]) == 0
        assert main(
            base + ["--shards", "2", "--block-windows", "1", str(sharded)]
        ) == 0
        assert single.read_text() == sharded.read_text()

    def test_shard_addrs_without_tcp_backend_fails_cleanly(self):
        assert main(
            self.BASE + ["--shard-addrs", "127.0.0.1:9400"]
        ) == 2
        assert main(
            self.BASE + ["--shard-backend", "serial",
                         "--shard-addrs", "127.0.0.1:9400"]
        ) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--shards", "65"],
            ["--shard-backend", "tcp",
             "--shard-addrs", ",".join(["127.0.0.1:9"] * 65)],
        ],
    )
    def test_more_than_64_shards_is_a_usage_error(self, flags, capsys):
        """65 shards would split a server class: exit 2 before any dial,
        with the limit named."""
        assert main(self.BASE + flags) == 2
        assert "at most 64 shards" in capsys.readouterr().err

    def test_tcp_backend_without_addrs_fails_cleanly(self):
        assert main(self.BASE + ["--shard-backend", "tcp"]) == 2

    @pytest.mark.parametrize(
        "bad_addrs",
        [
            "127.0.0.1:notaport",
            "127.0.0.1:99999",
            "no-port-at-all",
            "[::1:9400",          # unbalanced IPv6 brackets
            "::1:9400",           # bare-colon IPv6 (brackets required)
            "127.0.0.1:9400,:9401",  # one good, one empty host
        ],
    )
    def test_malformed_shard_addrs_exit_2(self, bad_addrs, capsys):
        """Bad addresses are a usage error (exit 2, message on stderr,
        naming the bad input) — never a traceback or a late crash."""
        assert main(
            self.BASE + ["--shard-backend", "tcp", "--shard-addrs", bad_addrs]
        ) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "invalid address" in captured.err or "requires" in captured.err

    def test_tcp_backend_with_dead_server_fails_cleanly(self):
        """Nothing listening: exit 2 with a clear error, no traceback."""
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(
            self.BASE + ["--shard-backend", "tcp",
                         "--shard-addrs", f"127.0.0.1:{port}",
                         "--connect-timeout", "0.3"]
        ) == 2

    @pytest.mark.slow
    def test_tcp_archive_matches_single_via_real_server(
        self, tmp_path, shard_server_processes
    ):
        """The acceptance path: ``--shard-backend tcp`` against a real
        ``repro shard-server`` subprocess on loopback writes an archive
        byte-identical to a single store's, and the server exits 0 once
        its ``--max-sessions`` sessions ended."""
        server, address = shard_server_processes.spawn(max_sessions=2)
        try:
            single = tmp_path / "single.csv"
            tcp = tmp_path / "tcp.csv"
            assert main(self.BASE + [str(single)]) == 0
            assert main(
                self.BASE + [
                    "--shard-backend", "tcp",
                    "--shard-addrs", f"{address},{address}",
                    str(tcp),
                ]
            ) == 0
            assert single.read_bytes() == tcp.read_bytes()
            assert server.wait(timeout=30) == 0
        finally:
            shard_server_processes.reap(server)

    @pytest.mark.slow
    def test_tcp_io_timeout_flag_through_cli(
        self, tmp_path, shard_server_processes
    ):
        """--io-timeout reaches the store: bounded (30) and unbounded
        (0) runs both write archives byte-identical to the unsharded
        baseline."""
        server, address = shard_server_processes.spawn(max_sessions=4)
        try:
            single = tmp_path / "single.csv"
            assert main(self.BASE + [str(single)]) == 0
            for io_timeout in ("30", "0"):
                archive = tmp_path / f"timeout-{io_timeout}.csv"
                assert main(
                    self.BASE + [
                        "--shard-backend", "tcp",
                        "--shard-addrs", f"{address},{address}",
                        "--io-timeout", io_timeout,
                        str(archive),
                    ]
                ) == 0
                assert single.read_bytes() == archive.read_bytes()
            assert server.wait(timeout=30) == 0
        finally:
            shard_server_processes.reap(server)


class TestQueryCliValidation:
    """Bad --query-listen / repro-query input is a usage error (exit 2)
    raised before any socket is dialed."""

    def test_query_listen_requires_stream(self, capsys):
        assert main(["simulate", "--windows", "4",
                     "--query-listen", "127.0.0.1:0"]) == 2
        assert "--query-listen requires --stream" in capsys.readouterr().err

    def test_query_listen_address_validated_before_run(self, capsys):
        assert main(["simulate", "--stream", "--windows", "4",
                     "--query-listen", "localhost"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "localhost" in err

    def test_query_address_validated_before_dial(self, capsys):
        assert main(["query", "not-an-address"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not-an-address" in err

    def test_query_pool_and_counter_must_pair(self, capsys):
        assert main(["query", "127.0.0.1:9400", "--pool", "B"]) == 2
        assert "--pool and --counter" in capsys.readouterr().err

    def test_query_refused_connection_exits_2(self, capsys):
        """A dead address is a clean usage-level failure, not a traceback."""
        import socket

        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()  # nothing listens here any more
        assert main(["query", f"127.0.0.1:{port}",
                     "--connect-timeout", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(port) in err

    @pytest.mark.parametrize("command", [
        ["simulate"], ["query", "127.0.0.1:9400"],
    ], ids=["simulate", "query"])
    @pytest.mark.parametrize("flag, value, named", [
        ("--io-timeout", "nan", "must be finite and >= 0, got nan"),
        ("--io-timeout", "inf", "must be finite and >= 0, got inf"),
        ("--io-timeout", "-1", "must be finite and >= 0, got -1"),
        ("--connect-timeout", "-1", "must be finite and >= 0, got -1"),
        ("--connect-timeout", "nan", "must be finite and >= 0, got nan"),
    ])
    def test_timeout_mistakes_are_usage_errors(
        self, command, flag, value, named, capsys
    ):
        """Once a ``ValueError`` traceback from the socket layer
        (rc 1); now one ``error:`` line naming the flag, exit 2."""
        with pytest.raises(SystemExit) as excinfo:
            main(command + [flag, value])
        assert excinfo.value.code == 2
        assert f"error: argument {flag}: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("value, named", [
        ("-1", "must be finite and > 0, got -1"),
        ("nan", "must be finite and > 0, got nan"),
        ("0", "must be finite and > 0, got 0"),
    ])
    def test_interval_mistakes_are_usage_errors(self, value, named, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "127.0.0.1:9400", "--watch", "--interval", value])
        assert excinfo.value.code == 2
        assert f"error: argument --interval: {named}" in capsys.readouterr().err

    def test_zero_timeouts_still_parse(self):
        args = build_parser().parse_args(
            ["query", "127.0.0.1:9400", "--io-timeout", "0",
             "--connect-timeout", "0"]
        )
        assert (args.io_timeout, args.connect_timeout) == (0.0, 0.0)


_ARCHIVE_HEADER = "window,server_id,pool_id,datacenter_id,counter,value\r\n"


class TestUnreadableArchive:
    """plan / validate / availability answer an archive they cannot
    read with one located ``error:`` line and exit 2, not a traceback."""

    @pytest.mark.parametrize("command", ["plan", "validate", "availability"])
    @pytest.mark.parametrize(
        "content, expected",
        [
            (None, "No such file"),
            ("not,an,archive\r\n", ":1: not a telemetry archive"),
            (_ARCHIVE_HEADER + "0,s0,B,DC1,cpu,oops\r\n", ":2: malformed row"),
            (_ARCHIVE_HEADER + "0,s0,B,DC1,cpu,1.5\r\n1," + "s" * 200_000
             + ",B,DC1,cpu,2.5\r\n", ":3: malformed row (field larger than field limit"),
        ],
        ids=["missing", "non-archive", "malformed-row", "overlong-field"],
    )
    def test_exit_2_with_one_error_line(
        self, tmp_path, capsys, command, content, expected
    ):
        archive = tmp_path / "archive.csv"
        if content is not None:
            archive.write_text(content, newline="")
        assert main([command, str(archive)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert str(archive) in captured.err and expected in captured.err


    @pytest.mark.parametrize("command", ["plan", "validate", "availability"])
    @pytest.mark.parametrize(
        "damage, expected",
        [
            (lambda packed: packed[:len(packed) // 2], "damaged archive (Compressed file ended"),
            (lambda packed: packed[:len(packed) // 3] + b"\xff" * 64
             + packed[len(packed) // 3 + 64:], " (Error -3 while decompressing"),
        ],
        ids=["truncated-member", "corrupted-mid-stream"],
    )
    def test_damaged_gzip_is_exit_2_not_a_traceback(
        self, tmp_path, capsys, command, damage, expected
    ):
        archive = tmp_path / "archive.csv.gz"
        assert main([
            "simulate", str(archive), "--windows", "40", "--servers", "3",
            "--datacenters", "1", "--pools", "B", "--seed", "3",
        ]) == 0
        capsys.readouterr()
        archive.write_bytes(damage(archive.read_bytes()))
        assert main([command, str(archive)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {archive}:")
        assert captured.err.count("\n") == 1
        assert expected in captured.err


class TestDocsCheck:
    """The ``docs-drift`` lint rule: README/docs and the CLI must agree.

    Each canary edits the docs of a scratch copy of the tree and runs
    the rule over it, as ``python tools/repro_lint --root COPY`` would.
    """

    @staticmethod
    def _drift(engine, root):
        found, _ = engine.run(root, only=["docs-drift"])
        return [f"{f.path}:{f.line}: {f.message}" for f in found]

    @staticmethod
    def _append(root, rel, text):
        path = root / rel
        path.write_text(path.read_text() + text)

    def test_repo_readme_passes(self, engine):
        assert self._drift(engine, REPO_ROOT) == []

    def test_detects_unknown_flag(self, engine, tree):
        self._append(
            tree, "README.md",
            "```bash\npython -m repro simulate --warp-speed 9\n```\n",
        )
        errors = self._drift(engine, tree)
        assert any("--warp-speed" in error for error in errors)

    def test_detects_undocumented_simulate_flag(self, engine, tree):
        (tree / "README.md").write_text("no flags documented at all\n")
        errors = self._drift(engine, tree)
        assert any("--shards" in error for error in errors)
        assert any("--block-windows" in error for error in errors)
        assert any("--shard-backend" in error for error in errors)

    def test_detects_stale_inline_flag_mention(self, engine, tree):
        """The reverse drift direction: prose naming a removed flag."""
        self._append(tree, "README.md", "Pass `--warp-speed` to go faster.\n")
        errors = self._drift(engine, tree)
        assert any(
            "--warp-speed" in error and "mentions" in error for error in errors
        )

    def test_fenced_code_of_any_language_is_not_flag_checked(
        self, engine, tree
    ):
        """Flags inside non-bash fences (e.g. python) are not prose."""
        self._append(
            tree, "README.md",
            "```python\n# pass ``--not-a-real-flag`` here\nx = 1\n```\n",
        )
        assert self._drift(engine, tree) == []

    def test_non_cli_tool_flags_are_allowlisted(self, engine, tree):
        self._append(
            tree, "README.md",
            "Run the benchmark with `--smoke`, the linter with `--json`.\n",
        )
        assert self._drift(engine, tree) == []

    def test_undocumented_command_detected(self, engine, tree):
        """Direction 4: a CLI command no doc mentions is drift."""
        assert not any(
            "is not mentioned in" in error
            for error in self._drift(engine, tree)
        )
        for path in [tree / "README.md", *(tree / "docs").glob("*.md")]:
            path.write_text(path.read_text().replace("shard-server", "server"))
        errors = self._drift(engine, tree)
        assert any(
            "'shard-server' is not mentioned in README.md or any docs"
            in error for error in errors
        )

    def test_distributed_doc_must_cover_shard_server_surface(
        self, engine, tree
    ):
        """Direction 5: DISTRIBUTED.md owns the shard-server docs, so a
        copy that drops the command or any of its live parser flags
        (or the distributed simulate flags) fails the check."""
        (tree / "docs" / "DISTRIBUTED.md").write_text(
            "all about distributed ingest, naming nothing\n"
        )
        errors = self._drift(engine, tree)
        assert any(
            "shard-server" in error and "command" in error for error in errors
        )
        for flag in ("--listen", "--max-sessions", "--shard-addrs"):
            assert any(flag in error for error in errors), flag

    def test_repo_distributed_doc_covers_all_server_flags(self, engine):
        """The real docs/DISTRIBUTED.md satisfies its coverage contract
        against the live parser (so a new shard-server flag cannot land
        without a docs update)."""
        import rule_docs_drift  # on sys.path once the engine is loaded

        text = (REPO_ROOT / "docs" / "DISTRIBUTED.md").read_text()
        flags = rule_docs_drift.cli_options(REPO_ROOT)["shard-server"]
        for flag in sorted(flags):
            if flag in ("-h", "--help"):
                continue
            assert flag in text, f"docs/DISTRIBUTED.md misses {flag}"


class TestStreamAndQueryPaths:
    """The streamed ``simulate`` run and the one-shot aggregate
    ``query`` at the surface, flags and printed output included."""

    FLEET = ["--servers", "3", "--datacenters", "1", "--pools", "B",
             "--seed", "5", "--block-windows", "64"]

    def test_retaining_stream_writes_the_batch_archive(self, tmp_path, capsys):
        streamed, batch = tmp_path / "streamed.csv", tmp_path / "batch.csv"
        assert main(
            ["simulate", str(streamed), "--stream", "--max-windows", "300",
             "--retain-windows", "64"] + self.FLEET
        ) == 0
        assert "retention kept" in capsys.readouterr().err
        assert main(
            ["simulate", str(batch), "--windows", "300"] + self.FLEET
        ) == 0
        assert streamed.read_bytes() == batch.read_bytes()

    def test_injected_regression_raises_one_alert(self, capsys):
        """The alarm fleet of tests/test_streaming.py, through the CLI."""
        assert main([
            "simulate", "--stream", "--max-windows", "720",
            "--servers", "8", "--datacenters", "1", "--pools", "B",
            "--seed", "42", "--block-windows", "16",
            "--retain-windows", "512",
            "--alarm-pool", "B", "--inject-regression", "480",
        ]) == 0
        alerts = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("ALERT")
        ]
        assert len(alerts) == 1
        assert ": pool B at window" in alerts[0]

    QUERY = ["--pool", "B", "--counter", "C", "--dc", "DC1",
             "--reducer", "max", "--last", "3"]

    @staticmethod
    def _finished_store():
        """A store of 8 windows, and the last 3 lines QUERY must print."""
        import numpy as np

        from repro.telemetry.store import MetricStore

        store = MetricStore()
        rng = np.random.default_rng(11)
        for dc in ("DC1", "DC2"):
            indices = store.intern_servers([f"{dc}-s{i}" for i in range(3)])
            for window in range(8):
                store.record_batch("B", dc, "C", window, indices, rng.random(3))
        expected = store.pool_window_aggregate(
            "B", "C", datacenter_id="DC1", reducer="max"
        )
        return store, [
            [str(int(window)), repr(float(value))]
            for window, value in zip(expected.windows[-3:], expected.values[-3:])
        ]

    def test_query_prints_the_last_windows_at_repr_precision(self, capsys):
        from repro.telemetry.query_server import LiveQuerySurface, QueryServer

        store, expected = self._finished_store()
        with QueryServer(LiveQuerySurface(store)) as server:
            assert main(["query", server.address] + self.QUERY) == 0
        printed = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert printed == expected

    def test_watch_prints_the_backlog_then_only_new_windows(
        self, capsys, monkeypatch
    ):
        """Two polls of a finished store: the first prints the --last
        backlog, the second has nothing newly sealed and prints no
        window; Ctrl-C (in the second sleep) is a clean exit 0."""
        import time

        from repro.telemetry.query_server import LiveQuerySurface, QueryServer

        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            if len(sleeps) == 2:
                raise KeyboardInterrupt

        store, expected = self._finished_store()
        monkeypatch.setattr(time, "sleep", sleep)
        with QueryServer(LiveQuerySurface(store)) as server:
            assert main(["query", server.address, "--watch",
                         "--interval", "0.25"] + self.QUERY) == 0
        assert sleeps == [0.25, 0.25]
        out = capsys.readouterr()
        assert [line.split() for line in out.out.splitlines()] == expected
        assert out.err.count("# sealed through window 7") == 1
