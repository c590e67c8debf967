"""CLI argument parsing and the simulate command's store wiring.

Covers the shards/shard-backend/block-windows combinations,
the archive-optional path of ``python -m repro simulate``, and the
distributed path: ``repro shard-server`` hosting remote shards that
``simulate --shard-backend tcp`` writes through.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.telemetry.sharding import BACKENDS

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_docs_check():
    path = Path(__file__).resolve().parent.parent / "tools" / "docs_check.py"
    spec = importlib.util.spec_from_file_location("docs_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        ],
        ids=["missing", "non-archive", "malformed-row"],
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
    """The docs-check tool: README and the CLI must agree."""

    def test_repo_readme_passes(self):
        docs_check = _load_docs_check()
        assert docs_check.check() == []

    def test_detects_unknown_flag(self, tmp_path):
        docs_check = _load_docs_check()
        bad = tmp_path / "README.md"
        bad.write_text(
            "```bash\npython -m repro simulate --warp-speed 9\n```\n"
            + "".join(
                f"`{flag}` "
                for flag in sorted(docs_check.cli_options()["simulate"])
            )
        )
        errors = docs_check.check(bad)
        assert any("--warp-speed" in error for error in errors)

    def test_detects_undocumented_simulate_flag(self, tmp_path):
        docs_check = _load_docs_check()
        bare = tmp_path / "README.md"
        bare.write_text("no flags documented at all\n")
        errors = docs_check.check(bare)
        assert any("--shards" in error for error in errors)
        assert any("--block-windows" in error for error in errors)
        assert any("--shard-backend" in error for error in errors)

    def test_detects_stale_inline_flag_mention(self, tmp_path):
        """The reverse drift direction: prose naming a removed flag."""
        docs_check = _load_docs_check()
        bad = tmp_path / "README.md"
        bad.write_text(
            "Pass `--warp-speed` to go faster.\n"
            + "".join(
                f"`{flag}` "
                for flag in sorted(docs_check.cli_options()["simulate"])
            )
        )
        errors = docs_check.check(bad)
        assert any(
            "--warp-speed" in error and "mentions" in error for error in errors
        )

    def test_fenced_code_of_any_language_is_not_flag_checked(self, tmp_path):
        """Flags inside non-bash fences (e.g. python) are not prose."""
        docs_check = _load_docs_check()
        ok = tmp_path / "README.md"
        ok.write_text(
            "```python\n# pass ``--not-a-real-flag`` here\nx = 1\n```\n"
            + "".join(
                f"`{flag}` "
                for flag in sorted(docs_check.cli_options()["simulate"])
            )
        )
        assert docs_check.check(ok) == []

    def test_non_cli_tool_flags_are_allowlisted(self, tmp_path):
        docs_check = _load_docs_check()
        ok = tmp_path / "README.md"
        ok.write_text(
            "Run the benchmark with `--smoke`, the linter with `--json`.\n"
            + "".join(
                f"`{flag}` "
                for flag in sorted(docs_check.cli_options()["simulate"])
            )
        )
        assert docs_check.check(ok) == []

    def test_undocumented_command_detected(self):
        """Direction 4: a CLI command no doc mentions is drift."""
        docs_check = _load_docs_check()
        commands = docs_check.cli_options()
        assert "shard-server" in commands
        errors = docs_check.undocumented_commands(
            commands, "only `simulate`, `plan`, `validate`, `availability`"
        )
        assert any("shard-server" in error for error in errors)
        everything = " ".join(commands)
        assert docs_check.undocumented_commands(commands, everything) == []

    def test_distributed_doc_must_cover_shard_server_surface(self, tmp_path):
        """Direction 5: DISTRIBUTED.md owns the shard-server docs, so a
        copy that drops the command or any of its live parser flags
        (or the distributed simulate flags) fails the check."""
        docs_check = _load_docs_check()
        readme = tmp_path / "README.md"
        readme.write_text(
            "".join(
                f"`{flag}` "
                for flag in sorted(docs_check.cli_options()["simulate"])
            )
        )
        bare = tmp_path / "DISTRIBUTED.md"
        bare.write_text("all about distributed ingest, naming nothing\n")
        errors = docs_check.check(readme, doc_paths=[readme, bare])
        assert any(
            "shard-server" in error and "command" in error for error in errors
        )
        for flag in ("--listen", "--max-sessions", "--shard-addrs"):
            assert any(flag in error for error in errors), flag

    def test_repo_distributed_doc_covers_all_server_flags(self):
        """The real docs/DISTRIBUTED.md satisfies its coverage contract
        against the live parser (so a new shard-server flag cannot land
        without a docs update)."""
        docs_check = _load_docs_check()
        text = (REPO_ROOT / "docs" / "DISTRIBUTED.md").read_text()
        for flag in sorted(docs_check.cli_options()["shard-server"]):
            if flag in ("-h", "--help"):
                continue
            assert flag in text, f"docs/DISTRIBUTED.md misses {flag}"
