"""repro-lint: each pass fires, suppressions work, and the tree is clean.

The canary tests mutate a *copy* of ``src/repro`` textually and assert
the relevant rule produces a named finding — proof that the gate would
catch the same drift landing in the real tree.  The clean-tree test is
the other half: zero findings on the repo as committed.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT_DIR = REPO_ROOT / "tools" / "repro_lint"


def _load(module_name: str, path: Path):
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclass processing resolves string annotations through
    # sys.modules[cls.__module__], so register before executing.
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def engine():
    # engine.py puts its own directory on sys.path, so the rule modules
    # resolve regardless of how the engine itself was loaded.
    return _load("repro_lint_engine_under_test", LINT_DIR / "engine.py")


@pytest.fixture()
def tree(tmp_path):
    """A scratch copy of src/repro, ready to be mutated."""
    root = tmp_path / "tree"
    (root / "src").mkdir(parents=True)
    shutil.copytree(REPO_ROOT / "src" / "repro", root / "src" / "repro")
    return root


def _findings(engine, root, rule=None):
    found, _ = engine.run(root)
    if rule is None:
        return found
    return [f for f in found if f.rule == rule]


def _edit(root, rel, old, new):
    path = root / rel
    text = path.read_text()
    assert old in text, f"fixture drift: {old!r} not in {rel}"
    path.write_text(text.replace(old, new, 1))


class TestCleanTree:
    def test_repo_tree_is_clean(self, engine):
        found, n_files = engine.run(REPO_ROOT)
        assert found == [], "\n".join(f.text() for f in found)
        assert n_files > 50  # the walk really saw the package

    def test_no_suppressions_in_telemetry(self):
        for path in (REPO_ROOT / "src" / "repro" / "telemetry").rglob("*.py"):
            assert "repro-lint: disable" not in path.read_text(), (
                f"{path} carries a suppression — the telemetry layer "
                f"must satisfy every invariant outright"
            )


class TestDeterminism:
    def test_each_forbidden_source_fires(self, engine, tree):
        (tree / "src" / "repro" / "canary.py").write_text(
            "import random\n"
            "import time\n"
            "import numpy as np\n"
            "\n"
            "def f():\n"
            "    t = time.time()\n"
            "    d = time.perf_counter()\n"
            "    fresh = np.random.default_rng()\n"
            "    np.random.shuffle([1, 2])\n"
            "    return t, d, fresh\n"
        )
        lines = {
            f.line for f in _findings(engine, tree, "determinism")
            if f.path == "src/repro/canary.py"
        }
        assert {1, 6, 7, 8, 9} <= lines

    def test_perf_counter_allowed_only_at_stage_timers(self, engine, tree):
        # cli.py and cluster/simulation.py read perf_counter today and
        # the clean-tree test already proves they pass; the same call
        # anywhere else must fire.
        (tree / "src" / "repro" / "timer.py").write_text(
            "import time\n\ndef f():\n    return time.perf_counter()\n"
        )
        found = _findings(engine, tree, "determinism")
        assert any(f.path == "src/repro/timer.py" and f.line == 4 for f in found)

    def test_suppression_silences_and_unused_fires(self, engine, tree):
        (tree / "src" / "repro" / "canary.py").write_text(
            "import time\n"
            "\n"
            "def f():\n"
            "    return time.time()  # repro-lint: disable=determinism\n"
            "\n"
            "def g():\n"
            "    return 1  # repro-lint: disable=determinism\n"
        )
        found = [
            f for f in _findings(engine, tree)
            if f.path == "src/repro/canary.py"
        ]
        assert [(f.rule, f.line) for f in found] == [("unused-suppression", 7)]


class TestLockDiscipline:
    def test_store_self_lock_fires(self, engine, tree):
        _edit(
            tree,
            "src/repro/telemetry/store.py",
            "    def sample_count(self) -> int:",
            "    def locked_peek(self):\n"
            "        with self._lock:\n"
            "            return self._max_window\n"
            "\n"
            "    def sample_count(self) -> int:",
        )
        found = _findings(engine, tree, "lock-discipline")
        assert any("MetricStore must never take its own lock" in f.message
                   for f in found)

    def test_unlocked_surface_read_fires(self, engine, tree):
        """A hand-written compound read outside the lock hold fires; so
        does the one path every generated table read goes through."""
        _edit(
            tree,
            "src/repro/telemetry/query_server.py",
            '        """One consistent snapshot of run progress and alarm state."""\n'
            "        with self._lock:\n"
            "            store = self._store\n",
            '        """One consistent snapshot of run progress and alarm state."""\n'
            "        store = self._store\n"
            "        with self._lock:\n",
        )
        _edit(
            tree,
            "src/repro/telemetry/query_server.py",
            "        with self._lock:\n"
            "            result = getattr(self._store, name)\n",
            "        result = getattr(self._store, name)\n"
            "        with self._lock:\n",
        )
        found = _findings(engine, tree, "lock-discipline")
        assert any("LiveQuerySurface.status" in f.message for f in found)
        assert any("LiveQuerySurface._read" in f.message for f in found)


class TestRpcSurface:
    def test_fake_mutator_canary(self, engine, tree):
        """The drift canary: a mutator added to the read table must
        trip the pass — the table is what read-only clients may call."""
        _edit(
            tree,
            "src/repro/telemetry/store.py",
            '    "pool_matrix": (False, "column_stack"),\n',
            '    "pool_matrix": (False, "column_stack"),\n'
            '    "evict_windows": (False, "sum"),\n',
        )
        found = _findings(engine, tree, "rpc-surface")
        assert any(
            "READ_SURFACE lists 'evict_windows'" in f.message
            and "mutates" in f.message
            for f in found
        )

    def test_mutator_on_surface_fires(self, engine, tree):
        """A store mutator declared as a live-surface extra fires."""
        _edit(
            tree,
            "src/repro/telemetry/query_server.py",
            'LIVE_EXTRAS = ("status",',
            'LIVE_EXTRAS = ("evict_windows", "status",',
        )
        found = _findings(engine, tree, "rpc-surface")
        assert any(
            "LIVE_EXTRAS declares 'evict_windows'" in f.message
            and "mutates" in f.message
            for f in found
        )

    def test_renamed_dispatch_string_fires(self, engine, tree):
        _edit(
            tree,
            "src/repro/telemetry/workers.py",
            'self.call("evict_windows"',
            'self.call("evict_windowz"',
        )
        found = _findings(engine, tree, "rpc-surface")
        assert any("evict_windowz" in f.message for f in found)

    def test_table_entry_no_store_defines_fires(self, engine, tree):
        """A table name must exist on ``MetricStore``, and a row the
        facade answers itself on ``ShardedMetricStore``: a stale entry,
        or a facade read renamed away, fires."""
        _edit(
            tree,
            "src/repro/telemetry/store.py",
            '    "pool_matrix": (False, "column_stack"),\n',
            '    "pool_matrix": (False, "column_stack"),\n'
            '    "departed_method": (False, "union"),\n',
        )
        _edit(
            tree,
            "src/repro/telemetry/sharding.py",
            "    def evicted_before(self) -> int:",
            "    def evicted_after(self) -> int:",
        )
        messages = [f.message for f in _findings(engine, tree, "rpc-surface")]
        assert any(
            "'departed_method', but MetricStore" in m for m in messages
        )
        assert any(
            "'evicted_before', but ShardedMetricStore" in m for m in messages
        )

    def test_unknown_merge_rule_fires(self, engine, tree):
        """A row's merge must be one of the closed set of rules."""
        _edit(
            tree,
            "src/repro/telemetry/store.py",
            '    "max_window": (True, "max"),\n',
            '    "max_window": (True, "median"),\n',
        )
        (found,) = _findings(engine, tree, "rpc-surface")
        assert "merges 'max_window' by 'median', which is not a rule" in found.message

    def test_facade_method_shadowing_a_generated_read_fires(self, engine, tree):
        """A hand-written facade read for a generated row forks a merge
        back in: it fires where it is defined."""
        _edit(
            tree,
            "src/repro/telemetry/sharding.py",
            "    def _merge(self, name: str, *args, **kwargs):",
            "    def sample_count(self) -> int:\n"
            "        return 0\n"
            "\n"
            "    def _merge(self, name: str, *args, **kwargs):",
        )
        sharding = (tree / "src/repro/telemetry/sharding.py").read_text()
        (found,) = _findings(engine, tree, "rpc-surface")
        assert (found.path, found.line) == (
            "src/repro/telemetry/sharding.py",
            sharding.splitlines().index("    def sample_count(self) -> int:") + 1,
        )
        assert "generates that read from its 'sum' rule" in found.message


    def test_pickle_import_outside_the_listed_sites_fires(self, engine, tree):
        """The ratchet: transport.py unpickles, nobody new."""
        assert _findings(engine, tree, "rpc-surface") == []
        _edit(
            tree,
            "src/repro/telemetry/sharding.py",
            "import threading\n",
            "import pickle\nimport threading\n",
        )
        (tree / "src" / "repro" / "canary.py").write_text(
            "def f(data):\n    from pickle import loads\n    return loads(data)\n"
        )
        sharding = (tree / "src/repro/telemetry/sharding.py").read_text()
        found = _findings(engine, tree, "rpc-surface")
        assert sorted((f.path, f.line) for f in found) == [
            ("src/repro/canary.py", 2),
            (
                "src/repro/telemetry/sharding.py",
                sharding.splitlines().index("import pickle") + 1,
            ),
        ]
        assert all("imports pickle" in f.message for f in found)


    def test_second_call_proxy_class_fires(self, engine, tree):
        """The fork ratchet: ``TcpShardClient`` is the one class
        generated from the table through ``call`` — a replicated shard
        is its session list — so a second such class anywhere under
        ``telemetry/`` fires, and so does the client losing the
        decorator."""
        assert _findings(engine, tree, "rpc-surface") == []
        _edit(
            tree,
            "src/repro/telemetry/workers.py",
            "class ShardServer:",
            '@forward_reads("call")\nclass MirroredShardClient:\n'
            "    call = None\n\n\nclass ShardServer:",
        )
        _edit(
            tree,
            "src/repro/telemetry/query_server.py",
            '@forward_reads("_read")',
            '@forward_reads("call")',
        )
        found = _findings(engine, tree, "rpc-surface")
        assert sorted((f.path, f.message.split()[0]) for f in found) == [
            ("src/repro/telemetry/query_server.py", "LiveQuerySurface"),
            ("src/repro/telemetry/workers.py", "MirroredShardClient"),
        ]
        assert all("only TcpShardClient may be" in f.message for f in found)
        _edit(
            tree,
            "src/repro/telemetry/workers.py",
            '@forward_reads("call")\nclass TcpShardClient:',
            "class TcpShardClient:",
        )
        assert any(
            "TcpShardClient must be decorated" in f.message
            for f in _findings(engine, tree, "rpc-surface")
        )

    def test_pickle_import_back_in_the_store_fires(self, engine, tree):
        """store.py left the table when its spill log became raw
        columns; re-adding the import to a copy is a finding."""
        _edit(
            tree,
            "src/repro/telemetry/store.py",
            "import math\n",
            "import math\nimport pickle\n",
        )
        store = (tree / "src/repro/telemetry/store.py").read_text()
        (found,) = _findings(engine, tree, "rpc-surface")
        assert (found.path, found.line) == (
            "src/repro/telemetry/store.py",
            store.splitlines().index("import pickle") + 1,
        )
        assert "only ['src/repro/telemetry/transport.py'] may" in found.message


class TestCliSurface:
    def test_json_output_and_exit_codes(self, engine, tree, capsys):
        (tree / "src" / "repro" / "canary.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        code = engine.main(["--root", str(tree), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["clean"] is False
        assert any(
            f["rule"] == "determinism" and f["path"] == "src/repro/canary.py"
            for f in report["findings"]
        )

        code = engine.main(["--root", str(REPO_ROOT), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["clean"] is True and report["findings"] == []

    def test_only_selects_a_single_rule(self, engine, tree, capsys):
        (tree / "src" / "repro" / "canary.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        code = engine.main(
            ["--root", str(tree), "--only", "lock-discipline"]
        )
        capsys.readouterr()
        assert code == 0  # the determinism canary is out of scope

    def test_run_checks_wraps_lint(self, capsys):
        run_checks = _load(
            "run_checks_under_test", REPO_ROOT / "tools" / "run_checks.py"
        )
        code = run_checks.main(["--only", "lint", "--only", "hygiene"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] repro-lint" in out
        assert "[PASS] hygiene-check" in out
