"""repro-lint: each pass fires, suppressions work, and the tree is clean.

The canary tests mutate a *copy* of the tree (the ``tree`` fixture: a
git work tree holding src/repro, README.md and docs/) textually and
assert the relevant rule produces a named finding — proof that the gate
would catch the same drift landing in the real tree.  The docs-drift
canaries live beside the CLI they hold the docs to, in
``tests/test_cli.py``.  The clean-tree test is the other half: zero
findings on the repo as committed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


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

    def test_every_gate_reports_through_the_engine(self, engine, capsys):
        """Docs drift, hygiene and line budgets are engine rules: one
        exit code and one clean line for all of them."""
        code = engine.main(
            ["--only", "docs-drift", "--only", "hygiene",
             "--only", "line-budget"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "clean" in out
        assert "(rules: docs-drift, hygiene, line-budget)" in out

    def test_list_rules_names_all_six(self, engine, capsys):
        assert engine.main(["--list-rules"]) == 0
        assert capsys.readouterr().out.split() == [
            "determinism", "lock-discipline", "rpc-surface",
            "docs-drift", "hygiene", "line-budget",
        ]

    def test_docs_finding_names_a_markdown_line(self, engine, tree, capsys):
        readme = tree / "README.md"
        lines = readme.read_text().splitlines()
        readme.write_text("\n".join(lines + ["Pass `--warp-speed`."]) + "\n")
        code = engine.main(["--root", str(tree), "--only", "docs-drift"])
        err = capsys.readouterr().err
        assert code == 1
        assert (
            f"README.md:{len(lines) + 1}: [docs-drift] mentions --warp-speed"
            in err
        )


class TestDocsDriftRegistry:
    def test_undocumented_rule_fires(self, engine, tree):
        """Direction 6 reads the registry: a rule LINTING.md stops
        naming is a finding."""
        linting = tree / "docs" / "LINTING.md"
        linting.write_text(linting.read_text().replace("line-budget", "budget"))
        found = _findings(engine, tree, "docs-drift")
        assert [(f.path, f.message) for f in found] == [
            ("docs/LINTING.md", "does not document lint rule 'line-budget'")
        ]


def _git(root, *args):
    subprocess.run(["git", *args], cwd=root, check=True, capture_output=True)


class TestHygiene:
    def test_force_added_ignored_files_fire(self, engine, tree):
        """The listing is git's: anything .gitignore matches that is
        tracked anyway, whatever kind of artifact it is."""
        for rel in (".hypothesis/examples/a", "benchmarks/e2e/.work/run.json",
                    "src/repro/__pycache__/cli.cpython-311.pyc"):
            (tree / rel).parent.mkdir(parents=True, exist_ok=True)
            (tree / rel).write_text("artifact\n")
            _git(tree, "add", "-f", rel)
        _git(tree, "add", "README.md")  # tracked, not ignored: no finding
        found = _findings(engine, tree, "hygiene")
        assert sorted(f.path for f in found) == [
            ".hypothesis/examples/a", "benchmarks/e2e/.work/run.json",
            "src/repro/__pycache__/cli.cpython-311.pyc",
        ]
        assert all("git rm --cached" in f.message for f in found)

    def test_not_a_work_tree_is_a_finding(self, engine, tree):
        shutil.rmtree(tree / ".git")
        (found,) = _findings(engine, tree, "hygiene")
        assert "cannot list tracked files" in found.message


def _grow_past_budget(engine, tree, area, grown):
    """Pad ``grown`` until ``area`` is one line over its budget; return
    the line-budget findings by area, after checking ``area``'s."""
    import rule_line_budget as rule  # on sys.path once the engine is

    count = sum(len(path.read_text().splitlines()) for path in tree.glob(area))
    path = tree / grown
    path.write_text(path.read_text() + "#\n" * (rule.BUDGETS[area] - count + 1))
    found = {f.path: f.message for f in _findings(engine, tree, "line-budget")}
    assert found[area] == (
        f"{area} holds {rule.BUDGETS[area] + 1} lines, over its budget "
        f"of {rule.BUDGETS[area]}"
    )
    return found


class TestLineBudget:
    def test_repo_areas_are_within_budget(self, engine):
        import rule_line_budget as rule  # on sys.path once the engine is

        assert rule.BUDGETS["src/repro/**/*.py"] <= 14801
        assert rule.BUDGETS["src/repro/telemetry/*.py"] <= 5301
        assert rule.BUDGETS["README.md docs/*.md"] <= 1484
        assert rule.BUDGETS["tools/**/*.py"] <= 1444
        assert _findings(engine, REPO_ROOT, "line-budget") == []

    def test_growing_telemetry_past_its_budget_fires(self, engine, tree):
        found = _grow_past_budget(engine, tree, "src/repro/telemetry/*.py",
                                  "src/repro/telemetry/store.py")
        # Telemetry lines count toward the package's budget too.
        assert set(found) <= {"src/repro/telemetry/*.py", "src/repro/**/*.py"}

    def test_growing_the_package_past_its_budget_fires(self, engine, tree):
        found = _grow_past_budget(engine, tree, "src/repro/**/*.py", "src/repro/cli.py")
        assert set(found) == {"src/repro/**/*.py"}
