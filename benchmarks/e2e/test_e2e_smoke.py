"""Smoke test of the benchmark itself (collected by the tier-1 run).

Runs every workload at smoke size through the very command
``BENCHMARK.json`` declares and holds the output to the declaration:
the names and units printed are exactly the ones declared, the
declaration stays inside the harness's limits, and the output checks
really fail when an archive row is damaged.  Nothing here asserts that
a *layer* hook still finds its target — those degrade to a warning by
design, so a refactor of ``src/`` cannot fail this file on their account.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def smoke(workload: str, trace: int, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "29", "--seconds", "0.05", "--trace", str(trace),
         "--smoke", *extra],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_declaration_is_within_the_harness_limits():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [
        metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_exactly_the_declared_metrics(workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = smoke(workload, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {
            name: metric["unit"] for name, metric in result["metrics"].items()
        } == {metric["name"]: metric["unit"] for metric in declared}
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_corrupted_archive_row_fails_the_output_checks():
    result = smoke("plan_pipeline", 0, "--corrupt-archive")
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
