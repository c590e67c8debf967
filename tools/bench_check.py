"""Guard: the committed benchmark JSON covers every shard backend.

``make test`` runs this before pytest, so a new shard backend
(:data:`repro.telemetry.sharding.BACKENDS`) cannot land without a row
in ``BENCH_sim_throughput.json`` pricing it — the perf trajectory
stays complete by construction instead of by reviewer vigilance.

The backend list is imported from the code, not repeated here: adding
``"gpu"`` to ``BACKENDS`` makes this check fail until ``make bench``
regenerates the JSON with a ``gpu`` row.

Usage: ``python tools/bench_check.py [path-to-json]``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.telemetry.sharding import BACKENDS  # noqa: E402

DEFAULT_PATH = REPO_ROOT / "BENCH_sim_throughput.json"

#: Stage keys every benchmark row must break its elapsed time into.
STAGE_KEYS = ("demand", "observe", "ingest")


def _has_stages(row: dict) -> bool:
    """The row breaks its time into exactly STAGE_KEYS, none of them zero."""
    stages = row.get("stages")
    return (
        isinstance(stages, dict)
        and set(stages) == set(STAGE_KEYS)
        and all(stages.values())
    )


def check(path: Path) -> List[str]:
    """Every backend, and non-zero stage breakdowns: return errors."""
    if not path.exists():
        return [f"{path.name} missing — run `make bench` to generate it"]
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path.name} is not valid JSON: {exc}"]

    errors: List[str] = []
    configs = data.get("configs", [])
    batch = data.get("batch")
    if not batch:
        errors.append(
            "no 'batch' baseline row (block_windows=1, unsharded) — "
            "regenerate with `make bench`"
        )

    backends_priced = {row.get("backend") for row in configs}
    for backend in BACKENDS:
        if backend not in backends_priced:
            errors.append(
                f"no sweep row for shard backend {backend!r} "
                f"(have: {sorted(backends_priced)})"
            )

    # Replication is a distinct price point (every ingest frame goes
    # out twice): the sweep must keep a replicated-tcp row alongside
    # the plain tcp ones.
    if not any(
        row.get("backend") == "tcp" and row.get("replicas", 0) >= 1
        for row in configs
    ):
        errors.append(
            "no sweep row for replicated tcp (backend 'tcp' with "
            "replicas >= 1) — regenerate with `make bench`"
        )

    for row in ([batch] if batch else []) + configs:
        if not _has_stages(row):
            errors.append(
                f"row block_windows={row.get('block_windows')!r} "
                f"backend={row.get('backend')!r} lacks a non-zero "
                f"{'/'.join(STAGE_KEYS)} stage breakdown — regenerate "
                f"with `make bench`"
            )

    # Streaming mode is a distinct operating regime (clock loop +
    # rolling retention): the JSON must price it with a stage breakdown
    # and a *measured* peak RSS — the standing evidence that a long
    # horizon streams with bounded hot memory.
    streaming = data.get("streaming")
    if not isinstance(streaming, dict):
        errors.append(
            "no 'streaming' row (simulate --stream) — regenerate with "
            "`make bench`"
        )
    else:
        if not _has_stages(streaming):
            errors.append(
                f"streaming row lacks a non-zero {'/'.join(STAGE_KEYS)} stage "
                f"breakdown — regenerate with `make bench`"
            )
        rss = streaming.get("peak_rss_mb")
        if not isinstance(rss, (int, float)) or rss <= 0:
            errors.append(
                "streaming row lacks a measured peak_rss_mb — "
                "regenerate with `make bench` on a POSIX host"
            )
        if not isinstance(streaming.get("retain_windows"), int):
            errors.append("streaming row lacks retain_windows")

    # The live query server is part of the streaming regime's contract:
    # the JSON must price what an operator's live aggregate query costs
    # (p50/p99 round-trip against a streaming run, lock waits included).
    query_latency = data.get("query_latency")
    if not isinstance(query_latency, dict):
        errors.append(
            "no 'query_latency' row (live repro-query hammer) — "
            "regenerate with `make bench`"
        )
    else:
        for key in ("p50_ms", "p99_ms"):
            value = query_latency.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                errors.append(
                    f"query_latency row lacks a measured {key} — "
                    f"regenerate with `make bench`"
                )
        if not isinstance(query_latency.get("windows"), int):
            errors.append("query_latency row lacks windows")
    return errors


def main(argv: List[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_PATH
    errors = check(path)
    if errors:
        for error in errors:
            print(f"bench-check: {error}", file=sys.stderr)
        return 1
    print(
        f"bench-check: {path.name} covers backends {list(BACKENDS)} "
        f"with non-zero stages on every row"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
