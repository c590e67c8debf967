"""determinism: no hidden entropy or wall-clock reads under src/repro.

The repo's north-star guarantee is bit-identical results for the same
seed across engines, shard backends, and streaming vs batch.  One
``time.time()`` in a value path, one draw from the process-global
``random`` module, or one unseeded ``np.random.default_rng()`` breaks
that silently.  This pass forbids:

* wall-clock value reads (``time.time``/``time.time_ns``) and
  ``datetime.now``/``utcnow``/``today`` — simulated time must come
  from the simulation clock;
* the stdlib ``random`` module entirely (one hidden global RNG shared
  across threads);
* legacy ``numpy.random.<dist>`` globals (``np.random.shuffle``,
  ``np.random.seed``, ``RandomState``, ...) — same hidden-global
  problem in numpy clothing;
* ``np.random.default_rng()`` with no arguments (a fresh OS-entropy
  stream every run).

``time.perf_counter`` is a duration meter, not a value source, but it
still leaks host timing into anything that stores it — it is allowed
only at the stage-timer seams listed in :data:`PERF_COUNTER_ALLOWLIST`.
``time.monotonic``/``time.sleep`` stay legal: I/O deadlines and retry
pacing never feed results.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from astutil import SourceFile

RULE_NAME = "determinism"

#: Files (relative to ``src/repro``) whose stage timers may read
#: ``time.perf_counter`` — the simulation's per-stage breakdown and the
#: CLI's elapsed-time report.  Timers there annotate output, they never
#: enter stored telemetry values.
PERF_COUNTER_ALLOWLIST = {"cli.py", "cluster/simulation.py"}

_WALL_CLOCK = {"time.time", "time.time_ns"}
_PERF_COUNTER = {"time.perf_counter", "time.perf_counter_ns"}
_DATETIME = {
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}
#: ``numpy.random`` attributes that are explicitly seeded constructions
#: rather than draws from the hidden legacy global state.
_NP_RANDOM_OK = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64",
}
_TRACKED_ROOTS = ("time", "datetime", "random", "numpy")


def _alias_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin, for the modules this pass tracks."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    bound, origin = alias.asname, alias.name
                else:
                    bound = origin = alias.name.split(".")[0]
                if origin.split(".")[0] in _TRACKED_ROOTS:
                    aliases[bound] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            if node.module.split(".")[0] not in _TRACKED_ROOTS:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                aliases[bound] = f"{node.module}.{alias.name}"
    return aliases


def _resolve(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted origin of a Name/Attribute chain, via the alias map."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, aliases)
        if base is not None:
            return f"{base}.{node.attr}"
    return None


def _check_file(src: SourceFile, out: List[Tuple[str, int, str]]) -> None:
    aliases = _alias_map(src.tree)
    seen = set()

    def emit(line: int, message: str) -> None:
        if (line, message) not in seen:
            seen.add((line, message))
            out.append((src.rel, line, message))

    for node in ast.walk(src.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "random":
                    emit(
                        node.lineno,
                        "the stdlib `random` module is one hidden global "
                        "RNG shared across threads — use a seeded "
                        "`numpy.random.Generator` instead",
                    )
        elif isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            if module.split(".")[0] == "random":
                emit(
                    node.lineno,
                    "importing from the stdlib `random` module pulls from "
                    "one hidden global RNG — use a seeded "
                    "`numpy.random.Generator` instead",
                )
            elif module == "numpy.random":
                for alias in node.names:
                    if alias.name not in _NP_RANDOM_OK:
                        emit(
                            node.lineno,
                            f"legacy global `numpy.random.{alias.name}` "
                            f"draws from hidden shared state — use "
                            f"`numpy.random.default_rng(seed)`",
                        )

    for node in ast.walk(src.tree):
        if not isinstance(node, (ast.Name, ast.Attribute)):
            continue
        origin = _resolve(node, aliases)
        if origin is None:
            continue
        if origin in _WALL_CLOCK or origin in _DATETIME:
            emit(
                node.lineno,
                f"wall-clock read `{origin}` makes results depend on when "
                f"the run happens — thread time through the simulation "
                f"clock instead",
            )
        elif origin in _PERF_COUNTER:
            if src.repro_rel not in PERF_COUNTER_ALLOWLIST:
                allowed = ", ".join(sorted(PERF_COUNTER_ALLOWLIST))
                emit(
                    node.lineno,
                    f"`time.perf_counter` is allowlisted only for the "
                    f"stage timers in {allowed}",
                )
        else:
            parts = origin.split(".")
            if (
                len(parts) == 3
                and parts[0] == "numpy"
                and parts[1] == "random"
                and parts[2] not in _NP_RANDOM_OK
            ):
                emit(
                    node.lineno,
                    f"legacy global `numpy.random.{parts[2]}` draws from "
                    f"hidden shared state — use "
                    f"`numpy.random.default_rng(seed)`",
                )

    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        origin = _resolve(node.func, aliases)
        if (
            origin == "numpy.random.default_rng"
            and not node.args
            and not node.keywords
        ):
            emit(
                node.lineno,
                "`np.random.default_rng()` without a seed draws fresh OS "
                "entropy every run — pass an explicit seed",
            )


def run(
    files: Dict[str, SourceFile], root: Path
) -> List[Tuple[str, int, str]]:
    findings: List[Tuple[str, int, str]] = []
    for src in files.values():
        _check_file(src, findings)
    return findings
