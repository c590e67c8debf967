"""One entry point for every repo checker, with uniform PASS/FAIL.

Runs the three static gates in order — ``docs-check`` (README/docs vs
the live CLI parser), ``hygiene-check`` (no tracked build artifacts),
and ``lint`` (the ``tools/repro_lint`` invariant passes) — and prints one
``[PASS]``/``[FAIL]`` line per checker plus a summary.  Every checker
keeps printing its own findings to stderr exactly as when run alone,
and each remains available as an individual Make target
(``make docs-check`` etc.); this wrapper only adds the uniform
reporting and a single exit code.

Usage: ``python tools/run_checks.py [--only NAME ...]`` where NAME is
one of ``docs``, ``hygiene``, ``lint``.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def _load(module_name: str, path: Path):
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclass processing resolves string annotations through
    # sys.modules[cls.__module__], so register before executing.
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


def _run_docs() -> int:
    return _load("docs_check", REPO_ROOT / "tools" / "docs_check.py").main()


def _run_hygiene() -> int:
    return _load(
        "hygiene_check", REPO_ROOT / "tools" / "hygiene_check.py"
    ).main()


def _run_lint() -> int:
    module = _load(
        "repro_lint_engine", REPO_ROOT / "tools" / "repro_lint" / "engine.py"
    )
    return module.main([])


#: Checker name -> (label used in Make targets, runner).
CHECKS: List[tuple] = [
    ("docs", "docs-check", _run_docs),
    ("hygiene", "hygiene-check", _run_hygiene),
    ("lint", "repro-lint", _run_lint),
]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run_checks",
        description="Run every repo checker with uniform PASS/FAIL output.",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        choices=[name for name, _, _ in CHECKS],
        help="run only this checker (repeatable): "
        + ", ".join(name for name, _, _ in CHECKS),
    )
    args = parser.parse_args(argv)

    selected = [
        (name, label, runner)
        for name, label, runner in CHECKS
        if args.only is None or name in args.only
    ]
    failures: List[str] = []
    for name, label, runner in selected:
        try:
            code = runner()
        except Exception as error:  # a crashed checker is a failure too
            print(f"run-checks: {label} crashed: {error}", file=sys.stderr)
            code = 1
        verdict = "PASS" if code == 0 else "FAIL"
        print(f"[{verdict}] {label}")
        if code != 0:
            failures.append(label)

    if failures:
        print(
            f"run-checks: {len(failures)}/{len(selected)} checker(s) "
            f"failed: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print(f"run-checks: all {len(selected)} checker(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
