"""repro-lint engine: rule registry, file walk, suppressions, output.

The repo's one static gate.  The engine parses every
``src/repro/**/*.py`` file once and hands the parsed-file map and the
repository root to each registered rule pass; the AST passes read the
map, the docs, hygiene and line-budget passes read the root.  Findings
are post-processed against ``# repro-lint: disable=<rule>`` suppression
comments (same-line; comma-separate to silence several rules), which
only python sources can carry.  A suppression that silences nothing is
itself a finding (``unused-suppression``), so stale opt-outs cannot
accumulate.

Exit codes: 0 clean, 1 findings, and findings go to stderr one per line
as ``path:line: [rule] message`` (the path may name any file of the
tree, ``README.md:12`` included).  Pass ``--json`` for a
machine-readable report on stdout, ``--only RULE`` (repeatable) to run a
subset, ``--root DIR`` to lint a different tree (the test suite lints
mutated copies this way).

Run via ``make lint`` (part of ``make test``) or directly:
``python tools/repro_lint [--json]``.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

_HERE = Path(__file__).resolve().parent
if str(_HERE) not in sys.path:
    sys.path.insert(0, str(_HERE))

from astutil import SourceFile  # noqa: E402

REPO_ROOT = _HERE.parent.parent

#: The rule registry: module name -> imported lazily by
#: :func:`load_rules`.  A new pass is one module with a ``RULE_NAME``
#: string and a ``run(files, root) -> [(rel_path, line, message), ...]``
#: function, plus one entry here.
RULE_MODULES = (
    "rule_determinism",
    "rule_lock_discipline",
    "rule_rpc_surface",
    "rule_docs_drift",
    "rule_hygiene",
    "rule_line_budget",
)

_SUPPRESS = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_, -]+)")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One invariant violation at a specific source line."""

    path: str
    line: int
    rule: str
    message: str

    def text(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def load_rules() -> Dict[str, object]:
    """Rule name -> ``run`` callable, in registry order."""
    rules: Dict[str, object] = {}
    for module_name in RULE_MODULES:
        module = importlib.import_module(module_name)
        rules[module.RULE_NAME] = module.run
    return rules


def collect_files(
    root: Path,
) -> Tuple[Dict[str, SourceFile], List[Finding]]:
    """Parse every python file under ``root/src/repro``."""
    base = root / "src" / "repro"
    files: Dict[str, SourceFile] = {}
    findings: List[Finding] = []
    for path in sorted(base.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        text = path.read_text()
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            findings.append(
                Finding(rel, exc.lineno or 1, "parse", f"cannot parse: {exc.msg}")
            )
            continue
        files[rel] = SourceFile(
            path=path, rel=rel, tree=tree, lines=text.splitlines()
        )
    return files, findings


def _suppression_map(
    files: Dict[str, SourceFile],
) -> Dict[Tuple[str, int], set]:
    suppressions: Dict[Tuple[str, int], set] = {}
    for src in files.values():
        for lineno, line in enumerate(src.lines, start=1):
            match = _SUPPRESS.search(line)
            if match:
                names = {
                    part.strip()
                    for part in match.group(1).split(",")
                    if part.strip()
                }
                if names:
                    suppressions[(src.rel, lineno)] = names
    return suppressions


def run(
    root: Path, only: Optional[Sequence[str]] = None
) -> Tuple[List[Finding], int]:
    """Lint the tree at ``root``; returns (findings, files scanned).

    ``only`` restricts to a subset of rule names; unused-suppression
    detection is skipped then, since a comment may exist for a rule
    that was not run.
    """
    files, findings = collect_files(root)
    rules = load_rules()
    if only is not None:
        unknown = sorted(set(only) - set(rules))
        if unknown:
            raise SystemExit(
                f"repro-lint: unknown rule(s) {', '.join(unknown)} "
                f"(have: {', '.join(rules)})"
            )
        rules = {name: fn for name, fn in rules.items() if name in only}

    for name, fn in rules.items():
        for rel, line, message in fn(files, root):
            findings.append(Finding(rel, line, name, message))

    suppressions = _suppression_map(files)
    used: set = set()
    kept: List[Finding] = []
    for finding in findings:
        key = (finding.path, finding.line)
        names = suppressions.get(key)
        if names is not None and finding.rule in names:
            used.add(key)
            continue
        kept.append(finding)
    if only is None:
        for key in sorted(set(suppressions) - used):
            names = ",".join(sorted(suppressions[key]))
            kept.append(
                Finding(
                    key[0],
                    key[1],
                    "unused-suppression",
                    f"suppression silences nothing — remove "
                    f"`# repro-lint: disable={names}`",
                )
            )
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return kept, len(files)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="The repo's static gate: AST invariants over "
        "src/repro, docs drift, tracked artifacts, line budgets.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=REPO_ROOT,
        help="repository root to lint (default: this repo)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable findings report on stdout",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="RULE",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print registered rule names and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in load_rules():
            print(name)
        return 0

    findings, n_files = run(args.root, only=args.only)
    rules = list(load_rules()) if args.only is None else args.only

    if args.json:
        report = {
            "root": str(args.root),
            "files": n_files,
            "rules": rules,
            "clean": not findings,
            "findings": [dataclasses.asdict(f) for f in findings],
        }
        print(json.dumps(report, indent=2))
        return 1 if findings else 0

    if findings:
        for finding in findings:
            print(f"repro-lint: {finding.text()}", file=sys.stderr)
        print(f"repro-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(
        f"repro-lint: clean, {n_files} files under src/repro "
        f"(rules: {', '.join(rules)})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
