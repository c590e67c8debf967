"""Fail when README/docs drift from the actual CLI.

Checks both drift directions between the markdown surface (README.md
and every ``docs/*.md`` file) and ``repro.cli.build_parser()``:

1. every ``--flag`` used in a fenced code block's
   ``python -m repro <command>`` invocation must exist on that
   command's parser (catches docs invoking removed/renamed flags);
2. every ``--flag`` *mentioned* in inline code (single-backtick spans)
   anywhere in README/docs must exist on at least one CLI command —
   prose references rot just as fast as code blocks.  Flags of
   non-CLI tools (e.g. the benchmark script's ``--smoke``) go in
   ``NON_CLI_FLAGS``;
3. every flag the ``simulate`` command defines must be mentioned
   somewhere in README.md (catches new flags landing undocumented);
4. every CLI subcommand must be mentioned somewhere across the
   checked files (a new subcommand cannot land undocumented);
5. per-file coverage contracts (``REQUIRED_COVERAGE``): a file that
   owns a feature's documentation must mention that feature's
   commands and flags — ``docs/DISTRIBUTED.md`` must cover the
   ``shard-server`` command, *every* flag it defines (derived from
   the live parser, so adding a server flag without documenting it
   fails), and the distributed ``simulate`` flags;
6. ``docs/LINTING.md`` must document every registered ``repro_lint``
   rule (names come from the live rule registry, so a new lint pass
   cannot land undocumented — same idiom as deriving flags from the
   live parser).

Also verifies that relative markdown links in each checked file point
at files that exist (e.g. ``docs/ARCHITECTURE.md``).

Run via ``make docs-check`` (part of ``make test``, also wrapped by
``tools/run_checks.py``) or directly:
``PYTHONPATH=src python tools/docs_check.py``.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"
DOCS_DIR = REPO_ROOT / "docs"

#: Flags that legitimately appear in the docs but belong to tools other
#: than the ``python -m repro`` CLI (benchmark script modes, pip, …).
NON_CLI_FLAGS = {
    "--smoke",
    "--no-use-pep517",
    "--no-build-isolation",
    # tools/repro_lint flags (documented in docs/LINTING.md)
    "--json",
    "--only",
    "--list-rules",
}

#: Per-file documentation contracts (direction 5): file name ->
#: (commands whose surface the file owns, extra simulate flags it must
#: mention).  Flags of an owned command are derived from the live
#: parser so the contract tracks the CLI automatically.
REQUIRED_COVERAGE = {
    "DISTRIBUTED.md": {
        "commands": ("shard-server", "query"),
        "flags": (
            "--shard-backend",
            "--shard-addrs",
            "--connect-timeout",
            "--io-timeout",
            "--replica-addrs",
            "--inject-fault",
            "--query-listen",
        ),
    },
    "ARCHITECTURE.md": {
        "commands": (),
        "flags": (
            "--stream",
            "--max-windows",
            "--retain-windows",
            "--alarm-pool",
            "--inject-regression",
        ),
    },
    "TELEMETRY.md": {
        "commands": (),
        "flags": (
            "--stream",
            "--retain-windows",
        ),
    },
}

_FENCE = re.compile(r"```(?:bash|sh|console|text)?\n(.*?)```", re.DOTALL)
_ANY_FENCE = re.compile(r"```.*?```", re.DOTALL)
_FLAG = re.compile(r"(--[a-z][a-z0-9-]*)")
_LINK = re.compile(r"\[[^\]]+\]\(([^)#]+)\)")
_INLINE_CODE = re.compile(r"`([^`\n]+)`")


def checked_files() -> List[Path]:
    """README plus every markdown file under docs/."""
    files = [README]
    if DOCS_DIR.is_dir():
        files.extend(sorted(DOCS_DIR.glob("*.md")))
    return [f for f in files if f.exists()]


def cli_options() -> dict:
    """command name -> set of option strings, from the real parser."""
    from repro.cli import build_parser

    parser = build_parser()
    commands = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                flags = set()
                for sub_action in subparser._actions:
                    flags.update(sub_action.option_strings)
                commands[name] = flags
    return commands


def invocations(text: str) -> Iterable[Tuple[str, List[str]]]:
    """Yield (command, [flags]) for each fenced ``python -m repro`` call."""
    for block in _FENCE.findall(text):
        # Join backslash line continuations into one logical command.
        logical = block.replace("\\\n", " ")
        for line in logical.splitlines():
            line = line.strip()
            if "-m repro" not in line:
                continue
            tail = line.split("-m repro", 1)[1].split()
            if not tail or tail[0].startswith("-"):
                continue
            yield tail[0], _FLAG.findall(line)


def mentioned_flags(text: str) -> Iterable[str]:
    """Every ``--flag`` inside an inline code span, fences stripped.

    *All* fenced blocks are stripped first, whatever their language
    tag — invocation checking inside fences is :func:`invocations`'
    job, and e.g. a python fence must not have its contents re-parsed
    as prose spans.
    """
    prose = _ANY_FENCE.sub("", text)
    for span in _INLINE_CODE.findall(prose):
        yield from _FLAG.findall(span)


def check_file(path: Path, commands: dict, errors: List[str]) -> None:
    """Append this file's drift problems (directions 1 and 2) to ``errors``."""
    try:
        rel = path.relative_to(REPO_ROOT)
    except ValueError:  # test fixtures live outside the repo
        rel = path
    text = path.read_text()
    all_flags = set().union(*commands.values()) if commands else set()

    for command, flags in invocations(text):
        if command not in commands:
            errors.append(f"{rel} documents unknown command {command!r}")
            continue
        for flag in flags:
            if flag not in commands[command]:
                errors.append(
                    f"{rel} uses {flag} with {command!r}, but the CLI "
                    f"does not define it"
                )

    for flag in sorted(set(mentioned_flags(text))):
        if flag in NON_CLI_FLAGS:
            continue
        if flag not in all_flags:
            errors.append(
                f"{rel} mentions {flag}, but no CLI command defines it "
                f"(add it to NON_CLI_FLAGS if it belongs to another tool)"
            )

    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if not (path.parent / target).exists():
            errors.append(f"{rel} links to missing file {target!r}")

    coverage = REQUIRED_COVERAGE.get(path.name)
    if coverage is not None:
        required_flags = set(coverage["flags"])
        for command in coverage["commands"]:
            if command not in text:
                errors.append(
                    f"{rel} owns the {command!r} documentation but never "
                    f"mentions the command"
                )
            required_flags.update(commands.get(command, ()))
        for flag in sorted(required_flags):
            if flag in ("-h", "--help"):
                continue
            if flag not in text:
                errors.append(
                    f"{rel} owns this feature's documentation but does "
                    f"not mention {flag}"
                )


def check(readme_path: Path = README, doc_paths: Optional[List[Path]] = None) -> list:
    """Run every drift check; returns the list of problems found.

    ``readme_path`` / ``doc_paths`` exist for tests; by default the
    repo README and every ``docs/*.md`` file are checked (passing a
    non-default README checks only that file).
    """
    errors: List[str] = []
    if not readme_path.exists():
        return [f"{readme_path} does not exist"]
    if doc_paths is None:
        doc_paths = checked_files() if readme_path == README else [readme_path]
    commands = cli_options()

    for path in doc_paths:
        check_file(path, commands, errors)

    # Direction 3: undocumented simulate flags (README is the contract).
    readme_text = readme_path.read_text()
    for flag in sorted(commands.get("simulate", ())):
        if flag in ("-h", "--help"):
            continue
        if flag not in readme_text:
            errors.append(
                f"simulate flag {flag} is not mentioned anywhere in README.md"
            )

    # Direction 4: undocumented subcommands.  Only meaningful over the
    # real documentation surface — a test fixture README legitimately
    # covers a single feature, the repo's docs must cover every command.
    if readme_path == README:
        all_text = "".join(path.read_text() for path in doc_paths)
        errors.extend(undocumented_commands(commands, all_text))
        # Direction 6: every lint pass must be documented.
        errors.extend(undocumented_lint_rules())

    return errors


def lint_rule_names() -> List[str]:
    """Registered repro_lint rule names, from the live registry."""
    import importlib.util

    path = REPO_ROOT / "tools" / "repro_lint" / "engine.py"
    spec = importlib.util.spec_from_file_location("_repro_lint_engine", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["_repro_lint_engine"] = module
    spec.loader.exec_module(module)
    return list(module.load_rules()) + ["unused-suppression"]


def undocumented_lint_rules() -> List[str]:
    """Direction 6: lint rules docs/LINTING.md never mentions."""
    linting = DOCS_DIR / "LINTING.md"
    if not linting.exists():
        return [
            "docs/LINTING.md is missing — it owns the `make lint` "
            "invariant documentation"
        ]
    text = linting.read_text()
    return [
        f"docs/LINTING.md does not document lint rule {rule!r}"
        for rule in lint_rule_names()
        if rule not in text
    ]


def undocumented_commands(commands: dict, all_text: str) -> List[str]:
    """Direction 4: CLI commands the documentation never mentions."""
    return [
        f"CLI command {command!r} is not mentioned in README.md "
        f"or any docs/*.md file"
        for command in sorted(commands)
        if not re.search(rf"\b{re.escape(command)}\b", all_text)
    ]


def main() -> int:
    errors = check()
    if errors:
        for error in errors:
            print(f"docs-check: {error}", file=sys.stderr)
        print(f"docs-check: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    names = ", ".join(str(p.relative_to(REPO_ROOT)) for p in checked_files())
    print(f"docs-check: {names} match the CLI")
    return 0


if __name__ == "__main__":
    sys.exit(main())
