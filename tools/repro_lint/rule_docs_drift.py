"""docs-drift: README.md and docs/*.md agree with the live CLI.

Flags and commands come from ``repro.cli.build_parser()``, rule names
from the engine's registry, so neither list is kept by hand.  Over
README.md and every ``docs/*.md`` file of the linted root:

1. every ``--flag`` of a fenced ``python -m repro <command>`` call
   exists on that command's parser;
2. every ``--flag`` in an inline code span (fences of any language
   stripped) exists on some command, or is in ``NON_CLI_FLAGS``;
3. every ``simulate`` flag is mentioned in README.md;
4. every CLI command is mentioned in README.md or a docs file;
5. a file named in ``REQUIRED_COVERAGE`` mentions the commands it owns,
   every flag those define, and the flags it lists;
6. ``docs/LINTING.md`` names every registered rule.

Relative markdown links must point at files that exist.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

RULE_NAME = "docs-drift"

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

_FENCE = re.compile(r"```([\w-]*)\n(.*?)```", re.DOTALL)
_SHELL_FENCES = {"", "bash", "sh", "console", "text"}
_ANY_FENCE = re.compile(r"```.*?```", re.DOTALL)
_FLAG = re.compile(r"(--[a-z][a-z0-9-]*)")
_LINK = re.compile(r"\[[^\]]+\]\(([^)#]+)\)")
_INLINE_CODE = re.compile(r"`([^`\n]+)`")
_HELP = {"-h", "--help"}

Findings = List[Tuple[str, int, str]]


def cli_options(root: Path) -> Dict[str, Set[str]]:
    """Command name -> its option strings, from the real parser."""
    try:
        from repro.cli import build_parser
    except ImportError:
        sys.path.insert(0, str(root / "src"))
        from repro.cli import build_parser

    commands = {}
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                commands[name] = {
                    flag
                    for sub_action in subparser._actions
                    for flag in sub_action.option_strings
                }
    return commands


def _line(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def _invocations(text: str) -> Iterator[Tuple[int, str, List[str]]]:
    """(line, command, flags) per fenced shell ``python -m repro`` call;
    backslash continuations join into the line the call starts on."""
    for fence in _FENCE.finditer(text):
        if fence.group(1) not in _SHELL_FENCES:
            continue
        first, start, pending = _line(text, fence.start(2)), 0, ""
        for offset, raw in enumerate(fence.group(2).split("\n")):
            if not pending:
                start = first + offset
            if raw.endswith("\\"):
                pending += raw[:-1] + " "
                continue
            line, pending = pending + raw, ""
            if "-m repro" not in line:
                continue
            tail = line.split("-m repro", 1)[1].split()
            if tail and not tail[0].startswith("-"):
                yield start, tail[0], _FLAG.findall(line)


def _check_file(rel: str, text: str, commands: dict, root: Path) -> Findings:
    """Directions 1, 2 and 5 plus the link check, for one file."""
    out: Findings = []
    for line, command, flags in _invocations(text):
        if command not in commands:
            out.append((rel, line, f"documents unknown command {command!r}"))
            continue
        out.extend(
            (rel, line, f"uses {flag} with {command!r}, but the CLI does "
             f"not define it")
            for flag in flags if flag not in commands[command]
        )

    # Fences of any language are not prose: blank them, keeping lines.
    prose = _ANY_FENCE.sub(lambda m: "\n" * m.group().count("\n"), text)
    all_flags = set().union(*commands.values())
    seen: Set[str] = set(NON_CLI_FLAGS) | all_flags
    for span in _INLINE_CODE.finditer(prose):
        for flag in _FLAG.findall(span.group(1)):
            if flag not in seen:
                seen.add(flag)
                out.append((
                    rel, _line(prose, span.start()),
                    f"mentions {flag}, but no CLI command defines it (add "
                    f"it to NON_CLI_FLAGS if it belongs to another tool)",
                ))

    for link in _LINK.finditer(text):
        target = link.group(1)
        if not target.startswith(("http://", "https://", "mailto:")) and not (
            (root / rel).parent / target
        ).exists():
            out.append((rel, _line(text, link.start()),
                        f"links to missing file {target!r}"))

    coverage = REQUIRED_COVERAGE.get(Path(rel).name)
    if coverage is not None:
        required = set(coverage["flags"])
        for command in coverage["commands"]:
            if command not in text:
                out.append((rel, 1, f"owns the {command!r} documentation "
                            f"but never mentions the command"))
            required.update(commands.get(command, ()))
        out.extend(
            (rel, 1, f"owns this feature's documentation but does not "
             f"mention {flag}")
            for flag in sorted(required - _HELP) if flag not in text
        )
    return out


def run(files: dict, root: Path) -> Findings:
    readme = root / "README.md"
    if not readme.exists():
        return [("README.md", 1, "README.md does not exist")]
    commands = cli_options(root)
    texts = {
        path.relative_to(root).as_posix(): path.read_text()
        for path in [readme] + sorted((root / "docs").glob("*.md"))
    }
    out: Findings = []
    for rel, text in texts.items():
        out.extend(_check_file(rel, text, commands, root))

    # Direction 3: README.md is the contract for simulate's flags.
    out.extend(
        ("README.md", 1, f"simulate flag {flag} is not mentioned anywhere "
         f"in README.md")
        for flag in sorted(commands.get("simulate", set()) - _HELP)
        if flag not in texts["README.md"]
    )
    # Direction 4: every command is documented somewhere.
    all_text = "".join(texts.values())
    out.extend(
        ("README.md", 1, f"CLI command {command!r} is not mentioned in "
         f"README.md or any docs/*.md file")
        for command in sorted(commands)
        if not re.search(rf"\b{re.escape(command)}\b", all_text)
    )
    # Direction 6: every registered rule is documented.  The engine
    # imports this module, so its registry is read only at run time.
    from engine import load_rules

    linting = texts.get("docs/LINTING.md")
    if linting is None:
        return out + [("docs/LINTING.md", 1, "docs/LINTING.md is missing — "
                       "it owns the lint rule documentation")]
    out.extend(
        ("docs/LINTING.md", 1, f"does not document lint rule {rule!r}")
        for rule in list(load_rules()) + ["unused-suppression"]
        if rule not in linting
    )
    return out
