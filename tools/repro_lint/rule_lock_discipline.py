"""lock-discipline: the single-owner lock seam must hold statically.

PR 9's consistency argument has two halves, and both are pure code
shape:

* ``MetricStore`` and ``ShardedMetricStore`` expose ``.lock`` but must
  never acquire it in their own methods.  The owner is whoever drives
  the store (the streaming clock loop holds it across each whole
  ingest->seal->evict block span); a store method that self-locks would
  deadlock-proof nothing and re-introduce torn reads at finer
  granularity than a block boundary.
* Every read on ``LiveQuerySurface`` must execute under
  ``with self._lock:`` — that is what confines live readers to sealed
  block boundaries.  The table reads all go through the one ``_read``
  path; it and each hand-written public read (the compound reads, the
  watermark) must be a single lock hold (after the docstring), or a
  reader can observe a half-ingested block.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple

from astutil import SourceFile, method_defs

RULE_NAME = "lock-discipline"

#: Classes bound by the never-self-lock half of the contract.
STORE_CLASSES = {"MetricStore", "ShardedMetricStore"}
#: The class bound by the always-lock half, and the one path its
#: generated table reads forward through.
SURFACE_CLASS = "LiveQuerySurface"
READ_PATH = "_read"
_LOCK_ATTRS = {"lock", "_lock"}


def _is_self_lock(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr in _LOCK_ATTRS
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _check_store_class(
    src: SourceFile, cls: ast.ClassDef, out: List[Tuple[str, int, str]]
) -> None:
    for node in ast.walk(cls):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if _is_self_lock(item.context_expr):
                    out.append((
                        src.rel,
                        node.lineno,
                        f"{cls.name} must never take its own lock — the "
                        f"lock is single-owner (held by the driving loop); "
                        f"remove this `with self.lock:`",
                    ))
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("acquire", "release")
                and _is_self_lock(func.value)
            ):
                out.append((
                    src.rel,
                    node.lineno,
                    f"{cls.name} must never {func.attr} its own lock — "
                    f"the lock is single-owner (held by the driving loop)",
                ))


def _body_is_lock_hold(fn: ast.FunctionDef) -> bool:
    body = list(fn.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    return (
        len(body) == 1
        and isinstance(body[0], ast.With)
        and any(_is_self_lock(item.context_expr) for item in body[0].items)
    )


def _check_surface_class(
    src: SourceFile, cls: ast.ClassDef, out: List[Tuple[str, int, str]]
) -> None:
    for name, fn in method_defs(cls).items():
        if name.startswith("_") and name != READ_PATH:
            continue
        if not _body_is_lock_hold(fn):
            out.append((
                src.rel,
                fn.lineno,
                f"{cls.name}.{name} must be exactly one `with self._lock:` "
                f"block (after the docstring) — anything outside the hold "
                f"can observe a half-ingested block",
            ))


def run(files: Dict[str, SourceFile]) -> List[Tuple[str, int, str]]:
    findings: List[Tuple[str, int, str]] = []
    for src in files.values():
        for node in src.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name in STORE_CLASSES:
                _check_store_class(src, node, findings)
            elif node.name == SURFACE_CLASS:
                _check_surface_class(src, node, findings)
    return findings
