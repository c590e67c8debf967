"""Shared AST helpers for the repro-lint rule passes.

Rule modules (``rule_*.py``) depend only on this module and the
standard library, never on the engine — the engine imports *them*, so
the dependency graph stays a straight line (astutil <- rules <-
engine) and each rule is importable on its own in tests.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple


@dataclasses.dataclass
class SourceFile:
    """One parsed source file, as handed to every rule pass."""

    path: Path        # absolute location on disk
    rel: str          # posix path relative to the scan root (src/repro/...)
    tree: ast.Module
    lines: List[str]  # raw source lines (index 0 = line 1)

    @property
    def repro_rel(self) -> str:
        """Path relative to the ``src/repro`` package root."""
        prefix = "src/repro/"
        if self.rel.startswith(prefix):
            return self.rel[len(prefix):]
        return self.rel


def find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    """The module-level class named ``name``, or ``None``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def method_defs(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    """Methods (and properties) defined directly on ``cls``, by name."""
    out: Dict[str, ast.FunctionDef] = {}
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = node
    return out


def self_attr_root(node: ast.AST) -> Optional[str]:
    """``self.X``, ``self.X[...]``, ``self.X[...].Y`` ... -> ``"X"``."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        node = node.value
    return None


def str_const(node: ast.AST) -> Optional[str]:
    """The value of a string-literal node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def string_method_calls(
    scope: ast.AST, attr: str
) -> Iterator[Tuple[str, int]]:
    """Yield ``(name, lineno)`` for every ``<expr>.{attr}("name", ...)``.

    Only calls whose first positional argument is a string literal are
    yielded — variable method names are resolution sites, not dispatch
    declarations, and carry nothing to check statically.
    """
    for node in ast.walk(scope):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == attr):
            continue
        if not node.args:
            continue
        name = str_const(node.args[0])
        if name is not None:
            yield name, node.lineno


#: ``self.<attr>.<method>(...)`` calls that mutate the attribute.
MUTATING_CALLS = {
    "append", "extend", "add", "update", "pop", "popitem", "clear",
    "remove", "discard", "insert", "setdefault", "appendleft", "popleft",
    "intern", "intern_many",
}


def _flatten_targets(targets: List[ast.AST]) -> Iterator[ast.AST]:
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flatten_targets(list(target.elts))
        elif isinstance(target, ast.Starred):
            yield target.value
        else:
            yield target


def mutating_methods(cls: ast.ClassDef, cache_attrs: Set[str]) -> Set[str]:
    """Method names of ``cls`` that mutate instance state.

    A method mutates if it assigns/augments/deletes ``self.<attr>`` (or
    a subscript of one), or calls a :data:`MUTATING_CALLS` method on a
    ``self.<attr>`` object — except when the attribute is in
    ``cache_attrs`` (memoization caches are write-backed reads, not
    logical mutations).  Mutation propagates
    through same-class ``self.helper()`` calls to a fixed point, so a
    thin public wrapper around a mutating helper is itself a mutator.
    ``__init__`` is constructor territory and exempt.
    """
    direct: Set[str] = set()
    calls: Dict[str, Set[str]] = {}
    for name, fn in method_defs(cls).items():
        if name == "__init__":
            continue
        called: Set[str] = set()
        hit = False
        for node in ast.walk(fn):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            for target in _flatten_targets(targets):
                root = self_attr_root(target)
                if root is not None and root not in cache_attrs:
                    hit = True
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                if isinstance(func.value, ast.Name) and func.value.id == "self":
                    called.add(func.attr)
                elif func.attr in MUTATING_CALLS:
                    root = self_attr_root(func.value)
                    if root is not None and root not in cache_attrs:
                        hit = True
        if hit:
            direct.add(name)
        calls[name] = called

    mutators = set(direct)
    changed = True
    while changed:
        changed = False
        for name, called in calls.items():
            if name not in mutators and called & mutators:
                mutators.add(name)
                changed = True
    return mutators
