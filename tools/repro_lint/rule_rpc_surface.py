"""rpc-surface: the read table must resolve and must stay read-only.

``store.READ_SURFACE`` is the one declaration of what a shard session
or the live query surface answers to a ``("call", names, method, args,
kwargs)`` frame: the client proxies and the surface are generated from
it, and the serve loop refuses any other name at run time (plus the
few extras a served object declares — ``workers.SHARD_EXTRAS``,
``query_server.LIVE_EXTRAS``).  What that leaves to check statically:

* every table name is defined on both ``MetricStore`` and
  ``ShardedMetricStore`` (the private bases they share folded in);
* no table name and no live-surface extra is a statically detected
  mutator on either store class, and every extra is defined where it
  is served;
* every string method name at a dispatch site resolves: a ``.call(``
  in ``workers.py`` / ``query_server.py`` against the table or that
  side's extras, a facade ``_union(`` against the table, a journal
  ``append(`` (replayed with ``getattr(client, method)``) against the
  client proxy;
* exactly one class under ``telemetry/`` is generated from the table
  through ``call`` — :data:`CALL_PROXY`, the remote-shard client whose
  session list *is* replication — so a second proxy class beside it
  (a fork of the client) is a finding;
* ``pickle`` is imported only by the modules :data:`PICKLE_SITES`
  lists — the surface is only as closed as the bytes unpickled behind
  it, so each site is named with whose bytes it loads.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from astutil import (
    SourceFile,
    find_class,
    method_defs,
    mutating_methods,
    self_attr_root,
    str_const,
    string_method_calls,
)

RULE_NAME = "rpc-surface"

STORE = "src/repro/telemetry/store.py"
SHARDING = "src/repro/telemetry/sharding.py"
WORKERS = "src/repro/telemetry/workers.py"
QUERY = "src/repro/telemetry/query_server.py"
TRANSPORT = "src/repro/telemetry/transport.py"

TABLE = "READ_SURFACE"
STORE_CLASSES = (("MetricStore", STORE), ("ShardedMetricStore", SHARDING))
#: The one class decorated ``forward_reads("call")``; with the table
#: names generated onto it, what ``getattr(client, method)`` resolves
#: against.  A ratchet like :data:`PICKLE_SITES`: nothing joins it.
CALL_PROXY = (WORKERS, "TcpShardClient")
#: Wire verbs the serve loop answers itself, without a store method.
RESERVED_WIRE_METHODS = {"resync"}
#: ``self.<attr>`` writes that are memoization/lazy-init, not logical
#: store mutations (aggregate caches, partition plans).
CACHE_ATTRS = {"_agg_cache", "_partition_cache"}

#: The only modules that may import ``pickle``, and whose bytes each
#: one loads.  A ratchet: entries leave this table, none are added.
PICKLE_SITES = {
    TRANSPORT: "the kind-0 control plane, until it gets a typed encoding",
}

Findings = List[Tuple[str, int, str]]


def _literal(src: Optional[SourceFile], name: str):
    """``(value, line)`` of the module-level literal ``name = ...``."""
    for node in src.tree.body if src is not None else ():
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            try:
                return ast.literal_eval(node.value), node.lineno
            except ValueError:
                break
    return None, 1


def _with_bases(cls: ast.ClassDef, store: SourceFile) -> ast.ClassDef:
    """``cls`` with the bodies of its ``store.py`` bases folded in, so
    inherited names count and the mutation fixpoint sees one class."""
    bases = [
        find_class(store.tree, base.id)
        for base in cls.bases if isinstance(base, ast.Name)
    ]
    body = [node for base in bases if base is not None for node in base.body]
    return ast.ClassDef(
        name=cls.name, bases=[], keywords=[], decorator_list=[],
        body=[*body, *cls.body],
    )


def _journal_appends(sharding: SourceFile):
    """``(name, line)`` of every ``<journal>.append("name", args, n)``."""
    for node in ast.walk(sharding.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and len(node.args) >= 2
            and str_const(node.args[0]) is not None
        ):
            target = node.func.value
            if self_attr_root(target) == "_journals" or (
                isinstance(target, ast.Name) and "journal" in target.id
            ):
                yield str_const(node.args[0]), node.lineno


def _pickle_imports(files: Dict[str, SourceFile]) -> Findings:
    """Every ``import pickle`` / ``from pickle import`` outside the table."""
    out: Findings = []
    for rel, src in files.items():
        if rel in PICKLE_SITES:
            continue
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "pickle" for module in modules):
                out.append((
                    rel, node.lineno,
                    f"imports pickle, but only {sorted(PICKLE_SITES)} may — "
                    f"SpillArchive keeps raw bytes for this process, "
                    f"column frames carry rows across a socket",
                ))
    return out


def _call_proxies(files: Dict[str, SourceFile]) -> Findings:
    """A finding per ``@forward_reads("call")`` class that is not
    :data:`CALL_PROXY`, and one if :data:`CALL_PROXY` itself is not."""
    out: Findings = []
    found = set()
    for rel, src in files.items():
        if not rel.startswith("src/repro/telemetry/"):
            continue
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(dec, ast.Call)
                and getattr(dec.func, "id", None) == "forward_reads"
                and dec.args and str_const(dec.args[0]) == "call"
                for dec in node.decorator_list
            ):
                found.add((rel, node.name))
                if (rel, node.name) != CALL_PROXY:
                    out.append((
                        rel, node.lineno,
                        f"{node.name} is generated from {TABLE} through "
                        f"call(), but only {CALL_PROXY[1]} may be — a "
                        f"replicated shard is that client's session list, "
                        f"not a second proxy class",
                    ))
    if WORKERS in files and CALL_PROXY not in found:
        out.append((
            WORKERS, 1,
            f"{CALL_PROXY[1]} must be decorated forward_reads(\"call\") — "
            f"it is the one remote stand-in for the store",
        ))
    return out


def run(files: Dict[str, SourceFile]) -> Findings:
    out = _pickle_imports(files) + _call_proxies(files)
    store_src = files.get(STORE)
    if store_src is None:
        return out
    table, table_line = _literal(store_src, TABLE)
    if not (
        isinstance(table, dict)
        and all(isinstance(k, str) and isinstance(v, bool) for k, v in table.items())
    ):
        out.append((
            STORE, 1,
            f"must define {TABLE} as a literal dict of read name -> "
            f"is-a-property — it is the one declaration of the RPC surface",
        ))
        return out
    live_extras, live_line = _literal(files.get(QUERY), "LIVE_EXTRAS")
    shard_extras, shard_line = _literal(files.get(WORKERS), "SHARD_EXTRAS")
    live_extras, shard_extras = set(live_extras or ()), set(shard_extras or ())

    metric_methods: Set[str] = set()
    for cls_name, rel in STORE_CLASSES:
        cls = find_class(files[rel].tree, cls_name) if rel in files else None
        if cls is None:
            continue
        merged = _with_bases(cls, store_src)
        methods = method_defs(merged)
        if cls_name == "MetricStore":
            metric_methods = set(methods)
        for name in sorted(set(table) - set(methods)):
            out.append((
                STORE, table_line,
                f"{TABLE} lists {name!r}, but {cls_name} defines no such "
                f"attribute — every served store must answer every read",
            ))
        mutators = mutating_methods(merged, CACHE_ATTRS)
        for name in sorted(mutators & set(table)):
            out.append((
                STORE, table_line,
                f"{TABLE} lists {name!r}, but {cls_name}.{name} mutates store "
                f"state — the table is what read-only clients may call",
            ))
        for name in sorted(mutators & live_extras):
            out.append((
                QUERY, live_line,
                f"LIVE_EXTRAS declares {name!r}, but {cls_name}.{name} mutates "
                f"store state — live readers must never reach a mutator",
            ))

    workers, query, sharding = (files.get(r) for r in (WORKERS, QUERY, SHARDING))
    live_cls = find_class(query.tree, "LiveQuerySurface") if query else None
    if live_cls is not None:
        for name in sorted(live_extras - set(method_defs(live_cls))):
            out.append((
                QUERY, live_line,
                f"LIVE_EXTRAS declares {name!r}, but LiveQuerySurface does "
                f"not define it",
            ))
    if metric_methods:
        for name in sorted(shard_extras - metric_methods - RESERVED_WIRE_METHODS):
            out.append((
                WORKERS, shard_line,
                f"SHARD_EXTRAS declares {name!r}, but MetricStore defines no "
                f"such method and it is not a reserved verb",
            ))

    client_cls = find_class(workers.tree, CALL_PROXY[1]) if workers else None
    client_surface = set(table)
    client_surface |= set(method_defs(client_cls)) if client_cls else set()
    # (source, call attribute, names that resolve, what answers them)
    sites = [
        (workers, "call", set(table) | shard_extras, "a shard session"),
        (query, "call", set(table) | live_extras, "the live query surface"),
        (sharding, "_union", set(table), "a shard"),
    ]
    for src, attr, legal, answerer in sites:
        for name, line in string_method_calls(src.tree, attr) if src else ():
            if name not in legal:
                out.append((
                    src.rel, line,
                    f"dispatches {name!r} through {attr}(), but {answerer} "
                    f"answers no such name ({TABLE} and its declared extras)",
                ))
    for name, line in _journal_appends(sharding) if sharding and workers else ():
        if name not in client_surface:
            out.append((
                sharding.rel, line,
                f"journals command {name!r}, but no client class defines "
                f"it — rejoin replay would fail",
            ))
    return out
