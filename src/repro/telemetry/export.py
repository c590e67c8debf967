"""Persisting and reloading telemetry.

The paper's pipeline stores ~3 GB/s of counters for 90 days; downstream
capacity analysis runs on that archive, not on live servers.  This
module gives the library the same separation: a simulation (or a real
collector) can dump its :class:`~repro.telemetry.store.MetricStore` to
a compact CSV archive, and analyses can reload it later without
re-simulating.

Format: one CSV with the columns
``window,server_id,pool_id,datacenter_id,counter,value`` and ``\\r\\n``
row ends — trivially greppable, diffable, and loadable from other
tools.  Rows are ordered by (pool, counter, server); values are the
``repr`` of the float, so they reload bit for bit.  gzip compression is
applied when the path ends in ``.gz``.

Writing is run-wise: the contiguous rows of one (pool, counter, server)
share four constant fields, which ``csv.writer`` quotes once (so names
holding ``,`` ``"`` or line breaks round-trip), and the run goes out as
one string.  The archive is written to a sibling temporary file and
moved into place with ``os.replace``, so a failed or killed export
leaves whatever was at ``path`` untouched; a gzip member carries no
timestamp and no file name, so equal stores give equal bytes.

Reading streams ``csv.reader`` (the only parser) row by row and
re-resolves table and server only where the four constant fields
change; rows keep file order and servers are interned in order of
first appearance.  A file that is not an archive, a row with the wrong
number of fields and a ``window`` or ``value`` that is not a number all
raise ``ValueError("{path}:{line}: ...")``, ``line`` being the physical
line the offending row ends on; so does a gzip member that ends early,
does not inflate or fails its checksum, ``line`` then being the one the
damage cut short.
"""

from __future__ import annotations

import csv
import gzip
import io
import os
import zlib
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro.telemetry.store import MetricStore

_HEADER = ("window", "server_id", "pool_id", "datacenter_id", "counter", "value")

PathLike = Union[str, Path]


def _quoted(fields: Sequence[str]) -> str:
    """``fields`` as one CSV row, quoted where needed, with its row end."""
    out = io.StringIO()
    csv.writer(out).writerow(fields)
    return out.getvalue()


def export_store(
    store: "MetricStore",
    path: PathLike,
    counters: Optional[Sequence[str]] = None,
) -> int:
    """Write the store to ``path``; returns the number of rows written.

    ``store`` may be a single :class:`MetricStore` or a
    :class:`~repro.telemetry.sharding.ShardedMetricStore` — only the
    ``iter_tables`` / ``server_name`` surface is used, and because every
    server lives on exactly one shard the archive written from a
    sharded store is byte-identical to the single-store export.

    ``counters`` optionally restricts the export to a subset of counter
    names (e.g. only the planner's working set).

    ``path`` is replaced only by a complete archive: on any failure the
    previous file, if there was one, is left as it was.
    """
    path = Path(path)
    wanted = set(counters) if counters is not None else None
    # Regroup the columnar tables into per-server runs so the archive
    # keeps its historical (pool, counter, server) ordering.
    entries = []
    for (pool_id, dc_id, counter), windows, servers, values in store.iter_tables():
        if wanted is not None and counter not in wanted:
            continue
        if values.size == 0:
            continue
        order = np.argsort(servers, kind="stable")
        sorted_servers = servers[order]
        boundaries = np.flatnonzero(np.diff(sorted_servers)) + 1
        starts = np.concatenate(([0], boundaries))
        window_runs = np.split(windows[order], boundaries)
        value_runs = np.split(values[order], boundaries)
        for offset, run_windows, run_values in zip(starts, window_runs, value_runs):
            server_id = store.server_name(int(sorted_servers[offset]))
            entries.append(
                (pool_id, counter, server_id, dc_id, run_windows, run_values)
            )
    entries.sort(key=lambda e: (e[0], e[1], e[2]))

    rows = 0
    scratch = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(scratch, "wb") as raw:
            # mtime=0 and no embedded name: the member depends on the
            # store alone, not on when or where it was written.
            packed = (
                gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
                if path.suffix == ".gz"
                else raw
            )
            with io.TextIOWrapper(packed, encoding="utf-8", newline="") as handle:
                handle.write(_quoted(_HEADER))
                for pool_id, counter, server_id, dc_id, run_windows, run_values in entries:
                    constant = _quoted((server_id, pool_id, dc_id, counter))[:-2]
                    samples = zip(run_windows.tolist(), run_values.tolist())
                    handle.write("".join(
                        [f"{window},{constant},{value!r}\r\n" for window, value in samples]
                    ))
                    rows += run_values.size
        os.replace(scratch, path)
    finally:
        scratch.unlink(missing_ok=True)
    return rows


def _open_archive(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8", newline="")
    return open(path, "r", encoding="utf-8", newline="")


#: What reading a damaged ``.gz`` raises: the member ends early, does
#: not inflate, or fails its checksum.
_DAMAGED = (EOFError, zlib.error, gzip.BadGzipFile)


def _data_rows(handle, path: Path):
    """A ``csv.reader`` over ``handle``, positioned after the archive header."""
    reader = csv.reader(handle)
    try:
        header = next(reader, None)
    except _DAMAGED as error:
        raise _located(path, reader, error) from None
    if header != list(_HEADER):
        raise ValueError(
            f"{path}:1: not a telemetry archive "
            f"(expected header {_HEADER}, got {header})"
        )
    return reader


def _located(path: Path, reader, error: Exception) -> ValueError:
    # ``line_num`` counts physical lines, so it stays right for rows
    # whose quoted fields hold line breaks; damage surfaces while the
    # line after the last whole one is being read.
    if isinstance(error, ValueError):
        return ValueError(f"{path}:{reader.line_num}: malformed row ({error})")
    return ValueError(f"{path}:{reader.line_num + 1}: damaged archive ({error})")


def import_store(path: PathLike) -> MetricStore:
    """Load a store previously written by :func:`export_store`.

    Rows are columnised per (pool, datacenter, counter) table in file
    order and appended through the store's batch path.
    """
    path = Path(path)
    store = MetricStore()
    # (pool, datacenter, counter) -> windows, values, and per run of one
    # server its interned index and the row it starts at.
    tables: dict = {}
    with _open_archive(path) as handle:
        reader = _data_rows(handle, path)
        run_server = run_pool = run_dc = run_counter = None
        # One handler for the row's three ways of being wrong — field
        # count (raised by the loop's own unpacking), window, value —
        # and for the file giving out under the reader.
        try:
            for window, server_id, pool_id, datacenter_id, counter, value in reader:
                if (
                    server_id != run_server
                    or counter != run_counter
                    or datacenter_id != run_dc
                    or pool_id != run_pool
                ):
                    run_server, run_pool = server_id, pool_id
                    run_dc, run_counter = datacenter_id, counter
                    key = (pool_id, datacenter_id, counter)
                    table = tables.get(key)
                    if table is None:
                        table = tables[key] = ([], [], [], [])
                    windows, values, run_indices, run_starts = table
                    run_indices.append(store.intern_server(server_id))
                    run_starts.append(len(windows))
                    add_window, add_value = windows.append, values.append
                add_window(int(window))
                add_value(float(value))
        except (ValueError, *_DAMAGED) as error:
            raise _located(path, reader, error) from None
    for (pool_id, datacenter_id, counter), table in tables.items():
        windows, values, run_indices, run_starts = table
        run_lengths = np.diff(np.asarray(run_starts + [len(windows)], dtype=np.int64))
        store.record_columns(
            pool_id,
            datacenter_id,
            counter,
            np.asarray(windows, dtype=np.int64),
            np.repeat(np.asarray(run_indices, dtype=np.int64), run_lengths),
            np.asarray(values, dtype=float),
        )
    return store


def iter_rows(path: PathLike) -> Iterator[dict]:
    """Stream archive rows as dictionaries (for ad-hoc inspection)."""
    path = Path(path)
    with _open_archive(path) as handle:
        reader = _data_rows(handle, path)
        try:
            for window, server_id, pool_id, datacenter_id, counter, value in reader:
                yield {
                    "window": int(window),
                    "server_id": server_id,
                    "pool_id": pool_id,
                    "datacenter_id": datacenter_id,
                    "counter": counter,
                    "value": float(value),
                }
        except (ValueError, *_DAMAGED) as error:
            raise _located(path, reader, error) from None
