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

Writing formats each distinct window once and ``repr``s each distinct
float64 bit pattern once (``-0.0`` and NaN payloads keep their text),
then assembles rows from those tables in numpy, a batch of runs at a
time, each run's four constant fields quoted once by ``csv.writer`` (so
names holding ``,`` ``"`` or line breaks round-trip).
The archive is written to a sibling temporary file and
moved into place with ``os.replace``, so a failed or killed export
leaves whatever was at ``path`` untouched; a gzip member carries no
timestamp and no file name, so equal stores give equal bytes.

Reading takes the archive as bytes, ``_CHUNK`` at a time cut back to
the last ``\\n``, and parses each canonical chunk (``_parse_chunk``
says which are; ``export_store`` writes them wherever names need no
quoting) in numpy, making no object per row and interning a server
once per run.  From the first chunk that is not canonical to the end
of the file ``csv.reader`` reads row by row: it owns quoted names,
other numerals (``+7``, ``1_0.5``), ``\\r``-only row ends and every
located error, and decodes each line on its own, so a byte that is
not UTF-8 fails the line holding it.  Both fill one accumulator per
table, recorded with one ``record_columns``; rows keep file order and
servers are interned in order of first appearance.

A file that is not an archive, a row with the wrong number of fields
and a ``window`` or ``value`` that is not a number all raise
``ValueError("{path}:{line}: ...")``, ``line`` being the physical line
the offending row ends on; so does a gzip member that ends early, does
not inflate or fails its checksum, ``line`` then being the one the
damage cut short.
"""

from __future__ import annotations

import csv
import gzip
import io
import itertools
import os
import zlib
from array import array
from collections import defaultdict
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
    runs = []
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
            runs.append((pool_id, counter, server_id, dc_id, run_windows, run_values))
    runs.sort(key=lambda run: run[:3])
    names = [
        f",{_quoted((server_id, pool_id, dc_id, counter))[:-2]},".encode()
        for pool_id, counter, server_id, dc_id, _, _ in runs
    ]
    lengths = [run[4].size for run in runs]
    # Each column is dropped once formatted, so at most two are held.
    windows = np.concatenate([run[4] for run in runs] or [np.empty(0, np.int64)])
    values = np.concatenate([run[5] for run in runs] or [np.empty(0)], dtype=np.float64)
    del runs
    windows = _distinct_texts(windows, lambda keys: map(str, keys.tolist()))
    values = _distinct_texts(
        values.view(np.uint64),  # -0.0 and each NaN payload: a text of its own
        lambda keys: map(repr, keys.view(np.float64).tolist()),
    )

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
            with packed:
                packed.write(_quoted(_HEADER).encode())
                for text in _rows(names, lengths, windows, values):
                    packed.write(text)
                packed.flush()  # a sync flush, as the archive has always ended
        os.replace(scratch, path)
    finally:
        scratch.unlink(missing_ok=True)
    return sum(lengths)


#: Rows formatted per batch (a batch ends with a run).
_BATCH_ROWS = 1 << 15


def _distinct_texts(keys: np.ndarray, texts):
    """``(rows, column)``: ``texts`` of each distinct key once, as an ``S``
    column, and each key's row in it.

    This is ``np.unique(keys, return_inverse=True)`` with ``int32`` rows
    and fewer temporaries: on seed 1000's 439 698 values np.unique set
    ``plan_pipeline``'s memory peak 7 MB higher (83 -> 90 MB).
    """
    index = np.int32 if keys.size < 2**31 else np.int64
    order = np.argsort(keys)
    ordered = keys[order]
    fresh = np.empty(keys.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    distinct = ordered[fresh]
    del ordered
    rows = np.empty(keys.size, dtype=index)
    rows[order] = np.cumsum(fresh, dtype=index) - 1
    del order
    column = np.empty(distinct.size, "S24")  # the longest float repr
    for start in range(0, distinct.size, _BATCH_ROWS):
        column[start:start + _BATCH_ROWS] = list(texts(distinct[start:start + _BATCH_ROWS]))
    return rows, column.astype(f"S{max(1, np.char.str_len(column).max(initial=0))}")


def _rows(names, lengths, windows, values) -> Iterator[bytes]:
    """The archive's rows, a batch of runs at a time.

    ``names`` and ``lengths`` are each run's ``,server,pool,dc,counter,``
    and row count; ``windows`` and ``values`` their ``_distinct_texts``.
    """
    (window_rows, window_text), (value_rows, value_text) = windows, values
    # A line per row: window, \x01 standing for the run's names, value
    # and row end, NUL-padded to one width; the padding is then deleted.
    line = np.dtype([("window", window_text.dtype), ("names", "u1"),
                     ("value", value_text.dtype), ("end", "S2")])
    sizes = np.char.str_len(window_text), np.char.str_len(value_text)
    bounds = np.cumsum([0] + lengths)
    first = 0
    for last in range(1, len(lengths) + 1):
        if last < len(lengths) and bounds[last] - bounds[first] < _BATCH_ROWS:
            continue
        start, stop = bounds[first], bounds[last]
        window, value = window_rows[start:stop], value_rows[start:stop]
        lines = np.empty(stop - start, line)
        lines["window"], lines["names"] = window_text[window], 1
        lines["value"], lines["end"] = value_text[value], b"\r\n"
        text = lines.tobytes().translate(None, b"\0")
        ends = np.cumsum(sizes[0][window] + sizes[1][value] + 3)
        ends = ends[bounds[first + 1:last + 1] - start - 1].tolist()
        yield b"".join(
            text[low:high].replace(b"\x01", run)
            for run, low, high in zip(names[first:last], [0] + ends, ends)
        )
        first = last


def _open_archive(path: Path):
    return gzip.open(path, "rb") if path.suffix == ".gz" else open(path, "rb")


#: What reading a damaged ``.gz`` raises: the member ends early, does
#: not inflate, or fails its checksum.
_DAMAGED = (EOFError, zlib.error, gzip.BadGzipFile)
#: What a row that does not parse raises: also a window past int64
#: (``OverflowError``) or an over-long field (``csv.Error``).
_MALFORMED = (ValueError, OverflowError, csv.Error)

#: Bytes read at a time; the numpy reader parses them up to their last
#: ``\n`` and carries the rest over.
_CHUNK = 1 << 18
#: Lines (row end excluded) this long or longer go to the row reader.
_LONGEST = 256
_HEADER_LINES = tuple(",".join(_HEADER).encode() + end for end in (b"\r\n", b"\n"))
#: Place values of a window's (at most 16) digits.
_POWERS = 10 ** np.arange(15, -1, -1, dtype=np.int64)
#: Each line's separators: five commas, then its ``\n``.
_SEPARATORS = np.frombuffer(b",,,,,\n", np.uint8)


def _blocks(raw) -> Iterator[bytes]:
    """``raw``'s bytes, about ``_CHUNK`` at a time.

    The bytes read before damage come out as a block of their own
    before the damage is raised, so errors name the line it cut short.
    """
    while True:
        pieces, size = [], 0
        try:
            while size < _CHUNK and (piece := raw.read1(_CHUNK - size)):
                pieces.append(piece)
                size += len(piece)
        except _DAMAGED:
            if pieces:
                yield b"".join(pieces)
            raise
        if not pieces:
            return
        yield b"".join(pieces)


def _lines(blocks) -> Iterator[str]:
    """The physical lines of ``blocks``, each decoded on its own.

    Lines end at ``\\r\\n``, ``\\r`` or ``\\n`` (kept), as ``newline=""``
    splits them; a byte that is not UTF-8 fails the line holding it.
    """
    rest = b""
    for block in blocks:
        lines = (rest + block).splitlines(keepends=True)
        rest = lines.pop() if lines else b""  # may be cut short, or end in ``\r``
        for line in lines:
            yield line.decode()
    if rest:
        yield rest.decode()


def _text(raw: bytes, width: int) -> np.ndarray:
    """Every ``width``-byte window of ``raw`` as an ``S{width}`` array (a view)."""
    return np.ndarray((len(raw) - width + 1,), f"S{width}", raw, strides=(1,))


def _fields(raw: bytes, offsets: np.ndarray, widths: np.ndarray, width: int) -> np.ndarray:
    """The fields at ``offsets`` as one ``S{width}`` column, NUL-padded (a copy)."""
    column = _text(raw, width)[offsets]
    octets = column.view(np.uint8).reshape(-1, width)
    octets *= np.arange(width, dtype=np.uint8) < widths.astype(np.uint8)[:, None]
    return column


def _parse_chunk(chunk: bytes):
    """The rows of ``chunk`` (whole ``\\n``-ended lines) as columns.

    Returns ``None`` unless the chunk is canonical: ASCII with no ``"``
    or NUL, every ``\\r`` right before a ``\\n``, lines of fewer than
    ``_LONGEST`` bytes with exactly five commas, windows of 1-16 ASCII
    digits and values that ``float()`` parses (numpy's ``S`` to float
    cast calls it); ``csv.reader`` reads all of those as this does.
    Otherwise returns the windows, the values, the rows at which the
    ``server,pool,dc,counter`` bytes change, and where those bytes lie.
    """
    if not chunk.isascii() or b'"' in chunk or b"\0" in chunk:
        return None
    pad = 16  # so a window's digit column may start before the chunk
    raw = bytes(pad) + chunk + bytes(_LONGEST)
    octets = np.frombuffer(raw, np.uint8)
    separators = np.flatnonzero((octets == 44) | (octets == 10))
    if separators.size % 6:
        return None
    separators = separators.reshape(-1, 6)
    if not (octets[separators] == _SEPARATORS).all():
        return None
    first, last, ends = separators[:, 0], separators[:, 4], separators[:, 5]
    starts = np.concatenate(([pad], ends[:-1] + 1))
    width = first - starts
    returns = octets[ends - 1] == 13
    if (
        (ends - starts).max() >= _LONGEST
        or width.min() < 1
        or width.max() > 16
        or np.count_nonzero(octets == 13) != np.count_nonzero(returns)
    ):
        return None
    digits = int(width.max())
    column = _text(raw, digits)[first - digits].view(np.uint8).reshape(-1, digits) - 48
    column *= np.arange(digits) >= (digits - width)[:, None]
    if (column > 9).any():
        return None
    windows = column @ _POWERS[-digits:]
    widths = ends - returns - last - 1
    if widths.min() < 1:
        return None
    try:
        values = _fields(raw, last + 1, widths, int(widths.max())).astype(np.float64)
    except ValueError:
        return None
    widths = last - first - 1
    keys = _fields(raw, first + 1, widths, -(-int(widths.max()) // 8) * 8)
    keys = keys.view(np.uint64).reshape(len(windows), -1)
    runs = np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1)) + 1
    runs = np.concatenate(([0], runs))
    return windows, values, runs, first[runs] + 1 - pad, last[runs] - pad


class _Columns:
    """One table's rows in file order, from whichever reader read them.

    Chunks parsed in numpy add array pieces; the row reader, which only
    ever reads after them, adds to ``windows``/``values`` one row at a
    time.  Per run of one server: its interned index and first row.
    """

    __slots__ = ("window_pieces", "value_pieces", "parsed", "windows", "values",
                 "servers", "starts")

    def __init__(self):
        self.window_pieces, self.value_pieces, self.parsed = [], [], 0
        # A window past int64 fails its own row, as an OverflowError.
        self.windows, self.values = array("q"), array("d")
        self.servers, self.starts = [], []

    def add_run(self, server: int, windows: np.ndarray, values: np.ndarray) -> None:
        self.servers.append(server)
        self.starts.append(self.parsed)
        self.window_pieces.append(windows)
        self.value_pieces.append(values)
        self.parsed += len(windows)

    def columns(self):
        windows = np.concatenate(
            self.window_pieces + [np.asarray(self.windows, dtype=np.int64)]
        )
        values = np.concatenate(self.value_pieces + [np.asarray(self.values, dtype=float)])
        lengths = np.diff(np.asarray(self.starts + [windows.size], dtype=np.int64))
        return windows, np.repeat(np.asarray(self.servers, dtype=np.int64), lengths), values


def _parse_chunks(path: Path, blocks, store: MetricStore, tables: dict):
    """Read ``blocks`` in numpy chunk by chunk while chunks are canonical.

    Returns the lines read (the header's included) and the bytes left
    for the row reader: from the first chunk that is not canonical, or
    what follows the last ``\\n``.
    """
    lines, data = 0, b""
    try:
        for block in blocks:
            data += block
            cut = data.rfind(b"\n") + 1
            if not cut:
                if len(data) > _LONGEST:
                    break
                continue
            chunk, data = data[:cut], data[cut:]
            if not lines:
                header = chunk[:chunk.index(b"\n") + 1]
                if header not in _HEADER_LINES:
                    return 0, chunk + data
                chunk, lines = chunk[len(header):], 1
                if not chunk:
                    continue
            parsed = _parse_chunk(chunk)
            if parsed is None:
                return lines, chunk + data
            windows, values, runs, key_starts, key_stops = parsed
            bounds = runs.tolist() + [len(windows)]
            for run, (start, stop) in enumerate(zip(key_starts.tolist(), key_stops.tolist())):
                server_id, pool_id, datacenter_id, counter = (
                    chunk[start:stop].decode("ascii").split(",")
                )
                table = tables[pool_id, datacenter_id, counter]
                low, high = bounds[run], bounds[run + 1]
                table.add_run(
                    store.intern_server(server_id), windows[low:high], values[low:high]
                )
            lines += len(windows)
    except _DAMAGED as error:
        raise ValueError(f"{path}:{lines + 1}: damaged archive ({error})") from None
    return lines, data


def _data_rows(path: Path, lines):
    """A ``csv.reader`` over ``lines``, positioned after the archive header."""
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
    except (*_MALFORMED, *_DAMAGED) as error:
        raise _located(path, reader.line_num, error) from None
    if header != list(_HEADER):
        raise ValueError(
            f"{path}:1: not a telemetry archive "
            f"(expected header {_HEADER}, got {header})"
        )
    return reader


def _located(path: Path, line: int, error: Exception) -> ValueError:
    """``error`` raised with ``line`` lines read, located in ``path``."""
    # A row's ``line`` is the physical line it ends on, so it stays
    # right for quoted fields holding line breaks; a byte that does not
    # decode and damage surface while the next line is being fetched.
    malformed = isinstance(error, _MALFORMED)
    if isinstance(error, UnicodeDecodeError) or not malformed:
        line += 1
    what = "malformed row" if malformed else "damaged archive"
    return ValueError(f"{path}:{line}: {what} ({error})")


def _read_rows(path: Path, offset: int, lines, store: MetricStore, tables: dict) -> None:
    """Read ``lines`` with ``csv.reader``, ``offset`` lines into the file.

    This reader owns quoted names, numerals other than plain digits,
    ``\\r``-only row ends and every located error; at ``offset`` 0 it
    checks the header too.
    """
    reader = _data_rows(path, lines) if not offset else csv.reader(lines)
    run_server = run_pool = run_dc = run_counter = None
    # One handler for the row's three ways of being wrong — field
    # count (raised by the loop's own unpacking), window, value — and
    # for the file giving out, or not decoding, under the reader.
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
                table = tables[pool_id, datacenter_id, counter]
                table.servers.append(store.intern_server(server_id))
                table.starts.append(table.parsed + len(table.windows))
                add_window, add_value = table.windows.append, table.values.append
            add_window(int(window))
            add_value(float(value))
    except (*_MALFORMED, *_DAMAGED) as error:
        raise _located(path, offset + reader.line_num, error) from None


def import_store(path: PathLike) -> MetricStore:
    """Load a store previously written by :func:`export_store`.

    Rows are columnised per (pool, datacenter, counter) table in file
    order and appended through the store's batch path, one
    ``record_columns`` per table.
    """
    path = Path(path)
    store = MetricStore()
    tables = defaultdict(_Columns)  # (pool, datacenter, counter) -> rows
    with _open_archive(path) as raw:
        blocks = _blocks(raw)
        lines, rest = _parse_chunks(path, blocks, store, tables)
        if rest or not lines:
            _read_rows(path, lines, _lines(itertools.chain([rest], blocks)), store, tables)
    for key in list(tables):  # popped, so each table's pieces go as it is recorded
        store.record_columns(*key, *tables.pop(key).columns())
    return store

