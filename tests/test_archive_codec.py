"""The CSV archive codec: exact bytes, exact reload, located errors.

``export_store`` writes run-wise and ``import_store`` reads run-wise;
the per-row writer and reader they replaced are kept here as the
references both are compared against.
"""

import csv
import gzip
import io
import os
import re
import signal
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import export
from repro.telemetry.export import export_store, import_store
from repro.telemetry.store import MetricStore

HEADER = ("window", "server_id", "pool_id", "datacenter_id", "counter", "value")

GOLDEN_ROWS = [
    (0, "web,1", "B", "DC2", "cpu", float("nan")),
    (0, 'db"2"', "B", "DC1", "cpu", float("inf")),
    (1, "web,1", "B", "DC2", "cpu", float("-inf")),
    (0, "s0", "A", "DC1", "lat", -0.0),
    (1, 'db"2"', "B", "DC1", "cpu", 5e-324),
    (2**31 + 5, "s0", "A", "DC1", "lat", 0.1 + 0.2),
    (2, "web,1", "B", "DC2", "lat", 1e22),
    (7, "two\nlines", "B", "DC2", "lat", 2.5),
    (3, "s0", "A", "DC1", "cpu", 1.5),
    (2, "s0", "B", "DC1", "cpu", 1e-05),
    (1, "s0", "B", "DC1", "cpu", 123456789.125),
]

# What the parent of the run-wise codec wrote for GOLDEN_ROWS.
GOLDEN_LINES = [
    b"window,server_id,pool_id,datacenter_id,counter,value",
    b"3,s0,A,DC1,cpu,1.5",
    b"0,s0,A,DC1,lat,-0.0",
    b"2147483653,s0,A,DC1,lat,0.30000000000000004",
    b'0,"db""2""",B,DC1,cpu,inf',
    b'1,"db""2""",B,DC1,cpu,5e-324',
    b"2,s0,B,DC1,cpu,1e-05",
    b"1,s0,B,DC1,cpu,123456789.125",
    b'0,"web,1",B,DC2,cpu,nan',
    b'1,"web,1",B,DC2,cpu,-inf',
    b'7,"two\nlines",B,DC2,lat,2.5',
    b'2,"web,1",B,DC2,lat,1e+22',
]


def store_of(rows) -> MetricStore:
    store = MetricStore()
    for row in rows:
        store.record_fast(*row)
    return store


def reference_export(store, path) -> None:
    """The per-row writer: one ``writerow`` per sample."""
    entries = []
    for (pool_id, dc_id, counter), windows, servers, values in store.iter_tables():
        for index in np.unique(servers):
            mine = servers == index
            entries.append(
                (pool_id, counter, store.server_name(int(index)), dc_id,
                 windows[mine], values[mine])
            )
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER)
        for pool_id, counter, server_id, dc_id, windows, values in entries:
            for window, value in zip(windows, values):
                writer.writerow(
                    (int(window), server_id, pool_id, dc_id, counter, repr(float(value)))
                )


def reference_import(path) -> MetricStore:
    """The per-row reader: bucket lookup and intern on every sample."""
    store = MetricStore()
    grouped = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        try:
            for window, server_id, pool_id, datacenter_id, counter, value in reader:
                bucket = grouped.setdefault((pool_id, datacenter_id, counter), ([], [], []))
                bucket[0].append(int(window))
                bucket[1].append(store.intern_server(server_id))
                bucket[2].append(float(value))
        except ValueError as error:
            raise ValueError(f"{path}:{reader.line_num}: malformed row ({error})") from None
    for (pool_id, datacenter_id, counter), (windows, indices, values) in grouped.items():
        store.record_columns(
            pool_id, datacenter_id, counter,
            np.asarray(windows, dtype=np.int64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(values, dtype=float),
        )
    return store


def columns(store):
    """Every table's columns as stored, plus the interned names in order."""
    tables = {
        key: (windows.tolist(), servers.tolist(), [repr(v) for v in values.tolist()])
        for key, windows, servers, values in store.iter_tables()
    }
    interned = 1 + max((max(t[1]) for t in tables.values()), default=-1)
    return tables, [store.server_name(i) for i in range(interned)]


def by_name(store):
    """Per table and server *name*, that server's samples in table order."""
    out = {}
    for key, windows, servers, values in store.iter_tables():
        for window, index, value in zip(windows.tolist(), servers.tolist(), values.tolist()):
            out.setdefault((key, store.server_name(index)), []).append((window, repr(value)))
    return out


names = st.text(
    st.sampled_from(',"\r\n \'ab') | st.characters(blacklist_categories=("Cs",)),
    max_size=5,
)
float64_bits = st.integers(min_value=0, max_value=2**64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
)


@st.composite
def sample_rows(draw, names=names):
    """Samples over a few arbitrary names, in arbitrary (interleaved) order."""
    servers = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    pools = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    datacenters = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    counters = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    return draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**40),
                st.sampled_from(servers),
                st.sampled_from(pools),
                st.sampled_from(datacenters),
                st.sampled_from(counters),
                float64_bits,
            ),
            max_size=30,
        )
    )


class TestGoldenBytes:
    def test_archive_bytes_pinned(self, tmp_path):
        path = tmp_path / "golden.csv"
        assert export_store(store_of(GOLDEN_ROWS), path) == len(GOLDEN_ROWS)
        assert path.read_bytes() == b"\r\n".join(GOLDEN_LINES) + b"\r\n"
        assert os.listdir(tmp_path) == ["golden.csv"]  # no temporary left

    def test_counter_filter_keeps_the_matching_rows(self, tmp_path):
        path = tmp_path / "lat.csv"
        assert export_store(store_of(GOLDEN_ROWS), path, counters=["lat"]) == 4
        kept = [GOLDEN_LINES[0]] + [line for line in GOLDEN_LINES if b",lat," in line]
        assert path.read_bytes() == b"\r\n".join(kept) + b"\r\n"

    def test_golden_reloads_exactly(self, tmp_path):
        path = tmp_path / "golden.csv"
        source = store_of(GOLDEN_ROWS)
        export_store(source, path)
        assert by_name(import_store(path)) == by_name(source)


class TestCodecProperties:
    @given(rows=sample_rows())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_and_reference_bytes(self, tmp_path_factory, rows):
        scratch = tmp_path_factory.mktemp("codec")
        source = store_of(rows)
        assert export_store(source, scratch / "new.csv") == len(rows)
        reference_export(source, scratch / "old.csv")
        assert (scratch / "new.csv").read_bytes() == (scratch / "old.csv").read_bytes()
        loaded = import_store(scratch / "new.csv")
        assert by_name(loaded) == by_name(source)
        assert columns(loaded) == columns(reference_import(scratch / "new.csv"))

    @given(rows=sample_rows())
    @settings(max_examples=150, deadline=None)
    def test_shuffled_archive_imports_in_file_order(self, tmp_path_factory, rows):
        # Rows in drawn order: runs broken up, the same keys revisited.
        path = tmp_path_factory.mktemp("codec") / "shuffled.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(HEADER)
            for *fields, value in rows:
                writer.writerow((*fields, repr(value)))
        loaded = import_store(path)
        assert columns(loaded) == columns(reference_import(path))
        expected = {}
        for window, server, pool, datacenter, counter, value in rows:
            expected.setdefault(((pool, datacenter, counter), server), []).append(
                (window, repr(value))
            )
        assert by_name(loaded) == expected


FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
#: Spellings of a window that ``int()`` reads but the numpy reader
#: leaves to ``csv.reader``.
ODD_WINDOWS = [
    lambda window: f"+{window}",
    lambda window: f" {window}",
    lambda window: f"0_{window}",
    lambda window: str(window).translate(FULLWIDTH),
]
ODD_VALUES = ["1e3", "inf", "nan", "1_0.5"]
plain_names = st.text(st.sampled_from("ab01 ._-"), max_size=5)


@st.composite
def archives(draw):
    """An archive of ``sample_rows`` in any spelling ``csv.reader`` reads.

    Row ends ``\\r\\n``, ``\\n`` or ``\\r``, with or without a final one;
    odd windows and values in a drawn share of the rows; maybe a quoted
    name first seen on the last row; maybe one row whose window is not
    a number, or whose server name holds an unquoted ``\\r`` (which
    ends that row early).
    """
    rows = draw(sample_rows(draw(st.sampled_from([plain_names, names]))))
    end = draw(st.sampled_from(["\r\n", "\n", "\r"]))
    odd = draw(st.integers(min_value=0, max_value=10))  # in tenths of the rows
    broken = draw(st.none() | st.integers(min_value=0, max_value=max(len(rows) - 1, 0)))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=end)
    writer.writerow(HEADER)
    for number, (window, server, *fields, value) in enumerate(rows):
        value = repr(value)
        if draw(st.integers(min_value=1, max_value=10)) <= odd:
            window = draw(st.sampled_from(ODD_WINDOWS))(window)
            value = draw(st.sampled_from([value, *ODD_VALUES]))
        if number == broken:
            window, server = draw(st.sampled_from([("x", server), (window, "s\ue000")]))
        writer.writerow((window, server, *fields, value))
    if draw(st.booleans()):
        writer.writerow((7, 'late "one"', "B", "DC1", "cpu", "1.5"))
    text = out.getvalue().replace("\ue000", "\r")
    if draw(st.booleans()):
        text = text[:-len(end)]
    return text.encode()


def outcome(read, path):
    """What ``read`` makes of ``path``: its columns, or its error."""
    try:
        return columns(read(path))
    except ValueError as error:
        return str(error)


def counting_row_reader(monkeypatch):
    """Patch ``export``; returns the lines ``csv.reader`` will be fed and
    the chunks the numpy reader will turn down."""
    fed, refused = [], []
    lines, parse_chunk = export._lines, export._parse_chunk

    def counted_lines(blocks):
        for line in lines(blocks):
            fed.append(line)
            yield line

    def counted_parse(chunk):
        parsed = parse_chunk(chunk)
        if parsed is None:
            refused.append(chunk)
        return parsed

    monkeypatch.setattr(export, "_lines", counted_lines)
    monkeypatch.setattr(export, "_parse_chunk", counted_parse)
    return fed, refused


def fleet_store(windows: int) -> MetricStore:
    """Two pools, two datacenters, three servers each, ``windows`` windows."""
    store = MetricStore()
    values = np.random.default_rng(3).random(windows * 3) * 100
    for pool in ("A", "B"):
        for datacenter in ("DC1", "DC2"):
            names = [f"{datacenter}.{pool}.s{i}" for i in range(3)]
            store.record_columns(
                pool, datacenter, "cpu",
                np.tile(np.arange(windows, dtype=np.int64), 3),
                np.repeat(store.intern_servers(names), windows),
                values,
            )
    return store


class TestTwoReaders:
    """Canonical chunks are parsed in numpy, the rest by ``csv.reader``."""

    @given(archive=archives(), chunk=st.integers(min_value=1, max_value=64))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_row_reader_at_any_cut(self, tmp_path_factory, archive, chunk):
        path = tmp_path_factory.mktemp("cuts") / "archive.csv"
        path.write_bytes(archive)
        expected = outcome(reference_import, path)
        with mock.patch.object(export, "_CHUNK", chunk):
            assert outcome(import_store, path) == expected

    def test_exported_archive_never_reaches_the_row_reader(self, tmp_path, monkeypatch):
        monkeypatch.setattr(export, "_CHUNK", 4096)
        path = tmp_path / "fleet.csv.gz"
        rows = export_store(fleet_store(500), path)
        fed, refused = counting_row_reader(monkeypatch)
        loaded = import_store(path)
        assert (fed, refused) == ([], [])
        assert loaded.sample_count() == rows == 6000
        path.write_bytes(gzip.decompress(path.read_bytes()))
        assert columns(loaded) == columns(reference_import(path))

    def test_row_reader_reads_exactly_the_last_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(export, "_CHUNK", 4096)
        path = tmp_path / "fleet.csv"
        export_store(fleet_store(500), path)
        with open(path, "a", newline="") as handle:
            csv.writer(handle).writerow((500, 'late,"one"', "A", "DC1", "cpu", 1.5))
        fed, refused = counting_row_reader(monkeypatch)
        recorded = []
        record_columns = MetricStore.record_columns
        monkeypatch.setattr(MetricStore, "record_columns", lambda store, *args: (
            recorded.append(args[:3]), record_columns(store, *args)))
        loaded = import_store(path)
        assert len(recorded) == len(set(recorded)) == 4  # both readers fill (A, DC1, cpu)
        [last] = refused
        assert path.read_bytes().endswith(last) and len(last) <= 4096 + 256
        assert "".join(fed).encode() == last
        assert len(fed) == last.count(b"\n") < 6000 // 20
        assert columns(loaded) == columns(reference_import(path))

    def test_peak_memory_is_columns_and_a_chunk(self, tmp_path, monkeypatch):
        # A Python object per row, as in a per-row reader, is > 5x this.
        monkeypatch.setattr(export, "_CHUNK", 1 << 16)
        path = tmp_path / "fleet.csv"
        rows = export_store(fleet_store(10_000), path)
        tracemalloc.start()
        try:
            import_store(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 16 * rows + 8 * export._CHUNK


class TestLocatedErrors:
    ARCHIVE = (
        'window,server_id,pool_id,datacenter_id,counter,value\r\n'
        '0,"two\nlines",B,DC1,cpu,1.0\r\n'
        "{row}\r\n"
        "2,s0,B,DC1,cpu,3.0\r\n"
    )

    @pytest.mark.parametrize("read", [import_store], ids=["import_store"])
    @pytest.mark.parametrize(
        "row,what",
        [
            ("x1,s0,B,DC1,cpu,2.0", "invalid literal for int"),
            ("1,s0,B,DC1,cpu,6.3.6", "could not convert string to float"),
            ("1,s0,B", "expected 6"),
            ("1,s0,B,DC1,cpu,2.0,extra", "expected 6"),
            ("", "expected 6"),
        ],
        ids=["window", "value", "short", "long", "blank"],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, read, row, what):
        path = tmp_path / "bad.csv"
        path.write_text(self.ARCHIVE.format(row=row), newline="")
        # The quoted line break puts the bad row on physical line 4.
        with pytest.raises(ValueError, match=rf"^{path}:4: malformed row .*{what}"):
            read(path)

    @pytest.mark.parametrize("read", [import_store], ids=["import_store"])
    @pytest.mark.parametrize("text", ["", "nope,nope\n1,2\n"], ids=["empty", "other"])
    def test_non_archive_names_the_expected_header(self, tmp_path, read, text):
        path = tmp_path / "other.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^{path}:1: not a telemetry archive .*'window'"):
            read(path)

    @pytest.mark.parametrize("read", [import_store], ids=["import_store"])
    @pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
    def test_undecodable_byte_names_its_line(self, tmp_path, read, suffix):
        # A text layer decoding 8 kB ahead of csv.reader named line 1312.
        lines = [",".join(HEADER).encode()]
        lines += [f"{window},s0,B,DC1,cpu,{window}.5".encode() for window in range(2000)]
        lines[1500] = b"1499,s\xff,B,DC1,cpu,1.5"
        data = b"\r\n".join(lines) + b"\r\n"
        path = tmp_path / f"fleet{suffix}"
        path.write_bytes(gzip.compress(data) if suffix == ".csv.gz" else data)
        with pytest.raises(ValueError, match=rf"^{path}:1501: malformed row "
                           r"\('utf-8' codec can't decode byte 0xff"):
            read(path)


    @pytest.mark.parametrize("read", [import_store], ids=["import_store"])
    @pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
    def test_overlong_field_names_its_line(self, tmp_path, read, suffix):
        # csv.Error used to escape the reader: a traceback at the CLI.
        data = (
            ",".join(HEADER) + "\r\n0,s0,B,DC1,cpu,1.5\r\n"
            + "1," + "s" * (csv.field_size_limit() + 1) + ",B,DC1,cpu,2.5\r\n"
        ).encode()
        path = tmp_path / f"long{suffix}"
        path.write_bytes(gzip.compress(data) if suffix == ".csv.gz" else data)
        with pytest.raises(ValueError, match=rf"^{path}:3: malformed row "
                           r"\(field larger than field limit"):
            read(path)

    @pytest.mark.parametrize("read", [import_store], ids=["import_store"])
    @pytest.mark.parametrize(
        "damage,what",
        [
            (lambda packed: packed[:len(packed) // 2],
             "damaged archive .*ended before the end-of-stream marker"),
            # zlib.error here; another zlib may inflate it to garbage rows.
            (lambda packed: _overwritten(packed, len(packed) // 2, b"\xff" * 64),
             "damaged archive .*while decompressing|malformed row"),
            (lambda packed: _overwritten(packed, len(packed) - 6,
                                         bytes([packed[-6] ^ 0x55])),
             "damaged archive .*CRC check failed"),
            (lambda packed: packed[:7], "damaged archive"),
        ],
        ids=["truncated", "corrupted", "checksum", "truncated-header"],
    )
    def test_damaged_gzip_names_file_and_line(self, tmp_path, read, damage, what):
        # The parent let EOFError / zlib.error / BadGzipFile through,
        # which the CLI showed as a traceback or an error without a path.
        path = tmp_path / "fleet.csv.gz"
        noise = np.random.default_rng(5).random(2000)  # incompressible
        store = MetricStore()
        store.record_columns(
            "B", "DC1", "cpu",
            np.arange(noise.size, dtype=np.int64),
            np.full(noise.size, store.intern_server("s0"), dtype=np.int64),
            noise,
        )
        export_store(store, path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=rf"^{path}:(\d+): ({what})") as info:
            read(path)
        line = int(str(info.value)[len(str(path)) + 1:].split(":")[0])
        assert 1 <= line <= noise.size + 2


def _overwritten(packed: bytes, position: int, patch: bytes) -> bytes:
    return packed[:position] + patch + packed[position + len(patch):]


class TestDeterministicGzip:
    def test_two_exports_are_byte_equal(self, tmp_path):
        store = store_of(GOLDEN_ROWS)
        first, second = tmp_path / "a.csv.gz", tmp_path / "later" / "b.csv.gz"
        second.parent.mkdir()
        export_store(store, first)
        export_store(store, second)
        packed = first.read_bytes()
        assert packed == second.read_bytes()
        # No timestamp and no embedded name in the member header.
        assert packed[3] == 0 and packed[4:8] == b"\0\0\0\0"
        assert gzip.decompress(packed) == b"\r\n".join(GOLDEN_LINES) + b"\r\n"
        assert by_name(import_store(first)) == by_name(store)


class _FailsMidway:
    """A store whose second table cannot be read."""

    def __init__(self, store):
        self._store = store
        self.server_name = store.server_name

    def iter_tables(self):
        tables = self._store.iter_tables()
        yield next(iter(tables))
        raise OSError("shard 1: connection lost")


class TestAtomicReplace:
    def test_failed_read_leaves_previous_archive(self, tmp_path):
        path = tmp_path / "fleet.csv"
        export_store(store_of(GOLDEN_ROWS[:3]), path)
        before = path.read_bytes()
        with pytest.raises(OSError, match="connection lost"):
            export_store(_FailsMidway(store_of(GOLDEN_ROWS)), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["fleet.csv"]

    @pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
    def test_failed_write_leaves_previous_archive(self, tmp_path, suffix):
        resource = pytest.importorskip("resource")
        path = tmp_path / f"fleet{suffix}"
        export_store(store_of(GOLDEN_ROWS), path)
        before = path.read_bytes()
        # Incompressible values, so the gzip member outgrows the limit too.
        noise = np.random.default_rng(5).random(4000)
        big = MetricStore()
        big.record_columns(
            "B", "DC1", "cpu",
            np.arange(noise.size, dtype=np.int64),
            np.full(noise.size, big.intern_server("s0"), dtype=np.int64),
            noise,
        )
        # Past 16 kB every write fails with EFBIG, as a full disk would.
        limit = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (16384, limit[1]))
        try:
            with pytest.raises(OSError):
                export_store(big, path)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, limit)
            signal.signal(signal.SIGXFSZ, handler)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [path.name]


SPECIAL_VALUES = [
    0.0, -0.0, float("inf"), float("-inf"), 5e-324, -5e-324, 2.225073858507201e-308,
    2.2250738585072014e-308, 1e16, 1e-05, 9999999999999998.0, 0.1 + 0.2, 1e22, 123.0,
] + [
    float(np.array(bits, dtype=np.uint64).view(np.float64))  # NaNs, payloads and signs
    for bits in (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                 0x7FF8000000000BAD, 0xFFFFFFFFFFFFFFFF)
]
quoted_names = st.sampled_from(['s0', 'web,1', 'db"2"', "two\nlines", "cr\rhere", "é", "\0"])


@st.composite
def special_rows(draw):
    """Samples whose values repeat and take every special bit pattern."""
    values = draw(st.lists(st.sampled_from(SPECIAL_VALUES) | float64_bits,
                           min_size=1, max_size=6))
    return draw(st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=2**40) | st.sampled_from([0, 1, 10, 99]),
            quoted_names, st.sampled_from(["A", 'B,"x"']), st.sampled_from(["DC1", "DC 2"]),
            st.sampled_from(["cpu", "lat,ms"]), st.sampled_from(values),
        ),
        max_size=40,
    ))


class TestWriterDifferential:
    """``export_store`` writes what the per-row writer writes, byte for byte."""

    @given(rows=special_rows())
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_the_per_row_writer(self, tmp_path_factory, rows):
        scratch = tmp_path_factory.mktemp("writer")
        source = store_of(rows)
        reference_export(source, scratch / "old.csv")
        expected = (scratch / "old.csv").read_bytes()
        assert export_store(source, scratch / "new.csv") == len(rows)
        assert (scratch / "new.csv").read_bytes() == expected
        export_store(source, scratch / "new.csv.gz")
        # The member as a text layer over GzipFile wrote it: closing the
        # text layer flushes (Z_SYNC_FLUSH) before the member ends.
        member = io.BytesIO()
        packed = gzip.GzipFile(filename="", mode="wb", fileobj=member, mtime=0)
        with io.TextIOWrapper(packed, encoding="utf-8", newline="") as handle:
            handle.write(expected.decode())
        assert (scratch / "new.csv.gz").read_bytes() == member.getvalue()

    def test_batches_split_runs_as_the_one_batch_does(self, tmp_path, monkeypatch):
        store = fleet_store(50)
        export_store(store, tmp_path / "whole.csv")
        monkeypatch.setattr(export, "_BATCH_ROWS", 7)
        export_store(store, tmp_path / "batched.csv")
        reference_export(store, tmp_path / "old.csv")
        assert (tmp_path / "batched.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "whole.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@st.composite
def any_archive_bytes(draw):
    """Any bytes, often behind a valid header and built from archive-ish pieces."""
    pieces = st.sampled_from([
        b",", b"\r\n", b"\n", b"\r", b'"', b"0", b"7", b"-", b"1.5", b"nan", b"e9",
        b"s0", b"B", b"DC1", b"cpu", b"\xff", b"\xc3\xa9", b"\0", b" ", b"9" * 20,
    ])
    names = st.sampled_from([b"s0", b"B", b"DC1", b"cpu"]) | st.lists(
        pieces, max_size=3).map(b"".join)
    rows = st.tuples(
        st.sampled_from([b"0", b"7", b"-3", b"+1", b"9" * 20, b"1.5", b"", b"x"]),
        names, names, names, names,
        st.sampled_from([b"1.5", b"-0.0", b"nan", b"1e999", b"", b"x"]),
    ).map(b",".join)
    ends = st.sampled_from([b"\r\n", b"\n", b"\r", b""])
    body = draw(
        st.binary(max_size=200)
        | st.lists(pieces, max_size=60).map(b"".join)
        | st.lists(st.tuples(rows, ends).map(b"".join), max_size=8).map(b"".join)
    )
    if draw(st.booleans()):
        body = ",".join(HEADER).encode() + draw(st.sampled_from([b"\r\n", b"\n"])) + body
    return body


class TestReaderTotality:
    """Whatever the bytes, ``import_store`` returns or raises ``ValueError("path:line: ...")``."""

    @given(data=any_archive_bytes(), packing=st.sampled_from(["raw", "gzip", "gzip-cut"]),
           chunk=st.sampled_from([7, 64, 1 << 18]))
    @settings(max_examples=400, deadline=None)
    def test_returns_or_raises_a_located_value_error(
        self, tmp_path_factory, data, packing, chunk
    ):
        path = tmp_path_factory.mktemp("any") / (
            "archive.csv" if packing == "raw" else "archive.csv.gz")
        if packing != "raw":
            data = gzip.compress(data, mtime=0)
            if packing == "gzip-cut":
                data = data[:len(data) // 2]
        path.write_bytes(data)
        with mock.patch.object(export, "_CHUNK", chunk):
            try:
                import_store(path)
            except ValueError as error:
                assert re.match(rf"{re.escape(str(path))}:[1-9][0-9]*: ", str(error))
