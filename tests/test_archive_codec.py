"""The CSV archive codec: exact bytes, exact reload, located errors.

``export_store`` writes run-wise and ``import_store`` reads run-wise;
the per-row writer and reader they replaced are kept here as the
references both are compared against.
"""

import csv
import gzip
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.export import export_store, import_store, iter_rows
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
        for window, server_id, pool_id, datacenter_id, counter, value in reader:
            bucket = grouped.setdefault((pool_id, datacenter_id, counter), ([], [], []))
            bucket[0].append(int(window))
            bucket[1].append(store.intern_server(server_id))
            bucket[2].append(float(value))
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
def sample_rows(draw):
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
        streamed = [tuple(row[name] for name in HEADER) for row in iter_rows(path)]
        assert [(*fields, repr(value)) for *fields, value in streamed] == [
            (*fields, repr(value)) for *fields, value in rows
        ]


class TestLocatedErrors:
    ARCHIVE = (
        'window,server_id,pool_id,datacenter_id,counter,value\r\n'
        '0,"two\nlines",B,DC1,cpu,1.0\r\n'
        "{row}\r\n"
        "2,s0,B,DC1,cpu,3.0\r\n"
    )

    @pytest.mark.parametrize("read", [import_store, lambda p: list(iter_rows(p))],
                             ids=["import_store", "iter_rows"])
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

    @pytest.mark.parametrize("read", [import_store, lambda p: list(iter_rows(p))],
                             ids=["import_store", "iter_rows"])
    @pytest.mark.parametrize("text", ["", "nope,nope\n1,2\n"], ids=["empty", "other"])
    def test_non_archive_names_the_expected_header(self, tmp_path, read, text):
        path = tmp_path / "other.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^{path}:1: not a telemetry archive .*'window'"):
            read(path)


    @pytest.mark.parametrize("read", [import_store, lambda p: list(iter_rows(p))],
                             ids=["import_store", "iter_rows"])
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
