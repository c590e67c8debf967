"""Tests for telemetry export/import and the CLI."""

import numpy as np
import pytest

from repro.cli import main
from repro.telemetry.counters import Counter
from repro.telemetry.export import export_store, import_store
from repro.telemetry.store import MetricStore


@pytest.fixture()
def small_store():
    store = MetricStore()
    for w in range(5):
        store.record_fast(w, "s0", "B", "DC1", "cpu", float(w) * 1.5)
        store.record_fast(w, "s1", "B", "DC1", "cpu", float(w))
        store.record_fast(w, "s0", "B", "DC1", "lat", 30.0 + w)
    return store


class TestRoundTrip:
    def test_csv_round_trip(self, small_store, tmp_path):
        path = tmp_path / "archive.csv"
        rows = export_store(small_store, path)
        assert rows == 15
        loaded = import_store(path)
        assert loaded.sample_count() == small_store.sample_count()
        original = small_store.server_series("B", "cpu", "s0")
        reloaded = loaded.server_series("B", "cpu", "s0")
        np.testing.assert_array_equal(original.windows, reloaded.windows)
        np.testing.assert_array_equal(original.values, reloaded.values)

    def test_gzip_round_trip(self, small_store, tmp_path):
        path = tmp_path / "archive.csv.gz"
        export_store(small_store, path)
        loaded = import_store(path)
        assert loaded.sample_count() == 15
        assert path.stat().st_size > 0

    def test_counter_filter(self, small_store, tmp_path):
        path = tmp_path / "cpu_only.csv"
        rows = export_store(small_store, path, counters=["cpu"])
        assert rows == 10
        loaded = import_store(path)
        assert loaded.counters_for_pool("B") == ("cpu",)

    def test_values_exact(self, small_store, tmp_path):
        # repr() round-trips floats exactly.
        path = tmp_path / "exact.csv"
        small_store.record_fast(9, "s0", "B", "DC1", "cpu", 0.1 + 0.2)
        export_store(small_store, path)
        loaded = import_store(path)
        series = loaded.server_series("B", "cpu", "s0")
        assert series.values[-1] == 0.1 + 0.2

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(ValueError):
            import_store(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text(
            "window,server_id,pool_id,datacenter_id,counter,value\n1,2,3\n"
        )
        with pytest.raises(ValueError):
            import_store(path)


class TestCli:
    def test_simulate_then_plan(self, tmp_path, capsys):
        archive = tmp_path / "fleet.csv.gz"
        rc = main([
            "simulate", str(archive), "--days", "1", "--datacenters", "2",
            "--servers", "3", "--pools", "B", "--seed", "3",
        ])
        assert rc == 0
        assert archive.exists()

        rc = main(["plan", str(archive), "--no-dr"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Server Pool" in out
        assert "fleet-wide" in out

    def test_validate_command(self, tmp_path, capsys):
        archive = tmp_path / "fleet.csv"
        main([
            "simulate", str(archive), "--days", "1", "--datacenters", "1",
            "--servers", "4", "--pools", "D", "--seed", "4",
        ])
        rc = main(["validate", str(archive)])
        assert rc == 0
        assert "valid_aggregate" in capsys.readouterr().out

    def test_availability_command(self, tmp_path, capsys):
        archive = tmp_path / "fleet.csv"
        main([
            "simulate", str(archive), "--days", "1", "--datacenters", "1",
            "--servers", "4", "--pools", "D", "--seed", "4",
        ])
        rc = main(["availability", str(archive)])
        assert rc == 0
        assert "fleet mean availability" in capsys.readouterr().out

    def test_plan_with_slo_override(self, tmp_path, capsys):
        archive = tmp_path / "fleet.csv"
        main([
            "simulate", str(archive), "--days", "1", "--datacenters", "1",
            "--servers", "4", "--pools", "B", "--seed", "5",
        ])
        rc = main(["plan", str(archive), "--no-dr", "--slo-ms", "40"])
        assert rc == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
