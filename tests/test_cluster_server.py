"""Unit tests for repro.cluster.server, hardware, latency and deployment."""

import dataclasses

import numpy as np
import pytest

from repro.cluster.deployment import (
    BASELINE_VERSION,
    SoftwareVersion,
    leak_fix_with_latency_regression,
    leaky_version,
)
from repro.cluster.hardware import GENERATION_2014, GENERATION_2017, HardwareSpec
from repro.cluster.latency import LatencyModel
from repro.cluster.server import Server, ServerArrays, ServerState, observe_pool_block
from repro.cluster.service import service_catalog
from repro.telemetry.counters import Counter


@pytest.fixture()
def profile():
    return service_catalog()["B"]


@pytest.fixture()
def server(profile):
    return Server(
        server_id="s0", pool_id="B", datacenter_id="DC1", profile=profile
    )


def _quiet(profile, idle_cpu_pct=None):
    """``profile`` with every CPU/latency noise source zeroed, so one
    emitted window *is* the ground-truth value."""
    noise = dataclasses.replace(
        profile.noise, idle_cpu_noise_pct=0.0, log_upload_cpu_pct=0.0
    )
    if idle_cpu_pct is not None:
        noise = dataclasses.replace(noise, idle_cpu_pct=idle_cpu_pct)
    return dataclasses.replace(
        profile, noise=noise, cpu_observation_noise=0.0,
        latency_observation_noise=0.0,
    )


def _observe(server, window, class_rps, rng=None):
    """One server, one window through :func:`observe_pool_block`.

    Returns counter -> value as the simulator would record it: an
    offline server reports availability 0 and nothing else.  Leak
    growth is written back to ``server.working_set_mb``.
    """
    arrays = ServerArrays.from_servers([server])
    names = server.profile.mix.class_names
    _, _, observations = observe_pool_block(
        server.profile,
        arrays,
        np.array([[server.state.is_online]]),
        np.array([window]),
        names,
        np.array([[class_rps[name] for name in names]]),
        rng if rng is not None else np.random.default_rng(0),
    )
    arrays.flush([server])
    observed = {Counter.AVAILABILITY.value: float(server.state.is_online)}
    observed.update(
        (name, float(values[0])) for name, values in observations.items() if values.size
    )
    return observed


def _cpu(server, class_rps):
    return _observe(server, 0, class_rps)[Counter.PROCESSOR_UTILIZATION.value]


def _p95(server, class_rps):
    return _observe(server, 0, class_rps)[Counter.LATENCY_P95.value]


class TestHardware:
    def test_newer_generation_cheaper_cpu(self):
        assert GENERATION_2017.cpu_scale < GENERATION_2014.cpu_scale

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            HardwareSpec(generation="bad", cpu_scale=0.0)


class TestLatencyModel:
    def test_base_latency_at_zero_load(self):
        model = LatencyModel(base_ms=10.0, cold_ms=5.0)
        # At zero RPS the cold-work term is maximal.
        assert model.p95_ms(0.0, 0.0) == pytest.approx(15.0)

    def test_cold_term_decays_with_rps(self):
        model = LatencyModel(base_ms=10.0, cold_ms=5.0, warmup_rps=50.0, queue_coeff_ms=0.0)
        assert model.p95_ms(500.0, 0.1) < model.p95_ms(1.0, 0.1)

    def test_latency_convex_in_utilization(self):
        model = LatencyModel(base_ms=10.0, cold_ms=0.0, queue_coeff_ms=100.0)
        lat = [model.p95_ms(100.0, u) for u in (0.1, 0.3, 0.5, 0.7, 0.9)]
        diffs = np.diff(lat)
        assert np.all(np.diff(diffs) > 0)  # increasing increments

    def test_saturation_clamped_finite(self):
        model = LatencyModel(base_ms=10.0)
        assert np.isfinite(model.p95_ms(100.0, 1.5))

    def test_median_below_p95(self):
        model = LatencyModel(base_ms=10.0)
        assert model.p50_ms(100.0, 0.2) < model.p95_ms(100.0, 0.2)

    def test_negative_rps_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(base_ms=10.0).p95_ms(-1.0, 0.1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(base_ms=0.0)
        with pytest.raises(ValueError):
            LatencyModel(base_ms=1.0, utilization_cap=1.5)


class TestSoftwareVersion:
    def test_baseline_is_neutral(self):
        assert BASELINE_VERSION.cpu_multiplier == 1.0
        assert BASELINE_VERSION.memory_leak_mb_per_window == 0.0

    def test_leaky_version_leaks(self):
        assert leaky_version().memory_leak_mb_per_window > 0

    def test_leak_fix_regresses_queue(self):
        fix = leak_fix_with_latency_regression()
        assert fix.memory_leak_mb_per_window == 0.0
        assert fix.latency_queue_multiplier > 1.0

    def test_invalid_versions_rejected(self):
        with pytest.raises(ValueError):
            SoftwareVersion(name="")
        with pytest.raises(ValueError):
            SoftwareVersion(name="x", cpu_multiplier=0.0)


class TestServerGroundTruth:
    """Noise-free counter math: a quiet profile's emission is the truth."""

    def test_cpu_linear_in_rps(self, profile):
        quiet = _quiet(profile)
        server = Server("s0", "B", "DC1", quiet)
        cost = quiet.cpu_cost_per_rps()
        idle = quiet.noise.idle_cpu_pct
        assert _cpu(server, {"query": 100.0}) == pytest.approx(idle + 100.0 * cost)
        assert _cpu(server, {"query": 200.0}) == pytest.approx(idle + 200.0 * cost)

    def test_newer_hardware_uses_less_cpu(self, profile):
        quiet = _quiet(profile)
        old = Server("a", "B", "DC1", quiet, hardware=GENERATION_2014)
        new = Server("b", "B", "DC1", quiet, hardware=GENERATION_2017)
        load = {"query": 200.0}
        assert _cpu(new, load) < _cpu(old, load)

    def test_version_cpu_multiplier_applies(self, profile):
        quiet = _quiet(profile)
        regressed = SoftwareVersion(name="slow", cpu_multiplier=1.5)
        a = Server("a", "B", "DC1", quiet)
        b = Server("b", "B", "DC1", quiet, version=regressed)
        load = {"query": 200.0}
        idle = quiet.noise.idle_cpu_pct
        assert _cpu(b, load) - idle == pytest.approx(1.5 * (_cpu(a, load) - idle))

    def test_queue_multiplier_only_affects_load_term(self, profile):
        quiet = _quiet(profile, idle_cpu_pct=0.0)
        regressed = leak_fix_with_latency_regression(queue_multiplier=2.0)
        a = Server("a", "B", "DC1", quiet)
        b = Server("b", "B", "DC1", quiet, version=regressed)
        # At zero utilization the queue term vanishes: the versions
        # differ only by the fix's constant base delta.
        idle_gap = _p95(b, {"query": 0.0}) - _p95(a, {"query": 0.0})
        assert idle_gap == pytest.approx(regressed.latency_base_delta_ms)
        # Under load the regressed version is slower still.
        loaded_gap = _p95(b, {"query": 2000.0}) - _p95(a, {"query": 2000.0})
        assert loaded_gap > idle_gap


class TestObserve:
    def test_offline_server_reports_only_availability(self, server, rng):
        server.state = ServerState.OFFLINE_MAINTENANCE
        obs = _observe(server, 0, {"query": 100.0}, rng)
        assert obs == {Counter.AVAILABILITY.value: 0.0}

    def test_online_counters_present(self, server, rng):
        obs = _observe(server, 0, {"query": 100.0}, rng)
        assert obs[Counter.AVAILABILITY.value] == 1.0
        assert obs[Counter.REQUESTS.value] == pytest.approx(100.0)
        assert obs[Counter.PROCESSOR_UTILIZATION.value] > 0
        assert obs[Counter.LATENCY_P95.value] > 0
        assert "Requests/sec[query]" in obs

    def test_cpu_tracks_load(self, server, rng):
        low = np.mean([
            _observe(server, w, {"query": 50.0}, rng)[Counter.PROCESSOR_UTILIZATION.value]
            for w in range(40)
        ])
        high = np.mean([
            _observe(server, w, {"query": 400.0}, rng)[Counter.PROCESSOR_UTILIZATION.value]
            for w in range(40)
        ])
        assert high > low + 5.0

    def test_memory_leak_growth(self, profile, rng):
        leaky = Server("s", "B", "DC1", profile, version=leaky_version(mb_per_window=5.0))
        first = _observe(leaky, 0, {"query": 10.0}, rng)[Counter.MEMORY_WORKING_SET.value]
        for w in range(1, 50):
            last = _observe(leaky, w, {"query": 10.0}, rng)[Counter.MEMORY_WORKING_SET.value]
        assert last > first
        leaky.restart()
        assert leaky.working_set_mb < first / 1e6 + 1.0

    def test_log_upload_spikes_disk(self, profile, rng):
        server = Server("s", "B", "DC1", profile, noise_phase=0)
        period = profile.noise.log_upload_period_windows
        spike_obs = _observe(server, 0, {"query": 10.0}, rng)
        quiet_obs = _observe(server, period // 2, {"query": 10.0}, rng)
        assert (
            spike_obs[Counter.DISK_READ_BYTES.value]
            > quiet_obs[Counter.DISK_READ_BYTES.value]
        )

    def test_latency_dips_then_rises_with_load(self):
        # The cold-start term makes very low workloads slower than
        # moderate ones (Fig 6's elevated left edge); queueing then
        # dominates as the server saturates.
        server = Server("s", "D", "DC1", _quiet(service_catalog()["D"]))
        assert _p95(server, {"render": 2.0}) > _p95(server, {"render": 60.0})
        assert _p95(server, {"render": 900.0}) > _p95(server, {"render": 60.0})
