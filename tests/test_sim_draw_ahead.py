"""Draw-ahead emission against the step it replaced.

``reference_run_block`` keeps the simulator's step as it was before
the plan -> draw -> apply split: one (deployment, block) step at a
time, every draw taken straight from the simulator's generator at the
point the arithmetic needs it.  The pipelined :meth:`Simulator.run_block`
must write byte-equal stores and leave the generator in the same
state, whichever steps it draws on the draw thread.
"""

import concurrent.futures
import contextlib
import dataclasses
import hashlib
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import simulation
from repro.cluster.builders import build_single_pool_fleet
from repro.cluster.faults import DatacenterOutage, RandomFailures
from repro.cluster.server import ServerArrays, observation_draws, observe_pool_block
from repro.cluster.service import service_catalog
from repro.cluster.simulation import SimulationConfig, Simulator, _Replay
from repro.telemetry.counters import Counter
from repro.telemetry.store import MetricStore
from repro.workload.request_mix import RequestClass, RequestMix


def reference_step(sim, deployment, windows, base_demand):
    """One deployment, one block: the step before draw-ahead."""
    pool = deployment.pool
    n_windows = int(windows.size)
    noise = sim.config.workload_noise
    totals = np.array(base_demand, dtype=float)
    if noise > 0:
        active = totals > 0
        n_active = int(active.sum())
        if n_active:
            sigma = np.sqrt(np.log1p(noise**2))
            totals[active] *= sim._rng.lognormal(
                -0.5 * sigma**2, sigma, size=n_active
            )
    mix = deployment.mix
    volumes = totals[:, None] * mix.shares_block(windows, sim._rng)
    mask_block = sim._online_mask_block(deployment, windows)
    counts = mask_block.sum(axis=1)
    per_server_rps = np.zeros_like(volumes)
    np.divide(
        volumes, counts[:, None], out=per_server_rps, where=counts[:, None] > 0,
    )
    arrays = pool.server_arrays()
    emit = sim._emit_counters(deployment)
    flat_windows, flat_positions, observations = observe_pool_block(
        pool.profile, arrays, mask_block, windows,
        mix.class_names, per_server_rps, sim._rng, emit,
    )
    indices = sim._store_indices(deployment, arrays.server_ids)
    availability = Counter.AVAILABILITY.value
    if emit is None or availability in emit:
        sim.store.record_columns(
            deployment.pool_id, deployment.datacenter_id, availability,
            np.repeat(windows, pool.size), np.tile(indices, n_windows),
            mask_block.astype(float).ravel(),
        )
    if flat_windows.size:
        flat_indices = indices[flat_positions]
        for counter, values in observations.items():
            sim.store.record_columns(
                deployment.pool_id, deployment.datacenter_id, counter,
                flat_windows, flat_indices, values,
            )


def reference_run_block(sim, n_windows):
    """``run_block`` as a loop of :func:`reference_step` per block."""
    remaining = n_windows
    while remaining > 0:
        step = min(sim.config.block_windows, remaining)
        windows = np.arange(sim._window, sim._window + step, dtype=np.int64)
        block = sim._demand_engine.compute_demand_block(windows)
        for deployment in sim.fleet.deployments():
            reference_step(
                sim, deployment, windows,
                block.column(deployment.pool_id, deployment.datacenter_id),
            )
        sim._window += step
        remaining -= step


def _store_bytes(store):
    digest = hashlib.sha256()
    for key, windows, servers, values in store.iter_tables():
        digest.update(repr(key).encode())
        for column in (windows, servers, values):
            digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


ALL_COUNTERS = tuple(c.value for c in Counter)
DRAW_THREADS = "repro-draw"


_DRAW = simulation._draw


def _late_draw(rng, step, schedule):
    """``_draw``, started late off the main thread, so that a draw made
    out of turn on the main thread would land first and show."""
    if threading.current_thread() is not threading.main_thread():
        time.sleep(0.0003)
    return _DRAW(rng, step, schedule)


def _threshold(cells):
    """Draw steps of ``cells`` or more ahead (late), one CPU or not."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(simulation, "DRAW_AHEAD_CELLS", cells))
    stack.enter_context(mock.patch.object(simulation, "_second_cpu", lambda: True))
    stack.enter_context(mock.patch.object(simulation, "_draw", _late_draw))
    return stack


def _draw_threads():
    return [t for t in threading.enumerate() if t.name.startswith(DRAW_THREADS)]


@st.composite
def scenarios(draw):
    n_classes = draw(st.integers(1, 3))
    mix = RequestMix(
        classes=tuple(
            RequestClass(name=f"c{k}", cpu_cost=draw(st.sampled_from([0.01, 0.03, 0.09])))
            for k in range(n_classes)
        ),
        proportions=tuple(draw(st.integers(1, 4)) for _ in range(n_classes)),
        drift=draw(st.sampled_from([0.0, 0.4])),
    )
    counters = draw(st.one_of(
        st.none(),
        st.just(simulation.DEFAULT_COUNTERS),
        st.sets(st.sampled_from(ALL_COUNTERS), min_size=1).map(tuple),
    ))
    return dict(
        mix=mix,
        counters=counters,
        classes=draw(st.booleans()),
        policies=draw(st.booleans()),
        failures=draw(st.booleans()),
        outage=draw(st.one_of(st.none(), st.integers(0, 150))),
        datacenters=draw(st.integers(1, 2)),
        servers=draw(st.integers(1, 12)),
        block=draw(st.sampled_from([1, 7, 64])),
        calls=draw(st.lists(st.integers(0, 140), min_size=1, max_size=3)),
        threshold=draw(st.sampled_from([0, 1, 40, 200, simulation.DRAW_AHEAD_CELLS])),
        seed=draw(st.integers(0, 2**16)),
    )


def _simulator(s):
    profile = dataclasses.replace(service_catalog()["B"], mix=s["mix"])
    fleet = build_single_pool_fleet(
        "B", n_datacenters=s["datacenters"], servers_per_deployment=s["servers"],
        seed=s["seed"], profile=profile,
    )
    sim = Simulator(fleet, seed=s["seed"], config=SimulationConfig(
        counters=s["counters"],
        record_request_classes=s["classes"],
        apply_availability_policies=s["policies"],
        random_failures=(
            RandomFailures(daily_probability=0.5, seed=3) if s["failures"] else None
        ),
        block_windows=s["block"],
    ))
    if s["outage"] is not None:
        sim.add_outage(DatacenterOutage("DC1", start_window=s["outage"], duration_windows=30))
    return sim


class TestMatchesReferenceStep:
    @given(s=scenarios())
    @settings(max_examples=150, deadline=None)
    def test_same_store_and_generator_state(self, s):
        reference, piped = _simulator(s), _simulator(s)
        with _threshold(s["threshold"]):
            for n_windows in s["calls"]:
                reference_run_block(reference, n_windows)
                piped.run_block(n_windows)
                assert piped.current_window == reference.current_window
                assert piped._rng.bit_generator.state == reference._rng.bit_generator.state
        assert _store_bytes(piped.store) == _store_bytes(reference.store)
        assert not _draw_threads()


class TestWhereStepsDraw:
    """Which steps are drawn ahead and which take the draw thread."""

    def _run(self, servers, windows=128, second_cpu=True, threshold=None):
        """(threads made, steps drawn ahead, ``stage_seconds``)."""
        fleet = build_single_pool_fleet("B", servers_per_deployment=servers, seed=4)
        sim = Simulator(fleet, seed=4, config=SimulationConfig(
            block_windows=64, apply_availability_policies=False))
        made, drawn = [], []
        real_pool = concurrent.futures.ThreadPoolExecutor

        def spy_pool(*args, **kwargs):
            made.append(1)
            return real_pool(*args, **kwargs)

        def spy_draw(*args):
            drawn.append(1)
            return _DRAW(*args)

        with contextlib.ExitStack() as stack:
            stack.enter_context(
                mock.patch.object(concurrent.futures, "ThreadPoolExecutor", spy_pool))
            stack.enter_context(mock.patch.object(simulation, "_draw", spy_draw))
            stack.enter_context(
                mock.patch.object(simulation, "_second_cpu", lambda: second_cpu))
            if threshold is not None:
                stack.enter_context(
                    mock.patch.object(simulation, "DRAW_AHEAD_CELLS", threshold))
            sim.run_block(windows)
        assert not _draw_threads()
        return len(made), len(drawn), sim.stage_seconds

    def test_wide_steps_are_drawn_ahead_on_the_thread(self):
        made, drawn, stage = self._run(servers=200)  # 12 800 cells a step
        assert (made, drawn) == (1, 2)
        assert stage["draw"] > 0

    def test_a_lone_wide_step_draws_as_it_applies(self):
        """A one-step call (a streamed single-pool fleet) has nothing to
        overlap its draws with."""
        assert self._run(servers=200, windows=64)[:2] == (0, 0)

    def test_a_narrow_step_draws_as_it_applies(self):
        assert self._run(servers=50)[:2] == (0, 0)  # 3 200 cells a step

    def test_one_cpu_draws_every_step_as_it_applies(self):
        assert self._run(servers=4, second_cpu=False, threshold=0)[:2] == (0, 0)


class _FailingStore(MetricStore):
    """A store whose ``record_columns`` raises on its ``fail_at``-th call."""

    def __init__(self, fail_at, error):
        super().__init__()
        self.calls = 0
        self.fail_at = fail_at
        self.error = error

    def record_columns(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.fail_at:
            raise self.error
        return super().record_columns(*args, **kwargs)


class TestDrainRule:
    def _sim(self, store):
        fleet = build_single_pool_fleet(
            "B", n_datacenters=2, servers_per_deployment=60, seed=3
        )
        return Simulator(fleet, store=store, seed=3,
                         config=SimulationConfig(block_windows=16))

    @pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()])
    @pytest.mark.parametrize("fail_at", [1, 7, 20])
    def test_a_failing_store_leaves_no_thread_and_a_still_generator(
        self, fail_at, error
    ):
        sim = self._sim(_FailingStore(fail_at, error))
        with _threshold(1):
            with pytest.raises(type(error)):
                sim.run_block(16 * 6)
        assert not _draw_threads()
        state = sim._rng.bit_generator.state
        threading.Event().wait(0.05)
        assert sim._rng.bit_generator.state == state
        assert sim.current_window < 16 * 6

    @pytest.mark.parametrize("fail_at", [1, 2, 7, 20])
    def test_a_failing_store_stops_where_the_reference_stops(self, fail_at):
        """The draw made ahead for the step after the failing one is
        undone: generator, store and window match the one-thread step
        failing at the same ``record_columns`` call."""
        reference = self._sim(_FailingStore(fail_at, OSError("disk full")))
        with pytest.raises(OSError):
            reference_run_block(reference, 16 * 6)
        for delay in (0.0, 0.05):
            sim = self._sim(_FailingStore(fail_at, OSError("disk full")))
            # With a slow store the draw ahead has run before the error;
            # with a fast one it may still be queued, and is cancelled.
            store_record = sim.store.record_columns

            def slow_record(*args, **kwargs):
                threading.Event().wait(delay)
                return store_record(*args, **kwargs)

            sim.store.record_columns = slow_record
            with _threshold(1):
                with pytest.raises(OSError):
                    sim.run_block(16 * 6)
            assert (sim._rng.bit_generator.state
                    == reference._rng.bit_generator.state)
            assert _store_bytes(sim.store) == _store_bytes(reference.store)
            assert sim.current_window == reference.current_window

    def test_a_failing_draw_propagates(self):
        sim = self._sim(MetricStore())
        sim.fleet.deployment("B", "DC2").pool.profile = dataclasses.replace(
            service_catalog()["B"], cpu_observation_noise=-1.0
        )
        with _threshold(1):
            with pytest.raises(ValueError):
                sim.run_block(16 * 3)
        assert not _draw_threads()


class TestReplay:
    SCHEDULE = [("normal", (0.0, 2.0), 3), ("uniform", (0.5, 1.5), (2, 2))]

    def _replay(self):
        rng = np.random.default_rng(1)
        return _Replay(self.SCHEDULE, [rng.normal(0.0, 2.0, size=3),
                                       rng.uniform(0.5, 1.5, size=(2, 2))])

    def test_hands_out_the_draws_in_order(self):
        replay = self._replay()
        rng = np.random.default_rng(1)
        np.testing.assert_array_equal(
            replay.normal(0.0, 2.0, size=3), rng.normal(0.0, 2.0, size=3))
        np.testing.assert_array_equal(
            replay.uniform(0.5, 1.5, size=(2, 2)), rng.uniform(0.5, 1.5, size=(2, 2)))
        replay.finish()

    @pytest.mark.parametrize("call", [
        lambda r: r.uniform(0.0, 2.0, size=3),   # method
        lambda r: r.normal(0.0, 2.5, size=3),    # parameters
        lambda r: r.normal(0.0, 2.0, size=4),    # shape
    ])
    def test_a_call_off_the_schedule_raises(self, call):
        with pytest.raises(RuntimeError, match="schedule"):
            call(self._replay())

    def test_leftover_draws_raise(self):
        replay = self._replay()
        replay.normal(0.0, 2.0, size=3)
        with pytest.raises(RuntimeError, match="left over"):
            replay.finish()

    def test_a_call_past_the_end_raises(self):
        replay = self._replay()
        replay.normal(0.0, 2.0, size=3)
        replay.uniform(0.5, 1.5, size=(2, 2))
        with pytest.raises(RuntimeError, match="schedule"):
            replay.normal(0.0, 2.0, size=3)

    @pytest.mark.parametrize("counters", [None, (Counter.ERRORS.value,),
                                          simulation.DEFAULT_COUNTERS])
    def test_observation_schedule_matches_the_kernel(self, counters):
        """The declared observation draws are exactly the kernel's calls."""
        profile = service_catalog()["A"]
        fleet = build_single_pool_fleet("A", servers_per_deployment=9, seed=2)
        pool = next(fleet.deployments()).pool
        mask = np.random.default_rng(0).random((5, 9)) < 0.7
        emit = None if counters is None else frozenset(counters)
        schedule = observation_draws(profile, emit, int(mask.sum()))
        rng = np.random.default_rng(4)
        draws = [getattr(rng, m)(*p, size=n) for m, p, n in schedule]
        replay = _Replay(schedule, draws)
        rps = np.full((5, len(profile.mix.class_names)), 40.0)

        def observe(rng):
            arrays = ServerArrays.from_servers(pool.servers)
            return observe_pool_block(profile, arrays, mask, np.arange(5),
                                      profile.mix.class_names, rps, rng, emit)[2]

        got = observe(replay)
        replay.finish()
        want = observe(np.random.default_rng(4))
        assert got.keys() == want.keys()
        for name in got:
            np.testing.assert_array_equal(got[name], want[name])
