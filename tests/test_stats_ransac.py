"""Unit tests for repro.stats.ransac.

``reference_fit`` keeps the trial-at-a-time loop that the batch
screening replaced; every fit is compared against it.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.ransac import RansacModel, RansacRegressor
from repro.stats.regression import fit_linear


def _line_with_outliers(rng, n=200, outlier_fraction=0.2):
    x = np.linspace(0, 100, n)
    y = 0.5 * x + 10.0 + rng.normal(0, 0.3, n)
    n_out = int(outlier_fraction * n)
    idx = rng.choice(n, size=n_out, replace=False)
    y[idx] += rng.uniform(20, 60, n_out)
    return x, y, idx


class TestRansacLinear:
    def test_ignores_gross_outliers(self):
        rng = np.random.default_rng(5)
        x, y, _ = _line_with_outliers(rng)
        result = RansacRegressor(degree=1, rng=rng).fit(x, y)
        assert result.model.slope == pytest.approx(0.5, abs=0.02)
        assert result.model.intercept == pytest.approx(10.0, abs=1.0)

    def test_flags_outliers(self):
        rng = np.random.default_rng(6)
        x, y, outlier_idx = _line_with_outliers(rng)
        result = RansacRegressor(degree=1, rng=rng).fit(x, y)
        flagged = set(np.flatnonzero(~result.inlier_mask))
        # Most injected outliers should be flagged.
        overlap = len(flagged & set(outlier_idx)) / len(outlier_idx)
        assert overlap >= 0.75

    def test_ols_beats_nothing_on_clean_data(self):
        rng = np.random.default_rng(7)
        x = np.linspace(0, 10, 50)
        y = 2.0 * x + 1.0
        result = RansacRegressor(degree=1, rng=rng).fit(x, y)
        assert result.n_outliers == 0
        assert result.inlier_fraction == 1.0


class TestRansacQuadratic:
    def test_recovers_quadratic_with_outliers(self):
        rng = np.random.default_rng(8)
        x = np.linspace(10, 100, 300)
        y = 4.66e-3 * x**2 - 0.8 * x + 86.5 + rng.normal(0, 0.5, 300)
        y[::10] += 40.0  # deployment-coincident latency spikes
        result = RansacRegressor(degree=2, rng=rng).fit(x, y)
        coeffs = result.model.coefficients
        assert coeffs[0] == pytest.approx(4.66e-3, rel=0.1)
        assert coeffs[2] == pytest.approx(86.5, rel=0.1)

    def test_predict_scalar(self):
        rng = np.random.default_rng(9)
        x = np.linspace(0, 10, 50)
        y = x**2
        result = RansacRegressor(degree=2, rng=rng).fit(x, y)
        assert result.predict_scalar(4.0) == pytest.approx(16.0, abs=0.5)


class TestRansacEdgeCases:
    def test_too_few_points_raises(self):
        with pytest.raises(ValueError):
            RansacRegressor(degree=2).fit([1.0, 2.0], [1.0, 2.0])

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            RansacRegressor(degree=1).fit([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RansacRegressor(degree=0)
        with pytest.raises(ValueError):
            RansacRegressor(max_iterations=0)
        with pytest.raises(ValueError):
            RansacRegressor(min_inlier_fraction=0.0)

    def test_constant_response(self):
        rng = np.random.default_rng(10)
        x = np.linspace(0, 10, 30)
        y = np.full(30, 5.0)
        result = RansacRegressor(degree=1, rng=rng).fit(x, y)
        assert result.model.predict_scalar(100.0) == pytest.approx(5.0, abs=1e-6)

    def test_no_consensus_falls_back_to_ols(self):
        # Pure noise: RANSAC may find no majority consensus, but the
        # caller still gets a usable model.
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, 40)
        y = rng.uniform(0, 1000, 40)
        result = RansacRegressor(
            degree=1, residual_threshold=1e-6, rng=rng
        ).fit(x, y)
        assert result.model.n >= 2

    def test_deterministic_under_seed(self):
        x = np.linspace(0, 10, 60)
        y = 2 * x + np.sin(x) * 5
        a = RansacRegressor(degree=1, rng=np.random.default_rng(42)).fit(x, y)
        b = RansacRegressor(degree=1, rng=np.random.default_rng(42)).fit(x, y)
        assert a.model.slope == b.model.slope
        assert np.array_equal(a.inlier_mask, b.inlier_mask)


def _pinned_inputs():
    x = np.linspace(10.0, 100.0, 120)
    rng = np.random.default_rng(101)
    clean = (x, 4.66e-3 * x**2 - 0.8 * x + 86.5 + rng.normal(0, 0.5, x.size))
    rng = np.random.default_rng(102)
    y = 4.66e-3 * x**2 - 0.8 * x + 86.5 + rng.normal(0, 0.5, x.size)
    hit = rng.choice(x.size, size=int(0.3 * x.size), replace=False)
    y[hit] += rng.uniform(20.0, 60.0, hit.size)
    rng = np.random.default_rng(103)
    xd = np.repeat(np.array([10.0, 20.0, 40.0, 80.0]), 15)
    duplicates = (xd, 0.01 * xd**2 + 2.0 + rng.normal(0, 0.4, xd.size))
    return {"clean": clean, "outliers": (x, y), "duplicates": duplicates}


# Captured at the parent of the PR that stopped building full model
# diagnostics per candidate: (coefficients, r2, residual_std, outlier
# indices, iterations_run, next draw of the shared generator).
_PINNED = {
    ("clean", 2): (
        (0.004603617853541098, -0.7947704971837072, 86.4279058952468),
        0.9965386666853588, 0.4887092521070618,
        [41, 45, 76, 77, 85, 104, 117], 200, 4270660292,
    ),
    ("outliers", 2): (
        (0.004836751537112754, -0.8239057652201023, 87.22063929916638),
        0.9963498810610261, 0.4699392948312387,
        [1, 2, 3, 4, 5, 8, 11, 13, 17, 27, 28, 29, 30, 32, 33, 39, 41, 42,
         49, 52, 57, 61, 63, 64, 73, 75, 78, 82, 83, 87, 88, 89, 96, 98,
         101, 106, 107, 111, 113, 118, 119], 200, 4270660292,
    ),
    ("duplicates", 2): (
        (0.009908159077748127, 0.011019311928153135, 1.7658002895111062),
        0.9997481242329055, 0.4131355024551402, [], 66, 3903136406,
    ),
    ("duplicates", 1): (
        (0.5082297014976361, -2.3692274178550425),
        0.996258691846716, 0.46879150662475444,
        list(range(16, 29)) + list(range(45, 60)), 200, 1341416594,
    ),
}


class TestRansacPinned:
    """The candidate loop is a pure speed-up: every field stays bit-equal."""

    @pytest.mark.parametrize("case,degree", sorted(_PINNED))
    def test_fields_bit_identical(self, case, degree):
        x, y = _pinned_inputs()[case]
        coefficients, r2, residual_std, outliers, iterations, next_draw = _PINNED[
            (case, degree)
        ]
        rng = np.random.default_rng(7)
        fit = RansacRegressor(degree=degree, residual_threshold=1.0, rng=rng).fit(x, y)
        model = fit.model
        got = model.coefficients if degree == 2 else (model.slope, model.intercept)
        assert tuple(got) == coefficients
        assert (model.r2, model.residual_std) == (r2, residual_std)
        assert np.flatnonzero(~fit.inlier_mask).tolist() == outliers
        assert (fit.n_inliers, fit.n_outliers) == (x.size - len(outliers), len(outliers))
        assert fit.iterations_run == iterations
        assert int(rng.integers(2**32)) == next_draw


def reference_fit(regressor: RansacRegressor, x, y) -> RansacModel:
    """The trial-at-a-time loop: one minimal sample, one fit, one count."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    minimal = regressor.degree + 1
    threshold = (
        regressor.residual_threshold
        if regressor.residual_threshold is not None
        else regressor._default_threshold(ys)
    )
    best_mask, best_count, iterations = None, 0, 0
    for iterations in range(1, regressor.max_iterations + 1):
        sample_idx = regressor._rng.choice(xs.size, size=minimal, replace=False)
        sample_x = xs[sample_idx]
        if np.unique(sample_x).size < minimal:
            continue
        sample_y = ys[sample_idx]
        if regressor.degree == 1:
            predicted = fit_linear(sample_x, sample_y).predict(xs)
        else:
            predicted = np.polyval(np.polyfit(sample_x, sample_y, regressor.degree), xs)
        mask = np.abs(ys - predicted) <= threshold
        count = int(mask.sum())
        if count > best_count:
            best_count, best_mask = count, mask
            if count == xs.size:
                break
    min_consensus = max(minimal, int(np.ceil(regressor.min_inlier_fraction * xs.size)))
    if best_mask is None or best_count < min_consensus:
        best_mask = np.ones(xs.size, dtype=bool)
    model = regressor._fit_subset(xs[best_mask], ys[best_mask])
    return RansacModel(
        model=model,
        inlier_mask=best_mask,
        n_inliers=int(best_mask.sum()),
        n_outliers=int((~best_mask).sum()),
        iterations_run=iterations,
    )


def _fields(fit: RansacModel):
    model = fit.model
    coefficients = model.coefficients if hasattr(model, "coefficients") else (
        model.slope, model.intercept)
    # repr: bit-equal, NaN included.
    return (
        [repr(c) for c in coefficients], repr(model.r2), repr(model.residual_std),
        fit.inlier_mask.tolist(), fit.n_inliers, fit.n_outliers, fit.iterations_run,
    )


def _outcome(fit, regressor, x, y):
    """A fit's fields and the generator's next draw, or the error it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            fields = _fields(fit(regressor, x, y))
        except np.linalg.LinAlgError as error:
            fields = repr(error)
    return fields, int(regressor._rng.integers(2**32))


@st.composite
def ransac_problems(draw):
    """Data a trial-at-a-time loop treats in every way it can.

    x: spread, repeated from a few values, or clustered near 1e4; y: a
    polynomial with integer coefficients, some points moved by exactly
    the threshold (onto the band's edge), some by far more, or a
    constant; the threshold drawn or defaulted.
    """
    degree = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=degree + 1, max_value=40))
    kind = draw(st.sampled_from(["spread", "repeated", "clustered", "near"]))
    if kind == "spread":
        x = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    elif kind == "repeated":
        pool = draw(st.lists(st.integers(0, 20), min_size=1, max_size=degree + 2))
        x = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    else:
        width = 1e-3 if kind == "clustered" else 1.0
        x = [1e4 + width * f for f in draw(
            st.lists(st.floats(0, 1), min_size=n, max_size=n))]
    x = np.asarray(x, dtype=float)
    coefficients = draw(st.lists(st.integers(-3, 3), min_size=degree + 1,
                                 max_size=degree + 1))
    y = np.polyval(np.asarray(coefficients, dtype=float), x)
    if draw(st.booleans()):
        y = np.full(n, float(draw(st.integers(-5, 5))))
    threshold = draw(st.sampled_from([None, 0.5, 1.0, 2.0]))
    step = 1.0 if threshold is None else threshold
    moves = draw(st.lists(
        st.sampled_from([0.0, 0.0, step, -step, 40.0 * step]), min_size=n, max_size=n))
    y = y + np.asarray(moves)
    max_iterations = draw(st.sampled_from([1, 7, 200]))
    seed = draw(st.integers(0, 2**16))
    return degree, x, y, threshold, max_iterations, seed


class TestBatchScreening:
    """The batch only rules trials out; the per-trial fitter decides."""

    @given(problem=ransac_problems())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_trial_at_a_time_loop(self, problem):
        degree, x, y, threshold, max_iterations, seed = problem

        def regressor():
            return RansacRegressor(
                degree=degree, residual_threshold=threshold,
                max_iterations=max_iterations, rng=np.random.default_rng(seed),
            )

        assert _outcome(RansacRegressor.fit, regressor(), x, y) == _outcome(
            reference_fit, regressor(), x, y)

    @given(problem=ransac_problems())
    @settings(max_examples=200, deadline=None)
    def test_every_count_lies_within_its_bound(self, problem):
        degree, x, y, threshold, _, seed = problem
        regressor = RansacRegressor(degree=degree, rng=np.random.default_rng(seed))
        threshold = threshold if threshold is not None else regressor._default_threshold(y)
        samples = np.array([
            regressor._rng.choice(x.size, size=degree + 1, replace=False)
            for _ in range(64)
        ])
        upper = regressor._count_bounds(x, y, samples, threshold)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for sample, bound in zip(samples, upper.tolist()):
                if np.unique(x[sample]).size < degree + 1:
                    assert bound == -1
                    continue
                count = int(regressor._trial_mask(x, y, sample, threshold).sum())
                assert count <= bound

    def test_all_inlier_stop_leaves_the_generator_after_that_trial(self):
        x = np.arange(30.0)
        y = 2.0 * x + 1.0
        y[::3] += 50.0 + x[::3]  # a sample holding one of these misses some points
        stops = set()
        for seed in range(20):
            fits = []
            for fit in (RansacRegressor.fit, reference_fit):
                regressor = RansacRegressor(degree=1, residual_threshold=80.0,
                                            rng=np.random.default_rng(seed))
                fits.append(_outcome(fit, regressor, x, y))
            assert fits[0] == fits[1]
            stops.add(fits[0][0][-1])
        assert 1 in stops and max(stops) > 1 and max(stops) < 200

    def test_planner_fits_run_few_trials_on_the_fitter(self, monkeypatch):
        """Seed 7's plan_pipeline plan: 21 fits, few trials re-fitted,
        the same plan as the trial-at-a-time loop makes."""
        from repro.cluster.builders import PAPER_DATACENTERS, build_paper_fleet
        from repro.cluster.service import service_catalog
        from repro.cluster.simulation import SimulationConfig, Simulator
        from repro.core.planner import CapacityPlanner
        from repro.core.slo import QoSRequirement

        fleet = build_paper_fleet(
            servers_per_deployment=6, datacenters=PAPER_DATACENTERS[:3], seed=7)
        simulator = Simulator(fleet, seed=7, config=SimulationConfig(
            record_request_classes=True, block_windows=64))
        simulator.run(720)
        catalog = service_catalog()
        qos = {pool: QoSRequirement(latency_p95_ms=catalog[pool].slo_latency_ms)
               for pool in fleet.pool_ids}
        calls = {"fit": 0, "trial": 0}
        fit, trial_mask = RansacRegressor.fit, RansacRegressor._trial_mask

        def counted_fit(self, x, y):
            calls["fit"] += 1
            return fit(self, x, y)

        def counted_trial(self, *args):
            calls["trial"] += 1
            return trial_mask(self, *args)

        monkeypatch.setattr(RansacRegressor, "fit", counted_fit)
        monkeypatch.setattr(RansacRegressor, "_trial_mask", counted_trial)
        plan = CapacityPlanner(simulator.store, qos).plan().render_savings_table()
        # The loop fitted 3 692 trials here.
        assert calls["fit"] == 21 and calls["trial"] <= 300
        monkeypatch.setattr(RansacRegressor, "fit", reference_fit)
        assert CapacityPlanner(simulator.store, qos).plan().render_savings_table() == plan
