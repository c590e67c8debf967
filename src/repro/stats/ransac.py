"""RANSAC robust regression.

§II-B2 fits the second-order latency model (Eq. 1) with "robust
regressions (RANSAC)" because production experiments are contaminated
by natural operational changes — deployments, traffic shifts — that
inject outlier observations (visible in the 3rd RSM iteration of
Fig 7).  This module implements the classic Fischler–Bolles RANSAC
loop generically over the OLS fitters in :mod:`repro.stats.regression`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.stats.regression import (
    LinearModel,
    PolynomialModel,
    fit_linear,
    fit_polynomial,
)

FittedModel = Union[LinearModel, PolynomialModel]


@dataclass(frozen=True)
class RansacModel:
    """Result of a RANSAC fit: the refit consensus model plus metadata."""

    model: FittedModel
    inlier_mask: np.ndarray
    n_inliers: int
    n_outliers: int
    iterations_run: int

    @property
    def inlier_fraction(self) -> float:
        total = self.n_inliers + self.n_outliers
        return self.n_inliers / total if total else 0.0

    def predict(self, x) -> np.ndarray:
        return self.model.predict(x)

    def predict_scalar(self, x: float) -> float:
        return self.model.predict_scalar(x)


class RansacRegressor:
    """Random-sample-consensus wrapper around linear/polynomial OLS.

    Parameters
    ----------
    degree:
        Polynomial degree of the underlying model; ``1`` selects the
        plain linear fitter.
    residual_threshold:
        Absolute residual below which a point counts as an inlier.  When
        ``None`` it defaults to 1.5x the median absolute deviation of
        ``y`` (a standard scale-free choice).
    max_iterations:
        Number of random minimal samples to try.
    min_inlier_fraction:
        A consensus set smaller than this fraction of the data is
        rejected; if no acceptable consensus is found the regressor
        falls back to a plain OLS fit on all points (so callers always
        get a usable model, matching the paper's "start simple" ethos).
    rng:
        The random generator driving subset sampling.  Pass one to
        share a stream with a larger pipeline.
    seed:
        Seed for the generator built when ``rng`` is not given.  The
        fit is fully deterministic either way; this makes the default
        stream an explicit, documented choice rather than a hidden
        constant.
    """

    def __init__(
        self,
        degree: int = 2,
        residual_threshold: Optional[float] = None,
        max_iterations: int = 200,
        min_inlier_fraction: float = 0.5,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ) -> None:
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        if max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not 0.0 < min_inlier_fraction <= 1.0:
            raise ValueError("min_inlier_fraction must be in (0, 1]")
        self.degree = degree
        self.residual_threshold = residual_threshold
        self.max_iterations = max_iterations
        self.min_inlier_fraction = min_inlier_fraction
        self._rng = rng if rng is not None else np.random.default_rng(seed)

    def _fit_subset(self, xs: np.ndarray, ys: np.ndarray) -> FittedModel:
        if self.degree == 1:
            return fit_linear(xs, ys)
        return fit_polynomial(xs, ys, degree=self.degree)

    def _default_threshold(self, ys: np.ndarray) -> float:
        mad = float(np.median(np.abs(ys - np.median(ys))))
        if mad == 0.0:
            # Degenerate (constant) response: any tiny threshold works.
            return max(1e-9, 1e-6 * max(abs(float(ys[0])), 1.0))
        return 1.5 * mad

    def fit(self, x: Sequence[float], y: Sequence[float]) -> RansacModel:
        """Run the RANSAC loop and refit on the best consensus set."""
        xs = np.asarray(x, dtype=float)
        ys = np.asarray(y, dtype=float)
        if xs.size != ys.size:
            raise ValueError("x and y must have equal length")
        minimal = self.degree + 1
        if xs.size < minimal:
            raise ValueError(
                f"RANSAC with degree {self.degree} needs at least {minimal} points"
            )

        threshold = (
            self.residual_threshold
            if self.residual_threshold is not None
            else self._default_threshold(ys)
        )

        best_mask: Optional[np.ndarray] = None
        best_count = 0
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            sample_idx = self._rng.choice(xs.size, size=minimal, replace=False)
            sample_x = xs[sample_idx]
            # A minimal sample with duplicate x values yields a singular
            # design matrix for polynomials; skip those draws.
            if np.unique(sample_x).size < minimal:
                continue
            sample_y = ys[sample_idx]
            # Only the prediction is read, so a polynomial candidate is
            # fitted without the diagnostics of a full model.  The line
            # keeps its own fitter: lstsq and polyfit differ in the
            # last bits.
            if self.degree == 1:
                predicted = fit_linear(sample_x, sample_y).predict(xs)
            else:
                predicted = np.polyval(np.polyfit(sample_x, sample_y, self.degree), xs)
            residuals = np.abs(ys - predicted)
            mask = residuals <= threshold
            count = int(mask.sum())
            if count > best_count:
                best_count = count
                best_mask = mask
                if count == xs.size:
                    break  # every point is an inlier; cannot improve

        min_consensus = max(minimal, int(np.ceil(self.min_inlier_fraction * xs.size)))
        if best_mask is None or best_count < min_consensus:
            # No stable consensus: degrade gracefully to all-points OLS.
            model = self._fit_subset(xs, ys)
            full_mask = np.ones(xs.size, dtype=bool)
            return RansacModel(
                model=model,
                inlier_mask=full_mask,
                n_inliers=int(xs.size),
                n_outliers=0,
                iterations_run=iterations,
            )

        model = self._fit_subset(xs[best_mask], ys[best_mask])
        return RansacModel(
            model=model,
            inlier_mask=best_mask,
            n_inliers=int(best_mask.sum()),
            n_outliers=int((~best_mask).sum()),
            iterations_run=iterations,
        )
