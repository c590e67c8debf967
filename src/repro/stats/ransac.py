"""RANSAC robust regression.

§II-B2 fits the second-order latency model (Eq. 1) with "robust
regressions (RANSAC)" because production experiments are contaminated
by natural operational changes — deployments, traffic shifts — that
inject outlier observations (visible in the 3rd RSM iteration of
Fig 7).  This module implements the classic Fischler–Bolles RANSAC
loop generically over the OLS fitters in :mod:`repro.stats.regression`.

All ``max_iterations`` trials are screened at once.  Each trial's
minimal sample is drawn with its own ``rng.choice``, exactly as a
trial-at-a-time loop draws it.  One batched ``np.linalg.solve`` then
fits every sample (its inverse comes along for the condition number),
and one matrix product gives the trials x points residual matrix, in
pieces of at most ``_CHUNK_BYTES``, which bounds each trial's inlier
count from above.  The band around the threshold is a forward-error
bound, not a guessed tolerance: the per-trial fitter and the batch both
solve the same square system stably, so their predictions differ by at
most about ``cond * eps * |c| * |v(x)|`` in the basis the fitter solves
in (polyfit's unit-norm columns; the line's plain ``[x, 1]``), and
``_SAFETY`` widens that for the solvers' and evaluations' constants.
A system with ``cond * eps > _WORST`` gets no bound.  Scanning the
trials in order, a trial whose bound cannot beat the running best is
ruled out; every other trial is re-run on the per-trial fitter
(``_trial_mask``), which alone decides counts, masks, the strict-``>``
winner and the all-inlier early stop.  On that stop the generator is
rewound and redrawn up to the stopping trial, so it is left where the
trial-at-a-time loop would leave it.
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

#: Safety factor over the forward-error bound on the predictions.
_SAFETY = 1024.0
#: Systems with ``cond * eps`` above this get no bound.
_WORST = 1e-3
#: Most bytes in one trials x points matrix.
_CHUNK_BYTES = 8 << 20
_EPS = float(np.finfo(float).eps)


def _column_counts(flags: np.ndarray) -> np.ndarray:
    """The number of true entries in each column of ``flags``."""
    return np.add.reduce(flags.view(np.uint8), axis=0, dtype=np.int32)


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

    def _trial_mask(
        self, xs: np.ndarray, ys: np.ndarray, sample: np.ndarray, threshold: float
    ) -> np.ndarray:
        """The per-trial fitter: the inliers of the model through ``sample``."""
        sample_x, sample_y = xs[sample], ys[sample]
        # Only the prediction is read, so a polynomial candidate is
        # fitted without the diagnostics of a full model.  The line
        # keeps its own fitter: lstsq and polyfit differ in the last bits.
        if self.degree == 1:
            predicted = fit_linear(sample_x, sample_y).predict(xs)
        else:
            predicted = np.polyval(np.polyfit(sample_x, sample_y, self.degree), xs)
        return np.abs(ys - predicted) <= threshold

    def _count_bounds(
        self, xs: np.ndarray, ys: np.ndarray, samples: np.ndarray, threshold: float
    ) -> np.ndarray:
        """An upper bound on each sample's ``_trial_mask`` count.

        A sample with duplicate x values (a singular system, which the
        loop skips) gets ``-1``; one too badly conditioned to bound
        gets ``n``.
        """
        trials, minimal = samples.shape
        sample_x, sample_y = xs[samples], ys[samples]
        ordered = np.sort(sample_x, axis=1)  # as np.unique counts: NaNs are equal
        repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1) | (
            np.isnan(ordered).sum(axis=1) > 1
        )
        powers = np.arange(minimal - 1, -1, -1)
        with np.errstate(all="ignore"):
            vander = sample_x[:, :, None] ** powers
            # polyfit solves with unit-norm columns, fit_linear without.
            scale = (
                np.sqrt((vander * vander).sum(axis=1))
                if self.degree > 1
                else np.ones((trials, minimal))
            )
            system = vander / scale[:, None, :]
            solvable = ~repeated & np.isfinite(system).all(axis=(1, 2))
            system[~solvable] = np.eye(minimal)
            rhs = np.concatenate(
                [np.where(solvable[:, None], sample_y, 0.0)[..., None],
                 np.broadcast_to(np.eye(minimal), (trials, minimal, minimal))],
                axis=2,
            )
            try:
                solved = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:  # an exact zero pivot
                solvable[:] = False
                solved = rhs
            solved, inverse = solved[..., 0], solved[..., 1:]
            # Frobenius norms: this is at least the 2-norm condition number.
            cond = np.sqrt(
                (system * system).sum(axis=(1, 2)) * (inverse * inverse).sum(axis=(1, 2))
            )
            bounded = solvable & (cond * _EPS <= _WORST)
            # Both fitters solve the scaled system (V / D)(D c) = y stably,
            # so their predictions at x differ by about
            # cond * eps * |D c| * |v(x) / D|, largest at the largest |x|;
            # the residual's subtraction rounds by about eps * |y|.
            far = np.abs(xs).max() ** (2 * powers) / (scale * scale)
            band = _SAFETY * _EPS * (
                cond * np.sqrt((solved * solved).sum(axis=1) * far.sum(axis=1))
                + np.abs(ys).max()
            )
            outside = threshold + band
            # Residuals p(x) - y of every point (a row) under every trial
            # (a column), as one product with the rows x^d .. x, 1, y.
            points = np.column_stack([xs[:, None] ** powers, ys])
            weights = np.vstack([(solved / scale).T, -np.ones(trials)])
            upper = np.full(trials, xs.size, dtype=np.int64)
            step = max(1, _CHUNK_BYTES // (8 * trials))
            for start in range(0, xs.size, step):
                residuals = points[start:start + step] @ weights
                np.abs(residuals, out=residuals)
                upper -= _column_counts(residuals > outside)
        upper[~bounded] = xs.size
        upper[repeated] = -1
        return upper

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
        iterations = self.max_iterations
        state = self._rng.bit_generator.state
        samples = np.array([
            self._rng.choice(xs.size, size=minimal, replace=False)
            for _ in range(iterations)
        ])
        upper = self._count_bounds(xs, ys, samples, threshold)
        for trial, bound in enumerate(upper.tolist()):
            if bound <= best_count:
                continue  # duplicate x values, or cannot beat the best
            mask = self._trial_mask(xs, ys, samples[trial], threshold)
            count = int(mask.sum())
            if count > best_count:
                best_count = count
                best_mask = mask
                if count == xs.size:
                    # Every point is an inlier; cannot improve.  Leave the
                    # generator where a trial-at-a-time loop would, just
                    # after this trial's draw.
                    self._rng.bit_generator.state = state
                    for _ in range(trial + 1):
                        self._rng.choice(xs.size, size=minimal, replace=False)
                    iterations = trial + 1
                    break

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
