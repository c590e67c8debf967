"""Cross-validation and classifier evaluation utilities.

Supports the §II-A2 evaluation protocol: 5-fold cross validation of the
pool-grouping decision tree, with the AUC of the Yes/No prediction
probability (paper: 0.9804) and the R^2 of predicted probabilities
against labels (paper: 0.746).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.stats.regression import r_squared


def k_fold_indices(
    n: int,
    k: int,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield (train_idx, test_idx) pairs for shuffled k-fold CV.

    The shuffle draws from ``rng`` when given; otherwise from a
    generator seeded with ``seed`` — an explicit parameter so the fold
    assignment is reproducible by construction, not by accident.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"cannot split {n} samples into {k} folds")
    rng = rng if rng is not None else np.random.default_rng(seed)
    order = rng.permutation(n)
    folds = np.array_split(order, k)
    for i in range(k):
        test_idx = folds[i]
        train_idx = np.concatenate([folds[j] for j in range(k) if j != i])
        yield train_idx, test_idx


def roc_curve(
    labels: Sequence[int],
    scores: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute (fpr, tpr, thresholds) for a binary classifier.

    Thresholds sweep the distinct score values from high to low.
    """
    y = np.asarray(labels, dtype=int)
    s = np.asarray(scores, dtype=float)
    if y.size != s.size:
        raise ValueError("labels and scores must have equal length")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC requires both positive and negative labels")
    order = np.argsort(-s, kind="stable")
    y_sorted = y[order]
    s_sorted = s[order]
    tps = np.cumsum(y_sorted == 1)
    fps = np.cumsum(y_sorted == 0)
    # Keep one operating point per distinct threshold.
    distinct = np.r_[np.where(np.diff(s_sorted))[0], y_sorted.size - 1]
    tpr = np.r_[0.0, tps[distinct] / n_pos]
    fpr = np.r_[0.0, fps[distinct] / n_neg]
    thresholds = np.r_[np.inf, s_sorted[distinct]]
    return fpr, tpr, thresholds


def auc_score(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Area under the ROC curve via trapezoidal integration."""
    fpr, tpr, _ = roc_curve(labels, scores)
    return float(np.trapezoid(tpr, fpr))


@dataclass(frozen=True)
class CrossValidationResult:
    """Aggregate metrics from a k-fold cross-validation run."""

    k: int
    auc: float
    r2: float
    accuracy: float
    fold_aucs: Tuple[float, ...]

    def describe(self) -> str:
        return (
            f"{self.k}-fold CV: AUC = {self.auc:.4f}, R^2 = {self.r2:.3f}, "
            f"accuracy = {self.accuracy:.3f}"
        )


def cross_validate_classifier(
    make_classifier,
    features: Sequence[Sequence[float]],
    labels: Sequence[int],
    k: int = 5,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
) -> CrossValidationResult:
    """Run k-fold CV for a probabilistic binary classifier.

    ``make_classifier`` is a zero-argument factory returning an object
    with ``fit(X, y)`` and ``predict_proba(X)``.  Out-of-fold
    probabilities are pooled before computing AUC / R^2 / accuracy,
    mirroring the single summary numbers the paper reports.  The fold
    shuffle uses ``rng`` when given, else a generator seeded with
    ``seed`` (see :func:`k_fold_indices`).
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    pooled_scores = np.zeros(y.size, dtype=float)
    fold_aucs: List[float] = []
    for train_idx, test_idx in k_fold_indices(y.size, k, rng=rng, seed=seed):
        clf = make_classifier()
        clf.fit(x[train_idx], y[train_idx])
        scores = clf.predict_proba(x[test_idx])
        pooled_scores[test_idx] = scores
        fold_labels = y[test_idx]
        if 0 < fold_labels.sum() < fold_labels.size:
            fold_aucs.append(auc_score(fold_labels, scores))
    overall_auc = auc_score(y, pooled_scores)
    overall_r2 = r_squared(y.astype(float), pooled_scores)
    accuracy = float(((pooled_scores >= 0.5).astype(int) == y).mean())
    return CrossValidationResult(
        k=k,
        auc=overall_auc,
        r2=overall_r2,
        accuracy=accuracy,
        fold_aucs=tuple(fold_aucs),
    )
