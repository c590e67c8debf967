"""Unit tests for repro.stats.crossval."""

import numpy as np
import pytest

from repro.stats.crossval import (
    auc_score,
    cross_validate_classifier,
    k_fold_indices,
    roc_curve,
)
from repro.stats.decision_tree import DecisionTreeClassifier


class TestKFold:
    def test_partitions_cover_everything(self, rng):
        seen = np.zeros(50, dtype=int)
        for train, test in k_fold_indices(50, 5, rng=rng):
            seen[test] += 1
            assert len(set(train) & set(test)) == 0
            assert len(train) + len(test) == 50
        assert np.all(seen == 1)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            list(k_fold_indices(3, 5))

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            list(k_fold_indices(10, 1))


class TestRoc:
    def test_perfect_classifier_auc_one(self):
        labels = [0, 0, 1, 1]
        scores = [0.1, 0.2, 0.8, 0.9]
        assert auc_score(labels, scores) == pytest.approx(1.0)

    def test_random_classifier_auc_half(self, rng):
        labels = rng.integers(0, 2, 2000)
        scores = rng.uniform(0, 1, 2000)
        assert auc_score(labels, scores) == pytest.approx(0.5, abs=0.05)

    def test_inverted_classifier_auc_zero(self):
        labels = [0, 0, 1, 1]
        scores = [0.9, 0.8, 0.2, 0.1]
        assert auc_score(labels, scores) == pytest.approx(0.0)

    def test_roc_endpoints(self):
        fpr, tpr, _ = roc_curve([0, 1, 0, 1], [0.3, 0.6, 0.4, 0.9])
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_curve([1, 1], [0.5, 0.6])


class TestCrossValidate:
    def test_tree_on_separable_data(self, rng):
        x = rng.normal(size=(300, 2))
        x[150:, 0] += 5.0
        y = np.r_[np.zeros(150, dtype=int), np.ones(150, dtype=int)]
        result = cross_validate_classifier(
            lambda: DecisionTreeClassifier(min_leaf_size=10),
            x, y, k=5, rng=rng,
        )
        assert result.auc > 0.95
        assert result.accuracy > 0.9
        assert result.k == 5
        assert "AUC" in result.describe()
