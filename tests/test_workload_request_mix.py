"""Unit tests for repro.workload.request_mix."""

import numpy as np
import pytest

from repro.workload.request_mix import RequestClass, RequestMix


class TestRequestClass:
    def test_valid_construction(self):
        cls = RequestClass(name="q", cpu_cost=0.03)
        assert cls.latency_weight == 1.0

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RequestClass(name="", cpu_cost=0.1)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            RequestClass(name="x", cpu_cost=-0.1)


class TestRequestMix:
    def test_single_factory(self):
        mix = RequestMix.single("q", cpu_cost=0.05)
        assert mix.class_names == ("q",)
        assert mix.mean_cpu_cost() == pytest.approx(0.05)

    def test_proportions_normalised(self):
        mix = RequestMix(
            classes=(RequestClass("a", 0.1), RequestClass("b", 0.2)),
            proportions=(2.0, 2.0),
        )
        assert sum(mix.proportions) == pytest.approx(1.0)
        assert mix.proportions[0] == pytest.approx(0.5)

    def test_mean_cpu_cost_weighted(self):
        mix = RequestMix(
            classes=(RequestClass("a", 0.1), RequestClass("b", 0.3)),
            proportions=(0.75, 0.25),
        )
        assert mix.mean_cpu_cost() == pytest.approx(0.15)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            RequestMix(classes=(RequestClass("a", 0.1),), proportions=(0.5, 0.5))

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            RequestMix(classes=(), proportions=())

    def test_drift_bounds(self):
        with pytest.raises(ValueError):
            RequestMix(
                classes=(RequestClass("a", 0.1),), proportions=(1.0,), drift=1.0
            )


class TestShares:
    def test_no_drift_is_constant(self):
        mix = RequestMix(
            classes=(RequestClass("a", 0.1), RequestClass("b", 0.2)),
            proportions=(0.6, 0.4),
        )
        for w in (0, 100, 5000):
            np.testing.assert_allclose(mix.shares_at(w), [0.6, 0.4])

    def test_drift_changes_shares_over_time(self):
        mix = RequestMix(
            classes=(RequestClass("a", 0.1), RequestClass("b", 0.2)),
            proportions=(0.6, 0.4),
            drift=0.4,
        )
        s0 = mix.shares_at(0)
        s1 = mix.shares_at(400)
        assert not np.allclose(s0, s1)

    def test_shares_always_a_distribution(self):
        mix = RequestMix(
            classes=(RequestClass("a", 0.1), RequestClass("b", 0.2), RequestClass("c", 0.3)),
            proportions=(0.5, 0.3, 0.2),
            drift=0.6,
        )
        rng = np.random.default_rng(0)
        for w in range(0, 2000, 137):
            shares = mix.shares_at(w, rng)
            assert shares.sum() == pytest.approx(1.0)
            assert np.all(shares > 0)

    def test_split_volume_sums_to_total(self):
        mix = RequestMix(
            classes=(RequestClass("a", 0.1), RequestClass("b", 0.2)),
            proportions=(0.7, 0.3),
            drift=0.3,
        )
        split = 1000.0 * mix.shares_block(np.array([42]))[0]
        assert split.sum() == pytest.approx(1000.0)

    def test_cpu_for_known_volume(self):
        mix = RequestMix(
            classes=(RequestClass("a", 0.01), RequestClass("b", 0.05)),
            proportions=(0.5, 0.5),
        )
        cpu = mix.cpu_for({"a": 100.0, "b": 10.0})
        assert cpu == pytest.approx(1.0 + 0.5)

    def test_cpu_for_unknown_class_rejected(self):
        mix = RequestMix.single("a")
        with pytest.raises(KeyError):
            mix.cpu_for({"zzz": 1.0})
