"""Coverage for small remaining surfaces: diff helpers, describe paths."""

from repro.core.headroom import DeploymentPlan
from repro.core.rsm import RsmIteration
from repro.stats.crossval import CrossValidationResult
from repro.core.metric_validation import AnomalyFinding


class TestDescribeMethods:
    def test_anomaly_finding_describe(self):
        finding = AnomalyFinding(
            period_windows=60,
            affected_window_fraction=0.05,
            mean_spike_magnitude=4.2,
        )
        text = finding.describe()
        assert "60" in text and "4.2" in text

    def test_rsm_iteration_describe_variants(self):
        with_forecast = RsmIteration(
            iteration=1, n_servers=30, measured_latency_p95_ms=12.0,
            forecast_next_latency_ms=13.5, next_n_servers=27, qos_violated=False,
        )
        violated = RsmIteration(
            iteration=2, n_servers=27, measured_latency_p95_ms=15.0,
            forecast_next_latency_ms=None, next_n_servers=None, qos_violated=True,
        )
        assert "forecast" in with_forecast.describe()
        assert "QoS limit hit" in violated.describe()

    def test_cv_result_describe(self):
        result = CrossValidationResult(
            k=5, auc=0.98, r2=0.74, accuracy=0.92, fold_aucs=(0.97, 0.99)
        )
        assert "5-fold" in result.describe()


class TestDeploymentPlan:
    def test_savings_non_negative(self):
        plan = DeploymentPlan(
            pool_id="B", datacenter_id="DC1", current_servers=10,
            required_normal=4, required_with_dr=6,
            peak_demand_rps=1000.0, max_rps_per_server=200.0,
        )
        assert plan.planned_servers == 6
        assert plan.savings_servers == 4

    def test_growth_clamped_to_zero_savings(self):
        plan = DeploymentPlan(
            pool_id="B", datacenter_id="DC1", current_servers=5,
            required_normal=8, required_with_dr=9,
            peak_demand_rps=1000.0, max_rps_per_server=100.0,
        )
        assert plan.savings_servers == 0
