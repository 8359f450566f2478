"""Analytics layer: heatmaps, rankings, performance and complexity metrics."""

import numpy as np
import pytest

from epxai.analytics import (
    beeswarm_table,
    complexity_metrics,
    heatmap,
    hourly_importance,
    performance_metrics,
)
from epxai.attribution import AttributionTensor
from epxai.errors import DataError, EpxaiError
from epxai.markets import FeatureId


def hourly_tensor(n_instances=3, groups=("A", "B"), with_dow=True, seed=0):
    columns = tuple(FeatureId(g, h) for g in groups for h in range(24))
    if with_dow:
        columns += (FeatureId("Day of week", None),)
    rng = np.random.default_rng(seed)
    values = rng.integers(-6, 7, size=(n_instances, 24, len(columns))).astype(float)
    return AttributionTensor(
        instance_ids=[f"2013-02-{10 + i:02d}" for i in range(n_instances)],
        columns=columns,
        values=values,
        baseline=np.zeros(24),
    )


class TestHeatmap:
    def test_mean_abs_and_mean(self):
        tensor = hourly_tensor(n_instances=2)
        grid = heatmap(tensor, "mean_abs")
        assert grid.blocks == ("A", "B")
        assert grid.values.shape == (2, 24, 24)
        expected = 0.5 * (np.abs(tensor.values[0]) + np.abs(tensor.values[1]))
        np.testing.assert_array_equal(grid.values[grid.blocks.index("A")], expected[:, 0:24])
        signed = heatmap(tensor, "mean")
        np.testing.assert_array_equal(
            signed.values[signed.blocks.index("B")], tensor.values.mean(axis=0)[:, 24:48]
        )

    def test_day_of_week_left_out(self):
        tensor = hourly_tensor()
        assert "Day of week" not in heatmap(tensor).blocks

    def test_empty_tensor(self):
        tensor = hourly_tensor(n_instances=3)
        empty = AttributionTensor(
            instance_ids=[],
            columns=tensor.columns,
            values=np.empty((0, 24, len(tensor.columns))),
            baseline=np.zeros(24),
        )
        with pytest.raises(EpxaiError, match="over zero instances"):
            heatmap(empty, "mean_abs")

    def test_grouped_values_have_no_hourly_blocks(self):
        grouped = AttributionTensor(
            instance_ids=["a"], columns=("A", "B"), values=np.zeros((1, 24, 2)),
            baseline=np.zeros(24),
        )
        with pytest.raises(EpxaiError, match="no full hourly groups"):
            heatmap(grouped)

    def test_bad_aggregation(self):
        with pytest.raises(ValueError):
            heatmap(hourly_tensor(), "max")


class TestHourlyImportance:
    def test_exact_integer_means(self):
        values = np.stack(
            [np.full((24, 2), 3.0), np.full((24, 2), -5.0)]
        )  # (2, 24, 2)
        sshap = AttributionTensor(
            instance_ids=["a", "b"],
            columns=("A", "B"),
            values=values,
            baseline=np.zeros(24),
        )
        table = hourly_importance(sshap)
        assert table.groups == ("A", "B")
        np.testing.assert_array_equal(table.values, np.full((24, 2), 4.0))

    def test_empty(self):
        sshap = AttributionTensor(
            instance_ids=[],
            columns=("A",),
            values=np.empty((0, 24, 1)),
            baseline=np.zeros(24),
        )
        with pytest.raises(EpxaiError, match="no instances to average"):
            hourly_importance(sshap)


class TestBeeswarm:
    def test_ranking_and_points(self):
        tensor = hourly_tensor(n_instances=4, seed=2)
        n_feat = len(tensor.columns)
        tensor.values[:, :, 30] = 50.0  # clear winner
        tensor.values[:, :, 5] = -40.0  # runner-up by magnitude
        feature_values = np.arange(4 * n_feat, dtype=float).reshape(4, n_feat)
        table = beeswarm_table(tensor, feature_values, top_k=3)
        assert len(table.rows) == 3
        assert table.rows[0].feature == tensor.columns[30]
        assert table.rows[0].score == 50.0
        assert table.rows[1].feature == tensor.columns[5]
        np.testing.assert_array_equal(
            table.rows[0].feature_values, feature_values[:, 30]
        )
        np.testing.assert_array_equal(
            table.rows[1].shap_values, tensor.values[:, :, 5]
        )

    def test_ties_break_by_feature_position(self):
        tensor = hourly_tensor(n_instances=2, seed=3)
        tensor.values[:, :, :] = 1.0  # all scores equal
        table = beeswarm_table(
            tensor, np.zeros((2, len(tensor.columns))), top_k=4
        )
        assert [r.feature for r in table.rows] == list(tensor.columns[:4])

    def test_shape_mismatch(self):
        tensor = hourly_tensor(n_instances=2)
        with pytest.raises(EpxaiError, match="does not match tensor"):
            beeswarm_table(tensor, np.zeros((3, len(tensor.columns))))


class TestPerformanceMetrics:
    def test_frozen_small_case(self):
        predicted = np.array([1.0, 3.0])
        actual = np.array([2.0, 2.0])
        naive = np.array([0.0, 4.0])
        report = performance_metrics(predicted, actual, naive)
        assert report.mae == 1.0
        assert report.rmse == 1.0
        np.testing.assert_allclose(report.smape, 8.0 / 15.0, rtol=1e-15)
        assert report.rmae == 0.5
        assert report.n_observations == 2

    def test_perfect_prediction(self):
        actual = np.array([[10.0, 20.0], [30.0, 40.0]])
        naive = actual + 2.0
        report = performance_metrics(actual.copy(), actual, naive)
        assert report.mae == 0.0 and report.rmse == 0.0 and report.smape == 0.0
        assert report.rmae == 0.0

    def test_both_zero_smape_term(self):
        report = performance_metrics(
            np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])
        )
        assert report.smape == 0.0

    def test_errors(self):
        with pytest.raises(EpxaiError, match="shapes differ"):
            performance_metrics(np.zeros(3), np.zeros(4), np.zeros(4))
        with pytest.raises(EpxaiError, match="naive forecast is perfect"):
            performance_metrics(np.ones(3), np.zeros(3), np.zeros(3))
        with pytest.raises(DataError, match="predicted contains non-finite"):
            performance_metrics(
                np.array([np.nan]), np.array([1.0]), np.array([2.0])
            )
        with pytest.raises(EpxaiError, match="no observations"):
            performance_metrics(np.empty(0), np.empty(0), np.empty(0))


class TestComplexityMetrics:
    def grad_tensor(self, values):
        n, _, f = values.shape
        columns = tuple(FeatureId("A", h) for h in range(24))[:f]
        return AttributionTensor(
            instance_ids=[str(i) for i in range(n)],
            columns=columns,
            values=values,
        )

    def shap_grid(self, block):
        from epxai.analytics import HeatmapGrid

        return HeatmapGrid(
            aggregation="mean_abs",
            blocks=("A",),
            values=block[None, :, :],
        )

    def test_identical_jacobians_give_exact_zero(self):
        row = np.random.default_rng(1).normal(0.0, 1.0, (24, 24))
        values = np.stack([row.copy() for _ in range(5)])
        report = complexity_metrics(
            self.grad_tensor(values), self.shap_grid(np.zeros((24, 24)))
        )
        assert report.non_linearity == 0.0

    def test_two_point_spread_is_one(self):
        base = np.zeros((24, 24))
        values = np.stack([base, base + 2.0])  # population std 1 everywhere
        report = complexity_metrics(
            self.grad_tensor(values), self.shap_grid(np.zeros((24, 24)))
        )
        np.testing.assert_allclose(report.non_linearity, 1.0, rtol=1e-15)

    def test_non_homogeneity_frozen_case(self):
        # Block v[j, i] = i: horizontal neighbour diffs all 1, vertical all 0,
        # and both kinds have the same count, so the mean is exactly 0.5.
        block = np.tile(np.arange(24.0), (24, 1))
        values = np.zeros((2, 24, 24))
        report = complexity_metrics(self.grad_tensor(values), self.shap_grid(block))
        assert report.non_homogeneity == 0.5
        # Cells above 0.5 are those with i >= 1: 23 per row over 24 rows.
        assert report.important_vars_per_hour == 23.0

    def test_threshold_override(self):
        block = np.tile(np.arange(24.0), (24, 1))
        values = np.zeros((2, 24, 24))
        report = complexity_metrics(
            self.grad_tensor(values), self.shap_grid(block), threshold=22.5
        )
        assert report.important_vars_per_hour == 1.0

    def test_needs_two_instances(self):
        values = np.zeros((1, 24, 24))
        with pytest.raises(DataError, match="at least 2 instances"):
            complexity_metrics(
                self.grad_tensor(values), self.shap_grid(np.zeros((24, 24)))
            )

    def test_requires_gradient_kind(self):
        tensor = hourly_tensor(n_instances=3)
        with pytest.raises(ValueError, match="need a gradient tensor"):
            complexity_metrics(tensor, self.shap_grid(np.zeros((24, 24))))

    def test_refuses_a_tensor_with_a_baseline(self):
        # a baseline is what marks Shapley values; the same numbers without
        # one are gradients and pass
        grid = self.shap_grid(np.zeros((24, 24)))
        tensor = self.grad_tensor(np.zeros((2, 24, 24)))
        assert complexity_metrics(tensor, grid).non_linearity == 0.0
        tensor.baseline = np.zeros(24)
        with pytest.raises(ValueError, match="got Shapley values with a baseline"):
            complexity_metrics(tensor, grid)
