"""Grouped attributions: partitions, aggregation, smoothed curves, slope check."""

import numpy as np
import pytest

from epxai.attribution import AttributionTensor
from epxai.markets import (
    FeatureId,
    MarketConfig,
    NotHourlyGroup,
    Partition,
    SuperVariable,
    UnknownGroup,
    default_partition,
    market_config,
    merge_groups,
    split_group,
)
from epxai.sshap import (
    EmptyData,
    PartitionMismatch,
    SshapLines,
    SshapTensor,
    aggregate,
    slope_check,
    sshap_line,
)


def two_group_config():
    return MarketConfig(
        market_id="XX",
        currency="EUR",
        super_variables=(
            SuperVariable("A", "price", 1),
            SuperVariable("B", "exog1", 0),
        ),
        include_day_of_week=True,
    )


def integer_tensor(n_instances=4, seed=0):
    config = two_group_config()
    columns = tuple(
        FeatureId(label, h) for label in ("A", "B") for h in range(24)
    ) + (FeatureId("Day of week", None),)
    rng = np.random.default_rng(seed)
    values = rng.integers(-8, 9, size=(n_instances, 24, len(columns))).astype(float)
    tensor = AttributionTensor(
        kind="shap",
        instance_ids=[f"2013-01-{8 + i:02d}" for i in range(n_instances)],
        feature_ids=columns,
        values=values,
        baseline=rng.integers(-5, 6, size=24).astype(float),
    )
    return tensor, config


def make_sshap(values, baseline=None, labels=("G",)):
    """SshapTensor with given (n, 24, n_groups) values and singleton groups."""
    n = values.shape[0]
    groups = tuple(
        (label, tuple(FeatureId(label, h) for h in range(24))) for label in labels
    )
    return SshapTensor(
        instance_ids=[str(i) for i in range(n)],
        partition=Partition(groups=groups),
        values=values,
        baseline=np.zeros(24) if baseline is None else baseline,
    )


def naive_kernel_curve(grid, x, v, bandwidth):
    out = np.empty(len(grid))
    for k, g in enumerate(grid):
        w = np.exp(-0.5 * ((g - x) / bandwidth) ** 2)
        out[k] = (w * v).sum() / w.sum()
    return out


class TestAggregate:
    def test_group_sums_are_exact(self):
        tensor, config = integer_tensor()
        grouped = aggregate(tensor, default_partition(config))
        assert grouped.values.shape == (4, 24, 3)
        np.testing.assert_array_equal(
            grouped.values[:, :, 0], tensor.values[:, :, 0:24].sum(axis=2)
        )
        np.testing.assert_array_equal(
            grouped.values[:, :, 1], tensor.values[:, :, 24:48].sum(axis=2)
        )
        np.testing.assert_array_equal(grouped.values[:, :, 2], tensor.values[:, :, 48])
        np.testing.assert_array_equal(grouped.baseline, tensor.baseline)
        assert grouped.partition.labels == ("A", "B", "Day of week")

    def test_rebracketing_preserves_totals(self):
        # Integer values make both sum orders exact, so equality is bitwise.
        tensor, config = integer_tensor(seed=3)
        grouped = aggregate(tensor, default_partition(config))
        np.testing.assert_array_equal(
            grouped.values.sum(axis=2), tensor.values.sum(axis=2)
        )

    def test_partition_must_cover_exactly(self):
        tensor, config = integer_tensor()
        partition = default_partition(config)
        missing_dow = Partition(groups=partition.groups[:2])
        with pytest.raises(PartitionMismatch):
            aggregate(tensor, missing_dow)
        extra = Partition(
            groups=partition.groups + (("Z", (FeatureId("Z", 0),)),)
        )
        with pytest.raises(PartitionMismatch):
            aggregate(tensor, extra)

    def test_gradient_tensor_rejected(self):
        tensor, config = integer_tensor()
        grad = AttributionTensor(
            kind="gradient",
            instance_ids=tensor.instance_ids,
            feature_ids=tensor.feature_ids,
            values=tensor.values,
        )
        with pytest.raises(ValueError):
            aggregate(grad, default_partition(config))


class TestPartitionOps:
    def test_default_partition_counts(self):
        expected = {"DE": 10, "FR": 5, "BE": 6, "NP": 6, "PJM": 5}
        for market_id, n in expected.items():
            partition = default_partition(market_config(market_id))
            assert partition.n_groups == n
            assert len(partition.all_features()) == market_config(
                market_id
            ).n_features

    def test_split_group_labels_and_membership(self):
        _, config = integer_tensor()
        partition = split_group(default_partition(config), "A", 5)
        assert partition.labels == ("A H0-H4", "A H5-H23", "B", "Day of week")
        assert partition.members("A H0-H4") == tuple(
            FeatureId("A", h) for h in range(5)
        )
        assert partition.members("A H5-H23") == tuple(
            FeatureId("A", h) for h in range(5, 24)
        )

    def test_split_then_aggregate(self):
        tensor, config = integer_tensor(seed=5)
        partition = split_group(default_partition(config), "B", 12)
        grouped = aggregate(tensor, partition)
        np.testing.assert_array_equal(
            grouped.values[:, :, grouped.partition.labels.index("B H0-H11")],
            tensor.values[:, :, 24:36].sum(axis=2),
        )

    def test_split_errors(self):
        _, config = integer_tensor()
        partition = default_partition(config)
        with pytest.raises(UnknownGroup):
            split_group(partition, "Z", 5)
        with pytest.raises(NotHourlyGroup):
            split_group(partition, "Day of week", 5)
        once = split_group(partition, "A", 5)
        with pytest.raises(NotHourlyGroup):
            split_group(once, "A H0-H4", 2)
        with pytest.raises(ValueError):
            split_group(partition, "A", 0)
        with pytest.raises(ValueError):
            split_group(partition, "A", 24)

    def test_merge_groups(self):
        _, config = integer_tensor()
        partition = merge_groups(default_partition(config), "A+B", ["A", "B"])
        assert partition.labels == ("A+B", "Day of week")
        assert len(partition.members("A+B")) == 48
        with pytest.raises(UnknownGroup):
            merge_groups(partition, "X", ["A+B", "missing"])
        with pytest.raises(ValueError):
            merge_groups(partition, "X", ["A+B"])

    def test_partition_validation(self):
        fid = FeatureId("A", 0)
        with pytest.raises(ValueError):
            Partition(groups=(("A", (fid,)), ("B", (fid,))))
        with pytest.raises(ValueError):
            Partition(groups=(("A", (fid,)), ("A", (FeatureId("A", 1),))))
        with pytest.raises(ValueError):
            Partition(groups=(("A", ()),))


class TestSshapLine:
    def test_matches_direct_kernel_regression(self):
        rng = np.random.default_rng(7)
        values = rng.normal(0.0, 2.0, (6, 24, 3))
        sshap = make_sshap(values, baseline=rng.normal(30.0, 5.0, 24), labels=("G", "H", "K"))
        prices = rng.normal(40.0, 10.0, (6, 24))
        lines = sshap_line(sshap, prices, bandwidth=5.0)
        assert lines.labels == ("G", "H", "K")
        assert lines.values.shape == (3, 200)
        for g in range(3):
            expected = naive_kernel_curve(
                lines.grid, prices.ravel(), values[:, :, g].ravel(), 5.0
            )
            np.testing.assert_allclose(lines.values[g], expected, rtol=1e-9)
        assert lines.n_observations == 6 * 24
        assert lines.bandwidth == 5.0
        assert lines.baseline == float(sshap.baseline.mean())

    def test_default_grid_spans_percentiles(self):
        rng = np.random.default_rng(2)
        sshap = make_sshap(rng.normal(0.0, 1.0, (50, 24, 1)))
        prices = rng.normal(40.0, 10.0, (50, 24))
        lines = sshap_line(sshap, prices, grid_size=200)
        lo, hi = np.percentile(prices.ravel(), [1.0, 99.0])
        assert len(lines.grid) == 200
        np.testing.assert_allclose([lines.grid[0], lines.grid[-1]], [lo, hi])

    def test_far_grid_points_marked_absent(self):
        values = np.full((1, 24, 2), 2.0)
        values[:, :, 1] = -3.0
        sshap = make_sshap(values, labels=("G", "H"))
        prices = np.zeros((1, 24))
        grid = np.array([0.0, 5.0 * 40.0])  # 40 bandwidths away underflows
        lines = sshap_line(sshap, prices, grid=grid, bandwidth=5.0)
        np.testing.assert_allclose(lines.values[:, 0], [2.0, -3.0], rtol=1e-12)
        assert np.isnan(lines.values[:, 1]).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_bandwidth_marks_points_absent_quietly(self):
        # the squared distances overflow to inf and inf - inf is NaN; those
        # points are absent, and no numpy warning may escape
        rng = np.random.default_rng(4)
        sshap = make_sshap(rng.normal(0.0, 1.0, (3, 24, 2)), labels=("G", "H"))
        prices = rng.normal(40.0, 10.0, (3, 24))
        grid = np.array([prices[0, 0], prices.max() + 1.0])
        lines = sshap_line(sshap, prices, grid=grid, bandwidth=1e-300)
        assert np.isnan(lines.values[:, 1]).all()
        with pytest.raises(EmptyData):
            slope_check(lines)

    def test_bad_arguments(self):
        sshap = make_sshap(np.zeros((2, 24, 1)))
        prices = np.zeros((2, 24))
        with pytest.raises(ValueError):
            sshap_line(sshap, prices, bandwidth=0.0)
        with pytest.raises(ValueError):
            sshap_line(sshap, np.zeros((3, 24)))

    def test_lines_are_linear_in_group_values(self):
        # a merged group's line is the sum of its members' lines, and the
        # two halves of a split group sum to the whole group's line
        tensor, config = integer_tensor(n_instances=6, seed=11)
        tensor.values += np.random.default_rng(12).normal(0.0, 0.3, tensor.values.shape)
        prices = np.random.default_rng(13).normal(40.0, 10.0, (6, 24))
        default = default_partition(config)
        whole = sshap_line(aggregate(tensor, default), prices)
        halves = sshap_line(aggregate(tensor, split_group(default, "A", 9)), prices)
        merged = sshap_line(aggregate(tensor, merge_groups(default, "A+B", ["A", "B"])), prices)
        for lines in (halves, merged):
            np.testing.assert_array_equal(lines.grid, whole.grid)
        tolerance = 1e-12 * np.abs(whole.values).max()
        np.testing.assert_allclose(
            halves.values[0] + halves.values[1], whole.values[0], rtol=0, atol=tolerance
        )
        np.testing.assert_allclose(
            merged.values[0], whole.values[0] + whole.values[1], rtol=0, atol=tolerance
        )
        assert halves.labels == ("A H0-H8", "A H9-H23", "B", "Day of week")


class TestSlopeCheck:
    def lines(self, grid, *values, baseline):
        return SshapLines(
            labels=tuple(f"G{k}" for k in range(len(values))),
            grid=grid,
            values=np.array(values),
            bandwidth=5.0,
            n_observations=100,
            baseline=baseline,
        )

    def test_exact_linear_sum(self):
        grid = np.linspace(10.0, 90.0, 50)
        result = slope_check(
            self.lines(grid, 1.5 * grid - 3.0, 0.5 * grid - 4.0, baseline=7.0)
        )
        np.testing.assert_allclose(result.slope, 2.0, rtol=1e-12)
        np.testing.assert_allclose(result.intercept, -7.0, rtol=1e-12)
        expected_dev = np.max(np.abs(2.0 * grid - 7.0 - (grid - 7.0)))
        np.testing.assert_allclose(result.max_deviation, expected_dev, rtol=1e-12)
        assert result.n_points == 50

    def test_all_zero_curves(self):
        grid = np.linspace(20.0, 60.0, 30)
        result = slope_check(self.lines(grid, np.zeros(30), baseline=35.0))
        assert result.slope == 0.0
        np.testing.assert_allclose(result.max_deviation, 60.0 - 35.0, rtol=1e-12)

    def test_band_restriction_and_nan_handling(self):
        grid = np.linspace(0.0, 100.0, 101)
        values = grid - 10.0
        values[:5] = np.nan  # absent points are dropped
        values[80:] = 999.0  # junk outside the band is ignored
        result = slope_check(self.lines(grid, values, baseline=10.0), band=(5.0, 79.0))
        np.testing.assert_allclose(result.slope, 1.0, rtol=1e-12)
        np.testing.assert_allclose(result.max_deviation, 0.0, atol=1e-12)
        assert result.n_points == 75

    def test_empty_cases(self):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(EmptyData):
            slope_check(self.lines(grid, np.zeros(5), baseline=0.0), band=(2.0, 3.0))

    def test_self_consistent_lattice_recovers_identity(self):
        # Observations y = x - c on a uniform price lattice; inside a band
        # far from the lattice edges the kernel weights are symmetric, so
        # the smoothed curve reproduces the identity up to ~1e-30.
        bandwidth = 5.0
        step = bandwidth / 2.0
        lattice = np.arange(0.0, 300.0, step)  # 120 points = 5 days x 24 h
        c = 37.0
        prices = lattice.reshape(5, 24)
        values = (lattice - c).reshape(5, 24, 1)
        sshap = make_sshap(values, baseline=np.full(24, c))
        grid = np.arange(60.0, 240.0 + 1e-9, step)
        result = slope_check(sshap_line(sshap, prices, bandwidth=bandwidth, grid=grid))
        assert abs(result.slope - 1.0) <= 1e-9
        assert result.max_deviation <= 1e-9
