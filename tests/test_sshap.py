"""Grouped attributions: partitions, aggregation, smoothed curves, slope check."""

from dataclasses import replace

import numpy as np
import pytest

from epxai.attribution import AttributionTensor
from epxai.errors import EpxaiError
from epxai.markets import (
    FeatureId,
    MarketConfig,
    Partition,
    SuperVariable,
    default_partition,
    market_config,
    merge_groups,
    split_group,
)
from epxai.sshap import (
    SshapLines,
    aggregate,
    expected_slope,
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
        instance_ids=[f"2013-01-{8 + i:02d}" for i in range(n_instances)],
        columns=columns,
        values=values,
        baseline=rng.integers(-5, 6, size=24).astype(float),
    )
    return tensor, config


def make_sshap(values, baseline=None, labels=("G",)):
    """Grouped tensor with given (n, 24, n_groups) values over ``labels``."""
    return AttributionTensor(
        instance_ids=[str(i) for i in range(values.shape[0])],
        columns=labels,
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
        assert grouped.columns == ("A", "B", "Day of week")
        assert grouped.instance_ids == tensor.instance_ids

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
        with pytest.raises(EpxaiError, match="misses 1 tensor features, adds 0"):
            aggregate(tensor, missing_dow)
        extra = Partition(
            groups=partition.groups + (("Z", (FeatureId("Z", 0),)),)
        )
        with pytest.raises(EpxaiError, match="misses 0 tensor features, adds 1"):
            aggregate(tensor, extra)

    def test_gradient_tensor_rejected(self):
        tensor, config = integer_tensor()
        grad = AttributionTensor(
            instance_ids=tensor.instance_ids,
            columns=tensor.columns,
            values=tensor.values,
        )
        with pytest.raises(ValueError, match="has no baseline"):
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
            grouped.values[:, :, grouped.columns.index("B H0-H11")],
            tensor.values[:, :, 24:36].sum(axis=2),
        )

    def test_split_errors(self):
        _, config = integer_tensor()
        partition = default_partition(config)
        with pytest.raises(ValueError, match="no group labelled 'Z'"):
            split_group(partition, "Z", 5)
        with pytest.raises(ValueError, match="does not hold exactly hours 0-23"):
            split_group(partition, "Day of week", 5)
        once = split_group(partition, "A", 5)
        with pytest.raises(ValueError, match="does not hold exactly hours 0-23"):
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
        with pytest.raises(ValueError, match="no group labelled 'missing'"):
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
        assert lines.bandwidth == 5.0
        # each observation carries the baseline of its output hour
        expected = naive_kernel_curve(lines.grid, prices.ravel(), np.tile(sshap.baseline, 6), 5.0)
        np.testing.assert_allclose(lines.baseline, expected, rtol=1e-9)

    def test_default_bandwidth_is_silverman(self):
        rng = np.random.default_rng(3)
        sshap = make_sshap(rng.normal(0.0, 1.0, (50, 24, 1)))
        prices = rng.normal(40.0, 10.0, (50, 24))
        q1, q3 = np.percentile(prices, [25.0, 75.0])
        spread = min(prices.std(ddof=1), (q3 - q1) / 1.34)
        assert sshap_line(sshap, prices).bandwidth == 0.9 * spread * 1200 ** -0.2
        # an IQR of 0 leaves the sd
        prices[:, :20] = 40.0
        assert sshap_line(sshap, prices).bandwidth == 0.9 * prices.std(ddof=1) * 1200 ** -0.2

    def test_prices_that_never_change_give_one_value(self):
        values = np.random.default_rng(5).normal(0.0, 1.0, (3, 24, 2))
        sshap = make_sshap(values, baseline=np.arange(24.0), labels=("G", "H"))
        lines = sshap_line(sshap, np.full((3, 24), 40.0), grid_size=5)
        assert lines.bandwidth == 1.0
        np.testing.assert_array_equal(lines.grid, np.full(5, 40.0))
        for g in range(2):
            np.testing.assert_allclose(lines.values[g], values[:, :, g].mean(), rtol=1e-12)
        np.testing.assert_allclose(lines.baseline, 11.5, rtol=1e-12)

    def test_default_grid_spans_percentiles(self):
        rng = np.random.default_rng(2)
        sshap = make_sshap(rng.normal(0.0, 1.0, (50, 24, 1)))
        prices = rng.normal(40.0, 10.0, (50, 24))
        lines = sshap_line(sshap, prices, grid_size=200)
        lo, hi = np.percentile(prices.ravel(), [1.0, 99.0])
        assert len(lines.grid) == 200
        np.testing.assert_allclose([lines.grid[0], lines.grid[-1]], [lo, hi])

    def test_far_grid_points_take_nearest_value(self):
        # hours 0-11 price at 0 and hours 12-23 at 10; both grid points lie
        # about 40 bandwidths out, where every unshifted weight underflows
        values = np.empty((1, 24, 2))
        values[:, :12] = (2.0, -3.0)
        values[:, 12:] = (5.0, 7.0)
        sshap = make_sshap(values, baseline=np.arange(24.0), labels=("G", "H"))
        prices = np.repeat([[0.0, 10.0]], 12, axis=1)
        lines = sshap_line(sshap, prices, grid=np.array([-200.0, 200.0]), bandwidth=5.0)
        np.testing.assert_allclose(lines.values, [[2.0, 5.0], [-3.0, 7.0]], rtol=1e-12)
        np.testing.assert_allclose(lines.baseline, [5.5, 17.5], rtol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_bandwidth_raises_quietly(self):
        # the squared distances of the far grid point overflow to inf; no
        # numpy warning may escape before the error
        rng = np.random.default_rng(4)
        sshap = make_sshap(rng.normal(0.0, 1.0, (3, 24, 2)), labels=("G", "H"))
        prices = rng.normal(40.0, 10.0, (3, 24))
        grid = np.array([prices[0, 0], prices.max() + 1.0])
        with pytest.raises(EpxaiError, match="bandwidth 1e-300 is too small"):
            sshap_line(sshap, prices, grid=grid, bandwidth=1e-300)

    def test_bad_arguments(self):
        sshap = make_sshap(np.zeros((2, 24, 1)))
        prices = np.zeros((2, 24))
        with pytest.raises(ValueError):
            sshap_line(sshap, prices, bandwidth=0.0)
        with pytest.raises(ValueError):
            sshap_line(sshap, np.zeros((3, 24)))
        prices = np.arange(48.0).reshape(2, 24)
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            sshap_line(sshap, prices, bandwidth=float("nan"))
        for grid in ([10.0, np.nan, 30.0], [10.0, np.inf], [[10.0, 20.0], [30.0, 40.0]]):
            with pytest.raises(ValueError, match="grid must be a 1-D array of finite prices"):
                sshap_line(sshap, prices, grid=np.array(grid), bandwidth=5.0)

    def test_gradient_tensor_rejected(self):
        grad = replace(make_sshap(np.zeros((2, 24, 1))), baseline=None)
        with pytest.raises(ValueError, match="has no baseline"):
            sshap_line(grad, np.arange(48.0).reshape(2, 24))

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
            baseline=np.broadcast_to(baseline, grid.shape),
        )

    def test_exact_linear_sum(self):
        grid = np.linspace(10.0, 90.0, 50)
        result = slope_check(
            self.lines(grid, 1.5 * grid - 3.0, 0.5 * grid - 4.0, baseline=7.0)
        )
        # the fit is of the summed curves plus the baseline, 2 * grid
        np.testing.assert_allclose(result.slope, 2.0, rtol=1e-12)
        np.testing.assert_allclose(result.intercept, 0.0, atol=1e-12)
        expected_dev = np.max(np.abs(2.0 * grid - 7.0 - (grid - 7.0)))
        np.testing.assert_allclose(result.max_deviation, expected_dev, rtol=1e-12)
        assert result.n_points == 50

    def test_baseline_curve_is_added_back(self):
        # curves that sum to price minus a baseline that varies with price
        # lie on the identity once that baseline is added back
        grid = np.linspace(10.0, 90.0, 50)
        baseline = 30.0 + 5.0 * np.sin(grid / 7.0)
        result = slope_check(self.lines(grid, grid - baseline, baseline=baseline))
        np.testing.assert_allclose(result.slope, 1.0, rtol=1e-12)
        np.testing.assert_allclose(result.intercept, 0.0, atol=1e-12)
        assert result.max_deviation <= 1e-12

    def test_all_zero_curves(self):
        grid = np.linspace(20.0, 60.0, 30)
        result = slope_check(self.lines(grid, np.zeros(30), baseline=35.0))
        assert result.slope == 0.0
        np.testing.assert_allclose(result.max_deviation, 60.0 - 35.0, rtol=1e-12)

    def test_band_restriction_and_nan_handling(self):
        grid = np.linspace(0.0, 100.0, 101)
        values = grid - 10.0
        values[:5] = np.nan  # outside the band, so never read
        values[80:] = 999.0  # junk outside the band is ignored
        result = slope_check(self.lines(grid, values, baseline=10.0), band=(5.0, 79.0))
        np.testing.assert_allclose(result.slope, 1.0, rtol=1e-12)
        np.testing.assert_allclose(result.max_deviation, 0.0, atol=1e-12)
        assert result.n_points == 75

    def test_empty_cases(self):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(EpxaiError, match="fewer than 2 usable grid points"):
            slope_check(self.lines(grid, np.zeros(5), baseline=0.0), band=(2.0, 3.0))

    def test_constant_grid_has_no_slope(self):
        # prices that never change put every grid point at one price, so
        # there is no line to fit
        grid = np.full(200, 40.0)
        with pytest.raises(EpxaiError, match="fewer than 2 usable grid points"):
            slope_check(self.lines(grid, np.zeros(200), baseline=40.0))

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

    def test_hourly_baseline_lattice_recovers_identity(self):
        # the same lattice with a baseline that rises through the day: the
        # smoothed baseline swings with the grid price and the sum with it
        bandwidth = 5.0
        prices = np.arange(0.0, 300.0, bandwidth / 2.0).reshape(5, 24)
        baseline = 34.0 + 0.5 * np.arange(24)
        sshap = make_sshap((prices - baseline)[:, :, None], baseline=baseline)
        grid = np.arange(60.0, 240.0 + 1e-9, bandwidth / 2.0)
        lines = sshap_line(sshap, prices, bandwidth=bandwidth, grid=grid)
        assert np.ptp(lines.baseline) > 1.0
        result = slope_check(lines)
        assert abs(result.slope - 1.0) <= 1e-9
        assert result.max_deviation <= 1e-9


class TestExpectedSlope:
    def test_linear_predictions_give_their_slope(self):
        # predictions 0.7 y + 12 split over two groups and an hourly baseline
        rng = np.random.default_rng(3)
        prices = rng.normal(40.0, 9.0, (6, 24))
        baseline = 30.0 + 0.5 * np.arange(24)
        share = rng.uniform(0.0, 1.0, (6, 24))
        rest = 0.7 * prices + 12.0 - baseline
        values = np.stack([share * rest, (1.0 - share) * rest], axis=2)
        sshap = make_sshap(values, baseline=baseline, labels=("A", "B"))
        np.testing.assert_allclose(expected_slope(sshap, prices), 0.7, rtol=1e-12)

    def test_band_keeps_the_observations_inside(self):
        # a slope of 0.5 inside [30, 50] and of 2 outside it
        prices = np.linspace(0.0, 95.0, 96).reshape(4, 24)
        predictions = np.where((prices >= 30.0) & (prices <= 50.0), 0.5 * prices, 2.0 * prices)
        sshap = make_sshap(predictions[:, :, None])
        np.testing.assert_allclose(expected_slope(sshap, prices, band=(30.0, 50.0)), 0.5)
        assert expected_slope(sshap, prices) > 1.0

    def test_prices_that_do_not_vary_raise(self):
        sshap = make_sshap(np.ones((2, 24, 1)))
        with pytest.raises(EpxaiError, match="fewer than 2 distinct realised prices"):
            expected_slope(sshap, np.full((2, 24), 40.0))
        with pytest.raises(EpxaiError, match="fewer than 2 distinct realised prices"):
            expected_slope(sshap, np.arange(48.0).reshape(2, 24), band=(10.2, 10.8))

    @pytest.mark.parametrize("shape", [(3, 24), (48,), (24, 2)])
    def test_prices_of_the_wrong_shape_raise(self, shape):
        sshap = make_sshap(np.ones((2, 24, 1)))
        prices = np.arange(float(np.prod(shape))).reshape(shape)
        with pytest.raises(ValueError, match=r"actual_prices must be \(2, 24\)"):
            expected_slope(sshap, prices)

    def test_gradient_tensor_rejected(self):
        grad = replace(make_sshap(np.ones((2, 24, 1))), baseline=None)
        with pytest.raises(ValueError, match="has no baseline"):
            expected_slope(grad, np.arange(48.0).reshape(2, 24))
