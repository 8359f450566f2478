"""Data layer: CSV parsing and repair, feature layout, scalers."""

import numpy as np
import pytest

from epxai.data import (
    HourlySeries,
    build_feature_matrix,
    fit_scaler,
    inverse_transform,
    parse_market_csv,
    transform,
)
from epxai.errors import DataError
from epxai.marketcsv import hours_csv, parse_hours
from epxai.markets import (
    FeatureId,
    MarketConfig,
    SuperVariable,
    benchmark_spec,
    market_config,
)


def hourly_csv(start="2013-01-01 00:00", n_hours=48, encode=None):
    """Synthesize CSV text where each cell encodes (day, hour, source)."""
    lines = ["timestamp,price,exog1,exog2"]
    t0 = np.datetime64(start.replace(" ", "T"), "h")
    for i in range(n_hours):
        ts = t0 + i
        d, h = divmod(i, 24)
        if encode is None:
            vals = (100.0 + i, 200.0 + i, 300.0 + i)
        else:
            vals = encode(d, h)
        stamp = str(ts.astype("datetime64[s]")).replace("T", " ")
        lines.append(f"{stamp},{vals[0]},{vals[1]},{vals[2]}")
    return "\n".join(lines) + "\n"


class TestParseMarketCsv:
    def test_basic_roundtrip(self):
        series = parse_market_csv(hourly_csv(), "NP")
        assert series.n_hours == 48
        assert series.market_id == "NP"
        np.testing.assert_allclose(series.price, 100.0 + np.arange(48))
        np.testing.assert_allclose(series.exog2, 300.0 + np.arange(48))
        assert series.start == np.datetime64("2013-01-01T00", "h").astype(np.int64)

    def test_rows_sorted_before_use(self):
        text = hourly_csv(n_hours=24)
        lines = text.strip().split("\n")
        shuffled = [lines[0]] + lines[1:][::-1]
        series = parse_market_csv("\n".join(shuffled), "NP")
        np.testing.assert_allclose(series.price, 100.0 + np.arange(24))

    def test_duplicate_hour_averaged(self):
        # Fall transition: one local hour appears twice; the repair averages.
        text = hourly_csv(n_hours=24)
        text += "2013-01-01 10:00:00,0.0,0.0,0.0\n"
        series = parse_market_csv(text, "DE")
        assert series.n_hours == 24
        np.testing.assert_allclose(series.price[10], (100.0 + 10) / 2)
        np.testing.assert_allclose(series.price[11], 111.0)

    def test_missing_hour_interpolated(self):
        # Spring transition: one local hour absent; linear fill between rows.
        text = hourly_csv(n_hours=24)
        lines = text.strip().split("\n")
        del lines[1 + 10]  # drop hour 10
        series = parse_market_csv("\n".join(lines), "DE")
        assert series.n_hours == 24
        np.testing.assert_allclose(series.price[10], (109.0 + 111.0) / 2)

    def test_missing_cell_interpolated(self):
        text = hourly_csv(n_hours=24).replace("105.0,205.0", "NA,205.0")
        series = parse_market_csv(text, "FR")
        np.testing.assert_allclose(series.price[5], (104.0 + 106.0) / 2)
        np.testing.assert_allclose(series.exog1[5], 205.0)

    def test_malformed_row_carries_line_number(self):
        text = hourly_csv(n_hours=24)
        broken = text.replace("103.0,203.0,303.0", "103.0,203.0")
        with pytest.raises(DataError, match="expected 4 columns, got 3") as exc:
            parse_market_csv(broken, "DE")
        assert str(exc.value).startswith("line 5: ")  # header + hours 0..2 precede it

    def test_bad_number_raises(self):
        text = hourly_csv(n_hours=24).replace("104.0,204.0", "104.0,oops")
        with pytest.raises(DataError, match="bad exog1 value") as exc:
            parse_market_csv(text, "DE")
        assert str(exc.value).startswith("line 6: ")

    def test_empty_input(self):
        with pytest.raises(DataError, match="no data rows in CSV"):
            parse_market_csv("", "DE")
        with pytest.raises(DataError, match="no data rows in CSV"):
            parse_market_csv("timestamp,price,exog1,exog2\n", "DE")

    def test_off_hour_timestamp_rejected(self):
        text = hourly_csv(n_hours=24).replace("01 05:00:00", "01 05:30:00")
        with pytest.raises(DataError, match="is not on the hour"):
            parse_market_csv(text, "DE")

    def test_canonical_csv_roundtrip(self):
        series = parse_market_csv(hourly_csv(), "NP")
        again = parse_market_csv(hours_csv(*parse_hours(hourly_csv())), "NP")
        np.testing.assert_array_equal(series.price, again.price)
        assert series.start == again.start

    def test_blank_and_comma_only_rows_skipped(self):
        text = hourly_csv(n_hours=24)
        lines = text.strip().split("\n")
        padded = lines[:3] + [",,,", "   ", " , ,\t, "] + lines[3:] + [",,,"]
        series = parse_market_csv("\n".join(padded) + "\n", "DE")
        reference = parse_market_csv(text, "DE")
        np.testing.assert_array_equal(series.price, reference.price)
        assert series.start == reference.start

    @pytest.mark.parametrize("first", ["timestamp,price,exog1,exog2",
                                       "2012-12-31 23:00:00,1.0,2.0,3.0"])
    def test_non_timestamp_on_line_2_is_malformed(self, first):
        # Only line 1 may be a header; the same text on line 2 is an error.
        lines = hourly_csv(n_hours=24).strip().split("\n")
        text = "\n".join([first, "timestamp,price,exog1,exog2"] + lines[1:])
        with pytest.raises(DataError) as exc:
            parse_market_csv(text, "DE")
        assert str(exc.value) == "line 2: bad timestamp 'timestamp'"

    @pytest.mark.parametrize("first", ["2013-01-01 25:00:00,1.0,2.0,3.0",
                                       "\ufeff2013-01-01 25:00:00,NA,2.0,NA",
                                       "2013-01-01 25:00:00,price,exog1,3"],
                             ids=["numbers", "byte-order mark and NA", "one number"])
    def test_bad_timestamp_on_line_1_with_a_number_is_malformed(self, first):
        # line 1 is a header only when none of its value cells is a number
        lines = hourly_csv(n_hours=24).strip().split("\n")
        with pytest.raises(DataError) as exc:
            parse_market_csv("\n".join([first] + lines[1:]), "DE")
        assert str(exc.value) == "line 1: bad timestamp '2013-01-01 25:00:00'"

    def test_bad_exog2_cell_names_column_and_line(self):
        text = hourly_csv(n_hours=24).replace("306.0", " 3o6 ")
        with pytest.raises(DataError) as exc:
            parse_market_csv(text, "DE")
        # header + hours 0..5 precede it
        assert str(exc.value) == "line 8: bad exog2 value '3o6'"

    def test_na_nan_and_inf_cells_are_missing(self):
        text = (
            hourly_csv(n_hours=24)
            .replace("103.0", " NA ")
            .replace("205.0", "-nan")
            .replace("307.0", "inf")
        )
        series = parse_market_csv(text, "DE")
        assert series.price[3] == (102.0 + 104.0) / 2
        assert series.exog1[5] == (204.0 + 206.0) / 2
        assert series.exog2[7] == (306.0 + 308.0) / 2

    def test_utc_offset_dropped(self):
        text = hourly_csv(n_hours=24)
        shifted = text.replace("01 05:00:00", "01 05:00:00+01:00").replace(
            "01 06:00:00", "01 06:00:00-05:30"
        )
        series = parse_market_csv(shifted, "DE")
        reference = parse_market_csv(text, "DE")
        assert series.start == reference.start
        np.testing.assert_array_equal(series.price, reference.price)

    def test_off_hour_message_has_no_offset(self):
        text = hourly_csv(n_hours=24).replace("01 05:00:00", "01 05:30:00+01:00")
        with pytest.raises(DataError) as exc:
            parse_market_csv(text, "DE")
        assert str(exc.value) == "line 7: 2013-01-01 05:30:00 is not on the hour"

    def test_pre_1970_timestamps(self):
        series = parse_market_csv(hourly_csv(start="1969-12-31 20:00", n_hours=8), "DE")
        assert series.start == -4
        np.testing.assert_array_equal(series.price, 100.0 + np.arange(8))

    def test_repeated_hour_averaged_in_place(self):
        # The repeated hour follows its twin, as at a fall transition; a
        # missing cell in one copy leaves the other copy's value.
        lines = hourly_csv(n_hours=24).strip().split("\n")
        lines.insert(1 + 3, "2013-01-01 02:00:00,110.0,NA,302.5")
        series = parse_market_csv("\n".join(lines), "DE")
        assert series.n_hours == 24
        assert series.price[2] == (102.0 + 110.0) / 2
        assert series.exog1[2] == 202.0
        assert series.exog2[2] == (302.0 + 302.5) / 2
        assert series.price[3] == 103.0


class TestHourlySeries:
    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="price contains non-finite values"):
            HourlySeries("DE", 0, np.array([1.0, np.nan]), np.ones(2), np.ones(2))


class TestBuildFeatureMatrix:
    def make_config(self):
        return MarketConfig(
            market_id="XX",
            currency="EUR",
            super_variables=(
                SuperVariable("Price D-1", "price", 1),
                SuperVariable("Load Forecast D", "exog1", 0),
                SuperVariable("Wind Forecast D-7", "exog2", 7),
            ),
            include_day_of_week=True,
        )

    def encode(self, d, h):
        # Distinct value per (source, day, hour) so lookups are checkable.
        return (10000 + d * 100 + h, 20000 + d * 100 + h, 30000 + d * 100 + h)

    def test_lag_layout_against_direct_lookup(self):
        series = parse_market_csv(
            hourly_csv(n_hours=12 * 24, encode=self.encode), "XX"
        )
        fm = build_feature_matrix(series, self.make_config())
        assert fm.n_instances == 5  # 12 days minus max lag 7
        assert str(fm.instances[0]) == "2013-01-08"
        assert fm.n_features == 3 * 24 + 1
        base = {"Price D-1": (10000, 1), "Load Forecast D": (20000, 0),
                "Wind Forecast D-7": (30000, 7)}
        for i in range(fm.n_instances):
            day = 7 + i
            for label, (offset, lag) in base.items():
                for h in range(24):
                    col = fm.columns.index(FeatureId(label, h))
                    assert fm.values[i, col] == offset + (day - lag) * 100 + h
            np.testing.assert_array_equal(
                fm.targets[i], 10000 + day * 100 + np.arange(24)
            )

    def test_day_of_week_column(self):
        series = parse_market_csv(hourly_csv(n_hours=12 * 24), "XX")
        fm = build_feature_matrix(series, self.make_config())
        dow = fm.values[:, fm.columns.index(FeatureId("Day of week", None))]
        # 2013-01-08 was a Tuesday; Monday = 0.
        np.testing.assert_array_equal(dow, [1, 2, 3, 4, 5])

    def test_leading_partial_day_skipped(self):
        series = parse_market_csv(
            hourly_csv(start="2013-01-01 05:00", n_hours=12 * 24), "XX"
        )
        fm = build_feature_matrix(series, self.make_config())
        # Hours 05:00-23:00 of Jan 1 cannot form a day; first full day is Jan 2.
        assert str(fm.instances[0]) == "2013-01-09"

    def test_pre_1970_start_in_the_middle_of_a_day(self):
        # 1969-12-20 13:00: the first midnight is 11 hours in, on 1969-12-21,
        # and day lag 7 makes 1969-12-28 (a Sunday) the first delivery day
        series = parse_market_csv(hourly_csv(start="1969-12-20 13:00", n_hours=14 * 24), "XX")
        assert series.start == -275
        fm = build_feature_matrix(series, self.make_config())
        assert fm.instance_ids() == [
            "1969-12-28", "1969-12-29", "1969-12-30", "1969-12-31", "1970-01-01", "1970-01-02"
        ]
        dow = fm.values[:, fm.columns.index(FeatureId("Day of week", None))]
        np.testing.assert_array_equal(dow, [6, 0, 1, 2, 3, 4])
        # the day before the first instance, 1969-12-27, starts 11 + 6 * 24 hours in
        np.testing.assert_array_equal(fm.naive[0], 100.0 + 155 + np.arange(24))
        np.testing.assert_array_equal(fm.targets[0], 100.0 + 179 + np.arange(24))
        np.testing.assert_array_equal(fm.naive[1:], fm.targets[:-1])

    def test_insufficient_history(self):
        series = parse_market_csv(hourly_csv(n_hours=7 * 24), "XX")
        with pytest.raises(DataError, match="need more than 7 full days"):
            build_feature_matrix(series, self.make_config())

    def test_same_day_inputs_start_on_the_second_day(self):
        # the first day has no previous-day prices for the naive forecast
        config = MarketConfig(
            market_id="XX",
            currency="EUR",
            super_variables=(SuperVariable("Load Forecast D", "exog1", 0),),
        )
        series = parse_market_csv(hourly_csv(n_hours=3 * 24, encode=self.encode), "XX")
        fm = build_feature_matrix(series, config)
        assert [str(day) for day in fm.instances] == ["2013-01-02", "2013-01-03"]
        np.testing.assert_array_equal(fm.values[0], [20000 + 100 + h for h in range(24)])
        with pytest.raises(DataError, match="need more than 1 full days"):
            build_feature_matrix(parse_market_csv(hourly_csv(n_hours=24), "XX"), config)


class TestNaiveForecast:
    """``FeatureMatrix.naive``: each delivery day is forecast by the previous day's prices."""

    def features(self, n_days, encode=None):
        config = MarketConfig(
            market_id="XX",
            currency="EUR",
            super_variables=(SuperVariable("Load Forecast D", "exog1", 0),),
        )
        text = hourly_csv(n_hours=n_days * 24, encode=encode)
        return build_feature_matrix(parse_market_csv(text, "XX"), config)

    def test_shifts_days_by_one(self):
        fm = self.features(3, lambda d, h: ((d + 1) * 10.0, 0.0, 0.0))
        assert fm.instance_ids() == ["2013-01-02", "2013-01-03"]
        np.testing.assert_array_equal(fm.naive[0], np.full(24, 10.0))
        np.testing.assert_array_equal(fm.targets[0], np.full(24, 20.0))
        np.testing.assert_array_equal(fm.naive[1], np.full(24, 20.0))

    def test_alternating_prices_give_exact_mae(self):
        fm = self.features(6, lambda d, h: (5.0 if d % 2 == 0 else 9.0, 0.0, 0.0))
        assert float(np.abs(fm.naive - fm.targets).mean()) == 4.0

    def test_needs_two_days(self):
        with pytest.raises(DataError, match="need more than 1 full days"):
            self.features(1)


class TestScalers:
    def test_std_frozen_values(self):
        # mean 2, population std sqrt(2/3) for {1,2,3}
        params = fit_scaler("std", np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(params.location, [2.0])
        np.testing.assert_allclose(params.scale, [np.sqrt(2.0 / 3.0)], rtol=1e-15)
        np.testing.assert_allclose(
            transform(params, np.array([3.0])), [np.sqrt(1.5)], rtol=1e-12
        )

    def test_median_mad_frozen_values(self):
        # median 2.5; deviations {1.5, .5, .5, 7.5} -> MAD 1.0
        col = np.array([[1.0], [2.0], [3.0], [10.0]])
        params = fit_scaler("median", col)
        np.testing.assert_allclose(params.location, [2.5])
        np.testing.assert_allclose(params.scale, [1.0])
        np.testing.assert_allclose(transform(params, np.array([10.0])), [7.5])

    def test_arcsinh_frozen_value(self):
        col = np.array([[1.0], [2.0], [3.0], [10.0]])
        params = fit_scaler("arcsinh", col)
        # asinh(1) = ln(1 + sqrt(2))
        np.testing.assert_allclose(
            transform(params, np.array([3.5])),
            [np.log(1.0 + np.sqrt(2.0))],
            rtol=1e-15,
        )

    def test_roundtrip_all_kinds(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(50.0, 20.0, size=(40, 6))
        point = rng.normal(50.0, 20.0, size=6)
        for kind in ("std", "median", "arcsinh"):
            params = fit_scaler(kind, rows)
            back = inverse_transform(params, transform(params, point))
            np.testing.assert_allclose(back, point, rtol=1e-12)

    def test_zero_spread_column_gets_unit_scale(self):
        rows = np.column_stack([np.full(10, 4.0), np.arange(10.0)])
        for kind in ("std", "median"):
            params = fit_scaler(kind, rows)
            assert params.scale[0] == 1.0
            np.testing.assert_allclose(transform(params, rows)[:, 0], 0.0)

    def test_too_few_rows(self):
        with pytest.raises(DataError, match="scaler fit needs >= 2 rows, got 1"):
            fit_scaler("std", np.array([[1.0, 2.0]]))

    def test_dimension_mismatch(self):
        params = fit_scaler("std", np.arange(12.0).reshape(6, 2))
        with pytest.raises(DataError, match="expected 2 columns, got shape"):
            transform(params, np.ones(3))
        with pytest.raises(DataError, match="expected 2 columns, got shape"):
            inverse_transform(params, np.ones((4, 5)))

    @pytest.mark.parametrize("kind", ["std", "median"])
    def test_overflowing_fit_is_a_data_error(self, kind):
        # finite rows whose statistics leave the float64 range: the square
        # behind std, or the deviation from the median
        rows = np.column_stack([np.arange(4.0), [1e160, 2e160, 3e160, 4e160]])
        if kind == "median":
            rows[:, 1] = [-1.7e308, -1.7e308, 1.7e308, 1.7e308]
        with pytest.raises(DataError, match=f"{kind} scaler fit overflows"):
            fit_scaler(kind, rows)

    def test_non_finite_rejected(self):
        rows = np.ones((5, 2))
        rows[3, 1] = np.inf
        with pytest.raises(DataError, match="scaler fit input contains non-finite"):
            fit_scaler("median", rows)


class TestMarketPresets:
    def test_feature_counts(self):
        expected = {"DE": 217, "FR": 120, "BE": 121, "NP": 144, "PJM": 120}
        for market_id, n in expected.items():
            assert market_config(market_id).n_features == n

    def test_day_of_week_only_where_counts_need_it(self):
        assert market_config("DE").include_day_of_week
        assert market_config("BE").include_day_of_week
        for market_id in ("FR", "NP", "PJM"):
            assert not market_config(market_id).include_day_of_week

    def test_bad_config_dict(self):
        with pytest.raises(ValueError):
            market_config("XX")
        with pytest.raises(ValueError):
            benchmark_spec("XX")
