"""Shared fixtures: synthetic markets and feature matrices with known structure."""

import numpy as np
import pytest

from epxai.data import FeatureMatrix, ScalerParams, build_feature_matrix, parse_market_csv
from epxai.markets import FeatureId, MarketConfig, SuperVariable
from epxai.mlp import TrainedModel, init_weights


def _synthetic_market_csv(n_days=240, seed=11, start="2013-01-01"):
    """Hourly CSV for a fake market whose price is driven by the exogenous series.

    Load carries daily/weekly shape, wind a slow multi-day cycle, and price is
    a noisy linear blend of both plus an autoregressive component, so a model
    that reads the day-ahead forecasts can beat the naive yesterday forecast.
    """
    rng = np.random.default_rng(seed)
    hours = np.arange(n_days * 24)
    hod = hours % 24
    day = hours // 24
    weekday = (day + 1) % 7  # chosen start date is a Tuesday

    load = (
        100.0
        + 20.0 * np.sin(2 * np.pi * (hod - 8) / 24)
        + 6.0 * (weekday < 5)
        + np.repeat(rng.normal(0.0, 3.0, n_days), 24)
        + rng.normal(0.0, 1.0, len(hours))
    )
    wind = (
        50.0
        + 15.0 * np.sin(2 * np.pi * day / 14)
        + rng.normal(0.0, 4.0, len(hours))
    )
    daily_level = np.repeat(rng.normal(0.0, 2.0, n_days), 24)
    price = (
        5.0
        + 0.45 * load
        - 0.25 * wind
        + 4.0 * np.sin(2 * np.pi * (hod - 18) / 24)
        + daily_level
        + rng.normal(0.0, 1.0, len(hours))
    )

    t0 = np.datetime64(start + "T00", "h")
    lines = ["timestamp,price,exog1,exog2"]
    for i in range(len(hours)):
        stamp = str((t0 + i).astype("datetime64[s]")).replace("T", " ")
        lines.append(f"{stamp},{price[i]:.6f},{load[i]:.6f},{wind[i]:.6f}")
    return "\n".join(lines) + "\n"


SYN_CONFIG = MarketConfig(
    market_id="SYN",
    currency="EUR",
    super_variables=(
        SuperVariable("Price D-1", "price", 1),
        SuperVariable("Load Forecast D", "exog1", 0),
        SuperVariable("Wind Forecast D", "exog2", 0),
    ),
    include_day_of_week=False,
)


def _build_matrix(n_instances=60, n_groups=2, seed=0, noise=0.02):
    """FeatureMatrix with a learnable linear map from inputs to targets."""
    rng = np.random.default_rng(seed)
    n_feat = 24 * n_groups
    values = rng.normal(40.0, 8.0, (n_instances, n_feat))
    mixing = rng.normal(0.0, 1.0, (n_feat, 24)) / n_feat
    targets = 20.0 + values @ mixing * 4.0 + rng.normal(0.0, noise, (n_instances, 24))
    columns = tuple(
        FeatureId(f"Group {g}", h) for g in range(n_groups) for h in range(24)
    )
    instances = np.arange(
        np.datetime64("2013-01-01"), np.datetime64("2013-01-01") + n_instances
    )
    return FeatureMatrix(
        instances=instances,
        columns=columns,
        values=values,
        targets=targets,
        naive=np.vstack([targets[:1], targets[:-1]]),
    )


def _fresh_model(spec, input_scaler=None, output_scaler=None):
    """An untrained network: the initial weights of ``spec`` and the given
    scalers, by default identity scalers of the spec's kinds."""
    n_in, n_out = spec.layer_sizes[0], spec.layer_sizes[-1]
    return TrainedModel(
        spec,
        *init_weights(spec),
        input_scaler or ScalerParams(spec.input_scaler_kind, np.zeros(n_in), np.ones(n_in)),
        output_scaler or ScalerParams(spec.output_scaler_kind, np.zeros(n_out), np.ones(n_out)),
    )


@pytest.fixture
def build_matrix():
    return _build_matrix


@pytest.fixture
def fresh_model():
    return _fresh_model


@pytest.fixture
def synthetic_market_csv():
    return _synthetic_market_csv


@pytest.fixture(scope="session")
def synthetic_features():
    """Feature matrix of the standard synthetic market (230 usable days)."""
    series = parse_market_csv(_synthetic_market_csv(), "SYN")
    return build_feature_matrix(series, SYN_CONFIG)


@pytest.fixture(scope="session")
def synthetic_config():
    return SYN_CONFIG
