"""Market presets and model settings: the part of the package free of numpy.

A market is a set of super-variables (a named input series at a fixed day
lag, 24 hourly features each) plus optionally a day-of-week input; a model
spec fixes the network shape, activation, regularisation and scalers. The
five benchmark markets come with both built in.

Nothing here imports numpy, so ``epxai validate`` and ``epxai.market_config``
run without it; :mod:`epxai.data` and :mod:`epxai.mlp` import these names back.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import check_bool, check_int, check_object, check_str

__all__ = [
    "SOURCES", "SCALER_KINDS", "MARKET_IDS", "DAY_OF_WEEK_LABEL", "ACTIVATIONS",
    "INIT_SCHEMES", "SuperVariable", "FeatureId", "MarketConfig", "ModelSpec",
    "TrainingHyperparams", "market_config", "market_config_to_dict",
    "market_config_from_dict", "benchmark_spec",
]

SOURCES = ("price", "exog1", "exog2")
SCALER_KINDS = ("std", "median", "arcsinh")
MARKET_IDS = ("DE", "FR", "BE", "NP", "PJM")

DAY_OF_WEEK_LABEL = "Day of week"

ACTIVATIONS = ("softplus", "selu")
INIT_SCHEMES = ("glorot_uniform", "he_normal", "lecun_uniform", "lecun_normal")


@dataclass(frozen=True)
class SuperVariable:
    """One named input series at a fixed day lag.

    ``source`` is one of :data:`SOURCES`; ``day_lag`` counts days back from
    the delivery day (0 means the delivery day itself, which is valid for
    day-ahead forecasts published before delivery).
    """

    label: str
    source: str
    day_lag: int

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if self.day_lag < 0:
            raise ValueError("day_lag must be >= 0")


@dataclass(frozen=True, order=True)
class FeatureId:
    """A single model input: a super-variable at one hour, or day-of-week.

    ``hour`` is None only for the day-of-week column.
    """

    group: str
    hour: int | None

    def __str__(self) -> str:
        return self.group if self.hour is None else f"{self.group} H{self.hour}"


@dataclass(frozen=True)
class MarketConfig:
    """Which super-variables (and optionally day-of-week) feed the model."""

    market_id: str
    currency: str
    super_variables: tuple[SuperVariable, ...]
    include_day_of_week: bool = False

    def __post_init__(self):
        labels = [sv.label for sv in self.super_variables]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate super-variable labels")
        if not self.super_variables:
            raise ValueError("at least one super-variable required")

    @property
    def n_features(self) -> int:
        return 24 * len(self.super_variables) + (1 if self.include_day_of_week else 0)

    @property
    def max_day_lag(self) -> int:
        return max(sv.day_lag for sv in self.super_variables)

    @property
    def groups(self) -> tuple:
        """The inputs in column order as ``(label, features)`` pairs, day-of-week last."""
        groups = [
            (sv.label, tuple(FeatureId(sv.label, h) for h in range(24)))
            for sv in self.super_variables
        ]
        if self.include_day_of_week:
            groups.append((DAY_OF_WEEK_LABEL, (FeatureId(DAY_OF_WEEK_LABEL, None),)))
        return tuple(groups)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture and scaling choices for one forecaster."""

    layer_sizes: tuple[int, int, int, int]  # (n_inputs, hidden1, hidden2, 24)
    activation: str
    dropout_rate: float
    l1_factor: float
    init_scheme: str
    input_scaler_kind: str
    output_scaler_kind: str
    seed: int = 0

    def __post_init__(self):
        if len(self.layer_sizes) != 4 or any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer_sizes must be four positive integers")
        if self.layer_sizes[-1] != 24:
            raise ValueError("output layer must have 24 units (one per hour)")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.init_scheme not in INIT_SCHEMES:
            raise ValueError(f"unknown init scheme {self.init_scheme!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.l1_factor < 0.0:
            raise ValueError("l1_factor must be >= 0")

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]


@dataclass(frozen=True)
class TrainingHyperparams:
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 300
    early_stop_patience: int = 20
    validation_fraction: float = 0.15
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be positive")


def _sv(label: str, source: str, day_lag: int) -> SuperVariable:
    return SuperVariable(label=label, source=source, day_lag=day_lag)


_MARKET_PRESETS: dict[str, MarketConfig] = {
    # exog1/exog2 meanings follow the benchmark datasets for each market.
    "DE": MarketConfig(
        market_id="DE", currency="EUR",
        super_variables=(
            _sv("Price D-1", "price", 1),
            _sv("Price D-2", "price", 2),
            _sv("Price D-3", "price", 3),
            _sv("Price D-7", "price", 7),
            _sv("Load Forecast D", "exog1", 0),
            _sv("Load Forecast D-1", "exog1", 1),
            _sv("Load Forecast D-7", "exog1", 7),
            _sv("Renewable Forecast D", "exog2", 0),
            _sv("Renewable Forecast D-1", "exog2", 1),
        ),
        include_day_of_week=True,
    ),
    "FR": MarketConfig(
        market_id="FR", currency="EUR",
        super_variables=(
            _sv("Price D-1", "price", 1),
            _sv("Price D-3", "price", 3),
            _sv("Load Forecast D", "exog1", 0),
            _sv("Generation Forecast D", "exog2", 0),
            _sv("Generation Forecast D-1", "exog2", 1),
        ),
    ),
    "BE": MarketConfig(
        market_id="BE", currency="EUR",
        super_variables=(
            _sv("Price D-1", "price", 1),
            _sv("French Load Forecast D", "exog1", 0),
            _sv("French Load Forecast D-7", "exog1", 7),
            _sv("French Generation Forecast D", "exog2", 0),
            _sv("French Generation Forecast D-1", "exog2", 1),
        ),
        include_day_of_week=True,
    ),
    "NP": MarketConfig(
        market_id="NP", currency="EUR",
        super_variables=(
            _sv("Price D-1", "price", 1),
            _sv("Price D-2", "price", 2),
            _sv("Load Forecast D", "exog1", 0),
            _sv("Load Forecast D-1", "exog1", 1),
            _sv("Wind Forecast D", "exog2", 0),
            _sv("Wind Forecast D-1", "exog2", 1),
        ),
    ),
    "PJM": MarketConfig(
        market_id="PJM", currency="USD",
        super_variables=(
            _sv("Price D-1", "price", 1),
            _sv("PJM Load Forecast D", "exog1", 0),
            _sv("PJM Load Forecast D-1", "exog1", 1),
            _sv("ComEd Load Forecast D", "exog2", 0),
            _sv("ComEd Load Forecast D-1", "exog2", 1),
        ),
    ),
}


def market_config(market_id: str) -> MarketConfig:
    """Built-in configuration for one of the five benchmark markets."""
    try:
        return _MARKET_PRESETS[market_id]
    except KeyError:
        raise ValueError(
            f"unknown market {market_id!r}; expected one of {MARKET_IDS}"
        ) from None


def market_config_to_dict(config: MarketConfig) -> dict:
    return {
        "market_id": config.market_id,
        "currency": config.currency,
        "include_day_of_week": config.include_day_of_week,
        "super_variables": [
            {"label": sv.label, "source": sv.source, "day_lag": sv.day_lag}
            for sv in config.super_variables
        ],
    }


def market_config_from_dict(payload: dict) -> MarketConfig:
    """Build a MarketConfig from its JSON form; raises ValueError on bad shape."""
    keys = ("market_id", "currency", "include_day_of_week", "super_variables")
    check_object(payload, "market", keys)
    try:
        svs = []
        for k, entry in enumerate(payload["super_variables"]):
            where = f"market.super_variables[{k}]"
            check_object(entry, where, ("label", "source", "day_lag"))
            svs.append(
                SuperVariable(
                    label=check_str(entry["label"], f"{where}.label"),
                    source=entry["source"],
                    day_lag=check_int(entry["day_lag"], f"{where}.day_lag"),
                )
            )
        return MarketConfig(
            market_id=check_str(payload["market_id"], "market.market_id"),
            currency=check_str(payload.get("currency", "EUR"), "market.currency"),
            super_variables=tuple(svs),
            include_day_of_week=check_bool(
                payload.get("include_day_of_week", False), "market.include_day_of_week"
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad market config: {exc}") from exc


def benchmark_spec(market_id: str, seed: int = 0) -> ModelSpec:
    """Tuned architecture for one of the five benchmark markets."""
    # each row holds ModelSpec's fields in order, from layer_sizes to
    # output_scaler_kind
    table = {
        "DE": ((217, 329, 379, 24), "softplus", 0.455, 0.0,
               "glorot_uniform", "std", "median"),
        "FR": ((120, 233, 206, 24), "softplus", 0.193, 0.0,
               "glorot_uniform", "arcsinh", "std"),
        "BE": ((121, 205, 308, 24), "softplus", 0.253, 0.0,
               "he_normal", "arcsinh", "arcsinh"),
        "NP": ((144, 274, 308, 24), "softplus", 0.154, 0.0,
               "lecun_uniform", "median", "std"),
        "PJM": ((120, 299, 376, 24), "selu", 0.0079, 0.000306,
                "lecun_uniform", "arcsinh", "arcsinh"),
    }
    try:
        fields = table[market_id]
    except KeyError:
        raise ValueError(f"unknown market {market_id!r}") from None
    return ModelSpec(*fields, seed=seed)
