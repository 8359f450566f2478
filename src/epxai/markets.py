"""Market presets, model settings and partitions: the part of the package free of numpy.

A market is a set of super-variables (a named input series at a fixed day
lag, 24 hourly features each) plus optionally a day-of-week input; a model
spec fixes the network shape, activation, regularisation and scalers. The
five benchmark markets come with both built in, which are the defaults of
a run config's ``market`` and ``model`` keys. A partition labels groups
of a market's inputs for grouped Shapley values; :func:`split_group` and
:func:`merge_groups` alone decide which splits and merges are allowed.

Nothing here imports numpy, so ``epxai validate`` and ``epxai.market_config``
run without it. The names import from here, and the public ones also from
:mod:`epxai`; the numeric layers import the few they use without exporting
them again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EpxaiError

__all__ = [
    "SOURCES", "SCALER_KINDS", "MARKET_IDS", "DAY_OF_WEEK_LABEL", "ACTIVATIONS",
    "INIT_SCHEMES", "SuperVariable", "FeatureId", "MarketConfig", "ModelSpec",
    "TrainingHyperparams", "market_config", "benchmark_spec", "SshapError", "UnknownGroup",
    "NotHourlyGroup", "Partition", "default_partition", "split_group", "merge_groups",
]

SOURCES = ("price", "exog1", "exog2")
SCALER_KINDS = ("std", "median", "arcsinh")

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


# Each benchmark market: its currency, whether day-of-week is an input, its
# super-variables as (label, source, day_lag) with exog1/exog2 meanings following
# the benchmark datasets, and its tuned ModelSpec fields in order, from
# layer_sizes to output_scaler_kind.
_PRESETS = {
    "DE": ("EUR", True, (
        ("Price D-1", "price", 1),
        ("Price D-2", "price", 2),
        ("Price D-3", "price", 3),
        ("Price D-7", "price", 7),
        ("Load Forecast D", "exog1", 0),
        ("Load Forecast D-1", "exog1", 1),
        ("Load Forecast D-7", "exog1", 7),
        ("Renewable Forecast D", "exog2", 0),
        ("Renewable Forecast D-1", "exog2", 1),
    ), ((217, 329, 379, 24), "softplus", 0.455, 0.0, "glorot_uniform", "std", "median")),
    "FR": ("EUR", False, (
        ("Price D-1", "price", 1),
        ("Price D-3", "price", 3),
        ("Load Forecast D", "exog1", 0),
        ("Generation Forecast D", "exog2", 0),
        ("Generation Forecast D-1", "exog2", 1),
    ), ((120, 233, 206, 24), "softplus", 0.193, 0.0, "glorot_uniform", "arcsinh", "std")),
    "BE": ("EUR", True, (
        ("Price D-1", "price", 1),
        ("French Load Forecast D", "exog1", 0),
        ("French Load Forecast D-7", "exog1", 7),
        ("French Generation Forecast D", "exog2", 0),
        ("French Generation Forecast D-1", "exog2", 1),
    ), ((121, 205, 308, 24), "softplus", 0.253, 0.0, "he_normal", "arcsinh", "arcsinh")),
    "NP": ("EUR", False, (
        ("Price D-1", "price", 1),
        ("Price D-2", "price", 2),
        ("Load Forecast D", "exog1", 0),
        ("Load Forecast D-1", "exog1", 1),
        ("Wind Forecast D", "exog2", 0),
        ("Wind Forecast D-1", "exog2", 1),
    ), ((144, 274, 308, 24), "softplus", 0.154, 0.0, "lecun_uniform", "median", "std")),
    "PJM": ("USD", False, (
        ("Price D-1", "price", 1),
        ("PJM Load Forecast D", "exog1", 0),
        ("PJM Load Forecast D-1", "exog1", 1),
        ("ComEd Load Forecast D", "exog2", 0),
        ("ComEd Load Forecast D-1", "exog2", 1),
    ), ((120, 299, 376, 24), "selu", 0.0079, 0.000306, "lecun_uniform", "arcsinh", "arcsinh")),
}
MARKET_IDS = tuple(_PRESETS)


def _preset(market_id: str) -> tuple:
    try:
        return _PRESETS[market_id]
    except KeyError:
        raise ValueError(
            f"unknown market {market_id!r}; expected one of {MARKET_IDS}"
        ) from None


def market_config(market_id: str) -> MarketConfig:
    """Built-in configuration for one of the five benchmark markets."""
    currency, day_of_week, svs, _ = _preset(market_id)
    return MarketConfig(market_id, currency, tuple(SuperVariable(*sv) for sv in svs), day_of_week)


def benchmark_spec(market_id: str, seed: int = 0) -> ModelSpec:
    """Tuned architecture for one of the five benchmark markets."""
    return ModelSpec(*_preset(market_id)[3], seed=seed)


class SshapError(EpxaiError):
    """Base class for grouped-attribution errors."""


class UnknownGroup(SshapError):
    """No group with the requested label."""


class NotHourlyGroup(SshapError):
    """Operation needs a group holding exactly hours 0-23 of one series."""


@dataclass(frozen=True)
class Partition:
    """Ordered, disjoint grouping of feature ids under unique labels."""

    groups: tuple  # of (label, tuple[FeatureId, ...])

    def __post_init__(self):
        seen_labels: set = set()
        seen: set = set()
        for label, members in self.groups:
            if label in seen_labels:
                raise ValueError(f"duplicate group label {label!r}")
            seen_labels.add(label)
            if not members:
                raise ValueError(f"group {label!r} is empty")
            for fid in members:
                if fid in seen:
                    raise ValueError(f"feature {fid} appears in two groups")
                seen.add(fid)

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.groups)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def members(self, label: str):
        for got, members in self.groups:
            if got == label:
                return members
        raise UnknownGroup(f"no group labelled {label!r}")

    def all_features(self) -> set:
        return {fid for _, members in self.groups for fid in members}


def default_partition(config: MarketConfig) -> Partition:
    """One group per super-variable, day-of-week as its own singleton."""
    return Partition(groups=config.groups)


def merge_groups(partition: Partition, new_label: str, labels) -> Partition:
    """Fuse several groups into one, keeping the first one's position.

    Each label must name a group of ``partition``, so a group merged once is
    gone for a later merge, and ``new_label`` must not repeat one left standing.
    """
    labels = list(labels)
    if len(labels) < 2:
        raise ValueError("merging needs at least two group labels")
    merged = tuple(fid for label in labels for fid in partition.members(label))
    return Partition(groups=tuple(
        (new_label, merged) if label == labels[0] else (label, members)
        for label, members in partition.groups
        if label == labels[0] or label not in labels
    ))


def split_group(partition: Partition, label: str, split_hour: int) -> Partition:
    """Split an hourly group into H0-H(s-1) and Hs-H23 halves in place.

    The group must hold exactly hours 0-23 of one series; day-of-week and
    already-split groups do not qualify, and a group split once is gone for
    a later split.
    """
    if not 1 <= split_hour <= 23:
        raise ValueError(f"split hour must be in 1..23 for two nonempty halves, got {split_hour}")
    members = partition.members(label)
    if len(members) != 24 or {m.hour for m in members} != set(range(24)):
        raise NotHourlyGroup(f"group {label!r} does not hold exactly hours 0-23")
    halves = (
        (f"{label} H0-H{split_hour - 1}", tuple(m for m in members if m.hour < split_hour)),
        (f"{label} H{split_hour}-H23", tuple(m for m in members if m.hour >= split_hour)),
    )
    return Partition(groups=tuple(
        group for got in partition.groups for group in (halves if got[0] == label else (got,))
    ))
