"""Day-ahead electricity price forecasting with game-theoretic explanations.

The package trains per-market multilayer perceptrons that map lagged hourly
series to the 24 hourly prices of a delivery day, and explains them with
analytic gradients, sampled and exact Shapley values, and grouped (super
variable) Shapley summaries rendered as heatmaps, rankings, and smoothed
price-response curves.

Submodules are imported on first attribute access, so importing :mod:`epxai`
itself stays free of numpy; the command-line entry point relies on this to pin
BLAS thread counts before numpy loads. The names served by :mod:`epxai.markets`
(the market and model settings, their presets and the partitions) never load
numpy at all.
"""

import importlib

from .errors import EpxaiError

__version__ = "0.1.0"

_EXPORTS = {
    # markets
    "MARKET_IDS": "markets",
    "MarketConfig": "markets",
    "SuperVariable": "markets",
    "FeatureId": "markets",
    "market_config": "markets",
    "ModelSpec": "markets",
    "TrainingHyperparams": "markets",
    "benchmark_spec": "markets",
    "Partition": "markets",
    "default_partition": "markets",
    "split_group": "markets",
    "merge_groups": "markets",
    # data
    "HourlySeries": "data",
    "FeatureMatrix": "data",
    "ScalerParams": "data",
    "parse_market_csv": "data",
    "build_feature_matrix": "data",
    "fit_scaler": "data",
    "transform": "data",
    "inverse_transform": "data",
    # mlp
    "TrainedModel": "mlp",
    "init_weights": "mlp",
    "train": "mlp",
    "predict_prices": "mlp",
    "save_model": "mlp",
    "load_model": "mlp",
    "count_parameters": "mlp",
    # attribution
    "BackgroundSet": "attribution",
    "ShapExplanation": "attribution",
    "AttributionTensor": "attribution",
    "sample_background": "attribution",
    "jacobian_batch": "attribution",
    "shap_mc": "attribution",
    "shap_exact": "attribution",
    "explain_dataset": "attribution",
    "attribution_to_csv": "attribution",
    # sshap
    "SshapLines": "sshap",
    "SlopeCheck": "sshap",
    "aggregate": "sshap",
    "sshap_line": "sshap",
    "slope_check": "sshap",
    "expected_slope": "sshap",
    # analytics
    "HeatmapGrid": "analytics",
    "ImportanceTable": "analytics",
    "BeeswarmTable": "analytics",
    "PerformanceReport": "analytics",
    "ComplexityReport": "analytics",
    "heatmap": "analytics",
    "hourly_importance": "analytics",
    "beeswarm_table": "analytics",
    "performance_metrics": "analytics",
    "complexity_metrics": "analytics",
    # figures
    "InstanceStack": "figures",
    "instance_stack": "figures",
    "render_figure": "figures",
    # oracle
    "BatteryResult": "oracle",
    "run_all": "oracle",
}

__all__ = ["EpxaiError", "__version__", *sorted(_EXPORTS)]


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module_name}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
