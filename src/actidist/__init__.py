"""Distributional representations of activity time series and
survey-weighted nonparametric regression in the Wasserstein geometry.

The names below are imported from their modules on first access (PEP 562),
so that importing one module, such as the command line, does not import the
others.
"""

import importlib

_EXPORTS = {
    "distribution": (
        "ActivitySeries",
        "CensorSpec",
        "MixedDistribution",
        "NO_CENSOR",
        "QuantileGrid",
        "build_mixed",
        "inactive_proportion",
        "quantiles_from_values",
        "tac_per_day",
    ),
    "geometry": (
        "FrechetSummary",
        "frechet_mean",
        "frechet_variance",
        "pairwise_wasserstein",
        "pointwise_sd_curve",
        "summarize",
    ),
    "survey": (
        "ht_mean",
        "median_heuristic_sigma_from_matrix",
        "weighted_median",
        "weighted_r2",
    ),
    "regression": (
        "KrrModel",
        "SurveySample",
        "distance_quantile_grid",
        "krr_fit",
        "krr_loo",
        "krr_predict",
        "krr_predict_batch",
        "krr_select_lambda",
        "laplacian_kernel",
        "load_model",
        "nw_loo",
        "nw_predict",
        "nw_select_bandwidth",
        "save_model",
    ),
    "evaluation": (
        "ClassificationOutcome",
        "R2Comparison",
        "RISK_GROUP_A",
        "RISK_GROUP_B",
        "UNASSIGNED",
        "assign_risk_groups",
        "classify_mortality",
        "compare_r2",
        "group_profiles",
        "stratify_age",
        "survey_sample_from_subjects",
        "weighted_auc",
    ),
    "datagen": (
        "IntensityLaw",
        "PoissonDesign",
        "PopulationSpec",
        "ResponseModel",
        "StratifiedDesign",
        "StratumSpec",
        "draw_sample",
        "inclusion_probabilities",
        "simulate_population",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

# the exported names and the modules that hold them
__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
