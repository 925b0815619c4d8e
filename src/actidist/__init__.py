"""Distributional representations of activity time series and
survey-weighted nonparametric regression in the Wasserstein geometry."""

from .distribution import (
    ActivitySeries,
    CensorSpec,
    DensityCurve,
    MixedDistribution,
    NO_CENSOR,
    QuantileGrid,
    build_mixed,
    censor_series,
    empirical_quantiles,
    inactive_proportion,
    kde_active,
    quantiles_from_values,
    silverman_bandwidth,
    tac_per_day,
)
from .geometry import (
    FrechetSummary,
    frechet_mean,
    frechet_variance,
    pairwise_wasserstein,
    pointwise_sd_curve,
    summarize,
    wasserstein2,
)
from .survey import (
    ht_mean,
    median_heuristic_sigma_from_matrix,
    weighted_median,
    weighted_r2,
)
from .regression import (
    KrrModel,
    NwConfig,
    SurveySample,
    distance_quantile_grid,
    gaussian_kernel,
    krr_fit,
    krr_loo,
    krr_predict,
    krr_predict_batch,
    krr_select_lambda,
    laplacian_kernel,
    load_model,
    nw_loo,
    nw_predict,
    nw_select_bandwidth,
    save_model,
)
from .evaluation import (
    ClassificationOutcome,
    R2Comparison,
    RISK_GROUP_A,
    RISK_GROUP_B,
    UNASSIGNED,
    assign_risk_groups,
    classify_mortality,
    compare_r2,
    group_profiles,
    stratify_age,
    survey_sample_from_subjects,
    weighted_auc,
)
from .datagen import (
    IntensityLaw,
    PoissonDesign,
    PopulationSpec,
    ResponseModel,
    StratifiedDesign,
    StratumSpec,
    draw_sample,
    inclusion_probabilities,
    simulate_population,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
