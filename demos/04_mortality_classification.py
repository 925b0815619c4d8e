"""Five-year mortality classification with the survey smoother.

Leave-one-out Nadaraya-Watson probabilities classify each subject, the
weighted confusion table summarizes the cohort, and subjects predicted to
die who actually survived form the clinically interesting risk group. Group
profiles (Frechet mean and sd curves) are reported per risk group and age
stratum.
"""

import numpy as np

from actidist import (
    assign_risk_groups,
    classify_mortality,
    draw_sample,
    group_profiles,
    simulate_population,
    stratify_age,
    survey_sample_from_subjects,
)
from actidist.datagen import (
    IntensityLaw,
    PopulationSpec,
    StratifiedDesign,
    StratumSpec,
)

# Overlapping phenotypes: frailty raises mortality but does not determine
# it, so the smoother has genuinely uncertain subjects to classify.
population_spec = PopulationSpec(
    size=150,
    strata=(
        StratumSpec("frail", 0.4, (0.70, 0.90),
                    IntensityLaw("lognormal", (3.4, 0.6)),
                    age_range=(74, 85), mortality_rate=0.8),
        StratumSpec("active", 0.6, (0.25, 0.55),
                    IntensityLaw("lognormal", (4.8, 0.6)),
                    age_range=(68, 80), mortality_rate=0.1),
    ),
    minutes=1440,
    seed=21,
)
population, _ = simulate_population(population_spec)
subjects = draw_sample(population,
                       StratifiedDesign({"frail": 0.9, "active": 0.7}), seed=22)
sample = survey_sample_from_subjects(subjects, "quantiles", "mortality", m=200)

outcome = classify_mortality(sample, threshold=0.5)
print(f"n = {sample.n}, selected bandwidth {outcome.bandwidth:.1f}")
print(f"weighted confusion: TP {outcome.tp:.1f}  FP {outcome.fp:.1f}  "
      f"TN {outcome.tn:.1f}  FN {outcome.fn:.1f}")
print(f"weighted accuracy {outcome.weighted_accuracy:.3f}, "
      f"weighted AUC {outcome.auc:.3f}")

risk = assign_risk_groups(outcome)
counts = {label: risk.count(label) for label in sorted(set(risk))}
print(f"risk groups: {counts}")

# Profile the groups; ages in these cohorts live in the 68-85 target range.
ages = [s.covariates["age"] for s in subjects]
strata = stratify_age(ages)
labels = [f"{r}/{a}" for r, a in zip(risk, strata)]
profiles = group_profiles(sample.predictors, sample.weights, labels)
print("\ngroup profiles (top quantile of the mean curve):")
for name in sorted(profiles):
    summary = profiles[name]
    print(f"  {name:22s} n_weight {summary.total_weight:7.1f}   "
          f"mean top {summary.mean.values[-1]:8.1f}")
