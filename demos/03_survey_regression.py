"""Survey-weighted regression: distributional predictors versus a scalar
daily total.

The cohort here is built so the response depends on the *shape* of each
subject's activity distribution while every subject shares the same mean
intensity. The scalar total-activity baseline is blind to that signal; the
quantile representation under the Wasserstein distance is not. Survey
weights from an unequal-probability design enter both the kernel ridge
solution and the leave-one-out R-square.
"""

import numpy as np

from actidist import (
    compare_r2,
    draw_sample,
    krr_fit,
    krr_predict,
    simulate_population,
    survey_sample_from_subjects,
)
from actidist.datagen import StratifiedDesign, spread_response_spec

# A finite population of 150 subjects; survey sample keeps 80%.
population, truth = simulate_population(spread_response_spec(150, seed=11))
subjects = draw_sample(population, StratifiedDesign({"all": 0.8}), seed=12)
print(f"population {len(population)}, sample {len(subjects)}, "
      f"weights all {subjects[0].survey_weight:.3f}")

dist_sample = survey_sample_from_subjects(subjects, "quantiles", "response", m=200)
tac_sample = survey_sample_from_subjects(subjects, "tac", "response")

result = compare_r2(dist_sample, tac_sample)
print("\nleave-one-out survey R-square")
print(f"  quantile representation : {result.distribution.r2:6.3f} "
      f"(lambda {result.distribution.lam:g}, sigma {result.distribution.sigma:.1f})")
print(f"  daily-total baseline    : {result.tac.r2:6.3f} "
      f"(lambda {result.tac.lam:g}, sigma {result.tac.sigma:.1f})")

# Fit the final distributional model and score a held-out subject.
model = krr_fit(dist_sample, result.distribution.lam,
                sigma=result.distribution.sigma)
held_out = [s for s in population
            if s.subject_id not in {t.subject_id for t in subjects}][0]
held_sample = survey_sample_from_subjects([held_out], "quantiles", "response",
                                          m=200)
pred = krr_predict(model, held_sample.predictors[0])
print(f"\nheld-out subject {held_out.subject_id}: "
      f"true response {held_out.covariates['response']:.3f}, "
      f"predicted {pred:.3f}")
