"""Comparing subjects in Wasserstein space.

On quantile grids the 2-Wasserstein distance is a plain root-mean-square
gap, so cohort summaries (Frechet mean, variance, pointwise sd curves)
stay elementary. This script builds a small cohort with two activity
phenotypes and shows that the geometry separates them.
"""

from pathlib import Path

import numpy as np

from actidist import (
    ActivitySeries,
    build_mixed,
    frechet_mean,
    frechet_variance,
    pairwise_wasserstein,
    pointwise_sd_curve,
    summarize,
)
from actidist.io import write_frechet_summary_csv, write_rows

rng = np.random.default_rng(7)
OUT = Path("demo_output/geometry")
OUT.mkdir(parents=True, exist_ok=True)


def make_subject(sid, idle_rate, log_mean):
    n = 1440
    active = rng.random(n) > idle_rate
    readings = np.where(active, rng.lognormal(log_mean, 0.7, size=n), 0.0)
    return ActivitySeries(sid, np.arange(n, dtype=float), readings)


# Ten sedentary and ten active subjects.
subjects = ([make_subject(f"sed-{i}", 0.75, 4.2) for i in range(10)]
            + [make_subject(f"act-{i}", 0.35, 5.6) for i in range(10)])
grids = [build_mixed(s, m=300).quantiles for s in subjects]
ids = [s.subject_id for s in subjects]

matrix = pairwise_wasserstein(grids)
print(f"distance within the sedentary group: {matrix[0, 1]:8.1f}")
print(f"distance across the two groups:      {matrix[0, 10]:8.1f}")

write_rows(OUT / "distances.csv", ["subject_id", *ids],
           ([sid, *row.tolist()] for sid, row in zip(ids, matrix)))
print(f"wrote {OUT / 'distances.csv'} ({matrix.shape[0]}x{matrix.shape[1]})")

# Cohort summaries, overall and per group.
mean_all = frechet_mean(grids)
var_all = frechet_variance(grids, mean_all)
sd_curve = pointwise_sd_curve(grids, mean_all)
print(f"\ncohort Frechet variance: {var_all:,.0f}")
print(f"pointwise sd at the median level: {sd_curve[len(sd_curve) // 2]:.1f}")

profiles = {
    "sedentary": summarize(grids[:10]),
    "active": summarize(grids[10:]),
}
for name, summary in profiles.items():
    print(f"  {name:9s}: mean daily profile tops out at "
          f"{summary.mean.values[-1]:7.1f}, variance {summary.variance:,.0f}")
write_frechet_summary_csv(OUT / "group_profiles.csv", profiles)
print(f"wrote {OUT / 'group_profiles.csv'}")
