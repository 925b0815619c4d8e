"""From raw activity readings to a mixed-distribution profile.

A subject's minute-level accelerometer counts become three linked objects:
the probability of inactivity, the quantile function of the full mixed
distribution, and a smoothed density of the active part. Censoring variants
(inactive range collapsed to a cutoff, high intensities truncated) reuse the
same machinery.
"""

import numpy as np

from actidist import (
    ActivitySeries,
    CensorSpec,
    build_mixed,
    inactive_proportion,
    tac_per_day,
)


def active_density_mass(active_values, p_inactive):
    """Silverman bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5) of the active
    readings, and the trapezoid mass of their Gaussian density, scaled by
    1 - p_inactive, on 512 points spanning them plus four bandwidths."""
    n = active_values.size
    sd = np.std(active_values, ddof=1)
    iqr = np.percentile(active_values, 75) - np.percentile(active_values, 25)
    h = 0.9 * min(sd, iqr / 1.34) * n ** (-0.2)
    x = np.linspace(max(active_values.min() - 4 * h, 1e-12), active_values.max() + 4 * h, 512)
    z = (active_values[None, :] - x[:, None]) / h
    density = np.exp(-0.5 * z * z).sum(axis=1) / (n * h * np.sqrt(2 * np.pi))
    return h, np.trapezoid((1 - p_inactive) * density, x)


rng = np.random.default_rng(42)

# Two synthetic days of one-minute readings: mostly idle, bursts of movement.
minutes = 2 * 1440
active = rng.random(minutes) > 0.62
readings = np.where(active, rng.lognormal(mean=5.2, sigma=1.15, size=minutes), 0.0)
subject = ActivitySeries(
    subject_id="demo-1",
    timestamps=np.arange(minutes, dtype=float),
    readings=readings,
    survey_weight=1.0,
    covariates={"age": 71},
)

print(f"subject {subject.subject_id}: {subject.n_obs} readings over "
      f"{subject.n_obs / 1440:.1f} days")
print(f"  fraction of idle minutes     {inactive_proportion(subject):.3f}")
print(f"  total activity count per day {tac_per_day(subject):,.0f}")

# The full mixed distribution on a 500-point quantile grid. Levels below the
# inactivity probability sit exactly at the atom.
mixed = build_mixed(subject, m=500)
q = mixed.quantiles
print(f"\nmixed distribution: p_inactive = {mixed.p_inactive:.3f}, "
      f"atom at {mixed.atom_value}")
for level in (0.25, 0.5, 0.75, 0.9, 0.99):
    k = int(level * q.m)
    print(f"  quantile {level:4.2f}  ->  {q.values[k]:8.1f}")

h, mass = active_density_mass(readings[readings > 0], inactive_proportion(subject))
print(f"\nactive-part density: bandwidth {h:.1f}, "
      f"mass {mass:.3f} (should be close to "
      f"{1 - mixed.p_inactive:.3f})")

# Censored variants: counts up to 100 treated as inactive, and a second
# version additionally truncating everything above 3500.
for censor in (CensorSpec(lower=100), CensorSpec(lower=100, upper=3500)):
    variant = build_mixed(subject, censor=censor, m=500)
    top = variant.quantiles.values[-1]
    print(f"censored {censor.lower}..{censor.upper}: "
          f"p_inactive = {variant.p_inactive:.3f}, top quantile = {top:.0f}")
