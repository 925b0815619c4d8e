"""Synthetic finite populations with known ground truth, plus survey designs.

Populations are built stratum by stratum: each subject's minute readings are
i.i.d. draws that are zero with the subject's inactivity rate and otherwise
follow the stratum's positive intensity law. All randomness flows from the
explicit seed through per-subject derived streams, so generation is
deterministic regardless of evaluation order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import io
from .distribution import ActivitySeries, _real, _whole, tac_per_day


# each kind of IntensityLaw: its number of parameters and the rule they obey,
# as a check and in words
_LAW_PARAMS = {
    "lognormal": (2, lambda mu, s: s >= 0, "sigma >= 0"),
    "gamma": (2, lambda shape, scale: shape > 0 and scale > 0, "shape > 0 and scale > 0"),
    "lognormal_fixed_mean": (3, lambda level, lo, hi: level > 0 and 0 <= lo <= hi,
                             "mean_level > 0 and 0 <= s_lo <= s_hi"),
}


@dataclass(frozen=True)
class IntensityLaw:
    """Positive intensity law for active minutes.

    kinds:
      lognormal(mu, sigma)
      gamma(shape, scale)
      lognormal_fixed_mean(mean_level, s_lo, s_hi): per-subject spread s drawn
        uniformly from [s_lo, s_hi] with mu = log(mean_level) - s^2/2, so every
        subject shares the same mean intensity while the shape varies.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _LAW_PARAMS:
            raise ValueError(f"unknown intensity law {self.kind!r}")
        n, obeys, rule = _LAW_PARAMS[self.kind]
        if len(self.params) != n:
            raise ValueError(f"{self.kind} takes {n} params, got {len(self.params)}")
        if not (all(map(_real, self.params)) and obeys(*self.params)):
            raise ValueError(f"{self.kind} params must be finite numbers with {rule}")
        # numpy takes a Python int beyond int64 as an object, not a number
        object.__setattr__(self, "params", tuple(map(float, self.params)))


@dataclass(frozen=True)
class ResponseModel:
    """Per-stratum rule mapping a generated subject to a scalar response.

    kinds: "tac" (scale * daily total + noise), "spread" (scale * the
    subject's intensity spread parameter + noise).
    """

    kind: str
    scale: float = 1.0
    noise_sd: float = 0.0

    def __post_init__(self):
        if self.kind not in ("tac", "spread"):
            raise ValueError(f"unknown response model {self.kind!r}")
        if not _real(self.scale):
            raise ValueError(f"scale must be a finite number, got {self.scale!r}")
        if not (_real(self.noise_sd) and self.noise_sd >= 0):
            raise ValueError(f"noise_sd must be a finite number >= 0, got {self.noise_sd!r}")


@dataclass(frozen=True)
class StratumSpec:
    name: str
    proportion: float
    inactivity_range: tuple
    intensity: IntensityLaw
    age_range: tuple = (68, 85)
    mortality_rate: float = 0.0
    response: ResponseModel | None = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"stratum name must be a non-empty string, got {self.name!r}")
        for name in ("inactivity_range", "age_range"):
            size = len(getattr(self, name))
            if size != 2:
                raise ValueError(f"{name} must be 2 values, got {size}")
        lo, hi = self.inactivity_range
        if not (all(map(_real, (lo, hi))) and 0 <= lo <= hi <= 1):
            raise ValueError("inactivity_range must satisfy 0 <= lo <= hi <= 1")
        lo, hi = self.age_range
        if not (all(map(_whole, (lo, hi))) and lo <= hi):
            raise ValueError(f"age_range must be whole numbers lo <= hi, got {[lo, hi]!r}")
        if not (_real(self.mortality_rate) and 0 <= self.mortality_rate <= 1):
            raise ValueError("mortality_rate must lie in [0, 1]")


@dataclass(frozen=True)
class PopulationSpec:
    size: int
    strata: tuple
    minutes: int = 1440
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "strata", tuple(self.strata))
        for name, least in (("size", 1), ("minutes", 2), ("seed", 0)):
            value = getattr(self, name)
            if not (_whole(value) and value >= least):
                raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")
            # numpy takes only an int as a slice bound, a length or a seed
            object.__setattr__(self, name, int(value))
        # _allocate counts the subjects in int64
        if self.size > np.iinfo(np.int64).max:
            raise ValueError(f"size must fit in int64, got {self.size}")
        props = [s.proportion for s in self.strata]
        if not (props and all(_real(p) and p >= 0 for p in props)
                and abs(sum(props) - 1.0) <= 1e-9):
            raise ValueError("stratum proportions must be nonnegative numbers that sum to 1")
        names = [s.name for s in self.strata]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(f"stratum names repeat: {', '.join(repeated)}")


def _allocate(size: int, proportions) -> list[int]:
    """Largest-remainder allocation of `size` units to the strata."""
    exact = np.asarray(proportions) * size
    counts = np.floor(exact).astype(int)
    remainder = size - counts.sum()
    order = np.argsort(-(exact - counts), kind="stable")
    for idx in order[:remainder]:
        counts[idx] += 1
    return counts.tolist()


def _draw_subject(rng, stratum: StratumSpec, minutes: int):
    """Readings plus the subject's true latent parameters."""
    lo, hi = stratum.inactivity_range
    rate = float(rng.uniform(lo, hi)) if hi > lo else float(lo)

    law = stratum.intensity
    if law.kind == "lognormal":
        mu, s = law.params
    elif law.kind == "lognormal_fixed_mean":
        mean_level, s_lo, s_hi = law.params
        s = float(rng.uniform(s_lo, s_hi))
        mu = float(np.log(mean_level) - 0.5 * s * s)
    else:
        shape, scale = law.params

    inactive = rng.random(minutes) < rate
    if law.kind == "gamma":
        readings = rng.gamma(shape, scale, size=minutes)
        spread = float(np.sqrt(shape) * scale)
    else:
        readings = rng.lognormal(mu, s, size=minutes)
        spread = float(s)
    # in place, so that no second float array of `minutes` values is made
    np.maximum(readings, 1e-9, out=readings)
    np.putmask(readings, inactive, 0.0)
    return readings, rate, spread


def _evaluate_response(rng, model: ResponseModel, series: ActivitySeries,
                       spread: float) -> float:
    noise = model.noise_sd * rng.standard_normal() if model.noise_sd > 0 else 0.0
    value = tac_per_day(series) if model.kind == "tac" else spread
    return model.scale * value + noise


def simulate_population(spec: PopulationSpec):
    """Generate the finite population and its true summary means.

    Returns (subjects, truth) where truth maps each numeric covariate name
    to its exact finite-population mean. Every subject's timestamps are one
    shared read-only array.
    """
    counts = _allocate(spec.size, [s.proportion for s in spec.strata])
    timestamps = np.arange(spec.minutes, dtype=float)
    timestamps.setflags(write=False)
    subjects = []
    index = 0
    for stratum, count in zip(spec.strata, counts):
        for _ in range(count):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,)))
            readings, rate, spread = _draw_subject(rng, stratum, spec.minutes)
            age = int(rng.integers(stratum.age_range[0], stratum.age_range[1] + 1))
            mortality = int(rng.random() < stratum.mortality_rate)
            covariates = {
                "stratum": stratum.name,
                "age": age,
                "mortality": mortality,
                "inactivity_rate": rate,
                "intensity_spread": spread,
            }
            try:
                series = ActivitySeries(
                    subject_id=f"S{index:05d}",
                    timestamps=timestamps,
                    readings=readings,
                    survey_weight=1.0,
                    covariates=covariates,
                )
            except ValueError as exc:  # params whose draws a float cannot hold
                kind = stratum.intensity.kind
                raise ValueError(f"stratum {stratum.name!r}, {kind} intensity: {exc}") from None
            if stratum.response is not None:
                covariates["response"] = float(
                    _evaluate_response(rng, stratum.response, series, spread))
            subjects.append(series)
            index += 1

    numeric = [
        name
        for name in subjects[0].covariates
        if all(isinstance(s.covariates.get(name), (int, float)) for s in subjects)
    ]
    truth = {name: float(np.mean([s.covariates[name] for s in subjects]))
             for name in numeric}
    return subjects, truth


@dataclass(frozen=True)
class StratifiedDesign:
    """Fixed-size without-replacement sampling with per-stratum fractions.

    Every unit in a stratum shares the exact inclusion probability
    n_s / N_s, where n_s = round(fraction * N_s).
    """

    fractions: dict

    def __post_init__(self):
        if not self.fractions:
            raise ValueError("fractions must name at least one stratum")
        for name, f in self.fractions.items():
            if not (_real(f) and 0 < f <= 1):
                raise ValueError(f"fraction for stratum {name!r} must be a number in (0, 1], "
                                 f"got {f!r}")


@dataclass(frozen=True)
class PoissonDesign:
    """Independent Bernoulli sampling with size-proportional probabilities.

    pi_i = expected_n * size_i / sum(size); with no size covariate every
    unit gets the equal probability expected_n / N.
    """

    expected_n: int
    size_covariate: str | None = None

    def __post_init__(self):
        if not (_whole(self.expected_n) and self.expected_n >= 1):
            raise ValueError(f"expected_n must be a whole number >= 1, "
                             f"got {self.expected_n!r}")
        if not (self.size_covariate is None
                or (isinstance(self.size_covariate, str) and self.size_covariate)):
            raise ValueError(f"size_covariate must be None or a non-empty string, "
                             f"got {self.size_covariate!r}")


class _PlacedError(ValueError):
    """A config error whose message already names where it sits."""


def _from_config(cls, obj, where: str, parse=None, **given):
    """A `cls` from the JSON object `obj` at `where` in a simulate config: its
    keys are the fields of `cls` not `given`, required where the field has no
    default, and a value goes through parse[field] or the io.FROM_JSON
    converter of its annotation. A value the converter or `cls` rejects is
    named with its key and place."""
    if not isinstance(obj, dict):
        raise _PlacedError(f"{where} must be a JSON object")
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    unknown = sorted(set(obj) - {f.name for f in fields})
    missing = [f.name for f in fields
               if f.name not in obj and f.default is dataclasses.MISSING]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise _PlacedError(f"{problem} config keys in {where}: {', '.join(keys)}")
    parse = parse or {}
    for f in fields:
        if f.name in obj:
            convert = parse.get(f.name) or io.FROM_JSON.get(f.type, lambda v: v)
            try:
                given[f.name] = convert(obj[f.name])
            except _PlacedError:
                raise
            except (TypeError, ValueError) as exc:
                raise _PlacedError(f"{where}.{f.name}: {exc}") from exc
    try:
        return cls(**given)
    except (TypeError, ValueError) as exc:
        raise _PlacedError(f"{where}: {exc}") from exc


def _stratum_from_config(entry, where: str) -> StratumSpec:
    return _from_config(StratumSpec, entry, where, parse={
        "intensity": lambda v: _from_config(IntensityLaw, v, f"{where}.intensity"),
        "response": lambda v: (None if v is None else
                               _from_config(ResponseModel, v, f"{where}.response")),
    })


def population_from_config(population, seed: int) -> PopulationSpec:
    """The spec of a simulate config's `population` object and top-level `seed`."""
    if not isinstance(population, dict) or "strata" not in population:
        raise ValueError("config must define population.strata")
    return _from_config(PopulationSpec, population, "population", seed=seed, parse={
        "strata": lambda strata: tuple(_stratum_from_config(entry, f"population.strata[{k}]")
                                       for k, entry in enumerate(strata)),
    })


_DESIGNS = {"stratified": StratifiedDesign, "poisson": PoissonDesign}


def design_from_config(design, spec: PopulationSpec):
    """The design of a simulate config's `design` object: `kind` picks the
    class, the other keys are its fields, and fractions name strata of `spec`."""
    if not isinstance(design, dict) or "kind" not in design:
        raise ValueError("config must define design.kind")
    kind = design["kind"]
    if not isinstance(kind, str) or kind not in _DESIGNS:
        raise ValueError(f"unknown design kind {kind!r}")
    out = _from_config(_DESIGNS[kind], {k: v for k, v in design.items() if k != "kind"},
                       f"{kind} design")
    unknown = set(getattr(out, "fractions", ())) - {s.name for s in spec.strata}
    if unknown:
        raise ValueError(f"stratified design: fraction for stratum {min(unknown)!r}, "
                         f"which population.strata does not name")
    return out


def _stratum_indices(population) -> dict:
    groups: dict = {}
    for i, subject in enumerate(population):
        groups.setdefault(subject.covariates.get("stratum", "all"), []).append(i)
    return groups


def _stratum_take(design: StratifiedDesign, name, n_s: int) -> int:
    """Units a stratified design draws from stratum `name` of n_s units;
    pi and draw_sample both use it, so the draw matches the probabilities."""
    return max(1, round(design.fractions[name] * n_s))


def inclusion_probabilities(population, design) -> np.ndarray:
    """Per-unit inclusion probability pi_i implied by the design."""
    n = len(population)
    pi = np.zeros(n)
    if isinstance(design, StratifiedDesign):
        groups = _stratum_indices(population)
        missing = set(groups) - set(design.fractions)
        if missing:
            raise ValueError(f"design omits strata: {sorted(missing)}")
        for name, idx in groups.items():
            pi[idx] = _stratum_take(design, name, len(idx)) / len(idx)
        return pi
    if isinstance(design, PoissonDesign):
        name = design.size_covariate
        if name is None:
            size = np.ones(n)
        else:
            values = [s.covariates.get(name) for s in population]
            for s, value in zip(population, values):
                if not (_real(value) and value > 0):
                    raise ValueError(f"size covariate {name!r} must be a positive number, "
                                     f"got {value!r} for subject {s.subject_id}")
            size = np.asarray(values, dtype=float)
        pi = design.expected_n * size / size.sum()
        if np.any(pi > 1):
            raise ValueError("expected sample size too large for size measure")
        return pi
    raise TypeError(f"unknown design {type(design).__name__}")


def draw_sample(population, design, seed: int):
    """Draw one survey sample; selected subjects carry weight exactly 1/pi_i.

    Stratified designs take a fixed-size simple random sample within each
    stratum; Poisson designs flip an independent coin per unit.
    """
    pi = inclusion_probabilities(population, design)
    rng = np.random.default_rng(seed)

    if isinstance(design, StratifiedDesign):
        selected = []
        for name, idx in sorted(_stratum_indices(population).items()):
            chosen = rng.choice(len(idx), size=_stratum_take(design, name, len(idx)),
                                replace=False)
            selected.extend(idx[int(c)] for c in chosen)
        selected = sorted(selected)
    else:
        selected = np.flatnonzero(rng.random(len(population)) < pi).tolist()

    if not selected:
        raise ValueError("empty sample; increase n")

    sample = []
    for i in selected:
        subject = population[i]
        weight = 1.0 / pi[i]
        sample.append(dataclasses.replace(
            subject,
            survey_weight=weight,
            covariates={**subject.covariates, "pi": float(pi[i])},
        ))
    return sample


# Preset populations used by the verification suite and the demo scripts.

def spread_response_spec(size: int, seed: int, minutes: int = 1440) -> PopulationSpec:
    """Cohort whose response is the intensity spread while every subject
    shares the same mean intensity, so the daily total carries essentially
    no signal about the response."""
    stratum = StratumSpec(
        name="all",
        proportion=1.0,
        inactivity_range=(0.55, 0.55),
        intensity=IntensityLaw("lognormal_fixed_mean", (80.0, 0.3, 1.5)),
        response=ResponseModel("spread", scale=1.0),
    )
    return PopulationSpec(size=size, strata=(stratum,), minutes=minutes, seed=seed)


def tac_response_spec(size: int, seed: int, minutes: int = 1440) -> PopulationSpec:
    """Cohort whose response is exactly proportional to the daily total."""
    stratum = StratumSpec(
        name="all",
        proportion=1.0,
        inactivity_range=(0.2, 0.8),
        intensity=IntensityLaw("lognormal", (4.0, 0.8)),
        response=ResponseModel("tac", scale=0.01),
    )
    return PopulationSpec(size=size, strata=(stratum,), minutes=minutes, seed=seed)


def two_cluster_spec(size: int, seed: int, minutes: int = 720) -> PopulationSpec:
    """Two well-separated activity profiles with pure mortality labels."""
    frail = StratumSpec(
        name="frail",
        proportion=0.5,
        inactivity_range=(0.82, 0.90),
        intensity=IntensityLaw("lognormal", (2.8, 0.5)),
        age_range=(76, 85),
        mortality_rate=1.0,
    )
    active = StratumSpec(
        name="active",
        proportion=0.5,
        inactivity_range=(0.20, 0.30),
        intensity=IntensityLaw("lognormal", (5.6, 0.5)),
        age_range=(68, 75),
        mortality_rate=0.0,
    )
    return PopulationSpec(size=size, strata=(frail, active), minutes=minutes, seed=seed)


def three_stratum_spec(size: int = 5000, seed: int = 0,
                       minutes: int = 4) -> PopulationSpec:
    """Small-series population with age strongly tied to stratum, used to
    demonstrate design bias when weights are ignored."""
    strata = (
        StratumSpec("young", 0.4, (0.3, 0.5),
                    IntensityLaw("gamma", (2.0, 60.0)), age_range=(68, 72)),
        StratumSpec("mid", 0.4, (0.4, 0.6),
                    IntensityLaw("gamma", (2.0, 45.0)), age_range=(73, 79)),
        StratumSpec("old", 0.2, (0.5, 0.8),
                    IntensityLaw("gamma", (2.0, 25.0)), age_range=(80, 85)),
    )
    return PopulationSpec(size=size, strata=strata, minutes=minutes, seed=seed)
