"""Seeded generative simulator of recruitment under different enrolment regimes.

The generator draws a latent population in which infection status causes
acute symptoms, and symptoms (jointly with status) drive enrolment. Because
enrolment is a collider between status and symptoms, conditioning on it (i.e.
keeping only enrolled individuals) induces a non-causal status-to-symptom
dependence that downstream tooling can measure and correct. The true signal
is the label itself, scaled onto the first feature coordinate, so probe and
classifier behaviour can be checked against a known answer; ``synth --truth``
writes it as the ``latent_signal`` column, ``w(y)`` below.

Feature model: ``x = alpha * w(y) * e1 + beta * g(covariates) + N(0, sigma^2 I)``
where ``w(1)=1, w(0)=0`` and ``g`` embeds the audible covariates (see
``_EMBEDDED_COVARIATES``) as +/-1 codes (age scaled to [-1, 1]) times
per-covariate loading vectors drawn once from the master seed. The
true-signal subspace is therefore exactly ``e1`` and the confounded subspace
is the span of the loadings.

Acute symptoms are sampled in two stages: the any-symptom indicator is drawn
first with its configured per-class rate (so those rates hold exactly), and
symptomatic individuals then draw each of the six acute flags at a per-class
richness rate (at least one flag is forced on). Positive cases report richer
symptom profiles than symptomatic negatives, so matching on the aggregate
alone leaves profile-level structure behind; matching on every flag removes
it entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohort import (
    ACUTE_SYMPTOM_FIELDS,
    Cohort,
    ParticipantRecord,
    derive_any_symptom,
    gc_paused,
    make_manifest,
    symptom_profile,
)
from .errors import ConfigError, EmptyEnrolment, EmptyResult
from .matching import TEST_SET, MatchSpec, match_exact
from .rngs import substream

ENROLMENT_MODES = ("symptoms_based", "random", "matched")
# the SynthConfig fields that are probabilities or enrolment weights
_PROBABILITIES = ("p_sym_given_pos", "p_sym_given_neg", "flag_rate_pos", "flag_rate_neg",
                  "w_sym_pos", "w_asym_pos", "w_sym_neg", "w_asym_neg", "random_p")

# Chronic-condition base rates, independent of infection status.
P_COPD = 0.08
P_SMOKER = 0.25
P_OTHER_RESP = 0.05

# Covariates that leak into the feature space: five audible acute flags
# (a new continuous cough is treated as not separately audible), chronic
# conditions, smoker status, and demographics.
_EMBEDDED_COVARIATES = (
    "cough",
    "sore_throat",
    "asthma",
    "shortness_of_breath",
    "runny_blocked_nose",
    "copd_emphysema",
    "other_respiratory",
    "smoker",
    "gender",
    "age",
)


@dataclass(frozen=True)
class SynthConfig:
    n_population: int = 10_000
    prevalence: float = 0.02
    p_sym_given_pos: float = 0.65
    p_sym_given_neg: float = 0.20
    # per-flag richness given any_symptom=1: infected cases report fuller
    # symptom profiles than symptomatic non-cases
    flag_rate_pos: float = 0.5
    flag_rate_neg: float = 0.25
    enrolment: str = "symptoms_based"
    # enrolment probability per (symptomatic?, positive?) cell; illustrative
    # defaults chosen to induce a strong symptom-status dependence under
    # symptoms-based enrolment, not calibrated to any real programme
    w_sym_pos: float = 0.9
    w_asym_pos: float = 0.1
    w_sym_neg: float = 0.3
    w_asym_neg: float = 0.05
    random_p: float = 0.5
    signal_strength: float = 0.0  # alpha
    confounder_strength: float = 0.0  # beta
    feature_dim: int = 8
    noise_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        """Raise ``ConfigError`` naming the first field out of its range."""
        if self.n_population < 1:
            raise ConfigError("n_population", "must be >= 1")
        if not (0.0 < self.prevalence < 1.0):
            raise ConfigError("prevalence", "must lie in (0, 1)")
        for name in _PROBABILITIES:
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(name, "must lie in [0, 1]")
        for name in ("signal_strength", "confounder_strength"):
            if not getattr(self, name) >= 0.0:
                raise ConfigError(name, "must be >= 0")
        if self.feature_dim < 1:
            raise ConfigError("feature_dim", "must be >= 1")
        if not self.noise_sd > 0.0:
            raise ConfigError("noise_sd", "must be > 0")
        if self.enrolment not in ENROLMENT_MODES:
            raise ConfigError("enrolment", f"must be one of {', '.join(ENROLMENT_MODES)}")


@dataclass(slots=True)
class SynthRecord:
    record: ParticipantRecord


def covariate_loadings(cfg: SynthConfig) -> np.ndarray:
    """Per-covariate loading vectors, drawn once from the seed.

    Rows follow ``_EMBEDDED_COVARIATES``; entries are N(0, 1/D) so each
    loading vector has unit expected norm regardless of feature_dim.
    """
    rng = substream(cfg.seed, "loadings")
    return rng.normal(0.0, 1.0 / np.sqrt(cfg.feature_dim), size=(len(_EMBEDDED_COVARIATES), cfg.feature_dim))


def generate_population(cfg: SynthConfig) -> list[SynthRecord]:
    """Draw the latent population; nobody is enrolled yet."""
    rng = substream(cfg.seed, "population")
    n, d = cfg.n_population, cfg.feature_dim
    n_flags = len(ACUTE_SYMPTOM_FIELDS)

    y = (rng.random(n) < cfg.prevalence).astype(int)
    any_sym = rng.random(n) < np.where(y == 1, cfg.p_sym_given_pos, cfg.p_sym_given_neg)
    richness = np.where(y == 1, cfg.flag_rate_pos, cfg.flag_rate_neg)
    acute = (rng.random((n, n_flags)) < richness[:, None]) & any_sym[:, None]
    empty = np.nonzero(any_sym & ~acute.any(axis=1))[0]
    acute[empty, rng.integers(0, n_flags, size=empty.size)] = True
    copd = rng.random(n) < P_COPD
    smoker = rng.random(n) < P_SMOKER
    other_resp = rng.random(n) < P_OTHER_RESP
    age = rng.integers(18, 81, size=n)
    male = rng.random(n) < 0.5

    # +/-1 covariate codes, one column per embedded covariate
    codes = np.empty((n, len(_EMBEDDED_COVARIATES)))
    flags = np.column_stack([acute[:, :5], copd, other_resp, smoker])
    codes[:, :8] = 2.0 * flags - 1.0
    codes[:, 8] = np.where(male, 1.0, -1.0)
    codes[:, 9] = (age - 49.0) / 31.0

    loadings = covariate_loadings(cfg)
    features = rng.normal(0.0, cfg.noise_sd, size=(n, d))
    features += cfg.confounder_strength * codes @ loadings
    features[:, 0] += cfg.signal_strength * y.astype(float)

    # symptom flags in SYMPTOM_FIELDS order, one shared profile per distinct row
    flag_rows = np.column_stack([acute, copd, other_resp, smoker])
    row_codes = flag_rows @ (1 << np.arange(flag_rows.shape[1]))
    _, first, inverse = np.unique(row_codes, return_index=True, return_inverse=True)
    shared = [symptom_profile(tuple(row)) for row in flag_rows[first].tolist()]
    profiles = map(shared.__getitem__, inverse.tolist())
    genders = ["male" if m else "female" for m in male.tolist()]
    with gc_paused():
        return [
            SynthRecord(record=ParticipantRecord(
                f"syn-{i:07d}", label, profile, age_i, gender, "synthetic", features=features[i]
            ))
            for i, label, profile, age_i, gender in zip(range(n), y.tolist(), profiles, age.tolist(), genders)
        ]


def enrol(population: list[SynthRecord], cfg: SynthConfig) -> Cohort:
    """Apply the configured enrolment regime and emit the enrolled cohort.

    symptoms_based: each individual enrols with the probability of their
    (any-symptom, status) cell. random: one fixed probability for everyone.
    matched: exact per-stratum class balancing over the test-set covariates
    (age bin x gender x acute flags x any-symptom).
    """
    if not population:
        raise EmptyEnrolment("population is empty")
    rng = substream(cfg.seed, "enrol")

    if cfg.enrolment in ("symptoms_based", "random"):
        records = [sr.record for sr in population]
        if cfg.enrolment == "random":
            p = cfg.random_p
        else:
            sym = np.array([derive_any_symptom(r.symptoms) for r in records])
            pos = np.array([r.label == 1 for r in records])
            p = np.where(
                pos,
                np.where(sym, cfg.w_sym_pos, cfg.w_asym_pos),
                np.where(sym, cfg.w_sym_neg, cfg.w_asym_neg),
            )
        # one draw per person, in order: the same stream as per-person rng.random()
        kept = [records[i] for i in np.flatnonzero(rng.random(len(records)) < p).tolist()]
        if not kept:
            raise EmptyEnrolment("no individual enrolled")
        manifest = make_manifest(
            f"synth(seed={cfg.seed})", step="enrol", mode=cfg.enrolment, n=len(kept)
        )
        return Cohort(records=tuple(kept), manifest=manifest)

    # matched enrolment: balance within strata of the full population
    full = Cohort(
        records=tuple(sr.record for sr in population),
        manifest=make_manifest(f"synth(seed={cfg.seed})", step="population"),
    )
    spec = MatchSpec(covariates=TEST_SET, include_channel=False, seed=cfg.seed)
    try:
        matched, _report = match_exact(full, spec)
    except EmptyResult as exc:
        raise EmptyEnrolment(str(exc)) from exc
    return matched


def generate_cohort(cfg: SynthConfig) -> tuple[Cohort, list[SynthRecord]]:
    """Convenience wrapper: population draw followed by enrolment."""
    population = generate_population(cfg)
    cohort = enrol(population, cfg)
    return cohort, population
