"""Exact stratified matching.

Within every stratum defined by (recruitment channel) x (10-year age bin) x
(gender) x (a configured list of binary covariates), the output keeps equal
numbers of positive and negative records: min(n_pos, n_neg) of each class,
with the majority class downsampled uniformly without replacement. Strata
where either class is absent are dropped entirely.

Balancing makes every matched covariate exactly independent of the label in
the output: for any function of the stratum key, its empirical distribution
given label=1 equals that given label=0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

from .cohort import ACUTE_SYMPTOM_FIELDS, SYMPTOM_FIELDS, Cohort, ParticipantRecord, SymptomProfile
from .errors import ConfigError, EmptyResult, MissingCovariate, OverlappingInputs
from .rngs import draw_sorted

AGE_BIN_WIDTH = 10
AGE_BIN_START = 18
AGE_OPEN_BIN_START = 78  # 18-27, 28-37, ..., 68-77, 78+

# Covariates matched in held-out test sets: the five acute flags plus the
# derived any-symptom aggregate (new_continuous_cough is captured by the
# aggregate).
TEST_SET = (
    "cough",
    "sore_throat",
    "asthma",
    "shortness_of_breath",
    "runny_blocked_nose",
    "any_symptom",
)

# Covariates matched in training sets: looser on the aggregate, but adds the
# chronic-condition and smoker flags.
TRAIN_SET = (
    "cough",
    "sore_throat",
    "asthma",
    "shortness_of_breath",
    "runny_blocked_nose",
    "copd_emphysema",
    "smoker",
)


@lru_cache(maxsize=1024, typed=True)
def age_bin(age_years: int) -> str:
    """10-year bins anchored at 18 with an open final bin (memoised: ages
    take few distinct values)."""
    if age_years >= AGE_OPEN_BIN_START:
        return f"{AGE_OPEN_BIN_START}+"
    lo = AGE_BIN_START + AGE_BIN_WIDTH * ((age_years - AGE_BIN_START) // AGE_BIN_WIDTH)
    return f"{lo}-{lo + AGE_BIN_WIDTH - 1}"


@dataclass(frozen=True)
class MatchSpec:
    """Each covariate is one of ``SYMPTOM_FIELDS`` or ``any_symptom``; an
    empty list or another name raises ``ConfigError``."""

    covariates: tuple[str, ...] = TEST_SET
    include_channel: bool = True
    seed: int = 0

    def __post_init__(self):
        if not self.covariates:
            raise ConfigError("covariates", "must be nonempty")
        unknown = next((n for n in self.covariates if n not in SYMPTOM_FIELDS and n != "any_symptom"), None)
        if unknown is not None:
            raise ConfigError("covariates", f"unknown covariate {unknown!r}; choose from "
                              f"{', '.join(SYMPTOM_FIELDS)}, any_symptom")
        object.__setattr__(self, "covariates", tuple(self.covariates))


def stratum_keyer(spec: MatchSpec):
    """``record -> stratum key`` for ``spec``. Every record maps to exactly
    one stratum; a record without an age, or with a blank flag behind a
    matched covariate (for ``any_symptom``, any acute flag), raises
    ``MissingCovariate``."""
    names = spec.covariates
    get = attrgetter(*names)
    read_flags = get if len(names) > 1 else lambda symptoms: (get(symptoms),)
    needed = [ACUTE_SYMPTOM_FIELDS if n == "any_symptom" else (n,) for n in names]
    include_channel = spec.include_channel
    # flag part of the key per profile object (profiles are shared), cached
    # only once its blank flags are checked; each entry holds its profile,
    # so the id cannot be reused while it is cached
    parts: dict[int, tuple[SymptomProfile, tuple[int, ...]]] = {}

    def key(record: ParticipantRecord) -> tuple:
        if record.age_years is None:
            raise MissingCovariate("age_years")
        symptoms = record.symptoms
        part = parts.get(id(symptoms))
        if part is None:
            for name, flags in zip(names, needed):
                if not symptoms.missing.isdisjoint(flags):
                    raise MissingCovariate(name)
            part = parts[id(symptoms)] = (symptoms, tuple(map(int, map(bool, read_flags(symptoms)))))
        if include_channel:
            return (record.channel, age_bin(record.age_years), record.gender, *part[1])
        return (age_bin(record.age_years), record.gender, *part[1])

    return key


def stratum_order(key: tuple) -> tuple[str, ...]:
    """A stratum key as strings: the order of every listing of strata or
    cells, and the ``key`` lists of the JSON reports."""
    return tuple(map(str, key))


def stratum_label(key: tuple) -> str:
    """A stratum key as one table cell, its parts joined by ``|``."""
    return "|".join(stratum_order(key))


@dataclass(frozen=True)
class StratumBalance:
    key: tuple
    n_pos_in: int
    n_neg_in: int
    n_kept_per_class: int


@dataclass(frozen=True)
class BalanceReport:
    strata: tuple[StratumBalance, ...]  # lexicographic key order
    n_kept: int
    n_dropped: int

    def to_dict(self) -> dict:
        return {
            "n_kept": self.n_kept,
            "n_dropped": self.n_dropped,
            "strata": [
                {
                    "key": list(stratum_order(s.key)),
                    "n_pos_in": s.n_pos_in,
                    "n_neg_in": s.n_neg_in,
                    "n_kept_per_class": s.n_kept_per_class,
                }
                for s in self.strata
            ],
        }


def match_exact(
    cohort: Cohort,
    spec: MatchSpec,
    disjoint_from: Cohort | None = None,
) -> tuple[Cohort, BalanceReport]:
    """Balance class counts exactly within every stratum.

    The majority class is subsampled by ``rngs.draw_sorted`` under the tokens
    ("match", stratum key), over members sorted by id, so the retained id
    set does not depend on the input ordering. ``disjoint_from`` guards
    against reusing participants across matched train/test constructions: any
    overlap is an error rather than a silent exclusion.
    """
    if disjoint_from is not None:
        overlap = set(cohort.ids()) & set(disjoint_from.ids())
        if overlap:
            raise OverlappingInputs(
                f"{len(overlap)} participant(s) appear in both inputs, e.g. {sorted(overlap)[:3]}"
            )

    key_of = stratum_keyer(spec)
    strata: dict[tuple, dict[int, list[str]]] = {}
    for r in cohort.records:
        if r.label is None:
            raise MissingCovariate("label")
        key = key_of(r)
        members = strata.get(key)
        if members is None:
            members = strata[key] = {0: [], 1: []}
        members[r.label].append(r.id)

    kept_ids: set[str] = set()
    balances: list[StratumBalance] = []
    for key in sorted(strata, key=stratum_order):
        pos, neg = strata[key][1], strata[key][0]
        m = min(len(pos), len(neg))
        balances.append(StratumBalance(key, len(pos), len(neg), m))
        # only a class of more than m > 0 members draws: one draw per stratum substream at most
        for members in (pos, neg):
            kept_ids.update(draw_sorted(members, m, spec.seed, "match", key))

    if not kept_ids:
        raise EmptyResult("every stratum lacked one of the classes")

    out = cohort.derive(
        (r for r in cohort.records if r.id in kept_ids), "match_exact",
        seed=spec.seed, covariates=list(spec.covariates), include_channel=spec.include_channel,
    )
    return out, BalanceReport(strata=tuple(balances), n_kept=len(out), n_dropped=len(cohort) - len(out))
