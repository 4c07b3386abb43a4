"""Domain types and dataset plumbing: participant records, cohorts, CSV
ingestion, validation filters, and deterministic participant-disjoint splits.

A cohort is the universal currency passed between every other module. Cohorts
are immutable after construction and all operations here are pure given their
seed, so they are safe to share across parallel workers.

Canonical CSV schema (``participants.csv``)::

    id,label,age_years,gender,channel,cough,sore_throat,asthma,
    shortness_of_breath,runny_blocked_nose,new_continuous_cough,
    copd_emphysema,other_respiratory,smoker,score

Feature vectors live in a sidecar file (``features.csv``) keyed by id with
columns ``id,f0,f1,...``; wide mixed files degrade diffing and tooling.
Unknown extra columns are preserved as categorical covariates and written
back in sorted order after ``score``.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BadValue, DuplicateId, MissingColumn, TooFewRecords

SYMPTOM_FIELDS = (
    "cough",
    "sore_throat",
    "asthma",
    "shortness_of_breath",
    "runny_blocked_nose",
    "new_continuous_cough",
    "copd_emphysema",
    "other_respiratory",
    "smoker",
)

# The six acute respiratory flags that define "at least one symptom".
# Chronic conditions (COPD/emphysema) and smoker status are excluded, as is
# "other respiratory condition".
ACUTE_SYMPTOM_FIELDS = (
    "cough",
    "sore_throat",
    "asthma",
    "shortness_of_breath",
    "runny_blocked_nose",
    "new_continuous_cough",
)

CSV_COLUMNS = ("id", "label", "age_years", "gender", "channel") + SYMPTOM_FIELDS + ("score",)

GENDERS = ("male", "female", "other")
CHANNELS = ("TT", "REACT", "synthetic")


@dataclass(frozen=True)
class SymptomProfile:
    """Per-participant symptom flags.

    ``reported_any`` optionally carries an externally supplied aggregate flag;
    it is kept only so validation can detect self-inconsistent data. The
    authoritative aggregate is always recomputed by :func:`derive_any_symptom`.
    """

    cough: bool = False
    sore_throat: bool = False
    asthma: bool = False
    shortness_of_breath: bool = False
    runny_blocked_nose: bool = False
    new_continuous_cough: bool = False
    copd_emphysema: bool = False
    other_respiratory: bool = False
    smoker: bool = False
    reported_any: bool | None = None

    @property
    def any_symptom(self) -> bool:
        return derive_any_symptom(self)

    def flag(self, name: str) -> bool:
        if name == "any_symptom":
            return self.any_symptom
        return bool(getattr(self, name))


def derive_any_symptom(s: SymptomProfile) -> bool:
    """OR over the six acute respiratory flags."""
    return any(getattr(s, f) for f in ACUTE_SYMPTOM_FIELDS)


@dataclass(frozen=True)
class ParticipantRecord:
    """One enrolled individual."""

    id: str
    label: int | None  # binary infection status; None = missing test result
    symptoms: SymptomProfile
    age_years: int | None
    gender: str  # one of GENDERS; unknown values map to "other" at load
    channel: str  # one of CHANNELS
    other_covariates: dict[str, str] = field(default_factory=dict)
    score: float | None = None
    features: np.ndarray | None = None

    def with_score(self, score: float) -> "ParticipantRecord":
        return replace(self, score=score)

    def with_features(self, features: np.ndarray) -> "ParticipantRecord":
        return replace(self, features=np.asarray(features, dtype=float))


@dataclass(frozen=True)
class Cohort:
    """Ordered collection of participant records plus a provenance manifest."""

    records: tuple[ParticipantRecord, ...]
    manifest: dict

    def __post_init__(self):
        seen = set()
        for r in self.records:
            if r.id in seen:
                raise DuplicateId(r.id)
            seen.add(r.id)
        dims = {r.features.shape[0] for r in self.records if r.features is not None}
        if len(dims) > 1:
            raise BadValue(-1, "features", f"inconsistent feature dimensions {sorted(dims)}")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def ids(self) -> list[str]:
        return [r.id for r in self.records]

    def labels(self) -> np.ndarray:
        return np.array([-1 if r.label is None else r.label for r in self.records])

    def scores(self) -> np.ndarray:
        return np.array([math.nan if r.score is None else r.score for r in self.records])

    def feature_matrix(self) -> np.ndarray:
        if any(r.features is None for r in self.records):
            raise BadValue(-1, "features", "cohort has records without feature vectors")
        return np.stack([r.features for r in self.records])

def make_manifest(source: str, **extra) -> dict:
    m = {
        "source": source,
        "created": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
    }
    m.update(extra)
    return m


def child_manifest(parent: dict, step: str, **extra) -> dict:
    m = make_manifest(parent.get("source", "unknown"), step=step, parent_steps=parent.get("step"))
    m.update(extra)
    return m


# -- CSV ingestion ----------------------------------------------------------


def _parse_bool(raw: str, row: int, column: str) -> bool | None:
    v = raw.strip().lower()
    if v == "":
        return None
    if v in ("1", "true", "yes"):
        return True
    if v in ("0", "false", "no"):
        return False
    raise BadValue(row, column, raw)


def load_cohort(path: str) -> Cohort:
    """Read a participants CSV into a cohort.

    Any header outside ``CSV_COLUMNS`` becomes an ``other_covariates``
    entry. Empty cells in optional columns yield missing values (to be
    handled by :func:`validate_cohort`); malformed non-empty cells raise
    ``BadValue`` with the 1-based data row number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for column in ("id", "label", "age_years", "gender", "channel") + SYMPTOM_FIELDS:
            if column not in header:
                raise MissingColumn(column)
        has_score = "score" in header
        extra_cols = [h for h in header if h not in CSV_COLUMNS]

        records: list[ParticipantRecord] = []
        seen: set[str] = set()
        for i, row in enumerate(reader, start=1):
            rid = (row["id"] or "").strip()
            if not rid:
                raise BadValue(i, "id", row["id"])
            if rid in seen:
                raise DuplicateId(rid)
            seen.add(rid)

            raw_label = (row["label"] or "").strip()
            if raw_label == "":
                label: int | None = None
            elif raw_label in ("0", "1"):
                label = int(raw_label)
            else:
                raise BadValue(i, "label", raw_label)

            raw_age = (row["age_years"] or "").strip()
            if raw_age == "":
                age: int | None = None
            else:
                try:
                    age = int(raw_age)
                except ValueError:
                    raise BadValue(i, "age_years", raw_age) from None

            gender = (row["gender"] or "").strip().lower()
            if gender not in GENDERS:
                gender = "other"
            channel = (row["channel"] or "").strip()
            if channel not in CHANNELS:
                raise BadValue(i, "channel", channel)

            flags = {}
            for f in SYMPTOM_FIELDS:
                flags[f] = _parse_bool(row[f] or "", i, f)
            missing_flags = [f for f, v in flags.items() if v is None]
            symptoms = SymptomProfile(**{f: bool(v) for f, v in flags.items() if v is not None})

            score: float | None = None
            if has_score:
                raw_score = (row["score"] or "").strip()
                if raw_score != "":
                    try:
                        score = float(raw_score)
                    except ValueError:
                        raise BadValue(i, "score", raw_score) from None
                    if not (0.0 <= score <= 1.0):
                        raise BadValue(i, "score", raw_score)

            other = {c: (row[c] or "").strip() for c in extra_cols}
            if missing_flags:
                other["_missing_flags"] = ",".join(missing_flags)
            records.append(
                ParticipantRecord(
                    id=rid,
                    label=label,
                    symptoms=symptoms,
                    age_years=age,
                    gender=gender,
                    channel=channel,
                    other_covariates=other,
                    score=score,
                )
            )
    manifest = make_manifest(path, rows=len(records), step="load")
    return Cohort(records=tuple(records), manifest=manifest)


# feature rows parsed per numpy call; the cells wait in one flat list of
# strings, which the cyclic garbage collector does not track
_PARSE_ROWS = 4096


def _parse_rows(cells: list[str], first_row: int, n_rows: int, dim: int) -> np.ndarray:
    """Parse ``n_rows`` rows of numeric strings; a malformed one raises ``BadValue``."""
    try:
        return np.array(cells, dtype=float).reshape(n_rows, dim)
    except ValueError:
        for k in range(n_rows):
            row = cells[k * dim : (k + 1) * dim]
            try:
                [float(v) for v in row]
            except ValueError:
                raise BadValue(first_row + k, "features", row) from None
        raise


def load_features(cohort: Cohort, path: str) -> Cohort:
    """Attach feature vectors from a sidecar ``id,f0,f1,...`` CSV.

    A malformed, NaN or infinite value, or a repeated id, raises ``BadValue``
    with the 1-based data row and the column. The manifest counts the
    feature rows that match no record and the records left without a vector.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "id":
            raise MissingColumn("id")
        dim = len(header) - 1
        row_of: dict[str, int] = {}
        blocks: list[np.ndarray] = []
        cells: list[str] = []
        for i, row in enumerate(reader, start=1):
            if len(row) - 1 != dim:
                raise BadValue(i, "features", f"expected {dim} values")
            if row[0] in row_of:
                raise BadValue(i, "id", row[0])
            row_of[row[0]] = i - 1
            cells += row[1:]
            if i % _PARSE_ROWS == 0:
                blocks.append(_parse_rows(cells, i - _PARSE_ROWS + 1, _PARSE_ROWS, dim))
                cells = []
        tail = len(row_of) % _PARSE_ROWS
        blocks.append(_parse_rows(cells, len(row_of) - tail + 1, tail, dim))
    block = np.concatenate(blocks)
    bad = np.argwhere(~np.isfinite(block))
    if bad.size:
        i, j = bad[0]
        raise BadValue(int(i) + 1, header[j + 1], float(block[i, j]))
    records = tuple(
        r.with_features(block[row_of[r.id]]) if r.id in row_of else r for r in cohort.records
    )
    matched = sum(r.id in row_of for r in cohort.records)
    manifest = child_manifest(
        cohort.manifest,
        "load_features",
        features=path,
        unmatched_feature_rows=len(row_of) - matched,
        records_without_features=len(cohort.records) - matched,
    )
    return Cohort(records=records, manifest=manifest)


def _fmt_bool(v: bool) -> str:
    return "1" if v else "0"


def _fmt_float(v: float) -> str:
    return repr(float(v))


def write_cohort(cohort: Cohort, path: str) -> None:
    """Write the canonical participants CSV (byte-stable for round-trips)."""
    extra_cols = sorted(
        {k for r in cohort.records for k in r.other_covariates if not k.startswith("_")}
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(CSV_COLUMNS) + extra_cols)
        for r in cohort.records:
            row = [
                r.id,
                "" if r.label is None else str(r.label),
                "" if r.age_years is None else str(r.age_years),
                r.gender,
                r.channel,
            ]
            row += [_fmt_bool(r.symptoms.flag(f)) for f in SYMPTOM_FIELDS]
            row.append("" if r.score is None else _fmt_float(r.score))
            row += [r.other_covariates.get(c, "") for c in extra_cols]
            writer.writerow(row)


def write_features(cohort: Cohort, path: str) -> None:
    dims = {r.features.shape[0] for r in cohort.records if r.features is not None}
    dim = dims.pop() if dims else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + [f"f{j}" for j in range(dim)])
        for r in cohort.records:
            if r.features is not None:
                writer.writerow([r.id] + [_fmt_float(x) for x in r.features])


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class FilterSpec:
    """Which quality filters to apply; all enabled by default."""

    require_label: bool = True
    require_predictors: bool = True
    min_age: int | None = 18
    check_symptom_consistency: bool = True


@dataclass(frozen=True)
class RejectionReport:
    """Counts per filter (a record may be counted under several filters)."""

    counts: dict[str, int]
    total_removed: int
    rejected_ids: tuple[str, ...]


def _violations(r: ParticipantRecord, filters: FilterSpec) -> list[str]:
    v = []
    if filters.require_label and r.label is None:
        v.append("missing_label")
    if filters.require_predictors:
        if r.age_years is None or "_missing_flags" in r.other_covariates:
            v.append("missing_predictors")
    if filters.min_age is not None and r.age_years is not None and r.age_years < filters.min_age:
        v.append(f"age<{filters.min_age}")
    if filters.check_symptom_consistency and r.symptoms.reported_any is not None:
        if r.symptoms.reported_any != r.symptoms.any_symptom:
            v.append("self_inconsistent_symptoms")
    return v


def validate_cohort(cohort: Cohort, filters: FilterSpec | None = None) -> tuple[Cohort, RejectionReport]:
    """Drop records violating any enabled filter; idempotent."""
    filters = filters or FilterSpec()
    counts: dict[str, int] = {}
    kept: list[ParticipantRecord] = []
    rejected: list[str] = []
    for r in cohort.records:
        v = _violations(r, filters)
        if v:
            rejected.append(r.id)
            for name in v:
                counts[name] = counts.get(name, 0) + 1
        else:
            kept.append(r)
    out = Cohort(
        records=tuple(kept),
        manifest=child_manifest(cohort.manifest, "validate", removed=len(rejected)),
    )
    return out, RejectionReport(counts=counts, total_removed=len(rejected), rejected_ids=tuple(rejected))


# -- splitting ----------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int


def split_cohort(cohort: Cohort, spec: SplitSpec) -> tuple[Cohort, Cohort]:
    """Deterministic participant-disjoint random split.

    ``|train| = round(train_fraction * N)`` with round-half-up; the same seed
    always reproduces the same split.
    """
    if not (0.0 < spec.train_fraction < 1.0):
        raise ValueError("train_fraction must be in (0, 1)")
    n = len(cohort.records)
    if n < 2:
        raise TooFewRecords(f"need at least 2 records, have {n}")
    n_train = int(math.floor(spec.train_fraction * n + 0.5))
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed & 0xFFFFFFFFFFFFFFFF, 0x5B17]))
    order = rng.permutation(n)
    train_idx = set(order[:n_train].tolist())
    train = tuple(r for i, r in enumerate(cohort.records) if i in train_idx)
    test = tuple(r for i, r in enumerate(cohort.records) if i not in train_idx)
    mt = child_manifest(cohort.manifest, "split_train", seed=spec.seed, fraction=spec.train_fraction)
    me = child_manifest(cohort.manifest, "split_test", seed=spec.seed, fraction=spec.train_fraction)
    return Cohort(records=train, manifest=mt), Cohort(records=test, manifest=me)
