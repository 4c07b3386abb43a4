"""Domain types and dataset plumbing: participant records, cohorts, CSV
ingestion, validation, and deterministic participant-disjoint splits.

A cohort is the universal currency passed between every other module. Cohorts
are immutable after construction and all operations here are pure given their
seed, so they are safe to share across parallel workers.

Canonical CSV schema (``participants.csv``)::

    id,label,age_years,gender,channel,cough,sore_throat,asthma,
    shortness_of_breath,runny_blocked_nose,new_continuous_cough,
    copd_emphysema,other_respiratory,smoker,score

Feature vectors live in a sidecar file (``features.csv``) keyed by id with
columns ``id,f0,f1,...``; wide mixed files degrade diffing and tooling.
An optional ``any_symptom`` column carries a self-reported aggregate flag
(see :attr:`SymptomProfile.reported_any`); it is written back after
``score`` only when some record has it. Unknown extra columns are preserved
as categorical covariates, whatever their names, and written back in sorted
order after those. A blank symptom cell is a missing flag (see
:attr:`SymptomProfile.missing`), and is written back blank.

:class:`ParticipantRecord` is a frozen, slotted dataclass whose hand-written
``__init__`` stores each field with its slot's own setter, about half the
cost of the generated init's ``object.__setattr__`` per field; every builder
of records uses it.

The bulk record builders (:func:`load_cohort`, :func:`read_sidecar`,
:func:`load_features` and ``synth.generate_population``) and
:func:`write_features` pause the cyclic garbage collector while they build
or write, with :func:`gc_paused`. Their records and lines hold no reference
cycles, so a collection meanwhile could free nothing, yet it would walk
every new object. The caveat: cyclic garbage that other threads make
meanwhile waits until the call ends.
"""

from __future__ import annotations

import csv
import datetime as _dt
import gc
import io
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import compress
from operator import attrgetter, itemgetter

import numpy as np

from .errors import (
    BadValue,
    ConfoundAuditError,
    DuplicateId,
    MissingColumn,
    MissingFeatures,
    MissingLabel,
    MissingScore,
    TooFewRecords,
)

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
# optional self-reported aggregate, read into ``SymptomProfile.reported_any``
REPORTED_ANY_COLUMN = "any_symptom"

GENDERS = ("male", "female", "other")
CHANNELS = ("TT", "REACT", "synthetic")


@dataclass(frozen=True, slots=True)
class SymptomProfile:
    """Per-participant symptom flags.

    ``reported_any`` optionally carries an externally supplied aggregate flag;
    it is kept only so validation can detect self-inconsistent data. The
    authoritative aggregate is always recomputed by :func:`derive_any_symptom`.
    ``missing`` names the flags whose cell was blank; each of them reads as
    False. Profiles are immutable, so the generator and the CSV loader share
    one instance per distinct set of values (see :func:`symptom_profile`).
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
    missing: frozenset[str] = frozenset()

    @property
    def any_symptom(self) -> bool:
        return derive_any_symptom(self)


def derive_any_symptom(s: SymptomProfile) -> bool:
    """OR over the six acute respiratory flags."""
    return bool(
        s.cough
        or s.sore_throat
        or s.asthma
        or s.shortness_of_breath
        or s.runny_blocked_nose
        or s.new_continuous_cough
    )


# one shared profile per (nine flags in SYMPTOM_FIELDS order, reported_any,
# missing); at most 2**9 * 3 entries without blank flags
_PROFILES: dict[tuple, SymptomProfile] = {}


def symptom_profile(
    flags: tuple[bool, ...], reported_any: bool | None = None, missing: frozenset[str] = frozenset()
) -> SymptomProfile:
    """The shared profile with these flags (``SYMPTOM_FIELDS`` order)."""
    key = (*flags, reported_any, missing)
    profile = _PROFILES.get(key)
    if profile is None:
        profile = _PROFILES[key] = SymptomProfile(*map(bool, flags), reported_any=reported_any, missing=missing)
    return profile


# the ``other_covariates`` of every record without extra columns
_NO_COVARIATES: dict[str, str] = {}


@dataclass(frozen=True, slots=True)
class ParticipantRecord:
    """One enrolled individual. ``other_covariates`` is read-only: records
    without extra columns share one empty dict."""

    id: str
    label: int | None  # binary infection status; None = missing test result
    symptoms: SymptomProfile
    age_years: int | None
    gender: str  # one of GENDERS; unknown values map to "other" at load
    channel: str  # one of CHANNELS
    other_covariates: dict[str, str] = field(default_factory=lambda: _NO_COVARIATES)
    score: float | None = None
    features: np.ndarray | None = None

    # The generated init of a frozen dataclass stores each field with
    # object.__setattr__; calling each slot's own setter costs about half.
    def __init__(self, id, label, symptoms, age_years, gender, channel,
                 other_covariates=_NO_COVARIATES, score=None, features=None):
        _set_id(self, id)
        _set_label(self, label)
        _set_symptoms(self, symptoms)
        _set_age_years(self, age_years)
        _set_gender(self, gender)
        _set_channel(self, channel)
        _set_other_covariates(self, other_covariates)
        _set_score(self, score)
        _set_features(self, features)

    def with_score(self, score: float) -> "ParticipantRecord":
        return ParticipantRecord(
            self.id, self.label, self.symptoms, self.age_years, self.gender, self.channel,
            self.other_covariates, score, self.features,
        )

    def with_features(self, features: np.ndarray) -> "ParticipantRecord":
        return ParticipantRecord(
            self.id, self.label, self.symptoms, self.age_years, self.gender, self.channel,
            self.other_covariates, self.score, np.asarray(features, dtype=float),
        )


# the member-descriptor setter of each slot, in field order
(_set_id, _set_label, _set_symptoms, _set_age_years, _set_gender, _set_channel,
 _set_other_covariates, _set_score, _set_features) = (
    getattr(ParticipantRecord, f.name).__set__ for f in fields(ParticipantRecord))


@dataclass(frozen=True)
class Cohort:
    """Ordered collection of participant records plus a provenance manifest."""

    records: tuple[ParticipantRecord, ...]
    manifest: dict

    def __post_init__(self):
        if len({r.id for r in self.records}) != len(self.records):
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

    # The array accessors are the one place a missing value is caught: each
    # returns a complete array or raises for the first record that lacks it.

    def labels(self) -> np.ndarray:
        """The 0/1 labels; ``MissingLabel`` names the first unlabelled record."""
        labels = [r.label for r in self.records]
        if None in labels:
            raise MissingLabel(self.records[labels.index(None)].id)
        return np.array(labels)

    def scores(self) -> np.ndarray:
        """The scores; ``MissingScore`` names the first unscored record."""
        scores = [r.score for r in self.records]
        if None in scores:
            raise MissingScore(self.records[scores.index(None)].id)
        return np.array(scores, dtype=float)

    def feature_matrix(self) -> np.ndarray:
        """One row per record; ``MissingFeatures`` names the first record
        without a vector, and an empty cohort raises ``TooFewRecords``."""
        if not self.records:
            raise TooFewRecords("cohort has no records to stack into a feature matrix")
        for r in self.records:
            if r.features is None:
                raise MissingFeatures(r.id)
        return np.stack([r.features for r in self.records])

    def derive(self, records, step: str, **extra) -> "Cohort":
        """The cohort of ``records`` that ``step`` made from this one. Its
        manifest keeps this cohort's ``source``, names this cohort's step as
        ``parent_steps``, and adds ``extra`` (the step's settings and counts)."""
        source, parent = self.manifest.get("source", "unknown"), self.manifest.get("step")
        return Cohort(records=tuple(records), manifest=make_manifest(source, step=step, parent_steps=parent, **extra))


def make_manifest(source: str, **extra) -> dict:
    m = {
        "source": source,
        "created": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
    }
    m.update(extra)
    return m


def vector_cohort(features, labels, prefix: str) -> Cohort:
    """The root cohort of a task known only by feature vectors and labels:
    record ``i`` is ``f"{prefix}-{i:05d}"`` with ``int(labels[i])`` and row
    ``i`` of one float copy of ``features``, no flag set, a blank age, gender
    "other" and channel "synthetic". Features that are not 2-D with one row
    per label raise ``ValueError``. Scores go on with ``forest.hybrid_features``."""
    x = np.array(features, dtype=float)
    if x.ndim != 2 or x.shape[0] != len(labels):
        raise ValueError(f"need a 2-D feature matrix with one row per label, got {x.shape} for {len(labels)} labels")
    profile = symptom_profile((False,) * len(SYMPTOM_FIELDS))
    records = tuple(ParticipantRecord(f"{prefix}-{i:05d}", int(label), profile, None, "other", "synthetic", features=row)
                    for i, (label, row) in enumerate(zip(labels, x)))
    return Cohort(records=records, manifest=make_manifest(prefix, step="vectors"))


# -- CSV ingestion ----------------------------------------------------------


@contextmanager
def gc_paused():
    """Turn the cyclic garbage collector off for a block, and back on after
    it only if it was on before."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# cell spellings, after strip().lower(); a blank cell is a missing value
_BOOLS = {"": None, "1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_LABELS = {"": None, "0": 0, "1": 1}
# canonical strings, so records share them instead of one copy per row
_GENDERS = {g: g for g in GENDERS}
_CHANNELS = {c: c for c in CHANNELS}


def _parse_profile(cells: tuple[str, ...], columns: tuple[str, ...], row: int) -> SymptomProfile:
    """The shared profile for the symptom cells of one row."""
    values = []
    for raw, column in zip(cells, columns):
        v = raw.strip().lower()
        if v not in _BOOLS:
            raise BadValue(row, column, raw)
        values.append(_BOOLS[v])
    flags = values[: len(SYMPTOM_FIELDS)]
    reported_any = values[len(SYMPTOM_FIELDS)] if len(values) > len(SYMPTOM_FIELDS) else None
    missing = frozenset(f for f, v in zip(SYMPTOM_FIELDS, flags) if v is None)
    return symptom_profile(tuple(v is True for v in flags), reported_any, missing)


def _unreadable_id(rid: str) -> bool:
    """Whether ``rid`` would not read back as written: it is blank, unstripped,
    or holds a line break, which Python 3.10-3.12's ``csv`` writes unquoted."""
    return not rid or rid != rid.strip() or "\n" in rid or "\r" in rid


def _data_rows(reader, header: list[str], j_id: int = 0):
    """Yield ``(1-based row, cells padded to the header, stripped id)`` per
    non-blank line. ``ConfoundAuditError`` refuses a header naming a column
    twice; ``BadValue`` a row with surplus cells or a bad or repeated id."""
    if len(set(header)) < len(header):
        name = next(h for k, h in enumerate(header) if h in header[:k])
        raise ConfoundAuditError(f"the header names the column {name!r} twice")
    width = len(header)
    seen: set[str] = set()
    for i, row in enumerate(filter(None, reader), 1):
        if len(row) != width:
            if len(row) > width:
                raise BadValue(i, header[-1], f"{len(row) - 1} values, expected {width - 1}")
            row += [""] * (width - len(row))
        rid = row[j_id].strip()
        if rid in seen or _unreadable_id(rid):
            raise BadValue(i, "id", row[j_id])
        seen.add(rid)
        yield i, row, rid


def load_cohort(path: str) -> Cohort:
    """Read a participants CSV into a cohort.

    Any header outside ``CSV_COLUMNS`` and the optional ``any_symptom``
    column becomes an ``other_covariates`` entry. Empty cells in optional
    columns yield missing values (to be handled by :func:`validate_cohort`);
    a blank symptom flag is listed in ``SymptomProfile.missing``.
    Rows are read by the rules of :func:`_data_rows`, and a malformed
    non-empty cell raises ``BadValue`` with the 1-based data row number.
    """
    with open(path, newline="", encoding="utf-8") as fh, gc_paused():
        reader = csv.reader(fh)
        header = next(reader, [])
        col = {h: j for j, h in enumerate(header)}
        for column in ("id", "label", "age_years", "gender", "channel") + SYMPTOM_FIELDS:
            if column not in col:
                raise MissingColumn(column)
        j_id, j_label, j_age, j_gender, j_channel = (col[c] for c in CSV_COLUMNS[:5])
        j_score = col.get("score")
        flag_columns = SYMPTOM_FIELDS + ((REPORTED_ANY_COLUMN,) if REPORTED_ANY_COLUMN in col else ())
        flag_cells = itemgetter(*(col[c] for c in flag_columns))
        extra = {h: col[h] for h in header if h not in CSV_COLUMNS and h != REPORTED_ANY_COLUMN}

        # parsed symptom cells, keyed by their raw text
        profiles: dict[tuple[str, ...], SymptomProfile] = {}
        records: list[ParticipantRecord] = []
        for i, row, rid in _data_rows(reader, header, j_id):
            raw_label = row[j_label].strip()
            if raw_label not in _LABELS:
                raise BadValue(i, "label", raw_label)
            label = _LABELS[raw_label]

            raw_age = row[j_age].strip()
            if raw_age == "":
                age: int | None = None
            else:
                try:
                    age = int(raw_age)
                except ValueError:
                    raise BadValue(i, "age_years", raw_age) from None

            gender = _GENDERS.get(row[j_gender].strip().lower(), "other")
            channel = row[j_channel].strip()
            if channel not in _CHANNELS:
                raise BadValue(i, "channel", channel)
            channel = _CHANNELS[channel]

            cells = flag_cells(row)
            symptoms = profiles.get(cells)
            if symptoms is None:
                symptoms = profiles[cells] = _parse_profile(cells, flag_columns, i)

            score: float | None = None
            if j_score is not None:
                raw_score = row[j_score].strip()
                if raw_score != "":
                    try:
                        score = float(raw_score)
                    except ValueError:
                        raise BadValue(i, "score", raw_score) from None
                    if not (0.0 <= score <= 1.0):
                        raise BadValue(i, "score", raw_score)

            other = {c: row[j].strip() for c, j in extra.items()} if extra else _NO_COVARIATES
            records.append(
                ParticipantRecord(rid, label, symptoms, age, gender, channel, other, score)
            )
    manifest = make_manifest(path, rows=len(records), step="load")
    return Cohort(records=tuple(records), manifest=manifest)


# sidecar rows parsed per numpy call; the cells wait in one flat list
_PARSE_ROWS = 4096


def _parse_rows(cells: list[str], first_row: int, n_rows: int, header: list[str]) -> np.ndarray:
    """Parse ``n_rows`` rows of numeric strings; a malformed cell raises ``BadValue`` naming its column."""
    dim = len(header) - 1
    try:
        return np.array(cells, dtype=float).reshape(n_rows, dim)
    except ValueError:
        for k, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError:
                raise BadValue(first_row + k // dim, header[1 + k % dim], cell) from None
        raise


def read_sidecar(path: str, value: str | None = None) -> tuple[list[str], dict[str, int], np.ndarray]:
    """Read an id-keyed CSV of numbers, such as ``id,f0,f1,...`` features or
    ``id,score`` scores: its header, the 0-based row of each id, and a
    ``(rows, len(header) - 1)`` float array of the values.

    Rows are read by the rules of :func:`_data_rows`, as :func:`load_cohort`
    reads them. A header without ``id`` first, or with no column after it,
    raises ``MissingColumn``. With ``value``, the header must be
    ``id,<value>`` exactly, and is checked before any row is read: one
    without that column raises ``MissingColumn`` naming it, one with other
    columns ``ConfoundAuditError``. A blank, malformed, NaN or infinite value
    raises ``BadValue`` with the 1-based data row and the column.
    """
    with open(path, newline="", encoding="utf-8") as fh, gc_paused():
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "id":
            raise MissingColumn("id")
        if value is not None and header[1:] != [value]:
            if value not in header[1:]:
                raise MissingColumn(value)
            raise ConfoundAuditError(f"a {value}s file has the header {'id,' + value!r}, not {','.join(header)!r}")
        if len(header) < 2:
            raise MissingColumn("f0")
        row_of: dict[str, int] = {}
        blocks: list[np.ndarray] = []
        cells: list[str] = []
        i = 0
        for i, row, rid in _data_rows(reader, header):
            row_of[rid] = i - 1
            cells += row[1:]
            if i % _PARSE_ROWS == 0:
                blocks.append(_parse_rows(cells, i - _PARSE_ROWS + 1, _PARSE_ROWS, header))
                cells = []
        tail = i % _PARSE_ROWS
        blocks.append(_parse_rows(cells, i - tail + 1, tail, header))
    block = np.concatenate(blocks)
    bad = np.argwhere(~np.isfinite(block))
    if bad.size:
        i, j = bad[0]
        raise BadValue(int(i) + 1, header[j + 1], float(block[i, j]))
    return header, row_of, block


def load_features(cohort: Cohort, path: str) -> Cohort:
    """Attach feature vectors from a sidecar ``id,f0,f1,...`` CSV read by
    :func:`read_sidecar`; the manifest counts the feature rows that match no
    record and the records left without a vector."""
    _, row_of, block = read_sidecar(path)
    with gc_paused():
        matched = sum(r.id in row_of for r in cohort.records)
        return cohort.derive(
            (r.with_features(block[row_of[r.id]]) if r.id in row_of else r for r in cohort.records), "load_features",
            features=path, unmatched_feature_rows=len(row_of) - matched, records_without_features=len(cohort) - matched,
        )


_FLAGS = attrgetter(*SYMPTOM_FIELDS)
_ID = attrgetter("id")


def _refuse_unreadable_ids(records) -> None:
    """Raise ``BadValue`` on the 1-based data row of the first id that the
    readers would not read back as written (see :func:`_unreadable_id`)."""
    for row, rid in enumerate(map(_ID, records), 1):
        if _unreadable_id(rid):
            raise BadValue(row, "id", rid)


def write_cohort(cohort: Cohort, path: str) -> None:
    """Write the canonical participants CSV (byte-stable for round-trips).

    A flag in ``SymptomProfile.missing`` is written as a blank cell. The
    ``any_symptom`` column is written only when some record has
    ``reported_any``. An id that :func:`load_cohort` would not read back
    raises ``BadValue`` before the file is opened.
    """
    _refuse_unreadable_ids(cohort.records)
    extra_cols = sorted({k for r in cohort.records for k in r.other_covariates})
    reported = any(r.symptoms.reported_any is not None for r in cohort.records)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(CSV_COLUMNS) + ([REPORTED_ANY_COLUMN] if reported else []) + extra_cols)
        for r in cohort.records:
            row = [
                r.id,
                "" if r.label is None else str(r.label),
                "" if r.age_years is None else str(r.age_years),
                r.gender,
                r.channel,
            ]
            flags = ["1" if v else "0" for v in _FLAGS(r.symptoms)]
            if r.symptoms.missing:
                flags = ["" if f in r.symptoms.missing else v for f, v in zip(SYMPTOM_FIELDS, flags)]
            row += flags
            row.append("" if r.score is None else repr(float(r.score)))
            if reported:
                row.append("" if r.symptoms.reported_any is None else "1" if r.symptoms.reported_any else "0")
            row += [r.other_covariates.get(c, "") for c in extra_cols]
            writer.writerow(row)


# ids that the csv module's minimal quoting writes as they are
_PLAIN_ID = re.compile(r"[A-Za-z0-9_.-]+").fullmatch


def _id_cell(rid: str, alone: bool) -> str:
    """The cell that ``csv.writer`` makes of ``rid``, alone on its row or
    first of several (an empty cell alone is quoted)."""
    if _PLAIN_ID(rid):
        return rid
    tail = [] if alone else [""]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([rid, *tail])
    return buf.getvalue()[: -1 - len(tail)]


def write_features(cohort: Cohort, path: str) -> None:
    """Write the ``id,f0,f1,...`` sidecar of the records with a vector: each
    value as the ``repr`` of its float64, each line the bytes ``csv.writer``
    writes for it. An id that :func:`read_sidecar` would not read back raises
    ``BadValue`` before the file is opened."""
    records = [r for r in cohort.records if r.features is not None]
    _refuse_unreadable_ids(records)
    dim = records[0].features.shape[0] if records else 0
    values = np.array([r.features for r in records], dtype=float).reshape(len(records), dim)
    with open(path, "w", newline="", encoding="utf-8") as fh, gc_paused():
        fh.write(",".join(["id"] + [f"f{j}" for j in range(dim)]) + "\n")
        for start in range(0, len(records), _PARSE_ROWS):
            rows = values[start:start + _PARSE_ROWS].tolist()
            fh.write("".join(
                ",".join([_id_cell(r.id, dim == 0), *map(repr, row)]) + "\n"
                for r, row in zip(records[start:start + _PARSE_ROWS], rows)
            ))


# -- validation ---------------------------------------------------------------


# the youngest age a record may have to pass validation
MIN_AGE = 18


@dataclass(frozen=True)
class RejectionReport:
    """Counts per rule (a record may be counted under several rules)."""

    counts: dict[str, int]
    total_removed: int


def _violations(r: ParticipantRecord) -> list[str]:
    v = []
    if r.label is None:
        v.append("missing_label")
    if r.age_years is None or r.symptoms.missing:
        v.append("missing_predictors")
    if r.age_years is not None and r.age_years < MIN_AGE:
        v.append(f"age<{MIN_AGE}")
    if r.symptoms.reported_any is not None and r.symptoms.reported_any != r.symptoms.any_symptom:
        v.append("self_inconsistent_symptoms")
    return v


def validate_cohort(cohort: Cohort) -> tuple[Cohort, RejectionReport]:
    """Drop every record without a label, an age or all symptom flags, younger
    than ``MIN_AGE``, or whose reported ``any_symptom`` contradicts its
    flags; idempotent."""
    counts: dict[str, int] = {}
    kept: list[ParticipantRecord] = []
    for r in cohort.records:
        v = _violations(r)
        if v:
            for name in v:
                counts[name] = counts.get(name, 0) + 1
        else:
            kept.append(r)
    removed = len(cohort.records) - len(kept)
    return cohort.derive(kept, "validate", removed=removed), RejectionReport(counts=counts, total_removed=removed)


# -- splitting ----------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int


def split_cohort(cohort: Cohort, spec: SplitSpec) -> tuple[Cohort, Cohort]:
    """Deterministic participant-disjoint random split.

    ``|train| = round(train_fraction * N)`` with round-half-up; the same seed
    always reproduces the same split. A split leaving either half empty
    raises ``TooFewRecords``.
    """
    if not (0.0 < spec.train_fraction < 1.0):
        raise ValueError("train_fraction must be in (0, 1)")
    n = len(cohort.records)
    n_train = int(math.floor(spec.train_fraction * n + 0.5))
    if not 0 < n_train < n:
        raise TooFewRecords(f"a train fraction of {spec.train_fraction} splits {n} records {n_train}/{n - n_train}")
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed & 0xFFFFFFFFFFFFFFFF, 0x5B17]))
    order = rng.permutation(n)
    in_train = np.zeros(n, dtype=bool)
    in_train[order[:n_train]] = True
    settings = {"seed": spec.seed, "fraction": spec.train_fraction}
    train = cohort.derive(compress(cohort.records, in_train.tolist()), "split_train", **settings)
    test = cohort.derive(compress(cohort.records, (~in_train).tolist()), "split_test", **settings)
    return train, test
