"""The per-record paths of synth, matching and cohort against their slow
reference forms in ``reference_kernels.py``.

Every comparison is exact: the same ids in the same order, equal records
with the same field types, the same feature bytes, and for failures the same
exception type with the same row, column or name.
"""

import csv
import io
import math
import os
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confound_audit.cohort import (
    CSV_COLUMNS,
    GENDERS,
    SYMPTOM_FIELDS,
    Cohort,
    ParticipantRecord,
    SymptomProfile,
    load_cohort,
    make_manifest,
    symptom_profile,
    write_cohort,
    write_features,
)
from confound_audit.errors import BadValue, ConfigError, ConfoundAuditError, MissingColumn
from confound_audit.matching import MatchSpec, stratum_keyer
from confound_audit.synth import SynthConfig, enrol, generate_population

from reference_kernels import (
    GeneratedInitRecord,
    enrol_loop,
    generate_population_loop,
    load_cohort_dictreader,
    stratum_key_loop,
    write_features_csv_writer,
)

PROBABILITY = st.floats(0.0, 1.0)


@st.composite
def synth_configs(draw):
    return SynthConfig(
        n_population=draw(st.integers(1, 200)),
        prevalence=draw(st.floats(0.01, 0.99)),
        p_sym_given_pos=draw(PROBABILITY),
        p_sym_given_neg=draw(PROBABILITY),
        flag_rate_pos=draw(PROBABILITY),
        flag_rate_neg=draw(PROBABILITY),
        w_sym_pos=draw(PROBABILITY),
        w_asym_pos=draw(PROBABILITY),
        w_sym_neg=draw(PROBABILITY),
        w_asym_neg=draw(PROBABILITY),
        random_p=draw(st.sampled_from([0.0, 0.5, 1.0]) | PROBABILITY),
        signal_strength=draw(st.floats(0.0, 3.0)),
        confounder_strength=draw(st.floats(0.0, 3.0)),
        feature_dim=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**32)),
    )


def _fields(r: ParticipantRecord) -> tuple:
    return (r.id, r.label, r.symptoms, r.age_years, r.gender, r.channel, r.other_covariates, r.score)


def _types(r: ParticipantRecord) -> tuple:
    return tuple(type(v) for v in _fields(r)) + tuple(type(getattr(r.symptoms, f)) for f in SYMPTOM_FIELDS)


@settings(max_examples=150, deadline=None)
@given(synth_configs())
def test_generate_population_matches_per_person_loop(cfg):
    got, want = generate_population(cfg), generate_population_loop(cfg)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert _fields(a.record) == _fields(b.record)
        assert _types(a.record) == _types(b.record)
        assert a.record.features.dtype == b.record.features.dtype
        assert a.record.features.tobytes() == b.record.features.tobytes()


def test_generated_profiles_are_shared():
    pop = generate_population(SynthConfig(n_population=2000, seed=4))
    profiles = {id(sr.record.symptoms) for sr in pop}
    assert len(profiles) == len({sr.record.symptoms for sr in pop}) < 2**9
    first = pop[0].record.symptoms
    assert first is symptom_profile(tuple(getattr(first, f) for f in SYMPTOM_FIELDS))


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # compared by type and fields
        return (type(exc), getattr(exc, "name", None), getattr(exc, "row", None), getattr(exc, "column", None),
                getattr(exc, "record_id", None))


@settings(max_examples=150, deadline=None)
@given(synth_configs(), st.sampled_from(["symptoms_based", "random"]))
def test_enrol_matches_per_person_draws(cfg, mode):
    cfg = replace(cfg, enrolment=mode)
    pop = generate_population(cfg)
    assert _outcome(lambda: enrol(pop, cfg).ids()) == _outcome(lambda: enrol_loop(pop, cfg))


# profile attributes that are not flags must be refused like an unknown name
COVARIATES = SYMPTOM_FIELDS + ("any_symptom", "reported_any", "missing", "flag", "bogus")


@st.composite
def records(draw):
    flags = draw(st.tuples(*[st.booleans()] * len(SYMPTOM_FIELDS)))
    reported_any = draw(st.sampled_from([None, True, False]))
    shared = draw(st.booleans())
    symptoms = (symptom_profile(flags, reported_any) if shared
                else SymptomProfile(*flags, reported_any=reported_any))
    return ParticipantRecord(
        id=draw(st.text(min_size=1, max_size=3)),
        label=draw(st.sampled_from([0, 1, None])),
        symptoms=symptoms,
        age_years=draw(st.none() | st.integers(-20, 120) | st.integers(10, 90).map(float)),
        gender=draw(st.sampled_from(GENDERS)),
        channel=draw(st.sampled_from(["TT", "REACT", "synthetic"])),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(records(), min_size=1, max_size=12),
    st.lists(st.sampled_from(COVARIATES), min_size=1, max_size=5),
    st.booleans(),
)
def test_stratum_keys_match_per_record_check(recs, covariates, include_channel):
    if any(name not in SYMPTOM_FIELDS and name != "any_symptom" for name in covariates):
        with pytest.raises(ConfigError):
            MatchSpec(covariates=tuple(covariates), include_channel=include_channel)
        return
    spec = MatchSpec(covariates=tuple(covariates), include_channel=include_channel)
    key_of = stratum_keyer(spec)
    for r in recs:
        want = _outcome(lambda: stratum_key_loop(r, spec))
        assert _outcome(lambda: key_of(r)) == want
        assert _outcome(lambda: stratum_keyer(spec)(r)) == want


def test_stratum_keyer_survives_short_lived_profiles():
    key_of = stratum_keyer(MatchSpec(covariates=("cough", "any_symptom")))
    for i in range(200):
        r = ParticipantRecord(str(i), 1, SymptomProfile(cough=i % 2 == 0), 30, "male", "TT")
        assert key_of(r) == stratum_key_loop(r, MatchSpec(covariates=("cough", "any_symptom")))


# per column: cells a valid row draws from, then the malformed ones
BOOLS = (["0", "1", "", "TRUE", " yes ", "No", "false", " "], ["maybe", "2"])
CELLS = {
    "label": (["0", "1", "", " 1 "], ["2", "x"]),
    "age_years": (["30", "45", "17", "", " 52 ", "-3", "+7"], ["abc", "1.5"]),
    "gender": (["male", "female", " Female ", "MALE", "other", "nonbinary", ""], []),
    "channel": (["TT", "REACT", "synthetic", " TT "], ["tt", "bogus", ""]),
    "score": (["0.5", "", "1", "0", "1e-3", " 0.25 ", "-0.0"], ["1.2", "nan", "abc"]),
    "ethnicity": (["groupA", "", " groupB ", "a,b", 'say "hi"'], []),
    "site": (["x", "y", ""], []),
    "_missing_flags": (["cough", "", "asthma,smoker"], []),
    "_site": (["x", ""], []),
}


@st.composite
def participant_csvs(draw):
    columns = list(CSV_COLUMNS[:-1])
    if draw(st.booleans()):
        columns.append("score")
    columns += draw(st.lists(st.sampled_from(["ethnicity", "site", "_missing_flags", "_site"]), max_size=3))
    if draw(st.integers(0, 19)) == 0:
        columns.remove(draw(st.sampled_from(columns)))
    columns = draw(st.permutations(columns))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for k in range(draw(st.integers(0, 8))):
        clean = draw(st.integers(0, 9)) > 0
        row = []
        for c in columns:
            if c == "id":  # unique, or blank or repeated
                valid, malformed = [f"r{k}", f" r{k} "], ["", " ", "r0"]
            else:
                valid, malformed = CELLS.get(c, BOOLS)
            row.append(draw(st.sampled_from(valid if clean else valid + malformed)))
        shape = draw(st.integers(0, 19))
        if shape == 0:
            row = row[: draw(st.integers(1, len(row)))]  # a short row
        elif shape == 1:
            row.append("surplus")
        elif shape == 2:
            buf.write("\n")  # a blank line
        writer.writerow(row)
    return buf.getvalue()


@settings(max_examples=400, deadline=None)
@given(participant_csvs())
def test_load_cohort_matches_dictreader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        got = _outcome(lambda: load_cohort(path))
        want = _outcome(lambda: load_cohort_dictreader(path))
        if got[0] == "ok":
            again = os.path.join(tmp, "again.csv")
            write_cohort(got[1], again)
            reloaded = load_cohort(again)
    if got[0] == "ok" and want[0] == "ok":
        assert [_fields(r) for r in got[1].records] == [_fields(r) for r in want[1].records]
        assert [_types(r) for r in got[1].records] == [_types(r) for r in want[1].records]
        assert got[1].manifest["rows"] == want[1].manifest["rows"]
        assert [_fields(r) for r in reloaded.records] == [_fields(r) for r in got[1].records]
    else:
        assert got[0] is want[0] and got[0] in (BadValue, MissingColumn, ConfoundAuditError)
        if got[0] is BadValue:
            assert got[2:4] == want[2:4]  # row and column
            # a data row of the file, and a column of its header
            assert got[2] >= 1 and got[3] in next(csv.reader(io.StringIO(text)))
        else:
            assert got == want


def test_loaded_profiles_are_shared(tmp_csv):
    header = ",".join(CSV_COLUMNS)
    rows = [f"r{i},1,30,female,TT,1,0,0,0,0,0,0,0,0," for i in range(3)]
    cohort = load_cohort(tmp_csv("p.csv", "\n".join([header] + rows) + "\n"))
    assert cohort.records[0].symptoms is cohort.records[2].symptoms
    assert cohort.records[0].symptoms is symptom_profile((True,) + (False,) * 8)


# ids the csv module quotes, or on some Pythons leaves bare, beside plain ones,
# and ids that the writers refuse: blank, padded, or with a line break
IDS = st.text(st.sampled_from(list('ab9_.-,"\r\n \té€😀')), max_size=4)
# every float64 kind: signed zeros, NaN, infinities, subnormals
FLOAT64 = st.floats(width=64) | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308])
VECTORS = {
    np.float64: FLOAT64,
    np.float32: st.floats(width=32) | st.sampled_from([-0.0, 1e-45, math.nan, -math.inf]),
    np.int64: st.integers(-(2**63), 2**63 - 1),
}


@st.composite
def feature_cohorts(draw):
    dim = draw(st.integers(0, 9))
    records = []
    for rid in draw(st.lists(IDS, max_size=6, unique=True)):
        features = None
        if draw(st.integers(0, 5)):
            dtype = draw(st.sampled_from(list(VECTORS)))
            features = np.array(draw(st.lists(VECTORS[dtype], min_size=dim, max_size=dim)), dtype=dtype)
        records.append(ParticipantRecord(rid, 1, symptom_profile((False,) * 9), 30, "male", "TT", features=features))
    return Cohort(records=tuple(records), manifest=make_manifest("features"))


@settings(max_examples=400, deadline=None)
@given(feature_cohorts())
def test_write_features_matches_one_csv_row_per_record(cohort):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        outcome = _outcome(lambda: write_features(cohort, got))
        assert outcome == _outcome(lambda: write_features_csv_writer(cohort, want))
        if outcome[0] == "ok":
            with open(got, "rb") as a, open(want, "rb") as b:
                assert a.read() == b.read()
        else:
            assert not os.path.exists(got)


def test_write_features_matches_across_write_blocks(tmp_path):
    features = np.random.default_rng(5).standard_normal((9000, 3))
    records = [ParticipantRecord(f"r {i}" if i % 7 else f"r{i}", 0, symptom_profile((True,) * 9), 40, "female",
                                 "REACT", features=row) for i, row in enumerate(features)]
    cohort = Cohort(records=tuple(records), manifest=make_manifest("features"))
    write_features(cohort, str(tmp_path / "got.csv"))
    write_features_csv_writer(cohort, str(tmp_path / "want.csv"))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(
    records(),
    st.sampled_from([None, {}, {"site": "x"}]),
    st.none() | st.floats(0.0, 1.0),
    st.none() | st.just(np.arange(3.0)),
    st.integers(0, 3),
)
def test_records_match_the_generated_init(record, covariates, score, features, n_positional):
    values = [getattr(record, f.name) for f in fields(ParticipantRecord)[:6]] + [covariates, score, features]
    names = [f.name for f in fields(ParticipantRecord)]
    args = values[: 6 + n_positional]
    kwargs = {n: v for n, v in zip(names[len(args):], values[len(args):]) if v is not None}
    got, want = ParticipantRecord(*args, **kwargs), GeneratedInitRecord(*args, **kwargs)
    for name in names:
        assert getattr(got, name) is getattr(want, name)
