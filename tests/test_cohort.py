import copy
import gc
import inspect
import pickle
from contextlib import nullcontext
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import numpy as np
import pytest

from confound_audit.cohort import (
    CSV_COLUMNS,
    ParticipantRecord,
    SplitSpec,
    SymptomProfile,
    derive_any_symptom,
    load_cohort,
    load_features,
    read_sidecar,
    split_cohort,
    validate_cohort,
    vector_cohort,
    write_cohort,
    write_features,
)
from confound_audit.errors import (
    BadValue,
    ConfoundAuditError,
    DuplicateId,
    MissingColumn,
    MissingFeatures,
    MissingLabel,
    MissingScore,
    TooFewRecords,
)
from confound_audit.forest import hybrid_features
from confound_audit.matching import MatchSpec, match_exact
from confound_audit.pipeline import RunConfig, run_pipeline
from confound_audit.resample import PopulationSpec, resample_general_population
from confound_audit.synth import SynthConfig, SynthRecord, generate_population

from conftest import make_cohort, make_record

HEADER = ",".join(CSV_COLUMNS)


def row(rid, label="1", age="30", gender="female", channel="TT", flags="0" * 9, score=""):
    return ",".join([rid, label, age, gender, channel] + list(flags) + [score])


def test_load_three_rows_identity(tmp_csv):
    text = "\n".join(
        [HEADER, row("a", "1"), row("b", "0", flags="100000000"), row("c", "1", score="0.5")]
    )
    cohort = load_cohort(tmp_csv("p.csv", text + "\n"))
    assert len(cohort) == 3
    assert cohort.ids() == ["a", "b", "c"]
    assert cohort.records[1].symptoms.cough is True
    assert cohort.records[2].score == 0.5


def test_load_missing_label_column(tmp_csv):
    text = HEADER.replace("label,", "") + "\n" + "a,30,female,TT," + ",".join("0" * 9) + ",\n"
    with pytest.raises(MissingColumn) as err:
        load_cohort(tmp_csv("p.csv", text))
    assert err.value.name == "label"


def test_load_bad_score_row5(tmp_csv):
    rows = [row(f"r{i}") for i in range(1, 5)]
    rows.append(row("r5", score="1.2"))
    with pytest.raises(BadValue) as err:
        load_cohort(tmp_csv("p.csv", "\n".join([HEADER] + rows) + "\n"))
    assert err.value.row == 5
    assert err.value.column == "score"


def test_load_duplicate_id(tmp_csv):
    # a file names the row of a repeated id; a cohort built in memory, the id
    text = "\n".join([HEADER, row("a"), row("a")]) + "\n"
    with pytest.raises(BadValue) as err:
        load_cohort(tmp_csv("p.csv", text))
    assert (err.value.row, err.value.column) == (2, "id")
    with pytest.raises(DuplicateId):
        make_cohort([make_record("a"), make_record("a")])


# one fault per case, written into a participants file and an id,score
# sidecar alike: "{rest}" is the rest of a valid row, and the header line
# extends the participants header or "id,score"
READER_FAULTS = {
    "blank-lines": (["{header}", "a{rest}", "", "", "b{rest}", "", "{rest}"], (3, "id")),
    "surplus-cell": (["{header}", "a{rest}", "b{rest},x"], (2, "score")),
    "blank-id": (["{header}", "a{rest}", " {rest}"], (2, "id")),
    "carriage-return-id": (["{header}", "a{rest}", '"b\rc"{rest}'], (2, "id")),
    "repeated-id": (["{header}", "a{rest}", " a{rest}"], (2, "id")),
    "repeated-column": (["{header},score", "a{rest},0.5"], "the header names the column 'score' twice"),
}


@pytest.mark.parametrize("lines, want", READER_FAULTS.values(), ids=READER_FAULTS)
def test_readers_refuse_the_same_row_and_column(tmp_csv, lines, want):
    def refusal(read, name, header, rest):
        text = "\n".join(lines).format(header=header, rest=rest) + "\n"
        with pytest.raises(ConfoundAuditError) as err:
            read(tmp_csv(name, text))
        e = err.value
        return (e.row, e.column) if isinstance(e, BadValue) else str(e)

    assert refusal(load_cohort, "p.csv", HEADER, row("")) == want
    assert refusal(read_sidecar, "s.csv", "id,score", ",0.5") == want


@pytest.mark.parametrize("rid", ['"a\rb"', '"a\nb"', '"a\r\nb"'])
def test_load_cohort_refuses_an_id_with_a_line_break(tmp_csv, rid):
    # written back, such an id would not survive: csv on Python 3.10-3.12
    # leaves a carriage return unquoted
    with pytest.raises(BadValue) as err:
        load_cohort(tmp_csv("p.csv", "\n".join([HEADER, row("a"), row(rid)]) + "\n"))
    assert (err.value.row, err.value.column, err.value.value) == (2, "id", rid[1:-1])


def test_unknown_gender_maps_to_other(tmp_csv):
    text = "\n".join([HEADER, row("a", gender="nonbinary")]) + "\n"
    cohort = load_cohort(tmp_csv("p.csv", text))
    assert cohort.records[0].gender == "other"


def test_extra_columns_become_covariates(tmp_csv):
    text = HEADER + ",ethnicity\n" + row("a") + ",groupA\n" + row("b") + ",groupB\n" + row("c") + ",\n"
    cohort = load_cohort(tmp_csv("p.csv", text))
    assert cohort.records[0].other_covariates["ethnicity"] == "groupA"
    assert [r.other_covariates for r in cohort] == [{"ethnicity": "groupA"}, {"ethnicity": "groupB"}, {"ethnicity": ""}]
    # each row holds its own dict
    assert len({id(r.other_covariates) for r in cohort}) == 3


def test_extra_columns_of_any_name_round_trip(tmp_csv, tmp_path):
    # names that once held the blank flags, or started with "_", are plain columns
    text = "\n".join([
        HEADER + ",_missing_flags,_site",
        row("a", flags="100000000") + ",cough,x",
        row("b") + ",,y",
    ]) + "\n"
    cohort = load_cohort(tmp_csv("p.csv", text))
    assert [r.symptoms.cough for r in cohort.records] == [True, False]
    assert all(r.symptoms.missing == frozenset() for r in cohort.records)
    assert cohort.records[0].other_covariates == {"_missing_flags": "cough", "_site": "x"}
    kept, report = validate_cohort(cohort)
    assert kept.ids() == ["a", "b"] and report.total_removed == 0
    out = tmp_path / "again.csv"
    write_cohort(cohort, str(out))
    assert out.read_text() == text


@pytest.mark.parametrize("bad", ["", " a", "a\t", "x\ry", "a\nb"])
@pytest.mark.parametrize("writer", [write_cohort, write_features])
def test_writers_refuse_ids_that_would_not_read_back(tmp_path, writer, bad):
    # the loaders read ids stripped and refuse line breaks, so " a" would
    # load as "a", and "x\ry" is written bare and breaks its row
    records = [make_record("a", features=[1.0]), make_record(bad, features=[2.0])]
    out = tmp_path / "out.csv"
    out.write_text("before\n")
    with pytest.raises(BadValue) as err:
        writer(make_cohort(records), str(out))
    assert (err.value.row, err.value.column, err.value.value) == (2, "id", bad)
    assert out.read_text() == "before\n"


def test_write_load_round_trip_bytes(tmp_path):
    cohort = make_cohort(
        [
            make_record("a", 1, score=0.25, cough=True),
            make_record("b", 0, age=70, gender="male", other={"ethnicity": "groupB"}),
            make_record("c", 1, score=1 / 3),
        ]
    )
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    write_cohort(cohort, str(p1))
    write_cohort(load_cohort(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_features_sidecar_round_trip(tmp_path):
    from confound_audit.cohort import load_features, write_features

    cohort = make_cohort(
        [
            make_record("a", 1, features=[0.5, -1.25, 3.0]),
            make_record("b", 0, features=[1.0, 0.0, 2.5]),
        ]
    )
    parts = tmp_path / "p.csv"
    feats = tmp_path / "f.csv"
    write_cohort(cohort, str(parts))
    write_features(cohort, str(feats))
    loaded = load_features(load_cohort(str(parts)), str(feats))
    assert [list(r.features) for r in loaded.records] == [[0.5, -1.25, 3.0], [1.0, 0.0, 2.5]]
    feats2 = tmp_path / "f2.csv"
    write_features(loaded, str(feats2))
    assert feats.read_bytes() == feats2.read_bytes()


def _features_fixture(tmp_path, text):
    cohort = make_cohort([make_record("a", 1), make_record("b", 0), make_record("c", 1)])
    parts = tmp_path / "p.csv"
    feats = tmp_path / "f.csv"
    write_cohort(cohort, str(parts))
    feats.write_text(text, encoding="utf-8")
    return lambda: load_features(load_cohort(str(parts)), str(feats))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_load_features_rejects_non_finite(tmp_path, value):
    load = _features_fixture(tmp_path, f"id,f0,f1\na,0.5,1.0\nb,0.25,{value}\n")
    with pytest.raises(BadValue) as err:
        load()
    assert (err.value.row, err.value.column) == (2, "f1")


def test_load_features_rejects_repeated_id(tmp_path):
    load = _features_fixture(tmp_path, "id,f0\na,0.5\nb,0.25\na,0.75\n")
    with pytest.raises(BadValue) as err:
        load()
    assert (err.value.row, err.value.column) == (3, "id")


def test_load_features_rejects_non_numeric_row(tmp_path):
    load = _features_fixture(tmp_path, "id,f0\na,0.5\nb,x\n")
    with pytest.raises(BadValue) as err:
        load()
    assert (err.value.row, err.value.column) == (2, "f0")


@pytest.mark.parametrize("bad_row, value, column", [(4098, "x", "f0"), (4100, "inf", "f0")])
def test_load_features_reports_rows_past_the_first_parse_block(tmp_path, bad_row, value, column):
    rows = [f"z{i},{i}.5" for i in range(1, 4101)]
    good = _features_fixture(tmp_path, "id,f0\na,0.25\n" + "\n".join(rows) + "\n")()
    assert good.records[0].features.tolist() == [0.25]
    assert good.manifest["unmatched_feature_rows"] == 4100
    rows[bad_row - 2] = f"z{bad_row - 1},{value}"
    load = _features_fixture(tmp_path, "id,f0\na,0.25\n" + "\n".join(rows) + "\n")
    with pytest.raises(BadValue) as err:
        load()
    assert (err.value.row, err.value.column) == (bad_row, column)


@pytest.mark.parametrize("text", ["id\n", "id\na\nb\n"])
def test_load_features_refuses_a_header_without_feature_columns(tmp_path, text):
    with pytest.raises(MissingColumn) as err:
        _features_fixture(tmp_path, text)()
    assert err.value.name == "f0"


@pytest.mark.parametrize("blank", ["", "  "])
def test_load_features_rejects_a_blank_id(tmp_path, blank):
    # load_cohort's rule: a blank id is an error, not an unmatched row
    with pytest.raises(BadValue) as err:
        _features_fixture(tmp_path, f"id,f0\na,0.5\n{blank},0.25\n")()
    assert (err.value.row, err.value.column) == (2, "id")


@pytest.mark.parametrize("rid", ['"a\rb"', '"a\nb"'])
def test_read_sidecar_refuses_an_id_with_a_line_break(tmp_csv, rid):
    with pytest.raises(BadValue) as err:
        read_sidecar(tmp_csv("f.csv", f"id,f0\na,0.5\n{rid},0.25\n"))
    assert (err.value.row, err.value.column, err.value.value) == (2, "id", rid[1:-1])


def test_load_features_counts_unmatched_rows_and_bare_records(tmp_path):
    load = _features_fixture(tmp_path, "id,f0\na,0.5\nzz,0.25\nyy,1.0\n")
    cohort = load()
    assert [r.features is not None for r in cohort.records] == [True, False, False]
    assert cohort.manifest["unmatched_feature_rows"] == 2
    assert cohort.manifest["records_without_features"] == 2


def test_load_features_reads_ids_and_blank_lines_as_load_cohort_does(tmp_path):
    cohort = _features_fixture(tmp_path, "id,f0\n a ,0.5\n\nb,0.25\n\n")()
    assert [r.features is not None and r.features.tolist() for r in cohort.records] == [[0.5], [0.25], False]
    assert cohort.manifest["unmatched_feature_rows"] == 0
    assert cohort.manifest["records_without_features"] == 1


@pytest.mark.parametrize(
    "text, bad",
    [
        ("id,f0\n\na,0.5\nb,x\n", (2, "f0")),
        ("id,f0\n\na,0.5\nb,inf\n", (2, "f0")),
        ("id,f0\na,0.5\n\n\n a,0.75\n", (2, "id")),
    ],
    ids=["malformed", "non-finite", "repeated-id"],
)
def test_load_features_row_numbers_skip_blank_lines(tmp_path, text, bad):
    with pytest.raises(BadValue) as err:
        _features_fixture(tmp_path, text)()
    assert (err.value.row, err.value.column) == bad


@pytest.mark.parametrize(
    "participant, features, raises",
    [
        (row("a"), "id,f0\na,0.5\n", False),
        (row("a", label="2"), "id,f0\na,0.5\n", True),
        (row("a"), "id,f0\na,x\n", True),
    ],
    ids=["loads", "load_cohort-raises", "load_features-raises"],
)
def test_loaders_leave_the_collector_as_they_found_it(tmp_csv, collector_state, participant, features, raises):
    parts = tmp_csv("p.csv", HEADER + "\n" + participant + "\n")
    feats = tmp_csv("f.csv", features)
    with pytest.raises(BadValue) if raises else nullcontext():
        load_features(load_cohort(parts), feats)
    assert gc.isenabled() is collector_state


def test_validate_rejects_minors():
    cohort = make_cohort([make_record("a", age=17), make_record("b", age=18)])
    out, report = validate_cohort(cohort)
    assert out.ids() == ["b"]
    assert report.counts == {"age<18": 1}


def test_validate_noop_on_clean_cohort():
    cohort = make_cohort([make_record("a"), make_record("b")])
    out, report = validate_cohort(cohort)
    assert out.ids() == ["a", "b"]
    assert report.counts == {}
    assert report.total_removed == 0


def test_validate_self_inconsistent_symptoms():
    cohort = make_cohort([make_record("a", reported_any=True)])  # all flags false
    out, report = validate_cohort(cohort)
    assert len(out) == 0
    assert report.counts == {"self_inconsistent_symptoms": 1}


def test_validate_consistent_reported_any_kept():
    cohort = make_cohort([make_record("a", reported_any=True, cough=True)])
    out, _ = validate_cohort(cohort)
    assert len(out) == 1


def test_validate_missing_label():
    cohort = make_cohort([make_record("a", label=None)])
    out, report = validate_cohort(cohort)
    assert len(out) == 0
    assert report.counts == {"missing_label": 1}


def test_validate_idempotent():
    cohort = make_cohort(
        [make_record("a", age=16), make_record("b"), make_record("c", label=None)]
    )
    once, _ = validate_cohort(cohort)
    twice, report = validate_cohort(once)
    assert twice.ids() == once.ids()
    assert report.total_removed == 0


def test_split_deterministic():
    cohort = make_cohort([make_record(f"r{i}") for i in range(10)])
    spec = SplitSpec(train_fraction=0.5, seed=7)
    a1, b1 = split_cohort(cohort, spec)
    a2, b2 = split_cohort(cohort, spec)
    assert a1.ids() == a2.ids()
    assert b1.ids() == b2.ids()


def test_split_sizes_and_disjoint():
    cohort = make_cohort([make_record(f"r{i}") for i in range(10)])
    train, test = split_cohort(cohort, SplitSpec(train_fraction=0.8, seed=3))
    assert len(train) == 8 and len(test) == 2
    assert set(train.ids()).isdisjoint(test.ids())
    assert set(train.ids()) | set(test.ids()) == {f"r{i}" for i in range(10)}


def test_split_too_few():
    cohort = make_cohort([make_record("only")])
    with pytest.raises(TooFewRecords):
        split_cohort(cohort, SplitSpec(train_fraction=0.5, seed=0))


@pytest.mark.parametrize("n, fraction", [(2, 0.2), (3, 0.9)])
def test_split_refuses_to_leave_a_half_empty(n, fraction):
    cohort = make_cohort([make_record(f"r{i}") for i in range(n)])
    with pytest.raises(TooFewRecords):
        split_cohort(cohort, SplitSpec(train_fraction=fraction, seed=0))


def test_derive_any_symptom():
    assert derive_any_symptom(SymptomProfile()) is False
    assert derive_any_symptom(SymptomProfile(sore_throat=True)) is True
    assert derive_any_symptom(SymptomProfile(smoker=True)) is False
    assert derive_any_symptom(SymptomProfile(copd_emphysema=True)) is False
    assert derive_any_symptom(SymptomProfile(new_continuous_cough=True)) is True


def test_blank_flag_round_trips_and_is_rejected(tmp_csv, tmp_path):
    text = "\n".join([HEADER, row("a"), row("b", flags=[""] + ["0"] * 8), row("c", flags="0" * 8 + "1")]) + "\n"
    cohort = load_cohort(tmp_csv("p.csv", text))
    assert cohort.records[1].symptoms.missing == {"cough"}
    assert cohort.records[1].other_covariates == {}
    out = tmp_path / "again.csv"
    write_cohort(cohort, str(out))
    assert out.read_text() == text
    assert out.read_text().splitlines()[2] == "b,1,30,female,TT,,0,0,0,0,0,0,0,0,"
    kept, report = validate_cohort(load_cohort(str(out)))
    assert kept.ids() == ["a", "c"]
    assert report.counts == {"missing_predictors": 1}


def test_any_symptom_column_sets_reported_any(tmp_csv, tmp_path):
    text = "\n".join([
        HEADER + ",any_symptom",
        row("a") + ",1",  # no acute flag: self-inconsistent
        row("b", flags="100000000") + ",1",
        row("c") + ",",
        row("d", flags="000000001") + ",0",
    ]) + "\n"
    cohort = load_cohort(tmp_csv("p.csv", text))
    assert [r.symptoms.reported_any for r in cohort.records] == [True, True, None, False]
    assert all(r.other_covariates == {} for r in cohort.records)
    kept, report = validate_cohort(cohort)
    assert kept.ids() == ["b", "c", "d"]
    assert report.counts == {"self_inconsistent_symptoms": 1}
    out = tmp_path / "again.csv"
    write_cohort(cohort, str(out))
    assert out.read_text() == text


def test_any_symptom_column_rejects_bad_value(tmp_csv):
    text = "\n".join([HEADER + ",any_symptom", row("a") + ",0", row("b") + ",sometimes"]) + "\n"
    with pytest.raises(BadValue) as err:
        load_cohort(tmp_csv("p.csv", text))
    assert (err.value.row, err.value.column) == (2, "any_symptom")


def test_cohort_arrays_name_the_first_record_lacking_a_value():
    cohort = make_cohort([
        make_record("a", 1, score=0.5, features=[0.0, 1.0]),
        make_record("b", None, score=None, features=None),
        make_record("c", None, score=None, features=None),
    ])
    for accessor, error, what in [
        (cohort.labels, MissingLabel, "label"),
        (cohort.scores, MissingScore, "score"),
        (cohort.feature_matrix, MissingFeatures, "feature vector"),
    ]:
        with pytest.raises(error) as err:
            accessor()
        assert err.value.record_id == "b"
        assert str(err.value) == f"record 'b' has no {what}"
    complete = make_cohort([make_record("a", 1, score=0.5, features=[0.0, 1.0]),
                            make_record("b", 0, score=0.25, features=[2.0, 3.0])])
    assert complete.labels().tolist() == [1, 0]
    assert complete.scores().tolist() == [0.5, 0.25]
    assert complete.feature_matrix().tolist() == [[0.0, 1.0], [2.0, 3.0]]
    with pytest.raises(TooFewRecords):
        make_cohort([]).feature_matrix()


def test_every_derived_cohort_records_its_lineage(tmp_path):
    # each selection step names itself and its parent's step, keeps the
    # root's source, and adds its own settings and counts after those keys
    rng = np.random.default_rng(5)
    records = [
        make_record(f"r{i}", label=i % 2, age=int(rng.integers(16, 80)), gender=("male", "female")[i // 2 % 2],
                    cough=bool(rng.random() < 0.4))
        for i in range(400)
    ]
    path = str(tmp_path / "pool.csv")
    write_cohort(make_cohort(records), path)
    root = load_cohort(path)
    valid, _ = validate_cohort(root)
    train, test = split_cohort(valid, SplitSpec(train_fraction=0.5, seed=2))
    matched, _ = match_exact(train, MatchSpec(covariates=("cough",), include_channel=False, seed=3))
    drawn, _ = resample_general_population(valid, PopulationSpec(n_pos=20, n_neg=20, equalize_age=False, seed=4))
    feats = tmp_path / "features.csv"
    feats.write_text("id,f0\nr0,0.5\nzz,0.25\n")
    featured = load_features(root, str(feats))
    scored = hybrid_features(featured, np.full(len(featured), 0.5))
    split = {"seed": 2, "fraction": 0.5}
    resample = {"seed": 4, "n_pos": 20, "n_neg": 20, "p_sym_pos": 0.65, "p_sym_neg": 0.2, "equalize_age": False}
    cases = [
        (valid, "validate", "load", {"removed": sum(r.age_years < 18 for r in records)}),
        (train, "split_train", "validate", split),
        (test, "split_test", "validate", split),
        (matched, "match_exact", "split_train", {"seed": 3, "covariates": ["cough"], "include_channel": False}),
        (drawn, "resample", "validate", resample),
        (featured, "load_features", "load",
         {"features": str(feats), "unmatched_feature_rows": 1, "records_without_features": 399}),
        (scored, "hybrid_features", "load_features", {}),
    ]
    assert valid.manifest["removed"] > 0
    for cohort, step, parent, extra in cases:
        m = cohort.manifest
        assert list(m) == ["source", "created", "step", "parent_steps", *extra]
        assert (m["source"], m["step"], m["parent_steps"]) == (path, step, parent)
        assert {k: m[k] for k in extra} == extra


def test_vector_cohort_builds_one_blank_record_per_row():
    x = np.arange(12, dtype=np.int64).reshape(4, 3) / 7.0
    cohort = vector_cohort(x, np.array([1, 0, 0, 1]), "v")
    assert cohort.ids() == ["v-00000", "v-00001", "v-00002", "v-00003"]
    assert cohort.labels().tolist() == [1, 0, 0, 1]
    assert all(type(r.label) is int for r in cohort)
    assert cohort.feature_matrix().tobytes() == x.tobytes()
    x[0, 0] = 99.0  # the records hold a copy
    assert cohort.records[0].features[0] == 0.0
    for r in cohort:
        assert r.symptoms == SymptomProfile() and not r.symptoms.any_symptom
        assert (r.age_years, r.gender, r.channel, r.score, r.other_covariates) == (None, "other", "synthetic", None, {})
    assert {(k, v) for k, v in cohort.manifest.items() if k != "created"} == {("source", "v"), ("step", "vectors")}


@pytest.mark.parametrize("features, labels", [
    (np.zeros(4), [0, 1, 0, 1]),  # not 2-D
    (np.zeros((2, 2, 2)), [0, 1]),
    (np.zeros((4, 2)), [0, 1, 0]),  # a row without a label
    (np.zeros((3, 2)), [0, 1, 0, 1]),
])
def test_vector_cohort_refuses_features_that_do_not_give_one_row_per_label(features, labels):
    with pytest.raises(ValueError):
        vector_cohort(features, labels, "v")


# -- lean records -------------------------------------------------------------

# the one covariate dict of every record without extra columns
SHARED_COVARIATES = ParticipantRecord("x", 0, SymptomProfile(), 30, "female", "TT").other_covariates


def _lean_records():
    profile = SymptomProfile(cough=True, reported_any=True, missing=frozenset({"smoker"}))
    record = ParticipantRecord("a", 1, profile, 30, "female", "TT", {"site": "x"}, 0.5)
    return [profile, record, SynthRecord(record)]


@pytest.mark.parametrize("obj", _lean_records(), ids=["SymptomProfile", "ParticipantRecord", "SynthRecord"])
def test_record_types_are_slotted(obj):
    assert not hasattr(obj, "__dict__")
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert copy.deepcopy(obj) == obj
    assert replace(obj) == obj


def test_record_init_follows_the_field_list():
    # ParticipantRecord writes its own __init__: it must take every field,
    # in order, with the declared defaults, and set every slot
    params = list(inspect.signature(ParticipantRecord.__init__).parameters.values())[1:]
    declared = fields(ParticipantRecord)
    assert [p.name for p in params] == [f.name for f in declared]
    for p, f in zip(params, declared):
        assert p.kind is p.POSITIONAL_OR_KEYWORD
        if f.default_factory is not MISSING:
            assert p.default is f.default_factory() is SHARED_COVARIATES
        else:
            assert p.default is (p.empty if f.default is MISSING else f.default)
    required = [p.name for p in params if p.default is p.empty]
    record = ParticipantRecord(*required)
    assert [getattr(record, f.name) for f in declared] == required + [p.default for p in params[len(required):]]
    with pytest.raises(TypeError):
        ParticipantRecord(*required[:-1])
    with pytest.raises(TypeError):
        ParticipantRecord(*required, bogus=1)


def test_frozen_records_stay_frozen_through_copies():
    profile, record, _ = _lean_records()
    for obj, name in [(profile, "cough"), (record, "label")]:
        for twin in (obj, pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), replace(obj)):
            with pytest.raises(FrozenInstanceError):
                setattr(twin, name, None)
    assert replace(record, label=0).label == 0 and record.label == 1


def test_records_without_extra_columns_share_one_empty_covariate_dict(tmp_csv):
    generated = [sr.record for sr in generate_population(SynthConfig(n_population=50, seed=3))]
    vectors = vector_cohort(np.zeros((3, 2)), [0, 1, 0], "v").records
    loaded = load_cohort(tmp_csv("p.csv", "\n".join([HEADER, row("a"), row("b")]) + "\n")).records
    covariates = [r.other_covariates for r in (*generated, *vectors, *loaded)]
    assert all(c is SHARED_COVARIATES for c in covariates)
    assert type(SHARED_COVARIATES) is dict and SHARED_COVARIATES == {}


def test_shared_covariate_dict_stays_empty(tmp_csv, tmp_path):
    run_pipeline(RunConfig(seed=1, n_trees=3, synth={"n_population": 2000}, metrics={"min_per_class": 3}))
    assert SHARED_COVARIATES == {}
    for text in ("\n".join([HEADER, row("a"), row("b")]), "\n".join([HEADER + ",site", row("a") + ",x"])):
        out = str(tmp_path / "again.csv")
        write_cohort(load_cohort(tmp_csv("p.csv", text + "\n")), out)
        load_cohort(out)
        assert SHARED_COVARIATES == {}
