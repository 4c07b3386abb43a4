import numpy as np
import pytest

from confound_audit.errors import ConfigError, EmptyResult, MissingCovariate, OverlappingInputs
from confound_audit.matching import TEST_SET, TRAIN_SET, MatchSpec, age_bin, match_exact, stratum_keyer
from confound_audit.metrics import table_2x2_stats

from conftest import make_cohort, make_record
from reference_kernels import symptom_flag


def test_age_bins():
    assert age_bin(18) == "18-27"
    assert age_bin(27) == "18-27"
    assert age_bin(28) == "28-37"
    assert age_bin(77) == "68-77"
    assert age_bin(78) == "78+"
    assert age_bin(90) == "78+"


def test_stratum_key_example():
    r = make_record("a", 1, age=34, gender="female", channel="TT", cough=True)
    key = stratum_keyer(MatchSpec(covariates=TEST_SET, include_channel=True))(r)
    assert key == ("TT", "28-37", "female", 1, 0, 0, 0, 0, 1)


def test_stratum_key_ignores_score():
    spec = MatchSpec(covariates=TEST_SET)
    a = make_record("a", 1, age=40, score=0.1)
    b = make_record("b", 1, age=40, score=0.9)
    assert stratum_keyer(spec)(a) == stratum_keyer(spec)(b)


def test_stratum_key_missing_age():
    with pytest.raises(MissingCovariate):
        stratum_keyer(MatchSpec(covariates=TEST_SET))(make_record("a", age=None))


def test_covariates_must_be_nonempty():
    with pytest.raises(ConfigError):
        MatchSpec(covariates=())


def _stratum_cohort(n_pos, n_neg, **flags):
    records = [make_record(f"p{i}", 1, **flags) for i in range(n_pos)]
    records += [make_record(f"n{i}", 0, **flags) for i in range(n_neg)]
    return make_cohort(records)


def test_min_count_balancing():
    cohort = _stratum_cohort(5, 3)
    matched, report = match_exact(cohort, MatchSpec(covariates=("cough",), seed=1))
    labels = matched.labels()
    assert (labels == 1).sum() == 3 and (labels == 0).sum() == 3
    assert report.strata[0].n_kept_per_class == 3


def test_unmatchable_stratum_dropped():
    # coughing stratum has 4 positives and no negatives -> dropped entirely;
    # the asymptomatic stratum balances 2+2
    records = [make_record(f"p{i}", 1, cough=True) for i in range(4)]
    records += [make_record(f"q{i}", 1) for i in range(2)]
    records += [make_record(f"n{i}", 0) for i in range(3)]
    matched, report = match_exact(make_cohort(records), MatchSpec(covariates=("cough",), seed=0))
    assert all(not r.symptoms.cough for r in matched.records)
    assert len(matched) == 4
    dropped = [s for s in report.strata if s.n_kept_per_class == 0]
    assert len(dropped) == 1 and dropped[0].n_pos_in == 4 and dropped[0].n_neg_in == 0


def test_all_strata_dropped_raises():
    records = [make_record("p0", 1, cough=True), make_record("n0", 0)]
    with pytest.raises(EmptyResult):
        match_exact(make_cohort(records), MatchSpec(covariates=("cough",), seed=0))


def _mixed_cohort(seed=0, n=400):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        records.append(
            make_record(
                f"r{i}",
                label=int(rng.random() < 0.4),
                age=int(rng.integers(18, 85)),
                gender="male" if rng.random() < 0.5 else "female",
                channel="TT" if rng.random() < 0.7 else "REACT",
                cough=bool(rng.random() < 0.4),
                sore_throat=bool(rng.random() < 0.3),
                asthma=bool(rng.random() < 0.15),
                shortness_of_breath=bool(rng.random() < 0.2),
                runny_blocked_nose=bool(rng.random() < 0.35),
                new_continuous_cough=bool(rng.random() < 0.25),
                copd_emphysema=bool(rng.random() < 0.08),
                smoker=bool(rng.random() < 0.3),
            )
        )
    return make_cohort(records)


def _phi(cohort, flag_name):
    t = [[0, 0], [0, 0]]
    for r in cohort.records:
        t[int(symptom_flag(r.symptoms, flag_name))][r.label] += 1
    if t[0][0] + t[0][1] == 0 or t[1][0] + t[1][1] == 0:
        return 0.0  # flag constant in the matched output: trivially independent
    return table_2x2_stats(t).phi


@pytest.mark.parametrize("preset", [TEST_SET, TRAIN_SET])
def test_matched_covariates_decorrelate_exactly(preset):
    cohort = _mixed_cohort()
    spec = MatchSpec(covariates=preset, include_channel=False, seed=11)
    matched, report = match_exact(cohort, spec)
    labels = matched.labels()
    assert (labels == 1).sum() == (labels == 0).sum()
    for s in report.strata:
        if s.n_kept_per_class:
            members = [
                r for r in matched.records if stratum_keyer(spec)(r) == s.key
            ]
            kept = np.array([r.label for r in members])
            assert (kept == 1).sum() == (kept == 0).sum() == s.n_kept_per_class
    for flag in preset:
        assert _phi(matched, flag) == 0.0


def test_match_deterministic_and_subset():
    cohort = _mixed_cohort(3)
    spec = MatchSpec(covariates=("cough", "any_symptom"), seed=5)
    m1, _ = match_exact(cohort, spec)
    m2, _ = match_exact(cohort, spec)
    assert m1.ids() == m2.ids()
    assert set(m1.ids()) <= set(cohort.ids())


def test_match_order_independent():
    cohort = _mixed_cohort(4)
    spec = MatchSpec(covariates=("cough",), include_channel=False, seed=9)
    m1, _ = match_exact(cohort, spec)
    shuffled = make_cohort(list(cohort.records)[::-1])
    m2, _ = match_exact(shuffled, spec)
    assert set(m1.ids()) == set(m2.ids())


def test_match_seed_changes_subsample():
    cohort = _mixed_cohort(5)
    spec_a = MatchSpec(covariates=("cough",), include_channel=False, seed=1)
    spec_b = MatchSpec(covariates=("cough",), include_channel=False, seed=2)
    m1, _ = match_exact(cohort, spec_a)
    m2, _ = match_exact(cohort, spec_b)
    assert set(m1.ids()) != set(m2.ids())


def test_disjoint_from_refuses_overlap():
    cohort = _mixed_cohort(6)
    other = make_cohort([cohort.records[0]], source="other")
    with pytest.raises(OverlappingInputs):
        match_exact(cohort, MatchSpec(covariates=("cough",), seed=0), disjoint_from=other)


@pytest.mark.parametrize("blank, covariates, name", [
    ("cough", TEST_SET, "cough"),
    ("new_continuous_cough", TEST_SET, "any_symptom"),
    ("smoker", TRAIN_SET, "smoker"),
    ("asthma,smoker", ("cough", "asthma", "smoker"), "asthma"),
])
def test_blank_matched_flag_raises(blank, covariates, name):
    r = make_record("a", 1, missing=frozenset(blank.split(",")))
    spec = MatchSpec(covariates=covariates)
    with pytest.raises(MissingCovariate) as err:
        stratum_keyer(spec)(r)
    assert err.value.name == name
    with pytest.raises(MissingCovariate):
        match_exact(make_cohort([r, make_record("b", 0)]), spec)


def test_blank_unmatched_flag_is_ignored():
    r = make_record("a", 1, cough=True, missing=frozenset({"smoker", "copd_emphysema"}))
    assert stratum_keyer(MatchSpec(covariates=TEST_SET, include_channel=False))(r) == (
        "28-37", "female", 1, 0, 0, 0, 0, 1
    )
