import numpy as np
import pytest

from confound_audit.errors import EncodingMismatch, MissingScore, OneClassOnly
from confound_audit.forest import (
    DEFAULT_SYMPTOM_PREDICTORS,
    build_encoding,
    encode_cohort,
    fit_forest,
    hybrid_features,
    model_from_json,
    model_to_json,
    predict_proba,
    train_symptoms_model,
)
from confound_audit.metrics import ScoredLabels, auc

from conftest import make_cohort, make_record


def _noise_xy(rng, n=120, p=5):
    x = rng.normal(size=(n, p))
    y = rng.integers(0, 2, n)
    y[:2] = [0, 1]
    return x, y


def test_oob_on_separable_feature():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, 200)
    y[:2] = [0, 1]
    x = np.column_stack([y + rng.normal(0, 0.01, 200), rng.normal(size=200)])
    model = fit_forest(x, y, n_trees=30, seed=1)
    assert model.oob_accuracy >= 0.95


def test_noise_features_auc_near_half():
    rng = np.random.default_rng(1)
    aucs = []
    for seed in range(50):
        x, y = _noise_xy(rng)
        model = fit_forest(x[:80], y[:80], n_trees=15, seed=seed)
        if y[80:].min() == y[80:].max():
            continue
        aucs.append(auc(ScoredLabels(model.predict_matrix(x[80:]), y[80:])))
    assert 0.45 <= np.mean(aucs) <= 0.55


def test_scores_are_probabilities():
    rng = np.random.default_rng(2)
    x, y = _noise_xy(rng)
    model = fit_forest(x, y, n_trees=10, seed=3)
    scores = model.predict_matrix(x)
    assert np.all((scores >= 0.0) & (scores <= 1.0))


def test_single_tree_pure_leaf_scores_one():
    x = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0, 0, 1, 1])
    model = fit_forest(x, y, n_trees=1, seed=5)
    assert model.predict_matrix(np.array([[1.0]]))[0] == 1.0


def test_identical_trees_average_to_single_tree():
    rng = np.random.default_rng(4)
    x, y = _noise_xy(rng, n=60)
    single = fit_forest(x, y, n_trees=1, seed=9)
    tripled = fit_forest(x, y, n_trees=1, seed=9)
    tripled.trees = single.trees * 3
    tripled.n_trees = 3
    assert np.allclose(single.predict_matrix(x), tripled.predict_matrix(x))


def test_prediction_stable_under_reordering():
    records = [
        make_record(f"r{i}", label=i % 2, age=20 + i, cough=bool(i % 3 == 0))
        for i in range(40)
    ]
    cohort = make_cohort(records)
    model = train_symptoms_model(cohort, n_trees=10, seed=7)
    scores = dict(zip(cohort.ids(), predict_proba(model, cohort)))
    reordered = make_cohort(records[::-1])
    scores_r = dict(zip(reordered.ids(), predict_proba(model, reordered)))
    assert scores == scores_r


def test_determinism_incl_bootstrap():
    rng = np.random.default_rng(6)
    x, y = _noise_xy(rng)
    a = fit_forest(x, y, n_trees=8, seed=11)
    b = fit_forest(x, y, n_trees=8, seed=11)
    assert model_to_json(a) == model_to_json(b)
    c = fit_forest(x, y, n_trees=8, seed=12)
    assert model_to_json(a) != model_to_json(c)


def test_zero_trees_rejected():
    x, y = _noise_xy(np.random.default_rng(7))
    with pytest.raises(ValueError):
        fit_forest(x, y, n_trees=0, seed=13)


def test_monotone_recoding_invariance_on_train():
    # recoding a numeric feature by a strictly increasing map preserves split
    # orderings, so tree structure and fitted-record routing are unchanged
    # (points strictly between training values may route differently, since
    # midpoint thresholds are not order-determined)
    from confound_audit.forest import _grow_tree, _tree_predict
    from confound_audit.rngs import substream

    rng = np.random.default_rng(8)
    x, y = _noise_xy(rng, n=80, p=3)
    x[:, 0] = np.abs(x[:, 0]) + 0.1
    recoded = x.copy()
    recoded[:, 0] = recoded[:, 0] ** 3  # strictly increasing on positives
    for t in range(5):
        tree_a = _grow_tree(x, y, substream(21, "tree", t), 2)
        tree_b = _grow_tree(recoded, y, substream(21, "tree", t), 2)
        assert tree_a["feature"] == tree_b["feature"]
        assert tree_a["left"] == tree_b["left"] and tree_a["right"] == tree_b["right"]
        assert tree_a["leaf_frac"] == tree_b["leaf_frac"]
        assert np.array_equal(_tree_predict(tree_a, x), _tree_predict(tree_b, recoded))


def test_one_class_raises():
    with pytest.raises(OneClassOnly):
        fit_forest(np.zeros((5, 2)), np.ones(5, dtype=int), n_trees=3, seed=0)


def _symptom_cohort(rng, n=120, oracle_audio=False, constant_audio=None):
    records = []
    for i in range(n):
        label = int(rng.random() < 0.5)
        flags = {
            "cough": bool(rng.random() < (0.6 if label else 0.3)),
            "sore_throat": bool(rng.random() < (0.4 if label else 0.25)),
            "asthma": bool(rng.random() < 0.1),
        }
        score = None
        if oracle_audio:
            score = float(label)
        elif constant_audio is not None:
            score = constant_audio
        records.append(
            make_record(
                f"r{i}", label=label, age=int(rng.integers(18, 80)),
                gender="male" if rng.random() < 0.5 else "female",
                score=score, **flags,
            )
        )
    return make_cohort(records)


def test_encoding_drops_missing_optional_predictors():
    rng = np.random.default_rng(9)
    cohort = _symptom_cohort(rng, n=30)
    encoding = build_encoding(cohort, DEFAULT_SYMPTOM_PREDICTORS + ("ethnicity",))
    assert "ethnicity" in encoding.dropped
    assert "ethnicity" not in [s[0] for s in encoding.sources]


def test_encoding_unknown_level_zero_block():
    records = [make_record("a", 1, gender="male"), make_record("b", 0, gender="male")]
    encoding = build_encoding(make_cohort(records), ("gender",))
    x = encode_cohort(make_cohort([make_record("c", 1, gender="female")]), encoding)
    assert x.shape == (1, 1)
    assert (x == 0).all()  # "female" unseen at build time


def test_hybrid_oracle_audio_beats_symptoms_only():
    rng = np.random.default_rng(10)
    train = _symptom_cohort(rng, n=160, oracle_audio=True)
    test = _symptom_cohort(rng, n=120, oracle_audio=True)
    predictors = ("cough", "sore_throat", "asthma", "age", "gender")
    sym_model = train_symptoms_model(train, predictors=predictors, n_trees=25, seed=1)
    hyb_model = train_symptoms_model(train, predictors=predictors + ("audio_score",), n_trees=25, seed=1)
    sym_auc = auc(ScoredLabels(predict_proba(sym_model, test), test.labels()))
    hyb_auc = auc(ScoredLabels(predict_proba(hyb_model, test), test.labels()))
    assert hyb_auc >= sym_auc


def test_hybrid_constant_audio_within_noise():
    rng = np.random.default_rng(11)
    predictors = ("cough", "sore_throat", "asthma", "age", "gender")
    diffs = []
    for seed in range(50):
        train = _symptom_cohort(rng, n=100, constant_audio=0.5)
        test = _symptom_cohort(rng, n=80, constant_audio=0.5)
        sym = train_symptoms_model(train, predictors=predictors, n_trees=10, seed=seed)
        hyb = train_symptoms_model(train, predictors=predictors + ("audio_score",), n_trees=10, seed=seed)
        sym_auc = auc(ScoredLabels(predict_proba(sym, test), test.labels()))
        hyb_auc = auc(ScoredLabels(predict_proba(hyb, test), test.labels()))
        diffs.append(hyb_auc - sym_auc)
    assert abs(np.mean(diffs)) <= 0.02


def test_hybrid_features_requires_all_scores():
    cohort = make_cohort([make_record("a", 1), make_record("b", 0)])
    with pytest.raises(MissingScore) as err:
        hybrid_features(cohort, {"a": 0.5})
    assert err.value.record_id == "b"


def test_hybrid_features_attaches_scores():
    cohort = make_cohort([make_record("a", 1), make_record("b", 0)])
    out = hybrid_features(cohort, {"a": 0.25, "b": 0.75})
    assert [r.score for r in out.records] == [0.25, 0.75]


def test_encode_missing_audio_score_raises():
    cohort = make_cohort([make_record("a", 1, score=0.2), make_record("b", 0)])
    encoding = build_encoding(cohort, ("cough", "audio_score"))
    with pytest.raises(MissingScore):
        encode_cohort(cohort, encoding)


def test_json_round_trip():
    rng = np.random.default_rng(12)
    cohort = _symptom_cohort(rng, n=60)
    model = train_symptoms_model(cohort, n_trees=6, seed=2)
    clone = model_from_json(model_to_json(model))
    assert np.allclose(predict_proba(model, cohort), predict_proba(clone, cohort))
    assert clone.encoding.sources == model.encoding.sources


def test_vector_encoding_mismatch():
    cohort = make_cohort([make_record("a", 1, features=[1.0, 2.0]), make_record("b", 0, features=[0.0, 1.0])])
    encoding = build_encoding(cohort, ("features",))
    bad = make_cohort([make_record("c", 1, features=[1.0, 2.0, 3.0])])
    with pytest.raises(EncodingMismatch):
        encode_cohort(bad, encoding)
