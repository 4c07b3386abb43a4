import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confound_audit.errors import EncodingMismatch, MissingScore, OneClassOnly
from confound_audit.forest import (
    DEFAULT_SYMPTOM_PREDICTORS,
    TREE_ARRAYS,
    _grow_tree,
    _tree_predict,
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
from confound_audit.rngs import substream

from conftest import make_cohort, make_record
from reference_kernels import grow_tree_argsort_per_node, tree_predict_from_lists


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
    rng = np.random.default_rng(8)
    x, y = _noise_xy(rng, n=80, p=3)
    x[:, 0] = np.abs(x[:, 0]) + 0.1
    recoded = x.copy()
    recoded[:, 0] = recoded[:, 0] ** 3  # strictly increasing on positives
    for t in range(5):
        tree_a = _grow_tree(x, y, substream(21, "tree", t), 2)
        tree_b = _grow_tree(recoded, y, substream(21, "tree", t), 2)
        for name in ("feature", "left", "right", "leaf_frac"):
            assert np.array_equal(tree_a[name], tree_b[name])
        assert np.array_equal(_tree_predict(tree_a, x), _tree_predict(tree_b, recoded))


def _tree_json(tree: dict) -> str:
    """A tree as ``model_to_json`` writes it, for byte-exact comparison."""
    return json.dumps({name: np.asarray(a).tolist() for name, a in tree.items()}, sort_keys=True)


def _assert_same_tree(ref: dict, tree: dict, x: np.ndarray) -> None:
    for name, dtype in TREE_ARRAYS.items():
        assert tree[name].dtype == np.dtype(dtype)
        assert np.array_equal(np.asarray(ref[name]), tree[name])
    assert _tree_json(ref) == _tree_json(tree)
    # probe points between and beyond the training values as well
    probe = np.vstack([x, x + 0.05, x - 0.05])
    assert np.array_equal(tree_predict_from_lists(ref, probe), _tree_predict(tree, probe))


@st.composite
def tree_inputs(draw):
    """Small design matrices built to hit every tie rule: values rounded to
    0-1 decimals, binary and constant columns, and duplicated rows (whose
    labels may disagree, leaving impure nodes no feature can split)."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 6))
    columns = []
    for _ in range(p):
        kind = draw(st.sampled_from(("rounded", "binary", "constant")))
        if kind == "rounded":
            decimals = draw(st.integers(0, 1))
            value = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v, d=decimals: round(v, d))
            columns.append(draw(st.lists(value, min_size=n, max_size=n)))
        elif kind == "binary":
            columns.append(draw(st.lists(st.sampled_from((0.0, 1.0)), min_size=n, max_size=n)))
        else:
            columns.append([draw(st.floats(-3.0, 3.0, allow_nan=False))] * n)
    x = np.array(columns, dtype=float).T.reshape(n, p)
    if draw(st.booleans()):
        x = x[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return x, y, draw(st.integers(1, p)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(tree_inputs())
def test_presorted_tree_matches_reference(data):
    x, y, m_try, seed = data
    rng_ref, rng = substream(seed, "tree", 0), substream(seed, "tree", 0)
    ref = grow_tree_argsort_per_node(x, y, rng_ref, m_try)
    _assert_same_tree(ref, _grow_tree(x, y, rng, m_try), x)
    assert rng_ref.random() == rng.random()  # the same draws, in the same order


def test_presorted_trees_match_reference_on_bias_demo_matrix():
    from confound_audit.cohort import SplitSpec, split_cohort
    from confound_audit.synth import SynthConfig, generate_cohort

    cfg = SynthConfig(
        n_population=20_000, prevalence=0.25, enrolment="symptoms_based",
        signal_strength=0.0, confounder_strength=5.0, feature_dim=12, seed=1,
    )
    train, _ = split_cohort(generate_cohort(cfg)[0], SplitSpec(train_fraction=0.5, seed=1))
    x = encode_cohort(train, build_encoding(train, ("features",)))
    y = train.labels()
    model = fit_forest(x, y, n_trees=50, seed=1)
    for t, tree in enumerate(model.trees):
        rng = substream(1, "tree", t)
        boot = rng.integers(0, y.size, size=y.size)
        _assert_same_tree(grow_tree_argsort_per_node(x[boot], y[boot], rng, model.m_try), tree, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_design_matrix_rejected(bad):
    x, y = _noise_xy(np.random.default_rng(14), n=7, p=2)
    x[3, 1] = bad
    with pytest.raises(EncodingMismatch):
        fit_forest(x, y, n_trees=3, seed=0)


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


def test_model_json_round_trip_is_byte_identical():
    rng = np.random.default_rng(13)
    cohort = _symptom_cohort(rng, n=80)
    model = train_symptoms_model(cohort, n_trees=6, seed=4)
    text = model_to_json(model)
    clone = model_from_json(text)
    assert model_to_json(clone) == text
    assert np.array_equal(predict_proba(model, cohort), predict_proba(clone, cohort))
    for tree, loaded in zip(model.trees, clone.trees):
        for name, dtype in TREE_ARRAYS.items():
            assert loaded[name].dtype == np.dtype(dtype)
            assert np.array_equal(tree[name], loaded[name])


def test_model_json_with_list_trees_loads_and_predicts():
    # the on-disk format: each tree a dict of plain JSON lists
    tree = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
            "right": [2, -1, -1], "leaf_frac": [-1.0, 0.25, 1.0]}
    text = json.dumps({"n_trees": 1, "seed": 0, "m_try": 1, "oob_accuracy": None,
                       "trees": [tree], "encoding": None}, sort_keys=True)
    model = model_from_json(text)
    assert model_to_json(model) == text
    assert model.predict_matrix(np.array([[0.0], [0.5], [0.75]])).tolist() == [0.25, 0.25, 1.0]


def test_vector_encoding_mismatch():
    cohort = make_cohort([make_record("a", 1, features=[1.0, 2.0]), make_record("b", 0, features=[0.0, 1.0])])
    encoding = build_encoding(cohort, ("features",))
    bad = make_cohort([make_record("c", 1, features=[1.0, 2.0, 3.0])])
    with pytest.raises(EncodingMismatch):
        encode_cohort(bad, encoding)
