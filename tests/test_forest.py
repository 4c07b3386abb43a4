import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from confound_audit import forest
from confound_audit.cohort import load_cohort, vector_cohort, write_cohort
from confound_audit.errors import BadValue, EncodingMismatch, MissingScore, OneClassOnly
from confound_audit.forest import (
    DEFAULT_SYMPTOM_PREDICTORS,
    TREE_ARRAYS,
    TreeEnsemble,
    _grow_trees,
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
    # orderings, so tree structure and the routing of each tree's in-bag
    # records are unchanged (points strictly between training values, such
    # as out-of-bag records, may route differently, since midpoint thresholds
    # are not order-determined)
    rng = np.random.default_rng(8)
    x, y = _noise_xy(rng, n=80, p=3)
    x[:, 0] = np.abs(x[:, 0]) + 0.1
    recoded = x.copy()
    recoded[:, 0] = recoded[:, 0] ** 3  # strictly increasing on positives
    model_a = fit_forest(x, y, n_trees=5, seed=21)
    model_b = fit_forest(recoded, y, n_trees=5, seed=21)
    for t, (tree_a, tree_b) in enumerate(zip(model_a.trees, model_b.trees)):
        for name in ("feature", "left", "right", "leaf_frac"):
            assert np.array_equal(tree_a[name], tree_b[name])
        boot = substream(21, "tree", t).integers(0, y.size, size=y.size)
        assert np.array_equal(_predict_tree(tree_a, x[boot]), _predict_tree(tree_b, recoded[boot]))


def _predict_tree(tree: dict, x: np.ndarray) -> np.ndarray:
    return TreeEnsemble(n_trees=1, trees=[tree], seed=0, m_try=1, oob_accuracy=None).predict_matrix(x)


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
    assert np.array_equal(tree_predict_from_lists(ref, probe), _predict_tree(tree, probe))


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
    (tree,) = _grow_trees(np.ascontiguousarray(x.T), y.astype(float), [np.arange(y.size)], [rng], m_try)
    _assert_same_tree(ref, tree, x)


_CHUNK = forest._CANDIDATE_CHUNK


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 400).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p))),
    st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 3 * _CHUNK)), min_size=1, max_size=3),
)
@example((12, 3), [(0, 0)])  # a tree that takes nothing
@example((12, 3), [(1, _CHUNK), (2, _CHUNK + 1), (3, 2 * _CHUNK - 1)])  # chunk edges
@example((1, 1), [(4, 5)])  # one feature: every draw is in [0, 0]
def test_candidate_rows_match_per_node_choice(pm, trees):
    # each tree's chunked candidate rows are the sorted rows of one
    # ``choice`` call per node, taken in lockstep as ``_grow_trees`` takes
    # them
    p, m = pm
    rngs = [substream(seed, "tree", t) for t, (seed, _) in enumerate(trees)]
    oracles = [substream(seed, "tree", t) for t, (seed, _) in enumerate(trees)]
    takes = np.array([n for _, n in trees])
    candidates = forest._CandidateRows(rngs, p, m)
    for step in range(takes.max()):
        live = np.flatnonzero(takes > step)
        expected = [np.sort(oracles[t].choice(p, size=m, replace=False)) for t in live]
        assert np.array_equal(candidates.take(live), expected)


def _bias_demo_matrices(seed: int):
    """The ``bias-demo`` pipeline's train matrix, labels and test matrix."""
    from confound_audit.cohort import SplitSpec, split_cohort
    from confound_audit.synth import SynthConfig, generate_cohort

    cfg = SynthConfig(
        n_population=20_000, prevalence=0.25, enrolment="symptoms_based",
        signal_strength=0.0, confounder_strength=5.0, feature_dim=12, seed=seed,
    )
    train, test = split_cohort(generate_cohort(cfg)[0], SplitSpec(train_fraction=0.5, seed=seed))
    encoding = build_encoding(train, ("features",))
    return encode_cohort(train, encoding), train.labels(), encode_cohort(test, encoding)


def test_presorted_trees_match_reference_on_bias_demo_matrix():
    x, y, _ = _bias_demo_matrices(1)
    model = fit_forest(x, y, n_trees=50, seed=1)
    for t, tree in enumerate(model.trees):
        rng = substream(1, "tree", t)
        boot = rng.integers(0, y.size, size=y.size)
        _assert_same_tree(grow_tree_argsort_per_node(x[boot], y[boot], rng, model.m_try), tree, x)


def _reference_forest(x: np.ndarray, y: np.ndarray, n_trees: int, seed: int):
    """Trees, OOB accuracy and a predictor from the one-tree-at-a-time oracle:
    tree ``t`` grows on its bootstrap from ``substream(seed, "tree", t)``, and
    scores add up tree by tree, in order."""
    n, p = x.shape
    m_try = max(1, int(round(np.sqrt(p))))
    trees, oob_sum, oob_count = [], np.zeros(n), np.zeros(n)
    for t in range(n_trees):
        rng = substream(seed, "tree", t)
        boot = rng.integers(0, n, size=n)
        trees.append(grow_tree_argsort_per_node(x[boot], y[boot], rng, m_try))
        oob = np.ones(n, dtype=bool)
        oob[boot] = False
        if oob.any():
            oob_sum[oob] += tree_predict_from_lists(trees[-1], x[oob])
            oob_count[oob] += 1
    covered = oob_count > 0
    oob_accuracy = None
    if covered.any():
        oob_accuracy = float(np.mean((oob_sum[covered] / oob_count[covered] >= 0.5) == (y[covered] == 1)))

    def predict(z: np.ndarray) -> np.ndarray:
        out = np.zeros(z.shape[0])
        for tree in trees:
            out += tree_predict_from_lists(tree, z)
        return out / n_trees

    return trees, oob_accuracy, predict


@settings(max_examples=150, deadline=None)
@given(tree_inputs(), st.integers(1, 8))
def test_forest_matches_per_tree_reference(data, n_trees):
    x, y, _, seed = data
    assume((y == 0).any() and (y == 1).any())
    model = fit_forest(x, y, n_trees=n_trees, seed=seed)
    trees, oob_accuracy, predict = _reference_forest(x, y, n_trees, seed)
    assert len(model.trees) == n_trees
    for ref, tree in zip(trees, model.trees):
        _assert_same_tree(ref, tree, x)
    assert model.oob_accuracy == oob_accuracy
    probe = np.vstack([x, x + 0.05, x - 0.05])
    assert model.predict_matrix(probe).tobytes() == predict(probe).tobytes()


def test_bias_demo_forest_golden_digests():
    # sha256 of the model JSON and of the test-set score bytes, pinned from
    # the one-tree-at-a-time forest; any change to a tree, a threshold, the
    # OOB figure or the order scores add up in moves them
    x, y, test_x = _bias_demo_matrices(3)
    model = fit_forest(x, y, 50, 3)
    model_digest = hashlib.sha256(model_to_json(model).encode()).hexdigest()
    score_digest = hashlib.sha256(model.predict_matrix(test_x).tobytes()).hexdigest()
    assert model_digest == "4318dcebf488d4fe922c5c2e6b09c908f6ccaef4667e60f2a78e4dafd73e9cd9"
    assert score_digest == "cdd9ec1f18cfe7ede2318838a0dbd7e49c76d573b586c1f4ac01349ef85edd37"


def test_fit_forest_memory_peak_on_bias_demo_matrix():
    x, y, _ = _bias_demo_matrices(3)
    tracemalloc.start()
    try:
        fit_forest(x, y, 50, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_design_matrix_rejected(bad):
    x, y = _noise_xy(np.random.default_rng(14), n=7, p=2)
    x[3, 1] = bad
    with pytest.raises(EncodingMismatch):
        fit_forest(x, y, n_trees=3, seed=0)


@pytest.mark.parametrize(
    "x, y",
    [
        (np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 1, 2, 1])),  # a label outside {0, 1}
        (np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 1, -1, 1])),
        (np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0.0, 1.0, 0.5, 1.0])),
        (np.array([0.0, 1.0, 2.0, 3.0]), np.array([0, 1, 0, 1])),  # 1-D design matrix
        (np.zeros((4, 0)), np.array([0, 1, 0, 1])),  # no columns
        (np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 1, 0])),  # fewer labels than rows
        (np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 0, 1])),  # more labels than rows
        (np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([[0, 1], [0, 1]])),  # 2-D labels
    ],
)
def test_fit_forest_rejects_bad_inputs(x, y):
    with pytest.raises(EncodingMismatch):
        fit_forest(x, y, n_trees=3, seed=0)


def test_predict_matrix_checks_its_input():
    x, y = _noise_xy(np.random.default_rng(15), n=60, p=3)
    model = fit_forest(x, y, n_trees=4, seed=0)
    top = max(int(tree["feature"].max()) for tree in model.trees)
    assert model.predict_matrix(x[:, : top + 1]).shape == (60,)  # extra columns are not needed
    for bad in (x[:, :top], x[0], x[None]):
        with pytest.raises(EncodingMismatch):
            model.predict_matrix(bad)
    assert model.predict_matrix(np.zeros((0, 3))).shape == (0,)
    model.trees = []
    with pytest.raises(EncodingMismatch):
        model.predict_matrix(x)


def test_block_sizes_change_no_bit(monkeypatch):
    # nodes are scored, and (tree, row) pairs routed, in blocks of a bounded
    # size; neither size changes a tree, the OOB figure or a score bit
    x, y = _noise_xy(np.random.default_rng(16), n=90, p=4)
    model = fit_forest(x, y, n_trees=7, seed=2)
    whole = model.predict_matrix(x)
    monkeypatch.setattr(forest, "_ROUTE_PAIRS", 20)
    monkeypatch.setattr(forest, "_BLOCK_COLUMNS", 1)
    assert model.predict_matrix(x).tobytes() == whole.tobytes()
    assert model_to_json(fit_forest(x, y, n_trees=7, seed=2)) == model_to_json(model)


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
    # one score per record, in record order: no other shape is read
    cohort = make_cohort([make_record("a", 1), make_record("b", 0)])
    for scores in ([0.5], [0.5, 0.25, 0.75], [[0.5, 0.25]]):
        with pytest.raises(ValueError, match="one audio score per record"):
            hybrid_features(cohort, scores)


def test_hybrid_features_attaches_scores():
    cohort = make_cohort([make_record("a", 1), make_record("b", 0)])
    out = hybrid_features(cohort, [0.25, 0.75])
    assert [r.score for r in out.records] == [0.25, 0.75]


@pytest.mark.parametrize("bad", [np.nan, 1.5, -0.25, np.inf, -np.inf])
@pytest.mark.parametrize("as_array", [False, True])
def test_hybrid_features_refuses_scores_load_cohort_refuses(bad, as_array):
    cohort = make_cohort([make_record("a", 1), make_record("b", 0), make_record("c", 1)])
    scores = [0.2, bad, bad]
    with pytest.raises(BadValue) as err:
        hybrid_features(cohort, np.array(scores) if as_array else scores)
    assert (err.value.row, err.value.column) == (2, "score")
    assert np.array_equal(err.value.value, bad, equal_nan=True)


def test_hybrid_scores_round_trip_through_the_csv(tmp_path):
    x = np.random.default_rng(3).normal(size=(40, 2))
    scores = np.concatenate([[0.0, 1.0], np.random.default_rng(4).random(38)])
    scored = hybrid_features(vector_cohort(x, np.arange(40) % 2, "r"), scores)
    path = str(tmp_path / "scored.csv")
    write_cohort(scored, path)
    assert load_cohort(path).scores().tobytes() == scored.scores().tobytes() == scores.tobytes()


def test_encode_missing_audio_score_raises():
    cohort = make_cohort([make_record("a", 1, score=0.2), make_record("b", 0)])
    encoding = build_encoding(cohort, ("cough", "audio_score"))
    with pytest.raises(MissingScore):
        encode_cohort(cohort, encoding)


def test_encode_blank_flag_raises():
    cohort = make_cohort([make_record("a", 1, cough=True), make_record("b", 0, missing=frozenset({"cough"}))])
    encoding = build_encoding(cohort, ("cough", "age"))
    with pytest.raises(EncodingMismatch, match="record b has a blank 'cough' flag"):
        encode_cohort(cohort, encoding)
    # a blank flag the encoding does not use is no obstacle
    assert encode_cohort(cohort, build_encoding(cohort, ("sore_throat",))).tolist() == [[0.0], [0.0]]


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


def _break_tree(payload, field, edit):
    edit(payload["trees"][0][field])
    return json.dumps(payload)


def _break_encoding(payload, edit):
    edit(payload["encoding"])
    return json.dumps(payload)


@pytest.mark.parametrize("breakage, message", [
    pytest.param(lambda p: _break_tree(p, "left", lambda a: a.__setitem__(0, 10**6)),
                 "tree 0: node 0 has 'left' child 1000000", id="child-out-of-range"),
    # a root that is its own left child routed forever before it was checked
    pytest.param(lambda p: _break_tree(p, "left", lambda a: a.__setitem__(0, 0)),
                 "tree 0: node 0 has 'left' child 0", id="self-loop"),
    # so did one node array longer than the others
    pytest.param(lambda p: _break_tree(p, "feature", lambda a: a.append(-1)), "tree 0 has", id="long-array"),
    pytest.param(lambda p: _break_tree(p, "leaf_frac", lambda a: a.__setitem__(-1, 1.5)),
                 "tree 0 has a leaf whose 'leaf_frac'", id="leaf-frac"),
    pytest.param(lambda p: _break_tree(p, "right", lambda a: a.__setitem__(0, "x")),
                 "tree 0 has a non-numeric 'right'", id="non-numeric"),
    # an index of 0.5 was read as 0, and a NaN threshold sent every row right
    pytest.param(lambda p: _break_tree(p, "feature", lambda a: a.__setitem__(0, a[0] + 0.5)),
                 "tree 0 has a non-integer 'feature'", id="fractional-index"),
    pytest.param(lambda p: _break_tree(p, "threshold", lambda a: a.__setitem__(0, float("nan"))),
                 "tree 0 has a 'threshold' that is not finite", id="nan-threshold"),
    pytest.param(lambda p: json.dumps({**p, "trees": p["trees"][:1] + [{"feature": [-1]}] + p["trees"][2:]}),
                 "tree 1 lacks 'threshold'", id="missing-field"),
    pytest.param(lambda p: json.dumps({**p, "n_trees": 4}), "'n_trees'", id="n-trees"),
    pytest.param(lambda p: json.dumps({**p, "n_trees": 0, "trees": []}), "'n_trees'", id="no-trees"),
    pytest.param(lambda p: json.dumps({k: v for k, v in p.items() if k != "m_try"}), "lacks 'm_try'",
                 id="missing-key"),
    pytest.param(lambda p: json.dumps({**p, "seed": float("inf")}), "malformed 'seed'", id="infinite-seed"),
    pytest.param(lambda p: json.dumps(p)[:200], "not valid JSON", id="truncated"),
    pytest.param(lambda p: "[1, 2]", "not a JSON object", id="not-an-object"),
    # a categorical source without levels used to raise KeyError in encode_cohort
    pytest.param(lambda p: _break_encoding(p, lambda e: e["levels"].pop("gender")),
                 "source 'gender' has no levels", id="no-levels"),
    # an unknown kind was skipped, which narrowed the design matrix by a column
    pytest.param(lambda p: _break_encoding(p, lambda e: e["sources"][0].__setitem__(1, "boolean")),
                 "source 'cough' has kind 'boolean', not 'bool'", id="unknown-kind"),
    pytest.param(lambda p: _break_encoding(p, lambda e: e["sources"][8].__setitem__(1, "categorical")),
                 "source 'age' has kind 'categorical', not 'numeric'", id="wrong-kind"),
    pytest.param(lambda p: _break_encoding(p, lambda e: e["sources"].append(["features", "vector"])),
                 "source 'features' has vector_dim 0", id="vector-dim"),
])
def test_model_from_json_rejects_broken_files(breakage, message):
    model = train_symptoms_model(_symptom_cohort(np.random.default_rng(14), n=60), n_trees=5, seed=1)
    text = model_to_json(model)
    assert model_to_json(model_from_json(text)) == text
    with pytest.raises(EncodingMismatch, match=message):
        model_from_json(breakage(json.loads(text)))


def test_vector_encoding_mismatch():
    cohort = make_cohort([make_record("a", 1, features=[1.0, 2.0]), make_record("b", 0, features=[0.0, 1.0])])
    encoding = build_encoding(cohort, ("features",))
    bad = make_cohort([make_record("c", 1, features=[1.0, 2.0, 3.0])])
    with pytest.raises(EncodingMismatch):
        encode_cohort(bad, encoding)
