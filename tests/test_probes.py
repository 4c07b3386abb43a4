import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confound_audit import pipeline
from confound_audit.cohort import vector_cohort
from confound_audit.errors import EncodingMismatch, NoNegatives, OneClassOnly, RankDeficientWarning, TooFewSamples
from confound_audit.forest import hybrid_features
from confound_audit.metrics import uar
from confound_audit.pipeline import RunConfig, run_pipeline
from confound_audit.probes import (
    WeakProbeConfig,
    _train_weak_prefixes,
    make_calibration_cohort,
    nn_substitute,
    pca_fit,
    pca_project,
    train_weak_linear,
    weak_robust_curate,
)

from conftest import make_cohort, make_record
from reference_kernels import nn_substitute_loop, pca_reconstruct, train_weak_linear_loop, weak_robust_curate_loop


# -- PCA ------------------------------------------------------------------------


def test_pca_axis_aligned():
    rng = np.random.default_rng(0)
    x = np.zeros((50, 3))
    x[:, 1] = rng.normal(0, 2.0, 50)
    model = pca_fit(x, n_components=1)
    assert abs(abs(model.components[0, 1]) - 1.0) < 1e-9
    assert model.components[0, 1] > 0  # sign convention: largest coordinate positive
    assert abs(pca_project(model, x).var(axis=0, ddof=1)[0] - x[:, 1].var(ddof=1)) < 1e-9


def test_pca_orthonormal_components():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(80, 6))
    model = pca_fit(x, n_components=6)
    gram = model.components @ model.components.T
    assert np.allclose(gram, np.eye(6), atol=1e-9)
    assert (np.diff(pca_project(model, x).var(axis=0, ddof=1)) <= 1e-12).all()


def test_pca_isotropic_variances_roughly_equal():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(10_000, 6))
    model = pca_fit(x, n_components=6)
    variances = pca_project(model, x).var(axis=0, ddof=1)
    ratio = variances[0] / variances[-1]
    assert ratio < 1.2


def test_pca_full_reconstruction():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 5)) @ rng.normal(size=(5, 5))
    model = pca_fit(x, n_components=5)
    z = pca_project(model, x)
    assert np.allclose(pca_reconstruct(model, z), x, atol=1e-9)


def test_pca_rank_deficient_warns_and_truncates():
    rng = np.random.default_rng(4)
    base = rng.normal(size=(30, 2))
    x = np.column_stack([base, base[:, 0] + base[:, 1], base[:, 0] - base[:, 1]])
    with pytest.warns(RankDeficientWarning):
        model = pca_fit(x, n_components=4)
    assert model.n_components == 2


def test_pca_needs_enough_records():
    with pytest.raises(ValueError):
        pca_fit(np.zeros((3, 5)), n_components=3)


def test_pca_retained_energy_beats_random_projections():
    # PCA maximizes retained pairwise squared distance among rank-k projections
    rng = np.random.default_rng(5)
    x = rng.normal(size=(12, 4)) * np.array([3.0, 2.0, 1.0, 0.5])

    def pairwise_energy(z):
        diffs = z[:, None, :] - z[None, :, :]
        return float(np.sum(diffs**2))

    for k in (1, 2):
        model = pca_fit(x, n_components=k)
        pca_energy = pairwise_energy(pca_project(model, x))
        for _ in range(2000):
            raw = rng.normal(size=(4, k))
            q, _ = np.linalg.qr(raw)
            z = (x - x.mean(axis=0)) @ q
            assert pairwise_energy(z) <= pca_energy + 1e-9


# -- weak linear model ---------------------------------------------------------------


def test_weak_linear_separable_1d():
    x = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = train_weak_linear(x, y)
    assert uar(model.predict(x), y) == 1.0


def test_weak_linear_label_flip_negates_decision():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(60, 4))
    y = rng.integers(0, 2, 60)
    y[:2] = [0, 1]
    a = train_weak_linear(x, y)
    b = train_weak_linear(x, 1 - y)
    assert np.allclose(a.decision(x), -b.decision(x), atol=1e-12)
    assert np.array_equal(a.predict(x), 1 - b.predict(x))


def test_weak_linear_noise_held_out_uar_near_half():
    rng = np.random.default_rng(7)
    uars = []
    for _ in range(100):
        x = rng.normal(size=(80, 3))
        y = rng.integers(0, 2, 80)
        y[:2] = [0, 1]
        model = train_weak_linear(x[:60], y[:60]) if 0 < y[:60].sum() < 60 else None
        if model is None or y[60:].min() == y[60:].max():
            continue
        uars.append(uar(model.predict(x[60:]), y[60:]))
    assert 0.45 <= np.mean(uars) <= 0.55


def test_weak_linear_one_class():
    with pytest.raises(OneClassOnly):
        train_weak_linear(np.zeros((4, 2)), np.ones(4, dtype=int))


def test_weak_linear_deterministic():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(50, 3))
    y = rng.integers(0, 2, 50)
    y[:2] = [0, 1]
    a = train_weak_linear(x, y)
    b = train_weak_linear(x, y)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


WEAK_FIELDS = ("feature_mean", "feature_scale", "weights", "bias")


def _same_bits(a, b) -> bool:
    return all(
        np.asarray(getattr(a, f), dtype=float).tobytes() == np.asarray(getattr(b, f), dtype=float).tobytes()
        for f in WEAK_FIELDS
    )


@st.composite
def weak_fit_inputs(draw):
    """Features rounded to 0-2 decimals, some columns constant or all zero,
    either class possibly rare, C or Fortran order."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.round(rng.normal(0.0, draw(st.sampled_from([0.1, 1.0, 7.0])), size=(n, d)), draw(st.integers(0, 2)))
    for col in draw(st.lists(st.integers(0, d - 1), max_size=3)):
        x[:, col] = draw(st.sampled_from([0.0, 1.0, -2.5]))
    y = (rng.random(n) < draw(st.sampled_from([0.02, 0.1, 0.5]))).astype(int)
    if y.min() == y.max():
        y[draw(st.integers(0, n - 1))] ^= 1
    if draw(st.booleans()):
        y = 1 - y
    if draw(st.booleans()):
        x = np.asfortranarray(x)
    return x, y, draw(st.sampled_from([0.01, 0.3, 1.0, 4.0])), draw(st.integers(0, 120))


def _assert_kernel_matches_loop(x, y, l2, n_iter):
    """Every prefix model of one lockstep fit, and the one-model
    ``train_weak_linear``, has the loop's bits."""
    models = _train_weak_prefixes(x, y, range(1, x.shape[1] + 1), l2, n_iter)
    for k, model in enumerate(models, start=1):
        assert _same_bits(model, train_weak_linear_loop(x[:, :k], y, l2, n_iter)), k
    assert _same_bits(train_weak_linear(x, y, l2, n_iter), train_weak_linear_loop(x, y, l2, n_iter))


@settings(max_examples=80, deadline=None)
@given(weak_fit_inputs())
def test_lockstep_weak_kernel_matches_loop_bits(case):
    _assert_kernel_matches_loop(*case)


def _margin_tie_case(seed: int):
    """A fit whose second step puts one row's margin at exactly 1 in exact
    arithmetic: ``l2`` is chosen from that row's first-step margin. Margins
    reach the weights only through ``margin < 1``, so a change in how they
    are rounded shows only at such a tie."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 60)), int(rng.integers(2, 8))
    x = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 3)))
    y = (rng.random(n) < 0.5).astype(int)
    y[:2] = [0, 1]
    xk = x[:, : int(rng.integers(2, d + 1))]
    scale = xk.std(axis=0)
    scale[scale == 0.0] = 1.0
    yz = (2.0 * y - 1.0)[:, None] * (xk - xk.mean(axis=0)) / scale
    l2 = abs(yz[int(rng.integers(0, n))] @ yz.sum(axis=0) + (2.0 * y - 1.0).sum()) / n
    return x, y, max(l2, 0.01), int(rng.integers(2, 6))


def test_lockstep_weak_kernel_matches_loop_at_margin_ties():
    for seed in range(150):
        _assert_kernel_matches_loop(*_margin_tie_case(seed))


def _probe_regimes():
    """The three inputs of the probe at full size (1500 records a class, 16
    features, 10 negative-class components, 200 steps), one per regime of
    the kernel's sum reuse:
    - planted: an unmeasured trait shifts features along one direction; most
      violator sets stay put from one step to the next;
    - signal: the class signal lies on an axis along which negatives do not
      vary, so no component sees it and every row violates at every step;
    - calibration: the easy task projected on the planted cohort's
      components; most sets move at every step.
    """
    rng = np.random.default_rng(11)
    n, dim = 1500, 16
    y = np.repeat([1, 0], n)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    trait = rng.random(2 * n) < np.where(y == 1, 0.8, 0.2)
    planted = rng.normal(size=(2 * n, dim)) + 3.0 * trait[:, None] * direction
    signal = np.zeros((2 * n, dim))
    signal[:, 1:] = rng.normal(size=(2 * n, dim - 1))
    signal[:n, 0] = 2.0 + rng.normal(size=n)
    calibration = make_calibration_cohort(dim, n_per_class=300, seed=11)
    signal_pca = pca_fit(signal[y == 0], n_components=10)
    planted_pca = pca_fit(planted[y == 0], n_components=10)
    return {
        "planted": (pca_project(planted_pca, planted), y),
        "signal": (pca_project(signal_pca, signal), y),
        "calibration": (pca_project(planted_pca, calibration.feature_matrix()), calibration.labels()),
    }


@pytest.mark.parametrize("regime", ["planted", "signal", "calibration"])
def test_lockstep_weak_kernel_matches_loop_at_probe_size(regime):
    z, y = _probe_regimes()[regime]
    models = _train_weak_prefixes(z, y, range(1, z.shape[1] + 1))
    for k, model in enumerate(models, start=1):
        assert _same_bits(model, train_weak_linear_loop(z[:, :k], y)), k


# -- probe fixtures --------------------------------------------------------------------


def _confounded_cohort(seed=0, n_per_class=150, dim=8, beta=4.0):
    """Balanced two-class cohort whose only class signal is a binary trait
    that also varies among negatives (a confounder living in their span)."""
    rng = np.random.default_rng(seed)
    records = []
    direction = np.zeros(dim)
    direction[:2] = [1.0, -0.5]
    for c, n in ((1, n_per_class), (0, n_per_class)):
        p_trait = 0.85 if c == 1 else 0.15
        for i in range(n):
            trait = rng.random() < p_trait
            x = rng.normal(size=dim)
            if trait:
                x = x + beta * direction
            score = 0.85 if trait else 0.15  # main classifier keyed to the trait
            records.append(
                make_record(f"c{c}-{i}", label=c, score=score + rng.normal(0, 0.02), features=x)
            )
    return make_cohort(records)


def _orthogonal_signal_cohort(seed=0, n_per_class=150, dim=8, alpha=2.0):
    """Positives shifted along axis 0; negatives have no variance there."""
    rng = np.random.default_rng(seed)
    n = n_per_class
    x = np.zeros((2 * n, dim))
    x[:n, 1:] = rng.normal(size=(n, dim - 1))
    x[:n, 0] = alpha + rng.normal(size=n)
    x[n:, 1:] = rng.normal(size=(n, dim - 1))
    scores = [float(1.0 / (1.0 + np.exp(-2.0 * (v - alpha / 2)))) for v in x[:, 0]]
    return hybrid_features(vector_cohort(x, np.repeat([1, 0], n), "s"), scores)


def test_weak_robust_removes_confounded_records():
    cohort = _confounded_cohort(seed=1)
    calibration = make_calibration_cohort(8, n_per_class=200, seed=1)
    result = weak_robust_curate(cohort, calibration, WeakProbeConfig(k_max=5, seed=1))
    assert result.tau is not None
    assert result.uncurated_auc > 0.8
    assert result.curated_auc_at_tau is not None
    assert result.uncurated_auc - result.curated_auc_at_tau >= 0.2


def test_weak_robust_curated_set_monotone():
    cohort = _confounded_cohort(seed=2)
    calibration = make_calibration_cohort(8, n_per_class=150, seed=2)
    result = weak_robust_curate(cohort, calibration, WeakProbeConfig(k_max=6, seed=2))
    sizes = result.curated_size_per_k
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    removed = set()
    for ids in result.removed_ids_per_k:
        assert removed.isdisjoint(ids)
        removed.update(ids)


def test_weak_robust_spares_orthogonal_signal():
    cohort = _orthogonal_signal_cohort(seed=3)
    calibration = make_calibration_cohort(8, n_per_class=200, seed=3)
    result = weak_robust_curate(cohort, calibration, WeakProbeConfig(k_max=5, seed=3))
    assert result.tau is not None
    assert abs(result.uncurated_auc - result.curated_auc_at_tau) <= 0.05


def test_weak_robust_degenerate_model_removes_nothing():
    # identical features for everyone: the weak model cannot discriminate and
    # must not trigger removals
    records = [make_record(f"p{i}", 1, features=[1.0, 2.0]) for i in range(10)]
    records += [make_record(f"n{i}", 0, features=[1.0, 2.0]) for i in range(10)]
    for i, r in enumerate(records):
        records[i] = r.with_score(0.5)
    cohort = make_cohort(records)
    calibration = make_calibration_cohort(2, n_per_class=50, seed=4)
    result = weak_robust_curate(cohort, calibration, WeakProbeConfig(k_max=2, seed=4))
    assert all(len(ids) == 0 for ids in result.removed_ids_per_k)
    assert result.curated_size_per_k[-1] == 20


def test_weak_robust_calibration_never_passes():
    cohort = _confounded_cohort(seed=5, n_per_class=60)
    # labels drawn apart from the features: no weak model can solve the task
    rng = np.random.default_rng(5)
    calibration = vector_cohort(rng.normal(size=(200, 8)), np.arange(200) % 2, "cal")
    result = weak_robust_curate(
        cohort, calibration, WeakProbeConfig(k_max=4, calibration_uar_threshold=0.95, seed=5)
    )
    assert result.tau is None
    assert result.curated_auc_at_tau is None
    assert len(result.ks) == 4  # full curve still reported


@pytest.mark.parametrize("calibration_dim", [3, 9])
def test_weak_robust_refuses_calibration_of_another_width(calibration_dim):
    cohort = _confounded_cohort(seed=6, n_per_class=40)
    calibration = make_calibration_cohort(calibration_dim, n_per_class=50, seed=6)
    with pytest.raises(EncodingMismatch) as err:
        weak_robust_curate(cohort, calibration, WeakProbeConfig(k_max=4, seed=6))
    assert f"calibration cohort has {calibration_dim} features, the matched cohort 8" in str(err.value)


def test_nn_identical_features_symmetric_scores():
    # positives duplicate the negative feature points exactly
    points = [np.array([0.0, 0.0]), np.array([3.0, 1.0])]
    scores = [0.2, 0.8]
    records = []
    for i, (p, s) in enumerate(zip(points, scores)):
        records.append(make_record(f"n{i}", 0, score=s, features=p))
        records.append(make_record(f"p{i}", 1, score=0.9 - s, features=p))
    result = nn_substitute(make_cohort(records), WeakProbeConfig(seed=0))
    assert result.post_auc == 0.5


def test_nn_single_neighbour_suppresses_flag():
    # one negative sits on top of the positives; the other is far away
    records = [make_record("n0", 0, score=0.9, features=[0.0, 0.0])]
    records += [make_record("n1", 0, score=0.1, features=[50.0, 50.0])]
    records += [
        make_record(f"p{i}", 1, score=0.9, features=[0.1 * i, 0.0]) for i in range(12)
    ]
    result = nn_substitute(make_cohort(records), WeakProbeConfig(seed=0))
    assert result.distinct_neighbours == 1
    assert result.post_auc > 0.5
    assert result.attribution_flag is False


def test_nn_confounded_signal_flags():
    flags = 0
    for seed in range(5):
        cohort = _confounded_cohort(seed=seed + 10)
        result = nn_substitute(cohort, WeakProbeConfig(seed=seed))
        if result.post_auc > 0.55 and result.attribution_flag:
            flags += 1
    assert flags >= 4


def test_nn_orthogonal_signal_collapses_to_chance():
    vals = []
    for seed in range(5):
        cohort = _orthogonal_signal_cohort(seed=seed + 20)
        result = nn_substitute(cohort, WeakProbeConfig(seed=seed))
        vals.append(result.post_auc)
        assert result.pre_auc > 0.9
    assert 0.45 <= np.mean(vals) <= 0.55


def test_weak_robust_needs_more_negatives_than_components():
    # k_max=3 on 4-D features asks for 3 components of the 3 negatives; the
    # cap on k stays as it was, and the probe refuses instead of pca_fit
    records = [make_record(f"p{i}", 1, score=0.75, features=[i, 1.0, 0.0, 2.0 * i]) for i in range(6)]
    records += [make_record(f"n{i}", 0, score=0.25, features=[0.0, i, i * i, 1.0]) for i in range(3)]
    calibration = make_calibration_cohort(4, n_per_class=20, seed=6)
    with pytest.raises(TooFewSamples, match="3 principal components of the negatives need at least 4 negatives, have 3"):
        weak_robust_curate(make_cohort(records), calibration, WeakProbeConfig(k_max=3, seed=6))
    assert weak_robust_curate(make_cohort(records), calibration, WeakProbeConfig(k_max=2, seed=6)).ks == (1, 2)


def test_nn_preserves_negatives_and_size():
    cohort = _confounded_cohort(seed=30, n_per_class=40)
    result = nn_substitute(cohort, WeakProbeConfig(seed=0))
    ref = nn_substitute_loop(cohort, "euclidean")
    y = cohort.labels()
    assert len(ref.neighbours) == (y == 1).sum() and all(y[j] == 0 for j in ref.neighbours)
    assert (ref.post_scores[y == 0] == cohort.scores()[y == 0]).all()
    assert (result.post_auc, result.distinct_neighbours) == (ref.post_auc, ref.distinct_neighbours)


def test_nn_requires_negatives():
    records = [make_record(f"p{i}", 1, score=0.5, features=[0.0]) for i in range(3)]
    with pytest.raises(NoNegatives):
        nn_substitute(make_cohort(records), WeakProbeConfig(seed=0))


def test_nn_manhattan_vs_euclidean_can_differ():
    rng = np.random.default_rng(31)
    records = []
    for i in range(30):
        records.append(make_record(f"p{i}", 1, score=0.8, features=rng.normal(size=4)))
        records.append(make_record(f"n{i}", 0, score=0.2, features=rng.normal(size=4)))
    cohort = make_cohort(records)
    refs = {}
    for distance in ("euclidean", "manhattan"):
        result = nn_substitute(cohort, WeakProbeConfig(distance=distance, seed=0))
        refs[distance] = nn_substitute_loop(cohort, distance)
        assert (result.post_auc, result.distinct_neighbours) == (refs[distance].post_auc,
                                                                 refs[distance].distinct_neighbours)
    assert refs["euclidean"].neighbours != refs["manhattan"].neighbours  # metrics disagree somewhere


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    spread=st.integers(1, 3),
    large=st.booleans(),
    distance=st.sampled_from(["euclidean", "manhattan"]),
)
def test_nn_substitute_matches_brute_force(seed, dim, spread, large, distance):
    # small integer coordinates tie many distances, and sums of their squares
    # are exact, so any order of summation gives the same distances; 1500
    # positives against 2000 negatives take 12 blocks of 131 rows
    rng = np.random.default_rng(seed)
    n_pos, n_neg = (1500, 2000) if large else (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
    y = np.array([1] * n_pos + [0] * n_neg)
    rng.shuffle(y)
    x = rng.integers(-spread, spread + 1, size=(y.size, dim)).astype(float)
    scores = np.round(rng.random(y.size), 1)
    cohort = make_cohort([make_record(f"r{i}", int(y[i]), score=float(scores[i]), features=x[i])
                          for i in range(y.size)])
    result = nn_substitute(cohort, WeakProbeConfig(distance=distance))
    ref = nn_substitute_loop(cohort, distance)
    assert result.post_auc == ref.post_auc
    assert result.distinct_neighbours == ref.distinct_neighbours


def test_calibration_cohort_solvable_at_full_dimension():
    cohort = make_calibration_cohort(10, n_per_class=200, seed=6)
    x = cohort.feature_matrix()
    y = cohort.labels()
    model = train_weak_linear(x, y)
    assert uar(model.predict(x), y) >= 0.9


# sha256 of feature_matrix().tobytes() and of labels().tobytes(), recorded
# before the calibration task was built through cohort.vector_cohort
CALIBRATION_DIGESTS = {
    ((16,), (("seed", 5),)): (
        "11a666f94fcf24225ec0cafcf25303431308b8b86f9f90f1695fc8c51fe71601",
        "59f68f17789da14ea8d42d7379ef9430852f436f4f76f9d985e3bfee29f2778e",
    ),
    ((3,), (("n_per_class", 50), ("seed", 2))): (
        "dfbb7a579865b1f28fc9bfd6b2703fdcad74c7e2a76a5c40ecd006aaa7aa28c2",
        "7a2d1817052f5e48eadb566600fcc15d186cd3d7b2f2bfb2994008c15993a210",
    ),
}


@pytest.mark.parametrize("args, kwargs", list(CALIBRATION_DIGESTS))
def test_calibration_cohort_matches_golden_digests(args, kwargs):
    cohort = make_calibration_cohort(*args, **dict(kwargs))
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (cohort.feature_matrix(), cohort.labels()))
    assert digests == CALIBRATION_DIGESTS[args, kwargs]


def _random_probe_cohort(seed: int, n: int, dim: int) -> tuple:
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(n, dim)), int(rng.integers(0, 3)))
    y = (rng.random(n) < 0.4).astype(int)
    y[:2] = [0, 1]
    x[y == 1, 0] += 1.0
    scores = np.round(rng.random(n), 2)
    return hybrid_features(vector_cohort(x, y, "r"), scores), make_calibration_cohort(dim, n_per_class=60, seed=seed)


@pytest.mark.parametrize("seed", range(6))
def test_weak_robust_matches_loop_on_random_cohorts(seed):
    cohort, calibration = _random_probe_cohort(seed, n=40 + 50 * seed, dim=2 + seed)
    cfg = WeakProbeConfig(k_max=1 + seed, seed=seed)
    assert weak_robust_curate(cohort, calibration, cfg) == weak_robust_curate_loop(cohort, calibration, cfg)


def test_weak_robust_matches_loop_on_pipeline_cohort():
    calls = []

    def capture(*args):
        calls.append((args, weak_robust_curate(*args)))
        return calls[-1][1]

    with mock.patch.object(pipeline, "weak_robust_curate", side_effect=capture):
        run_pipeline(RunConfig(seed=1))
    (args, result), = calls
    assert result == weak_robust_curate_loop(*args)
    assert sum(map(len, result.removed_ids_per_k)) > 0
