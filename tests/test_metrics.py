import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from confound_audit.errors import (
    ConfigError,
    DegenerateTable,
    EmptyGroup,
    LabelMismatch,
    MissingLabel,
    MissingScore,
    NoEligibleStrata,
    NotAProbabilityRow,
    OneClassOnly,
    TooFewSamples,
    TooLargeForExact,
)
from confound_audit.matching import MatchSpec
from confound_audit.metrics import (
    ScoredLabels,
    any_symptom_table,
    auc,
    auc_ci,
    bh_fdr,
    calibration_bins,
    delong_test,
    mwu_test,
    pr_auc,
    roc_curve,
    stratified_auc,
    table_2x2_stats,
    uar,
    uncertainty_decompose,
)

from conftest import make_cohort, make_record
from reference_kernels import roc_area


# -- oracles ---------------------------------------------------------------------


def brute_force_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return wins / (pos.size * neg.size)


def brute_force_average_precision(scores, labels):
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    ap = 0.0
    prev_recall = 0.0
    n_pos = y.sum()
    for t in sorted(set(s), reverse=True):
        predicted = s >= t
        tp = int((y & predicted).sum())
        precision = tp / predicted.sum()
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def random_instance(rng, n_max=200, tie_values=None):
    n = int(rng.integers(4, n_max + 1))
    while True:
        labels = rng.integers(0, 2, n)
        if 0 < labels.sum() < n:
            break
    if tie_values:
        scores = rng.choice(tie_values, size=n)
    else:
        scores = rng.normal(size=n)
    return ScoredLabels(scores.astype(float), labels)


# -- ROC and AUC ---------------------------------------------------------------------


def test_roc_perfect_classifier_hits_corner():
    d = ScoredLabels(np.array([1.0, 1.0, 0.0, 0.0]), np.array([1, 1, 0, 0]))
    curve = roc_curve(d)
    assert (1.0, 1.0) in set(zip(curve.sensitivities.tolist(), curve.specificities.tolist()))


def test_roc_constant_scores_two_points():
    d = ScoredLabels(np.array([0.3] * 6), np.array([1, 0, 1, 0, 1, 0]))
    curve = roc_curve(d)
    assert curve.thresholds.size == 2
    assert set(zip(curve.sensitivities.tolist(), curve.specificities.tolist())) == {(1.0, 0.0), (0.0, 1.0)}


def test_roc_monotone_and_endpoints():
    rng = np.random.default_rng(1)
    d = random_instance(rng, tie_values=[0.1, 0.2, 0.5, 0.9])
    curve = roc_curve(d)
    assert (np.diff(curve.sensitivities) <= 0).all()
    assert (np.diff(curve.specificities) >= 0).all()
    assert curve.sensitivities[0] == 1.0 and curve.specificities[0] == 0.0
    assert curve.sensitivities[-1] == 0.0 and curve.specificities[-1] == 1.0


def test_auc_example_075():
    d = ScoredLabels(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
    assert auc(d) == 0.75
    assert abs(roc_area(roc_curve(d)) - 0.75) < 1e-12


def test_auc_matches_bruteforce_with_ties():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = random_instance(rng, tie_values=[0.0, 0.25, 0.5, 0.75, 1.0])
        assert abs(auc(d) - brute_force_auc(d.scores, d.labels)) <= 1e-12


def test_auc_monotone_transform_invariant():
    rng = np.random.default_rng(8)
    d = random_instance(rng)
    assert auc(ScoredLabels(np.exp(d.scores), d.labels)) == auc(d)


def test_auc_label_flip_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = random_instance(rng, n_max=60, tie_values=[0.1, 0.3, 0.7])
        flipped = ScoredLabels(d.scores, 1 - d.labels)
        assert abs(auc(d) - (1.0 - auc(flipped))) <= 1e-12


def test_auc_all_ties_is_half():
    d = ScoredLabels(np.full(7, 0.3), np.array([1, 0, 0, 1, 0, 1, 0]))
    assert auc(d) == 0.5


def test_auc_perfect_separation_is_one():
    d = ScoredLabels(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
    assert auc(d) == 1.0


def test_auc_one_class_raises():
    with pytest.raises(OneClassOnly):
        auc(ScoredLabels(np.array([0.1, 0.2]), np.array([1, 1])))


# -- confidence intervals --------------------------------------------------------------


def test_hanley_mcneil_hand_computed():
    # AUC forced to 0.5 by fully tied scores, 10 per class
    d = ScoredLabels(np.full(20, 0.5), np.array([1] * 10 + [0] * 10))
    ci = auc_ci(d, method="hanley_mcneil")
    assert ci.estimate == 0.5
    assert abs(ci.detail.q1 - 1 / 3) < 1e-15 and abs(ci.detail.q2 - 1 / 3) < 1e-15
    assert abs(ci.detail.se - math.sqrt(1.75 / 100)) < 1e-12
    assert abs(ci.lower - 0.2407) < 5e-4
    assert abs(ci.upper - 0.7593) < 5e-4


def test_ci_clipping_at_one():
    d = ScoredLabels(np.array([0.9, 0.8, 0.2, 0.1, 0.15, 0.85]), np.array([1, 1, 0, 0, 0, 1]))
    ci = auc_ci(d, method="hanley_mcneil")
    assert ci.estimate == 1.0
    assert ci.upper == 1.0


@pytest.mark.parametrize("method, scores, labels", [
    ("hanley_mcneil", [0.9, 0.8, 0.2, 0.1, 0.15, 0.85], [1, 1, 0, 0, 0, 1]),  # clipped at 1
    ("hanley_mcneil", [0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0]),  # clipped at 0 and 1
    ("delong", [0.9, 0.3, 0.6, 0.4, 0.2, 0.7], [1, 1, 0, 0, 0, 1]),  # lower bound unclipped
])
def test_ci_bounds_are_python_floats(method, scores, labels):
    # whichever side of its clip a bound lies on: report tables write floats by repr
    ci = auc_ci(ScoredLabels(np.array(scores), np.array(labels)), method=method)
    assert (type(ci.lower), type(ci.upper), type(ci.clipped)) == (float, float, bool)


def test_delong_ci_close_to_bootstrap():
    rng = np.random.default_rng(123)
    n = 50
    scores = np.concatenate([rng.normal(0.8, 1, n), rng.normal(0, 1, n)])
    labels = np.array([1] * n + [0] * n)
    d = ScoredLabels(scores, labels)
    ci = auc_ci(d, method="delong")

    boots = []
    for _ in range(10_000):
        ip = rng.integers(0, n, n)
        ineg = rng.integers(0, n, n)
        boots.append(brute_force_auc(
            np.concatenate([scores[:n][ip], scores[n:][ineg]]), labels))
    lo, hi = np.percentile(boots, [2.5, 97.5])
    assert abs(ci.lower - lo) < 0.02
    assert abs(ci.upper - hi) < 0.02


def test_delong_needs_two_per_class():
    d = ScoredLabels(np.array([0.2, 0.7, 0.6]), np.array([0, 1, 1]))
    with pytest.raises(TooFewSamples):
        auc_ci(d, method="delong")


# -- DeLong paired test ------------------------------------------------------------------


def test_delong_self_comparison():
    rng = np.random.default_rng(5)
    d = random_instance(rng, n_max=80)
    result = delong_test(d, d)
    assert result["z"] == 0.0 and result["p"] == 1.0


def test_delong_antisymmetric():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 2, 100)
    labels[:3] = [0, 1, 1]
    a = ScoredLabels(rng.normal(size=100) + labels, labels)
    b = ScoredLabels(rng.normal(size=100), labels)
    r_ab = delong_test(a, b)
    r_ba = delong_test(b, a)
    assert abs(r_ab["z"] + r_ba["z"]) < 1e-12
    assert abs(r_ab["p"] - r_ba["p"]) < 1e-12


def test_delong_strong_vs_constant():
    rng = np.random.default_rng(42)
    labels = np.array([1] * 50 + [0] * 50)
    strong = ScoredLabels(np.concatenate([rng.normal(2, 1, 50), rng.normal(0, 1, 50)]), labels)
    constant = ScoredLabels(np.full(100, 0.5), labels)
    assert delong_test(strong, constant)["p"] < 0.001


def test_delong_label_mismatch():
    a = ScoredLabels(np.array([0.1, 0.9]), np.array([0, 1]))
    b = ScoredLabels(np.array([0.1, 0.9]), np.array([1, 0]))
    with pytest.raises(LabelMismatch):
        delong_test(a, b)


def test_delong_null_p_uniform():
    # permuted-label null: p-values should look uniform on [0, 1]
    rng = np.random.default_rng(99)
    n = 100
    scores_a = rng.normal(size=n)
    scores_b = 0.5 * scores_a + rng.normal(size=n)  # correlated classifiers
    ps = []
    for _ in range(1000):
        labels = np.zeros(n, dtype=int)
        labels[rng.choice(n, n // 2, replace=False)] = 1
        ps.append(delong_test(ScoredLabels(scores_a, labels), ScoredLabels(scores_b, labels))["p"])
    assert kstest(ps, "uniform").pvalue > 0.01


# -- PR-AUC and UAR --------------------------------------------------------------------


def test_pr_auc_perfect():
    d = ScoredLabels(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
    assert pr_auc(d) == 1.0


def test_pr_auc_constant_scores_equals_prevalence():
    d = ScoredLabels(np.full(8, 0.4), np.array([1, 0, 0, 1, 0, 0, 0, 1]))
    assert abs(pr_auc(d) - 3 / 8) <= 1e-12


def test_pr_auc_small_example_matches_enumeration():
    scores = np.array([0.9, 0.8, 0.1])
    labels = np.array([1, 0, 1])
    expected = brute_force_average_precision(scores, labels)
    assert abs(expected - 5 / 6) <= 1e-12
    assert abs(pr_auc(ScoredLabels(scores, labels)) - expected) <= 1e-12


def test_pr_auc_random_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = random_instance(rng, n_max=40, tie_values=[0.2, 0.4, 0.6, 0.8])
        assert abs(pr_auc(d) - brute_force_average_precision(d.scores, d.labels)) <= 1e-12


def test_uar_arithmetic():
    labels = np.array([1] * 5 + [0] * 5)
    preds = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 1])  # sens 0.6, spec 0.8
    assert abs(uar(preds, labels) - 0.7) <= 1e-12


def test_uar_all_positive_is_half():
    labels = np.array([1, 0, 1, 0])
    assert uar(np.ones(4, dtype=int), labels) == 0.5


def test_uar_one_class():
    with pytest.raises(OneClassOnly):
        uar(np.array([1, 0]), np.array([1, 1]))


def test_fractional_labels_rejected():
    # a cast to int would truncate 0.5 and 0.7 to 0: AUC 1.0, UAR 1.0, and a
    # bin whose positive fraction reads 0.0
    with pytest.raises(ValueError, match="labels must be binary"):
        ScoredLabels([0.9, 0.2, 0.4], [1.0, 0.5, 0.0])
    with pytest.raises(ValueError, match="labels must be binary"):
        uar([1, 0, 0], [1, 0.5, 0])
    with pytest.raises(ValueError, match="labels must be binary"):
        calibration_bins([0.9, 0.2], [1, 0.7])
    # whole-valued floats and booleans are 0/1 labels
    assert ScoredLabels([0.9, 0.2], [1.0, 0.0]).labels.tolist() == [1, 0]
    assert uar([1, 0], [True, False]) == 1.0


def test_non_binary_predictions_rejected():
    # a cast to int would count the 2 as a missed positive: UAR 0.75
    with pytest.raises(ValueError, match="predictions must be binary"):
        uar([2, 0, 1, 0], [1, 0, 1, 0])
    with pytest.raises(ValueError, match="predictions must be binary"):
        uar([0.5, 0, 1, 0], [1, 0, 1, 0])
    assert uar([1.0, 0.0, True, False], [1, 0, 1, 0]) == 1.0


def test_misaligned_inputs_rejected():
    with pytest.raises(ValueError, match="predictions and labels must align"):
        uar([1, 0, 1], [1, 0])
    with pytest.raises(ValueError, match="scores and labels must align"):
        calibration_bins([0.9, 0.2, 0.5], [1, 0])
    with pytest.raises(ValueError, match="scores and labels must align"):
        calibration_bins([0.9], [1, 0])


# -- 2x2 tables ---------------------------------------------------------------------------


def test_table_stats_reference_values():
    # prevalence 0.02 with P(sym|+) = 0.65 and P(sym|-) = 0.20, as counts per 1000
    t = [[784, 7], [196, 13]]
    stats = table_2x2_stats(t)
    assert stats.sensitivity == 0.65
    assert stats.specificity == 0.8
    assert stats.auc == 0.725
    # independent four-term evaluation
    p = np.array(t, dtype=float) / 1000.0
    pz, py = p.sum(axis=1), p.sum(axis=0)
    mi = sum(
        p[z, y] * math.log(p[z, y] / (pz[z] * py[y]))
        for z in (0, 1) for y in (0, 1) if p[z, y] > 0
    )
    phi = (p[1, 1] * p[0, 0] - p[1, 0] * p[0, 1]) / math.sqrt(pz[0] * pz[1] * py[0] * py[1])
    assert abs(stats.mi - mi) < 1e-9
    assert abs(stats.phi - phi) < 1e-9
    assert abs(stats.phi - 0.155) < 1e-3
    assert abs(stats.mi - 0.0093) < 1e-4


def test_table_stats_independence():
    stats = table_2x2_stats([[0.32, 0.08], [0.48, 0.12]])
    assert abs(stats.phi) < 1e-12
    assert abs(stats.mi) < 1e-12
    assert abs(stats.auc - 0.5) < 1e-12


def test_table_stats_diagonal():
    stats = table_2x2_stats([[10, 0], [0, 30]])
    assert stats.phi == 1.0
    assert stats.auc == 1.0


def test_table_stats_swap_invariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = rng.integers(1, 50, size=(2, 2)).astype(float)
        swapped = t[::-1, ::-1]
        assert abs(table_2x2_stats(t).mi - table_2x2_stats(swapped).mi) < 1e-12


def test_table_degenerate():
    with pytest.raises(DegenerateTable):
        table_2x2_stats([[0, 0], [3, 4]])


# -- Mann-Whitney -----------------------------------------------------------------------


def test_mwu_exact_example():
    result = mwu_test([0.9, 0.8], [0.1, 0.2], mode="exact")
    assert result["u"] == 4.0
    assert abs(result["p"] - 2 / 6) <= 1e-12


def test_mwu_identical_groups():
    assert mwu_test([1.0, 2.0], [1.0, 2.0], mode="exact")["p"] == 1.0
    assert mwu_test([1.0, 2.0], [1.0, 2.0], mode="normal")["p"] == 1.0


def test_mwu_exact_size_limit():
    with pytest.raises(TooLargeForExact):
        mwu_test(np.arange(11), np.arange(10), mode="exact")


def test_mwu_empty_group():
    with pytest.raises(EmptyGroup):
        mwu_test([], [1.0])


def test_nan_scores_rejected():
    # a record without a score never reaches the metrics as NaN, and a raw NaN
    # score is refused there; ranking NaN used to loop forever
    cohort = make_cohort([make_record(0, label=1, score=0.7), make_record(1, label=0, score=None),
                          make_record(2, label=0, score=0.2)])
    with pytest.raises(MissingScore, match="record '1' has no score"):
        cohort.scores()
    with pytest.raises(ValueError, match="NaN"):
        ScoredLabels(np.array([0.7, math.nan, 0.2]), cohort.labels())
    for mode in ("normal", "exact"):
        with pytest.raises(ValueError, match="NaN"):
            mwu_test([0.7, math.nan], [0.2], mode=mode)


def test_infinite_scores_rejected():
    # an infinite score would put a second operating point at threshold inf,
    # breaking the increasing-threshold order of a RocCurve
    for bad in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            ScoredLabels(np.array([0.1, 0.3, bad]), np.array([1, 0, 1]))


def test_any_symptom_table_names_unlabelled_record():
    cohort = make_cohort([make_record(0, label=1, cough=True), make_record(1, label=None),
                          make_record(2, label=0)])
    with pytest.raises(MissingLabel, match="'1'"):
        any_symptom_table(cohort)
    labelled = make_cohort([make_record(0, label=1, cough=True), make_record(2, label=0),
                            make_record(3, label=1)])
    assert any_symptom_table(labelled) == [[1, 1], [0, 1]]


def test_mwu_normal_close_to_exact():
    # continuous fixtures: the approximation degrades only under heavy ties,
    # where the exact distribution itself is coarse
    rng = np.random.default_rng(3)
    for _ in range(25):
        pos = rng.normal(size=5)
        neg = rng.normal(size=5)
        p_exact = mwu_test(pos, neg, mode="exact")["p"]
        p_normal = mwu_test(pos, neg, mode="normal")["p"]
        assert abs(p_exact - p_normal) <= 0.05


def test_mwu_exact_handles_ties():
    # tied pooled values: U uses half-weights and stays symmetric about mn/2
    pos = np.array([0.5, 0.5, 0.9])
    neg = np.array([0.5, 0.1, 0.9])
    result = mwu_test(pos, neg, mode="exact")
    assert 0.0 < result["p"] <= 1.0
    mirrored = mwu_test(neg, pos, mode="exact")
    assert abs(result["p"] - mirrored["p"]) <= 1e-12


# -- Benjamini-Hochberg --------------------------------------------------------------------


def test_bh_stepup_example():
    assert bh_fdr([0.001, 0.01, 0.02, 0.2], 0.05) == [True, True, True, False]


def test_bh_all_ones_and_zeros():
    assert bh_fdr([1.0, 1.0, 1.0], 0.05) == [False, False, False]
    assert bh_fdr([0.0, 0.0], 0.05) == [True, True]


def test_bh_monotone_in_q():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = rng.random(12)
        small = bh_fdr(p, 0.02)
        large = bh_fdr(p, 0.2)
        assert all(l or not s for s, l in zip(small, large))


def test_bh_rejects_nan_p_value():
    with pytest.raises(ValueError, match="p-values must lie"):
        bh_fdr([0.01, math.nan, 0.02], 0.05)


def test_bh_checks_q_before_empty_input():
    assert bh_fdr([], 0.05) == []
    for q in (0.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="q must lie"):
            bh_fdr([], q)


# -- stratified AUC ---------------------------------------------------------------------


def _scored_stratified_cohort(per_class=12, strata=3, shift=1.0, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for s in range(strata):
        age = 20 + 10 * s
        for i in range(per_class):
            records.append(make_record(f"s{s}p{i}", 1, age=age,
                                       score=float(np.clip(rng.normal(0.5 + shift / 4, 0.15), 0, 1))))
            records.append(make_record(f"s{s}n{i}", 0, age=age,
                                       score=float(np.clip(rng.normal(0.5 - shift / 4, 0.15), 0, 1))))
    return make_cohort(records)


def test_stratified_excludes_small_strata():
    cohort = _scored_stratified_cohort(per_class=12, strata=2)
    small = [make_record(f"x{i}", 1, age=80, score=0.9) for i in range(9)]
    small += [make_record(f"y{i}", 0, age=80, score=0.1) for i in range(12)]
    cohort = make_cohort(list(cohort.records) + small)
    spec = MatchSpec(covariates=("cough",), include_channel=False)
    results = stratified_auc(cohort, spec, min_per_class=10)
    assert len(results) == 2  # the 9-positive stratum is excluded
    assert all(s.n_pos >= 10 and s.n_neg >= 10 for s in results)


def test_stratified_constant_scores():
    records = [make_record(f"p{i}", 1, score=0.5) for i in range(10)]
    records += [make_record(f"n{i}", 0, score=0.5) for i in range(10)]
    spec = MatchSpec(covariates=("cough",), include_channel=False)
    results = stratified_auc(make_cohort(records), spec, min_per_class=10)
    assert len(results) == 1
    assert results[0].auc == 0.5
    assert results[0].fdr_reject is False


def test_stratified_sorted_by_size():
    cohort = _scored_stratified_cohort(per_class=12, strata=2)
    extra = [make_record(f"e{i}", 1, age=80, score=0.8) for i in range(20)]
    extra += [make_record(f"f{i}", 0, age=80, score=0.2) for i in range(20)]
    results = stratified_auc(
        make_cohort(list(cohort.records) + extra),
        MatchSpec(covariates=("cough",), include_channel=False),
    )
    sizes = [s.n_pos + s.n_neg for s in results]
    assert sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("min_per_class, q", [(0, 0.05), (10, 0.0), (10, 1.5)])
def test_stratified_refuses_settings_out_of_range(min_per_class, q):
    # min_per_class=0 would admit a stratum of one class
    records = [make_record("a", 1, score=0.5), make_record("b", 1, score=0.5)]
    with pytest.raises(ConfigError):
        stratified_auc(make_cohort(records), MatchSpec(covariates=("cough",)), min_per_class, q)


def test_stratified_no_eligible():
    records = [make_record("a", 1, score=0.5), make_record("b", 0, score=0.5)]
    with pytest.raises(NoEligibleStrata):
        stratified_auc(make_cohort(records), MatchSpec(covariates=("cough",)))


# -- calibration -------------------------------------------------------------------------


def test_calibration_diagonal_zero_ece():
    # 0.25 falls in the bin [0.2, 0.3) and 0.75 in [0.7, 0.8); each bin's
    # share of positives equals its mean score
    scores = np.array([0.25] * 4 + [0.75] * 4)
    labels = np.array([1, 0, 0, 0] + [1, 1, 1, 0])
    bins, ece = calibration_bins(scores, labels)
    assert ece == 0.0
    assert [(b.mean_score, b.frac_positive, b.count) for b in bins] == [(0.25, 0.25, 4), (0.75, 0.75, 4)]


def test_calibration_worst_case():
    bins, ece = calibration_bins(np.ones(5), np.zeros(5, dtype=int))
    assert len(bins) == 1
    assert ece == 1.0


def test_calibration_rejects_nan_score():
    # a NaN score falls in no bin, yet would count in the ECE denominator
    with pytest.raises(ValueError, match="scores must lie"):
        calibration_bins([0.1, math.nan, 0.9, 0.95], [0, 1, 1, 1])


def test_calibration_matches_bruteforce():
    rng = np.random.default_rng(13)
    scores = rng.random(500)
    labels = (rng.random(500) < scores).astype(int)  # logistic-style fixture
    bins, ece = calibration_bins(scores, labels)
    expected = 0.0
    for b in range(10):
        mask = (np.minimum((scores * 10).astype(int), 9)) == b
        if mask.any():
            expected += mask.mean() * abs(scores[mask].mean() - labels[mask].mean())
    assert abs(ece - expected) <= 1e-12
    assert sum(b.count for b in bins) == 500


# -- uncertainty -------------------------------------------------------------------------


def test_uncertainty_agreement_zero():
    u = uncertainty_decompose([[1.0, 0.0]] * 4)
    assert u.predictive_entropy == 0.0
    assert u.expected_entropy == 0.0
    assert u.mutual_information == 0.0


def test_uncertainty_maximal_disagreement():
    u = uncertainty_decompose([[1.0, 0.0], [0.0, 1.0]])
    assert u.predictive_entropy == math.log(2.0)
    assert u.expected_entropy == 0.0
    assert u.mutual_information == math.log(2.0)


def test_uncertainty_aleatoric_only():
    u = uncertainty_decompose([[0.5, 0.5]] * 3)
    assert u.predictive_entropy == math.log(2.0)
    assert u.mutual_information == 0.0


def test_uncertainty_rejects_bad_row():
    with pytest.raises(NotAProbabilityRow) as err:
        uncertainty_decompose([[0.5, 0.5], [0.9, 0.2]])
    assert err.value.row == 1


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(1, 8),
    st.integers(0, 10_000),
)
def test_uncertainty_identities_hold(n_classes, n_samples, seed):
    rng = np.random.default_rng(seed)
    raw = rng.random((n_samples, n_classes)) + 1e-3
    probs = raw / raw.sum(axis=1, keepdims=True)
    u = uncertainty_decompose(probs)
    assert u.mutual_information >= -1e-12
    assert u.predictive_entropy >= u.expected_entropy - 1e-12
    assert u.predictive_entropy <= math.log(n_classes) + 1e-12
