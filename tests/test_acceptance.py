"""Acceptance gate: one test per criterion, each printing a PASS line.

Statistical criteria that speak of behaviour "over N seeds" are asserted on
the across-seed aggregate (mean, or a hit count where the criterion gives
one), with per-seed values printed for inspection.
"""

import time

import numpy as np
import pytest
from scipy.stats import norm

from confound_audit.cohort import SplitSpec, split_cohort, vector_cohort
from confound_audit.forest import build_encoding, encode_cohort, fit_forest, hybrid_features
from confound_audit.matching import TEST_SET, TRAIN_SET, MatchSpec, match_exact, stratum_keyer
from confound_audit.metrics import (
    ScoredLabels,
    auc,
    auc_ci,
    stratified_auc,
    table_2x2_stats,
    uncertainty_decompose,
)
from confound_audit.pipeline import RunConfig, run_from_manifest, run_pipeline
from confound_audit.probes import (
    WeakProbeConfig,
    make_calibration_cohort,
    nn_substitute,
    train_weak_linear,
    weak_robust_curate,
)
from confound_audit.resample import PopulationSpec, resample_general_population
from confound_audit.synth import SynthConfig, generate_cohort
from confound_audit.utility import UtilityMatrix, expected_utility

from conftest import make_cohort, make_record
from reference_kernels import enumerate_outcome_probs, expected_utility_enumerated, symptom_flag


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# -- shared fixtures -----------------------------------------------------------------


def _confounded_run(seed):
    """One synthetic cohort with symptom-driven enrolment, no true signal,
    and strong symptom leakage into features; its test half comes back
    scored by a classifier trained on the other half."""
    cfg = SynthConfig(
        n_population=9000, prevalence=0.3, enrolment="symptoms_based",
        signal_strength=0.0, confounder_strength=7.0, feature_dim=16,
        seed=1000 + seed,
    )
    enrolled, _ = generate_cohort(cfg)
    train, test = split_cohort(enrolled, SplitSpec(train_fraction=0.5, seed=seed))
    encoding = build_encoding(train, ("features",))
    model = fit_forest(encode_cohort(train, encoding), train.labels(), n_trees=50, seed=seed)
    return cfg, hybrid_features(test, model.predict_matrix(encode_cohort(test, encoding)))


@pytest.fixture(scope="module")
def confounded_runs():
    start = time.monotonic()
    runs = [_confounded_run(seed) for seed in range(10)]
    return runs, time.monotonic() - start


def _orthogonal_signal_cohort(rng, n_per_class, dim, alpha, prefix):
    """True class signal lives on axis 0, along which negatives do not vary;
    class 1's rows come first."""
    n = n_per_class
    x = np.zeros((2 * n, dim))
    x[:n, 1:] = rng.normal(size=(n, dim - 1))
    x[:n, 0] = alpha + rng.normal(size=n)
    x[n:, 1:] = rng.normal(size=(n, dim - 1))
    return vector_cohort(x, np.repeat([1, 0], n), prefix)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


# -- criteria ------------------------------------------------------------------------


def test_criterion_01_auc_oracle_equivalence():
    rng = np.random.default_rng(1)
    start = time.monotonic()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(4, 201))
        while True:
            labels = rng.integers(0, 2, n)
            if 0 < labels.sum() < n:
                break
        scores = rng.choice(np.round(np.linspace(0, 1, 9), 3), size=n)  # heavy ties
        d = ScoredLabels(scores.astype(float), labels)
        pos, neg = d.pos, d.neg
        brute = ((pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()) / (
            pos.size * neg.size
        )
        worst = max(worst, abs(auc(d) - brute))
    elapsed = time.monotonic() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    _report(1, f"max |auc - bruteforce| = {worst:.2e} over 500 tied instances in {elapsed:.2f}s")


def test_criterion_02_eu_derivation_identity():
    rng = np.random.default_rng(2)
    start = time.monotonic()
    worst = 0.0
    for _ in range(10_000):
        pi, sens, spec = rng.random(3)
        u = UtilityMatrix(*rng.normal(scale=5.0, size=4))
        closed = expected_utility(u, pi, sens, spec)
        enumerated = expected_utility_enumerated(u, enumerate_outcome_probs(pi, sens, spec))
        worst = max(worst, abs(closed - enumerated))
    elapsed = time.monotonic() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    _report(2, f"max |closed - enumerated| = {worst:.2e} over 10^4 tuples in {elapsed:.2f}s")


def test_criterion_03_two_by_two_reference_table():
    # joint table of (symptomatic, infected) for prevalence 0.02,
    # P(sym|+) = 0.65, P(sym|-) = 0.20, as integer counts per 1000
    stats = table_2x2_stats([[784, 7], [196, 13]])
    assert stats.sensitivity == 0.65
    assert stats.specificity == 0.80
    assert stats.auc == 0.725
    p = np.array([[784.0, 7.0], [196.0, 13.0]]) / 1000.0
    pz, py = p.sum(axis=1), p.sum(axis=0)
    mi_oracle = sum(
        p[z, y] * np.log(p[z, y] / (pz[z] * py[y])) for z in (0, 1) for y in (0, 1)
    )
    phi_oracle = (p[1, 1] * p[0, 0] - p[1, 0] * p[0, 1]) / np.sqrt(pz[0] * pz[1] * py[0] * py[1])
    assert abs(stats.mi - mi_oracle) <= 1e-9
    assert abs(stats.phi - phi_oracle) <= 1e-9
    _report(3, f"sens/spec/auc exact; phi={stats.phi:.6f}, mi={stats.mi:.7f} nats")


def test_criterion_04_delong_ci_coverage():
    true_auc = 0.62
    mu = np.sqrt(2.0) * norm.ppf(true_auc)  # Gaussian score model with this AUC
    rng = np.random.default_rng(4)
    start = time.monotonic()
    covered = 0
    n_rep = 1000
    for _ in range(n_rep):
        scores = np.concatenate([rng.normal(mu, 1.0, 50), rng.normal(0.0, 1.0, 50)])
        labels = np.array([1] * 50 + [0] * 50)
        ci = auc_ci(ScoredLabels(scores, labels), method="delong")
        covered += ci.lower <= true_auc <= ci.upper
    elapsed = time.monotonic() - start
    coverage = covered / n_rep
    assert 0.93 <= coverage <= 0.97
    assert elapsed < 120.0
    _report(4, f"coverage {coverage:.3f} over {n_rep} replicates in {elapsed:.1f}s")


def test_criterion_05_bias_inflation_demo(confounded_runs):
    runs, build_time = confounded_runs
    start = time.monotonic()
    rand_aucs, matched_aucs = [], []
    for seed, (cfg, test) in enumerate(runs):
        rand_aucs.append(auc(ScoredLabels(test.scores(), test.labels())))
        # matching keeps the scores of the records it keeps
        matched, _ = match_exact(
            test, MatchSpec(covariates=TEST_SET, include_channel=False, seed=seed)
        )
        matched_aucs.append(auc(ScoredLabels(matched.scores(), matched.labels())))
    elapsed = time.monotonic() - start + build_time  # include cohort + training time
    print("  randomised:", [round(a, 3) for a in rand_aucs])
    print("  matched:   ", [round(a, 3) for a in matched_aucs])
    assert np.mean(rand_aucs) >= 0.75
    assert 0.45 <= np.mean(matched_aucs) <= 0.55
    assert elapsed < 180.0
    _report(
        5,
        f"mean randomised AUC {np.mean(rand_aucs):.3f} vs mean matched {np.mean(matched_aucs):.3f} "
        f"over 10 seeds in {elapsed:.0f}s",
    )


def test_criterion_06_weak_probe_sensitivity_and_safety(confounded_runs):
    # confounded arm: matching only on the aggregate leaves profile-level
    # leakage as the unmeasured confounder; the probe must claw it back
    runs, _ = confounded_runs
    drops = []
    for seed, (cfg, test) in enumerate(runs):
        matched, _ = match_exact(
            test, MatchSpec(covariates=("any_symptom",), include_channel=False, seed=seed)
        )
        calibration = make_calibration_cohort(cfg.feature_dim, n_per_class=300, seed=seed)
        result = weak_robust_curate(matched, calibration, WeakProbeConfig(k_max=10, seed=seed))
        assert result.tau is not None
        drops.append(result.uncurated_auc - result.curated_auc_at_tau)
    print("  confounded drops:", [round(d, 3) for d in drops])
    assert np.mean(drops) >= 0.2

    # true-signal arm: signal orthogonal to negative-class variation must
    # survive curation
    deltas = []
    for seed in range(5):
        rng = np.random.default_rng(6000 + seed)
        train = _orthogonal_signal_cohort(rng, 300, 16, 2.0, "tr")
        test = _orthogonal_signal_cohort(rng, 250, 16, 2.0, "te")
        model = fit_forest(train.feature_matrix(), train.labels(), n_trees=40, seed=seed)
        test = hybrid_features(test, model.predict_matrix(test.feature_matrix()))
        calibration = make_calibration_cohort(16, n_per_class=300, seed=seed)
        result = weak_robust_curate(test, calibration, WeakProbeConfig(k_max=10, seed=seed))
        assert result.tau is not None
        deltas.append(abs(result.uncurated_auc - result.curated_auc_at_tau))
    print("  true-signal |deltas|:", [round(d, 4) for d in deltas])
    assert max(deltas) <= 0.05
    _report(
        6,
        f"mean confounded drop {np.mean(drops):.3f} (>= 0.2); "
        f"max true-signal change {max(deltas):.4f} (<= 0.05)",
    )


def test_criterion_07_nn_probe():
    # confounded arm over 20 seeds with a linear margin classifier
    hits = 0
    posts = []
    for seed in range(20):
        cfg = SynthConfig(
            n_population=6000, prevalence=0.3, enrolment="symptoms_based",
            signal_strength=0.0, confounder_strength=7.0, feature_dim=16,
            seed=7000 + seed,
        )
        enrolled, _ = generate_cohort(cfg)
        train, test = split_cohort(enrolled, SplitSpec(train_fraction=0.5, seed=seed))
        linear = train_weak_linear(train.feature_matrix(), train.labels())
        matched, _ = match_exact(
            test, MatchSpec(covariates=("any_symptom",), include_channel=False, seed=seed)
        )
        matched = hybrid_features(matched, _sigmoid(linear.decision(matched.feature_matrix())))
        result = nn_substitute(matched, WeakProbeConfig(seed=seed))
        posts.append(result.post_auc)
        hits += result.post_auc > 0.55 and result.attribution_flag
    print("  confounded post-AUCs:", [round(p, 3) for p in posts])
    assert hits >= 16

    # true-signal arm: substitution must collapse accuracy to chance
    null_posts = []
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        train = _orthogonal_signal_cohort(rng, 300, 16, 2.0, "tr")
        test = _orthogonal_signal_cohort(rng, 250, 16, 2.0, "te")
        linear = train_weak_linear(train.feature_matrix(), train.labels())
        test = hybrid_features(test, _sigmoid(linear.decision(test.feature_matrix())))
        result = nn_substitute(test, WeakProbeConfig(seed=seed))
        null_posts.append(result.post_auc)
    print("  true-signal post-AUCs:", [round(p, 3) for p in null_posts])
    assert 0.45 <= np.mean(null_posts) <= 0.55
    _report(
        7,
        f"flag raised with post-AUC > 0.55 in {hits}/20 confounded seeds; "
        f"mean true-signal post-AUC {np.mean(null_posts):.3f}",
    )


def test_criterion_08_matching_invariants():
    rng = np.random.default_rng(8)
    checked = 0
    for trial in range(5):
        records = []
        for i in range(600):
            records.append(
                make_record(
                    f"r{i}",
                    label=int(rng.random() < 0.45),
                    age=int(rng.integers(18, 90)),
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
        cohort = make_cohort(records)
        for preset in (TEST_SET, TRAIN_SET):
            spec = MatchSpec(covariates=preset, include_channel=False, seed=trial)
            matched, report = match_exact(cohort, spec)
            labels = matched.labels()
            assert (labels == 1).sum() == (labels == 0).sum()
            per_stratum: dict = {}
            for r in matched.records:
                per_stratum.setdefault(stratum_keyer(spec)(r), [0, 0])[r.label] += 1
            for neg, pos in per_stratum.values():
                assert neg == pos
            for flag in preset:
                t = [[0, 0], [0, 0]]
                for r in matched.records:
                    t[int(symptom_flag(r.symptoms, flag))][r.label] += 1
                if min(t[0][0] + t[0][1], t[1][0] + t[1][1]) > 0:
                    assert table_2x2_stats(t).phi == 0.0
            checked += 1
    _report(8, f"per-stratum equality and exact phi=0 on {checked} matched cohorts")


def test_criterion_09_resampling_invariants():
    rng = np.random.default_rng(9)
    records = []
    for i in range(6000):
        records.append(
            make_record(
                f"r{i}",
                label=int(rng.random() < 0.5),
                age=int(rng.integers(18, 88)),
                gender="male" if rng.random() < 0.5 else "female",
                cough=bool(rng.random() < 0.45),
            )
        )
    pool = make_cohort(records)
    spec = PopulationSpec(n_pos=150, n_neg=150, p_sym_pos=0.65, p_sym_neg=0.20, seed=11)
    out, report = resample_general_population(pool, spec)

    ids = out.ids()
    assert len(ids) == len(set(ids)) == 300
    by = {}
    for r in out.records:
        key = (r.label, r.symptoms.any_symptom)
        by[key] = by.get(key, 0) + 1
    assert by[(1, True)] == round(150 * 0.65)
    assert by[(0, True)] == round(150 * 0.20)

    from confound_audit.matching import age_bin

    per_bin: dict = {}
    for r in out.records:
        per_bin.setdefault(age_bin(r.age_years), [0, 0])[r.label] += 1
    worst = max(abs(pos - neg) for neg, pos in per_bin.values())
    assert worst <= 1
    _report(9, f"exact symptomatic fractions, per-bin |n+ - n-| <= {worst}, no duplicate ids")


def test_criterion_10_uncertainty_identities():
    u = uncertainty_decompose([[1.0, 0.0]] * 3)
    assert (u.predictive_entropy, u.expected_entropy, u.mutual_information) == (0.0, 0.0, 0.0)
    u = uncertainty_decompose([[1.0, 0.0], [0.0, 1.0]])
    assert u.predictive_entropy == np.log(2.0)
    assert u.mutual_information == np.log(2.0)
    u = uncertainty_decompose([[0.5, 0.5]] * 4)
    assert u.mutual_information == 0.0
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(500):
        raw = rng.random((int(rng.integers(1, 9)), int(rng.integers(2, 6)))) + 1e-6
        probs = raw / raw.sum(axis=1, keepdims=True)
        u = uncertainty_decompose(probs)
        worst = min(worst, u.mutual_information)
        assert u.mutual_information >= -1e-12
    _report(10, f"closed forms exact; min MI over 500 random inputs {worst:.2e} >= -1e-12")


def test_criterion_11_stratified_ci_coverage():
    true_auc = 0.62
    mu = np.sqrt(2.0) * norm.ppf(true_auc)
    rng = np.random.default_rng(11)
    spec = MatchSpec(covariates=("cough",), include_channel=False)
    start = time.monotonic()
    covered = total = 0
    for rep in range(200):
        records = []
        for s in range(8):
            age = 20 + 10 * (s // 2)
            gender = "male" if s % 2 == 0 else "female"
            pos_scores = _sigmoid(rng.normal(mu, 1.0, 25))
            neg_scores = _sigmoid(rng.normal(0.0, 1.0, 25))
            for i, sc in enumerate(pos_scores):
                records.append(make_record(f"{rep}s{s}p{i}", 1, age=age, gender=gender, score=float(sc)))
            for i, sc in enumerate(neg_scores):
                records.append(make_record(f"{rep}s{s}n{i}", 0, age=age, gender=gender, score=float(sc)))
        results = stratified_auc(make_cohort(records), spec, min_per_class=10)
        assert len(results) == 8
        for res in results:
            covered += res.ci.lower <= true_auc <= res.ci.upper
            total += 1
    elapsed = time.monotonic() - start
    coverage = covered / total
    assert coverage >= 0.90
    _report(11, f"per-stratum CI coverage {coverage:.3f} over {total} strata in {elapsed:.0f}s")


def test_criterion_12_manifest_determinism(tmp_path):
    cfg = RunConfig(
        seed=12, n_trees=10, out_dir=str(tmp_path / "a"),
        synth={"n_population": 2500, "feature_dim": 8},
        metrics={"min_per_class": 5},
    )
    bundle = run_pipeline(cfg)
    out_a = tmp_path / "a"
    bundle.write(str(out_a))
    rerun = run_from_manifest(str(out_a / "manifest.json"))
    out_b = tmp_path / "b"
    rerun.write(str(out_b))
    names = sorted(n for n in bundle.tables)
    assert names
    for name in names:
        a = (out_a / f"{name}.csv").read_bytes()
        b = (out_b / f"{name}.csv").read_bytes()
        assert a == b
    _report(12, f"{len(names)} CSV outputs byte-identical after manifest rerun")
