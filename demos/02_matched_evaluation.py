"""Why a randomised split flatters a confounded classifier.

The cohort below has NO true class signal in its feature vectors
(signal_strength=0): everything a model can learn is symptom leakage, and
symptoms drive enrolment. A bagged-tree classifier looks strong under the
usual randomised train/test split, then collapses to chance once the test
set is exactly matched on the symptom covariates. Per-stratum AUCs with
DeLong intervals show the collapse is uniform, not driven by one subgroup.

Run:  python demos/02_matched_evaluation.py
"""

import os

from confound_audit import (
    MatchSpec,
    ScoredLabels,
    SplitSpec,
    SynthConfig,
    TEST_SET,
    auc_ci,
    build_encoding,
    encode_cohort,
    fit_forest,
    generate_cohort,
    hybrid_features,
    match_exact,
    roc_curve,
    split_cohort,
    stratified_auc,
)
from confound_audit.report import emit_figure, write_figure

OUT = os.path.join(os.path.dirname(__file__), "output")
SEED = 11


def main():
    os.makedirs(OUT, exist_ok=True)
    cfg = SynthConfig(
        n_population=12_000, prevalence=0.3, enrolment="symptoms_based",
        signal_strength=0.0, confounder_strength=7.0, feature_dim=16, seed=SEED,
    )
    enrolled, _ = generate_cohort(cfg)
    print(f"enrolled {len(enrolled)} of {cfg.n_population} "
          f"({int((enrolled.labels() == 1).sum())} positive)")

    train, test = split_cohort(enrolled, SplitSpec(train_fraction=0.5, seed=SEED))
    encoding = build_encoding(train, ("features",))
    model = fit_forest(encode_cohort(train, encoding), train.labels(), n_trees=60, seed=SEED)
    print(f"out-of-bag accuracy {model.oob_accuracy:.3f}")

    test = hybrid_features(test, model.predict_matrix(encode_cohort(test, encoding)))
    rand = ScoredLabels(test.scores(), test.labels())
    ci_rand = auc_ci(rand, method="delong")
    print(f"\nrandomised split : AUC {ci_rand.estimate:.3f} [{ci_rand.lower:.3f}-{ci_rand.upper:.3f}]")

    spec = MatchSpec(covariates=TEST_SET, include_channel=False, seed=SEED)
    matched, balance = match_exact(test, spec)  # the matched records keep their scores
    md = ScoredLabels(matched.scores(), matched.labels())
    ci_match = auc_ci(md, method="delong")
    print(f"matched test set : AUC {ci_match.estimate:.3f} [{ci_match.lower:.3f}-{ci_match.upper:.3f}]"
          f"  ({balance.n_kept} kept, {balance.n_dropped} dropped)")

    write_figure(os.path.join(OUT, "matched_vs_random_roc"), emit_figure("roc_comparison", [
        {"name": "randomised split", "roc": roc_curve(rand), "ci": ci_rand},
        {"name": "matched test set", "roc": roc_curve(md), "ci": ci_match},
    ]))

    # full-preset strata are tiny at this scale; report per-stratum AUC over
    # the coarser (age bin x gender x any-symptom) key instead
    coarse = MatchSpec(covariates=("any_symptom",), include_channel=False, seed=SEED)
    strata = stratified_auc(matched, coarse, min_per_class=10)
    print(f"\nper-stratum AUC in the matched set ({len(strata)} strata of >= 10 per class):")
    for s in strata[:8]:
        mark = "*" if s.fdr_reject else " "
        print(f"  {mark} n={s.n_pos + s.n_neg:4d}  AUC {s.auc:.3f} [{s.ci.lower:.3f}-{s.ci.upper:.3f}]  p={s.mwu_p:.3f}")
    write_figure(os.path.join(OUT, "matched_strata"), emit_figure("stratified_forest", strata, reference=0.5))
    print("\nfigures written to demos/output/")


if __name__ == "__main__":
    main()
