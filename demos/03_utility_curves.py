"""From ROC curves to decisions: expected utility per test administered.

A screening protocol's value depends on prevalence and on the costs attached
to each outcome, not on AUC alone. Here a symptoms-questionnaire baseline, a
hybrid that appends the audio-model score to the questionnaire, and the audio
model alone are compared on a resampled "general population" test set, then
ranked by maximum expected utility across a prevalence sweep under the
utility family (R_t infections averted per caught case, isolation cost eps,
false-reassurance cost delta).

Run:  python demos/03_utility_curves.py
"""

import os

from confound_audit import (
    PopulationSpec,
    ScoredLabels,
    SplitSpec,
    SynthConfig,
    UtilityParams,
    auc_ci,
    build_encoding,
    default_pi_grid,
    encode_cohort,
    fit_forest,
    generate_cohort,
    hybrid_features,
    max_eu_curve,
    predict_proba,
    resample_general_population,
    roc_curve,
    split_cohort,
    train_symptoms_model,
)
from confound_audit.report import emit_figure, write_figure

OUT = os.path.join(os.path.dirname(__file__), "output")
SEED = 23


def main():
    os.makedirs(OUT, exist_ok=True)
    # enrolment weights are softened a little so the held-out pool retains
    # enough asymptomatic negatives for the general-population resample
    cfg = SynthConfig(
        n_population=24_000, prevalence=0.3, enrolment="symptoms_based",
        w_sym_neg=0.4, w_asym_neg=0.15, w_asym_pos=0.2,
        signal_strength=0.6, confounder_strength=4.0, feature_dim=12, seed=SEED,
    )
    enrolled, _ = generate_cohort(cfg)
    train, test = split_cohort(enrolled, SplitSpec(train_fraction=0.6, seed=SEED))

    # audio-style model on feature vectors
    feat_enc = build_encoding(train, ("features",))
    audio_model = fit_forest(encode_cohort(train, feat_enc), train.labels(), n_trees=60, seed=SEED)

    # symptoms questionnaire baseline and the hybrid with the audio score appended
    sym_model = train_symptoms_model(train, n_trees=60, seed=SEED)
    train_h = hybrid_features(train, audio_model.predict_matrix(encode_cohort(train, feat_enc)))
    hybrid_model = train_symptoms_model(
        train_h,
        predictors=tuple(s[0] for s in sym_model.encoding.sources) + ("audio_score",),
        n_trees=60, seed=SEED,
    )

    # scored before the resample, which keeps each drawn record's audio score
    test = hybrid_features(test, audio_model.predict_matrix(encode_cohort(test, feat_enc)))
    pool, report = resample_general_population(
        test, PopulationSpec(n_pos=200, n_neg=200, p_sym_pos=0.65, p_sym_neg=0.20, seed=SEED)
    )
    print(f"general-population test set: {report.n_total()} records "
          f"(65% of positives symptomatic, 20% of negatives)")

    labels = pool.labels()
    entries = []
    for name, scores in [
        ("symptoms", predict_proba(sym_model, pool)),
        ("symptoms+audio", predict_proba(hybrid_model, pool)),
        ("audio", pool.scores()),
    ]:
        d = ScoredLabels(scores, labels)
        ci = auc_ci(d, method="delong")
        print(f"  {name:15s} AUC {ci.estimate:.3f} [{ci.lower:.3f}-{ci.upper:.3f}]")
        entries.append({"name": name, "roc": roc_curve(d), "ci": ci})

    write_figure(os.path.join(OUT, "genpop_roc"),
                 emit_figure("roc_comparison", entries, title="General-population ROC"))

    params = UtilityParams(r_t=1.5, epsilon=0.2, delta=0.0)
    curves = [
        {"name": e["name"], "points": max_eu_curve(e["roc"], params, default_pi_grid())} for e in entries
    ]
    write_figure(os.path.join(OUT, "genpop_eu"), emit_figure(
        "max_eu_vs_prevalence", curves,
        title="Max expected utility (R_t=1.5, eps=0.2, delta=0)",
    ))

    print("\nmax expected utility at selected prevalences (infections prevented per test):")
    grid_idx = [10, 50, 100]  # pi = 0.01, 0.05, 0.1
    header = "  pi      " + "".join(f"{c['name']:>17s}" for c in curves)
    print(header)
    for i in grid_idx:
        row = f"  {curves[0]['points'][i].pi:.3f} " + "".join(
            f"{c['points'][i].max_eu:17.4f}" for c in curves
        )
        print(row)
    print("\nfigures written to demos/output/")


if __name__ == "__main__":
    main()
