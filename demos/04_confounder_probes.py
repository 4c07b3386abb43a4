"""Probing residual accuracy for unmeasured confounding.

After matching, some accuracy can remain. Two probes ask whether it is real:

1. Weak-model curation: low-capacity linear models on the leading principal
   components of the negative records propose "suspiciously easy" cases;
   removing them should collapse confounder-driven accuracy but spare a true
   signal. A calibration task pins the capacity threshold tau.
2. Nearest-neighbour substitution: replace each positive's features with its
   nearest negative's. Accuracy that survives lives inside the negative-class
   feature span and is attributed to unmatched/unmeasured confounders.

Both probes run here on two cohorts: one purely confounded (no true signal)
and one with a genuine signal along an axis where negatives do not vary.

Run:  python demos/04_confounder_probes.py
"""

import os

import numpy as np

from confound_audit import (
    MatchSpec,
    SplitSpec,
    SynthConfig,
    WeakProbeConfig,
    build_encoding,
    encode_cohort,
    fit_forest,
    generate_cohort,
    hybrid_features,
    make_calibration_cohort,
    match_exact,
    nn_substitute,
    split_cohort,
    weak_robust_curate,
)
from confound_audit.cohort import vector_cohort
from confound_audit.report import emit_figure, write_figure

OUT = os.path.join(os.path.dirname(__file__), "output")
SEED = 5
DIM = 16


def confounded_matched_cohort():
    cfg = SynthConfig(
        n_population=9000, prevalence=0.3, enrolment="symptoms_based",
        signal_strength=0.0, confounder_strength=7.0, feature_dim=DIM, seed=SEED,
    )
    enrolled, _ = generate_cohort(cfg)
    train, test = split_cohort(enrolled, SplitSpec(train_fraction=0.5, seed=SEED))
    enc = build_encoding(train, ("features",))
    model = fit_forest(encode_cohort(train, enc), train.labels(), n_trees=50, seed=SEED)
    test = hybrid_features(test, model.predict_matrix(encode_cohort(test, enc)))
    # matching only on the aggregate leaves profile-level leakage behind,
    # standing in for confounders that were never measured
    return match_exact(test, MatchSpec(covariates=("any_symptom",), include_channel=False, seed=SEED))[0]


def true_signal_cohort():
    rng = np.random.default_rng(SEED)

    def draw(n, prefix):
        # class 1's rows, then class 0's; negatives do not vary along axis 0
        x = np.zeros((2 * n, DIM))
        x[:n, 1:] = rng.normal(size=(n, DIM - 1))
        x[:n, 0] = 2.0 + rng.normal(size=n)
        x[n:, 1:] = rng.normal(size=(n, DIM - 1))
        return vector_cohort(x, np.repeat([1, 0], n), prefix)

    train, test = draw(300, "tr"), draw(250, "te")
    model = fit_forest(train.feature_matrix(), train.labels(), n_trees=40, seed=SEED)
    return hybrid_features(test, model.predict_matrix(test.feature_matrix()))


def run_probes(name, cohort):
    print(f"\n=== {name} (n={len(cohort)}) ===")
    cfg = WeakProbeConfig(k_max=10)
    calibration = make_calibration_cohort(DIM, seed=SEED)
    weak = weak_robust_curate(cohort, calibration, cfg)
    print(f"weak probe: uncurated AUC {weak.uncurated_auc:.3f}, tau={weak.tau}, "
          f"curated AUC at tau {weak.curated_auc_at_tau:.3f}")
    for k, m, c, n_rm in zip(weak.ks, weak.weak_uar_matched, weak.weak_uar_calibration,
                             (len(r) for r in weak.removed_ids_per_k)):
        marker = " <- tau" if k == weak.tau else ""
        print(f"  k={k:2d}  weak UAR {m:.3f}  calibration UAR {c:.3f}  removed {n_rm:3d}{marker}")

    write_figure(os.path.join(OUT, f"probe_{name.replace(' ', '_')}"),
                 emit_figure("weak_robust_curve", weak, title=f"Weak-model curation: {name}"))

    nn = nn_substitute(cohort, cfg)
    print(f"nn probe:  AUC {nn.pre_auc:.3f} -> {nn.post_auc:.3f} after substitution, "
          f"{nn.distinct_neighbours} distinct neighbours, attribution flag {nn.attribution_flag}")


def main():
    os.makedirs(OUT, exist_ok=True)
    run_probes("confounded cohort", confounded_matched_cohort())
    run_probes("true-signal cohort", true_signal_cohort())
    print("\nfigures written to demos/output/")
    print("curation collapses the confounded cohort's accuracy but leaves the")
    print("true-signal cohort intact; the substitution probe flags only the")
    print("cohort whose signal lives inside the negative-class span.")


if __name__ == "__main__":
    main()
