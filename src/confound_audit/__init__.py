"""Confounder-aware evaluation toolkit for binary screening classifiers.

Core capabilities: synthetic cohorts with controllable recruitment bias,
exact stratified matching, general-population resampling, CI-equipped
accuracy metrics, expected-utility analysis over ROC operating points, and
two probes for unmeasured confounding.
"""

from .cohort import (
    ACUTE_SYMPTOM_FIELDS,
    SYMPTOM_FIELDS,
    Cohort,
    ParticipantRecord,
    RejectionReport,
    SplitSpec,
    SymptomProfile,
    derive_any_symptom,
    load_cohort,
    load_features,
    split_cohort,
    validate_cohort,
    vector_cohort,
    write_cohort,
    write_features,
)
from .forest import (
    FeatureEncoding,
    TreeEnsemble,
    build_encoding,
    encode_cohort,
    fit_forest,
    hybrid_features,
    model_from_json,
    model_to_json,
    predict_proba,
    train_symptoms_model,
)
from .matching import (
    TEST_SET,
    TRAIN_SET,
    BalanceReport,
    MatchSpec,
    age_bin,
    match_exact,
    stratum_keyer,
)
from .metrics import (
    ConfidenceInterval,
    RocCurve,
    ScoredLabels,
    StratumResult,
    TableStats,
    UncertaintySummary,
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
from .probes import (
    PcaModel,
    ProbeResult,
    WeakProbeConfig,
    make_calibration_cohort,
    nn_substitute,
    pca_fit,
    pca_project,
    train_weak_linear,
    weak_robust_curate,
)
from .resample import PopulationSpec, ResampleReport, resample_general_population
from .synth import SynthConfig, SynthRecord, enrol, generate_cohort, generate_population
from .utility import (
    MaxEuPoint,
    UtilityMatrix,
    UtilityParams,
    default_pi_grid,
    expected_utility,
    max_eu_curve,
    utility_matrix,
)

__version__ = "0.1.0"
