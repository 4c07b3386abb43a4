"""End-to-end pipelines and reproducible run manifests.

A pipeline is a pure function of its RunConfig: rerunning from the emitted
manifest reproduces every CSV byte-for-byte. The bundled ``bias-demo``
pipeline generates a synthetic symptom-driven cohort with no true class
signal, trains a feature-based classifier, and walks the full evaluation
chain: randomised-split ROC, exact matching, stratified AUC, expected-utility
curves, and both confounder probes.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields

from . import __version__
from .cohort import SplitSpec, split_cohort
from .errors import ConfigError, OutOfRange
from .forest import build_encoding, encode_cohort, fit_forest, hybrid_features
from .matching import MatchSpec, match_exact, stratum_label
from .metrics import (
    ScoredLabels,
    StrataConfig,
    any_symptom_table,
    auc_ci,
    calibration_bins,
    roc_curve,
    stratified_auc,
    table_2x2_stats,
)
from .probes import WeakProbeConfig, make_calibration_cohort, nn_substitute, weak_robust_curate
from .report import ReportBundle, csv_text, emit_figure
from .synth import SynthConfig, generate_cohort
from .utility import UtilityParams, default_pi_grid, max_eu_curve


def field_defaults(cls, *leave_out: str) -> dict:
    """Each field of the dataclass ``cls`` that has a default, but those in
    ``leave_out``, with its default."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING and f.name not in leave_out}


# Every key of each RunConfig section with the bias-demo pipeline's default;
# a key takes values of its default's type. The synth and probe sections take
# their class's fields but ``seed``, at the class's default unless this table
# sets another: the run seed sets the synth seed, and no probe reads one.
DEFAULTS = {
    "synth": {**field_defaults(SynthConfig, "seed"), "n_population": 6000, "prevalence": 0.25,
              "enrolment": "symptoms_based", "signal_strength": 0.0, "confounder_strength": 5.0, "feature_dim": 12},
    "utility": {"r_t": 1.5, "epsilon": 0.2, "delta": 0.0, "pi_max": 0.1},
    "probe": {**field_defaults(WeakProbeConfig, "seed"), "k_max": 8},
    "metrics": {"min_per_class": 10, "fdr": 0.05},
}


def _settings(prefix: str, values, defaults: dict) -> dict:
    """``values`` over ``defaults``, for the config section ``prefix`` names.
    A section that is not a JSON object, a key not in ``defaults``, a value
    not of its default's type or a float that is not finite raises
    ``ConfigError``. No key takes a bool, and an int passes for a float (JSON
    writes 2.0 as 2)."""
    if not isinstance(values, dict):
        raise ConfigError(prefix.rstrip("."), "must be a JSON object")
    for key, value in values.items():
        if key not in defaults:
            raise ConfigError(prefix + key)
        kind = type(defaults[key])
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise ConfigError(prefix + key, f"must be {kind.__name__}, not {type(value).__name__}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(prefix + key, "must be finite")
    return {**defaults, **values}


def build_section(cls, prefix: str, values, defaults: dict, **fixed):
    """``cls`` built from the ``_settings`` of a config section and ``fixed``;
    a ``ConfigError`` from ``cls`` names its key under ``prefix``."""
    kwargs = _settings(prefix, values, defaults)
    try:
        return cls(**kwargs, **fixed)
    except ConfigError as exc:
        raise ConfigError(prefix + exc.key, exc.message) from None


@dataclass
class RunConfig:
    """A pipeline run. The four sections hold only the settings given, so
    ``to_dict`` and ``config_hash`` record the overrides; building the config
    makes, over ``DEFAULTS``, the objects the pipeline reads:
    ``synth_config``, ``utility_params`` and ``pi_grid``, ``probe_config``
    and ``strata``."""

    pipeline: str = "bias-demo"
    seed: int = 0
    out_dir: str = "report"  # where ``report`` writes unless given --out-dir
    n_trees: int = 50
    synth: dict = field(default_factory=dict)  # SynthConfig fields except seed
    utility: dict = field(default_factory=dict)  # r_t, epsilon, delta, pi_max
    probe: dict = field(default_factory=dict)  # WeakProbeConfig fields except seed
    metrics: dict = field(default_factory=dict)  # min_per_class, fdr

    def __post_init__(self):
        """Every check of a config, however it was built: a bad value, a
        value of the wrong type or an unknown key raises ``ConfigError``."""
        top = field_defaults(RunConfig)
        _settings("", {name: getattr(self, name) for name in top}, top)
        if self.n_trees < 1:
            raise ConfigError("n_trees", "must be >= 1")
        if self.pipeline not in PIPELINES:
            raise ConfigError("pipeline", f"unknown pipeline {self.pipeline!r}")
        self.synth_config = build_section(SynthConfig, "synth.", self.synth, DEFAULTS["synth"], seed=self.seed)
        utility = _settings("utility.", self.utility, DEFAULTS["utility"])
        try:
            self.pi_grid = default_pi_grid(utility.pop("pi_max"))
            self.utility_params = UtilityParams(**utility)
        except OutOfRange as exc:
            raise ConfigError("utility", str(exc)) from None
        self.probe_config = build_section(WeakProbeConfig, "probe.", self.probe, DEFAULTS["probe"])
        self.strata = build_section(StrataConfig, "metrics.", self.metrics, DEFAULTS["metrics"])

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config", "must be a JSON object")
        # Manifests written before the serial-only forest carry "threads";
        # it never changed an output, so replaying them ignores it.
        data = {k: v for k, v in data.items() if k != "threads"}
        for key in data:
            if key not in RunConfig.__dataclass_fields__:
                raise ConfigError(key)
        return RunConfig(**data)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(json.dumps(cfg.to_dict(), sort_keys=True).encode()).hexdigest()[:16]


def bias_demo(cfg: RunConfig) -> ReportBundle:
    enrolled, _pop = generate_cohort(cfg.synth_config)
    train, test = split_cohort(enrolled, SplitSpec(train_fraction=0.5, seed=cfg.seed))

    encoding = build_encoding(train, ("features",))
    model = fit_forest(
        encode_cohort(train, encoding), train.labels(),
        n_trees=cfg.n_trees, seed=cfg.seed,
    )
    # scored once: matching keeps each record's score
    test = hybrid_features(test, model.predict_matrix(encode_cohort(test, encoding)))
    randomized = ScoredLabels(test.scores(), test.labels())

    match_spec = MatchSpec(covariates=("any_symptom",), include_channel=False, seed=cfg.seed)
    matched, balance = match_exact(test, match_spec)
    matched_scored = ScoredLabels(matched.scores(), matched.labels())

    figures: dict[str, str] = {}
    tables: dict[str, str] = {}

    roc_rand = roc_curve(randomized)
    roc_match = roc_curve(matched_scored)
    figures["roc"], tables["roc"] = emit_figure(
        "roc_comparison",
        [
            {"name": "randomised split", "roc": roc_rand, "ci": auc_ci(randomized, "delong")},
            {"name": "matched", "roc": roc_match, "ci": auc_ci(matched_scored, "delong")},
        ],
    )

    up, grid = cfg.utility_params, cfg.pi_grid
    figures["eu"], tables["eu"] = emit_figure(
        "max_eu_vs_prevalence",
        [
            {"name": "randomised split", "points": max_eu_curve(roc_rand, up, grid)},
            {"name": "matched", "points": max_eu_curve(roc_match, up, grid)},
        ],
    )

    strata = stratified_auc(matched, match_spec, min_per_class=cfg.strata.min_per_class, q=cfg.strata.fdr)
    figures["strata"], tables["strata"] = emit_figure("stratified_forest", strata, reference=0.62)

    probe_cfg = cfg.probe_config
    calibration = make_calibration_cohort(cfg.synth_config.feature_dim, seed=cfg.seed)
    weak = weak_robust_curate(matched, calibration, probe_cfg)
    figures["probe"], tables["probe"] = emit_figure("weak_robust_curve", weak)

    nn = nn_substitute(matched, probe_cfg)
    tables["nn_probe"] = csv_text(
        ["name", "value"],
        [
            ["pre_auc", nn.pre_auc],
            ["post_auc", nn.post_auc],
            ["distinct_neighbours", nn.distinct_neighbours],
            ["attribution_flag", int(bool(nn.attribution_flag))],
        ],
    )

    table = any_symptom_table(enrolled)
    figures["two_by_two"], tables["two_by_two"] = emit_figure(
        "two_by_two", table, table_2x2_stats(table), title="Any symptom vs status (enrolled)"
    )

    bins, ece = calibration_bins(randomized.scores, randomized.labels)
    figures["calibration"], tables["calibration"] = emit_figure("calibration", bins, ece)

    tables["balance"] = csv_text(
        ["stratum", "n_pos_in", "n_neg_in", "n_kept_per_class"],
        [[stratum_label(s.key), s.n_pos_in, s.n_neg_in, s.n_kept_per_class] for s in balance.strata],
    )

    manifest = {
        "config": cfg.to_dict(),
        "config_hash": config_hash(cfg),
        "version": __version__,
        "outputs": sorted(figures) + sorted(tables),
    }
    return ReportBundle(figures=figures, tables=tables, manifest=manifest)


PIPELINES = {"bias-demo": bias_demo}


def run_pipeline(cfg: RunConfig) -> ReportBundle:
    """Execute the configured pipeline and stamp the wall time into the
    manifest (the CSV/SVG payloads depend only on the config)."""
    start = time.time()
    bundle = PIPELINES[cfg.pipeline](cfg)
    bundle.manifest["wall_time_s"] = round(time.time() - start, 3)
    return bundle


def read_config(path: str) -> dict:
    """The JSON object in a config or manifest file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError:
            raise ConfigError("config", f"{path} is not valid JSON") from None
    if not isinstance(data, dict):
        raise ConfigError("config", f"{path} is not a JSON object")
    return data


def run_from_manifest(path: str) -> ReportBundle:
    manifest = read_config(path)
    if "config" not in manifest:
        raise ConfigError("config", "manifest lacks a config block")
    return run_pipeline(RunConfig.from_dict(manifest["config"]))
