"""Command-line front end.

Subcommands: synth, match, resample, eval, utility, probe weak, probe nn,
baseline train, baseline predict, report. Exit codes: 0 success, 1 runtime
error, 2 configuration error.

Each ``cmd_*`` handler reads its input cohorts through ``_load`` (which
counts the rows a feature or score join could not place), writes its outputs
and returns ``(message, manifest_extras)``. ``main`` alone writes
``--manifest-out`` and then prints the message, so a failure at either step
exits nonzero with no success line.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__
from .cohort import (
    Cohort,
    load_cohort,
    load_features,
    read_sidecar,
    validate_cohort,
    write_cohort,
    write_features,
)
from .errors import BadValue, ConfigError, ConfoundAuditError, MissingColumn, MissingScore, OutOfRange, TooFewRecords
from .forest import (
    DEFAULT_SYMPTOM_PREDICTORS,
    hybrid_features,
    model_from_json,
    model_to_json,
    predict_proba,
    train_symptoms_model,
)
from .matching import TEST_SET, TRAIN_SET, MatchSpec, match_exact, stratum_order
from .metrics import RocCurve, ScoredLabels, StrataConfig, auc_ci, pr_auc, roc_curve, stratified_auc, uar
from .pipeline import RunConfig, build_section, field_defaults, read_config, run_from_manifest, run_pipeline
from .probes import WeakProbeConfig, make_calibration_cohort, nn_substitute, weak_robust_curate
from .report import write_csv, write_json, write_text
from .resample import PopulationSpec, resample_general_population
from .synth import SynthConfig, enrol, generate_population
from .utility import UtilityParams, default_pi_grid, max_eu_curve


def _load(path: str, features: str | None = None, scores: str | None = None) -> tuple[Cohort, dict[str, int]]:
    """The cohort at ``path``, with the vectors of a ``features`` file joined
    by ``load_features`` and the scores of an ``id,score`` file by
    ``hybrid_features``, and the counts of the rows each join could not place,
    for ``--manifest-out``. Both files are read by ``read_sidecar``, which
    checks the scores header before any row; a score outside [0, 1] is
    refused with its file row."""
    cohort = load_cohort(path)
    counts = {}
    if features:
        cohort = load_features(cohort, features)
        counts = {k: cohort.manifest[k] for k in ("unmatched_feature_rows", "records_without_features")}
    if scores:
        _, row_of, block = read_sidecar(scores, "score")
        values = block[:, 0]
        out = np.flatnonzero((values < 0.0) | (values > 1.0))
        if out.size:
            raise BadValue(int(out[0]) + 1, "score", float(values[out[0]]))
        bare = next((r.id for r in cohort.records if r.id not in row_of), None)
        if bare is not None:
            raise MissingScore(bare)
        cohort = hybrid_features(cohort, values[[row_of[r.id] for r in cohort.records]])
        counts["unmatched_score_rows"] = len(row_of) - len(cohort)
    return cohort, counts


# -- subcommand handlers ------------------------------------------------------------


def cmd_synth(args) -> tuple[str, dict]:
    cfg_data = read_config(args.config) if args.config else {}
    if args.seed is not None:
        cfg_data["seed"] = args.seed
    cfg = build_section(SynthConfig, "", cfg_data, field_defaults(SynthConfig))
    population = generate_population(cfg)
    cohort = enrol(population, cfg)
    write_cohort(cohort, args.out)
    if args.features:
        write_features(cohort, args.features)
    if args.truth:
        enrolled = set(cohort.ids())
        write_csv(args.truth, ["id", "label", "any_symptom", "latent_signal", "enrolled"], (
            [sr.record.id, sr.record.label, int(sr.record.symptoms.any_symptom), float(sr.record.label),
             int(sr.record.id in enrolled)]
            for sr in population
        ))
    return f"enrolled {len(cohort)} of {cfg.n_population} -> {args.out}", {"n_enrolled": len(cohort)}


def _match_spec(args) -> MatchSpec:
    """Strata for ``match`` and ``eval --stratified``; ``--preset train`` drops the channel."""
    if getattr(args, "covariates", None) is not None:
        covs = tuple(args.covariates.split(","))
    else:
        covs = TEST_SET if args.preset == "test" else TRAIN_SET
    include_channel = not args.no_channel and args.preset != "train"
    return MatchSpec(covariates=covs, include_channel=include_channel, seed=getattr(args, "seed", None) or 0)


def cmd_match(args) -> tuple[str, dict]:
    spec = _match_spec(args)
    cohort = _load(getattr(args, "in"))[0]
    disjoint = _load(args.disjoint_from)[0] if args.disjoint_from else None
    matched, report = match_exact(cohort, spec, disjoint_from=disjoint)
    write_cohort(matched, args.out)
    if args.report:
        write_json(args.report, report.to_dict())
    return f"kept {report.n_kept}, dropped {report.n_dropped} -> {args.out}", {"n_kept": report.n_kept}


def cmd_resample(args) -> tuple[str, dict]:
    spec = PopulationSpec(
        n_pos=args.n_pos,
        n_neg=args.n_neg,
        p_sym_pos=args.p_sym_pos,
        p_sym_neg=args.p_sym_neg,
        equalize_age=not args.no_equalize_age,
        seed=args.seed or 0,
    )
    out, report = resample_general_population(_load(getattr(args, "in"))[0], spec)
    write_cohort(out, args.out)
    if args.report:
        write_json(args.report, report.to_dict())
    n_skipped = sum(report.skipped.values())
    return (f"drew {report.n_total()} records ({n_skipped} pool records skipped) -> {args.out}",
            {"n": report.n_total(), "n_skipped": n_skipped, "skipped": report.skipped})


_EVAL_METRICS = ("roc", "pr", "uar")
_ROC_COLUMNS = ("threshold", "sensitivity", "specificity")


def cmd_eval(args) -> tuple[str, dict]:
    strata_cfg = StrataConfig(args.min_per_class, args.fdr)
    wanted = args.metrics.split(",")
    unknown = next((name for name in wanted if name not in _EVAL_METRICS), None)
    if unknown is not None:
        raise ConfigError("metrics", f"unknown metric {unknown!r}; choose from {', '.join(_EVAL_METRICS)}")
    if not np.isfinite(args.threshold):
        raise ConfigError("threshold", f"must be finite, got {args.threshold}")
    cohort, rejections = validate_cohort(_load(getattr(args, "in"))[0])
    if not len(cohort):
        raise TooFewRecords(f"no record left to evaluate ({rejections.total_removed} rejected by validation)")
    scores = cohort.scores()
    labels = cohort.labels()
    data = ScoredLabels(scores, labels)
    result: dict = {
        "n_pos": int((labels == 1).sum()),
        "n_neg": int((labels == 0).sum()),
        # a record may count under several reasons
        "n_rejected": rejections.total_removed,
        "rejected": dict(sorted(rejections.counts.items())),
    }
    if "roc" in wanted:
        ci = auc_ci(data, method=args.ci)
        curve = roc_curve(data)
        result["roc_auc"] = ci.estimate
        result["roc_auc_ci"] = [ci.lower, ci.upper]
        result["ci_method"] = ci.method
        result["roc_points"] = [
            dict(zip(_ROC_COLUMNS, map(float, point)))
            for point in zip(curve.thresholds, curve.sensitivities, curve.specificities)
        ]
    if "pr" in wanted:
        result["pr_auc"] = pr_auc(data)
    if "uar" in wanted:
        result["uar"] = uar((scores >= args.threshold).astype(int), labels)
    if args.stratified:
        strata = stratified_auc(cohort, _match_spec(args), min_per_class=strata_cfg.min_per_class, q=strata_cfg.fdr)
        result["strata"] = [
            {
                "key": list(stratum_order(s.key)),
                "n_pos": s.n_pos,
                "n_neg": s.n_neg,
                "auc": s.auc,
                "ci": [s.ci.lower, s.ci.upper],
                "mwu_p": s.mwu_p,
                "fdr_reject": s.fdr_reject,
            }
            for s in strata
        ]
    write_json(args.out, result)
    return f"metrics -> {args.out}", {}


def _read_roc(path: str) -> RocCurve:
    """Read operating points from a CSV with threshold, sensitivity and
    specificity columns, or from the JSON ``eval --metrics roc`` writes (its
    ``roc_points``, whose last threshold is ``Infinity``). The file holds one
    curve: rates must be numbers in [0, 1] and thresholds numbers, each above
    the one before (the ``RocCurve`` order); a bad cell raises ``BadValue``
    with its 1-based row."""
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            rows = json.loads(text).get("roc_points")
        except ValueError:
            raise ConfoundAuditError(f"ROC file {path!r} is not valid JSON") from None
        if not isinstance(rows, list):
            raise MissingColumn("roc_points")
    else:
        rows = list(csv.DictReader(text.splitlines()))
    if not rows:
        raise ConfoundAuditError("empty ROC file")
    values: dict[str, list[float]] = {column: [] for column in _ROC_COLUMNS}
    for i, row in enumerate(rows, start=1):
        for column in _ROC_COLUMNS:
            if not isinstance(row, dict) or column not in row:
                raise MissingColumn(column)
            raw = row[column]
            try:
                v = float(raw)
            except (TypeError, ValueError):
                raise BadValue(i, column, raw) from None
            if np.isnan(v) or (column != "threshold" and not 0.0 <= v <= 1.0):
                raise BadValue(i, column, raw)
            if column == "threshold" and values[column] and v <= values[column][-1]:
                raise BadValue(i, column, raw)
            values[column].append(v)
    return RocCurve(*(np.array(values[column]) for column in _ROC_COLUMNS))


def cmd_utility(args) -> tuple[str, dict]:
    try:
        params = UtilityParams(r_t=args.rt, epsilon=args.eps, delta=args.delta)
        grid = default_pi_grid(args.pi_max)
    except OutOfRange as exc:
        raise ConfigError("utility", str(exc)) from None
    points = max_eu_curve(_read_roc(args.roc), params, grid)
    write_csv(args.out, ["pi", "max_eu", "sensitivity", "specificity", "threshold"], (
        [p.pi, p.max_eu, p.sensitivity, p.specificity, p.threshold] for p in points
    ))
    return f"max-EU curve -> {args.out}", {}


def cmd_probe_weak(args) -> tuple[str, dict]:
    cfg = WeakProbeConfig(k_max=args.kmax, calibration_uar_threshold=args.threshold)
    if args.calib_features and not args.calib:
        raise ConfigError("calib-features", "features of a calibration cohort need --calib")
    if args.calib and args.seed is not None:
        raise ConfigError("seed", "--seed draws the synthetic calibration task, which --calib replaces; drop --seed")
    matched, counts = _load(args.matched, args.features, args.scores)
    if args.calib:
        calibration, calib_counts = _load(args.calib, args.calib_features)
        counts.update((f"calib_{k}", v) for k, v in calib_counts.items())
    else:
        dim = matched.feature_matrix().shape[1]
        calibration = make_calibration_cohort(dim, seed=args.seed or 0)
    result = weak_robust_curate(matched, calibration, cfg)
    write_json(args.out, result.to_dict())
    return f"weak probe (tau={result.tau}) -> {args.out}", {"tau": result.tau, **counts}


def cmd_probe_nn(args) -> tuple[str, dict]:
    matched, counts = _load(args.matched, args.features, args.scores)
    result = nn_substitute(matched, WeakProbeConfig(distance=args.distance))
    write_json(args.out, result.to_dict())
    return (f"nn probe: auc {result.pre_auc:.3f} -> {result.post_auc:.3f}, "
            f"{result.distinct_neighbours} distinct neighbours, flag={result.attribution_flag} -> {args.out}",
            {"post_auc": result.post_auc, **counts})


def cmd_baseline_train(args) -> tuple[str, dict]:
    if args.n_trees < 1:
        raise ConfigError("n-trees", "must be >= 1")
    if args.predictors is not None and not all(args.predictors.split(",")):
        raise ConfigError("predictors", f"every name must be non-empty, got {args.predictors!r}")
    train, counts = _load(getattr(args, "in"), args.features)
    train, rejections = validate_cohort(train)
    predictors = tuple(args.predictors.split(",")) if args.predictors else DEFAULT_SYMPTOM_PREDICTORS
    if args.hybrid:
        predictors = predictors + ("audio_score",)
    model = train_symptoms_model(train, predictors, n_trees=args.n_trees, seed=args.seed or 0)
    write_text(args.model, model_to_json(model) + "\n")
    oob = "n/a" if model.oob_accuracy is None else f"{model.oob_accuracy:.3f}"
    return (f"trained {model.n_trees} trees (oob accuracy {oob}, {rejections.total_removed} records rejected)"
            f" -> {args.model}", {
                "oob_accuracy": model.oob_accuracy,
                "n_rejected": rejections.total_removed,
                "rejected": dict(sorted(rejections.counts.items())),
                **counts,
            })


def cmd_baseline_predict(args) -> tuple[str, dict]:
    with open(args.model, encoding="utf-8") as fh:
        model = model_from_json(fh.read())
    cohort, counts = _load(getattr(args, "in"), args.features)
    write_csv(args.out, ["id", "score"], zip(cohort.ids(), predict_proba(model, cohort).tolist()))
    return f"scored {len(cohort)} records -> {args.out}", counts


def cmd_report(args) -> tuple[str, dict]:
    if args.manifest:
        if args.config or args.seed is not None:
            raise ConfigError("manifest", "a manifest replays its own config and seed; drop --config and --seed")
        bundle = run_from_manifest(args.manifest)
    else:
        data = read_config(args.config) if args.config else {}
        if args.seed is not None:
            data["seed"] = args.seed
        bundle = run_pipeline(RunConfig.from_dict(data))
    outdir = bundle.manifest["config"]["out_dir"] if args.out_dir is None else args.out_dir
    bundle.write(outdir)
    return f"wrote {len(bundle.figures)} figures and {len(bundle.tables)} tables -> {outdir}", {"out_dir": outdir}


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confound-audit",
        description="Confounder-aware evaluation toolkit for binary screening classifiers",
    )
    parser.add_argument("--version", action="version", version=f"confound-audit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        """``--manifest-out``, and ``--seed`` where the subcommand draws."""
        if seed:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--manifest-out", default=None)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--config", default=None, help="JSON file of generator settings")
    p.add_argument("--out", required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--truth", default=None, help="hidden ground truth for test harnesses")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("match", help="exact stratified matching")
    p.add_argument("--in", required=True)
    p.add_argument("--preset", choices=("test", "train"), default="test")
    p.add_argument("--covariates", default=None, help="comma-separated override of the preset")
    p.add_argument("--no-channel", action="store_true")
    p.add_argument("--disjoint-from", default=None, help="refuse inputs overlapping this cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    common(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("resample", help="general-population subsample")
    p.add_argument("--in", required=True)
    p.add_argument("--n-pos", type=int, required=True)
    p.add_argument("--n-neg", type=int, required=True)
    p.add_argument("--p-sym-pos", type=float, default=0.65)
    p.add_argument("--p-sym-neg", type=float, default=0.20)
    p.add_argument("--no-equalize-age", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    common(p)
    p.set_defaults(func=cmd_resample)

    p = sub.add_parser("eval", help="accuracy metrics for a scored cohort")
    p.add_argument("--in", required=True)
    p.add_argument("--metrics", default=",".join(_EVAL_METRICS), help="comma-separated subset of roc,pr,uar")
    p.add_argument("--ci", choices=("delong", "hanley_mcneil"), default="delong")
    p.add_argument("--threshold", type=float, default=0.5, help="score cut for UAR")
    p.add_argument("--stratified", action="store_true")
    p.add_argument("--preset", choices=("test", "train"), default="test")
    p.add_argument("--no-channel", action="store_true")
    p.add_argument("--min-per-class", type=int, default=10)
    p.add_argument("--fdr", type=float, default=0.05)
    p.add_argument("--out", required=True)
    common(p, seed=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("utility", help="max expected utility over a ROC curve")
    p.add_argument("--roc", required=True,
                   help="CSV with threshold,sensitivity,specificity, or the JSON of eval --metrics roc")
    p.add_argument("--rt", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--pi-max", type=float, default=0.1)
    p.add_argument("--out", required=True)
    common(p, seed=False)
    p.set_defaults(func=cmd_utility)

    probe = sub.add_parser("probe", help="unmeasured-confounder probes")
    probe_sub = probe.add_subparsers(dest="probe_kind", required=True)

    def probe_common(p):
        p.add_argument("--matched", required=True)
        p.add_argument("--features", default=None)
        p.add_argument("--scores", default=None, help="CSV id,score overriding the cohort's scores")
        p.add_argument("--out", required=True)

    p = probe_sub.add_parser("weak", help="weak-model curation probe")
    probe_common(p)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--threshold", type=float, default=0.8, help="calibration UAR that sets tau")
    p.add_argument("--calib", default=None, help="calibration cohort CSV (default: synthetic task)")
    p.add_argument("--calib-features", default=None)
    common(p)
    p.set_defaults(func=cmd_probe_weak)

    p = probe_sub.add_parser("nn", help="nearest-neighbour substitution probe")
    probe_common(p)
    p.add_argument("--distance", choices=("euclidean", "manhattan"), default="euclidean")
    common(p, seed=False)
    p.set_defaults(func=cmd_probe_nn)

    baseline = sub.add_parser("baseline", help="symptoms/demographics classifier")
    baseline_sub = baseline.add_subparsers(dest="baseline_kind", required=True)

    p = baseline_sub.add_parser("train")
    p.add_argument("--in", required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--n-trees", type=int, default=100)
    p.add_argument("--predictors", default=None, help="comma-separated predictor override")
    p.add_argument("--hybrid", action="store_true", help="append the score column as a predictor")
    common(p)
    p.set_defaults(func=cmd_baseline_train)

    p = baseline_sub.add_parser("predict")
    p.add_argument("--model", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--out", required=True)
    common(p, seed=False)
    p.set_defaults(func=cmd_baseline_predict)

    p = sub.add_parser("report", help="run a full pipeline and emit figures")
    p.add_argument("--config", default=None, help="JSON run configuration")
    p.add_argument("--manifest", default=None, help="rerun from an emitted manifest (not with --config or --seed)")
    p.add_argument("--out-dir", default=None, help="output directory (default: the config's out_dir)")
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        message, extras = args.func(args)
        if args.manifest_out:
            write_json(args.manifest_out, {
                "tool": "confound-audit",
                "version": __version__,
                "subcommand": args.command,
                "args": {k: v for k, v in vars(args).items() if k not in ("func", "command") and v is not None},
                **extras,
            }, sort_keys=True)
        print(message)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConfoundAuditError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
