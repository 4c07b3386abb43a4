"""Command-line front end.

Subcommands: synth, match, resample, eval, utility, probe weak, probe nn,
baseline train, baseline predict, report. Exit codes: 0 success, 1 runtime
error, 2 configuration error. The CONFOUND_AUDIT_THREADS environment variable
overrides --threads.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .cohort import (
    Cohort,
    load_cohort,
    load_features,
    validate_cohort,
    write_cohort,
    write_features,
)
from .errors import ConfigError, ConfoundAuditError
from .forest import (
    DEFAULT_SYMPTOM_PREDICTORS,
    build_encoding,
    model_from_json,
    model_to_json,
    predict_proba,
    train_symptoms_model,
)
from .matching import TEST_SET, TRAIN_SET, MatchSpec, match_exact
from .metrics import RocCurve, ScoredLabels, auc_ci, pr_auc, roc_curve, stratified_auc, uar
from .pipeline import RunConfig, run_from_manifest, run_pipeline
from .probes import WeakProbeConfig, make_calibration_cohort, nn_substitute, weak_robust_curate
from .resample import PopulationSpec, resample_general_population
from .synth import SynthConfig, enrol, generate_population
from .utility import UtilityParams, default_pi_grid, max_eu_curve


def _threads(args) -> int:
    env = os.environ.get("CONFOUND_AUDIT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError("CONFOUND_AUDIT_THREADS", f"not an integer: {env!r}") from None
    return max(1, args.threads)


def _checked(key: str, build):
    """Call ``build``; a ValueError from it is a rejected argument (exit 2)."""
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


def _write_manifest(args, extra: dict | None = None) -> None:
    if not getattr(args, "manifest_out", None):
        return
    payload = {
        "tool": "confound-audit",
        "version": __version__,
        "subcommand": args.command,
        "args": {k: v for k, v in vars(args).items() if k not in ("func", "command") and v is not None},
    }
    if extra:
        payload.update(extra)
    with open(args.manifest_out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _load_scored_cohort(path: str, features: str | None = None) -> Cohort:
    cohort = load_cohort(path)
    if features:
        cohort = load_features(cohort, features)
    return cohort


def _read_score_map(path: str) -> dict[str, float]:
    out: dict[str, float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out[row["id"]] = float(row["score"])
    return out


def _write_score_csv(path: str, ids, scores) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "score"])
        for rid, s in zip(ids, scores):
            writer.writerow([rid, repr(float(s))])


# -- subcommand handlers ------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg_data = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg_data = json.load(fh)
    for key in cfg_data:
        if key not in SynthConfig.__dataclass_fields__:
            raise ConfigError(key)
    if args.seed is not None:
        cfg_data["seed"] = args.seed
    cfg = SynthConfig(**cfg_data)
    population = generate_population(cfg)
    cohort = enrol(population, cfg)
    write_cohort(cohort, args.out)
    if args.features:
        write_features(cohort, args.features)
    if args.truth:
        with open(args.truth, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "label", "any_symptom", "latent_signal", "enrolled"])
            for sr in population:
                writer.writerow([
                    sr.record.id,
                    sr.record.label,
                    int(sr.record.symptoms.any_symptom),
                    repr(sr.latent_signal),
                    int(sr.enrolled),
                ])
    _write_manifest(args, {"n_enrolled": len(cohort)})
    print(f"enrolled {len(cohort)} of {cfg.n_population} -> {args.out}")
    return 0


def _match_spec(args) -> MatchSpec:
    if args.covariates:
        covs = tuple(args.covariates.split(","))
    else:
        covs = TEST_SET if args.preset == "test" else TRAIN_SET
    include_channel = not args.no_channel and args.preset != "train"
    return MatchSpec(covariates=covs, include_channel=include_channel, seed=args.seed or 0)


def cmd_match(args) -> int:
    cohort = load_cohort(getattr(args, "in"))
    spec = _match_spec(args)
    disjoint = load_cohort(args.disjoint_from) if args.disjoint_from else None
    matched, report = match_exact(cohort, spec, disjoint_from=disjoint)
    write_cohort(matched, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    _write_manifest(args, {"n_kept": report.n_kept})
    print(f"kept {report.n_kept}, dropped {report.n_dropped} -> {args.out}")
    return 0


def cmd_resample(args) -> int:
    spec = PopulationSpec(
        n_pos=args.n_pos,
        n_neg=args.n_neg,
        p_sym_pos=args.p_sym_pos,
        p_sym_neg=args.p_sym_neg,
        equalize_age=not args.no_equalize_age,
        seed=args.seed or 0,
    )
    _checked("resample", spec.validate)
    pool = load_cohort(getattr(args, "in"))
    out, report = resample_general_population(pool, spec)
    write_cohort(out, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "achieved": {"|".join(map(str, k)): v for k, v in sorted(report.achieved.items(), key=str)},
                    "shortfalls": [list(map(str, c)) for c in report.shortfalls],
                },
                fh,
                indent=2,
            )
            fh.write("\n")
    _write_manifest(args, {"n": report.n_total()})
    print(f"drew {report.n_total()} records -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    cohort = _load_scored_cohort(getattr(args, "in"), args.features)
    cohort, _ = validate_cohort(cohort)
    scores = cohort.scores()
    labels = cohort.labels()
    if np.isnan(scores).any():
        raise ConfoundAuditError("cohort has records without scores; cannot evaluate")
    data = ScoredLabels(scores, labels)
    wanted = args.metrics.split(",")
    result: dict = {"n_pos": int((labels == 1).sum()), "n_neg": int((labels == 0).sum())}
    if "roc" in wanted:
        ci = auc_ci(data, method=args.ci)
        curve = roc_curve(data)
        result["roc_auc"] = ci.estimate
        result["roc_auc_ci"] = [ci.lower, ci.upper]
        result["ci_method"] = ci.method
        result["roc_points"] = [
            {"threshold": t, "sensitivity": se, "specificity": sp}
            for t, se, sp in zip(
                [float(x) for x in curve.thresholds],
                [float(x) for x in curve.sensitivities],
                [float(x) for x in curve.specificities],
            )
        ]
    if "pr" in wanted:
        result["pr_auc"] = pr_auc(data)
    if "uar" in wanted:
        result["uar"] = uar((scores >= args.threshold).astype(int), labels)
    if args.stratified:
        spec = MatchSpec(
            covariates=TEST_SET if args.preset == "test" else TRAIN_SET,
            include_channel=not args.no_channel,
            seed=args.seed or 0,
        )
        strata = stratified_auc(cohort, spec, min_per_class=args.min_per_class, q=args.fdr)
        result["strata"] = [
            {
                "key": list(map(str, s.key)),
                "n_pos": s.n_pos,
                "n_neg": s.n_neg,
                "auc": s.auc,
                "ci": [s.ci.lower, s.ci.upper],
                "mwu_p": s.mwu_p,
                "fdr_reject": s.fdr_reject,
            }
            for s in strata
        ]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    _write_manifest(args)
    print(f"metrics -> {args.out}")
    return 0


def cmd_utility(args) -> int:
    with open(args.roc, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ConfoundAuditError("empty ROC file")
    thresholds = np.array([float(r["threshold"]) for r in rows])
    sens = np.array([float(r["sensitivity"]) for r in rows])
    spec = np.array([float(r["specificity"]) for r in rows])
    roc = RocCurve(thresholds=thresholds, sensitivities=sens, specificities=spec)
    params = UtilityParams(r_t=args.rt, epsilon=args.eps, delta=args.delta)
    points = max_eu_curve(roc, params, default_pi_grid(args.pi_max))
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["pi", "max_eu", "sensitivity", "specificity", "threshold"])
        for p in points:
            writer.writerow([repr(p.pi), repr(p.max_eu), repr(p.sensitivity), repr(p.specificity), repr(p.threshold)])
    _write_manifest(args)
    print(f"max-EU curve -> {args.out}")
    return 0


def _probe_inputs(args) -> tuple[Cohort, WeakProbeConfig]:
    cfg = _checked("probe", lambda: WeakProbeConfig(
        k_max=args.kmax,
        calibration_uar_threshold=args.threshold,
        seed=args.seed or 0,
        distance=args.distance,
    ))
    matched = _load_scored_cohort(args.matched, args.features)
    if args.scores:
        score_map = _read_score_map(args.scores)
        matched = Cohort(
            records=tuple(r.with_score(score_map[r.id]) for r in matched.records),
            manifest=matched.manifest,
        )
    return matched, cfg


def cmd_probe_weak(args) -> int:
    matched, cfg = _probe_inputs(args)
    if args.calib:
        calibration = _load_scored_cohort(args.calib, args.calib_features)
    else:
        dim = matched.feature_matrix().shape[1]
        calibration = make_calibration_cohort(dim, n_per_class=300, seed=cfg.seed)
    result = weak_robust_curate(matched, calibration, cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2)
        fh.write("\n")
    _write_manifest(args, {"tau": result.tau})
    print(f"weak probe (tau={result.tau}) -> {args.out}")
    return 0


def cmd_probe_nn(args) -> int:
    matched, cfg = _probe_inputs(args)
    result = nn_substitute(matched, cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2)
        fh.write("\n")
    _write_manifest(args, {"post_auc": result.post_auc})
    print(
        f"nn probe: auc {result.pre_auc:.3f} -> {result.post_auc:.3f}, "
        f"{result.distinct_neighbours} distinct neighbours, flag={result.attribution_flag} -> {args.out}"
    )
    return 0


def cmd_baseline_train(args) -> int:
    train = _load_scored_cohort(getattr(args, "in"), args.features)
    train, _ = validate_cohort(train)
    predictors = tuple(args.predictors.split(",")) if args.predictors else DEFAULT_SYMPTOM_PREDICTORS
    if args.hybrid:
        predictors = predictors + ("audio_score",)
    encoding = build_encoding(train, predictors)
    model = train_symptoms_model(
        train, encoding=encoding, n_trees=args.n_trees, seed=args.seed or 0, threads=_threads(args)
    )
    with open(args.model, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))
        fh.write("\n")
    _write_manifest(args, {"oob_accuracy": model.oob_accuracy})
    oob = "n/a" if model.oob_accuracy is None else f"{model.oob_accuracy:.3f}"
    print(f"trained {model.n_trees} trees (oob accuracy {oob}) -> {args.model}")
    return 0


def cmd_baseline_predict(args) -> int:
    with open(args.model, encoding="utf-8") as fh:
        model = model_from_json(fh.read())
    cohort = _load_scored_cohort(getattr(args, "in"), args.features)
    scores = predict_proba(model, cohort)
    _write_score_csv(args.out, cohort.ids(), scores)
    _write_manifest(args)
    print(f"scored {len(cohort)} records -> {args.out}")
    return 0


def cmd_report(args) -> int:
    if args.manifest:
        bundle = run_from_manifest(args.manifest)
    else:
        data = {}
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        if args.seed is not None:
            data["seed"] = args.seed
        data.setdefault("threads", _threads(args))
        bundle = run_pipeline(RunConfig.from_dict(data))
    outdir = args.out_dir
    bundle.write(outdir)
    _write_manifest(args, {"out_dir": outdir})
    print(f"wrote {len(bundle.figures)} figures and {len(bundle.tables)} tables -> {outdir}")
    return 0


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confound-audit",
        description="Confounder-aware evaluation toolkit for binary screening classifiers",
    )
    parser.add_argument("--version", action="version", version=f"confound-audit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)
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
    p.add_argument("--features", default=None)
    p.add_argument("--metrics", default="roc,pr,uar")
    p.add_argument("--ci", choices=("delong", "hanley_mcneil"), default="delong")
    p.add_argument("--threshold", type=float, default=0.5, help="score cut for UAR")
    p.add_argument("--stratified", action="store_true")
    p.add_argument("--preset", choices=("test", "train"), default="test")
    p.add_argument("--no-channel", action="store_true")
    p.add_argument("--min-per-class", type=int, default=10)
    p.add_argument("--fdr", type=float, default=0.05)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("utility", help="max expected utility over a ROC curve")
    p.add_argument("--roc", required=True, help="CSV with threshold,sensitivity,specificity")
    p.add_argument("--rt", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--pi-max", type=float, default=0.1)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_utility)

    probe = sub.add_parser("probe", help="unmeasured-confounder probes")
    probe_sub = probe.add_subparsers(dest="probe_kind", required=True)

    def probe_common(p):
        p.add_argument("--matched", required=True)
        p.add_argument("--features", default=None)
        p.add_argument("--scores", default=None, help="CSV id,score overriding the cohort's scores")
        p.add_argument("--kmax", type=int, default=10)
        p.add_argument("--threshold", type=float, default=0.8)
        p.add_argument("--distance", choices=("euclidean", "manhattan"), default="euclidean")
        p.add_argument("--out", required=True)
        common(p)

    p = probe_sub.add_parser("weak", help="weak-model curation probe")
    probe_common(p)
    p.add_argument("--calib", default=None, help="calibration cohort CSV (default: synthetic task)")
    p.add_argument("--calib-features", default=None)
    p.set_defaults(func=cmd_probe_weak)

    p = probe_sub.add_parser("nn", help="nearest-neighbour substitution probe")
    probe_common(p)
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
    common(p)
    p.set_defaults(func=cmd_baseline_predict)

    p = sub.add_parser("report", help="run a full pipeline and emit figures")
    p.add_argument("--config", default=None, help="JSON run configuration")
    p.add_argument("--manifest", default=None, help="rerun from an emitted manifest")
    p.add_argument("--out-dir", default="report")
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConfoundAuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
