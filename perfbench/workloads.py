"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the seed in ``setup``, runs one pass of
public calls into the program in ``run_pass`` (a single thread, one pass
after another), and checks that pass's outputs in ``check``. ``check``
returns one entry per operation, in the same order every pass, so every run
attempts whole rounds of the same operations.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

import checks
from tracer import patched

from confound_audit import pipeline, synth
from confound_audit.cohort import (
    Cohort,
    ParticipantRecord,
    SplitSpec,
    SymptomProfile,
    load_cohort,
    load_features,
    make_manifest,
    split_cohort,
    validate_cohort,
    write_cohort,
    write_features,
)
from confound_audit.forest import TreeEnsemble
from confound_audit.matching import TEST_SET, TRAIN_SET, MatchSpec, match_exact
from confound_audit.metrics import (
    ScoredLabels,
    auc_ci,
    calibration_bins,
    delong_test,
    mwu_test,
    pr_auc,
    roc_curve,
    stratified_auc,
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
from confound_audit.synth import SynthConfig, enrol, generate_population
from confound_audit.utility import UtilityParams, default_pi_grid, max_eu_curve

R_T, EPS, DELTA = 1.5, 0.2, 0.0


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _read_dir(path: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".csv"):
            with open(os.path.join(path, name), "rb") as fh:
                out[name] = fh.read()
    return out


class BiasDemo:
    """``run_pipeline`` on the bias-demo config at 2x10^4 people, 50 trees,
    plus ``ReportBundle.write``: the audit behind ``confound-audit report``."""

    name = "bias-demo"
    OPS = ("manifest_rerun", "balance", "roc", "max_eu", "two_by_two")
    SYNTH = dict(
        n_population=20_000,
        prevalence=0.25,
        enrolment="symptoms_based",
        signal_strength=0.0,
        confounder_strength=5.0,
        feature_dim=12,
    )

    def __init__(self, seed: int, tmp: str):
        self.seed, self.tmp = seed, tmp

    def setup(self) -> None:
        self.cfg = RunConfig(seed=self.seed, n_trees=50, out_dir=self.tmp, synth=dict(self.SYNTH))
        # the 2x2 any-symptom table of the cohort the pipeline enrols, from raw records
        enrolled, _ = synth.generate_cohort(SynthConfig(**self.SYNTH, seed=self.seed))
        t = [[0, 0], [0, 0]]
        for r in enrolled.records:
            t[int(checks.any_symptom(r))][r.label] += 1
        self.counts = t
        self.reference = None

    def _layer_wrappers(self, rec):
        def nodes(model, *a, **k):
            return {"forest.nodes": sum(len(t["feature"]) for t in model.trees)}

        def pairs(ci, data, method="delong", *a, **k):
            return {"metrics.pairs": data.pos.size * data.neg.size} if method == "delong" else {}

        def balance(result, cohort, *a, **k):
            return {"matching.strata": len(result[1].strata), "matching.kept": len(result[0]),
                    "matching.in": len(cohort)}

        p = pipeline
        return [
            (synth, "generate_population", rec.wrap(
                "synth.generate_population", synth.generate_population,
                counter=lambda pop, *a, **k: {"synth.people": len(pop)})),
            (synth, "enrol", rec.wrap(
                lambda pop, cfg: f"synth.enrol.{cfg.enrolment}", synth.enrol,
                counter=lambda c, *a, **k: {"synth.enrolled": len(c)})),
            (p, "split_cohort", rec.wrap("cohort.split_cohort", p.split_cohort)),
            (p, "match_exact", rec.wrap("matching.match_exact", p.match_exact, counter=balance)),
            (p, "encode_cohort", rec.wrap("forest.encode_cohort", p.encode_cohort)),
            (p, "fit_forest", rec.wrap("forest.fit_forest", p.fit_forest, counter=nodes)),
            (TreeEnsemble, "predict_matrix", rec.wrap("forest.predict_matrix", TreeEnsemble.predict_matrix)),
            (p, "auc_ci", rec.wrap(lambda d, method="delong", *a, **k: f"metrics.auc_ci.{method}", p.auc_ci,
                                   counter=pairs)),
            (p, "roc_curve", rec.wrap("metrics.roc_curve", p.roc_curve,
                                      counter=lambda roc, *a, **k: {"metrics.roc_points": roc.thresholds.size})),
            # stratified_auc calls metrics.auc_ci itself, past the patched name
            (p, "stratified_auc", rec.wrap(
                "metrics.stratified_auc", p.stratified_auc,
                counter=lambda res, *a, **k: {"metrics.pairs": sum(s.n_pos * s.n_neg for s in res)})),
            (p, "calibration_bins", rec.wrap("metrics.calibration_bins", p.calibration_bins)),
            (p, "max_eu_curve", rec.wrap(
                "utility.max_eu_curve", p.max_eu_curve,
                counter=lambda pts, roc, *a, **k: {"utility.eu_evaluations": roc.thresholds.size * len(pts)})),
            (p, "weak_robust_curate", rec.wrap("probes.weak_robust_curate", p.weak_robust_curate)),
            (p, "nn_substitute", rec.wrap(
                "probes.nn_substitute", p.nn_substitute,
                counter=lambda res, c, *a, **k: {"probes.distance_pairs": _class_product(c)})),
            (p, "emit_figure", rec.wrap("report.emit_figure", p.emit_figure)),
        ]

    def run_pass(self, rec, index: int) -> dict:
        out_dir = os.path.join(self.tmp, f"pass{index % 2}")
        with patched(self._layer_wrappers(rec) if rec.traced else []):
            bundle = rec.call("pipeline.run_pipeline", run_pipeline, self.cfg)
        rec.call("report.write", bundle.write, out_dir)
        return {"dir": out_dir}

    def check(self, out: dict, index: int) -> list[list[str]]:
        got = _read_dir(out["dir"])
        if self.reference is None:
            ref_dir = os.path.join(self.tmp, "rerun")
            run_from_manifest(os.path.join(out["dir"], "manifest.json")).write(ref_dir)
            self.reference = _read_dir(ref_dir)
        return [
            checks.check_identical(self.reference, got),
            checks.check_balance_rows(got["balance.csv"].decode()),
            checks.check_roc_rows(got["roc.csv"].decode()),
            checks.check_max_eu_rows(got["eu.csv"].decode(), R_T, EPS, DELTA),
            checks.check_two_by_two(got["two_by_two.csv"].decode(), self.counts),
        ]


def _class_product(cohort) -> int:
    y = cohort.labels()
    return int((y == 1).sum()) * int((y == 0).sum())


class Population:
    """A 2x10^5-person synthetic study: generation and three enrolments,
    then selection on the symptoms-based cohort (validate, split, two
    matchings, resample) and a CSV round trip of the validated cohort."""

    name = "population"
    OPS = (
        "generate_population",
        "enrol.symptoms_based",
        "enrol.random",
        "enrol.matched",
        "validate_cohort",
        "split_cohort",
        "match_exact.test",
        "match_exact.train",
        "resample",
        "csv_roundtrip",
    )
    N = 200_000

    def __init__(self, seed: int, tmp: str):
        self.seed, self.tmp = seed, tmp

    def setup(self) -> None:
        s = self.seed
        self.cfg = SynthConfig(n_population=self.N, prevalence=0.25, confounder_strength=2.0, feature_dim=8, seed=s)
        self.cfg_random = replace(self.cfg, enrolment="random")
        self.cfg_matched = replace(self.cfg, enrolment="matched")
        self.split = SplitSpec(train_fraction=0.5, seed=s)
        self.test_spec = MatchSpec(covariates=TEST_SET, seed=s)
        self.train_spec = MatchSpec(covariates=TRAIN_SET, seed=s)
        self.pop_spec = PopulationSpec(n_pos=2000, n_neg=2000, seed=s)
        self.paths = (os.path.join(self.tmp, "participants.csv"), os.path.join(self.tmp, "features.csv"))
        self.run_failures = None  # the reversed-order matching, checked after the first pass

    def run_pass(self, rec, index: int) -> dict:
        o: dict = {}
        with rec.stage("synth_s"):
            o["population"] = pop = rec.call("synth.generate_population", generate_population, self.cfg)
            o["sym"] = rec.call("synth.enrol.symptoms_based", enrol, pop, self.cfg)
            o["random"] = rec.call("synth.enrol.random", enrol, pop, self.cfg_random)
            o["matched"] = rec.call("synth.enrol.matched", enrol, pop, self.cfg_matched)
        with rec.stage("select_s"):
            o["valid"], o["rejections"] = rec.call("cohort.validate_cohort", validate_cohort, o["sym"])
            o["train"], o["test"] = rec.call("cohort.split_cohort", split_cohort, o["valid"], self.split)
            o["m_test"], bt = rec.call("matching.match_exact", match_exact, o["test"], self.test_spec)
            o["m_train"], br = rec.call("matching.match_exact", match_exact, o["train"], self.train_spec)
            o["drawn"], _ = rec.call(
                "resample.resample_general_population", resample_general_population, o["valid"], self.pop_spec
            )
        p_csv, f_csv = self.paths
        with rec.stage("csv_write_s"):
            rec.call("cohort.write_cohort", write_cohort, o["valid"], p_csv)
            rec.call("cohort.write_features", write_features, o["valid"], f_csv)
        with rec.stage("csv_read_s"):
            loaded = rec.call("cohort.load_cohort", load_cohort, p_csv)
            o["loaded"] = rec.call("cohort.load_features", load_features, loaded, f_csv)
        if rec.traced:
            rec.count("synth.people", len(pop))
            rec.count("synth.enrolled", len(o["sym"]) + len(o["random"]) + len(o["matched"]))
            rec.count("matching.strata", len(bt.strata) + len(br.strata))
            rec.count("matching.kept", len(o["m_test"]) + len(o["m_train"]))
            rec.count("matching.in", len(o["test"]) + len(o["train"]))
            rec.count("resample.drawn", len(o["drawn"]))
            rec.count("cohort.csv_bytes", os.path.getsize(p_csv) + os.path.getsize(f_csv))
        return o

    def check(self, o: dict, index: int) -> list[list[str]]:
        cfg = self.cfg
        people = [sr.record for sr in o["population"]]
        weights = {
            (True, 1): cfg.w_sym_pos, (False, 1): cfg.w_asym_pos,
            (True, 0): cfg.w_sym_neg, (False, 0): cfg.w_asym_neg,
        }
        test = o["test"].records
        result = [
            checks.check_population_draw(people, cfg.n_population, cfg.prevalence,
                                         cfg.p_sym_given_pos, cfg.p_sym_given_neg),
            checks.check_enrol_shares(people, o["sym"].ids(), weights),
            checks.check_enrol_shares(people, o["random"].ids(), dict.fromkeys(weights, cfg.random_p)),
            checks.check_balanced(people, o["matched"].records, TEST_SET, include_channel=False),
            checks.check_validated(o["sym"].records, o["valid"].records, o["rejections"].total_removed),
            checks.check_split(o["valid"].records, o["train"].records, test, self.split.train_fraction),
            checks.check_balanced(test, o["m_test"].records, TEST_SET, include_channel=True),
            checks.check_balanced(o["train"].records, o["m_train"].records, TRAIN_SET, include_channel=True),
            checks.check_resample(o["valid"].records, o["drawn"].records, self.pop_spec.n_pos,
                                  self.pop_spec.n_neg, self.pop_spec.p_sym_pos, self.pop_spec.p_sym_neg),
            checks.check_roundtrip(o["valid"].records, o["loaded"].records),
        ]
        if self.run_failures is None:
            reversed_in = Cohort(records=test[::-1], manifest=o["test"].manifest)
            again, _ = match_exact(reversed_in, self.test_spec)
            self.run_failures = checks.check_same_ids(o["m_test"], again, "matching a reversed input")
        return result


def _records(x, y, prefix: str, scores=None) -> Cohort:
    records = tuple(
        ParticipantRecord(
            id=f"{prefix}-{i:05d}", label=int(y[i]), symptoms=SymptomProfile(),
            age_years=30 + i % 40, gender="male" if i % 2 == 0 else "female",
            channel="synthetic", features=x[i], score=None if scores is None else float(scores[i]),
        )
        for i in range(y.size)
    )
    return Cohort(records=records, manifest=make_manifest(prefix))


def _planted(rng, n: int, dim: int, direction):
    """An unmeasured binary confounder, far more common among positives,
    shifts features along one direction; there is no class signal."""
    y = np.repeat([1, 0], n)
    z = rng.random(2 * n) < np.where(y == 1, 0.8, 0.2)
    return rng.normal(size=(2 * n, dim)) + 3.0 * z[:, None] * direction, y


def _true_signal(rng, n: int, dim: int):
    """Class signal on axis 0, along which negatives do not vary."""
    y = np.repeat([1, 0], n)
    x = np.zeros((2 * n, dim))
    x[:, 1:] = rng.normal(size=(2 * n, dim - 1))
    x[:n, 0] = 2.0 + rng.normal(size=n)
    return x, y


def _linear_scored(rng, make, prefix: str) -> Cohort:
    """Score a fresh draw with a linear model trained on another draw."""
    x_train, y_train = make(rng)
    model = train_weak_linear(x_train, y_train)
    x, y = make(rng)
    return _records(x, y, prefix, _sigmoid(model.decision(x)))


class Inference:
    """Scored sets of 4x10^4 records with quantised (tied) scores and a
    paired second classifier; max-EU over 4x10^4 operating points; both
    probes on a planted-confounding and a true-signal cohort."""

    name = "inference"
    OPS = (
        "auc_ci.delong",
        "auc_ci.hanley_mcneil",
        "delong_test",
        "roc_curve",
        "pr_auc",
        "mwu_test.normal",
        "mwu_test.exact",
        "calibration_bins",
        "stratified_auc",
        "max_eu_curve.distinct",
        "max_eu_curve.tied",
        "weak_robust_curate.confounded",
        "nn_substitute.confounded",
        "weak_robust_curate.true_signal",
        "nn_substitute.true_signal",
    )
    N = 40_000
    N_PROBE = 1500  # records per class in each probe cohort
    STRATA = ("any_symptom",)

    def __init__(self, seed: int, tmp: str):
        self.seed, self.tmp = seed, tmp

    def setup(self) -> None:
        s = self.seed
        rng = np.random.default_rng(s & 0xFFFFFFFFFFFFFFFF)  # any integer seed, as substream takes it
        y = (rng.random(self.N) < 0.5).astype(int)
        latent = rng.normal(size=self.N) + 0.8 * y
        self.labels = y
        self.a = np.round(_sigmoid(latent), 3)  # ~10^3 distinct scores
        self.b = np.round(_sigmoid(latent + 0.7 * rng.normal(size=self.N)), 3)
        self.A, self.B = ScoredLabels(self.a, y), ScoredLabels(self.b, y)
        self.pos, self.neg = self.a[y == 1], self.a[y == 0]
        null = rng.permutation(y)
        self.null_pos, self.null_neg = self.a[null == 1], self.a[null == 0]
        self.exact_pos, self.exact_neg = rng.random(10) + 0.2, rng.random(10)
        self.roc_distinct = roc_curve(ScoredLabels(_sigmoid(latent), y))
        self.grid = default_pi_grid(0.1)
        self.params = UtilityParams(r_t=R_T, epsilon=EPS, delta=DELTA)

        enrolled, _ = synth.generate_cohort(SynthConfig(
            n_population=20_000, prevalence=0.3, enrolment="symptoms_based",
            confounder_strength=7.0, feature_dim=16, seed=s,
        ))
        train, test = split_cohort(enrolled, SplitSpec(train_fraction=0.5, seed=s))
        model = train_weak_linear(train.feature_matrix(), train.labels())
        self.strata_spec = MatchSpec(covariates=self.STRATA, include_channel=False, seed=s)
        matched, _ = match_exact(test, self.strata_spec)
        scores = _sigmoid(model.decision(matched.feature_matrix()))
        self.matched = Cohort(
            records=tuple(r.with_score(float(v)) for r, v in zip(matched.records, scores)),
            manifest=matched.manifest,
        )

        dim = 16
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        self.confounded = _linear_scored(rng, lambda g: _planted(g, self.N_PROBE, dim, direction), "planted")
        self.true_signal = _linear_scored(rng, lambda g: _true_signal(g, self.N_PROBE, dim), "signal")
        self.calibration = make_calibration_cohort(dim, n_per_class=300, seed=s)
        self.probe_cfg = WeakProbeConfig(k_max=10, seed=s)

    def run_pass(self, rec, index: int) -> dict:
        o: dict = {}
        c = rec.call
        with rec.stage("eval_s"):
            o["delong"] = c("metrics.auc_ci.delong", auc_ci, self.A, "delong")
            o["hanley"] = c("metrics.auc_ci.hanley_mcneil", auc_ci, self.A, "hanley_mcneil")
            o["paired"] = c("metrics.delong_test", delong_test, self.A, self.B)
            o["roc"] = c("metrics.roc_curve", roc_curve, self.A)
            o["pr"] = c("metrics.pr_auc", pr_auc, self.A)
            o["mwu"] = c("metrics.mwu_test.normal", mwu_test, self.pos, self.neg, "normal")
            o["mwu_null"] = c("metrics.mwu_test.normal", mwu_test, self.null_pos, self.null_neg, "normal")
            o["exact"] = c("metrics.mwu_test.exact", mwu_test, self.exact_pos, self.exact_neg, "exact")
            o["bins"] = c("metrics.calibration_bins", calibration_bins, self.a, self.labels)
            o["strata"] = c("metrics.stratified_auc", stratified_auc, self.matched, self.strata_spec, 10, 0.05)
        with rec.stage("utility_s"):
            o["eu_distinct"] = c("utility.max_eu_curve", max_eu_curve, self.roc_distinct, self.params, self.grid)
            o["eu_tied"] = c("utility.max_eu_curve", max_eu_curve, o["roc"], self.params, self.grid)
        with rec.stage("probe_s"):
            for key, cohort in (("confounded", self.confounded), ("true_signal", self.true_signal)):
                o["weak_" + key] = c("probes.weak_robust_curate", weak_robust_curate,
                                     cohort, self.calibration, self.probe_cfg)
                o["nn_" + key] = c("probes.nn_substitute", nn_substitute, cohort, self.probe_cfg)
        if rec.traced:
            mn = self.pos.size * self.neg.size
            rec.count("metrics.pairs", 3 * mn + sum(s.n_pos * s.n_neg for s in o["strata"]))
            rec.count("metrics.roc_points", o["roc"].thresholds.size)
            rec.count("utility.eu_evaluations",
                      self.grid.size * (self.roc_distinct.thresholds.size + o["roc"].thresholds.size))
            rec.count("probes.distance_pairs", _class_product(self.confounded) + _class_product(self.true_signal))
        return o

    def check(self, o: dict, index: int) -> list[list[str]]:
        a, b, y = self.a, self.b, self.labels
        eu = (R_T, EPS, DELTA)
        return [
            checks.check_auc_ci(a, y, o["delong"]),
            checks.check_auc_ci(a, y, o["hanley"]),
            checks.check_delong_test(a, b, y, o["paired"]),
            checks.check_roc(a, y, o["roc"]),
            checks.check_pr_auc(a, y, o["pr"]),
            checks.check_mwu(self.pos, self.neg, o["mwu"], "normal")
            + checks.check_mwu(self.null_pos, self.null_neg, o["mwu_null"], "normal"),
            checks.check_mwu(self.exact_pos, self.exact_neg, o["exact"], "exact"),
            checks.check_calibration(a, y, *o["bins"]),
            checks.check_stratified(self.matched.records, self.STRATA, False, 10, 0.05, o["strata"]),
            checks.check_max_eu(self.roc_distinct, self.grid, o["eu_distinct"], *eu),
            checks.check_max_eu(o["roc"], self.grid, o["eu_tied"], *eu),
            checks.check_weak_probe(o["weak_confounded"], confounded=True),
            checks.check_nn_probe(o["nn_confounded"], confounded=True),
            checks.check_weak_probe(o["weak_true_signal"], confounded=False),
            checks.check_nn_probe(o["nn_true_signal"], confounded=False),
        ]


WORKLOADS = {w.name: w for w in (BiasDemo, Population, Inference)}
