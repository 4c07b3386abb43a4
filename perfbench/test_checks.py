"""Every independent check passes on a correct output and fails on a
deliberately corrupted one.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
from hostspeed import HostClock  # noqa: E402
from tracer import Recorder, patched  # noqa: E402

from confound_audit import (  # noqa: E402
    TEST_SET,
    MatchSpec,
    PopulationSpec,
    ScoredLabels,
    SplitSpec,
    SynthConfig,
    UtilityParams,
    auc_ci,
    calibration_bins,
    delong_test,
    enrol,
    generate_population,
    load_cohort,
    load_features,
    match_exact,
    max_eu_curve,
    mwu_test,
    pr_auc,
    resample_general_population,
    roc_curve,
    split_cohort,
    stratified_auc,
    validate_cohort,
    write_cohort,
    write_features,
)
from confound_audit.cohort import Cohort  # noqa: E402
from confound_audit.metrics import RocCurve  # noqa: E402
from confound_audit.pipeline import RunConfig, run_pipeline  # noqa: E402
from confound_audit.probes import ProbeResult  # noqa: E402

EU = (1.5, 0.2, 0.0)


def _drop(records, i=0):
    return records[:i] + records[i + 1:]


# -- population ---------------------------------------------------------------


@pytest.fixture(scope="module")
def study():
    cfg = SynthConfig(n_population=6000, prevalence=0.25, feature_dim=4, confounder_strength=2.0, seed=3)
    pop = generate_population(cfg)
    people = [sr.record for sr in pop]
    sym = enrol(pop, cfg)
    return cfg, people, sym


def test_population_draw(study):
    cfg, people, _ = study
    args = (cfg.n_population, cfg.prevalence, cfg.p_sym_given_pos, cfg.p_sym_given_neg)
    assert checks.check_population_draw(people, *args) == []
    assert checks.check_population_draw(_drop(people), *args)
    assert checks.check_population_draw(people + people[:1], len(people) + 1, *args[1:])
    assert checks.check_population_draw(people, cfg.n_population, 0.5, *args[2:])


def test_enrol_shares(study):
    cfg, people, sym = study
    weights = {(True, 1): cfg.w_sym_pos, (False, 1): cfg.w_asym_pos,
               (True, 0): cfg.w_sym_neg, (False, 0): cfg.w_asym_neg}
    ids = sym.ids()
    assert checks.check_enrol_shares(people, ids, weights) == []
    sym_pos = {r.id for r in sym.records if r.label == 1 and checks.any_symptom(r)}
    thinned = [i for n, i in enumerate(ids) if i not in sym_pos or n % 2]
    assert checks.check_enrol_shares(people, thinned, weights)
    assert checks.check_enrol_shares(people, ids + ids[:1], weights)


def test_balanced_stratum_off_by_one(study):
    _, _, sym = study
    matched, _ = match_exact(sym, MatchSpec(covariates=TEST_SET, seed=1))
    records = list(matched.records)
    assert checks.check_balanced(sym.records, records, TEST_SET, True) == []
    assert checks.check_balanced(sym.records, _drop(records, 5), TEST_SET, True)
    extra = next(r for r in sym.records if r.id not in set(matched.ids()))
    assert checks.check_balanced(sym.records, records + [extra], TEST_SET, True)
    assert checks.check_same_ids(matched.records, _drop(records), "x")
    assert checks.check_same_ids(matched.records, records[::-1], "x") == []


def test_validated_and_split(study):
    _, _, sym = study
    valid, report = validate_cohort(sym)
    assert checks.check_validated(sym.records, valid.records, report.total_removed) == []
    assert checks.check_validated(sym.records, _drop(list(valid.records)), report.total_removed)
    assert checks.check_validated(sym.records, valid.records, report.total_removed + 1)
    train, test = split_cohort(valid, SplitSpec(train_fraction=0.5, seed=2))
    tr, te = list(train.records), list(test.records)
    assert checks.check_split(valid.records, tr, te, 0.5) == []
    assert checks.check_split(valid.records, tr, te + tr[:1], 0.5)
    assert checks.check_split(valid.records, _drop(tr), te, 0.5)


def test_resample_short_one_male(study):
    _, people, _ = study
    pool = Cohort(records=tuple(people), manifest={})
    spec = PopulationSpec(n_pos=100, n_neg=100, seed=4)
    drawn, _ = resample_general_population(pool, spec)
    records = list(drawn.records)
    args = (spec.n_pos, spec.n_neg, spec.p_sym_pos, spec.p_sym_neg)
    assert checks.check_resample(people, records, *args) == []
    i, male = next((i, r) for i, r in enumerate(records) if r.gender == "male")
    chosen = set(drawn.ids())
    female = next(
        r for r in people
        if r.id not in chosen and r.gender == "female" and r.label == male.label
        and checks.any_symptom(r) == checks.any_symptom(male)
    )
    swapped = records[:i] + [female] + records[i + 1:]
    failures = checks.check_resample(people, swapped, *args)
    assert len(failures) == 1 and "males" in failures[0]
    assert checks.check_resample(people, records + records[:1], *args)


@pytest.mark.parametrize("name", ["participants.csv", "features.csv"])
def test_roundtrip_one_byte_changed(study, tmp_path, name):
    _, _, sym = study
    small = Cohort(records=sym.records[:200], manifest=sym.manifest)
    paths = {n: str(tmp_path / n) for n in ("participants.csv", "features.csv")}
    write_cohort(small, paths["participants.csv"])
    write_features(small, paths["features.csv"])

    def load():
        return load_features(load_cohort(paths["participants.csv"]), paths["features.csv"]).records

    assert checks.check_roundtrip(small.records, load()) == []
    data = bytearray(open(paths[name], "rb").read())
    line = data.index(b"\n", data.index(b"\n") + 1) + 1  # start of the second data row
    if name == "participants.csv":  # flip the label
        at = data.index(b",", line) + 1
        data[at] = ord("1") if data[at] == ord("0") else ord("0")
    else:  # change the last digit of the row's last feature
        at = data.index(b"\n", line) - 1
        data[at] = ord("0") + (data[at] - ord("0") + 1) % 10
    open(paths[name], "wb").write(bytes(data))
    assert checks.check_roundtrip(small.records, load())


# -- bias-demo report tables ----------------------------------------------------


@pytest.fixture(scope="module")
def tables():
    cfg = RunConfig(seed=5, n_trees=5, synth={"n_population": 2500, "feature_dim": 8},
                    metrics={"min_per_class": 5})
    return run_pipeline(cfg).tables


def _replace_field(text, row, column, value):
    lines = text.splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[lines[0].rstrip("\n").split(",").index(column)] = value
    lines[row] = ",".join(cells) + "\n"
    return "".join(lines)


def test_identical(tables):
    ref = {k: v.encode() for k, v in tables.items()}
    assert checks.check_identical(ref, dict(ref)) == []
    changed = dict(ref, roc=ref["roc"][:-2] + b"9\n")
    assert checks.check_identical(ref, changed)
    assert checks.check_identical(ref, {k: v for k, v in ref.items() if k != "roc"})


def test_balance_rows(tables):
    text = tables["balance"]
    assert checks.check_balance_rows(text) == []
    kept = text.splitlines()[1].split(",")[-1]
    assert checks.check_balance_rows(_replace_field(text, 1, "n_kept_per_class", str(int(kept) + 1)))


def test_roc_rows(tables):
    text = tables["roc"]
    assert checks.check_roc_rows(text) == []
    lines = text.splitlines(keepends=True)
    assert checks.check_roc_rows("".join(lines[:2] + lines[3:4] + lines[2:3] + lines[4:]))
    assert checks.check_roc_rows("".join(lines[:-1]))


def test_max_eu_rows(tables):
    text = tables["eu"]
    assert checks.check_max_eu_rows(text, *EU) == []
    eu = float(text.splitlines()[5].split(",")[2])
    assert checks.check_max_eu_rows(_replace_field(text, 5, "max_eu", repr(eu + 1e-9)), *EU)
    assert checks.check_max_eu_rows(_replace_field(text, 5, "max_eu", repr(-1.0)), *EU)


def test_two_by_two():
    counts = [[40, 7], [13, 25]]
    from confound_audit.metrics import table_2x2_stats
    from confound_audit.report import two_by_two

    _, text = two_by_two(counts, table_2x2_stats(counts))
    assert checks.check_two_by_two(text, counts) == []
    assert checks.check_two_by_two(text, [[40, 7], [13, 26]])
    phi = float(text.splitlines()[5].split(",")[1])
    assert checks.check_two_by_two(_replace_field(text, 5, "value", repr(phi + 1e-9)), counts)


# -- inference -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def scored():
    rng = np.random.default_rng(7)
    y = (rng.random(3000) < 0.5).astype(int)
    latent = rng.normal(size=y.size) + 0.8 * y
    a = np.round(1 / (1 + np.exp(-latent)), 2)
    b = np.round(1 / (1 + np.exp(-latent - 0.7 * rng.normal(size=y.size))), 2)
    return a, b, y


def _nudge(ci, field, delta):
    return dataclasses.replace(ci, **{field: getattr(ci, field) + delta})


@pytest.mark.parametrize("method", ["delong", "hanley_mcneil"])
def test_auc_ci_moved_by_1e9(scored, method):
    a, _, y = scored
    ci = auc_ci(ScoredLabels(a, y), method)
    assert checks.check_auc_ci(a, y, ci) == []
    assert checks.check_auc_ci(a, y, _nudge(ci, "estimate", 1e-9))
    wider = dataclasses.replace(ci, lower=ci.lower - 1e-9, upper=ci.upper + 1e-9)  # SE moved by ~5e-10
    assert checks.check_auc_ci(a, y, wider)


def test_delong_test_moved(scored):
    a, b, y = scored
    res = delong_test(ScoredLabels(a, y), ScoredLabels(b, y))
    assert checks.check_delong_test(a, b, y, res) == []
    assert checks.check_delong_test(a, b, y, dict(res, z=res["z"] + 1e-9))
    assert checks.check_delong_test(a, b, y, dict(res, auc_b=res["auc_b"] + 1e-9))


def test_roc_and_pr(scored):
    a, _, y = scored
    data = ScoredLabels(a, y)
    roc = roc_curve(data)
    assert checks.check_roc(a, y, roc) == []
    sens = roc.sensitivities.copy()
    sens[len(sens) // 2] -= 1e-9
    assert checks.check_roc(a, y, dataclasses.replace(roc, sensitivities=sens))
    sens[len(sens) // 2] += 0.5
    assert checks.check_roc(a, y, dataclasses.replace(roc, sensitivities=sens))
    ap = pr_auc(data)
    assert checks.check_pr_auc(a, y, ap) == []
    assert checks.check_pr_auc(a, y, ap + 1e-9)


@pytest.mark.parametrize("mode", ["normal", "exact"])
def test_mwu(scored, mode):
    a, _, y = scored
    rng = np.random.default_rng(0)
    pos, neg = (a[y == 1][:400], a[y == 0][:400]) if mode == "normal" else (rng.random(9) + 0.3, rng.random(11))
    res = mwu_test(pos, neg, mode)
    assert checks.check_mwu(pos, neg, res, mode) == []
    assert checks.check_mwu(pos, neg, dict(res, p=res["p"] * (1 + 1e-9)), mode)
    assert checks.check_mwu(pos, neg, dict(res, u=res["u"] + 1), mode)


def test_calibration(scored):
    a, _, y = scored
    bins, ece = calibration_bins(a, y)
    assert checks.check_calibration(a, y, bins, ece) == []
    off = [dataclasses.replace(bins[0], count=bins[0].count + 1)] + bins[1:]
    assert checks.check_calibration(a, y, off, ece)
    assert checks.check_calibration(a, y, bins, ece + 1e-9)


def test_stratified(study):
    _, _, sym = study
    spec = MatchSpec(covariates=("any_symptom",), include_channel=False, seed=1)
    matched, _ = match_exact(sym, spec)
    rng = np.random.default_rng(1)
    cohort = Cohort(
        records=tuple(r.with_score(float(np.round(rng.random() * 0.5 + 0.3 * r.label, 2))) for r in matched.records),
        manifest=matched.manifest,
    )
    res = stratified_auc(cohort, spec, min_per_class=10, q=0.05)
    args = (cohort.records, ("any_symptom",), False, 10, 0.05)
    assert checks.check_stratified(*args, res) == []
    flipped = [dataclasses.replace(res[0], fdr_reject=not res[0].fdr_reject)] + res[1:]
    assert checks.check_stratified(*args, flipped)
    off = [dataclasses.replace(res[0], n_pos=res[0].n_pos + 1)] + res[1:]
    assert checks.check_stratified(*args, off)
    moved = [dataclasses.replace(res[0], auc=res[0].auc + 1e-9)] + res[1:]
    assert checks.check_stratified(*args, moved)


def test_max_eu_pick_swapped_to_lower_specificity_tie():
    # at pi = 0.1: EU = 0.13 sens + 0.18 spec - 0.18, so (1, 0.35) and
    # (0.82, 0.48) tie at the maximum; the pick must be the second
    sens = np.array([1.0, 1.0, 0.82, 0.5, 0.0])
    spec = np.array([0.0, 0.35, 0.48, 0.6, 1.0])
    roc = RocCurve(thresholds=np.array([0.1, 0.2, 0.3, 0.4, np.inf]), sensitivities=sens, specificities=spec)
    grid = np.array([0.0, 0.05, 0.1])
    points = max_eu_curve(roc, UtilityParams(*EU), grid)
    assert checks.check_max_eu(roc, grid, points, *EU) == []
    tie = points[2]
    assert tie.specificity == 0.48
    swapped = points[:2] + [dataclasses.replace(tie, sensitivity=1.0, specificity=0.35, threshold=0.2)]
    assert checks.check_max_eu(roc, grid, swapped, *EU)
    assert checks.check_max_eu(roc, grid, points[:2] + [dataclasses.replace(tie, max_eu=tie.max_eu + 1e-9)], *EU)


def test_probe_flags():
    flagged = ProbeResult(tau=2, uncurated_auc=0.8, curated_auc_at_tau=0.1, attribution_flag=True)
    spared = ProbeResult(tau=2, uncurated_auc=0.8, curated_auc_at_tau=0.79, attribution_flag=False)
    assert checks.check_weak_probe(flagged, confounded=True) == []
    assert checks.check_weak_probe(spared, confounded=True)
    assert checks.check_weak_probe(spared, confounded=False) == []
    assert checks.check_weak_probe(flagged, confounded=False)
    assert checks.check_weak_probe(dataclasses.replace(flagged, tau=None), confounded=True)
    assert checks.check_nn_probe(flagged, confounded=True) == []
    assert checks.check_nn_probe(spared, confounded=True)
    assert checks.check_nn_probe(spared, confounded=False) == []
    assert checks.check_nn_probe(flagged, confounded=False)


# -- harness ----------------------------------------------------------------------------


def test_self_time_and_restore():
    rec = Recorder(traced=True)

    class Box:
        @staticmethod
        def inner(x):
            return x + 1

    with patched([(Box, "inner", rec.wrap("inner", Box.inner, counter=lambda r, x: {"calls": 1}))]):
        with rec.stage("s"):
            assert rec.call("outer", lambda: Box.inner(1) + Box.inner(2)) == 5
    assert Box.inner(0) == 1 and not hasattr(Box.inner, "__wrapped__")
    assert rec.counts["calls"] == 2
    assert 0 <= rec.self_time["outer"] <= rec.total["outer"]
    assert rec.total["outer"] >= rec.total["inner"] == rec.self_time["inner"]
    assert rec.stages["s"] > 0
    off = Recorder(traced=False)
    assert off.call("x", lambda: 3) == 3 and not off.total


def test_host_clock_leaves_out_its_slices():
    host = HostClock()
    before = signal.getsignal(signal.SIGALRM)
    rec = Recorder(traced=False, clock=host.now)
    start = time.perf_counter()
    with host.measure() as timing, rec.stage("s"):
        while time.perf_counter() - start < 0.3:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert host.busy > 0 and len(timing.slice_s) == 2
    # the slices ran inside the block, but neither the block nor the stage counts them
    assert timing.work_s < time.perf_counter() - start - host.busy / 2
    assert rec.stages["s"] <= timing.work_s
    assert timing.seconds == pytest.approx(timing.work_s * timing.scale)


def test_refuses_to_run_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    proc = subprocess.run(
        spec["command"] + ["--workload", "population", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
