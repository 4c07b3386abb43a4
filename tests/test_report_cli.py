import csv
import io
import json
import os

import numpy as np
import pytest

from confound_audit.cli import main
from confound_audit.errors import ConfigError, ShapeMismatch
from confound_audit.metrics import ScoredLabels, auc_ci, calibration_bins, roc_curve
from confound_audit.pipeline import RunConfig, run_pipeline
from confound_audit.report import emit_figure

from conftest import make_cohort, make_record


def _curves(seed=0, k=3):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(k):
        scores = np.concatenate([rng.normal(0.5 + 0.2 * i, 1, 60), rng.normal(0, 1, 60)])
        labels = np.array([1] * 60 + [0] * 60)
        d = ScoredLabels(scores, labels)
        out.append({"name": f"model-{i}", "roc": roc_curve(d), "ci": auc_ci(d, "delong")})
    return out


def test_roc_comparison_legend_and_csv_roundtrip():
    curves = _curves()
    svg, csv_text = emit_figure("roc_comparison", curves)
    assert svg.count("AUC=") == 3
    for c in curves:
        assert c["name"] in svg
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    for c in curves:
        series = [r for r in rows if r["curve"] == c["name"]]
        assert len(series) == len(c["roc"].thresholds)
        got = [(float(r["sensitivity"]), float(r["specificity"])) for r in series]
        want = list(zip(c["roc"].sensitivities, c["roc"].specificities))
        assert got == want  # parse-back reproduces the plotted series exactly


def test_empty_strata_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        emit_figure("stratified_forest", [])


def test_unknown_figure_kind():
    with pytest.raises(ShapeMismatch):
        emit_figure("pie_chart", {})


def test_calibration_figure_csv():
    rng = np.random.default_rng(1)
    scores = rng.random(200)
    labels = (rng.random(200) < scores).astype(int)
    bins, ece = calibration_bins(scores, labels)
    svg, csv_text = emit_figure("calibration", bins, ece)
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert len(rows) == len(bins)
    assert svg.startswith("<svg")
    assert "</svg>" in svg


def test_pipeline_coherent_and_deterministic(tmp_path):
    cfg = RunConfig(seed=9, out_dir=str(tmp_path), n_trees=12,
                    synth={"n_population": 2500, "feature_dim": 8},
                    metrics={"min_per_class": 5})
    b1 = run_pipeline(cfg)
    b2 = run_pipeline(cfg)
    assert b1.tables == b2.tables
    assert b1.figures == b2.figures
    assert set(b1.figures) >= {"roc", "eu", "strata", "probe"}


def test_pipeline_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"pipelin": "bias-demo"})
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({"synth": {"n_pop": 10}})
    assert "n_pop" in str(err.value)


# -- CLI ---------------------------------------------------------------------------


def _write_pool(path, n=2400, seed=0, with_scores=True):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        records.append(
            make_record(
                f"r{i}",
                label=int(rng.random() < 0.5),
                age=int(rng.integers(18, 80)),
                gender="male" if rng.random() < 0.5 else "female",
                cough=bool(rng.random() < 0.4),
                sore_throat=bool(rng.random() < 0.3),
                score=float(rng.random()) if with_scores else None,
            )
        )
    from confound_audit.cohort import write_cohort

    write_cohort(make_cohort(records), str(path))


def test_cli_match_eval_resample_flow(tmp_path):
    pool = tmp_path / "pool.csv"
    _write_pool(pool)
    matched = tmp_path / "matched.csv"
    report = tmp_path / "balance.json"
    assert main([
        "match", "--in", str(pool), "--preset", "test", "--no-channel",
        "--seed", "1", "--out", str(matched), "--report", str(report),
    ]) == 0
    assert json.load(open(report))["n_kept"] > 0

    metrics_out = tmp_path / "metrics.json"
    assert main([
        "eval", "--in", str(pool), "--metrics", "roc,pr,uar", "--ci", "hanley_mcneil",
        "--out", str(metrics_out),
    ]) == 0
    m = json.load(open(metrics_out))
    assert 0.4 < m["roc_auc"] < 0.6  # random scores
    assert "pr_auc" in m and "uar" in m

    genpop = tmp_path / "genpop.csv"
    assert main([
        "resample", "--in", str(pool), "--n-pos", "50", "--n-neg", "50",
        "--p-sym-neg", "0.2", "--seed", "2", "--out", str(genpop),
    ]) == 0
    rows = list(csv.DictReader(open(genpop)))
    assert len(rows) == 100


def test_cli_synth_probe_flow(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({
        "n_population": 2500, "prevalence": 0.3, "enrolment": "symptoms_based",
        "confounder_strength": 5.0, "feature_dim": 8,
    }))
    parts = tmp_path / "participants.csv"
    feats = tmp_path / "features.csv"
    truth = tmp_path / "truth.csv"
    assert main([
        "synth", "--config", str(cfg), "--seed", "3",
        "--out", str(parts), "--features", str(feats), "--truth", str(truth),
    ]) == 0
    truth_rows = list(csv.DictReader(open(truth)))
    assert len(truth_rows) == 2500
    assert {r["enrolled"] for r in truth_rows} == {"0", "1"}

    matched = tmp_path / "matched.csv"
    assert main([
        "match", "--in", str(parts), "--covariates", "any_symptom", "--no-channel",
        "--seed", "3", "--out", str(matched),
    ]) == 0

    # score via a trained baseline on raw feature vectors
    model = tmp_path / "model.json"
    assert main([
        "baseline", "train", "--in", str(parts), "--features", str(feats),
        "--predictors", "features", "--model", str(model), "--n-trees", "15", "--seed", "3",
    ]) == 0
    scores = tmp_path / "scores.csv"
    assert main([
        "baseline", "predict", "--model", str(model), "--in", str(matched),
        "--features", str(feats), "--out", str(scores),
    ]) == 0

    probe_out = tmp_path / "probe.json"
    assert main([
        "probe", "weak", "--matched", str(matched), "--features", str(feats),
        "--scores", str(scores), "--kmax", "5", "--seed", "3", "--out", str(probe_out),
    ]) == 0
    probe = json.load(open(probe_out))
    assert len(probe["ks"]) == 5

    nn_out = tmp_path / "nn.json"
    assert main([
        "probe", "nn", "--matched", str(matched), "--features", str(feats),
        "--scores", str(scores), "--distance", "euclidean", "--seed", "3", "--out", str(nn_out),
    ]) == 0
    assert json.load(open(nn_out))["post_auc"] is not None


def test_cli_utility(tmp_path):
    roc = tmp_path / "roc.csv"
    with open(roc, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["threshold", "sensitivity", "specificity"])
        for t, se, sp in [(0.2, 1.0, 0.0), (0.5, 0.7, 0.8), (0.9, 0.0, 1.0)]:
            w.writerow([t, se, sp])
    out = tmp_path / "eu.csv"
    assert main([
        "utility", "--roc", str(roc), "--rt", "1.5", "--eps", "0.2",
        "--delta", "0", "--pi-max", "0.1", "--out", str(out),
    ]) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 101
    assert float(rows[0]["max_eu"]) == 0.0


def test_cli_report_manifest_rerun_byte_identical(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "seed": 4, "n_trees": 10, "synth": {"n_population": 2000, "feature_dim": 8},
        "metrics": {"min_per_class": 5},
    }))
    assert main(["report", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    manifest = out1 / "manifest.json"
    assert manifest.exists()
    assert main(["report", "--manifest", str(manifest), "--out-dir", str(out2)]) == 0
    csvs1 = sorted(f for f in os.listdir(out1) if f.endswith(".csv"))
    csvs2 = sorted(f for f in os.listdir(out2) if f.endswith(".csv"))
    assert csvs1 == csvs2 and csvs1
    for name in csvs1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_invalid_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"n_treees": 10}))
    code = main(["report", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
    assert code == 2
    assert "n_treees" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["resample", "--n-pos", "0", "--n-neg", "50"],
    ["resample", "--n-pos", "50", "--n-neg", "50", "--p-sym-neg", "1.5"],
    ["probe", "nn", "--threshold", "0.3"],
    ["probe", "weak", "--kmax", "0"],
])
def test_cli_rejected_arguments_exit_2(tmp_path, capsys, argv):
    pool = tmp_path / "pool.csv"
    _write_pool(pool, n=60)
    inputs = ["--in", str(pool)] if argv[0] == "resample" else ["--matched", str(pool)]
    code = main(argv + inputs + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_runtime_error_exit_1(tmp_path, capsys):
    code = main(["match", "--in", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "m.csv")])
    assert code == 1


def test_cli_env_threads_override(tmp_path, monkeypatch):
    pool = tmp_path / "pool.csv"
    _write_pool(pool, n=300)
    model = tmp_path / "model.json"
    monkeypatch.setenv("CONFOUND_AUDIT_THREADS", "2")
    assert main([
        "baseline", "train", "--in", str(pool), "--model", str(model),
        "--n-trees", "8", "--seed", "1", "--threads", "1",
    ]) == 0
    monkeypatch.setenv("CONFOUND_AUDIT_THREADS", "not-a-number")
    code = main([
        "baseline", "train", "--in", str(pool), "--model", str(model),
        "--n-trees", "8", "--seed", "1",
    ])
    assert code == 2


def test_cli_manifest_out(tmp_path):
    pool = tmp_path / "pool.csv"
    _write_pool(pool, n=400)
    matched = tmp_path / "m.csv"
    man = tmp_path / "manifest.json"
    assert main([
        "match", "--in", str(pool), "--preset", "test", "--no-channel",
        "--seed", "1", "--out", str(matched), "--manifest-out", str(man),
    ]) == 0
    payload = json.load(open(man))
    assert payload["subcommand"] == "match"
    assert payload["tool"] == "confound-audit"


def test_cli_match_disjoint_refusal(tmp_path, capsys):
    pool = tmp_path / "pool.csv"
    _write_pool(pool, n=400)
    code = main([
        "match", "--in", str(pool), "--preset", "test", "--no-channel",
        "--seed", "1", "--out", str(tmp_path / "m.csv"), "--disjoint-from", str(pool),
    ])
    assert code == 1
    assert "both inputs" in capsys.readouterr().err
