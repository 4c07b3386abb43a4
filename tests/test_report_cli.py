import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import confound_audit
from confound_audit import __version__
from confound_audit.cli import main
from confound_audit.cohort import CSV_COLUMNS
from confound_audit.errors import ConfigError, ShapeMismatch
from confound_audit.metrics import ScoredLabels, auc_ci, calibration_bins, roc_curve, table_2x2_stats
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


def test_figure_text_is_escaped_and_csv_keeps_raw_names():
    name = "a<b & c>d"
    curve = {**_curves(k=1)[0], "name": name}
    svg, csv_text = emit_figure("roc_comparison", [curve], title="x&y")
    assert "a&lt;b &amp; c&gt;d AUC=" in svg and ">x&amp;y</text>" in svg
    assert name not in svg and "x&y" not in svg
    assert {r["curve"] for r in csv.DictReader(io.StringIO(csv_text))} == {name}
    counts = [[40, 7], [13, 25]]
    svg, _ = emit_figure("two_by_two", counts, table_2x2_stats(counts), title="p<q")
    assert ">p&lt;q</text>" in svg and "p<q" not in svg


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


# sha256 of each default bias-demo output at seed 1, (kind, name) -> digest
PIPELINE_DIGESTS = {
    ("figures", "calibration"): "ec9bb784d6af8e84a269e35c6fa88b4c3d9049dec50153127e9f7c7b92ca6929",
    ("figures", "eu"): "81003abbb1afdc3d308130de095e3c5bf42289b9f242c9e98ec53591c8b2fddb",
    ("figures", "probe"): "39d8aaf1e26f5582f8543f61c1add2b10cae59c79474b6bfe5607c92e526c61e",
    ("figures", "roc"): "31cf5381379d3a8a35e2a62ea285c2a28a745647920235e3bf36833f11802aeb",
    ("figures", "strata"): "19766e50fa74c3ff4c81843f350a32636de47ccc4969e77eb37db4e8d4aaf290",
    ("figures", "two_by_two"): "84a0680bbdfafbafaee165a1a4bc68f98e2391fedd741675ede620c0b224a970",
    ("tables", "balance"): "0a5c2102618369bb3e0ca877515787aa8ecb6ac848edd87e522f52c311170eab",
    ("tables", "calibration"): "b992721707ade54f9ca97164779d41bc6e38d2bb6815074668b0e13f74b2e0ff",
    ("tables", "eu"): "52ef7100311c1bea88fd6cce353c6301630b7daa89bbb0f8db6dee10acc4a1e4",
    ("tables", "nn_probe"): "a53c92cb2ac1102bef297da8f37f367832f32b6421c602b9a0967f57c12a708a",
    ("tables", "probe"): "bf024f6b87eca4bcb3e4e371f436f8c151e013c7f63fa48427609784f5f11bb4",
    ("tables", "roc"): "d752491aaef43038cd19a9201132b7a13c31dba12aa34a48ff9304b80aa545a9",
    ("tables", "strata"): "67e2e36af3f0b89cd563e7edd99974665d205cf63aa792a7982fd612aa61336e",
    ("tables", "two_by_two"): "ed1a1f3d5ce9581a0a4963aad2e91fcdc84aaca0fb74425c4e02e107ededd072",
}


def test_pipeline_outputs_match_golden_digests():
    """Every figure and table of the default bias-demo run at seed 1 keeps
    the sha256 recorded for it, so a change to any output byte fails here
    even when two reruns of the changed code agree."""
    bundle = run_pipeline(RunConfig(seed=1))
    got = {(kind, name): hashlib.sha256(text.encode()).hexdigest()
           for kind in ("figures", "tables") for name, text in getattr(bundle, kind).items()}
    assert got == PIPELINE_DIGESTS


def test_pipeline_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"pipelin": "bias-demo"})
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({"synth": {"n_pop": 10}})
    assert "n_pop" in str(err.value)


@pytest.mark.parametrize("data", [
    {"synth": {"seed": 5}},
    {"probe": {"seed": 99}},
    {"probe": {"k_max": 0}},
    {"n_trees": 0},
    {"synth": {"bogus": 1}},
    {"metrics": {"q": 0.1}},
    {"pipeline": "no-such-pipeline"},
    # values of the wrong type
    {"n_trees": "x"},
    {"n_trees": True},
    {"seed": 1.5},
    {"out_dir": 5},
    {"synth": 5},
    {"synth": {"n_population": "x"}},
    {"utility": {"r_t": "x"}},
    {"probe": {"k_max": "x"}},
    {"metrics": {"fdr": "x"}},
    # values out of range, each refused when the config is built
    {"metrics": {"fdr": 2}},
    {"metrics": {"min_per_class": 0}},
    {"synth": {"prevalence": 2}},
    {"utility": {"r_t": -1}},
    {"utility": {"pi_max": 2}},
    {"probe": {"distance": "cosine"}},
    {"utility": {"r_t": float("inf")}},
    {"synth": {"noise_sd": float("nan")}},
])
def test_pipeline_rejects_ignored_or_invalid_settings(data):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(data)
    # a config built directly is checked the same way
    with pytest.raises(ConfigError):
        RunConfig(**data)


def test_pipeline_probe_settings_take_effect():
    base = {"seed": 9, "n_trees": 12, "synth": {"n_population": 2500, "feature_dim": 8},
            "metrics": {"min_per_class": 5}}

    def run(probe):
        return run_pipeline(RunConfig.from_dict({**base, "probe": probe})).tables

    default = run({})
    assert run({"k_max": 8, "calibration_uar_threshold": 0.8, "distance": "euclidean"}) == default
    strict = run({"nn_auc_threshold": 0.999})
    lax = run({"nn_auc_threshold": 0.0, "nn_min_distinct_fraction": 0.0})
    assert "attribution_flag,0" in strict["nn_probe"]
    assert "attribution_flag,1" in lax["nn_probe"]
    assert {k: v for k, v in strict.items() if k != "nn_probe"} == {
        k: v for k, v in default.items() if k != "nn_probe"
    }


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
    assert all(r["latent_signal"] == repr(float(r["label"])) for r in truth_rows)
    enrolled = [r["id"] for r in truth_rows if r["enrolled"] == "1"]
    assert enrolled == [r["id"] for r in csv.DictReader(open(parts))]

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
        "--scores", str(scores), "--distance", "euclidean", "--out", str(nn_out),
    ]) == 0
    assert json.load(open(nn_out))["post_auc"] is not None


def test_package_imports_without_scipy_stats():
    # every CLI call pays for its imports, and scipy.stats alone roughly
    # doubles them; the metrics use scipy.special's normal functions instead
    src = os.path.dirname(os.path.dirname(confound_audit.__file__))
    code = 'import sys, confound_audit, confound_audit.cli; sys.exit("scipy.stats" in sys.modules)'
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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


def test_cli_utility_reads_eval_roc_json(tmp_path):
    pool = tmp_path / "pool.csv"
    _write_pool(pool, n=400)
    metrics = tmp_path / "metrics.json"
    assert main(["eval", "--in", str(pool), "--metrics", "roc", "--out", str(metrics)]) == 0
    points = json.load(open(metrics))["roc_points"]
    assert points[-1]["threshold"] == float("inf")
    roc_csv = tmp_path / "roc.csv"
    with open(roc_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["threshold", "sensitivity", "specificity"])
        w.writerows([p["threshold"], p["sensitivity"], p["specificity"]] for p in points)
    outs = []
    for roc in (metrics, roc_csv):
        out = tmp_path / f"eu-{roc.suffix[1:]}.csv"
        assert main(["utility", "--roc", str(roc), "--rt", "1.5", "--eps", "0.2", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 102


def test_cli_report_manifest_rerun_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "seed": 4, "n_trees": 10, "synth": {"n_population": 2000, "feature_dim": 8},
        "metrics": {"min_per_class": 5},
    }))
    assert main(["report", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    # the report's ROC table holds two curves, not one curve utility can read
    capsys.readouterr()
    eu = tmp_path / "eu.csv"
    assert main(["utility", "--roc", str(out1 / "roc.csv"), "--rt", "1.5", "--eps", "0.2", "--out", str(eu)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'threshold' on data row" in err and not eu.exists()
    manifest = out1 / "manifest.json"
    assert manifest.exists()
    assert main(["report", "--manifest", str(manifest), "--out-dir", str(out2)]) == 0
    csvs1 = sorted(f for f in os.listdir(out1) if f.endswith(".csv"))
    csvs2 = sorted(f for f in os.listdir(out2) if f.endswith(".csv"))
    assert csvs1 == csvs2 and csvs1
    for name in csvs1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    # manifests written before the forest went serial-only carry "threads"
    old = json.load(open(manifest))
    old["config"]["threads"] = 1
    manifest.write_text(json.dumps(old))
    out3 = tmp_path / "run3"
    assert main(["report", "--manifest", str(manifest), "--out-dir", str(out3)]) == 0
    for name in csvs1:
        assert (out1 / name).read_bytes() == (out3 / name).read_bytes()


def test_cli_report_writes_to_config_out_dir(tmp_path, monkeypatch):
    # report writes to the config's out_dir unless --out-dir is given
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({
        "out_dir": "from-config", "seed": 2, "n_trees": 3, "synth": {"n_population": 1500, "feature_dim": 4},
        "metrics": {"min_per_class": 3},
    }))
    assert main(["report", "--config", "run.json"]) == 0
    assert main(["report", "--manifest", "from-config/manifest.json", "--out-dir", "given"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["from-config", "given", "run.json"]
    assert (tmp_path / "from-config" / "roc.csv").read_bytes() == (tmp_path / "given" / "roc.csv").read_bytes()


def test_cli_invalid_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"n_treees": 10}))
    code = main(["report", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
    assert code == 2
    assert "n_treees" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["resample", "--n-pos", "0", "--n-neg", "50"],
    ["resample", "--n-pos", "50", "--n-neg", "50", "--p-sym-neg", "1.5"],
    ["probe", "weak", "--threshold", "0.3"],
    ["probe", "weak", "--kmax", "0"],
    ["probe", "weak", "--calib-features", "features.csv"],
    ["eval", "--metrics", "rocc"],
    ["eval", "--metrics", ""],
    ["eval", "--metrics", "roc,"],
])
def test_cli_rejected_arguments_exit_2(tmp_path, capsys, argv):
    pool = tmp_path / "pool.csv"
    _write_pool(pool, n=60)
    inputs = ["--in", str(pool)] if argv[0] in ("resample", "eval") else ["--matched", str(pool)]
    code = main(argv + inputs + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err


# each subcommand takes only the flags it reads: these changed no output
@pytest.mark.parametrize("argv", [
    ["eval", "--in", "p.csv", "--out", "o", "--seed", "1"],
    ["utility", "--roc", "r.csv", "--rt", "1.5", "--eps", "0.2", "--out", "o", "--seed", "1"],
    ["baseline", "predict", "--model", "m.json", "--in", "p.csv", "--out", "o", "--seed", "1"],
    ["probe", "nn", "--matched", "p.csv", "--out", "o", "--seed", "1"],
    ["probe", "nn", "--matched", "p.csv", "--out", "o", "--kmax", "3"],
    ["probe", "nn", "--matched", "p.csv", "--out", "o", "--threshold", "0.99"],
    ["probe", "weak", "--matched", "p.csv", "--out", "o", "--distance", "manhattan"],
    ["eval", "--in", "p.csv", "--out", "o", "--features", "f.csv"],
])
def test_cli_unread_flags_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


def test_cli_probe_reads_score_ids_stripped(tmp_path):
    # ids in a --scores file are read stripped, as load_cohort reads them
    pool = tmp_path / "pool.csv"
    _write_pool(pool, n=60)
    feats = tmp_path / "feat.csv"
    feats.write_text("id,f0,f1\n" + "".join(f"r{i},{i % 7 / 7},{i * i % 11 / 11}\n" for i in range(60)))
    outs = []
    for pad in ("", " "):
        scores = tmp_path / f"scores{len(pad)}.csv"
        scores.write_text("id,score\n" + "".join(f"{pad}r{i}{pad},{i / 60}\n" for i in range(60)))
        outs.append(tmp_path / f"nn{len(pad)}.json")
        assert main(["probe", "nn", "--matched", str(pool), "--features", str(feats), "--scores", str(scores),
                     "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_cli_runtime_error_exit_1(tmp_path, capsys):
    code = main(["match", "--in", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "m.csv")])
    assert code == 1


# a one-split tree on cough
_TREE = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1], "right": [2, -1, -1],
         "leaf_frac": [-1.0, 0.25, 0.75]}
_MODEL = {"n_trees": 1, "seed": 0, "m_try": 1, "oob_accuracy": None, "trees": [_TREE],
          "encoding": {"sources": [["cough", "bool"]], "levels": {}, "vector_dim": 0, "dropped": []}}


@pytest.mark.parametrize("argv, code, message", [
    (["baseline", "train", "--in", "{pool}", "--model", "{out}", "--n-trees", "0"], 2, "n-trees"),
    (["eval", "--in", "{missing}", "--stratified", "--fdr", "1.5", "--out", "{out}"], 2, "fdr"),
    (["utility", "--roc", "{pool}", "--rt", "1.5", "--eps", "0.2", "--out", "{out}"], 1, "threshold"),
    (["probe", "nn", "--matched", "{pool}", "--scores", "{short}", "--out", "{out}"], 1, "'r7'"),
    (["probe", "nn", "--matched", "{pool}", "--scores", "{word}", "--out", "{out}"], 1, "'score' on data row 4"),
    (["probe", "nn", "--matched", "{pool}", "--scores", "{noscore}", "--out", "{out}"], 1, "'score'"),
    (["probe", "nn", "--matched", "{pool}", "--scores", "{nan}", "--out", "{out}"], 1, "'score' on data row 4"),
    (["probe", "nn", "--matched", "{pool}", "--scores", "{above}", "--out", "{out}"], 1, "'score' on data row 4"),
    (["probe", "nn", "--matched", "{pool}", "--scores", "{repeat}", "--out", "{out}"], 1, "'id' on data row 61"),
    (["baseline", "train", "--in", "{pool}", "--features", "{nanfeat}", "--predictors", "features",
      "--model", "{out}"], 1, "'f1' on data row 2"),
    (["match", "--in", "{blankflag}", "--out", "{out}"], 1, "covariate 'cough'"),
    (["resample", "--in", "{blankflag}", "--n-pos", "10", "--n-neg", "10", "--out", "{out}"], 1,
     "covariate 'any_symptom'"),
    (["utility", "--roc", "{badroc}", "--rt", "1.5", "--eps", "0.2", "--out", "{out}"], 1,
     "'threshold' on data row 2: 'abc'"),
    (["utility", "--roc", "{badjson}", "--rt", "1.5", "--eps", "0.2", "--out", "{out}"], 1,
     "'sensitivity' on data row 1"),
    (["baseline", "predict", "--model", "{model}", "--in", "{blankflag}", "--out", "{out}"], 1,
     "record r3 has a blank 'cough' flag"),
    (["baseline", "predict", "--model", "{badmodel}", "--in", "{pool}", "--out", "{out}"], 1,
     "tree 0: node 0 has 'right' child 7"),
    (["match", "--in", "{pool}", "--covariates", "flag", "--out", "{out}"], 2, "covariate 'flag'"),
    (["baseline", "predict", "--model", "{nolevels}", "--in", "{pool}", "--out", "{out}"], 1,
     "source 'gender' has no levels"),
    # the cohort arrays name the first record lacking a label or a score
    (["probe", "weak", "--matched", "{unscored}", "--features", "{feat}", "--out", "{out}"], 1,
     "record 'r0' has no score"),
    (["probe", "nn", "--matched", "{unscored}", "--features", "{feat}", "--out", "{out}"], 1,
     "record 'r0' has no score"),
    (["probe", "weak", "--matched", "{blanklabel}", "--features", "{feat}", "--out", "{out}"], 1,
     "record 'r3' has no label"),
    (["probe", "nn", "--matched", "{blanklabel}", "--features", "{feat}", "--out", "{out}"], 1,
     "record 'r3' has no label"),
    (["probe", "weak", "--matched", "{pool}", "--features", "{feat}", "--calib", "{blanklabel}",
      "--calib-features", "{feat}", "--out", "{out}"], 1, "record 'r3' has no label"),
    (["eval", "--in", "{header}", "--out", "{out}"], 1, "no record left to evaluate"),
    (["probe", "weak", "--matched", "{fewneg}", "--features", "{feat}", "--out", "{out}"], 1,
     "need at least 3 negatives, have 2"),
    (["probe", "weak", "--matched", "{header}", "--out", "{out}"], 1, "cohort has no records"),
    # a calibration cohort of another feature width, and a features file of no feature column
    (["probe", "weak", "--matched", "{pool}", "--features", "{feat}", "--calib", "{pool}",
      "--calib-features", "{feat3}", "--out", "{out}"], 1, "calibration cohort has 3 features, the matched cohort 2"),
    (["probe", "weak", "--matched", "{pool}", "--features", "{featid}", "--out", "{out}"], 1,
     "required column missing: 'f0'"),
    (["probe", "nn", "--matched", "{pool}", "--features", "{featid}", "--out", "{out}"], 1,
     "required column missing: 'f0'"),
    # config values of the wrong type
    (["report", "--config", "{ntrees}", "--out-dir", "{out}"], 2, "'n_trees': must be int, not str"),
    (["report", "--config", "{synthnum}", "--out-dir", "{out}"], 2, "'synth': must be a JSON object"),
    (["synth", "--config", "{synthcfg}", "--out", "{out}"], 2, "'n_population': must be int, not str"),
    (["report", "--config", "{notjson}", "--out-dir", "{out}"], 2, "is not valid JSON"),
    (["report", "--manifest", "{notjson}", "--out-dir", "{out}"], 2, "is not valid JSON"),
    (["synth", "--config", "{ntrees}", "--out", "{out}"], 2, "bad configuration key 'n_trees'"),
    # config values out of range, refused before any work
    (["report", "--config", "{fdr2}", "--out-dir", "{out}"], 2, "'metrics.fdr': must lie in (0, 1)"),
    (["report", "--config", "{prevalence2}", "--out-dir", "{out}"], 2, "'synth.prevalence': must lie in (0, 1)"),
    (["report", "--config", "{rtneg}", "--out-dir", "{out}"], 2, "'utility': r_t must be >= 0"),
    (["report", "--config", "{pimax2}", "--out-dir", "{out}"], 2, "'utility': pi_max must lie in [0, 1]"),
    (["synth", "--config", "{synthprev}", "--out", "{out}"], 2, "'prevalence': must lie in (0, 1)"),
    (["utility", "--roc", "{roc}", "--rt", "-1", "--eps", "0.2", "--out", "{out}"], 2, "'utility': r_t must be >= 0"),
    (["utility", "--roc", "{roc}", "--rt", "1.5", "--eps", "0.2", "--delta", "-0.5", "--out", "{out}"], 2,
     "'utility': delta must be >= 0"),
    (["utility", "--roc", "{roc}", "--rt", "1.5", "--eps", "0.2", "--pi-max", "2", "--out", "{out}"], 2,
     "'utility': pi_max must lie in [0, 1], got 2.0"),
    (["utility", "--roc", "{roc}", "--rt", "1.5", "--eps", "0.2", "--pi-max", "nan", "--out", "{out}"], 2,
     "'utility': pi_max must lie in [0, 1], got nan"),
    # a manifest replays its own config and seed
    (["report", "--manifest", "{notjson}", "--config", "{ntrees}", "--out-dir", "{out}"], 2,
     "drop --config and --seed"),
    (["report", "--manifest", "{notjson}", "--seed", "1", "--out-dir", "{out}"], 2, "drop --config and --seed"),
    # model node indices must be integers and thresholds finite
    (["baseline", "predict", "--model", "{fracmodel}", "--in", "{pool}", "--out", "{out}"], 1,
     "tree 0 has a non-integer 'feature'"),
    (["baseline", "predict", "--model", "{nanmodel}", "--in", "{pool}", "--out", "{out}"], 1,
     "tree 0 has a 'threshold' that is not finite"),
    # ids are read by load_cohort's rule: a blank one is refused
    (["probe", "nn", "--matched", "{pool}", "--scores", "{blankid}", "--out", "{out}"], 1, "'id' on data row 4: ''"),
    (["probe", "nn", "--matched", "{pool}", "--features", "{featblankid}", "--out", "{out}"], 1,
     "'id' on data row 4: ' '"),
    # refused before the cohort is read
    (["eval", "--in", "{missing}", "--metrics", "roc,rocc", "--out", "{out}"], 2, "unknown metric 'rocc'"),
    (["probe", "weak", "--matched", "{missing}", "--calib-features", "{missing}", "--out", "{out}"], 2,
     "need --calib"),
    # an empty list is a name outside the flags, not the preset
    (["match", "--in", "{pool}", "--covariates", "", "--out", "{out}"], 2, "covariate ''"),
    # --seed draws only the synthetic calibration task: refused with --calib, before any file is read
    (["probe", "weak", "--matched", "{missing}", "--calib", "{missing}", "--seed", "1", "--out", "{out}"], 2,
     "drop --seed"),
    # an infinite utility is refused like a negative one
    (["utility", "--roc", "{roc}", "--rt", "inf", "--eps", "0.2", "--out", "{out}"], 2,
     "'utility': r_t must be >= 0 and finite, got inf"),
    (["utility", "--roc", "{roc}", "--rt", "1.5", "--eps", "inf", "--out", "{out}"], 2,
     "'utility': epsilon must be >= 0 and finite, got inf"),
    (["utility", "--roc", "{roc}", "--rt", "1.5", "--eps", "0.2", "--delta", "inf", "--out", "{out}"], 2,
     "'utility': delta must be >= 0 and finite, got inf"),
    # refused before the cohort is read: an unknown covariate, a non-finite cut, an empty predictor list
    (["match", "--in", "{missing}", "--covariates", "coughh", "--out", "{out}"], 2, "unknown covariate 'coughh'"),
    (["eval", "--in", "{missing}", "--threshold", "nan", "--out", "{out}"], 2, "'threshold': must be finite"),
    (["baseline", "train", "--in", "{missing}", "--predictors", "", "--model", "{out}"], 2, "'predictors'"),
    # a scores file is read as a features file is: one width for every row, and the header id,score
    (["probe", "nn", "--matched", "{pool}", "--scores", "{wide}", "--out", "{out}"], 1,
     "'score' on data row 4: '2 values, expected 1'"),
    (["probe", "nn", "--matched", "{pool}", "--scores", "{widehead}", "--out", "{out}"], 1,
     "a scores file has the header 'id,score', not 'id,score,note'"),
    # a score out of range is named by its row in the file, not by its record's place in the cohort
    (["probe", "nn", "--matched", "{pool}", "--scores", "{aboverev}", "--out", "{out}"], 1, "'score' on data row 57"),
    # a scores header is checked before its rows: no score column is named as such, whatever the rows hold
    (["probe", "nn", "--matched", "{pool}", "--scores", "{idonly}", "--out", "{out}"], 1,
     "required column missing: 'score'"),
    (["probe", "nn", "--matched", "{pool}", "--scores", "{probword}", "--out", "{out}"], 1,
     "required column missing: 'score'"),
    # an empty predictor name needs no data to refuse
    (["baseline", "train", "--in", "{missing}", "--predictors", "cough,", "--model", "{out}"], 2,
     "'predictors': every name must be non-empty"),
    # a participants file is read by the same row rule: a surplus cell, a repeated column or id is refused
    (["match", "--in", "{widepool}", "--out", "{out}"], 1, "'score' on data row 4: '15 values, expected 14'"),
    (["match", "--in", "{twolabels}", "--out", "{out}"], 1, "the header names the column 'label' twice"),
    (["match", "--in", "{repeatpool}", "--out", "{out}"], 1, "'id' on data row 61: 'r0'"),
])
def test_cli_errors_exit_with_one_line(tmp_path, capsys, argv, code, message):
    names = ("pool", "short", "word", "noscore", "nan", "above", "repeat", "nanfeat", "blankflag", "badroc", "badjson",
             "model", "badmodel", "nolevels", "feat", "unscored", "blanklabel", "fewneg", "header", "missing", "feat3", "featid", "ntrees", "synthnum", "synthcfg", "notjson",
             "fdr2", "prevalence2", "rtneg", "pimax2", "synthprev", "roc", "fracmodel", "nanmodel", "blankid",
             "featblankid", "wide", "widehead", "aboverev", "idonly", "probword", "widepool", "twolabels", "repeatpool",
             "out")
    paths = {name: str(tmp_path / name) for name in names}
    _write_pool(paths["pool"], n=60)
    with open(paths["pool"], encoding="utf-8") as fh:
        pool_rows = fh.read().splitlines(keepends=True)
    def recolumn(column, value_of):
        """The pool with ``column`` of record r<i> set to ``value_of(i, cell)``."""
        j = CSV_COLUMNS.index(column)
        rows = [row.rstrip("\n").split(",") for row in pool_rows[1:]]
        for i, row in enumerate(rows):
            row[j] = value_of(i, row[j])
        return pool_rows[0] + "".join(",".join(row) + "\n" for row in rows)

    scores = [f"r{i},0.5\n" for i in range(60)]
    files = {
        "short": "id,score\n" + "".join(scores[:7]),
        "word": "id,score\n" + "".join(scores[:3]) + "r3,high\n" + "".join(scores[4:]),
        "noscore": "id,prob\n" + "".join(scores),
        "nan": "id,score\n" + "".join(scores[:3]) + "r3,nan\n" + "".join(scores[4:]),
        "above": "id,score\n" + "".join(scores[:3]) + "r3,1.5\n" + "".join(scores[4:]),
        "repeat": "id,score\n" + "".join(scores) + "r0,0.25\n",
        "blankid": "id,score\n" + "".join(scores[:3]) + ",0.5\n" + "".join(scores[3:]),
        "wide": "id,score\n" + "".join(scores[:3]) + "r3,0.5,junk\n" + "".join(scores[4:]),
        "widehead": "id,score,note\n" + "".join(f"r{i},0.5,1\n" for i in range(60)),
        "aboverev": "id,score\n" + "".join(f"r{i},{1.5 if i == 3 else 0.5}\n" for i in reversed(range(60))),
        "idonly": "id\n" + "".join(f"r{i}\n" for i in range(60)),
        "probword": "id,prob\n" + "".join(f"r{i},{'abc' if i == 0 else 0.5}\n" for i in range(60)),
        "featblankid": "id,f0,f1\n" + "".join(f"{' ' if i == 3 else f'r{i}'},0.5,0.25\n" for i in range(60)),
        "nanfeat": "id,f0,f1\n" + "".join(f"r{i},0.5,{'nan' if i == 1 else 0.25}\n" for i in range(60)),
        "blankflag": recolumn("cough", lambda i, v: "" if i == 3 else v),
        "widepool": "".join(pool_rows[:4]) + pool_rows[4].rstrip("\n") + ",junk\n" + "".join(pool_rows[5:]),
        "twolabels": "".join(row.rstrip("\n") + (",label\n" if k == 0 else ",1\n") for k, row in enumerate(pool_rows)),
        "repeatpool": "".join(pool_rows) + pool_rows[1],
        "badroc": "threshold,sensitivity,specificity\n0.2,1.0,0.0\nabc,0.7,0.8\n",
        "badjson": '{"roc_points": [{"threshold": Infinity, "sensitivity": "high", "specificity": 1.0}]}\n',
        "model": json.dumps(_MODEL),
        # the right child of "badmodel" points outside its tree
        "badmodel": json.dumps({**_MODEL, "trees": [{**_TREE, "right": [7, -1, -1]}]}),
        "nolevels": json.dumps({**_MODEL, "encoding": {**_MODEL["encoding"],
                                                        "sources": [["cough", "bool"], ["gender", "categorical"]]}}),
        "feat": "id,f0,f1\n" + "".join(f"r{i},{i % 7 / 7},{i * i % 11 / 11}\n" for i in range(60)),
        "unscored": recolumn("score", lambda i, v: ""),
        "blanklabel": recolumn("label", lambda i, v: "" if i == 3 else v),
        "fewneg": recolumn("label", lambda i, v: "0" if i < 2 else "1"),
        "header": pool_rows[0],
        "feat3": "id,f0,f1,f2\n" + "".join(f"r{i},{i % 7 / 7},{i * i % 11 / 11},{i % 3}\n" for i in range(60)),
        "featid": "id\n" + "".join(f"r{i}\n" for i in range(60)),
        "ntrees": '{"n_trees": "x"}',
        "synthnum": '{"synth": 5}',
        "synthcfg": '{"n_population": "x"}',
        "notjson": '{"n_trees": ',
        "fdr2": '{"metrics": {"fdr": 2}}',
        "prevalence2": '{"synth": {"prevalence": 2}}',
        "rtneg": '{"utility": {"r_t": -1}}',
        "pimax2": '{"utility": {"pi_max": 2}}',
        "synthprev": '{"prevalence": 2}',
        "roc": "threshold,sensitivity,specificity\n0.2,1.0,0.0\n0.7,0.6,0.8\n",
        "fracmodel": json.dumps({**_MODEL, "trees": [{**_TREE, "feature": [0.5, -1, -1]}]}),
        "nanmodel": json.dumps({**_MODEL, "trees": [{**_TREE, "threshold": [float("nan"), 0.0, 0.0]}]}),
    }
    for name, text in files.items():
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    assert main([a.format(**paths) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert "Traceback" not in err
    assert not os.path.exists(paths["out"])


def test_cli_eval_train_preset_drops_channel(tmp_path):
    pool = tmp_path / "pool.csv"
    _write_pool(pool, n=400)
    keys = {}
    for preset in ("test", "train"):
        out = tmp_path / f"{preset}.json"
        assert main([
            "eval", "--in", str(pool), "--stratified", "--preset", preset,
            "--min-per-class", "2", "--out", str(out),
        ]) == 0
        keys[preset] = [s["key"] for s in json.load(open(out))["strata"]]
    assert keys["test"] and all(k[0] == "TT" for k in keys["test"])
    assert keys["train"] and all("TT" not in k for k in keys["train"])


_FEATURE_COUNTS = {"unmatched_feature_rows", "records_without_features"}
_PROBE_COUNTS = _FEATURE_COUNTS | {"unmatched_score_rows"}


# per subcommand: its arguments, the keys it adds to --manifest-out, and its
# printed line from that manifest (m), the output path (out) and its file
@pytest.mark.parametrize("argv, extras, line", [
    (["match", "--in", "{pool}", "--preset", "test", "--no-channel", "--seed", "1", "--out", "{out}"], {"n_kept"},
     lambda m, out: f"kept {m['n_kept']}, dropped {400 - m['n_kept']} -> {out}"),
    (["synth", "--config", "{synthcfg}", "--seed", "2", "--out", "{out}"], {"n_enrolled"},
     lambda m, out: f"enrolled {m['n_enrolled']} of 1500 -> {out}"),
    (["resample", "--in", "{pool}", "--n-pos", "20", "--n-neg", "20", "--no-equalize-age", "--seed", "1",
      "--out", "{out}"], {"n", "n_skipped", "skipped"},
     lambda m, out: f"drew {m['n']} records ({m['n_skipped']} pool records skipped) -> {out}"),
    (["eval", "--in", "{pool}", "--metrics", "roc", "--out", "{out}"], set(), lambda m, out: f"metrics -> {out}"),
    (["utility", "--roc", "{roc}", "--rt", "1.5", "--eps", "0.2", "--out", "{out}"], set(),
     lambda m, out: f"max-EU curve -> {out}"),
    (["probe", "weak", "--matched", "{pool}", "--features", "{feat}", "--scores", "{scores}", "--calib", "{pool}",
      "--calib-features", "{feat}", "--kmax", "2", "--out", "{out}"],
     {"tau", "calib_unmatched_feature_rows", "calib_records_without_features"} | _PROBE_COUNTS,
     lambda m, out: f"weak probe (tau={m['tau']}) -> {out}"),
    (["probe", "nn", "--matched", "{pool}", "--features", "{feat}", "--scores", "{scores}", "--out", "{out}"],
     {"post_auc"} | _PROBE_COUNTS,
     lambda m, out: "nn probe: auc {pre_auc:.3f} -> {post_auc:.3f}, {distinct_neighbours} distinct neighbours, "
                    "flag={attribution_flag} -> {out}".format(**json.load(open(out)), out=out)),
    (["baseline", "train", "--in", "{pool}", "--features", "{feat}", "--n-trees", "3", "--seed", "1",
      "--model", "{out}"], {"oob_accuracy", "n_rejected", "rejected"} | _FEATURE_COUNTS,
     lambda m, out: f"trained 3 trees (oob accuracy {m['oob_accuracy']:.3f}, {m['n_rejected']} records rejected)"
                    f" -> {out}"),
    (["baseline", "predict", "--model", "{model}", "--in", "{pool}", "--features", "{feat}", "--out", "{out}"],
     _FEATURE_COUNTS, lambda m, out: f"scored 400 records -> {out}"),
    (["report", "--config", "{reportcfg}", "--out-dir", "{out}"], {"out_dir"},
     lambda m, out: f"wrote 6 figures and 8 tables -> {out}"),
], ids=["match", "synth", "resample", "eval", "utility", "probe-weak", "probe-nn", "baseline-train",
        "baseline-predict", "report"])
def test_cli_manifest_out(tmp_path, capsys, argv, extras, line):
    paths = {name: str(tmp_path / name) for name in
             ("pool", "feat", "scores", "roc", "model", "synthcfg", "reportcfg", "out", "manifest.json")}
    _write_pool(paths["pool"], n=400)
    files = {
        "feat": "id,f0,f1\n" + "".join(f"r{i},{i % 7 / 7},{i * i % 11 / 11}\n" for i in range(400)),
        "scores": "id,score\n" + "".join(f"r{i},{i / 400}\n" for i in range(400)),
        "roc": "threshold,sensitivity,specificity\n0.2,1.0,0.0\n0.7,0.6,0.8\n",
        "model": json.dumps(_MODEL),
        "synthcfg": json.dumps({"n_population": 1500, "feature_dim": 4}),
        "reportcfg": json.dumps({"n_trees": 3, "synth": {"n_population": 1500, "feature_dim": 4},
                                 "metrics": {"min_per_class": 3}}),
    }
    for name, text in files.items():
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    argv = [a.format(**paths) for a in argv]
    man = paths["manifest.json"]
    assert main(argv + ["--manifest-out", man]) == 0
    payload = json.load(open(man))
    assert payload["tool"] == "confound-audit"
    assert payload["version"] == __version__
    assert payload["subcommand"] == argv[0]
    # every flag given is recorded as parsed; defaults are recorded, unset flags are not
    given = {flag[2:].replace("-", "_"): value for flag, value in zip(argv, argv[1:] + ["--"])
             if flag.startswith("--")}
    args = payload["args"]
    assert args["manifest_out"] == man and "func" not in args and "command" not in args
    assert all(v is not None for v in args.values())
    assert {k: str(args[k]) for k in given} == {k: "True" if v.startswith("--") else v for k, v in given.items()}
    assert set(payload) - {"tool", "version", "subcommand", "args"} == extras
    assert capsys.readouterr().out == line(payload, paths["out"]) + "\n"


def test_cli_match_disjoint_refusal(tmp_path, capsys):
    pool = tmp_path / "pool.csv"
    _write_pool(pool, n=400)
    code = main([
        "match", "--in", str(pool), "--preset", "test", "--no-channel",
        "--seed", "1", "--out", str(tmp_path / "m.csv"), "--disjoint-from", str(pool),
    ])
    assert code == 1
    assert "both inputs" in capsys.readouterr().err


def test_cli_eval_counts_rejected_records(tmp_path):
    pool = tmp_path / "pool.csv"
    _write_pool(pool, n=200)
    rows = pool.read_text().splitlines(keepends=True)
    minor = rows[3].split(",")
    minor[CSV_COLUMNS.index("age_years")] = "16"
    unlabelled = rows[5].split(",")
    unlabelled[CSV_COLUMNS.index("label")] = ""
    pool.write_text("".join(rows[:3]) + ",".join(minor) + rows[4] + ",".join(unlabelled) + "".join(rows[6:]))
    out = tmp_path / "metrics.json"
    assert main(["eval", "--in", str(pool), "--metrics", "pr", "--out", str(out)]) == 0
    result = json.load(open(out))
    assert result["n_rejected"] == 2
    assert result["rejected"] == {"age<18": 1, "missing_label": 1}
    assert result["n_pos"] + result["n_neg"] == 198


def test_cli_baseline_train_counts_rejected_records(tmp_path, capsys):
    pool = tmp_path / "pool.csv"
    _write_pool(pool, n=200)
    rows = pool.read_text().splitlines(keepends=True)
    minor = rows[3].split(",")
    minor[CSV_COLUMNS.index("age_years")] = "16"
    unlabelled = rows[5].split(",")
    unlabelled[CSV_COLUMNS.index("label")] = ""
    pool.write_text("".join(rows[:3]) + ",".join(minor) + rows[4] + ",".join(unlabelled) + "".join(rows[6:]))
    man = tmp_path / "manifest.json"
    assert main([
        "baseline", "train", "--in", str(pool), "--model", str(tmp_path / "model.json"),
        "--n-trees", "3", "--manifest-out", str(man),
    ]) == 0
    payload = json.load(open(man))
    assert payload["n_rejected"] == 2
    assert payload["rejected"] == {"age<18": 1, "missing_label": 1}
    assert "2 records rejected" in capsys.readouterr().out


def test_cli_resample_counts_skipped_records(tmp_path, capsys):
    pool = tmp_path / "pool.csv"
    _write_pool(pool, n=400)
    rows = pool.read_text().splitlines(keepends=True)
    for row, column in ((2, "label"), (4, "age_years")):
        cells = rows[row].split(",")
        cells[CSV_COLUMNS.index(column)] = ""
        rows[row] = ",".join(cells)
    pool.write_text("".join(rows))
    report, man = tmp_path / "report.json", tmp_path / "manifest.json"
    assert main([
        "resample", "--in", str(pool), "--n-pos", "20", "--n-neg", "20", "--seed", "1",
        "--out", str(tmp_path / "genpop.csv"), "--report", str(report), "--manifest-out", str(man),
    ]) == 0
    assert json.load(open(report))["skipped"] == {"no_label": 1, "no_age": 1}
    payload = json.load(open(man))
    assert payload["n"] == 40
    assert payload["n_skipped"] == 2
    assert payload["skipped"] == {"no_label": 1, "no_age": 1}
    assert "2 pool records skipped" in capsys.readouterr().out


def test_cli_manifests_count_the_rows_a_join_drops(tmp_path):
    # a --features or --scores row whose id matches no record changes no
    # output; --manifest-out counts it
    pool, feats, model = tmp_path / "pool.csv", tmp_path / "feat.csv", tmp_path / "model.json"
    _write_pool(pool, n=60)
    feats.write_text("id,f0,f1\n" + "".join(f"r{i},{i % 7 / 7},{i * i % 11 / 11}\n" for i in range(60))
                     + "zz,0.5,0.5\n")
    feature_counts = {"unmatched_feature_rows": 1, "records_without_features": 0}
    runs = {
        "train": ["baseline", "train", "--in", str(pool), "--features", str(feats), "--predictors", "features",
                  "--n-trees", "5", "--seed", "1", "--model", str(model)],
        "predict": ["baseline", "predict", "--model", str(model), "--in", str(pool), "--features", str(feats),
                    "--out", str(tmp_path / "scores.csv")],
    }
    for name, argv in runs.items():
        assert main(argv + ["--manifest-out", str(tmp_path / f"{name}.manifest.json")]) == 0
        payload = json.load(open(tmp_path / f"{name}.manifest.json"))
        assert {k: payload.get(k) for k in feature_counts} == feature_counts
        assert "unmatched_score_rows" not in payload

    extra = tmp_path / "extra.csv"
    extra.write_text((tmp_path / "scores.csv").read_text() + "zzz-not-a-record,0.5\n")
    for probe in (["weak", "--kmax", "2", "--seed", "1"], ["nn"]):
        outs = []
        for unmatched, scores in enumerate(("scores.csv", "extra.csv")):
            out, man = tmp_path / f"{probe[0]}{unmatched}.json", tmp_path / f"{probe[0]}{unmatched}.manifest.json"
            assert main(["probe", *probe, "--matched", str(pool), "--features", str(feats),
                         "--scores", str(tmp_path / scores), "--out", str(out), "--manifest-out", str(man)]) == 0
            payload = json.load(open(man))
            assert payload["unmatched_score_rows"] == unmatched
            assert {k: payload[k] for k in feature_counts} == feature_counts
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    # the calibration cohort's feature join is counted apart from the matched cohort's
    clean = tmp_path / "clean.csv"
    clean.write_text(feats.read_text().replace("zz,0.5,0.5\n", ""))
    outs = []
    for unmatched, calib_feats in enumerate((clean, feats)):
        out, man = tmp_path / f"calib{unmatched}.json", tmp_path / f"calib{unmatched}.manifest.json"
        assert main(["probe", "weak", "--kmax", "2", "--matched", str(pool), "--features", str(clean),
                     "--calib", str(pool), "--calib-features", str(calib_feats), "--out", str(out),
                     "--manifest-out", str(man)]) == 0
        payload = json.load(open(man))
        assert payload["unmatched_feature_rows"] == 0
        assert payload["calib_unmatched_feature_rows"] == unmatched
        assert payload["calib_records_without_features"] == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
