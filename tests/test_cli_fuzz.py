"""Fuzz the command line in-process.

Each example of ``test_cli_never_raises`` cuts up to 60 rows out of a scored
synthetic cohort, writes them as a participants CSV, a features CSV and an
``id,score`` CSV, spoils up to two cells, cuts a copy of the features to
fewer columns (down to none) and runs one subcommand on the files. Each
example of ``test_cli_config_never_raises`` spoils up to two settings of a
small valid ``report`` or ``synth`` config file and runs it. Each example
of ``test_cli_model_never_raises`` spoils up to two node entries or top-level
keys of a model file and runs ``baseline predict`` with it; each of
``test_cli_manifest_never_raises`` drops or replaces the config block of a
``report`` manifest, adds top-level keys or cuts the file short, and replays
it. Whatever the input, ``main`` must return 0, 1 or 2, with a one-line
message on failure, and no exception may escape.
"""

import contextlib
import copy
import csv
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confound_audit.cli import main
from confound_audit.cohort import write_cohort, write_features
from confound_audit.forest import TREE_ARRAYS, hybrid_features
from confound_audit.pipeline import DEFAULTS, RunConfig, field_defaults
from confound_audit.synth import SynthConfig, generate_cohort

BAD_CELLS = ("", "x", "-1", "2", "nan", "inf", "1e400", " ")

# {p} participants, {f} features, {fc} the features cut to fewer columns, {s}
# id,score, {e} the JSON that eval writes from {p}, {sym}/{hyb} model files,
# {o} an output path
COMMANDS = (
    ("eval", "--in", "{p}", "--out", "{o}"),
    ("eval", "--in", "{p}", "--stratified", "--min-per-class", "2", "--out", "{o}"),
    ("probe", "weak", "--matched", "{p}", "--features", "{f}", "--out", "{o}"),
    ("probe", "nn", "--matched", "{p}", "--features", "{f}", "--out", "{o}"),
    ("baseline", "train", "--in", "{p}", "--n-trees", "5", "--model", "{o}"),
    ("baseline", "train", "--in", "{p}", "--features", "{f}", "--hybrid", "--n-trees", "5", "--model", "{o}"),
    ("baseline", "predict", "--model", "{sym}", "--in", "{p}", "--out", "{o}"),
    ("baseline", "predict", "--model", "{hyb}", "--in", "{p}", "--features", "{f}", "--out", "{o}"),
    ("match", "--in", "{p}", "--out", "{o}"),
    ("resample", "--in", "{p}", "--n-pos", "3", "--n-neg", "3", "--no-equalize-age", "--out", "{o}"),
    ("probe", "weak", "--matched", "{p}", "--features", "{f}", "--calib", "{p}", "--calib-features", "{fc}",
     "--out", "{o}"),
    ("probe", "nn", "--matched", "{p}", "--features", "{fc}", "--out", "{o}"),
    ("probe", "nn", "--matched", "{p}", "--features", "{f}", "--scores", "{s}", "--out", "{o}"),
    ("utility", "--roc", "{e}", "--rt", "1.5", "--eps", "0.2", "--out", "{o}"),
)


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.fixture(scope="module")
def base():
    """The rows of a scored ``synth --seed 1`` cohort's two CSVs, and the
    texts of a symptoms model and a hybrid model trained on it."""
    cohort, _ = generate_cohort(SynthConfig(seed=1))
    cohort = hybrid_features(cohort, np.random.default_rng(1).random(len(cohort)))
    with tempfile.TemporaryDirectory() as tmp:
        p, f, sym, hyb = (os.path.join(tmp, name) for name in ("p.csv", "f.csv", "sym.json", "hyb.json"))
        write_cohort(cohort, p)
        write_features(cohort, f)
        assert _run(["baseline", "train", "--in", p, "--n-trees", "5", "--model", sym])[0] == 0
        assert _run(["baseline", "train", "--in", p, "--features", f, "--predictors", "features,age,gender",
                     "--hybrid", "--n-trees", "5", "--model", hyb])[0] == 0
        with open(p, newline="") as fp, open(f, newline="") as ff, open(sym) as fs, open(hyb) as fh:
            return list(csv.reader(fp)), list(csv.reader(ff)), fs.read(), fh.read()


def _write(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@settings(max_examples=300, deadline=None)
@given(
    picks=st.lists(st.integers(min_value=0), max_size=60),
    # (table: 0 participants, 1 features, 2 scores; row; column; bad cell)
    edits=st.lists(
        st.tuples(st.integers(0, 2), st.integers(min_value=0), st.integers(min_value=0), st.sampled_from(BAD_CELLS)),
        max_size=2,
    ),
    width=st.integers(0, 7),
    command=st.sampled_from(COMMANDS),
)
# the four tracebacks this test first found: an unscored weak probe, an empty
# eval, fewer negatives than the weak probe's components, an empty weak probe
@example(picks=list(range(60)), edits=[(0, 0, 14, "")], width=7, command=COMMANDS[2])
@example(picks=[], edits=[], width=7, command=COMMANDS[0])
@example(picks=[0, 1, 2, 3, 4, 5, 6, 7, 8], edits=[], width=7, command=COMMANDS[2])
@example(picks=[], edits=[], width=7, command=COMMANDS[2])
# two more: a calibration cohort of fewer features, and one of none
@example(picks=list(range(60)), edits=[], width=3, command=COMMANDS[10])
@example(picks=list(range(60)), edits=[], width=0, command=COMMANDS[10])
def test_cli_never_raises(base, picks, edits, width, command):
    participants, features, sym, hyb = base
    data = list(dict.fromkeys(1 + i % (len(participants) - 1) for i in picks))
    j_id, j_score = participants[0].index("id"), participants[0].index("score")
    tables = [[participants[0]] + [list(participants[i]) for i in data],
              [features[0]] + [list(features[i]) for i in data],
              [["id", "score"]] + [[participants[i][j_id], participants[i][j_score]] for i in data]]
    for table_index, row, col, value in edits:
        table = tables[table_index]
        if len(table) > 1:
            cells = table[1 + row % (len(table) - 1)]
            cells[col % len(cells)] = value
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("p", "f", "fc", "s", "e", "sym", "hyb", "o")}
        _write(paths["p"], tables[0])
        _write(paths["f"], tables[1])
        _write(paths["fc"], [row[: 1 + width] for row in tables[1]])
        _write(paths["s"], tables[2])
        for name, text in (("sym", sym), ("hyb", hyb)):
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        if "{e}" in command:
            assert _run(["eval", "--in", paths["p"], "--metrics", "roc", "--out", paths["e"]])[0] in (0, 1, 2)
        code, err = _run(a.format(**paths) for a in command)
    assert code in (0, 1, 2)
    if code:
        assert err.count("\n") == 1


# small valid configs, so that the examples that run to the end stay cheap
RUN = {"seed": 1, "n_trees": 3, "synth": {"n_population": 1500, "feature_dim": 4}, "metrics": {"min_per_class": 3}}
SYNTH = {"n_population": 1500, "feature_dim": 4}
# wrong types (bools and non-objects included), out-of-range and in-range values
BAD_VALUES = (None, True, False, -1, 0, 1, 2, -0.5, 0.5, 1.5, float("inf"), float("nan"), "x", "", [], {}, [1])
# where a spoil goes: (section, or None for the top level; key), "bogus" being no key
REPORT_PLACES = tuple((None, key) for key in (*field_defaults(RunConfig), *DEFAULTS, "bogus")) + tuple(
    (section, key) for section, keys in DEFAULTS.items() for key in (*keys, "bogus")
)
SYNTH_PLACES = tuple((None, key) for key in (*field_defaults(SynthConfig), "bogus"))


@settings(max_examples=500, deadline=None)
@given(
    command=st.sampled_from(("report", "synth")),
    # (place index, value)
    spoils=st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(BAD_VALUES)), min_size=1, max_size=2),
)
# the two tracebacks this test first found: a figure axis of one k, and one of one prevalence
@example(command="report", spoils=[(REPORT_PLACES.index(("probe", "k_max")), 1)])
@example(command="report", spoils=[(REPORT_PLACES.index(("utility", "pi_max")), 0)])
def test_cli_config_never_raises(command, spoils):
    config, places = (copy.deepcopy(RUN), REPORT_PLACES) if command == "report" else (dict(SYNTH), SYNTH_PLACES)
    for place, value in spoils:
        section, key = places[place % len(places)]
        target = config if section is None else config.setdefault(section, {})
        if isinstance(target, dict):  # not a section an earlier spoil replaced
            target[key] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        if command == "report":
            code, err = _run(["report", "--config", path, "--out-dir", out])
        else:
            code, err = _run(["synth", "--config", path, "--out", out])
    assert code in (0, 1, 2)
    if code:
        assert err.count("\n") == 1 and "Traceback" not in err


# where a model spoil goes: one node of a tree's field, or a top-level key
MODEL_PLACES = (*TREE_ARRAYS, "n_trees", "seed", "m_try", "oob_accuracy", "trees", "encoding", "bogus")
MODEL_VALUES = BAD_VALUES + (10**6, -2)


@settings(max_examples=200, deadline=None)
@given(
    # (place index, tree, node, value)
    spoils=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=0), st.integers(min_value=0),
                  st.sampled_from(MODEL_VALUES)),
        min_size=1, max_size=2,
    ),
)
# a fractional node index read as its integer part, and a NaN threshold that
# sent every row right; both ran to exit 0
@example(spoils=[(MODEL_PLACES.index("feature"), 0, 0, 0.5)])
@example(spoils=[(MODEL_PLACES.index("threshold"), 0, 0, float("nan"))])
# and the traceback this test first found: an infinite seed
@example(spoils=[(MODEL_PLACES.index("seed"), 0, 0, float("inf"))])
def test_cli_model_never_raises(base, spoils):
    participants, _, sym, _ = base
    model = json.loads(sym)
    for place, tree, node, value in spoils:
        name = MODEL_PLACES[place % len(MODEL_PLACES)]
        trees = model.get("trees")
        if name in TREE_ARRAYS:
            if isinstance(trees, list) and trees and isinstance(trees[tree % len(trees)], dict):
                cells = trees[tree % len(trees)][name]
                if isinstance(cells, list) and cells:
                    cells[node % len(cells)] = copy.deepcopy(value)
        else:
            model[name] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as tmp:
        p, m, out = (os.path.join(tmp, name) for name in ("p.csv", "model.json", "o.csv"))
        _write(p, participants[:21])
        with open(m, "w", encoding="utf-8") as fh:
            json.dump(model, fh)
        code, err = _run(["baseline", "predict", "--model", m, "--in", p, "--out", out])
    assert code in (0, 1, 2)
    if code:
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.fixture(scope="module")
def manifest():
    """The manifest text a small ``report`` run writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(RUN, fh)
        assert _run(["report", "--config", path, "--out-dir", out])[0] == 0
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            return fh.read()


# most examples replay the pipeline, so there are few of them
@settings(max_examples=60, deadline=None)
@given(
    config=st.one_of(st.none(), st.just("keep"), st.sampled_from(BAD_VALUES)),
    extra=st.dictionaries(st.sampled_from(("bogus", "threads", "seed", "out_dir", "")),
                          st.sampled_from(BAD_VALUES), max_size=2),
    cut=st.one_of(st.none(), st.integers(min_value=0)),
)
@example(config=None, extra={}, cut=None)
@example(config=[], extra={}, cut=None)
@example(config="keep", extra={"bogus": 1}, cut=None)
@example(config="keep", extra={}, cut=10)
def test_cli_manifest_never_raises(manifest, config, extra, cut):
    """``config`` None drops the config block and "keep" keeps it; ``cut``
    keeps that many characters of the file."""
    payload = json.loads(manifest)
    if config is None:
        del payload["config"]
    elif config != "keep":
        payload["config"] = copy.deepcopy(config)
    payload.update(copy.deepcopy(extra))
    text = json.dumps(payload)
    if cut is not None:
        text = text[: cut % len(text)]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "manifest.json"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, err = _run(["report", "--manifest", path, "--out-dir", out])
    assert code in (0, 1, 2)
    if code:
        assert err.count("\n") == 1 and "Traceback" not in err
