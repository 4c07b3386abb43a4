"""Bagged CART baseline classifiers.

The symptoms-and-demographics baseline is a bagging ensemble of CART trees
(Gini splits, sqrt(p) feature subsampling per split, bootstrap samples of
size n, no depth cap) with an out-of-bag accuracy estimate. "Default
settings" are pinned explicitly because defaults are implementation-relative:
100 trees, Gini impurity, sqrt(p) candidate features per split, bootstrap
resamples of size n, grown until pure.

Models serialize to JSON (portable and diffable). A hybrid classifier is the
same ensemble with the audio score appended as one more numeric predictor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .cohort import SYMPTOM_FIELDS, Cohort, ParticipantRecord
from .errors import EncodingMismatch, MissingScore, OneClassOnly
from .rngs import substream

DEFAULT_SYMPTOM_PREDICTORS = SYMPTOM_FIELDS[:8] + ("age", "gender", "smoker")
OPTIONAL_PREDICTORS = ("ethnicity", "first_language")


# -- feature encoding -------------------------------------------------------------


@dataclass(frozen=True)
class FeatureEncoding:
    """Stable record-to-design-matrix mapping.

    ``sources`` lists (name, kind) pairs in order; categorical sources carry
    their one-hot level list learned at build time. Unknown categorical
    levels at predict time encode as an all-zero block.
    """

    sources: tuple[tuple[str, str], ...]
    levels: dict[str, tuple[str, ...]] = field(default_factory=dict)
    vector_dim: int = 0
    dropped: tuple[str, ...] = ()

    @property
    def feature_names(self) -> tuple[str, ...]:
        names: list[str] = []
        for name, kind in self.sources:
            if kind == "categorical":
                names.extend(f"{name}={lvl}" for lvl in self.levels[name])
            elif kind == "vector":
                names.extend(f"f{i}" for i in range(self.vector_dim))
            else:
                names.append(name)
        return tuple(names)


def _source_kind(name: str, record: ParticipantRecord) -> str | None:
    if name in SYMPTOM_FIELDS:
        return "bool"
    if name == "age":
        return "numeric"
    if name in ("gender", "channel"):
        return "categorical"
    if name == "audio_score":
        return "score"
    if name == "features":
        return "vector"
    if name in record.other_covariates:
        return "categorical"
    return None


def build_encoding(cohort: Cohort, predictors, optional=OPTIONAL_PREDICTORS) -> FeatureEncoding:
    """Learn an encoding from a training cohort.

    Optional predictors absent from the data are dropped (and recorded in
    ``dropped``) rather than raising.
    """
    if len(cohort) == 0:
        raise EncodingMismatch("cannot build an encoding from an empty cohort")
    probe = cohort.records[0]
    sources: list[tuple[str, str]] = []
    dropped: list[str] = []
    levels: dict[str, tuple[str, ...]] = {}
    vector_dim = 0
    for name in predictors:
        kind = _source_kind(name, probe)
        if kind is None:
            if name in optional:
                dropped.append(name)
                continue
            raise EncodingMismatch(f"unknown predictor {name!r}")
        sources.append((name, kind))
        if kind == "categorical":
            if name in ("gender", "channel"):
                values = {getattr(r, name) for r in cohort.records}
            else:
                values = {r.other_covariates.get(name, "") for r in cohort.records}
            levels[name] = tuple(sorted(values))
        elif kind == "vector":
            if probe.features is None:
                raise EncodingMismatch("records lack feature vectors")
            vector_dim = int(probe.features.shape[0])
    return FeatureEncoding(
        sources=tuple(sources), levels=levels, vector_dim=vector_dim, dropped=tuple(dropped)
    )


def encode_cohort(cohort: Cohort, encoding: FeatureEncoding) -> np.ndarray:
    rows = []
    for r in cohort.records:
        row: list[float] = []
        for name, kind in encoding.sources:
            if kind == "bool":
                row.append(float(r.symptoms.flag(name)))
            elif kind == "numeric":
                if r.age_years is None:
                    raise EncodingMismatch(f"record {r.id} lacks age")
                row.append(float(r.age_years))
            elif kind == "score":
                if r.score is None:
                    raise MissingScore(r.id)
                row.append(float(r.score))
            elif kind == "categorical":
                value = getattr(r, name) if name in ("gender", "channel") else r.other_covariates.get(name, "")
                row.extend(1.0 if value == lvl else 0.0 for lvl in encoding.levels[name])
            elif kind == "vector":
                if r.features is None or r.features.shape[0] != encoding.vector_dim:
                    raise EncodingMismatch(f"record {r.id} has incompatible features")
                row.extend(float(v) for v in r.features)
        rows.append(row)
    return np.asarray(rows, dtype=float)


# -- CART trees --------------------------------------------------------------------


# a tree is one array per node field, indexed by node number; -1 marks
# "none" (a leaf's feature and children, an inner node's leaf_frac)
TREE_ARRAYS = {"feature": int, "threshold": float, "left": int, "right": int, "leaf_frac": float}


def _best_split(
    xt: np.ndarray, y: np.ndarray, counts: np.ndarray, order: np.ndarray, rows: np.ndarray, pos: int
):
    """Score every cut of the features ``rows`` (ascending) as one block.

    ``order`` is the node's (p, size) presorted index matrix, ``y`` the 0/1
    labels as floats and ``counts`` the floats 1, 2, ..., n - 1. Returns the
    feature, the cut position in its sorted row, that row's values and the
    positives left of the cut, or None when every candidate is constant.
    """
    size = order.shape[1]
    idx = order[rows]
    xs = xt[rows[:, None], idx]
    lp = y[idx].cumsum(axis=1)[:, :-1]  # positives left of each cut, exact in float
    ln = counts[: size - 1]
    rn = counts[size - 2 :: -1]
    rp = pos - lp
    # weighted Gini impurity, up to the constant factor 1/n_node
    imp = (ln - (lp * lp + (ln - lp) ** 2) / ln) + (rn - (rp * rp + (rn - rp) ** 2) / rn)
    imp[xs[:, 1:] == xs[:, :-1]] = np.inf  # cut only between distinct values
    # the first minimum in row-major order: lowest impurity, then lowest
    # feature, then lowest threshold
    r, j = divmod(int(imp.argmin()), size - 1)
    if imp[r, j] == np.inf:
        return None
    return int(rows[r]), j, xs[r], int(lp[r, j])


def _grow_tree(x: np.ndarray, y: np.ndarray, rng: np.random.Generator, m_try: int) -> dict:
    """Grow one unpruned CART tree; returns parallel node arrays.

    Split rule: go left when value <= threshold (thresholds are midpoints of
    consecutive distinct values). Ties in impurity resolve to the lowest
    feature index then lowest threshold, so regrowth is reproducible.

    Presorted CART (SLIQ, Mehta et al. 1996): every feature is argsorted
    once per tree into a (p, n) index matrix, and each stack entry carries
    its node's (p, size) rows of it. A split partitions those rows with one
    boolean mask (left when the split feature is <= the last value left of
    the cut); filtering keeps each row sorted, so no node sorts again. The
    order among tied values changes no count, cut or threshold, so the sort
    need not be stable. The ``m_try`` candidates are scored as one block,
    from the same integer counts by the same Gini expression as one feature
    at a time, and the first minimum in row-major order keeps the tie rule.
    When every candidate is constant on the node, all p features are scored
    the same way. Nodes are numbered depth-first, left child first, and
    ``rng`` is drawn once per impure node in that order.
    """
    n, p = x.shape
    xt = np.ascontiguousarray(x.T)
    y = np.asarray(y, dtype=float)
    counts = np.arange(1, n, dtype=float)
    nodes: dict[str, list] = {name: [] for name in TREE_ARRAYS}
    feature, threshold, left, right, leaf_frac = nodes.values()

    def new_node(size: int, pos: int) -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_frac.append(pos / size if pos == 0 or pos == size or size < 2 else -1.0)
        return len(feature) - 1

    pos = int(y.sum())
    root = new_node(n, pos)
    stack = [(root, np.argsort(xt, axis=1), pos)] if leaf_frac[root] < 0.0 else []
    while stack:
        node, order, pos = stack.pop()
        size = order.shape[1]
        candidates = rng.choice(p, size=m_try, replace=False)
        candidates.sort()
        best = _best_split(xt, y, counts, order, candidates, pos)
        if best is None:
            best = _best_split(xt, y, counts, order, np.arange(p), pos)
        if best is None:
            leaf_frac[node] = pos / size
            continue

        f, j, xs, lp = best
        feature[node] = f
        threshold[node] = float((xs[j] + xs[j + 1]) / 2.0)
        lnode, rnode = new_node(j + 1, lp), new_node(size - j - 1, pos - lp)
        left[node] = lnode
        right[node] = rnode
        go_left = xt[f][order] <= xs[j]
        for child, mask, child_pos in ((rnode, ~go_left, pos - lp), (lnode, go_left, lp)):
            if leaf_frac[child] < 0.0:  # a pure or single-record child is a leaf already
                stack.append((child, order[mask].reshape(p, -1), child_pos))

    return {name: np.array(nodes[name], dtype=dtype) for name, dtype in TREE_ARRAYS.items()}


def _tree_predict(tree: dict, x: np.ndarray) -> np.ndarray:
    feature, threshold, left, right = tree["feature"], tree["threshold"], tree["left"], tree["right"]
    node = np.zeros(x.shape[0], dtype=int)
    active = feature[node] >= 0
    while active.any():
        idx = np.nonzero(active)[0]
        cur = node[idx]
        go_left = x[idx, feature[cur]] <= threshold[cur]
        node[idx] = np.where(go_left, left[cur], right[cur])
        active[idx] = feature[node[idx]] >= 0
    return tree["leaf_frac"][node]


@dataclass
class TreeEnsemble:
    n_trees: int
    trees: list[dict]
    seed: int
    m_try: int
    oob_accuracy: float | None
    encoding: FeatureEncoding | None = None

    def predict_matrix(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape[0])
        for tree in self.trees:
            out += _tree_predict(tree, x)
        return out / len(self.trees)


def fit_forest(x: np.ndarray, y: np.ndarray, n_trees: int = 100, seed: int = 0) -> TreeEnsemble:
    """Fit the bagging ensemble on a finite design matrix.

    Per-tree RNG streams are derived from (seed, tree index).
    """
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if not np.isfinite(x).all():
        raise EncodingMismatch("design matrix has NaN or infinite values")
    if not ((y == 1).any() and (y == 0).any()):
        raise OneClassOnly("training requires both classes")
    n, p = x.shape
    m_try = max(1, int(round(np.sqrt(p))))

    def one_tree(t: int) -> tuple[dict, np.ndarray]:
        rng = substream(seed, "tree", t)
        boot = rng.integers(0, n, size=n)
        tree = _grow_tree(x[boot], y[boot], rng, m_try)
        oob_mask = np.ones(n, dtype=bool)
        oob_mask[boot] = False
        return tree, oob_mask

    results = [one_tree(t) for t in range(n_trees)]

    trees = [tree for tree, _ in results]
    oob_sum = np.zeros(n)
    oob_count = np.zeros(n)
    for tree, mask in results:
        if mask.any():
            oob_sum[mask] += _tree_predict(tree, x[mask])
            oob_count[mask] += 1
    covered = oob_count > 0
    oob_accuracy = None
    if covered.any():
        oob_pred = (oob_sum[covered] / oob_count[covered]) >= 0.5
        oob_accuracy = float(np.mean(oob_pred == (y[covered] == 1)))
    return TreeEnsemble(n_trees=n_trees, trees=trees, seed=seed, m_try=m_try, oob_accuracy=oob_accuracy)


def train_symptoms_model(
    train: Cohort,
    encoding: FeatureEncoding | None = None,
    predictors=DEFAULT_SYMPTOM_PREDICTORS,
    n_trees: int = 100,
    seed: int = 0,
) -> TreeEnsemble:
    """Fit the symptoms/demographics baseline on a cohort."""
    if encoding is None:
        encoding = build_encoding(train, predictors)
    x = encode_cohort(train, encoding)
    y = train.labels()
    if (y == -1).any():
        raise EncodingMismatch("training cohort has unlabelled records")
    model = fit_forest(x, y, n_trees=n_trees, seed=seed)
    model.encoding = encoding
    return model


def predict_proba(model: TreeEnsemble, cohort: Cohort) -> np.ndarray:
    """Mean of per-tree leaf positive fractions for each record."""
    if model.encoding is None:
        raise EncodingMismatch("model has no encoding; use predict_matrix")
    x = encode_cohort(cohort, model.encoding)
    return model.predict_matrix(x)


def hybrid_features(cohort: Cohort, audio_scores) -> Cohort:
    """Attach an audio score to every record so that ``audio_score`` can be
    used as an additional numeric predictor; every record must be covered."""
    if isinstance(audio_scores, dict):
        lookup = audio_scores
    else:
        arr = np.asarray(audio_scores, dtype=float)
        if arr.size != len(cohort):
            raise ValueError("audio score sequence does not align with the cohort")
        lookup = {r.id: float(v) for r, v in zip(cohort.records, arr)}
    records = []
    for r in cohort.records:
        if r.id not in lookup or lookup[r.id] is None:
            raise MissingScore(r.id)
        records.append(r.with_score(float(lookup[r.id])))
    from .cohort import child_manifest

    return Cohort(records=tuple(records), manifest=child_manifest(cohort.manifest, "hybrid_features"))


# -- JSON serialization ---------------------------------------------------------------


def model_to_json(model: TreeEnsemble) -> str:
    payload = {
        "n_trees": model.n_trees,
        "seed": model.seed,
        "m_try": model.m_try,
        "oob_accuracy": model.oob_accuracy,
        "trees": [{name: a.tolist() for name, a in tree.items()} for tree in model.trees],
        "encoding": None
        if model.encoding is None
        else {
            "sources": [list(s) for s in model.encoding.sources],
            "levels": {k: list(v) for k, v in model.encoding.levels.items()},
            "vector_dim": model.encoding.vector_dim,
            "dropped": list(model.encoding.dropped),
        },
    }
    return json.dumps(payload, sort_keys=True)


def model_from_json(text: str) -> TreeEnsemble:
    payload = json.loads(text)
    encoding = None
    if payload.get("encoding") is not None:
        e = payload["encoding"]
        encoding = FeatureEncoding(
            sources=tuple((n, k) for n, k in e["sources"]),
            levels={k: tuple(v) for k, v in e["levels"].items()},
            vector_dim=int(e["vector_dim"]),
            dropped=tuple(e["dropped"]),
        )
    return TreeEnsemble(
        n_trees=int(payload["n_trees"]),
        trees=[
            {name: np.asarray(tree[name], dtype=dtype) for name, dtype in TREE_ARRAYS.items()}
            for tree in payload["trees"]
        ],
        seed=int(payload["seed"]),
        m_try=int(payload["m_try"]),
        oob_accuracy=payload["oob_accuracy"],
        encoding=encoding,
    )
