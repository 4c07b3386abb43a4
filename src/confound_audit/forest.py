"""Bagged CART baseline classifiers.

The symptoms-and-demographics baseline is a bagging ensemble of CART trees
(Gini splits, sqrt(p) feature subsampling per split, bootstrap samples of
size n, no depth cap) with an out-of-bag accuracy estimate. "Default
settings" are pinned explicitly because defaults are implementation-relative:
100 trees, Gini impurity, sqrt(p) candidate features per split, bootstrap
resamples of size n, grown until pure.

All trees grow in lockstep (``_grow_trees``): each step takes the next
node of every tree and scores them together as one block. Each tree still
draws from its own (seed, tree index) stream in its own depth-first order,
so the trees are the ones grown one at a time. A tree's split candidates
come in chunks of many nodes from that stream (``_CandidateRows``), drawn
in the order per-node ``Generator.choice`` calls would draw them; nothing
draws from a tree's stream after its tree is grown.
Prediction and the out-of-bag pass route every (tree, row) pair at once
and add the scores up tree by tree, in order.

Models serialize to JSON (portable and diffable). A hybrid classifier is the
same ensemble with the audio score appended as one more numeric predictor.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .cohort import SYMPTOM_FIELDS, Cohort
from .errors import BadValue, EncodingMismatch, OneClassOnly
from .rngs import substream

DEFAULT_SYMPTOM_PREDICTORS = SYMPTOM_FIELDS[:8] + ("age", "gender", "smoker")
OPTIONAL_PREDICTORS = ("ethnicity", "first_language")


# -- feature encoding -------------------------------------------------------------


# every predictor name has one kind: the fixed names below, and any other
# name (gender, channel, an extra CSV column) is a one-hot categorical
_SOURCE_KINDS = {
    **dict.fromkeys(SYMPTOM_FIELDS, "bool"),
    "age": "numeric",
    "audio_score": "score",
    "features": "vector",
}


def _source_kind(name: str) -> str:
    return _SOURCE_KINDS.get(name, "categorical")


@dataclass(frozen=True)
class FeatureEncoding:
    """Stable record-to-design-matrix mapping.

    ``sources`` lists (name, kind) pairs in order; categorical sources carry
    their one-hot level list learned at build time. Unknown categorical
    levels at predict time encode as an all-zero block. A source that
    :func:`build_encoding` could not have produced (a kind other than its
    name's, a categorical without levels, a vector of no columns) raises
    ``EncodingMismatch``, so a hand-edited model file fails on load.
    """

    sources: tuple[tuple[str, str], ...]
    levels: dict[str, tuple[str, ...]] = field(default_factory=dict)
    vector_dim: int = 0
    dropped: tuple[str, ...] = ()

    def __post_init__(self):
        for name, kind in self.sources:
            if kind != _source_kind(name):
                raise EncodingMismatch(f"encoding source {name!r} has kind {kind!r}, not {_source_kind(name)!r}")
            levels = self.levels.get(name)
            if kind == "categorical" and not (levels and all(isinstance(v, str) for v in levels)):
                raise EncodingMismatch(f"encoding source {name!r} has no levels, or levels that are not strings")
            if kind == "vector" and self.vector_dim < 1:
                raise EncodingMismatch(f"encoding source {name!r} has vector_dim {self.vector_dim}, not >= 1")


def _categorical_values(cohort: Cohort, name: str) -> list[str]:
    if name in ("gender", "channel"):
        return [getattr(r, name) for r in cohort.records]
    return [r.other_covariates.get(name, "") for r in cohort.records]


def build_encoding(cohort: Cohort, predictors) -> FeatureEncoding:
    """Learn an encoding from a training cohort.

    ``OPTIONAL_PREDICTORS`` absent from the data are dropped (and recorded
    in ``dropped``) rather than raising.
    """
    if len(cohort) == 0:
        raise EncodingMismatch("cannot build an encoding from an empty cohort")
    probe = cohort.records[0]
    sources: list[tuple[str, str]] = []
    dropped: list[str] = []
    levels: dict[str, tuple[str, ...]] = {}
    vector_dim = 0
    for name in predictors:
        kind = _source_kind(name)
        if kind == "categorical" and name not in ("gender", "channel") and name not in probe.other_covariates:
            if name in OPTIONAL_PREDICTORS:
                dropped.append(name)
                continue
            raise EncodingMismatch(f"unknown predictor {name!r}")
        sources.append((name, kind))
        if kind == "categorical":
            levels[name] = tuple(sorted(set(_categorical_values(cohort, name))))
        elif kind == "vector":
            if probe.features is None:
                raise EncodingMismatch("records lack feature vectors")
            vector_dim = int(probe.features.shape[0])
    return FeatureEncoding(
        sources=tuple(sources), levels=levels, vector_dim=vector_dim, dropped=tuple(dropped)
    )


def encode_cohort(cohort: Cohort, encoding: FeatureEncoding) -> np.ndarray:
    """The design matrix: one block of columns per source, in source order.

    A missing score or feature vector raises through the cohort's array
    accessors; a blank flag or age the encoding uses raises
    ``EncodingMismatch`` naming the first record that has it.
    """
    records = cohort.records
    blocks = [np.empty((len(records), 0))]
    for name, kind in encoding.sources:
        if kind == "bool":
            for r in records:
                if name in r.symptoms.missing:
                    raise EncodingMismatch(f"record {r.id} has a blank {name!r} flag")
            flags = np.array([getattr(r.symptoms, name) for r in records], dtype=bool)
            blocks.append(flags.astype(float)[:, None])
        elif kind == "numeric":
            ages = [r.age_years for r in records]
            if None in ages:
                raise EncodingMismatch(f"record {records[ages.index(None)].id} lacks age")
            blocks.append(np.array(ages, dtype=float)[:, None])
        elif kind == "score":
            blocks.append(cohort.scores()[:, None])
        elif kind == "categorical":
            levels = encoding.levels[name]
            code = {lvl: j for j, lvl in enumerate(levels)}
            codes = np.array([code.get(v, -1) for v in _categorical_values(cohort, name)], dtype=int)
            blocks.append((codes[:, None] == np.arange(len(levels))).astype(float))
        else:  # vector
            x = cohort.feature_matrix()
            if x.shape[1] != encoding.vector_dim:
                raise EncodingMismatch(f"cohort has {x.shape[1]} features, the encoding {encoding.vector_dim}")
            blocks.append(x)
    return np.concatenate(blocks, axis=1)


# -- CART trees --------------------------------------------------------------------


# a tree is one array per node field, indexed by node number; -1 marks
# "none" (a leaf's feature and children, an inner node's leaf_frac)
TREE_ARRAYS = {"feature": int, "threshold": float, "left": int, "right": int, "leaf_frac": float}

# nodes are scored in blocks of at most this many concatenated columns (a
# larger node is a block by itself), which bounds the block's temporaries;
# on the bias-demo matrix, 4096 fits as fast as 16384 with a smaller peak
_BLOCK_COLUMNS = 4096
# (tree, row) pairs routed at once, which bounds the routing temporaries
_ROUTE_PAIRS = 1 << 14
# nodes whose split candidates a tree draws in one numpy call; a bias-demo
# tree has ~330 nodes to split, and the buffer of all trees' chunks stays
# under 1 MB there (50 trees x 256 nodes x 3 candidates x 8 bytes)
_CANDIDATE_CHUNK = 256


def _floyd_rows(rng: np.random.Generator, p: int, m: int, k: int) -> np.ndarray:
    """The sorted rows of ``k`` successive ``rng.choice(p, size=m,
    replace=False)`` calls, drawn in one call that leaves ``rng`` where
    those calls would.

    Valid where numpy's ``choice`` runs Floyd's algorithm: p <= 10000 or
    m <= p // 50. Each call then makes one bounded draw in [0, j] for each
    j in p-m ... p-1 (a draw equal to an earlier pick of the call becomes
    j), then shuffles its picks with one bounded draw in [0, i] for each i
    in m-1 ... 1. ``Generator.integers`` with an array of bounds makes the
    same bounded draws in the same order. ``fit_forest``'s m = round(sqrt(p))
    never leaves that range: numpy's other branch needs p > 10000 and
    m > p // 50, which sqrt(p) reaches only for p < 2500.
    """
    bounds = np.concatenate((np.arange(p - m, p), np.arange(m - 1, 0, -1)))
    picks = rng.integers(0, np.tile(bounds, k), endpoint=True).reshape(k, bounds.size)[:, :m]
    for s in range(1, m):
        picks[(picks[:, :s] == picks[:, s : s + 1]).any(axis=1), s] = p - m + s
    picks.sort(axis=1)
    return picks


class _CandidateRows:
    """Each tree's sorted split candidates, drawn ``_CANDIDATE_CHUNK`` nodes
    at a time from the tree's own ``rng`` by ``_floyd_rows``. A chunk draws
    ahead of the nodes that use it, so each ``rng`` ends past where one
    ``choice`` call per node would leave it.
    """

    def __init__(self, rngs: list, p: int, m: int):
        self.rngs, self.p, self.m = rngs, p, m
        self.rows = np.empty((len(rngs), _CANDIDATE_CHUNK, m), dtype=np.int64)
        # every tree starts on a used-up chunk, so a tree whose root is a
        # leaf draws nothing
        self.taken = np.full(len(rngs), _CANDIDATE_CHUNK)

    def take(self, trees: np.ndarray) -> np.ndarray:
        """The next candidate row of each of the distinct ``trees``."""
        for t in trees[self.taken[trees] == _CANDIDATE_CHUNK].tolist():
            self.rows[t] = _floyd_rows(self.rngs[t], self.p, self.m, _CANDIDATE_CHUNK)
            self.taken[t] = 0
        rows = self.rows[trees, self.taken[trees]]
        self.taken[trees] += 1
        return rows


def _best_cuts(xt: np.ndarray, y: np.ndarray, orders: list, rows: np.ndarray, pos: np.ndarray) -> tuple:
    """Score every cut of every node's candidate features as one block.

    ``orders`` holds each node's (p, size) matrix of presorted row ids,
    ``rows`` its candidate features (ascending, one row per node), ``pos``
    its positive counts and ``y`` the 0/1 labels as floats. The nodes' (r,
    size) blocks are concatenated into one (r, sum of sizes) block. A global
    cumulative sum minus each segment's base gives the positives left of
    each cut as the same integer-valued floats, and the Gini expression is
    elementwise, so every impurity has the bits a node scored alone has.
    Returns, per node, whether any cut exists, the feature, the cut
    position j in its sorted row, the positives left of the cut, the value
    left of the cut and the threshold.
    """
    sizes = np.array([o.shape[1] for o in orders])
    starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
    ends = starts + sizes - 1
    width = int(sizes.sum())
    idx = np.concatenate([o.take(r, axis=0) for o, r in zip(orders, rows)], axis=1)
    xs = xt.ravel().take(idx + np.repeat(rows.T * xt.shape[1], sizes, axis=1))
    lp = y.take(idx).cumsum(axis=1)  # positives up to each column, exact in float
    base = np.zeros((lp.shape[0], sizes.size))
    base[:, 1:] = lp[:, ends[:-1]]
    lp -= np.repeat(base, sizes, axis=1)
    ln = np.arange(1.0, width + 1.0) - np.repeat(starts, sizes)
    rn = np.repeat(sizes, sizes) - ln
    rn[ends] = 1.0  # no cut after a segment's last position; keep 0/0 out
    rp = np.repeat(pos, sizes) - lp
    # weighted Gini impurity, up to the constant factor 1/n_node
    imp = (ln - (lp * lp + (ln - lp) ** 2) / ln) + (rn - (rp * rp + (rn - rp) ** 2) / rn)
    imp[:, :-1][xs[:, 1:] == xs[:, :-1]] = np.inf  # cut only between distinct values
    imp[:, ends] = np.inf
    # the first minimum of each node in row-major order: lowest impurity,
    # then lowest feature, then lowest threshold
    row_min = np.minimum.reduceat(imp, starts, axis=1)
    node_min = row_min.min(axis=0)
    r = (row_min == node_min).argmax(axis=0)
    hits = np.flatnonzero(imp[np.repeat(r, sizes), np.arange(width)] == np.repeat(node_min, sizes))
    col = hits[np.searchsorted(hits, starts)]
    return (
        node_min < np.inf,
        rows[np.arange(sizes.size), r],
        col - starts,
        lp[r, col],
        xs[r, col],
        (xs[r, col] + xs[r, col + 1]) / 2.0,
    )


def _score_step(xt: np.ndarray, y: np.ndarray, orders: list, rows: np.ndarray, pos: np.ndarray) -> list:
    """``_best_cuts`` over consecutive blocks of at most ``_BLOCK_COLUMNS``
    columns; each output is concatenated back into one array per field."""
    parts, lo, width = [], 0, 0
    for i, o in enumerate(orders):
        if width and width + o.shape[1] > _BLOCK_COLUMNS:
            parts.append(_best_cuts(xt, y, orders[lo:i], rows[lo:i], pos[lo:i]))
            lo, width = i, 0
        width += o.shape[1]
    parts.append(_best_cuts(xt, y, orders[lo:], rows[lo:], pos[lo:]))
    return [np.concatenate(field) for field in zip(*parts)]


def _leaf_frac(pos: int, size: int) -> float:
    """A pure or single-record node's positive fraction; -1 for a node to split."""
    return pos / size if pos == 0 or pos == size or size < 2 else -1.0


def _grow_trees(xt: np.ndarray, y: np.ndarray, boots: list, rngs: list, m_try: int) -> list[dict]:
    """Grow one unpruned CART tree per bootstrap, all in lockstep; returns
    each tree's parallel node arrays.

    Split rule: go left when value <= threshold (thresholds are midpoints of
    consecutive distinct values). Ties in impurity resolve to the lowest
    feature index then lowest threshold, so regrowth is reproducible.

    Presorted CART (SLIQ, Mehta et al. 1996): each bootstrap (an array of
    original row ids) is argsorted once per feature and kept as a (p, n)
    matrix of those row ids, so no tree copies the data; values and labels
    are gathered from ``xt`` and ``y``. Each stack entry carries its node's
    (p, size) rows of that matrix. A split partitions them with one boolean mask (left when the
    split feature is <= the last value left of the cut); filtering keeps
    each row sorted, so no node sorts again. The order among tied values
    changes no count, cut or threshold, so the sort need not be stable.

    Trees are independent, so each step pops the top node of every
    non-empty stack, takes that node's ``m_try`` candidates from its own
    tree's ``rng`` and scores all popped nodes together (``_score_step``).
    When every candidate is constant on a node, all p features are scored
    the same way. Nodes are numbered depth-first, left child first, and each
    ``rng`` gives one candidate row per impure node in that order, as when
    the tree is grown alone. The rows come in chunks of many nodes per numpy
    call (``_CandidateRows``), with the draws per-node ``choice`` would make
    in its order. Each ``rng`` ends after its tree's last whole chunk, past
    where those calls would leave it, so the caller draws nothing more from it.
    """
    p = xt.shape[0]
    candidates = _CandidateRows(rngs, p, m_try)
    # per tree, one list per TREE_ARRAYS field: feature, threshold, left, right, leaf_frac
    trees = [tuple([] for _ in TREE_ARRAYS) for _ in boots]
    stacks: list[list] = []
    for (feature, threshold, left, right, leaf_frac), boot in zip(trees, boots):
        pos = int(y[boot].sum())
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_frac.append(_leaf_frac(pos, boot.size))
        stacks.append([(0, boot[np.argsort(xt[:, boot], axis=1)], pos)] if leaf_frac[0] < 0.0 else [])

    live = [t for t, stack in enumerate(stacks) if stack]
    while live:
        popped = [stacks[t].pop() for t in live]
        orders = [order for _, order, _ in popped]
        pos = np.array([node_pos for _, _, node_pos in popped], dtype=float)
        rows = candidates.take(np.array(live))
        best = _score_step(xt, y, orders, rows, pos)
        retry = np.flatnonzero(~best[0])
        if retry.size:
            every = np.broadcast_to(np.arange(p), (retry.size, p))
            for field, redone in zip(best, _score_step(xt, y, [orders[i] for i in retry], every, pos[retry])):
                field[retry] = redone
        del orders  # only ``popped`` holds the parents now

        found, split_feature, cut, left_pos, value, split_threshold = best
        for i, (t, ok, f, j, lp, v, thr) in enumerate(zip(
            live, found.tolist(), split_feature.tolist(), cut.tolist(), left_pos.astype(int).tolist(),
            value.tolist(), split_threshold.tolist(),
        )):
            (node, order, node_pos), popped[i] = popped[i], None  # free each parent once split
            feature, threshold, left, right, leaf_frac = trees[t]
            size = order.shape[1]
            if not ok:
                leaf_frac[node] = node_pos / size
                continue
            lnode = len(feature)
            feature[node] = f
            threshold[node] = thr
            left[node] = lnode
            right[node] = lnode + 1
            feature += (-1, -1)
            threshold += (0.0, 0.0)
            left += (-1, -1)
            right += (-1, -1)
            rp = node_pos - lp
            lfrac, rfrac = _leaf_frac(lp, j + 1), _leaf_frac(rp, size - j - 1)
            leaf_frac += (lfrac, rfrac)
            if lfrac >= 0.0 and rfrac >= 0.0:
                continue  # a pure or single-record child is a leaf already
            go_left = xt[f].take(order) <= v
            if rfrac < 0.0:
                stacks[t].append((lnode + 1, order[~go_left].reshape(p, -1), rp))
            if lfrac < 0.0:
                stacks[t].append((lnode, order[go_left].reshape(p, -1), lp))
        live = [t for t in live if stacks[t]]

    return [
        {name: np.array(values, dtype=dtype) for (name, dtype), values in zip(TREE_ARRAYS.items(), tree)}
        for tree in trees
    ]


def _flatten(trees: list[dict]) -> tuple:
    """All trees' node arrays end to end, children renumbered into the one
    array; returns them with each tree's root and the largest split
    feature (-1 when every tree is a single leaf)."""
    sizes = [tree["feature"].size for tree in trees]
    roots = np.concatenate(([0], np.cumsum(sizes[:-1]))).astype(np.intp)
    feature = np.concatenate([tree["feature"] for tree in trees])
    threshold = np.concatenate([tree["threshold"] for tree in trees])
    left = np.concatenate([tree["left"] + root for tree, root in zip(trees, roots)])
    right = np.concatenate([tree["right"] + root for tree, root in zip(trees, roots)])
    leaf_frac = np.concatenate([tree["leaf_frac"] for tree in trees])
    return (feature, threshold, left, right, leaf_frac), roots, int(feature.max())


def _route(flat: tuple, node: np.ndarray, row: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Leaf fraction reached by each (start node, row of ``x``) pair; every
    pair descends one level per step, all at once (``node`` is overwritten)."""
    feature, threshold, left, right, leaf_frac = flat
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        cur = node[active]
        go_left = x[row[active], feature[cur]] <= threshold[cur]
        nxt = np.where(go_left, left[cur], right[cur])
        node[active] = nxt
        active = active[feature[nxt] >= 0]
    return leaf_frac[node]


@dataclass
class TreeEnsemble:
    n_trees: int
    trees: list[dict]
    seed: int
    m_try: int
    oob_accuracy: float | None
    encoding: FeatureEncoding | None = None

    def predict_matrix(self, x: np.ndarray) -> np.ndarray:
        """Mean leaf fraction over the trees, added up tree by tree in order."""
        if not self.trees:
            raise EncodingMismatch("model has no trees")
        flat, roots, max_feature = _flatten(self.trees)
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] <= max_feature:
            raise EncodingMismatch(
                f"design matrix of shape {x.shape} does not cover split feature {max_feature}"
            )
        m = x.shape[0]
        out = np.zeros(m)
        step = max(1, _ROUTE_PAIRS // roots.size)
        for lo in range(0, m, step):
            rows = np.arange(lo, min(m, lo + step))
            leaves = _route(flat, np.repeat(roots, rows.size), np.tile(rows, roots.size), x)
            part = out[lo : lo + step]
            for tree_leaves in leaves.reshape(roots.size, rows.size):
                part += tree_leaves
        return out / len(self.trees)


def fit_forest(x: np.ndarray, y: np.ndarray, n_trees: int = 100, seed: int = 0) -> TreeEnsemble:
    """Fit the bagging ensemble on a finite design matrix and 0/1 labels.

    Per-tree RNG streams are derived from (seed, tree index). A design
    matrix that is not 2-D with at least one column, a label count other
    than its row count, a non-finite value or a label other than 0 and 1
    raises ``EncodingMismatch``.
    """
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[1] < 1:
        raise EncodingMismatch(f"design matrix must be 2-D with at least one column, not of shape {x.shape}")
    n, p = x.shape
    if y.shape != (n,):
        raise EncodingMismatch(f"{y.size} labels for a design matrix of {n} rows")
    if not np.isfinite(x).all():
        raise EncodingMismatch("design matrix has NaN or infinite values")
    if not np.isin(y, (0, 1)).all():
        raise EncodingMismatch("labels must be 0 or 1")
    y = y.astype(int)
    if not ((y == 1).any() and (y == 0).any()):
        raise OneClassOnly("training requires both classes")
    m_try = max(1, int(round(np.sqrt(p))))

    rngs = [substream(seed, "tree", t) for t in range(n_trees)]
    # row ids in the narrowest unsigned type that holds them
    boots = [rng.integers(0, n, size=n).astype(np.min_scalar_type(n - 1)) for rng in rngs]
    trees = _grow_trees(np.ascontiguousarray(x.T), y.astype(float), boots, rngs, m_try)

    # each tree scores only its out-of-bag rows, and the sums add up tree by tree
    oob_rows = [np.flatnonzero(np.bincount(boot, minlength=n) == 0) for boot in boots]
    del boots  # free the bootstraps before routing
    counts = [rows.size for rows in oob_rows]
    flat, roots, _ = _flatten(trees)
    node, row = np.repeat(roots, counts), np.concatenate(oob_rows)
    leaves = np.empty(node.size)
    for lo in range(0, node.size, _ROUTE_PAIRS):
        hi = lo + _ROUTE_PAIRS
        leaves[lo:hi] = _route(flat, node[lo:hi], row[lo:hi], x)
    oob_sum = np.zeros(n)
    oob_count = np.zeros(n)
    for rows, tree_leaves in zip(oob_rows, np.split(leaves, np.cumsum(counts[:-1]))):
        oob_sum[rows] += tree_leaves
        oob_count[rows] += 1
    covered = oob_count > 0
    oob_accuracy = None
    if covered.any():
        oob_pred = (oob_sum[covered] / oob_count[covered]) >= 0.5
        oob_accuracy = float(np.mean(oob_pred == (y[covered] == 1)))
    return TreeEnsemble(n_trees=n_trees, trees=trees, seed=seed, m_try=m_try, oob_accuracy=oob_accuracy)


def train_symptoms_model(
    train: Cohort,
    predictors=DEFAULT_SYMPTOM_PREDICTORS,
    n_trees: int = 100,
    seed: int = 0,
) -> TreeEnsemble:
    """Fit the symptoms/demographics baseline on a cohort."""
    encoding = build_encoding(train, predictors)
    x = encode_cohort(train, encoding)
    model = fit_forest(x, train.labels(), n_trees=n_trees, seed=seed)
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
    used as an additional numeric predictor: ``audio_scores`` holds one score
    per record, in record order. This is the one place scores are attached
    to a cohort (the pipeline and ``probe --scores`` use it too). The
    pipeline and the demos score a whole test cohort once and then match or
    resample it: selection keeps each record's score. A score that
    ``load_cohort`` would refuse (NaN, or outside [0, 1]) raises ``BadValue``
    with the record's 1-based position."""
    scores = np.asarray(audio_scores, dtype=float)
    if scores.shape != (len(cohort),):
        raise ValueError(f"need one audio score per record, got shape {scores.shape} for {len(cohort)} records")
    bad = np.flatnonzero(~((scores >= 0.0) & (scores <= 1.0)))
    if bad.size:
        raise BadValue(int(bad[0]) + 1, "score", float(scores[bad[0]]))
    return cohort.derive((r.with_score(v) for r, v in zip(cohort.records, scores.tolist())), "hybrid_features")


# -- JSON serialization ---------------------------------------------------------------


def model_to_json(model: TreeEnsemble) -> str:
    payload = {
        "n_trees": model.n_trees,
        "seed": model.seed,
        "m_try": model.m_try,
        "oob_accuracy": model.oob_accuracy,
        "trees": [{name: a.tolist() for name, a in tree.items()} for tree in model.trees],
        "encoding": None if model.encoding is None else asdict(model.encoding),
    }
    return json.dumps(payload, sort_keys=True)


# the keys every model file has; "encoding" may be absent or null
_MODEL_KEYS = ("n_trees", "seed", "m_try", "oob_accuracy", "trees")


def _tree_from_json(t: int, tree) -> dict:
    """Tree ``t`` of a model file as node arrays, checked so that every
    route ends at a leaf: the ``TREE_ARRAYS`` fields all present with one
    length, the integer fields JSON integers, every threshold finite, each
    inner node's children after it and inside the tree, and each leaf's
    ``leaf_frac`` in [0, 1]."""
    if not isinstance(tree, dict):
        raise EncodingMismatch(f"model tree {t} is not a JSON object")
    arrays = {}
    for name, dtype in TREE_ARRAYS.items():
        if name not in tree:
            raise EncodingMismatch(f"model tree {t} lacks {name!r}")
        try:
            arrays[name] = np.asarray(tree[name], dtype=dtype)
        except (TypeError, ValueError, OverflowError):
            raise EncodingMismatch(f"model tree {t} has a non-numeric {name!r}") from None
        if arrays[name].ndim != 1:
            raise EncodingMismatch(f"model tree {t} has a {name!r} that is not a list")
        # a cast to int would truncate 0.5 to 0
        if dtype is int and not all(type(v) is int for v in tree[name]):
            raise EncodingMismatch(f"model tree {t} has a non-integer {name!r}")
    n = arrays["feature"].size
    if n == 0:
        raise EncodingMismatch(f"model tree {t} has no nodes")
    for name, a in arrays.items():
        if a.size != n:
            raise EncodingMismatch(f"model tree {t} has {a.size} {name!r} entries for {n} nodes")
    if not np.isfinite(arrays["threshold"]).all():
        raise EncodingMismatch(f"model tree {t} has a 'threshold' that is not finite")
    inner = np.flatnonzero(arrays["feature"] >= 0)
    for name in ("left", "right"):
        child = arrays[name][inner]
        bad = (child <= inner) | (child >= n)
        if bad.any():
            i = int(np.argmax(bad))
            raise EncodingMismatch(
                f"model tree {t}: node {inner[i]} has {name!r} child {child[i]}, not in ({inner[i]}, {n})"
            )
    leaf = arrays["leaf_frac"][arrays["feature"] < 0]
    if not ((leaf >= 0.0) & (leaf <= 1.0)).all():
        raise EncodingMismatch(f"model tree {t} has a leaf whose 'leaf_frac' is not in [0, 1]")
    return arrays


def model_from_json(text: str) -> TreeEnsemble:
    """Read a model that :func:`model_to_json` wrote; a file that is not one
    raises ``EncodingMismatch`` naming the tree and the field at fault."""
    try:
        payload = json.loads(text)
    except ValueError:
        raise EncodingMismatch("model file is not valid JSON") from None
    if not isinstance(payload, dict):
        raise EncodingMismatch("model file is not a JSON object")
    for key in _MODEL_KEYS:
        if key not in payload:
            raise EncodingMismatch(f"model file lacks {key!r}")
    trees = payload["trees"]
    if not isinstance(trees, list) or not trees or payload["n_trees"] != len(trees):
        raise EncodingMismatch("model file's 'n_trees' is not the number of its 'trees' (at least 1)")
    trees = [_tree_from_json(t, tree) for t, tree in enumerate(trees)]
    try:
        seed, m_try = int(payload["seed"]), int(payload["m_try"])
        encoding = None
        if payload.get("encoding") is not None:
            e = payload["encoding"]
            encoding = FeatureEncoding(
                sources=tuple((n, k) for n, k in e["sources"]),
                levels={k: tuple(v) for k, v in e["levels"].items()},
                vector_dim=int(e["vector_dim"]),
                dropped=tuple(e["dropped"]),
            )
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
        raise EncodingMismatch("model file has a malformed 'seed', 'm_try' or 'encoding'") from None
    return TreeEnsemble(
        n_trees=len(trees),
        trees=trees,
        seed=seed,
        m_try=m_try,
        oob_accuracy=payload["oob_accuracy"],
        encoding=encoding,
    )
