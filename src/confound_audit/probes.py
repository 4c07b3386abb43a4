"""Unmeasured-confounder probes and their numerical substrate.

Two complementary probes interrogate whether a classifier's residual accuracy
on a class-balanced test set comes from signal genuinely tied to the positive
class or from variation that also lives among negatives:

* Weak-robust curation: project every record onto the leading principal
  components of the *negative* records only, train an intentionally
  under-capacity linear model in that k-dimensional space, and remove its
  correct classifications from a running curated set. A parallel calibration
  task (an easy two-class problem in the same feature space) determines the
  capacity threshold tau: the smallest k at which the weak model family is
  demonstrably strong enough to solve an easy task. Accuracy the main
  classifier loses on the curated set for k <= tau is attributed to
  confounding rather than to class signal.

* Nearest-neighbour substitution: give each positive record the score of its
  nearest negative neighbour in feature space. Accuracy that survives
  the substitution lives inside the negative-class feature span and is
  attributed to unmatched or unmeasured confounders, provided the chosen
  neighbours are many distinct records.

PCA is computed by eigendecomposition of the covariance matrix with a fixed
sign convention (the largest-magnitude coordinate of each component is made
positive) so probe outputs are bit-reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import ndtri

from .cohort import Cohort, vector_cohort
from .errors import ConfigError, EncodingMismatch, NoNegatives, OneClassOnly, RankDeficientWarning, TooFewSamples
from .metrics import ScoredLabels, auc, uar
from .rngs import substream

# -- principal components ------------------------------------------------------


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # rows orthonormal, ordered by explained variance

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def pca_fit(features: np.ndarray, n_components: int) -> PcaModel:
    """Centered PCA via covariance eigendecomposition.

    Components whose variance is numerically zero are not returned: if the
    data's rank cannot support ``n_components``, the model is truncated and a
    ``RankDeficientWarning`` is emitted.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    n, d = x.shape
    if n < n_components + 1:
        raise ValueError(f"need at least n_components+1={n_components + 1} records, have {n}")
    if not (1 <= n_components <= d):
        raise ValueError("n_components must lie in [1, feature_dim]")

    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]

    tol = max(eigvals[0], 1.0) * 1e-12
    rank = int(np.sum(eigvals > tol))
    k = n_components
    if rank < n_components:
        warnings.warn(
            f"requested {n_components} components but data rank is {rank}; truncating",
            RankDeficientWarning,
        )
        k = max(rank, 1)

    components = eigvecs[:, :k].T.copy()
    for i in range(k):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]
    return PcaModel(mean=mean, components=components)


def pca_project(model: PcaModel, features: np.ndarray) -> np.ndarray:
    return (np.asarray(features, dtype=float) - model.mean) @ model.components.T


# -- weak linear classifier -----------------------------------------------------


@dataclass(frozen=True)
class WeakModel:
    """Linear max-margin classifier on standardized inputs."""

    feature_mean: np.ndarray
    feature_scale: np.ndarray
    weights: np.ndarray
    bias: float

    def decision(self, features: np.ndarray) -> np.ndarray:
        z = (np.asarray(features, dtype=float) - self.feature_mean) / self.feature_scale
        return z @ self.weights + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.decision(features) >= 0.0).astype(int)


def train_weak_linear(features: np.ndarray, labels: np.ndarray, l2: float = 1.0,
                      n_iter: int = 200) -> WeakModel:
    """Deterministic full-batch subgradient descent on L2-regularized hinge
    loss, after per-column standardization.

    The update is order-independent (a full-batch sum), initialization is
    zero, and the step schedule is fixed, so identical inputs always yield the
    identical model; flipping every label exactly negates the decision
    function. This is the one-model case of ``_train_weak_prefixes``, the
    lockstep kernel the weak-robust probe uses.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError("features and labels must align")
    return _train_weak_prefixes(x, labels, (x.shape[1],), l2, n_iter)[0]


def _train_weak_prefixes(features: np.ndarray, labels: np.ndarray, ks, l2: float = 1.0,
                         n_iter: int = 200) -> list[WeakModel]:
    """One weak model per column prefix ``features[:, :k]``, k in ``ks``,
    trained in lockstep: ``n_iter`` steps in all, not ``n_iter`` per model.

    Each model gets the bits a separate fit on its prefix gets, because every
    sum keeps that fit's order:
    - mean, scale and the standardized copy are computed from the prefix view;
    - margins stay one matvec per model; a one-column model's matvec is a
      product, which differs at most in the sign of a zero margin, and
      ``margin < 1`` cannot see that;
    - the bias gradient is (violating positives - violating negatives) / n,
      and ``viol @ y`` sums those +-1 terms exactly in any order;
    - a one-column model sums its gathered violators (pairwise, as numpy sums
      a 1-D array);
    - wider models share one row-by-row reduction over their stacked
      ``y * z`` columns, masked by each column's model. A masked-out row adds
      nothing; at most the sign of a zero sum changes, which no update of a
      weight can see.

    A model whose violator set is the one of the step before keeps its hinge
    and bias sums: a sum over the same rows, in the same order, of the same
    values has the same bits. Only the stacked columns from the first to the
    last wide model whose set moved are reduced again, and a one-column model
    is summed again only when its own set moved. A cohort whose sets settle
    reuses most sums; one whose sets all move each step reduces all columns.

    Weights and biases share one vector, updated by one expression whose
    per-entry penalty is ``l2`` for a weight and 0 for a bias. For a bias that
    gives ``0 * b - s / n`` in place of ``-s / n``: equal except in the sign
    of a zero, and a bias, which starts at +0, never becomes -0.
    """
    x = np.asarray(features, dtype=float)
    y01 = np.asarray(labels, dtype=int)
    if x.ndim != 2 or x.shape[0] != y01.size:
        raise ValueError("features and labels must align")
    if not ((y01 == 1).any() and (y01 == 0).any()):
        raise OneClassOnly("weak model training needs both classes")
    y = 2.0 * y01 - 1.0
    n, m = x.shape[0], len(ks)

    stats, zs = [], []
    for k in ks:
        xk = x[:, :k]
        mean = xk.mean(axis=0)
        scale = xk.std(axis=0)
        scale[scale == 0.0] = 1.0
        stats.append((mean, scale))
        zs.append((xk - mean) / scale)

    # parameter layout: the wide models' weights in model order, then the
    # one-column models' weights, then the m biases
    order = sorted(range(m), key=lambda j: ks[j] == 1)
    widths = [ks[j] for j in order]
    ends = np.cumsum(widths)
    n_w = int(ends[-1])
    n_wide = sum(k for k in widths if k != 1)
    spans = [slice(0, 0)] * m
    for j, k, e in zip(order, widths, ends):
        spans[j] = slice(e - k, e)
    yz = y[:, None] * np.concatenate([zs[j] for j in order], axis=1)  # multiplying by +-1 is exact
    wide_model = np.repeat(order, widths)[:n_wide]
    wide_yz = np.ascontiguousarray(yz[:, :n_wide])  # C order: reduced row by row
    single = [(j, spans[j].start, yz[:, spans[j].start].copy()) for j in range(m) if ks[j] == 1]

    penalty = np.zeros(n_w + m)
    penalty[:n_w] = l2
    wb = np.zeros(n_w + m)  # updated in place, so the views below stay live
    sums = np.zeros(n_w + m)  # hinge sums, then bias sums, over the sets in ``last``
    margin = np.empty((m, n))
    margin_ops = [(np.multiply, z[:, 0], wb[span], row) if z.shape[1] == 1 else (np.matmul, z, wb[span], row)
                  for z, span, row in zip(zs, spans, margin)]
    bias, bias_sums = wb[n_w:, None], sums[n_w:]
    viol = np.empty((m, n), dtype=bool)
    last = np.zeros((m, n), dtype=bool)  # no violators: every sum is 0
    moved = np.empty((m, n), dtype=bool)
    mask = np.empty((n_wide, n), dtype=bool)
    for t in range(1, n_iter + 1):
        eta = 1.0 / (l2 * t)
        for op, z, w, row in margin_ops:
            op(z, w, out=row)
        margin += bias
        margin *= y
        np.less(margin, 1.0, out=viol)
        moved_models = np.not_equal(viol, last, out=moved).any(axis=1)
        if moved_models.any():
            np.matmul(viol, y, out=bias_sums)
            at = np.flatnonzero(moved_models[wide_model])
            if at.size:
                cols = slice(at[0], at[-1] + 1)
                np.take(viol, wide_model[cols], axis=0, out=mask[cols])
                np.add.reduce(wide_yz[:, cols], axis=0, where=mask[cols].T, out=sums[cols])
            for j, col, yz_col in single:
                if moved_models[j]:
                    sums[col] = yz_col[np.flatnonzero(viol[j])].sum()
        viol, last = last, viol
        wb -= eta * (penalty * wb - sums / n)
    return [
        WeakModel(feature_mean=mean, feature_scale=scale, weights=wb[span].copy(), bias=float(wb[n_w + j]))
        for j, ((mean, scale), span) in enumerate(zip(stats, spans))
    ]


# -- probe configuration and results ---------------------------------------------


@dataclass(frozen=True)
class WeakProbeConfig:
    k_max: int = 10
    calibration_uar_threshold: float = 0.8
    seed: int = 0
    distance: str = "euclidean"  # or "manhattan"
    nn_auc_threshold: float = 0.55
    nn_min_distinct_fraction: float = 0.10

    def __post_init__(self):
        """Raise ``ConfigError`` naming the first field out of its range."""
        if self.k_max < 1:
            raise ConfigError("k_max", "must be >= 1")
        if not (0.5 < self.calibration_uar_threshold < 1.0):
            raise ConfigError("calibration_uar_threshold", "must lie in (0.5, 1)")
        if self.distance not in ("euclidean", "manhattan"):
            raise ConfigError("distance", "must be euclidean or manhattan")


@dataclass(frozen=True)
class ProbeResult:
    ks: tuple[int, ...] = ()
    weak_uar_matched: tuple[float, ...] = ()
    weak_uar_calibration: tuple[float, ...] = ()
    tau: int | None = None
    removed_ids_per_k: tuple[tuple[str, ...], ...] = ()
    curated_auc_per_k: tuple[float | None, ...] = ()
    uncurated_auc: float | None = None
    curated_auc_at_tau: float | None = None
    curated_size_per_k: tuple[int, ...] = ()
    # nearest-neighbour probe outputs
    distinct_neighbours: int | None = None
    pre_auc: float | None = None
    post_auc: float | None = None
    attribution_flag: bool | None = None

    def to_dict(self) -> dict:
        return {
            "ks": list(self.ks),
            "weak_uar_matched": list(self.weak_uar_matched),
            "weak_uar_calibration": list(self.weak_uar_calibration),
            "tau": self.tau,
            "removed_per_k": [len(r) for r in self.removed_ids_per_k],
            "curated_auc_per_k": list(self.curated_auc_per_k),
            "curated_size_per_k": list(self.curated_size_per_k),
            "uncurated_auc": self.uncurated_auc,
            "curated_auc_at_tau": self.curated_auc_at_tau,
            "distinct_neighbours": self.distinct_neighbours,
            "pre_auc": self.pre_auc,
            "post_auc": self.post_auc,
            "attribution_flag": self.attribution_flag,
        }


def weak_robust_curate(matched: Cohort, calibration: Cohort, cfg: WeakProbeConfig) -> ProbeResult:
    """Run the weak-model curation probe.

    For each k = 1..k_max, records are projected onto the first k principal
    components of the negative records only; a weak linear model is fitted
    and its correct classifications are removed from the running curated set.
    The same projection is applied to the calibration cohort to find tau, the
    smallest k whose calibration UAR exceeds the configured threshold. The
    main classifier's AUC is re-evaluated on the curated set after each k.

    A weak model that predicts a single class is degenerate (it discriminates
    nothing) and triggers no removals at that k. If the calibration task
    never passes, tau is None and no attribution region is reported. The
    k_max models of each cohort are trained in lockstep by one call of
    ``_train_weak_prefixes``. A calibration cohort whose feature width is
    not the matched cohort's raises ``EncodingMismatch``. The PCA fits
    min(k_max, feature dim) components, so fewer negatives than one more
    than that raise ``TooFewSamples``.
    """
    y = matched.labels()
    if not ((y == 1).any() and (y == 0).any()):
        raise OneClassOnly("matched cohort needs both classes")
    x = matched.feature_matrix()
    xc = calibration.feature_matrix()
    if xc.shape[1] != x.shape[1]:
        raise EncodingMismatch(f"calibration cohort has {xc.shape[1]} features, the matched cohort {x.shape[1]}")
    yc = calibration.labels()
    scores = matched.scores()
    ids = matched.ids()

    k_cap = min(cfg.k_max, x.shape[1])
    n_neg = int((y == 0).sum())
    if n_neg < k_cap + 1:
        raise TooFewSamples(f"{k_cap} principal components of the negatives need at least {k_cap + 1} negatives, "
                            f"have {n_neg}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficientWarning)
        pca = pca_fit(x[y == 0], n_components=k_cap)
    k_cap = pca.n_components
    z_all = pca_project(pca, x)
    z_cal = pca_project(pca, xc)

    ks = range(1, k_cap + 1)
    models = _train_weak_prefixes(z_all, y, ks)
    cal_models = _train_weak_prefixes(z_cal, yc, ks)
    curated = np.ones(len(ids), dtype=bool)
    uar_m, uar_c, removed_per_k, curated_auc, curated_sizes = [], [], [], [], []
    tau = None
    uncurated_auc = auc(ScoredLabels(scores, y))
    for k, weak, weak_cal in zip(ks, models, cal_models):
        preds = weak.predict(z_all[:, :k])
        uar_matched = uar(preds, y)

        uar_calib = uar(weak_cal.predict(z_cal[:, :k]), yc)
        if tau is None and uar_calib > cfg.calibration_uar_threshold:
            tau = k

        if preds.min() == preds.max():
            newly_removed: tuple[str, ...] = ()
        else:
            removed = (preds == y) & curated
            newly_removed = tuple(ids[i] for i in np.flatnonzero(removed))
            curated &= ~removed

        kept_at = np.flatnonzero(curated)
        kept = y[kept_at]
        if (kept == 1).any() and (kept == 0).any():
            cur_auc = auc(ScoredLabels(scores[kept_at], kept))
        else:
            cur_auc = None

        uar_m.append(float(uar_matched))
        uar_c.append(float(uar_calib))
        removed_per_k.append(newly_removed)
        curated_auc.append(cur_auc)
        curated_sizes.append(int(kept.size))

    return ProbeResult(
        ks=tuple(ks),
        weak_uar_matched=tuple(uar_m),
        weak_uar_calibration=tuple(uar_c),
        tau=tau,
        removed_ids_per_k=tuple(removed_per_k),
        curated_auc_per_k=tuple(curated_auc),
        curated_size_per_k=tuple(curated_sizes),
        uncurated_auc=float(uncurated_auc),
        curated_auc_at_tau=(curated_auc[tau - 1] if tau is not None else None),
    )


# the most distances that one block of nearest-neighbour search holds
_NN_DISTANCES = 2**18


def nn_substitute(matched: Cohort, cfg: WeakProbeConfig) -> ProbeResult:
    """Give each positive record the score of its nearest negative
    neighbour, then re-evaluate.

    Distances are computed in feature space with the configured metric; ties
    resolve to the lowest record index. Negative records are untouched. The
    attribution flag is raised when the post-substitution AUC exceeds the
    configured threshold and the chosen neighbours are many distinct records.
    """
    y = matched.labels()
    if not (y == 0).any():
        raise NoNegatives("substitution requires negative records")
    x = matched.feature_matrix()

    pos_idx = np.nonzero(y == 1)[0]
    neg_idx = np.nonzero(y == 0)[0]
    metric = "cityblock" if cfg.distance == "manhattan" else "euclidean"
    nearest = np.empty(pos_idx.size, dtype=int)
    x_neg = x[neg_idx]
    # each row's distances and argmin do not depend on its block
    chunk = max(1, _NN_DISTANCES // neg_idx.size)
    for start in range(0, pos_idx.size, chunk):
        block = pos_idx[start : start + chunk]
        nearest[start : start + chunk] = np.argmin(cdist(x[block], x_neg, metric=metric), axis=1)

    pre_scores = matched.scores()
    post_scores = pre_scores.copy()
    post_scores[pos_idx] = pre_scores[neg_idx[nearest]]

    pre_auc = auc(ScoredLabels(pre_scores, y))
    post_auc = auc(ScoredLabels(post_scores, y))
    distinct = int(np.unique(nearest).size)
    frac = distinct / max(1, pos_idx.size)
    flag = bool(
        post_auc > cfg.nn_auc_threshold
        and distinct >= 2
        and frac >= cfg.nn_min_distinct_fraction
    )
    return ProbeResult(
        distinct_neighbours=distinct,
        pre_auc=float(pre_auc),
        post_auc=float(post_auc),
        attribution_flag=flag,
    )


# -- default calibration task ------------------------------------------------------


def make_calibration_cohort(feature_dim: int, n_per_class: int = 300, seed: int = 0) -> Cohort:
    """Synthetic easy two-class task in the given feature space.

    The classes are unit-variance Gaussians separated along one random
    direction by 2 * Phi^{-1}(0.99), so an unconstrained linear classifier
    reaches 99% accuracy at full dimension while a rank-limited one must
    recover the direction first.
    """
    rng = substream(seed, "calibration")
    direction = rng.normal(size=feature_dim)
    direction /= np.linalg.norm(direction)
    separation = 2.0 * ndtri(0.99)
    x = np.concatenate([
        (separation / 2.0) * direction * sign + rng.normal(size=(n_per_class, feature_dim)) for sign in (-1.0, 1.0)
    ])
    return vector_cohort(x, np.repeat([0, 1], n_per_class), "cal")
