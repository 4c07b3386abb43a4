"""Accuracy, inference, and uncertainty statistics.

ROC machinery uses the Mann-Whitney pairwise definition of AUC throughout:
ties between a positive and a negative score count one half. Confidence
intervals come in two flavours, the Hanley-McNeil normal approximation and
the DeLong structural-components estimator; the latter also powers the paired
two-classifier test. Every rank statistic is built from midranks
(``scipy.stats.rankdata``), so AUCs, DeLong placements and U statistics are
exact half-integer counts divided once, in O(N log N). Small-sample
Mann-Whitney p-values are exact: size-m subsets of the pooled midranks are
counted by their rank sum.

All functions are pure and deterministic; nothing here consumes an RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm, rankdata

from .errors import (
    DegenerateTable,
    EmptyGroup,
    LabelMismatch,
    NoEligibleStrata,
    NotAProbabilityRow,
    OneClassOnly,
    TooFewSamples,
    TooLargeForExact,
)

EXACT_MWU_LIMIT = 20


@dataclass(frozen=True)
class ScoredLabels:
    """Aligned score/label arrays with both-class bookkeeping."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if scores.shape != labels.shape or scores.ndim != 1 or scores.size < 1:
            raise ValueError("scores and labels must be equal-length 1-D sequences")
        if not np.all((labels == 0) | (labels == 1)):
            raise ValueError("labels must be binary")
        if np.isnan(scores).any():
            raise ValueError("scores must not be NaN")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

    @property
    def pos(self) -> np.ndarray:
        return self.scores[self.labels == 1]

    @property
    def neg(self) -> np.ndarray:
        return self.scores[self.labels == 0]

    def require_both_classes(self) -> None:
        if self.pos.size == 0 or self.neg.size == 0:
            raise OneClassOnly("need at least one positive and one negative")


@dataclass(frozen=True)
class OperatingPoint:
    threshold: float
    sensitivity: float
    specificity: float


@dataclass(frozen=True)
class RocCurve:
    """Operating points swept over every distinct threshold.

    Points are stored in increasing-threshold order (predict positive when
    score >= threshold), so sensitivity is nonincreasing and specificity
    nondecreasing along the sequence; the corners (1, 0) and (0, 1) are the
    first and last points.
    """

    thresholds: np.ndarray
    sensitivities: np.ndarray
    specificities: np.ndarray

    @property
    def points(self) -> list[OperatingPoint]:
        return [
            OperatingPoint(float(t), float(se), float(sp))
            for t, se, sp in zip(self.thresholds, self.sensitivities, self.specificities)
        ]

    def area(self) -> float:
        # integrate along the curve (descending threshold => ascending FPR)
        fpr = (1.0 - self.specificities)[::-1]
        return float(np.trapezoid(self.sensitivities[::-1], fpr))


def roc_curve(data: ScoredLabels) -> RocCurve:
    data.require_both_classes()
    thresholds = np.unique(data.scores)  # ascending
    pos = np.sort(data.pos)
    neg = np.sort(data.neg)
    m, n = pos.size, neg.size
    sens = (m - np.searchsorted(pos, thresholds, side="left")) / m
    spec = np.searchsorted(neg, thresholds, side="left") / n
    return RocCurve(
        thresholds=np.append(thresholds, np.inf),
        sensitivities=np.append(sens, 0.0),  # final point: nothing predicted positive
        specificities=np.append(spec, 1.0),
    )


def auc(data: ScoredLabels) -> float:
    """Mann-Whitney AUC: mean over all (pos, neg) pairs of 1[p>n] + 0.5*1[p=n],
    from the positives' midrank sum."""
    data.require_both_classes()
    m = data.pos.size
    n = data.neg.size
    ranks = rankdata(data.scores)
    rank_sum = float(np.sum(ranks[data.labels == 1]))
    return (rank_sum - m * (m + 1) / 2.0) / (m * n)


def _psi_components(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-positive and per-negative placement components.

    v_pos[i] = mean_j psi(pos_i, neg_j) and v_neg[j] = mean_i psi(pos_i, neg_j)
    with psi = 1, 1/2, 0 for >, =, <; both means equal the AUC.

    Placements come from midranks (Sun & Xu 2014): a score's pooled midrank
    minus its midrank within its own class is the number of other-class
    scores below it plus half the number tied with it. That half-integer
    count is exact, so each component is one division, in O(N log N).
    """
    is_pos = labels == 1
    pooled = rankdata(scores)
    neg_below_pos = pooled[is_pos] - rankdata(scores[is_pos])
    pos_below_neg = pooled[~is_pos] - rankdata(scores[~is_pos])
    m, n = neg_below_pos.size, pos_below_neg.size
    return neg_below_pos / n, (m - pos_below_neg) / m


@dataclass(frozen=True)
class HanleyMcNeilDetail:
    q1: float
    q2: float
    se: float
    n_pos: int
    n_neg: int


@dataclass(frozen=True)
class ConfidenceInterval:
    estimate: float
    lower: float
    upper: float
    level: float = 0.95
    method: str = "delong"
    clipped: bool = False
    detail: HanleyMcNeilDetail | None = None


def _normal_interval(est: float, se: float, level: float, method: str, detail=None) -> ConfidenceInterval:
    z = norm.ppf(0.5 + level / 2.0)
    lo, hi = est - z * se, est + z * se
    clipped = lo < 0.0 or hi > 1.0
    return ConfidenceInterval(
        estimate=est,
        lower=max(0.0, lo),
        upper=min(1.0, hi),
        level=level,
        method=method,
        clipped=clipped,
        detail=detail,
    )


def auc_ci(data: ScoredLabels, method: str = "delong", level: float = 0.95) -> ConfidenceInterval:
    """AUC confidence interval, clipped to [0, 1] (the ``clipped`` field
    records whether clipping occurred).

    hanley_mcneil:  SE^2 = [A(1-A) + (m-1)(Q1-A^2) + (n-1)(Q2-A^2)] / (mn)
                    with Q1 = A/(2-A), Q2 = 2A^2/(1+A).
    delong:         SE^2 = S10/m + S01/n from the structural components.
    """
    data.require_both_classes()
    m, n = data.pos.size, data.neg.size
    estimate = auc(data)
    if method == "hanley_mcneil":
        a = estimate
        q1 = a / (2.0 - a)
        q2 = 2.0 * a * a / (1.0 + a)
        var = (a * (1.0 - a) + (m - 1) * (q1 - a * a) + (n - 1) * (q2 - a * a)) / (m * n)
        se = math.sqrt(max(0.0, var))
        detail = HanleyMcNeilDetail(q1=q1, q2=q2, se=se, n_pos=m, n_neg=n)
        return _normal_interval(estimate, se, level, method, detail)
    if method == "delong":
        if m < 2 or n < 2:
            raise TooFewSamples("DeLong variance needs at least 2 records per class")
        v_pos, v_neg = _psi_components(data.scores, data.labels)
        var = np.var(v_pos, ddof=1) / m + np.var(v_neg, ddof=1) / n
        return _normal_interval(estimate, math.sqrt(max(0.0, var)), level, method)
    raise ValueError(f"unknown CI method {method!r}")


def delong_test(a: ScoredLabels, b: ScoredLabels) -> dict:
    """Paired DeLong test for two classifiers scored on the same labels.

    Returns the signed z statistic (positive when the first classifier's AUC
    is larger) and the two-sided p-value. Identical score vectors give z=0,
    p=1.
    """
    if not np.array_equal(a.labels, b.labels):
        raise LabelMismatch("paired comparison requires the identical label sequence")
    a.require_both_classes()
    m, n = a.pos.size, a.neg.size
    if m < 2 or n < 2:
        raise TooFewSamples("DeLong variance needs at least 2 records per class")
    vpa, vna = _psi_components(a.scores, a.labels)
    vpb, vnb = _psi_components(b.scores, b.labels)
    auc_a, auc_b = float(np.mean(vpa)), float(np.mean(vpb))
    var = np.var(vpa - vpb, ddof=1) / m + np.var(vna - vnb, ddof=1) / n
    if var <= 0.0:
        if auc_a == auc_b:
            return {"z": 0.0, "p": 1.0, "auc_a": auc_a, "auc_b": auc_b}
        z_inf = math.inf if auc_a > auc_b else -math.inf
        return {"z": z_inf, "p": 0.0, "auc_a": auc_a, "auc_b": auc_b}
    z = (auc_a - auc_b) / math.sqrt(var)
    return {"z": float(z), "p": float(2.0 * norm.sf(abs(z))), "auc_a": auc_a, "auc_b": auc_b}


def pr_auc(data: ScoredLabels) -> float:
    """Average precision (step interpolation): sum over distinct thresholds of
    (recall increment) * (precision at that threshold)."""
    data.require_both_classes()
    order = np.argsort(-data.scores, kind="stable")
    scores = data.scores[order]
    labels = data.labels[order]
    n_pos = int(labels.sum())
    tp = np.cumsum(labels)
    k = np.arange(1, scores.size + 1)
    # last index of each distinct-score block
    boundary = np.nonzero(np.append(scores[1:] != scores[:-1], True))[0]
    precision = tp[boundary] / k[boundary]
    recall = tp[boundary] / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


def uar(predictions, labels) -> float:
    """Unweighted average recall: (sensitivity + specificity) / 2."""
    predictions = np.asarray(predictions, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must align")
    if not ((labels == 1).any() and (labels == 0).any()):
        raise OneClassOnly("labels contain a single class")
    sens = float(np.mean(predictions[labels == 1] == 1))
    spec = float(np.mean(predictions[labels == 0] == 0))
    return (sens + spec) / 2.0


@dataclass(frozen=True)
class TableStats:
    phi: float
    mi: float  # nats
    sensitivity: float
    specificity: float
    auc: float

    def mi_bits(self) -> float:
        return self.mi / math.log(2.0)


def table_2x2_stats(joint) -> TableStats:
    """Statistics of a 2x2 predictor-by-label table.

    ``joint[z][y]`` holds the count or probability of predictor value ``z``
    and label ``y`` (both indexed 0/1). Counts and probabilities are treated
    identically; ratios are formed before any normalization so that integer
    tables produce exactly-rounded results.
    """
    t = np.asarray(joint, dtype=float)
    if t.shape != (2, 2):
        raise ValueError("expected a 2x2 table")
    if np.any(t < 0) or t.sum() <= 0:
        raise ValueError("table entries must be >= 0 with positive total")
    row = t.sum(axis=1)  # predictor marginals
    col = t.sum(axis=0)  # label marginals
    if np.any(row == 0) or np.any(col == 0):
        raise DegenerateTable("a marginal of the table is zero")

    sensitivity = t[1, 1] / (t[1, 1] + t[0, 1])
    specificity = t[0, 0] / (t[0, 0] + t[1, 0])
    # fused form of (sens + spec)/2: one rounding instead of three
    auc_val = (t[1, 1] * col[0] + t[0, 0] * col[1]) / (2.0 * col[1] * col[0])
    phi = (t[1, 1] * t[0, 0] - t[1, 0] * t[0, 1]) / math.sqrt(row[0] * row[1] * col[0] * col[1])

    p = t / t.sum()
    pz = p.sum(axis=1)
    py = p.sum(axis=0)
    mi = 0.0
    for z in (0, 1):
        for y in (0, 1):
            if p[z, y] > 0.0:
                mi += p[z, y] * math.log(p[z, y] / (pz[z] * py[y]))
    return TableStats(phi=float(phi), mi=float(mi), sensitivity=float(sensitivity),
                      specificity=float(specificity), auc=float(auc_val))


def mwu_test(pos_scores, neg_scores, mode: str = "normal") -> dict:
    """Two-sided Mann-Whitney U test; U is the positives' midrank sum minus
    m(m+1)/2.

    exact: the p-value is the share of all C(m+n, m) assignments of the
    pooled midranks to the positive group whose U lies at least as far from
    mn/2 as observed (limited to m+n <= 20). Doubled midranks are integers,
    so the assignments are counted by doubled rank sum with a subset-sum
    recursion instead of being enumerated. normal: tie-corrected normal
    approximation with continuity correction.
    """
    pos = np.asarray(pos_scores, dtype=float)
    neg = np.asarray(neg_scores, dtype=float)
    if pos.size == 0 or neg.size == 0:
        raise EmptyGroup("both groups must be nonempty")
    if np.isnan(pos).any() or np.isnan(neg).any():
        raise ValueError("scores must not be NaN")
    m, n = pos.size, neg.size
    pooled = np.concatenate([pos, neg])
    ranks = rankdata(pooled)
    base = m * (m + 1) / 2.0
    u_obs = float(np.sum(ranks[:m]) - base)

    if mode == "exact":
        if m + n > EXACT_MWU_LIMIT:
            raise TooLargeForExact(f"exact mode limited to {EXACT_MWU_LIMIT} total samples")
        doubled = (2.0 * ranks).astype(int)
        # counts[k, s]: subsets of k pooled records whose doubled ranks sum to s
        counts = np.zeros((m + 1, int(doubled.sum()) + 1), dtype=np.int64)
        counts[0, 0] = 1
        for r in doubled:
            counts[1:, r:] = counts[1:, r:] + counts[:-1, :-r]
        u = np.arange(counts.shape[1]) / 2.0 - base
        far = np.abs(u - m * n / 2.0) >= abs(u_obs - m * n / 2.0) - 1e-12
        hits = int(counts[m, far].sum())
        return {"u": u_obs, "p": hits / math.comb(m + n, m)}

    if mode == "normal":
        total = m + n
        _, tie_counts = np.unique(pooled, return_counts=True)
        tie_term = float(np.sum(tie_counts.astype(float) ** 3 - tie_counts))
        var = m * n / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
        if var <= 0.0:
            return {"u": u_obs, "p": 1.0}
        z = max(0.0, abs(u_obs - m * n / 2.0) - 0.5) / math.sqrt(var)
        return {"u": u_obs, "p": float(min(1.0, 2.0 * norm.sf(z)))}

    raise ValueError(f"unknown mode {mode!r}")


def bh_fdr(p_values, q: float) -> list[bool]:
    """Benjamini-Hochberg step-up rejections, reported in input order."""
    p = np.asarray(p_values, dtype=float)
    if p.size == 0:
        return []
    if np.any((p < 0) | (p > 1)):
        raise ValueError("p-values must lie in [0, 1]")
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0, 1)")
    m = p.size
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    thresholds = q * np.arange(1, m + 1) / m
    passing = np.nonzero(sorted_p <= thresholds)[0]
    if passing.size == 0:
        return [False] * m
    k_star = passing[-1]
    reject = np.zeros(m, dtype=bool)
    reject[order[: k_star + 1]] = True
    return reject.tolist()


@dataclass(frozen=True)
class StratumResult:
    key: tuple
    n_pos: int
    n_neg: int
    auc: float
    ci: ConfidenceInterval
    mwu_p: float
    fdr_reject: bool


def stratified_auc(cohort, spec, min_per_class: int = 10, q: float = 0.05) -> list[StratumResult]:
    """Per-stratum AUC with DeLong CIs, Mann-Whitney p-values, and BH-FDR
    flags across the included strata. Strata with fewer than ``min_per_class``
    records in either class are excluded; output is sorted by stratum size
    descending (ties by key)."""
    from .matching import stratum_key  # local import avoids a cycle

    groups: dict[tuple, tuple[list[float], list[int]]] = {}
    for r in cohort.records:
        if r.score is None or r.label is None:
            raise ValueError(f"record {r.id} lacks a score or label")
        key = stratum_key(r, spec)
        scores, labels = groups.setdefault(key, ([], []))
        scores.append(r.score)
        labels.append(r.label)

    eligible = []
    for key in sorted(groups, key=lambda k: tuple(map(str, k))):
        scores, labels = groups[key]
        labels_arr = np.array(labels)
        n_pos = int((labels_arr == 1).sum())
        n_neg = int((labels_arr == 0).sum())
        if min(n_pos, n_neg) < min_per_class:
            continue
        data = ScoredLabels(np.array(scores), labels_arr)
        eligible.append((key, n_pos, n_neg, data))
    if not eligible:
        raise NoEligibleStrata(f"no stratum has {min_per_class} records of each class")

    p_values = []
    partial = []
    for key, n_pos, n_neg, data in eligible:
        ci = auc_ci(data, method="delong")
        p = mwu_test(data.pos, data.neg, mode="normal")["p"]
        partial.append((key, n_pos, n_neg, ci.estimate, ci, p))
        p_values.append(p)
    rejects = bh_fdr(p_values, q)
    results = [
        StratumResult(key=key, n_pos=n_pos, n_neg=n_neg, auc=a, ci=ci, mwu_p=p, fdr_reject=rej)
        for (key, n_pos, n_neg, a, ci, p), rej in zip(partial, rejects)
    ]
    results.sort(key=lambda s: (-(s.n_pos + s.n_neg), tuple(map(str, s.key))))
    return results


@dataclass(frozen=True)
class CalibrationBin:
    mean_score: float
    frac_positive: float
    count: int


def calibration_bins(scores, labels, n_bins: int = 10) -> tuple[list[CalibrationBin], float]:
    """Equal-width reliability bins on [0, 1] plus the expected calibration
    error ECE = sum_b (count_b / N) * |mean_score_b - frac_positive_b|."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if np.any((scores < 0) | (scores > 1)):
        raise ValueError("scores must lie in [0, 1]")
    idx = np.minimum((scores * n_bins).astype(int), n_bins - 1)
    bins: list[CalibrationBin] = []
    ece = 0.0
    for b in range(n_bins):
        mask = idx == b
        count = int(mask.sum())
        if count == 0:
            continue
        mean_score = float(scores[mask].mean())
        frac_pos = float(labels[mask].mean())
        bins.append(CalibrationBin(mean_score=mean_score, frac_positive=frac_pos, count=count))
        ece += count / scores.size * abs(mean_score - frac_pos)
    return bins, float(ece)


@dataclass(frozen=True)
class UncertaintySummary:
    predictive_entropy: float
    expected_entropy: float
    mutual_information: float
    n_samples: int


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def uncertainty_decompose(sample_probs) -> UncertaintySummary:
    """Decompose posterior-sample predictions into predictive entropy,
    expected entropy, and their difference (the prediction/posterior mutual
    information).

    ``sample_probs`` is an S x C matrix, one probability vector per posterior
    draw. The predictive entropy is the entropy of the column means; the
    expected entropy is the mean of the per-row entropies.
    """
    probs = np.asarray(sample_probs, dtype=float)
    if probs.ndim != 2 or probs.shape[0] < 1:
        raise ValueError("expected an S x C matrix with S >= 1")
    for s in range(probs.shape[0]):
        row = probs[s]
        if np.any(row < -1e-12) or abs(row.sum() - 1.0) > 1e-9:
            raise NotAProbabilityRow(s)
    mean_probs = probs.mean(axis=0)
    predictive = _entropy(mean_probs)
    expected = float(np.mean([_entropy(probs[s]) for s in range(probs.shape[0])]))
    return UncertaintySummary(
        predictive_entropy=predictive,
        expected_entropy=expected,
        mutual_information=predictive - expected,
        n_samples=probs.shape[0],
    )
