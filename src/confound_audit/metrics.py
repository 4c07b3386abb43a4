"""Accuracy, inference, and uncertainty statistics.

ROC machinery uses the Mann-Whitney pairwise definition of AUC throughout:
ties between a positive and a negative score count one half. Confidence
intervals come in two flavours, the Hanley-McNeil normal approximation and
the DeLong structural-components estimator; the latter also powers the paired
two-classifier test. Every rank statistic reads per-run class counts from
one sort of its scores: the positives and negatives in each run of equal
scores. AUCs, DeLong placements and U statistics are cumulative sums over
those runs, exact half-integer counts divided once, in O(N log N), and
average precision reads the same counts from the top run down.
Small-sample Mann-Whitney p-values are exact: size-m subsets of the pooled
midranks are counted by their rank sum.

All functions are pure and deterministic; nothing here consumes an RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    ConfigError,
    DegenerateTable,
    EmptyGroup,
    LabelMismatch,
    NoEligibleStrata,
    NotAProbabilityRow,
    OneClassOnly,
    TooFewSamples,
    TooLargeForExact,
)
from .matching import strata, stratum_order

EXACT_MWU_LIMIT = 20


def _binary(labels, name: str = "labels") -> np.ndarray:
    """``labels`` as 0/1 ints; any other value, a fraction too, is refused
    before the cast could truncate it, naming the argument ``name``."""
    labels = np.asarray(labels)
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError(f"{name} must be binary")
    return labels.astype(int)


@dataclass(frozen=True)
class ScoredLabels:
    """Aligned score/label arrays with both-class bookkeeping: ``pos`` and
    ``neg`` hold each class's scores in input order."""

    scores: np.ndarray
    labels: np.ndarray
    pos: np.ndarray = field(init=False, repr=False, compare=False)
    neg: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        labels = np.asarray(self.labels)
        if scores.shape != labels.shape or scores.ndim != 1 or scores.size < 1:
            raise ValueError("scores and labels must be equal-length 1-D sequences")
        labels = _binary(labels)
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite, not NaN or infinite")
        is_pos = labels == 1
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "pos", scores[np.flatnonzero(is_pos)])
        object.__setattr__(self, "neg", scores[np.flatnonzero(~is_pos)])

    def require_both_classes(self) -> None:
        if self.pos.size == 0 or self.neg.size == 0:
            raise OneClassOnly("need at least one positive and one negative")


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


def _tie_runs(scores: np.ndarray, is_pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One argsort of ``scores`` cut into runs of equal values: each score's
    run index (runs ascending; 0.0 and -0.0 compare equal, so they share a
    run) and the positive and negative count of each run. The order inside a
    run does not change its counts, so the sort need not be stable."""
    order = np.argsort(scores)
    z = scores[order]
    starts = np.flatnonzero(np.r_[True, z[1:] != z[:-1]])
    lengths = np.diff(np.append(starts, z.size))
    # np.repeat over the run lengths is several times faster than a cumsum
    # of the run-start mask
    run = np.empty(z.size, dtype=np.intp)
    run[order] = np.repeat(np.arange(starts.size), lengths)
    # positives are gathered by integer index: on masks this irregular, numpy's
    # boolean indexing is several times slower than np.flatnonzero and a take
    pos = np.bincount(run[np.flatnonzero(is_pos)], minlength=starts.size)
    return run, pos, lengths - pos


def _under(counts: np.ndarray) -> np.ndarray:
    """Per run, the records of ``counts`` in lower runs plus half of those in
    the run itself: an exact half-integer count."""
    return np.cumsum(counts) - 0.5 * counts


def auc(data: ScoredLabels) -> float:
    """Mann-Whitney AUC: mean over all (pos, neg) pairs of 1[p>n] + 0.5*1[p=n],
    from the negatives below each run of positives."""
    data.require_both_classes()
    _, pos, neg = _tie_runs(data.scores, data.labels == 1)
    return float(np.sum(pos * _under(neg))) / (data.pos.size * data.neg.size)


def _psi_components(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-positive and per-negative placement sums: s_pos[i] = sum_j
    psi(pos_i, neg_j) and s_neg[j] = sum_i psi(pos_i, neg_j), with psi = 1,
    1/2, 0 for >, =, <. Divided by n and by m they are the DeLong placements;
    either total over m * n is the AUC, to the bit :func:`auc` gives.

    Placements come from one sort (Sun & Xu 2014): a positive's sum is the
    negatives in lower runs plus half of those in its own run, and a
    negative's is the positives in higher runs plus half of those in its own.
    """
    is_pos = labels == 1
    run, pos, neg = _tie_runs(scores, is_pos)
    pos_above = _under(pos[::-1])[::-1]
    return _under(neg)[run[np.flatnonzero(is_pos)]], pos_above[run[np.flatnonzero(~is_pos)]]


@dataclass(frozen=True)
class HanleyMcNeilDetail:
    q1: float
    q2: float
    se: float


@dataclass(frozen=True)
class ConfidenceInterval:
    estimate: float
    lower: float
    upper: float
    level: float = 0.95
    method: str = "delong"
    clipped: bool = False
    detail: HanleyMcNeilDetail | None = None


def _normal_interval(est: float, se: float, method: str, detail=None) -> ConfidenceInterval:
    z = float(ndtri(0.975))
    lo, hi = est - z * se, est + z * se
    clipped = lo < 0.0 or hi > 1.0
    return ConfidenceInterval(est, max(0.0, lo), min(1.0, hi), method=method, clipped=clipped, detail=detail)


def auc_ci(data: ScoredLabels, method: str = "delong") -> ConfidenceInterval:
    """95% AUC confidence interval, clipped to [0, 1] (the ``clipped`` field
    records whether clipping occurred).

    hanley_mcneil:  SE^2 = [A(1-A) + (m-1)(Q1-A^2) + (n-1)(Q2-A^2)] / (mn)
                    with Q1 = A/(2-A), Q2 = 2A^2/(1+A).
    delong:         SE^2 = S10/m + S01/n from the structural components.
    """
    data.require_both_classes()
    m, n = data.pos.size, data.neg.size
    if method == "hanley_mcneil":
        a = auc(data)
        q1 = a / (2.0 - a)
        q2 = 2.0 * a * a / (1.0 + a)
        var = (a * (1.0 - a) + (m - 1) * (q1 - a * a) + (n - 1) * (q2 - a * a)) / (m * n)
        se = math.sqrt(max(0.0, var))
        detail = HanleyMcNeilDetail(q1=q1, q2=q2, se=se)
        return _normal_interval(a, se, method, detail)
    if method == "delong":
        if m < 2 or n < 2:
            raise TooFewSamples("DeLong variance needs at least 2 records per class")
        s_pos, s_neg = _psi_components(data.scores, data.labels)
        var = np.var(s_pos / n, ddof=1) / m + np.var(s_neg / m, ddof=1) / n
        return _normal_interval(float(s_pos.sum() / (m * n)), math.sqrt(max(0.0, var)), method)
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
    spa, sna = _psi_components(a.scores, a.labels)
    spb, snb = _psi_components(b.scores, b.labels)
    auc_a, auc_b = float(spa.sum() / (m * n)), float(spb.sum() / (m * n))
    var = np.var(spa / n - spb / n, ddof=1) / m + np.var(sna / m - snb / m, ddof=1) / n
    if var <= 0.0:
        if auc_a == auc_b:
            return {"z": 0.0, "p": 1.0, "auc_a": auc_a, "auc_b": auc_b}
        z_inf = math.inf if auc_a > auc_b else -math.inf
        return {"z": z_inf, "p": 0.0, "auc_a": auc_a, "auc_b": auc_b}
    z = (auc_a - auc_b) / math.sqrt(var)
    return {"z": float(z), "p": float(2.0 * ndtr(-abs(z))), "auc_a": auc_a, "auc_b": auc_b}


def pr_auc(data: ScoredLabels) -> float:
    """Average precision (step interpolation): sum over distinct thresholds of
    (recall increment) * (precision at that threshold)."""
    data.require_both_classes()
    # runs from the highest score down: the records, and the positives, at
    # or above each distinct threshold
    _, pos, neg = _tie_runs(data.scores, data.labels == 1)
    tp = np.cumsum(pos[::-1])
    k = np.cumsum((pos + neg)[::-1])
    precision = tp / k
    recall = tp / data.pos.size
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


def uar(predictions, labels) -> float:
    """Unweighted average recall: (sensitivity + specificity) / 2."""
    predictions = _binary(predictions, "predictions")
    labels = _binary(labels)
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


def any_symptom_table(cohort) -> list[list[int]]:
    """The record counts of ``cohort`` by any symptom ``z`` and label ``y``,
    as ``t[z][y]``: the table ``table_2x2_stats`` reads."""
    t = [[0, 0], [0, 0]]
    for r, y in zip(cohort.records, cohort.labels().tolist()):
        t[int(r.symptoms.any_symptom)][y] += 1
    return t


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
    run, pos_runs, neg_runs = _tie_runs(np.concatenate([pos, neg]), np.arange(m + n) < m)
    tie_counts = pos_runs + neg_runs
    u_obs = float(np.sum(pos_runs * _under(neg_runs)))

    if mode == "exact":
        if m + n > EXACT_MWU_LIMIT:
            raise TooLargeForExact(f"exact mode limited to {EXACT_MWU_LIMIT} total samples")
        # each record's doubled midrank, an integer
        doubled = (2 * np.cumsum(tie_counts) - tie_counts + 1)[run]
        # counts[k, s]: subsets of k pooled records whose doubled ranks sum to s
        counts = np.zeros((m + 1, int(doubled.sum()) + 1), dtype=np.int64)
        counts[0, 0] = 1
        for r in doubled:
            counts[1:, r:] = counts[1:, r:] + counts[:-1, :-r]
        u = np.arange(counts.shape[1]) / 2.0 - m * (m + 1) / 2.0
        far = np.abs(u - m * n / 2.0) >= abs(u_obs - m * n / 2.0) - 1e-12
        hits = int(counts[m, far].sum())
        return {"u": u_obs, "p": hits / math.comb(m + n, m)}

    if mode == "normal":
        total = m + n
        tie_term = float(np.sum(tie_counts.astype(float) ** 3 - tie_counts))
        var = m * n / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
        if var <= 0.0:
            return {"u": u_obs, "p": 1.0}
        z = max(0.0, abs(u_obs - m * n / 2.0) - 0.5) / math.sqrt(var)
        return {"u": u_obs, "p": float(min(1.0, 2.0 * ndtr(-z)))}

    raise ValueError(f"unknown mode {mode!r}")


def bh_fdr(p_values, q: float) -> list[bool]:
    """Benjamini-Hochberg step-up rejections, reported in input order."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    p = np.asarray(p_values, dtype=float)
    if p.size == 0:
        return []
    if np.any(~((p >= 0) & (p <= 1))):
        raise ValueError("p-values must lie in [0, 1]")
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
class StrataConfig:
    """The settings of ``stratified_auc``: the fewest records of each class
    a stratum needs, and the BH-FDR level."""

    min_per_class: int
    fdr: float

    def __post_init__(self):
        """Raise ``ConfigError`` naming the first field out of its range."""
        if self.min_per_class < 1:
            raise ConfigError("min_per_class", "must be >= 1")
        if not 0.0 < self.fdr < 1.0:
            raise ConfigError("fdr", "must lie in (0, 1)")


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
    descending (ties by key). Settings out of range raise ``ConfigError``."""
    StrataConfig(min_per_class, q)
    scores = cohort.scores()
    eligible: list[tuple[tuple, ScoredLabels]] = []
    for key, (neg, pos) in strata(cohort.records, spec).items():
        if min(len(pos), len(neg)) >= min_per_class:
            # positives, then negatives: each class's scores stay in record order
            eligible.append((key, ScoredLabels(scores[pos + neg], np.repeat([1, 0], [len(pos), len(neg)]))))
    if not eligible:
        raise NoEligibleStrata(f"no stratum has {min_per_class} records of each class")

    p_values = [mwu_test(data.pos, data.neg, mode="normal")["p"] for _, data in eligible]
    results = []
    for (key, data), p, reject in zip(eligible, p_values, bh_fdr(p_values, q)):
        ci = auc_ci(data, method="delong")
        results.append(StratumResult(key, data.pos.size, data.neg.size, ci.estimate, ci, p, reject))
    results.sort(key=lambda s: (-(s.n_pos + s.n_neg), stratum_order(s.key)))
    return results


@dataclass(frozen=True)
class CalibrationBin:
    mean_score: float
    frac_positive: float
    count: int


def calibration_bins(scores, labels) -> tuple[list[CalibrationBin], float]:
    """Ten equal-width reliability bins on [0, 1] plus the expected calibration
    error ECE = sum_b (count_b / N) * |mean_score_b - frac_positive_b|."""
    scores = np.asarray(scores, dtype=float)
    labels = _binary(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must align")
    if np.any(~((scores >= 0) & (scores <= 1))):
        raise ValueError("scores must lie in [0, 1]")
    idx = np.minimum((scores * 10).astype(int), 9)
    bins: list[CalibrationBin] = []
    ece = 0.0
    for b in range(10):
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
    )
