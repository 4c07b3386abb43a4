"""Slow reference implementations of the rank, max-EU, CART, weak-model,
nearest-neighbour and per-record kernels.

These are the direct O(m*n), per-element and enumerating forms of
``metrics`` and ``utility`` internals (with the per-value tie runs and ROC
counts, the stable-sort average precision, the ``np.unique`` tie term of
the normal Mann-Whitney test, the trapezoid area under a ROC curve, the
max-EU pick that scores every operating point at every prevalence, and the
outcome-probability enumeration of expected utility that acceptance
criterion 2 checks the closed form against), the
argsort-per-node-per-feature CART of ``forest``, the
one-model-at-a-time weak linear fit and curation of ``probes`` (and the
PCA reconstruction that checks its projection), the per-positive
nearest-negative search of ``probes.nn_substitute``, and the per-record
loops of ``synth``, ``matching`` and ``cohort`` (one profile object per
person, one RNG draw per person, a covariate check per record,
``csv.DictReader``, one ``csv.writer`` row per feature vector, and a record
type with the generated frozen-dataclass ``__init__``). The fast kernels
must return exactly the same values; ``test_rank_kernels.py``,
``test_forest.py``, ``test_probes.py`` and ``test_record_kernels.py``
compare the two. None of the rank kernels accept NaN: ``midranks_loop``
never terminates on it.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, fields, make_dataclass
from itertools import combinations

import numpy as np
from scipy.stats import norm

from confound_audit.cohort import (
    ACUTE_SYMPTOM_FIELDS,
    CHANNELS,
    CSV_COLUMNS,
    GENDERS,
    SYMPTOM_FIELDS,
    Cohort,
    ParticipantRecord,
    SymptomProfile,
    derive_any_symptom,
    make_manifest,
)
from confound_audit.errors import (
    BadValue,
    ConfoundAuditError,
    EmptyEnrolment,
    MissingColumn,
    MissingCovariate,
    OneClassOnly,
    RankDeficientWarning,
)
from confound_audit.matching import AGE_BIN_START, AGE_BIN_WIDTH, AGE_OPEN_BIN_START, MatchSpec
from confound_audit.metrics import ScoredLabels, auc, uar
from confound_audit.probes import PcaModel, ProbeResult, WeakModel, WeakProbeConfig, pca_fit, pca_project
from confound_audit.rngs import substream
from confound_audit.synth import _EMBEDDED_COVARIATES, P_COPD, P_OTHER_RESP, P_SMOKER, SynthRecord, covariate_loadings
from confound_audit.utility import UtilityMatrix


def midranks_loop(x: np.ndarray) -> np.ndarray:
    """Midranks (1-based; ties share the average rank)."""
    order = np.argsort(x, kind="stable")
    z = x[order]
    n = x.size
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j < n and z[j] == z[i]:
            j += 1
        ranks[i:j] = 0.5 * (i + j - 1) + 1.0
        i = j
    out = np.empty(n)
    out[order] = ranks
    return out


def distinct_ascending(x: np.ndarray) -> list[float]:
    """The distinct values of ``x``, ascending; 0.0 and -0.0 compare equal,
    so they count as one."""
    values: list[float] = []
    for v in sorted(x.tolist()):
        if not values or v != values[-1]:
            values.append(v)
    return values


def tie_runs_loop(x: np.ndarray, is_pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each score's run among the distinct values of ``x``, and each run's
    positive and negative count."""
    values = distinct_ascending(x)
    run = np.array([next(r for r, v in enumerate(values) if v == s) for s in x.tolist()], dtype=int)
    pos = np.zeros(len(values), dtype=int)
    neg = np.zeros(len(values), dtype=int)
    for r, p in zip(run, is_pos):
        (pos if p else neg)[r] += 1
    return run, pos, neg


def roc_curve_loop(data: ScoredLabels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``metrics.roc_curve`` as (thresholds, sensitivities, specificities):
    for each distinct threshold t, ascending, the share of positives >= t
    and of negatives < t, then the corner at ``inf``."""
    values = distinct_ascending(data.scores)
    m, n = data.pos.size, data.neg.size
    sens = [sum(p >= t for p in data.pos.tolist()) / m for t in values]
    spec = [sum(q < t for q in data.neg.tolist()) / n for t in values]
    return np.array(values + [math.inf]), np.array(sens + [0.0]), np.array(spec + [1.0])


def psi_components_pairwise(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """DeLong placement sums from every (positive, negative) comparison."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    s_pos = np.zeros(pos.size)
    s_neg = np.zeros(neg.size)
    chunk = max(1, int(2_000_000 / max(1, neg.size)))
    for start in range(0, pos.size, chunk):
        block = pos[start : start + chunk, None]
        psi = (block > neg[None, :]).astype(float)
        psi += 0.5 * (block == neg[None, :])
        s_pos[start : start + chunk] = psi.sum(axis=1)
        s_neg += psi.sum(axis=0)
    return s_pos, s_neg


def mwu_exact_enumerated(pos: np.ndarray, neg: np.ndarray) -> dict:
    """Exact two-sided Mann-Whitney test by enumerating every assignment."""
    m, n = pos.size, neg.size
    ranks = midranks_loop(np.concatenate([pos, neg]))
    base = m * (m + 1) / 2.0
    u_obs = float(np.sum(ranks[:m]) - base)
    dev_obs = abs(u_obs - m * n / 2.0)
    hits = 0
    total = 0
    for idx in combinations(range(m + n), m):
        u = float(ranks[list(idx)].sum()) - base
        total += 1
        if abs(u - m * n / 2.0) >= dev_obs - 1e-12:
            hits += 1
    return {"u": u_obs, "p": hits / total}


def pr_auc_stable_sort(data: ScoredLabels) -> float:
    """``metrics.pr_auc`` with the scores in stable descending order, so each
    tie block keeps its input order."""
    order = np.argsort(-data.scores, kind="stable")
    scores = data.scores[order]
    labels = data.labels[order]
    n_pos = int(labels.sum())
    tp = np.cumsum(labels)
    k = np.arange(1, scores.size + 1)
    boundary = np.nonzero(np.append(scores[1:] != scores[:-1], True))[0]
    precision = tp[boundary] / k[boundary]
    recall = tp[boundary] / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


def mwu_normal_unique_ties(pos: np.ndarray, neg: np.ndarray) -> dict:
    """``metrics.mwu_test(mode="normal")`` with loop midranks, tie counts from
    ``np.unique`` and the tail from ``scipy.stats.norm``."""
    m, n = pos.size, neg.size
    pooled = np.concatenate([pos, neg])
    u_obs = float(np.sum(midranks_loop(pooled)[:m]) - m * (m + 1) / 2.0)
    total = m + n
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(tie_counts.astype(float) ** 3 - tie_counts))
    var = m * n / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if var <= 0.0:
        return {"u": u_obs, "p": 1.0}
    z = max(0.0, abs(u_obs - m * n / 2.0) - 0.5) / math.sqrt(var)
    return {"u": u_obs, "p": float(min(1.0, 2.0 * norm.sf(z)))}


def roc_area(roc) -> float:
    """Trapezoid area under a ``RocCurve``, integrated along the curve
    (descending threshold, so ascending false-positive rate)."""
    fpr = (1.0 - roc.specificities)[::-1]
    return float(np.trapezoid(roc.sensitivities[::-1], fpr))


def max_eu_points(roc, u, pi_grid) -> list[tuple]:
    """Per-pi pick by Python ``max`` over (EU, specificity), as field tuples
    (pi, max_eu, threshold, sensitivity, specificity)."""
    sens = roc.sensitivities
    spec = roc.specificities
    out = []
    for pi in np.asarray(pi_grid, dtype=float):
        eu = pi * ((u.u11 - u.u01) * sens + u.u01) + (1.0 - pi) * ((u.u00 - u.u10) * spec + u.u10)
        best = max(range(eu.size), key=lambda i: (eu[i], spec[i]))
        out.append((float(pi), float(eu[best]), float(roc.thresholds[best]), float(sens[best]), float(spec[best])))
    return out


def max_eu_per_pi(roc, u, pi_grid) -> list[tuple]:
    """``max_eu_points`` at numpy speed: every operating point scored at every
    pi, the pick by ``argmax`` over the specificities of the EU maxima."""
    sens = roc.sensitivities
    spec = roc.specificities
    out = []
    for pi in np.asarray(pi_grid, dtype=float):
        eu = pi * ((u.u11 - u.u01) * sens + u.u01) + (1.0 - pi) * ((u.u00 - u.u10) * spec + u.u10)
        # argmax returns the first index among equal maxima
        best = int(np.argmax(np.where(eu == eu.max(), spec, -np.inf)))
        out.append((float(pi), float(eu[best]), float(roc.thresholds[best]), float(sens[best]), float(spec[best])))
    return out


@dataclass(frozen=True)
class OutcomeProbs:
    p11: float
    p10: float
    p00: float
    p01: float


def enumerate_outcome_probs(pi: float, sens: float, spec: float) -> OutcomeProbs:
    """Probability of each (prediction, truth) outcome of one test."""
    return OutcomeProbs(
        p11=pi * sens,
        p01=pi * (1.0 - sens),
        p00=(1.0 - pi) * spec,
        p10=(1.0 - pi) * (1.0 - spec),
    )


def expected_utility_enumerated(u: UtilityMatrix, probs: OutcomeProbs) -> float:
    """sum(u_zy * p_zy); agrees with ``utility.expected_utility`` to rounding."""
    return u.u11 * probs.p11 + u.u10 * probs.p10 + u.u00 * probs.p00 + u.u01 * probs.p01


def grow_tree_argsort_per_node(x: np.ndarray, y: np.ndarray, rng: np.random.Generator, m_try: int) -> dict:
    """Grow one unpruned CART tree; returns parallel node arrays.

    Split rule: go left when value <= threshold (thresholds are midpoints of
    consecutive distinct values). Ties in impurity resolve to the lowest
    feature index then lowest threshold, so regrowth is reproducible.
    """
    n, p = x.shape
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_frac: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_frac.append(-1.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(n))]
    while stack:
        node, idx = stack.pop()
        ys = y[idx]
        pos = int(ys.sum())
        if pos == 0 or pos == idx.size or idx.size < 2:
            leaf_frac[node] = pos / idx.size
            continue

        candidates = np.sort(rng.choice(p, size=m_try, replace=False))
        best = None  # (impurity, feat, thr, order, split_at)
        for attempt in (candidates, np.arange(p)):
            for f in attempt:
                xs_raw = x[idx, f]
                order = np.argsort(xs_raw, kind="stable")
                xs = xs_raw[order]
                if xs[0] == xs[-1]:
                    continue
                ysrt = ys[order]
                cum_pos = np.cumsum(ysrt)
                cut = np.nonzero(xs[1:] != xs[:-1])[0]  # split after position cut
                ln = (cut + 1).astype(float)
                rn = idx.size - ln
                lp = cum_pos[cut].astype(float)
                rp = pos - lp
                # weighted Gini impurity, up to the constant factor 1/n_node
                imp = (ln - (lp * lp + (ln - lp) ** 2) / ln) + (rn - (rp * rp + (rn - rp) ** 2) / rn)
                j = int(np.argmin(imp))
                cand = (float(imp[j]), int(f), float((xs[cut[j]] + xs[cut[j] + 1]) / 2.0))
                if best is None or (cand[0], cand[1], cand[2]) < (best[0], best[1], best[2]):
                    best = cand + (order, int(cut[j]))
            if best is not None:
                break  # fall back to scanning all features only if needed
        if best is None:
            leaf_frac[node] = pos / idx.size
            continue

        _, f, thr, order, split_at = best
        left_idx = idx[order[: split_at + 1]]
        right_idx = idx[order[split_at + 1 :]]
        feature[node] = f
        threshold[node] = thr
        lnode, rnode = new_node(), new_node()
        left[node] = lnode
        right[node] = rnode
        stack.append((rnode, right_idx))
        stack.append((lnode, left_idx))

    return {
        "feature": feature,
        "threshold": threshold,
        "left": left,
        "right": right,
        "leaf_frac": leaf_frac,
    }


def tree_predict_from_lists(tree: dict, x: np.ndarray) -> np.ndarray:
    feature = np.asarray(tree["feature"], dtype=int)
    threshold = np.asarray(tree["threshold"], dtype=float)
    left = np.asarray(tree["left"], dtype=int)
    right = np.asarray(tree["right"], dtype=int)
    leaf_frac = np.asarray(tree["leaf_frac"], dtype=float)

    node = np.zeros(x.shape[0], dtype=int)
    active = feature[node] >= 0
    while active.any():
        idx = np.nonzero(active)[0]
        cur = node[idx]
        go_left = x[idx, feature[cur]] <= threshold[cur]
        node[idx] = np.where(go_left, left[cur], right[cur])
        active[idx] = feature[node[idx]] >= 0
    return leaf_frac[node]


def generate_population_loop(cfg) -> list[SynthRecord]:
    """``synth.generate_population`` with one profile built per person and
    every field read as a numpy scalar."""
    rng = substream(cfg.seed, "population")
    n, d = cfg.n_population, cfg.feature_dim
    n_flags = len(ACUTE_SYMPTOM_FIELDS)

    y = (rng.random(n) < cfg.prevalence).astype(int)
    any_sym = rng.random(n) < np.where(y == 1, cfg.p_sym_given_pos, cfg.p_sym_given_neg)
    richness = np.where(y == 1, cfg.flag_rate_pos, cfg.flag_rate_neg)
    acute = (rng.random((n, n_flags)) < richness[:, None]) & any_sym[:, None]
    empty = np.nonzero(any_sym & ~acute.any(axis=1))[0]
    acute[empty, rng.integers(0, n_flags, size=empty.size)] = True
    copd = rng.random(n) < P_COPD
    smoker = rng.random(n) < P_SMOKER
    other_resp = rng.random(n) < P_OTHER_RESP
    age = rng.integers(18, 81, size=n)
    male = rng.random(n) < 0.5

    codes = np.empty((n, len(_EMBEDDED_COVARIATES)))
    flags = np.column_stack([acute[:, :5], copd, other_resp, smoker])
    codes[:, :8] = 2.0 * flags - 1.0
    codes[:, 8] = np.where(male, 1.0, -1.0)
    codes[:, 9] = (age - 49.0) / 31.0

    loadings = covariate_loadings(cfg)
    w = y.astype(float)
    features = rng.normal(0.0, cfg.noise_sd, size=(n, d))
    features += cfg.confounder_strength * codes @ loadings
    features[:, 0] += cfg.signal_strength * w

    out: list[SynthRecord] = []
    for i in range(n):
        symptoms = SymptomProfile(
            cough=bool(acute[i, 0]),
            sore_throat=bool(acute[i, 1]),
            asthma=bool(acute[i, 2]),
            shortness_of_breath=bool(acute[i, 3]),
            runny_blocked_nose=bool(acute[i, 4]),
            new_continuous_cough=bool(acute[i, 5]),
            copd_emphysema=bool(copd[i]),
            other_respiratory=bool(other_resp[i]),
            smoker=bool(smoker[i]),
        )
        rec = ParticipantRecord(
            id=f"syn-{i:07d}",
            label=int(y[i]),
            symptoms=symptoms,
            age_years=int(age[i]),
            gender="male" if male[i] else "female",
            channel="synthetic",
            features=features[i],
        )
        out.append(SynthRecord(record=rec))
    return out


def enrol_loop(population: list[SynthRecord], cfg) -> list[str]:
    """Ids enrolled by ``synth.enrol`` under ``symptoms_based`` or
    ``random``, with one scalar RNG draw per person."""
    if not population:
        raise EmptyEnrolment("population is empty")
    rng = substream(cfg.seed, "enrol")
    kept = []
    for sr in population:
        if cfg.enrolment == "random":
            p = cfg.random_p
        else:
            sym = sr.record.symptoms.any_symptom
            pos = sr.record.label == 1
            p = (
                cfg.w_sym_pos if (sym and pos)
                else cfg.w_asym_pos if pos
                else cfg.w_sym_neg if sym
                else cfg.w_asym_neg
            )
        if rng.random() < p:
            kept.append(sr.record.id)
    if not kept:
        raise EmptyEnrolment("no individual enrolled")
    return kept


def age_bin_arith(age_years: int) -> str:
    """``matching.age_bin`` without the memo."""
    if age_years >= AGE_OPEN_BIN_START:
        return f"{AGE_OPEN_BIN_START}+"
    lo = AGE_BIN_START + AGE_BIN_WIDTH * ((age_years - AGE_BIN_START) // AGE_BIN_WIDTH)
    return f"{lo}-{lo + AGE_BIN_WIDTH - 1}"


def symptom_flag(symptoms: SymptomProfile, name: str) -> bool:
    """One flag of a profile by name; ``any_symptom`` is derived."""
    if name == "any_symptom":
        return derive_any_symptom(symptoms)
    return bool(getattr(symptoms, name))


def stratum_key_loop(record: ParticipantRecord, spec: MatchSpec) -> tuple:
    """``matching.stratum_keyer(spec)(record)`` with every covariate name (one of
    ``SYMPTOM_FIELDS`` or ``any_symptom``) checked on every record; it does
    not look at blank flags."""
    if record.age_years is None:
        raise MissingCovariate("age_years")
    parts: list = []
    if spec.include_channel:
        parts.append(record.channel)
    parts.append(age_bin_arith(record.age_years))
    parts.append(record.gender)
    for name in spec.covariates:
        if name != "any_symptom" and name not in SYMPTOM_FIELDS:
            raise MissingCovariate(name)
        parts.append(int(symptom_flag(record.symptoms, name)))
    return tuple(parts)


def _parse_bool(raw: str, row: int, column: str) -> bool | None:
    v = raw.strip().lower()
    if v == "":
        return None
    if v in ("1", "true", "yes"):
        return True
    if v in ("0", "false", "no"):
        return False
    raise BadValue(row, column, raw)


def load_cohort_dictreader(path: str) -> Cohort:
    """``cohort.load_cohort`` through ``csv.DictReader``, one profile per
    row, with the row and id rules spelt out; it has no ``any_symptom``
    column (such a column is a covariate)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for column in ("id", "label", "age_years", "gender", "channel") + SYMPTOM_FIELDS:
            if column not in header:
                raise MissingColumn(column)
        for k, name in enumerate(header):
            if name in header[:k]:
                raise ConfoundAuditError(f"the header names the column {name!r} twice")
        has_score = "score" in header
        extra_cols = [h for h in header if h not in CSV_COLUMNS]

        records: list[ParticipantRecord] = []
        seen: set[str] = set()
        for i, row in enumerate(reader, start=1):
            if None in row:  # DictReader's key for the cells past the header
                raise BadValue(i, header[-1], f"{len(header) + len(row[None]) - 1} values, expected {len(header) - 1}")
            rid = (row["id"] or "").strip()
            if not rid or "\n" in rid or "\r" in rid or rid in seen:
                raise BadValue(i, "id", row["id"])
            seen.add(rid)

            raw_label = (row["label"] or "").strip()
            if raw_label == "":
                label: int | None = None
            elif raw_label in ("0", "1"):
                label = int(raw_label)
            else:
                raise BadValue(i, "label", raw_label)

            raw_age = (row["age_years"] or "").strip()
            if raw_age == "":
                age: int | None = None
            else:
                try:
                    age = int(raw_age)
                except ValueError:
                    raise BadValue(i, "age_years", raw_age) from None

            gender = (row["gender"] or "").strip().lower()
            if gender not in GENDERS:
                gender = "other"
            channel = (row["channel"] or "").strip()
            if channel not in CHANNELS:
                raise BadValue(i, "channel", channel)

            flags = {}
            for f in SYMPTOM_FIELDS:
                flags[f] = _parse_bool(row[f] or "", i, f)
            missing = frozenset(f for f, v in flags.items() if v is None)
            symptoms = SymptomProfile(**{f: bool(v) for f, v in flags.items() if v is not None}, missing=missing)

            score: float | None = None
            if has_score:
                raw_score = (row["score"] or "").strip()
                if raw_score != "":
                    try:
                        score = float(raw_score)
                    except ValueError:
                        raise BadValue(i, "score", raw_score) from None
                    if not (0.0 <= score <= 1.0):
                        raise BadValue(i, "score", raw_score)

            other = {c: (row[c] or "").strip() for c in extra_cols}
            records.append(
                ParticipantRecord(
                    id=rid,
                    label=label,
                    symptoms=symptoms,
                    age_years=age,
                    gender=gender,
                    channel=channel,
                    other_covariates=other,
                    score=score,
                )
            )
    manifest = make_manifest(path, rows=len(records), step="load")
    return Cohort(records=tuple(records), manifest=manifest)


def write_features_csv_writer(cohort: Cohort, path: str) -> None:
    """``cohort.write_features`` as one ``csv.writer`` row per record with a
    vector, each value cast to float on its own. An id that would not read
    back as written (blank, padded, or with a line break) is refused on its
    data row before the file is opened."""
    records = [r for r in cohort.records if r.features is not None]
    for row, r in enumerate(records, 1):
        if r.id.strip() != r.id or not r.id or "\n" in r.id or "\r" in r.id:
            raise BadValue(row, "id", r.id)
    dim = records[0].features.shape[0] if records else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + [f"f{j}" for j in range(dim)])
        writer.writerows(
            [r.id, *map(repr, np.asarray(r.features, dtype=float).tolist())] for r in records
        )


# ``ParticipantRecord``'s fields with the init a frozen dataclass generates,
# which stores each field with ``object.__setattr__``
GeneratedInitRecord = make_dataclass(
    "GeneratedInitRecord",
    [(f.name, f.type, field(default=f.default, default_factory=f.default_factory)) for f in fields(ParticipantRecord)],
    frozen=True,
    slots=True,
)


def pca_reconstruct(model: PcaModel, projected: np.ndarray) -> np.ndarray:
    """Map ``probes.pca_project`` output back to feature space."""
    k = projected.shape[1]
    return projected @ model.components[:k] + model.mean


def train_weak_linear_loop(features: np.ndarray, labels: np.ndarray, l2: float = 1.0,
                           n_iter: int = 200) -> WeakModel:
    """``probes.train_weak_linear`` as one model's own 200-step loop, with
    the masked gradient summed over the gathered violators.

    Deterministic full-batch subgradient descent on L2-regularized hinge
    loss, after per-column standardization.
    """
    x = np.asarray(features, dtype=float)
    y01 = np.asarray(labels, dtype=int)
    if x.ndim != 2 or x.shape[0] != y01.size:
        raise ValueError("features and labels must align")
    if not ((y01 == 1).any() and (y01 == 0).any()):
        raise OneClassOnly("weak model training needs both classes")
    y = 2.0 * y01 - 1.0

    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    z = (x - mean) / scale

    n = z.shape[0]
    w = np.zeros(z.shape[1])
    b = 0.0
    for t in range(1, n_iter + 1):
        eta = 1.0 / (l2 * t)
        margin = y * (z @ w + b)
        viol = margin < 1.0
        grad_w = l2 * w - (y[viol, None] * z[viol]).sum(axis=0) / n
        grad_b = -y[viol].sum() / n
        w = w - eta * grad_w
        b = b - eta * grad_b
    return WeakModel(feature_mean=mean, feature_scale=scale, weights=w, bias=float(b))


def weak_robust_curate_loop(matched: Cohort, calibration: Cohort, cfg: WeakProbeConfig) -> ProbeResult:
    """``probes.weak_robust_curate`` with one ``train_weak_linear_loop`` fit
    per k and cohort, the curated set kept as a set of ids and the kept mask
    rebuilt by a membership walk."""
    y = matched.labels()
    if not ((y == 1).any() and (y == 0).any()):
        raise OneClassOnly("matched cohort needs both classes")
    x = matched.feature_matrix()
    xc = calibration.feature_matrix()
    yc = calibration.labels()
    scores = matched.scores()
    ids = matched.ids()

    k_cap = min(cfg.k_max, x.shape[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficientWarning)
        pca = pca_fit(x[y == 0], n_components=k_cap)
    k_cap = pca.n_components
    z_all = pca_project(pca, x)
    z_cal = pca_project(pca, xc)

    curated = set(ids)
    ks, uar_m, uar_c, removed_per_k, curated_auc, curated_sizes = [], [], [], [], [], []
    tau = None
    uncurated_auc = auc(ScoredLabels(scores, y))
    for k in range(1, k_cap + 1):
        weak = train_weak_linear_loop(z_all[:, :k], y)
        preds = weak.predict(z_all[:, :k])
        uar_matched = uar(preds, y)

        weak_cal = train_weak_linear_loop(z_cal[:, :k], yc)
        uar_calib = uar(weak_cal.predict(z_cal[:, :k]), yc)
        if tau is None and uar_calib > cfg.calibration_uar_threshold:
            tau = k

        if preds.min() == preds.max():
            newly_removed: tuple[str, ...] = ()
        else:
            correct = preds == y
            newly_removed = tuple(ids[i] for i in range(len(ids)) if correct[i] and ids[i] in curated)
            curated.difference_update(newly_removed)

        keep_mask = np.array([rid in curated for rid in ids])
        if keep_mask.any() and (y[keep_mask] == 1).any() and (y[keep_mask] == 0).any():
            cur_auc = auc(ScoredLabels(scores[keep_mask], y[keep_mask]))
        else:
            cur_auc = None

        ks.append(k)
        uar_m.append(float(uar_matched))
        uar_c.append(float(uar_calib))
        removed_per_k.append(newly_removed)
        curated_auc.append(cur_auc)
        curated_sizes.append(int(keep_mask.sum()))

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


@dataclass(frozen=True)
class Substitution:
    neighbours: list[int]  # per positive, in cohort order: the index of its negative
    post_scores: np.ndarray
    post_auc: float
    distinct_neighbours: int


def nn_substitute_loop(matched: Cohort, distance: str) -> Substitution:
    """``probes.nn_substitute`` by brute force: for each positive, the
    argmin over every negative's distance, ties going to the lowest index."""
    y = matched.labels()
    x = matched.feature_matrix()
    scores = matched.scores()
    neg = [i for i in range(y.size) if y[i] == 0]
    post = scores.copy()
    neighbours = []
    for i in range(y.size):
        if y[i] != 1:
            continue
        diff = x[neg] - x[i]
        d = np.abs(diff).sum(axis=1) if distance == "manhattan" else np.sqrt((diff * diff).sum(axis=1))
        best = int(np.flatnonzero(d == d.min())[0])
        neighbours.append(neg[best])
        post[i] = scores[neg[best]]
    return Substitution(neighbours, post, auc(ScoredLabels(post, y)), len(set(neighbours)))
