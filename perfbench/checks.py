"""Independent checks of the program's outputs.

Every check recomputes its expectation apart from the program (from raw
record fields, with numpy, or with scipy's reference implementations), or
tests a property the method must have. Each returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.stats import false_discovery_control, mannwhitneyu, norm

ACUTE = (
    "cough",
    "sore_throat",
    "asthma",
    "shortness_of_breath",
    "runny_blocked_nose",
    "new_continuous_cough",
)
FLAGS = ACUTE + ("copd_emphysema", "other_respiratory", "smoker")
REL = 1e-12


def _close(a: float, b: float, rel: float = REL, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


# -- record-level helpers ------------------------------------------------------


def any_symptom(record) -> bool:
    return any(getattr(record.symptoms, f) for f in ACUTE)


def age_bin(age: int) -> int:
    """Index of the 10-year bin anchored at 18, with 78+ as the last bin."""
    return min((age - 18) // 10, 6)


def stratum(record, covariates, include_channel: bool) -> tuple:
    key = [record.channel] if include_channel else []
    key += [age_bin(record.age_years), record.gender]
    for name in covariates:
        key.append(any_symptom(record) if name == "any_symptom" else bool(getattr(record.symptoms, name)))
    return tuple(key)


def class_counts(records, covariates, include_channel: bool) -> dict[tuple, list[int]]:
    counts: dict[tuple, list[int]] = {}
    for r in records:
        counts.setdefault(stratum(r, covariates, include_channel), [0, 0])[r.label] += 1
    return counts


def _binomial_ok(hits: int, n: int, p: float, what: str) -> list[str]:
    if n == 0:
        return []
    sd = math.sqrt(p * (1.0 - p) / n)
    share = hits / n
    if abs(share - p) > 5.0 * sd:
        return [f"{what}: share {share:.5f} of {n} is more than 5 SD from {p}"]
    return []


# -- population ------------------------------------------------------------------


def check_population_draw(records, n: int, prevalence: float, p_sym_pos: float,
                          p_sym_neg: float) -> list[str]:
    out = []
    if len(records) != n:
        out.append(f"population has {len(records)} people, expected {n}")
    if len({r.id for r in records}) != len(records):
        out.append("population ids repeat")
    labels = np.array([r.label for r in records])
    sym = np.array([any_symptom(r) for r in records])
    out += _binomial_ok(int(labels.sum()), labels.size, prevalence, "prevalence")
    out += _binomial_ok(int(sym[labels == 1].sum()), int((labels == 1).sum()), p_sym_pos, "symptomatic | pos")
    out += _binomial_ok(int(sym[labels == 0].sum()), int((labels == 0).sum()), p_sym_neg, "symptomatic | neg")
    return out


def check_enrol_shares(population, enrolled_ids, weights: dict[tuple, float]) -> list[str]:
    """``weights[(any_symptom, label)]`` is the enrolment probability."""
    enrolled = set(enrolled_ids)
    out = []
    if len(enrolled) != len(enrolled_ids):
        out.append("enrolled ids repeat")
    if not enrolled <= {r.id for r in population}:
        out.append("enrolled ids outside the population")
    cells: dict[tuple, list[int]] = {}
    for r in population:
        cell = cells.setdefault((any_symptom(r), r.label), [0, 0])
        cell[0] += r.id in enrolled
        cell[1] += 1
    for key, (hits, n) in sorted(cells.items()):
        out += _binomial_ok(hits, n, weights[key], f"enrolled share of cell {key}")
    return out


def check_balanced(inputs, outputs, covariates, include_channel: bool) -> list[str]:
    """Every stratum of the output holds min(n_pos, n_neg) of its input
    stratum in each class, and the output is a subset of the input."""
    out = []
    in_ids = {r.id for r in inputs}
    out_ids = [r.id for r in outputs]
    if len(set(out_ids)) != len(out_ids):
        out.append("matched ids repeat")
    if not set(out_ids) <= in_ids:
        out.append("matched ids outside the input")
    before = class_counts(inputs, covariates, include_channel)
    after = class_counts(outputs, covariates, include_channel)
    for key, (neg, pos) in before.items():
        want = min(neg, pos)
        got = after.get(key, [0, 0])
        if got != [want, want]:
            out.append(f"stratum {key}: kept {got} of {[neg, pos]}, expected {want} per class")
    if set(after) - set(before):
        out.append("output strata absent from the input")
    return out


def check_same_ids(a, b, what: str) -> list[str]:
    ids_a, ids_b = {r.id for r in a}, {r.id for r in b}
    if ids_a != ids_b:
        return [f"{what}: id sets differ ({len(ids_a ^ ids_b)} ids)"]
    return []


def check_validated(inputs, outputs, removed: int, min_age: int = 18) -> list[str]:
    def ok(r):
        return (
            r.label is not None
            and r.age_years is not None
            and r.age_years >= min_age
            and "_missing_flags" not in r.other_covariates
            and r.symptoms.reported_any in (None, any_symptom(r))
        )

    want = [r.id for r in inputs if ok(r)]
    got = [r.id for r in outputs]
    out = []
    if got != want:
        out.append(f"validated ids differ: kept {len(got)}, expected {len(want)}")
    if removed != len(inputs) - len(want):
        out.append(f"reported {removed} removals, expected {len(inputs) - len(want)}")
    return out


def check_split(inputs, train, test, fraction: float) -> list[str]:
    ids = [r.id for r in inputs]
    tr, te = [r.id for r in train], [r.id for r in test]
    out = []
    if set(tr) & set(te):
        out.append("train and test overlap")
    if sorted(tr + te) != sorted(ids):
        out.append("train and test do not cover the input exactly")
    if len(tr) != math.floor(fraction * len(ids) + 0.5):
        out.append(f"train has {len(tr)} records, expected round-half-up({fraction} * {len(ids)})")
    return out


def check_resample(pool, drawn, n_pos: int, n_neg: int, p_sym_pos: float, p_sym_neg: float) -> list[str]:
    out = []
    ids = [r.id for r in drawn]
    if len(set(ids)) != len(ids):
        out.append("resampled ids repeat")
    if not set(ids) <= {r.id for r in pool}:
        out.append("resampled ids outside the pool")
    for label, n, p in ((1, n_pos, p_sym_pos), (0, n_neg, p_sym_neg)):
        members = [r for r in drawn if r.label == label]
        sym = sum(any_symptom(r) for r in members)
        males = sum(r.gender == "male" for r in members)
        if len(members) != n:
            out.append(f"class {label}: {len(members)} records, expected {n}")
        if sym != math.floor(n * p + 0.5):
            out.append(f"class {label}: {sym} symptomatic, expected round-half-up({n} * {p})")
        if males != n // 2:
            out.append(f"class {label}: {males} males, expected {n // 2}")
    return out


def check_roundtrip(written, loaded) -> list[str]:
    """Every loaded field equals the written one; features bit-identical."""
    if len(written) != len(loaded):
        return [f"loaded {len(loaded)} records, wrote {len(written)}"]
    for i, (a, b) in enumerate(zip(written, loaded)):
        for name in ("id", "label", "age_years", "gender", "channel", "score"):
            if getattr(a, name) != getattr(b, name):
                return [f"row {i + 1}: {name} {getattr(b, name)!r} != {getattr(a, name)!r}"]
        for f in FLAGS:
            if getattr(a.symptoms, f) != getattr(b.symptoms, f):
                return [f"row {i + 1}: {f} differs"]
        if a.other_covariates != b.other_covariates:
            return [f"row {i + 1}: covariates differ"]
        if a.features is None or b.features is None:
            if (a.features is None) != (b.features is None):
                return [f"row {i + 1}: features present on one side only"]
        elif a.features.dtype != b.features.dtype or a.features.tobytes() != b.features.tobytes():
            return [f"row {i + 1}: features are not bit-identical"]
    return []


# -- bias-demo report tables --------------------------------------------------------


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_identical(reference: dict[str, bytes], got: dict[str, bytes]) -> list[str]:
    if set(reference) != set(got):
        return [f"output files differ: {sorted(set(reference) ^ set(got))}"]
    return [f"{name} differs from the manifest rerun" for name in sorted(got) if got[name] != reference[name]]


def check_balance_rows(text: str) -> list[str]:
    out = []
    rows = _rows(text)
    if not rows:
        out.append("balance table is empty")
    for r in rows:
        want = min(int(r["n_pos_in"]), int(r["n_neg_in"]))
        if int(r["n_kept_per_class"]) != want:
            out.append(f"stratum {r['stratum']}: kept {r['n_kept_per_class']}, expected {want}")
    return out


def check_roc_rows(text: str) -> list[str]:
    curves: dict[str, list[tuple[float, float, float]]] = {}
    for r in _rows(text):
        curves.setdefault(r["curve"], []).append(
            (float(r["threshold"]), float(r["sensitivity"]), float(r["specificity"]))
        )
    out = [] if curves else ["ROC table is empty"]
    for name, pts in curves.items():
        out += [f"{name}: {m}" for m in _roc_shape(*(np.array(c) for c in zip(*pts)))]
    return out


def _roc_shape(thresholds, se, sp) -> list[str]:
    out = []
    if not (np.all(np.diff(thresholds) > 0) and np.all(np.diff(se) <= 0) and np.all(np.diff(sp) >= 0)):
        out.append("ROC points are not monotone")
    if (se[0], sp[0]) != (1.0, 0.0) or (se[-1], sp[-1]) != (0.0, 1.0):
        out.append("ROC does not run from (1, 0) to (0, 1)")
    return out


def expected_utility(pi, sens, spec, r_t: float, eps: float, delta: float):
    """Outcome enumeration: sum of utility times outcome probability."""
    return pi * sens * (r_t - eps) + pi * (1.0 - sens) * (-delta) + (1.0 - pi) * (1.0 - spec) * (-eps)


def check_max_eu_rows(text: str, r_t: float, eps: float, delta: float) -> list[str]:
    out = []
    rows = _rows(text)
    if not rows:
        out.append("max-EU table is empty")
    for r in rows:
        pi, eu = float(r["pi"]), float(r["max_eu"])
        sens, spec = float(r["sensitivity"]), float(r["specificity"])
        corners = (expected_utility(pi, 1.0, 0.0, r_t, eps, delta), expected_utility(pi, 0.0, 1.0, r_t, eps, delta))
        if eu < max(corners) - 1e-12:
            out.append(f"{r['curve']} pi={pi}: max EU {eu} below a corner's {max(corners)}")
        if not _close(eu, expected_utility(pi, sens, spec, r_t, eps, delta), abs_=1e-12):
            out.append(f"{r['curve']} pi={pi}: max EU {eu} is not the EU of its (sens, spec)")
    return out


def two_by_two_stats(t) -> dict[str, float]:
    """phi and mutual information (nats) of a 2x2 count table t[z][y]."""
    (a, b), (c, d) = t  # a: z0y0, b: z0y1, c: z1y0, d: z1y1
    n = a + b + c + d
    phi = (d * a - c * b) / math.sqrt((a + b) * (c + d) * (a + c) * (b + d))
    mi = 0.0
    for cell, rz, cy in ((a, a + b, a + c), (b, a + b, b + d), (c, c + d, a + c), (d, c + d, b + d)):
        if cell:
            mi += cell / n * math.log(cell * n / (rz * cy))
    return {"phi": phi, "mi_nats": mi}


def check_two_by_two(text: str, counts) -> list[str]:
    values = {r["name"]: float(r["value"]) for r in _rows(text)}
    n = sum(sum(row) for row in counts)
    out = []
    for z in (0, 1):
        for y in (0, 1):
            name = f"p_pred{z}_status{y}"
            if not _close(values.get(name, math.nan), counts[z][y] / n, abs_=1e-15):
                out.append(f"{name} {values.get(name)} != {counts[z][y]}/{n}")
    for name, want in two_by_two_stats(counts).items():
        if not _close(values.get(name, math.nan), want, abs_=1e-15):
            out.append(f"{name} {values.get(name)} != recomputed {want}")
    return out


# -- inference ------------------------------------------------------------------------


def mwu_auc(scores, labels) -> float:
    pos, neg = scores[labels == 1], scores[labels == 0]
    return float(mannwhitneyu(pos, neg, method="asymptotic").statistic) / (pos.size * neg.size)


def placements(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """DeLong structural components from sorted-array placements."""
    pos, neg = scores[labels == 1], scores[labels == 0]
    sp, sn = np.sort(pos), np.sort(neg)
    below = np.searchsorted(sn, pos, "left")
    v_pos = (below + 0.5 * (np.searchsorted(sn, pos, "right") - below)) / neg.size
    above = pos.size - np.searchsorted(sp, neg, "right")
    v_neg = (above + 0.5 * (np.searchsorted(sp, neg, "right") - np.searchsorted(sp, neg, "left"))) / pos.size
    return v_pos, v_neg


def delong_se(scores, labels) -> float:
    v_pos, v_neg = placements(scores, labels)
    return math.sqrt(np.var(v_pos, ddof=1) / v_pos.size + np.var(v_neg, ddof=1) / v_neg.size)


def _interval_se(ci) -> float:
    return (ci.upper - ci.lower) / (2.0 * norm.ppf(0.5 + ci.level / 2.0))


def check_auc_ci(scores, labels, ci) -> list[str]:
    out = []
    want = mwu_auc(scores, labels)
    if not _close(ci.estimate, want):
        out.append(f"AUC {ci.estimate!r} != U/(mn) {want!r}")
    if ci.clipped:
        out.append("interval was clipped; its SE cannot be recovered")
    else:
        if ci.method == "delong":
            se = delong_se(scores, labels)
        else:
            a, m, n = want, int((labels == 1).sum()), int((labels == 0).sum())
            q1, q2 = a / (2.0 - a), 2.0 * a * a / (1.0 + a)
            se = math.sqrt((a * (1 - a) + (m - 1) * (q1 - a * a) + (n - 1) * (q2 - a * a)) / (m * n))
        if not _close(_interval_se(ci), se):
            out.append(f"{ci.method} SE {_interval_se(ci)!r} != recomputed {se!r}")
        if ci.detail is not None and not _close(ci.detail.se, se):
            out.append(f"{ci.method} detail SE {ci.detail.se!r} != recomputed {se!r}")
    return out


def check_delong_test(scores_a, scores_b, labels, result) -> list[str]:
    va_pos, va_neg = placements(scores_a, labels)
    vb_pos, vb_neg = placements(scores_b, labels)
    var = np.var(va_pos - vb_pos, ddof=1) / va_pos.size + np.var(va_neg - vb_neg, ddof=1) / va_neg.size
    z = (va_pos.mean() - vb_pos.mean()) / math.sqrt(var)
    out = []
    if not _close(result["z"], z):
        out.append(f"paired z {result['z']!r} != recomputed {z!r}")
    for key, s in (("auc_a", scores_a), ("auc_b", scores_b)):
        if not _close(result[key], mwu_auc(s, labels)):
            out.append(f"{key} {result[key]!r} != U/(mn)")
    return out


def check_roc(scores, labels, roc) -> list[str]:
    se, sp = roc.sensitivities, roc.specificities
    out = _roc_shape(roc.thresholds, se, sp)
    if roc.thresholds.size != np.unique(scores).size + 1:
        out.append("ROC does not have one point per distinct score plus the end point")
    fpr, tpr = (1.0 - sp)[::-1], se[::-1]
    area = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    if not _close(area, mwu_auc(scores, labels), abs_=1e-12):
        out.append(f"trapezoid area {area!r} != AUC")
    return out


def average_precision(scores, labels) -> float:
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    last = np.r_[np.nonzero(s[1:] != s[:-1])[0], s.size - 1]
    tp = np.cumsum(y)[last]
    recall = tp / y.sum()
    return float(np.sum(np.diff(np.r_[0.0, recall]) * tp / (last + 1)))


def check_pr_auc(scores, labels, value) -> list[str]:
    want = average_precision(scores, labels)
    return [] if _close(value, want) else [f"PR AUC {value!r} != recomputed {want!r}"]


def check_mwu(pos, neg, result, mode: str) -> list[str]:
    method = "exact" if mode == "exact" else "asymptotic"
    ref = mannwhitneyu(pos, neg, method=method, use_continuity=True)
    out = []
    if not _close(result["u"], float(ref.statistic)):
        out.append(f"U {result['u']!r} != scipy {float(ref.statistic)!r}")
    if not _close(result["p"], float(ref.pvalue)):
        out.append(f"{mode} p {result['p']!r} != scipy {float(ref.pvalue)!r}")
    return out


def check_calibration(scores, labels, bins, ece, n_bins: int = 10) -> list[str]:
    idx = np.minimum((scores * n_bins).astype(int), n_bins - 1)
    want = []
    for b in range(n_bins):
        mask = idx == b
        if mask.any():
            want.append((float(scores[mask].mean()), float(labels[mask].mean()), int(mask.sum())))
    got = [(b.mean_score, b.frac_positive, b.count) for b in bins]
    out = []
    if len(got) != len(want) or any(
        g[2] != w[2] or not _close(g[0], w[0]) or not _close(g[1], w[1]) for g, w in zip(got, want)
    ):
        out.append("calibration bins differ from recomputed bins")
    want_ece = sum(c / scores.size * abs(m - f) for m, f, c in want)
    if not _close(ece, want_ece, abs_=1e-15):
        out.append(f"ECE {ece!r} != recomputed {want_ece!r}")
    return out


def check_stratified(records, covariates, include_channel, min_per_class, q, results) -> list[str]:
    groups: dict[tuple, list] = {}
    for r in records:
        groups.setdefault(stratum(r, covariates, include_channel), []).append(r)
    want = []
    for members in groups.values():
        scores = np.array([r.score for r in members])
        labels = np.array([r.label for r in members])
        n_pos, n_neg = int(labels.sum()), int((labels == 0).sum())
        if min(n_pos, n_neg) >= min_per_class:
            want.append((n_pos, n_neg, mwu_auc(scores, labels), scores, labels))
    out = []
    got = sorted(results, key=lambda s: (s.n_pos, s.n_neg, s.auc))
    want.sort(key=lambda w: w[:3])
    if [(s.n_pos, s.n_neg) for s in got] != [w[:2] for w in want] or any(
        not _close(s.auc, w[2]) for s, w in zip(got, want)
    ):
        return ["per-stratum class counts or AUCs differ from recomputed strata"]
    for s, (_, _, _, scores, labels) in zip(got, want):
        p = float(mannwhitneyu(scores[labels == 1], scores[labels == 0], method="asymptotic").pvalue)
        if not _close(s.mwu_p, p):
            out.append(f"stratum {s.key}: MWU p {s.mwu_p!r} != scipy {p!r}")
    reject = false_discovery_control([s.mwu_p for s in results], method="bh") <= q
    if [bool(s.fdr_reject) for s in results] != reject.tolist():
        out.append("BH rejections differ from scipy false_discovery_control")
    return out


def check_max_eu(roc, pi_grid, points, r_t: float, eps: float, delta: float) -> list[str]:
    """Brute force over every (pi, operating point): the pick attains the
    maximum and has the highest specificity among the points that do.

    One pi row at a time, so the check never holds more than one row of
    EU values and does not raise the run's peak RSS above the program's."""
    pis = np.asarray(pi_grid, dtype=float)
    se, sp = roc.sensitivities, roc.specificities
    out = []
    if len(points) != pis.size:
        return [f"{len(points)} max-EU points for {pis.size} prevalences"]
    for pi, p in zip(pis, points):
        eu = expected_utility(pi, se, sp, r_t, eps, delta)
        best = eu.max()
        ties = eu >= best - 1e-12
        pick_eu = expected_utility(pi, p.sensitivity, p.specificity, r_t, eps, delta)
        if p.pi != pi or not _close(p.max_eu, best, abs_=1e-12) or not _close(pick_eu, best, abs_=1e-12):
            out.append(f"pi={pi}: max EU {p.max_eu!r} != brute force {best!r}")
        elif p.specificity != sp[ties].max():
            out.append(f"pi={pi}: pick has specificity {p.specificity}, a tie has {sp[ties].max()}")
    return out


def check_weak_probe(result, confounded: bool, min_drop: float = 0.2, max_change: float = 0.05) -> list[str]:
    if result.tau is None:
        return ["weak probe: calibration task never passed"]
    change = result.uncurated_auc - result.curated_auc_at_tau
    if confounded and change < min_drop:
        return [f"weak probe missed planted confounding: AUC drop {change:.4f} < {min_drop}"]
    if not confounded and abs(change) > max_change:
        return [f"weak probe flagged a true signal: AUC change {change:.4f}"]
    return []


def check_nn_probe(result, confounded: bool) -> list[str]:
    if bool(result.attribution_flag) != confounded:
        return [f"NN probe flag {result.attribution_flag} on a {'confounded' if confounded else 'true-signal'} cohort"]
    return []
