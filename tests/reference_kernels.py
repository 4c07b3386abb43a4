"""Slow reference implementations of the rank, max-EU and CART kernels.

These are the direct O(m*n), per-element and enumerating forms of
``metrics`` and ``utility`` internals, and the argsort-per-node-per-feature
CART of ``forest``. The fast kernels must return exactly the same floats;
``test_rank_kernels.py`` and ``test_forest.py`` compare the two. None of
these accept NaN: ``midranks_loop`` never terminates on it.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


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


def psi_components_pairwise(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """DeLong placements from every (positive, negative) comparison."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    v_pos = np.zeros(pos.size)
    v_neg = np.zeros(neg.size)
    chunk = max(1, int(2_000_000 / max(1, neg.size)))
    for start in range(0, pos.size, chunk):
        block = pos[start : start + chunk, None]
        psi = (block > neg[None, :]).astype(float)
        psi += 0.5 * (block == neg[None, :])
        v_pos[start : start + chunk] = psi.mean(axis=1)
        v_neg += psi.sum(axis=0)
    v_neg /= pos.size
    return v_pos, v_neg


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
