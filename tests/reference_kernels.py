"""Slow reference implementations of the rank and max-EU kernels.

These are the direct O(m*n), per-element and enumerating forms of
``metrics`` and ``utility`` internals. The fast kernels must return exactly
the same floats; ``test_rank_kernels.py`` compares the two. None of these
accept NaN: ``midranks_loop`` never terminates on it.
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
