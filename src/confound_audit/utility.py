"""Expected utility of a testing protocol.

A protocol applied to a random individual produces one of four outcomes
(predict 1 or 0 against a true status of 1 or 0) with utilities u11, u10,
u00, u01 measured in infections prevented. Given prevalence ``pi`` and the
protocol's sensitivity and specificity, the per-test expected utility is

    EU = pi * [(u11 - u01) * sens + u01] + (1 - pi) * [(u00 - u10) * spec + u10]

which equals the outcome-probability enumeration sum(u_zy * p_zy) with
p11 = pi*sens, p01 = pi*(1-sens), p00 = (1-pi)*spec, p10 = (1-pi)*(1-spec).

The standard three-parameter utility family:

    u11 = R_t - eps   (true positive: R_t onward infections prevented,
                       minus the isolation cost eps)
    u10 = -eps        (false positive: isolation cost only)
    u00 = 0           (true negative)
    u01 = -delta      (false negative: extra infections from false reassurance)

``max_eu_curve`` computes the two bracketed gains once per curve, O(points),
then scores a few blocks of points per prevalence rather than every point.
It cuts the curve into blocks and keeps each block's largest gains. Rounding
to nearest is monotone and pi, 1 - pi >= 0, so pi * (largest positive gain)
+ (1 - pi) * (largest negative gain), evaluated in floating point, is at
least every computed EU in the block. A block whose bound is below the best
EU of the block with the highest bound holds no point that reaches the
maximum, nor one that ties it, so skipping it keeps every output bit of the
full scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCurve, OutOfRange
from .metrics import RocCurve

# operating points per block, and the most elements that a group of
# prevalences may score at once
_BLOCK = 64
_BUDGET = 2**16


@dataclass(frozen=True)
class UtilityMatrix:
    u11: float
    u10: float
    u00: float
    u01: float


@dataclass(frozen=True)
class UtilityParams:
    r_t: float
    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        for name in ("r_t", "epsilon", "delta"):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise OutOfRange(f"{name} must be >= 0 and finite, got {value}")
        # u11 - u01, the weight of sensitivity in EU
        if not math.isfinite(self.r_t - self.epsilon + self.delta):
            raise OutOfRange(f"r_t - epsilon + delta must be finite, got r_t={self.r_t}, delta={self.delta}")


def utility_matrix(params: UtilityParams) -> UtilityMatrix:
    return UtilityMatrix(
        u11=params.r_t - params.epsilon,
        u10=-params.epsilon,
        u00=0.0,
        u01=-params.delta,
    )


def _check_unit(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise OutOfRange(f"{name} must lie in [0, 1], got {value}")


def _gains(u: UtilityMatrix, sens, spec):
    """The prevalence-free halves of EU: what a positive and what a negative
    individual is worth, for numbers or for arrays of operating points."""
    return (u.u11 - u.u01) * sens + u.u01, (u.u00 - u.u10) * spec + u.u10


def _combine(pi, gain_pos, gain_neg):
    """EU from its gains, for numbers or for broadcast arrays."""
    return pi * gain_pos + (1.0 - pi) * gain_neg


def expected_utility(u: UtilityMatrix, pi: float, sens: float, spec: float) -> float:
    _check_unit("pi", pi)
    _check_unit("sens", sens)
    _check_unit("spec", spec)
    return _combine(pi, *_gains(u, sens, spec))


@dataclass(frozen=True)
class MaxEuPoint:
    pi: float
    max_eu: float
    threshold: float
    sensitivity: float
    specificity: float


def default_pi_grid(pi_max: float = 0.1) -> np.ndarray:
    _check_unit("pi_max", pi_max)
    return np.linspace(0.0, pi_max, 101)


def max_eu_curve(roc: RocCurve, params: UtilityParams, pi_grid) -> list[MaxEuPoint]:
    """Point-wise maximum expected utility over a curve's operating points.

    At each prevalence the pick is the point of highest EU; ties in EU go to
    the higher-specificity point (fewer false positives), and remaining ties
    to the first point in curve order. Sensitivities and specificities must
    lie in [0, 1], and ``pi_grid`` must be a one-dimensional sequence of
    prevalences in [0, 1].

    Each prevalence scores only the blocks of ``_BLOCK`` points whose bound
    reaches the best EU of the block with the highest bound; see the module
    docstring for why that pick is the full scan's, bit for bit.
    """
    if roc.thresholds.size == 0:
        raise EmptyCurve("ROC curve has no operating points")
    sens = roc.sensitivities
    spec = roc.specificities
    for name, values in (("sens", sens), ("spec", spec)):
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise OutOfRange(f"every {name} must lie in [0, 1]")
    pis = np.asarray(pi_grid, dtype=float)
    if pis.ndim != 1:
        raise OutOfRange(f"pi_grid must be a one-dimensional sequence, got shape {pis.shape}")
    outside = ~((pis >= 0.0) & (pis <= 1.0))
    if outside.any():
        _check_unit("pi", pis[np.argmax(outside)])

    # the gains and specificities in rows of _BLOCK points; the last row is
    # padded with copies of the last point, which tie with it and so never win
    pad = (0, -sens.size % _BLOCK)
    gain_pos, gain_neg, spec_rows = (
        np.pad(v, pad, mode="edge").reshape(-1, _BLOCK) for v in (*_gains(utility_matrix(params), sens, spec), spec)
    )
    top_pos, top_neg = gain_pos.max(axis=1), gain_neg.max(axis=1)

    picks = np.empty(pis.size, dtype=np.intp)
    eus = np.empty(pis.size)
    rows = max(1, _BUDGET // max(top_pos.size, _BLOCK))
    for start in range(0, pis.size, rows):
        pi = pis[start : start + rows, None]
        bound = _combine(pi, top_pos, top_neg)
        lead = bound.argmax(axis=1)
        floor = _combine(pi, gain_pos[lead], gain_neg[lead]).max(axis=1)
        at, blocks = np.nonzero(bound >= floor[:, None])
        # group the prevalences so that each group scores at most _BUDGET
        # points; a prevalence whose candidates exceed it is scored alone
        ends = np.searchsorted(at, np.arange(pi.size + 1))
        i = 0
        while i < pi.size:
            j = max(i + 1, int(np.searchsorted(ends, ends[i] + _BUDGET // _BLOCK, side="right")) - 1)
            k = slice(ends[i], ends[j])
            sl = slice(start + i, start + j)
            picks[sl], eus[sl] = _pick(pis[sl], blocks[k], ends[i:j] - ends[i], gain_pos, gain_neg, spec_rows)
            i = j
    return [
        MaxEuPoint(
            pi=float(p),
            max_eu=float(e),
            threshold=float(roc.thresholds[b]),
            sensitivity=float(sens[b]),
            specificity=float(spec[b]),
        )
        for p, e, b in zip(pis, eus, picks)
    ]


def _pick(pi, blocks, starts, gain_pos, gain_neg, spec_rows):
    """Per prevalence in ``pi``, the point of highest EU, then highest
    specificity, then first index, among its candidate blocks, and its EU.
    The candidates are ``blocks``: each prevalence's in block order, its
    first at ``starts``."""
    at = starts * _BLOCK
    sizes = np.diff(at, append=blocks.size * _BLOCK)
    eu = _combine(np.repeat(pi, sizes), gain_pos[blocks].ravel(), gain_neg[blocks].ravel())
    tied = eu == np.repeat(np.maximum.reduceat(eu, at), sizes)
    spec = np.where(tied, spec_rows[blocks].ravel(), -np.inf)
    wins = np.flatnonzero(spec == np.repeat(np.maximum.reduceat(spec, at), sizes))
    first = wins[np.searchsorted(wins, at)]
    return blocks[first // _BLOCK] * _BLOCK + first % _BLOCK, eu[first]
