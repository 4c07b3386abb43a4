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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCurve, OutOfRange
from .metrics import RocCurve


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


def _eu(u: UtilityMatrix, pi, sens, spec):
    """The closed-form EU, for numbers or for arrays of operating points."""
    return pi * ((u.u11 - u.u01) * sens + u.u01) + (1.0 - pi) * ((u.u00 - u.u10) * spec + u.u10)


def expected_utility(u: UtilityMatrix, pi: float, sens: float, spec: float) -> float:
    _check_unit("pi", pi)
    _check_unit("sens", sens)
    _check_unit("spec", spec)
    return _eu(u, pi, sens, spec)


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
    lie in [0, 1].
    """
    if roc.thresholds.size == 0:
        raise EmptyCurve("ROC curve has no operating points")
    u = utility_matrix(params)
    sens = roc.sensitivities
    spec = roc.specificities
    for name, values in (("sens", sens), ("spec", spec)):
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise OutOfRange(f"every {name} must lie in [0, 1]")
    out: list[MaxEuPoint] = []
    for pi in np.asarray(pi_grid, dtype=float):
        _check_unit("pi", pi)
        eu = _eu(u, pi, sens, spec)
        # argmax returns the first index among equal maxima
        best = int(np.argmax(np.where(eu == eu.max(), spec, -np.inf)))
        out.append(
            MaxEuPoint(
                pi=float(pi),
                max_eu=float(eu[best]),
                threshold=float(roc.thresholds[best]),
                sensitivity=float(sens[best]),
                specificity=float(spec[best]),
            )
        )
    return out
