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

    @property
    def pathological(self) -> bool:
        """True when EU would decrease in sensitivity or specificity."""
        return self.u11 < self.u01 or self.u00 < self.u10


@dataclass(frozen=True)
class UtilityParams:
    r_t: float
    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if self.r_t < 0 or self.epsilon < 0 or self.delta < 0:
            raise OutOfRange("utility parameters must be >= 0")


def utility_matrix(params: UtilityParams) -> UtilityMatrix:
    return UtilityMatrix(
        u11=params.r_t - params.epsilon,
        u10=-params.epsilon,
        u00=0.0,
        u01=-params.delta,
    )


@dataclass(frozen=True)
class OutcomeProbs:
    p11: float
    p10: float
    p00: float
    p01: float


def _check_unit(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise OutOfRange(f"{name} must lie in [0, 1], got {value}")


def enumerate_outcome_probs(pi: float, sens: float, spec: float) -> OutcomeProbs:
    _check_unit("pi", pi)
    _check_unit("sens", sens)
    _check_unit("spec", spec)
    return OutcomeProbs(
        p11=pi * sens,
        p01=pi * (1.0 - sens),
        p00=(1.0 - pi) * spec,
        p10=(1.0 - pi) * (1.0 - spec),
    )


def expected_utility(u: UtilityMatrix, pi: float, sens: float, spec: float) -> float:
    _check_unit("pi", pi)
    _check_unit("sens", sens)
    _check_unit("spec", spec)
    return pi * ((u.u11 - u.u01) * sens + u.u01) + (1.0 - pi) * ((u.u00 - u.u10) * spec + u.u10)


def expected_utility_enumerated(u: UtilityMatrix, probs: OutcomeProbs) -> float:
    """sum(u_zy * p_zy); agrees with :func:`expected_utility` to rounding."""
    return u.u11 * probs.p11 + u.u10 * probs.p10 + u.u00 * probs.p00 + u.u01 * probs.p01


@dataclass(frozen=True)
class MaxEuPoint:
    pi: float
    max_eu: float
    threshold: float
    sensitivity: float
    specificity: float


def default_pi_grid(pi_max: float = 0.1, n: int = 101) -> np.ndarray:
    return np.linspace(0.0, pi_max, n)


def max_eu_curve(roc: RocCurve, params: UtilityParams, pi_grid=None) -> list[MaxEuPoint]:
    """Point-wise maximum expected utility over a curve's operating points.

    At each prevalence the pick is the point of highest EU; ties in EU go to
    the higher-specificity point (fewer false positives), and remaining ties
    to the first point in curve order. Sensitivities and specificities must
    lie in [0, 1].
    """
    if roc.thresholds.size == 0:
        raise EmptyCurve("ROC curve has no operating points")
    if pi_grid is None:
        pi_grid = default_pi_grid()
    u = utility_matrix(params)
    sens = roc.sensitivities
    spec = roc.specificities
    for name, values in (("sens", sens), ("spec", spec)):
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise OutOfRange(f"every {name} must lie in [0, 1]")
    out: list[MaxEuPoint] = []
    for pi in np.asarray(pi_grid, dtype=float):
        _check_unit("pi", pi)
        eu = pi * ((u.u11 - u.u01) * sens + u.u01) + (1.0 - pi) * ((u.u00 - u.u10) * spec + u.u10)
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
