import numpy as np
import pytest

from confound_audit.errors import OutOfRange
from confound_audit.metrics import RocCurve
from confound_audit.utility import (
    UtilityMatrix,
    UtilityParams,
    default_pi_grid,
    enumerate_outcome_probs,
    expected_utility,
    expected_utility_enumerated,
    max_eu_curve,
    utility_matrix,
)


def test_utility_matrix_mapping():
    m = utility_matrix(UtilityParams(r_t=1.5, epsilon=0.2, delta=0.0))
    assert (m.u11, m.u10, m.u00, m.u01) == (1.3, -0.2, 0.0, 0.0)
    z = utility_matrix(UtilityParams(0.0, 0.0, 0.0))
    assert (z.u11, z.u10, z.u00, z.u01) == (0.0, 0.0, 0.0, 0.0)
    d = utility_matrix(UtilityParams(1.0, 0.02, 0.25))
    assert d.u01 == -0.25


def test_utility_params_validation():
    with pytest.raises(OutOfRange):
        UtilityParams(r_t=-1.0, epsilon=0.0)


def test_pathological_flag():
    assert UtilityMatrix(u11=-1.0, u10=0.0, u00=0.0, u01=0.0).pathological
    assert not utility_matrix(UtilityParams(1.5, 0.2, 0.0)).pathological


def test_eu_perfect_test():
    m = utility_matrix(UtilityParams(1.5, 0.2, 0.0))
    assert expected_utility(m, 0.05, 1.0, 1.0) == 0.05 * 1.3


def test_eu_always_negative_zero_delta():
    m = utility_matrix(UtilityParams(1.5, 0.2, 0.0))
    assert expected_utility(m, 0.1, 0.0, 1.0) == 0.0


def test_eu_always_positive_balances():
    m = utility_matrix(UtilityParams(1.0, 0.02, 0.0))
    assert expected_utility(m, 0.02, 1.0, 0.0) == 0.0


def test_eu_range_checks():
    m = utility_matrix(UtilityParams(1.0, 0.0, 0.0))
    with pytest.raises(OutOfRange):
        expected_utility(m, 1.2, 0.5, 0.5)


def test_outcome_probs_examples():
    p = enumerate_outcome_probs(0.5, 0.5, 0.5)
    assert (p.p11, p.p01, p.p00, p.p10) == (0.25, 0.25, 0.25, 0.25)
    p = enumerate_outcome_probs(0.0, 0.7, 0.6)
    assert p.p11 == 0.0 and p.p01 == 0.0
    p = enumerate_outcome_probs(0.02, 0.65, 0.8)
    assert abs(p.p11 - 0.013) < 1e-15
    assert abs(p.p01 - 0.007) < 1e-15
    assert abs(p.p00 - 0.784) < 1e-15
    assert abs(p.p10 - 0.196) < 1e-15


def test_outcome_probs_constraints():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pi, sens, spec = rng.random(3)
        p = enumerate_outcome_probs(pi, sens, spec)
        assert abs(p.p11 + p.p01 - pi) <= 1e-15
        assert abs(p.p00 + p.p10 - (1.0 - pi)) <= 1e-15


def test_eu_forms_agree():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        pi, sens, spec = rng.random(3)
        u = UtilityMatrix(*rng.normal(scale=3.0, size=4))
        closed = expected_utility(u, pi, sens, spec)
        enumerated = expected_utility_enumerated(u, enumerate_outcome_probs(pi, sens, spec))
        assert abs(closed - enumerated) <= 1e-12


def _toy_curve():
    return RocCurve(
        thresholds=np.array([0.2, 0.5, 0.8, np.inf]),
        sensitivities=np.array([1.0, 0.8, 0.4, 0.0]),
        specificities=np.array([0.0, 0.6, 0.9, 1.0]),
    )


def test_max_eu_single_point():
    curve = RocCurve(
        thresholds=np.array([0.5]),
        sensitivities=np.array([0.7]),
        specificities=np.array([0.6]),
    )
    points = max_eu_curve(curve, UtilityParams(1.5, 0.2, 0.0), [0.0, 0.05, 0.1])
    assert all(p.sensitivity == 0.7 and p.specificity == 0.6 for p in points)


def test_max_eu_zero_prevalence_corner():
    points = max_eu_curve(_toy_curve(), UtilityParams(1.5, 0.2, 0.0), [0.0])
    assert points[0].sensitivity == 0.0
    assert points[0].specificity == 1.0
    assert points[0].max_eu == 0.0


def test_eu_monotone_in_sens_and_spec():
    rng = np.random.default_rng(5)
    for _ in range(200):
        u = UtilityMatrix(*rng.normal(scale=2.0, size=4))
        pi = rng.random()
        sens, spec = rng.random(2)
        bump = rng.random() * (1.0 - max(sens, spec))
        if u.u11 >= u.u01:
            assert expected_utility(u, pi, sens + bump, spec) >= expected_utility(u, pi, sens, spec) - 1e-12
        if u.u00 >= u.u10:
            assert expected_utility(u, pi, sens, spec + bump) >= expected_utility(u, pi, sens, spec) - 1e-12


def test_max_eu_dominance():
    params = UtilityParams(1.5, 0.2, 0.0)
    grid = default_pi_grid(0.1)
    strong = _toy_curve()
    weak = RocCurve(
        thresholds=strong.thresholds,
        sensitivities=np.maximum(strong.sensitivities - 0.2, 0.0),
        specificities=strong.specificities,
    )
    for a, b in zip(max_eu_curve(strong, params, grid), max_eu_curve(weak, params, grid)):
        assert a.max_eu >= b.max_eu - 1e-15


def test_max_eu_affine_argmax_invariance():
    grid = [0.0, 0.03, 0.07, 0.1]
    base = utility_matrix(UtilityParams(1.5, 0.2, 0.1))
    shifted = UtilityMatrix(base.u11 + 2.0, base.u10 + 2.0, base.u00 + 2.0, base.u01 + 2.0)
    curve = _toy_curve()

    def argmaxes(u):
        out = []
        for pi in grid:
            eus = [
                expected_utility(u, pi, se, sp)
                for se, sp in zip(curve.sensitivities, curve.specificities)
            ]
            best = max(range(len(eus)), key=lambda i: (eus[i], curve.specificities[i]))
            out.append(best)
        return out

    assert argmaxes(base) == argmaxes(shifted)
    a = max_eu_curve(curve, UtilityParams(1.5, 0.2, 0.1), grid)
    for pi_idx, p in enumerate(a):
        eu_shifted = expected_utility(shifted, p.pi, p.sensitivity, p.specificity)
        assert abs(eu_shifted - (p.max_eu + 2.0)) <= 1e-12


def test_max_eu_tie_breaks_toward_specificity():
    # with all-zero utilities every point ties at EU=0; the corner with
    # specificity 1 must win
    curve = _toy_curve()
    points = max_eu_curve(curve, UtilityParams(0.0, 0.0, 0.0), [0.05])
    assert points[0].specificity == 1.0


@pytest.mark.parametrize("field", ["sensitivities", "specificities"])
@pytest.mark.parametrize("bad", [np.nan, 1.5, -0.1])
def test_max_eu_rejects_rates_outside_unit_interval(field, bad):
    curve = _toy_curve()
    values = getattr(curve, field).copy()
    values[1] = bad
    with pytest.raises(OutOfRange):
        max_eu_curve(RocCurve(**{**vars(curve), field: values}), UtilityParams(1.5, 0.2, 0.0))


def test_default_grid_shape():
    grid = default_pi_grid()
    assert grid.size == 101
    assert grid[0] == 0.0 and grid[-1] == 0.1
