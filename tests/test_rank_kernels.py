"""The rank and max-EU kernels against their slow reference forms.

Every comparison is exact (``np.array_equal`` or tuple equality), not a
tolerance: the fast kernels count the same half-integers and pick the same
operating points as the references in ``reference_kernels.py``.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from confound_audit import metrics
from confound_audit.metrics import ScoredLabels, auc, auc_ci, delong_test, mwu_test, roc_curve
from confound_audit.utility import UtilityParams, default_pi_grid, max_eu_curve, utility_matrix

from reference_kernels import max_eu_points, midranks_loop, mwu_exact_enumerated, psi_components_pairwise

CLASS_SIZE = st.one_of(st.integers(1, 2), st.integers(1, 40))


@st.composite
def tied_scores(draw, size):
    """``size`` scores rounded to 0-2 decimals, or all equal."""
    if draw(st.integers(0, 9)) == 0:
        return np.full(size, draw(st.sampled_from([0.0, 0.5, 1.0])))
    decimals = draw(st.integers(0, 2))
    value = st.floats(-2.0, 2.0, allow_nan=False).map(lambda x: round(x, decimals))
    return np.array(draw(st.lists(value, min_size=size, max_size=size)))


@st.composite
def scored_labels(draw, min_per_class=1):
    m = draw(CLASS_SIZE.filter(lambda k: k >= min_per_class))
    n = draw(CLASS_SIZE.filter(lambda k: k >= min_per_class))
    labels = np.array(draw(st.permutations([1] * m + [0] * n)))
    return ScoredLabels(draw(tied_scores(m + n)), labels)


def _fields(points):
    return [(p.pi, p.max_eu, p.threshold, p.sensitivity, p.specificity) for p in points]


@given(st.integers(1, 60).flatmap(tied_scores))
def test_rankdata_equals_midrank_loop(x):
    assert np.array_equal(rankdata(x), midranks_loop(x))


@given(scored_labels())
def test_psi_components_equal_pairwise(data):
    fast = metrics._psi_components(data.scores, data.labels)
    slow = psi_components_pairwise(data.scores, data.labels)
    assert np.array_equal(fast[0], slow[0])
    assert np.array_equal(fast[1], slow[1])


@given(scored_labels())
def test_auc_equals_loop_midrank_sum(data):
    m, n = data.pos.size, data.neg.size
    rank_sum = float(np.sum(midranks_loop(data.scores)[data.labels == 1]))
    assert auc(data) == (rank_sum - m * (m + 1) / 2.0) / (m * n)


@given(scored_labels(min_per_class=2), st.data())
def test_delong_results_equal_with_pairwise_components(a, draw):
    b = ScoredLabels(draw.draw(tied_scores(a.scores.size)), a.labels)
    fast = (tuple(vars(auc_ci(a, "delong")).values()), delong_test(a, b))
    with mock.patch.object(metrics, "_psi_components", psi_components_pairwise):
        slow = (tuple(vars(auc_ci(a, "delong")).values()), delong_test(a, b))
    assert fast == slow


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_mwu_exact_equals_enumeration(m, n, draw):
    pooled = draw.draw(tied_scores(m + n))
    got = mwu_test(pooled[:m], pooled[m:], mode="exact")
    want = mwu_exact_enumerated(pooled[:m], pooled[m:])
    assert (got["u"], got["p"]) == (want["u"], want["p"])


def test_mwu_exact_equals_enumeration_at_limit():
    rng = np.random.default_rng(3)
    for decimals in (1, 3):
        pos = np.round(rng.random(10) + 0.2, decimals)
        neg = np.round(rng.random(10), decimals)
        got = mwu_test(pos, neg, mode="exact")
        want = mwu_exact_enumerated(pos, neg)
        assert (got["u"], got["p"]) == (want["u"], want["p"])


PARAMS = st.builds(
    UtilityParams,
    r_t=st.integers(0, 30).map(lambda k: k / 10),
    epsilon=st.integers(0, 10).map(lambda k: k / 10),
    delta=st.integers(0, 5).map(lambda k: k / 10),
)
PI_GRID = st.one_of(
    st.just(default_pi_grid()),
    st.lists(st.one_of(st.integers(0, 20).map(lambda k: k / 20), st.floats(0.0, 1.0)), min_size=1, max_size=20),
)


@given(scored_labels(), PARAMS, PI_GRID)
def test_max_eu_equals_per_pi_max(data, params, grid):
    roc = roc_curve(data)
    want = max_eu_points(roc, utility_matrix(params), grid)
    assert _fields(max_eu_curve(roc, params, grid)) == want


@given(PARAMS, PI_GRID)
def test_max_eu_corners_and_repeated_points(params, grid):
    # only the ROC corners, then repeated points: EU ties that fall through
    # to specificity and then to the first index
    curves = [
        ([0.3, np.inf], [1.0, 0.0], [0.0, 1.0]),
        ([0.1, 0.2, 0.3, 0.4, np.inf], [1.0, 1.0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.5, 0.5, 1.0]),
        ([0.1, 0.2, 0.3, np.inf], [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]),
    ]
    for t, se, sp in curves:
        roc = metrics.RocCurve(np.array(t), np.array(se), np.array(sp))
        want = max_eu_points(roc, utility_matrix(params), grid)
        assert _fields(max_eu_curve(roc, params, grid)) == want
