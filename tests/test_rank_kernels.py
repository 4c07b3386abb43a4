"""The rank and max-EU kernels against their slow reference forms.

Every comparison is exact (``np.array_equal`` or tuple equality), not a
tolerance: the fast kernels count the same half-integers and pick the same
operating points as the references in ``reference_kernels.py``.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import norm, rankdata

from confound_audit import metrics, utility
from confound_audit.metrics import ScoredLabels, auc, auc_ci, delong_test, mwu_test, pr_auc, roc_curve
from confound_audit.utility import UtilityParams, default_pi_grid, max_eu_curve, utility_matrix

from reference_kernels import (
    max_eu_per_pi,
    max_eu_points,
    midranks_loop,
    mwu_exact_enumerated,
    mwu_normal_unique_ties,
    pr_auc_stable_sort,
    psi_components_pairwise,
    roc_curve_loop,
    tie_runs_loop,
)

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


SIGNED_ZEROS = st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=1, max_size=8).map(np.array)


@st.composite
def signed_zero_cohorts(draw):
    """Both classes over scores from 0.0, -0.0 and 1.0."""
    x = draw(SIGNED_ZEROS.filter(lambda a: a.size >= 2))
    m = draw(st.integers(1, x.size - 1))
    return ScoredLabels(x, np.array(draw(st.permutations([1] * m + [0] * (x.size - m)))))


@given(st.one_of(CLASS_SIZE.flatmap(tied_scores), SIGNED_ZEROS), st.data())
def test_tie_runs_equal_unique_and_loop(x, draw):
    is_pos = np.array(draw.draw(st.lists(st.booleans(), min_size=x.size, max_size=x.size)), dtype=bool)
    run, pos, neg = metrics._tie_runs(x, is_pos)
    want = tie_runs_loop(x, is_pos)
    assert all(np.array_equal(a, b) for a, b in zip((run, pos, neg), want))
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    assert np.array_equal(run, inverse) and np.array_equal(pos + neg, counts)
    # 0.0 and -0.0 compare equal, so they share one run
    zeros = run[x == 0.0]
    assert zeros.size == 0 or (zeros == zeros[0]).all()


@given(st.one_of(scored_labels(), signed_zero_cohorts()))
def test_roc_curve_equals_loop(data):
    roc = roc_curve(data)
    got = (roc.thresholds, roc.sensitivities, roc.specificities)
    assert all(np.array_equal(a, b) for a, b in zip(got, roc_curve_loop(data)))


@given(scored_labels())
def test_pr_auc_equals_stable_sort(data):
    assert pr_auc(data) == pr_auc_stable_sort(data)


@given(scored_labels())
def test_mwu_normal_equals_unique_tie_counts(data):
    got = mwu_test(data.pos, data.neg, mode="normal")
    assert got == mwu_normal_unique_ties(data.pos, data.neg)


def test_normal_functions_equal_scipy_stats():
    for q in (0.975, 0.99):
        assert ndtri(q) == norm.ppf(q)
    for z in (0.0, -0.0, 0.5, 1.96, -3.0, 8.5, 38.0, 40.0, np.inf, -np.inf):
        assert ndtr(-abs(z)) == norm.sf(abs(z))


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


def test_delong_aucs_equal_auc_over_tied_cases():
    rng = np.random.default_rng(20)
    for _ in range(500):
        m, n = rng.integers(2, 60, size=2)
        labels = rng.permutation(np.repeat([1, 0], [m, n]))
        a, b = (ScoredLabels(np.round(rng.random(m + n), int(rng.integers(1, 3))), labels) for _ in "ab")
        result = delong_test(a, b)
        assert (result["auc_a"], result["auc_b"]) == (auc(a), auc(b))
        assert auc_ci(a, "delong").estimate == auc(a)


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


@st.composite
def block_curves(draw):
    """Curves of 1 to 6 blocks of the max-EU kernel, give or take a point,
    over coarse rates, in ROC order or shuffled. Coarse rates tie in EU
    across blocks, and every block edge has the same (sens, spec) point on
    both sides."""
    block = utility._BLOCK
    n = draw(st.integers(1, 6)) * block + draw(st.sampled_from([-1, 0, 1]))
    levels = draw(st.sampled_from([1, 2, 4, 8, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sens = np.sort(rng.integers(0, levels + 1, n))[::-1] / levels
    spec = np.sort(rng.integers(0, levels + 1, n)) / levels
    if draw(st.booleans()):
        order = rng.permutation(n)
        sens, spec = sens[order], spec[order]
    edges = np.arange(block, n, block)
    sens[edges], spec[edges] = sens[edges - 1], spec[edges - 1]
    return metrics.RocCurve(np.arange(n, dtype=float), sens, spec)


# a true positive worth less than its isolation cost: the sensitivity gain
# (r_t - epsilon + delta) is negative
NEGATIVE_GAIN = st.builds(
    UtilityParams,
    r_t=st.integers(0, 5).map(lambda k: k / 10),
    epsilon=st.integers(6, 20).map(lambda k: k / 10),
    delta=st.sampled_from([0.0, 0.05]),
)
EDGE_GRID = st.lists(st.sampled_from([0.0, 1.0, 0.05, 0.5]) | st.floats(0.0, 1.0), min_size=1, max_size=12)


def _reprs(points):
    return repr(_fields(points))


@settings(max_examples=200)
@given(block_curves(), st.one_of(PARAMS, NEGATIVE_GAIN, st.just(UtilityParams(0.0, 0.0, 0.0))),
       st.one_of(PI_GRID, EDGE_GRID))
def test_max_eu_skips_blocks_exactly(roc, params, grid):
    # compared by repr, so that a signed zero counts
    want = max_eu_points(roc, utility_matrix(params), grid)
    assert _reprs(max_eu_curve(roc, params, grid)) == repr(want)


def test_max_eu_long_curve_fine_grid():
    rng = np.random.default_rng(11)
    n = 10**5
    sens = np.round(np.sort(rng.random(n))[::-1], 4)
    spec = np.round(np.sort(rng.random(n)), 4)
    roc = metrics.RocCurve(np.arange(n, dtype=float), sens, spec)
    grid = np.linspace(0.0, 1.0, 1001)
    for params in (UtilityParams(1.5, 0.2, 0.0), UtilityParams(0.3, 0.9, 0.05)):
        want = max_eu_per_pi(roc, utility_matrix(params), grid)
        assert _reprs(max_eu_curve(roc, params, grid)) == repr(want)


def test_max_eu_all_tied_curve_longer_than_budget():
    # every point ties at every pi, so no block is skipped and each pi scores
    # more points than the budget on its own
    rng = np.random.default_rng(12)
    n = utility._BUDGET + utility._BLOCK + 1
    spec = rng.integers(0, 3, n) / 2
    spec[: 2 * utility._BLOCK + 5] = 0.5  # the pick lies past the first blocks
    roc = metrics.RocCurve(np.arange(n, dtype=float), rng.integers(0, 3, n) / 2, spec)
    grid = [0.0, 0.5, 1.0, 0.5]
    zero = UtilityParams(0.0, 0.0, 0.0)
    want = max_eu_per_pi(roc, utility_matrix(zero), grid)
    assert _reprs(max_eu_curve(roc, zero, grid)) == repr(want)
    assert {p[4] for p in want} == {1.0}
    same = metrics.RocCurve(np.arange(n, dtype=float), np.full(n, 0.5), np.full(n, 0.5))
    params = UtilityParams(1.5, 0.2, 0.0)
    points = max_eu_curve(same, params, grid)
    assert _reprs(points) == repr(max_eu_per_pi(same, utility_matrix(params), grid))
    assert {p.threshold for p in points} == {0.0}
