"""Statistics primitives against independent oracles.

The variance-explained oracle here is written with plain dict/loop code,
no shared helpers with the implementation, so the two routes stay
independent. Welch and the incomplete beta are checked against scipy.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps
from scipy import stats as scipy_stats

from ranwatch.errors import DataError
from ranwatch.stats import (
    cohens_d,
    discretize,
    regularized_incomplete_beta,
    student_t_two_sided_p,
    variance_explained,
    welch_t,
)


def oracle_variance_explained(y, factor_cols, conditioning_cols):
    """Nested-loop reference: no numpy grouping, no shared code."""
    n = len(y)

    def group_mean_per_row(cols):
        if not cols:
            return [sum(y) / n] * n
        keys = [tuple(col[i] for col in cols) for i in range(n)]
        totals = {}
        counts = {}
        for key, value in zip(keys, y):
            totals[key] = totals.get(key, 0.0) + value
            counts[key] = counts.get(key, 0) + 1
        return [totals[k] / counts[k] for k in keys]

    def pop_var(values):
        m = sum(values) / len(values)
        return sum((v - m) ** 2 for v in values) / len(values)

    var_y = pop_var(y)
    joint = group_mean_per_row(list(conditioning_cols) + list(factor_cols))
    cond = group_mean_per_row(list(conditioning_cols))
    return (pop_var(joint) - pop_var(cond)) / var_y


def test_hand_worked_example_exact():
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    p = np.array([0, 0, 1, 1, 2, 2])
    report = variance_explained(y, [p])
    assert abs(report.score - 32.0 / 35.0) < 1e-15
    assert report.n_rows == 6
    assert report.n_groups == 3


def test_matches_oracle_on_random_tables():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        y = rng.normal(size=n)
        while float(np.var(y)) == 0.0:
            y = rng.normal(size=n)
        n_factor = int(rng.integers(1, 3))
        n_cond = int(rng.integers(0, 3))
        factors = [rng.integers(0, 3, size=n) for _ in range(n_factor)]
        conds = [rng.integers(0, 3, size=n) for _ in range(n_cond)]
        got = variance_explained(y, factors, conds).score
        want = oracle_variance_explained(list(y), factors, conds)
        assert abs(got - want) < 1e-12


def test_conditioning_on_factor_itself_gives_zero():
    rng = np.random.default_rng(0)
    y = rng.normal(size=30)
    p = rng.integers(0, 3, size=30)
    report = variance_explained(y, [p], [p])
    assert abs(report.score) < 1e-12


def test_zero_variance_target_rejected():
    with pytest.raises(DataError):
        variance_explained(np.ones(5), [np.arange(5)])


def test_target_variance_that_overflows_is_rejected():
    with pytest.raises(DataError, match="overflows"):
        variance_explained([1e308, 0.5, 0.4], [[0, 1, 1]])


@given(
    data=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=4,
        max_size=16,
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_score_bounds_and_permutation_invariance(data, seed):
    y = np.asarray(data, dtype=float)
    if float(np.var(y)) == 0.0:
        return
    rng = np.random.default_rng(seed)
    p = rng.integers(0, 3, size=len(y))
    q = rng.integers(0, 2, size=len(y))
    score = variance_explained(y, [p], [q]).score
    assert -1e-9 <= score <= 1.0 + 1e-9

    perm = rng.permutation(len(y))
    permuted = variance_explained(y[perm], [p[perm]], [q[perm]]).score
    assert abs(score - permuted) < 1e-9


@given(
    seed=st.integers(0, 2**16),
    scale=st.floats(min_value=0.1, max_value=50, allow_nan=False),
    shift=st.floats(min_value=-100, max_value=100, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_affine_invariance(seed, scale, shift):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=20)
    p = rng.integers(0, 4, size=20)
    base = variance_explained(y, [p]).score
    moved = variance_explained(scale * y + shift, [p]).score
    assert abs(base - moved) < 1e-7


@given(seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_adding_factor_columns_never_decreases_score(seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=24)
    p1 = rng.integers(0, 3, size=24)
    p2 = rng.integers(0, 3, size=24)
    q = rng.integers(0, 2, size=24)
    one = variance_explained(y, [p1], [q]).score
    both = variance_explained(y, [p1, p2], [q]).score
    assert both >= one - 1e-9


# ---------------------------------------------------------------------------
# discretization


def test_quantile_bins_balance_rank_data():
    values = np.arange(100, dtype=float)
    column = discretize(values, n_bins=5)
    counts = np.bincount(column.labels, minlength=5)
    assert column.n_bins == 5
    assert counts.min() >= 15
    assert (np.diff(values[np.argsort(column.labels, kind="stable")]) >= 0).all()


def test_discretize_monotone_mapping():
    rng = np.random.default_rng(3)
    values = rng.normal(size=80)
    labels = discretize(values, n_bins=4).labels
    order = np.argsort(values, kind="stable")
    assert (np.diff(labels[order]) >= 0).all()


def test_discretize_rejects_constant_and_empty():
    with pytest.raises(DataError):
        discretize(np.ones(10), n_bins=3)
    with pytest.raises(DataError):
        discretize(np.array([]), n_bins=3)
    with pytest.raises(DataError):
        discretize(np.array([1.0, np.nan, 2.0]), n_bins=2)


# ---------------------------------------------------------------------------
# welch / effect size / incomplete beta


def test_incomplete_beta_matches_scipy_grid():
    for a in (0.5, 1.0, 2.5, 7.0, 30.0):
        for b in (0.5, 1.0, 3.0, 12.0):
            for x in (0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0):
                got = regularized_incomplete_beta(a, b, x)
                want = float(sps.betainc(a, b, x))
                assert abs(got - want) < 1e-12, (a, b, x)


def test_two_sided_p_properties():
    assert student_t_two_sided_p(0.0, 5.0) == 1.0
    assert abs(
        student_t_two_sided_p(2.0, 10.0) - student_t_two_sided_p(-2.0, 10.0)
    ) < 1e-15
    assert student_t_two_sided_p(50.0, 10.0) < 1e-10


def test_welch_and_cohens_d_match_scipy():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(0.0, 1.0, size=int(rng.integers(5, 40)))
        b = rng.normal(0.3, 1.5, size=int(rng.integers(5, 40)))
        got = welch_t(a, b)
        want = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert abs(got.t - want.statistic) < 1e-10
        assert abs(got.p - want.pvalue) < 1e-10

        na, nb = len(a), len(b)
        pooled = math.sqrt(
            ((na - 1) * a.var(ddof=1) + (nb - 1) * b.var(ddof=1)) / (na + nb - 2)
        )
        assert abs(cohens_d(a, b) - (a.mean() - b.mean()) / pooled) < 1e-12


def test_welch_requires_spread_and_size():
    with pytest.raises(DataError):
        welch_t(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(DataError):
        welch_t(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
