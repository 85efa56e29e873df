"""Statistical primitives for factor attribution and group comparison.

The central quantity is the additional share of variance a factor bundle
explains on top of a conditioning set:

    score = (Var(E[y | p, q]) - Var(E[y | q])) / Var(y)

with population variances (divide by n) and size-weighted group means.
Using population variance makes the law of total variance hold exactly on
finite samples, so the score is guaranteed to lie in [0, 1] and refining
the conditioning set can never reduce the explained variance.

Group comparison uses Welch's unequal-variance t statistic. The two-sided
p value needs the Student t survival function, implemented here via the
regularized incomplete beta function (continued fraction) so the package
core stays dependency-free beyond numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError


# ---------------------------------------------------------------------------
# discretization


@dataclass(frozen=True)
class DiscretizedColumn:
    """Ordinal bin labels for one continuous column."""

    name: str
    edges: tuple[float, ...]  # includes data min and max, strictly increasing
    labels: np.ndarray  # int labels, one per row

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1


def discretize(values: Sequence[float], n_bins: int = 5, name: str = "") -> DiscretizedColumn:
    """Equal-frequency binning with duplicate quantile edges collapsed.

    All-constant input cannot be binned and raises DataError. Duplicate
    edges (heavily tied data) reduce the bin count instead of producing
    empty bins.
    """
    if n_bins < 2:
        raise DataError("n_bins must be at least 2")
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DataError("discretize expects a non-empty 1-d column")
    if not np.isfinite(arr).all():
        raise DataError(f"column {name or '<unnamed>'} contains non-finite values")
    quantiles = np.linspace(0.0, 1.0, n_bins + 1)
    edges = np.unique(np.quantile(arr, quantiles))
    if len(edges) < 2:
        raise DataError(
            f"column {name or '<unnamed>'} has zero variance, cannot bin"
        )
    # interior edges define the cuts; v <= edge goes left, min stays in bin 0
    labels = np.searchsorted(edges, arr, side="right") - 1
    labels = np.clip(labels, 0, len(edges) - 2)
    return DiscretizedColumn(name=name, edges=tuple(float(e) for e in edges), labels=labels)


# ---------------------------------------------------------------------------
# conditional variance share


@dataclass(frozen=True)
class VarianceReport:
    """Variance share of one factor bundle for one target."""

    score: float
    n_rows: int
    n_groups: int


def _group_means(y: np.ndarray, columns: Sequence[Sequence]) -> tuple[np.ndarray, int]:
    """Each row's mean of ``y`` over the rows that share its label in every
    column, and the number of such groups. Rows get integer group codes, and
    ``np.bincount`` sums each group in row order."""
    codes = np.zeros(y.size, dtype=np.int64)
    for col in columns:
        labels = np.unique(np.asarray(col), return_inverse=True)[1]
        if labels.shape != y.shape:
            raise DataError("factor columns must share the target's length")
        codes = np.unique(codes * (labels.max() + 1) + labels, return_inverse=True)[1]
    return (np.bincount(codes, weights=y) / np.bincount(codes))[codes], int(codes.max()) + 1


def _pop_var(values: np.ndarray) -> float:
    center = values - values.mean()
    return float(np.mean(center * center))


def variance_explained(
    y: Sequence[float],
    factor_columns: Sequence[Sequence],
    conditioning_columns: Sequence[Sequence] = (),
) -> VarianceReport:
    """Share of Var(y) explained by the factor beyond the conditioning set.

    Factor and conditioning inputs are label columns, each of numbers or of
    strings; a joint category is one combination of labels across columns.
    With an empty conditioning set the subtracted term is zero and the score
    reduces to the plain between-group variance share. A target whose
    variance overflows a float is a DataError.
    """
    y_arr = np.asarray(y, dtype=float)
    if y_arr.ndim != 1 or y_arr.size == 0:
        raise DataError("target must be a non-empty 1-d column")
    if not np.isfinite(y_arr).all():
        raise DataError("target contains non-finite values")
    if not factor_columns:
        raise DataError("at least one factor column is required")
    with np.errstate(over="ignore"):
        var_y = _pop_var(y_arr)
    if var_y <= 0.0:
        raise DataError("target has zero variance")
    if not math.isfinite(var_y):
        raise DataError("target variance overflows a float")

    e_full, n_groups = _group_means(y_arr, list(conditioning_columns) + list(factor_columns))
    var_cond = 0.0
    if conditioning_columns:
        var_cond = _pop_var(_group_means(y_arr, conditioning_columns)[0])
    score = (_pop_var(e_full) - var_cond) / var_y
    return VarianceReport(score=float(score), n_rows=int(y_arr.size), n_groups=n_groups)


# ---------------------------------------------------------------------------
# Student t survival function via the regularized incomplete beta


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iter = 300
    eps = 1e-15
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise DataError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) accurate to well below 1e-10 for the df ranges used here."""
    if not (a > 0 and b > 0):
        raise DataError("incomplete beta requires positive parameters")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # continued fraction converges fastest on the side where x is small
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= t) for T ~ Student t with df degrees of freedom."""
    if df <= 0:
        raise DataError("degrees of freedom must be positive")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


class WelchResult(NamedTuple):
    t: float
    p: float


def welch_t(a: Sequence[float], b: Sequence[float]) -> WelchResult:
    """Welch's unequal-variance t test with a two-sided p value.

    Degrees of freedom follow Welch-Satterthwaite. Each sample needs at
    least two values and positive variance.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size < 2 or y.size < 2:
        raise DataError("welch_t requires at least two values per group")
    var_x = float(x.var(ddof=1))
    var_y = float(y.var(ddof=1))
    if var_x <= 0.0 or var_y <= 0.0:
        raise DataError("welch_t requires positive variance in both groups")
    nx, ny = x.size, y.size
    se2_x = var_x / nx
    se2_y = var_y / ny
    t = (float(x.mean()) - float(y.mean())) / math.sqrt(se2_x + se2_y)
    df = (se2_x + se2_y) ** 2 / (
        se2_x**2 / (nx - 1) + se2_y**2 / (ny - 1)
    )
    return WelchResult(t=t, p=student_t_two_sided_p(abs(t), df))


def cohens_d(a: Sequence[float], b: Sequence[float]) -> float:
    """Standardized mean difference with an (n-1)-weighted pooled sd."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size < 2 or y.size < 2:
        raise DataError("cohens_d requires at least two values per group")
    var_x = float(x.var(ddof=1))
    var_y = float(y.var(ddof=1))
    pooled = ((x.size - 1) * var_x + (y.size - 1) * var_y) / (x.size + y.size - 2)
    if pooled <= 0.0:
        raise DataError("cohens_d requires positive pooled variance")
    return (float(x.mean()) - float(y.mean())) / math.sqrt(pooled)
