"""Goodness-of-fit assessment for NHPP software reliability models.

The paper attributes the DG-NoInfo instability to the grouped data
being fitted worse by the Goel–Okumoto model than the failure-time
data. These tools make such statements quantitative:

* :func:`laplace_trend_test` — the classical Laplace test for
  reliability growth in a failure-time series (negative = growth);
* :func:`ks_uplot_statistic` — the u-plot / Kolmogorov–Smirnov distance
  between the fitted and empirical mean-value functions, using the
  conditional-uniform property of NHPP arrival times;
* :func:`chi_square_grouped` — Pearson chi-square for grouped counts
  against a fitted model, with expected-count pooling;
* :func:`log_likelihood_ratio` — fitted-model deviance comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.data.failure_data import FailureTimeData, GroupedData
from repro.models.base import NHPPModel

__all__ = [
    "TrendTestResult",
    "laplace_trend_test",
    "ks_uplot_statistic",
    "ChiSquareResult",
    "chi_square_grouped",
    "log_likelihood_ratio",
]


@dataclass(frozen=True)
class TrendTestResult:
    """Outcome of the Laplace trend test.

    Attributes
    ----------
    statistic:
        Standard-normal test statistic; large negative values indicate
        reliability growth (inter-failure times lengthening).
    p_value:
        Two-sided p-value against "no trend" (homogeneous Poisson).
    """

    statistic: float
    p_value: float

    @property
    def indicates_growth(self) -> bool:
        """True when the statistic points to reliability growth at 5%."""
        return self.statistic < -1.6449  # one-sided 5%


def laplace_trend_test(data: FailureTimeData) -> TrendTestResult:
    """Laplace test on a failure-time series.

    Under a homogeneous Poisson process the normalised mid-point
    statistic ``(mean(t_i)/te - 1/2) * sqrt(12 n)`` is asymptotically
    standard normal; deviations below zero mean failures concentrate
    early — reliability growth.
    """
    n = data.count
    if n < 2:
        raise ValueError("the trend test needs at least two failures")
    statistic = (data.times.mean() / data.horizon - 0.5) * math.sqrt(12.0 * n)
    from scipy import stats as st

    p_value = 2.0 * float(st.norm.sf(abs(statistic)))
    return TrendTestResult(statistic=statistic, p_value=p_value)


def ks_uplot_statistic(data: FailureTimeData, model: NHPPModel) -> float:
    """Kolmogorov–Smirnov distance of the u-plot.

    Conditional on ``M(te) = n``, NHPP failure times are distributed as
    order statistics of ``n`` draws from ``Λ(t)/Λ(te)``; mapping each
    failure time through that CDF must give uniforms. Returns the KS
    distance of those transforms from uniformity (smaller = better fit).
    """
    n = data.count
    if n == 0:
        raise ValueError("cannot assess fit with zero failures")
    scaled = np.asarray(model.mean_value(data.times), dtype=float) / float(
        model.mean_value(data.horizon)
    )
    empirical = np.arange(1, n + 1) / n
    lower = np.abs(scaled - empirical)
    upper = np.abs(scaled - (empirical - 1.0 / n))
    return float(np.maximum(lower, upper).max())


@dataclass(frozen=True)
class ChiSquareResult:
    """Pearson chi-square test for grouped counts.

    Attributes
    ----------
    statistic:
        Pearson X^2 over the pooled cells.
    dof:
        Degrees of freedom (cells - 1 - n_estimated_params).
    p_value:
        Upper-tail chi-square p-value (NaN when dof <= 0).
    n_cells:
        Number of cells after pooling.
    """

    statistic: float
    dof: int
    p_value: float
    n_cells: int


def chi_square_grouped(
    data: GroupedData,
    model: NHPPModel,
    *,
    n_estimated_params: int = 2,
    min_expected: float = 5.0,
) -> ChiSquareResult:
    """Pearson chi-square of grouped counts against a fitted model.

    Adjacent intervals are pooled until every expected count reaches
    ``min_expected`` (the standard validity rule).
    """
    edges = data.interval_edges()
    expected_raw = np.diff(np.asarray(model.mean_value(edges), dtype=float))
    observed_raw = np.asarray(data.counts, dtype=float)

    pooled_obs: list[float] = []
    pooled_exp: list[float] = []
    acc_obs = acc_exp = 0.0
    for obs, exp in zip(observed_raw, expected_raw):
        acc_obs += obs
        acc_exp += exp
        if acc_exp >= min_expected:
            pooled_obs.append(acc_obs)
            pooled_exp.append(acc_exp)
            acc_obs = acc_exp = 0.0
    if acc_exp > 0.0:
        if pooled_exp:
            pooled_obs[-1] += acc_obs
            pooled_exp[-1] += acc_exp
        else:
            pooled_obs.append(acc_obs)
            pooled_exp.append(acc_exp)

    obs_arr = np.asarray(pooled_obs)
    exp_arr = np.asarray(pooled_exp)
    statistic = float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())
    dof = obs_arr.size - 1 - n_estimated_params
    from scipy import stats as st

    p_value = float(st.chi2.sf(statistic, dof)) if dof > 0 else math.nan
    return ChiSquareResult(
        statistic=statistic, dof=dof, p_value=p_value, n_cells=obs_arr.size
    )


def log_likelihood_ratio(
    data: FailureTimeData | GroupedData,
    model_a: NHPPModel,
    model_b: NHPPModel,
) -> float:
    """``log L(model_a) - log L(model_b)`` on the same data; positive
    values favour ``model_a``."""
    return model_a.log_likelihood(data) - model_b.log_likelihood(data)
