"""Analytical-expansion credible intervals (the paper's future work).

The conclusion of the paper announces "methods for the computation of
confidence intervals using analytical expansion techniques". This
module implements that idea on top of any posterior in the package: a
Cornish–Fisher expansion turns the posterior's first four cumulants —
which every posterior here exposes in closed form or as cheap sums —
into skewness- and kurtosis-corrected quantiles, without any quantile
inversion:

``x_q ≈ mean + std * [ z + γ1 (z²-1)/6 + γ2 (z³-3z)/24 - γ1² (2z³-5z)/36 ]``

The first-order truncation (``z`` only) is exactly the Laplace/Wald
interval; the higher orders recover most of the asymmetry that makes
LAPL's intervals sit too far left (paper Tables 2–3), at the cost of
four moments instead of a full quantile search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import obs
from repro.bayes.joint import JointPosterior

__all__ = ["CornishFisherInterval", "cornish_fisher_quantile", "expansion_interval"]


def _standardised_cumulants(
    posterior: JointPosterior, param: str
) -> tuple[float, float, float, float]:
    mean = posterior.mean(param)
    variance = posterior.variance(param)
    if variance <= 0.0:
        raise ValueError(f"posterior variance of {param} is not positive")
    std = math.sqrt(variance)
    mu3 = posterior.central_moment(param, 3)
    mu4 = posterior.central_moment(param, 4)
    skewness = mu3 / std**3
    excess_kurtosis = mu4 / std**4 - 3.0
    return mean, std, skewness, excess_kurtosis


def cornish_fisher_quantile(
    posterior: JointPosterior,
    param: str,
    q: float,
    *,
    order: int = 4,
) -> float:
    """Approximate posterior quantile from the first ``order`` cumulants.

    Parameters
    ----------
    posterior:
        Any joint posterior exposing ``mean``, ``variance`` and
        ``central_moment``.
    param:
        "omega" or "beta".
    q:
        Quantile level in (0, 1).
    order:
        2 = normal (Laplace-equivalent), 3 = skewness-corrected,
        4 = skewness + kurtosis corrected.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    if order not in (2, 3, 4):
        raise ValueError("order must be 2, 3 or 4")
    mean, std, skew, kurt = _standardised_cumulants(posterior, param)
    from scipy import stats as st

    z = float(st.norm.ppf(q))
    w = z
    if order >= 3:
        w += skew * (z**2 - 1.0) / 6.0
    if order >= 4:
        w += kurt * (z**3 - 3.0 * z) / 24.0
        w -= skew**2 * (2.0 * z**3 - 5.0 * z) / 36.0
    return mean + std * w


@dataclass(frozen=True)
class CornishFisherInterval:
    """Expansion-based credible interval with its ingredients.

    Attributes
    ----------
    lower, upper:
        The interval endpoints.
    level:
        Nominal two-sided level.
    order:
        Expansion order used.
    skewness, excess_kurtosis:
        The standardised cumulants that entered the correction.
    """

    lower: float
    upper: float
    level: float
    order: int
    skewness: float
    excess_kurtosis: float


def expansion_interval(
    posterior: JointPosterior,
    param: str,
    level: float = 0.99,
    *,
    order: int = 4,
) -> CornishFisherInterval:
    """Two-sided credible interval via the Cornish–Fisher expansion.

    For mildly skewed posteriors this matches the exact (inverted-CDF)
    interval to a fraction of a percent at a fraction of the cost; the
    tests quantify the improvement over the order-2 (Laplace-style)
    interval on the System 17 posteriors.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    tail = 0.5 * (1.0 - level)
    with obs.span("expansion.interval", param=param, order=order):
        _, _, skew, kurt = _standardised_cumulants(posterior, param)
        if obs.enabled():
            obs.counter_add("expansion.intervals")
            obs.observe("expansion.skewness", skew)
            obs.observe("expansion.excess_kurtosis", kurt)
        return CornishFisherInterval(
            lower=cornish_fisher_quantile(posterior, param, tail, order=order),
            upper=cornish_fisher_quantile(
                posterior, param, 1.0 - tail, order=order
            ),
            level=level,
            order=order,
            skewness=skew,
            excess_kurtosis=kurt,
        )
