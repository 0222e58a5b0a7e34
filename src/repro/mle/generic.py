"""Maximum likelihood for arbitrary NHPP model families.

The EM module is specific to the gamma-type family (its E-step uses
gamma truncated moments); this module fits *any* two-parameter model in
the zoo — Weibull, Rayleigh, log-normal, Pareto — by direct numerical
optimisation over ``(log ω, log β)``.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable

import numpy as np

from repro.data.failure_data import FailureTimeData, GroupedData
from repro.exceptions import EstimationError
from repro.mle.fisher import observed_information
from repro.mle.results import MLEResult
from repro.models.base import NHPPModel

__all__ = ["fit_mle_generic"]

_logger = logging.getLogger(__name__)


def fit_mle_generic(
    data: FailureTimeData | GroupedData,
    model_factory: Callable[..., NHPPModel],
    *,
    initial: tuple[float, float] | None = None,
    information: bool = True,
    **fixed_params: float,
) -> MLEResult:
    """Fit any two-parameter NHPP SRM by quasi-Newton optimisation.

    Parameters
    ----------
    data:
        Failure-time or grouped data.
    model_factory:
        Model constructor taking ``omega``, ``beta`` and optionally the
        ``fixed_params`` (e.g. ``shape=2.0`` for a Weibull member).
    initial:
        Starting ``(ω, β)``; a crude moment guess by default.
    information:
        Also compute the observed information matrix.
    fixed_params:
        Extra keyword arguments forwarded to the constructor (the fixed
        family parameters that are not estimated).
    """
    if isinstance(data, FailureTimeData):
        observed = data.count
    elif isinstance(data, GroupedData):
        observed = data.total_count
    else:
        raise TypeError(f"unsupported data type: {type(data).__name__}")
    if observed == 0:
        raise EstimationError("cannot fit an NHPP model to zero failures")
    if initial is None:
        initial = (1.2 * observed, 1.0 / data.horizon)

    def negative(z: np.ndarray) -> float:
        try:
            model = model_factory(
                omega=math.exp(z[0]), beta=math.exp(z[1]), **fixed_params
            )
        except (OverflowError, ValueError):
            return math.inf
        value = model.log_likelihood(data)
        return math.inf if math.isnan(value) else -value

    from scipy import optimize

    x0 = np.log(np.asarray(initial, dtype=float))
    rough = optimize.minimize(
        negative, x0, method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20_000},
    )
    polished = optimize.minimize(negative, rough.x, method="L-BFGS-B")
    best = polished if polished.fun <= rough.fun else rough
    if not math.isfinite(best.fun):
        raise EstimationError("likelihood is degenerate at every trial point")
    model = model_factory(
        omega=float(np.exp(best.x[0])), beta=float(np.exp(best.x[1])), **fixed_params
    )
    covariance = None
    if information:
        info = observed_information(data, model)
        try:
            covariance = np.linalg.inv(info)
        except np.linalg.LinAlgError:
            _logger.warning(
                "observed information matrix is singular at the generic "
                "MLE; covariance unavailable"
            )
            covariance = None
    return MLEResult(
        model=model,
        log_likelihood=-float(best.fun),
        iterations=int(rough.nit) + int(getattr(polished, "nit", 0)),
        converged=bool(best.success or polished.success),
        method="generic-newton",
        covariance=covariance,
    )
