"""Direct quasi-Newton maximum likelihood (cross-check for the EM fit).

Section 3 of the paper notes that Newton or quasi-Newton methods are
the traditional way to maximise the NHPP log-likelihood. This module
wraps scipy's Nelder–Mead + L-BFGS-B combination over log-parameters;
the test suite asserts it agrees with the EM fixed point.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from repro import obs
from repro.data.failure_data import FailureTimeData, GroupedData
from repro.exceptions import EstimationError
from repro.mle.fisher import observed_information
from repro.mle.results import MLEResult
from repro.models.gamma_srm import GammaSRM

__all__ = ["fit_mle_newton"]

_logger = logging.getLogger(__name__)


def fit_mle_newton(
    data: FailureTimeData | GroupedData,
    alpha0: float = 1.0,
    *,
    initial: tuple[float, float] | None = None,
    information: bool = True,
) -> MLEResult:
    """Maximum-likelihood fit by direct numerical optimisation.

    The search runs in ``(log ω, log β)`` so the optimiser never leaves
    the positive quadrant; the reported optimum is the MLE of the
    original parametrisation (the objective is unchanged by the
    coordinate change).
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
        initial = (1.2 * observed, alpha0 / data.horizon)

    def negative(z: np.ndarray) -> float:
        model = GammaSRM(
            omega=math.exp(z[0]), beta=math.exp(z[1]), alpha0=alpha0
        )
        return -model.log_likelihood(data)

    from scipy import optimize

    x0 = np.log(np.asarray(initial, dtype=float))
    with obs.span("mle.newton.fit", data=type(data).__name__):
        rough = optimize.minimize(
            negative, x0, method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 10_000},
        )
        polished = optimize.minimize(negative, rough.x, method="L-BFGS-B")
    best = polished if polished.fun <= rough.fun else rough
    if obs.enabled():
        obs.counter_add("mle.newton.fits")
        obs.observe(
            "mle.newton.iterations",
            int(rough.nit) + int(getattr(polished, "nit", 0)),
        )
        obs.observe(
            "mle.newton.evaluations",
            int(rough.nfev) + int(getattr(polished, "nfev", 0)),
        )
        if polished.fun > rough.fun:
            obs.counter_add("mle.newton.polish_rejected")
        if not (rough.success or polished.success):
            obs.counter_add("mle.newton.failures")
            obs.event("mle.newton.failed", evaluations=int(rough.nfev))
    omega_hat, beta_hat = float(np.exp(best.x[0])), float(np.exp(best.x[1]))
    model = GammaSRM(omega=omega_hat, beta=beta_hat, alpha0=alpha0)
    covariance = None
    if information:
        info = observed_information(data, model)
        try:
            covariance = np.linalg.inv(info)
        except np.linalg.LinAlgError:
            _logger.warning(
                "observed information matrix is singular at the Newton "
                "MLE; covariance unavailable"
            )
            covariance = None
    return MLEResult(
        model=model,
        log_likelihood=-float(best.fun),
        iterations=int(rough.nit) + int(getattr(polished, "nit", 0)),
        # Either stage succeeding means the optimum was located: the
        # polish can end "ABNORMAL" on a flat line search at the point
        # Nelder-Mead already converged to (ties pick `polished`).
        converged=bool(rough.success or polished.success),
        method="newton",
        covariance=covariance,
    )
