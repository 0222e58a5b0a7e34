"""Observed Fisher information and Wald intervals for NHPP MLEs."""

from __future__ import annotations

import math

import numpy as np

from repro.data.failure_data import FailureTimeData, GroupedData
from repro.models.base import NHPPModel

__all__ = ["observed_information", "wald_interval"]


def observed_information(
    data: FailureTimeData | GroupedData,
    model: NHPPModel,
    *,
    relative_step: float = 1e-4,
) -> np.ndarray:
    """Observed information ``-∇² log L`` at the given parameter point,
    by central differences with parameter-scaled steps.

    The parameter order is (omega, beta).
    """
    omega_hat = model.omega
    beta_hat = float(model.params["beta"])
    steps = np.array([relative_step * omega_hat, relative_step * beta_hat])
    point = np.array([omega_hat, beta_hat])

    def loglik(p: np.ndarray) -> float:
        return model.replace(omega=float(p[0]), beta=float(p[1])).log_likelihood(data)

    hess = np.empty((2, 2))
    f0 = loglik(point)
    for i in range(2):
        ei = np.zeros(2)
        ei[i] = steps[i]
        hess[i, i] = (loglik(point + ei) - 2.0 * f0 + loglik(point - ei)) / steps[i] ** 2
    e0 = np.array([steps[0], 0.0])
    e1 = np.array([0.0, steps[1]])
    hess[0, 1] = hess[1, 0] = (
        loglik(point + e0 + e1)
        - loglik(point + e0 - e1)
        - loglik(point - e0 + e1)
        + loglik(point - e0 - e1)
    ) / (4.0 * steps[0] * steps[1])
    return -hess


def wald_interval(
    estimate: float, std_error: float, level: float = 0.95
) -> tuple[float, float]:
    """Symmetric normal-approximation confidence interval."""
    if std_error < 0.0:
        raise ValueError("std_error must be non-negative")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    from scipy import stats as st

    z = float(st.norm.ppf(0.5 * (1.0 + level)))
    return estimate - z * std_error, estimate + z * std_error
