"""Result container for maximum-likelihood fits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.models.base import NHPPModel

__all__ = ["MLEResult"]

_PARAM_INDEX = {"omega": 0, "beta": 1}


@dataclass
class MLEResult:
    """Outcome of a maximum-likelihood fit of an NHPP SRM.

    Attributes
    ----------
    model:
        The fitted model instance (carries ``omega`` and ``beta``).
    log_likelihood:
        Observed-data log-likelihood at the estimate.
    iterations:
        Iterations used by the fitting algorithm.
    converged:
        Whether the tolerance was met.
    method:
        "em" or "newton".
    covariance:
        Optional 2x2 asymptotic covariance (inverse observed
        information) in the order (omega, beta).
    history:
        Log-likelihood trace per iteration (EM only; monotone
        non-decreasing by construction).
    """

    model: NHPPModel
    log_likelihood: float
    iterations: int
    converged: bool
    method: str
    covariance: np.ndarray | None = None
    history: list[float] = field(default_factory=list)

    @property
    def omega(self) -> float:
        """MLE of the expected total fault count."""
        return self.model.omega

    @property
    def beta(self) -> float:
        """MLE of the lifetime rate."""
        return float(self.model.params["beta"])

    def std_error(self, param: str) -> float:
        """Asymptotic standard error; requires :attr:`covariance`."""
        if self.covariance is None:
            raise ValueError("no covariance available; fit with information=True")
        idx = _PARAM_INDEX[param]
        return math.sqrt(float(self.covariance[idx, idx]))

    def confidence_interval(self, param: str, level: float = 0.95) -> tuple[float, float]:
        """Wald interval ``estimate ± z * se`` (Yamada & Osaki 1985).

        Like the Laplace approximation the paper discusses, this can
        produce a negative lower bound for a positive parameter.
        """
        if not 0.0 < level < 1.0:
            raise ValueError("level must be in (0, 1)")
        estimate = self.omega if param == "omega" else self.beta
        from scipy import stats as st

        z = float(st.norm.ppf(0.5 * (1.0 + level)))
        se = self.std_error(param)
        return estimate - z * se, estimate + z * se

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MLEResult({self.method}): omega={self.omega:.4g}, "
            f"beta={self.beta:.4g}, loglik={self.log_likelihood:.4f}, "
            f"iters={self.iterations}, converged={self.converged}"
        )
