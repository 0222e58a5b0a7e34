"""Accuracy of sample-based quantile estimates (Chen & Kelton 1999).

The paper justifies its 20000-sample schedule with the fact that the
empirical 2.5%-quantile then lies, with 95% confidence, between the
theoretical 2.4%- and 2.6%-quantiles. These helpers expose that
binomial-fluctuation calculation, both ways around — elementwise over
arrays of levels, so a whole interval sweep (every tail level of a
coverage campaign) costs one vectorized evaluation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["quantile_coverage_interval", "sample_size_for_quantile"]


def quantile_coverage_interval(
    n_samples: int,
    p: float | np.ndarray,
    confidence: float = 0.95,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Probability band the empirical ``p``-quantile of ``n`` i.i.d.
    samples covers with the given confidence.

    The rank of the empirical ``p``-quantile is Binomial(n, p)-
    distributed around ``np``; a normal approximation gives the band
    ``p ± z sqrt(p (1-p) / n)``, clipped to (0, 1). ``p`` may be an
    array of levels; the band is then computed elementwise and the
    bounds returned as arrays.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    p_arr = np.asarray(p, dtype=float)
    scalar = p_arr.ndim == 0
    if not np.all((p_arr > 0.0) & (p_arr < 1.0)):
        raise ValueError("p must be in (0, 1)")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    from scipy import stats as st

    z = float(st.norm.ppf(0.5 * (1.0 + confidence)))
    half_width = z * np.sqrt(p_arr * (1.0 - p_arr) / n_samples)
    lower = np.maximum(p_arr - half_width, 0.0)
    upper = np.minimum(p_arr + half_width, 1.0)
    if scalar:
        return float(lower), float(upper)
    return lower, upper


def sample_size_for_quantile(
    p: float | np.ndarray,
    half_width: float | np.ndarray,
    confidence: float = 0.95,
) -> int | np.ndarray:
    """Samples needed so the empirical ``p``-quantile covers
    ``p ± half_width`` with the given confidence.

    Inverts :func:`quantile_coverage_interval`; this is why interval
    estimation by MCMC is expensive — the cost grows as
    ``p (1-p) / half_width^2``. Elementwise over arrays of ``p`` and/or
    ``half_width``.
    """
    p_arr = np.asarray(p, dtype=float)
    hw_arr = np.asarray(half_width, dtype=float)
    scalar = p_arr.ndim == 0 and hw_arr.ndim == 0
    if not np.all((p_arr > 0.0) & (p_arr < 1.0)):
        raise ValueError("p must be in (0, 1)")
    if not np.all(hw_arr > 0.0):
        raise ValueError("half_width must be positive")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    from scipy import stats as st

    z = float(st.norm.ppf(0.5 * (1.0 + confidence)))
    n = np.ceil(p_arr * (1.0 - p_arr) * (z / hw_arr) ** 2).astype(np.int64)
    if scalar:
        return int(n)
    return n
