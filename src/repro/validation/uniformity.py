"""Rank-uniformity tests for simulation-based calibration.

Under a calibrated posterior the SBC rank statistic — the number of
``L`` posterior draws falling below the prior-drawn truth — is
uniformly distributed on ``{0, 1, ..., L}`` (Talts et al. 2018). Two
complementary checks are provided:

* a **binned chi-square test**, the workhorse summary (Talts et al.
  recommend binning so every bin's expected count stays well above 5);
* an **ECDF envelope test** via the Dvoretzky–Kiefer–Wolfowitz
  inequality, sensitive to the systematic ∪/∩/slope shapes that
  under-dispersed, over-dispersed and biased posteriors produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "rank_histogram",
    "default_bins",
    "chi_square_uniformity",
    "ChiSquareUniformity",
    "ecdf_envelope",
    "EcdfEnvelope",
    "UniformityReport",
    "uniformity_report",
]


def _validate_ranks(ranks, n_ranks: int) -> np.ndarray:
    arr = np.asarray(ranks, dtype=np.int64)
    if n_ranks < 1:
        raise ValueError("n_ranks (L) must be at least 1")
    if arr.size == 0:
        raise ValueError("no ranks supplied")
    if arr.min() < 0 or arr.max() > n_ranks:
        raise ValueError(f"ranks must lie in [0, {n_ranks}]")
    return arr


def rank_histogram(
    ranks, n_ranks: int, n_bins: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of SBC ranks over ``n_bins`` equal slices of ``[0, L]``.

    Returns ``(bin_edges, counts)``; edges are rank-value boundaries.
    """
    arr = _validate_ranks(ranks, n_ranks)
    if n_bins is None:
        n_bins = default_bins(arr.size, n_ranks)
    if not 1 <= n_bins <= n_ranks + 1:
        raise ValueError("n_bins must be in [1, L + 1]")
    edges = np.linspace(0.0, float(n_ranks) + 1.0, n_bins + 1)
    counts, _ = np.histogram(arr, bins=edges)
    return edges, counts


def default_bins(n_samples: int, n_ranks: int) -> int:
    """Bin count keeping the expected count per bin at >= 5."""
    return int(max(2, min(n_ranks + 1, n_samples // 5, 32)))


@dataclass(frozen=True)
class ChiSquareUniformity:
    """Binned chi-square test of rank uniformity."""

    statistic: float
    p_value: float
    n_bins: int
    n_samples: int

    def rejects(self, alpha: float = 0.01) -> bool:
        """True when uniformity is rejected at level ``alpha``."""
        return self.p_value < alpha


def chi_square_uniformity(
    ranks, n_ranks: int, n_bins: int | None = None
) -> ChiSquareUniformity:
    """Chi-square test of the ranks against the uniform on ``{0..L}``.

    The ``L + 1`` possible ranks are folded into ``n_bins`` equal-width
    bins (auto-sized to keep expected counts >= 5); the statistic is
    compared to ``chi2(n_bins - 1)``.
    """
    arr = _validate_ranks(ranks, n_ranks)
    if n_bins is None:
        n_bins = default_bins(arr.size, n_ranks)
    edges, counts = rank_histogram(arr, n_ranks, n_bins)
    # Expected mass per bin is proportional to the number of integer
    # ranks it contains (bins may straddle rank boundaries unevenly
    # when (L + 1) % n_bins != 0).
    all_ranks = np.arange(n_ranks + 1)
    reference, _ = np.histogram(all_ranks, bins=edges)
    expected = arr.size * reference / (n_ranks + 1)
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    from scipy import stats

    p_value = float(stats.chi2.sf(statistic, df=n_bins - 1))
    return ChiSquareUniformity(
        statistic=statistic,
        p_value=p_value,
        n_bins=int(n_bins),
        n_samples=int(arr.size),
    )


@dataclass(frozen=True)
class EcdfEnvelope:
    """DKW simultaneous-band check of the rank ECDF."""

    max_deviation: float
    envelope: float
    alpha: float
    n_samples: int

    @property
    def within(self) -> bool:
        """True when the ECDF stays inside the simultaneous band."""
        return self.max_deviation <= self.envelope


def ecdf_envelope(ranks, n_ranks: int, alpha: float = 0.05) -> EcdfEnvelope:
    """Compare the rank ECDF with the uniform CDF under a DKW band.

    Ranks are mapped to ``u_i = (r_i + 1) / (L + 1)`` — the mid-rank
    continuity correction makes the reference CDF the identity — and
    the maximal ECDF deviation is compared with the DKW radius
    ``sqrt(log(2 / alpha) / (2 n))``, a simultaneous ``1 - alpha``
    envelope.
    """
    arr = _validate_ranks(ranks, n_ranks)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    n = arr.size
    u = np.sort((arr + 1.0) / (n_ranks + 1.0))
    grid = np.arange(1, n + 1) / n
    # Deviation checked on both sides of each jump of the step ECDF.
    deviation = float(
        max(np.max(np.abs(grid - u)), np.max(np.abs(grid - 1.0 / n - u)))
    )
    envelope = math.sqrt(math.log(2.0 / alpha) / (2.0 * n))
    return EcdfEnvelope(
        max_deviation=deviation, envelope=envelope, alpha=alpha, n_samples=n
    )


@dataclass(frozen=True)
class UniformityReport:
    """Combined uniformity verdict for one quantity's ranks."""

    quantity: str
    chi_square: ChiSquareUniformity
    ecdf: EcdfEnvelope

    @property
    def calibrated(self) -> bool:
        """Conservative verdict: both checks must pass."""
        return not self.chi_square.rejects() and self.ecdf.within

    def to_dict(self) -> dict:
        """JSON-ready summary."""
        return {
            "quantity": self.quantity,
            "chi_square": {
                "statistic": self.chi_square.statistic,
                "p_value": self.chi_square.p_value,
                "n_bins": self.chi_square.n_bins,
            },
            "ecdf": {
                "max_deviation": self.ecdf.max_deviation,
                "envelope": self.ecdf.envelope,
                "alpha": self.ecdf.alpha,
            },
            "n_samples": self.chi_square.n_samples,
            "calibrated": self.calibrated,
        }


def uniformity_report(quantity: str, ranks, n_ranks: int) -> UniformityReport:
    """Run both uniformity checks on one quantity's ranks."""
    return UniformityReport(
        quantity=quantity,
        chi_square=chi_square_uniformity(ranks, n_ranks),
        ecdf=ecdf_envelope(ranks, n_ranks),
    )
