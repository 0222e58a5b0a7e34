"""Finite mixture of one-dimensional distributions.

The VB2 marginal posterior of each model parameter is a finite mixture
of gamma distributions indexed by the latent fault count ``N``
(paper Section 5.1: ``Pv(µ) = Σ_N Pv(µ|N) Pv(N)``). This module gives
that object a complete distribution interface — density, CDF, stable
quantiles, raw/central moments and sampling — independent of the
component family.

Vectorized hot path
-------------------
When every component is a :class:`~repro.stats.gamma_dist.
GammaDistribution` (the case for all VB posteriors), the constructor
precomputes the component parameter arrays ``a`` (shapes), ``b``
(rates) and ``log w``, and ``pdf``/``cdf`` evaluate as a single
``scipy.special`` broadcast over an ``(n_points, n_components)`` grid
instead of a Python loop over components. :meth:`ppf` accepts an array
of levels and runs one simultaneous vectorized bisection for all of
them (sharing brackets and CDF evaluations), which is what makes
credible-interval and HPD estimation cheap — see
``docs/PERFORMANCE.md``. Mixtures of other component families fall
back to the generic per-component path.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Protocol

import numpy as np

from repro import backend as _backend
from repro.backend import special as sc
from repro.backend.core import ArrayBackend
from repro.stats.gamma_dist import GammaDistribution
from repro.stats.rootfind import (
    _bisect_batch_functional,
    bisect_increasing,
    bisect_increasing_batch,
)

__all__ = [
    "MixtureDistribution",
    "MixtureComponent",
    "gamma_mixture_ppf_rows",
    "mixture_cdf_grid",
    "mixture_pdf_grid",
    "mixture_ppf_batch",
]


# ----------------------------------------------------------------------
# Backend kernels for the gamma fast path.  Module-level pure functions
# of ``(a, b, weights, x)`` so they can be fed to ``B.jit`` and reused
# by the benchmark suite; the class methods below wrap them.
# ----------------------------------------------------------------------

def mixture_pdf_grid(B: ArrayBackend, a, b, log_w, x):
    """Gamma-mixture density at flat ``x``: one broadcast + logsumexp."""
    xp = B.xp
    xs = xp.where(x > 0.0, x, 1.0)[:, None]
    log_pdf = (
        a * xp.log(b)
        + (a - 1.0) * xp.log(xs)
        - b * xs
        - B.gammaln(a)
    )
    with np.errstate(invalid="ignore"):
        vals = xp.exp(B.logsumexp(log_w + log_pdf, axis=1))
    return xp.where(x > 0.0, vals, 0.0)


def mixture_cdf_grid(B: ArrayBackend, a, b, weights, x):
    """Gamma-mixture CDF at flat ``x``: one ``gammainc`` broadcast."""
    xp = B.xp
    clipped = xp.clip(x, 0.0, None)[:, None]
    return xp.sum(B.gammainc(a, b * clipped) * weights, axis=1)


def mixture_ppf_batch(
    B: ArrayBackend,
    a,
    b,
    weights,
    levels,
    *,
    xtol: float = 1e-12,
    rtol: float = 1e-10,
    max_iter: int = 200,
):
    """Gamma-mixture quantiles on a generic backend: component-quantile
    bracketing + the functional batch bisection."""
    xp = B.xp
    comp_q = B.gammaincinv(a, levels[:, None]) / b
    lo = xp.min(comp_q, axis=1)
    hi = xp.max(comp_q, axis=1)
    hi = xp.maximum(hi, lo)
    return _bisect_batch_functional(
        B,
        lambda x: mixture_cdf_grid(B, a, b, weights, x) - levels,
        lo,
        hi,
        xtol=xtol,
        rtol=rtol,
        max_iter=max_iter,
    )


def _gamma_mixture_cdf(a, b, weights, x: np.ndarray) -> np.ndarray:
    """NumPy gamma-mixture CDF at flat ``x``: row ``i`` is the mixture
    of the components ``a[i], b[i]`` (or the shared 1-D ``a, b``).

    The weighted reduction uses per-row pairwise summation (not a BLAS
    matvec), so a row's value is bit-identical whatever other rows
    share the call.
    """
    clipped = np.clip(x, 0.0, None)[:, None]
    return (sc.gammainc(a, b * clipped) * weights).sum(axis=1)


def gamma_mixture_ppf_rows(
    a: np.ndarray,
    b: np.ndarray,
    weights: np.ndarray,
    levels: np.ndarray,
    *,
    row_labels: Sequence[str] | None = None,
) -> tuple[np.ndarray, int]:
    """Row-batched gamma-mixture quantiles (NumPy): row ``r`` inverts
    the mixture ``Σ_k weights[r, k] Gamma(a[r, k], b[r, k])`` at
    ``levels[r]``.

    ``a``, ``b`` and ``weights`` are ``(rows, K)`` arrays and the
    weights are used as given (already normalised). This is the one
    implementation of the gamma-mixture inversion: a single
    :class:`MixtureDistribution` calls it with its own components
    repeated once per level, a fleet with one row per (dataset, level).
    Each row's CDF reduces with its own pairwise ``sum(axis=1)`` and
    :func:`bisect_increasing_batch` moves every lane independently, so
    a row's quantile is bit-identical whatever rows share the call.

    Returns the quantiles and the number of lock-step bisection sweeps
    (the iteration count of the slowest row). ``row_labels`` names the
    rows in a :class:`~repro.exceptions.ConvergenceError`.
    """
    comp_q = sc.gammaincinv(a, levels[:, None]) / b
    lo = comp_q.min(axis=1)
    # Degenerate brackets (single component, or coincident component
    # quantiles) are pinned by the batch bisection at lo == hi.
    hi = np.maximum(comp_q.max(axis=1), lo)
    calls = 0

    def excess(x: np.ndarray) -> np.ndarray:
        nonlocal calls
        calls += 1
        return _gamma_mixture_cdf(a, b, weights, x) - levels

    quantiles = bisect_increasing_batch(excess, lo, hi, lane_labels=row_labels)
    # The two bracket-edge evaluations precede the sweeps.
    return quantiles, max(calls - 2, 0)


class MixtureComponent(Protocol):
    """Minimum interface a mixture component must expose."""

    @property
    def mean(self) -> float: ...

    @property
    def variance(self) -> float: ...

    def pdf(self, x): ...

    def cdf(self, x): ...

    def ppf(self, q): ...

    def moment(self, k: int) -> float: ...

    def central_moment(self, k: int) -> float: ...

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray: ...


class MixtureDistribution:
    """Weighted finite mixture ``Σ_i w_i F_i`` of 1-D distributions.

    Parameters
    ----------
    components:
        Sequence of component distributions (see :class:`MixtureComponent`).
    weights:
        Non-negative weights; normalised internally.
    """

    def __init__(
        self,
        components: Sequence[MixtureComponent],
        weights: Sequence[float] | np.ndarray,
    ) -> None:
        if len(components) == 0:
            raise ValueError("mixture needs at least one component")
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(components),):
            raise ValueError(
                f"weights shape {weights.shape} does not match "
                f"{len(components)} components"
            )
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
        total = float(weights.sum())
        if total <= 0.0:
            raise ValueError("weights must not all be zero")
        self._components = list(components)
        self._weights = weights / total
        if all(isinstance(c, GammaDistribution) for c in self._components):
            self._a = np.array([c.shape for c in self._components])
            self._b = np.array([c.rate for c in self._components])
            with np.errstate(divide="ignore"):
                self._log_w = np.log(self._weights)
        else:
            self._a = self._b = self._log_w = None
        self._backend_params_cache: dict[str, tuple] = {}

    def _backend_params(self, B: ArrayBackend) -> tuple:
        """Component parameter arrays converted once per backend."""
        cached = self._backend_params_cache.get(B.name)
        if cached is None:
            cached = (
                B.asarray(self._a),
                B.asarray(self._b),
                B.asarray(self._weights),
                B.asarray(self._log_w),
            )
            self._backend_params_cache[B.name] = cached
        return cached

    # ------------------------------------------------------------------
    @property
    def components(self) -> list[MixtureComponent]:
        """The component distributions (shared reference)."""
        return self._components

    @property
    def weights(self) -> np.ndarray:
        """Normalised mixture weights (copy)."""
        return self._weights.copy()

    @property
    def is_gamma_mixture(self) -> bool:
        """Whether the vectorized gamma fast path is active."""
        return self._a is not None

    def __len__(self) -> int:
        return len(self._components)

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        """Mixture mean ``Σ w_i m_i``."""
        return float(sum(w * c.mean for w, c in zip(self._weights, self._components)))

    @property
    def variance(self) -> float:
        """Law of total variance in the shifted form
        ``Σ w_i (v_i + (m_i - µ)^2)``.

        The textbook ``E[X²] - mean²`` cancels catastrophically for
        tightly concentrated mixtures (large-``N`` VB2 posteriors have
        relative widths ~``1/√N``); centring each component first keeps
        every summand non-negative and loses nothing to cancellation.
        """
        mu = self.mean
        return float(
            sum(
                w * (c.variance + (c.mean - mu) ** 2)
                for w, c in zip(self._weights, self._components)
            )
        )

    @property
    def std(self) -> float:
        """Standard deviation."""
        return math.sqrt(max(self.variance, 0.0))

    def moment(self, k: int) -> float:
        """Raw moment ``E[X^k] = Σ w_i E_i[X^k]``."""
        return float(
            sum(w * c.moment(k) for w, c in zip(self._weights, self._components))
        )

    def central_moment(self, k: int) -> float:
        """Central moment via the shifted expansion around each
        component mean: ``E[(X-µ)^k] = Σ_i w_i Σ_j C(k,j)
        E_i[(X-m_i)^j] (m_i-µ)^(k-j)``.

        Like :attr:`variance`, this avoids the catastrophic
        cancellation of expanding raw moments around zero when the
        mixture is concentrated far from the origin.
        """
        mu = self.mean
        total = 0.0
        for w, c in zip(self._weights, self._components):
            delta = c.mean - mu
            inner = 0.0
            for j in range(k + 1):
                inner += math.comb(k, j) * c.central_moment(j) * delta ** (k - j)
            total += w * inner
        return float(total)

    # ------------------------------------------------------------------
    # Distribution functions
    # ------------------------------------------------------------------
    def _pdf_grid(self, x: np.ndarray) -> np.ndarray:
        """Gamma fast path: density at flat ``x`` via one broadcast."""
        out = np.zeros(x.size)
        pos = x > 0.0
        if np.any(pos):
            xp = x[pos][:, None]
            log_pdf = (
                self._a * np.log(self._b)
                + (self._a - 1.0) * np.log(xp)
                - self._b * xp
                - sc.gammaln(self._a)
            )
            with np.errstate(invalid="ignore"):
                out[pos] = np.exp(sc.logsumexp(self._log_w + log_pdf, axis=1))
        return out

    def _cdf_grid(self, x: np.ndarray) -> np.ndarray:
        """Gamma fast path: CDF at flat ``x`` via one broadcast."""
        return _gamma_mixture_cdf(self._a, self._b, self._weights, x)

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Mixture density."""
        B = _backend.get_namespace(x)
        if not B.is_numpy and self._a is not None:
            a, b, _, log_w = self._backend_params(B)
            arr = B.xp.atleast_1d(B.as_float(x))
            out = mixture_pdf_grid(B, a, b, log_w, arr.ravel()).reshape(arr.shape)
            if np.ndim(x) == 0:
                return float(B.to_numpy(out)[0])
            return out
        arr = np.asarray(x, dtype=float)
        if self._a is not None:
            out = self._pdf_grid(arr.ravel()).reshape(arr.shape)
        else:
            acc = None
            for w, comp in zip(self._weights, self._components):
                term = w * np.asarray(comp.pdf(arr), dtype=float)
                acc = term if acc is None else acc + term
            out = acc
        if np.ndim(x) == 0:
            return float(out)
        return out

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Mixture CDF."""
        B = _backend.get_namespace(x)
        if not B.is_numpy and self._a is not None:
            a, b, w, _ = self._backend_params(B)
            arr = B.xp.atleast_1d(B.as_float(x))
            out = mixture_cdf_grid(B, a, b, w, arr.ravel()).reshape(arr.shape)
            if np.ndim(x) == 0:
                return float(B.to_numpy(out)[0])
            return out
        arr = np.asarray(x, dtype=float)
        if self._a is not None:
            out = self._cdf_grid(arr.ravel()).reshape(arr.shape)
        else:
            acc = None
            for w, comp in zip(self._weights, self._components):
                term = w * np.asarray(comp.cdf(arr), dtype=float)
                acc = term if acc is None else acc + term
            out = acc
        if np.ndim(x) == 0:
            return float(out)
        return out

    def ppf(self, q: float | np.ndarray) -> float | np.ndarray:
        """Quantile(s) of the mixture by monotone bisection on the CDF.

        Accepts a scalar level or an array of levels; an array runs
        *one* simultaneous vectorized bisection for every level,
        sharing the bracket construction and evaluating the mixture
        CDF for all levels per step. The bracket is built from the
        extreme component quantiles, which are guaranteed to bound the
        mixture quantile.

        Raises
        ------
        ConvergenceError
            If the bisection budget is exhausted before convergence
            (never silently returns an unconverged midpoint).
        """
        B = _backend.get_namespace(q)
        if not B.is_numpy and self._a is not None:
            a, b, w, _ = self._backend_params(B)
            levels = B.xp.atleast_1d(B.as_float(q))
            if int(levels.size) == 0:
                return levels
            if not bool(B.xp.all((levels > 0.0) & (levels < 1.0))):
                raise ValueError("quantile level must be in (0, 1)")
            out = mixture_ppf_batch(B, a, b, w, levels)
            if np.ndim(q) == 0:
                return float(B.to_numpy(out)[0])
            return out
        scalar = np.ndim(q) == 0
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        if levels.size == 0:
            return levels.copy()
        if not np.all((levels > 0.0) & (levels < 1.0)):
            bad = levels[~((levels > 0.0) & (levels < 1.0))][0]
            raise ValueError(f"quantile level must be in (0, 1), got {bad}")
        if self._a is not None:
            out = self._ppf_batch(levels)
        else:
            out = np.array([self._ppf_generic(float(l)) for l in levels])
        if scalar:
            return float(out[0])
        return out

    def _ppf_batch(self, levels: np.ndarray) -> np.ndarray:
        """Vectorized simultaneous quantile inversion (gamma path): the
        one-mixture call of :func:`gamma_mixture_ppf_rows`."""
        shape = (levels.size, self._a.size)
        quantiles, _ = gamma_mixture_ppf_rows(
            np.broadcast_to(self._a, shape),
            np.broadcast_to(self._b, shape),
            np.broadcast_to(self._weights, shape),
            levels,
        )
        return quantiles

    def _ppf_generic(self, q: float) -> float:
        """Scalar quantile for non-gamma component families."""
        lo = min(float(c.ppf(q)) for c in self._components)
        hi = max(float(c.ppf(q)) for c in self._components)
        if hi <= lo:
            return lo
        return bisect_increasing(lambda x: float(self.cdf(x)) - q, lo, hi)

    def interval(self, confidence: float) -> tuple[float, float]:
        """Central two-sided interval of the given confidence level."""
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        tail = 0.5 * (1.0 - confidence)
        endpoints = self.ppf(np.array([tail, 1.0 - tail]))
        return float(endpoints[0]), float(endpoints[1])

    def interval_batch(self, confidences: Sequence[float] | np.ndarray) -> np.ndarray:
        """Central intervals for many confidence levels at once.

        Returns an ``(n, 2)`` array of ``(lower, upper)`` endpoints,
        computed by a single batched :meth:`ppf` call over all ``2n``
        tail levels.
        """
        conf = np.atleast_1d(np.asarray(confidences, dtype=float))
        if not np.all((conf > 0.0) & (conf < 1.0)):
            raise ValueError("confidence levels must be in (0, 1)")
        tails = 0.5 * (1.0 - conf)
        quantiles = self.ppf(np.concatenate([tails, 1.0 - tails]))
        return np.column_stack([quantiles[: conf.size], quantiles[conf.size:]])

    # ------------------------------------------------------------------
    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw variates by multinomial component selection."""
        counts = rng.multinomial(size, self._weights)
        parts = [
            comp.sample(int(n), rng)
            for comp, n in zip(self._components, counts)
            if n > 0
        ]
        out = np.concatenate(parts) if parts else np.empty(0)
        rng.shuffle(out)
        return out
