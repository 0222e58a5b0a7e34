"""Bracketing root finders and batched fixed-point iteration.

The paper inverts the posterior CDF of software reliability with the
bisection method (Section 6, around Eq. 32). We provide a robust
monotone bisection, a batched variant that drives many independent
bisections simultaneously on vectorized functions (the interval-
estimation hot path), a geometric bracketing helper for quantile
problems whose support is the positive half line, and — the fit-path
analogue — a batched frozen-lane fixed-point solver that runs the
VB2 per-``N`` update maps for the whole latent-count grid in lock-step
(:func:`solve_fixed_point_batch`).

Failure semantics: exhausting the iteration budget raises
:class:`~repro.exceptions.ConvergenceError` carrying the final bracket
width, and emits a ``rootfind.divergence`` telemetry event when a
collector is active (mirroring :mod:`repro.core.fixed_point`). A
silent midpoint fallback would mask exactly the non-convergence that
matters for the frequentist-validity claims the validation layer
calibrates against.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro import backend as _backend
from repro import obs
from repro.backend.core import ArrayBackend
from repro.exceptions import ConvergenceError

__all__ = [
    "bisect_increasing",
    "bisect_increasing_batch",
    "bracket_quantile",
    "BatchFixedPointResult",
    "solve_fixed_point_batch",
]

#: How many trailing residuals each lane keeps, matching
#: ``repro.core.fixed_point.RESIDUAL_HISTORY_LEN`` (not imported here —
#: ``repro.core`` pulls in this module at package import time, so a
#: module-level import would be circular; a test pins the two equal).
FIXED_POINT_HISTORY_LEN = 8

#: Tolerance under which a sign violation at a bracket edge is treated
#: as the root sitting (numerically) on that edge.
_EDGE_TOL = 1e-9


def _divergence_error(message: str, *, iterations: int, width: float,
                      lanes: int = 1) -> ConvergenceError:
    """Build the budget-exhaustion error, emitting the telemetry event."""
    if obs.enabled():
        obs.counter_add("rootfind.failures")
        obs.event(
            "rootfind.divergence",
            iterations=iterations,
            bracket_width=width,
            lanes=lanes,
        )
    return ConvergenceError(message, iterations=iterations, residual=width)


def bisect_increasing(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-12,
    rtol: float = 1e-10,
    max_iter: int = 200,
) -> float:
    """Find the root of a non-decreasing function on ``[lo, hi]``.

    Requires ``f(lo) <= 0 <= f(hi)``; endpoints are returned directly if
    the sign condition pins the root there (within floating tolerance).

    Raises
    ------
    ConvergenceError
        If the bracket is invalid or the iteration budget is exhausted
        before the interval shrinks below tolerance. The error carries
        ``iterations`` and ``residual`` (the final bracket width).
    """
    if not lo < hi:
        raise ValueError(f"invalid bracket: lo={lo}, hi={hi}")
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo > 0.0:
        if f_lo < _EDGE_TOL:  # root sits at or below the bracket edge
            return lo
        raise ConvergenceError(
            f"bisect_increasing: f(lo)={f_lo:.3g} > 0 at lo={lo:.6g}"
        )
    if f_hi < 0.0:
        if f_hi > -_EDGE_TOL:
            return hi
        raise ConvergenceError(
            f"bisect_increasing: f(hi)={f_hi:.3g} < 0 at hi={hi:.6g}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol + rtol * abs(mid):
            return mid
        f_mid = f(mid)
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    raise _divergence_error(
        f"bisect_increasing did not converge within {max_iter} iterations "
        f"(final bracket width {hi - lo:.3e} on [{lo:.6g}, {hi:.6g}])",
        iterations=max_iter,
        width=hi - lo,
    )


def bisect_increasing_batch(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    xtol: float = 1e-12,
    rtol: float = 1e-10,
    max_iter: int = 200,
    lane_labels: Sequence[str] | None = None,
) -> np.ndarray:
    """Solve many independent monotone root problems simultaneously.

    ``f`` must be vectorized: given the current midpoints (one per
    lane) it returns the lane-wise function values, so one call per
    bisection step serves every lane at once. Lane ``i`` follows the
    exact update/stopping rule of :func:`bisect_increasing` on
    ``[lo[i], hi[i]]`` — a converged lane freezes while the rest keep
    bisecting, which keeps the per-lane results interchangeable with
    the scalar routine. Degenerate brackets (``lo[i] == hi[i]``) pin
    the root at the shared endpoint. ``lane_labels`` (optional, one
    string per lane) names the lanes in error messages instead of their
    positions.

    Raises
    ------
    ConvergenceError
        If any lane violates the sign condition beyond tolerance, or
        any lane exhausts the budget; the error carries the widest
        unconverged bracket as ``residual``.
    """
    B = _backend.get_namespace(lo, hi)
    if not B.is_numpy:
        return _bisect_batch_functional(
            B, f, lo, hi, xtol=xtol, rtol=rtol, max_iter=max_iter
        )
    lo = np.array(_backend.as_float(lo))
    hi = np.array(_backend.as_float(hi))
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError(
            f"lo/hi must be matching 1-D arrays, got {lo.shape} and {hi.shape}"
        )
    if np.any(hi < lo):
        bad = int(np.argmax(hi < lo))
        raise ValueError(f"invalid bracket in lane {bad}: lo={lo[bad]}, hi={hi[bad]}")

    def name(lane: int) -> str:
        return f"lane {lane}" if lane_labels is None else lane_labels[lane]

    out = np.empty_like(lo)
    out.fill(np.nan)
    frozen = lo == hi
    out[frozen] = lo[frozen]
    if frozen.all():
        return out
    f_lo = _backend.as_float(f(lo))
    f_hi = _backend.as_float(f(hi))
    bad_lo = ~frozen & (f_lo > 0.0)
    if np.any(bad_lo):
        pinned = bad_lo & (f_lo < _EDGE_TOL)
        out[pinned] = lo[pinned]
        frozen |= pinned
        hard = bad_lo & ~pinned
        if np.any(hard):
            lane = int(np.argmax(hard))
            raise ConvergenceError(
                f"bisect_increasing_batch: f(lo)={f_lo[lane]:.3g} > 0 "
                f"at lo={lo[lane]:.6g} ({name(lane)})"
            )
    bad_hi = ~frozen & (f_hi < 0.0)
    if np.any(bad_hi):
        pinned = bad_hi & (f_hi > -_EDGE_TOL)
        out[pinned] = hi[pinned]
        frozen |= pinned
        hard = bad_hi & ~pinned
        if np.any(hard):
            lane = int(np.argmax(hard))
            raise ConvergenceError(
                f"bisect_increasing_batch: f(hi)={f_hi[lane]:.3g} < 0 "
                f"at hi={hi[lane]:.6g} ({name(lane)})"
            )
    for _ in range(max_iter):
        if frozen.all():
            return out
        mid = 0.5 * (lo + hi)
        done = ~frozen & ((hi - lo) <= xtol + rtol * np.abs(mid))
        out[done] = mid[done]
        frozen |= done
        if frozen.all():
            return out
        f_mid = _backend.as_float(f(mid))
        below = ~frozen & (f_mid < 0.0)
        above = ~frozen & ~below
        lo[below] = mid[below]
        hi[above] = mid[above]
    open_lanes = ~frozen
    if np.any(open_lanes):
        width = float(np.max(hi[open_lanes] - lo[open_lanes]))
        raise _divergence_error(
            f"bisect_increasing_batch: {int(open_lanes.sum())} of "
            f"{lo.size} lanes did not converge within {max_iter} "
            f"iterations, first {name(int(np.argmax(open_lanes)))} "
            f"(widest remaining bracket {width:.3e})",
            iterations=max_iter,
            width=width,
            lanes=int(open_lanes.sum()),
        )
    return out


def _bisect_batch_functional(
    B: ArrayBackend,
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    xtol: float,
    rtol: float,
    max_iter: int,
) -> np.ndarray:
    """Generic-backend variant of :func:`bisect_increasing_batch`.

    Same bracket/update/stopping rules, expressed with full-width
    ``where`` masking instead of boolean-compressed in-place stores, so
    the loop body is pure array ops the accelerator backends support
    (JAX arrays are immutable).  Control flow (convergence tests) syncs
    a scalar per step, which is negligible next to the lane-wide ``f``
    evaluation this loop exists to batch.
    """
    xp = B.xp
    lo = B.as_float(lo)
    hi = B.as_float(hi)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError(
            f"lo/hi must be matching 1-D arrays, got {lo.shape} and {hi.shape}"
        )
    if bool(xp.any(hi < lo)):
        bad = int(xp.argmax(hi < lo))
        raise ValueError(
            f"invalid bracket in lane {bad}: lo={lo[bad]}, hi={hi[bad]}"
        )
    out = xp.full(lo.shape, xp.nan)
    frozen = lo == hi
    out = xp.where(frozen, lo, out)
    if bool(xp.all(frozen)):
        return out
    f_lo = B.as_float(f(lo))
    f_hi = B.as_float(f(hi))
    bad_lo = ~frozen & (f_lo > 0.0)
    pinned = bad_lo & (f_lo < _EDGE_TOL)
    out = xp.where(pinned, lo, out)
    frozen = frozen | pinned
    if bool(xp.any(bad_lo & ~pinned)):
        lane = int(xp.argmax(bad_lo & ~pinned))
        raise ConvergenceError(
            f"bisect_increasing_batch: f(lo)={float(f_lo[lane]):.3g} > 0 "
            f"at lo={float(lo[lane]):.6g} (lane {lane})"
        )
    bad_hi = ~frozen & (f_hi < 0.0)
    pinned = bad_hi & (f_hi > -_EDGE_TOL)
    out = xp.where(pinned, hi, out)
    frozen = frozen | pinned
    if bool(xp.any(bad_hi & ~pinned)):
        lane = int(xp.argmax(bad_hi & ~pinned))
        raise ConvergenceError(
            f"bisect_increasing_batch: f(hi)={float(f_hi[lane]):.3g} < 0 "
            f"at hi={float(hi[lane]):.6g} (lane {lane})"
        )
    for _ in range(max_iter):
        if bool(xp.all(frozen)):
            return out
        mid = 0.5 * (lo + hi)
        done = ~frozen & ((hi - lo) <= xtol + rtol * xp.abs(mid))
        out = xp.where(done, mid, out)
        frozen = frozen | done
        if bool(xp.all(frozen)):
            return out
        f_mid = B.as_float(f(mid))
        below = ~frozen & (f_mid < 0.0)
        above = ~frozen & ~below
        lo = xp.where(below, mid, lo)
        hi = xp.where(above, mid, hi)
    open_lanes = ~frozen
    if bool(xp.any(open_lanes)):
        width = float(xp.max(xp.where(open_lanes, hi - lo, -xp.inf)))
        count = int(xp.sum(open_lanes))
        raise _divergence_error(
            f"bisect_increasing_batch: {count} of {lo.shape[0]} lanes did "
            f"not converge within {max_iter} iterations "
            f"(widest remaining bracket {width:.3e})",
            iterations=max_iter,
            width=width,
            lanes=count,
        )
    return out


def bracket_quantile(
    cdf: Callable[[float], float],
    q: float,
    *,
    x0: float = 1.0,
    growth: float = 4.0,
    max_expansions: int = 200,
) -> tuple[float, float]:
    """Find ``[lo, hi] ⊂ (0, ∞)`` with ``cdf(lo) <= q <= cdf(hi)``.

    Expands geometrically from ``x0`` in both directions. Suitable for
    any distribution supported on the positive half line.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    if x0 <= 0.0 or not math.isfinite(x0):
        raise ValueError(f"x0 must be positive and finite, got {x0}")
    lo = hi = x0
    for _ in range(max_expansions):
        if cdf(lo) <= q:
            break
        lo /= growth
    else:
        raise ConvergenceError(f"could not bracket quantile {q} from below")
    for _ in range(max_expansions):
        if cdf(hi) >= q:
            break
        hi *= growth
    else:
        raise ConvergenceError(f"could not bracket quantile {q} from above")
    return lo, hi


@dataclass(frozen=True)
class BatchFixedPointResult:
    """Outcome of a batched fixed-point solve, one entry per lane.

    Attributes
    ----------
    values:
        Fixed points ``x*`` per lane (last positive iterate for lanes
        that failed).
    iterations:
        Per-lane count of update-map evaluations consumed before the
        lane froze.
    converged:
        Per-lane convergence flags; ``False`` marks a lane that left
        the positive domain or exhausted the budget.
    residuals:
        Per-lane final relative step ``|x' - x| / x'``.
    residual_histories:
        Per-lane tuples of the trailing
        :data:`FIXED_POINT_HISTORY_LEN` residuals, oldest first.
    aitken_steps:
        Per-lane count of accepted Aitken Δ² extrapolations.
    """

    values: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residuals: np.ndarray
    residual_histories: tuple[tuple[float, ...], ...]
    aitken_steps: np.ndarray
    lane_labels: tuple[str, ...] | None = None

    def lane_error(self, lane: int, max_iter: int) -> ConvergenceError:
        """Build the scalar-contract :class:`ConvergenceError` for a
        failed lane, carrying that lane's own statistics."""
        label = ""
        if self.lane_labels is not None:
            label = f" ({self.lane_labels[lane]})"
        return ConvergenceError(
            f"fixed point did not converge in lane {lane}{label} within "
            f"{max_iter} evaluations "
            f"(last relative step {self.residuals[lane]:.3e})",
            iterations=int(self.iterations[lane]),
            residual=float(self.residuals[lane]),
            residual_history=self.residual_histories[lane],
        )


def _ring_histories(
    ring: np.ndarray, counts: np.ndarray
) -> tuple[tuple[float, ...], ...]:
    """Unroll per-lane residual ring buffers into oldest-first tuples."""
    length = ring.shape[1]
    out = []
    for lane in range(ring.shape[0]):
        c = int(counts[lane])
        if c <= length:
            out.append(tuple(float(v) for v in ring[lane, :c]))
        else:
            pos = c % length
            rolled = np.concatenate([ring[lane, pos:], ring[lane, :pos]])
            out.append(tuple(float(v) for v in rolled))
    return tuple(out)


def solve_fixed_point_batch(
    f: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    rtol: float | np.ndarray = 1e-12,
    max_iter: int = 500,
    use_aitken: bool = True,
    raise_on_failure: bool = True,
    lane_labels: Sequence[str] | None = None,
) -> BatchFixedPointResult:
    """Solve ``x = f(x)`` lane-wise for many positive fixed points at once.

    ``f`` must be vectorized: given the current iterates (one per lane)
    it returns the lane-wise updated values, so one call per iteration
    step serves every lane. Lane ``i`` follows the exact update,
    acceleration, and stopping rules of
    :func:`repro.core.fixed_point.solve_fixed_point` started at
    ``x0[i]`` — a converged lane *freezes* (its value never changes
    again and it stops consuming evaluations) while the remaining lanes
    keep iterating, which makes every lane bit-identical to the scalar
    routine run on its own. Frozen lanes still appear in the vectors
    handed to ``f`` (holding their last positive iterate, so the update
    map stays inside its domain) but their results are ignored.

    Aitken Δ² acceleration interacts with freezing per lane: each
    active lane takes the two-evaluation Aitken round in lock-step, and
    acceptance of the extrapolated point (``denominator != 0`` and the
    extrapolation positive) is decided lane-wise, exactly as the scalar
    solver decides it. Because every lane that is still active has
    consumed the same number of evaluations, the scalar solver's
    budget check before the second Aitken evaluation is uniform across
    active lanes.

    A lane whose iterate leaves the positive half line is frozen as
    *failed* with its own ``iterations``/``residual``/history — it does
    not poison the other lanes, which continue to convergence. With
    ``raise_on_failure`` (the default, matching the scalar contract) a
    :class:`~repro.exceptions.ConvergenceError` carrying the first
    failed lane's statistics is raised once all lanes have frozen;
    with ``raise_on_failure=False`` failures are reported through the
    ``converged`` flags instead.

    Telemetry: the whole solve runs inside a debug-level
    ``fixed_point.batch`` span carrying the lane count, total
    evaluations, maximum final residual, and accepted Aitken steps;
    failed lanes emit the same ``fixed_point.divergence`` event as the
    scalar solver.

    ``lane_labels`` (optional, one string per lane) names the lanes in
    failure messages — fleet callers label lanes with their dataset so
    a diverging project is attributable in a thousand-lane solve. The
    labels do not affect the iteration in any way.

    ``rtol`` may be a scalar (every lane shares it — the historical
    behaviour, bit-identical to before) or a 1-D array with one
    positive tolerance per lane. Per-lane tolerances are how warm
    refits stratify work by posterior weight: lanes that carry
    negligible mixture mass stop early at a loose tolerance while the
    lanes that matter iterate to the tight one. Each lane remains
    bit-identical to the scalar solver run at *that lane's* tolerance.

    Non-numpy iterates (or a non-numpy default backend) route to a
    functional variant of the same lock-step iteration — full-width
    ``where`` freezing instead of in-place masked stores — which skips
    the per-lane residual-history ring (histories come back empty).
    """
    B = _backend.get_namespace(x0)
    if B.is_numpy:
        x = np.array(_backend.as_float(x0))
    else:
        x = B.as_float(x0)
    if x.ndim != 1:
        raise ValueError(f"x0 must be a 1-D array, got shape {x.shape}")
    if bool(B.xp.any(~(x > 0.0))):
        bad = int(B.xp.argmax(~(x > 0.0)))
        raise ValueError(f"x0 must be positive, got {x[bad]} in lane {bad}")
    if lane_labels is not None and len(lane_labels) != x.size:
        raise ValueError(
            f"lane_labels must match the lane count {x.size}, "
            f"got {len(lane_labels)}"
        )
    if isinstance(rtol, np.ndarray):
        rtol = np.asarray(rtol, dtype=float)
        if rtol.shape != x.shape:
            raise ValueError(
                f"per-lane rtol shape {rtol.shape} does not match the "
                f"lane count {x.size}"
            )
        if np.any(~(rtol > 0.0) | ~np.isfinite(rtol)):
            bad = int(np.argmax(~(rtol > 0.0) | ~np.isfinite(rtol)))
            raise ValueError(
                f"per-lane rtol must be positive and finite, "
                f"got {rtol[bad]} in lane {bad}"
            )
    n = x.size
    with obs.span("fixed_point.batch", level="debug", lanes=n) as sp:
        if B.is_numpy:
            result = _solve_batch_inner(f, x, rtol, max_iter, use_aitken)
        else:
            result = _solve_batch_functional(B, f, x, rtol, max_iter, use_aitken)
        if lane_labels is not None:
            result = dataclasses.replace(
                result, lane_labels=tuple(str(s) for s in lane_labels)
            )
        # The span is the shared no-op handle when the collector sits
        # below the debug level, so attrs only exist on the live span.
        if getattr(sp, "attrs", None) is not None:
            sp.attrs["evaluations"] = int(result.iterations.sum())
            sp.attrs["max_residual"] = (
                float(np.max(result.residuals)) if n else 0.0
            )
            sp.attrs["aitken_accepted"] = int(result.aitken_steps.sum())
            sp.attrs["failed_lanes"] = int(np.sum(~result.converged))
    if raise_on_failure and not bool(result.converged.all()):
        raise result.lane_error(int(np.argmax(~result.converged)), max_iter)
    return result


def _solve_batch_inner(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    rtol: float | np.ndarray,  # scalar or per-lane; `<=` broadcasts
    max_iter: int,
    use_aitken: bool,
) -> BatchFixedPointResult:
    n = x.size
    frozen = np.zeros(n, dtype=bool)
    converged = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=np.int64)
    residual = np.full(n, np.inf)
    aitken_steps = np.zeros(n, dtype=np.int64)
    ring = np.full((n, FIXED_POINT_HISTORY_LEN), np.nan)
    ring_count = np.zeros(n, dtype=np.int64)
    evaluations = 0  # shared by every still-active lane

    def record(mask: np.ndarray, values: np.ndarray) -> None:
        residual[mask] = values[mask]
        pos = ring_count[mask] % FIXED_POINT_HISTORY_LEN
        ring[np.flatnonzero(mask), pos] = values[mask]
        ring_count[mask] += 1

    while evaluations < max_iter and not frozen.all():
        active = ~frozen
        fx = _backend.as_float(f(x))
        evaluations += 1
        iterations[active] += 1
        # Domain violation freezes the lane with its *previous* residual,
        # exactly as the scalar solver reports it.
        bad = active & ~(fx > 0.0)
        if np.any(bad):
            _emit_lane_divergence(bad, iterations, residual, ring, ring_count)
            frozen |= bad
            active = active & ~bad
        with np.errstate(invalid="ignore", divide="ignore"):
            step = np.abs(fx - x) / fx
        record(active, step)
        done = active & (step <= rtol)
        x[done] = fx[done]
        frozen |= done
        converged |= done
        active = active & ~done
        if not np.any(active):
            continue
        if use_aitken and evaluations + 1 <= max_iter:
            x_prev = x.copy()
            x1 = np.where(active, fx, x)
            fx2 = _backend.as_float(f(x1))
            evaluations += 1
            iterations[active] += 1
            bad2 = active & ~(fx2 > 0.0)
            if np.any(bad2):
                _emit_lane_divergence(
                    bad2, iterations, residual, ring, ring_count
                )
                frozen |= bad2
                active = active & ~bad2
            with np.errstate(invalid="ignore", divide="ignore"):
                step2 = np.abs(fx2 - x1) / fx2
            record(active, step2)
            done2 = active & (step2 <= rtol)
            x[done2] = fx2[done2]
            frozen |= done2
            converged |= done2
            active = active & ~done2
            if not np.any(active):
                continue
            denom = fx2 - 2.0 * x1 + x_prev
            ok = active & (denom != 0.0)
            with np.errstate(invalid="ignore", divide="ignore"):
                accelerated = x_prev - (x1 - x_prev) ** 2 / denom
            accept = ok & (accelerated > 0.0)
            x[accept] = accelerated[accept]
            aitken_steps[accept] += 1
            plain = active & ~accept
            x[plain] = fx2[plain]
        else:
            x[active] = fx[active]
    if obs.enabled() and np.any(converged):
        obs.counter_add("fixed_point.solves", int(converged.sum()))
        if aitken_steps[converged].sum():
            obs.counter_add(
                "fixed_point.aitken_accepted",
                int(aitken_steps[converged].sum()),
            )
    open_lanes = ~frozen
    if np.any(open_lanes):
        # Budget exhausted: freeze the remaining lanes as failures.
        _emit_lane_divergence(
            open_lanes, iterations, residual, ring, ring_count
        )
    return BatchFixedPointResult(
        values=x,
        iterations=iterations,
        converged=converged,
        residuals=residual,
        residual_histories=_ring_histories(ring, ring_count),
        aitken_steps=aitken_steps,
    )


def _solve_batch_functional(
    B: ArrayBackend,
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    rtol: float | np.ndarray,
    max_iter: int,
    use_aitken: bool,
) -> BatchFixedPointResult:
    """Generic-backend variant of :func:`_solve_batch_inner`.

    The same lock-step iteration — shared evaluation budget, per-lane
    freezing, lane-wise Aitken acceptance — rewritten as pure array ops
    (``where`` masking, no in-place stores) so it runs on immutable
    device arrays.  Two deliberate simplifications versus the NumPy
    reference: division guards use a ``where`` placeholder instead of
    ``errstate``, and the per-lane residual-history ring is not kept
    (histories come back empty; residual/iteration stats are intact).
    Failed lanes emit the same divergence telemetry, once, at freeze
    time.
    """
    xp = B.xp
    n = x.shape[0]
    frozen = xp.zeros(n, dtype=bool)
    converged = xp.zeros(n, dtype=bool)
    iterations = xp.zeros(n, dtype=xp.int64)
    residual = xp.full(n, xp.inf)
    aitken_steps = xp.zeros(n, dtype=xp.int64)
    empty_ring = np.empty((n, 0))
    zero_counts = np.zeros(n, dtype=np.int64)

    def freeze_failures(mask):
        if bool(xp.any(mask)):
            _emit_lane_divergence(
                B.to_numpy(mask).astype(bool),
                B.to_numpy(iterations),
                B.to_numpy(residual),
                empty_ring,
                zero_counts,
            )

    evaluations = 0
    while evaluations < max_iter and not bool(xp.all(frozen)):
        active = ~frozen
        fx = B.as_float(f(x))
        evaluations += 1
        iterations = iterations + active.astype(xp.int64)
        bad = active & ~(fx > 0.0)
        freeze_failures(bad)
        frozen = frozen | bad
        active = active & ~bad
        step = xp.abs(fx - x) / xp.where(fx > 0.0, fx, 1.0)
        residual = xp.where(active, step, residual)
        done = active & (step <= rtol)
        x = xp.where(done, fx, x)
        frozen = frozen | done
        converged = converged | done
        active = active & ~done
        if not bool(xp.any(active)):
            continue
        if use_aitken and evaluations + 1 <= max_iter:
            x_prev = x
            x1 = xp.where(active, fx, x)
            fx2 = B.as_float(f(x1))
            evaluations += 1
            iterations = iterations + active.astype(xp.int64)
            bad2 = active & ~(fx2 > 0.0)
            freeze_failures(bad2)
            frozen = frozen | bad2
            active = active & ~bad2
            step2 = xp.abs(fx2 - x1) / xp.where(fx2 > 0.0, fx2, 1.0)
            residual = xp.where(active, step2, residual)
            done2 = active & (step2 <= rtol)
            x = xp.where(done2, fx2, x)
            frozen = frozen | done2
            converged = converged | done2
            active = active & ~done2
            if not bool(xp.any(active)):
                continue
            denom = fx2 - 2.0 * x1 + x_prev
            ok = active & (denom != 0.0)
            accelerated = x_prev - (x1 - x_prev) ** 2 / xp.where(
                denom != 0.0, denom, 1.0
            )
            accept = ok & (accelerated > 0.0)
            x = xp.where(accept, accelerated, x)
            aitken_steps = aitken_steps + accept.astype(xp.int64)
            plain = active & ~accept
            x = xp.where(plain, fx2, x)
        else:
            x = xp.where(active, fx, x)
    if obs.enabled() and bool(xp.any(converged)):
        obs.counter_add("fixed_point.solves", int(xp.sum(converged)))
        accepted = int(xp.sum(xp.where(converged, aitken_steps, 0)))
        if accepted:
            obs.counter_add("fixed_point.aitken_accepted", accepted)
    freeze_failures(~frozen)  # budget exhausted
    return BatchFixedPointResult(
        values=x,
        iterations=iterations,
        converged=converged,
        residuals=residual,
        residual_histories=tuple(() for _ in range(n)),
        aitken_steps=aitken_steps,
    )


def _emit_lane_divergence(
    mask: np.ndarray,
    iterations: np.ndarray,
    residual: np.ndarray,
    ring: np.ndarray,
    ring_count: np.ndarray,
) -> None:
    """Emit the scalar-compatible divergence telemetry for failed lanes."""
    if not obs.enabled():
        return
    histories = _ring_histories(ring[mask], ring_count[mask])
    for lane, hist in zip(np.flatnonzero(mask), histories):
        obs.counter_add("fixed_point.failures")
        obs.event(
            "fixed_point.divergence",
            evaluations=int(iterations[lane]),
            residual=float(residual[lane]),
            residuals=[float(v) for v in hist],
        )
