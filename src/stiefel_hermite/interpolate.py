"""Hermite interpolation of Stiefel-valued curves, plus two baselines.

A spline arc between samples (p, v_p) at t0 and (q, v_q) at t1 is built in
normal coordinates at a chosen center: the other endpoint maps through the
logarithm, its velocity through the differential of the logarithm
(``calculus.transport_velocity``, the exact inverse of the exponential's
differential, where the paper takes a central difference of the log/exp
transition map), and the cubic Hermite combination of those tangent vectors
is pushed back with a single exponential per evaluation.  Joining arcs over
consecutive sample pairs gives a C^1 composite curve through all samples.

Baselines: piecewise geodesics (no derivative data) and radial-basis-function
interpolation in a single tangent space (inverse multiquadric kernel).

Every fit returns one curve type, ``CompositeCurve(knots, frames, coeffs)``.
On [knots[i], knots[i + 1]] it is the exponential of the combination of the
tangent vectors in ``frames[i]``, a ``stiefel.TangentFrame`` built at fit
time, with the coefficients ``coeffs(i, t)``.  A fit binds its coefficient
rule: the Hermite polynomials of an arc, the fraction of a geodesic segment,
or the RBF kernel values on the one interval [t_first, t_last].  An
evaluation does no n x r factorization.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import calculus, linalg, stiefel
from .errors import ArcFitError, DomainError, PreconditionError, StiefelLogError

CENTERINGS = ("q", "p")

#: Subintervals shorter than this fraction of the knot span are rejected.
DEGENERATE_SPAN_EPS = 1e-12

#: Shape parameter of the RBF baseline's inverse multiquadric kernel, on
#: parameters rescaled to [-1, 1].  Read at call time.
RBF_SHAPE = 1.0


def hermite_coeffs(t: float, t0: float, t1: float) -> tuple[float, float, float, float]:
    """Cubic Hermite coefficient polynomials (a0, a1, b0, b1) on [t0, t1].

    Cardinal basis: a0/a1 are 1 at t0/t1 with zero derivatives at both ends;
    b0/b1 have zero values and unit derivative at t0/t1 respectively.  They
    are evaluated in the scale-free variable s = (t - t0) / (t1 - t0), so no
    power of the span under- or overflows, and a0 = 1 - a1 makes
    a0 + a1 == 1 exactly for t in [t0, t1].
    """
    if not t0 < t1:
        raise DomainError(f"need t0 < t1, got t0={t0}, t1={t1}")
    span = t1 - t0
    s = (t - t0) / span
    a1 = s * s * (3.0 - 2.0 * s)
    return 1.0 - a1, a1, span * s * (1.0 - s) ** 2, span * s * s * (s - 1.0)


@dataclass(frozen=True)
class HermiteSample:
    """One sampled datum: parameter value and velocity; the point is its base."""

    t: float
    velocity: stiefel.TangentVector

    @property
    def point(self) -> stiefel.StiefelPoint:
        return self.velocity.base


def fit_arc(s0: HermiteSample, s1: HermiteSample, centering: str = "q") -> stiefel.TangentFrame:
    """Fit one quasi-cubic arc between two Hermite samples; returns its frame.

    Costs 1 logarithm and no exponential: the log of the far endpoint,
    which runs to ``stiefel.LOG_TAU`` (6 kernel logs, ``linalg.logm`` calls,
    on an arc of the fit_far benchmark), and the exact transport of the far
    velocity from it (``calculus.transport_velocity``, one small eigenbasis
    solve); the velocity at the center is used as-is.  The frame is attached
    at the arc's center and holds its three tangent vectors in the order
    whose coefficients ``_hermite_arc_coeffs`` returns.  A failed log of the
    far endpoint raises ArcFitError caused by its StiefelLogError.
    """
    if centering not in CENTERINGS:
        raise PreconditionError(f"centering must be one of {CENTERINGS}, got {centering!r}")
    if not s0.t < s1.t:
        raise DomainError(f"need s0.t < s1.t, got {s0.t}, {s1.t}")
    near, far = (s1, s0) if centering == "q" else (s0, s1)
    try:
        delta_far = stiefel.stiefel_log(near.point, far.point)
    except StiefelLogError as exc:
        raise ArcFitError(
            f"arc fit failed on [{s0.t}, {s1.t}]; samples may be too far apart, "
            f"refine the sampling ({exc})",
            t0=s0.t,
            t1=s1.t,
        ) from exc
    v_far = calculus.transport_velocity(delta_far, far.velocity)
    v_start, v_end = (v_far, s1.velocity) if centering == "q" else (s0.velocity, v_far)
    return stiefel.tangent_frame(near.point, [delta_far.delta, v_start.delta, v_end.delta])


def _check_sample_plan(ts) -> np.ndarray:
    """The parameters of a sample plan, checked for every fit.

    A plan needs at least 2 samples, strictly increasing parameters, a
    finite span ts[-1] - ts[0] (which refuses an infinite parameter too),
    and no subinterval shorter than ``DEGENERATE_SPAN_EPS`` times the span.
    """
    ts = np.asarray(ts, dtype=float)
    if len(ts) < 2:
        raise PreconditionError("need at least 2 samples")
    # numpy warns when a difference overflows: compare, and subtract Python floats
    if not np.all(ts[1:] > ts[:-1]):
        raise PreconditionError("sample parameters must be strictly increasing")
    span = float(ts[-1]) - float(ts[0])
    if not math.isfinite(span):
        raise PreconditionError(f"the sample span [{ts[0]}, {ts[-1]}] is not finite in float64")
    if np.any(np.diff(ts) < DEGENERATE_SPAN_EPS * span):
        raise PreconditionError("degenerate subinterval in the sample plan")
    return ts


def _segment_index(knots: np.ndarray, t: float) -> int:
    """Right-closed lookup: t in [k_i, k_{i+1}) -> i; t == k_last -> last."""
    if not knots[0] <= t <= knots[-1]:
        raise DomainError(f"t={t} outside [{knots[0]}, {knots[-1]}]")
    if t == knots[-1]:
        return len(knots) - 2
    return bisect.bisect_right(knots, t) - 1  # on a few knots, a fifth of np.searchsorted's cost


@dataclass(frozen=True)
class CompositeCurve:
    """A fitted curve: one exponential of a fixed tangent frame per evaluation.

    On [knots[i], knots[i + 1]] the curve is ``frames[i].exp(coeffs(i, t))``.
    A ValueError of that exponential is raised again as its own type, its
    message led by the arc index, the arc's knot interval and
    ``TangentFrame.exp``.  ``failed_indices`` lists the samples the fit
    dropped; only ``tangent_rbf_interp`` drops any.
    """

    knots: np.ndarray
    frames: tuple[stiefel.TangentFrame, ...]
    coeffs: Callable[[int, float], tuple[float, ...] | np.ndarray]
    failed_indices: tuple[int, ...] = ()

    def __call__(self, t: float) -> stiefel.StiefelPoint:
        i = _segment_index(self.knots, t)
        coeffs = self.coeffs(i, t)
        try:
            return self.frames[i].exp(coeffs)
        except ValueError as exc:
            raise type(exc)(f"arc {i} on [{float(self.knots[i])}, {float(self.knots[i + 1])}], "
                            f"TangentFrame.exp: {exc}") from exc


def arc_tangent(curve: CompositeCurve, t: float) -> stiefel.TangentVector:
    """Tangent-space image of the curve at t (before the exp), at its frame's base."""
    i = _segment_index(curve.knots, t)
    return curve.frames[i].combination(curve.coeffs(i, t))


def _hermite_arc_coeffs(centering: str, knots: np.ndarray, i: int, t: float) -> tuple:
    """Arc i's coefficients: the far sample's a0 or a1, then b0 and b1 (see ``fit_arc``)."""
    a0, a1, b0, b1 = hermite_coeffs(t, float(knots[i]), float(knots[i + 1]))
    return (a0 if centering == "q" else a1), b0, b1


def fit_composite(samples: list[HermiteSample], centering: str = "q") -> CompositeCurve:
    """Fit arcs over consecutive sample pairs; the result is C^1 at the knots.

    An evaluation scales the unit-time velocities by b0 and b1, with
    |b0| + |b1| = span s (1 - s) <= span / 4, takes the Frobenius norm of
    the combination and its exponential.  So the plan's scale, span / 4
    times the largest velocity norm, is refused when its square overflows
    float64, and when it passes ``stiefel.EXP_NORM_MAX`` (3.5e3), where
    ``TangentFrame.exp`` would refuse an evaluation.
    """
    ts = _check_sample_plan([s.t for s in samples])
    span = float(ts[-1]) - float(ts[0])
    scale = 0.25 * span * max(float(np.linalg.norm(s.velocity.delta)) for s in samples)
    if scale > stiefel.EXP_NORM_MAX:
        raise PreconditionError(
            f"the sample span [{ts[0]}, {ts[-1]}] scales the velocities to norm {scale:.3g}, "
            + ("whose square overflows float64 at evaluation" if not math.isfinite(scale * scale)
               else f"past the {stiefel.EXP_NORM_MAX:.3g} at which an evaluation's exponential may drift "
               f"from orthonormality by ORTH_TOL = {linalg.ORTH_TOL:g}")
        )
    frames = tuple(fit_arc(s0, s1, centering=centering) for s0, s1 in zip(samples, samples[1:]))
    return CompositeCurve(ts, frames, functools.partial(_hermite_arc_coeffs, centering, ts))


def _geodesic_coeffs(knots: np.ndarray, i: int, t: float) -> tuple[float]:
    """Coefficient of Log_{p_i}(p_{i+1}): the fraction of segment i at t."""
    return ((t - knots[i]) / (knots[i + 1] - knots[i]),)


def geodesic_interp(samples: list[tuple[float, stiefel.StiefelPoint]]) -> CompositeCurve:
    """Connect consecutive sample points by geodesics (piecewise-linear interpolation)."""
    ts = _check_sample_plan([t for t, _ in samples])
    frames = []
    for i, ((_, p0), (_, p1)) in enumerate(zip(samples, samples[1:])):
        try:
            frames.append(stiefel.split_tangent(stiefel.stiefel_log(p0, p1)))
        except StiefelLogError as exc:
            raise ArcFitError(
                f"geodesic fit failed on [{ts[i]}, {ts[i + 1]}]: {exc}",
                t0=float(ts[i]),
                t1=float(ts[i + 1]),
            ) from exc
    return CompositeCurve(ts, tuple(frames), functools.partial(_geodesic_coeffs, ts))


def _inverse_multiquadric(d: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(1.0 + (RBF_SHAPE * d) ** 2)


def _rescale(t, t_lo: float, t_hi: float):
    """Map [t_lo, t_hi] onto [-1, 1]; halving the span, not doubling t - t_lo, cannot overflow."""
    return -1.0 + (t - t_lo) / (0.5 * (t_hi - t_lo))


def _rbf_coeffs(scaled_knots: np.ndarray, t_lo: float, t_hi: float, i: int, t: float) -> np.ndarray:
    """Kernel values of the rescaled t against the rescaled kept sample parameters."""
    return _inverse_multiquadric(np.abs(_rescale(t, t_lo, t_hi) - scaled_knots))


def tangent_rbf_interp(
    samples: list[tuple[float, stiefel.StiefelPoint]], skip_failed: bool = True
) -> CompositeCurve:
    """Map all samples to the tangent space of the middle sample, RBF-interpolate.

    The center is the sample with index ``len(samples) // 2``.  The curve
    has one interval [t_first, t_last] and one frame, of one weight matrix
    per kept sample at the center; its coefficients at t are the inverse
    multiquadric kernel (shape ``RBF_SHAPE``) of t against the kept sample
    parameters, all rescaled to [-1, 1].  The samples map by one stacked
    ``stiefel_log`` call from the center.  A sample whose log from the
    center does not converge is left out of the interpolation problem and
    recorded in the curve's ``failed_indices``.  If no sample maps, raises
    ArcFitError on [t_first, t_last], caused by the last StiefelLogError.
    ``skip_failed`` names that one behaviour and accepts only True; any
    other value raises PreconditionError.
    """
    if skip_failed is not True:
        raise PreconditionError(
            f"skip_failed={skip_failed!r}: the RBF fit always records the samples it cannot map; "
            "the keyword goes when the benchmark stops passing it (ROADMAP item 1)")
    ts = _check_sample_plan([t for t, _ in samples])
    center = samples[len(samples) // 2][1]
    t_lo, t_hi = float(ts[0]), float(ts[-1])
    logs = stiefel.stiefel_log(center, [point for _, point in samples])
    kept = [i for i, log in enumerate(logs) if not isinstance(log, StiefelLogError)]
    failed = [i for i, log in enumerate(logs) if isinstance(log, StiefelLogError)]
    if not kept:
        raise ArcFitError(f"RBF fit failed on [{t_lo}, {t_hi}]: no sample maps to the center's "
                          f"tangent space ({logs[-1]})", t0=t_lo, t1=t_hi) from logs[-1]
    scaled = _rescale(ts[kept], t_lo, t_hi)
    kernel = _inverse_multiquadric(np.abs(scaled[:, np.newaxis] - scaled[np.newaxis, :]))
    stacked = np.stack([logs[i].delta for i in kept])  # (k, n, r)
    weights = np.linalg.solve(kernel, stacked.reshape(len(kept), -1)).reshape(stacked.shape)
    frame = stiefel.tangent_frame(center, weights)
    coeffs = functools.partial(_rbf_coeffs, scaled, t_lo, t_hi)
    return CompositeCurve(np.array([t_lo, t_hi]), (frame,), coeffs, tuple(failed))
