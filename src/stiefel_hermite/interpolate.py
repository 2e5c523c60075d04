"""Hermite interpolation of Stiefel-valued curves, plus two baselines.

A spline arc between samples (p, v_p) at t0 and (q, v_q) at t1 is built in
normal coordinates at a chosen center: the other endpoint maps through the
logarithm, velocities map through the differential of the logarithm
(approximated by a central difference of the log/exp transition map), and the
cubic Hermite combination of those tangent vectors is pushed back with a
single exponential per evaluation.  Joining arcs over consecutive sample
pairs gives a C^1 composite curve through all samples.

Baselines: piecewise geodesics (no derivative data) and radial-basis-function
interpolation in a single tangent space (inverse multiquadric kernel).

Every curve evaluates as the exponential of a linear combination of tangent
vectors fixed at fit time.  The fit puts them in a ``stiefel.TangentFrame``
(one per arc, geodesic segment or RBF curve), and a curve stores only its
knots and those frames, so an evaluation does no n x r factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus, stiefel
from .errors import (
    ArcFitError,
    DomainError,
    PreconditionError,
    ShapeError,
    StiefelLogError,
    TangentMapError,
    VelocityTransportError,
)

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


def euclid_hermite(p, q, v0, v1, t: float, t0: float, t1: float) -> np.ndarray:
    """Classical cubic Hermite combination a0 p + a1 q + b0 v0 + b1 v1."""
    a0, a1, b0, b1 = hermite_coeffs(t, t0, t1)
    p, q, v0, v1 = (np.asarray(x, dtype=float) for x in (p, q, v0, v1))
    if not (p.shape == q.shape == v0.shape == v1.shape):
        raise ShapeError("euclid_hermite: data shapes disagree")
    return a0 * p + a1 * q + b0 * v0 + b1 * v1


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

    Costs 3 logarithms and 2 exponentials: one log for the far endpoint and
    a central difference (2 logs + 2 exps, step ``calculus.DEFAULT_FD_STEP``)
    for the far velocity; the velocity at the center is used as-is.  The
    logs run to ``stiefel.LOG_TAU``; the transport's two start from the
    far endpoint's log, which cuts a fit_far arc from 18 Schur logs to 14.
    The frame is attached at the arc's center and holds its three tangent
    vectors in the order whose coefficients ``CompositeCurve._coeffs``
    returns.
    """
    if centering not in CENTERINGS:
        raise PreconditionError(f"centering must be one of {CENTERINGS}, got {centering!r}")
    if not s0.t < s1.t:
        raise DomainError(f"need s0.t < s1.t, got {s0.t}, {s1.t}")
    near, far = (s1, s0) if centering == "q" else (s0, s1)
    try:
        delta_far = stiefel.stiefel_log(near.point, far.point)
        v_far = calculus.transport_velocity(delta_far, far.velocity, h=calculus.DEFAULT_FD_STEP)
    except (StiefelLogError, VelocityTransportError) as exc:
        raise ArcFitError(
            f"arc fit failed on [{s0.t}, {s1.t}]; samples may be too far apart, "
            f"refine the sampling ({exc})",
            t0=s0.t,
            t1=s1.t,
        ) from exc
    v_start, v_end = (v_far, s1.velocity) if centering == "q" else (s0.velocity, v_far)
    return stiefel.tangent_frame(near.point, [delta_far.delta, v_start.delta, v_end.delta])


def _check_sample_plan(ts) -> np.ndarray:
    """The parameters of a sample plan, checked for every fit.

    A plan needs at least 2 samples, strictly increasing parameters, and no
    subinterval shorter than ``DEGENERATE_SPAN_EPS`` times the span.
    """
    ts = np.asarray(ts, dtype=float)
    if len(ts) < 2:
        raise PreconditionError("need at least 2 samples")
    steps = np.diff(ts)
    if not np.all(steps > 0):
        raise PreconditionError("sample parameters must be strictly increasing")
    if np.any(steps < DEGENERATE_SPAN_EPS * (ts[-1] - ts[0])):
        raise PreconditionError("degenerate subinterval in the sample plan")
    return ts


def _segment_index(knots: np.ndarray, t: float) -> int:
    """Right-closed lookup: t in [k_i, k_{i+1}) -> i; t == k_last -> last."""
    if not knots[0] <= t <= knots[-1]:
        raise DomainError(f"t={t} outside [{knots[0]}, {knots[-1]}]")
    if t == knots[-1]:
        return len(knots) - 2
    return int(np.searchsorted(knots, t, side="right")) - 1


@dataclass(frozen=True)
class CompositeCurve:
    """Piecewise quasi-cubic curve through a full Hermite sample set.

    ``frames[i]`` is the arc on [knots[i], knots[i + 1]]: three tangent
    vectors at the arc's center ``frames[i].base``, the sample at knots[i + 1]
    for "q" centering, at knots[i] for "p".  In order they are the log of
    the far endpoint and the velocity translates multiplying the b0 and b1
    coefficient polynomials.
    """

    knots: np.ndarray
    frames: tuple[stiefel.TangentFrame, ...]
    centering: str

    def arc_index(self, t: float) -> int:
        return _segment_index(self.knots, t)

    def _coeffs(self, i: int, t: float) -> tuple[float, float, float]:
        """Coefficients of arc i's three frame vectors at parameter t."""
        a0, a1, b0, b1 = hermite_coeffs(t, float(self.knots[i]), float(self.knots[i + 1]))
        return (a0 if self.centering == "q" else a1), b0, b1

    def __call__(self, t: float) -> stiefel.StiefelPoint:
        i = self.arc_index(t)
        return self.frames[i].exp(self._coeffs(i, t))


def arc_tangent(curve: CompositeCurve, t: float) -> stiefel.TangentVector:
    """Tangent-space interpolant of the curve at t (before the exp), at its arc's center."""
    i = curve.arc_index(t)
    return curve.frames[i].combination(curve._coeffs(i, t))


def fit_composite(samples: list[HermiteSample], centering: str = "q") -> CompositeCurve:
    """Fit arcs over consecutive sample pairs; the result is C^1 at the knots."""
    ts = _check_sample_plan([s.t for s in samples])
    frames = tuple(
        fit_arc(samples[i], samples[i + 1], centering=centering) for i in range(len(samples) - 1)
    )
    return CompositeCurve(knots=ts, frames=frames, centering=centering)


@dataclass(frozen=True)
class GeodesicCurve:
    """Piecewise-geodesic interpolant (manifold version of linear interpolation).

    ``frames[i]`` is the one-vector frame of Log_{p_i}(p_{i+1}) at p_i.
    """

    knots: np.ndarray
    frames: tuple[stiefel.TangentFrame, ...]

    def __call__(self, t: float) -> stiefel.StiefelPoint:
        i = _segment_index(self.knots, t)
        s = (t - self.knots[i]) / (self.knots[i + 1] - self.knots[i])
        return self.frames[i].exp((s,))


def geodesic_interp(samples: list[tuple[float, stiefel.StiefelPoint]]) -> GeodesicCurve:
    """Connect consecutive sample points by geodesics."""
    ts = _check_sample_plan([t for t, _ in samples])
    directions = []
    for i in range(len(samples) - 1):
        try:
            directions.append(stiefel.stiefel_log(samples[i][1], samples[i + 1][1]))
        except StiefelLogError as exc:
            raise ArcFitError(
                f"geodesic fit failed on [{ts[i]}, {ts[i + 1]}]: {exc}",
                t0=float(ts[i]),
                t1=float(ts[i + 1]),
            ) from exc
    return GeodesicCurve(knots=ts, frames=tuple(map(stiefel.split_tangent, directions)))


def _inverse_multiquadric(d: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(1.0 + (RBF_SHAPE * d) ** 2)


def _rescale(t, t_lo: float, t_hi: float):
    """The affine map of [t_lo, t_hi] onto [-1, 1], for a scalar or an array t."""
    return -1.0 + 2.0 * (t - t_lo) / (t_hi - t_lo)


@dataclass(frozen=True)
class TangentRBFCurve:
    """RBF interpolant of log-images in a single tangent space.

    Sample parameters are affinely rescaled to [-1, 1] before the kernel is
    applied, so ``RBF_SHAPE`` is interval-independent.  ``frame`` holds one
    weight matrix per kept sample, at the center sample ``frame.base``.
    ``failed_indices`` lists samples whose logarithm to the center did not
    converge (only nonempty when the curve was fit with ``skip_failed=True``).
    """

    frame: stiefel.TangentFrame
    scaled_knots: np.ndarray
    t_lo: float
    t_hi: float
    failed_indices: tuple[int, ...]

    def __call__(self, t: float) -> stiefel.StiefelPoint:
        if not self.t_lo <= t <= self.t_hi:
            raise DomainError(f"t={t} outside [{self.t_lo}, {self.t_hi}]")
        phi = _inverse_multiquadric(np.abs(_rescale(t, self.t_lo, self.t_hi) - self.scaled_knots))
        return self.frame.exp(phi)


def tangent_rbf_interp(
    samples: list[tuple[float, stiefel.StiefelPoint]], skip_failed: bool = False
) -> TangentRBFCurve:
    """Map all samples to the tangent space of the middle sample, RBF-interpolate.

    The kernel is the inverse multiquadric with shape ``RBF_SHAPE`` on the
    parameters rescaled to [-1, 1].  The center is the sample with index
    ``len(samples) // 2``.  If the log of some sample does not converge,
    raises TangentMapError listing the failed indices, unless
    ``skip_failed`` is set, in which case those samples are dropped from the
    interpolation problem and recorded on the curve.
    """
    ts = _check_sample_plan([t for t, _ in samples])
    center = samples[len(samples) // 2][1]
    t_lo, t_hi = float(ts[0]), float(ts[-1])
    deltas: list[np.ndarray] = []
    kept: list[int] = []
    failed: list[int] = []
    for i, (_, point) in enumerate(samples):
        try:
            deltas.append(stiefel.stiefel_log(center, point).delta)
            kept.append(i)
        except StiefelLogError:
            failed.append(i)
    if failed and not skip_failed:
        raise TangentMapError(
            f"tangent-space map failed for samples {failed} "
            "(log did not converge from the center sample)",
            failed_indices=failed,
        )
    if not kept:
        raise TangentMapError("no sample could be mapped to the center tangent space", failed)
    scaled = _rescale(ts[kept], t_lo, t_hi)
    kernel = _inverse_multiquadric(np.abs(scaled[:, np.newaxis] - scaled[np.newaxis, :]))
    stacked = np.stack(deltas)  # (k, n, r)
    weights = np.linalg.solve(kernel, stacked.reshape(len(kept), -1)).reshape(stacked.shape)
    return TangentRBFCurve(
        frame=stiefel.tangent_frame(center, weights),
        scaled_knots=scaled,
        t_lo=t_lo,
        t_hi=t_hi,
        failed_indices=tuple(failed),
    )
