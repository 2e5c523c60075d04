"""Experiment harness: synthetic data generators, error studies, CSV reports.

Three data families drive the studies:

* a cubic random matrix polynomial whose Q-factor path is Hermite-sampled
  (QR study),
* a product of random matrix polynomials with exact low rank whose truncated
  SVD factors are Hermite-sampled (SVD study),
* a deterministic snapshot family of a closed-form two-parameter function
  whose left singular vectors are Hermite-sampled (snapshot study; it
  compares against single-tangent-space interpolation, which needs logs
  between samples far apart).

All randomness flows through ``numpy.random.default_rng`` (PCG64), so a seed
pins the generated data; report bytes also depend on the BLAS build and
thread count.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import interpolate, linalg, stiefel
from .calculus import diff_qr, diff_svd, diff_svd_truncated, svd_sign_normalize, validate_transport
from .errors import ArcFitError, PreconditionError, StiefelLogError
from .stiefel import CURVATURE_MAX

logger = logging.getLogger(__name__)

METHODS = ("hermite", "geodesic", "rbf")

#: Finite-difference steps swept by the transport accuracy study.
TRANSPORT_STEPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


@dataclass
class ExperimentConfig:
    """Shared knobs for the experiment runners (desk-scale defaults)."""

    n: int = 100
    r: int = 6
    m: int = 50
    interval: tuple[float, float] = (-1.1, 1.1)
    num_nodes: int = 6
    seed: int = 0
    h: float = 1e-4
    tau: float = 1e-14
    centering: str = "q"
    methods: tuple[str, ...] = ("hermite", "geodesic", "rbf")
    rbf_shape: float = 1.0
    grid_points: int = 100

    def __post_init__(self):
        if self.n < self.r:
            raise PreconditionError(f"need n >= r, got n={self.n}, r={self.r}")
        if self.num_nodes < 2:
            raise PreconditionError(f"need at least 2 nodes, got {self.num_nodes}")
        if self.h <= 0 or self.tau <= 0:
            raise PreconditionError("h and tau must be positive")
        if not self.interval[0] < self.interval[1]:
            raise PreconditionError(f"empty interval {self.interval}")
        if self.centering not in interpolate.CENTERINGS:
            raise PreconditionError(f"centering must be 'q' or 'p', got {self.centering!r}")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise PreconditionError(f"unknown methods {bad}; choose from {METHODS}")
        if self.grid_points < 2:
            raise PreconditionError("need at least 2 grid points")


@dataclass
class ErrorReport:
    """Per-method error curves on an evaluation grid plus summary metrics."""

    eval_grid: list[float]
    errors: dict[str, list[float]]
    max_rel: dict[str, float]
    l2_rel: dict[str, float]
    tangent_errors: list[float] | None = None
    manifold_errors: list[float] | None = None
    failures: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class BoundInputs:
    """Inputs of the curvature-aware distance bound.

    ``delta``/``delta_tilde`` are the tangent norms of the exact datum and
    its approximation, ``s0`` the angle between them, ``curvature`` the
    sectional curvature of their plane.
    """

    delta: float
    delta_tilde: float
    s0: float
    curvature: float

    def __post_init__(self):
        if not (0.0 <= self.delta < 1.0 and 0.0 <= self.delta_tilde < 1.0):
            raise PreconditionError("tangent norms must lie in [0, 1)")
        if not 0.0 <= self.s0 <= math.pi / 2:
            raise PreconditionError(f"angle s0 must lie in [0, pi/2], got {self.s0}")


def eval_distance_bound(b: BoundInputs) -> float:
    """Leading-order bound on dist(Exp(D), Exp(D~)) for tangent data D, D~.

    |delta - delta~| + s0 * delta * (1 - K/6 * delta^2): the ray part plus the
    arc part contracted (K > 0) or stretched (K < 0) by curvature.  Remainder
    terms of order o(delta^2) and O(s0^2) are dropped.
    """
    return abs(b.delta - b.delta_tilde) + b.s0 * b.delta * (
        1.0 - b.curvature / 6.0 * b.delta**2
    )


def chebyshev_nodes(a: float, b: float, k: int) -> np.ndarray:
    """The k Chebyshev roots mapped affinely to [a, b], ascending."""
    if not a < b:
        raise PreconditionError(f"need a < b, got {a}, {b}")
    if k < 1:
        raise PreconditionError(f"need k >= 1, got {k}")
    j = np.arange(k)
    roots = np.cos((2 * j + 1) * np.pi / (2 * k))
    return np.sort(0.5 * (a + b) + 0.5 * (b - a) * roots)


def _uniform_grid(nodes: np.ndarray, points: int) -> np.ndarray:
    """Evaluation grid: uniform points spanning the sampled range."""
    return np.linspace(nodes[0], nodes[-1], points)


def _summaries(grid: np.ndarray, errs: np.ndarray) -> tuple[float, float]:
    max_rel = float(np.max(errs))
    l2_rel = float(np.sqrt(np.trapezoid(errs**2, grid)))
    return max_rel, l2_rel


def _finalize(grid, errors, tangent=None, manifold=None, failures=None) -> ErrorReport:
    grid = np.asarray(grid, dtype=float)
    max_rel, l2_rel = {}, {}
    for method, errs in errors.items():
        max_rel[method], l2_rel[method] = _summaries(grid, np.asarray(errs, dtype=float))
    return ErrorReport(
        eval_grid=[float(t) for t in grid],
        errors={m: [float(e) for e in v] for m, v in errors.items()},
        max_rel=max_rel,
        l2_rel=l2_rel,
        tangent_errors=None if tangent is None else [float(e) for e in tangent],
        manifold_errors=None if manifold is None else [float(e) for e in manifold],
        failures=dict(failures or {}),
    )


# --------------------------------------------------------------------------
# QR-factor interpolation study
# --------------------------------------------------------------------------


@dataclass
class QRExperimentData:
    """Cubic matrix polynomial Y(t) and Hermite samples of its Q-factor."""

    coeffs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    nodes: np.ndarray
    samples: list[interpolate.HermiteSample]
    seed_used: int

    def y(self, t: float) -> np.ndarray:
        y0, y1, y2, y3 = self.coeffs
        return y0 + t * y1 + t * t * y2 + t**3 * y3

    def y_dot(self, t: float) -> np.ndarray:
        _, y1, y2, y3 = self.coeffs
        return y1 + 2.0 * t * y2 + 3.0 * t * t * y3

    def reference(self, t: float) -> stiefel.StiefelPoint:
        return stiefel.StiefelPoint(linalg.qr_econ(self.y(t)).q)


def gen_qr_experiment(config: ExperimentConfig, max_attempts: int = 20) -> QRExperimentData:
    """Random cubic matrix path and Hermite samples of its Q-factor.

    Coefficient entries are uniform on [0, 1] (constant term), [0, 0.5]
    (linear and quadratic), [0, 0.2] (cubic).  Paths that go rank-deficient
    anywhere on the evaluation grid are rejected and regenerated with the
    next seed, which is reported.
    """
    nodes = chebyshev_nodes(*config.interval, config.num_nodes)
    grid = _uniform_grid(nodes, config.grid_points)
    for attempt in range(max_attempts):
        seed = config.seed + attempt
        rng = np.random.default_rng(seed)
        coeffs = (
            rng.uniform(0.0, 1.0, (config.n, config.r)),
            rng.uniform(0.0, 0.5, (config.n, config.r)),
            rng.uniform(0.0, 0.5, (config.n, config.r)),
            rng.uniform(0.0, 0.2, (config.n, config.r)),
        )
        data = QRExperimentData(coeffs=coeffs, nodes=nodes, samples=[], seed_used=seed)
        if any(linalg.qr_econ(data.y(t)).rank_deficient for t in np.concatenate([nodes, grid])):
            logger.warning("QR path rank-deficient for seed %d; regenerating", seed)
            continue
        for t in nodes:
            qr = linalg.qr_econ(data.y(t))
            point = stiefel.StiefelPoint(qr.q)
            deriv = diff_qr(data.y(t), data.y_dot(t), qr)
            data.samples.append(
                interpolate.HermiteSample(
                    t=float(t),
                    point=point,
                    velocity=stiefel.TangentVector(point, deriv.q_dot),
                )
            )
        return data
    raise PreconditionError(f"no full-rank QR path found in {max_attempts} attempts")


def _method_curves(
    config: ExperimentConfig,
    samples: list[interpolate.HermiteSample],
    failures: dict[str, str],
):
    """Fit every enabled method; record failures instead of aborting."""
    curves = {}
    points = [(s.t, s.point) for s in samples]
    for method in config.methods:
        try:
            if method == "hermite":
                curves[method] = interpolate.fit_composite(
                    samples, centering=config.centering, h=config.h, tau=config.tau
                )
            elif method == "geodesic":
                curves[method] = interpolate.geodesic_interp(points, tau=config.tau)
            elif method == "rbf":
                curve = interpolate.tangent_rbf_interp(
                    points, shape=config.rbf_shape, tau=config.tau, skip_failed=True
                )
                if curve.failed_indices:
                    failures[method] = (
                        "log did not converge for samples "
                        f"{list(curve.failed_indices)}; they are not interpolated"
                    )
                curves[method] = curve
        except ArcFitError as exc:
            failures[method] = str(exc)
    return curves


def run_qr_interp(config: ExperimentConfig) -> ErrorReport:
    """Interpolate the Q-factor path and report relative Frobenius errors."""
    data = gen_qr_experiment(config)
    grid = _uniform_grid(data.nodes, config.grid_points)
    reference = [data.reference(t) for t in grid]
    failures: dict[str, str] = {}
    curves = _method_curves(config, data.samples, failures)
    errors = {}
    for method, curve in curves.items():
        errs = [
            np.linalg.norm(curve(t).u - ref.u) / np.linalg.norm(ref.u)
            for t, ref in zip(grid, reference)
        ]
        errors[method] = errs
    return _finalize(grid, errors, failures=failures)


# --------------------------------------------------------------------------
# Low-rank SVD interpolation study
# --------------------------------------------------------------------------


@dataclass
class SVDExperimentData:
    """Exact-rank-r matrix path W(t) = Y(t) Z(t) with truncated-SVD samples."""

    y_coeffs: tuple[np.ndarray, ...]
    z_coeffs: tuple[np.ndarray, ...]
    nodes: np.ndarray
    u_ref: np.ndarray
    samples_u: list[interpolate.HermiteSample]
    samples_v: list[interpolate.HermiteSample]
    sigma_values: np.ndarray  # (k, r)
    sigma_slopes: np.ndarray  # (k, r)
    seed_used: int

    def w(self, t: float) -> np.ndarray:
        y0, y1, y2, y3 = self.y_coeffs
        z0, z1, z2 = self.z_coeffs
        y = y0 + t * y1 + t * t * y2 + t**3 * y3
        z = z0 + t * z1 + t * t * z2
        return y @ z

    def w_dot(self, t: float) -> np.ndarray:
        y0, y1, y2, y3 = self.y_coeffs
        z0, z1, z2 = self.z_coeffs
        y = y0 + t * y1 + t * t * y2 + t**3 * y3
        z = z0 + t * z1 + t * t * z2
        ydot = y1 + 2.0 * t * y2 + 3.0 * t * t * y3
        zdot = z1 + 2.0 * t * z2
        return ydot @ z + y @ zdot

    def reference_u(self, t: float, rank: int) -> stiefel.StiefelPoint:
        u, _, v = linalg.svd_full(self.w(t))
        u_n, _ = svd_sign_normalize(u[:, :rank], v[:, :rank], self.u_ref)
        return stiefel.StiefelPoint(u_n)


def gen_lowrank_svd_experiment(
    config: ExperimentConfig, max_attempts: int = 20
) -> SVDExperimentData:
    """Random exact-rank-r path W(t) = Y(t) Z(t) with truncated-SVD samples.

    Y is a cubic n x r polynomial (entries uniform on [0,1] / [0,0.5]),
    Z a quadratic r x m polynomial (entries uniform on [0,1] / [0,0.5]).
    Sampled factors are sign-normalized against the first node before
    differentiating, so that the sampled paths are differentiable.  Seeds
    giving near-repeated leading singular values at a node are regenerated.
    """
    r = config.r
    if config.m < r:
        raise PreconditionError(f"an exact rank-r path needs m >= r, got m={config.m}, r={r}")
    nodes = chebyshev_nodes(*config.interval, config.num_nodes)
    for attempt in range(max_attempts):
        seed = config.seed + attempt
        rng = np.random.default_rng(seed)
        y_coeffs = (
            rng.uniform(0.0, 1.0, (config.n, r)),
            rng.uniform(0.0, 0.5, (config.n, r)),
            rng.uniform(0.0, 0.5, (config.n, r)),
            rng.uniform(0.0, 0.5, (config.n, r)),
        )
        z_coeffs = (
            rng.uniform(0.0, 1.0, (r, config.m)),
            rng.uniform(0.0, 0.5, (r, config.m)),
            rng.uniform(0.0, 0.5, (r, config.m)),
        )
        data = SVDExperimentData(
            y_coeffs=y_coeffs,
            z_coeffs=z_coeffs,
            nodes=nodes,
            u_ref=np.empty(0),
            samples_u=[],
            samples_v=[],
            sigma_values=np.zeros((len(nodes), r)),
            sigma_slopes=np.zeros((len(nodes), r)),
            seed_used=seed,
        )
        ok = True
        for t in nodes:
            sigma = linalg.svd_full(data.w(t))[1]
            gaps = sigma[: r - 1] - sigma[1:r]
            if sigma[r:].size and sigma[r] > 1e-10 * sigma[0]:
                ok = False  # not numerically rank r
            if np.min(gaps) < 1e-6 * sigma[0] or sigma[r - 1] < 1e-10 * sigma[0]:
                ok = False
            if not ok:
                break
        if not ok:
            logger.warning("SVD path degenerate for seed %d; regenerating", seed)
            continue
        data.u_ref = linalg.svd_full(data.w(nodes[0]))[0][:, :r]
        for i, t in enumerate(nodes):
            w = data.w(t)
            u, sigma, v = linalg.svd_full(w)
            u_n, v_head = svd_sign_normalize(u[:, :r], v[:, :r], data.u_ref)
            u = u.copy()
            v = v.copy()
            u[:, :r] = u_n
            v[:, :r] = v_head
            deriv = diff_svd_truncated(w, data.w_dot(t), r, (u, sigma, v))
            point_u = stiefel.StiefelPoint(u[:, :r])
            point_v = stiefel.StiefelPoint(v[:, :r])
            data.samples_u.append(
                interpolate.HermiteSample(
                    t=float(t), point=point_u, velocity=stiefel.TangentVector(point_u, deriv.u_dot)
                )
            )
            data.samples_v.append(
                interpolate.HermiteSample(
                    t=float(t), point=point_v, velocity=stiefel.TangentVector(point_v, deriv.v_dot)
                )
            )
            data.sigma_values[i] = sigma[:r]
            data.sigma_slopes[i] = deriv.sigma_dot
        return data
    raise PreconditionError(
        f"no well-separated SVD path found in {max_attempts} attempts"
    )


class _PiecewiseHermite:
    """Componentwise cubic Hermite interpolant of vector samples."""

    def __init__(self, knots, values, slopes):
        self.knots = np.asarray(knots, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.slopes = np.asarray(slopes, dtype=float)

    def __call__(self, t: float) -> np.ndarray:
        i = interpolate._segment_index(self.knots, t)
        return interpolate.euclid_hermite(
            self.values[i],
            self.values[i + 1],
            self.slopes[i],
            self.slopes[i + 1],
            t,
            self.knots[i],
            self.knots[i + 1],
        )


class _PiecewiseLinear:
    def __init__(self, knots, values):
        self.knots = np.asarray(knots, dtype=float)
        self.values = np.asarray(values, dtype=float)

    def __call__(self, t: float) -> np.ndarray:
        i = interpolate._segment_index(self.knots, t)
        s = (t - self.knots[i]) / (self.knots[i + 1] - self.knots[i])
        return (1.0 - s) * self.values[i] + s * self.values[i + 1]


def run_svd_interp(config: ExperimentConfig) -> ErrorReport:
    """Interpolate the truncated SVD factors and report reconstruction errors.

    Hermite: manifold quasi-cubic for U and V, componentwise cubic Hermite
    for the singular values.  Geodesic baseline: piecewise geodesics for U
    and V, linear interpolation for the singular values.  The RBF method is
    not part of this study.
    """
    if "rbf" in config.methods:
        raise PreconditionError("the rbf method is not available for svd-interp")
    data = gen_lowrank_svd_experiment(config)
    grid = _uniform_grid(data.nodes, config.grid_points)
    failures: dict[str, str] = {}
    curves = {}
    for method in config.methods:
        try:
            if method == "hermite":
                curves[method] = (
                    interpolate.fit_composite(
                        data.samples_u, centering=config.centering, h=config.h, tau=config.tau
                    ),
                    interpolate.fit_composite(
                        data.samples_v, centering=config.centering, h=config.h, tau=config.tau
                    ),
                    _PiecewiseHermite(data.nodes, data.sigma_values, data.sigma_slopes),
                )
            elif method == "geodesic":
                curves[method] = (
                    interpolate.geodesic_interp(
                        [(s.t, s.point) for s in data.samples_u], tau=config.tau
                    ),
                    interpolate.geodesic_interp(
                        [(s.t, s.point) for s in data.samples_v], tau=config.tau
                    ),
                    _PiecewiseLinear(data.nodes, data.sigma_values),
                )
        except ArcFitError as exc:
            failures[method] = str(exc)
    errors = {}
    for method, (cu, cv, cs) in curves.items():
        errs = []
        for t in grid:
            w = data.w(t)
            rec = (cu(t).u * cs(t)[np.newaxis, :]) @ cv(t).u.T
            errs.append(np.linalg.norm(rec - w) / np.linalg.norm(w))
        errors[method] = errs
    return _finalize(grid, errors, failures=failures)


def run_tangent_vs_manifold(config: ExperimentConfig) -> ErrorReport:
    """Compare tangent-space and manifold interpolation errors of the U factor.

    For the Hermite interpolant of the left factor of the low-rank SVD study,
    records per grid point the canonical-metric error of the tangent-space
    interpolant against the log of the reference, and the Riemannian distance
    between the mapped interpolant and the reference.  On a positively curved
    manifold the latter is (slightly) smaller.
    """
    data = gen_lowrank_svd_experiment(config)
    curve = interpolate.fit_composite(
        data.samples_u, centering=config.centering, h=config.h, tau=config.tau
    )
    grid = _uniform_grid(data.nodes, config.grid_points)
    kept, rel_errs, tangent_errs, manifold_errs = [], [], [], []
    skipped = []
    for t in grid:
        ref = data.reference_u(t, config.r)
        arc = curve.arcs[curve.arc_index(t)]
        gamma = interpolate.arc_tangent(arc, t)
        try:
            log_ref = stiefel.stiefel_log(arc.center, ref, tau=config.tau)
            point = stiefel.stiefel_exp(gamma)
            manifold_errs.append(stiefel.dist(point, ref, tau=config.tau))
        except StiefelLogError:
            skipped.append(float(t))
            continue
        tangent_errs.append(stiefel.norm(gamma - log_ref))
        kept.append(t)
        rel_errs.append(
            np.linalg.norm(point.u - ref.u) / np.linalg.norm(ref.u)
        )
    failures = {}
    if skipped:
        failures["reference_scan"] = (
            f"log did not converge at {len(skipped)} grid points: {skipped}"
        )
    return _finalize(
        np.asarray(kept),
        {"hermite": rel_errs},
        tangent=tangent_errs,
        manifold=manifold_errs,
        failures=failures,
    )


# --------------------------------------------------------------------------
# Snapshot study (deterministic)
# --------------------------------------------------------------------------


@dataclass
class SnapshotExperimentData:
    """Normalized snapshot family of f(x, t, mu) = x^t sin(pi/2 mu x).

    Snapshot columns are taken at r time instants 1.0, 1.6, ... and
    normalized to unit trapezoidal L2 norm on the x-grid; the left singular
    factor U(mu) is sampled with its mu-derivative at Chebyshev nodes.
    """

    x: np.ndarray
    quad_weights: np.ndarray
    t_snapshots: np.ndarray
    nodes: np.ndarray
    u_ref: np.ndarray
    samples: list[interpolate.HermiteSample]

    def snapshot(self, mu: float) -> np.ndarray:
        cols = []
        for t in self.t_snapshots:
            f = self.x**t * np.sin(0.5 * np.pi * mu * self.x)
            nrm = np.sqrt(self.quad_weights @ (f * f))
            cols.append(f / nrm)
        return np.column_stack(cols)

    def snapshot_dot(self, mu: float) -> np.ndarray:
        cols = []
        for t in self.t_snapshots:
            f = self.x**t * np.sin(0.5 * np.pi * mu * self.x)
            fd = 0.5 * np.pi * self.x ** (t + 1.0) * np.cos(0.5 * np.pi * mu * self.x)
            nrm = np.sqrt(self.quad_weights @ (f * f))
            inner = self.quad_weights @ (f * fd)
            cols.append(fd / nrm - inner / nrm**3 * f)
        return np.column_stack(cols)

    def reference_u(self, mu: float) -> stiefel.StiefelPoint:
        u, _, v = linalg.svd_full(self.snapshot(mu))
        u_n, _ = svd_sign_normalize(u, v, self.u_ref)
        return stiefel.StiefelPoint(u_n)

    def smallest_sigma(self, mu: float) -> float:
        return float(linalg.svd_full(self.snapshot(mu))[1][-1])


def gen_snapshot_experiment(config: ExperimentConfig) -> SnapshotExperimentData:
    """Snapshot matrices, their analytic mu-derivatives, and Hermite samples."""
    x = np.linspace(0.0, 1.0, config.n)
    dx = x[1] - x[0]
    weights = np.full(config.n, dx)
    weights[0] = weights[-1] = 0.5 * dx
    t_snapshots = 1.0 + 0.6 * np.arange(config.r)
    nodes = chebyshev_nodes(*config.interval, config.num_nodes)
    data = SnapshotExperimentData(
        x=x,
        quad_weights=weights,
        t_snapshots=t_snapshots,
        nodes=nodes,
        u_ref=np.empty(0),
        samples=[],
    )
    data.u_ref = linalg.svd_full(data.snapshot(nodes[0]))[0]
    for mu in nodes:
        y = data.snapshot(mu)
        u, sigma, v = linalg.svd_full(y)
        u, v = svd_sign_normalize(u, v, data.u_ref)
        deriv = diff_svd(y, data.snapshot_dot(mu), (u, sigma, v))
        point = stiefel.StiefelPoint(u)
        data.samples.append(
            interpolate.HermiteSample(
                t=float(mu), point=point, velocity=stiefel.TangentVector(point, deriv.u_dot)
            )
        )
    return data


def run_snapshot_experiment(config: ExperimentConfig) -> ErrorReport:
    """Interpolate the snapshot left factor U(mu); report per-method errors.

    The tangent-space RBF method maps every sample into the tangent space of
    the center sample.  If a log does not converge, the failure is recorded
    in the report and that sample is not interpolated, which shows up as
    large local errors.  On the n=1001, r=6 study all six logs converge.
    """
    data = gen_snapshot_experiment(config)
    grid = _uniform_grid(data.nodes, config.grid_points)
    reference = [data.reference_u(mu) for mu in grid]
    failures: dict[str, str] = {}
    curves = _method_curves(config, data.samples, failures)
    errors = {}
    for method, curve in curves.items():
        errs = [
            np.linalg.norm(curve(mu).u - ref.u) / np.linalg.norm(ref.u)
            for mu, ref in zip(grid, reference)
        ]
        errors[method] = errs
    return _finalize(grid, errors, failures=failures)


def snapshot_transport_instance(
    config: ExperimentConfig,
    mu_base: float = 0.9,
    mu_target: float = 1.4,
    mu_direction: float = 1.9,
) -> tuple[stiefel.StiefelPoint, stiefel.StiefelPoint, stiefel.TangentVector]:
    """The (base, target, velocity) triple of the snapshot transport study."""
    wide = ExperimentConfig(
        n=config.n,
        r=config.r,
        interval=(min(mu_base, mu_target, mu_direction), max(mu_base, mu_target, mu_direction)),
        num_nodes=2,
        seed=config.seed,
        tau=config.tau,
    )
    data = gen_snapshot_experiment(wide)
    p = data.reference_u(mu_base)
    q = data.reference_u(mu_target)
    far = data.reference_u(mu_direction)
    v_p = stiefel.stiefel_log(p, far, tau=config.tau)
    return q, p, v_p


def run_transport_accuracy(
    config: ExperimentConfig, use_snapshot_data: bool = False
) -> list[tuple[float, float]]:
    """Velocity transport reconstruction error over a sweep of FD steps.

    The error curve is V-shaped: the central difference improves like h^2
    until roundoff in the log/exp evaluations takes over.  By default the
    points and the velocity are random at comparable separations to the
    snapshot study; set ``use_snapshot_data`` for the deterministic variant.
    """
    if use_snapshot_data:
        q, p, v_p = snapshot_transport_instance(config)
    else:
        rng = np.random.default_rng(config.seed)
        p = stiefel.random_point(rng, config.n, config.r)
        q = stiefel.stiefel_exp(stiefel.random_tangent(rng, p, scale=0.8))
        v_p = stiefel.random_tangent(rng, p, scale=1.0)
    return [
        (h, validate_transport(q, p, v_p, h=h, tau=config.tau)) for h in TRANSPORT_STEPS
    ]


def bound_check_instance(
    config: ExperimentConfig, delta: float, delta_tilde: float, s0: float
) -> dict[str, float]:
    """Observed geodesic-endpoint distance vs the curvature bound envelope.

    Builds two tangent vectors at a random point with prescribed canonical
    norms and angle, measures the distance of their exponential images, and
    evaluates the distance bound at the extreme curvatures 0 and 5/4.
    """
    rng = np.random.default_rng(config.seed)
    base = stiefel.random_point(rng, config.n, config.r)
    w = stiefel.random_tangent(rng, base, scale=1.0)
    raw = stiefel.random_tangent(rng, base, scale=1.0)
    ortho = raw - stiefel.metric(raw, w) * w
    w_perp = (1.0 / stiefel.norm(ortho)) * ortho
    d1 = delta * w
    d2 = delta_tilde * (math.cos(s0) * w + math.sin(s0) * w_perp)
    observed = stiefel.dist(
        stiefel.stiefel_exp(d1), stiefel.stiefel_exp(d2), tau=config.tau
    )
    return {
        "delta": delta,
        "delta_tilde": delta_tilde,
        "s0": s0,
        "observed_dist": observed,
        "bound_flat": eval_distance_bound(BoundInputs(delta, delta_tilde, s0, 0.0)),
        "bound_max_curvature": eval_distance_bound(
            BoundInputs(delta, delta_tilde, s0, CURVATURE_MAX)
        ),
    }


# --------------------------------------------------------------------------
# CSV reports
# --------------------------------------------------------------------------


def report_to_csv(report: ErrorReport) -> str:
    """Render a report as CSV: data columns, then summary footer lines.

    Floats are written with ``repr``, the shortest decimal that round-trips.
    """
    methods = list(report.errors.keys())
    header = ["t"] + [f"{m}_rel_err" for m in methods]
    extra = []
    if report.tangent_errors is not None:
        extra.append("tangent_err")
    if report.manifold_errors is not None:
        extra.append("manifold_err")
    lines = [",".join(header + extra)]
    for i, t in enumerate(report.eval_grid):
        row = [repr(t)] + [repr(report.errors[m][i]) for m in methods]
        if report.tangent_errors is not None:
            row.append(repr(report.tangent_errors[i]))
        if report.manifold_errors is not None:
            row.append(repr(report.manifold_errors[i]))
        lines.append(",".join(row))
    for m in methods:
        lines.append(f"# max_rel,{m},{report.max_rel[m]!r}")
    for m in methods:
        lines.append(f"# l2_rel,{m},{report.l2_rel[m]!r}")
    for key, message in report.failures.items():
        lines.append(f"# failure,{key},{message}")
    return "\n".join(lines) + "\n"


def emit_report(report: ErrorReport, path) -> None:
    """Write the CSV rendering of a report to ``path``."""
    try:
        Path(path).write_text(report_to_csv(report))
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def parse_report(text: str) -> ErrorReport:
    """Inverse of ``report_to_csv`` (for report round-tripping)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    methods = [h[: -len("_rel_err")] for h in header[1:] if h.endswith("_rel_err")]
    has_tangent = "tangent_err" in header
    has_manifold = "manifold_err" in header
    grid: list[float] = []
    errors: dict[str, list[float]] = {m: [] for m in methods}
    tangent: list[float] = []
    manifold: list[float] = []
    max_rel: dict[str, float] = {}
    l2_rel: dict[str, float] = {}
    failures: dict[str, str] = {}
    for line in lines[1:]:
        if line.startswith("#"):
            kind, key, value = line[1:].strip().split(",", 2)
            if kind == "max_rel":
                max_rel[key] = float(value)
            elif kind == "l2_rel":
                l2_rel[key] = float(value)
            elif kind == "failure":
                failures[key] = value
            continue
        cells = line.split(",")
        grid.append(float(cells[0]))
        for j, m in enumerate(methods):
            errors[m].append(float(cells[1 + j]))
        pos = 1 + len(methods)
        if has_tangent:
            tangent.append(float(cells[pos]))
            pos += 1
        if has_manifold:
            manifold.append(float(cells[pos]))
    return ErrorReport(
        eval_grid=grid,
        errors=errors,
        max_rel=max_rel,
        l2_rel=l2_rel,
        tangent_errors=tangent if has_tangent else None,
        manifold_errors=manifold if has_manifold else None,
        failures=failures,
    )
