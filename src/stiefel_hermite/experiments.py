"""Experiment harness: synthetic data generators, error studies, CSV reports.

Two kinds of sampled factor path drive the studies:

* ``QRExperimentData``: the Q-factor path of a random cubic matrix path Y(t)
  (QR study);
* ``SVDExperimentData``: the truncated SVD factors of a rank-r matrix path,
  all sampled by one loop (``_sample_svd_path``) from the path's own
  factorization ``svd(t)``, which its references call too.  Two families
  feed it: a product W(t) = Y(t) Z(t) of a random cubic Y(t) and a
  quadratic Z(t) with exact low rank (SVD and tangent-vs-manifold studies);
  and a deterministic snapshot family of a closed-form two-parameter
  function whose left factor is interpolated, whose ``svd(t)`` is the SVD
  of its n x r snapshot itself (snapshot study; it compares against
  single-tangent-space interpolation, which needs logs between samples far
  apart).  The transport study samples the same family at its own three
  parameters.

Both random families split their cubic Y(t) once, as a ``_CubicPath``:
Y(t) = Q4 C(t), with Q4 an orthonormal basis of its coefficients and C(t)
its coordinates, k = min(n, 4r) rows.  Each family is sampled once, on its
coordinates: the QR family (``_draw_qr_path``) takes the Q-factor of C(t),
the low-rank family (``_draw_lowrank_path``) the SVD of
X(t) = C(t) Z(t), and each accepts or rejects a draw on those samples.
U -> Q4 U embeds St(k, r) in St(n, r) isometrically and totally
geodesically (a geodesic U E11 + Q E21 stays in span(Q4) when U and its
velocity do), so Exp, Log, the exact transport and the RBF combination
commute with it: the QR, SVD and tangent-vs-manifold studies fit, evaluate
and score on the coordinates, and their numbers are the n-row ones in
exact arithmetic.  ``gen_qr_experiment`` and ``gen_lowrank_svd_experiment``
return St(n, r) data: Q4 times the coordinate samples and factors
(``_lift``), so no scan point, sample or reference factors an n-row
matrix.  The QR family factors its scan, nodes and grid, in one stacked
``linalg.qr_econ`` call, whose grid factors are the QR study's references.
Every study SVD is a ``linalg.svd_full`` call.

``COMMANDS`` is the one study registry.  It maps each CLI subcommand to the
config fields its study reads, which are its flags, to the function that
runs the study and returns its CSV text, and to the paper's runs of that
study (``studies``: results-file stem to config); the seven runs make up the
paper's numerical section.  An ``ErrorReport`` stores the error columns; its
summaries ``max_rel`` and ``l2_rel`` are computed from them, and one column
table gives both its CSV layout and the parser's reading of it.

All randomness flows through ``numpy.random.default_rng`` (PCG64), so a seed
pins the generated data; report bytes also depend on the BLAS build and
thread count.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import interpolate, linalg, stiefel
from .calculus import diff_qr, diff_svd_truncated, svd_sign_normalize, validate_transport
from .errors import ArcFitError, DomainError, PreconditionError, StiefelLogError
from .stiefel import CURVATURE_MAX

logger = logging.getLogger(__name__)

METHODS = ("hermite", "geodesic", "rbf")

#: Finite-difference steps swept by the transport accuracy study.
TRANSPORT_STEPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)

#: The random generators try the seeds config.seed, config.seed + 1, ...
#: this many times before they give up.
GEN_MAX_ATTEMPTS = 20

#: mu of the base, target and velocity-direction snapshots of the transport
#: study.
SNAPSHOT_TRANSPORT_MUS = (0.9, 1.4, 1.9)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the experiment runners (desk-scale defaults).

    The numerical constants of the method are not fields: every log runs to
    ``stiefel.LOG_TAU``, the arc fits' transport is exact and has no step,
    the transport study sweeps ``TRANSPORT_STEPS``, and the RBF baseline
    uses the shape ``interpolate.RBF_SHAPE``.
    """

    n: int = 100
    r: int = 6
    m: int = 50
    interval: tuple[float, float] = (-1.1, 1.1)
    num_nodes: int = 6
    seed: int = 0
    centering: str = "q"
    methods: tuple[str, ...] = ("hermite", "geodesic", "rbf")
    grid_points: int = 100

    def __post_init__(self):
        if self.r < 1:
            raise PreconditionError(f"need r >= 1, got r={self.r}")
        if self.n < self.r:
            raise PreconditionError(f"need n >= r, got n={self.n}, r={self.r}")
        if self.num_nodes < 2:
            raise PreconditionError(f"need at least 2 nodes, got {self.num_nodes}")
        if not (np.all(np.isfinite(self.interval)) and self.interval[0] < self.interval[1]):
            raise PreconditionError(f"interval must be finite with a < b, got {self.interval}")
        a, b = (float(end) for end in self.interval)
        if not (math.isfinite(b - a) and math.isfinite(a + b)):
            raise PreconditionError(f"the width b - a or the sum a + b of interval {self.interval} "
                                    "overflows float64")
        if self.centering not in interpolate.CENTERINGS:
            raise PreconditionError(f"centering must be 'q' or 'p', got {self.centering!r}")
        if not self.methods or not set(self.methods) <= set(METHODS):
            raise PreconditionError(f"methods must be one or more of {METHODS}, got {self.methods}")
        if len(set(self.methods)) < len(self.methods):
            raise PreconditionError(f"methods must not repeat, got {self.methods}")
        if self.grid_points < 2:
            raise PreconditionError("need at least 2 grid points")


@dataclass
class ErrorReport:
    """Per-method error curves on an evaluation grid; the summaries are computed from them.

    The stored values are Python floats: numpy 2 writes an ``np.float64`` as
    ``np.float64(...)``.
    """

    eval_grid: list[float]
    errors: dict[str, list[float]]
    tangent_errors: list[float] | None = None
    manifold_errors: list[float] | None = None
    failures: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        def floats(values):
            return None if values is None else [float(x) for x in values]

        self.eval_grid = floats(self.eval_grid)
        self.errors = {m: floats(errs) for m, errs in self.errors.items()}
        self.tangent_errors = floats(self.tangent_errors)
        self.manifold_errors = floats(self.manifold_errors)

    @property
    def max_rel(self) -> dict[str, float]:
        """Largest relative error of each method."""
        return {m: float(np.max(errs)) for m, errs in self.errors.items()}

    @property
    def l2_rel(self) -> dict[str, float]:
        """Trapezoidal L2 norm over the grid of each method's relative error."""
        grid = np.asarray(self.eval_grid)
        return {
            m: float(np.sqrt(np.trapezoid(np.asarray(errs) ** 2, grid)))
            for m, errs in self.errors.items()
        }


def eval_distance_bound(delta: float, delta_tilde: float, s0: float, curvature: float) -> float:
    """Leading-order bound on dist(Exp(D), Exp(D~)) for tangent data D, D~.

    ``delta``/``delta_tilde`` are the tangent norms of the exact datum and
    its approximation, ``s0`` the angle between them, ``curvature`` the
    sectional curvature of their plane.  The bound is
    |delta - delta~| + s0 * delta * (1 - K/6 * delta^2): the ray part plus the
    arc part contracted (K > 0) or stretched (K < 0) by curvature.  Remainder
    terms of order o(delta^2) and O(s0^2) are dropped.
    """
    if not (0.0 <= delta < 1.0 and 0.0 <= delta_tilde < 1.0):
        raise PreconditionError("tangent norms must lie in [0, 1)")
    if not 0.0 <= s0 <= math.pi / 2:
        raise PreconditionError(f"angle s0 must lie in [0, pi/2], got {s0}")
    return abs(delta - delta_tilde) + s0 * delta * (1.0 - curvature / 6.0 * delta**2)


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


# --------------------------------------------------------------------------
# Cubic paths and the QR-factor interpolation study
# --------------------------------------------------------------------------


def _cubic(coeffs, t: float) -> np.ndarray:
    """C0 + t C1 + t^2 C2 + t^3 C3."""
    c0, c1, c2, c3 = coeffs
    return c0 + t * c1 + t * t * c2 + t**3 * c3


def _cubic_dot(coeffs, t: float) -> np.ndarray:
    """C1 + 2 t C2 + 3 t^2 C3, the derivative of ``_cubic``."""
    _, c1, c2, c3 = coeffs
    return c1 + 2.0 * t * c2 + 3.0 * t * t * c3


class _CubicPath:
    """Y(t) = Y0 + t Y1 + t^2 Y2 + t^3 Y3 (n x r), in the coordinates of one basis.

    ``qr_basis`` of the stacked coefficients [Y0 Y1 Y2 Y3] (n x 4r) gives an
    orthonormal Q4 (``basis``, n x k, k = min(n, 4r)) and the coordinates
    C0 .. C3 (``coords``, (4, k, r)) with Y_j = Q4 C_j, so Y(t) = Q4 C(t).
    Since Q4'Q4 = I, the QR of Y(t) is Q4 q, R with q, R the QR of the
    k x r C(t), and the SVD of Y(t) Z for any r x m Z is Q4 u, sigma, v with
    u, sigma, v the SVD of the k x m C(t) Z: in exact arithmetic the same R,
    sign convention, singular values and right factor.  So both random
    families factor and differentiate only C(t); ``_lift`` carries their
    samples to n rows, and only the low-rank family's n x m oracle
    W(t) = Y(t) Z(t) reads the n-row ``coeffs``.
    """

    def __init__(self, coeffs):
        self.coeffs = coeffs
        r = coeffs[0].shape[1]
        self.basis, stacked = linalg.qr_basis(np.hstack(coeffs))
        self.coords = np.ascontiguousarray(stacked.reshape(-1, 4, r).transpose(1, 0, 2))

    def coordinates(self, t: float) -> np.ndarray:
        """C(t) = Q4'Y(t), the k x r coordinates of Y(t) in the path's basis."""
        return _cubic(self.coords, t)

    def coordinates_dot(self, t: float) -> np.ndarray:
        """Cdot(t) = Q4'Ydot(t)."""
        return _cubic_dot(self.coords, t)


def _lift(basis: np.ndarray, sample: interpolate.HermiteSample) -> interpolate.HermiteSample:
    """A sample on St(k, r) carried to St(n, r) by the n x k ``basis`` Q4: Q4 U and Q4 Udot."""
    point = stiefel.StiefelPoint(basis @ sample.point.u)
    return interpolate.HermiteSample(sample.t, stiefel.TangentVector(point, basis @ sample.velocity.delta))


def _q_sample(path: _CubicPath, t: float, qr: linalg.EconQR) -> interpolate.HermiteSample:
    """The Q-factor of C(t) on St(k, r), read off its factors ``qr``, with its velocity from Cdot(t)."""
    velocity = diff_qr(path.coordinates_dot(t), qr)
    return interpolate.HermiteSample(float(t), stiefel.TangentVector(stiefel.StiefelPoint(qr.q), velocity))


@dataclass
class QRExperimentData:
    """A cubic path Y(t) and Hermite samples of its Q-factor on St(n, r).

    Every sample and reference is Q4 times the Q-factor of the path's k x r
    coordinates C(t) (see ``_CubicPath``), with no n-row factorization: the
    samples from the factors of ``_draw_qr_path``'s stacked scan, and
    ``reference`` and ``sample`` at any t from one k-row QR each.
    """

    path: _CubicPath
    nodes: np.ndarray
    samples: list[interpolate.HermiteSample]

    def reference(self, t: float) -> stiefel.StiefelPoint:
        return stiefel.StiefelPoint(self.path.basis @ linalg.qr_econ(self.path.coordinates(t)).q)

    def sample(self, t: float) -> interpolate.HermiteSample:
        """The Q-factor at t with its velocity."""
        return _lift(self.path.basis, _q_sample(self.path, t, linalg.qr_econ(self.path.coordinates(t))))


def _seeded_draw(config: ExperimentConfig, draw, warning: str, failure: str):
    """The first result of ``draw(rng)`` that is not None, over the seeds seed, seed + 1, ...

    Each seed gets a fresh ``default_rng``; a rejected seed is logged with
    ``warning % seed``.  Raises PreconditionError after ``GEN_MAX_ATTEMPTS``
    rejections, and at once when evaluating the drawn path overflows
    float64: the coefficients are bounded, so the overflow comes from the
    interval's distance from 0, which no other seed mends.
    """
    for seed in range(config.seed, config.seed + GEN_MAX_ATTEMPTS):
        try:
            with np.errstate(over="raise", invalid="raise"):
                result = draw(np.random.default_rng(seed))
        except FloatingPointError as exc:
            raise PreconditionError(f"path overflows float64 on {config.interval}") from exc
        if result is not None:
            return result
        logger.warning(warning, seed)
    raise PreconditionError(f"no {failure} found in {GEN_MAX_ATTEMPTS} attempts")


def _draw_qr_path(
    config: ExperimentConfig,
) -> tuple[_CubicPath, np.ndarray, list[interpolate.HermiteSample], np.ndarray]:
    """The QR family's sampling: a random cubic path, its nodes, its Q-factor samples on C(t) and grid factors.

    Coefficient entries are uniform on [0, 1] (constant term), [0, 0.5]
    (linear and quadratic), [0, 0.2] (cubic).  Paths that go rank-deficient
    anywhere on the evaluation grid are rejected and regenerated with the
    next seed, which is reported.  At n = r the Q factors lie in O(n), whose
    two components no geodesic joins, so a path whose det Y changes sign
    over the grid (Y is singular in between) is rejected too; the scan reads
    det C(t), which is det Y(t) times the constant det Q4 = +-1.

    Each drawn path is split once (see ``_CubicPath``), and its scan, the
    coordinates C(t) at the nodes and on the grid, is one stacked k x r
    ``qr_econ`` call.  Returns the path, the nodes, the samples of
    ``_q_sample`` on St(k, r) from the scan's node factors, and the Q
    factors of the grid points, a (grid_points, k, r) stack aligned with
    ``_uniform_grid(nodes, config.grid_points)``.
    """
    nodes = chebyshev_nodes(*config.interval, config.num_nodes)
    scan = np.concatenate([nodes, _uniform_grid(nodes, config.grid_points)])

    def draw(rng):
        coeffs = tuple(rng.uniform(0.0, hi, (config.n, config.r)) for hi in (1.0, 0.5, 0.5, 0.2))
        path = _CubicPath(coeffs)
        coords = np.stack([path.coordinates(t) for t in scan])
        qr = linalg.qr_econ(coords)
        if qr.rank_deficient.any() or (config.n == config.r and np.unique(np.linalg.det(coords) > 0.0).size > 1):
            return None
        samples = [_q_sample(path, t, linalg.EconQR(qr.q[i], qr.r_factor[i], False)) for i, t in enumerate(nodes)]
        return path, nodes, samples, qr.q[len(nodes):]

    return _seeded_draw(
        config, draw, "QR path singular on the grid for seed %d; regenerating", "full-rank QR path"
    )


def gen_qr_experiment(config: ExperimentConfig) -> QRExperimentData:
    """Random cubic matrix path and Hermite samples of its Q-factor on St(n, r).

    The path is ``_draw_qr_path``'s, and the samples are Q4 times its
    samples on the coordinates C(t).
    """
    path, nodes, samples, _ = _draw_qr_path(config)
    return QRExperimentData(path, nodes, [_lift(path.basis, s) for s in samples])


def _method_curves(
    config: ExperimentConfig,
    samples: list[interpolate.HermiteSample],
    failures: dict[str, str],
):
    """Fit every enabled method; record failures instead of aborting.

    A method's first recorded failure is kept, so several sample sets can
    share one ``failures`` dict.
    """
    curves = {}
    points = [(s.t, s.point) for s in samples]
    for method in config.methods:
        try:
            if method == "hermite":
                curves[method] = interpolate.fit_composite(samples, centering=config.centering)
            elif method == "geodesic":
                curves[method] = interpolate.geodesic_interp(points)
            elif method == "rbf":
                curve = interpolate.tangent_rbf_interp(points)
                if curve.failed_indices:
                    failures[method] = (
                        "log did not converge for samples "
                        f"{list(curve.failed_indices)}; they are not interpolated"
                    )
                curves[method] = curve
        except ArcFitError as exc:
            failures.setdefault(method, str(exc))
    return curves


def _relative_errors(grid, curves, references, failures: dict[str, str]):
    """Each method's relative errors ||curves[m](t) - ref||_F / ||ref||_F at each t of ``grid``.

    ``references`` holds the reference matrix ref of each grid point, in
    grid order: a list, a stack or an iterator that makes them one at a
    time.  Returns the error column of each method; a curve's value and
    ``ref`` are matrices of one shape.  A method whose curve raises
    PreconditionError at a grid point, as the RBF baseline's round-off does
    on many nodes, gets no column; its first failure is recorded in
    ``failures`` with that t, as ``_method_curves`` records fit failures.
    """
    errors = {m: [] for m in curves}
    for t, ref in zip(grid, references, strict=True):
        scale = linalg._frobenius(ref)
        for method in list(errors):
            try:
                errors[method].append(linalg._frobenius(curves[method](t) - ref) / scale)
            except PreconditionError as exc:
                failures.setdefault(method, f"evaluation failed at t={float(t)!r}: {exc}")
                del errors[method]
    return errors


def _factor_study(config: ExperimentConfig, samples, nodes, references) -> ErrorReport:
    """Fit every method to ``samples``; relative Frobenius errors against ``references``.

    ``references`` holds the reference factor at each point of
    ``_uniform_grid(nodes, config.grid_points)``, as ``_relative_errors``
    takes them.
    """
    grid = _uniform_grid(nodes, config.grid_points)
    failures: dict[str, str] = {}
    fitted = _method_curves(config, samples, failures)
    curves = {m: (lambda t, c=c: c(t).u) for m, c in fitted.items()}
    errors = _relative_errors(grid, curves, references, failures)
    return ErrorReport(grid, errors, failures=failures)


def run_qr_interp(config: ExperimentConfig) -> ErrorReport:
    """Interpolate the Q-factor path and report relative Frobenius errors.

    The study runs on ``_draw_qr_path``'s samples and scores against its
    grid factors, the Q-factors of the path's k x r coordinates,
    k = min(n, 4r), that the draw's scan took: the fits, evaluations and
    errors are those of the n-row Q-factors in exact arithmetic, at k-row
    cost, and the study factors nothing beyond its draw.
    """
    _, nodes, samples, references = _draw_qr_path(config)
    return _factor_study(config, samples, nodes, references)


# --------------------------------------------------------------------------
# Sampled SVD-factor paths: the low-rank SVD and snapshot studies
# --------------------------------------------------------------------------


@dataclass
class SVDExperimentData:
    """A matrix path W(t) of rank r and Hermite samples of its truncated SVD factors.

    ``svd(t)`` is the path's own factorization (u, sigma, v) of W(t): the
    leading factors, u with W's row count and v m x r, which set r, and all
    the singular values in descending order, the form
    ``diff_svd_truncated`` takes.  The samples and the references call it
    and no other SVD; ``w`` and ``w_dot`` give W(t) and its derivative.
    Row i of ``sigma_values`` and ``sigma_slopes`` holds the r leading
    singular values and their derivatives at node i.  The low-rank family
    is sampled on its k x m coordinates X(t) (``_draw_lowrank_path``);
    ``gen_lowrank_svd_experiment`` lifts that data to n rows, where ``svd``
    and the U samples are Q4 times the coordinates' and ``w`` and ``w_dot``
    are the n x m product Y(t) Z(t), an oracle that no sample reads.  Every
    sampled and reference factor is sign-normalized against the left factor
    at the first node, ``samples_u[0].point``, so that the sampled factor
    paths are differentiable.
    """

    w: Callable[[float], np.ndarray]
    w_dot: Callable[[float], np.ndarray]
    svd: Callable[[float], tuple[np.ndarray, np.ndarray, np.ndarray]]
    nodes: np.ndarray
    samples_u: list[interpolate.HermiteSample]
    samples_v: list[interpolate.HermiteSample]
    sigma_values: np.ndarray  # (nodes, r)
    sigma_slopes: np.ndarray  # (nodes, r)

    def reference_u(self, t: float) -> stiefel.StiefelPoint:
        u, _, v = self.svd(t)
        return stiefel.StiefelPoint(svd_sign_normalize(u, v, self.samples_u[0].point.u)[0])


def _sample_svd_path(w, w_dot, svd, nodes: np.ndarray):
    """Hermite samples of the truncated SVD factors of W(t) at ``nodes``.

    ``svd(t)`` hands out the rank-r factors of W(t) as
    ``SVDExperimentData.svd`` does.  Each node's factors are sign-normalized
    against the first node's u, which normalizing against itself leaves as
    it is.  Returns the data, or None when ``diff_svd_truncated`` refuses a
    node: W is not numerically of rank r there, or its leading singular
    values are too close to differentiate.
    """
    samples_u, samples_v, sigma_values, sigma_slopes = [], [], [], []
    for t in nodes:
        u, sigma, v = svd(t)
        u, v = svd_sign_normalize(u, v, samples_u[0].point.u if samples_u else u)
        try:
            u_dot, sigma_dot, v_dot = diff_svd_truncated(w_dot(t), (u, sigma, v))
        except DomainError:
            return None
        for samples, factor, velocity in ((samples_u, u, u_dot), (samples_v, v, v_dot)):
            tangent = stiefel.TangentVector(stiefel.StiefelPoint(factor), velocity)
            samples.append(interpolate.HermiteSample(float(t), tangent))
        sigma_values.append(sigma[: u.shape[1]])
        sigma_slopes.append(sigma_dot)
    return SVDExperimentData(
        w=w, w_dot=w_dot, svd=svd, nodes=nodes, samples_u=samples_u, samples_v=samples_v,
        sigma_values=np.array(sigma_values), sigma_slopes=np.array(sigma_slopes),
    )


def _draw_lowrank_path(config: ExperimentConfig):
    """The low-rank family's sampling: a random path W(t) = Y(t) Z(t), sampled on its coordinates.

    Y is a cubic n x r polynomial (entries uniform on [0,1] / [0,0.5]),
    Z a quadratic r x m polynomial (entries uniform on [0,1] / [0,0.5]).
    Y is split once (see ``_CubicPath``), and ``_sample_svd_path``
    samples the k x m coordinates X(t) = C(t) Z(t), W(t) = Q4 X(t), whose
    ``svd(t)`` is the ``svd_full`` of X(t) cut to its leading r left and
    right vectors.  Seeds giving near-repeated leading singular values at a
    node are regenerated with the next seed.  A square factor (n = r for U,
    which is k = r, and m = r for V) lies in O(r), whose two components no
    geodesic joins, so a seed whose consecutive samples F_i, F_i+1 of such a
    factor have det(F_i'F_i+1) < 0, the test on which ``stiefel_log``
    refuses, is regenerated too.  The lift by Q4 changes neither test in
    exact arithmetic.

    Returns the data of X(t) and (path, Z, Zdot), from which
    ``gen_lowrank_svd_experiment`` builds the n-row data.
    """
    r = config.r
    if not r <= config.m <= config.n:
        raise PreconditionError(
            "an exact rank-r path of n x m matrices needs r <= m <= n, "
            f"got n={config.n}, m={config.m}, r={r}"
        )
    nodes = chebyshev_nodes(*config.interval, config.num_nodes)

    def draw(rng):
        ys = tuple(rng.uniform(0.0, hi, (config.n, r)) for hi in (1.0, 0.5, 0.5, 0.5))
        z0, z1, z2 = (rng.uniform(0.0, hi, (r, config.m)) for hi in (1.0, 0.5, 0.5))
        path = _CubicPath(ys)

        def z(t):
            return z0 + t * z1 + t * t * z2

        def z_dot(t):
            return z1 + 2.0 * t * z2

        def x(t):
            return path.coordinates(t) @ z(t)

        def x_dot(t):
            return path.coordinates_dot(t) @ z(t) + path.coordinates(t) @ z_dot(t)

        def svd(t):
            u, sigma, v = linalg.svd_full(x(t))
            return u[:, :r], sigma, v[:, :r]

        data = _sample_svd_path(x, x_dot, svd, nodes)
        if data is None or any(
            a.point.n == r and np.linalg.det(a.point.u.T @ b.point.u) < 0.0
            for samples in (data.samples_u, data.samples_v)
            for a, b in zip(samples, samples[1:])
        ):
            return None
        return data, (path, z, z_dot)

    return _seeded_draw(
        config, draw, "SVD path degenerate for seed %d; regenerating",
        "well-separated SVD path",
    )


def gen_lowrank_svd_experiment(config: ExperimentConfig) -> SVDExperimentData:
    """Random exact-rank-r path W(t) = Y(t) Z(t) with truncated-SVD samples on St(n, r).

    The path and the samples are ``_draw_lowrank_path``'s, taken on its
    coordinates X(t).  The U samples and ``svd`` are Q4 times theirs; the V
    samples and the singular values are the coordinates' own.  ``w`` and
    ``w_dot`` are the n x m Y(t) Z(t) and its derivative.
    """
    data, (path, z, z_dot) = _draw_lowrank_path(config)
    basis, coeffs = path.basis, path.coeffs

    def w(t):
        return _cubic(coeffs, t) @ z(t)

    def w_dot(t):
        return _cubic_dot(coeffs, t) @ z(t) + _cubic(coeffs, t) @ z_dot(t)

    def svd(t):
        u, sigma, v = data.svd(t)
        return basis @ u, sigma, v

    return replace(data, w=w, w_dot=w_dot, svd=svd, samples_u=[_lift(basis, s) for s in data.samples_u])


def _interpolated_sigma(data: SVDExperimentData, method: str, t: float) -> np.ndarray:
    """The r singular values at t: cubic Hermite in the samples' values and slopes, or linear."""
    i = interpolate._segment_index(data.nodes, t)
    t0, t1 = data.nodes[i], data.nodes[i + 1]
    v0, v1 = data.sigma_values[i], data.sigma_values[i + 1]
    if method == "hermite":
        slopes = data.sigma_slopes
        return interpolate.euclid_hermite(v0, v1, slopes[i], slopes[i + 1], t, t0, t1)
    s = (t - t0) / (t1 - t0)
    return (1.0 - s) * v0 + s * v1


def run_svd_interp(config: ExperimentConfig) -> ErrorReport:
    """Interpolate the truncated SVD factors and report reconstruction errors.

    Hermite: manifold quasi-cubic for U and V, componentwise cubic Hermite
    for the singular values.  Geodesic baseline: piecewise geodesics for U
    and V, linear interpolation for the singular values.  The RBF method is
    not part of this study.

    The study runs on ``_draw_lowrank_path``'s data of the path's k x m
    coordinates X(t), W(t) = Q4 X(t): U is fitted on St(k, r), and the
    error of a reconstruction is ||u diag(sigma) V' - X(t)||_F / ||X(t)||_F,
    which is ||Q4 u diag(sigma) V' - W(t)||_F / ||W(t)||_F since Q4 has
    orthonormal columns and the fits commute with the lift.  No grid point
    forms an n-row matrix.
    """
    if "rbf" in config.methods:
        raise PreconditionError("the rbf method is not available for svd-interp")
    data, _ = _draw_lowrank_path(config)
    grid = _uniform_grid(data.nodes, config.grid_points)
    failures: dict[str, str] = {}
    curves_u = _method_curves(config, data.samples_u, failures)
    curves_v = _method_curves(config, data.samples_v, failures)

    def reconstruction(method, cu, cv):
        return lambda t: (cu(t).u * _interpolated_sigma(data, method, t)) @ cv(t).u.T

    curves = {m: reconstruction(m, cu, curves_v[m]) for m, cu in curves_u.items() if m in curves_v}
    errors = _relative_errors(grid, curves, map(data.w, grid), failures)
    return ErrorReport(grid, errors, failures=failures)


def run_tangent_vs_manifold(config: ExperimentConfig) -> ErrorReport:
    """Compare tangent-space and manifold interpolation errors of the U factor.

    For the Hermite interpolant of the left factor of the low-rank SVD study,
    records per grid point the canonical-metric error of the tangent-space
    interpolant against the log of the reference, and the Riemannian distance
    between the mapped interpolant and the reference.  On a positively curved
    manifold the latter is (slightly) smaller.  The logs of the references
    from the arc centres are one stacked ``stiefel_log`` call and the
    distances one stacked ``stiefel.dist`` call; a grid point whose log or
    distance fails is skipped and listed in the ``reference_scan`` failure.
    The study runs on St(k, r), k = min(n, 4r), on ``_draw_lowrank_path``'s
    data of the path's coordinates, whose logs, distances and norms are
    those of the n-row factors in exact arithmetic.
    """
    data, _ = _draw_lowrank_path(config)
    curve = interpolate.fit_composite(data.samples_u, centering=config.centering)
    grid = _uniform_grid(data.nodes, config.grid_points)
    refs = [data.reference_u(t) for t in grid]
    gammas = [interpolate.arc_tangent(curve, t) for t in grid]
    logs = stiefel.stiefel_log([g.base for g in gammas], refs)
    mapped = [i for i, log in enumerate(logs) if isinstance(log, stiefel.TangentVector)]
    points = [curve(grid[i]) for i in mapped]
    dists = stiefel.dist(points, [refs[i] for i in mapped])
    # a grid point is kept when both its logs converge
    kept = {i: (p, d) for i, p, d in zip(mapped, points, dists) if not isinstance(d, StiefelLogError)}
    skipped = [float(t) for i, t in enumerate(grid) if i not in kept]
    failures = {"reference_scan": f"log did not converge at {len(skipped)} grid points: {skipped}"}
    return ErrorReport(
        [grid[i] for i in kept],
        {"hermite": [linalg._frobenius(p.u - refs[i].u) / linalg._frobenius(refs[i].u) for i, (p, _) in kept.items()]},
        tangent_errors=[stiefel.norm(gammas[i] - logs[i]) for i in kept],
        manifold_errors=[d for _, d in kept.values()],
        failures=failures if skipped else {},
    )


# --------------------------------------------------------------------------
# Snapshot study (deterministic)
# --------------------------------------------------------------------------


def _sample_snapshot_path(n: int, r: int, mus) -> SVDExperimentData:
    """Hermite samples of the snapshot family's left factor U(mu) at the parameters ``mus``.

    The n x r snapshot matrix holds f(x, t, mu) = x^t sin(pi/2 mu x) on n
    uniform points x in [0, 1] at the r time instants 1.0, 1.6, ..., each
    column normalized to unit trapezoidal L2 norm; its mu-derivative is
    analytic.  Raises PreconditionError when the matrix is not of rank r
    with separated singular values at one of ``mus``.
    """
    if n < 2:
        raise PreconditionError(f"the trapezoidal x-grid needs n >= 2, got n={n}")
    x = np.linspace(0.0, 1.0, n)
    dx = x[1] - x[0]
    weights = np.full(n, dx)
    weights[0] = weights[-1] = 0.5 * dx
    t_snapshots = 1.0 + 0.6 * np.arange(r)
    powers = [(x**t, 0.5 * np.pi * x ** (t + 1.0)) for t in t_snapshots]

    def columns(mu):
        sine = np.sin(0.5 * np.pi * mu * x)
        for power, power_dot in powers:
            f = power * sine
            yield power_dot, f, np.sqrt(weights @ (f * f))

    def snapshot(mu):
        return np.column_stack([f / nrm for _, f, nrm in columns(mu)])

    def snapshot_dot(mu):
        cosine = np.cos(0.5 * np.pi * mu * x)
        cols = []
        for power_dot, f, nrm in columns(mu):
            fd = power_dot * cosine
            cols.append(fd / nrm - (weights @ (f * fd)) / nrm**3 * f)
        return np.column_stack(cols)

    def svd(mu):
        return linalg.svd_full(snapshot(mu))

    data = _sample_svd_path(snapshot, snapshot_dot, svd, np.asarray(mus, dtype=float))
    if data is None:
        raise PreconditionError(
            f"the snapshot matrix at n={n}, r={r} is not of rank r "
            f"with separated singular values at each mu in {[float(mu) for mu in mus]}"
        )
    return data


def gen_snapshot_experiment(config: ExperimentConfig) -> SVDExperimentData:
    """The snapshot family's left factor U(mu), sampled at Chebyshev nodes of the interval."""
    nodes = chebyshev_nodes(*config.interval, config.num_nodes)
    return _sample_snapshot_path(config.n, config.r, nodes)


def run_snapshot_experiment(config: ExperimentConfig) -> ErrorReport:
    """Interpolate the snapshot left factor U(mu); report per-method errors.

    The tangent-space RBF method maps every sample into the tangent space of
    the center sample.  If a log does not converge, the failure is recorded
    in the report and that sample is not interpolated, which shows up as
    large local errors.  On the n=1001, r=6 study all six logs converge.
    The n-row references are made one grid point at a time, as they are
    scored.
    """
    data = gen_snapshot_experiment(config)
    grid = _uniform_grid(data.nodes, config.grid_points)
    return _factor_study(config, data.samples_u, data.nodes, (data.reference_u(t).u for t in grid))


def snapshot_transport_instance(
    config: ExperimentConfig,
) -> tuple[stiefel.StiefelPoint, stiefel.TangentVector]:
    """The (target, velocity) pair of the snapshot transport study.

    The snapshot family of ``config.n`` and ``config.r`` is sampled at the
    base, target and direction parameters ``SNAPSHOT_TRANSPORT_MUS``, with
    signs normalized against the base U(0.9).  The velocity is the log of
    the direction snapshot at the base snapshot, which it carries as its
    base point.
    """
    data = _sample_snapshot_path(config.n, config.r, SNAPSHOT_TRANSPORT_MUS)
    p, q, far = (s.point for s in data.samples_u)
    return q, stiefel.stiefel_log(p, far)


def run_transport_accuracy(
    config: ExperimentConfig, use_snapshot_data: bool = True
) -> list[tuple[float, float]]:
    """Velocity transport reconstruction error at each FD step of ``TRANSPORT_STEPS``.

    The instance is ``snapshot_transport_instance(config)``.  The error
    curve is V-shaped: the central difference improves like h^2 until
    roundoff in the log/exp evaluations takes over.  The sweep takes the
    log of the velocity, Log_q(p) once and a central difference (2 logs,
    2 exps) per step, 14 logs in all, in 3 calls: the 12 logs of the
    central differences form one stack.  ``use_snapshot_data`` names that one
    instance and accepts only True; any other value raises
    PreconditionError.
    """
    if use_snapshot_data is not True:
        raise PreconditionError(
            f"use_snapshot_data={use_snapshot_data!r}: the study runs only the snapshot instance; "
            "the keyword goes when the benchmark stops passing it (ROADMAP item 1)")
    q, v_p = snapshot_transport_instance(config)
    return list(zip(TRANSPORT_STEPS, validate_transport(q, v_p, TRANSPORT_STEPS)))


def bound_check_instance(
    config: ExperimentConfig, delta: float, delta_tilde: float, s0: float
) -> dict[str, float]:
    """Observed geodesic-endpoint distance vs the curvature bound envelope.

    Builds two tangent vectors at a random point with prescribed canonical
    norms and angle, measures the distance of their exponential images, and
    evaluates the distance bound at the extreme curvatures 0 and 5/4.
    """
    dim = config.n * config.r - config.r * (config.r + 1) // 2
    if dim < 2:
        raise PreconditionError(
            f"the tangent space of St({config.n}, {config.r}) has dimension {dim}; "
            "the bound check needs two orthogonal directions (dimension >= 2)"
        )
    rng = np.random.default_rng(config.seed)
    base = stiefel.random_point(rng, config.n, config.r)
    w = stiefel.random_tangent(rng, base, scale=1.0)
    raw = stiefel.random_tangent(rng, base, scale=1.0)
    ortho = raw - stiefel.metric(raw, w) * w
    w_perp = (1.0 / stiefel.norm(ortho)) * ortho
    d1 = delta * w
    d2 = delta_tilde * (math.cos(s0) * w + math.sin(s0) * w_perp)
    observed = stiefel.dist(stiefel.stiefel_exp(d1), stiefel.stiefel_exp(d2))
    return {
        "delta": delta,
        "delta_tilde": delta_tilde,
        "s0": s0,
        "observed_dist": observed,
        "bound_flat": eval_distance_bound(delta, delta_tilde, s0, 0.0),
        "bound_max_curvature": eval_distance_bound(delta, delta_tilde, s0, CURVATURE_MAX),
    }


# --------------------------------------------------------------------------
# CSV reports
# --------------------------------------------------------------------------


def _report_columns(report: ErrorReport) -> dict[str, list[float]]:
    """The report's data columns by CSV header, in file order.

    ``t``, one ``<method>_rel_err`` per method, then ``tangent_err`` and
    ``manifold_err`` when the report has them.
    """
    columns = {"t": report.eval_grid}
    columns.update({f"{m}_rel_err": errs for m, errs in report.errors.items()})
    for name, values in (("tangent_err", report.tangent_errors),
                         ("manifold_err", report.manifold_errors)):
        if values is not None:
            columns[name] = values
    return columns


def report_to_csv(report: ErrorReport) -> str:
    """Render a report as CSV: data columns, then the summary and failure footers.

    Floats are written with ``repr``, the shortest decimal that round-trips.
    """
    columns = _report_columns(report)
    footers = [
        f"# {kind},{m},{value!r}"
        for kind, summary in (("max_rel", report.max_rel), ("l2_rel", report.l2_rel))
        for m, value in summary.items()
    ]
    footers += [f"# failure,{key},{message}" for key, message in report.failures.items()]
    table = table_to_csv(",".join(columns), zip(*columns.values()))
    return table + "".join(f"{line}\n" for line in footers)


def table_to_csv(header: str, rows) -> str:
    """Render rows of floats as CSV under ``header``, each float by ``repr``."""
    lines = [header] + [",".join(repr(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> ErrorReport:
    """Inverse of ``report_to_csv``: reads the columns and the failure footers.

    The summary footers are skipped; the report recomputes them from the
    columns.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    columns = {name: [float(row[j]) for row in rows] for j, name in enumerate(header)}
    footers = [ln[1:].strip().split(",", 2) for ln in lines[1:] if ln.startswith("#")]
    return ErrorReport(
        eval_grid=columns["t"],
        errors={
            name.removesuffix("_rel_err"): column
            for name, column in columns.items()
            if name.endswith("_rel_err")
        },
        tangent_errors=columns.get("tangent_err"),
        manifold_errors=columns.get("manifold_err"),
        failures={key: value for kind, key, value in footers if kind == "failure"},
    )


# --------------------------------------------------------------------------
# The paper's studies
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """A CLI subcommand: the config fields its study reads, its runner, its paper runs.

    The fields are also the subcommand's flags; ``run`` runs the study on a
    config and returns its CSV text.  ``studies`` maps the stem of each
    ``results/`` file the paper run writes to that run's config; the first
    entry is the subcommand's default.
    """

    fields: tuple[str, ...]
    run: Callable[[ExperimentConfig], str]
    studies: dict[str, ExperimentConfig]


def _transport_csv(config: ExperimentConfig) -> str:
    """The FD-step sweep on the deterministic snapshot instance."""
    table = run_transport_accuracy(config)
    return table_to_csv("h,transport_rel_err", table)


def _bound_csv(config: ExperimentConfig) -> str:
    """Equal tangent norms 0.1, 0.2, 0.3 at angle 0.1."""
    rows = [bound_check_instance(config, d, d, 0.1) for d in (0.1, 0.2, 0.3)]
    return table_to_csv(",".join(rows[0]), [row.values() for row in rows])


_SVD_PAPER = dict(n=1000, r=10, m=100, interval=(0.0, 0.5), num_nodes=2, seed=0,
                  methods=("hermite", "geodesic"))

#: Every subcommand of the CLI with the paper's seven runs, in the order
#: ``scripts/run_error_studies.py`` writes them.
COMMANDS = {
    "transport-accuracy": Command(
        ("n", "r"), _transport_csv,
        {"transport_accuracy_snapshot": ExperimentConfig(n=1001, r=6, seed=0)},
    ),
    "qr-interp": Command(
        ("n", "r", "num_nodes", "interval", "seed", "centering", "methods"),
        lambda config: report_to_csv(run_qr_interp(config)),
        {"qr_interp_n500_r10": ExperimentConfig(n=500, r=10, interval=(-1.1, 1.1), num_nodes=6,
                                                seed=0)},
    ),
    "svd-interp": Command(
        ("n", "r", "m", "num_nodes", "interval", "seed", "centering", "methods"),
        lambda config: report_to_csv(run_svd_interp(config)),
        {
            "svd_interp_n1000_m100_r10_q": ExperimentConfig(**_SVD_PAPER, centering="q"),
            "svd_interp_n1000_m100_r10_p": ExperimentConfig(**_SVD_PAPER, centering="p"),
        },
    ),
    "tangent-vs-manifold": Command(
        ("n", "r", "m", "num_nodes", "interval", "seed", "centering"),
        lambda config: report_to_csv(run_tangent_vs_manifold(config)),
        {"tangent_vs_manifold": ExperimentConfig(n=200, r=6, m=50, interval=(0.0, 0.5),
                                                 num_nodes=2, seed=0, methods=("hermite",))},
    ),
    "snapshot-interp": Command(
        ("n", "r", "num_nodes", "interval", "centering", "methods"),
        lambda config: report_to_csv(run_snapshot_experiment(config)),
        {"snapshot_interp_n1001_r6": ExperimentConfig(n=1001, r=6, interval=(1.7, 2.3),
                                                      num_nodes=6)},
    ),
    "bound-check": Command(
        ("n", "r", "seed"), _bound_csv,
        {"bound_check": ExperimentConfig(n=40, r=4, seed=3)},
    ),
}
