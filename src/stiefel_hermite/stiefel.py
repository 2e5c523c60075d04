"""Geometry of the compact Stiefel manifold St(n, r) under the canonical metric.

Points are n x r matrices with orthonormal columns; tangent vectors at U are
n x r matrices D with U'D skew-symmetric.  The canonical metric is
``<D, E>_U = tr(D' (I - U U'/2) E)``, the geodesics are the closed-form
matrix-exponential curves, and the logarithm is computed by the iterative
algorithm that repeatedly rotates an orthogonal 2r x 2r completion until its
matrix logarithm has the tangent block structure.

The logarithm starts from a completion in Procrustes position, or from the
geodesic of a nearby tangent vector when the caller has one, and runs on
one kernel, the real-Schur log of an orthogonal matrix (``linalg.logm``):
each step polishes the completion onto O(2r) with one Newton-Schulz step,
takes its log, and rotates by the clipped solution of a small Sylvester
equation (Zimmermann and Hueper's first-order BCH correction of the plain
step), which about halves the steps of far logs; the last log is the result.

Every exponential runs through one kernel, ``TangentFrame.exp``: a frame
keeps k tangent vectors at U as r x r blocks over one orthonormal basis of
their normal parts, built once, so the exponential of any combination of
them costs a 2r x 2r ``expm`` and the n x r products of its output.
``stiefel_exp`` is that kernel on the one-vector frame of its velocity;
fitted curves build their frames at fit time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import PreconditionError, ShapeError, StiefelLogError

# Tolerance used when validating constructed tangent vectors; points use
# ``linalg.ORTH_TOL``.
TANGENT_TOL = 1e-8

#: ``stiefel_log`` stops when the residual ||C||_F reaches LOG_TAU, and
#: raises after LOG_MAX_ITER steps.  Read at call time.
LOG_TAU = 1e-14
LOG_MAX_ITER = 100

#: Sectional curvature of the canonical-metric Stiefel manifold lies in [0, 5/4].
CURVATURE_MAX = 1.25

#: At n > r ``stiefel_log`` rejects results whose canonical norm reaches
#: pi / sqrt(CURVATURE_MAX): geodesics shorter than that have no conjugate
#: points (Rauch comparison).
LOG_NORM_MAX = np.pi / np.sqrt(CURVATURE_MAX)


@dataclass(frozen=True)
class StiefelPoint:
    """A point on St(n, r): an n x r matrix with orthonormal columns."""

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.ndim != 2 or u.shape[0] < u.shape[1]:
            raise ShapeError(f"Stiefel point needs an n x r matrix with n >= r, got {u.shape}")
        if not np.all(np.isfinite(u)):
            raise PreconditionError("Stiefel point has non-finite entries")
        err = np.linalg.norm(u.T @ u - np.eye(u.shape[1]))
        if err > linalg.ORTH_TOL:
            raise PreconditionError(
                f"columns are not orthonormal (||U'U - I||_F = {err:.3g})"
            )
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def r(self) -> int:
        return self.u.shape[1]


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector at ``base``: U'delta must be skew-symmetric."""

    base: StiefelPoint
    delta: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delta, dtype=float)
        if d.shape != self.base.u.shape:
            raise ShapeError(
                f"tangent vector shape {d.shape} != base shape {self.base.u.shape}"
            )
        if not np.all(np.isfinite(d)):
            raise PreconditionError("tangent vector has non-finite entries")
        ud = self.base.u.T @ d
        err = np.linalg.norm(ud + ud.T)
        if err > TANGENT_TOL * max(1.0, np.linalg.norm(d)):
            raise PreconditionError(
                f"not tangent at base (||U'D + D'U||_F = {err:.3g}); "
                "use project_tangent for raw matrices"
            )
        object.__setattr__(self, "delta", d)

    # Tangent vectors at a common base point form a vector space; these
    # operators keep the interpolation code close to the formulas.
    def _require_same_base(self, other: "TangentVector") -> None:
        if self.base is not other.base and not np.array_equal(self.base.u, other.base.u):
            raise PreconditionError("tangent vectors have different base points")

    def __add__(self, other: "TangentVector") -> "TangentVector":
        self._require_same_base(other)
        return TangentVector(self.base, self.delta + other.delta)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        self._require_same_base(other)
        return TangentVector(self.base, self.delta - other.delta)

    def __mul__(self, scalar: float) -> "TangentVector":
        return TangentVector(self.base, float(scalar) * self.delta)

    __rmul__ = __mul__


def project_tangent(base: StiefelPoint, x) -> TangentVector:
    """Orthogonal projection of an ambient n x r matrix onto the tangent space."""
    mat = np.asarray(x, dtype=float)
    if mat.shape != base.u.shape:
        raise ShapeError(f"cannot project shape {mat.shape} at base {base.u.shape}")
    ux = base.u.T @ mat
    sym = 0.5 * (ux + ux.T)
    return TangentVector(base, mat - base.u @ sym)


def metric(xi: TangentVector, eta: TangentVector) -> float:
    """Canonical inner product tr(xi' (I - U U'/2) eta)."""
    xi._require_same_base(eta)
    u = xi.base.u
    full = float(np.sum(xi.delta * eta.delta))
    vertical = float(np.sum((u.T @ xi.delta) * (u.T @ eta.delta)))
    return full - 0.5 * vertical


def norm(xi: TangentVector) -> float:
    """Canonical norm sqrt(metric(xi, xi))."""
    return float(np.sqrt(max(metric(xi, xi), 0.0)))


def _generator(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The geodesic generator [[A, -M'], [M, 0]] for an r x r A and any k x r M."""
    r, k = a.shape[0], m.shape[0]
    gen = np.zeros((r + k, r + k))
    gen[:r, :r] = a
    gen[:r, r:] = -m.T
    gen[r:, :r] = m
    return gen


@dataclass(frozen=True)
class TangentFrame:
    """Tangent vectors D_1..D_k at one base point U, kept in a small basis.

    Each D_i = U A_i + Q M_i with A_i = U'D_i (r x r) and Q one n x m
    orthonormal basis (m <= k r) of the normal parts (I - U U')D_i.
    ``coords[i]`` stacks A_i over M_i.  A combination sum c_i D_i is then
    U A + Q M with A = sum c_i A_i and M = sum c_i M_i, so its exponential
    needs no n x r factorization: only an r x r check, a small QR when
    m > r, a 2r x 2r ``expm`` and the n x r products of the output.
    """

    base: StiefelPoint
    q: np.ndarray
    coords: np.ndarray  # (k, r + m, r)

    def _blocks(self, coeffs) -> tuple[np.ndarray, np.ndarray]:
        """A and M of the combination with the given coefficients; checks A skew."""
        k = self.coords.shape[0]
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (k,):
            raise ShapeError(f"frame of {k} tangent vectors got coefficients of shape {c.shape}")
        r = self.base.r
        x = (c @ self.coords.reshape(k, -1)).reshape(-1, r)
        a = x[:r]
        # ||D||_F^2 = ||A||_F^2 + ||M||_F^2: the TangentVector test in r x r terms.
        err = np.linalg.norm(a + a.T)
        if err > TANGENT_TOL * max(1.0, np.linalg.norm(x)):
            raise PreconditionError(
                f"combination is not tangent at base (||A + A'||_F = {err:.3g})"
            )
        return a, x[r:]

    def combination(self, coeffs) -> TangentVector:
        """The tangent vector sum c_i D_i."""
        a, m = self._blocks(coeffs)
        return TangentVector(self.base, self.base.u @ a + self.q @ m)

    def exp(self, coeffs) -> StiefelPoint:
        """Riemannian exponential of sum c_i D_i.

        The geodesic of Edelman, Arias and Smith (SIMAX 20(2), 1998):
        U E11 + Q E21 with E = expm([[A, -M'], [M, 0]]).  The identity holds
        for any orthonormal Q whose span holds the normal part, so a zero or
        rank-deficient M needs no special case.  When m > r, M is first
        replaced by its r x r coordinates in a basis of its own columns,
        which shrinks the generator to 2r x 2r.
        """
        a, m = self._blocks(coeffs)
        r = self.base.r
        basis = None
        if m.shape[0] > r:
            basis, m = linalg.qr_basis(m)
        e = linalg.expm(_generator(a, m))
        e21 = e[r:, :r] if basis is None else basis @ e[r:, :r]
        return StiefelPoint(self.base.u @ e[:r, :r] + self.q @ e21)


def tangent_frame(base: StiefelPoint, deltas) -> TangentFrame:
    """Frame of the k tangent vectors ``deltas`` (n x r matrices) at ``base``."""
    u = base.u
    d = [np.asarray(x, dtype=float) for x in deltas]
    if not d or any(x.shape != u.shape for x in d):
        raise ShapeError(f"need one or more {u.shape} tangent matrices")
    stacked = np.concatenate(d, axis=1)
    a = u.T @ stacked
    q, m = linalg.qr_basis(stacked - u @ a)
    # Columns i r .. (i + 1) r - 1 of [a; m] are [A_i; M_i].
    coords = np.vstack([a, m]).reshape(-1, len(d), base.r).transpose(1, 0, 2)
    return TangentFrame(base, q, np.ascontiguousarray(coords))


def split_tangent(xi: TangentVector) -> TangentFrame:
    """The one-vector frame of xi: xi = U A + Q M with A = U'xi skew."""
    return tangent_frame(xi.base, [xi.delta])


def stiefel_exp(xi: TangentVector) -> StiefelPoint:
    """Riemannian exponential: endpoint at time 1 of the geodesic with velocity xi.

    The frame kernel on the one-vector frame xi = U A + Q M, i.e.
    (U, Q) expm([[A, -M'], [M, 0]]) [I; 0].  The point at time t is
    ``stiefel_exp(t * xi)``.
    """
    return split_tangent(xi).exp((1.0,))


def _polished(v: np.ndarray, k: int, residual: float) -> np.ndarray:
    """One Newton-Schulz polar step V (3I - V'V) / 2 of an orthogonal iterate.

    It squares the drift ||V'V - I||, so round-off cannot build up over the
    steps and the Schur log sees a matrix orthogonal to machine precision.
    A drift above ``linalg.ORTH_TOL`` means a broken update, not round-off,
    and raises instead of being polished away.
    """
    gram = v.T @ v
    eye = np.eye(v.shape[1])
    drift = float(np.linalg.norm(gram - eye))
    if drift > linalg.ORTH_TOL:
        raise StiefelLogError(
            f"iterate lost orthogonality at iteration {k} (||V'V - I||_F = {drift:.3g})",
            iterations=k,
            residual=residual,
        )
    return v @ (1.5 * eye - 0.5 * gram)


def _principal_log(v: np.ndarray, k: int, residual: float) -> np.ndarray:
    try:
        return linalg.logm(v)
    except ValueError as exc:
        raise StiefelLogError(
            f"principal log undefined at iteration {k}: {exc}",
            iterations=k,
            residual=residual,
        ) from exc


#: Each denominator s_i + s_j of the Sylvester step is clipped at this value,
#: which bounds the step by 4 ||C||_F, four times the plain step -C.
SYLVESTER_DENOM_MAX = -0.25


def _step(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Generator X of the update V <- V diag(I, expm(X)) that cancels C.

    Solves S X + X S = C with S = B B'/12 - I/2 through the eigenvectors P
    of the symmetric S, each denominator s_i + s_j clipped at
    ``SYLVESTER_DENOM_MAX``.
    """
    s, p = np.linalg.eigh(b @ b.T / 12.0 - 0.5 * np.eye(b.shape[0]))
    denom = np.minimum(s[:, np.newaxis] + s[np.newaxis, :], SYLVESTER_DENOM_MAX)
    x = p @ ((p.T @ c @ p) / denom) @ p.T
    return 0.5 * (x - x.T)


def _procrustes_start(top: np.ndarray) -> np.ndarray:
    """The completion [top, W] whose lower-right block is symmetric PSD, with det +1."""
    r = top.shape[1]
    v = np.hstack([top, linalg.orth_complete(top)])
    x, _, yt = np.linalg.svd(v[r:, r:])
    if np.linalg.det(v) * np.linalg.det(x @ yt) < 0.0:
        x[:, -1] *= -1.0
    v[:, r:] = v[:, r:] @ yt.T @ x.T
    return v


#: A warm start whose projected completion columns have a squared singular
#: value below this is too far from the target; the Procrustes start is used.
WARM_START_MIN_SQ = 0.25


def _warm_start(
    base: StiefelPoint, start: TangentVector, q: np.ndarray, top: np.ndarray
) -> np.ndarray | None:
    """The completion of ``top`` read off the geodesic generator of ``start``.

    None if those columns are nearly dependent on ``top``, which means
    Exp(start) is far from the target.
    """
    if start.base is not base and not np.array_equal(start.base.u, base.u):
        raise PreconditionError("start is not a tangent vector at base")
    r = base.r
    a_s = base.u.T @ start.delta
    rest = linalg.expm(_generator(a_s, q.T @ (start.delta - base.u @ a_s)))[:, r:]
    rest -= top @ (top.T @ rest)
    x, sigma_sq, yt = np.linalg.svd(rest.T @ rest)
    if sigma_sq[-1] < WARM_START_MIN_SQ:
        return None
    v = np.hstack([top, rest @ (x / np.sqrt(sigma_sq)) @ yt])
    if np.linalg.det(v) < 0.0:
        v[:, -1] *= -1.0
    return v


def stiefel_log(
    base: StiefelPoint, target: StiefelPoint, start: TangentVector | None = None
) -> TangentVector:
    """Riemannian logarithm: the tangent vector xi with Exp_base(xi) = target.

    Zimmermann's iteration (SIMAX 38(2), 2017): build an orthogonal
    2r x 2r completion V of the overlap/normal coordinates of ``target``,
    with log(V) = [[A, -B'], [B, C]], then rotate the completion columns,
    V <- V diag(I, expm(X)), until ||C||_F <= ``LOG_TAU``; then
    xi = U A + Q B.

    * Start: Zimmermann and Hueper (SIMAX 43(2), 2022).  The completion
      columns are rotated by Y X' from the SVD V22 = X Sigma Y', so V22 =
      X Sigma X' is symmetric PSD and depends only on the completion's span;
      if det V would be -1, X's last column (V22's smallest singular
      direction) is negated first, since the principal log needs det V = +1.
      A tangent vector ``start`` at ``base`` whose exponential lies near
      ``target`` replaces this start (warm start): with s = U A_s + N_s,
      the completion columns of expm([[A_s, -M_s'], [M_s, 0]]), M_s = Q'N_s
      over the target's normal basis Q, are projected off the first r
      columns of V and orthonormalized through the SVD of their r x r Gram
      matrix (last column negated if det V would be -1).  The first
      residual then scales with the distance of Exp(start) from the target,
      not with that of base: the velocity transport's logs start from logs
      that end O(h) and O(h^2) from their targets and take 5 and 3 Schur
      logs where a cold start takes 6 (fit_far, 0.57 pi apart).  A Gram
      singular value below ``WARM_START_MIN_SQ`` means the start is far
      off, and the Procrustes start is used instead.
    * Polish: before each log V is replaced by V (3I - V'V) / 2, one
      Newton-Schulz step towards the orthogonal polar factor.  A drift
      ||V'V - I||_F above ``linalg.ORTH_TOL`` before the polish raises.
    * Kernel: each step takes ``linalg.logm``, the real-Schur log of an
      orthogonal matrix, exactly skew.  The Schur form of the polished V is
      block diagonal to round-off, so the log of the last iterate is also
      the readout: A and B come off the same matrix whose C passed
      ``LOG_TAU``.
      (Without the polish, the Schur log drops an off-diagonal part of the
      drift's size that differs between nearby targets, which the velocity
      transport's difference quotient amplifies by 1/h.)
    * Step: the same paper.  The BCH formula,
      truncated after its commutators of degree two in log(V), gives the
      lower-right block of log(V diag(I, expm(X))) as
      C + X - (B B' X + X B B')/12 up to terms of second order in C and X,
      so X solving S X + X S = C with S = B B'/12 - I/2 cancels C to that
      order; its skew part is the step (the plain step -C for B = 0), with
      each denominator s_i + s_j clipped at ``SYLVESTER_DENOM_MAX``, which
      bounds it by 4 ||C||_F.  This about halves the steps of far logs.
    * Certificate: far from the base the iteration can settle on a V whose
      log is not the minimal geodesic.  At n > r a result whose canonical
      norm reaches ``LOG_NORM_MAX`` = pi / sqrt(CURVATURE_MAX) is rejected.
      A shorter result has no conjugate point before its end (Rauch
      comparison: the sectional curvature is at most ``CURVATURE_MAX``), so
      it is locally minimizing; that does not prove that no shorter
      geodesic reaches the target.
    * At n = r the manifold is O(n), whose two components no geodesic
      joins: a target with det(U'Y) = -1 is rejected before iterating.
      There the canonical metric is (1/2) tr(D'D), which is bi-invariant,
      the geodesics are U expm(tA), and the normal part is zero, so the
      first log is the result: U A with A the principal log of U'Y, which
      is the minimal geodesic.  No norm bound applies (a canonical norm
      ||A||_F / sqrt(2) can pass ``LOG_NORM_MAX`` while ||A||_2 < pi); a
      rotation by pi has no principal log, and ``linalg.logm`` raises.

    Raises
    ------
    StiefelLogError
        If base and target lie in different components of O(n) (n = r),
        the iteration does not reach ``LOG_TAU`` within ``LOG_MAX_ITER``
        steps, an iterate loses orthogonality, an intermediate principal
        logarithm is undefined, or, at n > r, the converged vector fails
        the certificate; this is the operational "target too far from base"
        boundary.
    """
    if base.u.shape != target.u.shape:
        raise ShapeError(
            f"base shape {base.u.shape} != target shape {target.u.shape}"
        )
    r = base.r
    overlap = base.u.T @ target.u
    if base.n == r and np.linalg.det(overlap) < 0.0:
        raise StiefelLogError(
            f"St({r}, {r}) = O({r}) has two components, det = +1 and det = -1; det(U'Y) = -1 "
            "puts base and target in different ones, which no geodesic joins", 0, np.inf
        )
    normal = target.u - base.u @ overlap
    qr = linalg.qr_econ(normal)
    q, nfac = qr.q, qr.r_factor
    top = np.vstack([overlap, nfac])
    v = None if start is None else _warm_start(base, start, q, top)
    if v is None:
        v = _procrustes_start(top)
    residual = np.inf
    for k in range(LOG_MAX_ITER):
        v = _polished(v, k, residual)
        log_v = _principal_log(v, k, residual)
        c = log_v[r:, r:]
        residual = float(np.linalg.norm(c))
        if residual <= LOG_TAU:
            xi = TangentVector(base, base.u @ log_v[:r, :r] + q @ log_v[r:, :r])
            length = norm(xi)
            if base.n > r and length >= LOG_NORM_MAX:
                raise StiefelLogError(
                    f"converged after {k} iterations to a tangent vector of norm "
                    f"{length / np.pi:.3g} pi, not below pi/sqrt({CURVATURE_MAX}) = "
                    f"{LOG_NORM_MAX / np.pi:.3g} pi, the length before which no geodesic "
                    "has a conjugate point; target may be too far from base",
                    iterations=k,
                    residual=residual,
                )
            return xi
        v[:, r:] = v[:, r:] @ linalg.expm(_step(log_v[r:, :r], c))
    raise StiefelLogError(
        f"no convergence after {LOG_MAX_ITER} iterations (||C||_F = {residual:.3g}); "
        "target may be too far from base",
        iterations=LOG_MAX_ITER,
        residual=residual,
    )


def dist(p: StiefelPoint, q: StiefelPoint) -> float:
    """Riemannian distance: canonical norm of the logarithm."""
    if np.array_equal(p.u, q.u):
        return 0.0
    return norm(stiefel_log(p, q))


def random_point(rng: np.random.Generator, n: int, r: int) -> StiefelPoint:
    """Random Stiefel point: Q-factor of a Gaussian n x r matrix."""
    return StiefelPoint(linalg.qr_econ(rng.standard_normal((n, r))).q)


def random_tangent(
    rng: np.random.Generator, base: StiefelPoint, scale: float = 1.0
) -> TangentVector:
    """Random tangent vector at ``base`` with canonical norm ``scale``."""
    raw = project_tangent(base, rng.standard_normal(base.u.shape))
    nrm = norm(raw)
    if nrm == 0.0:
        raise PreconditionError("degenerate random tangent draw")
    return (scale / nrm) * raw
