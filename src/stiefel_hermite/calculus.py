"""Differentials of matrix factorizations and of the Stiefel exponential.

Contains the pieces needed to move Hermite velocity data between tangent
spaces: derivative propagation through QR and truncated SVD factorizations,
which the studies use to sample factor velocities; the differential of the
Stiefel exponential, which is the Frechet derivative of ``expm``
(``scipy.linalg.expm_frechet``, Al-Mohy and Higham, SIMAX 30(4), 2009) on a
fixed tangent frame of both vectors (any rank, no derivative of the frame's
basis); and the central-difference transport of a sampled velocity into
another tangent space together with its reconstruction check.  A velocity
carries its base point p, and the transport takes it with Log_q(p), whose
base is q and from which its two logs start.

Each factorization derivative is the one place that decides whether its
factorization can be differentiated, and raises DomainError where it cannot:
``diff_qr`` refuses exactly the factors that ``linalg.qr_econ`` flags as
rank-deficient, and ``diff_svd_truncated`` tests rank and gaps against
``SVD_RANK_EPS`` and ``SVD_GAP_EPS``.  The study generators reject a draw
when a derivative refuses a node.  Each kernel returns the arrays its
callers read, and the module defines no types of its own: ``diff_qr`` the
Q-factor derivative, ``diff_svd_truncated`` the tuple
(u_dot, sigma_dot, v_dot) of derivatives of the rank-r factors
(u, sigma, v) it is given, r read off their column count, and
``dexp_stiefel`` the ambient n x r derivative.  A log that fails inside
the transport raises ``StiefelLogError``, the error of ``stiefel_log``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from . import linalg, stiefel
from .errors import DomainError, PreconditionError, ShapeError, StiefelLogError

#: Step size for the velocity-transport central difference; the arc fits
#: read it at call time.
DEFAULT_FD_STEP = 1e-4

#: ``diff_svd_truncated`` refuses leading singular values closer than
#: SVD_GAP_EPS * sigma_0, and counts a singular value at most SVD_RANK_EPS *
#: sigma_0 as zero.
SVD_GAP_EPS = 1e-6
SVD_RANK_EPS = 1e-10


def diff_qr(t_dot, qr: linalg.EconQR) -> np.ndarray:
    """Derivative Qdot of the Q factor of the economy QR factorization along a path.

    Given the factors ``qr`` of T = Q R and the path derivative Tdot,
    returns Qdot with Tdot = Qdot R + Q Rdot for an upper-triangular Rdot
    and Q'Qdot skew.  The key step recovers X = Q'Qdot from the strictly
    lower triangle of Q'Tdot R^{-1}.  Factors that ``linalg.qr_econ`` flags
    as rank-deficient have no such derivative and raise DomainError.
    """
    tdot = np.asarray(t_dot, dtype=float)
    q, rfac = qr.q, qr.r_factor
    if tdot.shape != q.shape:
        raise ShapeError(f"inconsistent shapes: t_dot {tdot.shape}, q {q.shape}")
    if qr.rank_deficient:
        raise DomainError("diff_qr: the factored matrix is numerically rank-deficient")
    # W = Tdot R^{-1}
    w = sla.solve_triangular(rfac.T, tdot.T, lower=True).T
    b = q.T @ w
    lower = np.tril(b, k=-1)
    return w - q @ b + q @ (lower - lower.T)


def diff_svd_truncated(y_dot, svd: tuple[np.ndarray, np.ndarray, np.ndarray]) -> tuple[np.ndarray, ...]:
    """Differentiate the rank-r truncated SVD of an exactly rank-r matrix y.

    ``svd`` = (u, sigma, v) holds the leading factors of y, u n x r and v
    m x r with r read off their column count, and all of its singular
    values; ``y_dot`` is the path derivative of y.  y must be numerically
    of rank r with separated leading singular values: a trailing singular
    value above ``SVD_RANK_EPS * sigma_0``, sigma_{r-1} at or below it, or a
    leading gap below ``SVD_GAP_EPS * sigma_0`` raises DomainError.  With
    p = u' y_dot v, the right factor moves by
    v_dot = v G + (I - v v') y_dot' u diag(1/s), where G is skew with
    ``G_ij = (s_i p_ij + s_j p_ji) / (s_j^2 - s_i^2)``; the second term, the
    part of v_dot outside span(v), uses the exact rank and needs no
    trailing singular vector.  At r = m it vanishes, and this is the
    derivative of the full economy SVD.  Returns the tuple
    (u_dot, sigma_dot, v_dot), in the order of ``svd``: u_dot n x r,
    sigma_dot the r derivatives of the leading singular values, v_dot m x r.
    """
    u, sigma, v = svd
    ydot = np.asarray(y_dot, dtype=float)
    r = u.shape[1]
    if v.shape[1] != r:
        raise ShapeError(f"u and v have different column counts: u {u.shape}, v {v.shape}")
    if ydot.shape != (u.shape[0], v.shape[0]):
        raise ShapeError(f"inconsistent shapes: y_dot {ydot.shape}, u {u.shape}, v {v.shape}")
    smax = sigma[0]
    if np.any(sigma[r:] > SVD_RANK_EPS * smax) or not sigma[r - 1] > SVD_RANK_EPS * smax:
        raise DomainError(f"diff_svd_truncated: y is not numerically of rank {r}")
    gap = np.min(sigma[: r - 1] - sigma[1:r], initial=np.inf)  # no gap at r = 1
    if gap < SVD_GAP_EPS * smax:
        raise DomainError(f"diff_svd_truncated: leading singular values only {gap:.3g} apart, "
                          f"below SVD_GAP_EPS * sigma_0 = {SVD_GAP_EPS * smax:.3g}")
    s = sigma[:r]
    p = u.T @ ydot @ v
    sigma_dot = np.diagonal(p).copy()
    denom = s[np.newaxis, :] ** 2 - s[:, np.newaxis] ** 2
    np.fill_diagonal(denom, 1.0)
    gamma = (s[:, np.newaxis] * p + s[np.newaxis, :] * p.T) / denom
    np.fill_diagonal(gamma, 0.0)
    v_dot = v @ gamma + (ydot.T @ u - v @ p.T) / s[np.newaxis, :]
    u_dot = (ydot @ v + u @ (s[:, np.newaxis] * gamma - np.diag(sigma_dot))) / s[np.newaxis, :]
    return u_dot, sigma_dot, v_dot


def svd_sign_normalize(u_t, v_t, u_ref) -> tuple[np.ndarray, np.ndarray]:
    """Fix SVD sign ambiguity against a reference left factor.

    Flips the columns of (u_t, v_t) jointly so that diag(u_t' u_ref) is
    entrywise nonnegative.  A zero diagonal entry leaves the sign undefined
    and raises.
    """
    ut = np.asarray(u_t, dtype=float)
    vt = np.asarray(v_t, dtype=float)
    uref = np.asarray(u_ref, dtype=float)
    if ut.shape[1] != vt.shape[1] or ut.shape != uref.shape:
        raise ShapeError("svd_sign_normalize: column counts disagree")
    d = np.sum(ut * uref, axis=0)
    if np.any(d == 0.0):
        ties = np.where(d == 0.0)[0]
        raise DomainError(f"sign normalization tie for columns {ties.tolist()}")
    s = np.sign(d)
    return ut * s[np.newaxis, :], vt * s[np.newaxis, :]


def dexp_stiefel(xi0: stiefel.TangentVector, v: stiefel.TangentVector) -> np.ndarray:
    """Directional derivative of the Stiefel exponential.

    Returns d/dt at t = 0 of Exp_U(xi0 + t v) as an ambient n x r matrix.
    Both vectors go into one tangent frame, xi0 = U A + Q M and
    v = U Adot + Q Mdot over one orthonormal basis Q of both normal parts
    (n x min(n, 2r)).  The geodesic formula holds on any such Q
    (``TangentFrame.exp``), and Q does not depend on t, so the result is
    U D11 + Q D21 with D the Frechet derivative of ``expm`` at
    [[A, -M'], [M, 0]] in the direction [[Adot, -Mdot'], [Mdot, 0]]
    (``scipy.linalg.expm_frechet``).  No factor of the normal part is
    differentiated, so any rank works, a zero or vertical xi0 and n < 2r
    included.
    """
    xi0._require_same_base(v)
    u = xi0.base.u
    r = xi0.base.r
    frame = stiefel.tangent_frame(xi0.base, [xi0.delta, v.delta])
    gen, gen_dot = (stiefel._generator(c[:r], c[r:]) for c in frame.coords)
    d = sla.expm_frechet(gen, gen_dot, compute_expm=False)
    return u @ d[:r, :r] + frame.q @ d[r:, :r]


def transport_velocity(
    delta: stiefel.TangentVector, v_p: stiefel.TangentVector, h: float
) -> stiefel.TangentVector:
    """Carry a velocity sampled at p = v_p.base into the tangent space at q.

    ``delta`` is Log_q(p), so q = delta.base.  Central difference of the
    normal-coordinate transition map:
    (Log_q(Exp_p(h v_p)) - Log_q(Exp_p(-h v_p))) / (2h).  Second-order
    accurate in h; the caller gives the step (the arc fits
    ``DEFAULT_FD_STEP``, the transport check each swept step).  Both logs
    are warm-started (``stiefel_log``'s ``start``): the +h log from
    ``delta``, the -h log from its reflection
    2 delta - Log_q(Exp_p(h v_p)), which is O(h^2) from its answer.  The
    starts change how many steps the logs take, not what they return, so
    the result depends on ``delta`` only through q.  A failed log raises
    StiefelLogError naming its side, "+h" or "-h", with the failed log's
    ``iterations`` and ``residual``; the failed log's error is its cause.
    """
    if not (np.isfinite(h) and h > 0.0):
        raise PreconditionError(f"the step h must be positive and finite, got {h}")
    q = delta.base
    frame = stiefel.split_tangent(v_p)
    logs = []
    for s, side in ((h, "+h"), (-h, "-h")):
        start = delta if not logs else stiefel.TangentVector(q, 2.0 * delta.delta - logs[0].delta)
        try:
            logs.append(stiefel.stiefel_log(q, frame.exp((s,)), start=start))
        except StiefelLogError as exc:
            raise StiefelLogError(
                f"logarithm failed at the {side} offset point: {exc}", exc.iterations, exc.residual
            ) from exc
    # The difference quotient amplifies the logs' tangency roundoff by 1/(2h);
    # the exact transition-map derivative is tangent at q, so project it off.
    return stiefel.project_tangent(q, (logs[0].delta - logs[1].delta) / (2.0 * h))


def validate_transport(
    q: stiefel.StiefelPoint, v_p: stiefel.TangentVector, steps
) -> list[float]:
    """Relative reconstruction error of the velocity transport at each step h of ``steps``.

    Transports v_p into T_q with step h, pushes it back through the
    differential of the exponential at Log_q(p), p = v_p.base, and compares
    with the original velocity in the Frobenius norm.  Log_q(p) and the
    norm of v_p are computed once for all steps; the transport starts its
    logs from that Log_q(p).  A zero velocity has no relative error, and a
    step h that is not positive and finite has no transport; both raise
    PreconditionError.
    """
    if not np.any(v_p.delta):
        raise PreconditionError(
            "the velocity v_p to transport is zero; its relative error is undefined"
        )
    delta_p = stiefel.stiefel_log(q, v_p.base)
    scale = np.linalg.norm(v_p.delta)
    errors = []
    for h in steps:
        v_rec = dexp_stiefel(delta_p, transport_velocity(delta_p, v_p, h=h))
        errors.append(float(np.linalg.norm(v_rec - v_p.delta) / scale))
    return errors
