"""Differentials of matrix factorizations and of the Stiefel exponential.

Contains the pieces needed to move Hermite velocity data between tangent
spaces: derivative propagation through QR and truncated SVD factorizations,
which the studies use to sample factor velocities; the differential of the
Stiefel exponential, which is the Frechet derivative of ``expm``
(``scipy.linalg.expm_frechet``, Al-Mohy and Higham, SIMAX 30(4), 2009) on a
fixed tangent frame of both vectors (any rank, no derivative of the frame's
basis); the transport of a sampled velocity into another tangent space,
which the arc fits take, solved exactly as the inverse of that differential
by one Daleckii-Krein eigenbasis kernel with no log or exp; and the paper's
central-difference transport, inside the reconstruction check
``validate_transport`` that the transport study sweeps over its step, with
the logs of all its offset points in one stacked ``stiefel_log`` call.  A
velocity carries its base point p, and the exact transport takes it with
Log_q(p), whose base is q.  ``dexp_stiefel`` shares no mask with the exact
solve, so a round trip through it checks the solve independently.

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
the central difference raises ``StiefelLogError``, the error of
``stiefel_log``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from . import linalg, stiefel
from .errors import DomainError, PreconditionError, ShapeError, StiefelLogError

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


def _dexp_inverse_mask(mu: np.ndarray) -> np.ndarray:
    """The Daleckii-Krein mask Psi that inverts the Frechet derivative of ``expm`` at a skew G.

    With iG = W diag(mu) W^H, G has the eigenvalues lambda = -i mu, and
    d expm_G[Gdot] = W((W^H Gdot W) o Phi) W^H with
    Phi_ab = (e^lambda_a - e^lambda_b) / (lambda_a - lambda_b).  Writing that
    derivative as e^G Omega, Gdot = W((W^H Omega W) o Psi) W^H with
    Psi_ab = e^lambda_a / Phi_ab.  Phi_ab is computed as
    e^((lambda_a + lambda_b) / 2) sinh(delta / 2) / (delta / 2),
    delta = lambda_a - lambda_b, and on imaginary eigenvalues
    sinh(delta / 2) / (delta / 2) = sinc((mu_a - mu_b) / (2 pi)), so ties
    need no special case and Psi_ab = e^(-i (mu_a - mu_b) / 2) / sinc(...).
    The sinc vanishes only at |mu_a - mu_b| = 2 pi, which no generator of a
    certified log reaches.
    """
    d = mu[:, np.newaxis] - mu[np.newaxis, :]
    return np.exp(-0.5j * d) / np.sinc(d / (2.0 * np.pi))


def transport_velocity(delta: stiefel.TangentVector, v_p: stiefel.TangentVector) -> stiefel.TangentVector:
    """Carry a velocity sampled at p = v_p.base into the tangent space at q: dExp_q(delta)^{-1}[v_p].

    ``delta`` is Log_q(p), so q = delta.base = U.  The result is the exact
    derivative of the log, dLog_q(p)[v_p], from one direct solve with no
    step, log or exp:

    * Frame.  delta = U A + Q B over Q, the last k = min(n, 2r) - r columns
      of the Householder QR of [U, delta]: orthonormal and normal to U
      however rank-deficient delta's normal part is (k < r at n < 2r, k = 0
      at n = r).  With G = [[A, -B'], [B, 0]], p = [U Q] e^G [I; 0].  Over
      [U Q P], P any orthonormal basis of the rest of R^n, a tangent
      vector U Adot + Q Bdot + P N has the generator Gdot with zero
      lower-right (n - r) x (n - r) block, and its dExp is [U Q P] times
      the first r columns of d expm_G[Gdot] = e^G Omega, Omega skew.
    * Kernel.  One complex Hermitian ``eigh`` of iG gives W and mu, and
      ``_dexp_inverse_mask`` the mask Psi that takes Omega to Gdot.
    * Known columns.  The first r columns of Omega are e^-G [U Q]'v_p over
      P'v_p (Omega_11 is kept skew).  The P rows decouple, because G is zero
      on P: they give P N = v_perp phi(G)_11^{-1}, with
      v_perp = v_p - [U Q][U Q]'v_p and phi(lambda) = (e^lambda - 1) / lambda
      = e^(lambda / 2) sinc(mu / (2 pi)), so P is never formed.
    * Unknown block.  The skew k x k Omega_22 solves the k(k - 1)/2 square
      system Gdot(Omega)_22 = 0, whose matrix is the Jacobian of the log's
      C-block.
    * Result.  v = U Gdot_11 + Q Gdot_21 + v_perp phi(G)_11^{-1}; at n = r,
      v = U Gdot(skew(e^-A U'v_p)), and delta = 0 returns v_p.

    Its round trip through ``dexp_stiefel`` (``scipy.linalg.expm_frechet``,
    which shares none of this kernel) is ~1e-15 relative.
    """
    q = delta.base
    u, r = q.u, q.r
    vp = v_p.delta
    frame, coords = linalg.qr_basis(np.hstack([u, delta.delta]))
    basis = frame[:, r:]
    k = basis.shape[1]
    gen = stiefel._generator(u.T @ delta.delta, coords[r:, r:])
    mu, w = np.linalg.eigh(1j * gen)
    wh = w.conj().T
    psi = _dexp_inverse_mask(mu)

    def gen_dot(omega):
        return (w @ ((wh @ omega @ w) * psi) @ wh).real

    c_u, c_q = u.T @ vp, basis.T @ vp
    omega = np.zeros_like(gen)
    omega[:, :r] = ((w * np.exp(1j * mu)) @ (wh @ np.vstack([c_u, c_q]))).real
    omega[:r, :r] = 0.5 * (omega[:r, :r] - omega[:r, :r].T)
    omega[:r, r:] = -omega[r:, :r].T
    if k > 1:
        # t[a, i, b, j] is the coefficient of Omega_22[i, j] in Gdot_22[a, b]:
        # sum_cd W2[a, c] conj(W2[i, c]) Psi_cd W2[j, d] conj(W2[b, d]).  One
        # row per a < b and one column per i < j, Omega_22[j, i] = -Omega_22[i, j].
        w2 = w[r:]
        x = (w2[:, np.newaxis, :] * w2.conj()[np.newaxis, :, :]).reshape(k * k, -1)
        t = (x @ psi @ x.conj().T).real.reshape(k, k, k, k)
        i, j = np.triu_indices(k, 1)
        a, b = i[:, np.newaxis], j[:, np.newaxis]
        jacobian = t[a, i, b, j] - t[a, j, b, i]
        omega[r + i, r + j] = np.linalg.solve(jacobian, -gen_dot(omega)[r + i, r + j])
        omega[r + j, r + i] = -omega[r + i, r + j]
    g = gen_dot(omega)
    phi = (w[:r] * (np.exp(-0.5j * mu) * np.sinc(mu / (2.0 * np.pi)))) @ wh[:, :r]
    phi_inv = np.linalg.inv(phi.real)
    g11 = 0.5 * (g[:r, :r] - g[:r, :r].T)
    # U Gdot_11 + Q Gdot_21 + (v_p - U c_u - Q c_q) phi^{-1}, in three n x r products
    return stiefel.TangentVector(q, vp @ phi_inv + u @ (g11 - c_u @ phi_inv) + basis @ (g[r:, :r] - c_q @ phi_inv))


def _offset_logs(
    q: stiefel.StiefelPoint, v_p: stiefel.TangentVector, steps
) -> list[tuple[stiefel.TangentVector, stiefel.TangentVector]]:
    """(Log_q(Exp_p(h v_p)), Log_q(Exp_p(-h v_p))) for each step h of ``steps``, p = v_p.base.

    The 2k offset points come from one frame of v_p, and their logs from
    one stacked ``stiefel_log`` call.  A failed log raises StiefelLogError
    naming its side, "+h" or "-h", and its step h, with the failed log's
    ``iterations`` and ``residual``; the failed log's error is its cause.
    """
    frame = stiefel.split_tangent(v_p)
    logs = stiefel.stiefel_log(q, [frame.exp((s,)) for h in steps for s in (h, -h)])
    for i, log in enumerate(logs):
        if isinstance(log, StiefelLogError):
            side, h = ("+h", "-h")[i % 2], steps[i // 2]
            raise StiefelLogError(
                f"logarithm failed at the {side} offset point of step h = {h:g}: {log}", log.iterations, log.residual
            ) from log
    return list(zip(logs[::2], logs[1::2]))


def validate_transport(
    q: stiefel.StiefelPoint, v_p: stiefel.TangentVector, steps
) -> list[float]:
    """Relative reconstruction error of the central-difference transport at each step h of ``steps``.

    Transports v_p into T_q by the paper's central difference with step h,
    (Log_q(Exp_p(h v_p)) - Log_q(Exp_p(-h v_p))) / (2h), second-order
    accurate in h, pushes it back through the differential of the
    exponential at Log_q(p), p = v_p.base, and compares with the original
    velocity in the Frobenius norm.  The velocity and every step are
    checked before any log is taken: a zero velocity has no relative
    error, and a step h that is not positive and finite has no transport;
    both raise PreconditionError.  Log_q(p) and the norm of v_p are then
    computed once, and the logs of all the offset points in one stacked
    call (``_offset_logs``).
    """
    steps = list(steps)
    if not np.any(v_p.delta):
        raise PreconditionError(
            "the velocity v_p to transport is zero; its relative error is undefined"
        )
    for h in steps:
        if not (np.isfinite(h) and h > 0.0):
            raise PreconditionError(f"the step h must be positive and finite, got {h}")
    delta_p = stiefel.stiefel_log(q, v_p.base)
    scale = np.linalg.norm(v_p.delta)
    errors = []
    for h, (plus, minus) in zip(steps, _offset_logs(q, v_p, steps)):
        # The difference quotient amplifies the logs' tangency roundoff by 1/(2h);
        # the exact transition-map derivative is tangent at q, so project it off.
        v_q = stiefel.project_tangent(q, (plus.delta - minus.delta) / (2.0 * h))
        errors.append(float(np.linalg.norm(dexp_stiefel(delta_p, v_q) - v_p.delta) / scale))
    return errors
