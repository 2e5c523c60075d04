"""Dense linear-algebra kernels with fixed conventions.

Everything downstream depends on two conventions established here:

* ``qr_econ`` returns the economy-size QR factorization with a nonnegative
  R-diagonal, which makes the factors a continuous (indeed smooth) function
  of the input on the set of full-column-rank matrices.  Library QR routines
  fix signs arbitrarily and can jump along a smooth matrix path.
* ``logm`` is the principal logarithm of an *orthogonal* matrix, read off
  one symmetric eigendecomposition of (V + V')/2 (the inverse Rodrigues
  formula); its output is exactly skew-symmetric.  It is accurate to
  round-off near the identity and for a single angle near pi, and raises
  ``DomainError`` for an eigenvalue within round-off of -1.  It is the
  kernel of each step of the Stiefel log and reads off its result.

``expm`` and ``logm`` also take a stack (..., n, n) of matrices, for the
stacked Stiefel log: one call runs numpy's or scipy's stacked routines on
all of them, and raises if any one matrix fails its check.  A lone matrix
goes straight to scipy's LAPACK wrappers, the cheapest call.

The heavy lifting is delegated to LAPACK via numpy/scipy; the wrappers add
the conventions, the domain checks, and typed errors.  The checks run on
``_identity(n)``, one cached read-only identity per size, and on
``_frobenius(x)``, sqrt(v @ v) of v = ``x.ravel(order="K")``: ``np.linalg.norm``
of a 2-d float array bit for bit (order "K" keeps its sum order on the
Fortran-ordered arrays LAPACK returns), at a fraction of the call overhead,
and the norm of each matrix of a stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import DomainError, PreconditionError, ShapeError

# R-diagonal entries below RANK_EPS * ||a||_F are treated as zero.
RANK_EPS = 1e-13

# Largest ||V'V - I||_F accepted as orthonormal input.
ORTH_TOL = 1e-10

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@functools.lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _frobenius(x: np.ndarray):
    if x.ndim > 2:
        return np.sqrt(np.einsum("...ij,...ij->...", x, x))
    v = x.ravel(order="K")
    return math.sqrt(v @ v)


def _check_orthonormal(v: np.ndarray, message: str) -> None:
    drift = _frobenius(v.mT @ v - _identity(v.shape[-1]))
    if (drift if v.ndim == 2 else drift.max()) > ORTH_TOL:
        raise PreconditionError(message.format(np.max(drift)))


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be a 2-d array, got ndim={a.ndim}")
    return a


def _as_square(x, op: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ShapeError(f"{op} needs a square matrix or a stack of them, got {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError(f"{op} input has non-finite entries")
    return a


def _eigh(h: np.ndarray, op: str, lower: bool) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a symmetric matrix, or of each matrix of a stack.

    LAPACK ``dsyevd`` reads the lower or the upper triangle: scipy's for one
    matrix, the cheapest call, which raises ``DomainError`` led by ``op``
    when it does not converge, and numpy's stacked ``eigh`` for a stack,
    which raises its ``LinAlgError``, also a ``ValueError``.
    """
    if h.ndim > 2:
        return np.linalg.eigh(h, UPLO="L" if lower else "U")
    w, p, info = lapack.dsyevd(h, lower=int(lower))
    if info != 0:
        raise DomainError(f"{op}: dsyevd did not converge (info = {info})")
    return w, p


def expm(x) -> np.ndarray:
    """Matrix exponential of a square matrix, or of each matrix of a stack (..., n, n)."""
    return sla.expm(_as_square(x, "expm"))


def logm(x) -> np.ndarray:
    """Principal logarithm of an orthogonal matrix, exactly skew-symmetric, or of each of a stack.

    The inverse Rodrigues formula in matrix form.  For orthogonal V the
    parts H = (V + V')/2 and S = (V - V')/2 commute: on a rotation plane of
    angle theta in [0, pi], H is cos(theta) I and S is sin(theta) times a
    unit skew matrix.  One LAPACK ``dsyevd`` call gives H = P diag(c) P'.
    With T = P'SP, s_k is the norm of row k of T (the measured sin of angle
    k), theta_k = atan2(s_k, c_k), and log V = P (M o T) P' with
    M_kj = (theta_k + theta_j) cos((theta_k - theta_j) / 2) / (s_k + s_j).
    Within a plane (theta_k = theta_j) that is theta / s, which tends to 1
    as s -> 0.  T couples different planes only by round-off; there M_kj
    is the larger modulus of the log's divided differences between their
    eigenvalues, (theta_k + theta_j) / (2 sin((theta_k + theta_j) / 2)),
    so round-off that couples a plane near pi to the others is amplified
    no more than by the log itself, not by theta_k / s_k.

    Accuracy: near the identity the relative error stays at round-off (a
    rotation by 1e-9 comes back to ~1e-15).  Dividing by the measured s_k,
    not by sqrt(1 - c_k^2), keeps an angle near pi accurate: a rotation by
    pi - 1e-6 round-trips through ``expm`` to ~1e-15.  Two different
    angles theta_1, theta_2 near pi lose accuracy like eps / |cos theta_1 -
    cos theta_2|, because the eigenvectors of H separate them by their
    cosines only.

    A stack (..., n, n) gets the log of each matrix; the call raises if
    any matrix fails a check below.

    Raises
    ------
    PreconditionError
        If ``||X'X - I||_F`` exceeds ``ORTH_TOL``.
    DomainError
        If ``x`` has an eigenvalue within round-off of -1, where the
        principal logarithm is not defined: an angle theta_k >= pi - 8 n eps,
        that is c_k < 0 with s_k <= 8 n eps to round-off.
    """
    a = _as_square(x, "logm")
    n = a.shape[-1]
    _check_orthonormal(a, "logm input is not orthogonal (||X'X - I||_F = {:.3g})")
    # 2H = V + V' = P diag(c) P' and 2T = P'(V - V')P: c, s and T are all
    # doubled, which leaves theta and the product M o T unchanged.
    c, p = _eigh(a + a.mT, "logm", lower=False)
    t = p.mT @ (a - a.mT) @ p
    s = np.sqrt(np.einsum("...ij,...ij->...i", t, t))
    # A zero s_k is a zero row of T, where the mask need only be finite: the
    # floor at the smallest normal float keeps s_k + s_j from being 0.
    np.maximum(s, _TINY, out=s)
    theta = np.arctan2(s, c)
    # For c_k < 0, pi - theta_k = s_k / |c_k| to round-off, with |c_k| = 1.
    if theta.max() >= np.pi - 8 * n * _EPS:
        raise DomainError(
            "logm: an eigenvalue lies within round-off of -1 "
            f"(largest angle pi - {np.pi - theta.max():.3g})"
        )
    row, col = theta[..., :, np.newaxis], theta[..., np.newaxis, :]
    mask = (row + col) * np.cos(0.5 * (row - col))
    out = p @ (mask / (s[..., :, np.newaxis] + s[..., np.newaxis, :]) * t) @ p.mT
    return 0.5 * (out - out.mT)


@dataclass(frozen=True)
class EconQR:
    """Economy-size QR factors with nonnegative R-diagonal.

    ``rank_deficient`` is set when an R-diagonal entry is at most
    ``RANK_EPS * ||a||_F``.  It is the package's one numerical rank test of
    a QR factorization: ``calculus.diff_qr`` refuses exactly these factors.
    """

    q: np.ndarray
    r_factor: np.ndarray
    rank_deficient: bool


def _householder(mat: np.ndarray, op: str, complete: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR by LAPACK ``dgeqrf``/``dorgqr``: Q and the packed factors.

    Q is n x min(n, k), or n x n if ``complete``.  R is the upper triangle
    of the packed factors' first min(n, k) rows.
    """
    n, k = mat.shape
    if n == 0:  # LAPACK refuses the leading dimension 0
        return np.empty((0, 0)), mat
    packed, tau, _, info = lapack.dgeqrf(mat)
    if info == 0:
        reflectors = packed[:, : tau.shape[0]]
        if complete and n > k:  # dorgqr makes one column of Q per column it is given
            reflectors = np.zeros((n, n), order="F")
            reflectors[:, :k] = packed
        q, _, info = lapack.dorgqr(reflectors, tau)
    if info != 0:
        raise PreconditionError(f"{op}: LAPACK returned info = {info}")
    return q, packed


def qr_econ(a) -> EconQR:
    """Economy-size QR with deterministic signs (R-diagonal >= 0).

    For full-column-rank input this is the unique QR factorization with a
    positive R-diagonal, hence continuous along full-rank matrix paths.
    Rank deficiency is flagged on the result, not raised.  The factors come
    from the LAPACK ``dgeqrf``/``dorgqr`` pair that ``qr_basis`` calls, with
    R read off ``dgeqrf``'s output.
    """
    mat = _as_matrix(a, "a")
    n, r = mat.shape
    if n < r:
        raise ShapeError(f"qr_econ needs n >= r, got {mat.shape}")
    q, packed = _householder(mat, "qr_econ")
    rf = np.triu(packed[:r])
    diag = np.diagonal(rf).copy()
    flip = diag < 0.0
    if np.any(flip):
        signs = np.where(flip, -1.0, 1.0)
        q = q * signs[np.newaxis, :]
        rf = rf * signs[:, np.newaxis]
    deficient = bool(np.any(np.diagonal(rf) <= RANK_EPS * np.linalg.norm(mat)))
    return EconQR(q=q, r_factor=rf, rank_deficient=deficient)


def qr_basis(a) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the column span and the coordinates in it.

    Householder QR (LAPACK ``geqrf``/``orgqr``) of an n x k matrix of any
    shape and rank: returns ``q`` (n x min(n, k), orthonormal columns whose
    span contains that of ``a``) and ``coords = q' a``, so ``a = q @ coords``
    up to round-off.  No sign convention and no rank test: callers that only
    need some orthonormal basis of the span skip ``qr_econ``'s overhead.
    """
    mat = _as_matrix(a, "a")
    q, _ = _householder(mat, "qr_basis")
    return q, q.T @ mat


def svd_full(y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy SVD ``y = u @ diag(sigma) @ v.T`` of any n x m matrix.

    Returns ``u`` (n x min(n, m)) and ``v`` (m x min(n, m)) with orthonormal
    columns and the min(n, m) singular values in descending order; ``v`` is
    the transpose of LAPACK's ``vh`` as a view.
    """
    u, sigma, vh = np.linalg.svd(_as_matrix(y, "y"), full_matrices=False)
    return u, sigma, vh.T


def orth_complete(v, near) -> np.ndarray:
    """The m x (m - r) completion W of an m x r orthonormal V nearest to ``near``, det [V, W] = +1.

    W0, the trailing m - r columns of the complete Q of the LAPACK
    ``dgeqrf``/``dorgqr`` pair that ``qr_econ`` calls, spans the orthogonal
    complement of V.  The orthogonal Procrustes fit of W0 to the m x (m - r)
    matrix ``near`` (Zimmermann and Hueper, SIMAX 43(2), 2022) rotates it:
    W = W0 Y X' from the SVD near'W0 = X S Y', so near'W = X S X' is
    symmetric positive semidefinite.  If det [V, W] would be -1, X's last
    column is negated first, which negates the smallest eigenvalue of
    near'W; at m > r, [V, W] is in SO(m).  ``stiefel_log`` starts from
    [V, W].
    """
    v = _as_matrix(v, "v")
    m, r = v.shape
    if r > m:
        raise ShapeError(f"orth_complete needs m >= r, got {v.shape}")
    near = _as_matrix(near, "near")
    if near.shape != (m, m - r):
        raise ShapeError(f"orth_complete needs near of shape {(m, m - r)}, got {near.shape}")
    _check_orthonormal(v, "orth_complete input is not orthonormal (||V'V - I|| = {:.3g})")
    w0 = _householder(v, "orth_complete", complete=True)[0][:, r:]
    x, _, yt = np.linalg.svd(near.T @ w0)
    if r < m and np.linalg.det(np.hstack([v, w0])) * np.linalg.det(x @ yt) < 0.0:
        x[:, -1] *= -1.0
    return w0 @ yt.T @ x.T
