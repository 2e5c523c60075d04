"""Dense linear-algebra kernels with fixed conventions.

Everything downstream depends on two conventions established here:

* ``qr_econ`` returns the economy-size QR factorization with a nonnegative
  R-diagonal, which makes the factors a continuous (indeed smooth) function
  of the input on the set of full-column-rank matrices.  Library QR routines
  fix signs arbitrarily and can jump along a smooth matrix path.
* ``logm`` is the principal logarithm of an *orthogonal* matrix, read off
  its real Schur form; its output is exactly skew-symmetric.  It is the
  kernel of each step of the Stiefel log and reads off its result.

The heavy lifting is delegated to LAPACK via numpy/scipy; the wrappers add
the conventions, the domain checks, and typed errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import DomainError, PreconditionError, ShapeError

# R-diagonal entries below RANK_EPS * ||a||_F are treated as zero.
RANK_EPS = 1e-13

# Largest ||V'V - I||_F accepted as orthonormal input.
ORTH_TOL = 1e-10


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be a 2-d array, got ndim={a.ndim}")
    return a


def _as_square(x, op: str) -> np.ndarray:
    a = _as_matrix(x, "x")
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{op} needs a square matrix, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{op} input has non-finite entries")
    return a


def expm(x) -> np.ndarray:
    """Matrix exponential of a square matrix."""
    return sla.expm(_as_square(x, "expm"))


def logm(x) -> np.ndarray:
    """Principal logarithm of an orthogonal matrix, exactly skew-symmetric.

    An orthogonal matrix is normal, so its real Schur form ``Z T Z'`` is
    block diagonal up to round-off: 2 x 2 rotation blocks and 1 x 1 blocks
    equal to +1 or -1.  The log maps each rotation block to its angle in
    (-pi, pi) (``atan2``) and each +1 to 0; ``Z Theta Z'`` is then
    skew-symmetrized (Higham, *Functions of Matrices*, section 11).

    Raises
    ------
    PreconditionError
        If ``||X'X - I||_F`` exceeds ``ORTH_TOL``.
    DomainError
        If ``x`` has a real eigenvalue <= 0 (a rotation by pi), where the
        principal logarithm is not defined.
    """
    a = _as_square(x, "logm")
    n = a.shape[0]
    drift = np.linalg.norm(a.T @ a - np.eye(n))
    if drift > ORTH_TOL:
        raise PreconditionError(
            f"logm input is not orthogonal (||X'X - I||_F = {drift:.3g})"
        )
    t, z = sla.schur(a, output="real")
    theta = np.zeros((n, n))
    i = 0
    while i < n:
        if i + 1 < n and t[i + 1, i] != 0.0:
            # LAPACK's standardized block [[c, b], [s, c]] with b * s < 0.
            b, s = t[i, i + 1], t[i + 1, i]
            angle = np.arctan2(np.sign(s) * np.sqrt(-b * s), t[i, i])
            theta[i + 1, i] = angle
            theta[i, i + 1] = -angle
            i += 2
        else:
            if t[i, i] <= 0.0:
                raise DomainError(
                    f"logm: eigenvalue {t[i, i]:.6g} lies on the closed negative real axis"
                )
            i += 1
    out = z @ theta @ z.T
    return 0.5 * (out - out.T)


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


def qr_econ(a) -> EconQR:
    """Economy-size QR with deterministic signs (R-diagonal >= 0).

    For full-column-rank input this is the unique QR factorization with a
    positive R-diagonal, hence continuous along full-rank matrix paths.
    Rank deficiency is flagged on the result, not raised.
    """
    mat = _as_matrix(a, "a")
    n, r = mat.shape
    if n < r:
        raise ShapeError(f"qr_econ needs n >= r, got {mat.shape}")
    q, rf = np.linalg.qr(mat, mode="reduced")
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
    qr, tau, _, info = lapack.dgeqrf(mat)
    if info == 0:
        q, _, info = lapack.dorgqr(qr[:, : tau.shape[0]], tau)
    if info != 0:
        raise PreconditionError(f"qr_basis: LAPACK returned info = {info}")
    return q, q.T @ mat


def svd_full(y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD ``y = u @ diag(sigma) @ v.T`` with square orthogonal ``v``.

    Requires n >= m; returns ``u`` with n x m orthonormal columns, the
    singular values in descending order, and the full m x m right factor
    (needed by the truncated-SVD differentiation downstream).
    """
    mat = _as_matrix(y, "y")
    n, m = mat.shape
    if n < m:
        raise ShapeError(f"svd_full needs n >= m, got {mat.shape}")
    u, sigma, vh = np.linalg.svd(mat, full_matrices=False)
    return u, sigma, vh.T.copy()


def orth_complete(v_r) -> np.ndarray:
    """m x (m - r) orthonormal completion of an m x r matrix with orthonormal columns.

    The trailing m - r columns of one complete Householder QR (LAPACK
    ``geqrf``/``orgqr``), which is deterministic.  Which completion comes
    out matters only up to its span: ``stiefel_log`` rotates the columns
    it returns into a canonical position (its Procrustes start).
    """
    v = _as_matrix(v_r, "v_r")
    m, r = v.shape
    if r > m:
        raise ShapeError(f"orth_complete needs m >= r, got {v.shape}")
    gram_err = np.linalg.norm(v.T @ v - np.eye(r))
    if gram_err > ORTH_TOL:
        raise PreconditionError(
            f"orth_complete input is not orthonormal (||V'V - I|| = {gram_err:.3g})"
        )
    return np.linalg.qr(v, mode="complete")[0][:, r:]
