"""Geometry of the compact Stiefel manifold St(n, r) under the canonical metric.

Points are n x r matrices with orthonormal columns; tangent vectors at U are
n x r matrices D with U'D skew-symmetric.  The canonical metric is
``<D, E>_U = tr(D' (I - U U'/2) E)``, the geodesics are the closed-form
matrix-exponential curves, and the logarithm is computed by the iterative
algorithm that repeatedly rotates an orthogonal 2r x 2r completion until its
matrix logarithm has the tangent block structure.

The logarithm starts from the completion nearest to [0; I], the last r
columns of the identity (the Procrustes start), and runs on one kernel,
the log of an orthogonal matrix read off one symmetric eigendecomposition
(``linalg.logm``, the inverse Rodrigues formula):
each step polishes the completion onto O(2r) with one Newton-Schulz step,
takes its log, and rotates by the clipped solution of a small Sylvester
equation (Zimmermann and Hueper's first-order BCH correction of the plain
step), which about halves the steps of far logs; the last log is the result.
The kernels only raise ``ValueError``s (``DomainError`` for one matrix);
the log's loop decides how the iteration ends (converged, a kernel
failure, a residual that stopped falling, the step cap, the norm
certificate) and raises one ``StiefelLogError`` naming the reason, the
iteration and the residuals.

The log also takes a stack of targets, with one base or a base per
target, and then runs one loop for all of them: each step is one stacked
kernel log and one stacked ``expm`` over the 2r x 2r completions of the
targets still iterating, so a short log pays the per-call overhead of its
small kernels once per stack, not once per target.  Each target leaves
the stack when its own iteration ends and gets its own certificate; the
call returns a list with each target's result, or the ``StiefelLogError``
its own log would raise, in its slot.  A kernel that raises on a stack
restarts each half of the targets still iterating from their own
completions, so a failing target ends alone, as its own log does, and the
others stay stacked.  The stack's completions are built in one pass:
each target's overlap U'Y and normal part are its own n-row products,
then the QRs of the normal parts and the completions are one stacked
``linalg`` call each; the readout stays per target.  A single target is
the one-target case of the same call, and builds its completion and
runs the loop on 2-D arrays, whose kernels call LAPACK directly.

Every exponential runs through one kernel, ``TangentFrame.exp``: a frame
keeps k tangent vectors at U as r x r blocks over one orthonormal basis of
their normal parts, built once, so the exponential of any combination of
them costs a 2r x 2r ``expm`` and the n x r products of its output.
``stiefel_exp`` is that kernel on the one-vector frame of its velocity;
fitted curves build their frames at fit time.  The kernel refuses a
combination whose norm passes ``EXP_NORM_MAX`` before ``expm`` can
overflow or drift off the manifold.  The checks of points, tangent
vectors and frames use ``linalg``'s cached identities and norm.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DomainError, PreconditionError, ShapeError, StiefelLogError

# Tolerance used when validating constructed tangent vectors; points use
# ``linalg.ORTH_TOL``.
TANGENT_TOL = 1e-8

#: ``stiefel_log`` stops when the residual ||C||_F reaches LOG_TAU; it
#: raises when ||C||_F stops falling, and after LOG_MAX_ITER steps as a
#: backstop.  Read at call time.
LOG_TAU = 1e-14
LOG_MAX_ITER = 100

#: ``TangentFrame.exp`` of a combination D drifts from orthonormality by
#: ||U'U - I||_F <= EXP_DRIFT_PER_NORM * ||D||_F * eps, linearly in ||D||_F:
#: measured at most 109 over 60 random directions each on St(5, 5), St(6, 3),
#: St(15, 3), St(100, 6) and St(1000, 10), at ||D||_F from 1 to 3e8.
EXP_DRIFT_PER_NORM = 128.0

#: ``TangentFrame.exp`` refuses a combination whose ||D||_F passes this
#: bound (3.5e3): past it the drift may fail the point check by ORTH_TOL.
EXP_NORM_MAX = linalg.ORTH_TOL / (EXP_DRIFT_PER_NORM * np.finfo(float).eps)

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
        if not np.isfinite(u).all():
            raise PreconditionError("Stiefel point has non-finite entries")
        linalg._check_orthonormal(u, "columns are not orthonormal (||U'U - I||_F = {:.3g})")
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
        if not np.isfinite(d).all():
            raise PreconditionError("tangent vector has non-finite entries")
        ud = self.base.u.T @ d
        err = linalg._frobenius(ud + ud.T)
        if err > TANGENT_TOL * max(1.0, linalg._frobenius(d)):
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
    u_xi = u.T @ xi.delta
    vertical = float(np.sum(u_xi * (u_xi if eta is xi else u.T @ eta.delta)))
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

    The layout is fixed at construction: ``flat`` is the (k, (r + m) r) view
    of ``coords``, one contraction per combination, and ``coeff_max`` bounds
    sum |c_i| so that no sum or square of a combination overflows.
    """

    base: StiefelPoint
    q: np.ndarray
    coords: np.ndarray  # (k, r + m, r)
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    coeff_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "flat", self.coords.reshape(len(self.coords), -1))
        # ||sum c_i D_i||_F <= sum |c_i| sum |flat|, and (1e153)^2 < float max / 100
        object.__setattr__(self, "coeff_max", 1e153 / max(1.0, float(np.abs(self.flat).sum())))

    def _blocks(self, coeffs) -> tuple[np.ndarray, np.ndarray, float]:
        """A, M and ||D||_F of the combination D with the given coefficients; checks A skew."""
        c = np.asarray(coeffs, dtype=float)
        if c.shape != self.flat.shape[:1]:
            raise ShapeError(f"frame of {len(self.flat)} tangent vectors got coefficients of shape {c.shape}")
        if not sum(map(abs, c.tolist())) <= self.coeff_max:  # NaN fails the comparison too
            raise PreconditionError(f"coefficients {c} are not finite or may overflow the combination")
        r = self.base.r
        x = (c @ self.flat).reshape(-1, r)
        a = x[:r]
        # ||D||_F^2 = ||A||_F^2 + ||M||_F^2: the TangentVector test in r x r terms.
        size = linalg._frobenius(x)
        err = linalg._frobenius(a + a.T)
        if err > TANGENT_TOL * max(1.0, size):
            raise PreconditionError(
                f"combination is not tangent at base (||A + A'||_F = {err:.3g})"
            )
        return a, x[r:], size

    def combination(self, coeffs) -> TangentVector:
        """The tangent vector sum c_i D_i."""
        a, m, _ = self._blocks(coeffs)
        return TangentVector(self.base, self.base.u @ a + self.q @ m)

    def exp(self, coeffs) -> StiefelPoint:
        """Riemannian exponential of sum c_i D_i.

        The geodesic of Edelman, Arias and Smith (SIMAX 20(2), 1998):
        U E11 + Q E21 with E = expm([[A, -M'], [M, 0]]).  The identity holds
        for any orthonormal Q whose span holds the normal part, so a zero or
        rank-deficient M needs no special case.  When m > r, M is first
        replaced by its r x r coordinates in a basis of its own columns,
        which shrinks the generator to 2r x 2r.  A combination with ||D||_F
        above ``EXP_NORM_MAX`` is refused before ``expm`` runs.
        """
        a, m, size = self._blocks(coeffs)
        if size > EXP_NORM_MAX:
            raise PreconditionError(f"combination of norm {size:.3g} passes EXP_NORM_MAX = {EXP_NORM_MAX:.3g}, "
                                    "where its exponential may drift from orthonormality by ORTH_TOL")
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


def _polished(v: np.ndarray) -> np.ndarray:
    """One Newton-Schulz polar step V (3I - V'V) / 2 of an orthogonal iterate, or of each of a stack.

    It squares the drift ||V'V - I||, so round-off cannot build up over the
    steps and the kernel log sees a matrix orthogonal to machine precision.
    A drift above ``linalg.ORTH_TOL`` means a broken update, not round-off,
    and raises ``DomainError`` instead of being polished away.
    """
    gram = v.mT @ v
    eye = linalg._identity(v.shape[-1])
    drift = linalg._frobenius(gram - eye)
    if (drift if v.ndim == 2 else drift.max()) > linalg.ORTH_TOL:
        raise DomainError(f"polish: iterate lost orthogonality (||V'V - I||_F = {np.max(drift):.3g})")
    return v @ (1.5 * eye - 0.5 * gram)


#: Each denominator s_i + s_j of the Sylvester step is clipped at this value,
#: which bounds the step by 4 ||C||_F, four times the plain step -C.
SYLVESTER_DENOM_MAX = -0.25


def _step(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Generator X of the update V <- V diag(I, expm(X)) that cancels C, for one target or a stack.

    Solves S X + X S = C with S = B B'/12 - I/2 through the eigenvectors P
    of the symmetric S (``linalg._eigh``, LAPACK ``dsyevd``), each denominator
    s_i + s_j clipped at ``SYLVESTER_DENOM_MAX``.  Raises ``DomainError``
    if ``dsyevd`` does not converge.
    """
    s, p = linalg._eigh(b @ b.mT / 12.0 - 0.5 * linalg._identity(b.shape[-1]), "step", lower=True)
    denom = np.minimum(s[..., :, np.newaxis] + s[..., np.newaxis, :], SYLVESTER_DENOM_MAX)
    x = p @ ((p.mT @ c @ p) / denom) @ p.mT
    return 0.5 * (x - x.mT)


def _completion(bases: list[StiefelPoint], targets: list[StiefelPoint]) -> tuple[list, np.ndarray | None]:
    """The normal bases Q of the targets and their starting 2r x 2r completions V (see ``stiefel_log``).

    Each target's overlap U'Y and normal part Y - U U'Y are its own
    products; the QRs of the normal parts and the completions are then one
    stacked ``linalg`` call each, or 2-d calls for a lone target.  Returns
    per target its Q, or at n = r the ``StiefelLogError`` that refuses a
    target in the other component of O(n), as ``_readout`` does for the
    loop's failures; and the completions of the other targets, one matrix
    for a lone target, else a stack (None for no target).
    """
    out, tops, normals = [], [], []
    for base, target in zip(bases, targets):
        if base.u.shape != target.u.shape:
            raise ShapeError(f"base shape {base.u.shape} != target shape {target.u.shape}")
        r = base.r
        overlap = base.u.T @ target.u
        if base.n == r and np.linalg.det(overlap) < 0.0:
            out.append(StiefelLogError(
                f"St({r}, {r}) = O({r}) has two components, det = +1 and det = -1; det(U'Y) = -1 "
                "puts base and target in different ones, which no geodesic joins", 0, np.inf
            ))
            continue
        out.append(None)
        tops.append(overlap)
        normals.append(target.u - base.u @ overlap)
    if not tops:
        return out, None
    one = len(tops) == 1
    qr = linalg.qr_econ(normals[0] if one else np.stack(normals))
    top = np.concatenate([tops[0] if one else np.stack(tops), qr.r_factor], axis=-2)
    qs = iter([qr.q] if one else qr.q)
    return [next(qs) if x is None else x for x in out], np.concatenate([top, linalg.orth_complete(top)], axis=-1)


def _iterate(v: np.ndarray, r: int) -> list[tuple]:
    """The loop of ``stiefel_log`` on one completion V or a stack of them.

    Returns per target (log V, k, residuals, reason): log V of the iterate
    whose ||C||_F passed ``LOG_TAU`` and reason None, or None and the reason
    the loop ended at step k.  A target leaves the stack when it ends.  A
    kernel that raises on a stack restarts each non-empty half of the
    targets still iterating from their own completions; a lone target ends
    with the kernel's reason, as its own log does.
    """
    start, live = v, list(range(len(v))) if v.ndim == 3 else [0]
    history = [[] for _ in live]
    # a target still iterating after the last step ends at the cap
    ends = {t: (None, LOG_MAX_ITER, history[t], f"LOG_MAX_ITER = {LOG_MAX_ITER} steps taken") for t in live}
    for k in range(LOG_MAX_ITER):
        try:
            v = _polished(v)
            log_v = linalg.logm(v)
            res = linalg._frobenius(log_v[..., r:, r:])
            keep = []
            for j, (t, c) in enumerate(zip(live, [res] if v.ndim == 2 else res.tolist())):
                history[t].append(c)
                if c <= LOG_TAU:
                    ends[t] = (log_v if v.ndim == 2 else log_v[j], k, history[t], None)
                elif k and c >= history[t][-2]:
                    ends[t] = (None, k, history[t], "||C||_F stopped falling")
                else:
                    keep.append(j)
            if not keep:
                break
            if len(keep) < len(live):  # a lone matrix goes to LAPACK directly
                v, log_v = (x[keep[0]] if len(keep) == 1 else x[keep] for x in (v, log_v))
                live = [live[j] for j in keep]
            v[..., r:] = v[..., r:] @ linalg.expm(_step(log_v[..., r:, :r], log_v[..., r:, r:]))
        except ValueError as exc:
            if start.ndim == 2:
                ends[0] = (None, k, history[0], str(exc))
            else:  # a lone target restarts in 2-D, as its own log runs
                for part in filter(None, (live[: len(live) // 2], live[len(live) // 2:])):
                    ends.update(zip(part, _iterate(start[part[0]] if len(part) == 1 else start[part], r)))
            break
    return list(ends.values())


def _readout(base: StiefelPoint, q: np.ndarray, log_v, k: int, residuals: list, reason):
    """The log's result from the loop's end: xi = U A + Q B, or the StiefelLogError that refuses it."""
    if reason is None:
        r = base.r
        a, b = log_v[:r, :r], log_v[r:, :r]
        # the canonical norm of U A + Q B, as U'Q B = 0: Q spans the normal part,
        # and B vanishes to round-off on the extra columns of a rank-deficient one
        length = (0.5 * linalg._frobenius(a) ** 2 + linalg._frobenius(b) ** 2) ** 0.5
        if base.n == r or length < LOG_NORM_MAX:
            return TangentVector(base, base.u @ a + q @ b)
        reason = (f"converged to a tangent vector of norm {length / np.pi:.3g} pi, not below pi/sqrt("
                  f"{CURVATURE_MAX}) = {LOG_NORM_MAX / np.pi:.3g} pi, the length before which no geodesic "
                  "has a conjugate point")
    return StiefelLogError(
        f"log stopped at iteration {k}: {reason}; target may be too far from base "
        f"(||C||_F by iteration: [{', '.join(f'{x:.3g}' for x in residuals)}])",
        iterations=k,
        residual=residuals[-1] if residuals else np.inf,
    )


def stiefel_log(
    base: StiefelPoint | Sequence[StiefelPoint],
    target: StiefelPoint | Sequence[StiefelPoint],
) -> TangentVector | list[TangentVector | StiefelLogError]:
    """Riemannian logarithm: the tangent vector xi with Exp_base(xi) = target.

    ``target`` may also be a sequence of targets of one shape, with ``base``
    one point or a sequence of one base per target.  Then the iteration
    below runs once for the whole stack (see the module docstring), and the
    call returns a list: per target its log, or the ``StiefelLogError``
    that its own call would raise, with the same reason, iteration,
    residuals and message.  A kernel that raises on the stack restarts each
    half of the targets still iterating from their own completions, down
    to the failing target alone.

    Zimmermann's iteration (SIMAX 38(2), 2017): build an orthogonal
    2r x 2r completion V of the overlap/normal coordinates of ``target``,
    with log(V) = [[A, -B'], [B, C]], then rotate the completion columns,
    V <- V diag(I, expm(X)), until ||C||_F <= ``LOG_TAU``; then
    xi = U A + Q B.

    * Start: Zimmermann and Hueper (SIMAX 43(2), 2022), V = [top, W] with
      W = ``linalg.orth_complete(top)``, the completion of the first r
      columns ``top`` nearest to [0; I], the last r columns of the
      identity (an orthogonal Procrustes fit), with det V = +1, which the
      principal log needs.
    * Polish: before each log V is replaced by V (3I - V'V) / 2, one
      Newton-Schulz step towards the orthogonal polar factor.  A drift
      ||V'V - I||_F above ``linalg.ORTH_TOL`` before the polish ends the
      iteration.
    * Kernel: each step takes ``linalg.logm``, the log of an orthogonal
      matrix from one symmetric eigendecomposition of (V + V')/2 (inverse
      Rodrigues formula), exactly skew.  The polished V is orthogonal to
      round-off, so the log of the last iterate is also the readout: A and
      B come off the same matrix whose C passed ``LOG_TAU``.
      (The polish keeps the iterates' drift out of the log: a drift that
      differs between nearby targets would be amplified by 1/h in the
      velocity transport's difference quotient.)
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
      norm reaches ``LOG_NORM_MAX`` = pi / sqrt(CURVATURE_MAX) is rejected;
      the norm is read off the blocks, sqrt(||A||_F^2 / 2 + ||B||_F^2).
      A shorter result has no conjugate point before its end (Rauch
      comparison: the sectional curvature is at most ``CURVATURE_MAX``), so
      it is locally minimizing; that does not prove that no shorter
      geodesic reaches the target.
    * Stop: the loop is the one place that decides how the iteration ends.
      ||C||_F <= ``LOG_TAU`` ends it with the result, unless the certificate
      refuses it.  Every other end is a failure: a kernel raising
      ``ValueError`` (the polish's drift check, ``linalg.logm`` outside its
      domain, the step's ``dsyevd``), ||C||_F not below its value at the
      step before (stagnation: on converging logs it falls at every step,
      by a factor of at most 0.27 measured), or ``LOG_MAX_ITER`` steps, a
      backstop behind the stagnation verdict.
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
        For a single target (a stack returns it in the target's slot):
        if base and target lie in different components of O(n) (n = r),
        or the iteration ends without a certified result (see Stop); this
        is the operational "target too far from base" boundary.  The
        message names the reason (for a kernel failure, the kernel's
        operation) and the iteration, and lists ||C||_F at each iteration;
        ``iterations`` is that iteration (``LOG_MAX_ITER`` at the cap) and
        ``residual`` the last ||C||_F (inf before the first).
    """
    one = isinstance(target, StiefelPoint)
    targets = [target] if one else target
    bases = [base] * len(targets) if isinstance(base, StiefelPoint) else list(base)
    if len(bases) != len(targets):
        raise ShapeError(f"{len(bases)} bases for {len(targets)} targets")
    out, v = _completion(bases, targets)
    todo = [i for i, x in enumerate(out) if not isinstance(x, StiefelLogError)]
    if todo:
        for i, end in zip(todo, _iterate(v, bases[0].r)):
            out[i] = _readout(bases[i], out[i], *end)
    if one and isinstance(out[0], StiefelLogError):
        raise out[0]
    return out[0] if one else out


def dist(p: StiefelPoint | Sequence[StiefelPoint], q: StiefelPoint | Sequence[StiefelPoint]) -> float | list:
    """Riemannian distance: canonical norm of the logarithm, exactly 0 for identical points.

    Given sequences of points, the distances of the pairs (p[i], q[i]) from
    one stacked log: a list with a pair's StiefelLogError in its slot.
    """
    if isinstance(q, StiefelPoint):
        return 0.0 if np.array_equal(p.u, q.u) else norm(stiefel_log(p, q))
    out: list = [0.0] * len(q)
    todo = [i for i in range(len(q)) if not np.array_equal(p[i].u, q[i].u)]
    for i, xi in zip(todo, stiefel_log([p[i] for i in todo], [q[i] for i in todo])):
        out[i] = xi if isinstance(xi, StiefelLogError) else norm(xi)
    return out


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
