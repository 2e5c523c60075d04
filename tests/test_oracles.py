"""Closed-form answers that the library must reproduce.

The other geometric tests compare the library with itself (exp with log,
transport with ``dexp_stiefel``).  Here the answers come from elsewhere:

* St(n, 1) under the canonical metric is the unit sphere, whose log, exp
  and their derivatives are elementary;
* St(n, n) is O(n), whose geodesics are U expm(tA), so its log is U A and
  its dExp is U times the upper-right block of expm([[A, B], [0, A]]), not
  the ``scipy.linalg.expm_frechet`` that ``dexp_stiefel`` calls;
* the Hermite composite of samples of a geodesic, with their true
  velocities, is that geodesic;
* the sectional curvature of a plane is O'Neill's bracket formula, and the
  distance between two nearby geodesic endpoints must show it;
* U -> Theta U for Theta in O(n) is an isometry, and X -> B X for an
  orthonormal n x m B embeds St(m, r) in St(n, r) as a totally geodesic
  submanifold, so every map and fit must commute with both.

Each bound sits a few times above the value measured at one BLAS thread:
round-off for the log, the exp and dExp, the h^2 term of the central
difference for the transport, and the first-order term in delta for the
curvature.
"""

import functools

import numpy as np
import pytest
import scipy.linalg

from stiefel_hermite import calculus, interpolate as interp, stiefel
from stiefel_hermite.interpolate import HermiteSample
from stiefel_hermite.stiefel import StiefelPoint, TangentVector


def _unit(v):
    return v / np.linalg.norm(v)


def _sphere_pairs(count=50):
    """Seeded pairs (x, y, w) on S^{n-1}, n in 2..59, at angles 0.05 pi .. 0.85 pi.

    x and y are unit n x 1 columns; w is a unit direction tangent at y.
    """
    rng = np.random.default_rng(8)
    for i in range(count):
        n = 2 + i * 57 // (count - 1)
        theta = np.pi * (0.05 + 0.8 * i / (count - 1))
        x, t, w = (_unit(rng.standard_normal((n, 1))) for _ in range(3))
        y = np.cos(theta) * x + np.sin(theta) * _unit(t - x * np.vdot(x, t))
        yield x, y, _unit(w - y * np.vdot(y, w))


def _sphere_log(x, y):
    """Log_x(y) = theta / sin(theta) (y - cos(theta) x), theta = arccos(x'y)."""
    c = np.vdot(x, y)
    theta = np.arccos(c)
    return theta / np.sin(theta) * (y - c * x)


def _sphere_dlog(x, y, w):
    """Derivative of y -> Log_x(y) at y in the direction w."""
    c = np.vdot(x, y)
    theta = np.arccos(c)
    dc = np.vdot(x, w)
    g = theta / np.sin(theta)
    dg = (np.sin(theta) - theta * c) / np.sin(theta) ** 2 * (-dc / np.sin(theta))
    return dg * (y - c * x) + g * (w - dc * x)


def _sphere_exp(x, v):
    rho = np.linalg.norm(v)
    return np.cos(rho) * x + np.sin(rho) * v / rho


def _sphere_dexp(x, v, w):
    """Derivative of v -> Exp_x(v) at v in the direction w."""
    rho = np.linalg.norm(v)
    drho = np.vdot(v, w) / rho
    return (
        -np.sin(rho) * drho * x
        + np.cos(rho) * drho * v / rho
        + np.sin(rho) * (w / rho - v * drho / rho**2)
    )


class TestSphereOracle:
    """St(n, 1): the unit sphere, where every map has a closed form."""

    def test_log(self):
        err = 0.0
        for x, y, _ in _sphere_pairs():
            xi = stiefel.stiefel_log(stiefel.StiefelPoint(x), stiefel.StiefelPoint(y))
            err = max(err, np.linalg.norm(xi.delta - _sphere_log(x, y)))
        assert err <= 1e-14  # measured 2.9e-15

    def test_exp_and_dexp(self):
        exp_err = dexp_err = 0.0
        for x, y, w_y in _sphere_pairs():
            base = stiefel.StiefelPoint(x)
            v = _sphere_log(x, y)
            w = stiefel.project_tangent(base, w_y).delta
            exp_err = max(exp_err, np.linalg.norm(
                stiefel.stiefel_exp(stiefel.TangentVector(base, v)).u - _sphere_exp(x, v)))
            got = calculus.dexp_stiefel(stiefel.TangentVector(base, v), stiefel.TangentVector(base, w))
            dexp_err = max(dexp_err, np.linalg.norm(got - _sphere_dexp(x, v, w))
                           / np.linalg.norm(w))
        assert exp_err <= 1e-14  # measured 3.2e-15
        assert dexp_err <= 5e-15  # measured 1.2e-15

    def test_transport_is_the_derivative_of_the_log(self):
        # the central difference at h = 1e-4 leaves its h^2 term
        err = 0.0
        for x, y, w in _sphere_pairs():
            q, p = stiefel.StiefelPoint(x), stiefel.StiefelPoint(y)
            delta = stiefel.TangentVector(q, _sphere_log(x, y))
            v_hat = calculus.transport_velocity(delta, stiefel.TangentVector(p, w),
                                                h=calculus.DEFAULT_FD_STEP)
            exact = _sphere_dlog(x, y, w)
            err = max(err, np.linalg.norm(v_hat.delta - exact) / np.linalg.norm(exact))
        assert err <= 1e-7  # measured 2.3e-8


class TestOrthogonalGroupOracle:
    """St(n, n) = O(n): Exp_U(U A) = U expm(A), with ``scipy.linalg`` as the oracle."""

    def test_log(self, orthogonal_pairs):
        err = 0.0
        for u, a, _ in orthogonal_pairs(30):
            target = stiefel.StiefelPoint(u @ scipy.linalg.expm(a))
            xi = stiefel.stiefel_log(stiefel.StiefelPoint(u), target)
            err = max(err, np.linalg.norm(xi.delta - u @ a))
        assert err <= 1e-14  # measured 7.5e-15

    def test_dexp_is_block_triangular_expm(self, orthogonal_pairs):
        err = 0.0
        for u, a, rng in orthogonal_pairs(30):
            n = a.shape[0]
            base = stiefel.StiefelPoint(u)
            g = rng.standard_normal(a.shape)
            b = g - g.T
            got = calculus.dexp_stiefel(stiefel.TangentVector(base, u @ a),
                                        stiefel.TangentVector(base, u @ b))
            exact = u @ scipy.linalg.expm(np.block([[a, b], [np.zeros_like(a), a]]))[:n, n:]
            err = max(err, np.linalg.norm(got - exact) / np.linalg.norm(exact))
        assert err <= 1e-14  # measured 2.6e-15

    def test_transport_inverts_expm_frechet(self, orthogonal_pairs):
        # Log_U(V expm(s B)) = U logm(expm(A) expm(s B)), so its s-derivative
        # is U L with expm_frechet(A, L) = expm(A) B: one n^2 x n^2 solve.
        err = 0.0
        for u, a, rng in orthogonal_pairs(30):
            n = a.shape[0]
            g = rng.standard_normal(a.shape)
            b = g - g.T
            v = u @ scipy.linalg.expm(a)
            frechet = np.column_stack([
                scipy.linalg.expm_frechet(a, e.reshape(n, n), compute_expm=False).ravel()
                for e in np.eye(n * n)
            ])
            exact = u @ np.linalg.solve(frechet, (scipy.linalg.expm(a) @ b).ravel()).reshape(n, n)
            p = stiefel.StiefelPoint(v)
            delta = stiefel.TangentVector(stiefel.StiefelPoint(u), u @ a)
            v_hat = calculus.transport_velocity(delta, stiefel.TangentVector(p, v @ b),
                                                h=calculus.DEFAULT_FD_STEP)
            err = max(err, np.linalg.norm(v_hat.delta - exact) / np.linalg.norm(exact))
        assert err <= 5e-8  # measured 4.0e-8


def _geodesic(rng, n, r, length):
    """t -> gamma'(t) at gamma(t) = Exp_U(t xi), ||xi|| = length, from ``scipy.linalg.expm``.

    xi = U A + Q M over an orthonormal Q (n x min(r, n - r)) normal to U:
    gamma(t) = [U Q] expm(t G)[:, :r] and gamma'(t) = [U Q] (G expm(t G))[:, :r]
    with G = [[A, -M'], [M, 0]].
    """
    u = stiefel.random_point(rng, n, r).u
    k = min(r, n - r)
    q = rng.standard_normal((n, k))
    for _ in range(2):  # project twice: once leaves round-off of size ||U'Z||
        q = np.linalg.qr(q - u @ (u.T @ q))[0]
    g = rng.standard_normal((r, r))
    a, m = g - g.T, rng.standard_normal((k, r))
    gen = stiefel._generator(a, m)
    # canonical norm of U A + Q M: sqrt(||A||^2 / 2 + ||M||^2)
    gen *= length / np.sqrt(0.5 * np.sum(a * a) + np.sum(m * m))
    frame = np.hstack([u, q])

    def sample(t):
        e = scipy.linalg.expm(t * gen)
        point = stiefel.StiefelPoint(frame @ e[:, :r])
        return stiefel.TangentVector(point, frame @ (gen @ e)[:, :r])

    return sample


class TestGeodesicReproduction:
    """Samples of a geodesic with their true velocities: the interpolants are the geodesic.

    Between samples the transition map of a geodesic is linear in the
    parameter, so the central-difference transport is exact up to round-off
    and the Hermite interpolant of a linear function is that function.
    """

    @pytest.mark.parametrize("n, r", [(40, 3), (200, 6), (60, 6), (12, 1), (5, 5)])
    def test_composite_returns_the_geodesic(self, n, r):
        rng = np.random.default_rng(n + r)
        ts = np.linspace(0.0, 1.0, 5)
        err = 0.0
        for length in (0.6, 2.5):
            sample = _geodesic(rng, n, r, length)
            samples = [interp.HermiteSample(t, sample(t)) for t in ts]
            curves = [interp.fit_composite(samples, centering=c) for c in interp.CENTERINGS]
            curves.append(interp.geodesic_interp([(s.t, s.point) for s in samples]))
            for curve in curves:
                for t in np.linspace(0.0, 1.0, 33):
                    err = max(err, np.linalg.norm(curve(t).u - sample(t).base.u))
        assert err <= 2e-12  # measured 5.8e-13


def _relative(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestIsometryOracle:
    """The canonical metric does not see the ambient basis.

    ``TangentFrame`` relies on it ("any orthonormal Q whose span holds the
    normal part"); a kernel that reads the basis, a sign or a row order of
    the ambient space breaks it.
    """

    @pytest.mark.parametrize("n, r, fraction", [(40, 3, 0.57), (60, 6, 0.85), (5, 5, 0.5), (12, 1, 0.8)])
    def test_orthogonal_map(self, n, r, fraction):
        # Exp, Log and the transport at Theta U of Theta-mapped arguments are
        # Theta times their values at U.  The transport's central difference
        # amplifies the logs' round-off by 1/(2h), so it runs at h = 1e-2,
        # where it measures at most 2.8e-13; the identity holds at every h.
        rng = np.random.default_rng(n + r)
        theta = np.linalg.qr(rng.standard_normal((n, n)))[0]
        u = stiefel.random_point(rng, n, r)
        xi = stiefel.random_tangent(rng, u, fraction * np.pi)
        y = stiefel.stiefel_exp(xi)
        w = stiefel.random_tangent(rng, y)
        log = stiefel.stiefel_log(u, y)
        tu, ty = StiefelPoint(theta @ u.u), StiefelPoint(theta @ y.u)
        t_log = TangentVector(tu, theta @ log.delta)
        errs = [
            _relative(stiefel.stiefel_exp(TangentVector(tu, theta @ xi.delta)).u, theta @ y.u),
            _relative(stiefel.stiefel_log(tu, ty).delta, theta @ log.delta),
            _relative(calculus.transport_velocity(t_log, TangentVector(ty, theta @ w.delta), 1e-2).delta,
                      theta @ calculus.transport_velocity(log, w, 1e-2).delta),
        ]
        assert max(errs) <= 1e-12  # exp and log measured at most 2.0e-15

    def test_embedding(self, qr_path):
        # The QR path's samples in its 4r coordinates (St(24, 6)) and lifted
        # back to St(100, 6) by its basis B: each fit of the lifted samples
        # is B times the fit of the coordinates.
        b = qr_path.path.basis
        small = [HermiteSample(s.t, TangentVector(StiefelPoint(b.T @ s.point.u), b.T @ s.velocity.delta))
                 for s in qr_path.samples]
        lifted = [HermiteSample(s.t, TangentVector(StiefelPoint(b @ s.point.u), b @ s.velocity.delta))
                  for s in small]
        fits = [functools.partial(interp.fit_composite, centering=c) for c in interp.CENTERINGS]
        fits += [lambda ss: interp.geodesic_interp([(s.t, s.point) for s in ss]),
                 lambda ss: interp.tangent_rbf_interp([(s.t, s.point) for s in ss])]
        err = 0.0
        for fit in fits:
            curve, reduced = fit(lifted), fit(small)
            for t in np.linspace(curve.knots[0], curve.knots[-1], 23):
                err = max(err, _relative(curve(t).u, b @ reduced(t).u))
        assert err <= 1e-12  # measured 3.4e-13


def _plane_curvature(base, x, y):
    """O'Neill: K = |[X, Y]_m|^2 / 4 + |[X, Y]_h|^2 for an orthonormal pair x, y.

    X and Y are the horizontal lifts [[A, -M'], [M, 0]] of x and y over one
    tangent frame of both; the canonical metric is (1/2) tr(X'Y) on them.
    The h part of the bracket is its lower-right block, the m part the rest.
    """
    frame = stiefel.tangent_frame(base, [x.delta, y.delta])
    r = base.r
    lx, ly = (stiefel._generator(c[:r], c[r:]) for c in frame.coords)
    bracket = lx @ ly - ly @ lx
    h = np.zeros_like(bracket)
    h[r:, r:] = bracket[r:, r:]
    return 0.25 * 0.5 * np.sum((bracket - h) ** 2) + 0.5 * np.sum(h**2)


def _observed_curvature(base, x, y, delta, s0):
    """K_obs = 3 (2 delta^2 (1 - cos s0) - d^2) / (delta^4 sin^2 s0).

    d is the distance between Exp(delta x) and Exp(delta z) for the unit z
    at angle s0 from x in the plane; d^2 = 2 delta^2 (1 - cos s0)
    - (K / 3) delta^4 sin^2 s0 + O(delta^5), so K_obs - K = O(delta).
    """
    z = np.cos(s0) * x + np.sin(s0) * y
    d = stiefel.dist(stiefel.stiefel_exp(delta * x), stiefel.stiefel_exp(delta * z))
    return 3.0 * (2.0 * delta**2 * (1.0 - np.cos(s0)) - d**2) / (delta**4 * np.sin(s0) ** 2)


#: Seeded planes (n, r, seed); r = 1 is the unit sphere, K = 1.
PLANES = [(12, 1, 0), (30, 1, 1), (12, 3, 2), (12, 3, 3), (40, 4, 4), (40, 4, 5),
          (6, 2, 6), (6, 2, 7), (101, 3, 8), (101, 3, 9), (20, 5, 10), (8, 4, 11)]


@pytest.mark.parametrize("n, r, seed", PLANES)
def test_observed_curvature_tends_to_oneill(n, r, seed):
    """The distance between nearby geodesic endpoints shows the plane's curvature."""
    rng = np.random.default_rng(seed)
    base = stiefel.random_point(rng, n, r)
    x, y = stiefel.random_tangent(rng, base), stiefel.random_tangent(rng, base)
    y = y - stiefel.metric(x, y) * x
    y = (1.0 / stiefel.norm(y)) * y
    k = _plane_curvature(base, x, y)
    assert 0.0 <= k <= stiefel.CURVATURE_MAX
    if r == 1:
        assert k == pytest.approx(1.0, abs=1e-12)
    for s0 in (np.pi / 2, np.pi / 3):
        for delta in (0.1, 0.05, 0.025):
            # first order in delta; measured at most 0.03 delta
            assert abs(_observed_curvature(base, x, y, delta, s0) - k) <= 0.06 * delta
