import numpy as np
import pytest

from stiefel_hermite import calculus, interpolate, linalg, stiefel
from stiefel_hermite import experiments as ex
from stiefel_hermite.errors import (
    ArcFitError,
    DomainError,
    PreconditionError,
    ShapeError,
    StiefelLogError,
)

from conftest import assert_v_shape, expm_series, rank_one_tangent, rank_r_path


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def fd_qr(t, t_dot, h=1e-6):
    return (linalg.qr_econ(t + h * t_dot).q - linalg.qr_econ(t - h * t_dot).q) / (2 * h)


class TestDiffQR:
    def test_zero_direction(self, rng):
        t = rng.standard_normal((10, 4))
        assert np.linalg.norm(calculus.diff_qr(np.zeros_like(t), linalg.qr_econ(t))) < 1e-14

    def test_pure_r_path(self, rng):
        # T(s) = Q0 (R0 + s Rdot0) with upper-triangular Rdot0: Q stays put
        q0 = linalg.qr_econ(rng.standard_normal((12, 4))).q
        r0 = np.triu(rng.standard_normal((4, 4))) + 4.0 * np.eye(4)
        rdot0 = np.triu(rng.standard_normal((4, 4)))
        t = q0 @ r0
        t_dot = q0 @ rdot0
        q_dot = calculus.diff_qr(t_dot, linalg.qr_econ(t))
        assert np.linalg.norm(q_dot) < 1e-10
        assert np.linalg.norm(q_dot - fd_qr(t, t_dot)) < 1e-6

    def test_matches_fd_oracle(self, rng):
        t = rng.standard_normal((30, 5))
        t_dot = rng.standard_normal((30, 5))
        q_dot = calculus.diff_qr(t_dot, linalg.qr_econ(t))
        fd_q = fd_qr(t, t_dot)
        assert np.linalg.norm(q_dot - fd_q) <= 1e-6 * np.linalg.norm(fd_q)

    def test_tiny_full_rank_matrix_matches_fd_oracle(self, rng):
        # Q is scale invariant, so a full-rank matrix of norm 1e-14 is as
        # differentiable as its unit-scale version; qr_econ's rank test is
        # relative to ||T||_F and diff_qr has no second one.
        t = 1e-14 * rng.standard_normal((10, 3))
        t_dot = 1e-14 * rng.standard_normal((10, 3))
        qr = linalg.qr_econ(t)
        assert not qr.rank_deficient
        fd_q = fd_qr(t, t_dot)
        assert np.linalg.norm(calculus.diff_qr(t_dot, qr) - fd_q) <= 1e-6 * np.linalg.norm(fd_q)

    def test_raises_exactly_when_qr_econ_flags_rank_deficiency(self, rng):
        # third column = first + eps * noise: deficient below eps ~ RANK_EPS
        outcomes = set()
        for scale in (1e-14, 1e-6, 1.0, 1e3):
            for eps in np.logspace(-16, -10, 13):
                a = rng.standard_normal((10, 3))
                a[:, 2] = a[:, 0] + eps * rng.standard_normal(10)
                qr = linalg.qr_econ(scale * a)
                try:
                    calculus.diff_qr(scale * rng.standard_normal((10, 3)), qr)
                    raised = False
                except DomainError:
                    raised = True
                assert raised == qr.rank_deficient, (scale, eps)
                outcomes.add(raised)
        assert outcomes == {True, False}

    def test_invariants(self, rng):
        t = rng.standard_normal((20, 6))
        t_dot = rng.standard_normal((20, 6))
        qr = linalg.qr_econ(t)
        q_dot = calculus.diff_qr(t_dot, qr)
        x = qr.q.T @ q_dot
        assert np.linalg.norm(x + x.T) < 1e-10
        # Tdot - Qdot R = Q Rdot with Rdot upper triangular
        rest = t_dot - q_dot @ qr.r_factor
        assert np.linalg.norm(rest - qr.q @ (qr.q.T @ rest)) <= 1e-10 * np.linalg.norm(t_dot)
        assert np.linalg.norm(np.tril(qr.q.T @ rest, k=-1)) <= 1e-10 * np.linalg.norm(t_dot)

    def test_singular_r_rejected(self, rng):
        t = np.zeros((8, 3))
        t[:, 0] = 1.0
        qr = linalg.qr_econ(t)
        with pytest.raises(DomainError):
            calculus.diff_qr(rng.standard_normal((8, 3)), qr)

    def test_shape_mismatch_rejected(self, rng):
        qr = linalg.qr_econ(rng.standard_normal((8, 3)))
        with pytest.raises(ShapeError, match="t_dot"):
            calculus.diff_qr(rng.standard_normal((8, 2)), qr)


def truncated_svd(y, r):
    """The leading rank-r factors of y and all its singular values, as diff_svd_truncated takes them."""
    u, s, v = linalg.svd_full(y)
    return u[:, :r], s, v[:, :r]


def fd_svd(y, y_dot, u_ref, h=1e-6):
    """Central FD of the SVD path, sign-normalized against u_ref."""
    def factors(mat):
        u, s, v = linalg.svd_full(mat)
        un, vn = calculus.svd_sign_normalize(u, v, u_ref)
        return un, s, vn

    up, sp, vp = factors(y + h * y_dot)
    um, sm, vm = factors(y - h * y_dot)
    return (up - um) / (2 * h), (sp - sm) / (2 * h), (vp - vm) / (2 * h)


class TestDiffSVD:
    """``diff_svd_truncated`` at rank = m: the full economy SVD."""

    def test_diagonal_case(self):
        y = np.zeros((5, 2))
        y[0, 0], y[1, 1] = 3.0, 1.0
        y_dot = np.zeros((5, 2))
        y_dot[0, 0], y_dot[1, 1] = 0.5, 0.2
        u_dot, sigma_dot, v_dot = calculus.diff_svd_truncated(y_dot, linalg.svd_full(y))
        assert np.allclose(sigma_dot, [0.5, 0.2], atol=1e-14)
        assert np.linalg.norm(u_dot) < 1e-12
        assert np.linalg.norm(v_dot) < 1e-12

    def test_zero_direction(self, rng):
        y = rng.standard_normal((10, 4))
        u_dot, sigma_dot, v_dot = calculus.diff_svd_truncated(np.zeros_like(y), linalg.svd_full(y))
        assert np.linalg.norm(u_dot) < 1e-13
        assert np.linalg.norm(v_dot) < 1e-13
        assert np.linalg.norm(sigma_dot) < 1e-13

    def test_matches_fd_oracle(self, rng):
        y = rng.standard_normal((12, 6))
        y_dot = rng.standard_normal((12, 6))
        u, s, v = linalg.svd_full(y)
        u_dot, sigma_dot, v_dot = calculus.diff_svd_truncated(y_dot, (u, s, v))
        fd_u, fd_s, fd_v = fd_svd(y, y_dot, u)
        assert np.linalg.norm(u_dot - fd_u) <= 1e-6 * np.linalg.norm(fd_u)
        assert np.linalg.norm(sigma_dot - fd_s) <= 1e-6 * np.linalg.norm(fd_s)
        assert np.linalg.norm(v_dot - fd_v) <= 1e-6 * np.linalg.norm(fd_v)

    def test_left_factor_derivative_is_tangent(self, rng):
        y = rng.standard_normal((15, 5))
        y_dot = rng.standard_normal((15, 5))
        u, s, v = linalg.svd_full(y)
        u_dot, _, _ = calculus.diff_svd_truncated(y_dot, (u, s, v))
        skew = u.T @ u_dot
        assert np.linalg.norm(skew + skew.T) < 1e-9

    def test_repeated_singular_values_rejected(self, rng):
        # leading gaps of 1e-12 and 1e-7 sigma_0 are refused (SVD_GAP_EPS = 1e-6), 1e-5 is not
        u = linalg.qr_econ(rng.standard_normal((8, 3))).q
        v = linalg.qr_econ(rng.standard_normal((3, 3))).q
        y_dot = rng.standard_normal((8, 3))
        for gap in (1e-12, 1e-7):
            svd = linalg.svd_full(u @ np.diag([2.0, 1.0 + gap, 1.0]) @ v.T)
            with pytest.raises(DomainError, match="apart"):
                calculus.diff_svd_truncated(y_dot, svd)
        calculus.diff_svd_truncated(y_dot, linalg.svd_full(u @ np.diag([2.0, 1.0 + 1e-5, 1.0]) @ v.T))

    def test_zero_singular_value_rejected(self, rng):
        y = np.zeros((6, 2))
        y[0, 0] = 1.0
        with pytest.raises(DomainError):
            calculus.diff_svd_truncated(rng.standard_normal((6, 2)), linalg.svd_full(y))

    def test_shape_mismatch_rejected(self, rng):
        svd = truncated_svd(rng.standard_normal((8, 3)), 2)
        for y_dot in (rng.standard_normal((7, 3)), rng.standard_normal((8, 2))):
            with pytest.raises(ShapeError, match="y_dot"):
                calculus.diff_svd_truncated(y_dot, svd)


class TestDiffSVDTruncated:
    def test_reconstruction_derivative(self, rng):
        w, w_dot, _ = rank_r_path(rng, 40, 15, 4)
        u, s, v = truncated_svd(w, 4)
        u_dot, sigma_dot, v_dot = calculus.diff_svd_truncated(w_dot, (u, s, v))
        rec = (
            u_dot @ np.diag(s[:4]) @ v.T
            + u @ np.diag(sigma_dot) @ v.T
            + u @ np.diag(s[:4]) @ v_dot.T
        )
        assert np.linalg.norm(rec - w_dot) <= 1e-8 * np.linalg.norm(w_dot)

    def test_zero_direction(self, rng):
        w, _, _ = rank_r_path(rng, 20, 10, 3)
        u_dot, _, v_dot = calculus.diff_svd_truncated(np.zeros_like(w), truncated_svd(w, 3))
        assert np.linalg.norm(u_dot) < 1e-12
        assert np.linalg.norm(v_dot) < 1e-12

    def test_matches_fd_oracle(self, rng):
        w, w_dot, path = rank_r_path(rng, 30, 12, 4)
        u, s, v = truncated_svd(w, 4)
        u_dot, sigma_dot, v_dot = calculus.diff_svd_truncated(w_dot, (u, s, v))

        def factors(t):
            uu, ss, vv = truncated_svd(path(t), 4)
            un, vn = calculus.svd_sign_normalize(uu, vv, u)
            return un, ss[:4], vn

        h = 1e-6
        up, sp, vp = factors(h)
        um, sm, vm = factors(-h)
        assert np.linalg.norm(u_dot - (up - um) / (2 * h)) <= 1e-6 * np.linalg.norm(u_dot)
        assert np.linalg.norm(v_dot - (vp - vm) / (2 * h)) <= 1e-6 * np.linalg.norm(v_dot)
        assert np.linalg.norm(sigma_dot - (sp - sm) / (2 * h)) <= 1e-6 * np.linalg.norm(sigma_dot)

    def test_gap_at_the_threshold_accepted(self):
        # only a gap below SVD_GAP_EPS * sigma_0 is refused; at sigma_0 = 1e6
        # the threshold is 1.0 and the gap 1e6 - 999999 is 1.0, both exact
        u, v, y_dot = np.eye(4)[:, :2], np.eye(3)[:, :2], np.ones((4, 3))
        s0 = 1e6
        assert calculus.SVD_GAP_EPS * s0 == 1.0
        calculus.diff_svd_truncated(y_dot, (u, np.array([s0, s0 - 1.0, 0.0]), v))
        with pytest.raises(DomainError, match="SVD_GAP_EPS"):
            calculus.diff_svd_truncated(y_dot, (u, np.array([s0, np.nextafter(s0 - 1.0, s0), 0.0]), v))

    def test_shapes_rejected(self, rng):
        # the rank is read off the factors, so u and v must agree on it
        w, w_dot, _ = rank_r_path(rng, 20, 10, 3)
        u, s, v = truncated_svd(w, 3)
        with pytest.raises(ShapeError, match="column counts"):
            calculus.diff_svd_truncated(w_dot, (u, s, v[:, :2]))
        with pytest.raises(ShapeError, match="column counts"):
            calculus.diff_svd_truncated(w_dot, (u[:, :2], s, v))
        for y_dot in (w_dot[:, :9], w_dot[:19], w_dot.T):
            with pytest.raises(ShapeError, match="y_dot"):
                calculus.diff_svd_truncated(y_dot, (u, s, v))


class TestSignNormalize:
    def test_identity(self, rng):
        u = linalg.qr_econ(rng.standard_normal((8, 3))).q
        v = linalg.qr_econ(rng.standard_normal((5, 3))).q
        un, vn = calculus.svd_sign_normalize(u, v, u)
        assert np.array_equal(un, u)
        assert np.array_equal(vn, v)

    def test_full_flip(self, rng):
        u = linalg.qr_econ(rng.standard_normal((8, 3))).q
        v = linalg.qr_econ(rng.standard_normal((5, 3))).q
        un, vn = calculus.svd_sign_normalize(-u, v, u)
        assert np.allclose(un, u)
        assert np.allclose(vn, -v)

    def test_all_sign_patterns(self, rng):
        u = linalg.qr_econ(rng.standard_normal((9, 3))).q
        v = linalg.qr_econ(rng.standard_normal((4, 3))).q
        for bits in range(8):
            signs = np.array([1.0 if bits & (1 << j) == 0 else -1.0 for j in range(3)])
            un, vn = calculus.svd_sign_normalize(u * signs, v * signs, u)
            assert np.allclose(un, u)
            assert np.allclose(vn, v)
            assert np.all(np.sum(un * u, axis=0) >= 0)

    def test_tie_rejected(self, rng):
        u = np.eye(4)[:, :2]
        u_t = np.eye(4)[:, 2:]  # orthogonal to u: diagonal entries exactly zero
        with pytest.raises(DomainError):
            calculus.svd_sign_normalize(u_t, u_t, u)


class TestDexpStiefel:
    def test_zero_base_velocity_is_identity(self, rng):
        u = stiefel.random_point(rng, 20, 4)
        v = stiefel.random_tangent(rng, u)
        zero = stiefel.TangentVector(u, np.zeros((20, 4)))
        out = calculus.dexp_stiefel(zero, v)
        assert np.linalg.norm(out - v.delta) <= 1e-14 * np.linalg.norm(v.delta)

    def test_zero_direction(self, rng):
        u = stiefel.random_point(rng, 20, 4)
        xi = stiefel.random_tangent(rng, u)
        zero = stiefel.TangentVector(u, np.zeros((20, 4)))
        assert np.linalg.norm(calculus.dexp_stiefel(xi, zero)) < 1e-12

    def test_along_itself_is_geodesic_velocity(self, rng):
        # d/ds Exp(xi + s xi) at s = 0 is the velocity at t = 1 of the
        # geodesic Exp(t xi): (U, Q) expm(G) G [I; 0], G = [[A, -M'], [M, 0]]
        n, r = 20, 4
        w = np.linalg.qr(rng.standard_normal((n, n)))[0]
        u, q = w[:, :r], w[:, r : 2 * r]
        g = rng.standard_normal((r, r))
        a, m = 0.3 * (g - g.T), 0.4 * rng.standard_normal((r, r))
        gen = np.block([[a, -m.T], [m, np.zeros((r, r))]])
        xi = stiefel.TangentVector(stiefel.StiefelPoint(u), u @ a + q @ m)
        expected = w[:, : 2 * r] @ (expm_series(gen) @ gen)[:, :r]
        out = calculus.dexp_stiefel(xi, xi)
        assert np.linalg.norm(out - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_linearity(self, rng):
        u = stiefel.random_point(rng, 20, 4)
        xi = stiefel.random_tangent(rng, u, scale=0.8)
        v1, v2 = stiefel.random_tangent(rng, u), stiefel.random_tangent(rng, u)
        combo = calculus.dexp_stiefel(xi, 2.0 * v1 - 3.0 * v2)
        parts = 2.0 * calculus.dexp_stiefel(xi, v1) - 3.0 * calculus.dexp_stiefel(xi, v2)
        assert np.linalg.norm(combo - parts) <= 1e-14 * np.linalg.norm(parts)

    @staticmethod
    def _fd(xi, v, h=1e-5):
        return (stiefel.stiefel_exp(xi + h * v).u - stiefel.stiefel_exp(xi - h * v).u) / (2 * h)

    def test_matches_fd_oracle(self, rng):
        u = stiefel.random_point(rng, 40, 4)
        xi = stiefel.random_tangent(rng, u, scale=0.8)
        v = stiefel.random_tangent(rng, u, scale=1.0)
        out = calculus.dexp_stiefel(xi, v)
        fd = self._fd(xi, v)
        assert np.linalg.norm(out - fd) <= 1e-6 * np.linalg.norm(fd)

    @pytest.mark.parametrize("kind", ["vertical", "rank_one", "n_below_2r"])
    def test_rank_deficient_matches_fd_oracle(self, kind, rng):
        # Normal parts of rank below r, and a frame basis of fewer than 2r columns.
        if kind == "vertical":
            u = stiefel.random_point(rng, 15, 3)
            a = rng.standard_normal((3, 3))
            xi = stiefel.TangentVector(u, u.u @ (a - a.T))
        elif kind == "rank_one":
            xi = rank_one_tangent(rng, 20, 4)
        else:
            xi = stiefel.random_tangent(rng, stiefel.random_point(rng, 8, 6), scale=0.8)
        v = stiefel.random_tangent(rng, xi.base)
        out = calculus.dexp_stiefel(xi, v)
        fd = self._fd(xi, v)
        assert np.linalg.norm(out - fd) <= 1e-6 * np.linalg.norm(fd)


class TestTransport:
    """The exact transport dExp_q(delta)^{-1}[v_p], and the paper's central difference."""

    def test_same_point_recovers_velocity(self, rng):
        # delta = 0, where dExp is the identity: also at n < 2r and n = r
        for n, r in ((20, 4), (5, 3), (4, 4)):
            p = stiefel.random_point(rng, n, r)
            v = stiefel.random_tangent(rng, p, scale=0.9)
            out = calculus.transport_velocity(stiefel.TangentVector(p, np.zeros((n, r))), v)
            assert np.linalg.norm(out.delta - v.delta) <= 1e-14  # measured at most 4.9e-16

    def test_output_is_tangent_at_target(self, rng):
        p = stiefel.random_point(rng, 25, 4)
        q = stiefel.stiefel_exp(stiefel.random_tangent(rng, p, 0.5))
        v = stiefel.random_tangent(rng, p)
        out = calculus.transport_velocity(stiefel.stiefel_log(q, p), v)
        ud = q.u.T @ out.delta
        assert np.linalg.norm(ud + ud.T) < 1e-14  # measured 1.2e-16
        assert np.array_equal(out.base.u, q.u)

    def test_reads_only_the_tangent_part(self, rng):
        # v_p + p S with S symmetric passes the tangency check at 1e-10 and
        # has the tangent part v_p: the transport drops p S with the
        # symmetric part of Omega_11 (measured at most 3.2e-16 relative)
        for n, r in ((25, 4), (5, 3)):
            p = stiefel.random_point(rng, n, r)
            delta = stiefel.stiefel_log(stiefel.stiefel_exp(stiefel.random_tangent(rng, p, 0.5)), p)
            v = stiefel.random_tangent(rng, p)
            g = rng.standard_normal((r, r))
            off = stiefel.TangentVector(p, v.delta + p.u @ (1e-10 * (g + g.T)))
            moved = calculus.transport_velocity(delta, off).delta - calculus.transport_velocity(delta, v).delta
            assert np.linalg.norm(moved) <= 1e-14 * np.linalg.norm(v.delta)

    @staticmethod
    def _round_trip(delta, v):
        """||dExp_q(delta)[transport_velocity(delta, v)] - v||_F over max(||v||_F, 1): a zero v must come back zero."""
        back = calculus.dexp_stiefel(delta, calculus.transport_velocity(delta, v))
        return np.linalg.norm(back - v.delta) / max(np.linalg.norm(v.delta), 1.0)

    def test_round_trip_on_the_study_instances(self):
        # the transport study's snapshot pair at St(1001, 6), and each arc of
        # a fit_far path at St(1000, 10), samples 0.57 pi apart
        q, v = ex.snapshot_transport_instance(ex.ExperimentConfig(n=1001, r=6, seed=0))
        errs = [self._round_trip(stiefel.stiefel_log(q, v.base), v)]
        cfg = ex.ExperimentConfig(n=1000, r=10, interval=(-1.1, 1.1), num_nodes=3, seed=7)
        samples = ex.gen_qr_experiment(cfg).samples
        for s0, s1 in zip(samples, samples[1:]):
            for near, far in ((s0, s1), (s1, s0)):
                errs.append(self._round_trip(stiefel.stiefel_log(near.point, far.point), far.velocity))
        assert max(errs) <= 1e-13  # measured 3.3e-15

    @pytest.mark.parametrize("name", ["generic", "square", "rank-one", "zero-velocity"])
    def test_round_trip_on_the_pairs(self, name):
        assert self._round_trip(*self._pairs()[name]) <= 1e-13  # measured at most 2.3e-15

    def test_round_trip_below_twice_the_rank(self, rng):
        # St(5, 3): the frame [U Q] spans R^5 with Q of 2 < r columns
        u = stiefel.random_point(rng, 5, 3)
        for scale in (0.3, 1.0, 2.0):
            delta = stiefel.stiefel_log(u, stiefel.stiefel_exp(stiefel.random_tangent(rng, u, scale)))
            v = stiefel.random_tangent(rng, stiefel.stiefel_exp(delta))
            assert self._round_trip(delta, v) <= 1e-13  # measured at most 1.6e-15

    @staticmethod
    def _failing_pair():
        """(Log_q(p), v_p) with Log_q(p) just below the certificate's
        LOG_NORM_MAX and v_p along the geodesic away from q, so the central
        difference's +h log passes the bound."""
        rng = np.random.default_rng(101)
        xi = rank_one_tangent(rng, 8, 3)
        xi = (stiefel.LOG_NORM_MAX * (1.0 - 5e-5) / stiefel.norm(xi)) * xi
        p = stiefel.stiefel_exp(xi)
        v = stiefel.project_tangent(p, calculus.dexp_stiefel(xi, xi))
        return stiefel.stiefel_log(xi.base, p), v

    def test_failure_names_side(self):
        delta, v = self._failing_pair()
        with pytest.raises(StiefelLogError, match=r"\+h offset point of step h = 0\.0001: .*not below") as info:
            calculus.validate_transport(delta.base, v, (1e-4,))
        cause = info.value.__cause__
        assert isinstance(cause, StiefelLogError)
        assert (info.value.iterations, info.value.residual) == (cause.iterations, cause.residual)

    def test_arc_fit_transports_where_the_central_difference_fails(self):
        # p, carrying v, is the far sample of a q-centered arc: the exact
        # transport takes no log past Log_q(p), so the fit succeeds, and its
        # far velocity is dLog_q(p)[v]
        delta, v = self._failing_pair()
        far = interpolate.HermiteSample(0.0, v)
        near = interpolate.HermiteSample(1.0, stiefel.TangentVector(delta.base, np.zeros_like(delta.delta)))
        frame = interpolate.fit_arc(far, near, centering="q")
        v_far = frame.combination((0.0, 1.0, 0.0))
        assert np.linalg.norm(calculus.dexp_stiefel(delta, v_far) - v.delta) <= 1e-13 * np.linalg.norm(v.delta)

    @staticmethod
    def _pairs():
        """Seeded (Log_q(p), v_p) by name: a generic pair at St(40, 3), n = r,
        a rank-one normal part at 0.85 pi at St(60, 6) and a zero velocity."""
        rng = np.random.default_rng(12)
        generic = stiefel.random_tangent(rng, stiefel.random_point(rng, 40, 3), 0.57 * np.pi)
        square = stiefel.random_tangent(rng, stiefel.random_point(rng, 5, 5), 0.5 * np.pi)
        rank_one = rank_one_tangent(rng, 60, 6)
        rank_one = (0.85 * np.pi / stiefel.norm(rank_one)) * rank_one
        pairs = {}
        for name, xi, zero in (("generic", generic, False), ("square", square, False),
                               ("rank-one", rank_one, False), ("zero-velocity", generic, True)):
            p = stiefel.stiefel_exp(xi)
            v = stiefel.random_tangent(rng, p)
            pairs[name] = stiefel.stiefel_log(xi.base, p), (0.0 if zero else 1.0) * v
        return pairs


class TestValidateTransport:
    def test_coarse_step(self, transport_pair):
        q, v = transport_pair
        (err,) = calculus.validate_transport(q, v, (1e-2,))
        assert 1e-9 < err < 1e-5  # second-order error at coarse step

    def test_tuned_step(self, transport_pair):
        q, v = transport_pair
        (err,) = calculus.validate_transport(q, v, (1e-4,))
        assert err <= 1e-8

    def test_roundoff_regime(self, transport_pair):
        q, v = transport_pair
        fine, tuned = calculus.validate_transport(q, v, (1e-7, 1e-4))
        assert fine > tuned  # roundoff dominates below the sweet spot

    @pytest.mark.parametrize("h", [0.0, -1e-4, np.nan, np.inf])
    def test_bad_step_rejected(self, transport_pair, kernel_calls, h):
        # every step is checked before any log is taken
        q, v = transport_pair
        with pytest.raises(PreconditionError, match="step h"):
            calculus.validate_transport(q, v, (1e-4, h))
        assert kernel_calls == {}

    def test_v_shape(self, transport_pair):
        q, v = transport_pair
        assert_v_shape(calculus.validate_transport(q, v, ex.TRANSPORT_STEPS))
