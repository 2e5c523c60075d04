import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefel_hermite import linalg, stiefel
from stiefel_hermite.errors import DomainError, PreconditionError, ShapeError

from conftest import expm_series


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(linalg.expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        out = linalg.expm(np.diag([1.0, 2.0]))
        assert np.allclose(out, np.diag([np.e, np.e**2]), rtol=1e-14)

    def test_rotation_closed_form(self):
        theta = np.pi / 2
        x = np.array([[0.0, -theta], [theta, 0.0]])
        expected = np.array([[0.0, -1.0], [1.0, 0.0]])
        out = linalg.expm(x)
        assert np.linalg.norm(out - expected) < 1e-12
        assert np.linalg.norm(out - expm_series(x)) < 1e-12

    def test_skew_gives_orthogonal(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((6, 6))
        s = s - s.T
        q = linalg.expm(s)
        assert np.linalg.norm(q.T @ q - np.eye(6)) < 1e-12

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(1)
        x = 0.8 * rng.standard_normal((5, 5))
        assert np.linalg.norm(linalg.expm(x) - expm_series(x)) < 1e-12

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            linalg.expm(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            linalg.expm(np.ones(3))

    def test_stack_is_each_matrix_exponential(self):
        x = 0.8 * np.random.default_rng(3).standard_normal((4, 5, 5))
        out = linalg.expm(x)
        for xi, e in zip(x, out):
            assert np.linalg.norm(e - linalg.expm(xi)) <= 1e-14 * np.linalg.norm(e)


def rotation_generator(rng, angles, n):
    """Skew n x n matrix with rotation angles ``angles`` in a random orthonormal frame."""
    theta = np.zeros((n, n))
    for j, ang in enumerate(angles):
        theta[2 * j + 1, 2 * j] = ang
        theta[2 * j, 2 * j + 1] = -ang
    z = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return z @ theta @ z.T


class TestLogm:
    def test_identity(self):
        assert np.allclose(linalg.logm(np.eye(4)), 0.0, atol=1e-14)

    @pytest.mark.parametrize("seed, size, norm_scale", [
        (2, 5, 0.5), (4, 6, 0.5), (4, 6, 1.0), (4, 6, 2.0),
    ], ids=["skew", "0.5", "1.0", "2.0"])
    def test_round_trip_scaled_skew(self, seed, size, norm_scale):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((size, size))
        s = s - s.T
        s *= norm_scale / np.linalg.norm(s)
        rec = linalg.logm(linalg.expm(s))
        assert np.linalg.norm(rec - s) <= 1e-8 * np.linalg.norm(s)

    @pytest.mark.parametrize("top_fraction", [0.5, 0.9, 0.99])
    def test_round_trip_large_angles(self, top_fraction):
        # angles up to 0.99 pi, where the principal log is still defined
        rng = np.random.default_rng(20)
        s = rotation_generator(rng, [top_fraction * np.pi, 0.6, 0.1], 7)
        rec = linalg.logm(linalg.expm(s))
        assert np.linalg.norm(rec - s) <= 1e-12 * np.linalg.norm(s)

    def test_output_exactly_skew(self):
        rng = np.random.default_rng(21)
        out = linalg.logm(linalg.expm(rotation_generator(rng, [2.5, 1.0, 0.3], 6)))
        assert np.array_equal(out + out.T, np.zeros((6, 6)))

    def test_matches_scipy_logm(self):
        # sizes 2-24, angles up to 0.99 pi, some repeated, some zero (+1
        # eigenvalues); measured 2.3e-14 at worst
        rng = np.random.default_rng(23)
        for i in range(200):
            n = 2 + i % 23
            angles = rng.uniform(0.0, 0.99 * np.pi, n // 2)
            if i % 5 == 1:
                angles[: n // 4 + 1] = angles[0]
            if i % 7 == 2:
                angles[n // 4 :] = 0.0
            v = scipy.linalg.expm(rotation_generator(rng, angles, n))
            ref = scipy.linalg.logm(v).real
            err = np.linalg.norm(linalg.logm(v) - ref)
            assert err <= 1e-12 * max(np.linalg.norm(ref), 1.0)

    def test_rotation_near_identity(self):
        # measured 1.4e-15 at worst; a real-Schur-form log lost 2.4e-6 here
        rng = np.random.default_rng(24)
        for i in range(200):
            s = rotation_generator(rng, [1e-9], 2 + i % 23)
            rec = linalg.logm(scipy.linalg.expm(s))
            assert np.linalg.norm(rec - s) <= 1e-12 * np.linalg.norm(s)

    def test_reflection_rejected(self):
        rng = np.random.default_rng(25)
        for n in (1, 2, 5, 12):
            z = np.linalg.qr(rng.standard_normal((n, n)))[0]
            v = z @ np.diag([-1.0] + [1.0] * (n - 1)) @ z.T
            with pytest.raises(DomainError):
                linalg.logm(v)

    @pytest.mark.parametrize("others", [[], [0.5], [0.5, 2.0, 1e-3]])
    def test_rotation_near_pi_round_trips(self, others):
        # measured 3.2e-15 and 8.1e-16 at worst: a plane near pi keeps its
        # accuracy next to planes at other angles
        rng = np.random.default_rng(26)
        s = rotation_generator(rng, [np.pi - 1e-6, *others], 9)
        v = scipy.linalg.expm(s)
        rec = linalg.logm(v)
        assert np.linalg.norm(scipy.linalg.expm(rec) - v) <= 1e-13
        assert np.linalg.norm(rec - s) <= 1e-13 * np.linalg.norm(s)

    def test_rotation_by_pi_rejected(self):
        v = np.eye(5)
        v[:2, :2] = -np.eye(2)
        with pytest.raises(DomainError):
            linalg.logm(v)

    @staticmethod
    def near_pi(rng, n):
        """An n x n rotation by pi - 4 n eps in one plane, in a random orthonormal frame."""
        theta = np.pi - 4 * n * np.finfo(float).eps
        rot = np.eye(n)
        rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        z = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return z @ rot @ z.T

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_rotation_inside_the_pi_band_rejected(self, n):
        # pi - 4 n eps lies inside the band of 8 n eps below pi, which an
        # angle of exactly pi does not test; the measured angle is exact here
        v = self.near_pi(np.random.default_rng(28), n)
        with pytest.raises(DomainError, match="within round-off of -1"):
            linalg.logm(v)
        # in a stack it fails the call too, next to a rotation it can log
        with pytest.raises(DomainError, match="within round-off of -1"):
            linalg.logm(np.stack([np.eye(n), v]))

    def test_stack_is_each_matrix_log(self):
        rng = np.random.default_rng(29)
        vs = np.stack([scipy.linalg.expm(rotation_generator(rng, [a, 0.3], 6)) for a in (0.1, 1.5, 3.0)])
        logs = linalg.logm(vs)
        for v, log in zip(vs, logs):
            assert np.linalg.norm(log - linalg.logm(v)) <= 1e-14 * np.linalg.norm(log)
        assert np.array_equal(logs + logs.mT, np.zeros_like(logs))
        with pytest.raises(PreconditionError):
            linalg.logm(np.stack([vs[0], 1.01 * vs[1]]))

    def test_non_orthogonal_rejected(self):
        with pytest.raises(PreconditionError):
            linalg.logm(np.diag([np.e, np.e**2]))
        rng = np.random.default_rng(22)
        v = linalg.expm(rotation_generator(rng, [1.0], 4))
        with pytest.raises(PreconditionError):
            linalg.logm(v + 1e-8 * rng.standard_normal((4, 4)))


class TestQrEcon:
    def test_orthonormal_input_gives_identity_r(self):
        rng = np.random.default_rng(5)
        u = np.linalg.qr(rng.standard_normal((12, 4)))[0]
        out = linalg.qr_econ(u)
        assert np.allclose(out.r_factor, np.eye(4), atol=1e-13)
        assert np.allclose(out.q, u, atol=1e-13)

    def test_negated_orthonormal_sign_goes_to_q(self):
        rng = np.random.default_rng(6)
        u = np.linalg.qr(rng.standard_normal((12, 4)))[0]
        out = linalg.qr_econ(-u)
        assert np.allclose(out.r_factor, np.eye(4), atol=1e-13)
        assert np.allclose(out.q, -u, atol=1e-13)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((20, 5))
        out = linalg.qr_econ(a)
        assert np.linalg.norm(out.q @ out.r_factor - a) < 1e-12 * np.linalg.norm(a)
        assert np.all(np.diagonal(out.r_factor) >= 0)
        assert np.linalg.norm(np.tril(out.r_factor, -1)) == 0.0

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((15, 6))
        out1 = linalg.qr_econ(a)
        out2 = linalg.qr_econ(a.copy())
        assert np.array_equal(out1.q, out2.q)
        assert np.array_equal(out1.r_factor, out2.r_factor)

    def test_continuity_along_full_rank_path(self):
        rng = np.random.default_rng(9)
        a0 = rng.standard_normal((18, 4))
        a1 = rng.standard_normal((18, 4))
        path = lambda t: a0 + t * a1
        q_of = lambda t: linalg.qr_econ(path(t)).q
        diffs = [np.linalg.norm(q_of(0.3 + h) - q_of(0.3)) for h in (1e-2, 1e-4, 1e-6)]
        assert diffs[0] < 1.0
        # roughly linear decay in h
        assert diffs[1] < 1e-2 * diffs[0] * 10
        assert diffs[2] < 1e-2 * diffs[1] * 10

    def test_rank_deficiency_flagged(self):
        a = np.zeros((8, 3))
        a[:, 0] = 1.0
        out = linalg.qr_econ(a)
        assert out.rank_deficient
        assert not linalg.qr_econ(np.eye(8)[:, :3]).rank_deficient

    @pytest.mark.parametrize("n, r", [(24, 6), (40, 10), (1001, 6), (6, 6), (5, 0)])
    def test_stack_is_each_matrix_factorization(self, n, r):
        # one stacked call: each slice's factors are the 2-d call's bit for
        # bit, laid out as the 2-d call lays them out, with its rank flag;
        # slices 3 and 4 are the zero matrix and a repeated column
        a = np.random.default_rng(n + r).standard_normal((6, n, r))
        a[3] = 0.0
        if r > 1:
            a[4, :, 1] = a[4, :, 0]
        out = linalg.qr_econ(a)
        assert out.q.shape == a.shape and out.r_factor.shape == (6, r, r)
        for i, matrix in enumerate(a):
            alone = linalg.qr_econ(matrix)
            for got, want in ((out.q[i], alone.q), (out.r_factor[i], alone.r_factor)):
                assert np.array_equal(got, want)
                assert (got.flags.f_contiguous, got.flags.c_contiguous) == (want.flags.f_contiguous,
                                                                            want.flags.c_contiguous)
            assert out.rank_deficient[i] == alone.rank_deficient
        assert list(out.rank_deficient) == [False, False, False, r > 0, r > 1, False]

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_property(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((10, 4))
        out = linalg.qr_econ(a)
        assert np.linalg.norm(out.q @ out.r_factor - a) < 1e-12 * max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(out.q.T @ out.q - np.eye(4)) < 1e-13
        assert np.all(np.diagonal(out.r_factor) >= 0)


class TestNoRows:
    # LAPACK's dgeqrf refuses the leading dimension 0 and prints to stderr
    @pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
    def test_qr_basis(self, shape, capfd):
        q, coords = linalg.qr_basis(np.zeros(shape))
        assert q.shape == (0, 0) and coords.shape == shape
        assert capfd.readouterr() == ("", "")

    def test_qr_econ_and_random_point(self, capfd):
        out = linalg.qr_econ(np.zeros((0, 0)))
        assert out.q.shape == out.r_factor.shape == (0, 0) and not out.rank_deficient
        assert stiefel.random_point(np.random.default_rng(0), 0, 0).u.shape == (0, 0)
        assert capfd.readouterr() == ("", "")


class TestSvdFull:
    def test_padded_identity(self):
        y = np.vstack([np.eye(3), np.zeros((4, 3))])
        _, sigma, _ = linalg.svd_full(y)
        assert np.allclose(sigma, 1.0)

    def test_diagonal(self):
        y = np.diag([3.0, 1.0])
        _, sigma, _ = linalg.svd_full(y)
        assert np.allclose(sigma, [3.0, 1.0])

    def test_reconstruction_and_ordering(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal((10, 4))
        u, sigma, v = linalg.svd_full(y)
        assert np.linalg.norm(u @ np.diag(sigma) @ v.T - y) <= 1e-12 * np.linalg.norm(y)
        assert np.all(np.diff(sigma) <= 0) and np.all(sigma >= 0)
        assert v.shape == (4, 4)
        assert np.linalg.norm(v.T @ v - np.eye(4)) < 1e-13

    def test_wide(self):
        y = np.random.default_rng(11).standard_normal((3, 5))
        u, sigma, v = linalg.svd_full(y)
        assert u.shape == (3, 3) and sigma.shape == (3,) and v.shape == (5, 3)
        assert np.linalg.norm(u @ np.diag(sigma) @ v.T - y) <= 1e-12 * np.linalg.norm(y)

    @pytest.mark.parametrize("shape", [(9, 4), (4, 9), (6, 6)], ids=["tall", "wide", "square"])
    def test_economy_factors(self, shape):
        # u and v both have min(n, m) orthonormal columns, whatever the shape
        y = np.random.default_rng(12).standard_normal(shape)
        u, sigma, v = linalg.svd_full(y)
        k = min(shape)
        assert u.shape == (shape[0], k) and sigma.shape == (k,) and v.shape == (shape[1], k)
        for f in (u, v):
            assert np.linalg.norm(f.T @ f - np.eye(k)) < 1e-13
        assert np.linalg.norm((u * sigma) @ v.T - y) <= 1e-12 * np.linalg.norm(y)


def _check_completion(v, out):
    """[V, W] orthogonal with det +1 (m > r); the last m - r rows of W symmetric with the Procrustes eigenvalues."""
    m, r = v.shape
    assert out.shape == (m, m - r)
    full = np.hstack([v, out])
    assert np.linalg.norm(full.T @ full - np.eye(m)) <= 1e-13
    if r < m:
        assert np.linalg.det(full) == pytest.approx(1.0, abs=1e-13)
    gram = out[r:]
    assert np.linalg.norm(gram - gram.T) <= 1e-13
    # the singular values of the last m - r rows of any completion W0, with at most the smallest negated
    w0 = np.linalg.qr(v, mode="complete")[0][:, r:]
    sigma = np.sort(np.linalg.svd(w0[r:], compute_uv=False))
    eig = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    flipped = sigma.copy()
    flipped[:1] *= -1.0
    assert min(np.abs(eig - sigma).max(initial=0.0),
               np.abs(eig - np.sort(flipped)).max(initial=0.0)) <= 1e-13


class TestOrthComplete:
    def test_identity_columns(self):
        # the complement of the first two coordinates nearest to [0; I] is [0; I]
        v = np.eye(6)[:, :2]
        out = linalg.orth_complete(v)
        assert np.linalg.norm(out - np.eye(6)[:, 2:]) <= 1e-13

    def test_orthogonality(self):
        rng = np.random.default_rng(11)
        v = np.linalg.qr(rng.standard_normal((9, 3)))[0]
        out = linalg.orth_complete(v)
        assert np.linalg.norm(v.T @ out) <= 1e-13

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        v = np.linalg.qr(rng.standard_normal((7, 2)))[0]
        assert np.array_equal(linalg.orth_complete(v), linalg.orth_complete(v.copy()))

    def test_non_orthonormal_rejected(self):
        with pytest.raises(PreconditionError):
            linalg.orth_complete(np.ones((5, 2)))

    @pytest.mark.parametrize("m, r", [(6, 3), (12, 6), (20, 10), (4, 0), (4, 4)])
    def test_procrustes_completion(self, m, r):
        # (4, 4) is m = r, where W has no columns; (4, 0) has no V.  V on the
        # last r coordinates leaves the last m - r rows of W rank-deficient.
        rng = np.random.default_rng(m + r)
        for v in (np.linalg.qr(rng.standard_normal((m, r)))[0], np.eye(m)[:, m - r:]):
            _check_completion(v, linalg.orth_complete(v))

    @pytest.mark.parametrize("m, r", [(12, 6), (6, 3), (20, 10), (4, 4), (4, 0)])
    def test_stack_is_each_matrix_completion(self, m, r):
        # one stacked call gives each V's own completion bit for bit: a
        # random V, V on the last r coordinates (which leaves the last m - r
        # rows of W rank-deficient) and V on the first r; m = r has no W
        rng = np.random.default_rng(m + r)
        v = np.stack([np.linalg.qr(rng.standard_normal((m, r)))[0], np.eye(m)[:, m - r:], np.eye(m)[:, :r]])
        out = linalg.orth_complete(v)
        assert out.shape == (3, m, m - r)
        for i, matrix in enumerate(v):
            alone = linalg.orth_complete(matrix)
            assert np.array_equal(out[i], alone)
            _check_completion(matrix, out[i])

    def test_stack_with_a_non_orthonormal_matrix_rejected(self):
        v = np.stack([np.eye(5)[:, :2], np.ones((5, 2))])
        with pytest.raises(PreconditionError):
            linalg.orth_complete(v)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_completion_property(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 12))
        r = int(rng.integers(1, m))
        v = np.linalg.qr(rng.standard_normal((m, r)))[0]
        _check_completion(v, linalg.orth_complete(v))
