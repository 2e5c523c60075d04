import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefel_hermite import linalg
from stiefel_hermite.errors import DomainError, PreconditionError, ShapeError


def expm_series(x, terms=60):
    """Truncated power-series oracle for the matrix exponential."""
    out = np.eye(x.shape[0])
    term = np.eye(x.shape[0])
    for j in range(1, terms):
        term = term @ x / j
        out = out + term
    return out


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

    def test_round_trip_skew(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal((5, 5))
        s = s - s.T
        s *= 0.5 / np.linalg.norm(s)
        rec = linalg.logm(linalg.expm(s))
        assert np.linalg.norm(rec - s) <= 1e-8 * np.linalg.norm(s)

    @pytest.mark.parametrize("norm_scale", [0.5, 1.0, 2.0])
    def test_round_trip_scaled_skew(self, norm_scale):
        rng = np.random.default_rng(4)
        s = rng.standard_normal((6, 6))
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

    def test_schur_factors_match_scipy_bitwise(self):
        # one dgees call with the workspace cached per n, as scipy.linalg.schur
        # computes it with a workspace query per call
        rng = np.random.default_rng(23)
        for i in range(200):
            n = 2 + i % 23
            v = np.linalg.qr(rng.standard_normal((n, n)))[0]
            t, z = linalg._real_schur(v)
            t_ref, z_ref = scipy.linalg.schur(v, output="real")
            assert np.array_equal(t, t_ref) and np.array_equal(z, z_ref)

    def test_rotation_by_pi_rejected(self):
        v = np.eye(5)
        v[:2, :2] = -np.eye(2)
        with pytest.raises(DomainError):
            linalg.logm(v)

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

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_property(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((10, 4))
        out = linalg.qr_econ(a)
        assert np.linalg.norm(out.q @ out.r_factor - a) < 1e-12 * max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(out.q.T @ out.q - np.eye(4)) < 1e-13
        assert np.all(np.diagonal(out.r_factor) >= 0)


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

    def test_wide_rejected(self):
        with pytest.raises(ShapeError):
            linalg.svd_full(np.ones((3, 5)))


class TestOrthComplete:
    def test_identity_columns(self):
        v = np.eye(6)[:, :2]
        out = linalg.orth_complete(v)
        assert out.shape == (6, 4)
        # spans the complement of the first two coordinates
        assert np.linalg.norm(out[:2, :]) < 1e-12

    def test_orthogonality(self):
        rng = np.random.default_rng(11)
        v = np.linalg.qr(rng.standard_normal((9, 3)))[0]
        out = linalg.orth_complete(v)
        assert np.linalg.norm(v.T @ out) < 1e-12
        full = np.hstack([v, out])
        assert np.linalg.norm(full.T @ full - np.eye(9)) < 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        v = np.linalg.qr(rng.standard_normal((7, 2)))[0]
        assert np.array_equal(linalg.orth_complete(v), linalg.orth_complete(v.copy()))

    def test_non_orthonormal_rejected(self):
        with pytest.raises(PreconditionError):
            linalg.orth_complete(np.ones((5, 2)))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_completion_property(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 12))
        r = int(rng.integers(1, m))
        v = np.linalg.qr(rng.standard_normal((m, r)))[0]
        full = np.hstack([v, linalg.orth_complete(v)])
        assert np.linalg.norm(full.T @ full - np.eye(m)) < 1e-11
