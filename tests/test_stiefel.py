import numpy as np
import pytest
import scipy.linalg

from stiefel_hermite import linalg, stiefel
from stiefel_hermite.errors import PreconditionError, ShapeError, StiefelLogError


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestTypes:
    def test_point_validation(self, rng):
        with pytest.raises(PreconditionError):
            stiefel.StiefelPoint(rng.standard_normal((8, 3)))
        with pytest.raises(ShapeError):
            stiefel.StiefelPoint(np.eye(3)[:, :2].T)  # wide

    def test_tangent_validation(self, rng):
        u = stiefel.random_point(rng, 10, 3)
        with pytest.raises(PreconditionError):
            stiefel.TangentVector(u, rng.standard_normal((10, 3)))
        for bad in (np.nan, np.inf):
            with pytest.raises(PreconditionError, match="non-finite"):
                stiefel.TangentVector(u, np.full((10, 3), bad))
        with pytest.raises(ShapeError):
            stiefel.TangentVector(u, np.zeros((10, 2)))

    def test_tangent_arithmetic_base_mismatch(self, rng):
        u1 = stiefel.random_point(rng, 10, 3)
        u2 = stiefel.random_point(rng, 10, 3)
        x1 = stiefel.random_tangent(rng, u1)
        x2 = stiefel.random_tangent(rng, u2)
        with pytest.raises(PreconditionError):
            _ = x1 + x2


class TestProjectTangent:
    def test_idempotent(self, rng):
        u = stiefel.random_point(rng, 12, 4)
        xi = stiefel.random_tangent(rng, u)
        again = stiefel.project_tangent(u, xi.delta)
        assert np.linalg.norm(again.delta - xi.delta) < 1e-12

    def test_projecting_base_gives_zero(self, rng):
        u = stiefel.random_point(rng, 12, 4)
        out = stiefel.project_tangent(u, u.u)
        assert np.linalg.norm(out.delta) < 1e-12

    def test_random_matrix_lands_tangent(self, rng):
        u = stiefel.random_point(rng, 15, 5)
        x = rng.standard_normal((15, 5))
        out = stiefel.project_tangent(u, x)
        ud = u.u.T @ out.delta
        assert np.linalg.norm(ud + ud.T) < 1e-12


class TestMetric:
    def test_positive_definite(self, rng):
        u = stiefel.random_point(rng, 10, 4)
        xi = stiefel.random_tangent(rng, u, scale=0.7)
        assert stiefel.metric(xi, xi) > 0.0
        assert stiefel.norm(xi) == pytest.approx(0.7, rel=1e-12)

    def test_normal_vector_gives_frobenius(self, rng):
        u = stiefel.random_point(rng, 12, 3)
        t = rng.standard_normal((12, 3))
        normal = t - u.u @ (u.u.T @ t)
        xi = stiefel.TangentVector(u, normal)
        assert stiefel.metric(xi, xi) == pytest.approx(np.sum(normal * normal), rel=1e-12)

    def test_vertical_vector_gives_half_trace(self, rng):
        u = stiefel.random_point(rng, 12, 4)
        a = rng.standard_normal((4, 4))
        a = a - a.T
        xi = stiefel.TangentVector(u, u.u @ a)
        assert stiefel.metric(xi, xi) == pytest.approx(0.5 * np.sum(a * a), rel=1e-12)

    def test_symmetric_bilinear(self, rng):
        u = stiefel.random_point(rng, 10, 4)
        xi, eta = (stiefel.random_tangent(rng, u) for _ in range(2))
        assert stiefel.metric(xi, eta) == pytest.approx(stiefel.metric(eta, xi), rel=1e-12)
        lhs = stiefel.metric(2.0 * xi + eta, eta)
        assert lhs == pytest.approx(2.0 * stiefel.metric(xi, eta) + stiefel.metric(eta, eta), rel=1e-10)


def _rank_one_tangent(rng, n, r):
    """Tangent vector at a random point whose normal part has rank one."""
    u = stiefel.random_point(rng, n, r)
    w = rng.standard_normal(n)
    w -= u.u @ (u.u.T @ w)
    return stiefel.project_tangent(u, np.outer(w, rng.standard_normal(r)))


class TestSplitTangent:
    def test_pure_vertical(self, rng):
        u = stiefel.random_point(rng, 12, 4)
        a = rng.standard_normal((4, 4))
        a = a - a.T
        split = stiefel.split_tangent(stiefel.TangentVector(u, u.u @ a))
        assert np.linalg.norm(split.coords[0, :4] - a) < 1e-12
        assert np.linalg.norm(split.coords[0, 4:]) < 1e-12

    def test_pure_normal(self, rng):
        u = stiefel.random_point(rng, 12, 4)
        t = rng.standard_normal((12, 4))
        normal = t - u.u @ (u.u.T @ t)
        split = stiefel.split_tangent(stiefel.TangentVector(u, normal))
        assert np.linalg.norm(split.coords[0, :4]) < 1e-12

    def test_reconstruction(self, rng):
        u = stiefel.random_point(rng, 20, 5)
        xi = stiefel.random_tangent(rng, u, scale=1.3)
        split = stiefel.split_tangent(xi)
        assert np.linalg.norm(split.combination((1.0,)).delta - xi.delta) < 1e-12
        a = split.coords[0, :5]
        assert np.linalg.norm(a + a.T) < 1e-10

    def test_rank_deficient_normal_component(self, rng):
        xi = _rank_one_tangent(rng, 20, 4)
        split = stiefel.split_tangent(xi)
        assert np.linalg.norm(split.combination((1.0,)).delta - xi.delta) < 1e-11
        assert np.linalg.norm(split.q.T @ split.q - np.eye(4)) < 1e-12


class TestExp:
    def test_t_zero_is_base(self, rng):
        u = stiefel.random_point(rng, 15, 4)
        xi = stiefel.random_tangent(rng, u)
        assert np.linalg.norm(stiefel.stiefel_exp(0.0 * xi).u - u.u) < 1e-14

    def test_zero_velocity_constant(self, rng):
        u = stiefel.random_point(rng, 15, 4)
        z = stiefel.TangentVector(u, np.zeros((15, 4)))
        for t in (0.0, 0.5, 2.0):
            assert np.linalg.norm(stiefel.stiefel_exp(t * z).u - u.u) < 1e-14

    def test_orthonormality_along_path(self, rng):
        u = stiefel.random_point(rng, 30, 5)
        xi = stiefel.random_tangent(rng, u, scale=1.5)
        for t in np.linspace(0.0, 1.0, 11):
            p = stiefel.stiefel_exp(t * xi)
            assert np.linalg.norm(p.u.T @ p.u - np.eye(5)) <= 1e-10

    def test_differential_at_zero_is_identity(self, rng):
        # first-order decay of (Exp(h xi) - U)/h - xi
        u = stiefel.random_point(rng, 25, 4)
        xi = stiefel.random_tangent(rng, u, scale=1.0)
        errs = []
        for h in (1e-3, 1e-4):
            fd = (stiefel.stiefel_exp(h * xi).u - u.u) / h
            errs.append(np.linalg.norm(fd - xi.delta))
        assert errs[0] < 1e-2
        assert errs[1] < 0.2 * errs[0]  # decays with h


class TestLog:
    def test_same_point_gives_zero(self, rng):
        u = stiefel.random_point(rng, 12, 4)
        xi = stiefel.stiefel_log(u, u)
        assert np.linalg.norm(xi.delta) < 1e-12

    def test_round_trip(self, rng):
        u = stiefel.random_point(rng, 40, 5)
        delta = stiefel.random_tangent(rng, u, scale=0.5)
        target = stiefel.stiefel_exp(delta)
        rec = stiefel.stiefel_log(u, target)
        assert np.linalg.norm(rec.delta - delta.delta) < 1e-10

    def test_exp_log_target_match(self, rng):
        u = stiefel.random_point(rng, 30, 4)
        target = stiefel.stiefel_exp(stiefel.random_tangent(rng, u, scale=0.9))
        xi = stiefel.stiefel_log(u, target)
        back = stiefel.stiefel_exp(xi)
        assert np.linalg.norm(back.u - target.u) <= 1e-11

    def test_far_targets_raise_with_diagnostics(self, rng):
        # antipodal fiber rotation: no principal log of the completion exists
        u = stiefel.random_point(rng, 20, 4)
        target = stiefel.StiefelPoint(u.u @ np.diag([-1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(StiefelLogError) as info:
            stiefel.stiefel_log(u, target)
        assert info.value.iterations >= 0
        # genuinely far random pair on a small manifold: iteration stalls
        rng2 = np.random.default_rng(101)
        a = stiefel.random_point(rng2, 8, 6)
        b = stiefel.random_point(rng2, 8, 6)
        with pytest.raises(StiefelLogError) as info:
            stiefel.stiefel_log(a, b)
        assert info.value.residual > 0

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_other_component_of_orthogonal_group_raises(self, n):
        # At n = r, det(U'Y) = -1 puts Y in the other component of O(n).
        for seed in range(20):
            rng = np.random.default_rng(seed)
            u = stiefel.random_point(rng, n, n)
            y = stiefel.random_point(rng, n, n).u
            if np.linalg.det(u.u.T @ y) > 0.0:
                y[:, 0] *= -1.0
            with pytest.raises(StiefelLogError, match="two components"):
                stiefel.stiefel_log(u, stiefel.StiefelPoint(y))
        # the same component still has its log
        xi = stiefel.random_tangent(rng, u, scale=0.5)
        back = stiefel.stiefel_log(u, stiefel.stiefel_exp(xi))
        assert np.linalg.norm(back.delta - xi.delta) < 1e-10

    def test_orthogonal_group_log_is_principal_log(self, orthogonal_pairs):
        # At n = r the principal log is the minimal geodesic, so the norm
        # certificate, a bound for n > r, does not refuse the pairs that pass it.
        err, past_bound = 0.0, 0
        for u, a, _ in orthogonal_pairs(180):
            target = stiefel.StiefelPoint(u @ scipy.linalg.expm(a))
            xi = stiefel.stiefel_log(stiefel.StiefelPoint(u), target)
            err = max(err, np.linalg.norm(xi.delta - u @ a) / np.linalg.norm(a))
            past_bound += stiefel.norm(xi) >= stiefel.LOG_NORM_MAX
        assert past_bound > 0
        assert err <= 1e-14  # measured 2.8e-15

    @pytest.mark.parametrize("n, r, fraction", [(40, 3, 0.57), (60, 6, 0.85), (5, 5, 0.5)])
    def test_any_start_gives_the_cold_log(self, n, r, fraction):
        # a start near the target is used; at n > r one whose geodesic ends
        # far from it (zero, reversed, random) falls back to the Procrustes start
        rng = np.random.default_rng(11)
        u = stiefel.random_point(rng, n, r)
        xi = stiefel.random_tangent(rng, u, fraction * np.pi)
        target = stiefel.stiefel_exp(xi)
        cold = stiefel.stiefel_log(u, target)
        for start in (0.0 * xi, -1.0 * xi, stiefel.random_tangent(rng, u, 1.5), 0.5 * xi):
            warm = stiefel.stiefel_log(u, target, start=start)
            assert np.linalg.norm(warm.delta - cold.delta) <= 1e-13

    def test_start_at_another_base_rejected(self, rng):
        u, w = stiefel.random_point(rng, 10, 3), stiefel.random_point(rng, 10, 3)
        with pytest.raises(PreconditionError, match="start"):
            stiefel.stiefel_log(u, w, start=stiefel.random_tangent(rng, w))

    def test_counter_increments(self, rng, kernel_calls):
        u = stiefel.random_point(rng, 10, 3)
        xi = stiefel.random_tangent(rng, u, 0.3)
        target = stiefel.stiefel_exp(xi)
        kernel_calls.clear()
        stiefel.stiefel_log(u, target)
        stiefel.stiefel_exp(xi)
        assert kernel_calls == {"log": 1, "exp": 1}


class TestDist:
    def test_self_distance_zero(self, rng):
        u = stiefel.random_point(rng, 10, 3)
        assert stiefel.dist(u, u) == 0.0

    def test_radial_isometry(self, rng):
        u = stiefel.random_point(rng, 30, 5)
        xi = stiefel.random_tangent(rng, u, scale=0.3)
        d = stiefel.dist(u, stiefel.stiefel_exp(xi))
        assert abs(d - 0.3) <= 1e-8 * 0.3

    def test_symmetry(self, rng):
        u = stiefel.random_point(rng, 25, 4)
        v = stiefel.stiefel_exp(stiefel.random_tangent(rng, u, scale=0.6))
        assert abs(stiefel.dist(u, v) - stiefel.dist(v, u)) <= 1e-8


def test_round_trip_suite_matches_tolerance():
    # canonical norm <= 1 on St(60, 6): log recovers the velocity to 1e-9
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = stiefel.random_point(rng, 60, 6)
        scale = rng.uniform(0.1, 1.0)
        delta = stiefel.random_tangent(rng, u, scale=scale)
        rec = stiefel.stiefel_log(u, stiefel.stiefel_exp(delta))
        assert np.linalg.norm(rec.delta - delta.delta) <= 1e-9


@pytest.mark.parametrize("n, r", [(60, 6), (1000, 10)])
@pytest.mark.parametrize("fraction", [0.6, 0.75, 0.85])
def test_round_trip_far_velocities(n, r, fraction):
    # norms up to 0.85 pi, below the certificate's pi / sqrt(CURVATURE_MAX);
    # a log off by a factor 1.01 misses by about 1e-2 here
    rng = np.random.default_rng(8)
    u = stiefel.random_point(rng, n, r)
    delta = stiefel.random_tangent(rng, u, scale=fraction * np.pi)
    rec = stiefel.stiefel_log(u, stiefel.stiefel_exp(delta))
    assert np.linalg.norm(rec.delta - delta.delta) <= 1e-12


class TestLogIteration:
    """The loop of ``stiefel_log``: polish, Schur-log kernel, Sylvester step."""

    @staticmethod
    def _spy(monkeypatch):
        """Record every iterate passed to ``linalg.logm`` with its log, and
        every generator passed to ``linalg.expm``, in call order."""
        calls = []
        logm, expm = linalg.logm, linalg.expm

        def spy_logm(v):
            out = logm(v)
            calls.append(("logm", v.copy(), out))
            return out

        def spy_expm(x):
            calls.append(("expm", x.copy()))
            return expm(x)

        monkeypatch.setattr(linalg, "logm", spy_logm)
        monkeypatch.setattr(linalg, "expm", spy_expm)
        return calls

    def test_far_pair_takes_at_most_nine_logs(self, monkeypatch):
        # 0.57 pi apart at St(1000, 10), as in the fit_far benchmark: 6 Schur
        # logs here, where the plain step -C in place of the Sylvester step
        # would take 11
        rng = np.random.default_rng(0)
        u = stiefel.random_point(rng, 1000, 10)
        target = stiefel.stiefel_exp(stiefel.random_tangent(rng, u, scale=0.57 * np.pi))
        calls = self._spy(monkeypatch)
        stiefel.stiefel_log(u, target)
        assert sum(1 for c in calls if c[0] == "logm") <= 9

    @staticmethod
    def _dominant_direction(rng, u):
        # normal part with one singular value far above the rest, so that
        # S = B B'/12 - I/2 is not safely negative definite
        n, r = u.u.shape
        w = rng.standard_normal((n, r))
        w = np.linalg.qr(w - u.u @ (u.u.T @ w))[0]
        z = np.linalg.qr(rng.standard_normal((r, r)))[0]
        sigma = np.full(r, 0.3)
        sigma[0] = 2.4
        a = rng.standard_normal((r, r))
        return stiefel.TangentVector(u, w @ np.diag(sigma) @ z.T + 0.2 * u.u @ (a - a.T))

    @pytest.mark.parametrize("kind", ["rank_one", "dominant"])
    @pytest.mark.parametrize("fraction", [0.6, 0.85])
    def test_structured_targets_converge(self, monkeypatch, kind, fraction):
        # a rank-one normal part puts an eigenvalue -1 into a completion whose
        # det is fixed by flipping one column; a dominant direction leaves
        # S = B B'/12 - I/2 indefinite, where the step is clipped
        calls = self._spy(monkeypatch)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            if kind == "rank_one":
                delta = _rank_one_tangent(rng, 60, 6)
            else:
                delta = self._dominant_direction(rng, stiefel.random_point(rng, 60, 6))
            delta = (fraction * np.pi / stiefel.norm(delta)) * delta
            target = stiefel.stiefel_exp(delta)
            calls.clear()
            rec = stiefel.stiefel_log(delta.base, target)
            assert np.linalg.norm(rec.delta - delta.delta) <= 1e-12
            assert sum(1 for c in calls if c[0] == "logm") <= 20

    def test_clipped_step_is_bounded_and_round_trips(self, monkeypatch):
        rng = np.random.default_rng(8)
        u = stiefel.random_point(rng, 60, 6)
        delta = self._dominant_direction(rng, u)
        delta = (0.85 * np.pi / stiefel.norm(delta)) * delta
        target = stiefel.stiefel_exp(delta)
        calls = self._spy(monkeypatch)
        rec = stiefel.stiefel_log(u, target)
        assert np.linalg.norm(rec.delta - delta.delta) <= 1e-12
        # each generator follows the log whose B and C it is built from
        clipped = 0
        for prev, call in zip(calls, calls[1:]):
            if call[0] == "expm":
                b, c = prev[2][u.r :, : u.r], prev[2][u.r :, u.r :]
                s = np.linalg.eigvalsh(b @ b.T / 12.0 - 0.5 * np.eye(u.r))
                clipped += s.max() * 2.0 >= stiefel.SYLVESTER_DENOM_MAX
                assert np.linalg.norm(call[1]) <= 4.0 * np.linalg.norm(c) * (1.0 + 1e-12)
        assert clipped > 0

    @pytest.mark.parametrize("n, r, fraction", [(60, 6, 0.85), (1000, 10, 0.57), (8, 6, 0.6)])
    def test_iterates_stay_orthogonal(self, monkeypatch, n, r, fraction):
        rng = np.random.default_rng(9)
        u = stiefel.random_point(rng, n, r)
        target = stiefel.stiefel_exp(stiefel.random_tangent(rng, u, scale=fraction * np.pi))
        calls = self._spy(monkeypatch)
        stiefel.stiefel_log(u, target)
        drifts = [np.linalg.norm(c[1].T @ c[1] - np.eye(2 * r)) for c in calls if c[0] == "logm"]
        # polished: at most 8.6e-16 here; unpolished iterates reach 3-7e-15
        assert drifts and max(drifts) <= 2e-15

    def test_broken_update_raises(self, monkeypatch):
        # a factor 1e-8 off orthogonal: one polish step would hide it
        rng = np.random.default_rng(10)
        u = stiefel.random_point(rng, 40, 4)
        target = stiefel.stiefel_exp(stiefel.random_tangent(rng, u, scale=0.5))
        expm = linalg.expm
        monkeypatch.setattr(linalg, "expm", lambda x: (1.0 + 1e-8) * expm(x))
        with pytest.raises(StiefelLogError, match="orthogonality at iteration 1") as info:
            stiefel.stiefel_log(u, target)
        assert info.value.iterations == 1


@pytest.mark.parametrize("n, r, rank_one", [(1001, 6, False), (30, 4, False), (8, 6, False), (20, 4, True)])
def test_exp_matches_closed_form(n, r, rank_one):
    # Edelman, Arias and Smith's geodesic from an independent factorization:
    # numpy's QR of the normal part, whatever its signs, and scipy's expm.
    # St(8, 6) has n < 2r; St(20, 4) a rank-one normal part built as in
    # TestSplitTangent.test_rank_deficient_normal_component.
    rng = np.random.default_rng(11)
    if rank_one:
        xi = _rank_one_tangent(rng, n, r)
    else:
        xi = stiefel.random_tangent(rng, stiefel.random_point(rng, n, r), scale=0.9)
    u = xi.base.u
    a = u.T @ xi.delta
    q, m = np.linalg.qr(xi.delta - u @ a)
    gen = np.block([[a, -m.T], [m, np.zeros((r, r))]])
    for t in (1e-7, -1e-7, 1e-4, -1e-4, 0.5, 1.0):
        e = scipy.linalg.expm(t * gen)
        expected = u @ e[:r, :r] + q @ e[r:, :r]
        assert np.linalg.norm(stiefel.stiefel_exp(t * xi).u - expected) <= 1e-13


class TestTangentFrame:
    @pytest.mark.parametrize("n, r, k", [(40, 4, 1), (40, 4, 3), (40, 4, 6), (100, 6, 6), (8, 6, 3)])
    def test_combinations_match_ambient_exp(self, n, r, k):
        # (8, 6, 3): n < k r, so the normal basis is n x n and overlaps U
        rng = np.random.default_rng(5)
        u = stiefel.random_point(rng, n, r)
        vecs = np.stack([stiefel.random_tangent(rng, u, 0.6).delta for _ in range(k)])
        frame = stiefel.tangent_frame(u, vecs)
        for _ in range(4):
            c = rng.uniform(-1.0, 1.0, k)
            ambient = stiefel.TangentVector(u, np.tensordot(c, vecs, axes=1))
            assert np.linalg.norm(frame.combination(c).delta - ambient.delta) <= 1e-13
            assert np.linalg.norm(frame.exp(c).u - stiefel.stiefel_exp(ambient).u) <= 1e-13

    def test_colinear_vectors(self, rng):
        u = stiefel.random_point(rng, 30, 4)
        d = stiefel.random_tangent(rng, u, 0.7).delta
        vertical = u.u @ (u.u.T @ d)  # zero normal part
        vecs = np.stack([d, -2.0 * d, vertical])
        frame = stiefel.tangent_frame(u, vecs)
        for c in ((1.0, 0.0, 0.0), (0.3, 0.4, 0.0), (0.0, 0.0, 1.5), (0.5, 0.5, 0.5)):
            ambient = stiefel.TangentVector(u, np.tensordot(c, vecs, axes=1))
            assert np.linalg.norm(frame.exp(c).u - stiefel.stiefel_exp(ambient).u) <= 1e-13

    def test_zero_combination_returns_base_exactly(self, rng):
        for n, r, k in ((30, 4, 3), (8, 6, 3), (12, 3, 1)):
            u = stiefel.random_point(rng, n, r)
            vecs = np.stack([stiefel.random_tangent(rng, u).delta for _ in range(k)])
            assert np.array_equal(stiefel.tangent_frame(u, vecs).exp(np.zeros(k)).u, u.u)

    def test_one_exp_and_no_log_per_evaluation(self, rng, kernel_calls):
        u = stiefel.random_point(rng, 20, 3)
        vecs = np.stack([stiefel.random_tangent(rng, u).delta for _ in range(3)])
        frame = stiefel.tangent_frame(u, vecs)
        for i in range(5):
            frame.exp((0.1 * i, 0.2, -0.3))
            assert kernel_calls == {"exp": i + 1}
        frame.combination((1.0, 1.0, 1.0))
        assert kernel_calls == {"exp": 5}

    def test_non_tangent_combination_rejected(self, rng):
        u = stiefel.random_point(rng, 10, 3)
        frame = stiefel.tangent_frame(u, rng.standard_normal((1, 10, 3)))
        # rejected by the r x r check, before the non-orthonormal output exists
        with pytest.raises(PreconditionError, match="not tangent"):
            frame.exp((1.0,))
        with pytest.raises(ShapeError):
            frame.exp((1.0, 2.0))
