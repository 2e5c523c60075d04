import re

import numpy as np
import pytest
import scipy.linalg

from stiefel_hermite import linalg, stiefel
from stiefel_hermite.errors import DomainError, PreconditionError, ShapeError, StiefelLogError

from conftest import far_pair, kernel_log_counts, rank_one_tangent, record_kernel_logs


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _refusal(build):
    """The message of the PreconditionError that ``build()`` raises, or "" if it returns."""
    try:
        build()
    except PreconditionError as exc:
        return str(exc)
    return ""


def _with_symmetric_part(rng, u, fraction, normal_norm):
    """An n x r matrix D = U S + N at ``u`` whose tangency error is ``fraction`` of its bound.

    S is symmetric and N normal with ||N||_F = ``normal_norm``, and S is
    scaled so that ||U'D + D'U||_F = 2 ||S||_F is ``fraction`` times
    TANGENT_TOL max(1, ||D||_F), to round-off far below the 10% margins the
    threshold tests leave.
    """
    g = rng.standard_normal(u.u.shape)
    normal = g - u.u @ (u.u.T @ g)
    normal *= normal_norm / np.linalg.norm(normal)
    sym = rng.standard_normal((u.r, u.r))
    sym = (sym + sym.T) / np.linalg.norm(sym + sym.T)
    s = 0.5 * fraction * stiefel.TANGENT_TOL * max(1.0, normal_norm)
    return u.u @ (s * sym) + normal


class TestTypes:
    def test_point_validation(self, rng):
        with pytest.raises(PreconditionError):
            stiefel.StiefelPoint(rng.standard_normal((8, 3)))
        with pytest.raises(ShapeError):
            stiefel.StiefelPoint(np.eye(3)[:, :2].T)  # wide
        for bad in (np.nan, np.inf):
            u = stiefel.random_point(rng, 8, 3).u.copy()
            u[2, 1] = bad
            with pytest.raises(PreconditionError, match="non-finite"):
                stiefel.StiefelPoint(u)

    def test_point_drift_threshold(self, rng):
        # Q (1 + e) has ||U'U - I||_F = sqrt(r) ((1 + e)^2 - 1): e sets the drift
        # to 0.9 and 1.1 times ORTH_TOL, with round-off near 1e-15.
        q = stiefel.random_point(rng, 12, 4).u
        for fraction, accepted in ((0.9, True), (1.1, False)):
            e = np.sqrt(1.0 + fraction * linalg.ORTH_TOL / np.sqrt(q.shape[1])) - 1.0
            assert (_refusal(lambda: stiefel.StiefelPoint(q * (1.0 + e))) == "") == accepted

    @pytest.mark.parametrize("normal_norm", [0.5, 4.0])
    def test_tangent_skew_threshold(self, rng, normal_norm):
        # ||D||_F = 0.5 compares with TANGENT_TOL, ||D||_F = 4 with 4 TANGENT_TOL
        u = stiefel.random_point(rng, 12, 4)
        for fraction, accepted in ((0.9, True), (1.1, False)):
            d = _with_symmetric_part(rng, u, fraction, normal_norm)
            assert (_refusal(lambda: stiefel.TangentVector(u, d)) == "") == accepted

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

    def test_norm_is_metric_of_a_copy_bitwise(self, rng):
        # norm(xi) forms U'xi once; a copy of xi takes the two-product path
        xi = stiefel.random_tangent(rng, stiefel.random_point(rng, 30, 5), scale=1.7)
        twin = stiefel.TangentVector(xi.base, xi.delta.copy())
        assert stiefel.norm(xi) == np.sqrt(stiefel.metric(xi, twin))


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
        xi = rank_one_tangent(rng, 20, 4)
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
        a, b = far_pair()
        with pytest.raises(StiefelLogError) as info:
            stiefel.stiefel_log(a, b)
        assert info.value.residual > 0

    def test_stalled_log_raises_with_its_residuals(self, monkeypatch, rng):
        # ||C||_F cannot fall below round-off, so at LOG_TAU = 1e-30 the log
        # stalls; it raises soon after, not after LOG_MAX_ITER steps
        monkeypatch.setattr(stiefel, "LOG_TAU", 1e-30)
        u = stiefel.random_point(rng, 20, 3)
        target = stiefel.stiefel_exp(stiefel.random_tangent(rng, u, 0.5 * np.pi))
        with pytest.raises(StiefelLogError, match=r"iteration \d+: \|\|C\|\|_F stopped falling") as info:
            stiefel.stiefel_log(u, target)
        listed = re.search(r"by iteration: \[(.*)\]", str(info.value)).group(1)
        residuals = [float(x) for x in listed.split(", ")]
        assert len(residuals) == info.value.iterations + 1
        assert residuals[-1] == pytest.approx(info.value.residual, rel=1e-2)
        assert max(residuals[-2:]) <= 1e-14
        assert info.value.iterations <= 2 * int(np.argmin(residuals))

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

    def test_counter_increments(self, rng, kernel_calls):
        u = stiefel.random_point(rng, 10, 3)
        xi = stiefel.random_tangent(rng, u, 0.3)
        target = stiefel.stiefel_exp(xi)
        kernel_calls.clear()
        stiefel.stiefel_log(u, target)
        stiefel.stiefel_exp(xi)
        assert kernel_calls == {"log": 1, "exp": 1}


def _near_pi_target(u):
    """U R with R a rotation by pi - 4 (2r) eps in one plane: the log's first completion has that angle."""
    r = u.r
    theta = np.pi - 4 * (2 * r) * np.finfo(float).eps
    rot = np.eye(r)
    rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    return stiefel.StiefelPoint(u.u @ rot)


class TestStackedLog:
    """``stiefel_log`` of a stack of targets: each slot holds what its own log returns or raises."""

    @staticmethod
    def _same(stacked, single):
        assert isinstance(stacked, stiefel.TangentVector)
        assert np.linalg.norm(stacked.delta - single.delta) <= 1e-13 * max(1.0, np.linalg.norm(single.delta))

    @staticmethod
    def _same_error(stacked, base, target):
        """Assert that ``stacked`` is the error ``stiefel_log(base, target)`` raises, and return it."""
        with pytest.raises(StiefelLogError) as info:
            stiefel.stiefel_log(base, target)
        assert isinstance(stacked, StiefelLogError)
        assert str(stacked) == str(info.value)
        assert (stacked.iterations, stacked.residual) == (info.value.iterations, info.value.residual)
        return stacked

    def test_one_base_and_a_base_per_target(self, rng):
        u = stiefel.random_point(rng, 40, 4)
        targets = [stiefel.stiefel_exp(stiefel.random_tangent(rng, u, s)) for s in (0.1, 0.8, 1.6, 2.4)]
        for stacked, y in zip(stiefel.stiefel_log(u, targets), targets):
            self._same(stacked, stiefel.stiefel_log(u, y))
        bases = [stiefel.random_point(rng, 40, 4) for _ in targets]
        pairs = [stiefel.stiefel_exp(stiefel.random_tangent(rng, b, 1.0)) for b in bases]
        for stacked, b, y in zip(stiefel.stiefel_log(bases, pairs), bases, pairs):
            assert stacked.base is b
            self._same(stacked, stiefel.stiefel_log(b, y))
        assert stiefel.stiefel_log(u, []) == []
        with pytest.raises(ShapeError, match="2 bases for 4 targets"):
            stiefel.stiefel_log(bases[:2], targets)

    def test_failures_stay_in_their_slots(self, rng):
        # the far pair stalls and the near-pi rotation fails in logm, which
        # makes the stack's kernel log raise: each failing slot holds the
        # error its own log raises, and the other targets their own logs
        a, b = far_pair()
        near = stiefel.stiefel_exp(stiefel.random_tangent(rng, a, 0.7))
        targets = [near, b, _near_pi_target(a), stiefel.stiefel_exp(stiefel.random_tangent(rng, a, 1.2))]
        out = stiefel.stiefel_log(a, targets)
        for slot in (0, 3):
            self._same(out[slot], stiefel.stiefel_log(a, targets[slot]))
        for slot in (1, 2):
            self._same_error(out[slot], a, targets[slot])
        assert "logm: an eigenvalue lies within round-off of -1" in str(out[2])

    @pytest.mark.parametrize("slot", [0, 16, 31])
    def test_a_failed_stack_keeps_the_rest_stacked(self, monkeypatch, slot):
        # the near-pi target makes step 0's stacked kernel log raise; the
        # stack restarts in halves, so the 31 other targets run in stacks of
        # 16, 8, 4, 2 and 1: 38-40 kernel-log calls here, where restarting
        # each target alone takes 173
        a, _ = far_pair()
        rng = np.random.default_rng(0)
        targets = [stiefel.stiefel_exp(stiefel.random_tangent(rng, a, s)) for s in rng.uniform(0.3, 1.5, 31)]
        targets.insert(slot, _near_pi_target(a))
        logm, calls = linalg.logm, []

        def spy(v):
            calls.append(v.shape)
            return logm(v)

        monkeypatch.setattr(linalg, "logm", spy)
        out = stiefel.stiefel_log(a, targets)
        assert len(calls) <= 48
        for i, y in enumerate(targets):
            if i == slot:
                self._same_error(out[i], a, y)
            else:
                self._same(out[i], stiefel.stiefel_log(a, y))

    @pytest.mark.parametrize("stacked", [False, True])
    def test_step_cap_ends_the_log(self, monkeypatch, stacked):
        # two steps leave the target at 1.6 short of LOG_TAU; in a stack the
        # target at 0.01 converges in them as alone
        rng = np.random.default_rng(42)
        u = stiefel.random_point(rng, 40, 4)
        near, far = (stiefel.stiefel_exp(stiefel.random_tangent(rng, u, s)) for s in (0.01, 1.6))
        alone = stiefel.stiefel_log(u, near)
        monkeypatch.setattr(stiefel, "LOG_MAX_ITER", 2)
        logm, residuals = linalg.logm, []

        def spy(v):  # ||C||_F of the last matrix, the far target's
            out = logm(v)
            residuals.append(np.linalg.norm(out[..., 4:, 4:].reshape(-1, 16)[-1]))
            return out

        monkeypatch.setattr(linalg, "logm", spy)
        if stacked:
            out = stiefel.stiefel_log(u, [near, far])
            self._same(out[0], alone)
            error = self._same_error(out[1], u, far)
        else:
            with pytest.raises(StiefelLogError) as info:
                stiefel.stiefel_log(u, far)
            error = info.value
        assert "iteration 2: LOG_MAX_ITER = 2 steps taken" in str(error)
        assert error.iterations == 2
        assert error.residual == pytest.approx(residuals[1], rel=1e-12) and error.residual > stiefel.LOG_TAU

    def test_lone_survivor_whose_kernel_raises(self, monkeypatch):
        # the target at 0.3 leaves the stack first; the next kernel log, of
        # the survivor alone, raises, and the survivor restarts alone, where
        # the kernel log of its completion raises as in its own log
        rng = np.random.default_rng(42)
        u = stiefel.random_point(rng, 40, 4)
        targets = [stiefel.stiefel_exp(stiefel.random_tangent(rng, u, s)) for s in (0.3, 1.6)]
        alone = stiefel.stiefel_log(u, targets[0])
        logm, stacked = linalg.logm, []

        def spy(v):
            if v.ndim == 2:
                raise DomainError("logm: injected failure")
            stacked.append(v.shape)
            return logm(v)

        monkeypatch.setattr(linalg, "logm", spy)
        out = stiefel.stiefel_log(u, targets)
        assert stacked == [(2, 8, 8)] * 4
        self._same(out[0], alone)
        assert "iteration 0: logm: injected failure" in str(self._same_error(out[1], u, targets[1]))

    def test_other_component_fails_in_its_slot(self):
        rng = np.random.default_rng(3)
        u = stiefel.random_point(rng, 5, 5)
        y = stiefel.random_point(rng, 5, 5).u.copy()
        if np.linalg.det(u.u.T @ y) > 0.0:
            y[:, 0] *= -1.0
        near = stiefel.stiefel_exp(stiefel.random_tangent(rng, u, 0.5))
        out = stiefel.stiefel_log(u, [stiefel.StiefelPoint(y), near])
        assert isinstance(out[0], StiefelLogError) and "two components" in str(out[0])
        self._same(out[1], stiefel.stiefel_log(u, near))

    def test_each_target_counts(self, rng, monkeypatch, kernel_calls):
        # a stacked call counts one log per target, and one kernel log per matrix
        u = stiefel.random_point(rng, 30, 4)
        targets = [stiefel.stiefel_exp(stiefel.random_tangent(rng, u, s)) for s in (0.2, 0.9, 1.8)]
        kernel_calls.clear()
        stiefel.stiefel_log(u, targets)
        assert kernel_calls == {"log": 3}
        calls = record_kernel_logs(monkeypatch)
        stiefel.stiefel_log(u, targets)
        for y in targets:
            stiefel.stiefel_log(u, y)
        counts = kernel_log_counts(calls)
        assert len(counts) == 4 and counts[0] == sum(counts[1:])

    def test_dist_of_pairs(self, rng):
        a, b = far_pair()
        u = stiefel.random_point(rng, 8, 6)
        v = stiefel.stiefel_exp(stiefel.random_tangent(rng, u, scale=0.6))
        out = stiefel.dist([u, v, a], [u, u, b])
        assert out[0] == 0.0
        assert abs(out[1] - stiefel.dist(v, u)) <= 1e-14
        assert isinstance(out[2], StiefelLogError)


class TestGuardValues:
    """Literal inputs at each guard's value: a test that reads its guard back from the module cannot see the value change."""

    @pytest.mark.parametrize("level, accepted", [(1e-6, False), (1e-10, True)])
    def test_tangency_contract(self, rng, level, accepted):
        # ||U'D + D'U||_F = level ||D||_F, at ||D||_F = 4
        u = stiefel.random_point(rng, 12, 4)
        d = _with_symmetric_part(rng, u, level / stiefel.TANGENT_TOL, 4.0)
        assert (_refusal(lambda: stiefel.TangentVector(u, d)) == "") == accepted
        frame = stiefel.tangent_frame(u, [d])
        assert (_refusal(lambda: frame.combination((1.0,))) == "") == accepted

    @pytest.mark.parametrize("stacked", [False, True])
    def test_residual_rising_by_half_stops_the_log(self, monkeypatch, rng, stacked):
        # the spy sets ||C||_F of the first target's second kernel log to 1.5
        # times its first, a rise by less than 2x; in a stack the other target
        # converges as alone
        u = stiefel.random_point(rng, 20, 3)
        targets = [stiefel.stiefel_exp(stiefel.random_tangent(rng, u, s)) for s in (0.5, 1.0)]
        alone = stiefel.stiefel_log(u, targets[1])
        logm, first = linalg.logm, []

        def spy(v):
            out = logm(v)
            c = out.reshape(-1, 6, 6)[0, 3:, 3:]
            if len(first) == 1:
                c *= 1.5 * first[0] / np.linalg.norm(c)
            first.append(np.linalg.norm(c))
            return out

        monkeypatch.setattr(linalg, "logm", spy)
        stopped = r"iteration 1: \|\|C\|\|_F stopped falling"
        if not stacked:
            with pytest.raises(StiefelLogError, match=stopped):
                stiefel.stiefel_log(u, targets[0])
            return
        out = stiefel.stiefel_log(u, targets)
        assert isinstance(out[0], StiefelLogError) and re.search(stopped, str(out[0]))
        assert np.linalg.norm(out[1].delta - alone.delta) <= 1e-13

    def test_rotation_inside_the_pi_band_fails_the_log(self, rng):
        # the angle pi - 4 (2r) eps is inside logm's band of 8 (2r) eps
        u = stiefel.random_point(rng, 10, 4)
        with pytest.raises(StiefelLogError, match="iteration 0: logm: an eigenvalue lies within round-off of -1"):
            stiefel.stiefel_log(u, _near_pi_target(u))


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
    """The loop of ``stiefel_log``: polish, log kernel, Sylvester step."""

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
        # 0.57 pi apart at St(1000, 10), as in the fit_far benchmark: 6 kernel
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
                delta = rank_one_tangent(rng, 60, 6)
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

    @pytest.mark.parametrize("r", [3, 6, 10])
    def test_step_is_the_eigh_solution_bitwise(self, r):
        rng = np.random.default_rng(r)
        b, c = 2.0 * rng.standard_normal((r, r)), rng.standard_normal((r, r))
        c = c - c.T
        s, p = np.linalg.eigh(b @ b.T / 12.0 - 0.5 * np.eye(r))
        denom = np.minimum(s[:, np.newaxis] + s[np.newaxis, :], stiefel.SYLVESTER_DENOM_MAX)
        x = p @ ((p.T @ c @ p) / denom) @ p.T
        assert np.array_equal(stiefel._step(b, c), 0.5 * (x - x.T))

    def test_step_eigensolver_failure_raises(self, monkeypatch):
        rng = np.random.default_rng(10)
        u = stiefel.random_point(rng, 40, 4)
        target = stiefel.stiefel_exp(stiefel.random_tangent(rng, u, scale=0.5))
        dsyevd = linalg.lapack.dsyevd
        # the step's solver reads the lower triangle, logm's the upper: only the step's fails
        monkeypatch.setattr(linalg.lapack, "dsyevd", lambda h, lower: (*dsyevd(h, lower=lower)[:2], 3 * lower))
        with pytest.raises(StiefelLogError, match="iteration 0: step: dsyevd .*info = 3") as info:
            stiefel.stiefel_log(u, target)
        assert info.value.iterations == 0

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
        with pytest.raises(StiefelLogError, match="iteration 1: polish: .*orthogonality") as info:
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
        xi = rank_one_tangent(rng, n, r)
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

    @pytest.mark.parametrize("n, r, k", [(40, 4, 1), (40, 4, 3), (40, 4, 6), (8, 6, 3)])
    def test_exp_is_its_kernels_bitwise(self, n, r, k):
        # k = 1 has m = r; k = 3 and 6 have m > r and a QR of M; St(8, 6) has n < k r.
        # The transport's rows at h <= 1e-5 are round-off over h, so an exp that
        # is not bitwise this formula moves them.
        rng = np.random.default_rng(17)
        u = stiefel.random_point(rng, n, r)
        frame = stiefel.tangent_frame(u, [stiefel.random_tangent(rng, u).delta for _ in range(k)])
        assert np.shares_memory(frame.flat, frame.coords)
        for c in rng.uniform(-1.0, 1.0, (3, k)):
            x = (c @ frame.coords.reshape(k, -1)).reshape(-1, r)
            a, m = x[:r], x[r:]
            basis = None
            if m.shape[0] > r:
                basis, m = linalg.qr_basis(m)
            e = linalg.expm(np.block([[a, -m.T], [m, np.zeros((r, r))]]))
            e21 = e[r:, :r] if basis is None else basis @ e[r:, :r]
            assert np.array_equal(frame.exp(c).u, u.u @ e[:r, :r] + frame.q @ e21)
        xi = stiefel.random_tangent(rng, u, scale=1.2)
        split = stiefel.split_tangent(xi)
        a, m = split.coords[0, :r], split.coords[0, r:]
        e = linalg.expm(np.block([[a, -m.T], [m, np.zeros((r, r))]]))
        assert np.array_equal(stiefel.stiefel_exp(xi).u, u.u @ e[:r, :r] + split.q @ e[r:, :r])

    @pytest.mark.parametrize("method", ["exp", "combination"])
    @pytest.mark.parametrize(
        "coeffs", [(np.inf, 0, 0), (-np.inf, 0, 0), (np.nan, 0, 0), (1e200, 0, 0), (1e300, 1e300, 0)]
    )
    def test_non_finite_or_overflowing_coefficients_refused(self, method, coeffs):
        # refused before any arithmetic, so nothing warns (warnings are errors here)
        rng = np.random.default_rng(3)
        u = stiefel.random_point(rng, 10, 3)
        frame = stiefel.tangent_frame(u, [stiefel.random_tangent(rng, u).delta for _ in range(3)])
        with pytest.raises(PreconditionError, match="not finite or may overflow"):
            getattr(frame, method)(coeffs)
        # at the bound the combination and its norm stay finite
        assert np.isfinite(stiefel.norm(frame.combination((frame.coeff_max, 0.0, 0.0))))

    def test_exp_refuses_norms_past_the_drift_bound(self):
        # refused before expm, whose squarings overflow and warn at 1e20
        # (warnings are errors here); the combination itself is still built
        rng = np.random.default_rng(3)
        u = stiefel.random_point(rng, 10, 3)
        frame = stiefel.tangent_frame(u, [stiefel.random_tangent(rng, u).delta for _ in range(3)])
        unit = 1.0 / np.linalg.norm(frame.combination((1.0, 0.0, 0.0)).delta)
        for c in (1e20, 1.01 * stiefel.EXP_NORM_MAX * unit):
            with pytest.raises(PreconditionError, match="passes EXP_NORM_MAX"):
                frame.exp((c, 0.0, 0.0))
            assert np.isfinite(frame.combination((c, 0.0, 0.0)).delta).all()
        frame.exp((0.99 * stiefel.EXP_NORM_MAX * unit, 0.0, 0.0))

    @pytest.mark.parametrize("normal_norm", [0.5, 4.0])
    def test_combination_skew_threshold(self, rng, normal_norm):
        # the TangentVector threshold test on a frame: at 0.9 of the bound the
        # combination passes; at 1.1 the r x r check refuses it before any exp
        u = stiefel.random_point(rng, 12, 4)
        passing, failing = (
            stiefel.tangent_frame(u, [_with_symmetric_part(rng, u, fraction, normal_norm)])
            for fraction in (0.9, 1.1)
        )
        assert _refusal(lambda: passing.combination((1.0,))) == ""
        assert _refusal(lambda: failing.exp((1.0,))).startswith("combination is not tangent")

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
