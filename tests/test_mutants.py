"""The suite's sensitivity: named checks must catch small deliberate faults.

Each test patches one module-level function of the library, or one check
of its types, with a mutant that is wrong by 1-5% or by one dropped
factor or order, compares with the wrong bound or gives the same result
at more kernel work, calls the checks that must catch it as plain
functions, and asserts that each of them fails.  The library reaches its
kernels through module attributes and its checks through class
attributes, so a patch reaches every caller; a fit looks its coefficient
rule up on ``interpolate`` when it binds it, so a patch made before
fitting reaches the curve.  ``hermite_coeffs`` is not patched: the checks
build their reference from it.
"""

import numpy as np
import pytest
import test_acceptance
import test_calculus
import test_experiments
import test_interpolate
import test_oracles
import test_stiefel

from stiefel_hermite import calculus, linalg, stiefel
from stiefel_hermite import experiments as ex
from stiefel_hermite import interpolate as interp
from stiefel_hermite.errors import PreconditionError

# The checks, imported as modules so that this one does not collect them again;
# each is called with the generator its module's ``rng`` fixture returns.
frames = test_interpolate.TestFrameEvaluation()
sphere = test_oracles.TestSphereOracle()


def _mutate(monkeypatch, module, name, change):
    """Replace ``module.<name>`` by ``change`` applied to its output."""
    kernel = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: change(kernel(*args, **kwargs)))


@pytest.mark.parametrize("centering", interp.CENTERINGS)
def test_hermite_b0_mutant(monkeypatch, qr_path, centering):
    _mutate(monkeypatch, interp, "_hermite_arc_coeffs", lambda c: (c[0], 1.02 * c[1], c[2]))
    with pytest.raises(AssertionError):
        frames.test_composite(qr_path, centering)


def test_geodesic_fraction_mutant(monkeypatch, qr_path):
    _mutate(monkeypatch, interp, "_geodesic_coeffs", lambda c: (1.01 * c[0],))
    with pytest.raises(AssertionError):
        frames.test_geodesic(qr_path)


def test_rbf_weights_mutant(monkeypatch, qr_path):
    # the coefficients multiply the weights, so this scales every weight
    _mutate(monkeypatch, interp, "_rbf_coeffs", lambda c: 1.01 * c)
    with pytest.raises(AssertionError):
        frames.test_rbf(qr_path)


def test_log_mutant(monkeypatch):
    _mutate(monkeypatch, stiefel, "stiefel_log", lambda xi: 1.01 * xi)
    with pytest.raises(AssertionError):
        sphere.test_log()
    with pytest.raises(AssertionError):
        test_stiefel.TestLog().test_round_trip(np.random.default_rng(42))


def _log_with_sin_from_cos(x):
    """The inverse Rodrigues log scaling S by arccos(c) / sqrt(1 - c^2), not by theta / s.

    It reads each sin off the cosine instead of measuring it on S, which
    loses accuracy as an angle nears pi.
    """
    v = np.asarray(x, dtype=float)
    c, p = np.linalg.eigh(0.5 * (v + v.T))
    c = np.clip(c, -1.0, 1.0)
    sin = np.sqrt(1.0 - c * c)
    scale = np.ones_like(c)
    scale[sin > 0.0] = np.arccos(c[sin > 0.0]) / sin[sin > 0.0]
    out = (p * scale) @ (p.T @ (0.5 * (v - v.T)))
    return 0.5 * (out - out.T)


def test_log_kernel_mutant(monkeypatch, orthogonal_pairs):
    monkeypatch.setattr(linalg, "logm", _log_with_sin_from_cos)
    with pytest.raises(AssertionError):
        test_stiefel.TestLog().test_orthogonal_group_log_is_principal_log(orthogonal_pairs)
    with pytest.raises(AssertionError):
        test_oracles.TestOrthogonalGroupOracle().test_log(orthogonal_pairs)


def _point_check_on_squared_drift(self):
    """StiefelPoint's check comparing ||U'U - I||_F^2, not ||U'U - I||_F, with ORTH_TOL."""
    u = np.asarray(self.u, dtype=float)
    if np.linalg.norm(u.T @ u - np.eye(u.shape[1])) ** 2 > linalg.ORTH_TOL:
        raise PreconditionError("columns are not orthonormal")
    object.__setattr__(self, "u", u)


def test_point_check_mutant(monkeypatch):
    monkeypatch.setattr(stiefel.StiefelPoint, "__post_init__", _point_check_on_squared_drift)
    with pytest.raises(AssertionError):
        test_stiefel.TestTypes().test_point_drift_threshold(np.random.default_rng(42))


def test_ambient_basis_exp_mutant(monkeypatch, qr_path):
    # an exponential that reads the ambient basis: rotating the input does not rotate the output
    _mutate(monkeypatch, stiefel.TangentFrame, "exp", test_experiments._nudged_first_row)
    with pytest.raises(AssertionError):
        test_oracles.TestIsometryOracle().test_orthogonal_map(40, 3, 0.57)
    with pytest.raises(AssertionError):
        test_oracles.TestIsometryOracle().test_embedding(qr_path)


def _blocks_without_scale(self, coeffs):
    """TangentFrame._blocks comparing ||A + A'||_F with TANGENT_TOL, not TANGENT_TOL max(1, ||x||_F)."""
    c = np.asarray(coeffs, dtype=float)
    r = self.base.r
    x = (c @ self.coords.reshape(len(c), -1)).reshape(-1, r)
    a = x[:r]
    if np.linalg.norm(a + a.T) > stiefel.TANGENT_TOL:
        raise PreconditionError("combination is not tangent at base")
    return a, x[r:], np.linalg.norm(x)


def test_combination_check_mutant(monkeypatch):
    monkeypatch.setattr(stiefel.TangentFrame, "_blocks", _blocks_without_scale)
    with pytest.raises(AssertionError):
        test_stiefel.TestTangentFrame().test_combination_skew_threshold(np.random.default_rng(42), 4.0)


def test_dexp_mutant(monkeypatch):
    _mutate(monkeypatch, calculus, "dexp_stiefel", lambda d: 1.01 * d)
    with pytest.raises(AssertionError):
        sphere.test_exp_and_dexp()
    with pytest.raises(AssertionError):
        test_calculus.TestDexpStiefel().test_matches_fd_oracle(np.random.default_rng(0))


def test_dist_mutant(monkeypatch):
    _mutate(monkeypatch, stiefel, "dist", lambda d: 1.05 * d)
    with pytest.raises(AssertionError):
        test_stiefel.TestDist().test_radial_isometry(np.random.default_rng(42))
    with pytest.raises(AssertionError):
        test_oracles.test_observed_curvature_tends_to_oneill(12, 1, 0)


def _scaled_normal_v_dot(kernel):
    """``diff_svd_truncated`` with the part of v_dot outside span(v) scaled by 1.01."""
    def mutant(y_dot, svd):
        u_dot, sigma_dot, v_dot = kernel(y_dot, svd)
        v = svd[2]
        return u_dot, sigma_dot, v_dot + 0.01 * (v_dot - v @ (v.T @ v_dot))

    return mutant


def test_svd_normal_term_mutant(monkeypatch):
    # the term that carries v_dot out of span(v) exists only at rank < m
    monkeypatch.setattr(calculus, "diff_svd_truncated", _scaled_normal_v_dot(calculus.diff_svd_truncated))
    with pytest.raises(AssertionError):
        test_calculus.TestDiffSVDTruncated().test_matches_fd_oracle(np.random.default_rng(0))
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_5_differential_oracles()


def _mask_without_exp(kernel):
    """``_dexp_inverse_mask`` without the factor e^lambda_a of Psi_ab = e^lambda_a / Phi_ab."""
    def mutant(mu):
        return kernel(mu) * np.exp(1j * mu)[:, np.newaxis]

    return mutant


def test_exact_transport_mask_mutant(monkeypatch, orthogonal_pairs):
    monkeypatch.setattr(calculus, "_dexp_inverse_mask", _mask_without_exp(calculus._dexp_inverse_mask))
    with pytest.raises(AssertionError):
        sphere.test_transport_is_the_derivative_of_the_log()
    with pytest.raises(AssertionError):
        test_oracles.TestOrthogonalGroupOracle().test_transport_inverts_expm_frechet(orthogonal_pairs)


def _one_sided_transport(delta, v_p, h):
    """(Log_q(Exp_p(h v_p)) - Log_q(p)) / h: first order in h, where the central difference is second."""
    q = delta.base
    plus = stiefel.stiefel_log(q, stiefel.split_tangent(v_p).exp((h,)), start=delta)
    return stiefel.project_tangent(q, (plus.delta - delta.delta) / h)


def test_one_sided_transport_mutant(monkeypatch, transport_pair):
    monkeypatch.setattr(calculus, "_central_difference", _one_sided_transport)
    with pytest.raises(AssertionError):
        test_calculus.TestValidateTransport().test_tuned_step(transport_pair)
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_1_transport_accuracy(transport_pair)


def _transport_without_reflection(delta, v_p, h):
    """The central difference with its -h log started from Log_q(p), not 2 Log_q(p) - Log_q(p+)."""
    q = delta.base
    frame = stiefel.split_tangent(v_p)
    plus, minus = (stiefel.stiefel_log(q, frame.exp((s,)), start=delta) for s in (h, -h))
    return stiefel.project_tangent(q, (plus.delta - minus.delta) / (2.0 * h))


def test_transport_reflection_start_mutant(monkeypatch):
    # the same central difference to round-off, at more kernel logs
    monkeypatch.setattr(calculus, "_central_difference", _transport_without_reflection)
    with pytest.raises(AssertionError):
        test_interpolate.TestArc().test_minus_h_log_starts_from_the_reflection(monkeypatch)


def test_qr_lift_sign_mutant(monkeypatch):
    # the lift of the coordinates' QR without qr_econ's sign convention:
    # the Householder signs that LAPACK leaves
    def unsigned_factor(data, t):
        q, r_factor = np.linalg.qr(data.path.coordinates(t))
        return linalg.EconQR(data.path.basis @ q, r_factor, False)

    monkeypatch.setattr(ex.QRExperimentData, "factor", unsigned_factor)
    with pytest.raises(AssertionError):
        test_experiments.TestQRExperiment().test_factored_path_matches_direct_qr(100, 6, False)


def test_lowrank_svd_cubic_mutant(monkeypatch):
    # the cubic path's coordinates without their cubic term C3 t^3, which
    # both the QR and the low-rank SVD family factor
    def quadratic_coordinates(path, t):
        c0, c1, c2, _ = path.coords
        return c0 + t * c1 + t * t * c2

    monkeypatch.setattr(ex._CubicPath, "coordinates", quadratic_coordinates)
    with pytest.raises(AssertionError):
        test_experiments.TestQRExperiment().test_factored_path_matches_direct_qr(100, 6, False)
    with pytest.raises(AssertionError):
        test_experiments.TestSVDExperiment().test_factored_svd_matches_direct_svd(80, 5, 30)


def _distance_in_span(basis, usv, x):
    """``experiments._lowrank_distance`` without the part of U outside span(Q4)."""
    u, s, v = usv
    return np.linalg.norm(((basis.T @ u) * s) @ v.T - x)


def test_lowrank_distance_in_span_mutant(monkeypatch):
    monkeypatch.setattr(ex, "_lowrank_distance", _distance_in_span)
    with pytest.raises(AssertionError):
        test_experiments.TestSVDExperiment().test_factored_error_matches_direct_error(
            monkeypatch, 80, 5, 30, True)
