"""The suite's sensitivity: named checks must catch small deliberate faults.

Each test patches one module-level function of the library, or one check
of its types, with a mutant that is wrong by 1-5% or by one dropped
factor or order, compares with the wrong bound or gives the same result
at more kernel work, calls the checks that must catch it as plain
functions, and asserts that each of them fails.  A mutant is written
out, or recompiled from the function's source with one expression
changed (``_source_mutant``).  The library reaches its
kernels through module attributes and its checks through class
attributes, so a patch reaches every caller; a fit looks its coefficient
rule up on ``interpolate`` when it binds it, so a patch made before
fitting reaches the curve.  ``hermite_coeffs`` is not patched: the checks
build their reference from it.
"""

import inspect

import numpy as np
import pytest
import test_acceptance
import test_calculus
import test_experiments
import test_interpolate
import test_linalg
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


def _transport_sweep():
    """The transport study's sweep at St(1001, 6), run under the mutant."""
    return ex.run_transport_accuracy(ex.ExperimentConfig(n=1001, r=6, seed=0))


def _source_mutant(func, old, new):
    """``func`` recompiled from its source with the one occurrence of ``old`` replaced by ``new``."""
    source = inspect.getsource(func)
    assert source.count(old) == 1
    namespace = dict(func.__globals__)
    exec(source.replace(old, new), namespace)
    return namespace[func.__name__]


# the line of stiefel._iterate that restarts each half of a failed stack
_RESTART = "ends.update(zip(part, _iterate(start[part[0]] if len(part) == 1 else start[part], r)))"


def test_failed_stack_shares_its_error_mutant(monkeypatch):
    # every target still in a failed stack ends with the stack's error
    shared = "ends.update((t, (None, k, history[t], str(exc))) for t in part)"
    monkeypatch.setattr(stiefel, "_iterate", _source_mutant(stiefel._iterate, _RESTART, shared))
    with pytest.raises(AssertionError):
        test_stiefel.TestStackedLog().test_failures_stay_in_their_slots(np.random.default_rng(42))


def test_failed_stack_restarts_alone_mutant(monkeypatch):
    # a failed stack restarts each of its targets alone, not in halves
    halves = "filter(None, (live[: len(live) // 2], live[len(live) // 2:]))"
    monkeypatch.setattr(stiefel, "_iterate", _source_mutant(stiefel._iterate, halves, "([t] for t in live)"))
    with pytest.raises(AssertionError, match="<= 48"):
        test_stiefel.TestStackedLog().test_a_failed_stack_keeps_the_rest_stacked(monkeypatch, 16)


def test_log_mutant(monkeypatch):
    # a stacked call's logs come back scaled too
    _mutate(monkeypatch, stiefel, "stiefel_log",
            lambda out: [1.01 * xi for xi in out] if isinstance(out, list) else 1.01 * out)
    with pytest.raises(AssertionError):
        sphere.test_log()
    with pytest.raises(AssertionError):
        test_stiefel.TestLog().test_round_trip(np.random.default_rng(42))
    with pytest.raises(AssertionError):
        test_experiments.TestTransportAccuracy().test_rows_lie_in_the_band_of_rotated_copies(_transport_sweep())


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


def _one_sided_offsets(kernel):
    """``_offset_logs`` with each -h log replaced by 2 Log_q(p) - Log_q(Exp_p(h v_p)).

    The central difference of the two then is (Log_q(Exp_p(h v_p)) - Log_q(p)) / h:
    first order in h, where the central difference is second.
    """
    def mutant(q, v_p, steps):
        delta = stiefel.stiefel_log(q, v_p.base)
        return [(plus, 2.0 * delta - plus) for plus, _ in kernel(q, v_p, steps)]

    return mutant


def test_one_sided_transport_mutant(monkeypatch, transport_pair):
    monkeypatch.setattr(calculus, "_offset_logs", _one_sided_offsets(calculus._offset_logs))
    with pytest.raises(AssertionError):
        test_calculus.TestValidateTransport().test_tuned_step(transport_pair)
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_1_transport_accuracy(transport_pair)


def test_transport_step_mutant(monkeypatch):
    # the offset points at +-1.1 h, the difference quotient still over 2 h
    kernel = calculus._offset_logs
    monkeypatch.setattr(calculus, "_offset_logs", lambda q, v_p, steps: kernel(q, v_p, [1.1 * h for h in steps]))
    with pytest.raises(AssertionError):
        test_experiments.TestTransportAccuracy().test_rows_lie_in_the_band_of_rotated_copies(_transport_sweep())


def test_qr_lift_sign_mutant(monkeypatch):
    # the coordinates' Q-factor without qr_econ's sign convention: the
    # Householder signs that LAPACK leaves, in place of the given factors
    def unsigned_sample(path, t, qr):
        q, r_factor = np.linalg.qr(path.coordinates(t))
        velocity = calculus.diff_qr(path.coordinates_dot(t), linalg.EconQR(q, r_factor, False))
        return interp.HermiteSample(float(t), stiefel.TangentVector(stiefel.StiefelPoint(q), velocity))

    monkeypatch.setattr(ex, "_q_sample", unsigned_sample)
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


@pytest.mark.parametrize("stem", sorted(test_experiments.N_ROW_ORACLES))
def test_coordinate_velocity_mutant(monkeypatch, stem):
    # the coordinates' velocities Cdot(t) scaled by 1.001, from which the
    # study's family samples; the direct checks differentiate Y(t) and W(t)
    _mutate(monkeypatch, ex._CubicPath, "coordinates_dot", lambda c: 1.001 * c)
    with pytest.raises(AssertionError):
        if stem.startswith("qr"):
            test_experiments.TestQRExperiment().test_factored_path_matches_direct_qr(100, 6, False)
        else:
            test_experiments.TestSVDExperiment().test_samples_match_the_derivative_of_w(80, 5, 30)


def test_l2_rel_as_rms_mutant(monkeypatch):
    # the root mean square of the errors, which ignores the grid's spacing and span
    rms = property(lambda self: {m: float(np.sqrt(np.mean(np.square(e)))) for m, e in self.errors.items()})
    monkeypatch.setattr(ex.ErrorReport, "l2_rel", rms)
    with pytest.raises(AssertionError):
        test_experiments.TestReports().test_summaries_from_columns()
    with pytest.raises(AssertionError):
        test_experiments.TestReports().test_fresh_footers_match_their_columns()


def test_max_rel_skips_the_first_point_mutant(monkeypatch):
    skipped = property(lambda self: {m: float(np.max(e[1:])) for m, e in self.errors.items()})
    monkeypatch.setattr(ex.ErrorReport, "max_rel", skipped)
    with pytest.raises(AssertionError):
        test_experiments.TestReports().test_summaries_from_columns()


def test_stacked_qr_without_sign_fix_mutant(monkeypatch):
    # a stack keeps the Householder signs that LAPACK leaves; a lone matrix is fixed
    unsigned = _source_mutant(linalg.qr_econ, "if np.any(flip):", "if mat.ndim == 2 and np.any(flip):")
    monkeypatch.setattr(linalg, "qr_econ", unsigned)
    with pytest.raises(AssertionError):
        test_linalg.TestQrEcon().test_stack_is_each_matrix_factorization(24, 6)


def test_scan_hands_out_the_next_factor_mutant(monkeypatch):
    # grid point i gets the factor of grid point i + 1, the last the first's
    shifted = _source_mutant(ex._draw_qr_path, "qr.q[len(nodes):]", "np.roll(qr.q[len(nodes):], -1, axis=0)")
    monkeypatch.setattr(ex, "_draw_qr_path", shifted)
    with pytest.raises(AssertionError):
        test_experiments.TestQRExperiment().test_grid_factors_are_the_q_factors_of_the_grid(100, 6)
    with pytest.raises(AssertionError):
        test_experiments.TestCoordinates().test_match_the_n_row_pipeline("qr_interp_n500_r10")


def test_product_without_z_dot_mutant(monkeypatch):
    # Wdot = Ydot Z without its Y Zdot term; the samples and the n-row
    # w_dot share the rule, so only a difference of w itself sees it
    partial_rule = _source_mutant(ex._product, " + y(t) @ _cubic_dot(zs, t)", "")
    monkeypatch.setattr(ex, "_product", partial_rule)
    cfg = ex.ExperimentConfig(n=80, r=5, m=30, interval=(0.0, 0.5), num_nodes=2, seed=0)
    with pytest.raises(AssertionError):
        test_experiments.TestSVDExperiment().test_derivative_matches_fd((cfg, ex.gen_lowrank_svd_experiment(cfg)))


def test_sampler_cuts_sigma_to_rank_mutant(monkeypatch):
    # the sampler hands the derivative only the r leading singular values,
    # so its rank test sees no trailing one
    cut = _source_mutant(ex._sample_svd_path, "return u[:, :r], sigma, v[:, :r]", "return u[:, :r], sigma[:r], v[:, :r]")
    monkeypatch.setattr(ex, "_sample_svd_path", cut)
    with pytest.raises(AssertionError, match="SVD_RANK_EPS"):
        test_experiments.TestSVDExperiment().test_close_leading_gap_rejected_by_the_derivative(monkeypatch)


def test_sigma_slopes_swapped_mutant(monkeypatch):
    # b0 weighs the right end's slope and b1 the left's: the values at the
    # nodes stay exact, the curve between them does not
    swapped = _source_mutant(ex._interpolated_sigma, "a0, a1, b0, b1 = ", "a0, a1, b1, b0 = ")
    monkeypatch.setattr(ex, "_interpolated_sigma", swapped)
    with pytest.raises(AssertionError):
        test_experiments.TestInterpolatedSigma().test_hermite_basis_and_segment_fraction()
