import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefel_hermite import calculus
from stiefel_hermite import experiments as ex
from stiefel_hermite import interpolate as interp
from stiefel_hermite import stiefel
from stiefel_hermite.errors import ArcFitError, DomainError, PreconditionError, StiefelLogError

from conftest import far_pair, far_samples, kernel_log_counts, knot_residuals, make_samples, record_kernel_logs


@pytest.fixture
def rng():
    return np.random.default_rng(1)


class TestHermiteCoeffs:
    def test_cardinal_values_at_knots(self):
        assert interp.hermite_coeffs(0.0, 0.0, 1.0) == pytest.approx((1.0, 0.0, 0.0, 0.0))
        assert interp.hermite_coeffs(1.0, 0.0, 1.0) == pytest.approx((0.0, 1.0, 0.0, 0.0))

    def test_midpoint_values(self):
        # b0, b1 scale with the span; a span of 1e-120 has a cube below the
        # smallest float64
        for span in (1.0, 1e-120):
            a0, a1, b0, b1 = interp.hermite_coeffs(0.5 * span, 0.0, span)
            assert (a0, a1, b0, b1) == (0.5, 0.5, 0.125 * span, -0.125 * span)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            interp.hermite_coeffs(0.0, 1.0, 1.0)

    @given(
        st.floats(-50, 50),
        st.floats(-50, 50),
        st.floats(0.01, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_cardinal_conditions_general_interval(self, t_rel, t0, span):
        t1 = t0 + span
        t = t0 + t_rel / 100.0 * span
        a0, a1, b0, b1 = interp.hermite_coeffs(t, t0, t1)
        assert a0 + a1 == 1.0
        # derivative cardinal conditions via central differences
        eps = 1e-6 * span
        for idx, (v0, d0, v1, d1) in enumerate(
            [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)]
        ):
            f = lambda x: interp.hermite_coeffs(x, t0, t1)[idx]
            assert f(t0) == pytest.approx(v0, abs=1e-9)
            assert f(t1) == pytest.approx(v1, abs=1e-9)
            assert (f(t0 + eps) - f(t0 - eps)) / (2 * eps) == pytest.approx(d0, abs=1e-4)
            assert (f(t1 + eps) - f(t1 - eps)) / (2 * eps) == pytest.approx(d1, abs=1e-4)


class TestArc:
    """One arc: the composite of two samples."""

    def test_degenerate_samples_constant_curve(self, rng):
        point = stiefel.random_point(rng, 15, 3)
        zero = stiefel.TangentVector(point, np.zeros((15, 3)))
        s0 = interp.HermiteSample(0.0, zero)
        s1 = interp.HermiteSample(1.0, zero)
        arc = interp.fit_composite([s0, s1])
        for t in (0.0, 0.4, 1.0):
            assert np.linalg.norm(arc(t).u - point.u) < 1e-12

    def test_endpoint_exact_at_center(self, rng):
        samples = make_samples(rng, 30, 4, [0.0, 1.0])
        arc = interp.fit_composite(samples, centering="q")
        # center endpoint is reproduced exactly (all coefficients vanish)
        assert np.linalg.norm(arc(1.0).u - samples[1].point.u) <= 1e-10
        # far endpoint within the log/exp round-trip tolerance
        assert np.linalg.norm(arc(0.0).u - samples[0].point.u) <= 1e-8

    def test_p_centered_swaps_exact_endpoint(self, rng):
        samples = make_samples(rng, 30, 4, [0.0, 1.0])
        arc = interp.fit_composite(samples, centering="p")
        assert np.linalg.norm(arc(0.0).u - samples[0].point.u) <= 1e-10
        assert np.linalg.norm(arc(1.0).u - samples[1].point.u) <= 1e-8

    def test_geodesic_data_reproduces_geodesic(self, rng):
        # samples taken from a geodesic with its true velocities: the arc
        # must follow that geodesic
        u = stiefel.random_point(rng, 25, 4)
        xi = stiefel.random_tangent(rng, u, scale=0.6)
        p1 = stiefel.stiefel_exp(xi)
        # velocity of t -> Exp(t xi) at t=0 is xi; at t=1 transport by FD
        from stiefel_hermite.calculus import dexp_stiefel

        v1 = stiefel.project_tangent(p1, dexp_stiefel(xi, xi))
        s0 = interp.HermiteSample(0.0, xi)
        s1 = interp.HermiteSample(1.0, v1)
        arc = interp.fit_composite([s0, s1])
        mid_arc = arc(0.5)
        mid_geo = stiefel.stiefel_exp(0.5 * xi)
        assert np.linalg.norm(mid_arc.u - mid_geo.u) <= 1e-8

    def test_eval_outside_rejected(self, rng):
        samples = make_samples(rng, 15, 3, [0.0, 1.0])
        arc = interp.fit_composite(samples)
        for t in (1.5, float("nan")):
            with pytest.raises(DomainError, match="outside"):
                arc(t)

    def test_cost_one_log_no_exps(self, rng, kernel_calls):
        samples = make_samples(rng, 20, 4, [0.0, 1.0])
        kernel_calls.clear()
        interp.fit_arc(samples[0], samples[1])
        assert (kernel_calls["log"], kernel_calls["exp"]) == (1, 0)

    @staticmethod
    def _arcs():
        """(s0, s1, centering) of each arc of the St(40, 3) QR-study path, both centerings."""
        cfg = ex.ExperimentConfig(n=40, r=3, interval=(-1.1, 1.1), num_nodes=3, seed=0)
        samples = ex.gen_qr_experiment(cfg).samples
        return [(s0, s1, c) for c in interp.CENTERINGS for s0, s1 in zip(samples, samples[1:])]

    def test_at_most_six_kernel_logs(self, monkeypatch):
        # an arc's one log, Log_q(p), takes 5-6 kernel logs
        arcs = self._arcs()
        calls = record_kernel_logs(monkeypatch)
        for s0, s1, centering in arcs:
            interp.fit_arc(s0, s1, centering=centering)
        counts = kernel_log_counts(calls)
        assert len(counts) == len(arcs) and max(counts) <= 6

    def test_far_samples_raise_arc_fit_error(self):
        a, b = far_pair()
        za = stiefel.TangentVector(a, np.zeros((8, 6)))
        zb = stiefel.TangentVector(b, np.zeros((8, 6)))
        with pytest.raises(ArcFitError) as info:
            interp.fit_arc(interp.HermiteSample(0.0, za), interp.HermiteSample(1.0, zb))
        assert info.value.t0 == 0.0 and info.value.t1 == 1.0


class TestComposite:
    def test_two_samples_equals_single_arc(self, rng):
        samples = make_samples(rng, 20, 4, [0.0, 1.0])
        curve = interp.fit_composite(samples)
        frame = interp.fit_arc(samples[0], samples[1])
        (stored,) = curve.frames
        assert stored.base is samples[1].point
        assert np.array_equal(stored.q, frame.q)
        assert np.array_equal(stored.coords, frame.coords)

    def test_interpolation_conditions(self, rng):
        ts = [0.0, 0.8, 1.7, 2.5]
        samples = make_samples(rng, 40, 5, ts)
        points, velocities, _ = knot_residuals(interp.fit_composite(samples), samples)
        assert max(points) <= 1e-8
        assert max(velocities) <= 1e-4

    def test_c1_joins(self, rng):
        ts = [0.0, 1.0, 2.0, 3.0]
        samples = make_samples(rng, 30, 4, ts)
        _, _, joins = knot_residuals(interp.fit_composite(samples), samples)
        assert max(joins) <= 1e-4

    def test_knot_lookup_convention(self, rng):
        samples = make_samples(rng, 15, 3, [0.0, 1.0, 2.0])
        curve = interp.fit_composite(samples)
        assert interp._segment_index(curve.knots, 0.0) == 0
        # interior knots belong to the right arc, the last knot to the last arc
        assert interp._segment_index(curve.knots, 1.0) == 1
        assert interp._segment_index(curve.knots, 2.0) == 1
        with pytest.raises(DomainError):
            curve(2.1)

    def test_input_validation(self, rng):
        samples = make_samples(rng, 15, 3, [0.0, 1.0])
        with pytest.raises(PreconditionError):
            interp.fit_composite(samples[:1])
        bad = [samples[1], samples[0]]
        with pytest.raises(PreconditionError):
            interp.fit_composite(bad)

    def test_linearity_of_tangent_image(self, rng):
        # scaling all three tangent data scales the tangent interpolant exactly
        samples = make_samples(rng, 20, 4, [0.0, 1.0])
        curve = interp.fit_composite(samples)
        (frame,) = curve.frames
        vectors = [frame.combination(e).delta for e in np.eye(3)]
        scaled = dataclasses.replace(
            curve, frames=(stiefel.tangent_frame(frame.base, [2.5 * v for v in vectors]),)
        )
        for t in np.linspace(0.0, 1.0, 5):
            g1 = interp.arc_tangent(curve, t)
            g2 = interp.arc_tangent(scaled, t)
            assert np.linalg.norm(g2.delta - 2.5 * g1.delta) < 1e-12

    def test_cost_accounting_composite(self, rng, kernel_calls):
        ts = [0.0, 1.0, 2.0, 3.0, 4.0]
        samples = make_samples(rng, 25, 4, ts)
        k = len(ts) - 1
        kernel_calls.clear()
        curve = interp.fit_composite(samples)
        assert (kernel_calls["log"], kernel_calls["exp"]) == (k, 0)
        kernel_calls.clear()
        curve(1.3)
        assert kernel_calls == {"exp": 1}


@pytest.mark.parametrize("fit, n, r, ts, tol", [
    (interp.geodesic_interp, 25, 4, [0.0, 1.0, 2.0], 1e-11),
    (interp.tangent_rbf_interp, 25, 4, [0.0, 1.0, 2.0, 3.0], 1e-8),
    # 2 (t - t_first) overflows here; the rescaling halves the span instead
    (interp.tangent_rbf_interp, 15, 3, [0.0, 0.5e308, 1.5e308], 1e-8),
], ids=["geodesic", "rbf", "rbf-span-past-half-the-float64-range"])
def test_curve_hits_its_samples(rng, fit, n, r, ts, tol):
    pts = [(s.t, s.point) for s in make_samples(rng, n, r, ts)]
    curve = fit(pts)
    for t, p in pts:
        assert np.linalg.norm(curve(t).u - p.u) <= tol


class TestGeodesicInterp:
    def test_midpoint_swap_symmetry(self, rng):
        a = stiefel.random_point(rng, 20, 4)
        b = stiefel.stiefel_exp(stiefel.random_tangent(rng, a, 0.7))
        fwd = interp.geodesic_interp([(0.0, a), (1.0, b)])(0.5)
        bwd = interp.geodesic_interp([(0.0, b), (1.0, a)])(0.5)
        assert np.linalg.norm(fwd.u - bwd.u) <= 1e-8

    def test_failure_identifies_subinterval(self):
        a, b = far_pair()
        with pytest.raises(ArcFitError):
            interp.geodesic_interp([(0.0, a), (1.0, b)])


#: The three fits, each called on Hermite samples.
every_fit = pytest.mark.parametrize("fit", [
    interp.fit_composite,
    lambda samples: interp.geodesic_interp([(s.t, s.point) for s in samples]),
    lambda samples: interp.tangent_rbf_interp([(s.t, s.point) for s in samples]),
], ids=["composite", "geodesic", "rbf"])


@every_fit
def test_one_curve_type(rng, fit):
    # every fit returns a CompositeCurve, whose tangent image arc_tangent reads
    curve = fit(make_samples(rng, 20, 3, [0.0, 1.0, 2.0, 3.0]))
    assert type(curve) is interp.CompositeCurve and curve.failed_indices == ()
    for t in (0.0, 1.4, 2.0, 3.0):
        mapped = stiefel.stiefel_exp(interp.arc_tangent(curve, t))
        assert np.linalg.norm(mapped.u - curve(t).u) <= 1e-13


@every_fit
def test_nan_parameter_rejected(rng, fit):
    curve = fit(make_samples(rng, 20, 3, [0.0, 1.0, 2.0, 3.0]))
    with pytest.raises(DomainError, match="outside"):
        curve(float("nan"))


@every_fit
def test_degenerate_subinterval_rejected(rng, fit):
    samples = make_samples(rng, 15, 3, [0.0, 1e-14, 1.0])
    with pytest.raises(PreconditionError, match="degenerate subinterval"):
        fit(samples)


@every_fit
@pytest.mark.parametrize("ts", [
    [0.0, np.inf],
    [-np.inf, 0.0, 1.0],
    [-1e308, 0.0, 1e308],
], ids=["inf", "minus-inf", "overflowing-span"])
def test_infinite_span_rejected(rng, fit, ts):
    # unrefused, such a plan fits and then evaluates wrongly or not at all
    samples = make_samples(rng, 15, 3, ts)
    with pytest.raises(PreconditionError, match=r"sample span \[.*\] is not finite"):
        fit(samples)


@pytest.mark.parametrize("ts", [[0.0, 0.5e308, 1.5e308], [0.0, 1e160]])
def test_composite_velocity_overflow_refused(rng, ts):
    # a finite span that scales the unit-time velocities past 1e154: the
    # Frobenius norm of an evaluation's combination would overflow
    samples = make_samples(rng, 15, 3, ts)
    span = re.escape(f"sample span [0.0, {ts[-1]:g}]")
    with pytest.raises(PreconditionError, match=rf"{span}.*overflows float64"):
        interp.fit_composite(samples)



def test_composite_exp_drift_refused():
    # span 1e6 scales the velocities to norm 2.1e5, where 12 of 21 evaluations
    # on a uniform grid failed the point check before the fit refused the plan
    samples = make_samples(np.random.default_rng(0), 15, 3, [0.0, 1e6 / 3, 1e6])
    with pytest.raises(PreconditionError, match=r"sample span \[0\.0, 1000000\.0\].*drift"):
        interp.fit_composite(samples)


@pytest.mark.parametrize("span", [1.0, 1e2, 1e4])
def test_composite_wide_span_evaluates_everywhere(span):
    samples = make_samples(np.random.default_rng(0), 15, 3, [0.0, span / 3, span])
    curve = interp.fit_composite(samples)
    for t in np.linspace(0.0, span, 21):
        curve(t)


def test_evaluation_failure_names_its_arc(rng):
    # a one-arc curve whose coefficients scale its vector past EXP_NORM_MAX
    xi = stiefel.random_tangent(rng, stiefel.random_point(rng, 10, 2))
    scale = 2.0 * stiefel.EXP_NORM_MAX / np.linalg.norm(xi.delta)
    frame = stiefel.tangent_frame(xi.base, [xi.delta])
    curve = interp.CompositeCurve(np.array([0.25, 0.75]), (frame,), lambda i, t: (scale,))
    prefix = re.escape("arc 0 on [0.25, 0.75], TangentFrame.exp: ")
    with pytest.raises(PreconditionError, match=rf"^{prefix}.*EXP_NORM_MAX") as info:
        curve(0.5)
    assert type(info.value.__cause__) is PreconditionError

class TestTangentRBF:
    def test_eval_outside_span_rejected(self, rng):
        samples = make_samples(rng, 15, 3, [0.0, 1.0])
        curve = interp.tangent_rbf_interp([(s.t, s.point) for s in samples])
        for t in (5.0, -1e-9, 1.0 + 1e-9):
            with pytest.raises(DomainError, match=r"outside \[0\.0, 1\.0\]"):
                curve(t)

    def test_single_sample_rejected(self, rng):
        p = stiefel.random_point(rng, 12, 3)
        with pytest.raises(PreconditionError, match="at least 2 samples"):
            interp.tangent_rbf_interp([(0.5, p)])

    def test_far_samples_fail_with_indices(self):
        pts = far_samples()
        curve = interp.tangent_rbf_interp(pts)
        assert curve.failed_indices == (0, 1)
        # the surviving samples are still interpolated, on the full span
        assert list(curve.knots) == [0.0, 4.0]
        for t, p in pts[2:]:
            assert np.linalg.norm(curve(t).u - p.u) <= 1e-8

    def test_no_sample_mapped_fails_the_fit(self, rng, monkeypatch):
        def unconverged(base, targets):
            # the stacked log returns each target's error in its slot
            return [StiefelLogError("log stopped at iteration 0", iterations=0, residual=1.0) for _ in targets]

        samples = make_samples(rng, 15, 3, [0.5, 1.0, 2.0])
        monkeypatch.setattr(stiefel, "stiefel_log", unconverged)
        with pytest.raises(ArcFitError, match=re.escape("[0.5, 2.0]")) as info:
            interp.tangent_rbf_interp([(s.t, s.point) for s in samples])
        assert (info.value.t0, info.value.t1) == (0.5, 2.0)
        assert isinstance(info.value.__cause__, StiefelLogError)
        # the study records it as the baseline's failure and goes on
        failures: dict[str, str] = {}
        cfg = ex.ExperimentConfig(n=15, r=3, methods=("rbf",))
        assert ex._method_curves(cfg, samples, failures) == {}
        assert failures == {"rbf": str(info.value)}

    @pytest.mark.parametrize("value", [False, None])
    def test_skip_failed_accepts_only_true(self, value):
        # bench/workloads.py passes skip_failed=True; it gets the default fit
        pts = far_samples()
        with pytest.raises(PreconditionError, match=r"skip_failed=.*ROADMAP item 1"):
            interp.tangent_rbf_interp(pts, skip_failed=value)
        explicit = interp.tangent_rbf_interp(pts, skip_failed=True)
        default = interp.tangent_rbf_interp(pts)
        assert explicit.failed_indices == default.failed_indices == (0, 1)
        for t in np.linspace(0.0, 4.0, 9):
            assert np.array_equal(explicit(t).u, default(t).u)


def _knots_and_interior(knots):
    interior = np.random.default_rng(3).uniform(knots[0], knots[-1], 50)
    return [float(t) for t in knots] + [float(t) for t in interior]


def _reference_arc(s0, s1, centering):
    """An arc's center and its three tangent vectors, recomputed from its samples."""
    near, far = (s1, s0) if centering == "q" else (s0, s1)
    delta_far = stiefel.stiefel_log(near.point, far.point)
    v_far = calculus.transport_velocity(delta_far, far.velocity).delta
    if centering == "q":
        return near.point, (delta_far.delta, v_far, s1.velocity.delta)
    return near.point, (delta_far.delta, s0.velocity.delta, v_far)


class TestFrameEvaluation:
    """Every curve evaluates to stiefel_exp of its ambient tangent vector.

    The reference tangent data is recomputed from the samples, not read from
    the curve, so a fit that stores the wrong vectors cannot pass.
    """

    @pytest.mark.parametrize("centering", interp.CENTERINGS)
    def test_composite(self, qr_path, centering):
        samples = qr_path.samples
        curve = interp.fit_composite(samples, centering=centering)
        for t in _knots_and_interior(curve.knots):
            i = interp._segment_index(curve.knots, t)
            center, (far, start, end) = _reference_arc(samples[i], samples[i + 1], centering)
            a0, a1, b0, b1 = interp.hermite_coeffs(t, samples[i].t, samples[i + 1].t)
            delta = (a0 if centering == "q" else a1) * far + b0 * start + b1 * end
            ambient = stiefel.TangentVector(center, delta)
            assert np.linalg.norm(interp.arc_tangent(curve, t).delta - ambient.delta) <= 1e-13
            assert np.linalg.norm(curve(t).u - stiefel.stiefel_exp(ambient).u) <= 1e-13

    def test_geodesic(self, qr_path):
        points = [s.point for s in qr_path.samples]
        curve = interp.geodesic_interp([(s.t, s.point) for s in qr_path.samples])
        knots = curve.knots
        for t in _knots_and_interior(knots):
            i = min(int(np.searchsorted(knots, t, side="right")) - 1, len(knots) - 2)
            s = (t - knots[i]) / (knots[i + 1] - knots[i])
            expected = stiefel.stiefel_exp(s * stiefel.stiefel_log(points[i], points[i + 1]))
            assert np.linalg.norm(curve(t).u - expected.u) <= 1e-13

    def test_rbf(self, qr_path):
        ts = np.array([s.t for s in qr_path.samples])
        center = qr_path.samples[len(ts) // 2].point
        logs = np.stack([stiefel.stiefel_log(center, s.point).delta for s in qr_path.samples])
        knots = -1.0 + 2.0 * (ts - ts[0]) / (ts[-1] - ts[0])

        def phi(x):
            return 1.0 / np.sqrt(1.0 + (interp.RBF_SHAPE * (x - knots)) ** 2)

        kernel = np.array([phi(x) for x in knots])
        weights = np.linalg.solve(kernel, logs.reshape(len(ts), -1)).reshape(logs.shape)
        curve = interp.tangent_rbf_interp([(s.t, s.point) for s in qr_path.samples])
        for t in _knots_and_interior(ts):
            delta = np.tensordot(phi(-1.0 + 2.0 * (t - ts[0]) / (ts[-1] - ts[0])), weights, axes=1)
            expected = stiefel.stiefel_exp(stiefel.TangentVector(center, delta))
            assert np.linalg.norm(curve(t).u - expected.u) <= 1e-13
