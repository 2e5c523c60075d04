import argparse
import dataclasses
import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from stiefel_hermite import calculus, cli, experiments as ex
from stiefel_hermite import interpolate as interp
from stiefel_hermite import linalg, stiefel
from stiefel_hermite.errors import DomainError, PreconditionError, StiefelLogError

from conftest import assert_v_shape, far_samples, rotated_copy, spy_kernel_logs

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
README = ROOT / "README.md"


def _load_results_check():
    """``bench/results_check.py``, the one home of the committed results' tolerances."""
    path = ROOT / "bench" / "results_check.py"
    spec = importlib.util.spec_from_file_location("results_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


results_check = _load_results_check()

#: The results stem of every paper study whose CSV is an error report.
REPORT_STUDIES = [
    stem
    for command in ("qr-interp", "svd-interp", "tangent-vs-manifold", "snapshot-interp")
    for stem in ex.COMMANDS[command].studies
]


class TestChebyshevNodes:
    def test_single_node_is_midpoint(self):
        assert ex.chebyshev_nodes(0.0, 2.0, 1) == pytest.approx([1.0])

    def test_six_nodes_on_symmetric_interval(self):
        nodes = ex.chebyshev_nodes(-1.1, 1.1, 6)
        expected = [-1.0625, -0.7778, -0.2847, 0.2847, 0.7778, 1.0625]
        assert nodes == pytest.approx(expected, abs=5e-4)

    def test_two_nodes_on_half_interval(self):
        nodes = ex.chebyshev_nodes(0.0, 0.5, 2)
        assert nodes == pytest.approx([0.0732, 0.4268], abs=5e-4)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            ex.chebyshev_nodes(1.0, 0.0, 3)
        with pytest.raises(PreconditionError):
            ex.chebyshev_nodes(0.0, 1.0, 0)


class TestConfig:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(PreconditionError):
            ex.ExperimentConfig(n=5, r=50)

    def test_rejects_bad_interval(self):
        for interval in [(1.0, 1.0), (0.0, np.inf), (-np.inf, 0.0), (0.0, np.nan)]:
            with pytest.raises(PreconditionError, match="interval must be finite"):
                ex.ExperimentConfig(interval=interval)

    def test_rejects_interval_whose_width_overflows(self):
        with pytest.raises(PreconditionError, match=r"\(-1.7e\+308, 1.7e\+308\) overflows float64"):
            ex.ExperimentConfig(interval=(-1.7e308, 1.7e308))

    def test_rejects_unknown_method(self):
        for methods in [("hermite", "spline"), ()]:
            with pytest.raises(PreconditionError, match="methods must be one or more"):
                ex.ExperimentConfig(methods=methods)

    def test_rejects_repeated_method(self):
        # a repeated method would be fitted twice and written as one column
        for methods in [("hermite", "hermite", "geodesic"), ("rbf", "geodesic", "rbf")]:
            with pytest.raises(PreconditionError, match="methods must not repeat"):
                ex.ExperimentConfig(methods=methods)


class TestDistanceBound:
    def test_identical_data_zero(self):
        assert ex.eval_distance_bound(delta=0.3, delta_tilde=0.3, s0=0.0, curvature=1.0) == 0.0

    def test_flat_case_arc_plus_ray(self):
        bound = ex.eval_distance_bound(delta=0.4, delta_tilde=0.25, s0=0.2, curvature=0.0)
        assert bound == pytest.approx(0.15 + 0.2 * 0.4)

    def test_positive_curvature_shrinks(self):
        flat = ex.eval_distance_bound(0.3, 0.3, 0.1, 0.0)
        curved = ex.eval_distance_bound(0.3, 0.3, 0.1, ex.CURVATURE_MAX)
        assert curved < flat

    def test_hypothesis_validation(self):
        with pytest.raises(PreconditionError, match="tangent norms"):
            ex.eval_distance_bound(delta=1.0, delta_tilde=0.2, s0=0.1, curvature=0.0)
        with pytest.raises(PreconditionError, match="angle s0"):
            ex.eval_distance_bound(delta=0.5, delta_tilde=0.2, s0=2.0, curvature=0.0)

    @pytest.mark.parametrize("delta", [0.1, 0.2, 0.3])
    def test_observed_distance_inside_envelope(self, delta):
        cfg = ex.ExperimentConfig(n=40, r=4, seed=3)
        row = ex.bound_check_instance(cfg, delta, delta, 0.1)
        assert row["observed_dist"] <= row["bound_flat"] + 2e-3
        assert row["observed_dist"] >= row["bound_max_curvature"] - 2e-3


class TestQRExperiment:
    def test_samples_are_tangent(self):
        cfg = ex.ExperimentConfig(n=40, r=4, num_nodes=4, seed=0)
        data = ex.gen_qr_experiment(cfg)
        for s in data.samples:
            ud = s.point.u.T @ s.velocity.delta
            assert np.linalg.norm(ud + ud.T) < 1e-10

    def test_reference_continuity(self):
        cfg = ex.ExperimentConfig(n=40, r=4, num_nodes=4, seed=0)
        data = ex.gen_qr_experiment(cfg)
        for t in np.linspace(-1.0, 1.0, 9):
            jump = np.linalg.norm(data.reference(t + 1e-4).u - data.reference(t).u)
            assert jump <= 1e-2

    def test_constant_path_zero_velocity(self):
        cfg = ex.ExperimentConfig(n=30, r=3, num_nodes=3, seed=0)
        frozen = self._frozen(ex.gen_qr_experiment(cfg))
        for t in frozen.nodes:
            assert np.linalg.norm(frozen.sample(t).velocity.delta) < 1e-13

    @staticmethod
    def _frozen(data):
        """The path Y(t) = Y0 of ``data``: its Q-factor stands still."""
        y0 = data.path.coeffs[0]
        zeros = np.zeros_like(y0)
        return ex.QRExperimentData(ex._CubicPath((y0, zeros, zeros, zeros)), data.nodes, [])

    @pytest.mark.parametrize("n, r, frozen", [
        (1000, 10, False), (100, 6, False), (10, 3, False), (3, 3, False), (30, 3, True),
    ], ids=["St(1000,10)", "St(100,6)", "n-below-4r", "n-equals-r", "frozen"])
    def test_factored_path_matches_direct_qr(self, n, r, frozen):
        # Y(t) = Q4 C(t): the QR of the coordinates, lifted, is the QR of
        # Y(t) itself, and the lifted velocity diff_qr of Cdot(t) is diff_qr
        # of Ydot(t), built here from the path's coefficients; measured at
        # most 3.8e-15, and 1.8e-14 for the velocity at n = r
        data = ex.gen_qr_experiment(ex.ExperimentConfig(n=n, r=r, num_nodes=4, seed=0))
        if frozen:
            data = self._frozen(data)
        y0, y1, y2, y3 = data.path.coeffs
        for t in np.linspace(data.nodes[0], data.nodes[-1], 21):
            direct = linalg.qr_econ(y0 + t * y1 + t * t * y2 + t**3 * y3)
            assert np.linalg.norm(data.reference(t).u - direct.q) <= 1e-13
            sample = data.sample(t)
            assert np.linalg.norm(sample.point.u - direct.q) <= 1e-13
            q_dot = calculus.diff_qr(y1 + 2.0 * t * y2 + 3.0 * t * t * y3, direct)
            assert np.linalg.norm(sample.velocity.delta - q_dot) <= 1e-13

    def test_one_n_row_factorization_per_path(self, monkeypatch, caplog):
        # St(100, 6): n = 100 rows, against 4r = 24 rows of the coordinates;
        # the draw factors its 6 nodes and 100 grid points in one stacked
        # call.  Only the factorizations that the study code makes count,
        # not those of the logs and exponentials inside the fits.
        n, r = 100, 6
        shapes = []
        for name in ("qr_econ", "qr_basis"):
            kernel = getattr(linalg, name)

            def spy(a, kernel=kernel, name=name):
                if sys._getframe(1).f_globals["__name__"] == ex.__name__:
                    shapes.append((name, np.shape(a)))
                return kernel(a)

            monkeypatch.setattr(linalg, name, spy)
        cfg = ex.ExperimentConfig(n=n, r=r, num_nodes=6, seed=0)
        data = ex.gen_qr_experiment(cfg)
        assert "regenerating" not in caplog.text  # one drawn path
        draw = [("qr_basis", (n, 4 * r)), ("qr_econ", (6 + 100, 4 * r, r))]
        assert shapes == draw
        shapes.clear()
        data.reference(0.3)
        assert shapes == [("qr_econ", (4 * r, r))]
        # the study scores against the draw's grid factors
        shapes.clear()
        ex.run_qr_interp(cfg)
        assert shapes == draw

    @pytest.mark.parametrize("n, r", [(100, 6), (12, 3), (4, 4)], ids=["n-above-4r", "n-equals-4r", "n-equals-r"])
    def test_grid_factors_are_the_q_factors_of_the_grid(self, n, r):
        # the draw hands out the Q-factor of C(t) at each grid point, bit for
        # bit as a 2-d qr_econ call makes it, and in its Fortran order
        cfg = ex.ExperimentConfig(n=n, r=r, num_nodes=6, seed=0, interval=(-0.5, 0.5))
        path, nodes, samples, factors = ex._draw_qr_path(cfg)
        grid = ex._uniform_grid(nodes, cfg.grid_points)
        assert len(factors) == len(grid)
        for t, q in zip(grid, factors):
            direct = linalg.qr_econ(path.coordinates(t)).q
            assert np.array_equal(q, direct) and q.flags.f_contiguous == direct.flags.f_contiguous
        for t, sample in zip(nodes, samples):
            assert np.array_equal(sample.point.u, linalg.qr_econ(path.coordinates(t)).q)

    def test_run_deterministic(self):
        cfg = ex.ExperimentConfig(n=30, r=3, num_nodes=4, seed=5)
        csv1 = ex.report_to_csv(ex.run_qr_interp(cfg))
        csv2 = ex.report_to_csv(ex.run_qr_interp(cfg))
        assert csv1 == csv2

    def test_composite_hits_all_six_nodes(self):
        cfg = ex.ExperimentConfig(n=60, r=5, num_nodes=6, seed=1)
        data = ex.gen_qr_experiment(cfg)
        curve = interp.fit_composite(data.samples)
        for s in data.samples:
            assert np.linalg.norm(curve(s.t).u - s.point.u) <= 1e-8


def _grid_references(config, nodes, reference):
    """The matrices of ``reference(t)`` on the study grid of ``nodes``, one point at a time."""
    return (reference(t).u for t in ex._uniform_grid(nodes, config.grid_points))


def _nudged_first_row(point):
    """The point with its first ambient row moved by 1e-9, re-orthonormalized."""
    u = point.u.copy()
    u[0] += 1e-9
    return stiefel.StiefelPoint(linalg.qr_econ(u).q)


def _qr_family(cfg):
    """The QR study's path: Hermite samples of its Q-factor at given nodes."""
    data = ex.gen_qr_experiment(cfg)
    return lambda nodes: ([data.sample(t) for t in nodes], data.reference)


def _snapshot_family(cfg):
    """The snapshot study's path: Hermite samples of its left factor at given nodes."""
    path = ex.gen_snapshot_experiment(cfg)

    def sample(nodes):
        data = ex._sample_svd_path(path.w, path.w_dot, path.svd, nodes)
        return data.samples_u, data.reference_u

    return sample


class TestConvergenceOrder:
    """Observed order of the interpolants as the node spacing halves.

    The quasi-cubic Hermite arc converges like h^4, as the Euclidean cubic
    Hermite basis does; the piecewise geodesic like h^2.  The order is a
    property of the method, not a reference number: a 1% error in the log or
    swapped b0/b1 coefficients leave the errors small but lower it.  A
    one-sided transport difference at the fit's h = 1e-4 does not; the
    transport's own tests check that.  Two path families check that the
    order is not a property of one generator.
    """

    NODES = (5, 9, 17, 33)  # uniform: the spacing halves three times

    def orders(self, family, config, centering, methods) -> dict[str, np.ndarray]:
        cfg = dataclasses.replace(config, centering=centering, methods=methods, grid_points=401)
        sample = family(cfg)
        errs = []
        for k in self.NODES:
            nodes = np.linspace(*cfg.interval, k)
            samples, reference = sample(nodes)
            errs.append(ex._factor_study(cfg, samples, nodes, _grid_references(cfg, nodes, reference)).max_rel)
        return {m: np.log2([a[m] / b[m] for a, b in zip(errs, errs[1:])]) for m in methods}

    @pytest.mark.parametrize("family, config", [
        (_qr_family, ex.ExperimentConfig(n=40, r=3, interval=(-1.0, 1.0), seed=0)),
        (_snapshot_family, ex.ExperimentConfig(n=101, r=3, interval=(1.8, 2.2))),
    ], ids=["qr", "snapshot"])
    def test_hermite_fourth_and_geodesic_second_order(self, family, config):
        q = self.orders(family, config, "q", ("hermite", "geodesic"))
        p = self.orders(family, config, "p", ("hermite",))
        assert np.all(q["hermite"] >= 3.7), q["hermite"]
        assert np.all(p["hermite"] >= 3.7), p["hermite"]
        assert np.all(np.abs(q["geodesic"] - 2.0) <= 0.3), q["geodesic"]


@pytest.fixture(scope="module")
def svd_data():
    cfg = ex.ExperimentConfig(
        n=80, r=5, m=30, interval=(0.0, 0.5), num_nodes=2, seed=0,
        methods=("hermite", "geodesic"),
    )
    return cfg, ex.gen_lowrank_svd_experiment(cfg)


class TestSVDExperiment:

    def test_exact_rank(self, svd_data):
        cfg, d = svd_data
        for t in d.nodes:
            sigma = linalg.svd_full(d.w(t))[1]
            assert sigma[cfg.r] <= 1e-10 * sigma[0]

    def test_reconstruction_derivative_matches_product_rule(self, svd_data):
        cfg, d = svd_data
        for i, t in enumerate(d.nodes):
            u = d.samples_u[i].point.u
            v = d.samples_v[i].point.u
            s = d.sigma_values[i]
            rec = (
                d.samples_u[i].velocity.delta @ np.diag(s) @ v.T
                + u @ np.diag(d.sigma_slopes[i]) @ v.T
                + u @ np.diag(s) @ d.samples_v[i].velocity.delta.T
            )
            w_dot = d.w_dot(t)
            assert np.linalg.norm(rec - w_dot) <= 1e-7 * np.linalg.norm(w_dot)

    @pytest.mark.parametrize("n, r, m", [(80, 5, 30), (40, 3, 10), (10, 3, 8)],
                             ids=["4r-below-m", "4r-above-m", "n-below-4r"])
    def test_factored_svd_matches_direct_svd(self, n, r, m):
        # W(t) = Q4 C(t) Z(t): the SVD of the min(n, 4r) x m coordinates,
        # lifted, is the SVD of W(t) itself, cut to rank r; measured at most
        # 1.4e-15 for sigma, 1.5e-13 for the factors and 2.4e-15 for V'V - I
        cfg = ex.ExperimentConfig(n=n, r=r, m=m, interval=(0.0, 0.5), num_nodes=2, seed=0)
        data = ex.gen_lowrank_svd_experiment(cfg)
        for t in np.linspace(data.nodes[0], data.nodes[-1], 11):
            u, sigma, v = data.svd(t)
            u_d, sigma_d, v_d = linalg.svd_full(data.w(t))
            assert np.all(np.abs(sigma[:r] - sigma_d[:r]) <= 1e-12 * sigma_d[:r])
            assert u.shape == (n, r) and v.shape == (m, r)
            u_r, v_r = calculus.svd_sign_normalize(u, v, u_d[:, :r])
            assert np.linalg.norm(u_r - u_d[:, :r]) <= 1e-10
            assert np.linalg.norm(v_r - v_d[:, :r]) <= 1e-10
            assert np.linalg.norm(v.T @ v - np.eye(r)) <= 1e-12

    @pytest.mark.parametrize("n, r, m", [(80, 5, 30), (40, 3, 10), (10, 3, 8), (6, 6, 6)],
                             ids=["4r-below-m", "4r-above-m", "n-below-4r", "n-equals-r"])
    def test_samples_match_the_derivative_of_w(self, n, r, m):
        # the samples are taken on the coordinates X(t); at each node their
        # U and V velocities and sigma slopes are the derivative of the
        # n x m W(t) itself, diff_svd_truncated of Wdot(t) = data.w_dot(t);
        # measured at most 1.3e-13 relative
        cfg = ex.ExperimentConfig(n=n, r=r, m=m, interval=(0.0, 0.5), num_nodes=4, seed=0)
        data = ex.gen_lowrank_svd_experiment(cfg)
        for i, t in enumerate(data.nodes):
            u, v = data.samples_u[i].point.u, data.samples_v[i].point.u
            direct = calculus.diff_svd_truncated(data.w_dot(t), (u, linalg.svd_full(data.w(t))[1], v))
            sampled = (data.samples_u[i].velocity.delta, data.sigma_slopes[i], data.samples_v[i].velocity.delta)
            for got, want in zip(sampled, direct, strict=True):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_one_k_row_svd_per_factorization(self, monkeypatch, caplog):
        # St(100, 6), m = 30: every SVD is of the 4r = 24-row coordinates
        n, r, num_nodes = 100, 6, 4
        rows = []
        kernel = linalg.svd_full

        def spy(a):
            rows.append(np.shape(a)[0])
            return kernel(a)

        monkeypatch.setattr(linalg, "svd_full", spy)
        data = ex.gen_lowrank_svd_experiment(ex.ExperimentConfig(
            n=n, r=r, m=30, interval=(0.0, 0.5), num_nodes=num_nodes, seed=0))
        assert "regenerating" not in caplog.text  # one drawn path
        assert rows == [4 * r] * num_nodes
        rows.clear()
        data.reference_u(0.3)
        assert rows == [4 * r]

    @pytest.mark.parametrize("n, r, m, seed", [(12, 3, 3, 5), (6, 6, 6, 2)])
    def test_square_factor_samples_share_a_component(self, capsys, caplog, n, r, m, seed):
        # a square factor lies in O(r): at these seeds consecutive samples of
        # V (m = r), or of U and V (n = r), fall in its two components, which no
        # geodesic joins, so the draw moves on to the next seed
        args = ["svd-interp", "--n", str(n), "--r", str(r), "--m", str(m), "--seed", str(seed)]
        assert cli.main(args) == 0
        assert "# failure" not in capsys.readouterr().out
        assert f"seed {seed}; regenerating" in caplog.text
        paper = next(iter(ex.COMMANDS["svd-interp"].studies.values()))
        data = ex.gen_lowrank_svd_experiment(dataclasses.replace(paper, n=n, r=r, m=m, seed=seed))
        for samples in (data.samples_u, data.samples_v):
            for a, b in zip(samples, samples[1:]):
                assert a.point.n > r or np.linalg.det(a.point.u.T @ b.point.u) > 0.0

    @pytest.mark.parametrize("n, r, m", [(80, 5, 30), (40, 3, 10), (10, 3, 8)],
                             ids=["4r-below-m", "4r-above-m", "n-below-4r"])
    def test_factored_error_matches_direct_error(self, monkeypatch, n, r, m):
        # the reported errors, from the min(n, 4r)-row reconstructions X~(t),
        # against those of the lifted Q4 X~(t) and the n x m W(t) = data.w(t);
        # measured at most 1.8e-15 absolute at the paper's scale
        seen = {}
        relative_errors = ex._relative_errors

        def errors_spy(grid, curves, *args):
            seen.update(grid=grid, curves=curves)
            return relative_errors(grid, curves, *args)

        monkeypatch.setattr(ex, "_relative_errors", errors_spy)
        cfg = ex.ExperimentConfig(n=n, r=r, m=m, interval=(0.0, 0.5), num_nodes=2, seed=0,
                                  methods=("hermite", "geodesic"))
        report = ex.run_svd_interp(cfg)
        assert set(report.errors) == {"hermite", "geodesic"}
        _, (path, _, _) = ex._draw_lowrank_path(cfg)
        data = ex.gen_lowrank_svd_experiment(cfg)
        for method, curve in seen["curves"].items():
            for t, err in zip(seen["grid"], report.errors[method], strict=True):
                w = data.w(t)
                direct = np.linalg.norm(path.basis @ curve(t) - w) / np.linalg.norm(w)
                assert abs(err - direct) <= max(1e-9 * direct, 1e-14), (method, t, err, direct)

    def test_no_w_per_grid_point(self, monkeypatch, caplog):
        # St(100, 6), m = 30: the errors come from the 24-row coordinates
        # X(t), the w of the data that the study samples, so the study
        # never forms the 100 x 30 W(t)
        cfg = ex.ExperimentConfig(n=100, r=6, m=30, interval=(0.0, 0.5), num_nodes=4, seed=0,
                                  methods=("hermite", "geodesic"))
        rows = []
        sample = ex._sample_svd_path

        def spy(w, *args, **kwargs):
            def w_spy(t):
                rows.append(w(t).shape[0])
                return w(t)

            return sample(w_spy, *args, **kwargs)

        monkeypatch.setattr(ex, "_sample_svd_path", spy)
        report = ex.run_svd_interp(cfg)
        assert "regenerating" not in caplog.text  # one drawn path
        assert set(report.errors) == {"hermite", "geodesic"}
        assert set(rows) == {24} and len(rows) == cfg.grid_points

    def test_sign_normalized_path_continuous(self, svd_data):
        _, d = svd_data
        ts = np.linspace(d.nodes[0], d.nodes[-1], 40)
        prev = d.reference_u(ts[0]).u
        for t in ts[1:]:
            cur = d.reference_u(t).u
            assert np.linalg.norm(cur - prev) < 0.5
            prev = cur

    def test_run_ordering_and_node_floor(self, svd_data):
        cfg, _ = svd_data
        rep = ex.run_svd_interp(cfg)
        assert rep.max_rel["hermite"] <= 0.1 * rep.max_rel["geodesic"]
        # at the sample nodes the reconstruction hits the truncation floor
        grid = np.asarray(rep.eval_grid)
        nodes = ex.chebyshev_nodes(*cfg.interval, cfg.num_nodes)
        for node in nodes:
            i = int(np.argmin(np.abs(grid - node)))
            assert rep.errors["hermite"][i] <= 1e-6

    def test_close_leading_gap_rejected_by_the_derivative(self, monkeypatch):
        # W(t) = (1 + t) U diag(1, 0.5 + 1e-7, 0.5) V': a 1e-7 sigma_0 leading gap at every node
        rng = np.random.default_rng(0)
        u = linalg.qr_econ(rng.standard_normal((12, 3))).q
        v = linalg.qr_econ(rng.standard_normal((5, 3))).q
        y = u @ np.diag([1.0, 0.5 + 1e-7, 0.5]) @ v.T
        nodes = np.array([0.0, 0.5])

        def w(t):
            return (1.0 + t) * y

        def w_dot(t):
            return y

        def svd(t):
            u_t, sigma, v_t = linalg.svd_full(w(t))
            return u_t[:, :3], sigma, v_t[:, :3]

        with pytest.raises(DomainError):
            calculus.diff_svd_truncated(w_dot(0.0), svd(0.0))
        assert ex._sample_svd_path(w, w_dot, svd, nodes) is None
        # the sampler has no threshold of its own: it follows the derivative's
        monkeypatch.setattr(calculus, "SVD_GAP_EPS", 1e-8)
        assert ex._sample_svd_path(w, w_dot, svd, nodes) is not None

    def test_m_below_r_rejected(self):
        cfg = ex.ExperimentConfig(n=40, r=6, m=4)
        with pytest.raises(PreconditionError, match="m=4, r=6"):
            ex.gen_lowrank_svd_experiment(cfg)

    def test_rbf_not_supported(self):
        cfg = ex.ExperimentConfig(n=40, r=4, m=20, num_nodes=2, interval=(0.0, 0.5))
        with pytest.raises(PreconditionError):
            ex.run_svd_interp(cfg)

    def test_centering_agreement(self):
        reps = {}
        for centering in ("q", "p"):
            cfg = ex.ExperimentConfig(
                n=200, r=5, m=40, interval=(0.0, 0.5), num_nodes=2, seed=0,
                centering=centering, methods=("hermite",),
            )
            reps[centering] = ex.run_svd_interp(cfg).max_rel["hermite"]
        assert abs(reps["q"] - reps["p"]) <= 0.05 * reps["q"]


@pytest.fixture(scope="module")
def tangent_vs_manifold():
    cfg = ex.ExperimentConfig(
        n=60, r=4, m=25, interval=(0.0, 0.5), num_nodes=2, seed=1,
        methods=("hermite",),
    )
    return cfg, ex.run_tangent_vs_manifold(cfg)


class TestTangentVsManifold:
    def test_manifold_close_to_tangent_and_smaller(self, tangent_vs_manifold):
        _, rep = tangent_vs_manifold
        tan = np.asarray(rep.tangent_errors)
        man = np.asarray(rep.manifold_errors)
        assert len(tan) == len(rep.eval_grid) == len(man)
        assert np.all(man <= 1.05 * tan + 1e-12)

    def test_errors_vanish_at_nodes(self, tangent_vs_manifold):
        cfg, rep = tangent_vs_manifold
        grid = np.asarray(rep.eval_grid)
        for node in ex.chebyshev_nodes(*cfg.interval, cfg.num_nodes):
            i = int(np.argmin(np.abs(grid - node)))
            assert rep.tangent_errors[i] <= 1e-8
            assert rep.manifold_errors[i] <= 1e-8

    @pytest.mark.xfail(reason="ROADMAP item 17: a sample two columns off the path's sign branch")
    @pytest.mark.parametrize("n, r, m, seed", [(12, 12, 12, 2), (200, 6, 50, 4)])
    def test_reference_scan_records_no_failure(self, n, r, m, seed):
        # seed 2 at n = r = m = 12 draws seed 5; the second case is the
        # committed St(200, 6) study at seed 4.  Both record reference_scan
        # today, at 26 and 2 grid points.
        paper = ex.COMMANDS["tangent-vs-manifold"].studies["tangent_vs_manifold"]
        rep = ex.run_tangent_vs_manifold(dataclasses.replace(paper, n=n, r=r, m=m, seed=seed))
        assert rep.failures == {}


def _record_kernel_logs(monkeypatch):
    """A list that gets one entry per later ``stiefel.stiefel_log`` call: the inputs of its kernel logs.

    Each input of ``linalg.logm`` is kept as a (targets, 2r, 2r) stack: one
    matrix for a single log, one per live target for a stacked one.
    """
    calls = []
    logm, log = linalg.logm, stiefel.stiefel_log

    def spy_logm(v):
        calls[-1].append(v.reshape(-1, *v.shape[-2:]).copy())
        return logm(v)

    def spy_log(*args, **kwargs):
        calls.append([])
        return log(*args, **kwargs)

    monkeypatch.setattr(linalg, "logm", spy_logm)
    monkeypatch.setattr(stiefel, "stiefel_log", spy_log)
    return calls


def _scalar_tangent_vs_manifold(config, data, calls):
    """The tangent-vs-manifold study on ``data`` as a loop of single logs per grid point, the oracle of its stacked logs.

    Returns (kept grid, relative, tangent and manifold errors, skipped grid)
    and the indices into the ``_record_kernel_logs`` list ``calls`` of the
    logs from the arc centre and of the distance logs, in grid order.  The
    distance of identical points is 0 without a log, as ``stiefel.dist``.
    """
    curve = interp.fit_composite(data.samples_u, centering=config.centering)
    kept, rel, tangent, manifold, skipped, centre_logs, dist_logs = [], [], [], [], [], [], []
    for t in ex._uniform_grid(data.nodes, config.grid_points):
        ref, gamma = data.reference_u(t), interp.arc_tangent(curve, t)
        try:
            centre_logs.append(len(calls))
            log_ref = stiefel.stiefel_log(gamma.base, ref)
            point = curve(t)
            if not np.array_equal(point.u, ref.u):
                dist_logs.append(len(calls))
            d = 0.0 if np.array_equal(point.u, ref.u) else stiefel.norm(stiefel.stiefel_log(point, ref))
        except StiefelLogError:
            skipped.append(float(t))
            continue
        kept.append(t)
        rel.append(np.linalg.norm(point.u - ref.u) / np.linalg.norm(ref.u))
        tangent.append(stiefel.norm(gamma - log_ref))
        manifold.append(d)
    return (kept, rel, tangent, manifold, skipped), (centre_logs, dist_logs)


def _assert_same_kernel_logs(stacked, singles):
    """The k-th kernel log of a stacked call takes, in order, the k-th matrix of each single log that took more than k."""
    assert len(stacked) == max(map(len, singles), default=0)
    for k, batch in enumerate(stacked):
        expected = [single[k][0] for single in singles if len(single) > k]
        assert len(batch) == len(expected)
        assert np.max(np.abs(batch - np.array(expected))) <= 1e-12


@pytest.mark.parametrize("n, r, m, seed, failing", [(200, 6, 50, 0, 0), (12, 12, 12, 2, 26)],
                         ids=["paper", "n=r=m=12"])
def test_stacked_logs_match_the_scalar_oracle(monkeypatch, n, r, m, seed, failing):
    # the study's two stacked calls against one log per target: the same grid
    # kept and skipped, the same kernel logs for every target, the same
    # errors; at n = r = m = 12 seed 2, 26 targets of the first stack fail
    # on the sign of det(U'Y) before the loop
    paper = ex.COMMANDS["tangent-vs-manifold"].studies["tangent_vs_manifold"]
    config = dataclasses.replace(paper, n=n, r=r, m=m, seed=seed)
    calls = _record_kernel_logs(monkeypatch)
    data, _ = ex._draw_lowrank_path(config)
    (kept, *errors, skipped), (centre_logs, dist_logs) = _scalar_tangent_vs_manifold(config, data, calls)
    singles = calls[:]
    calls.clear()
    rep = ex.run_tangent_vs_manifold(config)
    # the fit's one log per arc, then the two stacked calls
    *fits, centre, dists = calls
    assert len(fits) == config.num_nodes - 1
    _assert_same_kernel_logs(centre, [singles[i] for i in centre_logs])
    _assert_same_kernel_logs(dists, [singles[i] for i in dist_logs])
    assert rep.eval_grid == kept and len(skipped) == failing
    assert rep.failures == ({"reference_scan": f"log did not converge at {failing} grid points: {skipped}"}
                            if failing else {})
    for got, want in zip((rep.errors["hermite"], rep.tangent_errors, rep.manifold_errors), errors):
        got, want = np.asarray(got), np.asarray(want)
        above = np.abs(want) > 1e-13
        assert np.all(np.abs(got - want)[above] <= 1e-12 * np.abs(want)[above])
        assert np.all(np.abs(got - want)[~above] <= 1e-13)


def _lowrank_distance(basis, usv, x) -> float:
    """||U diag(s) V' - Q4 X||_F for usv = (U, s, V), Q4 = ``basis``, without an n x m matrix.

    With P = Q4'U and R = U - Q4 P, the columns of R are orthogonal to those
    of Q4, so the square splits into ||P diag(s) V' - X||_F^2, a
    min(n, 4r) x m sum, and ||R diag(s) V'||_F^2 =
    sum_ij (diag(s) R'R diag(s))_ij (V'V)_ij, an r x r one.
    """
    u, s, v = usv
    p = basis.T @ u
    off_span = u - basis @ p
    in_span = np.linalg.norm((p * s) @ v.T - x)
    return np.sqrt(in_span**2 + np.sum((off_span.T @ off_span) * np.outer(s, s) * (v.T @ v)))


def _n_row_svd_interp(config):
    """The SVD study on the generator's n-row samples, scored by ``_lowrank_distance`` against Q4 X(t)."""
    coordinates, (path, _, _) = ex._draw_lowrank_path(config)
    data = ex.gen_lowrank_svd_experiment(config)
    grid = ex._uniform_grid(data.nodes, config.grid_points)
    failures: dict[str, str] = {}
    curves_u = ex._method_curves(config, data.samples_u, failures)
    curves_v = ex._method_curves(config, data.samples_v, failures)
    basis, x = path.basis, coordinates.w
    errors = {}
    for m in [m for m in curves_u if m in curves_v]:
        try:
            errors[m] = [_lowrank_distance(basis, (curves_u[m](t).u, ex._interpolated_sigma(data, m, t),
                                                   curves_v[m](t).u), x(t)) / np.linalg.norm(x(t))
                         for t in grid]
        except PreconditionError as exc:
            failures.setdefault(m, str(exc))
    return ex.ErrorReport(grid, errors, failures=failures)


def _n_row_tangent_vs_manifold(config):
    """The tangent-vs-manifold study on the generator's n-row samples and references, one log at a time."""
    (kept, rel, tangent, manifold, skipped), _ = _scalar_tangent_vs_manifold(
        config, ex.gen_lowrank_svd_experiment(config), [])
    return ex.ErrorReport(kept, {"hermite": rel}, tangent_errors=tangent, manifold_errors=manifold,
                          failures={"reference_scan": ""} if skipped else {})


def _n_row_qr_interp(config):
    """The QR study on the generator's n-row samples and references."""
    data = ex.gen_qr_experiment(config)
    return ex._factor_study(config, data.samples, data.nodes, _grid_references(config, data.nodes, data.reference))


#: The n-row oracle of each paper study that runs on its path's coordinates.
N_ROW_ORACLES = {
    "qr_interp_n500_r10": _n_row_qr_interp,
    "svd_interp_n1000_m100_r10_q": _n_row_svd_interp,
    "svd_interp_n1000_m100_r10_p": _n_row_svd_interp,
    "tangent_vs_manifold": _n_row_tangent_vs_manifold,
}


def _desk_study(stem):
    """(report, config) of the paper study ``stem`` at St(60, 3), m = 20: n > 4r, 12-row coordinates."""
    (command,) = [entry for entry in ex.COMMANDS.values() if stem in entry.studies]
    config = dataclasses.replace(command.studies[stem], n=60, r=3, m=20)
    return ex.parse_report(command.run(config)), config


class TestCoordinates:
    """The QR, SVD and tangent-vs-manifold studies run on their path's k-row coordinates, k = min(n, 4r).

    The n-row oracles fit the generators' samples, which are Q4 times the
    same coordinate samples, so they check that the fits, evaluations and
    errors commute with the lift; the direct checks of ``TestQRExperiment``
    and ``TestSVDExperiment`` check the samples against Ydot(t) and Wdot(t).
    """

    @pytest.mark.parametrize("stem", sorted(N_ROW_ORACLES))
    def test_match_the_n_row_pipeline(self, stem):
        # U -> Q4 U embeds St(12, 3) in St(60, 3) isometrically and totally
        # geodesically, so the n-row pipeline gives the same numbers up to
        # round-off: measured at most 5.4e-10 relative above 1e-13 (the
        # tangent error next to a node) and 4.6e-16 absolute below it
        got, config = _desk_study(stem)
        want = N_ROW_ORACLES[stem](config)
        assert got.eval_grid == want.eval_grid
        assert set(got.failures) == set(want.failures)
        columns = [(got.errors[m], want.errors[m]) for m in want.errors]
        assert list(got.errors) == list(want.errors)
        if want.tangent_errors is not None:
            columns += [(got.tangent_errors, want.tangent_errors), (got.manifold_errors, want.manifold_errors)]
        for a, b in columns:
            a, b = np.asarray(a), np.asarray(b)
            above = np.abs(b) > 1e-13
            assert np.all(np.abs(a - b)[above] <= 1e-9 * np.abs(b)[above])
            assert np.all(np.abs(a - b)[~above] <= 1e-14)

    @pytest.mark.parametrize("command", ["qr-interp", "svd-interp", "tangent-vs-manifold"])
    def test_one_sampling_per_node(self, monkeypatch, caplog, command):
        # St(60, 3), m = 20: each runner samples its path once, on the
        # coordinates, with one derivative per node: of a 12-row Q-factor,
        # or of a 12-row U and the 20-row V
        shapes = []
        for name in ("diff_qr", "diff_svd_truncated"):
            kernel = getattr(calculus, name)

            def spy(y_dot, factors, kernel=kernel):
                shapes.append(factors.q.shape if isinstance(factors, linalg.EconQR)
                              else (factors[0].shape, factors[2].shape))
                return kernel(y_dot, factors)

            monkeypatch.setattr(calculus, name, spy)
            monkeypatch.setattr(ex, name, spy)
        _, config = _desk_study(next(iter(ex.COMMANDS[command].studies)))
        assert "regenerating" not in caplog.text  # one drawn path
        per_node = (12, 3) if command == "qr-interp" else ((12, 3), (20, 3))
        assert shapes == [per_node] * config.num_nodes

    @pytest.mark.parametrize("command", ["qr-interp", "svd-interp", "tangent-vs-manifold"])
    def test_every_exp_and_log_has_k_rows(self, monkeypatch, command):
        # St(60, 3), m = 20: every base of an exponential, and every base
        # and target of a log, has 4r = 12 rows, or m = 20 for the SVD
        # study's V factor
        rows = []
        exp, log = stiefel.TangentFrame.exp, stiefel.stiefel_log

        def exp_spy(frame, coeffs):
            rows.append(frame.base.n)
            return exp(frame, coeffs)

        def log_spy(base, target):
            for points in (base, target):
                rows.extend(p.n for p in ([points] if isinstance(points, stiefel.StiefelPoint) else points))
            return log(base, target)

        monkeypatch.setattr(stiefel.TangentFrame, "exp", exp_spy)
        monkeypatch.setattr(stiefel, "stiefel_log", log_spy)
        _desk_study(next(iter(ex.COMMANDS[command].studies)))
        assert set(rows) == ({12, 20} if command == "svd-interp" else {12})


class TestSnapshotExperiment:

    def test_columns_unit_norm(self, snapshot_data):
        cfg, d = snapshot_data
        x = np.linspace(0.0, 1.0, cfg.n)
        for mu in (1.7, 2.0, 2.3):
            y = d.w(mu)
            norms = np.trapezoid(y * y, x, axis=0)
            assert np.allclose(norms, 1.0, atol=1e-10)

    def test_matches_per_column_formula(self, snapshot_data):
        # the family computes x^t and the trigonometric factor once; each
        # column keeps the per-column formula's operation order, bit for bit
        cfg, d = snapshot_data
        x = np.linspace(0.0, 1.0, cfg.n)
        weights = np.full(cfg.n, x[1] - x[0])
        weights[0] = weights[-1] = 0.5 * (x[1] - x[0])
        for mu in (0.9, 1.4, 1.7, 1.93, 2.3):
            cols, cols_dot = [], []
            for t in 1.0 + 0.6 * np.arange(cfg.r):
                f = x**t * np.sin(0.5 * np.pi * mu * x)
                nrm = np.sqrt(weights @ (f * f))
                fd = 0.5 * np.pi * x ** (t + 1.0) * np.cos(0.5 * np.pi * mu * x)
                cols.append(f / nrm)
                cols_dot.append(fd / nrm - (weights @ (f * fd)) / nrm**3 * f)
            assert np.array_equal(d.w(mu), np.column_stack(cols))
            assert np.array_equal(d.w_dot(mu), np.column_stack(cols_dot))

    def test_derivative_matches_fd(self, snapshot_data):
        _, d = snapshot_data
        mu, h = 1.9, 1e-6
        fd = (d.w(mu + h) - d.w(mu - h)) / (2 * h)
        assert np.linalg.norm(d.w_dot(mu) - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_smallest_sigma_nonlinear_near_two(self, snapshot_data):
        _, d = snapshot_data
        mus = np.linspace(1.7, 2.3, 31)
        vals = np.array([linalg.svd_full(d.w(m))[1][-1] for m in mus])
        second = np.abs(np.diff(vals, 2))
        knee = mus[1:-1][int(np.argmax(second))]
        assert 1.9 <= knee <= 2.2
        # substantial relative variation across the window
        assert vals.max() > 1.5 * vals.min()

    def test_samples_are_tangent(self, snapshot_data):
        _, d = snapshot_data
        for s in d.samples_u:
            ud = s.point.u.T @ s.velocity.delta
            assert np.linalg.norm(ud + ud.T) < 1e-9

    def test_run_matches_reference_scale(self, paper_csv):
        # the registry's paper run of the snapshot_data configuration
        rep = ex.parse_report(paper_csv("snapshot_interp_n1001_r6"))
        assert rep.max_rel["hermite"] < rep.max_rel["geodesic"]
        assert 0.5 * 0.0418 <= rep.max_rel["hermite"] <= 2.0 * 0.0418
        assert 0.5 * 0.1301 <= rep.max_rel["geodesic"] <= 2.0 * 0.1301


def _transport_band(config, copies=12):
    """(lo, hi) per step of ``TRANSPORT_STEPS``: the transport study's band, from ``copies`` seeded rotated copies.

    Each copy rotates the study's instance, q, p and v_p, by one
    ``rotated_copy``, and reruns ``validate_transport``.  A row whose
    copies agree to 1e-3 relative keeps a 1e-3 relative bound around
    their range; any other row is dominated by round-off, and its band is
    [min / 2.5, 2.5 max] over the copies.
    """
    q, v_p = ex.snapshot_transport_instance(config)
    rng = np.random.default_rng(0)
    errs = []
    for _ in range(copies):
        qu, pu, d = rotated_copy(rng, [q.u, v_p.base.u, v_p.delta])
        v = stiefel.TangentVector(stiefel.StiefelPoint(pu), d)
        errs.append(calculus.validate_transport(stiefel.StiefelPoint(qu), v, ex.TRANSPORT_STEPS))
    lo, hi = np.min(errs, axis=0), np.max(errs, axis=0)
    agree = hi - lo <= 1e-3 * hi
    return np.where(agree, (1.0 - 1e-3) * lo, lo / 2.5), np.where(agree, (1.0 + 1e-3) * hi, 2.5 * hi)


@pytest.fixture(scope="module")
def transport_sweep():
    """The transport study's sweep at St(1001, 6): U(0.9) -> U(1.4), the velocity pointing at U(1.9)."""
    return ex.run_transport_accuracy(ex.ExperimentConfig(n=1001, r=6, seed=0))


class TestTransportAccuracy:
    def test_snapshot_data_reproduces_reference_table(self, transport_sweep):
        # reference errors 1.2e-8, 1.2e-10, 4.3e-12, 4.2e-11, 4.1e-10,
        # 5.0e-9 for h = 1e-2 ... 1e-7
        table = transport_sweep
        assert [h for h, _ in table] == list(ex.TRANSPORT_STEPS)
        reference = [1.2e-8, 1.2e-10, 4.3e-12, 4.2e-11, 4.1e-10, 5.0e-9]
        for (h, err), ref in zip(table, reference):
            assert ref / 4 <= err <= 4 * ref, (h, err, ref)

    def test_snapshot_instance(self):
        # p, q and the direction are the left factors at 0.9, 1.4 and 1.9,
        # each column's sign fixed against U(0.9)
        cfg = ex.ExperimentConfig(n=40, r=3)
        w = ex.gen_snapshot_experiment(dataclasses.replace(cfg, interval=(1.7, 2.3))).w
        u_ref = linalg.svd_full(w(0.9))[0][:, :3]
        p, q, far = (
            stiefel.StiefelPoint(calculus.svd_sign_normalize(u[:, :3], v[:, :3], u_ref)[0])
            for u, _, v in (linalg.svd_full(w(mu)) for mu in ex.SNAPSHOT_TRANSPORT_MUS)
        )
        q_got, v_p = ex.snapshot_transport_instance(cfg)
        assert np.array_equal(q_got.u, q.u)
        assert np.array_equal(v_p.base.u, p.u)
        assert np.array_equal(v_p.delta, stiefel.stiefel_log(p, far).delta)

    def test_snapshot_instance_refuses_its_own_parameters(self):
        # every snapshot has a zero row at x = 0, so at n = r it has rank < r
        with pytest.raises(PreconditionError, match=re.escape("n=3, r=3")) as info:
            ex.snapshot_transport_instance(ex.ExperimentConfig(n=3, r=3))
        assert "[0.9, 1.4, 1.9]" in str(info.value)

    def test_sweep_cost(self, monkeypatch, kernel_calls):
        # one log for the velocity, Log_q(p) once, and a central difference
        # (2 logs, 2 exps) per step, whose 12 logs are one stacked call
        calls = spy_kernel_logs(monkeypatch)
        ex.run_transport_accuracy(ex.ExperimentConfig(n=40, r=3))
        assert kernel_calls == {"log": 14, "exp": 12}
        assert len(calls) == 3

    def test_rows_lie_in_the_band_of_rotated_copies(self, transport_sweep):
        # the committed CSV and a fresh sweep both lie inside the band that
        # the code measures on rotated copies of the instance; the factor 2.5
        # holds every round-off row (h <= 1e-4) this CSV has had since its
        # first commit
        lo, hi = _transport_band(ex.ExperimentConfig(n=1001, r=6, seed=0))
        committed = np.loadtxt(RESULTS / "transport_accuracy_snapshot.csv", delimiter=",", skiprows=1)
        assert list(committed[:, 0]) == list(ex.TRANSPORT_STEPS) == [h for h, _ in transport_sweep]
        for errs in (committed[:, 1], np.array([e for _, e in transport_sweep])):
            assert np.all((lo <= errs) & (errs <= hi)), (lo, errs, hi)

    def test_v_shape_and_quadratic_regime(self, transport_sweep):
        # the study's own sweep on its snapshot instance; the random St(200, 6)
        # pair is checked the same way in test_calculus.py::TestValidateTransport
        hs = [h for h, _ in transport_sweep]
        assert hs == list(ex.TRANSPORT_STEPS)
        assert_v_shape([e for _, e in transport_sweep])

    @pytest.mark.parametrize("value", [False, None])
    def test_use_snapshot_data_accepts_only_true(self, value):
        # bench/workloads.py passes use_snapshot_data=True; it gets the default sweep
        cfg = ex.ExperimentConfig(n=40, r=3)
        with pytest.raises(PreconditionError, match=r"use_snapshot_data=.*ROADMAP item 1"):
            ex.run_transport_accuracy(cfg, use_snapshot_data=value)
        assert ex.run_transport_accuracy(cfg, use_snapshot_data=True) == ex.run_transport_accuracy(cfg)


def _assert_footers_match_columns(text: str) -> None:
    """Assert that a report CSV's max_rel and l2_rel footers are the summaries of its own columns.

    Recomputed without ``ErrorReport``: a plain maximum of each error column,
    exactly, and the trapezoid rule written out over the CSV's t column, to
    round-off.
    """
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:] if not line.startswith("#")]
    footers = [line[2:].split(",", 2) for line in lines if line.startswith("# ")]
    written = {(kind, m): float(v) for kind, m, v in footers if kind in ("max_rel", "l2_rel")}
    t = [row[0] for row in rows]
    want = {}
    for j, name in enumerate(header):
        if name.endswith("_rel_err"):
            e = [row[j] for row in rows]
            area = sum((t[i + 1] - t[i]) * (e[i] ** 2 + e[i + 1] ** 2) / 2 for i in range(len(t) - 1))
            want[("max_rel", name.removesuffix("_rel_err"))] = max(e)
            want[("l2_rel", name.removesuffix("_rel_err"))] = math.sqrt(area)
    assert want and written.keys() == want.keys()
    for key, value in want.items():
        if key[0] == "max_rel":
            assert written[key] == value, key
        else:
            assert written[key] == pytest.approx(value, rel=1e-12), key


class TestReports:
    def _toy_report(self):
        return ex.ErrorReport(
            eval_grid=[0.0, 0.5, 1.0],
            errors={"hermite": [0.1, 0.2, 0.3], "geodesic": [1.0, 2.0, 3.0]},
            failures={"rbf": "log did not converge for samples [0, 1]"},
        )

    def test_summaries_from_columns(self):
        # a non-uniform grid of span 1.5, where an RMS is not the trapezoidal
        # L2 norm; hermite's largest error is its first, geodesic's inside
        rep = ex.ErrorReport(
            eval_grid=[0.5, 0.7, 1.5, 2.0],
            errors={"hermite": [0.4, 0.1, 0.3, 0.2], "geodesic": [1.0, 3.0, 2.0, 1.5]},
        )
        assert rep.max_rel == {"hermite": 0.4, "geodesic": 3.0}
        # trapezoid of e^2: 0.2 (0.16 + 0.01) / 2 + 0.8 (0.01 + 0.09) / 2 + 0.5 (0.09 + 0.04) / 2
        assert rep.l2_rel["hermite"] == pytest.approx(np.sqrt(0.0895), rel=1e-14)
        # 0.2 (1 + 9) / 2 + 0.8 (9 + 4) / 2 + 0.5 (4 + 2.25) / 2
        assert rep.l2_rel["geodesic"] == pytest.approx(np.sqrt(7.7625), rel=1e-14)
        assert all(type(v) is float for v in [*rep.max_rel.values(), *rep.l2_rel.values()])

    @pytest.mark.parametrize("stem", REPORT_STUDIES)
    def test_committed_footers_match_their_columns(self, stem):
        _assert_footers_match_columns((RESULTS / f"{stem}.csv").read_text())

    def test_fresh_footers_match_their_columns(self):
        cfg = ex.ExperimentConfig(n=20, r=3, num_nodes=4, seed=0, grid_points=31)
        _assert_footers_match_columns(ex.report_to_csv(ex.run_qr_interp(cfg)))

    def test_roundtrip(self):
        rep = self._toy_report()
        back = ex.parse_report(ex.report_to_csv(rep))
        assert back == rep

    def test_roundtrip_with_tangent_lists(self):
        rep = ex.ErrorReport(
            eval_grid=[0.0, 1.0],
            errors={"hermite": [0.25, 0.5]},
            tangent_errors=[1e-3, 2e-3],
            manifold_errors=[0.9e-3, 1.9e-3],
        )
        assert ex.parse_report(ex.report_to_csv(rep)) == rep

    def test_header_only_for_empty_grid(self):
        rep = ex.ErrorReport(eval_grid=[], errors={})
        text = ex.report_to_csv(rep)
        assert text == "t\n"

    def test_summary_footers_are_the_properties(self):
        cfg = ex.ExperimentConfig(n=20, r=3, num_nodes=3, seed=0, grid_points=9)
        rep = ex.run_qr_interp(cfg)
        footers = [ln[2:].split(",") for ln in ex.report_to_csv(rep).splitlines()
                   if ln.startswith("# ")]
        written = {kind: {m: float(v) for k, m, v in footers if k == kind}
                   for kind in ("max_rel", "l2_rel")}
        assert written == {"max_rel": rep.max_rel, "l2_rel": rep.l2_rel}
        assert set(written["max_rel"]) == set(cfg.methods)

    def test_columns_match_method_set(self):
        text = ex.report_to_csv(self._toy_report())
        assert text.splitlines()[0] == "t,hermite_rel_err,geodesic_rel_err"

    def test_rbf_log_failure_recorded_and_roundtrips(self):
        # the unreachable St(8, 6) outliers of the RBF far-sample test:
        # their logs from the center converge to 1.29 pi and 1.1 pi, the
        # certificate rejects them, and the study records which
        samples = [
            interp.HermiteSample(t=t, velocity=stiefel.TangentVector(p, np.zeros((8, 6))))
            for t, p in far_samples()
        ]
        cfg = ex.ExperimentConfig(n=8, r=6, methods=("rbf",))
        failures: dict[str, str] = {}
        curves = ex._method_curves(cfg, samples, failures)
        assert curves["rbf"].failed_indices == (0, 1)
        assert "samples [0, 1]" in failures["rbf"]
        rep = ex.ErrorReport(eval_grid=[], errors={}, failures=failures)
        text = ex.report_to_csv(rep)
        assert f"# failure,rbf,{failures['rbf']}" in text.splitlines()
        assert ex.parse_report(text).failures == failures


class TestCLI:
    def test_readme_flag_table_matches_parser(self):
        rows = re.findall(r"^\| `([a-z-]+)` +\| `([^`]*)`", README.read_text(), re.MULTILINE)
        documented = {cmd: set(re.findall(r"--[a-z-]+", flags)) for cmd, flags in rows}
        (subs,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
        registered = {
            cmd: {o for a in sub._actions for o in a.option_strings if o.startswith("--")}
            - {"--help", "--out"}
            for cmd, sub in subs.choices.items()
        }
        assert documented == registered

    def test_transport_accuracy_stdout(self, capsys):
        code = cli.main(["transport-accuracy", "--n", "40", "--r", "3"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "h,transport_rel_err"
        assert len(lines) == 1 + len(ex.TRANSPORT_STEPS)

    def test_transport_accuracy_n_below_2r(self, capsys):
        # At n < 2r the normal part of an n x r tangent vector has rank < r.
        code = cli.main(["transport-accuracy", "--n", "10", "--r", "6"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        errs = np.array([float(line.split(",")[1]) for line in rows])
        assert errs.shape == (len(ex.TRANSPORT_STEPS),)
        assert np.all(np.isfinite(errs)) and np.all(errs > 0.0)

    def test_transport_accuracy_zero_velocity_exit_code(self, capsys):
        # at n = 2 the x-grid is {0, 1}, so the three snapshots coincide and v_p = 0
        assert cli.main(["transport-accuracy", "--n", "2", "--r", "1"]) == 2
        assert "velocity v_p to transport is zero" in capsys.readouterr().err
        assert cli.main(["transport-accuracy", "--n", "3", "--r", "1"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        errs = np.array([float(line.split(",")[1]) for line in rows])
        assert errs.shape == (len(ex.TRANSPORT_STEPS),) and np.all(np.isfinite(errs))

    def test_qr_interp_to_file(self, tmp_path, capsys):
        out = tmp_path / "qr.csv"
        code = cli.main([
            "qr-interp", "--n", "30", "--r", "3", "--nodes", "4",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        rep = ex.parse_report(out.read_text())
        assert set(rep.errors) == {"hermite", "geodesic", "rbf"}
        assert len(rep.eval_grid) == 100

    @pytest.mark.parametrize("argv, interval", [
        (["qr-interp", "--n", "12", "--r", "3"], "-1.1,1.1"),
        (["svd-interp", "--n", "20", "--r", "2", "--m", "5"], "-0.5,0.5"),
    ], ids=["qr-interp", "svd-interp"])
    def test_interval_with_negative_start(self, argv, interval, capsys):
        outputs = []
        for form in (["--interval", interval], [f"--interval={interval}"]):
            assert cli.main(argv + form) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert ex.parse_report(outputs[0]).eval_grid[0] < 0.0

    def test_qr_interp_at_n_equal_r(self, capsys):
        # St(3, 3) = O(3): the generator keeps det Y of one sign over the grid,
        # so every log stays in one component or fails as a recorded failure
        assert cli.main(["qr-interp", "--n", "3", "--r", "3"]) == 0
        text = capsys.readouterr().out
        rep = ex.parse_report(text)
        assert set(rep.errors) == {"hermite", "geodesic", "rbf"}
        for line in text.splitlines():
            if "did not converge" in line or "component" in line:
                assert line.startswith("# failure,")

    @pytest.mark.parametrize("argv", [
        ["qr-interp", "--n", "12", "--r", "3", "--nodes", "26"],
        ["snapshot-interp", "--n", "101", "--r", "3", "--nodes", "30"],
    ], ids=["qr-interp", "snapshot-interp"])
    def test_many_nodes_record_rbf_evaluation_failure(self, argv, capsys):
        # On many rescaled Chebyshev nodes the RBF kernel's condition number
        # passes 1e13; the round-off of its weights breaks the point check of
        # an evaluation, which drops the rbf column, not the study.  At n 12,
        # r 3 the qr-interp curve evaluates on 20-24 nodes and fails at the
        # first grid point on 25-30; 26 keeps clear of that edge.
        assert cli.main(argv) == 0
        rep = ex.parse_report(capsys.readouterr().out)
        assert set(rep.errors) == {"hermite", "geodesic"}
        assert list(rep.failures) == ["rbf"]
        assert rep.failures["rbf"].startswith("evaluation failed at t=")

    @pytest.mark.parametrize("argv, interval", [
        (["qr-interp", "--n", "12", "--r", "3", "--interval", "1e300,1.7e308"],
         "(1e+300, 1.7e+308)"),
        (["svd-interp", "--n", "12", "--r", "3", "--m", "5", "--interval", "1e200,1e201"],
         "(1e+200, 1e+201)"),
        # finite ends whose width b - a is not: the config refuses them
        (["qr-interp", "--n", "12", "--r", "3", "--interval=-1.7e308,1.7e308"],
         "(-1.7e+308, 1.7e+308)"),
        (["snapshot-interp", "--n", "12", "--r", "3", "--interval=-1.7e308,1.7e308"],
         "(-1.7e+308, 1.7e+308)"),
        # a finite width whose midpoint (a + b) / 2 is not: refused as well
        (["qr-interp", "--n", "12", "--r", "3", "--interval=1e308,1.7e308"],
         "(1e+308, 1.7e+308)"),
        (["snapshot-interp", "--n", "12", "--r", "3", "--interval=1e308,1.7e308"],
         "(1e+308, 1.7e+308)"),
    ], ids=["qr-interp", "svd-interp", "qr-interp-wide", "snapshot-interp-wide",
            "qr-interp-far", "snapshot-interp-far"])
    def test_overflowing_interval_exit_code(self, argv, interval, capsys, caplog):
        # no warning and at most one draw: the first two cubic paths overflow
        # float64 for every seed, the last four configs are refused
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "overflows float64" in err and interval in err
        assert "regenerating" not in caplog.text

    @pytest.mark.parametrize("argv", [
        ["qr-interp", "--n", "12", "--r", "3", "--interval=0,1e-120"],
        ["svd-interp", "--n", "12", "--r", "3", "--m", "5", "--interval=0,1e-200"],
    ], ids=["qr-interp", "svd-interp"])
    def test_tiny_interval(self, argv, capsys):
        # the cube of the node span underflows float64; the Hermite
        # coefficients never form it
        assert cli.main(argv) == 0
        rep = ex.parse_report(capsys.readouterr().out)
        assert not rep.failures
        assert rep.max_rel["hermite"] < 1e-14

    def test_config_error_exit_code(self, capsys):
        code = cli.main(["qr-interp", "--n", "5", "--r", "50"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_repeated_method_exit_code(self, capsys):
        argv = ["qr-interp", "--n", "12", "--r", "3", "--methods", "hermite,hermite,geodesic"]
        code = cli.main(argv)
        assert code == 2
        captured = capsys.readouterr()
        assert "methods must not repeat" in captured.err and not captured.out

    @pytest.mark.parametrize("command", ["svd-interp", "tangent-vs-manifold"])
    def test_m_below_r_exit_code(self, command, capsys):
        code = cli.main([command, "--n", "40", "--r", "6", "--m", "4"])
        assert code == 2
        assert "m=4, r=6" in capsys.readouterr().err
        # an n x m path with more columns than rows
        assert cli.main([command, "--n", "40", "--r", "3", "--m", "41"]) == 2
        assert "r <= m <= n, got n=40, m=41, r=3" in capsys.readouterr().err

    def test_svd_studies_at_rank_one(self, capsys):
        # one singular value has no gap to its neighbour to check
        assert cli.main(["svd-interp", "--n", "20", "--r", "1", "--m", "5"]) == 0
        rep = ex.parse_report(capsys.readouterr().out)
        assert rep.max_rel["hermite"] < rep.max_rel["geodesic"]
        assert cli.main(["tangent-vs-manifold", "--n", "20", "--r", "1", "--m", "5"]) == 0
        assert not ex.parse_report(capsys.readouterr().out).failures

    def test_snapshot_single_point_grid_exit_code(self, capsys):
        code = cli.main(["snapshot-interp", "--n", "1", "--r", "1"])
        assert code == 2
        assert "n >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("n, r", [(2, 1), (2, 2)])
    def test_bound_check_one_dimensional_tangent_space(self, n, r, capsys):
        code = cli.main(["bound-check", "--n", str(n), "--r", str(r)])
        assert code == 2
        assert f"St({n}, {r}) has dimension 1" in capsys.readouterr().err

    def test_bound_check_two_dimensional_tangent_space(self, capsys):
        assert cli.main(["bound-check", "--n", "3", "--r", "1"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    @pytest.mark.parametrize("command", sorted(ex.COMMANDS))
    def test_empty_rank_exit_code(self, command, capsys):
        code = cli.main([command, "--r", "0"])
        assert code == 2
        assert "r=0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["transport-accuracy", "--seed", "7"],
        ["transport-accuracy", "--h", "0.5"],
        ["bound-check", "--nodes", "9"],
        ["bound-check", "--methods", "rbf"],
        ["qr-interp", "--m", "20"],
        ["svd-interp", "--rbf-shape", "2"],
        ["tangent-vs-manifold", "--methods", "hermite"],
        ["snapshot-interp", "--seed", "1"],
        ["qr-interp", "--tau", "1e-12"],
        ["qr-interp", "--h", "1e-3"],
        ["qr-interp", "--rbf-shape", "2"],
    ])
    def test_unread_flag_exit_code(self, argv, capsys):
        # a flag the study never reads would leave the CSV unchanged
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir.csv"
        code = cli.main(["bound-check", "--n", "12", "--r", "3", "--out", str(out)])
        assert code == 2
        assert "no/such" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, monkeypatch, capsys):
        # an unreachable log tolerance makes the first log of the study fail
        monkeypatch.setattr(stiefel, "LOG_TAU", 1e-30)
        code = cli.main(["transport-accuracy", "--n", "20", "--r", "3"])
        assert code == 3
        assert "numerical error" in capsys.readouterr().err

    def test_bound_check(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        code = cli.main(["bound-check", "--n", "30", "--r", "3", "--seed", "4",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("delta,delta_tilde,s0,observed_dist")
        assert len(lines) == 4

    def test_methods_flag(self, tmp_path):
        out = tmp_path / "qr.csv"
        code = cli.main([
            "qr-interp", "--n", "30", "--r", "3", "--nodes", "4", "--seed", "2",
            "--methods", "hermite,geodesic", "--out", str(out),
        ])
        assert code == 0
        rep = ex.parse_report(out.read_text())
        assert set(rep.errors) == {"hermite", "geodesic"}


class TestStudies:
    def test_names_are_the_committed_results(self):
        stems = [stem for command in ex.COMMANDS.values() for stem in command.studies]
        assert len(stems) == 7
        assert set(stems) == {p.stem for p in RESULTS.glob("*.csv")}

    def test_every_command_is_a_subcommand(self):
        parser = cli.build_parser()
        for command, entry in ex.COMMANDS.items():
            args = parser.parse_args([command])
            assert args.command == command
            assert args.defaults == next(iter(entry.studies.values()))

    def test_bound_check_default_reproduces_results(self, capsys):
        assert cli.main(["bound-check"]) == 0
        got = capsys.readouterr().out.splitlines()
        want = (RESULTS / "bound_check.csv").read_text().splitlines()
        assert got[0] == want[0]
        assert len(got) == len(want)
        for row_got, row_want in zip(got[1:], want[1:]):
            a = np.array(row_got.split(","), dtype=float)
            b = np.array(row_want.split(","), dtype=float)
            assert np.all(np.abs(a - b) <= np.maximum(1e-9 * np.maximum(abs(a), abs(b)), 1e-15))

    @pytest.mark.parametrize("stem", REPORT_STUDIES)
    def test_report_reproduces_results(self, paper_csv, stem):
        # the committed reports are one-BLAS-thread runs; the tolerances of
        # bench/results_check hold across thread counts
        text = paper_csv(stem)
        report = ex.parse_report(text)
        committed = ex.parse_report((RESULTS / f"{stem}.csv").read_text())
        assert results_check.report_invariants(stem, report) == []
        assert results_check.compare_report(stem, report, committed) == []

    def test_commands_are_the_study_commands(self):
        config_fields = {f.name for f in dataclasses.fields(ex.ExperimentConfig)}
        for command in ex.COMMANDS.values():
            assert set(command.fields) <= config_fields

    # Toy sizes of each command's paper configuration.
    TOY = {
        "transport-accuracy": dict(n=101, r=3),
        "qr-interp": dict(n=30, r=3),
        "svd-interp": dict(n=40, r=3, m=10),
        "tangent-vs-manifold": dict(n=40, r=3, m=10),
        "snapshot-interp": dict(n=101, r=3),
        "bound-check": dict(n=12, r=3),
    }
    # A valid value of every field that a flag sets, unlike the toy configs'.
    ALTERED = dict(n=13, r=2, m=17, interval=(0.1, 0.4), num_nodes=3, seed=9, centering="p",
                   methods=("geodesic",))

    @pytest.mark.parametrize("command", sorted(ex.COMMANDS))
    def test_unlisted_fields_leave_csv_unchanged(self, command):
        # grid_points is set by no flag; it shrinks both runs alike
        flagged = {f.name for f in dataclasses.fields(ex.ExperimentConfig)} - {"grid_points"}
        assert set(self.ALTERED) == flagged
        paper = next(iter(ex.COMMANDS[command].studies.values()))
        base = dataclasses.replace(paper, grid_points=12, **self.TOY[command])
        listed = ex.COMMANDS[command].fields
        altered = dataclasses.replace(
            base, **{k: v for k, v in self.ALTERED.items() if k not in listed}
        )
        assert all(getattr(base, k) != v for k, v in self.ALTERED.items())
        run = ex.COMMANDS[command].run
        assert run(altered) == run(base)


def _shown(value: float) -> str:
    """A number as the README shows it: three significant digits, 6.57e-4."""
    return re.sub(r"e([+-])0*(\d)", r"e\1\2", f"{value:.2e}")


def _csv_rows(stem: str) -> list[list[float]]:
    lines = (RESULTS / f"{stem}.csv").read_text().splitlines()[1:]
    return [[float(x) for x in line.split(",")] for line in lines if not line.startswith("#")]


class TestReadmeResults:
    """Every number of the README's Results section is that of the committed ``results/``."""

    SECTION = " ".join(README.read_text().split("\n## Results\n")[1].split("\n## ")[0].split())

    def test_max_rel_table(self):
        configs = {stem: cfg for c in ex.COMMANDS.values() for stem, cfg in c.studies.items()}
        rows = re.findall(r"\| `(\w+)` \| St\((\d+), (\d+)\) \| ([^|]+) \| ([^|]+) \| ([^|]+) \|",
                          self.SECTION)
        assert sorted(row[0] for row in rows) == sorted(REPORT_STUDIES)
        for stem, n, r, *cells in rows:
            assert (int(n), int(r)) == (configs[stem].n, configs[stem].r)
            text = (RESULTS / f"{stem}.csv").read_text()
            footers = dict(re.findall(r"^# max_rel,(\w+),(.+)$", text, re.MULTILINE))
            want = [_shown(float(footers[m])) if m in footers else "—" for m in ex.METHODS]
            assert cells == want, stem
            assert footers["hermite"] == min(footers.values(), key=float)

    def test_transport_minimum(self):
        (error, step), = re.findall(r"V-shaped in the difference step: minimum (\S+) at h = (\S+)\.",
                                    self.SECTION)
        errors = [e for _, e in _csv_rows("transport_accuracy_snapshot")]
        low = int(np.argmin(errors))
        assert np.all(np.diff(errors[:low + 1]) < 0) and np.all(np.diff(errors[low:]) > 0)
        assert (error, float(step)) == (_shown(errors[low]), ex.TRANSPORT_STEPS[low])

    def test_bound_check(self):
        (count,) = re.findall(r"lies between the K = 5/4 and K = 0 bounds in all (\d+) rows",
                              self.SECTION)
        rows = _csv_rows("bound_check")
        assert int(count) == len(rows)
        for *_, observed, flat, curved in rows:
            assert curved <= observed <= flat
