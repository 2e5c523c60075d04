import numpy as np
import pytest

from stiefel_hermite import cli, experiments as ex
from stiefel_hermite import interpolate as interp
from stiefel_hermite import linalg, stiefel
from stiefel_hermite.errors import PreconditionError


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
        with pytest.raises(PreconditionError):
            ex.ExperimentConfig(interval=(1.0, 1.0))

    def test_rejects_unknown_method(self):
        with pytest.raises(PreconditionError):
            ex.ExperimentConfig(methods=("hermite", "spline"))

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(PreconditionError):
            ex.ExperimentConfig(h=0.0)
        with pytest.raises(PreconditionError):
            ex.ExperimentConfig(tau=-1.0)


class TestDistanceBound:
    def test_identical_data_zero(self):
        b = ex.BoundInputs(delta=0.3, delta_tilde=0.3, s0=0.0, curvature=1.0)
        assert ex.eval_distance_bound(b) == 0.0

    def test_flat_case_arc_plus_ray(self):
        b = ex.BoundInputs(delta=0.4, delta_tilde=0.25, s0=0.2, curvature=0.0)
        assert ex.eval_distance_bound(b) == pytest.approx(0.15 + 0.2 * 0.4)

    def test_positive_curvature_shrinks(self):
        flat = ex.eval_distance_bound(ex.BoundInputs(0.3, 0.3, 0.1, 0.0))
        curved = ex.eval_distance_bound(ex.BoundInputs(0.3, 0.3, 0.1, ex.CURVATURE_MAX))
        assert curved < flat

    def test_hypothesis_validation(self):
        with pytest.raises(PreconditionError):
            ex.BoundInputs(delta=1.0, delta_tilde=0.2, s0=0.1, curvature=0.0)
        with pytest.raises(PreconditionError):
            ex.BoundInputs(delta=0.5, delta_tilde=0.2, s0=2.0, curvature=0.0)

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
        data = ex.gen_qr_experiment(cfg)
        frozen = ex.QRExperimentData(
            coeffs=(data.coeffs[0], np.zeros_like(data.coeffs[1]),
                    np.zeros_like(data.coeffs[2]), np.zeros_like(data.coeffs[3])),
            nodes=data.nodes,
            samples=[],
            seed_used=0,
        )
        from stiefel_hermite.calculus import diff_qr

        for t in frozen.nodes:
            qr = linalg.qr_econ(frozen.y(t))
            d = diff_qr(frozen.y(t), frozen.y_dot(t), qr)
            assert np.linalg.norm(d.q_dot) < 1e-13

    def test_run_deterministic(self):
        cfg = ex.ExperimentConfig(n=30, r=3, num_nodes=4, seed=5)
        csv1 = ex.report_to_csv(ex.run_qr_interp(cfg))
        csv2 = ex.report_to_csv(ex.run_qr_interp(cfg))
        assert csv1 == csv2

    def test_hermite_beats_geodesic_desk_scale(self):
        cfg = ex.ExperimentConfig(n=100, r=6, num_nodes=6, seed=0)
        rep = ex.run_qr_interp(cfg)
        assert rep.max_rel["hermite"] <= 0.1 * rep.max_rel["geodesic"]
        assert not rep.failures

    def test_composite_hits_all_six_nodes(self):
        cfg = ex.ExperimentConfig(n=60, r=5, num_nodes=6, seed=1)
        data = ex.gen_qr_experiment(cfg)
        curve = interp.fit_composite(data.samples, h=cfg.h, tau=cfg.tau)
        for s in data.samples:
            assert np.linalg.norm(curve(s.t).u - s.point.u) <= 1e-8


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

    def test_sign_normalized_path_continuous(self, svd_data):
        cfg, d = svd_data
        ts = np.linspace(d.nodes[0], d.nodes[-1], 40)
        prev = d.reference_u(ts[0], cfg.r).u
        for t in ts[1:]:
            cur = d.reference_u(t, cfg.r).u
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


class TestTangentVsManifold:
    def test_manifold_close_to_tangent_and_smaller(self):
        cfg = ex.ExperimentConfig(
            n=60, r=4, m=25, interval=(0.0, 0.5), num_nodes=2, seed=1,
            methods=("hermite",),
        )
        rep = ex.run_tangent_vs_manifold(cfg)
        tan = np.asarray(rep.tangent_errors)
        man = np.asarray(rep.manifold_errors)
        assert len(tan) == len(rep.eval_grid) == len(man)
        assert np.all(man <= 1.05 * tan + 1e-12)

    def test_errors_vanish_at_nodes(self):
        cfg = ex.ExperimentConfig(
            n=60, r=4, m=25, interval=(0.0, 0.5), num_nodes=2, seed=1,
            methods=("hermite",),
        )
        rep = ex.run_tangent_vs_manifold(cfg)
        grid = np.asarray(rep.eval_grid)
        for node in ex.chebyshev_nodes(*cfg.interval, cfg.num_nodes):
            i = int(np.argmin(np.abs(grid - node)))
            assert rep.tangent_errors[i] <= 1e-8
            assert rep.manifold_errors[i] <= 1e-8


@pytest.fixture(scope="module")
def snapshot_data():
    cfg = ex.ExperimentConfig(n=1001, r=6, interval=(1.7, 2.3), num_nodes=6)
    return cfg, ex.gen_snapshot_experiment(cfg)


class TestSnapshotExperiment:

    def test_columns_unit_norm(self, snapshot_data):
        _, d = snapshot_data
        for mu in (1.7, 2.0, 2.3):
            y = d.snapshot(mu)
            norms = d.quad_weights @ (y * y)
            assert np.allclose(norms, 1.0, atol=1e-10)

    def test_derivative_matches_fd(self, snapshot_data):
        _, d = snapshot_data
        mu, h = 1.9, 1e-6
        fd = (d.snapshot(mu + h) - d.snapshot(mu - h)) / (2 * h)
        assert np.linalg.norm(d.snapshot_dot(mu) - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_smallest_sigma_nonlinear_near_two(self, snapshot_data):
        _, d = snapshot_data
        mus = np.linspace(1.7, 2.3, 31)
        vals = np.array([d.smallest_sigma(m) for m in mus])
        second = np.abs(np.diff(vals, 2))
        knee = mus[1:-1][int(np.argmax(second))]
        assert 1.9 <= knee <= 2.2
        # substantial relative variation across the window
        assert vals.max() > 1.5 * vals.min()

    def test_samples_are_tangent(self, snapshot_data):
        _, d = snapshot_data
        for s in d.samples:
            ud = s.point.u.T @ s.velocity.delta
            assert np.linalg.norm(ud + ud.T) < 1e-9

    def test_run_matches_reference_scale(self, snapshot_data):
        cfg, _ = snapshot_data
        rep = ex.run_snapshot_experiment(cfg)
        assert rep.max_rel["hermite"] < rep.max_rel["geodesic"]
        assert 0.5 * 0.0418 <= rep.max_rel["hermite"] <= 2.0 * 0.0418
        assert 0.5 * 0.1301 <= rep.max_rel["geodesic"] <= 2.0 * 0.1301


class TestTransportAccuracy:
    def test_snapshot_data_reproduces_reference_table(self):
        # deterministic variant: U(0.9) -> U(1.4) with the velocity pointing
        # at U(1.9); reference errors 1.2e-8, 1.2e-10, 4.3e-12, 4.2e-11,
        # 4.1e-10, 5.0e-9 for h = 1e-2 ... 1e-7
        cfg = ex.ExperimentConfig(n=1001, r=6, seed=0)
        table = ex.run_transport_accuracy(cfg, use_snapshot_data=True)
        reference = [1.2e-8, 1.2e-10, 4.3e-12, 4.2e-11, 4.1e-10, 5.0e-9]
        for (h, err), ref in zip(table, reference):
            assert ref / 4 <= err <= 4 * ref, (h, err, ref)

    def test_v_shape_and_quadratic_regime(self):
        cfg = ex.ExperimentConfig(n=200, r=6, seed=3)
        table = ex.run_transport_accuracy(cfg)
        hs = [h for h, _ in table]
        errs = [e for _, e in table]
        assert hs == list(ex.TRANSPORT_STEPS)
        best = int(np.argmin(errs))
        assert 0 < best < len(errs) - 1
        assert errs[best] <= 1e-8
        ratio = errs[0] / errs[1]  # h=1e-2 vs h=1e-3: about h^2
        assert 10 <= ratio <= 1000


class TestReports:
    def _toy_report(self):
        return ex.ErrorReport(
            eval_grid=[0.0, 0.5, 1.0],
            errors={"hermite": [0.1, 0.2, 0.3], "geodesic": [1.0, 2.0, 3.0]},
            max_rel={"hermite": 0.3, "geodesic": 3.0},
            l2_rel={"hermite": 0.2, "geodesic": 2.0},
            failures={"rbf": "log did not converge for samples [0, 1]"},
        )

    def test_roundtrip(self):
        rep = self._toy_report()
        back = ex.parse_report(ex.report_to_csv(rep))
        assert back == rep

    def test_roundtrip_with_tangent_lists(self):
        rep = ex.ErrorReport(
            eval_grid=[0.0, 1.0],
            errors={"hermite": [0.25, 0.5]},
            max_rel={"hermite": 0.5},
            l2_rel={"hermite": 0.3},
            tangent_errors=[1e-3, 2e-3],
            manifold_errors=[0.9e-3, 1.9e-3],
        )
        assert ex.parse_report(ex.report_to_csv(rep)) == rep

    def test_header_only_for_empty_grid(self):
        rep = ex.ErrorReport(eval_grid=[], errors={}, max_rel={}, l2_rel={})
        text = ex.report_to_csv(rep)
        assert text == "t\n"

    def test_columns_match_method_set(self):
        text = ex.report_to_csv(self._toy_report())
        assert text.splitlines()[0] == "t,hermite_rel_err,geodesic_rel_err"

    def test_emit_surfaces_path_errors(self, tmp_path):
        rep = self._toy_report()
        with pytest.raises(OSError, match="no/such"):
            ex.emit_report(rep, tmp_path / "no" / "such" / "dir.csv")

    def test_emit_writes_file(self, tmp_path):
        rep = self._toy_report()
        out = tmp_path / "report.csv"
        ex.emit_report(rep, out)
        assert ex.parse_report(out.read_text()) == rep

    def test_rbf_log_failure_recorded_and_roundtrips(self):
        # the unreachable St(8, 6) outliers of the RBF far-sample test:
        # their logs from the center fail, and the study records which
        rng = np.random.default_rng(101)
        chain = [stiefel.random_point(rng, 8, 6)]
        for _ in range(2):
            chain.append(stiefel.stiefel_exp(stiefel.random_tangent(rng, chain[-1], 0.3)))
        outliers = [stiefel.random_point(rng, 8, 6) for _ in range(2)]
        samples = [
            interp.HermiteSample(
                t=float(t), point=p, velocity=stiefel.TangentVector(p, np.zeros((8, 6)))
            )
            for t, p in enumerate(outliers + chain)
        ]
        cfg = ex.ExperimentConfig(n=8, r=6, methods=("rbf",))
        failures: dict[str, str] = {}
        curves = ex._method_curves(cfg, samples, failures)
        assert curves["rbf"].failed_indices == (0, 1, 4)
        assert "samples [0, 1, 4]" in failures["rbf"]
        rep = ex.ErrorReport(eval_grid=[], errors={}, max_rel={}, l2_rel={}, failures=failures)
        text = ex.report_to_csv(rep)
        assert f"# failure,rbf,{failures['rbf']}" in text.splitlines()
        assert ex.parse_report(text).failures == failures


class TestCLI:
    def test_transport_accuracy_stdout(self, capsys):
        code = cli.main(["transport-accuracy", "--n", "40", "--r", "3", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "h,transport_rel_err"
        assert len(lines) == 1 + len(ex.TRANSPORT_STEPS)

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

    def test_config_error_exit_code(self, capsys):
        code = cli.main(["qr-interp", "--n", "5", "--r", "50"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["svd-interp", "tangent-vs-manifold"])
    def test_m_below_r_exit_code(self, command, capsys):
        code = cli.main([command, "--n", "40", "--r", "6", "--m", "4"])
        assert code == 2
        assert "m=4, r=6" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, capsys):
        # an unreachable log tolerance makes the first transport log fail
        code = cli.main([
            "transport-accuracy", "--n", "20", "--r", "3", "--tau", "1e-30",
        ])
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
