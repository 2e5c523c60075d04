"""Fixtures, builders and reference checks shared by the test modules.

Each seeded builder and each reference (the power-series ``expm``, the
knot residuals of a curve, the V-shape of a transport sweep, the rotated
copies of a study's data) has its one copy here, and the modules import
it.  The expensive instances are session fixtures, built once per run: the
registry's paper runs (``paper_csv``), the St(1001, 6) snapshot family,
the QR study's path and the random transport pair.

BLAS runs on one thread unless the environment sets the thread count, as in
``scripts/run_error_studies.py``: the suite's many small products and
``expm`` calls run several times slower on more threads, and the committed
``results/`` that some tests regenerate are one-thread runs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import functools  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from stiefel_hermite import experiments, linalg, stiefel  # noqa: E402
from stiefel_hermite import interpolate as interp  # noqa: E402


def expm_series(x, terms=60):
    """Truncated power-series oracle for the matrix exponential."""
    out = np.eye(x.shape[0])
    term = np.eye(x.shape[0])
    for j in range(1, terms):
        term = term @ x / j
        out = out + term
    return out


def rank_r_path(rng, n, m, r):
    """(W, W', path) of the rank-r product path(t) = (Y1 + t Y2)(Z1 + t Z2) at t = 0.

    Y1, Z1 are uniform on [0, 1] and Y2, Z2 on [0, 0.5], drawn in that
    order; W = Y1 Z1 and W' = Y2 Z1 + Y1 Z2.
    """
    y1 = rng.uniform(0.0, 1.0, (n, r))
    z1 = rng.uniform(0.0, 1.0, (r, m))
    y2 = rng.uniform(0.0, 0.5, (n, r))
    z2 = rng.uniform(0.0, 0.5, (r, m))
    return y1 @ z1, y2 @ z1 + y1 @ z2, lambda t: (y1 + t * y2) @ (z1 + t * z2)


def rank_one_tangent(rng, n, r):
    """Tangent vector at a random point whose normal part has rank one."""
    u = stiefel.random_point(rng, n, r)
    w = rng.standard_normal(n)
    w -= u.u @ (u.u.T @ w)
    return stiefel.project_tangent(u, np.outer(w, rng.standard_normal(r)))


def make_samples(rng, n, r, ts, step=0.35, vel_scale=0.8):
    """Random Hermite samples along a chain of moderately separated points."""
    point = stiefel.random_point(rng, n, r)
    samples = []
    for t in ts:
        vel = stiefel.random_tangent(rng, point, scale=vel_scale)
        samples.append(interp.HermiteSample(t=t, velocity=vel))
        point = stiefel.stiefel_exp(stiefel.random_tangent(rng, point, scale=step))
    return samples


def knot_residuals(curve, samples, h=1e-6):
    """(point, velocity, join) errors of a curve through Hermite ``samples``.

    Per sample, ||C(t_i) - p_i||_F and the relative error of a second-order
    difference of step h against the sampled velocity, one-sided at the
    ends, inside the first and last arcs; per interior knot, the relative
    gap between the one-sided first differences on its two sides.
    """
    points, velocities, joins = [], [], []
    for i, s in enumerate(samples):
        points.append(np.linalg.norm(curve(s.t).u - s.point.u))
        if i == 0:
            fd = (-3 * curve(s.t).u + 4 * curve(s.t + h).u - curve(s.t + 2 * h).u) / (2 * h)
        elif i == len(samples) - 1:
            fd = (3 * curve(s.t).u - 4 * curve(s.t - h).u + curve(s.t - 2 * h).u) / (2 * h)
        else:
            fd = (curve(s.t + h).u - curve(s.t - h).u) / (2 * h)
            left = (curve(s.t).u - curve(s.t - h).u) / h
            right = (curve(s.t + h).u - curve(s.t).u) / h
            joins.append(np.linalg.norm(left - right) / max(1.0, np.linalg.norm(left)))
        velocities.append(np.linalg.norm(fd - s.velocity.delta) / np.linalg.norm(s.velocity.delta))
    return points, velocities, joins


def far_pair():
    """Two random St(8, 6) points, seed 101, too far apart for the log."""
    rng = np.random.default_rng(101)
    return stiefel.random_point(rng, 8, 6), stiefel.random_point(rng, 8, 6)


def far_samples():
    """(t, point) of two unreachable St(8, 6) outliers at t = 0, 1, then a close chain at t = 2, 3, 4.

    Seed 101: the chain is drawn first, each point 0.3 from the last.
    """
    rng = np.random.default_rng(101)
    chain = [stiefel.random_point(rng, 8, 6)]
    for _ in range(2):
        chain.append(stiefel.stiefel_exp(stiefel.random_tangent(rng, chain[-1], 0.3)))
    outliers = [stiefel.random_point(rng, 8, 6) for _ in range(2)]
    return [(float(t), p) for t, p in enumerate(outliers + chain)]


def assert_v_shape(errs):
    """Transport errors over ``experiments.TRANSPORT_STEPS``: an interior minimum at most 1e-8, h^2 at the coarse end."""
    best = int(np.argmin(errs))
    assert 0 < best < len(errs) - 1
    assert errs[best] <= 1e-8
    ratio = errs[0] / errs[1]  # h=1e-2 vs h=1e-3: about h^2
    assert 10 <= ratio <= 1000


def rotated_copy(rng, arrays, reflections=4):
    """The n-row ``arrays`` times one orthogonal Theta, a product of ``reflections`` Householder reflections.

    Each reflection I - 2 w w' has a unit w drawn from ``rng`` and is applied
    as x - 2 w (w'x), so no n x n matrix is formed.  The canonical metric is
    invariant under U -> Theta U, so a study rerun on rotated copies of its
    data gives the same numbers in exact arithmetic: their spread is the
    round-off of each number.
    """
    ws = rng.standard_normal((reflections, arrays[0].shape[0]))
    out = []
    for x in arrays:
        for w in ws / np.linalg.norm(ws, axis=1, keepdims=True):
            x = x - 2.0 * np.outer(w, w @ x)
        out.append(x)
    return out


def spy_kernel_logs(monkeypatch):
    """A list that gets one entry per later ``stiefel.stiefel_log`` call: its kernel logs.

    The kernel log is ``linalg.logm``, the orthogonal log that each step of
    the Stiefel log takes; both are looked up on their modules.  A stacked
    call's kernel logs take one matrix per target, and each matrix counts.
    """
    counts = []
    logm, log = linalg.logm, stiefel.stiefel_log

    def spy_logm(v):
        counts[-1] += v[..., 0, 0].size
        return logm(v)

    def spy_log(*args, **kwargs):
        counts.append(0)
        return log(*args, **kwargs)

    monkeypatch.setattr(linalg, "logm", spy_logm)
    monkeypatch.setattr(stiefel, "stiefel_log", spy_log)
    return counts


@pytest.fixture
def kernel_calls(monkeypatch):
    """A Counter of the Riemannian log and exp calls made while the test runs.

    Every log of the package is a call of ``stiefel.stiefel_log``, looked up
    on the module, and every exponential is a call of ``TangentFrame.exp``, so
    wrapping the two counts them all under the keys "log" and "exp".  A
    stacked log counts one log per target.
    """
    calls = Counter()
    log, exp = stiefel.stiefel_log, stiefel.TangentFrame.exp

    def counted_log(base, target, *args, **kwargs):
        calls["log"] += 1 if isinstance(target, stiefel.StiefelPoint) else len(target)
        return log(base, target, *args, **kwargs)

    def counted_exp(*args, **kwargs):
        calls["exp"] += 1
        return exp(*args, **kwargs)

    monkeypatch.setattr(stiefel, "stiefel_log", counted_log)
    monkeypatch.setattr(stiefel.TangentFrame, "exp", counted_exp)
    return calls


def _orthogonal_pairs(count):
    """Seeded (U, A) with U in O(n), n in 2..7, A skew, ||A||_2 in 0.1 pi .. 0.99 pi.

    St(n, n) = O(n), where Exp_U(U A) = U expm(A) and, for ||A||_2 < pi, U A
    is the log.  The canonical norm of U A is ||A||_F / sqrt(2), which passes
    ``stiefel.LOG_NORM_MAX`` on some of the far pairs.
    """
    rng = np.random.default_rng(9)
    for i in range(count):
        n = 2 + i % 6
        u = stiefel.random_point(rng, n, n).u
        g = rng.standard_normal((n, n))
        a = g - g.T
        a *= np.pi * (0.1 + 0.89 * i / (count - 1)) / np.linalg.norm(a, 2)
        yield u, a, rng


@pytest.fixture
def orthogonal_pairs():
    """``orthogonal_pairs(count)`` yields ``count`` seeded (U, A, rng) on O(n)."""
    return _orthogonal_pairs


@pytest.fixture(scope="session")
def transport_pair():
    """A random (q, v_p) at St(200, 6), seed 3: q at distance 0.8 from v_p's base p, ||v_p|| = 1.

    Criterion 1 and the ``validate_transport`` tests sweep transport steps on
    it; the transport study itself runs the snapshot instance.
    """
    rng = np.random.default_rng(3)
    p = stiefel.random_point(rng, 200, 6)
    q = stiefel.stiefel_exp(stiefel.random_tangent(rng, p, 0.8))
    v = stiefel.random_tangent(rng, p, 1.0)
    return q, v


@pytest.fixture(scope="session")
def qr_path():
    """The QR study's 6-node path at St(100, 6), seed 0."""
    cfg = experiments.ExperimentConfig(n=100, r=6, interval=(-1.1, 1.1), num_nodes=6, seed=0)
    return experiments.gen_qr_experiment(cfg)


@pytest.fixture(scope="session")
def paper_csv():
    """``paper_csv(stem)``: the CSV of the registry's paper run ``stem``, run once per session."""
    runs = {stem: (command.run, config)
            for command in experiments.COMMANDS.values() for stem, config in command.studies.items()}
    return functools.cache(lambda stem: runs[stem][0](runs[stem][1]))


@pytest.fixture(scope="session")
def snapshot_data():
    """The snapshot study's family at St(1001, 6), sampled at its six paper nodes."""
    cfg = experiments.ExperimentConfig(n=1001, r=6, interval=(1.7, 2.3), num_nodes=6)
    return cfg, experiments.gen_snapshot_experiment(cfg)
