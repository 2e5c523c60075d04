"""Fixtures shared by the test modules.

BLAS runs on one thread unless the environment sets the thread count, as in
``scripts/run_error_studies.py``: the suite's many small products and
``expm`` calls run several times slower on more threads, and the committed
``results/`` that some tests regenerate are one-thread runs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from stiefel_hermite import experiments, stiefel  # noqa: E402


@pytest.fixture
def kernel_calls(monkeypatch):
    """A Counter of the Riemannian log and exp calls made while the test runs.

    Every log of the package is a call of ``stiefel.stiefel_log``, looked up
    on the module, and every exponential is a call of ``TangentFrame.exp``, so
    wrapping the two counts them all under the keys "log" and "exp".
    """
    calls = Counter()

    def counted(key, kernel):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return kernel(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(stiefel, "stiefel_log", counted("log", stiefel.stiefel_log))
    monkeypatch.setattr(stiefel.TangentFrame, "exp", counted("exp", stiefel.TangentFrame.exp))
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


@pytest.fixture(scope="module")
def qr_path():
    """The QR study's 6-node path at St(100, 6), seed 0."""
    cfg = experiments.ExperimentConfig(n=100, r=6, interval=(-1.1, 1.1), num_nodes=6, seed=0)
    return experiments.gen_qr_experiment(cfg)
