"""Fixtures shared by the test modules."""

from collections import Counter

import pytest

from stiefel_hermite import stiefel


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
