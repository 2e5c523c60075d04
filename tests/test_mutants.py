"""The suite's sensitivity: named checks must catch small deliberate faults.

Each test patches one module-level function of the library with a mutant
that is wrong by 1-2%, calls the checks that must catch it as plain
functions, and asserts that each of them fails.  A fit looks its coefficient
rule up on ``interpolate`` when it binds it, so a patch made before fitting
reaches the curve.  ``hermite_coeffs`` is not patched: the checks build
their reference from it.
"""

import pytest
import test_interpolate

from stiefel_hermite import interpolate as interp

#: The checks, imported as a module so that this one does not collect them again.
checks = test_interpolate.TestFrameEvaluation()


def _mutate(monkeypatch, name, change):
    """Replace ``interpolate.<name>`` by ``change`` applied to its output."""
    rule = getattr(interp, name)
    monkeypatch.setattr(interp, name, lambda *args: change(rule(*args)))


@pytest.mark.parametrize("centering", interp.CENTERINGS)
def test_hermite_b0_mutant(monkeypatch, qr_path, centering):
    _mutate(monkeypatch, "_hermite_arc_coeffs", lambda c: (c[0], 1.02 * c[1], c[2]))
    with pytest.raises(AssertionError):
        checks.test_composite(qr_path, centering)


def test_geodesic_fraction_mutant(monkeypatch, qr_path):
    _mutate(monkeypatch, "_geodesic_coeffs", lambda c: (1.01 * c[0],))
    with pytest.raises(AssertionError):
        checks.test_geodesic(qr_path)


def test_rbf_weights_mutant(monkeypatch, qr_path):
    # the coefficients multiply the weights, so this scales every weight
    _mutate(monkeypatch, "_rbf_coeffs", lambda c: 1.01 * c)
    with pytest.raises(AssertionError):
        checks.test_rbf(qr_path)
