import numpy as np
import pytest
from hypothesis import settings

from sigfbsde.sigcore import engine
import reference

# Property tests draw the same examples on every run and have no per-example
# deadline, so a slow host cannot turn them red; the example count bounds
# their share of the suite's time.
settings.register_profile("sigfbsde", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("sigfbsde")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def signature(nodes, depth):
    """Signature levels of the piecewise-linear path through ``(n, d)`` nodes."""
    return reference.signature_scan(np.diff(nodes, axis=0), depth)


def whole_path_vjp(increments, cot):
    """Cotangent of the increments for level cotangents ``cot`` on the whole
    path's signature: the one-checkpoint case of the checkpoint scan VJP."""
    slots = [np.stack([np.zeros_like(c), c], axis=-2) for c in cot]
    return engine.checkpoint_scan_vjp(increments, increments.shape[-2], slots)


def central_difference(f, x, eps=1e-5):
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        keep = xf[i]
        xf[i] = keep + eps
        up = f(x)
        xf[i] = keep - eps
        down = f(x)
        xf[i] = keep
        flat[i] = (up - down) / (2.0 * eps)
    return grad


def assert_gradients_close(analytic, numeric, rtol=1e-5, atol=1e-5):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    assert analytic.shape == numeric.shape
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)
