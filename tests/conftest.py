"""Helpers shared by the test modules."""

import numpy as np

from supgdlr import expectation


def check_invariants(state, space, mass, gram_tol=1e-10, cond_tol=1e-12):
    """Assert the low-rank manifold invariants of state.

    The stochastic modes are orthonormal and zero-mean in the weighted
    inner product, and the deterministic modes are independent: their
    mass Gram matrix has a condition number below 1/cond_tol.
    """
    if not state.rank:
        return
    g = (state.Y * space.weights[:, None]).T @ state.Y
    assert np.max(np.abs(g - np.eye(state.rank))) <= gram_tol, \
        "stochastic modes are not orthonormal"
    assert np.max(np.abs(expectation(state.Y, space))) <= gram_tol, \
        "stochastic modes are not zero-mean"
    sv = np.linalg.svd(state.U.T @ (mass @ state.U), compute_uv=False)
    assert sv[-1] >= cond_tol * sv[0], "deterministic modes nearly dependent"


def sample_advection(model, x, omega):
    """Advection of one sample at the points x, b_mean + b_fluct: the
    per-sample reference of the mode-weight-row computations."""
    b = np.asarray(model.b_mean(x), dtype=float)
    return b + model.b_fluct(x, omega) if model.b_modes else b


def at_points(mesh, field):
    """A field callable's values at the quadrature points of mesh: (ne,
    nq, 2) for a vector field, (ne, nq) for a scalar one."""
    xq = mesh.quad_points
    vals = np.asarray(field(xq.reshape(-1, 2)), dtype=float)
    return vals.reshape(xq.shape[:2] + vals.shape[1:])
