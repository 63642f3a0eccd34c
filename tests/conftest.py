"""Helpers shared by the test modules."""

import numpy as np

from supgdlr import CoefficientModel, constant_adr, expectation


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


def two_mode_advection(space):
    """A model whose advection has two affine modes, so the energy norm
    carries an off-diagonal streamline form S_12:
    b = (1, 1) + (y2 - E y2)(x2, x1) + (y3^3 - E y3^3)(x2^2, -x1^2),
    with the diffusion and reaction of constant_adr(0.2, c=3)."""
    det = constant_adr(eps_value=0.2, b=(1.0, 1.0), c=3.0)
    y2, y3 = space.samples[:, 1], space.samples[:, 2] ** 3
    mean2, mean3 = space.weights @ y2, space.weights @ y3
    return CoefficientModel(
        name="two_modes", eps=det.eps, b_mean=det.b_mean,
        b_modes=((lambda s: np.atleast_2d(s)[:, 1] - mean2,
                  lambda x: np.column_stack([x[:, 1], x[:, 0]])),
                 (lambda s: np.atleast_2d(s)[:, 2] ** 3 - mean3,
                  lambda x: np.column_stack([x[:, 1] ** 2,
                                             -x[:, 0] ** 2]))),
        c_mean=det.c_mean)
