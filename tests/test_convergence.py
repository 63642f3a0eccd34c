"""Convergence orders of the discretization against the PDE itself.

The manufactured solution u = e^{-t} sin(pi x) sin(pi y) of
u_t - eps Laplace(u) + b . grad(u) = f, with b = (1, 0.5) and the f it
implies, vanishes on the boundary of the unit square.  Rank 0 runs the
mean mode alone: the semi-implicit step is implicit Euler, with the
forcing tested against phi_i + delta_K b . grad phi_i.  At eps = 1e-3
(element Peclet numbers 25-99) the mass-norm error at T should fall as
h^2 for standard Galerkin and for SUPG with delta_K = h_K / 4 (Roache,
J. Fluids Eng. 2002, on verification by manufactured solutions).  A
forcing load left unskewed makes SUPG inconsistent and its order falls
to about 1.

With b = 0, f = 0 and the random diffusion eps(y) = 0.05 (1.5 + y),
each sample's solution e^{-2 pi^2 eps(y) t} sin(pi x) sin(pi y) is its
mean plus one stochastic mode, so the rank-1 low-rank step, with the
diffusion fluctuation explicit, should converge at first order in dt.
"""

import numpy as np
import pytest

from supgdlr import (DlrState, build_structured_mesh, constant_adr,
                     delta_experiment, init_from_modes, make_monte_carlo,
                     make_tensor_grid, prepare_workspace, run)

EPS, T, DT = 1e-3, 0.05, 2.5e-5
B = (1.0, 0.5)
MESHES = (8, 16, 32)


def exact(t, x):
    return np.exp(-t) * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])


def manufactured_forcing():
    """f(t, x) = e^{-t} g(x); g is computed once per points array, as the
    solver passes the same quadrature points every step."""
    last = [None, None]

    def f(t, x):
        if last[0] is not x:
            s, c = np.sin(np.pi * x), np.cos(np.pi * x)
            last[:] = x, ((2.0 * np.pi ** 2 * EPS - 1.0) * s[:, 0] * s[:, 1]
                          + np.pi * (B[0] * c[:, 0] * s[:, 1]
                                     + B[1] * s[:, 0] * c[:, 1]))
        return np.exp(-t) * last[1]

    return f


def error_at_T(n, supg):
    mesh = build_structured_mesh(n)
    space = make_tensor_grid([(0.0, 1.0, 1)])
    model = constant_adr(eps_value=EPS, b=B, f=manufactured_forcing())
    delta = delta_experiment(mesh) if supg else np.zeros(mesh.n_triangles)
    ws = prepare_workspace(model, mesh, space, DT, delta)
    initial = DlrState(exact(0.0, mesh.vertices)[:, None],
                       np.zeros((1, 0)))
    final, _ = run(initial, ws, T)
    assert final.t == pytest.approx(T)
    e = final.U0 - exact(final.t, mesh.vertices)
    return np.sqrt(e @ (ws.blocks.mass @ e))


@pytest.mark.parametrize("supg", [False, True], ids=["galerkin", "supg"])
def test_l2_error_is_second_order_in_h(supg):
    errors = [error_at_T(n, supg) for n in MESHES]
    order = np.polyfit(np.log(MESHES), -np.log(errors), 1)[0]
    assert order >= 1.8, (errors, order)


def random_eps(samples):
    return 0.05 * (1.5 + np.atleast_2d(samples)[:, 0])


def random_diffusion_error_at_T(n, dt, T):
    """Mass-norm error at T, root mean square over 64 samples, rank 1."""
    mesh = build_structured_mesh(n)
    space = make_monte_carlo([(-1.0, 1.0)], 64, seed=0)
    model = constant_adr(b=(0.0, 0.0), eps_fn=random_eps)
    delta = np.zeros(mesh.n_triangles)
    ws = prepare_workspace(model, mesh, space, dt, delta)
    x = mesh.vertices
    shape = np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    # a deterministic start at rank 1: a zero mode on a centered Y
    initial = init_from_modes(shape, np.zeros((mesh.n_vertices, 1)),
                              space.samples, space)
    final, _ = run(initial, ws, T)
    assert final.t == pytest.approx(T)
    e = final.dense() - shape[:, None] * np.exp(
        -2.0 * np.pi ** 2 * random_eps(space.samples) * final.t)
    return np.sqrt(space.weights @ np.einsum("ki,ki->i", e,
                                             ws.blocks.mass @ e))


def test_random_diffusion_low_rank_error_is_first_order_in_dt():
    T, n = 0.5, 64
    steps = np.array([T / 8, T / 16, T / 32])
    errors = [random_diffusion_error_at_T(n, dt, T) for dt in steps]
    order = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert order >= 0.9, (errors, order)
