"""Coefficient models, reaction analysis and stabilization policies."""

from dataclasses import replace

import numpy as np
import pytest

from supgdlr import (
    CoefficientModel, ConfigError, analyze_reaction, assemble_blocks,
    boundary_layer, build_structured_mesh, check_moderate_stochasticity,
    constant_adr, delta_coercivity, delta_experiment, delta_semi_implicit,
    local_peclet, make_monte_carlo, make_tensor_grid, rotating_body,
)

from conftest import at_points, sample_advection


def mc3(n=20, seed=0):
    return make_monte_carlo([(-1.0, 1.0)] * 3, n, seed=seed)


def test_rotating_body_eps_oracle():
    model = rotating_body()
    vals = model.eps(np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0]]))
    assert np.allclose(vals, [1e-16, 1e-15, 1e-17], rtol=1e-12)


def test_rotating_body_advection_rotates():
    model = rotating_body()
    x = np.array([[0.5, 0.5], [1.0, 0.5], [0.5, 1.0]])
    b = model.b_mean(x)
    assert np.allclose(b, [[0.0, 0.0], [0.0, 0.5], [-0.5, 0.0]])


def test_eps_split_fluctuation_is_zero_mean():
    space = mc3()
    model = rotating_body()
    a = analyze_reaction(model, build_structured_mesh(2), space)
    assert np.array_equal(a.eps, model.eps(space.samples))
    bar, star = a.eps_bar, a.eps_star
    assert abs(float(space.weights @ star)) <= 1e-12 * bar
    assert np.allclose(bar + star, a.eps)
    assert a.eps_star_sup == np.max(np.abs(star))


def test_eps_bounds_bracket():
    space = mc3()
    a = analyze_reaction(rotating_body(), build_structured_mesh(2), space)
    vals = a.eps
    assert a.eps_hat == vals.min()
    assert abs(a.C_E - vals.max() / vals.min()) <= 1e-12


def test_eps_must_be_positive():
    space = mc3()
    for eps_fn, match in ((lambda s: np.full(len(s), -1.0), "positive"),
                          (lambda s: np.full(len(s), np.nan), "positive"),
                          (lambda s: np.ones(3), "one value per sample")):
        bad = constant_adr(eps_fn=eps_fn)
        with pytest.raises(ConfigError, match=match):
            analyze_reaction(bad, build_structured_mesh(2), space)


def test_reaction_analysis_positive_constant():
    # c = 2, div b = 0: mu_tilde = 2 - 1 = 1, nu = 0, mu0 = 1
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)], 5, seed=0)
    model = constant_adr(eps_value=1.0, b=(1.0, 0.0), c=2.0)
    a = analyze_reaction(model, mesh, space)
    assert abs(a.nu) <= 1e-15
    assert abs(a.mu0 - 1.0) <= 1e-13
    assert np.allclose(a.c_sup_K, 2.0)


def test_reaction_analysis_negative_constant():
    # c = -1: mu_tilde = -1 - 1/2 = -3/2, nu = 3/2, mu0 = 0
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)], 5, seed=0)
    model = constant_adr(eps_value=1.0, b=(1.0, 0.0), c=-1.0)
    a = analyze_reaction(model, mesh, space)
    assert abs(a.nu - 1.5) <= 1e-13
    assert abs(a.mu0) <= 1e-13
    xq = np.array([[0.3, 0.4]])
    assert abs(a.mu(xq)[0]) <= 1e-13


def test_reaction_analysis_no_reaction():
    mesh = build_structured_mesh(4)
    space = mc3(5)
    a = analyze_reaction(rotating_body(), mesh, space)
    assert a.nu == 0.0 and a.mu0 == 0.0
    assert np.all(a.c_sup_K == 0.0)


def test_inverse_inequality_holds():
    mesh = build_structured_mesh(8)
    blocks = assemble_blocks(mesh, np.zeros(mesh.quad_points.shape), None,
                             np.zeros(mesh.n_triangles))
    C_I = mesh.inverse_constant
    interior = mesh.interior_index()
    rng = np.random.default_rng(11)
    A = blocks.stiffness.toarray()
    M = blocks.mass.toarray()
    for _ in range(200):
        v = np.zeros(mesh.n_vertices)
        v[interior] = rng.standard_normal(len(interior))
        lhs = v @ (A @ v)
        rhs = (C_I / mesh.h) ** 2 * (v @ (M @ v))
        assert lhs <= rhs * (1 + 1e-12)


def test_delta_experiment_is_quarter_h():
    mesh = build_structured_mesh(5)
    d = delta_experiment(mesh)
    assert np.allclose(d, mesh.h_K / 4.0)


def test_delta_coercivity_formula():
    mesh = build_structured_mesh(6)
    space = make_monte_carlo([(-1.0, 1.0)], 5, seed=0)
    model = constant_adr(eps_value=0.01, b=(1.0, 1.0), c=2.0)
    a = analyze_reaction(model, mesh, space)
    d = delta_coercivity(mesh, a, 3.0)
    b1 = 1.0 / (2.0 * 2.0)
    b2 = mesh.h_K ** 2 / (2.0 * 2 * 9.0 * a.C_E ** 2 * a.eps_hat)
    assert np.allclose(d, np.minimum(b1, b2))


def test_delta_coercivity_inf_needs_cap():
    # without reaction only the diffusion constraint is active, and it
    # is finite; with small diffusion it exceeds h_K/4, where the cap
    # clips it
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)], 5, seed=0)
    model = constant_adr(eps_value=1e-3, b=(1.0, 0.0), c=0.0)
    a = analyze_reaction(model, mesh, space)
    d = delta_coercivity(mesh, a, 2.0)
    assert np.all(np.isfinite(d))
    assert np.all(d > mesh.h_K / 4.0)
    assert np.allclose(np.minimum(d, mesh.h_K / 4.0), mesh.h_K / 4.0)


def test_delta_semi_implicit_formula():
    mesh = build_structured_mesh(6)
    space = make_monte_carlo([(-1.0, 1.0)], 5, seed=0)
    model = constant_adr(eps_value=0.05, b=(1.0, 1.0), c=1.0)
    a = analyze_reaction(model, mesh, space)
    dt = 0.02
    d = delta_semi_implicit(mesh, a, 2.5, dt)
    b1 = 1.0 / (2.0 * 1.0)
    b2 = mesh.h_K ** 2 / (2.0 * a.eps_hat * 2.5 ** 2
                          * max(a.C_E ** 2, 1.0) * 2)
    want = 0.125 * np.minimum(np.minimum(b1, b2), 2.0 * dt)
    assert np.allclose(d, want)
    # the semi-implicit policy always respects the dt/4 time-step bound
    assert np.all(d <= dt / 4.0 + 1e-15)


def test_local_peclet_regimes():
    mesh = build_structured_mesh(8)
    space = mc3(10)
    model = rotating_body()
    hot = local_peclet(mesh, analyze_reaction(model, mesh, space))
    assert hot > 1.0
    model = constant_adr(eps_value=10.0, b=(1.0, 0.0))
    space = make_monte_carlo([(-1.0, 1.0)], 4, seed=0)
    cold = local_peclet(mesh, analyze_reaction(model, mesh, space))
    assert not cold > 1.0


def _peclet_by_sample(model, mesh, space):
    """(n_e, N_C) per-element, per-sample local Peclet maxima, one
    sample at a time."""
    ne, nq = mesh.quad_weights.shape
    flat = mesh.quad_points.reshape(-1, 2)
    eps = model.eps(space.samples)
    pe = np.empty((ne, space.count))
    for i, omega in enumerate(space.samples):
        bn = np.linalg.norm(sample_advection(model, flat, omega), axis=1)
        pe[:, i] = bn.reshape(ne, nq).max(axis=1) * mesh.h_K / (2.0 * eps[i])
    return pe


def _peclet_case(case):
    """(model, space) of a local_peclet case."""
    if case == "boundary_layer":
        space = make_monte_carlo([(5000.0, 6000.0)] + [(-1.0, 1.0)] * 3,
                                 12, seed=0)
        return boundary_layer(space), space
    if case == "rotating_body":
        return rotating_body(), mc3(10)
    if case == "random_eps_no_modes":
        space = make_monte_carlo([(-1.0, 1.0)], 15, seed=4)
        return constant_adr(eps_fn=lambda s: 0.1 + 0.05 * np.sin(
            7.0 * np.atleast_2d(s)[:, 0]), b=(1.0, -0.5)), space
    # tensor grids repeat each mode-weight row across the other axes
    n = {"tensor_boundary_layer": 4, "paper_boundary_layer": 10}[case]
    space = make_tensor_grid([(5000.0, 6000.0, n)] + [(-1.0, 1.0, n)] * 3)
    return boundary_layer(space), space


@pytest.mark.parametrize("case", [
    "boundary_layer", "rotating_body", "random_eps_no_modes",
    "tensor_boundary_layer", "paper_boundary_layer"])
def test_local_peclet_is_the_largest_per_sample_value(case):
    mesh = build_structured_mesh(4)
    model, space = _peclet_case(case)
    pe = _peclet_by_sample(model, mesh, space)
    # neither the first nor the last sample holds the maximum
    assert 0 < pe.max(axis=0).argmax() < space.count - 1
    assert local_peclet(mesh, analyze_reaction(model, mesh, space)) \
        == pe.max()


@pytest.mark.parametrize("b_mean, beta", [
    ((np.nan, 0.0), None), ((1.0, 0.0), np.inf)])
def test_local_peclet_refuses_non_finite_advection(b_mean, beta):
    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)], 4, seed=0)
    model = constant_adr(b=b_mean)
    if beta is not None:
        centered = float(space.weights @ space.samples[:, 0])
        model = replace(model, b_modes=((
            lambda s: np.atleast_2d(s)[:, 0] - centered,
            lambda x: np.full((len(x), 2), beta)),))
    # a non-finite mode is refused where the modes are sampled
    with pytest.raises(ConfigError, match="non-finite"):
        local_peclet(mesh, analyze_reaction(model, mesh, space))


def test_moderate_stochasticity_gate():
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)], 30, seed=2)

    def eps_wide(s):
        return 1.0 + 0.5 * np.atleast_2d(s)[:, 0]

    def eps_narrow(s):
        return 1.0 + 0.01 * np.atleast_2d(s)[:, 0]

    wide = constant_adr(eps_fn=eps_wide, b=(1.0, 0.0))
    narrow = constant_adr(eps_fn=eps_narrow, b=(1.0, 0.0))
    rep_w = check_moderate_stochasticity(analyze_reaction(wide, mesh, space))
    rep_n = check_moderate_stochasticity(
        analyze_reaction(narrow, mesh, space))
    assert rep_w < 0
    assert rep_n >= 0
    # fully deterministic diffusion: infinite margin
    det = constant_adr(eps_value=1.0)
    rep_d = check_moderate_stochasticity(analyze_reaction(det, mesh, space))
    assert np.isinf(rep_d) and rep_d > 0


def _random_eps_model(case):
    """(model, space) with random diffusion."""
    if case == "rotating_body":
        return rotating_body(), mc3(30, seed=6)
    if case == "boundary_layer":
        space = make_tensor_grid([(5000.0, 6000.0, 5)]
                                 + [(-1.0, 1.0, 2)] * 3)
        return boundary_layer(space), space
    amp = float(case)
    space = make_monte_carlo([(-1.0, 1.0)] * 2, 25, seed=2)
    return constant_adr(eps_fn=lambda s: 1.0 + amp * np.sin(
        3.0 * np.atleast_2d(s)[:, 0] + np.atleast_2d(s)[:, 1])), space


@pytest.mark.parametrize("case", [
    "rotating_body", "boundary_layer", "0.5", "0.03", "0.01", "0.001"])
def test_moderate_stochasticity_is_the_smallest_per_sample_slack(case):
    mesh = build_structured_mesh(3)
    model, space = _random_eps_model(case)
    eps = model.eps(space.samples)
    eps_hat, eps_bar = float(eps.min()), float(space.weights @ eps)
    slack = min(eps_hat / 32.0 - abs(e - eps_bar) for e in eps)
    assert check_moderate_stochasticity(
        analyze_reaction(model, mesh, space)) == slack


def test_boundary_layer_mean_advection():
    space = make_monte_carlo([(5000.0, 6000.0)] + [(-1.0, 1.0)] * 3,
                             40, seed=3)
    model = boundary_layer(space)
    x = np.random.default_rng(0).uniform(0, 1, (7, 2))
    acc = np.zeros((7, 2))
    for w, omega in zip(space.weights, space.samples):
        acc += w * sample_advection(model, x, omega)
    assert np.max(np.abs(acc - 1.0)) <= 1e-12
    mesh = build_structured_mesh(4)
    a = analyze_reaction(model, mesh, space)
    assert np.all((a.eps >= 1.0 / 6000.0) & (a.eps <= 1.0 / 5000.0))
    (theta, beta), = a.modes
    assert np.array_equal(beta, at_points(mesh, model.b_modes[0][1]))
    assert np.array_equal(theta, model.b_modes[0][0](space.samples))


def test_validate_rejects_biased_advection_mode():
    space = make_monte_carlo([(-1.0, 1.0)], 8, seed=5)
    mesh = build_structured_mesh(3)
    base = constant_adr()

    def model(shift):
        return CoefficientModel(
            name="modes", eps=base.eps, b_mean=base.b_mean,
            b_modes=((lambda s: np.atleast_2d(s)[:, 0] - shift,
                      lambda x: np.column_stack([x[:, 1], -x[:, 0]])),))

    centered = float(space.weights @ space.samples[:, 0])
    assert analyze_reaction(model(centered), mesh, space).random_advection
    with pytest.raises(ConfigError, match="zero-mean"):
        analyze_reaction(model(centered - 0.1), mesh, space)
    with pytest.raises(ConfigError, match="one finite value per sample"):
        analyze_reaction(model(np.nan), mesh, space)


def test_b_fluct_memo_matches_the_unmemoized_sum():
    space = make_monte_carlo([(-1.0, 1.0)] * 2, 6, seed=7)
    base = constant_adr()
    calls = []

    def beta_rot(x):
        calls.append(x)
        return np.column_stack([x[:, 1], -x[:, 0]])

    def beta_sq(x):
        calls.append(x)
        return np.column_stack([x[:, 1] ** 2, x[:, 0] ** 2])

    modes = ((lambda s: np.atleast_2d(s)[:, 0], beta_rot),
             (lambda s: 0.3 * np.atleast_2d(s)[:, 1] ** 3, beta_sq))
    model = CoefficientModel(name="modes", eps=base.eps,
                             b_mean=base.b_mean, b_modes=modes)
    twin = replace(model)

    def unmemoized(x, omega):
        omega = np.atleast_2d(omega)
        acc = None
        for theta, beta in modes:
            term = float(theta(omega)[0]) * np.asarray(beta(x), dtype=float)
            acc = term if acc is None else acc + term
        return acc

    rng = np.random.default_rng(1)
    xa, xb = rng.uniform(0, 1, (9, 2)), rng.uniform(0, 1, (5, 2))
    last = None
    for x in (xa, xa, xb, xa, xb, xb, xa.copy()):
        for omega in space.samples[:3]:
            want = unmemoized(x, omega)
            calls.clear()
            got = model.b_fluct(x, omega)
            assert got.shape == x.shape
            assert np.array_equal(got, want)
            # every beta_k is evaluated once per new points array
            assert len(calls) == (0 if x is last else 2)
            assert all(c is x for c in calls)
            last = x

    assert model == twin and "_beta_at" not in repr(model)
