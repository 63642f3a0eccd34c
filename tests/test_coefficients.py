"""Coefficient models, reaction analysis and stabilization policies."""

from dataclasses import replace

import numpy as np
import pytest

from supgdlr import (
    CoefficientModel, ConfigError, StabilizationParams, analyze_reaction,
    assemble_blocks, boundary_layer, build_structured_mesh,
    check_moderate_stochasticity, constant_adr, delta_coercivity,
    delta_experiment, delta_semi_implicit, estimate_inverse_constant,
    local_peclet, make_monte_carlo, rotating_body,
)


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
    bar, star = model.eps_split(space)
    assert abs(float(space.weights @ star)) <= 1e-12 * bar
    assert np.allclose(bar + star, model.eps_values(space))


def test_eps_bounds_bracket():
    space = mc3()
    model = rotating_body()
    eps_hat, C_E = model.eps_bounds(space)
    vals = model.eps_values(space)
    assert eps_hat == vals.min()
    assert abs(C_E - vals.max() / vals.min()) <= 1e-12


def test_eps_must_be_positive():
    space = mc3()
    bad = constant_adr(eps_fn=lambda s: np.full(len(np.atleast_2d(s)), -1.0))
    with pytest.raises(ConfigError):
        bad.eps_values(space)


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
    blocks = assemble_blocks(mesh, lambda x: np.zeros((len(x), 2)), None,
                             np.zeros(mesh.n_triangles))
    C_I = estimate_inverse_constant(mesh, blocks)
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
    assert np.allclose(d.delta_K, mesh.h_K / 4.0)


def test_delta_coercivity_formula():
    mesh = build_structured_mesh(6)
    space = make_monte_carlo([(-1.0, 1.0)], 5, seed=0)
    model = constant_adr(eps_value=0.01, b=(1.0, 1.0), c=2.0)
    a = analyze_reaction(model, mesh, space)
    seed = StabilizationParams(np.zeros(mesh.n_triangles), C_I=3.0, d=2)
    d = delta_coercivity(mesh, a, seed)
    b1 = 1.0 / (2.0 * 2.0)
    b2 = mesh.h_K ** 2 / (2.0 * 2 * 9.0 * a.C_E ** 2 * a.eps_hat)
    assert np.allclose(d.delta_K, np.minimum(b1, b2))


def test_delta_coercivity_inf_needs_cap():
    # without reaction only the diffusion constraint is active, and it
    # is finite; with small diffusion it exceeds h_K/4, where the cap
    # clips it
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)], 5, seed=0)
    model = constant_adr(eps_value=1e-3, b=(1.0, 0.0), c=0.0)
    a = analyze_reaction(model, mesh, space)
    d = delta_coercivity(mesh, a,
                         StabilizationParams(np.zeros(mesh.n_triangles),
                                             C_I=2.0))
    assert np.all(np.isfinite(d.delta_K))
    assert np.all(d.delta_K > mesh.h_K / 4.0)
    capped = d.capped(mesh.h_K / 4.0)
    assert np.allclose(capped.delta_K, mesh.h_K / 4.0)
    assert capped.C_I == 2.0


def test_delta_semi_implicit_formula():
    mesh = build_structured_mesh(6)
    space = make_monte_carlo([(-1.0, 1.0)], 5, seed=0)
    model = constant_adr(eps_value=0.05, b=(1.0, 1.0), c=1.0)
    a = analyze_reaction(model, mesh, space)
    dt = 0.02
    seed = StabilizationParams(np.zeros(mesh.n_triangles), C_I=2.5, d=2)
    d = delta_semi_implicit(mesh, a, seed, dt)
    b1 = 1.0 / (2.0 * 1.0)
    b2 = mesh.h_K ** 2 / (2.0 * a.eps_hat * 2.5 ** 2
                          * max(a.C_E ** 2, 1.0) * 2)
    want = 0.125 * np.minimum(np.minimum(b1, b2), 2.0 * dt)
    assert np.allclose(d.delta_K, want)
    # the semi-implicit policy always respects the dt/4 time-step bound
    assert np.all(d.delta_K <= dt / 4.0 + 1e-15)


def test_local_peclet_regimes():
    mesh = build_structured_mesh(8)
    space = mc3(10)
    hot = local_peclet(rotating_body(), mesh, space)
    assert hot.advection_dominated
    assert hot.max_peclet > 1.0
    cold = local_peclet(constant_adr(eps_value=10.0, b=(1.0, 0.0)),
                        mesh, make_monte_carlo([(-1.0, 1.0)], 4, seed=0))
    assert not cold.advection_dominated


def test_moderate_stochasticity_gate():
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)], 30, seed=2)

    def eps_wide(s):
        return 1.0 + 0.5 * np.atleast_2d(s)[:, 0]

    def eps_narrow(s):
        return 1.0 + 0.01 * np.atleast_2d(s)[:, 0]

    wide = constant_adr(eps_fn=eps_wide, b=(1.0, 0.0))
    narrow = constant_adr(eps_fn=eps_narrow, b=(1.0, 0.0))
    rep_w = check_moderate_stochasticity(
        wide, analyze_reaction(wide, mesh, space), space)
    rep_n = check_moderate_stochasticity(
        narrow, analyze_reaction(narrow, mesh, space), space)
    assert not rep_w.ok and rep_w.eps_margin < 0
    assert rep_n.ok and rep_n.eps_margin >= 0
    # fully deterministic diffusion: infinite margin
    det = constant_adr(eps_value=1.0)
    rep_d = check_moderate_stochasticity(
        det, analyze_reaction(det, mesh, space), space)
    assert rep_d.ok and np.isinf(rep_d.eps_margin)


def test_boundary_layer_mean_advection():
    space = make_monte_carlo([(5000.0, 6000.0)] + [(-1.0, 1.0)] * 3,
                             40, seed=3)
    model = boundary_layer(space)
    x = np.random.default_rng(0).uniform(0, 1, (7, 2))
    acc = np.zeros((7, 2))
    for w, omega in zip(space.weights, space.samples):
        acc += w * model.b_at(x, omega)
    assert np.max(np.abs(acc - 1.0)) <= 1e-12
    mesh = build_structured_mesh(4)
    model.validate(space, mesh)
    eps = model.eps_values(space)
    assert np.all((eps >= 1.0 / 6000.0) & (eps <= 1.0 / 5000.0))


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
    model(centered).validate(space, mesh)
    with pytest.raises(ConfigError):
        model(centered - 0.1).validate(space, mesh)


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


def test_negative_delta_rejected():
    with pytest.raises(ConfigError):
        StabilizationParams(np.array([-0.1]))
