"""Staggered stepper: exactness, invariants and failure modes."""

import numpy as np
import pytest

from supgdlr import (
    BlowupError, ConfigError, FomState, SchemeConfig, delta_experiment,
    build_structured_mesh, constant_adr, fom_run, fom_step,
    init_from_modes, load_state, make_monte_carlo, prepare_workspace,
    rotating_body, run, save_state, step,
)


def random_state(mesh, space, rank, seed=0):
    rng = np.random.default_rng(seed)
    interior = mesh.interior_index()
    U0 = np.zeros(mesh.n_vertices)
    U0[interior] = rng.standard_normal(len(interior))
    U = np.zeros((mesh.n_vertices, rank))
    U[interior] = rng.standard_normal((len(interior), rank))
    Y = rng.standard_normal((space.count, rank))
    return init_from_modes(U0, U, Y, space)


def make_ws(mesh, space, model, scheme="semi_implicit",
            stabilization="supg", dt=1e-3):
    delta = delta_experiment(mesh) if stabilization == "supg" else None
    cfg = SchemeConfig(dt=dt, scheme=scheme, stabilization=stabilization,
                       delta=delta)
    return prepare_workspace(model, mesh, space, cfg)


def full_order_run(state, ws, T):
    return fom_run(FomState(state.dense(), t=state.t), ws, T)


# the low-rank and the full-order time loop
time_loops = pytest.mark.parametrize("loop", [run, full_order_run],
                                     ids=["run", "fom_run"])


def test_scheme_config_validation():
    with pytest.raises(ConfigError):
        SchemeConfig(dt=0.0)
    with pytest.raises(ConfigError):
        SchemeConfig(dt=0.1, scheme="rk4")
    with pytest.raises(ConfigError):
        SchemeConfig(dt=0.1, stabilization="gls")


def test_supg_needs_delta():
    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 4, seed=0)
    cfg = SchemeConfig(dt=0.1, stabilization="supg", delta=None)
    with pytest.raises(ConfigError):
        prepare_workspace(rotating_body(), mesh, space, cfg)


def test_tangent_check_limited_to_small_sample_spaces():
    mesh = build_structured_mesh(3)
    cfg = SchemeConfig(dt=0.1, delta=delta_experiment(mesh),
                       compute_tangent_residual=True)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 64, seed=0)
    prepare_workspace(rotating_body(), mesh, space, cfg)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 65, seed=0)
    with pytest.raises(ConfigError):
        prepare_workspace(rotating_body(), mesh, space, cfg)


def test_implicit_deterministic_rejects_fluctuations():
    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 4, seed=0)
    cfg = SchemeConfig(dt=0.1, scheme="implicit_euler_deterministic",
                       stabilization="none")
    with pytest.raises(ConfigError):
        prepare_workspace(rotating_body(), mesh, space, cfg)


@pytest.mark.parametrize("scheme", ["semi_implicit", "explicit"])
@pytest.mark.parametrize("stabilization", ["supg", "none"])
def test_full_rank_matches_full_order(scheme, stabilization):
    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 4, seed=4)
    model = rotating_body()
    ws = make_ws(mesh, space, model, scheme=scheme,
                 stabilization=stabilization)
    state = random_state(mesh, space, rank=space.count - 1, seed=5)
    fom = FomState(state.dense(), t=state.t)
    for _ in range(10):
        state, _ = step(state, ws)
        fom = fom_step(fom, ws)
        assert np.max(np.abs(state.dense() - fom.fields)) <= 1e-8


def test_rank_zero_matches_deterministic_solve():
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)], 3, seed=0)
    model = constant_adr(eps_value=0.1, b=(1.0, 0.5), f=1.0)
    ws = make_ws(mesh, space, model, dt=0.05)
    from supgdlr import DlrState
    state = DlrState(np.zeros(mesh.n_vertices),
                     np.zeros((mesh.n_vertices, 0)),
                     np.zeros((space.count, 0)))
    fom = FomState(state.dense(), t=0.0)
    for _ in range(5):
        state, _ = step(state, ws)
        fom = fom_step(fom, ws)
    assert np.max(np.abs(state.dense() - fom.fields)) <= 1e-12


def test_step_preserves_orthogonality_invariants():
    mesh = build_structured_mesh(6)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 30, seed=1)
    ws = make_ws(mesh, space, rotating_body(), dt=1e-3)
    state = random_state(mesh, space, rank=3, seed=2)
    for _ in range(5):
        state, report = step(state, ws)
        assert report.defect_gram <= 1e-12
        assert report.defect_mean <= 1e-12
        assert report.defect_cross <= 1e-12
    state.validate(space, ws.blocks.mass)


def test_increment_lies_in_complement():
    from supgdlr.integrator import step_deterministic_modes, \
        step_stochastic_modes

    mesh = build_structured_mesh(5)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 20, seed=3)
    ws = make_ws(mesh, space, rotating_body(), dt=1e-3)
    state = random_state(mesh, space, rank=2, seed=4)
    U_tilde, caches = step_deterministic_modes(state, ws)
    Y_tilde, dY, cond = step_stochastic_modes(state, U_tilde, ws, caches)
    w = space.weights
    assert np.max(np.abs(w @ dY)) <= 1e-13
    assert np.max(np.abs((dY * w[:, None]).T @ state.Y)) <= 1e-12
    assert cond >= 1.0
    assert np.array_equal(Y_tilde, state.Y + dY)


@time_loops
def test_run_time_grid_checks(loop):
    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)], 2, seed=0)
    ws = make_ws(mesh, space, constant_adr(eps_value=0.1), dt=0.1)
    state = random_state(mesh, space, rank=1, seed=1)
    with pytest.raises(ConfigError):
        loop(state, ws, -1.0)
    with pytest.raises(ConfigError):
        loop(state, ws, 0.33)         # 0.1 does not divide 0.33
    final, records = loop(state, ws, 0.5)
    assert len(records) == 6          # initial + 5 steps
    assert abs(final.t - 0.5) <= 1e-12


@time_loops
def test_explicit_diffusion_blowup_detected(loop):
    mesh = build_structured_mesh(8)
    space = make_monte_carlo([(-1.0, 1.0)], 2, seed=0)
    model = constant_adr(eps_value=1.0, b=(0.0, 0.0))
    cfg = SchemeConfig(dt=0.5, scheme="explicit", stabilization="none",
                       blowup_factor=100.0)
    ws = prepare_workspace(model, mesh, space, cfg)
    state = random_state(mesh, space, rank=1, seed=2)
    with pytest.raises(BlowupError) as err:
        loop(state, ws, 10.0)
    assert err.value.step_index >= 1


def test_step_without_sample_loop_builds_no_mode_frames(monkeypatch):
    # deterministic advection and reaction: no per-sample residual, so
    # the quadrature-point mode frames are never needed
    from supgdlr import integrator

    def refuse(*args):
        raise AssertionError("mode frames built without a sample loop")

    monkeypatch.setattr(integrator, "_mode_frames", refuse)
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 10, seed=11)
    ws = make_ws(mesh, space, rotating_body(), dt=1e-3)
    assert not ws.has_sample_loop
    state, report = step(random_state(mesh, space, rank=2, seed=12), ws)
    assert abs(state.t - 1e-3) <= 1e-15
    assert np.isfinite(report.l2)


def test_semi_implicit_trajectory_reproducible():
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 10, seed=5)
    ws = make_ws(mesh, space, rotating_body(), dt=1e-3)
    s1 = random_state(mesh, space, rank=2, seed=6)
    s2 = random_state(mesh, space, rank=2, seed=6)
    for _ in range(4):
        s1, _ = step(s1, ws)
        s2, _ = step(s2, ws)
    assert np.array_equal(s1.dense(), s2.dense())


def test_checkpoint_continuation(tmp_path):
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 10, seed=7)
    ws = make_ws(mesh, space, rotating_body(), dt=1e-3)
    state = random_state(mesh, space, rank=2, seed=8)
    for _ in range(3):
        state, _ = step(state, ws)
    save_state(state, tmp_path / "mid.npz")
    ref = state
    for _ in range(2):
        ref, _ = step(ref, ws)
    resumed = load_state(tmp_path / "mid.npz")
    for _ in range(2):
        resumed, _ = step(resumed, ws)
    assert np.array_equal(resumed.dense(), ref.dense())
    assert resumed.t == ref.t


def test_stochastic_advection_full_rank_oracle():
    # random advection exercises the explicit per-sample residual loop
    from supgdlr import boundary_layer

    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(5000.0, 6000.0)] + [(-1.0, 1.0)] * 3,
                             5, seed=9)
    model = boundary_layer(space)
    ws = make_ws(mesh, space, model, dt=1e-3)
    state = random_state(mesh, space, rank=space.count - 1, seed=10)
    fom = FomState(state.dense(), t=0.0)
    for _ in range(5):
        state, _ = step(state, ws)
        fom = fom_step(fom, ws)
    assert np.max(np.abs(state.dense() - fom.fields)) <= 1e-9
