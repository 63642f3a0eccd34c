"""Staggered stepper: exactness, invariants and failure modes."""

import numpy as np
import pytest

from supgdlr import (
    BlowupError, ConfigError, FomState, NearSingularError, SchemeConfig,
    delta_experiment, build_problem, build_structured_mesh, constant_adr,
    fom_run, fom_step, init_from_modes, make_monte_carlo, make_tensor_grid,
    prepare_workspace, preset_boundary_layer, preset_rotating_body,
    rotating_body, run, step, step_deterministic_modes, step_report,
    step_stochastic_modes,
)
from supgdlr.integrator import WCOND_THRESHOLD

from conftest import check_invariants


def random_state(mesh, space, rank, seed=0):
    rng = np.random.default_rng(seed)
    interior = mesh.interior_index()
    U0 = np.zeros(mesh.n_vertices)
    U0[interior] = rng.standard_normal(len(interior))
    U = np.zeros((mesh.n_vertices, rank))
    U[interior] = rng.standard_normal((len(interior), rank))
    Y = rng.standard_normal((space.count, rank))
    return init_from_modes(U0, U, Y, space)


def make_ws(mesh, space, model, stabilization="supg", dt=1e-3):
    delta = delta_experiment(mesh) if stabilization == "supg" \
        else np.zeros(mesh.n_triangles)
    return prepare_workspace(model, mesh, space,
                             SchemeConfig(dt=dt, delta=delta))


def full_order_run(state, ws, T):
    return fom_run(FomState(state.dense(), t=state.t), ws, T)


# the low-rank and the full-order time loop
time_loops = pytest.mark.parametrize("loop", [run, full_order_run],
                                     ids=["run", "fom_run"])


def test_scheme_config_validation():
    with pytest.raises(ConfigError):
        SchemeConfig(dt=0.0, delta=np.zeros(2))


def test_supg_needs_delta():
    # every run needs a delta; standard Galerkin passes all zeros
    with pytest.raises(ConfigError):
        SchemeConfig(dt=0.1)
    with pytest.raises(ConfigError):
        SchemeConfig(dt=0.1, delta=None)
    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 4, seed=0)
    cfg = SchemeConfig(dt=0.1, delta=np.zeros(mesh.n_triangles - 1))
    with pytest.raises(ConfigError):
        prepare_workspace(rotating_body(), mesh, space, cfg)


@pytest.mark.parametrize("stabilization", ["supg", "none"])
def test_full_rank_matches_full_order(stabilization):
    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 4, seed=4)
    model = rotating_body()
    ws = make_ws(mesh, space, model, stabilization=stabilization)
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
    check_invariants(state, space, ws.blocks.mass)


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
    # one sample of ten has a diffusion 1000 times the others', so the
    # explicit fluctuation dominates the implicit mean and dt = 0.5 is
    # far beyond its stability limit
    mesh = build_structured_mesh(8)
    space = make_tensor_grid([(0.0, 1.0, 10)])
    model = constant_adr(
        eps_fn=lambda s: np.where(np.atleast_2d(s)[:, 0] > 0.95,
                                  10.0, 0.01),
        b=(0.0, 0.0))
    cfg = SchemeConfig(dt=0.5, delta=np.zeros(mesh.n_triangles))
    ws = prepare_workspace(model, mesh, space, cfg)
    state = random_state(mesh, space, rank=1, seed=2)
    with pytest.raises(BlowupError) as err:
        loop(state, ws, 10.0)
    assert err.value.step_index >= 1


def test_low_rank_step_evaluates_no_coefficient_callable():
    # random advection enters the low-rank step and its norms only
    # through the assembled mode blocks: after setup, no coefficient
    # callable is evaluated, so none of them is evaluated per sample
    from supgdlr import boundary_layer

    def refuse(*args):
        raise AssertionError("coefficient callable evaluated in a step")

    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(5000.0, 6000.0)] + [(-1.0, 1.0)] * 3,
                             10, seed=11)
    model = boundary_layer(space)
    ws = make_ws(mesh, space, model, dt=1e-3)
    model.b_fluct = ws.b_expl = ws.c_expl = ws.analysis.mu = refuse
    state = random_state(mesh, space, rank=2, seed=12)
    state, report = step(state, ws)
    assert abs(state.t - 1e-3) <= 1e-15
    assert np.isfinite(report.l2) and report.bconv > 0
    assert step_report(state, ws).l2 == report.l2


def test_workspace_freed_without_cycle_collector():
    # a discarded workspace, with its blocks and factorization, is freed
    # by reference counting, not left for the cyclic garbage collector
    import gc
    import weakref

    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 4, seed=0)
    ws = make_ws(mesh, space, rotating_body())
    ref = weakref.ref(ws)
    gc.disable()
    try:
        del ws
        assert ref() is None
    finally:
        gc.enable()


def test_model_with_advection_modes_freed_without_cycle_collector():
    # a model with affine advection modes, and a workspace built on it,
    # are freed by reference counting
    import gc
    import weakref
    from supgdlr import boundary_layer

    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(5000.0, 6000.0)] + [(-1.0, 1.0)] * 3,
                             4, seed=0)
    model = boundary_layer(space)
    ws = make_ws(mesh, space, model)
    refs = weakref.ref(model), weakref.ref(ws)
    gc.disable()
    try:
        del model, ws
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


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


def test_stochastic_advection_full_rank_oracle():
    # the assembled mode blocks against the per-sample quadrature of
    # the FOM
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


def test_shared_lu_is_ordered_for_the_symmetric_pattern():
    # the constrained matrix has a symmetric pattern, and its LU is
    # ordered for it: less fill than splu's default column order, with
    # the same solutions
    import scipy.sparse.linalg as spla

    ws = build_problem(preset_rotating_body("desk"))[5]
    A = ws.bc.matrix
    assert (A != 0).nnz == ((A != 0) + (A != 0).T).nnz
    default = spla.splu(A.tocsc())
    assert ws.lu.L.nnz + ws.lu.U.nnz < default.L.nnz + default.U.nnz
    b = np.random.default_rng(3).standard_normal((A.shape[0], 3))
    ref = spla.spsolve(A.tocsc(), b)
    assert np.max(np.abs(ws.lu.solve(b) - ref)) \
        <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("preset", [preset_rotating_body,
                                    preset_boundary_layer])
def test_mode_coupling_from_solved_rhs(preset):
    # the boundary layer has non-zero Dirichlet data on its mean mode
    ws, state = build_problem(preset("desk"))[5:]
    for _ in range(3):
        U_tilde, caches = step_deterministic_modes(state, ws)
        Um = U_tilde[:, 1:]
        assert np.all(Um[ws.bc.dofs] == 0.0)
        sparse_form = Um.T @ (ws.Braw.T @ Um)
        from_rhs = caches[-1][:, 1:].T @ Um
        assert np.max(np.abs(from_rhs - sparse_form)) \
            <= 1e-13 * np.max(np.abs(sparse_form))
        state, _ = step(state, ws)


def test_equal_fluctuation_modes_raise_near_singular():
    # equal fluctuation columns of U_tilde make the projected
    # mode-coupling matrix singular, which must stop the step
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 10, seed=7)
    ws = make_ws(mesh, space, rotating_body(), dt=1e-3)
    state = random_state(mesh, space, rank=2, seed=8)
    U_tilde, caches = step_deterministic_modes(state, ws)
    U_tilde[:, 2] = U_tilde[:, 1]
    with pytest.raises(NearSingularError) as err:
        step_stochastic_modes(state, U_tilde, ws, caches)
    assert err.value.condition > WCOND_THRESHOLD
