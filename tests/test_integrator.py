"""Staggered stepper: exactness, invariants and failure modes."""

import numpy as np
import pytest

from supgdlr import (
    BlowupError, ConfigError, DlrState, FomState, NearSingularError,
    StepReport, delta_experiment, build_problem, build_structured_mesh,
    constant_adr, fom_run, fom_step, init_from_modes, make_monte_carlo, make_tensor_grid,
    prepare_workspace, preset_boundary_layer, preset_rotating_body,
    rotating_body, run, step, step_deterministic_modes, step_report,
    step_stochastic_modes,
)
from supgdlr.integrator import WCOND_THRESHOLD

from conftest import check_invariants, two_mode_advection


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
    return prepare_workspace(model, mesh, space, dt, delta)


def full_order_run(state, ws, T):
    return fom_run(FomState(state.dense(), t=state.t), ws, T)


# the low-rank and the full-order time loop
time_loops = pytest.mark.parametrize("loop", [run, full_order_run],
                                     ids=["run", "fom_run"])


@pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
def test_prepare_workspace_refuses_bad_dt(dt):
    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 4, seed=0)
    with pytest.raises(ConfigError, match="dt must be positive"):
        prepare_workspace(rotating_body(), mesh, space, dt,
                          delta_experiment(mesh))


def test_supg_needs_delta():
    # every run needs a delta; standard Galerkin passes all zeros
    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 4, seed=0)
    for delta in (None, np.zeros(mesh.n_triangles - 1)):
        with pytest.raises(ConfigError, match="one entry per triangle"):
            prepare_workspace(rotating_body(), mesh, space, 0.1, delta)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_prepare_workspace_rejects_non_finite_delta(bad):
    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 4, seed=0)
    delta = np.full(mesh.n_triangles, 0.1)
    delta[0] = bad
    with pytest.raises(ConfigError, match="non-finite"):
        prepare_workspace(rotating_body(), mesh, space, 0.1, delta)


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
    state = DlrState(np.zeros((mesh.n_vertices, 1)),
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


def test_time_loops_call_back_with_the_state_first():
    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)], 2, seed=0)
    ws = make_ws(mesh, space, constant_adr(eps_value=0.1), dt=0.1)
    state = random_state(mesh, space, rank=1, seed=1)
    for loop, initial, state_type, record_type in (
            (run, state, DlrState, StepReport),
            (fom_run, FomState(state.dense(), t=state.t), FomState, float)):
        seen = []
        final, records = loop(initial, ws, 0.3, callbacks=(
            lambda st, record: seen.append((st, record)),))
        assert [type(st) for st, _ in seen] == [state_type] * 4
        assert [type(r) for _, r in seen] == [record_type] * 4
        assert [r for _, r in seen] == records
        assert seen[0][0] is initial and seen[-1][0] is final


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
    ws = prepare_workspace(model, mesh, space, 0.5,
                           np.zeros(mesh.n_triangles))
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


def test_two_advection_modes_full_rank_oracle():
    # the explicit blocks of two affine modes, whose streamline forms
    # include the off-diagonal S_12, against the per-sample quadrature
    # of the FOM
    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 5, seed=9)
    ws = make_ws(mesh, space, two_mode_advection(space), dt=1e-3)
    assert len(ws.b_forms) == 5
    state = random_state(mesh, space, rank=space.count - 1, seed=10)
    fom = FomState(state.dense(), t=0.0)
    for _ in range(5):
        state, _ = step(state, ws)
        fom = fom_step(fom, ws)
    assert np.max(np.abs(state.dense() - fom.fields)) <= 1e-9


def test_run_assembles_no_form(monkeypatch):
    # every form of a run is assembled by build_problem: a run with the
    # form assembler replaced by one that raises still completes
    from supgdlr import diagnostics, mesh as mesh_module

    cfg = preset_boundary_layer("desk")
    *_, ws, state = build_problem(cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("a form was assembled during the run")

    monkeypatch.setattr(mesh_module, "_form", refuse)
    monkeypatch.setattr(diagnostics, "_form", refuse)
    final, reports = run(state, ws, cfg.T)
    assert len(reports) == 51
    assert abs(final.t - cfg.T) <= 1e-12


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


def _scaled_mode_step(scale):
    """step_stochastic_modes with fluctuation mode 2 and its solved
    right-hand side times scale; returns (dY, condition, raw What)."""
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 10, seed=7)
    ws = make_ws(mesh, space, rotating_body(), dt=1e-3)
    state = random_state(mesh, space, rank=2, seed=8)
    U_tilde, (BU, rhs) = step_deterministic_modes(state, ws)
    U_tilde[:, 2] *= scale
    rhs[:, 2] *= scale
    _, dY, cond = step_stochastic_modes(state, U_tilde, ws, (BU, rhs))
    return dY, cond, rhs[:, 1:].T @ U_tilde[:, 1:]


def test_a_tiny_fluctuation_mode_runs():
    # a mode at 1e-9 of the others scales a row and a column of What
    # alike: a raw condition near 1e18, but the same scaled system
    dY, cond, _ = _scaled_mode_step(1.0)
    dY_tiny, cond_tiny, What = _scaled_mode_step(1e-9)
    assert np.linalg.cond(What) > WCOND_THRESHOLD
    assert cond_tiny == pytest.approx(cond, rel=1e-6)
    # the tiny mode's increment is 1e9 times larger, so Um dY^T is kept
    assert np.allclose(dY_tiny * [1.0, 1e-9], dY, rtol=1e-6, atol=0.0)


def test_zero_fluctuation_mode_raises_near_singular():
    with pytest.raises(NearSingularError) as err:
        _scaled_mode_step(0.0)
    assert err.value.condition == np.inf


def _tiny_rotating_body():
    cfg = preset_rotating_body("desk")
    cfg.n_per_side = 8
    cfg.sampler["count"] = 20
    return cfg


@pytest.mark.parametrize("preset, per_step", [
    (lambda: preset_boundary_layer("desk"), 7),
    (_tiny_rotating_body, 4),
], ids=["boundary_layer_desk", "small_rotating_body"])
def test_sparse_products_per_step(monkeypatch, preset, per_step):
    # the stiffness product of a state's report serves the step from it:
    # skewed mass, the advection term, and mass, supg_conv and the two
    # streamline forms of the report on the boundary layer; skewed mass,
    # mass and supg_conv plus the new state's stiffness on the rotating
    # body
    import scipy.sparse as sp
    from supgdlr import integrator

    cfg = preset()
    ws, state = build_problem(cfg)[5:]
    counts, in_step = [], [False]
    matmul, inner_step = sp.csr_matrix.__matmul__, integrator.step

    def counting_matmul(matrix, other):
        if in_step[0] and isinstance(other, np.ndarray):
            counts[-1] += 1
        return matmul(matrix, other)

    def counted_step(state, ws):
        counts.append(0)
        in_step[0] = True
        try:
            return inner_step(state, ws)
        finally:
            in_step[0] = False

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(integrator, "step", counted_step)
    run(state, ws, state.t + 3 * cfg.dt)
    assert counts == [per_step] * 3


@pytest.mark.parametrize("preset", [preset_rotating_body,
                                    preset_boundary_layer])
def test_a_carried_product_cannot_go_stale(preset):
    from supgdlr import DlrState

    ws, state = build_problem(preset("desk"))[5:]
    state, _ = step(state, ws)        # carries its report's product
    fresh = DlrState(state.U_full.copy(), state.Y.copy(), state.t)
    carried_new, carried_report = step(state, ws)
    fresh_new, fresh_report = step(fresh, ws)
    for a, b in [(carried_new.U_full, fresh_new.U_full),
                 (carried_new.Y_full, fresh_new.Y_full)]:
        assert np.array_equal(a, b)
    assert carried_new.t == fresh_new.t
    assert carried_report == fresh_report

    kept = state.product(ws.blocks.stiffness)
    for array in (state.U_full, state.U0, state.Y_full, kept):
        with pytest.raises(ValueError):
            array[0] = 1.0
