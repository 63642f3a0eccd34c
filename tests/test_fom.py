"""Full-order reference solver."""

import numpy as np
import pytest

from supgdlr import (
    QUAD_POINTS, ConfigError, FomState, SchemeConfig, boundary_layer,
    build_structured_mesh, constant_adr, delta_experiment, fom_run,
    fom_step, l2_norm, make_monte_carlo, prepare_workspace, rotating_body,
)
from supgdlr.fom import CHUNK


def make_ws(mesh, space, model, dt=1e-3):
    cfg = SchemeConfig(dt=dt, delta=delta_experiment(mesh))
    return prepare_workspace(model, mesh, space, cfg)


def test_identical_samples_stay_identical():
    mesh = build_structured_mesh(4)
    # two samples with the same parameter vector
    from supgdlr import SampleSpace
    space = SampleSpace([[0.3, 0.1, -0.2]] * 2, [0.5, 0.5])
    ws = make_ws(mesh, space, rotating_body())
    rng = np.random.default_rng(0)
    col = rng.standard_normal(mesh.n_vertices)
    col[mesh.boundary_index()] = 0.0
    state = FomState(np.column_stack([col, col]))
    for _ in range(5):
        state = fom_step(state, ws)
    assert np.array_equal(state.fields[:, 0], state.fields[:, 1])


def test_zero_field_stays_zero_without_forcing():
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 6, seed=1)
    ws = make_ws(mesh, space, rotating_body())
    state = FomState(np.zeros((mesh.n_vertices, space.count)))
    final, norms = fom_run(state, ws, 5e-3)
    assert np.max(np.abs(final.fields)) == 0.0
    assert norms == [0.0] * 6


def test_heat_equation_decays_monotonically():
    mesh = build_structured_mesh(8)
    space = make_monte_carlo([(-1.0, 1.0)], 3, seed=2)
    model = constant_adr(eps_value=0.5, b=(0.0, 0.0))
    ws = make_ws(mesh, space, model, dt=0.01)
    rng = np.random.default_rng(3)
    fields = rng.standard_normal((mesh.n_vertices, space.count))
    fields[mesh.boundary_index()] = 0.0
    final, norms = fom_run(FomState(fields), ws, 0.1)
    diffs = np.diff(norms)
    assert np.all(diffs <= 1e-14)
    assert norms[-1] < 0.5 * norms[0]


def test_column_count_validation():
    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)], 4, seed=0)
    ws = make_ws(mesh, space, constant_adr(eps_value=0.1))
    with pytest.raises(ConfigError):
        fom_step(FomState(np.zeros((mesh.n_vertices, 3))), ws)
    with pytest.raises(ConfigError):
        FomState(np.zeros(mesh.n_vertices))


def _per_sample_step(state, ws):
    """One full-order step, sample by sample, with an element-by-element
    load: the explicit advection of each sample at its own parameters."""
    mesh, fields = ws.mesh, state.fields
    ne, nq = ws.pw.shape
    Gq = np.einsum("ead,eai->edi", mesh.grads, fields[mesh.triangles])
    test = QUAD_POINTS[None] \
        + ws.blocks.delta[:, None, None] * ws.blocks.bg_at_qp
    rhs = ws.blocks.skewed_mass @ fields / ws.cfg.dt
    rhs -= ws.blocks.stiffness @ (fields * ws.eps_expl[None, :])
    for i, omega in enumerate(ws.space.samples):
        bf = ws.b_expl(ws.xq_flat, omega).reshape(ne, nq, 2)
        val = np.einsum("eqd,ed->eq", bf, Gq[:, :, i])
        contrib = np.einsum("eq,eq,eqa->ea", ws.pw, val, test)
        for e in range(ne):
            np.add.at(rhs[:, i], mesh.triangles[e], -contrib[e])
    return ws.lu.solve(ws.bc.constrain_rhs(rhs))


def test_chunked_step_matches_per_sample_reference():
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(5000.0, 6000.0)] + [(-1.0, 1.0)] * 3,
                             2 * CHUNK + 5, seed=4)
    ws = make_ws(mesh, space, boundary_layer(space))
    assert ws.has_sample_loop and ws.model.forcing is None
    rng = np.random.default_rng(5)
    fields = rng.standard_normal((mesh.n_vertices, space.count))
    fields[mesh.boundary_index()] = 0.0
    state = FomState(fields)
    want = _per_sample_step(state, ws)

    seen = []
    b_expl = ws.b_expl

    def spy(x, omega):
        seen.append(np.array(omega))
        return b_expl(x, omega)

    ws.b_expl = spy
    got = fom_step(state, ws).fields
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert len(seen) == space.count
    assert np.array_equal(np.array(seen), space.samples)


def _one_shot_forcing_step(state, ws):
    """One full-order step of all samples at once, with the forcing load
    summed element by element: the reference of the chunked step when
    there is no random advection."""
    mesh, fields = ws.mesh, state.fields
    test = QUAD_POINTS[None] \
        + ws.blocks.delta[:, None, None] * ws.blocks.bg_at_qp
    fq = ws.model.forcing(state.t + ws.cfg.dt, ws.xq_flat)
    contrib = np.einsum("eq,eq,eqa->ea", ws.pw,
                        np.reshape(fq, ws.pw.shape), test)
    load = np.zeros(mesh.n_vertices)
    np.add.at(load, mesh.triangles, contrib)
    rhs = ws.blocks.skewed_mass @ fields / ws.cfg.dt + load[:, None]
    rhs -= ws.blocks.stiffness @ (fields * ws.eps_expl[None, :])
    return ws.lu.solve(ws.bc.constrain_rhs(rhs))


def test_forcing_step_matches_one_shot_reference():
    mesh = build_structured_mesh(5)
    space = make_monte_carlo([(-1.0, 1.0)] * 2, 2 * CHUNK + 5, seed=6)

    def eps_fn(samples):
        return 0.05 * (1.0 + 0.5 * np.atleast_2d(samples)[:, 0])

    def f(t, x):
        return (1.0 + t) * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

    ws = make_ws(mesh, space, constant_adr(b=(1.0, 0.5), f=f,
                                           eps_fn=eps_fn), dt=0.01)
    assert ws.has_explicit_eps and not ws.has_sample_loop
    rng = np.random.default_rng(7)
    fields = rng.standard_normal((mesh.n_vertices, space.count))
    fields[mesh.boundary_index()] = 0.0
    state = FomState(fields, t=0.02)
    want = _one_shot_forcing_step(state, ws)
    got = fom_step(state, ws).fields
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_step_carries_its_l2_norm():
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(5000.0, 6000.0)] + [(-1.0, 1.0)] * 3,
                             CHUNK + 3, seed=8)
    ws = make_ws(mesh, space, boundary_layer(space))
    rng = np.random.default_rng(9)
    fields = rng.standard_normal((mesh.n_vertices, space.count))
    fields[mesh.boundary_index()] = 0.0
    initial = FomState(fields)
    assert initial.l2 is None

    new = fom_step(initial, ws)
    assert new.l2 == l2_norm(new.fields, ws.blocks.mass, ws.space)

    seen = []
    _, norms = fom_run(initial, ws, 5e-3,
                       callbacks=(lambda st, nrm: seen.append((st, nrm)),))
    assert len(norms) == len(seen) == 6
    for norm, (st, cb_norm) in zip(norms, seen):
        assert norm == cb_norm == l2_norm(st.fields, ws.blocks.mass,
                                          ws.space)
