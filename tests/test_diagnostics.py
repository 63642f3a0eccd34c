"""Norms, structural checkers, bound ledgers and CSV output."""

import csv

import numpy as np
import pytest

from supgdlr import (
    ConfigError, SchemeConfig, analyze_reaction,
    assemble_blocks, boundary_layer, build_structured_mesh,
    check_coercivity, check_moderate_stochasticity, check_tangent_residual,
    constant_adr, delta_experiment, evaluate_bound, forcing_norms,
    init_from_modes, l2_norm, make_monte_carlo, md_metric,
    prepare_workspace, rotating_body, run, step, step_report,
    write_ledgers_csv, write_reports_csv,
)
from supgdlr.diagnostics import StepReport
from supgdlr.integrator import step_deterministic_modes, \
    step_stochastic_modes
from supgdlr.runner import resolve_delta


def random_state(mesh, space, rank, seed=0):
    rng = np.random.default_rng(seed)
    interior = mesh.interior_index()
    U0 = np.zeros(mesh.n_vertices)
    U0[interior] = rng.standard_normal(len(interior))
    U = np.zeros((mesh.n_vertices, rank))
    U[interior] = rng.standard_normal((len(interior), rank))
    Y = rng.standard_normal((space.count, rank))
    return init_from_modes(U0, U, Y, space)


def make_ws(mesh, space, model, stabilization="supg", dt=1e-3,
            tangent=False):
    delta = delta_experiment(mesh) if stabilization == "supg" \
        else np.zeros(mesh.n_triangles)
    cfg = SchemeConfig(dt=dt, delta=delta, compute_tangent_residual=tangent)
    return prepare_workspace(model, mesh, space, cfg)


def test_l2_norm_matches_dense():
    mesh = build_structured_mesh(5)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 15, seed=0)
    blocks = assemble_blocks(mesh, lambda x: np.zeros((len(x), 2)), None,
                             np.zeros(mesh.n_triangles))
    state = random_state(mesh, space, rank=3, seed=1)
    ws = make_ws(mesh, space, rotating_body())
    fast = ws.norms.norms(state)["l2"]
    fields = state.dense()
    per = np.einsum("ki,ki->i", fields, blocks.mass @ fields)
    slow = np.sqrt(float(space.weights @ per))
    assert abs(fast - slow) <= 1e-12 * max(slow, 1.0)
    assert abs(l2_norm(fields, blocks.mass, space) - slow) \
        <= 1e-12 * max(slow, 1.0)


@pytest.mark.parametrize("case", ["constant_adr", "boundary_layer"])
def test_supg_norm_dense_oracle(case):
    mesh = build_structured_mesh(4)
    if case == "boundary_layer":
        space = make_monte_carlo([(5000.0, 6000.0)] + [(-1.0, 1.0)] * 3,
                                 6, seed=2)
        model = boundary_layer(space)
    else:
        space = make_monte_carlo([(-1.0, 1.0)], 6, seed=2)
        model = constant_adr(eps_value=0.2, b=(1.0, -0.5), c=3.0)
    ws = make_ws(mesh, space, model)
    state = random_state(mesh, space, rank=2, seed=3)
    got = ws.norms.norms(state)["supg"]

    # brute force: per-sample quadrature evaluation of every term
    a = ws.analysis
    fields = state.dense()
    w = space.weights
    mu = a.mu(ws.xq_flat).reshape(ws.pw.shape)
    total = 0.0
    for i in range(space.count):
        u = fields[:, i]
        tri = u[mesh.triangles]
        g = np.einsum("ead,ea->ed", mesh.grads, tri)
        gradsq = float(np.sum(mesh.signed_areas * np.sum(g * g, axis=1)))
        bq = model.b_at(ws.xq_flat, space.samples[i]).reshape(
            *ws.pw.shape, 2)
        bg = np.einsum("eqd,ed->eq", bq, g)
        bsq = float(np.einsum("e,eq,eq->", ws.delta, ws.pw, bg ** 2))
        vq = np.einsum("qa,ea->eq", ws.phi, tri)
        musq = float(np.einsum("eq,eq,eq->", ws.pw, mu, vq ** 2))
        total += w[i] * (a.eps_hat * gradsq + bsq + musq)
    assert abs(got - np.sqrt(total)) <= 1e-10 * max(np.sqrt(total), 1.0)


def test_zero_advection_mode_changes_no_norm():
    # a zero mode adds its (zero) streamline forms; every norm must
    # match the model without modes
    from supgdlr.coefficients import CoefficientModel

    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)], 5, seed=4)
    det = constant_adr(eps_value=0.3, b=(1.0, 1.0), c=1.0)
    rand = CoefficientModel(
        name="pseudo", eps=det.eps, b_mean=det.b_mean,
        b_modes=((lambda s: np.atleast_2d(s)[:, 0] - space.weights
                  @ space.samples[:, 0],
                  lambda x: np.zeros((len(x), 2))),),
        c_mean=det.c_mean)
    ws_det = make_ws(mesh, space, det)
    ws_rand = make_ws(mesh, space, rand)
    assert len(ws_rand.norms.b_forms) == 2
    state = random_state(mesh, space, rank=2, seed=5)
    nd = ws_det.norms.norms(state)
    nr = ws_rand.norms.norms(state)
    for key in ("l2", "grad", "supg", "mu_half", "bconv"):
        assert abs(nd[key] - nr[key]) <= 1e-10 * max(nd[key], 1.0), key


def test_md_metric_oracle():
    assert md_metric(np.array([3.0, -1.0, 2.0])) == 4.0
    assert md_metric(np.array([5.0])) == 0.0
    with pytest.raises(ConfigError):
        md_metric(np.array([]))


def test_coercivity_check_passes_with_compliant_delta():
    mesh = build_structured_mesh(8)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 20, seed=6)
    model = rotating_body()
    analysis = analyze_reaction(model, mesh, space)
    delta = resolve_delta("coercivity", mesh, model, analysis, None)
    blocks = assemble_blocks(mesh, model.b_mean, model.c_mean,
                             delta.delta_K)
    report = check_coercivity(model, analysis, blocks, space, trials=50,
                              seed=7)
    assert report.ok
    assert report.worst_margin > -1e-10


def test_coercivity_check_rejects_random_advection():
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(5000.0, 6000.0)] + [(-1.0, 1.0)] * 3,
                             5, seed=0)
    model = boundary_layer(space)
    analysis = analyze_reaction(model, mesh, space)
    blocks = assemble_blocks(mesh, model.b_mean, None,
                             np.zeros(mesh.n_triangles))
    with pytest.raises(ConfigError):
        check_coercivity(model, analysis, blocks, space, trials=1)


def tangent_setup(case):
    """Rotating body with stabilization `case` ("supg" or "none"), or
    the "boundary_layer" model, whose random advection enters through
    the assembled mode block (and through per-sample quadrature in the
    full-order step the check compares with)."""
    mesh = build_structured_mesh(3)
    if case == "boundary_layer":
        space = make_monte_carlo([(5000.0, 6000.0)] + [(-1.0, 1.0)] * 3,
                                 6, seed=8)
        ws = make_ws(mesh, space, boundary_layer(space))
    else:
        space = make_monte_carlo([(-1.0, 1.0)] * 3, 6, seed=8)
        ws = make_ws(mesh, space, rotating_body(), stabilization=case)
    state = random_state(mesh, space, rank=2, seed=9)
    return ws, state


@pytest.mark.parametrize("case", ["supg", "none", "boundary_layer"])
def test_tangent_residual_small_after_exact_step(case):
    ws, state = tangent_setup(case)
    U_tilde, caches = step_deterministic_modes(state, ws)
    Y_tilde, _, _ = step_stochastic_modes(state, U_tilde, ws, caches)
    res = check_tangent_residual(ws, state, U_tilde, Y_tilde)
    assert res <= 1e-9


@pytest.mark.parametrize("case", ["supg", "boundary_layer"])
def test_tangent_residual_perturbation_sensitivity(case):
    ws, state = tangent_setup(case)
    U_tilde, caches = step_deterministic_modes(state, ws)
    Y_tilde, _, _ = step_stochastic_modes(state, U_tilde, ws, caches)
    bad = U_tilde.copy()
    bad[ws.mesh.interior_index(), :] += 1e-3
    res = check_tangent_residual(ws, state, bad, Y_tilde)
    assert res > 1e-5


def decay_run(c=0.0, f=None, dt=0.01, T=0.5, eps=0.05, eps_fn=None):
    mesh = build_structured_mesh(8)
    space = make_monte_carlo([(-1.0, 1.0)], 4, seed=10)
    model = constant_adr(eps_value=eps, b=(1.0, 1.0), c=c, f=f,
                         eps_fn=eps_fn)
    analysis = analyze_reaction(model, mesh, space)
    delta = resolve_delta("semi_implicit", mesh, model, analysis, dt)
    ws = prepare_workspace(model, mesh, space,
                           SchemeConfig(dt=dt, delta=delta),
                           analysis=analysis)
    state = random_state(mesh, space, rank=1, seed=11)
    _, reports = run(state, ws, T)
    stoch = check_moderate_stochasticity(model, analysis, space)
    return ws, analysis, delta, reports, stoch


def test_bound_case_ii_passes():
    # one run, both theorems: with deterministic coefficients the step
    # is the implicit Euler step of im_stab as well
    ws, analysis, delta, reports, stoch = decay_run()
    led = evaluate_bound(reports, "si_stab", "ii", analysis, delta,
                         ws.cfg.dt, 0.5, stoch_report=stoch)
    assert led.applicable and led.passed
    assert led.constants["C1"] == 0.5
    assert led.constants["C2"] == 0.0
    assert "margin_proof" in led.constants
    assert led.constants["margin_proof"] >= 0.0
    led = evaluate_bound(reports, "im_stab", "ii", analysis, delta,
                         ws.cfg.dt, 0.5)
    assert led.applicable and led.passed
    assert led.constants["C1"] == 0.75


def test_bound_case_i_constants_and_pass():
    ws, analysis, delta, reports, stoch = decay_run(c=2.0, f=1.0)
    n_steps = len(reports) - 1
    fn = forcing_norms(ws, 0.0, n_steps)
    led = evaluate_bound(reports, "im_stab", "i", analysis, delta,
                         ws.cfg.dt, 0.5, f_norms=fn)
    assert led.applicable and led.passed
    dmax = float(np.max(delta.delta_K))
    assert abs(led.constants["C2"]
               - (2.0 / analysis.mu0 + 4.0 * dmax)) <= 1e-13


def test_bound_case_iii_constants_and_pass():
    ws, analysis, delta, reports, stoch = decay_run(c=0.0, f=1.0)
    n_steps = len(reports) - 1
    fn = forcing_norms(ws, 0.0, n_steps)
    led = evaluate_bound(reports, "im_stab", "iii", analysis, delta,
                         ws.cfg.dt, 0.5, f_norms=fn)
    assert led.applicable and led.passed
    want_C3 = float(np.exp((1.0 + 2.0 * analysis.nu) * 0.5))
    assert abs(led.constants["C3"] - want_C3) <= 1e-13


def test_bound_case_gating():
    ws, analysis, delta, reports, stoch = decay_run()
    # case i needs positive mu0
    led = evaluate_bound(reports, "si_stab", "i", analysis, delta,
                         ws.cfg.dt, 0.5, stoch_report=stoch)
    assert not led.applicable and "mu0" in led.reason
    # case ii with forcing present is refused
    led = evaluate_bound(reports, "si_stab", "ii", analysis, delta,
                         ws.cfg.dt, 0.5,
                         f_norms=np.ones(len(reports) - 1),
                         stoch_report=stoch)
    assert not led.applicable
    # si without a stochasticity report is refused
    led = evaluate_bound(reports, "si_stab", "ii", analysis, delta,
                         ws.cfg.dt, 0.5)
    assert not led.applicable and "stochasticity" in led.reason
    # oversized delta is refused
    big = np.full_like(delta.delta_K, 10.0)
    led = evaluate_bound(reports, "im_stab", "ii", analysis, big,
                         ws.cfg.dt, 0.5)
    assert not led.applicable


def test_bound_refuses_random_coefficients():
    # im_stab assumes deterministic diffusion: random diffusion under the
    # semi-implicit delta policy must not be certified by it
    ws, analysis, delta, reports, stoch = decay_run(
        eps_fn=lambda s: 10.0 ** (np.atleast_2d(s)[:, 0] / 2.0 - 1.5))
    assert analysis.eps_star_sup > analysis.eps_hat
    led = evaluate_bound(reports, "im_stab", "ii", analysis, delta,
                         ws.cfg.dt, 0.5, stoch_report=stoch)
    assert not led.applicable and "diffusion is random" in led.reason

    # both theorems assume deterministic advection
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(5000.0, 6000.0)] + [(-1.0, 1.0)] * 3,
                             6, seed=2)
    model = boundary_layer(space)
    analysis = analyze_reaction(model, mesh, space)
    delta = resolve_delta("semi_implicit", mesh, model, analysis, 0.01)
    ws = prepare_workspace(model, mesh, space,
                           SchemeConfig(dt=0.01, delta=delta),
                           analysis=analysis)
    _, reports = run(random_state(mesh, space, rank=1, seed=3), ws, 0.05)
    stoch = check_moderate_stochasticity(model, analysis, space)
    for theorem in ("im_stab", "si_stab"):
        led = evaluate_bound(reports, theorem, "ii", analysis, delta,
                             0.01, 0.05, stoch_report=stoch)
        assert not led.applicable and "advection is random" in led.reason


def test_bound_zero_trajectory_trivially_passes():
    ws, analysis, delta, _, stoch = decay_run(T=0.02)
    zero = StepReport(t=0.0, l2=0.0, grad=0.0, supg=0.0, mu_half=0.0,
                      bconv=0.0, mode_norms=[], wtilde_cond=1.0,
                      defect_gram=0.0, defect_mean=0.0, defect_cross=0.0)
    reports = [zero, zero]
    led = evaluate_bound(reports, "im_stab", "ii", analysis, delta,
                         ws.cfg.dt, ws.cfg.dt)
    assert led.applicable and led.passed
    assert led.left == 0.0 and led.right == 0.0


def test_forcing_norms_constant_oracle():
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)], 3, seed=12)
    model = constant_adr(eps_value=0.1, f=2.0)
    ws = make_ws(mesh, space, model)
    fn = forcing_norms(ws, 0.0, 4)
    # |f|_L2 over the unit square with f = 2 is 2
    assert np.allclose(fn, 2.0, atol=1e-12)


def test_csv_round_trip(tmp_path):
    ws, analysis, delta, reports, stoch = decay_run(T=0.05)
    rpath = tmp_path / "norms.csv"
    write_reports_csv(reports, rpath)
    with open(rpath) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(StepReport.CSV_COLUMNS)
    assert len(rows) == len(reports) + 1
    assert float(rows[1][1]) == reports[0].l2

    led = evaluate_bound(reports, "si_stab", "ii", analysis, delta,
                         ws.cfg.dt, 0.05, stoch_report=stoch)
    lpath = tmp_path / "ledger.csv"
    write_ledgers_csv([led], lpath)
    with open(lpath) as fh:
        lrows = list(csv.reader(fh))
    assert len(lrows) == 2
    assert lrows[1][0] == "si_stab" and lrows[1][7] == "True"


def test_step_report_from_state():
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 8, seed=13)
    ws = make_ws(mesh, space, rotating_body())
    state = random_state(mesh, space, rank=2, seed=14)
    rep = step_report(state, ws)
    assert rep.l2 > 0
    assert len(rep.mode_norms) == 3          # mean mode + 2 modes
    assert rep.defect_gram <= 1e-12
