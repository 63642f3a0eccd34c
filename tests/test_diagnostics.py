"""Norms, structural checkers, bound ledgers and CSV output."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from supgdlr import (
    QUAD_POINTS, ConfigError, analyze_reaction,
    assemble_blocks, boundary_layer, build_problem, build_structured_mesh,
    check_coercivity, check_tangent_residual, constant_adr,
    delta_experiment, evaluate_bounds, forcing_norms,
    init_from_modes, l2_norm, make_monte_carlo, md_metric,
    prepare_workspace, preset_boundary_layer, preset_rotating_body,
    rotating_body, run, step, step_report, tag_boundary_layer,
    write_ledgers_csv, write_reports_csv,
)
from supgdlr import mesh as mesh_module
from supgdlr.diagnostics import StepReport
from supgdlr.integrator import step_deterministic_modes, \
    step_stochastic_modes
from supgdlr.runner import resolve_delta

from conftest import sample_advection, two_mode_advection


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
    return prepare_workspace(model, mesh, space, dt, delta,
                             tangent_residual=tangent)


def test_l2_norm_matches_dense():
    mesh = build_structured_mesh(5)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 15, seed=0)
    blocks = assemble_blocks(mesh, np.zeros(mesh.quad_points.shape), None,
                             np.zeros(mesh.n_triangles))
    state = random_state(mesh, space, rank=3, seed=1)
    ws = make_ws(mesh, space, rotating_body())
    fast = step_report(state, ws).l2
    fields = state.dense()
    per = np.einsum("ki,ki->i", fields, blocks.mass @ fields)
    slow = np.sqrt(float(space.weights @ per))
    assert abs(fast - slow) <= 1e-12 * max(slow, 1.0)
    assert abs(l2_norm(fields, blocks.mass, space) - slow) \
        <= 1e-12 * max(slow, 1.0)


@pytest.mark.parametrize("case", ["constant_adr", "boundary_layer",
                                  "two_modes"])
def test_supg_norm_dense_oracle(case):
    mesh = build_structured_mesh(4)
    if case == "boundary_layer":
        space = make_monte_carlo([(5000.0, 6000.0)] + [(-1.0, 1.0)] * 3,
                                 6, seed=2)
        model = boundary_layer(space)
    elif case == "two_modes":
        space = make_monte_carlo([(-1.0, 1.0)] * 3, 6, seed=2)
        model = two_mode_advection(space)
    else:
        space = make_monte_carlo([(-1.0, 1.0)], 6, seed=2)
        model = constant_adr(eps_value=0.2, b=(1.0, -0.5), c=3.0)
    ws = make_ws(mesh, space, model)
    state = random_state(mesh, space, rank=2, seed=3)
    got = step_report(state, ws).supg

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
        bq = sample_advection(model, ws.xq_flat, space.samples[i]).reshape(
            *ws.pw.shape, 2)
        bg = np.einsum("eqd,ed->eq", bq, g)
        bsq = float(np.einsum("e,eq,eq->", ws.blocks.delta, ws.pw,
                              bg ** 2))
        vq = np.einsum("qa,ea->eq", QUAD_POINTS, tri)
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
    assert len(ws_rand.b_forms) == 2
    state = random_state(mesh, space, rank=2, seed=5)
    nd = vars(step_report(state, ws_det))
    nr = vars(step_report(state, ws_rand))
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
    delta = resolve_delta("coercivity", mesh, analysis, None)
    blocks = assemble_blocks(mesh, analysis.b_mean, analysis.c_mean, delta)
    report = check_coercivity(analysis, blocks, space, trials=50, seed=7)
    assert report.ok
    assert report.worst_margin > -1e-10


def test_coercivity_check_mu_path_matches_elementwise_oracle():
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(-1.0, 1.0)], 3, seed=15)
    model = constant_adr(eps_value=0.05, b=(1.0, 1.0), c=2.0)
    analysis = analyze_reaction(model, mesh, space)
    assert analysis.mu0 > 0          # the mu-weighted mass takes part
    dk = resolve_delta("coercivity", mesh, analysis, None)
    blocks = assemble_blocks(mesh, analysis.b_mean, analysis.c_mean, dk)
    trials, seed = 3, 16
    report = check_coercivity(analysis, blocks, space, trials=trials,
                              seed=seed)

    # the same draws, every term by an element-by-element edge-midpoint
    # rule, exact for the quadratic integrands of constant coefficients
    eps, w = model.eps(space.samples), space.weights
    interior = mesh.interior_index()
    lam = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        u = np.zeros((mesh.n_vertices, space.count))
        u[interior] = rng.standard_normal((len(interior), space.count))
        a_val = supgsq = l2sq = 0.0
        for e, tri in enumerate(mesh.triangles):
            area = mesh.signed_areas[e]
            x = lam @ mesh.vertices[tri]
            b, c, mu = model.b_mean(x), model.c_mean(x), analysis.mu(x)
            for i in range(space.count):
                grad = mesh.grads[e].T @ u[tri, i]
                uq = lam @ u[tri, i]
                bgu = b @ grad
                gradsq = area * float(grad @ grad)
                a_val += w[i] * (eps[i] * gradsq + area / 3.0 * np.sum(
                    (bgu + c * uq) * (uq + dk[e] * bgu)))
                supgsq += w[i] * (analysis.eps_hat * gradsq
                                  + area / 3.0 * np.sum(dk[e] * bgu ** 2
                                                        + mu * uq ** 2))
                l2sq += w[i] * area / 3.0 * np.sum(uq ** 2)
        slack = a_val - 0.5 * supgsq + analysis.nu * l2sq
        worst = min(worst, slack / max(abs(a_val), 0.5 * supgsq, 1.0))
    assert report.ok
    assert abs(report.worst_margin - worst) <= 1e-12


def test_coercivity_check_rejects_random_advection():
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(5000.0, 6000.0)] + [(-1.0, 1.0)] * 3,
                             5, seed=0)
    model = boundary_layer(space)
    analysis = analyze_reaction(model, mesh, space)
    blocks = assemble_blocks(mesh, analysis.b_mean, None,
                             np.zeros(mesh.n_triangles))
    with pytest.raises(ConfigError):
        check_coercivity(analysis, blocks, space, trials=1)


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


@pytest.mark.parametrize("preset", [preset_rotating_body,
                                    preset_boundary_layer])
def test_tangent_residual_on_desk_presets(preset):
    # the check needs no basis of the complement, so it runs at the
    # presets' 200 and 256 samples
    cfg = replace(preset("desk"), tangent_residual=True)
    ws, state = build_problem(cfg)[5:]
    for _ in range(3):
        state, report = step(state, ws)
        assert report.tangent_residual <= 1e-9


def decay_run(c=0.0, f=None, dt=0.01, T=0.5, eps=0.05, eps_fn=None):
    mesh = build_structured_mesh(8)
    space = make_monte_carlo([(-1.0, 1.0)], 4, seed=10)
    model = constant_adr(eps_value=eps, b=(1.0, 1.0), c=c, f=f,
                         eps_fn=eps_fn)
    analysis = analyze_reaction(model, mesh, space)
    delta = resolve_delta("semi_implicit", mesh, analysis, dt)
    ws = prepare_workspace(model, mesh, space, dt, delta, analysis=analysis)
    state = random_state(mesh, space, rank=1, seed=11)
    _, reports = run(state, ws, T)
    return ws, reports


def one_bound(reports, ws, theorem, case):
    [led] = evaluate_bounds(reports, ws, [(theorem, case)])
    return led


def test_bound_case_ii_passes():
    # one run, both theorems: with deterministic coefficients the step
    # is the implicit Euler step of im_stab as well
    ws, reports = decay_run()
    si, im = evaluate_bounds(reports, ws, [("si_stab", "ii"),
                                           ("im_stab", "ii")])
    assert si.applicable and si.passed
    assert si.constants["C1"] == 0.5
    assert si.constants["C2"] == 0.0
    assert "margin_proof" in si.constants
    assert si.constants["margin_proof"] >= 0.0
    assert im.applicable and im.passed
    assert im.constants["C1"] == 0.75


def test_bound_case_i_constants_and_pass():
    ws, reports = decay_run(c=2.0, f=1.0)
    led = one_bound(reports, ws, "im_stab", "i")
    assert led.applicable and led.passed
    dmax = float(np.max(ws.blocks.delta))
    assert abs(led.constants["C2"]
               - (2.0 / ws.analysis.mu0 + 4.0 * dmax)) <= 1e-13


def test_bound_case_iii_constants_and_pass():
    # C3 = exp((1 + 2 nu) T) with T the N dt the run stepped
    ws, reports = decay_run(c=0.0, f=1.0)
    led = one_bound(reports, ws, "im_stab", "iii")
    assert led.applicable and led.passed
    n_steps = len(reports) - 1
    assert n_steps == 50
    assert led.constants["C3"] == float(
        np.exp((1.0 + 2.0 * ws.analysis.nu) * (n_steps * ws.dt)))


def test_bound_case_ii_refuses_a_forced_run():
    # the forcing norms come from the run, so a forced run can never be
    # certified by the unforced case
    ws, reports = decay_run(c=0.0, f=1.0)
    for led in evaluate_bounds(reports, ws, [("im_stab", "ii"),
                                             ("si_stab", "ii")]):
        assert not led.applicable
        assert led.reason == "forcing is not zero"


def test_bounds_reject_reports_of_another_time_step():
    ws, _ = decay_run(dt=0.02)
    _, reports = decay_run(dt=0.01)
    with pytest.raises(ConfigError, match="dt"):
        evaluate_bounds(reports, ws, [("im_stab", "ii")])


def test_bounds_reject_unknown_theorem_or_case():
    ws, reports = decay_run(T=0.05)
    for bound in (("xx_stab", "ii"), ("im_stab", "iv")):
        with pytest.raises(ConfigError):
            evaluate_bounds(reports, ws, [bound])


def test_bound_case_gating():
    ws, reports = decay_run()
    # case i needs positive mu0
    led = one_bound(reports, ws, "si_stab", "i")
    assert not led.applicable and "mu0" in led.reason


def test_bound_refuses_a_run_with_oversized_delta():
    mesh = build_structured_mesh(8)
    space = make_monte_carlo([(-1.0, 1.0)], 4, seed=10)
    model = constant_adr(eps_value=0.05, b=(1.0, 1.0))
    big = np.full(mesh.n_triangles, 10.0)
    ws = prepare_workspace(model, mesh, space, 0.01, big)
    _, reports = run(random_state(mesh, space, rank=1, seed=11), ws, 0.05)
    for led in evaluate_bounds(reports, ws, [("im_stab", "ii"),
                                             ("si_stab", "ii")]):
        assert not led.applicable and "delta_K exceeds" in led.reason


def experiment_policy_run(eps):
    # the h_K/4 policy at a dt with h_K/4 below dt/4
    mesh = build_structured_mesh(8)
    space = make_monte_carlo([(-1.0, 1.0)], 4, seed=10)
    model = constant_adr(eps_value=eps, b=(1.0, 1.0))
    ws = prepare_workspace(model, mesh, space, 0.2, delta_experiment(mesh))
    _, reports = run(random_state(mesh, space, rank=1, seed=11), ws, 0.4)
    return ws, reports


def test_bound_checks_the_diffusion_constraint_on_delta():
    # h_K/4 is below dt/4 but far above the semi-implicit diffusion
    # constraint h_K^2 / (16 d C_I^2 C_E^2 eps_hat) at eps = 1
    ws, reports = experiment_policy_run(eps=1.0)
    for led in evaluate_bounds(reports, ws, [("im_stab", "ii"),
                                             ("si_stab", "ii")]):
        assert not led.applicable and "diffusion" in led.reason


def test_inverse_constant_is_computed_once_per_mesh(monkeypatch):
    # two ledgers of one run and a bound delta policy on its mesh share
    # one eigensolve; a retagged mesh has the same interior, so the same C_I
    calls = []
    eigsh = mesh_module.spla.eigsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(mesh_module.spla, "eigsh", counted)
    ws, reports = experiment_policy_run(eps=1e-6)
    assert not calls                     # the h_K/4 policy reads no C_I
    bounds = [("im_stab", "ii"), ("si_stab", "ii")]
    first = evaluate_bounds(reports, ws, bounds)
    second = evaluate_bounds(reports, ws, bounds)
    resolve_delta("coercivity", ws.mesh, ws.analysis, None)
    assert len(calls) == 1
    assert all(led.applicable and led.passed for led in first)
    assert [led.csv_row() for led in first] \
        == [led.csv_row() for led in second]

    assert tag_boundary_layer(ws.mesh).inverse_constant \
        == ws.mesh.inverse_constant
    assert len(calls) == 1
    fresh = build_structured_mesh(8)
    assert tag_boundary_layer(fresh).inverse_constant \
        == ws.mesh.inverse_constant
    assert len(calls) == 2


def test_bound_refuses_random_coefficients():
    # im_stab assumes deterministic diffusion: random diffusion under the
    # semi-implicit delta policy must not be certified by it
    ws, reports = decay_run(
        eps_fn=lambda s: 10.0 ** (np.atleast_2d(s)[:, 0] / 2.0 - 1.5))
    assert ws.analysis.eps_star_sup > ws.analysis.eps_hat
    led = one_bound(reports, ws, "im_stab", "ii")
    assert not led.applicable and "diffusion is random" in led.reason

    # both theorems assume deterministic advection
    mesh = build_structured_mesh(4)
    space = make_monte_carlo([(5000.0, 6000.0)] + [(-1.0, 1.0)] * 3,
                             6, seed=2)
    model = boundary_layer(space)
    analysis = analyze_reaction(model, mesh, space)
    delta = resolve_delta("semi_implicit", mesh, analysis, 0.01)
    ws = prepare_workspace(model, mesh, space, 0.01, delta,
                           analysis=analysis)
    _, reports = run(random_state(mesh, space, rank=1, seed=3), ws, 0.05)
    for led in evaluate_bounds(reports, ws, [("im_stab", "ii"),
                                             ("si_stab", "ii")]):
        assert not led.applicable and "advection is random" in led.reason


def test_bound_zero_trajectory_trivially_passes():
    ws, _ = decay_run(T=0.02)
    zero = StepReport(t=0.0, l2=0.0, grad=0.0, supg=0.0, mu_half=0.0,
                      bconv=0.0, wtilde_cond=1.0,
                      defect_gram=0.0, defect_mean=0.0, defect_cross=0.0)
    reports = [zero, replace(zero, t=ws.dt)]
    led = one_bound(reports, ws, "im_stab", "ii")
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
    ws, reports = decay_run(T=0.05)
    rpath = tmp_path / "norms.csv"
    write_reports_csv(reports, rpath)
    with open(rpath) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(StepReport.CSV_COLUMNS)
    assert len(rows) == len(reports) + 1
    assert float(rows[1][1]) == reports[0].l2

    led = one_bound(reports, ws, "si_stab", "ii")
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
    assert rep.defect_gram <= 1e-12
