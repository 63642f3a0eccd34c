"""End-to-end acceptance suite.

Each test prints one pass/fail line for its criterion.  Tolerances and
scales are fixed; runtimes stay within the stated budgets on a laptop.
"""

import time

import numpy as np
import pytest

from supgdlr import (
    DlrState, FomState, RunConfig, analyze_reaction,
    assemble_blocks, build_problem, build_structured_mesh, check_coercivity,
    check_moderate_stochasticity, constant_adr, delta_experiment,
    evaluate_bounds, evaluate_realization, fom_step,
    init_from_modes, local_peclet, make_monte_carlo, md_metric,
    prepare_workspace, preset_boundary_layer, preset_rotating_body,
    rotating_body, run, step,
)
from supgdlr.runner import resolve_delta


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def random_state(mesh, space, rank, seed):
    rng = np.random.default_rng(seed)
    interior = mesh.interior_index()
    U0 = np.zeros(mesh.n_vertices)
    U0[interior] = rng.standard_normal(len(interior))
    U = np.zeros((mesh.n_vertices, rank))
    U[interior] = rng.standard_normal((len(interior), rank))
    Y = rng.standard_normal((space.count, rank))
    return init_from_modes(U0, U, Y, space)


def test_criterion_1_orthogonality_invariants():
    t0 = time.time()
    cfg = preset_rotating_body("desk")
    cfg.T = 100 * cfg.dt
    _, space, _, _, _, ws, state = build_problem(cfg)
    worst_gram = worst_mean = worst_cross = 0.0
    for _ in range(100):
        state, rep = step(state, ws)
        worst_gram = max(worst_gram, rep.defect_gram)
        worst_mean = max(worst_mean, rep.defect_mean)
        worst_cross = max(worst_cross, rep.defect_cross)
    elapsed = time.time() - t0
    ok = (worst_gram <= 1e-10 and worst_mean <= 1e-10
          and worst_cross <= 1e-11 and elapsed < 60.0)
    verdict(1, ok, f"gram {worst_gram:.2e}, mean {worst_mean:.2e}, "
                   f"cross {worst_cross:.2e}, {elapsed:.1f}s")


@pytest.mark.parametrize("stabilization", ["supg", "none"])
def test_criterion_2_tangent_residual(stabilization):
    t0 = time.time()
    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 6, seed=20)
    delta = delta_experiment(mesh) if stabilization == "supg" \
        else np.zeros(mesh.n_triangles)
    ws = prepare_workspace(rotating_body(), mesh, space, 1e-3, delta,
                           tangent_residual=True)
    state = random_state(mesh, space, rank=2, seed=21)
    worst = 0.0
    for _ in range(20):
        state, rep = step(state, ws)
        worst = max(worst, rep.tangent_residual)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    verdict(2, ok, f"{stabilization}: residual {worst:.2e}, "
                   f"{elapsed:.1f}s")


@pytest.mark.parametrize("stabilization", ["supg", "none"])
def test_criterion_3_full_rank_oracle(stabilization):
    t0 = time.time()
    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 4, seed=22)
    delta = delta_experiment(mesh) if stabilization == "supg" \
        else np.zeros(mesh.n_triangles)
    ws = prepare_workspace(rotating_body(), mesh, space, 1e-3, delta)
    state = random_state(mesh, space, rank=space.count - 1, seed=23)
    fom = FomState(state.dense(), t=0.0)
    worst = 0.0
    for _ in range(10):
        state, _ = step(state, ws)
        fom = fom_step(fom, ws)
        worst = max(worst,
                    float(np.max(np.abs(state.dense() - fom.fields))))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    verdict(3, ok, f"{stabilization}: deviation {worst:.2e}, "
                   f"{elapsed:.1f}s")


def test_criterion_4_coercivity():
    t0 = time.time()
    cfg = preset_rotating_body("desk")
    mesh = build_structured_mesh(cfg.n_per_side)
    space = make_monte_carlo(cfg.sampler["intervals"],
                             cfg.sampler["count"], cfg.sampler["seed"])
    model = rotating_body()
    analysis = analyze_reaction(model, mesh, space)
    delta = resolve_delta("coercivity", mesh, analysis, cfg.dt)
    blocks = assemble_blocks(mesh, analysis.b_mean, analysis.c_mean, delta)
    report = check_coercivity(analysis, blocks, space, trials=500, seed=24)
    elapsed = time.time() - t0
    ok = report.ok and elapsed < 30.0
    verdict(4, ok, f"{report.violations}/{report.trials} violations, "
                   f"worst margin {report.worst_margin:.2e}, "
                   f"{elapsed:.1f}s")


def decay_problem(c=0.0, f=None, dt=0.005, seed=25):
    mesh = build_structured_mesh(12)
    space = make_monte_carlo([(-1.0, 1.0)], 8, seed=seed)
    model = constant_adr(eps_value=0.05, b=(1.0, 1.0), c=c, f=f)
    analysis = analyze_reaction(model, mesh, space)
    delta = resolve_delta("semi_implicit", mesh, analysis, dt)
    ws = prepare_workspace(model, mesh, space, dt, delta, analysis=analysis)
    state = random_state(mesh, space, rank=2, seed=seed + 1)
    return mesh, space, model, analysis, delta, ws, state


def test_criterion_5_decay_case_ii():
    t0 = time.time()
    mesh, space, model, analysis, delta, ws, state = decay_problem()
    _, reports = run(state, ws, 200 * ws.dt)
    l2s = np.array([r.l2 for r in reports])
    monotone = bool(np.all(np.diff(l2s) <= 1e-12 * l2s[0]))
    details = [f"monotone={monotone}"]
    ok = monotone
    for led in evaluate_bounds(reports, ws, [("im_stab", "ii"),
                                             ("si_stab", "ii")]):
        ok = ok and led.applicable and led.passed
        details.append(f"{led.theorem} ledger margin {led.margin:.2e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    verdict(5, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_6_forced_cases_i_and_iii():
    t0 = time.time()
    # case (i): constant reaction, mu0 = 1 > 0, nonzero forcing
    mesh, space, model, analysis, delta, ws, state = decay_problem(
        c=2.0, f=1.0)
    _, reports = run(state, ws, 100 * ws.dt)
    [led_i] = evaluate_bounds(reports, ws, [("im_stab", "i")])
    want_C2 = 2.0 / analysis.mu0 + 4.0 * float(np.max(delta))
    const_ok = abs(led_i.constants.get("C2", np.nan) - want_C2) <= 1e-13

    # case (iii): mu0 = 0, nonzero forcing, dt below the Gronwall limit
    mesh, space, model, analysis, delta, ws, state = decay_problem(
        c=0.0, f=1.0)
    assert ws.dt < 1.0 / (1.0 + 2.0 * analysis.nu)
    _, reports = run(state, ws, 100 * ws.dt)
    [led_iii] = evaluate_bounds(reports, ws, [("im_stab", "iii")])
    want_C3 = float(np.exp((1.0 + 2.0 * analysis.nu) * 100 * ws.dt))
    const3_ok = abs(led_iii.constants.get("C3", np.nan)
                    - want_C3) <= 1e-12 * want_C3

    elapsed = time.time() - t0
    ok = (led_i.applicable and led_i.passed and const_ok
          and led_iii.applicable and led_iii.passed and const3_ok
          and elapsed < 120.0)
    verdict(6, ok, f"(i) margin {led_i.margin:.2e} C2 ok={const_ok}; "
                   f"(iii) margin {led_iii.margin:.2e} "
                   f"C3 ok={const3_ok}, {elapsed:.1f}s")


def test_criterion_7_moderate_stochasticity_gate():
    mesh = build_structured_mesh(8)
    space = make_monte_carlo([(-1.0, 1.0)], 16, seed=26)
    details = []
    outcomes = []
    for amp, expect_ok in ((0.5, False), (0.01, True)):
        def eps(s, _a=amp):
            return 1.0 + _a * np.atleast_2d(s)[:, 0]

        model = constant_adr(eps_fn=eps, b=(1.0, 0.0))
        analysis = analyze_reaction(model, mesh, space)
        delta = resolve_delta("semi_implicit", mesh, analysis, 0.01)
        ws = prepare_workspace(model, mesh, space, 0.01, delta,
                               analysis=analysis)
        state = random_state(mesh, space, rank=1, seed=27)
        _, reports = run(state, ws, 0.05)
        eps_margin = check_moderate_stochasticity(analysis)
        [led] = evaluate_bounds(reports, ws, [("si_stab", "ii")])
        outcomes.append(led.applicable == expect_ok
                        and (eps_margin >= 0) == expect_ok
                        and (led.passed if expect_ok
                             else "stochasticity" in led.reason))
        details.append(f"amp {amp}: applicable={led.applicable}")
    verdict(7, all(outcomes), "; ".join(details))


def test_criterion_8_stabilization_effect():
    """SUPG suppresses spurious oscillation of the rotating body.

    Diffusion is at most 1e-15, there is no reaction or source and the
    boundary values are zero, so each realization is pure transport and
    cannot leave the range of its initial field.  The oscillation measure is therefore the range
    excess, max over the run of how far a tracked realization rises
    above its initial max plus how far it drops below its initial min.
    The change of the max-minus-min spread is printed for information
    only: it also counts peak loss, which streamline diffusion adds to,
    so it does not tell the two methods apart.
    """
    t0 = time.time()
    tracked = (0, 1, 2, 3, 4)
    excess = {}
    spread_dev = {}
    for stabilization in ("supg", "none"):
        cfg = preset_rotating_body("desk")
        cfg.stabilization = stabilization
        *_, ws, state = build_problem(cfg)
        fields = [evaluate_realization(state, i) for i in tracked]
        lo = np.array([f.min() for f in fields])
        hi = np.array([f.max() for f in fields])
        worst = np.zeros(len(tracked))

        def track_excess(st, report):
            for k, i in enumerate(tracked):
                u = evaluate_realization(st, i)
                worst[k] = max(worst[k], max(0.0, u.max() - hi[k])
                               + max(0.0, lo[k] - u.min()))

        final, _ = run(state, ws, cfg.T, callbacks=(track_excess,))
        excess[stabilization] = worst
        spread_dev[stabilization] = np.array([
            md_metric(evaluate_realization(final, i)) - (hi[k] - lo[k])
            for k, i in enumerate(tracked)])
    wins = int(np.sum(excess["supg"] <= excess["none"] + 1e-12))
    total_supg = float(excess["supg"].sum())
    total_none = float(excess["none"].sum())
    cfg = preset_rotating_body("desk")
    mesh = build_structured_mesh(cfg.n_per_side)
    space = make_monte_carlo(cfg.sampler["intervals"],
                             cfg.sampler["count"], cfg.sampler["seed"])
    model = rotating_body()
    pec = local_peclet(mesh, analyze_reaction(model, mesh, space))
    elapsed = time.time() - t0
    ok = (wins / len(tracked) >= 0.9 and total_supg < total_none
          and pec > 1.0 and elapsed < 180.0)

    def fmt(values):
        return "/".join(f"{v:.3f}" for v in values)

    verdict(8, ok, f"SUPG at-or-below standard in range excess for "
                   f"{wins}/{len(tracked)} tracked realizations "
                   f"(SUPG {fmt(excess['supg'])}, sum {total_supg:.3f}; "
                   f"standard {fmt(excess['none'])}, sum "
                   f"{total_none:.3f}); final spread change, for "
                   f"information: SUPG {fmt(spread_dev['supg'])}, "
                   f"standard {fmt(spread_dev['none'])}; peclet flag "
                   f"{pec > 1.0}, {elapsed:.1f}s")


def test_criterion_9_paper_parameter_fidelity():
    rb = preset_rotating_body("paper")
    bl = preset_boundary_layer("paper")
    checks = {
        "rb N_h": rb.n_dof == 16641,
        "rb N_C": rb.n_samples == 7000,
        "rb dt": rb.dt == 2.0 * np.pi / 70000.0,
        "rb T": rb.T == 2.0 * np.pi,
        "rb R": rb.rank == 2,
        "rb delta": rb.delta_policy == "experiment",
        "bl N_h": bl.n_dof == 2601,
        "bl N_C": bl.n_samples == 10 ** 4,
        "bl T": bl.T == 1.2,
        "bl dt": bl.dt == 1.2 / 50.0,
        "bl R": bl.rank == 34,
    }
    # the h_K/4 policy resolves to exactly h_K/4 on the paper mesh
    mesh = build_structured_mesh(rb.n_per_side)
    d = delta_experiment(mesh)
    checks["rb delta values"] = bool(np.all(d == mesh.h_K / 4.0))
    bad = [k for k, v in checks.items() if not v]
    verdict(9, not bad, "all paper parameters echoed" if not bad
            else f"mismatched: {bad}")


def plain_do_step(state, ws, model, mesh, space, dt):
    """Independently coded dense standard-DO semi-implicit step.

    Mean coefficients implicit, diffusion fluctuation explicit, no
    streamline skew anywhere.  Returns the dense field after one step.
    """
    # independent dense assembly with a degree-5 quadrature rule
    a1, b1 = 0.059715871789770, 0.470142064105115
    a2, b2 = 0.797426985353087, 0.101286507323456
    bary = np.array([
        (1 / 3, 1 / 3, 1 / 3),
        (a1, b1, b1), (b1, a1, b1), (b1, b1, a1),
        (a2, b2, b2), (b2, a2, b2), (b2, b2, a2),
    ])
    wts = np.array([9.0 / 80.0] + [0.066197076394253] * 3
                   + [0.062969590272414] * 3)
    n = mesh.n_vertices
    M = np.zeros((n, n))
    A = np.zeros((n, n))
    C = np.zeros((n, n))
    for e, tri in enumerate(mesh.triangles):
        pts = mesh.vertices[tri]
        area = mesh.signed_areas[e]
        g = mesh.grads[e]
        for ia, va in enumerate(tri):
            for ib, vb in enumerate(tri):
                A[va, vb] += area * float(g[ia] @ g[ib])
        for lam, wt in zip(bary, wts):
            x = (lam[:, None] * pts).sum(axis=0)
            bv = model.b_mean(x[None, :])[0]
            bg = g @ bv
            wq = 2.0 * area * wt
            for ia, va in enumerate(tri):
                for ib, vb in enumerate(tri):
                    M[va, vb] += wq * lam[ia] * lam[ib]
                    C[va, vb] += wq * lam[ia] * bg[ib]

    w = space.weights
    eps = model.eps(space.samples)
    eps_bar = float(w @ eps)
    eps_star = eps - eps_bar
    B = M / dt + eps_bar * A + C

    Y_full = np.column_stack([np.ones(space.count), state.Y])
    U_full = np.column_stack([state.U0, state.U])
    Emat = Y_full.T @ ((w * eps_star)[:, None] * Y_full)
    rhs = M @ U_full / dt - A @ (U_full @ Emat)

    interior = mesh.interior_index()
    ii = np.ix_(interior, interior)
    U_tilde = np.zeros_like(U_full)
    U_tilde[interior] = np.linalg.solve(B[ii], rhs[interior])

    Um = U_tilde[:, 1:]
    What = Um.T @ B @ Um
    G = Um.T @ (A @ U_full)
    rhs_y = -eps_star[:, None] * (Y_full @ G.T)
    # orthogonal-complement projection against {1, Y columns}
    rhs_y -= np.outer(np.ones(space.count), w @ rhs_y)
    coeff = (state.Y * w[:, None]).T @ rhs_y
    rhs_y -= state.Y @ coeff
    dY = np.linalg.solve(What, rhs_y.T).T
    Y_tilde = state.Y + dY
    return U_tilde[:, 0][:, None] + Um @ Y_tilde.T


def test_criterion_10_reduction_to_standard_do():
    mesh = build_structured_mesh(2)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 3, seed=28)
    model = rotating_body()
    dt = 1e-3
    ws = prepare_workspace(model, mesh, space, dt,
                           np.zeros(mesh.n_triangles))
    state = random_state(mesh, space, rank=1, seed=29)

    reference = plain_do_step(state, ws, model, mesh, space, dt)
    new_state, _ = step(state, ws)
    dev = float(np.max(np.abs(new_state.dense() - reference)))
    verdict(10, dev <= 1e-12, f"deviation {dev:.2e}")
