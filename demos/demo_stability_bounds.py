"""Discrete norm-stability bounds, checked on an actual trajectory.

For the stabilized low-rank scheme, unconditional (implicit) and
conditional (semi-implicit) energy estimates bound the weighted L2 norm
of the solution at the final time by the initial data and the forcing,
provided the per-element stabilization parameter stays below an
explicit threshold.  evaluate_bound turns each estimate into a ledger
row: is the estimate applicable here (preconditions on delta_K, the
reaction coefficient, the time step, the stochastic fluctuations), and
if so, does the computed trajectory satisfy it and with what margin.

The demo runs a small advection-diffusion-reaction problem with random
initial data under both time discretizations and prints the ledger for
every (theorem, case) combination:

  case i    coercive reaction (mu0 > 0), forcing allowed
  case ii   no forcing, any admissible reaction
  case iii  forcing without coercivity, exponential-in-T constant

It then repeats one semi-implicit evaluation with strongly random
diffusion to show the moderate-stochasticity gate refusing to certify
instead of silently passing.
"""

import numpy as np

from supgdlr import (
    SchemeConfig, analyze_reaction, build_structured_mesh,
    check_moderate_stochasticity, constant_adr, evaluate_bound,
    forcing_norms, init_from_modes, make_monte_carlo, prepare_workspace,
    run,
)
from supgdlr.runner import resolve_delta

DT, T = 0.01, 0.5


def random_state(mesh, space, rank, seed):
    rng = np.random.default_rng(seed)
    interior = mesh.interior_index()
    U0 = np.zeros(mesh.n_vertices)
    U0[interior] = rng.standard_normal(len(interior))
    U = np.zeros((mesh.n_vertices, rank))
    U[interior] = rng.standard_normal((len(interior), rank))
    Y = rng.standard_normal((space.count, rank))
    return init_from_modes(U0, U, Y, space)


def trajectory(scheme, c=0.0, f=None, eps_fn=None):
    mesh = build_structured_mesh(8)
    space = make_monte_carlo([(-1.0, 1.0)], 4, seed=10)
    model = constant_adr(eps_value=0.05, b=(1.0, 1.0), c=c, f=f,
                         eps_fn=eps_fn)
    analysis = analyze_reaction(model, mesh, space)
    delta = resolve_delta("semi_implicit", mesh, model, analysis, DT)
    cfg = SchemeConfig(dt=DT, scheme=scheme, stabilization="supg",
                       delta=delta)
    ws = prepare_workspace(model, mesh, space, cfg, analysis=analysis)
    state = random_state(mesh, space, rank=1, seed=11)
    _, reports = run(state, ws, T)
    stoch = check_moderate_stochasticity(model, analysis, space)
    return ws, analysis, delta, reports, stoch


def show(led):
    if not led.applicable:
        print(f"  {led.theorem:>7} case {led.case}: not applicable "
              f"({led.reason})")
    else:
        tag = "PASS" if led.passed else "FAIL"
        print(f"  {led.theorem:>7} case {led.case}: {tag}  "
              f"left {led.left:.4f} <= right {led.right:.4f}  "
              f"margin {led.margin:.4f}")


def main():
    # (scheme, theorem, reaction, forcing) per case
    setups = {
        "i": dict(c=2.0, f=1.0),    # coercive reaction with forcing
        "ii": dict(c=0.0, f=None),  # decay, no forcing
        "iii": dict(c=0.0, f=1.0),  # forcing, no coercivity
    }
    for scheme, theorem in (("implicit_euler_deterministic", "im_stab"),
                            ("semi_implicit", "si_stab")):
        print(f"{scheme}:")
        for case, kw in setups.items():
            ws, analysis, delta, reports, stoch = trajectory(scheme, **kw)
            fn = forcing_norms(ws, 0.0, len(reports) - 1)
            led = evaluate_bound(reports, theorem, case, analysis, delta,
                                 DT, T, f_norms=fn, stoch_report=stoch)
            show(led)
        print()

    print("strongly random diffusion, eps = 0.05 (1 + 0.5 y):")
    ws, analysis, delta, reports, stoch = trajectory(
        "semi_implicit",
        eps_fn=lambda samples: 0.05 * (1.0 + 0.5 * samples[:, 0]))
    led = evaluate_bound(reports, "si_stab", "ii", analysis, delta,
                         DT, T, stoch_report=stoch)
    show(led)
    print("  (the fluctuation gate refuses to certify rather than "
          "passing silently)")


if __name__ == "__main__":
    main()
