"""Discrete norm-stability bounds, checked on an actual trajectory.

For the stabilized low-rank scheme, unconditional (implicit) and
conditional (semi-implicit) energy estimates bound the weighted L2 norm
of the solution at the final time by the initial data and the forcing,
provided the per-element stabilization parameter stays below an
explicit threshold.  evaluate_bounds turns each estimate into a ledger
row: is the estimate applicable here (preconditions on delta_K, the
reaction coefficient, the time step, the stochastic fluctuations), and
if so, does the computed trajectory satisfy it and with what margin.
It reads every fact it needs from the run's workspace and reports:
delta_K and its inverse constant, dt, the final time, the forcing
norms and the moderate-stochasticity report.

The demo runs a small advection-diffusion-reaction problem with random
initial data once per case and prints the ledger of both theorems for
every (theorem, case) combination.  The coefficients are deterministic,
so the semi-implicit step is the implicit Euler step of the paper and
one trajectory serves both theorems:

  case i    coercive reaction (mu0 > 0), forcing allowed
  case ii   no forcing, any admissible reaction
  case iii  forcing without coercivity, exponential-in-T constant

It then repeats one semi-implicit evaluation with strongly random
diffusion to show the moderate-stochasticity gate refusing to certify
instead of silently passing.
"""

import numpy as np

from supgdlr import (
    analyze_reaction, build_structured_mesh, constant_adr, evaluate_bounds,
    init_from_modes, make_monte_carlo, prepare_workspace, run,
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


def trajectory(c=0.0, f=None, eps_fn=None):
    mesh = build_structured_mesh(8)
    space = make_monte_carlo([(-1.0, 1.0)], 4, seed=10)
    model = constant_adr(eps_value=0.05, b=(1.0, 1.0), c=c, f=f,
                         eps_fn=eps_fn)
    analysis = analyze_reaction(model, mesh, space)
    delta = resolve_delta("semi_implicit", mesh, analysis, DT)
    ws = prepare_workspace(model, mesh, space, DT, delta, analysis=analysis)
    state = random_state(mesh, space, rank=1, seed=11)
    _, reports = run(state, ws, T)
    return ws, reports


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
    # (reaction, forcing) per case
    setups = {
        "i": dict(c=2.0, f=1.0),    # coercive reaction with forcing
        "ii": dict(c=0.0, f=None),  # decay, no forcing
        "iii": dict(c=0.0, f=1.0),  # forcing, no coercivity
    }
    ledgers = {}
    for case, kw in setups.items():
        ws, reports = trajectory(**kw)
        for led in evaluate_bounds(reports, ws, [("im_stab", case),
                                                 ("si_stab", case)]):
            ledgers[led.theorem, case] = led
    # each theorem under the name of the paper's scheme it is stated for
    for label, theorem in (("implicit_euler_deterministic", "im_stab"),
                           ("semi_implicit", "si_stab")):
        print(f"{label}:")
        for case in setups:
            show(ledgers[theorem, case])
        print()

    print("strongly random diffusion, eps = 0.05 (1 + 0.5 y):")
    ws, reports = trajectory(
        eps_fn=lambda samples: 0.05 * (1.0 + 0.5 * samples[:, 0]))
    [led] = evaluate_bounds(reports, ws, [("si_stab", "ii")])
    show(led)
    print("  (the fluctuation gate refuses to certify rather than "
          "passing silently)")


if __name__ == "__main__":
    main()
