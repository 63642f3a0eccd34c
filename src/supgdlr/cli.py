"""Command line entry point.

Subcommands:

solve  --config FILE              run one configured simulation
preset NAME --scale SCALE --out D materialize an experiment preset
check  --suite NAME               run a built-in verification suite

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 diagnostic or bound failure.
"""

import argparse
import os
import sys

import numpy as np

from .errors import ConfigError, SupgDlrError
from . import runner
from .mesh import assemble_blocks, build_structured_mesh
from .sampling import make_monte_carlo
from .coefficients import (
    analyze_reaction, constant_adr, delta_experiment, rotating_body,
)
from .diagnostics import check_coercivity, evaluate_bounds
from .integrator import SchemeConfig, prepare_workspace, run, step
from .lowrank import init_from_modes
from .fom import FomState, fom_step


def _cmd_solve(args):
    cfg = runner.load_config(args.config)
    if args.out:
        cfg.out_dir = args.out
    status, manifest = runner.run_from_config(cfg)
    print(f"status={manifest['status']}")
    if status in (1, 2):
        label = ("configuration error", "numerical failure")[status - 1]
        print(f"{label}: {manifest['error']}", file=sys.stderr)
    return status


def _cmd_preset(args):
    if args.name == "rotating-body":
        cfg = runner.preset_rotating_body(args.scale)
    elif args.name == "boundary-layer":
        cfg = runner.preset_boundary_layer(args.scale)
    else:
        raise ConfigError(f"unknown preset {args.name!r}")
    cfg.out_dir = args.out
    runner.make_out_dir(args.out)
    runner.write_config(cfg, os.path.join(args.out, "config.ini"))
    for key, value in cfg.describe().items():
        print(f"{key}={value}")
    print(f"delta_K={runner.DELTA_POLICY_LABELS[cfg.delta_policy]}")
    print(f"config={os.path.join(args.out, 'config.ini')}")
    return 0


def _suite_coercivity():
    mesh = build_structured_mesh(16)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 50, seed=0)
    analysis = analyze_reaction(rotating_body(), mesh, space)
    delta = runner.resolve_delta("coercivity", mesh, analysis, dt=None)
    blocks = assemble_blocks(mesh, analysis.b_mean, analysis.c_mean, delta)
    report = check_coercivity(analysis, blocks, space, trials=100, seed=1)
    print(f"coercivity: worst margin {report.worst_margin:.3e}, "
          f"{report.violations}/{report.trials} violations")
    return 0 if report.ok else 3


def _decay_setup():
    mesh = build_structured_mesh(12)
    space = make_monte_carlo([(-1.0, 1.0)], 8, seed=2)
    model = constant_adr(eps_value=0.05, b=(1.0, 1.0), c=0.0)
    analysis = analyze_reaction(model, mesh, space)
    dt = 0.01
    delta = runner.resolve_delta("semi_implicit", mesh, analysis, dt)
    ws = prepare_workspace(model, mesh, space,
                           SchemeConfig(dt=dt, delta=delta),
                           analysis=analysis)

    rng = np.random.default_rng(3)
    x = mesh.vertices
    U0 = np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    interior = mesh.interior_index()
    U = np.zeros((mesh.n_vertices, 2))
    U[interior] = 0.1 * rng.standard_normal((len(interior), 2))
    Y = rng.standard_normal((space.count, 2))
    return ws, init_from_modes(U0, U, Y, space)


def _suite_bounds():
    status = 0
    ws, state = _decay_setup()
    _, reports = run(state, ws, 1.0)
    for led in evaluate_bounds(reports, ws, [("im_stab", "ii"),
                                             ("si_stab", "ii")]):
        verdict = "PASS" if led.applicable and led.passed else "FAIL"
        print(f"bounds[{led.theorem} case ii]: {verdict} "
              f"margin {led.margin:.3e} ({led.reason or 'applicable'})")
        if verdict == "FAIL":
            status = 3
    return status


def _suite_oracle():
    mesh = build_structured_mesh(3)
    space = make_monte_carlo([(-1.0, 1.0)] * 3, 4, seed=4)
    model = rotating_body()
    cfg = SchemeConfig(dt=1e-3, delta=delta_experiment(mesh))
    ws = prepare_workspace(model, mesh, space, cfg)
    rng = np.random.default_rng(5)
    interior = mesh.interior_index()
    U0 = np.zeros(mesh.n_vertices)
    U0[interior] = rng.standard_normal(len(interior))
    R = space.count - 1
    U = np.zeros((mesh.n_vertices, R))
    U[interior] = rng.standard_normal((len(interior), R))
    Y = rng.standard_normal((space.count, R))
    state = init_from_modes(U0, U, Y, space)
    fom = FomState(state.dense(), t=state.t)
    worst = 0.0
    for _ in range(5):
        state, _ = step(state, ws)
        fom = fom_step(fom, ws)
        worst = max(worst,
                    float(np.max(np.abs(state.dense() - fom.fields))))
    print(f"oracle: max low-rank vs full-order deviation {worst:.3e}")
    return 0 if worst <= 1e-8 else 3


def _cmd_check(args):
    suites = {"coercivity": _suite_coercivity, "bounds": _suite_bounds,
              "oracle": _suite_oracle}
    if args.suite not in suites:
        raise ConfigError(f"unknown suite {args.suite!r}")
    return suites[args.suite]()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="supgdlr",
        description="Stabilized dynamical low-rank solver for random "
                    "advection-diffusion-reaction problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a configured simulation")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None,
                         help="override the output directory")

    p_preset = sub.add_parser("preset",
                              help="materialize an experiment preset")
    p_preset.add_argument("name",
                          choices=["rotating-body", "boundary-layer"])
    p_preset.add_argument("--scale", choices=["paper", "desk"],
                          default="desk")
    p_preset.add_argument("--out", required=True)

    p_check = sub.add_parser("check", help="built-in verification suites")
    p_check.add_argument("--suite", required=True,
                         choices=["coercivity", "bounds", "oracle"])

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "preset":
            return _cmd_preset(args)
        return _cmd_check(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except SupgDlrError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
