"""Rotating-body transport with random diffusion, rank 2.

Three shapes (a slotted cylinder, a cosine hump and a cone) are carried
around the unit square by a solid-body rotation field.  Diffusion is
random and tiny, eps = 10^(y1 - 16), so each realization is essentially
pure transport and the standard Galerkin discretization oscillates.
The demo runs the low-rank solver twice, with and without streamline
stabilization, and compares

  * orthonormality defects of the stochastic basis over the run,
  * the range excess of a few tracked realizations: how far each rises
    above the max of its initial field plus how far it drops below the
    min.  Pure transport cannot leave the initial range, so any excess
    is spurious oscillation; this is what acceptance criterion 8 checks,
    with the max over the run,
  * the change of their max-minus-min spread, for information: it also
    counts peak loss, which streamline diffusion adds to, so it does not
    tell the two methods apart,
  * the local Peclet numbers that flag the advection-dominated regime.

Runtime is about ten seconds at desk scale.  Pass --scale paper for the
full-size configuration (fine mesh, 7000 samples, hours of compute).
"""

import argparse
import time

import numpy as np

from supgdlr import (
    build_problem, evaluate_realization, local_peclet, md_metric,
    preset_rotating_body, range_excess, run,
)

TRACKED = (0, 1, 2, 3, 4)


def run_variant(scale, delta_policy, seed):
    cfg = preset_rotating_body(scale=scale, seed=seed)
    cfg.delta_policy = delta_policy
    *_, ws, state = build_problem(cfg)

    fields = {i: evaluate_realization(state, i) for i in TRACKED}
    lo = {i: fields[i].min() for i in TRACKED}
    hi = {i: fields[i].max() for i in TRACKED}
    md0 = {i: md_metric(fields[i]) for i in TRACKED}
    trace = {i: [] for i in TRACKED}
    excess = {i: [] for i in TRACKED}

    def observer(st, report):
        for i in TRACKED:
            u = evaluate_realization(st, i)
            trace[i].append(md_metric(u))
            excess[i].append(range_excess(u, lo[i], hi[i]))

    t0 = time.perf_counter()
    final, reports = run(state, ws, cfg.T, callbacks=(observer,))
    wall = time.perf_counter() - t0
    return cfg, ws, final, reports, md0, trace, excess, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="desk",
                        choices=("desk", "paper"))
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args()

    results = {}
    for policy in ("experiment", "none"):
        (cfg, ws, final, reports,
         md0, trace, excess, wall) = run_variant(args.scale, policy,
                                                 args.seed)
        results[policy] = (md0, trace, excess)
        label = "standard" if policy == "none" else "stabilized"
        print(f"{label:>10}: N_h={cfg.n_dof}, N_C={ws.space.count}, "
              f"rank={final.rank}, {len(reports) - 1} steps, "
              f"{wall:.1f} s")
        print(f"{'':>10}  final L2 norm {reports[-1].l2:.6f}, "
              f"worst Gram defect "
              f"{max(r.defect_gram for r in reports):.2e}, "
              f"worst mean defect "
              f"{max(r.defect_mean for r in reports):.2e}")

    pec = local_peclet(ws.mesh, ws.analysis)
    print(f"\nlocal Peclet: max {pec:.3e}, "
          f"advection dominated: {pec > 1.0}")

    _, _, xs = results["experiment"]
    _, _, xn = results["none"]
    print("\nrange excess of tracked realizations, above the initial max "
          "plus\nbelow the initial min:")
    print(f"{'sample':>6} {'stab final':>11} {'stab max':>9} "
          f"{'std final':>10} {'std max':>8}")
    wins = 0
    for i in TRACKED:
        wins += max(xs[i]) <= max(xn[i]) + 1e-12
        print(f"{i:>6} {xs[i][-1]:>11.4f} {max(xs[i]):>9.4f} "
              f"{xn[i][-1]:>10.4f} {max(xn[i]):>8.4f}")
    print(f"stabilized at or below standard in max excess for "
          f"{wins}/{len(TRACKED)} realizations")

    print("\nspread of tracked realizations, |MD(t) - MD(0)|, for "
          "information:")
    print(f"{'sample':>6} {'MD(0)':>8} "
          f"{'stab final':>11} {'stab max':>9} "
          f"{'std final':>10} {'std max':>8}")
    for i in TRACKED:
        md0s, ts, _ = results["experiment"]
        md0n, tn, _ = results["none"]
        dev_s = np.abs(np.array(ts[i]) - md0s[i])
        dev_n = np.abs(np.array(tn[i]) - md0n[i])
        print(f"{i:>6} {md0s[i]:>8.4f} "
              f"{dev_s[-1]:>11.4f} {dev_s.max():>9.4f} "
              f"{dev_n[-1]:>10.4f} {dev_n.max():>8.4f}")
    print("\nThe standard run overshoots the initial range by more than "
          "the stabilized\none (compare the excess columns).  Both lose "
          "peak height, the stabilized\nrun a little more through "
          "streamline smearing at coarse h, so the spread\ncolumns mix "
          "that loss with oscillation and do not separate the methods.")


if __name__ == "__main__":
    main()
