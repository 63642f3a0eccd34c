"""The benchmark's workloads: configs, one solve each, output checks.

A solve is the work `supgdlr solve` does for the workload's config,
in process: `run_from_config` from building the problem to the last
output file, or `build_problem` plus `fom_run` for the full-order
oracle.  Setup time and step boundaries come from a wrapper around
`runner.build_problem` and one `run`/`fom_run` callback.
"""

import contextlib
import csv
import math
import resource
import time
from dataclasses import dataclass

from supgdlr import fom, runner
from supgdlr.errors import SupgDlrError

from spans import patched

REL_TOL = 1e-12              # final norms against the reference
DEFECT_TOL = 1e-10           # orthonormality and mean defects of Y
ROTATING_BODY_STEPS = 100    # fixed slice of the 70000-step paper run


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "lowrank" (run_from_config) or "fom"
    config: object            # seed -> RunConfig
    seeded: bool              # whether the seed changes the inputs


def _rotating_body(seed):
    cfg = runner.preset_rotating_body("paper", seed=seed)
    cfg.T = ROTATING_BODY_STEPS * cfg.dt
    return cfg


def _boundary_layer(seed):
    return runner.preset_boundary_layer("desk")


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "rotating_body": Workload("rotating_body", "lowrank", _rotating_body,
                              seeded=True),
    "boundary_layer": Workload("boundary_layer", "lowrank", _boundary_layer,
                               seeded=False),
    "fom_boundary_layer": Workload("fom_boundary_layer", "fom",
                                   _boundary_layer, seeded=False),
}


@dataclass
class SolveResult:
    solve_s: float
    setup_s: float
    step_s: list              # wall time of each step
    final: dict               # final norms and defects read back
    error: str = None         # typed error or failed output check
    output: bytes = b""       # norms.csv bytes, or the FOM norm list


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def _clocked(record):
    """Time `runner.build_problem` and stamp every `run` step."""
    build, run = runner.build_problem, runner.run

    def timed_build(cfg):
        t0 = time.perf_counter()
        problem = build(cfg)
        record["setup_s"] = time.perf_counter() - t0
        return problem

    def stamped_run(initial, ws, T, callbacks=()):
        stamp = record["stamps"].append
        return run(initial, ws, T, callbacks=tuple(callbacks) + (
            lambda report, state: stamp(time.perf_counter()),))

    with patched(runner, "build_problem", timed_build), \
            patched(runner, "run", stamped_run):
        yield


def _diff(stamps):
    return [b - a for a, b in zip(stamps, stamps[1:])]


def read_norms_csv(path):
    """Final l2/grad/supg, worst defects, and whether all are finite."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    numeric = ("t", "l2", "grad", "supg", "mu_half", "bconv",
               "wtilde_cond", "defect_gram", "defect_mean", "defect_cross")
    values = [[float(r[c]) for c in numeric] for r in rows]
    last = rows[-1]
    return {
        "l2": float(last["l2"]), "grad": float(last["grad"]),
        "supg": float(last["supg"]),
        "defect_gram": max(float(r["defect_gram"]) for r in rows),
        "defect_mean": max(float(r["defect_mean"]) for r in rows),
        "finite": all(math.isfinite(v) for row in values for v in row),
    }


def _new_record():
    return {"stamps": [], "setup_s": math.nan}


def _result(record, solve_s, final, error=None, output=b""):
    return SolveResult(solve_s, record["setup_s"], _diff(record["stamps"]),
                       final, error, output)


def solve_lowrank(cfg, out_dir):
    cfg.out_dir = out_dir
    record = _new_record()
    with _clocked(record):
        t0 = time.perf_counter()
        status, manifest = runner.run_from_config(cfg)
        solve_s = time.perf_counter() - t0
    if status != 0:
        return _result(record, solve_s, {},
                       f"status {status}: {manifest.get('error', '')}")
    path = f"{out_dir}/norms.csv"
    with open(path, "rb") as fh:
        output = fh.read()
    return _result(record, solve_s, read_norms_csv(path), output=output)


def solve_fom(cfg, out_dir):
    record = _new_record()
    stamp = record["stamps"].append
    error = None
    norms = []
    with _clocked(record):
        t0 = time.perf_counter()
        try:
            _, _, _, _, _, ws, state = runner.build_problem(cfg)
            _, norms = fom.fom_run(
                fom.FomState(state.dense(), t=state.t), ws, cfg.T,
                callbacks=(lambda st, nrm: stamp(time.perf_counter()),))
        except SupgDlrError as err:
            error = f"{type(err).__name__}: {err}"
        solve_s = time.perf_counter() - t0
    if not norms:
        return _result(record, solve_s, {}, error)
    final = {"l2": norms[-1], "finite": all(math.isfinite(v) for v in norms)}
    return _result(record, solve_s, final, error, repr(norms).encode())


def solve(workload, cfg, out_dir):
    """One solve of the workload's config."""
    if workload.kind == "fom":
        return solve_fom(cfg, out_dir)
    return solve_lowrank(cfg, out_dir)


def check_outputs(workload, seed, final, reference):
    """Problems with one solve's final outputs; empty when correct.

    Where a reference applies (default seed, or a workload whose inputs
    do not depend on the seed) the final norms must match it to REL_TOL
    relative.  Otherwise the norms must be finite and the stochastic
    modes orthonormal and centered to DEFECT_TOL.
    """
    problems = []
    if not final.get("finite", False):
        return ["non-finite norms"]
    ref = reference.get(workload.name)
    if ref is not None and (not workload.seeded or seed == ref["seed"]):
        for key in ("l2", "grad", "supg"):
            if key not in ref:
                continue
            got, want = final[key], ref[key]
            if abs(got - want) > REL_TOL * abs(want):
                problems.append(f"final {key} {got!r} differs from the "
                                f"reference {want!r}")
    for key in ("defect_gram", "defect_mean"):
        if final.get(key, 0.0) > DEFECT_TOL:
            problems.append(f"{key} {final[key]:.3e} exceeds {DEFECT_TOL}")
    return problems


def time_setup(cfg):
    """Wall time of one standalone `runner.build_problem`."""
    t0 = time.perf_counter()
    runner.build_problem(cfg)
    return time.perf_counter() - t0


def problem_size(workload, problem):
    """Sizes of the problem and of its largest per-step arrays (bytes)."""
    mesh, space, _, _, _, ws, state = problem
    ne, nq = ws.pw.shape
    n_h, n_c, r = mesh.n_vertices, space.count, state.rank
    f8 = 8
    arrays = {}
    if workload.kind == "fom":
        arrays["fom_fields (N_h, N_C)"] = n_h * n_c * f8
        if ws.has_sample_loop:
            arrays["fom_Vq (ne, nq, N_C)"] = ne * nq * n_c * f8
            arrays["fom_Gq (ne, 2, N_C)"] = ne * 2 * n_c * f8
    else:
        arrays["mode_frames_V (ne, nq, R+1)"] = ne * nq * (r + 1) * f8
        arrays["state_Y (N_C, R)"] = n_c * r * f8
    if ws.has_sample_loop:
        arrays["sample_residual (ne, nq, N_C)"] = ne * nq * n_c * f8
    return {"N_h": n_h, "N_C": n_c, "R": r, "elements": ne,
            "quad_points": nq, "array_bytes": arrays}
