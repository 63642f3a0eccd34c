"""Configuration-driven batch runs and the experiment presets.

A RunConfig fully determines one run: mesh, sample space, coefficient
model, initial condition, stabilization policy and outputs.
Presets reproduce the two reference experiments at `paper` scale
(exact published parameters, hours of compute) or `desk` scale (same
structure, minutes).  All outputs are plain text and byte-reproducible
from (config, seed, version).
"""

import configparser
import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__ as _version
from .errors import ConfigError
from .mesh import build_structured_mesh, tag_boundary_layer, \
    assemble_blocks, default_quadrature
from .sampling import make_monte_carlo, make_tensor_grid
from .coefficients import (
    StabilizationParams, analyze_reaction, boundary_layer,
    check_moderate_stochasticity, constant_adr, delta_coercivity,
    delta_experiment, delta_semi_implicit, estimate_inverse_constant,
    local_peclet, rotating_body,
)
from .lowrank import evaluate_realization, init_from_modes, \
    init_from_snapshot, DlrState
from .integrator import SchemeConfig, prepare_workspace, run
from .diagnostics import (
    evaluate_bound, forcing_norms, md_metric, range_excess,
    write_ledgers_csv, write_reports_csv,
)

__all__ = [
    "RunConfig",
    "preset_rotating_body",
    "preset_boundary_layer",
    "run_from_config",
    "build_problem",
    "write_config",
    "load_config",
    "write_field_dump",
]


@dataclass
class RunConfig:
    """Everything one run needs, resolvable to and from an ini file."""

    name: str
    n_per_side: int
    dt: float
    T: float
    stabilization: str = "supg"
    delta_policy: str = "experiment"
    rank: int = None
    snapshot_tol: float = None
    model: str = "constant_adr"
    model_params: dict = field(default_factory=dict)
    sampler: dict = field(default_factory=dict)
    initial: str = "zero"
    bc: dict = field(default_factory=lambda: {"boundary": 0.0})
    out_dir: str = "."
    track_md_samples: tuple = ()
    dump_times: tuple = ()
    dump_samples: tuple = ()
    bounds: tuple = ()
    tangent_residual: bool = False
    scale: str = "desk"

    @property
    def n_dof(self):
        return (self.n_per_side + 1) ** 2

    @property
    def n_samples(self):
        s = self.sampler
        if s.get("kind") == "monte_carlo":
            return int(s["count"])
        return int(np.prod([n for _, _, n in s["intervals"]]))

    def describe(self):
        """Resolved scalar parameters, used by the preset echo."""
        return {
            "name": self.name,
            "scale": self.scale,
            "N_h": self.n_dof,
            "N_C": self.n_samples,
            "n_per_side": self.n_per_side,
            "dt": self.dt,
            "T": self.T,
            "R": self.rank,
            "snapshot_tol": self.snapshot_tol,
            "stabilization": self.stabilization,
            "delta_policy": self.delta_policy,
            "model": self.model,
        }


DELTA_POLICY_LABELS = {"experiment": "h_K/4",
                       "coercivity": "coercivity bound",
                       "semi_implicit": "semi-implicit bound"}


def preset_rotating_body(scale="desk", seed=1234):
    """Rotating-body transport with random diffusion (rank 2)."""
    if scale not in ("paper", "desk"):
        raise ConfigError("scale must be 'paper' or 'desk'")
    if scale == "paper":
        n, count, T, dt = 128, 7000, 2.0 * np.pi, 2.0 * np.pi / 70000.0
    else:
        n, count, T, dt = 32, 200, 0.5, 0.5 / 800.0
    return RunConfig(
        name="rotating_body", scale=scale, n_per_side=n, dt=dt, T=T,
        stabilization="supg", delta_policy="experiment", rank=2,
        model="rotating_body",
        sampler={"kind": "monte_carlo", "count": count, "seed": seed,
                 "intervals": [(-1.0, 1.0)] * 3},
        initial="rotating_body_shapes", bc={"boundary": 0.0})


def preset_boundary_layer(scale="desk"):
    """Boundary-layer formation with mildly stochastic advection."""
    if scale not in ("paper", "desk"):
        raise ConfigError("scale must be 'paper' or 'desk'")
    T = 1.2
    if scale == "paper":
        n, N, rank, tol = 50, 10, 34, None
    else:
        n, N, rank, tol = 20, 4, None, 1e-4
    return RunConfig(
        name="boundary_layer", scale=scale, n_per_side=n, dt=T / 50.0,
        T=T, stabilization="supg", delta_policy="experiment", rank=rank,
        snapshot_tol=tol, model="boundary_layer",
        sampler={"kind": "tensor_grid",
                 "intervals": [(5000.0, 6000.0, N)]
                 + [(-1.0, 1.0, N)] * 3},
        initial="boundary_layer_snapshot", bc={"d1": 1.0, "d2": 0.0})


# -- initial conditions --------------------------------------------------

def _rotating_shapes(mesh, space):
    x = mesh.vertices

    def radius(a, b):
        return np.hypot(x[:, 0] - a, x[:, 1] - b) / 0.15

    r = radius(0.5, 0.75)
    slot_kept = (np.abs(x[:, 0] - 0.5) >= 0.025) | (x[:, 1] >= 0.85)
    U0 = ((r <= 1.0) & slot_kept).astype(float)

    r = radius(0.25, 0.5)
    U1 = 0.25 * (1.0 + np.cos(np.pi * np.minimum(r, 1.0)))
    r = radius(0.5, 0.25)
    U2 = 1.0 - np.minimum(r, 1.0)

    y = space.samples
    Yt1 = 2.0 * y[:, 1] * np.cos(y[:, 2])
    Yt2 = 30.0 * y[:, 2] * y[:, 1] ** 3
    return init_from_modes(U0, np.column_stack([U1, U2]),
                           np.column_stack([Yt1, Yt2]), space)


def _boundary_layer_snapshot(mesh, space, mass, rank, tol):
    x = mesh.vertices
    shape = 5.0 * np.sin(2.0 * np.pi * x[:, 0]) \
        * np.sin(2.0 * np.pi * x[:, 1])
    y = space.samples
    # random factor e^{cos(y3 x1 + y4 x2)}, centered per spatial point
    phase = np.outer(x[:, 0], y[:, 2]) + np.outer(x[:, 1], y[:, 3])
    rand = np.exp(np.cos(phase))
    rand -= (rand @ space.weights)[:, None]
    snapshot = shape[:, None] * rand
    return init_from_snapshot(snapshot, mass, space, R=rank, tol=tol)


def build_initial(cfg, mesh, space, mass):
    if cfg.initial == "zero":
        return DlrState(np.zeros(mesh.n_vertices),
                        np.zeros((mesh.n_vertices, 0)),
                        np.zeros((space.count, 0)))
    if cfg.initial == "rotating_body_shapes":
        return _rotating_shapes(mesh, space)
    if cfg.initial == "boundary_layer_snapshot":
        return _boundary_layer_snapshot(mesh, space, mass, cfg.rank,
                                        cfg.snapshot_tol)
    raise ConfigError(f"unknown initial condition {cfg.initial!r}")


def build_space(cfg):
    s = cfg.sampler
    kind = s.get("kind")
    if kind == "monte_carlo":
        return make_monte_carlo(s["intervals"], s["count"], s["seed"])
    if kind == "tensor_grid":
        return make_tensor_grid(s["intervals"])
    raise ConfigError(f"unknown sampler kind {kind!r}")


# The [model] keys each model accepts, all numbers (b = v gives the
# advection (v, v)); the presets' models take none.
MODEL_KEYS = {"rotating_body": (), "boundary_layer": (),
              "constant_adr": ("eps_value", "b", "c", "f")}


def build_model(cfg, space):
    if cfg.model not in MODEL_KEYS:
        raise ConfigError(f"unknown model {cfg.model!r}")
    accepted = MODEL_KEYS[cfg.model]
    for key, value in cfg.model_params.items():
        if key not in accepted:
            raise ConfigError(
                f"model {cfg.model!r} does not accept the [model] key "
                f"{key!r} (accepted: {', '.join(accepted) or 'none'})")
        if not isinstance(value, (int, float)):
            raise ConfigError(f"[model] {key} must be a number")
    if cfg.model == "rotating_body":
        return rotating_body()
    if cfg.model == "boundary_layer":
        return boundary_layer(space)
    return constant_adr(**cfg.model_params)


def resolve_delta(policy, mesh, model, analysis, dt, quad=None):
    """Per-element stabilization parameter of one delta policy.

    Policies other than the plain h_K/4 rule ("experiment") need the
    inverse constant; the coercivity policy is capped at h_K/4, and only
    the semi_implicit policy reads dt.
    """
    if policy == "experiment":
        return delta_experiment(mesh)
    plain = assemble_blocks(mesh, model.b_mean, model.c_mean,
                            np.zeros(mesh.n_triangles), quad)
    C_I = estimate_inverse_constant(mesh, plain)
    params = StabilizationParams(np.zeros(mesh.n_triangles), C_I=C_I, d=2)
    if policy == "coercivity":
        dk = delta_coercivity(mesh, analysis, params)
        return dk.capped(mesh.h_K / 4.0)
    if policy == "semi_implicit":
        return delta_semi_implicit(mesh, analysis, params, dt)
    raise ConfigError(f"unknown delta policy {policy!r}")


def build_problem(cfg):
    """Materialize (mesh, space, model, analysis, workspace, state)."""
    mesh = build_structured_mesh(cfg.n_per_side)
    if set(cfg.bc) - set(mesh.boundary_tags):
        if set(cfg.bc) == {"d1", "d2"}:
            mesh = tag_boundary_layer(mesh)
        else:
            raise ConfigError("boundary tags do not match the mesh")
    space = build_space(cfg)
    model = build_model(cfg, space)
    quad = default_quadrature()
    analysis = analyze_reaction(model, mesh, space, quad)
    if cfg.stabilization == "none":
        delta = StabilizationParams(np.zeros(mesh.n_triangles))
    elif cfg.stabilization == "supg":
        delta = resolve_delta(cfg.delta_policy, mesh, model, analysis,
                              cfg.dt, quad)
    else:
        raise ConfigError(f"unknown stabilization {cfg.stabilization!r}")
    scheme_cfg = SchemeConfig(
        dt=cfg.dt, delta=delta, bc=dict(cfg.bc),
        compute_tangent_residual=cfg.tangent_residual)
    ws = prepare_workspace(model, mesh, space, scheme_cfg,
                           analysis=analysis, quad=quad)
    state = build_initial(cfg, mesh, space, ws.blocks.mass)
    return mesh, space, model, analysis, delta, ws, state


def write_field_dump(path, t, rank, n_per_side, n_samples, values):
    """Nodal values of one realization as plain text.

    A header line `t rank n_per_side n_samples`, then one value per line
    with 17 significant digits, so the values read back exactly.
    """
    with open(path, "w") as fh:
        fh.write(f"{t:.17g} {rank} {n_per_side} {n_samples}\n")
        fh.write("\n".join(f"{v:.17g}" for v in np.asarray(values).ravel()))
        fh.write("\n")


def run_from_config(cfg):
    """Execute one configured run; returns (exit_status, manifest).

    Writes norms.csv, md.csv (spread and range excess of the tracked
    realizations), ledger.csv (when bounds are requested), requested
    field dumps and a run.json manifest into cfg.out_dir.  Exit status:
    0 success, 1 configuration error, 2 numerical failure, 3 a requested
    bound failed.
    """
    from .errors import SupgDlrError

    os.makedirs(cfg.out_dir, exist_ok=True)
    manifest = {"version": _version, "config": _config_dict(cfg),
                "status": "ok", "failing_step": None}
    status = 0
    try:
        mesh, space, model, analysis, delta, ws, state = build_problem(cfg)

        md_rows = []
        initial_range = {}
        dump_jobs = [(float(td), int(si)) for td in cfg.dump_times
                     for si in cfg.dump_samples]

        def observer(report, st):
            for idx in cfg.track_md_samples:
                u = evaluate_realization(st, idx)
                # the first call sees the initial state
                lo, hi = initial_range.setdefault(idx, (u.min(), u.max()))
                md_rows.append((report.t, int(idx), md_metric(u),
                                range_excess(u, lo, hi)))
            for td, si in dump_jobs:
                if abs(report.t - td) <= 0.5 * cfg.dt:
                    fn = os.path.join(
                        cfg.out_dir, f"field_t{report.t:.6f}_s{si}.txt")
                    write_field_dump(fn, report.t, st.rank,
                                     cfg.n_per_side, space.count,
                                     evaluate_realization(st, si))

        final, reports = run(state, ws, cfg.T, callbacks=(observer,))
        write_reports_csv(reports,
                          os.path.join(cfg.out_dir, "norms.csv"))
        if md_rows:
            with open(os.path.join(cfg.out_dir, "md.csv"), "w") as fh:
                fh.write("t,sample,md,excess\n")
                for t, idx, v, x in md_rows:
                    fh.write(f"{t:.17g},{idx},{v:.17g},{x:.17g}\n")

        if cfg.bounds:
            if delta.C_I is None:
                # the ledgers check the diffusion constraint on delta_K
                delta = StabilizationParams(
                    delta.delta_K, C_I=estimate_inverse_constant(
                        mesh, ws.blocks), d=delta.d)
            n_steps = len(reports) - 1
            fn = forcing_norms(ws, state.t, n_steps)
            stoch = check_moderate_stochasticity(model, analysis, space)
            ledgers = [
                evaluate_bound(reports, theorem, case, analysis, delta,
                               cfg.dt, n_steps * cfg.dt, f_norms=fn,
                               stoch_report=stoch)
                for theorem, case in cfg.bounds]
            write_ledgers_csv(ledgers,
                              os.path.join(cfg.out_dir, "ledger.csv"))
            if any(l.applicable and not l.passed for l in ledgers):
                status = 3
                manifest["status"] = "bound_failed"

        manifest["n_steps"] = len(reports) - 1
        manifest["final_l2"] = reports[-1].l2
        manifest["peclet_flag"] = bool(
            local_peclet(model, mesh, space).advection_dominated) \
            if space.count <= 1000 else None
    except ConfigError as err:
        status, manifest["status"] = 1, "config_error"
        manifest["error"] = str(err)
        manifest["failing_step"] = getattr(err, "step_index", None)
    except SupgDlrError as err:
        status, manifest["status"] = 2, "numerical_failure"
        manifest["error"] = str(err)
        manifest["failing_step"] = getattr(err, "step_index", None)

    with open(os.path.join(cfg.out_dir, "run.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return status, manifest


# -- config file round trip ----------------------------------------------

def _config_dict(cfg):
    d = asdict(cfg)
    d["sampler"] = dict(cfg.sampler)
    if "intervals" in d["sampler"]:
        d["sampler"]["intervals"] = [list(iv)
                                     for iv in d["sampler"]["intervals"]]
    return d


def write_config(cfg, path):
    cp = configparser.ConfigParser()
    cp["run"] = {
        "name": cfg.name, "scale": cfg.scale,
        "n_per_side": str(cfg.n_per_side),
        "dt": f"{cfg.dt:.17g}", "T": f"{cfg.T:.17g}",
        "stabilization": cfg.stabilization,
        "delta_policy": cfg.delta_policy,
        "initial": cfg.initial,
    }
    if cfg.rank is not None:
        cp["run"]["rank"] = str(cfg.rank)
    if cfg.snapshot_tol is not None:
        cp["run"]["snapshot_tol"] = f"{cfg.snapshot_tol:.17g}"
    cp["model"] = {"name": cfg.model}
    for k, v in cfg.model_params.items():
        cp["model"][k] = f"{v:.17g}" if isinstance(v, float) else str(v)
    s = cfg.sampler
    cp["sampling"] = {"kind": s["kind"]}
    if s["kind"] == "monte_carlo":
        cp["sampling"]["count"] = str(s["count"])
        cp["sampling"]["seed"] = str(s["seed"])
        cp["sampling"]["intervals"] = ";".join(
            f"{a:.17g},{b:.17g}" for a, b in s["intervals"])
    else:
        cp["sampling"]["intervals"] = ";".join(
            f"{a:.17g},{b:.17g},{n}" for a, b, n in s["intervals"])
    cp["boundary"] = {tag: f"{v:.17g}" for tag, v in cfg.bc.items()}
    cp["output"] = {
        "dir": cfg.out_dir,
        "track_md_samples": ",".join(str(i)
                                     for i in cfg.track_md_samples),
        "dump_times": ",".join(f"{t:.17g}" for t in cfg.dump_times),
        "dump_samples": ",".join(str(i) for i in cfg.dump_samples),
    }
    cp["diagnostics"] = {
        "tangent_residual": str(cfg.tangent_residual),
        "bounds": ",".join(f"{t}:{c}" for t, c in cfg.bounds),
    }
    with open(path, "w") as fh:
        cp.write(fh)


def load_config(path):
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path}")
    try:
        r = cp["run"]
        # the semi-implicit step is the only scheme; a file asking for
        # another one must not silently run it
        if r.get("scheme", "semi_implicit") != "semi_implicit":
            raise ConfigError(f"unknown scheme {r['scheme']!r} in {path}; "
                              "only semi_implicit is supported")
        sampler = {"kind": cp["sampling"]["kind"]}
        ivs = cp["sampling"].get("intervals", "")
        parts = [p for p in ivs.split(";") if p]
        if sampler["kind"] == "monte_carlo":
            sampler["count"] = cp["sampling"].getint("count")
            sampler["seed"] = cp["sampling"].getint("seed")
            sampler["intervals"] = [tuple(map(float, p.split(",")))
                                    for p in parts]
        else:
            sampler["intervals"] = [
                (float(a), float(b), int(n))
                for a, b, n in (p.split(",") for p in parts)]
        model_params = {}
        for k, v in cp["model"].items():
            if k == "name":
                continue
            try:
                model_params[k] = float(v)
            except ValueError:
                model_params[k] = v
        out = cp["output"] if "output" in cp else {}
        diag = cp["diagnostics"] if "diagnostics" in cp else {}

        def ints(text):
            return tuple(int(x) for x in text.split(",") if x)

        def floats(text):
            return tuple(float(x) for x in text.split(",") if x)

        return RunConfig(
            name=r.get("name", "run"), scale=r.get("scale", "desk"),
            n_per_side=int(r["n_per_side"]), dt=float(r["dt"]),
            T=float(r["T"]),
            stabilization=r.get("stabilization", "supg"),
            delta_policy=r.get("delta_policy", "experiment"),
            rank=int(r["rank"]) if "rank" in r else None,
            snapshot_tol=float(r["snapshot_tol"])
            if "snapshot_tol" in r else None,
            model=cp["model"]["name"], model_params=model_params,
            sampler=sampler, initial=r.get("initial", "zero"),
            bc={tag: float(v) for tag, v in cp["boundary"].items()},
            out_dir=out.get("dir", "."),
            track_md_samples=ints(out.get("track_md_samples", "")),
            dump_times=floats(out.get("dump_times", "")),
            dump_samples=ints(out.get("dump_samples", "")),
            bounds=tuple(tuple(b.split(":"))
                         for b in diag.get("bounds", "").split(",") if b),
            tangent_residual=diag.get("tangent_residual",
                                      "False") == "True",
        )
    except (KeyError, ValueError) as err:
        raise ConfigError(f"invalid config file {path}: {err}") from err
