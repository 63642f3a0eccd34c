"""Configuration-driven batch runs and the experiment presets.

A RunConfig fully determines one run: mesh, sample space, coefficient
model, initial condition, delta policy and outputs.
Presets reproduce the two reference experiments at `paper` scale
(exact published parameters, hours of compute) or `desk` scale (same
structure, minutes).  All outputs are plain text and byte-reproducible
from (config, seed, version).
"""

import configparser
import json
import numbers
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__ as _version
from .errors import ConfigError, RankLossError, SupgDlrError
from .mesh import build_structured_mesh, tag_boundary_layer
from .sampling import make_monte_carlo, make_tensor_grid
from .coefficients import (
    analyze_reaction, boundary_layer, constant_adr, delta_coercivity,
    delta_experiment, delta_semi_implicit, local_peclet, rotating_body,
)
from .lowrank import evaluate_realization, init_from_modes, \
    init_from_snapshot, DlrState
from .integrator import prepare_workspace, run
from .diagnostics import (
    check_bound_names, evaluate_bounds, md_metric, range_excess,
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
            "delta_policy": self.delta_policy,
            "model": self.model,
        }


DELTA_POLICY_LABELS = {"experiment": "h_K/4",
                       "coercivity": "coercivity bound",
                       "semi_implicit": "semi-implicit bound",
                       "none": "0 (standard Galerkin)"}


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
        delta_policy="experiment", rank=2, model="rotating_body",
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
        T=T, delta_policy="experiment", rank=rank, snapshot_tol=tol,
        model="boundary_layer",
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
    """shape(x) e^{cos(y3 x1 + y4 x2)}, centered per spatial point: formed
    once per distinct (y3, y4) pair, never as an (N_h, N_C) array."""
    x = mesh.vertices
    shape = 5.0 * np.sin(2.0 * np.pi * x[:, 0]) \
        * np.sin(2.0 * np.pi * x[:, 1])
    pairs, which = np.unique(space.samples[:, 2:4], axis=0,
                             return_inverse=True)
    rand = np.exp(np.cos(x @ pairs.T))
    rand -= (rand @ np.bincount(which, weights=space.weights))[:, None]
    return init_from_snapshot(shape[:, None] * rand, which, mass, space,
                              R=rank, tol=tol)


def build_initial(cfg, mesh, space, mass):
    if cfg.initial == "zero":
        return DlrState(np.zeros((mesh.n_vertices, 1)),
                        np.zeros((space.count, 0)))
    if cfg.initial == "rotating_body_shapes":
        # e.g. on a tensor grid with one point on an axis the modes read
        try:
            return _rotating_shapes(mesh, space)
        except RankLossError as err:
            grid = _listed_intervals(cfg.sampler["intervals"])
            raise ConfigError(f"initial condition {cfg.initial!r} loses "
                              f"rank on the {cfg.sampler['kind']} sample "
                              f"set {grid}: {err}") from err
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


# The [model] keys each model accepts, all numbers, b also a pair bx,by
# (b = v gives the advection (v, v)); the presets' models take none.
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
        nums = value if key == "b" and np.shape(value) == (2,) else (value,)
        if not all(isinstance(v, (int, float)) for v in nums):
            raise ConfigError(f"[model] {key} must be a number" + (
                " or a pair of numbers" if key == "b" else ""))
    if cfg.model == "rotating_body":
        return rotating_body()
    if cfg.model == "boundary_layer":
        return boundary_layer(space)
    return constant_adr(**cfg.model_params)


def resolve_delta(policy, mesh, analysis, dt):
    """Per-element stabilization parameter of one delta policy, an array.

    "none" is the all-zero delta of standard Galerkin.  The bound
    policies read the mesh's inverse constant; the coercivity policy is
    capped at h_K/4, and only the semi_implicit policy reads dt.
    """
    if policy == "none":
        return np.zeros(mesh.n_triangles)
    if policy == "experiment":
        return delta_experiment(mesh)
    if policy == "coercivity":
        return np.minimum(delta_coercivity(mesh, analysis,
                                           mesh.inverse_constant),
                          mesh.h_K / 4.0)
    if policy == "semi_implicit":
        return delta_semi_implicit(mesh, analysis, mesh.inverse_constant,
                                   dt)
    raise ConfigError(f"unknown delta policy {policy!r}")


# How many random variables (sample columns y_1, y_2, ...) each model
# and each initial condition reads.
MODEL_VARIABLES = {"rotating_body": 1, "boundary_layer": 2,
                   "constant_adr": 0}
INITIAL_VARIABLES = {"rotating_body_shapes": 3,
                     "boundary_layer_snapshot": 4, "zero": 0}


def _check_config(cfg):
    """Refuse (ConfigError) delta policy, sampler, rank, sample-index,
    dump-time and boundary settings that would otherwise fail later, as
    a bare exception or a numerical failure, or be ignored, as a dump
    time no step reaches."""
    if cfg.delta_policy not in DELTA_POLICY_LABELS:
        raise ConfigError(f"unknown delta_policy {cfg.delta_policy!r} "
                          f"(accepted: {', '.join(DELTA_POLICY_LABELS)})")
    s = cfg.sampler
    kind, intervals = s.get("kind"), s.get("intervals", ())
    width = {"monte_carlo": 2, "tensor_grid": 3}.get(kind)
    for iv in intervals:
        if width is not None and len(iv) != width:
            raise ConfigError(f"a {kind} interval takes {width} numbers "
                              f"(got {iv!r})")
        if not np.all(np.isfinite(iv[:2])) or iv[0] > iv[1]:
            raise ConfigError(f"interval {iv[0]:g},{iv[1]:g} must have "
                              "finite ends, the lower one first")
    needed = max(MODEL_VARIABLES.get(cfg.model, 0),
                 INITIAL_VARIABLES.get(cfg.initial, 0))
    if len(intervals) < needed:
        raise ConfigError(
            f"model {cfg.model!r} with initial condition {cfg.initial!r} "
            f"reads {needed} random variables, but [sampling] intervals "
            f"gives {len(intervals)}")
    rank = cfg.rank
    if rank is not None and (isinstance(rank, bool) or not isinstance(
            rank, (int, np.integer)) or rank < 0):
        raise ConfigError(f"rank must be a non-negative integer or unset "
                          f"(got {rank!r})")
    if cfg.initial == "rotating_body_shapes" and rank is not None \
            and rank > 2:
        raise ConfigError(f"initial condition 'rotating_body_shapes' has "
                          f"rank 2; rank {rank} cannot be honoured")
    # two centered, weighted-orthonormal stochastic modes span, with the
    # constants, three dimensions of the sample space
    if cfg.initial == "rotating_body_shapes" and width is not None \
            and cfg.n_samples < 3:
        raise ConfigError(f"initial condition 'rotating_body_shapes' needs "
                          f"at least 3 samples for its two stochastic "
                          f"modes (got {cfg.n_samples})")
    for key in ("track_md_samples", "dump_samples"):
        if width is not None and not all(
                0 <= i < cfg.n_samples for i in getattr(cfg, key)):
            raise ConfigError(f"{key} must lie in [0, {cfg.n_samples}) "
                              f"(got {getattr(cfg, key)!r})")
    if not all(0.0 <= t <= cfg.T for t in cfg.dump_times):
        raise ConfigError(f"dump times must lie in [0, T] = [0, {cfg.T:g}] "
                          f"(got {cfg.dump_times!r})")
    for tag, value in cfg.bc.items():
        if not isinstance(value, numbers.Real) or not np.isfinite(value):
            raise ConfigError(f"boundary value of {tag!r} must be a real "
                              f"number and must be finite (got {value!r})")


def build_problem(cfg):
    """Materialize (mesh, space, model, analysis, delta, workspace,
    state)."""
    _check_config(cfg)
    mesh = build_structured_mesh(cfg.n_per_side)
    if set(cfg.bc) - set(mesh.boundary_tags):
        if set(cfg.bc) == {"d1", "d2"}:
            mesh = tag_boundary_layer(mesh)
        else:
            raise ConfigError("boundary tags do not match the mesh")
    space = build_space(cfg)
    model = build_model(cfg, space)
    analysis = analyze_reaction(model, mesh, space)
    delta = resolve_delta(cfg.delta_policy, mesh, analysis, cfg.dt)
    ws = prepare_workspace(model, mesh, space, cfg.dt, delta, cfg.bc,
                           cfg.tangent_residual, analysis=analysis)
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


def make_out_dir(path):
    """Create the output directory path, or raise ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create the output directory "
                          f"{path!r}: {err}") from err


def run_from_config(cfg):
    """Execute one configured run; returns (exit_status, manifest).

    Writes norms.csv, md.csv (spread and range excess of the tracked
    realizations), ledger.csv (when bounds are requested), requested
    field dumps and a run.json manifest into cfg.out_dir.  A failed run
    keeps the norms.csv and md.csv rows of every completed step.  Exit
    status: 0 success, 1 configuration error, 2 numerical failure, 3 a
    requested bound failed.  Any other exception is raised after run.json
    records it as an internal_error; an output directory that cannot be
    made is a ConfigError, raised with no run.json.
    """
    make_out_dir(cfg.out_dir)
    manifest = {"version": _version, "config": asdict(cfg),
                "status": "ok", "failing_step": None}
    status = 0
    try:
        # a misspelt bound is refused before the run, not after it
        check_bound_names(cfg.bounds)
        mesh, space, _, analysis, _, ws, state = build_problem(cfg)
        # the snapshot may hold fewer modes than the requested rank
        manifest["initial_rank"] = state.rank

        reports, md_rows = [], []
        initial_range = {}
        dump_jobs = [(float(td), int(si)) for td in cfg.dump_times
                     for si in cfg.dump_samples]

        def observer(st, report):
            reports.append(report)
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

        try:
            run(state, ws, cfg.T, callbacks=(observer,))
        finally:
            # after a failed step too: the rows of every completed step
            write_reports_csv(reports,
                              os.path.join(cfg.out_dir, "norms.csv"))
            if md_rows:
                with open(os.path.join(cfg.out_dir, "md.csv"), "w") as fh:
                    fh.write("t,sample,md,excess\n")
                    for t, idx, v, x in md_rows:
                        fh.write(f"{t:.17g},{idx},{v:.17g},{x:.17g}\n")

        if cfg.bounds:
            ledgers = evaluate_bounds(reports, ws, cfg.bounds)
            write_ledgers_csv(ledgers,
                              os.path.join(cfg.out_dir, "ledger.csv"))
            if any(l.applicable and not l.passed for l in ledgers):
                status = 3
                manifest["status"] = "bound_failed"

        manifest["n_steps"] = len(reports) - 1
        manifest["final_l2"] = reports[-1].l2
        manifest["peclet_flag"] = local_peclet(mesh, analysis) > 1.0
    except ConfigError as err:
        status, manifest["status"] = 1, "config_error"
        manifest["error"] = str(err)
        manifest["failing_step"] = getattr(err, "step_index", None)
    except SupgDlrError as err:
        status, manifest["status"] = 2, "numerical_failure"
        manifest["error"] = str(err)
        manifest["failing_step"] = getattr(err, "step_index", None)
    except BaseException as err:
        # not one of ours: recorded, so no earlier run.json stays, and raised
        manifest["status"] = "internal_error"
        manifest["error"] = f"{type(err).__name__}: {err}"
        raise
    finally:
        # formed whole before the file is opened, so it is never cut
        # short: NumPy values as lists and numbers, any other by its repr
        text = json.dumps(manifest, indent=2, sort_keys=True, default=(
            lambda v: v.tolist() if isinstance(v, (np.generic, np.ndarray))
            else repr(v)))
        with open(os.path.join(cfg.out_dir, "run.json"), "w") as fh:
            fh.write(text + "\n")
    return status, manifest


# -- config file round trip ----------------------------------------------

_g = "{:.17g}".format


def _listed(parse, fmt):
    """(parse, format) of a comma-separated list, read as a tuple."""
    return (lambda s: tuple(map(parse, filter(str.strip, s.split(",")))),
            lambda values: ",".join(map(fmt, values)))


def _listed_intervals(intervals):
    """[sampling] intervals as the config file writes them."""
    return ";".join(",".join(map(_g, iv)) for iv in intervals)


def _boolean(text):
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"Not a boolean: {text}")
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


SECTIONS = ("run", "model", "sampling", "boundary", "output", "diagnostics")
# The [sampling] keys of each sampler kind besides kind and intervals.
SAMPLER_KEYS = {"monte_carlo": ("count", "seed"), "tensor_grid": ()}

# One row per plain RunConfig field, in file order: (section, key,
# attribute, parse, format).  configparser lower-cases keys.  [model],
# [sampling] and [boundary] are read and written by their own code.
FIELDS = (
    ("run", "name", "name", str, str),
    ("run", "scale", "scale", str, str),
    ("run", "n_per_side", "n_per_side", int, str),
    ("run", "dt", "dt", float, _g),
    ("run", "t", "T", float, _g),
    ("run", "delta_policy", "delta_policy", str, str),
    ("run", "initial", "initial", str, str),
    ("run", "rank", "rank", int, str),
    ("run", "snapshot_tol", "snapshot_tol", float, _g),
    ("output", "dir", "out_dir", str, str),
    ("output", "track_md_samples", "track_md_samples", *_listed(int, str)),
    ("output", "dump_times", "dump_times", *_listed(float, _g)),
    ("output", "dump_samples", "dump_samples", *_listed(int, str)),
    ("diagnostics", "tangent_residual", "tangent_residual", _boolean, str),
    ("diagnostics", "bounds", "bounds", *_listed(
        lambda b: tuple(p.strip() for p in b.partition(":")[::2]),
        ":".join)),
)


def write_config(cfg, path):
    check_bound_names(cfg.bounds)
    cp = configparser.ConfigParser()
    cp.read_dict(dict.fromkeys(SECTIONS, {}))
    for section, key, attr, _, fmt in FIELDS:
        # an unset rank or snapshot_tol is left out
        if getattr(cfg, attr) is not None:
            cp[section][key] = fmt(getattr(cfg, attr))
    cp["model"]["name"] = cfg.model
    for k, v in cfg.model_params.items():
        cp["model"][k] = ",".join(
            _g(x) if isinstance(x, float) else str(x)
            for x in (v if isinstance(v, (tuple, list)) else (v,)))
    s = cfg.sampler
    cp["sampling"] = {"kind": s["kind"], **{
        k: str(s[k]) for k in SAMPLER_KEYS.get(s["kind"], ())},
        "intervals": _listed_intervals(s["intervals"])}
    cp["boundary"] = {tag: _g(v) for tag, v in cfg.bc.items()}
    with open(path, "w") as fh:
        cp.write(fh)


def load_config(path):
    """Read a config file; a key left out takes its RunConfig default.
    An unknown section or key is a ConfigError, except in [model] and
    [boundary], whose keys build_problem checks."""
    cp = configparser.ConfigParser()
    cp.read_dict({"run": {"name": "run"}})  # the one default not in RunConfig
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path}")
        s = cp["sampling"]
        if s["kind"] not in SAMPLER_KEYS:
            raise ConfigError(f"unknown sampler kind {s['kind']!r}")
        known = {*(row[:2] for row in FIELDS), *(
            ("sampling", k)
            for k in ("kind", "intervals", *SAMPLER_KEYS[s["kind"]]))}
        for section in cp.sections():
            if section not in SECTIONS:
                raise ConfigError(f"unknown section [{section}] in {path}")
            unknown = [k for k in cp[section] if (section, k) not in known]
            if unknown and section not in ("model", "boundary"):
                raise ConfigError(f"unknown key {unknown[0]!r} in "
                                  f"[{section}] of {path}")
        # a field without a RunConfig default (n_per_side, dt, T) is required
        given = {attr: parse(cp[sec][key])
                 for sec, key, attr, parse, _ in FIELDS
                 if cp.has_option(sec, key) or not hasattr(RunConfig, attr)}
        params = {}
        for k, v in cp["model"].items():
            try:  # numbers; build_model refuses any other text
                nums = tuple(float(x) for x in v.split(","))
                params[k] = nums[0] if len(nums) == 1 else nums
            except ValueError:
                params[k] = v
        return RunConfig(
            **given, model=cp["model"]["name"],
            model_params={k: v for k, v in params.items() if k != "name"},
            sampler={"kind": s["kind"],
                     **{k: int(s[k]) for k in SAMPLER_KEYS[s["kind"]]},
                     "intervals": [(float(a), float(b), *map(int, n))
                                   for a, b, *n in (p.split(",") for p in
                                   s.get("intervals", "").split(";") if p)]},
            bc={tag: float(v) for tag, v in cp["boundary"].items()})
    except (KeyError, ValueError, configparser.Error) as err:
        raise ConfigError(f"invalid config file {path}: {err}") from err
