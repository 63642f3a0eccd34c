"""Staggered time stepper for the stabilized low-rank scheme.

One step solves the deterministic modes with the mean coefficients
implicit and the fluctuations explicit, then the stochastic increments
in the orthogonal complement of the current stochastic basis, and
finally re-orthonormalizes.  Three scheme variants share the skeleton:

semi_implicit                  mean part implicit, fluctuations explicit
implicit_euler_deterministic   fully implicit, deterministic coefficients
explicit                       everything explicit (no stability claim)

Stochastic advection is handled by the same mean/fluctuation split as
the diffusion and reaction: the mean field drives the implicit operator
and the streamline test skew, the fluctuation enters the explicit
right-hand side.  This extends the published scheme, which assumes a
deterministic advection field.
"""

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np
import scipy.sparse.linalg as spla

from . import diagnostics
from .errors import BlowupError, ConfigError, NearSingularError
from .mesh import DirichletCondition, assemble_blocks, assemble_load, \
    default_quadrature
from .sampling import expectation, project_complement, \
    weighted_orthonormalize
from .lowrank import DlrState
from .coefficients import StabilizationParams, analyze_reaction

__all__ = [
    "SchemeConfig",
    "StepWorkspace",
    "prepare_workspace",
    "step_deterministic_modes",
    "step_stochastic_modes",
    "step",
    "run",
]

SCHEMES = ("semi_implicit", "implicit_euler_deterministic", "explicit")
STABILIZATIONS = ("none", "supg")


@dataclass
class SchemeConfig:
    """Time-stepping selections for one run."""

    dt: float
    scheme: str = "semi_implicit"
    stabilization: str = "supg"
    delta: object = None          # StabilizationParams or per-element array
    bc: dict = field(default_factory=lambda: {"boundary": 0.0})
    compute_tangent_residual: bool = False
    wcond_threshold: float = 1e12
    blowup_factor: float = 1e8

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.stabilization not in STABILIZATIONS:
            raise ConfigError(
                f"unknown stabilization {self.stabilization!r}")


@dataclass(eq=False)
class StepWorkspace:
    """Factorized operators and caches shared by every step of a run.

    The constrained implicit matrix is identical for all modes (only
    right-hand sides differ between the mean mode and the homogeneous
    fluctuation modes), so one sparse factorization serves them all.
    """

    model: object
    mesh: object
    space: object
    cfg: SchemeConfig
    analysis: object
    quad: object
    delta: np.ndarray
    blocks: object
    Braw: object
    bc0: DirichletCondition
    bc_hom: DirichletCondition
    lu: object
    eps_bar: float
    eps_expl: np.ndarray              # per-sample explicit diffusion
    c_expl: object                    # callable (x, omega) or None
    b_expl: object                    # callable (x, omega) or None
    time_matrix: object               # mass + supg_mass
    phi: np.ndarray = field(init=False)
    pw: np.ndarray = field(init=False)
    xq_flat: np.ndarray = field(init=False)
    norms: object = field(init=False, default=None)   # see norm_evaluator

    def __post_init__(self):
        self.phi = self.quad.basis_values()
        self.pw = self.mesh.quad_weights(self.quad)
        self.xq_flat = self.mesh.quad_points(self.quad).reshape(-1, 2)

    @property
    def has_explicit_eps(self):
        return bool(np.any(self.eps_expl != 0.0))

    @property
    def has_stochastic_forcing(self):
        return (self.model.forcing is not None
                and not self.model.forcing_deterministic)

    @property
    def has_sample_loop(self):
        return (self.c_expl is not None or self.b_expl is not None
                or self.has_stochastic_forcing)

    def forcing_time(self, t):
        """Time level at which the forcing enters the right-hand side."""
        return t if self.cfg.scheme == "explicit" else t + self.cfg.dt

    def norm_evaluator(self):
        if self.norms is None:
            self.norms = diagnostics.NormEvaluator(self)
        return self.norms


def _resolve_delta(cfg, mesh):
    if cfg.stabilization == "none":
        return np.zeros(mesh.n_triangles)
    if cfg.delta is None:
        raise ConfigError("supg stabilization needs a delta policy")
    dk = cfg.delta.delta_K if isinstance(cfg.delta, StabilizationParams) \
        else np.asarray(cfg.delta, dtype=float)
    if dk.shape != (mesh.n_triangles,):
        raise ConfigError("delta must have one entry per element")
    if not np.all(np.isfinite(dk)):
        raise ConfigError("delta contains non-finite entries; cap the "
                          "inactive-constraint sentinels first")
    return dk


def prepare_workspace(model, mesh, space, cfg, analysis=None, quad=None):
    """Assemble and factorize everything one run of `step` needs."""
    quad = quad or default_quadrature()
    model.validate(space, mesh, quad)
    if (cfg.compute_tangent_residual
            and space.count > diagnostics.TANGENT_MAX_SAMPLES):
        raise ConfigError(
            "the tangent residual check needs at most "
            f"{diagnostics.TANGENT_MAX_SAMPLES} samples, got {space.count}")
    delta = _resolve_delta(cfg, mesh)
    eps_bar, eps_star = model.eps_split(space)
    eps_full = eps_bar + eps_star

    if cfg.scheme == "implicit_euler_deterministic":
        if (np.max(np.abs(eps_star)) > 1e-14 * eps_bar
                or model.b_fluct is not None or model.c_fluct is not None):
            raise ConfigError("the deterministic implicit scheme requires "
                              "coefficients without fluctuations")
        if not model.forcing_deterministic:
            raise ConfigError("the deterministic implicit scheme requires "
                              "deterministic forcing")

    blocks = assemble_blocks(mesh, model.b_mean, model.c_mean, delta, quad)
    if analysis is None:
        analysis = analyze_reaction(model, mesh, space, quad)

    if cfg.scheme == "explicit":
        K_impl = None
        eps_expl = eps_full
        c_expl = model.c_at if (model.c_mean or model.c_fluct) else None
        b_expl = model.b_at
    else:
        K_impl = (eps_bar * blocks.stiffness + blocks.convection
                  + blocks.reaction
                  + blocks.supg_conv + blocks.supg_reaction)
        eps_expl = eps_star
        c_expl = model.c_fluct
        b_expl = model.b_fluct

    time_matrix = (blocks.mass + blocks.supg_mass).tocsr()
    Braw = (time_matrix / cfg.dt + K_impl).tocsr() if K_impl is not None \
        else (time_matrix / cfg.dt).tocsr()

    bc0 = DirichletCondition(Braw, mesh, cfg.bc)
    bc_hom = DirichletCondition(Braw, mesh,
                                {tag: 0.0 for tag in cfg.bc})
    lu = spla.splu(bc0.matrix.tocsc())
    return StepWorkspace(
        model=model, mesh=mesh, space=space, cfg=cfg, analysis=analysis,
        quad=quad, delta=delta, blocks=blocks, Braw=Braw, bc0=bc0,
        bc_hom=bc_hom, lu=lu, eps_bar=eps_bar, eps_expl=eps_expl,
        c_expl=c_expl, b_expl=b_expl, time_matrix=time_matrix)


def _full_factors(state):
    Y_full = np.column_stack([np.ones(state.n_samples), state.Y])
    U_full = np.column_stack([state.U0, state.U])
    return U_full, Y_full


def _mode_frames(ws, U_cols):
    """Values and gradients of mode columns at quadrature points.

    Returns (V, G): V[e,q,r] mode values, G[e,i,r] element-constant
    gradient components.
    """
    elem = U_cols[ws.mesh.triangles]                  # (ne, 3, r)
    V = np.einsum("qa,ear->eqr", ws.phi, elem)
    G = np.einsum("eai,ear->eir", ws.mesh.grads, elem)
    return V, G


def _sample_residual_qp(ws, t, u_qp_of, grad_of, n_samples):
    """Explicit reaction/advection residual minus stochastic forcing.

    Returns (ne, nq, N_C) values of c_expl u + b_expl . grad u - f_st
    at quadrature points; only called when ws.has_sample_loop.
    """
    ne, nq = ws.pw.shape
    flat = ws.xq_flat
    val = np.zeros((ne, nq, n_samples))
    t_f = ws.forcing_time(t)
    for i, omega in enumerate(ws.space.samples):
        acc = np.zeros((ne, nq))
        if ws.c_expl is not None:
            acc += np.asarray(ws.c_expl(flat, omega),
                              dtype=float).reshape(ne, nq) * u_qp_of(i)
        if ws.b_expl is not None:
            bf = np.asarray(ws.b_expl(flat, omega),
                            dtype=float).reshape(ne, nq, 2)
            acc += np.einsum("eqd,ed->eq", bf, grad_of(i))
        if ws.has_stochastic_forcing:
            acc -= np.asarray(ws.model.forcing(t_f, flat, omega),
                              dtype=float).reshape(ne, nq)
        val[:, :, i] = acc
    return val


def _deterministic_forcing_qp(ws, t):
    if ws.model.forcing is None or not ws.model.forcing_deterministic:
        return None
    ne, nq = ws.pw.shape
    f = ws.model.forcing(ws.forcing_time(t), ws.xq_flat, None)
    return np.asarray(f, dtype=float).reshape(ne, nq)


def step_deterministic_modes(state, ws):
    """Solve the R+1 implicit mode systems; returns (U_tilde, caches)."""
    U_full, Y_full = _full_factors(state)
    w = ws.space.weights

    rhs = ws.time_matrix @ U_full / ws.cfg.dt

    fqp = _deterministic_forcing_qp(ws, state.t)
    if fqp is not None:
        rhs[:, 0] += assemble_load(ws.blocks, fqp, skew=True)

    if ws.has_explicit_eps:
        Emat = Y_full.T @ ((w * ws.eps_expl)[:, None] * Y_full)
        rhs -= ws.blocks.stiffness @ (U_full @ Emat)

    val = None
    if ws.has_sample_loop:
        Vm, Gm = _mode_frames(ws, U_full)
        val = _sample_residual_qp(
            ws, state.t,
            u_qp_of=lambda i: Vm @ Y_full[i],
            grad_of=lambda i: Gm @ Y_full[i],
            n_samples=state.n_samples)
        valY = np.einsum("eqi,ir->eqr", val, w[:, None] * Y_full)
        rhs -= assemble_load(ws.blocks, valY, skew=True)

    constrained = np.empty_like(rhs)
    constrained[:, 0] = ws.bc0.constrain_rhs(rhs[:, 0])
    for j in range(1, rhs.shape[1]):
        constrained[:, j] = ws.bc_hom.constrain_rhs(rhs[:, j])
    U_tilde = ws.lu.solve(constrained)
    if not np.all(np.isfinite(U_tilde)):
        raise ConfigError("deterministic mode solve returned non-finite "
                          "values")
    return U_tilde, (U_full, Y_full, val)


def step_stochastic_modes(state, U_tilde, ws, caches):
    """Solve the per-sample increment systems in the complement.

    caches is the second result of step_deterministic_modes.
    Returns (Y_tilde, dY, w_condition).
    """
    R = state.rank
    if R == 0:
        return state.Y.copy(), np.zeros_like(state.Y), 1.0
    U_full, Y_full, val = caches

    Um = U_tilde[:, 1:]
    What = Um.T @ (ws.Braw.T @ Um)
    cond = float(np.linalg.cond(What))
    if not np.isfinite(cond) or cond > ws.cfg.wcond_threshold:
        raise NearSingularError(
            f"mode coupling matrix condition {cond:.3e} exceeds "
            f"{ws.cfg.wcond_threshold:.1e}", condition=cond)

    rhs = np.zeros((state.n_samples, R))
    if ws.has_explicit_eps:
        G = Um.T @ (ws.blocks.stiffness @ U_full)      # (R, R+1)
        rhs -= ws.eps_expl[:, None] * (Y_full @ G.T)
    if val is not None:
        Vt, Gt = _mode_frames(ws, Um)
        bG = np.einsum("eqi,eir->eqr", ws.blocks.b_at_qp, Gt)
        Htest = Vt + ws.delta[:, None, None] * bG
        rhs -= np.einsum("eq,eqi,eqr->ir", ws.pw, val, Htest)

    if not np.any(rhs):
        dY = np.zeros_like(state.Y)
    else:
        for j in range(R):
            rhs[:, j] = project_complement(rhs[:, j], state.Y, ws.space)
        dY = np.linalg.solve(What.T, rhs.T).T
    return state.Y + dY, dY, cond


def step(state, ws):
    """Advance one time step; returns (new state, StepReport)."""
    U_tilde, caches = step_deterministic_modes(state, ws)
    Y_tilde, dY, wcond = step_stochastic_modes(state, U_tilde, ws, caches)

    w = ws.space.weights
    defect_cross = float(np.max(np.abs((dY * w[:, None]).T @ state.Y))) \
        if state.rank else 0.0

    means = expectation(Y_tilde, ws.space) if state.rank \
        else np.zeros(0)
    U0_new = U_tilde[:, 0] + U_tilde[:, 1:] @ means
    if state.rank:
        Y_new, T = weighted_orthonormalize(Y_tilde - means, ws.space)
        U_new = U_tilde[:, 1:] @ T.T
    else:
        Y_new = state.Y.copy()
        U_new = U_tilde[:, 1:]
    new_state = DlrState(U0_new, U_new, Y_new, t=state.t + ws.cfg.dt)

    tangent = None
    if ws.cfg.compute_tangent_residual:
        tangent = diagnostics.check_tangent_residual(
            ws, state, U_tilde, Y_tilde)

    report = diagnostics.step_report(new_state, ws, wcond=wcond,
                                     defect_cross=defect_cross,
                                     tangent_residual=tangent)
    return new_state, report


def _time_loop(initial, ws, T, advance, measure, l2_of, callbacks):
    """The time loop of `run` and `fom.fom_run`.

    Checks that ws.cfg.dt divides [initial.t, T], records
    measure(initial), then calls advance(state) -> (state, record) once
    per step.  A record whose l2_of is not finite or exceeds
    blowup_factor times the initial one (at least 1) raises BlowupError
    carrying the step index.  Every record, the initial one included,
    is passed on as cb(state, record).  Returns (state, list of records).
    """
    t0 = initial.t
    dt = ws.cfg.dt
    if T <= t0:
        raise ConfigError("final time must exceed the initial time")
    n_steps = int(round((T - t0) / dt))
    if abs(n_steps * dt - (T - t0)) > 1e-9 * max(T - t0, dt):
        raise ConfigError("dt does not divide the time interval")
    n_steps = max(n_steps, 1)

    state = initial
    records = [measure(state)]
    ref = max(l2_of(records[0]), 1.0)
    for cb in callbacks:
        cb(state, records[0])
    for n in range(n_steps):
        state, record = advance(state)
        l2 = l2_of(record)
        if not np.isfinite(l2) or l2 > ws.cfg.blowup_factor * ref:
            raise BlowupError(
                f"norm {l2:.3e} at step {n + 1} indicates blow-up",
                step_index=n + 1)
        records.append(record)
        for cb in callbacks:
            cb(state, record)
    return state, records


def run(initial, ws, T, callbacks=()):
    """Time loop from initial.t to T; returns (state, list of reports).

    Each callback is called as cb(report, state).
    """
    def advance(state):
        return step(state, ws)   # looked up per call, so wrappers apply

    def notify(state, report):
        for cb in callbacks:
            cb(report, state)

    return _time_loop(initial, ws, T, advance,
                      lambda state: diagnostics.step_report(state, ws),
                      attrgetter("l2"), (notify,))
