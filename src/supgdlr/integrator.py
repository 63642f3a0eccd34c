"""Staggered time stepper for the stabilized low-rank scheme.

One step solves the deterministic modes with the mean coefficients
implicit and the fluctuations explicit, then the stochastic increments
in the orthogonal complement of the current stochastic basis, and
finally re-orthonormalizes.  Three scheme variants share the skeleton:

semi_implicit                  mean part implicit, fluctuations explicit
implicit_euler_deterministic   fully implicit, deterministic coefficients
explicit                       everything explicit (no stability claim)

Stochastic advection is handled by the same mean/fluctuation split as
the diffusion: the mean field drives the implicit operator and the
streamline test skew, the fluctuation enters the explicit right-hand
side.  This extends the published scheme, which assumes a deterministic
advection field.

The explicit operator is a list of terms (theta over samples, assembled
sparse block B): the diffusion fluctuation (eps_star, stiffness), one
skewed block (beta_k . grad phi_j, phi_i + delta_K b . grad phi_i) per
affine advection mode, and in the explicit scheme the full diffusion
and the mean operator with theta = 1.  Sample i sees
sum_k theta_k[i] B_k u_i, so both mode systems reduce to small dense
products and no step visits the samples one by one.
"""

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np
import scipy.sparse.linalg as spla

from . import diagnostics
from .errors import BlowupError, ConfigError, NearSingularError
from .mesh import DirichletCondition, assemble_blocks, assemble_load, \
    assemble_skewed, default_quadrature, directional_gradients
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
    c_expl: object                    # callable points or None
    b_expl: object                    # callable (x, omega) or None
    time_matrix: object               # mass + supg_mass
    modes: list                       # (theta, beta . grad phi at qp)
    terms: list                       # explicit operator, (theta, B)
    phi: np.ndarray = field(init=False)
    pw: np.ndarray = field(init=False)
    xq_flat: np.ndarray = field(init=False)
    norms: object = field(init=False)  # diagnostics.NormEvaluator

    def __post_init__(self):
        self.phi = self.quad.basis_values()
        self.pw = self.mesh.quad_weights(self.quad)
        self.xq_flat = self.mesh.quad_points(self.quad).reshape(-1, 2)
        self.norms = diagnostics.NormEvaluator(self)

    @property
    def has_explicit_eps(self):
        return bool(np.any(self.eps_expl != 0.0))

    @property
    def has_sample_loop(self):
        """Whether the full-order step evaluates explicit advection or
        reaction at the quadrature points (sample by sample for b)."""
        return self.c_expl is not None or self.b_expl is not None

    def forcing_qp(self, t):
        """Forcing at the quadrature points, (ne, nq), or None.

        Evaluated at the time level the step from t uses: t for the
        explicit scheme, t + dt otherwise.
        """
        if self.model.forcing is None:
            return None
        t_f = t if self.cfg.scheme == "explicit" else t + self.cfg.dt
        f = self.model.forcing(t_f, self.xq_flat)
        return np.asarray(f, dtype=float).reshape(self.pw.shape)


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
                or model.has_random_advection):
            raise ConfigError("the deterministic implicit scheme requires "
                              "coefficients without fluctuations")

    blocks = assemble_blocks(mesh, model.b_mean, model.c_mean, delta, quad)
    if analysis is None:
        analysis = analyze_reaction(model, mesh, space, quad)

    explicit = cfg.scheme == "explicit"
    if explicit:
        K_impl = None
        eps_expl = eps_full
        c_expl = model.c_mean
        b_expl = model.b_at
    else:
        K_impl = (eps_bar * blocks.stiffness + blocks.convection
                  + blocks.reaction
                  + blocks.supg_conv + blocks.supg_reaction)
        eps_expl = eps_star
        c_expl = None
        b_expl = model.b_fluct

    terms = [(eps_expl, blocks.stiffness)] if np.any(eps_expl != 0.0) \
        else []
    if explicit:
        terms.append((np.ones(space.count),
                      blocks.convection + blocks.reaction
                      + blocks.supg_conv + blocks.supg_reaction))
    modes = [(theta, directional_gradients(blocks, beta))
             for theta, beta in model.advection_modes(space)]
    terms += [(theta, assemble_skewed(blocks, vg)) for theta, vg in modes]

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
        c_expl=c_expl, b_expl=b_expl, time_matrix=time_matrix,
        modes=modes, terms=terms)


def _full_factors(state):
    Y_full = np.column_stack([np.ones(state.n_samples), state.Y])
    U_full = np.column_stack([state.U0, state.U])
    return U_full, Y_full


def step_deterministic_modes(state, ws):
    """Solve the R+1 implicit mode systems; returns (U_tilde, caches).

    Mode j of the explicit right-hand side is
    sum_k B_k U_full (Y_full^T diag(w theta_k) Y_full)[:, j].
    """
    U_full, Y_full = _full_factors(state)
    w = ws.space.weights

    rhs = ws.time_matrix @ U_full / ws.cfg.dt

    fqp = ws.forcing_qp(state.t)
    if fqp is not None:
        rhs[:, 0] += assemble_load(ws.blocks, fqp, skew=True)

    for theta, B in ws.terms:
        E = Y_full.T @ ((w * theta)[:, None] * Y_full)
        rhs -= B @ (U_full @ E)

    constrained = np.empty_like(rhs)
    constrained[:, 0] = ws.bc0.constrain_rhs(rhs[:, 0])
    for j in range(1, rhs.shape[1]):
        constrained[:, j] = ws.bc_hom.constrain_rhs(rhs[:, j])
    U_tilde = ws.lu.solve(constrained)
    if not np.all(np.isfinite(U_tilde)):
        raise ConfigError("deterministic mode solve returned non-finite "
                          "values")
    return U_tilde, (U_full, Y_full)


def step_stochastic_modes(state, U_tilde, ws, caches):
    """Solve the per-sample increment systems in the complement.

    caches is the second result of step_deterministic_modes.  Sample i
    of the explicit right-hand side is
    sum_k theta_k[i] (Um^T B_k U_full) Y_full[i].
    Returns (Y_tilde, dY, w_condition).
    """
    R = state.rank
    if R == 0:
        return state.Y.copy(), np.zeros_like(state.Y), 1.0
    U_full, Y_full = caches

    Um = U_tilde[:, 1:]
    What = Um.T @ (ws.Braw.T @ Um)
    cond = float(np.linalg.cond(What))
    if not np.isfinite(cond) or cond > ws.cfg.wcond_threshold:
        raise NearSingularError(
            f"mode coupling matrix condition {cond:.3e} exceeds "
            f"{ws.cfg.wcond_threshold:.1e}", condition=cond)

    rhs = np.zeros((state.n_samples, R))
    for theta, B in ws.terms:
        G = Um.T @ (B @ U_full)                        # (R, R+1)
        rhs -= theta[:, None] * (Y_full @ G.T)

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
