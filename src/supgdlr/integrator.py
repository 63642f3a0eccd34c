"""Staggered semi-implicit time stepper for the stabilized low-rank scheme.

One step solves the deterministic modes with the mean operator
implicit and the fluctuations explicit, then the stochastic increments
in the orthogonal complement of the current stochastic basis, and
finally re-orthonormalizes.  The forcing is taken at the new time level.
With deterministic coefficients the explicit part vanishes and the step
is implicit Euler; standard Galerkin is the same step with an all-zero
delta.

Stochastic advection is handled by the same mean/fluctuation split as
the diffusion: the mean field drives the implicit operator and the
streamline test skew, the fluctuation enters the explicit right-hand
side.  This extends the published scheme, which assumes a deterministic
advection field.

The explicit operator is a list of terms (theta over samples, assembled
sparse block B): the diffusion fluctuation (eps_star, stiffness) and
one skewed block (beta_k . grad phi_j, phi_i + delta_K b . grad phi_i)
per affine advection mode.  Sample i sees sum_k theta_k[i] B_k u_i, so
both mode systems reduce to small dense products and no step visits
the samples one by one.
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

# A projected mode-coupling matrix with a larger condition number
# stops the run with NearSingularError.
WCOND_THRESHOLD = 1e12
# A norm above this multiple of the initial one (at least 1) stops the
# run with BlowupError.
BLOWUP_FACTOR = 1e8


@dataclass
class SchemeConfig:
    """Time-stepping settings for one run.

    delta is a StabilizationParams or a per-element array; an all-zero
    delta gives standard Galerkin.
    """

    dt: float
    delta: object = None
    bc: dict = field(default_factory=lambda: {"boundary": 0.0})
    compute_tangent_residual: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.delta is None:
            raise ConfigError("delta is required (all zeros for standard "
                              "Galerkin)")


@dataclass(eq=False)
class StepWorkspace:
    """Factorized operators and caches shared by every step of a run.

    The constrained implicit matrix is identical for all modes (only
    right-hand sides differ between the mean mode and the homogeneous
    fluctuation modes) and for all steps, so `prepare_workspace`
    factors it once per run, with a minimum-degree column order on the
    pattern of A^T + A, and that LU serves every mode and step.
    Braw = skewed_mass / dt + eps_bar stiffness + transport is that
    matrix before the Dirichlet rows are replaced.
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
    bc: DirichletCondition
    lu: object
    eps_expl: np.ndarray              # per-sample diffusion fluctuation
    b_expl: object                    # callable (x, omega) or None
    modes: list                       # (theta, beta . grad phi at qp)
    terms: list                       # explicit operator, (theta, B)
    # always None, the reaction is implicit; the benchmark's tracer
    # (bench/spans.py) assigns it, so it goes only with a benchmark change
    c_expl: object = None
    pw: np.ndarray = field(init=False)
    xq_flat: np.ndarray = field(init=False)
    norms: object = field(init=False)  # diagnostics.NormEvaluator

    def __post_init__(self):
        self.pw = self.mesh.quad_weights(self.quad)
        self.xq_flat = self.mesh.quad_points(self.quad).reshape(-1, 2)
        self.norms = diagnostics.NormEvaluator(self)

    @property
    def has_explicit_eps(self):
        return bool(np.any(self.eps_expl != 0.0))

    @property
    def has_sample_loop(self):
        """Whether the full-order step evaluates the explicit advection
        sample by sample at the quadrature points."""
        return self.b_expl is not None

    def forcing_qp(self, t):
        """Forcing at the quadrature points, (ne, nq), or None.

        Evaluated at t + dt, the time level the step from t uses.
        """
        if self.model.forcing is None:
            return None
        f = self.model.forcing(t + self.cfg.dt, self.xq_flat)
        return np.asarray(f, dtype=float).reshape(self.pw.shape)


def _resolve_delta(delta, mesh):
    dk = delta.delta_K if isinstance(delta, StabilizationParams) \
        else np.asarray(delta, dtype=float)
    if dk.shape != (mesh.n_triangles,):
        raise ConfigError("delta must have one entry per element")
    if not np.all(np.isfinite(dk)):
        raise ConfigError("delta contains non-finite entries")
    return dk


def prepare_workspace(model, mesh, space, cfg, analysis=None, quad=None):
    """Assemble and factorize everything one run of `step` needs."""
    quad = quad or default_quadrature()
    model.validate(space, mesh, quad)
    delta = _resolve_delta(cfg.delta, mesh)
    eps_bar, eps_star = model.eps_split(space)

    blocks = assemble_blocks(mesh, model.b_mean, model.c_mean, delta, quad)
    if analysis is None:
        analysis = analyze_reaction(model, mesh, space, quad)

    terms = [(eps_star, blocks.stiffness)] if np.any(eps_star != 0.0) \
        else []
    modes = [(theta, directional_gradients(blocks, beta))
             for theta, beta in model.advection_modes(space)]
    terms += [(theta, assemble_skewed(blocks, vg)) for theta, vg in modes]

    Braw = (blocks.skewed_mass / cfg.dt + eps_bar * blocks.stiffness
            + blocks.transport).tocsr()
    bc = DirichletCondition(Braw, mesh, cfg.bc)
    # bc.matrix = D Braw D + diag has a symmetric pattern: minimum degree
    # on A^T + A fills less than the default COLAMD, and relax=1 keeps
    # the solves with the small supernodes of that order fast
    lu = spla.splu(bc.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1)
    return StepWorkspace(
        model=model, mesh=mesh, space=space, cfg=cfg, analysis=analysis,
        quad=quad, delta=delta, blocks=blocks, Braw=Braw, bc=bc, lu=lu,
        eps_expl=eps_star, b_expl=model.b_fluct if model.b_modes else None,
        modes=modes, terms=terms)


def _full_factors(state):
    Y_full = np.column_stack([np.ones(state.n_samples), state.Y])
    U_full = np.column_stack([state.U0, state.U])
    return U_full, Y_full


def step_deterministic_modes(state, ws):
    """Solve the R+1 implicit mode systems; returns (U_tilde, caches).

    Mode j of the explicit right-hand side is
    sum_k (B_k U_full) (Y_full^T diag(w theta_k) Y_full)[:, j]; caches
    carries the products B_k U_full and the solved right-hand side on
    to the stochastic step.
    """
    U_full, Y_full = _full_factors(state)
    w = ws.space.weights

    rhs = ws.blocks.skewed_mass @ U_full / ws.cfg.dt

    fqp = ws.forcing_qp(state.t)
    if fqp is not None:
        rhs[:, 0] += assemble_load(ws.blocks, fqp, skew=True)

    BU = [B @ U_full for _, B in ws.terms]
    for (theta, _), BU_k in zip(ws.terms, BU):
        E = Y_full.T @ ((w * theta)[:, None] * Y_full)
        rhs -= BU_k @ E

    # the mean mode carries the boundary values, the fluctuation modes
    # vanish on the Dirichlet boundary
    rhs[:, 0] = ws.bc.constrain_rhs(rhs[:, 0])
    rhs[ws.bc.dofs, 1:] = 0.0
    U_tilde = ws.lu.solve(rhs)
    if not np.all(np.isfinite(U_tilde)):
        raise ConfigError("deterministic mode solve returned non-finite "
                          "values")
    return U_tilde, (Y_full, BU, rhs)


def step_stochastic_modes(state, U_tilde, ws, caches):
    """Solve the per-sample increment systems in the complement.

    caches must be the second result of the step_deterministic_modes
    call that produced U_tilde.  Sample i of the explicit right-hand
    side is sum_k theta_k[i] (Um^T B_k U_full) Y_full[i].  The
    fluctuation modes Um vanish on the Dirichlet dofs and satisfy
    Braw Um = rhs[:, 1:] on every other row, so the mode coupling matrix
    Um^T Braw^T Um is read from that solved right-hand side.
    Returns (Y_tilde, dY, w_condition).
    """
    R = state.rank
    if R == 0:
        return state.Y.copy(), np.zeros_like(state.Y), 1.0
    Y_full, BU, solved_rhs = caches

    Um = U_tilde[:, 1:]
    What = solved_rhs[:, 1:].T @ Um
    cond = float(np.linalg.cond(What))
    if not np.isfinite(cond) or cond > WCOND_THRESHOLD:
        raise NearSingularError(
            f"mode coupling matrix condition {cond:.3e} exceeds "
            f"{WCOND_THRESHOLD:.1e}", condition=cond)

    rhs = np.zeros((state.n_samples, R))
    for (theta, _), BU_k in zip(ws.terms, BU):
        G = Um.T @ BU_k                                # (R, R+1)
        rhs -= theta[:, None] * (Y_full @ G.T)

    if not np.any(rhs):
        dY = np.zeros_like(state.Y)
    else:
        rhs = project_complement(rhs, state.Y, ws.space)
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
    BLOWUP_FACTOR times the initial one (at least 1) raises BlowupError
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
        if not np.isfinite(l2) or l2 > BLOWUP_FACTOR * ref:
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
