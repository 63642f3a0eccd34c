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
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import diagnostics
from .errors import BlowupError, ConfigError, NearSingularError, \
    SolverError, SupgDlrError
from .mesh import DirichletCondition, assemble_blocks, assemble_load, \
    assemble_skewed, assemble_streamline, directional_gradients
from .sampling import expectation, project_complement, \
    weighted_orthonormalize
from .lowrank import DlrState
from .coefficients import analyze_reaction

__all__ = [
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
    dt: float
    tangent_residual: bool            # whether step reports it
    analysis: object
    blocks: object
    Braw: object
    bc: DirichletCondition
    lu: object
    b_expl: object                    # callable (x, omega) or None
    terms: list                       # explicit operator, (theta, B)
    b_forms: list                     # energy norm, (psi, S_kl)
    mu_mass: object                   # (mu phi_j, phi_i), None if mu = 0
    # always None, the reaction is implicit; the benchmark's tracer
    # (bench/spans.py) assigns it, so it goes only with a benchmark change
    c_expl: object = None
    pw: np.ndarray = field(init=False)
    xq_flat: np.ndarray = field(init=False)

    def __post_init__(self):
        self.pw = self.mesh.quad_weights
        self.xq_flat = self.mesh.quad_points.reshape(-1, 2)

    @property
    def has_explicit_eps(self):
        return bool(np.any(self.analysis.eps_star != 0.0))

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
        f = self.model.forcing(t + self.dt, self.xq_flat)
        return np.asarray(f, dtype=float).reshape(self.pw.shape)


def prepare_workspace(model, mesh, space, dt, delta, bc=None,
                      tangent_residual=False, analysis=None):
    """Assemble and factorize everything one run of `step` needs.

    dt is the time step, delta the per-element stabilization parameter
    (all zeros for standard Galerkin), which assemble_blocks checks, and
    bc the Dirichlet values by boundary tag, zero on the whole boundary
    when None; with tangent_residual every step reports its tangent
    residual.  Every sparse form of the run is assembled here, the
    energy-norm forms that diagnostics.step_report reads included.
    analysis is analyze_reaction(model, mesh, space), computed here
    when not given; every sampled coefficient comes from it.
    """
    if not 0 < dt < np.inf:
        raise ConfigError("dt must be positive and finite")
    if analysis is None:
        analysis = analyze_reaction(model, mesh, space)
    eps_star = analysis.eps_star
    blocks = assemble_blocks(mesh, analysis.b_mean, analysis.c_mean, delta)

    terms = [(eps_star, blocks.stiffness)] if np.any(eps_star != 0.0) \
        else []
    modes = [(theta, directional_gradients(mesh, beta))
             for theta, beta in analysis.modes]
    terms += [(theta, assemble_skewed(blocks, vg)) for theta, vg in modes]

    # every form shares the mesh's CSR pattern, so Braw sums their data
    # (scipy divides a matrix by a scalar through its reciprocal)
    stiffness = blocks.stiffness
    Braw = sp.csr_matrix((blocks.skewed_mass.data * (1 / dt)
                          + analysis.eps_bar * stiffness.data
                          + blocks.transport.data,
                          stiffness.indices, stiffness.indptr),
                         shape=stiffness.shape)
    bc = DirichletCondition(Braw, mesh,
                            {"boundary": 0.0} if bc is None else bc)
    # bc.matrix = D Braw D + diag has a symmetric pattern: minimum degree
    # on A^T + A fills less than the default COLAMD, and relax=1 keeps
    # the solves with the small supernodes of that order fast
    lu = spla.splu(bc.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1)

    mu_mass = diagnostics._mu_mass(mesh, analysis.mu)
    # mode 0 is the mean field, theta_0 = 1; the forms S_kl for k <= l,
    # (k, l) != (0, 0), the off-diagonal pairs counted twice
    modes = [(np.ones(space.count), blocks.bg_at_qp)] + modes \
        if modes else []
    b_forms = [(theta_k * theta_l * (1.0 if k == l else 2.0),
                assemble_streamline(blocks, vg_k, vg_l))
               for k, (theta_k, vg_k) in enumerate(modes)
               for l, (theta_l, vg_l) in enumerate(modes)
               if l >= max(k, 1)]
    return StepWorkspace(
        model=model, mesh=mesh, space=space, dt=dt,
        tangent_residual=tangent_residual, analysis=analysis,
        blocks=blocks, Braw=Braw, bc=bc, lu=lu,
        b_expl=model.b_fluct if model.b_modes else None,
        terms=terms, b_forms=b_forms, mu_mass=mu_mass)


def step_deterministic_modes(state, ws):
    """Solve the R+1 implicit mode systems; returns (U_tilde, caches).

    Mode j of the explicit right-hand side is
    sum_k (B_k U_full) (Y_full^T diag(w theta_k) Y_full)[:, j]; caches
    carries the products B_k U_full and the solved right-hand side on
    to the stochastic step.  The products come from state.product, and
    ws.terms lists the stiffness first, so the diffusion term reads the
    product the state's step report took.
    """
    U_full, Y_full = state.U_full, state.Y_full
    w = ws.space.weights

    rhs = ws.blocks.skewed_mass @ U_full
    rhs /= ws.dt

    fqp = ws.forcing_qp(state.t)
    if fqp is not None:
        rhs[:, 0] += assemble_load(ws.blocks, fqp)

    BU = [state.product(B) for _, B in ws.terms]
    for (theta, _), BU_k in zip(ws.terms, BU):
        E = Y_full.T @ ((w * theta)[:, None] * Y_full)
        rhs -= BU_k @ E

    # the mean mode carries the boundary values, the fluctuation modes
    # vanish on the Dirichlet boundary
    rhs[:, 0] = ws.bc.constrain_rhs(rhs[:, 0])
    rhs[ws.bc.dofs, 1:] = 0.0
    U_tilde = ws.lu.solve(rhs)
    if not np.all(np.isfinite(U_tilde)):
        raise SolverError("deterministic mode solve returned non-finite "
                          "values")
    return U_tilde, (BU, rhs)


def step_stochastic_modes(state, U_tilde, ws, caches):
    """Solve the per-sample increment systems in the complement.

    caches must be the second result of the step_deterministic_modes
    call that produced U_tilde.  Sample i of the explicit right-hand
    side is sum_k theta_k[i] (Um^T B_k U_full) Y_full[i].  The
    fluctuation modes Um vanish on the Dirichlet dofs and satisfy
    Braw Um = rhs[:, 1:] on every other row, so the mode coupling matrix
    What = Um^T Braw^T Um is read from that solved right-hand side.
    The increments solve dY What = rhs, applied from the right.
    Returns (Y_tilde, dY, w_condition).
    """
    R = state.rank
    if R == 0:
        return state.Y.copy(), np.zeros_like(state.Y), 1.0
    BU, solved_rhs = caches

    Um = U_tilde[:, 1:]
    What = solved_rhs[:, 1:].T @ Um
    sv = np.linalg.svd(What, compute_uv=False)       # descending
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > WCOND_THRESHOLD:
        raise NearSingularError(
            f"mode coupling matrix condition {cond:.3e} exceeds "
            f"{WCOND_THRESHOLD:.1e}", condition=cond)

    rhs = np.zeros((state.n_samples, R))
    for (theta, _), BU_k in zip(ws.terms, BU):
        G = Um.T @ BU_k                                # (R, R+1)
        rhs -= theta[:, None] * (state.Y_full @ G.T)

    if not np.any(rhs):
        dY = np.zeros_like(state.Y)
    else:
        rhs = project_complement(rhs, state.Y, ws.space)
        dY = rhs @ np.linalg.inv(What)
    return state.Y + dY, dY, cond


def step(state, ws):
    """Advance one time step; returns (new state, StepReport).

    The new state's [U0 | U] is U_tilde times one (R+1) x (R+1) matrix:
    the means of Y_tilde fold into the mean mode, and the fluctuation
    modes take the orthonormalization's T^T.
    """
    U_tilde, caches = step_deterministic_modes(state, ws)
    Y_tilde, dY, wcond = step_stochastic_modes(state, U_tilde, ws, caches)

    w = ws.space.weights
    defect_cross = float(np.max(np.abs((dY * w[:, None]).T @ state.Y))) \
        if state.rank else 0.0

    means = expectation(Y_tilde, ws.space)
    Y_new, T = weighted_orthonormalize(Y_tilde - means, ws.space)
    recombine = np.zeros((state.rank + 1, state.rank + 1))
    recombine[0, 0] = 1.0
    recombine[1:, 0] = means
    recombine[1:, 1:] = T.T
    new_state = DlrState(U_tilde @ recombine, Y_new, t=state.t + ws.dt)

    tangent = None
    if ws.tangent_residual:
        tangent = diagnostics.check_tangent_residual(
            ws, state, U_tilde, Y_tilde)

    report = diagnostics.step_report(new_state, ws, wcond=wcond,
                                     defect_cross=defect_cross,
                                     tangent_residual=tangent)
    return new_state, report


def _time_loop(initial, ws, T, advance, measure, l2_of, callbacks):
    """The time loop of `run` and `fom.fom_run`.

    Checks that ws.dt divides [initial.t, T], records
    measure(initial), then calls advance(state) -> (state, record) once
    per step.  A record whose l2_of is not finite or exceeds
    BLOWUP_FACTOR times the initial one (at least 1) raises BlowupError
    carrying the step index; any other SupgDlrError from advance gets
    the step index as its step_index attribute unless it has one.
    Every record, the initial one included, is passed on as
    cb(state, record).  Returns (state, list of records).
    """
    t0 = initial.t
    dt = ws.dt
    if not t0 < T < np.inf:
        raise ConfigError("final time must be finite and exceed the "
                          "initial time")
    n_steps = int(round((T - t0) / dt))
    if abs(n_steps * dt - (T - t0)) > 1e-9 * (T - t0):
        raise ConfigError("dt does not divide the time interval")

    state = initial
    records = [measure(state)]
    ref = max(l2_of(records[0]), 1.0)
    for cb in callbacks:
        cb(state, records[0])
    for n in range(n_steps):
        try:
            state, record = advance(state)
        except SupgDlrError as err:
            if getattr(err, "step_index", None) is None:
                err.step_index = n + 1
            raise
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

    Each callback is called as cb(state, report).
    """
    def advance(state):
        return step(state, ws)   # looked up per call, so wrappers apply

    return _time_loop(initial, ws, T, advance,
                      lambda state: diagnostics.step_report(state, ws),
                      attrgetter("l2"), callbacks)
