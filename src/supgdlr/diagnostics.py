"""Norms, oscillation metrics, structural checkers and bound ledgers.

Everything here is read-only with respect to the solver state: norms of
low-rank or full-order fields, the stabilized energy norm, the max-min
oscillation metric, randomized weak-coercivity checks, the tangent-space
residual of one discrete step, and the norm-stability bound ledger.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .coefficients import check_moderate_stochasticity, \
    delta_coercivity, delta_semi_implicit
from .mesh import QUAD_POINTS, _form
from .sampling import project_complement

__all__ = [
    "StepReport",
    "BoundLedger",
    "l2_norm",
    "md_metric",
    "range_excess",
    "check_coercivity",
    "check_tangent_residual",
    "evaluate_bounds",
    "forcing_norms",
    "step_report",
    "write_reports_csv",
    "write_ledgers_csv",
]


@dataclass
class StepReport:
    """Per-step norms and structural defects."""

    t: float
    l2: float
    grad: float
    supg: float
    mu_half: float
    bconv: float
    wtilde_cond: float
    defect_gram: float
    defect_mean: float
    defect_cross: float
    tangent_residual: float = None

    CSV_COLUMNS = ("t", "l2", "grad", "supg", "mu_half", "bconv",
                   "wtilde_cond", "defect_gram", "defect_mean",
                   "defect_cross", "tangent_residual")

    def csv_row(self):
        vals = [self.t, self.l2, self.grad, self.supg, self.mu_half,
                self.bconv, self.wtilde_cond, self.defect_gram,
                self.defect_mean, self.defect_cross]
        row = [f"{v:.17g}" for v in vals]
        row.append("" if self.tangent_residual is None
                   else f"{self.tangent_residual:.17g}")
        return row


def _colwise(F, u):
    """Column-wise quadratic form: entry r is u[:, r]^T F u[:, r].

    For fields with a column per sample, where einsum's inner loop runs
    along the many columns.  The full-order step takes it per chunk of
    columns and l2_norm over all of them, and the two must agree bit
    for bit, so every such field goes through this one reduction.
    """
    return np.einsum("kr,kr->r", u, F @ u)


def _factor_colwise(U_full, FU):
    """Entry [..., r] is U_full[:, r] . FU[..., :, r], one BLAS dot per
    column, for FU an (N_h, R+1) product or a stack of them.

    For the few long columns of a low-rank factor, where einsum's inner
    loop would run along a row of R+1 entries.
    """
    return (U_full.T[:, None, :]
            @ np.swapaxes(FU, -1, -2)[..., None])[..., 0, 0]


def _mu_mass(mesh, mu):
    """(mu phi_j, phi_i) for the shifted reaction mu, or None when mu
    vanishes at every quadrature point."""
    xq = mesh.quad_points
    mq = np.asarray(mu(xq.reshape(-1, 2)), dtype=float).reshape(xq.shape[:2])
    if not np.any(mq):
        return None
    phi = QUAD_POINTS[None]
    return _form(mesh, phi, phi, weight=mq)


def l2_norm(fields, mass, space):
    """Weighted space-probability L2 norm of an (N_h, N_C) field matrix;
    low-rank states are measured by step_report."""
    sq = float(space.weights @ _colwise(mass, fields))
    return float(np.sqrt(max(sq, 0.0)))


def md_metric(field):
    """Oscillation indicator: max minus min of the nodal values."""
    field = np.asarray(field, dtype=float)
    if field.size == 0:
        raise ConfigError("empty field")
    return float(field.max() - field.min())


def range_excess(field, lo, hi):
    """How far the nodal values rise above hi plus drop below lo.

    With lo, hi the initial extremes of a realization this measures
    spurious oscillation: pure transport cannot leave the initial range.
    """
    field = np.asarray(field, dtype=float)
    return max(0.0, float(field.max()) - hi) \
        + max(0.0, lo - float(field.min()))


def step_report(state, ws, wcond=1.0, defect_cross=0.0,
                tangent_residual=None):
    """Norms of a low-rank state and defects of its stochastic basis.

    The energy norm is
    eps_hat |grad u|^2 + sum_K delta_K |b.grad u|^2_K + |mu^(1/2) u|^2
    with b the advection of each sample and the deterministic reaction
    mu.  Each term is a quadratic form of an assembled matrix (mass,
    stiffness, supg_conv, ws.mu_mass) summed over the columns of the
    state's U_full = [U0, U], as Y_full = [1, Y] is weighted
    orthonormal.  The matrices' products with U_full are row blocks of
    the state's one product with ws.stack (DlrState.product), which the
    step from the state reuses, as it reuses the Grams read here.
    The advection of sample i is b_0 + sum_k theta_k[i] b_k, with b_0
    the mean field and b_k the divergence-free affine modes (theta_0 =
    1).  Its streamline term adds the forms S_kl = sum_K delta_K (b_l .
    grad phi_j, b_k . grad phi_i)_K of ws.b_forms weighted by Y_full^T
    diag(w psi_kl) Y_full; S_00 is supg_conv.  No sample is visited.
    """
    U_full = state.U_full
    FU = state.product(ws.stack)
    # the blocks of mass, stiffness, supg_conv and mu_mass are adjacent
    l2sq, gradsq, bsq, *musq = _factor_colwise(
        U_full, FU[ws.MASS:ws.MU_MASS + (ws.mu_mass is not None)]
    ).sum(axis=-1).tolist()
    for weights, scale, block in ws.b_forms:
        bsq += scale * float(((U_full.T @ FU[block])
                              * state.gram(weights)).sum())
    bsq = max(bsq, 0.0)
    musq = max(musq[0], 0.0) if musq else 0.0
    supgsq = ws.analysis.eps_hat * gradsq + bsq + musq
    if state.rank:
        g, means = state.basis(ws.space.weights)
        defect_gram = float(np.abs(g - np.eye(state.rank)).max())
        defect_mean = float(np.abs(means).max())
    else:
        defect_gram = defect_mean = 0.0
    return StepReport(
        t=state.t, l2=float(np.sqrt(max(l2sq, 0.0))),
        grad=float(np.sqrt(max(gradsq, 0.0))),
        supg=float(np.sqrt(max(supgsq, 0.0))),
        mu_half=float(np.sqrt(musq)), bconv=float(np.sqrt(bsq)),
        wtilde_cond=float(wcond), defect_gram=defect_gram,
        defect_mean=defect_mean, defect_cross=float(defect_cross),
        tangent_residual=tangent_residual)


@dataclass
class CoercivityReport:
    ok: bool
    worst_margin: float
    violations: int
    trials: int
    seed: int


def check_coercivity(analysis, blocks, space, trials=500, seed=0):
    """Randomized check of the weak-coercivity inequality.

    Draws random interior nodal fields (one column per sample) and
    verifies a(u,u) >= 1/2 |u|_SUPG^2 - nu |u|^2 with slack above
    -1e-10 relative to the magnitude of the tested quantities.  Every
    term is a column-wise quadratic form of an assembled matrix; a(u,u)
    of sample i is eps_i (stiffness) + transport.  Supports random
    diffusion; random advection would need per-sample assembly and is
    rejected.
    """
    if analysis.random_advection:
        raise ConfigError("coercivity checker needs deterministic "
                          "advection")
    mesh = blocks.mesh
    eps = analysis.eps
    w = space.weights
    interior = mesh.interior_index()
    mu_mass = _mu_mass(mesh, analysis.mu)

    rng = np.random.default_rng(seed)
    worst = np.inf
    violations = 0
    for _ in range(trials):
        u = np.zeros((mesh.n_vertices, space.count))
        u[interior] = rng.standard_normal((len(interior), space.count))
        colA = _colwise(blocks.stiffness, u)
        a_val = float(w @ (eps * colA + _colwise(blocks.transport, u)))
        musq = 0.0 if mu_mass is None else float(w @ _colwise(mu_mass, u))
        supgsq = analysis.eps_hat * float(w @ colA) \
            + float(w @ _colwise(blocks.supg_conv, u)) + musq
        l2sq = float(w @ _colwise(blocks.mass, u))
        slack = a_val - 0.5 * supgsq + analysis.nu * l2sq
        scale = max(abs(a_val), 0.5 * supgsq, 1.0)
        rel = slack / scale
        worst = min(worst, rel)
        if rel < -1e-10:
            violations += 1
    return CoercivityReport(ok=violations == 0, worst_margin=worst,
                            violations=violations, trials=trials,
                            seed=seed)


def check_tangent_residual(ws, state_n, U_tilde, Y_tilde):
    """Max relative defect of one step over the full tangent test space.

    Tests the discrete equation of the step (implicit part on the new
    iterate, explicit part on the old) against every nodal test function
    paired with the old stochastic modes, and against the new
    deterministic modes paired with every unit test function in the
    complement of span{1, Y}: the supremum over those is the weighted
    norm of the tested residual's projection onto the complement, so no
    basis of it is built.  On interior rows the full-order step solves
    that equation exactly, and the fluctuation modes vanish on Dirichlet
    rows, so the residual is Braw applied to the difference from one
    full-order step.
    """
    from .fom import FomState, fom_step

    w = ws.space.weights
    un1 = U_tilde[:, :1] + U_tilde[:, 1:] @ Y_tilde.T
    exact = fom_step(FomState(state_n.dense(), t=state_n.t), ws).fields

    res = ws.Braw @ (un1 - exact)
    scale = max(float(np.max(np.abs(ws.Braw @ un1))), 1e-300)

    interior = ws.mesh.interior_index()
    tested_nodes = (res * w[None, :]) @ state_n.Y_full
    d1 = float(np.max(np.abs(tested_nodes[interior]))) \
        if len(interior) else 0.0

    if state_n.rank:
        proj = U_tilde[:, 1:].T @ res                # (R, N_C)
        perp = project_complement(proj.T, state_n.Y, ws.space)
        d2 = float(np.sqrt(np.max(w @ perp ** 2)))
    else:
        d2 = 0.0
    return max(d1, d2) / scale


@dataclass
class BoundLedger:
    """Outcome of one norm-stability bound evaluation."""

    theorem: str
    case: str
    applicable: bool
    reason: str
    left: float
    right: float
    margin: float
    passed: bool
    constants: dict = field(default_factory=dict)

    CSV_COLUMNS = ("theorem", "case", "applicable", "reason", "left",
                   "right", "margin", "passed")

    def csv_row(self):
        return [self.theorem, self.case, str(self.applicable),
                self.reason, f"{self.left:.17g}", f"{self.right:.17g}",
                f"{self.margin:.17g}", str(self.passed)]


def _not_applicable(theorem, case, reason):
    return BoundLedger(theorem=theorem, case=case, applicable=False,
                       reason=reason, left=np.nan, right=np.nan,
                       margin=np.nan, passed=False)


def forcing_norms(ws, t0, n_steps):
    """L2 norms of the forcing at the times each step uses."""
    if ws.model.forcing is None:
        return np.zeros(n_steps)
    out = np.empty(n_steps)
    pw = np.ascontiguousarray(ws.pw)     # einsum sums in layout order
    for k in range(n_steps):
        f = ws.forcing_qp(t0 + k * ws.dt)
        out[k] = np.sqrt(np.einsum("eq,eq->", pw, f ** 2))
    return out


def _delta_reason(theorem, dk, analysis, mesh, C_I, dt):
    """Why delta_K breaks the bound the theorem puts on it, or None.

    The bound is min(dt/4, delta_coercivity) for im_stab and
    delta_semi_implicit for si_stab, as in the coercivity and
    semi_implicit policies.
    """
    if theorem == "im_stab":
        if np.any(dk > (1.0 + 1e-12) * dt / 4.0):
            return "delta_K exceeds dt/4"
        bound = delta_coercivity(mesh, analysis, C_I)
        name = "weak-coercivity bound (reaction and diffusion constraints)"
    else:
        bound = delta_semi_implicit(mesh, analysis, C_I, dt)
        name = ("semi-implicit bound (reaction, diffusion and time-step "
                "constraints)")
    excess = float(np.max(dk / bound))
    if excess > 1.0 + 1e-12:
        return f"delta_K exceeds the {name} {excess:.3g}-fold"
    return None


def check_bound_names(bounds):
    """Refuse (ConfigError) a (theorem, case) pair that names no bound."""
    for entry in bounds:
        if not isinstance(entry, (tuple, list)) or len(entry) != 2:
            raise ConfigError(f"bound {entry!r} is not a (theorem, case) "
                              "pair")
        theorem, case = entry
        if theorem not in ("im_stab", "si_stab"):
            raise ConfigError(f"unknown theorem {theorem!r}")
        if case not in ("i", "ii", "iii"):
            raise ConfigError(f"unknown case {case!r}")


def evaluate_bounds(reports, ws, bounds):
    """Evaluate norm-stability inequalities over a trajectory of ws.

    reports is the run of ws, the initial state included (index 0), and
    bounds is a sequence of (theorem, case) pairs; returns one
    BoundLedger per pair.  The facts the inequalities read come from
    the run: the reaction analysis, delta_K and dt of ws, T = N dt after
    N steps, the forcing norm of each step at the time level the scheme
    used, and the moderate-stochasticity margin.  The diffusion
    constraint on delta_K reads the mesh's inverse constant C_I, which
    a bound delta policy has already computed.  Both theorems assume a
    deterministic advection field, the implicit one (im_stab) also
    deterministic diffusion, and the semi-implicit one (si_stab)
    moderate stochasticity.  Preconditions that fail yield a not-applicable
    ledger, not a silent pass.  Reports that do not step by ws.dt
    raise ConfigError.
    """
    check_bound_names(bounds)
    N = len(reports) - 1
    dt = ws.dt
    t = np.array([r.t for r in reports])
    if np.any(np.abs(np.diff(t) - dt) > 1e-9 * max(t[-1] - t[0], dt)):
        raise ConfigError(f"the reports do not step by the workspace's "
                          f"dt = {dt:.6g}")
    if N < 1:
        return [_not_applicable(theorem, case, "empty trajectory")
                for theorem, case in bounds]

    analysis = ws.analysis
    C_I = ws.mesh.inverse_constant
    fsq = float(np.sum(forcing_norms(ws, reports[0].t, N) ** 2))
    has_f = fsq > 0.0
    eps_margin = check_moderate_stochasticity(analysis)
    delta = ws.blocks.delta
    dmax = float(np.max(delta))
    u0sq = reports[0].l2 ** 2
    uNsq = reports[-1].l2 ** 2
    supg_sum = float(sum(r.supg ** 2 for r in reports[1:]))

    def ledger(theorem, case):
        if analysis.random_advection:
            return _not_applicable(theorem, case, "the advection is "
                                   "random; the theorems assume it "
                                   "deterministic")
        if (theorem == "im_stab"
                and analysis.eps_star_sup > 1e-14 * analysis.eps_hat):
            return _not_applicable(theorem, case, "the diffusion is "
                                   "random; the implicit theorem "
                                   "assumes it deterministic")
        delta_reason = _delta_reason(theorem, delta, analysis, ws.mesh,
                                     C_I, dt)
        if delta_reason:
            return _not_applicable(theorem, case, delta_reason)
        if theorem == "si_stab" and eps_margin < 0:
            return _not_applicable(
                theorem, case,
                "moderate-stochasticity conditions violated "
                f"(eps margin {eps_margin:.3e})")

        if case == "i" and not analysis.mu0 > 0:
            return _not_applicable(theorem, case, "mu0 is not positive")
        if case == "ii" and has_f:
            return _not_applicable(theorem, case, "forcing is not zero")
        if case in ("ii", "iii") and analysis.mu0 > 0:
            # cases (ii)/(iii) are stated for mu0 = 0 only
            return _not_applicable(theorem, case, "mu0 is positive")
        if case == "iii":
            if not has_f:
                return _not_applicable(theorem, case, "case iii expects "
                                       "nonzero forcing")
            if not dt < 1.0 / (1.0 + 2.0 * analysis.nu):
                return _not_applicable(theorem, case, "dt too large for "
                                       "the Gronwall case")

        if theorem == "im_stab":
            base = u0sq
            C1 = {"i": 0.5, "ii": 0.75, "iii": 0.5}[case]
        else:
            base = (u0sq + 0.125 * analysis.eps_hat * reports[0].grad ** 2
                    + 0.125 * reports[0].mu_half ** 2)
            C1 = {"i": 0.25, "ii": 0.5, "iii": 0.25}[case]

        constants = {"C1": C1, "delta_max": dmax}
        left = uNsq + dt * C1 * supg_sum
        if case == "i":
            C2 = 2.0 / analysis.mu0 + 4.0 * dmax
            right = base + dt * C2 * fsq
            constants["C2"] = C2
        elif case == "ii":
            right = base
            constants["C2"] = 0.0
            if theorem == "si_stab":
                # the proof balances terms to a 3/8 coercive fraction;
                # the statement claims 1/2 -- both margins are recorded,
                # the verdict follows the statement
                left_proof = uNsq + dt * 0.375 * supg_sum
                constants["C1_proof"] = 0.375
                constants["margin_proof"] = right - left_proof
        else:
            C3 = float(np.exp((1.0 + 2.0 * analysis.nu) * (N * dt)))
            right = C3 * (base + dt * fsq)
            constants["C3"] = C3

        margin = right - left
        passed = left <= right * (1.0 + 1e-10) + 1e-14
        return BoundLedger(theorem=theorem, case=case, applicable=True,
                           reason="", left=float(left), right=float(right),
                           margin=float(margin), passed=bool(passed),
                           constants=constants)

    return [ledger(theorem, case) for theorem, case in bounds]


def write_reports_csv(reports, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(StepReport.CSV_COLUMNS)
        for r in reports:
            writer.writerow(r.csv_row())


def write_ledgers_csv(ledgers, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BoundLedger.CSV_COLUMNS)
        for led in ledgers:
            writer.writerow(led.csv_row())
