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
from .coefficients import StabilizationParams, delta_coercivity, \
    delta_semi_implicit
from .mesh import _form, assemble_streamline
from .sampling import expectation, project_complement

__all__ = [
    "StepReport",
    "BoundLedger",
    "NormEvaluator",
    "l2_norm",
    "md_metric",
    "range_excess",
    "check_coercivity",
    "check_tangent_residual",
    "evaluate_bound",
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
    mode_norms: list
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
    """Column-wise quadratic form: entry r is u[:, r]^T F u[:, r]."""
    return np.einsum("kr,kr->r", u, F @ u)


def _mu_mass(blocks, mu):
    """(mu phi_j, phi_i) for the shifted reaction mu, or None when mu
    vanishes at every quadrature point."""
    xq = blocks.mesh.quad_points(blocks.quad)
    mq = np.asarray(mu(xq.reshape(-1, 2)), dtype=float).reshape(xq.shape[:2])
    if not np.any(mq):
        return None
    phi = blocks.quad.basis_values()[None]
    return _form(blocks, phi, phi, weight=mq)


class NormEvaluator:
    """Evaluates the L2 and stabilized energy norms of a low-rank state.

    The energy norm is
    eps_hat |grad u|^2 + sum_K delta_K |b.grad u|^2_K + |mu^(1/2) u|^2
    with b the advection of each sample and the deterministic reaction
    mu.  Each term is a quadratic form of an assembled matrix (mass,
    stiffness, supg_conv, the mu-weighted mass or None when mu = 0)
    summed over the columns of U_full = [U0, U], as Y_full = [1, Y] is
    weighted orthonormal.  The advection of sample i is
    b_0 + sum_k theta_k[i] b_k, with b_0 the mean field and b_k the
    divergence-free affine modes (theta_0 = 1).  Its streamline term
    adds the forms S_kl = sum_K delta_K (b_l . grad phi_j,
    b_k . grad phi_i)_K weighted by Y_full^T diag(w theta_k theta_l)
    Y_full; S_00 is supg_conv.  Every form is assembled here, once, and
    no sample is visited per evaluation.

    It keeps the parts of the workspace it reads, not the workspace: a
    reference back would make every workspace a reference cycle, whose
    arrays only the cyclic garbage collector frees.
    """

    def __init__(self, ws):
        self.blocks, self.space = ws.blocks, ws.space
        self.eps_hat = ws.analysis.eps_hat
        self.mu_mass = _mu_mass(ws.blocks, ws.analysis.mu)
        modes = [(np.ones(ws.space.count), ws.blocks.bg_at_qp)] \
            + ws.modes if ws.modes else []
        # (weight over samples, S_kl) for k <= l, (k, l) != (0, 0);
        # the off-diagonal pairs count twice
        self.b_forms = [
            (theta_k * theta_l * (1.0 if k == l else 2.0),
             assemble_streamline(ws.blocks, vg_k, vg_l))
            for k, (theta_k, vg_k) in enumerate(modes)
            for l, (theta_l, vg_l) in enumerate(modes)
            if l >= max(k, 1)]

    def norms(self, state):
        """Returns a dict of l2, grad, supg, mu_half, bconv, mode_norms."""
        U_full = np.column_stack([state.U0, state.U])
        colM = _colwise(self.blocks.mass, U_full)
        l2sq = float(colM.sum())
        gradsq = float(_colwise(self.blocks.stiffness, U_full).sum())
        bsq = float(_colwise(self.blocks.supg_conv, U_full).sum())
        if self.b_forms:
            w = self.space.weights
            Y_full = np.column_stack([np.ones(state.n_samples), state.Y])
            for psi, S in self.b_forms:
                Yw = Y_full.T @ ((w * psi)[:, None] * Y_full)
                bsq += float(np.sum((U_full.T @ (S @ U_full)) * Yw))
        bsq = max(bsq, 0.0)
        musq = 0.0 if self.mu_mass is None \
            else max(float(_colwise(self.mu_mass, U_full).sum()), 0.0)
        supgsq = self.eps_hat * gradsq + bsq + musq
        return {
            "l2": float(np.sqrt(max(l2sq, 0.0))),
            "grad": float(np.sqrt(max(gradsq, 0.0))),
            "supg": float(np.sqrt(max(supgsq, 0.0))),
            "mu_half": float(np.sqrt(musq)),
            "bconv": float(np.sqrt(bsq)),
            "mode_norms": [float(np.sqrt(max(c, 0.0))) for c in colM],
        }


def l2_norm(state, mass, space):
    """Weighted space-probability L2 norm of a full-order state.

    state is a FomState or an (N_h, N_C) field matrix; low-rank states
    are measured by NormEvaluator.
    """
    fields = state.fields if hasattr(state, "fields") else state
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
    nrm = ws.norms.norms(state)
    if state.rank:
        w = ws.space.weights
        g = (state.Y * w[:, None]).T @ state.Y
        defect_gram = float(np.max(np.abs(g - np.eye(state.rank))))
        defect_mean = float(np.max(np.abs(expectation(state.Y, ws.space))))
    else:
        defect_gram = defect_mean = 0.0
    return StepReport(
        t=state.t, l2=nrm["l2"], grad=nrm["grad"], supg=nrm["supg"],
        mu_half=nrm["mu_half"], bconv=nrm["bconv"],
        mode_norms=nrm["mode_norms"], wtilde_cond=float(wcond),
        defect_gram=defect_gram, defect_mean=defect_mean,
        defect_cross=float(defect_cross),
        tangent_residual=tangent_residual)


@dataclass
class CoercivityReport:
    ok: bool
    worst_margin: float
    violations: int
    trials: int
    seed: int


def check_coercivity(model, analysis, blocks, space, trials=500, seed=0):
    """Randomized check of the weak-coercivity inequality.

    Draws random interior nodal fields (one column per sample) and
    verifies a(u,u) >= 1/2 |u|_SUPG^2 - nu |u|^2 with slack above
    -1e-10 relative to the magnitude of the tested quantities.  Every
    term is a column-wise quadratic form of an assembled matrix; a(u,u)
    of sample i is eps_i (stiffness) + transport.  Supports random
    diffusion; random advection would need per-sample assembly and is
    rejected.
    """
    if model.has_random_advection:
        raise ConfigError("coercivity checker needs deterministic "
                          "advection")
    mesh = blocks.mesh
    eps = model.eps_values(space)
    w = space.weights
    interior = mesh.interior_index()
    mu_mass = _mu_mass(blocks, analysis.mu)

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

    n = ws.space.count
    w = ws.space.weights
    Y_full_n = np.column_stack([np.ones(n), state_n.Y])
    Yt_full = np.column_stack([np.ones(n), Y_tilde])
    un1 = U_tilde @ Yt_full.T
    exact = fom_step(FomState(state_n.dense(), t=state_n.t), ws).fields

    res = ws.Braw @ (un1 - exact)
    scale = max(float(np.max(np.abs(ws.Braw @ un1))), 1e-300)

    interior = ws.mesh.interior_index()
    tested_nodes = (res * w[None, :]) @ Y_full_n
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
    for k in range(n_steps):
        f = ws.forcing_qp(t0 + k * ws.cfg.dt)
        out[k] = np.sqrt(np.einsum("eq,eq->", ws.pw, f ** 2))
    return out


def _check_delta_preconditions(theorem, delta, analysis, dt):
    """Why delta_K breaks the bound the theorem puts on it, or None.

    The bound is min(dt/4, delta_coercivity) for im_stab and
    delta_semi_implicit for si_stab, as in the coercivity and
    semi_implicit policies.  Its diffusion constraint needs the C_I of
    a StabilizationParams.
    """
    if not isinstance(delta, StabilizationParams) or delta.C_I is None:
        return ("delta_K carries no inverse constant C_I, so the "
                "diffusion constraint cannot be checked")
    dk = delta.delta_K
    if theorem == "im_stab":
        if np.any(dk > (1.0 + 1e-12) * dt / 4.0):
            return "delta_K exceeds dt/4"
        bound = delta_coercivity(analysis.mesh, analysis, delta).delta_K
        name = "weak-coercivity bound (reaction and diffusion constraints)"
    else:
        bound = delta_semi_implicit(analysis.mesh, analysis, delta,
                                    dt).delta_K
        name = ("semi-implicit bound (reaction, diffusion and time-step "
                "constraints)")
    excess = float(np.max(dk / bound))
    if excess > 1.0 + 1e-12:
        return f"delta_K exceeds the {name} {excess:.3g}-fold"
    return None


def evaluate_bound(reports, theorem, case, analysis, delta, dt, T,
                   f_norms=None, stoch_report=None):
    """Evaluate one norm-stability inequality over a trajectory.

    reports must include the initial state (index 0).  f_norms is one
    forcing norm per step, at the time level the scheme used.  Both
    theorems assume a deterministic advection field; the implicit one
    (im_stab) also deterministic diffusion, and the semi-implicit one
    (si_stab) a moderate-stochasticity report.  delta is the
    StabilizationParams of the run, carrying the inverse constant C_I
    that its diffusion constraint needs.  Preconditions that fail or
    cannot be checked yield a not-applicable ledger, not a silent pass.
    """
    if theorem not in ("im_stab", "si_stab"):
        raise ConfigError(f"unknown theorem {theorem!r}")
    if case not in ("i", "ii", "iii"):
        raise ConfigError(f"unknown case {case!r}")
    N = len(reports) - 1
    if N < 1:
        return _not_applicable(theorem, case, "empty trajectory")
    if analysis.random_advection:
        return _not_applicable(theorem, case, "the advection is random; "
                               "the theorems assume it deterministic")
    if (theorem == "im_stab"
            and analysis.eps_star_sup > 1e-14 * analysis.eps_hat):
        return _not_applicable(theorem, case, "the diffusion is random; "
                               "the implicit theorem assumes it "
                               "deterministic")

    delta_reason = _check_delta_preconditions(theorem, delta, analysis, dt)
    if delta_reason:
        return _not_applicable(theorem, case, delta_reason)
    dmax = float(np.max(delta.delta_K))

    if theorem == "si_stab":
        if stoch_report is None:
            return _not_applicable(theorem, case,
                                   "moderate-stochasticity report missing")
        if not stoch_report.ok:
            return _not_applicable(
                theorem, case,
                "moderate-stochasticity conditions violated "
                f"(eps margin {stoch_report.eps_margin:.3e})")

    if f_norms is None:
        f_norms = np.zeros(N)
    f_norms = np.asarray(f_norms, dtype=float)
    if len(f_norms) != N:
        return _not_applicable(theorem, case,
                               "forcing norms do not match step count")
    fsq = float(np.sum(f_norms ** 2))
    has_f = fsq > 0.0

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
            return _not_applicable(theorem, case,
                                   "dt too large for the Gronwall case")

    u0sq = reports[0].l2 ** 2
    uNsq = reports[-1].l2 ** 2
    supg_sum = float(sum(r.supg ** 2 for r in reports[1:]))

    if theorem == "im_stab":
        base = u0sq
        C1 = {"i": 0.5, "ii": 0.75, "iii": 0.5}[case]
    else:
        base = (u0sq + 0.125 * analysis.eps_hat * reports[0].grad ** 2
                + 0.125 * reports[0].mu_half ** 2)
        C1 = {"i": 0.25, "ii": 0.5, "iii": 0.25}[case]

    constants = {"C1": C1, "delta_max": dmax}
    if case == "i":
        C2 = 2.0 / analysis.mu0 + 4.0 * dmax
        left = uNsq + dt * C1 * supg_sum
        right = base + dt * C2 * fsq
        constants["C2"] = C2
    elif case == "ii":
        left = uNsq + dt * C1 * supg_sum
        right = base
        constants["C2"] = 0.0
        if theorem == "si_stab":
            # the proof balances terms to a 3/8 coercive fraction; the
            # statement claims 1/2 -- both margins are recorded, the
            # verdict follows the statement
            left_proof = uNsq + dt * 0.375 * supg_sum
            constants["C1_proof"] = 0.375
            constants["margin_proof"] = right - left_proof
    else:
        C3 = float(np.exp((1.0 + 2.0 * analysis.nu) * T))
        left = uNsq + dt * C1 * supg_sum
        right = C3 * (base + dt * fsq)
        constants["C3"] = C3

    margin = right - left
    passed = left <= right * (1.0 + 1e-10) + 1e-14
    return BoundLedger(theorem=theorem, case=case, applicable=True,
                       reason="", left=float(left), right=float(right),
                       margin=float(margin), passed=bool(passed),
                       constants=constants)


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
