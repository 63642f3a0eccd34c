"""Random coefficient fields and the scalar analysis quantities.

A CoefficientModel bundles a random diffusion, a random advection
given as its mean plus affine modes, and a deterministic reaction and
forcing.  The analysis operations derive everything the stability
theory consumes: the shifted reaction field and its infimum, element
sup-norms of the reaction, the stabilization parameter policies, the
local Peclet number and the inverse-inequality constant.
"""

from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np
import scipy.sparse.linalg as spla

from .errors import ConfigError, SolverError
from .mesh import default_quadrature

__all__ = [
    "CoefficientModel",
    "ReactionAnalysis",
    "StabilizationParams",
    "rotating_body",
    "boundary_layer",
    "constant_adr",
    "analyze_reaction",
    "estimate_inverse_constant",
    "delta_coercivity",
    "delta_semi_implicit",
    "delta_experiment",
    "local_peclet",
    "check_moderate_stochasticity",
]


@dataclass
class CoefficientModel:
    """Coefficient fields of the random advection-diffusion-reaction problem.

    eps      : callable (N,p) samples -> (N,) positive diffusion values
    b_mean   : callable (n,2) points -> (n,2) mean advection
    b_modes  : affine advection modes ((theta_k, beta_k), ...): theta_k
               callable (N,p) samples -> (N,) with weighted mean zero,
               beta_k callable (n,2) points -> (n,2); the advection of
               sample omega is b_mean + sum_k theta_k(omega) beta_k.
               Every beta_k must be divergence free.
    c_mean   : None or callable points -> (n,) reaction (deterministic)
    div_b    : callable points -> (n,), analytic divergence of b_mean
               (never obtained by differencing); with divergence-free
               modes it is the divergence of every sample's advection
    forcing  : None or callable (t, points) -> (n,) deterministic source

    b_fluct(points, omega) evaluates the fluctuation of one sample from
    the modes.  It keeps the beta_k(points) of the last points array it
    was given, matched by identity, so the full-order step's one call
    per sample and step evaluates each beta_k once per step; points
    arrays passed to it are therefore treated as immutable.  c_fluct is
    always None: the reaction is deterministic, so that the shifted
    reaction mu stays deterministic.  The benchmark's tracer
    (bench/spans.py) assigns that attribute, so it goes only together
    with a change to the benchmark.
    """

    name: str
    eps: callable
    b_mean: callable
    b_modes: tuple = ()
    c_mean: callable = None
    div_b: callable = None
    forcing: callable = None
    c_fluct: callable = field(init=False, default=None, repr=False)
    # (points, beta_k(points) of every mode) of the last b_fluct call
    _beta_at: tuple = field(init=False, default=(None, ()), compare=False,
                            repr=False)

    def __post_init__(self):
        self.b_modes = tuple(self.b_modes)
        if self.div_b is None:
            self.div_b = lambda x: np.zeros(len(x))

    # -- sample-wise accessors -------------------------------------------

    def eps_values(self, space):
        vals = np.asarray(self.eps(space.samples), dtype=float)
        if vals.shape != (space.count,):
            raise ConfigError("eps must return one value per sample")
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
            raise ConfigError("diffusion values must be finite and positive")
        return vals

    def eps_split(self, space):
        """Mean diffusion and per-sample fluctuation (eps_bar, eps_star)."""
        vals = self.eps_values(space)
        bar = float(np.dot(space.weights, vals))
        return bar, vals - bar

    def eps_bounds(self, space):
        """(eps_hat, C_E) with eps_hat <= eps <= C_E eps_hat."""
        vals = self.eps_values(space)
        eps_hat = float(vals.min())
        return eps_hat, float(vals.max() / eps_hat)

    def advection_modes(self, space):
        """[(theta_k at every sample, beta_k)] of the advection modes."""
        out = []
        for theta, beta in self.b_modes:
            vals = np.asarray(theta(space.samples), dtype=float)
            if vals.shape != (space.count,) or not np.all(np.isfinite(vals)):
                raise ConfigError("an advection mode weight must give one "
                                  "finite value per sample")
            out.append((vals, beta))
        return out

    def b_fluct(self, x, omega):
        """Advection fluctuation sum_k theta_k(omega) beta_k(x); needs
        at least one mode."""
        omega = np.atleast_2d(omega)
        seen, betas = self._beta_at
        if seen is not x:
            betas = tuple(np.asarray(beta(x), dtype=float)
                          for _, beta in self.b_modes)
            self._beta_at = (x, betas)
        return reduce(add, (float(theta(omega)[0]) * b
                            for (theta, _), b in zip(self.b_modes, betas)))

    def b_at(self, x, omega=None):
        b = np.asarray(self.b_mean(x), dtype=float)
        if omega is not None and self.b_modes:
            b = b + np.asarray(self.b_fluct(x, omega), dtype=float)
        return b

    def c_at(self, x):
        c = np.zeros(len(x))
        if self.c_mean is not None:
            c = c + np.asarray(self.c_mean(x), dtype=float)
        return c

    @property
    def has_random_advection(self):
        return bool(self.b_modes)

    def validate(self, space, mesh, quad=None):
        """Check positivity of eps and zero-mean advection modes.

        The weighted mean of the fluctuation, sum_k E[theta_k] beta_k,
        must vanish at every quadrature point.
        """
        self.eps_bounds(space)
        if self.b_modes:
            quad = quad or default_quadrature()
            xq = mesh.quad_points(quad).reshape(-1, 2)
            acc = sum(float(np.dot(space.weights, theta))
                      * np.asarray(beta(xq), dtype=float)
                      for theta, beta in self.advection_modes(space))
            if np.max(np.abs(acc)) > 1e-10:
                raise ConfigError("advection fluctuation is not zero-mean")
        return self


@dataclass
class ReactionAnalysis:
    """Shifted reaction field and associated scalars.

    mu_tilde(x) = c - |c|/2 - div(b)/2, mu = mu_tilde + nu >= 0,
    nu = -min(inf mu_tilde, 0), mu0 = inf mu.  The reaction and the
    divergence do not depend on the sample, so infima and element
    sup-norms come from one scan over the quadrature points of mesh,
    which is all the discrete problem ever sees.  eps_star_sup and
    random_advection record which coefficients vary with the sample;
    the stability theorems assume some of them do not.
    """

    mu_tilde: callable
    nu: float
    mu: callable
    mu0: float
    c_sup_K: np.ndarray
    eps_star_sup: float
    eps_hat: float
    C_E: float
    random_advection: bool
    mesh: object


class StabilizationParams:
    """Per-element stabilization parameter, with the inverse constant C_I
    and the space dimension d that the bound policies read.

    Every policy here gives finite entries; `capped` clips them at a
    per-element cap (the runner caps the coercivity policy at h_K/4).
    """

    def __init__(self, delta_K, C_I=None, d=2):
        self.delta_K = np.asarray(delta_K, dtype=float)
        self.C_I = C_I
        self.d = d
        if np.any(self.delta_K < 0):
            raise ConfigError("delta_K must be nonnegative")

    def capped(self, cap_delta_K):
        """Clip delta_K at the given per-element cap."""
        return StabilizationParams(np.minimum(self.delta_K, cap_delta_K),
                                   self.C_I, self.d)


def analyze_reaction(model, mesh, space, quad=None):
    quad = quad or default_quadrature()
    xq = mesh.quad_points(quad)
    flat = xq.reshape(-1, 2)
    ne, nq = xq.shape[0], xq.shape[1]

    def mu_tilde(x):
        c = model.c_at(x)
        div = np.asarray(model.div_b(x), dtype=float)
        return c - 0.5 * np.abs(c) - 0.5 * div

    mt = mu_tilde(flat)
    if not np.all(np.isfinite(mt)):
        raise ConfigError("reaction analysis hit non-finite values")
    mt_min = float(mt.min())
    c_sup_K = np.abs(model.c_at(flat)).reshape(ne, nq).max(axis=1)

    nu = max(-min(mt_min, 0.0), 0.0)

    def mu(x):
        return mu_tilde(x) + nu

    mu0 = mt_min + nu
    if mu0 < -1e-12:
        raise ConfigError("shifted reaction came out negative")
    mu0 = max(mu0, 0.0)

    eps_hat, C_E = model.eps_bounds(space)
    _, eps_star = model.eps_split(space)
    return ReactionAnalysis(
        mu_tilde=mu_tilde, nu=nu, mu=mu, mu0=mu0, c_sup_K=c_sup_K,
        eps_star_sup=float(np.max(np.abs(eps_star))),
        eps_hat=eps_hat, C_E=C_E,
        random_advection=model.has_random_advection, mesh=mesh)


def estimate_inverse_constant(mesh, blocks):
    """Inverse-inequality constant C_I with grad-norm <= (C_I/h) L2-norm.

    C_I = h sqrt(lambda_max) where lambda_max is the largest generalized
    eigenvalue of (stiffness, mass) restricted to interior nodes, found
    by Lanczos iteration on the mass-preconditioned stiffness from a
    fixed random start, so C_I is reproducible.
    """
    interior = mesh.interior_index()
    A = blocks.stiffness[np.ix_(interior, interior)].tocsc()
    M = blocks.mass[np.ix_(interior, interior)].tocsc()
    v0 = np.random.default_rng(0).standard_normal(len(interior))
    try:
        lam = spla.eigsh(A, k=1, M=M, which="LA", v0=v0,
                         maxiter=5000, tol=1e-10,
                         return_eigenvectors=False)
    except spla.ArpackNoConvergence as err:
        raise SolverError("largest generalized eigenvalue for the "
                          "inverse constant did not converge") from err
    # small inflation so random Rayleigh quotients stay below
    return mesh.h * np.sqrt(float(lam[0]) * (1.0 + 1e-6))


def delta_coercivity(mesh, analysis, params):
    """Largest delta_K admitted by the weak-coercivity lemma.

    Per element the minimum of 1/(2 |||c|||_K) and
    h_K^2/(2 d C_I^2 C_E^2 eps_hat).  The reaction constraint is
    inactive (+inf) without reaction, the diffusion constraint is
    always finite, so every entry is finite.
    """
    if params.C_I is None:
        raise ConfigError("diffusion constraint needs C_I")
    with np.errstate(divide="ignore"):
        b1 = np.where(analysis.c_sup_K > 0,
                      1.0 / (2.0 * analysis.c_sup_K), np.inf)
    b2 = mesh.h_K ** 2 / (2.0 * params.d * params.C_I ** 2
                          * analysis.C_E ** 2 * analysis.eps_hat)
    return StabilizationParams(np.minimum(b1, b2), params.C_I, params.d)


def delta_semi_implicit(mesh, analysis, params, dt):
    """delta_K bound guaranteeing semi-implicit norm stability."""
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if params.C_I is None:
        raise ConfigError("semi-implicit bound needs C_I")
    with np.errstate(divide="ignore"):
        b1 = np.where(analysis.c_sup_K > 0,
                      1.0 / (2.0 * analysis.c_sup_K), np.inf)
    b2 = mesh.h_K ** 2 / (2.0 * analysis.eps_hat * params.C_I ** 2
                          * max(analysis.C_E ** 2, 1.0) * params.d)
    b3 = np.full_like(b1, 2.0 * dt)
    dk = 0.125 * np.minimum(np.minimum(b1, b2), b3)
    return StabilizationParams(dk, params.C_I, params.d)


def delta_experiment(mesh):
    """The h_K/4 policy used by the experiment presets."""
    return StabilizationParams(mesh.h_K / 4.0)


@dataclass
class PecletReport:
    peclet: np.ndarray            # (n_elements, N_C) per-sample maxima
    advection_dominated: bool
    max_peclet: float


def local_peclet(model, mesh, space, quad=None):
    """Per-element, per-sample local Peclet maxima |b| h_K / (2 eps)."""
    quad = quad or default_quadrature()
    xq = mesh.quad_points(quad)
    flat = xq.reshape(-1, 2)
    ne, nq = xq.shape[0], xq.shape[1]
    eps = model.eps_values(space)

    if not model.has_random_advection:
        bn = np.linalg.norm(model.b_at(flat), axis=1).reshape(ne, nq)
        bmax = bn.max(axis=1)
        pe = np.outer(bmax * mesh.h_K, 0.5 / eps)
    else:
        pe = np.empty((ne, space.count))
        for i, omega in enumerate(space.samples):
            bn = np.linalg.norm(model.b_at(flat, omega), axis=1)
            bmax = bn.reshape(ne, nq).max(axis=1)
            pe[:, i] = bmax * mesh.h_K / (2.0 * eps[i])
    mx = float(pe.max())
    return PecletReport(pe, mx > 1.0, mx)


@dataclass
class StochasticityReport:
    eps_margin: float

    @property
    def ok(self):
        return self.eps_margin >= 0


def check_moderate_stochasticity(model, analysis, space):
    """Verify |eps_star| <= eps_hat/32 over the samples.

    The margin is the worst-case slack over samples; deterministic
    diffusion gives infinite margin.  The reaction is deterministic, so
    its half of the condition holds trivially.
    """
    _, eps_star = model.eps_split(space)
    if np.max(np.abs(eps_star)) <= 1e-14 * analysis.eps_hat:
        return StochasticityReport(np.inf)
    return StochasticityReport(float(np.min(analysis.eps_hat / 32.0
                                            - np.abs(eps_star))))


# -- built-in models -----------------------------------------------------

def rotating_body():
    """Rigid-rotation transport with a log-uniform random diffusion.

    Parameters y in [-1,1]^3; eps(y) = 10^(y1 - 16); the advection
    rotates about (0.5, 0.5) and is divergence free; no reaction.
    """
    def eps(samples):
        return 10.0 ** (np.atleast_2d(samples)[:, 0] - 16.0)

    def b_mean(x):
        return np.column_stack([0.5 - x[:, 1], x[:, 0] - 0.5])

    return CoefficientModel(name="rotating_body", eps=eps, b_mean=b_mean)


def boundary_layer(space):
    """Skew advection toward the top-right corner, random strength.

    Parameters y in [5000,6000] x [-1,1]^3; eps = 1/y1; the advection is
    (1,1) plus one affine mode (y2 - k)(x2, x1) with k the weighted mean
    of y2, so the fluctuation is zero-mean by construction and divergence
    free.
    """
    k = float(np.dot(space.weights, space.samples[:, 1]))

    def eps(samples):
        return 1.0 / np.atleast_2d(samples)[:, 0]

    def b_mean(x):
        return np.ones((len(x), 2))

    def theta(samples):
        return np.atleast_2d(samples)[:, 1] - k

    def beta(x):
        return np.column_stack([x[:, 1], x[:, 0]])

    return CoefficientModel(name="boundary_layer", eps=eps, b_mean=b_mean,
                            b_modes=((theta, beta),))


def constant_adr(eps_value=1.0, b=(1.0, 0.0), c=0.0, f=None,
                 eps_fn=None):
    """Constant-coefficient model; eps_fn overrides the scalar diffusion.

    f may be a constant or a callable (t, points) -> (n,).
    """
    if eps_fn is None:
        def eps(samples):
            return np.full(len(np.atleast_2d(samples)), float(eps_value))
    else:
        eps = eps_fn

    bvec = np.asarray(b, dtype=float)

    def b_mean(x):
        return np.broadcast_to(bvec, (len(x), 2)).copy()

    c_mean = None
    if c:
        def c_mean(x, _c=float(c)):
            return np.full(len(x), _c)

    forcing = None
    if f is not None:
        if callable(f):
            forcing = f
        else:
            def forcing(t, x, _f=float(f)):
                return np.full(len(x), _f)

    return CoefficientModel(name="constant_adr", eps=eps, b_mean=b_mean,
                            c_mean=c_mean, forcing=forcing)
