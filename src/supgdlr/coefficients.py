"""Random coefficient fields and the scalar analysis quantities.

A CoefficientModel bundles a random diffusion, a random advection
given as its mean plus affine modes, and a deterministic reaction and
forcing.  analyze_reaction samples it once per problem; its
ReactionAnalysis holds the sampled values and the shifted reaction,
from which the other operations derive what the stability theory
consumes: the per-element stabilization parameter delta_K of each
policy, the largest local Peclet number and the moderate-stochasticity
margin.
"""

from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .errors import ConfigError

__all__ = [
    "CoefficientModel",
    "ReactionAnalysis",
    "rotating_body",
    "boundary_layer",
    "constant_adr",
    "analyze_reaction",
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
    b_mean   : callable (n,2) points -> (n,2) mean advection, divergence
               free
    b_modes  : affine advection modes ((theta_k, beta_k), ...): theta_k
               callable (N,p) samples -> (N,) with weighted mean zero,
               beta_k callable (n,2) points -> (n,2); the advection of
               sample omega is b_mean + sum_k theta_k(omega) beta_k.
               Every beta_k must be divergence free.
    c_mean   : None or callable points -> (n,) reaction (deterministic)
    forcing  : None or callable (t, points) -> (n,) deterministic source

    The fields are sampled once per problem, by analyze_reaction.
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
    forcing: callable = None
    c_fluct: callable = field(init=False, default=None, repr=False)
    # (points, beta_k(points) of every mode) of the last b_fluct call
    _beta_at: tuple = field(init=False, default=(None, ()), compare=False,
                            repr=False)

    def __post_init__(self):
        self.b_modes = tuple(self.b_modes)

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


@dataclass
class ReactionAnalysis:
    """The sampled coefficients and the scalars the stability theory reads.

    mu_tilde(x) = c - |c|/2 (every advection is divergence free),
    mu = mu_tilde + nu >= 0, nu = -min(inf mu_tilde, 0), mu0 = inf mu.
    The reaction does not depend on the sample, so infima and element
    sup-norms come from one scan over the quadrature points of mesh,
    which is all the discrete problem ever sees.  eps holds the
    diffusion at every sample, eps_bar its weighted mean and eps_star
    the fluctuation eps - eps_bar, with eps_hat <= eps <= C_E eps_hat.
    The fields at the quadrature points: b_mean (ne, nq, 2), c_mean
    (ne, nq) or None without reaction, and modes, (theta_k at every
    sample, beta_k at the points) per advection mode.  The stability
    theorems assume that some of these do not vary with the sample.
    """

    nu: float
    mu: callable
    mu0: float
    c_sup_K: np.ndarray
    eps: np.ndarray
    eps_bar: float
    eps_star: np.ndarray
    eps_star_sup: float
    eps_hat: float
    C_E: float
    b_mean: np.ndarray
    c_mean: np.ndarray
    modes: list

    @property
    def random_advection(self):
        return bool(self.modes)


def analyze_reaction(model, mesh, space):
    """Sample and check the coefficients of model once, on space and the
    quadrature points of mesh; returns the ReactionAnalysis.

    Refuses (ConfigError) diffusion that is not one finite positive value
    per sample, mode weights that are not one finite value per sample, an
    advection fluctuation with nonzero weighted mean at a quadrature
    point, and non-finite advection or reaction values there.
    """
    eps = np.asarray(model.eps(space.samples), dtype=float)
    if eps.shape != (space.count,):
        raise ConfigError("eps must return one value per sample")
    if not np.all(np.isfinite(eps)) or np.any(eps <= 0):
        raise ConfigError("diffusion values must be finite and positive")
    eps_bar = float(np.dot(space.weights, eps))
    eps_star = eps - eps_bar
    eps_hat = float(eps.min())

    xq = mesh.quad_points
    flat = xq.reshape(-1, 2)

    def at_points(v, shape=xq.shape):
        return np.asarray(v(flat), dtype=float).reshape(shape)

    b_mean = at_points(model.b_mean)
    modes = []
    for theta, beta in model.b_modes:
        vals = np.asarray(theta(space.samples), dtype=float)
        if vals.shape != (space.count,) or not np.all(np.isfinite(vals)):
            raise ConfigError("an advection mode weight must give one "
                              "finite value per sample")
        modes.append((vals, at_points(beta)))
    if not all(np.all(np.isfinite(b)) for b in
               (b_mean, *(b for _, b in modes))):
        raise ConfigError("advection field evaluated to non-finite values")
    # the fluctuation sum_k E[theta_k] beta_k must vanish
    acc = sum(float(np.dot(space.weights, theta)) * b for theta, b in modes)
    if modes and np.max(np.abs(acc)) > 1e-10:
        raise ConfigError("advection fluctuation is not zero-mean")

    c_mean = None if model.c_mean is None \
        else at_points(model.c_mean, xq.shape[:2])
    # c = 0 + c_mean, as mu forms it: a -0.0 reaction reads +0.0
    cq = np.zeros(xq.shape[:2]) if c_mean is None else 0.0 + c_mean
    mt = cq - 0.5 * np.abs(cq)
    if not np.all(np.isfinite(mt)):
        raise ConfigError("reaction analysis hit non-finite values")
    mt_min = float(mt.min())
    c_sup_K = np.abs(cq).max(axis=1)

    nu = max(-min(mt_min, 0.0), 0.0)

    def mu(x):
        c = np.zeros(len(x))
        if model.c_mean is not None:
            c = c + np.asarray(model.c_mean(x), dtype=float)
        return c - 0.5 * np.abs(c) + nu

    mu0 = mt_min + nu
    if mu0 < -1e-12:
        raise ConfigError("shifted reaction came out negative")
    mu0 = max(mu0, 0.0)

    return ReactionAnalysis(
        nu=nu, mu=mu, mu0=mu0, c_sup_K=c_sup_K,
        eps=eps, eps_bar=eps_bar, eps_star=eps_star,
        eps_star_sup=float(np.max(np.abs(eps_star))), eps_hat=eps_hat,
        C_E=float(eps.max() / eps_hat), b_mean=b_mean, c_mean=c_mean,
        modes=modes)


def delta_coercivity(mesh, analysis, C_I):
    """Largest delta_K admitted by the weak-coercivity lemma, per element.

    The minimum of 1/(2 |||c|||_K) and h_K^2/(2 d C_I^2 C_E^2 eps_hat)
    in d = 2 space dimensions, C_I the inverse constant (the runner
    passes mesh.inverse_constant).  The reaction constraint is inactive
    (+inf) without reaction, the diffusion constraint is always finite,
    so every entry is finite.
    """
    with np.errstate(divide="ignore"):
        b1 = np.where(analysis.c_sup_K > 0,
                      1.0 / (2.0 * analysis.c_sup_K), np.inf)
    b2 = mesh.h_K ** 2 / (4.0 * C_I ** 2 * analysis.C_E ** 2
                          * analysis.eps_hat)
    return np.minimum(b1, b2)


def delta_semi_implicit(mesh, analysis, C_I, dt):
    """delta_K bound guaranteeing semi-implicit norm stability: one
    eighth of the smaller of the coercivity bound and 2 dt.  Its
    reaction and diffusion constraints are the coercivity ones, since
    C_E >= 1 makes max(C_E^2, 1) = C_E^2."""
    if not 0 < dt < np.inf:
        raise ConfigError("dt must be positive and finite")
    dk = delta_coercivity(mesh, analysis, C_I)
    return 0.125 * np.minimum(dk, 2.0 * dt)


def delta_experiment(mesh):
    """The h_K/4 policy used by the experiment presets."""
    return mesh.h_K / 4.0


def local_peclet(mesh, analysis):
    """Largest local Peclet number |b| h_K / (2 eps) over the elements,
    their quadrature points and the samples of analysis; above 1 the
    problem is advection dominated.

    A sample's advection b_mean + sum_k theta_k beta_k depends on it
    only through its row of mode weights, so the element maxima of
    |b| h_K are taken once per distinct row (one, empty, without modes)
    and divided by 2 eps per sample, which rounds monotonically: the
    per-sample maximum, bit for bit.
    """
    eps, modes = analysis.eps, analysis.modes
    thetas = np.reshape([theta for theta, _ in modes],
                        (len(modes), len(eps))).T             # (N_C, K)
    rows, which = np.unique(thetas, axis=0, return_inverse=True)
    top = np.empty(len(rows))
    for j, row in enumerate(rows):
        # b_mean plus the sum b_fluct forms (0.0 without modes), squared
        # in place and summed as np.linalg.norm does; sqrt is monotone
        b = analysis.b_mean + reduce(
            add, (t * beta for t, (_, beta) in zip(row, modes)), 0.0)
        b *= b
        top[j] = (np.sqrt(b.sum(axis=2).max(axis=1)) * mesh.h_K).max()
    return float((top[which] / (2.0 * eps)).max())


def check_moderate_stochasticity(analysis):
    """Margin of |eps_star| <= eps_hat/32 over the samples; the
    condition holds when it is >= 0.

    The margin eps_hat/32 - analysis.eps_star_sup is the smallest
    per-sample slack bit for bit (subtraction rounds monotonically);
    deterministic diffusion gives infinite margin.  The reaction is
    deterministic, so its half of the condition holds trivially.
    """
    if analysis.eps_star_sup <= 1e-14 * analysis.eps_hat:
        return np.inf
    return analysis.eps_hat / 32.0 - analysis.eps_star_sup


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
