"""Discrete probability space over collocation samples.

All stochastic inner products are realized by an empirical measure with
positive weights summing to one.  Provides weighted means and inner
products, projection onto the orthogonal complement of a stochastic
basis, and a weighted Householder orthonormalization used after every
time step.
"""

import numpy as np
import scipy.linalg

from .errors import ConfigError, RankLossError

__all__ = [
    "SampleSpace",
    "expectation",
    "project_complement",
    "weighted_orthonormalize",
    "make_tensor_grid",
    "make_monte_carlo",
]

ORTHO_TOL = 1e-8
RANK_TOL = 1e-12
_GEQRF, _ORGQR = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"),
                                               dtype=np.float64)


class SampleSpace:
    """Collocation points with positive weights summing to 1.

    samples : (N_C, p) array of parameter vectors
    weights : (N_C,) array, strictly positive, sum 1 within 1e-14
    """

    def __init__(self, samples, weights):
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        weights = np.asarray(weights, dtype=float)
        if samples.shape[0] != len(weights):
            raise ConfigError("sample and weight counts differ")
        if len(weights) < 1:
            raise ConfigError("need at least one sample")
        if np.any(weights <= 0):
            raise ConfigError("weights must be strictly positive")
        if abs(weights.sum() - 1.0) > 1e-14:
            raise ConfigError("weights must sum to 1")
        self.samples = samples
        self.weights = weights

    @property
    def count(self):
        return len(self.weights)


def _check_len(Z, space):
    Z = np.asarray(Z, dtype=float)
    if Z.shape[0] != space.count:
        raise ConfigError(
            f"random vector length {Z.shape[0]} != sample count {space.count}")
    return Z


def expectation(Z, space):
    """Weighted mean sum_i m_i Z_i of a vector or of each column."""
    return space.weights @ _check_len(Z, space)


def project_complement(z, Y, space, basis=None):
    """Project z onto the complement of span{1, Y_1..Y_R}.

    z : (N_C,) or (N_C, m), projected column by column.
    Y : (N_C, R) with orthonormal zero-mean columns, checked on its
    weighted Gram and means; basis, when given, holds those two of this
    Y as DlrState.basis keeps them, and they are not formed again.  The
    result is zero-mean and orthogonal to every column.
    """
    z = _check_len(z, space)
    Y = np.asarray(Y, dtype=float)
    if Y.size:
        Y = _check_len(Y, space)
        Yw = Y * space.weights[:, None]
        gram, means = (Yw.T @ Y, expectation(Y, space)) if basis is None \
            else basis
        if np.abs(gram - np.eye(Y.shape[1])).max() > ORTHO_TOL:
            raise ConfigError("basis is not orthonormal in the weighted product")
        if np.abs(means).max() > ORTHO_TOL:
            raise ConfigError("basis is not zero-mean")
    zf = z - expectation(z, space)
    if Y.size:
        zf = zf - Y @ (Yw.T @ zf)
    return zf


def _householder_qr(a):
    """Economic QR of a, (n, r) and Fortran-ordered, which it overwrites.

    Returns (Q, T), Q (n, k) and T (k, r) with k = min(n, r), bit for bit
    the factors of scipy.linalg.qr(a, mode="economic"): the same LAPACK
    geqrf and orgqr with the workspace sizes they ask for, called
    without that wrapper's checks and lookups.
    """
    n, r = a.shape

    def call(routine, *args):
        lwork = routine(*args, lwork=-1, overwrite_a=True)[-2][0]
        out = routine(*args, lwork=int(lwork), overwrite_a=True)
        if out[-1] < 0:
            raise ValueError(f"illegal value in argument {-out[-1]} of "
                             "a LAPACK QR routine")
        return out[:-2]

    qr, tau = call(_GEQRF, a)
    T = np.triu(qr[:r] if n >= r else qr)
    Q, = call(_ORGQR, qr[:, :min(n, r)], tau)
    return Q, T


def weighted_orthonormalize(Y_tilde, space):
    """Weighted thin QR by one Householder factorization of sqrt(w) Y_tilde.

    Returns (Y, T) with orthonormal columns Y, upper triangular T with
    positive diagonal, and Y_tilde = Y @ T.  Raises RankLossError at the
    first pivot T_jj at or below RANK_TOL times the largest column norm
    (the largest column norm of T, as Q is orthonormal).

    `integrator.step` passes Y + dY with Y centered orthonormal and dY in
    the complement of span{1, Y}, so Y_tilde^T W Y_tilde = I + dY^T W dY
    and the pivot ratio is at least 1 / sigma_max(sqrt(w) dY).
    """
    Yt = np.atleast_2d(np.asarray(Y_tilde, dtype=float))
    Yt = _check_len(Yt, space)
    n, r = Yt.shape
    if r == 0:
        return np.empty((n, 0)), np.empty((0, 0))
    sw = np.sqrt(space.weights)[:, None]
    # column-major throughout: LAPACK takes the scaled modes without a
    # copy, and scaling the (n, r) columns of Q streams along n
    Q, T = _householder_qr(np.multiply(sw, Yt, order="F"))
    sign = np.where(T.diagonal() < 0.0, -1.0, 1.0)
    T *= sign[:, None]
    pivots = np.zeros(r)                    # r > n leaves zero pivots
    pivots[:len(sign)] = T.diagonal()
    col_scale = max(float(np.linalg.norm(T, axis=0).max()), 1e-300)
    low = np.flatnonzero(pivots <= RANK_TOL * col_scale)
    if low.size:
        j = int(low[0])
        raise RankLossError(
            f"rank deficiency at column {j} (pivot {pivots[j]:.3e})",
            numerical_rank=j)
    Q *= sign
    Q /= sw
    return Q, T


def _uniform_weights(n):
    w = np.full(n, 1.0 / n)
    return w / w.sum()


def make_tensor_grid(intervals):
    """Full tensor grid of equispaced points, equal weights.

    intervals : list of (a, b, N) per axis; N=1 places the midpoint.
    """
    if not intervals:
        raise ConfigError("empty axis list")
    axes = []
    for a, b, N in intervals:
        N = int(N)
        if N < 1:
            raise ConfigError("need N >= 1 points per axis")
        if N == 1:
            axes.append(np.array([0.5 * (a + b)]))
        else:
            axes.append(np.linspace(a, b, N))
    grids = np.meshgrid(*axes, indexing="ij")
    samples = np.column_stack([g.ravel() for g in grids])
    return SampleSpace(samples, _uniform_weights(samples.shape[0]))


def make_monte_carlo(intervals, n_samples, seed):
    """Uniform independent samples on a box, equal weights, seeded.

    intervals holds finite (low, high) pairs, low <= high, and seed is a
    non-negative integer; anything else is a ConfigError.
    """
    n = int(n_samples)
    if n < 1:
        raise ConfigError("need at least one sample")
    if not intervals:
        raise ConfigError("empty axis list")
    if any(len(iv) != 2 for iv in intervals):
        raise ConfigError("a monte_carlo interval takes 2 numbers")
    lo, hi = np.array(intervals, dtype=float).T
    if not np.all(np.isfinite([lo, hi])) or np.any(lo > hi):
        raise ConfigError(f"intervals {intervals!r} must have finite ends, "
                          "the lower one first")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
            or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer "
                          f"(got {seed!r})")
    rng = np.random.default_rng(seed)
    samples = rng.uniform(lo, hi, size=(n, len(intervals)))
    return SampleSpace(samples, _uniform_weights(n))
