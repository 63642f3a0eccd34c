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
    "inner",
    "project_complement",
    "weighted_orthonormalize",
    "make_tensor_grid",
    "make_monte_carlo",
]

ORTHO_TOL = 1e-8
RANK_TOL = 1e-12


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

    @property
    def dim(self):
        return self.samples.shape[1]


def _check_len(Z, space):
    Z = np.asarray(Z, dtype=float)
    if Z.shape[0] != space.count:
        raise ConfigError(
            f"random vector length {Z.shape[0]} != sample count {space.count}")
    return Z


def expectation(Z, space):
    """Weighted mean sum_i m_i Z_i.  Z may have trailing axes."""
    Z = _check_len(Z, space)
    return np.tensordot(space.weights, Z, axes=(0, 0))


def inner(Y, Z, space):
    """Weighted inner product sum_i m_i Y_i Z_i."""
    Y = _check_len(Y, space)
    Z = _check_len(Z, space)
    return float(np.dot(space.weights * Y, Z))


def _gram(Y, space):
    return (Y * space.weights[:, None]).T @ Y


def project_complement(z, Y, space):
    """Project z onto the complement of span{1, Y_1..Y_R}.

    z : (N_C,) or (N_C, m), projected column by column.
    Y : (N_C, R) with orthonormal zero-mean columns.  The result is
    zero-mean and orthogonal to every column.
    """
    z = _check_len(z, space)
    Y = np.asarray(Y, dtype=float)
    if Y.size:
        Y = _check_len(Y, space)
        g = _gram(Y, space)
        if np.max(np.abs(g - np.eye(Y.shape[1]))) > ORTHO_TOL:
            raise ConfigError("basis is not orthonormal in the weighted product")
        means = expectation(Y, space)
        if np.max(np.abs(means)) > ORTHO_TOL:
            raise ConfigError("basis is not zero-mean")
    zf = z - expectation(z, space)
    if Y.size:
        zf = zf - Y @ ((Y * space.weights[:, None]).T @ zf)
    return zf


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
    Q, T = scipy.linalg.qr(np.multiply(sw, Yt, order="F"),
                           mode="economic", overwrite_a=True,
                           check_finite=False)
    sign = np.where(np.diag(T) < 0.0, -1.0, 1.0)
    T *= sign[:, None]
    pivots = np.zeros(r)                    # r > n leaves zero pivots
    pivots[:len(sign)] = np.diag(T)
    col_scale = max(float(np.max(np.linalg.norm(T, axis=0))), 1e-300)
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
    """Uniform independent samples on a box, equal weights, seeded."""
    n = int(n_samples)
    if n < 1:
        raise ConfigError("need at least one sample")
    if not intervals:
        raise ConfigError("empty axis list")
    rng = np.random.default_rng(seed)
    lo = np.array([a for a, _ in intervals])
    hi = np.array([b for _, b in intervals])
    samples = rng.uniform(lo, hi, size=(n, len(intervals)))
    return SampleSpace(samples, _uniform_weights(n))
