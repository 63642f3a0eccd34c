"""Two-factor low-rank representation of a random nodal field.

The field is u = U0 * 1 + sum_i U_i Y_i with deterministic modes U_i,
orthonormal zero-mean stochastic modes Y_i, and a mean mode U0 that
carries any non-homogeneous Dirichlet data.
"""

import numpy as np
import scipy.linalg as sla

from .errors import ConfigError
from .sampling import expectation, weighted_orthonormalize

__all__ = [
    "DlrState",
    "init_from_modes",
    "init_from_snapshot",
    "evaluate_realization",
]


class DlrState:
    """Low-rank state (U0, U, Y, t); immutable between time steps.

    U0 : (N_h,) mean mode
    U  : (N_h, R) deterministic modes, linearly independent
    Y  : (N_C, R) stochastic modes, orthonormal and zero-mean in the
         weighted inner product

    Built from U_full = [U0 | U], (N_h, R+1), which is kept, not
    copied, and made read-only, and Y, copied into Y_full = [1 | Y],
    (N_C, R+1), read-only too; U0, U and Y are views into them.  The
    factor shapes are checked, never guessed: factors whose ranks
    differ, such as a transposed U_full, raise ConfigError.
    """

    def __init__(self, U_full, Y, t=0.0):
        U_full = np.asarray(U_full, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if U_full.ndim != 2 or Y.ndim != 2 \
                or U_full.shape[1] != Y.shape[1] + 1:
            raise ConfigError(f"[U0 | U] {U_full.shape} and Y {Y.shape} "
                              "must be matrices of R+1 and R columns")
        # column-major: Y is contiguous, as the QR factor it comes from
        Y_full = np.empty((Y.shape[0], Y.shape[1] + 1), order="F")
        Y_full[:, 0] = 1.0
        Y_full[:, 1:] = Y
        U_full.flags.writeable = False
        Y_full.flags.writeable = False
        self.U_full, self.Y_full = U_full, Y_full
        self.U0, self.U = U_full[:, 0], U_full[:, 1:]
        self.Y = Y_full[:, 1:]
        self.t = float(t)
        self._kept = None

    @property
    def rank(self):
        return self.U.shape[1]

    @property
    def n_samples(self):
        return self.Y.shape[0]

    def product(self, A):
        """A @ U_full, read-only.

        The product with the matrix last asked for is kept, so the
        stiffness product a step report takes serves the step from this
        state.
        """
        if self._kept is None or self._kept[0] is not A:
            AU = A @ self.U_full
            AU.flags.writeable = False
            self._kept = (A, AU)
        return self._kept[1]

    def dense(self):
        """All realizations as columns, (N_h, N_C)."""
        return self.U0[:, None] + self.U @ self.Y.T


def init_from_modes(U0, U, Y, space):
    """Build a valid state from raw factor matrices.

    The stochastic modes are centered (the removed means fold into U0)
    and orthonormalized, with the transfer matrix absorbed into U, so
    the represented field is unchanged.
    """
    U0, U = np.asarray(U0, dtype=float), np.asarray(U, dtype=float)
    if U0.ndim != 1 or U.ndim != 2 or len(U) != len(U0):
        raise ConfigError(f"deterministic modes have shape {U.shape}, "
                          f"expected (N_h, R) for a mean mode {U0.shape}")
    raw = DlrState(np.column_stack([U0, U]), Y)     # checks Y and the rank
    if raw.n_samples != space.count:
        raise ConfigError("stochastic modes sized unlike the sample space")

    means = expectation(raw.Y, space)
    Yo, T = weighted_orthonormalize(raw.Y - means, space)
    return DlrState(np.column_stack([raw.U0 + raw.U @ means, raw.U @ T.T]),
                    Yo)


def init_from_snapshot(columns, which, mass, space, R=None, tol=None):
    """Low-rank factorization of a snapshot under the natural norms.

    Sample i's field is columns[:, which[i]], and each column is some
    sample's.  Truncated SVD of the centered snapshot, columns scaled by
    sqrt(w), in the mass inner product: taken, exactly, over the d
    columns, each scaled by the square root of its samples' summed
    weight (equal columns only add zero singular values).  Their
    Householder QR A = Q0 R0 is made mass-orthonormal by the upper
    Cholesky factor C of Q0^T M Q0 (condition at most cond(M)), and the
    small core C R0 takes the SVD.  The mass matrix is only multiplied,
    never densified.  Truncation is at fixed rank R or at the smallest
    rank whose relative singular-value tail is below tol.
    """
    X = np.asarray(columns, dtype=float)
    which = np.asarray(which)
    if not np.all(np.isfinite(X)):
        raise ConfigError("snapshot contains non-finite values")
    if which.shape != (space.count,) or which.dtype.kind not in "iu":
        raise ConfigError("which must hold one column index per sample")
    if not np.all((which >= 0) & (which < X.shape[1])):
        raise ConfigError("which holds an index outside the columns")
    if R is None and tol is None:
        raise ConfigError("give a rank or a truncation tolerance")

    W = np.bincount(which, weights=space.weights, minlength=X.shape[1])
    if not np.all(W > 0):
        raise ConfigError("every snapshot column must belong to a sample")
    mean = X @ W
    sw = np.sqrt(W)
    Q0, R0 = sla.qr((X - mean[:, None]) * sw, mode="economic")
    C = sla.cholesky(Q0.T @ (mass @ Q0), lower=False)
    P, s, QT = np.linalg.svd(C @ R0, full_matrices=False)

    nnz = int(np.sum(s > 1e-14 * (s[0] if len(s) else 1.0)))
    if R is not None:
        R = int(R)
        if R < 0:
            raise ConfigError(f"rank must be non-negative (got {R})")
        if R > min(X.shape[0], space.count):
            raise ConfigError("requested rank exceeds snapshot size")
        r = min(R, nnz)
    else:
        total = float(np.sum(s ** 2))
        r = nnz
        if total > 0:
            for k in range(nnz + 1):
                tail = np.sqrt(np.sum(s[k:] ** 2) / total)
                if tail <= tol:
                    r = k
                    break
            else:
                raise ConfigError("truncation tolerance unachievable")
        else:
            r = 0

    U = Q0 @ sla.solve_triangular(C, P[:, :r] * s[:r], lower=False)
    Y = (QT[:r].T / sw[:, None])[which]
    return DlrState(np.column_stack([mean, U]), Y)


def evaluate_realization(state, i):
    """Nodal field of realization i: U0 + U @ Y[i]."""
    if not 0 <= i < state.n_samples:
        raise ConfigError(f"sample index {i} out of range")
    if state.rank == 0:
        return state.U0.copy()
    return state.U0 + state.U @ state.Y[i]
