"""Low-rank state construction and factorization."""

import numpy as np
import pytest

from supgdlr import (
    ConfigError, DlrState, assemble_blocks, build_structured_mesh,
    evaluate_realization, init_from_modes, init_from_snapshot,
    make_monte_carlo,
)

from conftest import check_invariants


def setup(n=4, n_samples=10, seed=0):
    mesh = build_structured_mesh(n)
    space = make_monte_carlo([(-1.0, 1.0)] * 2, n_samples, seed=seed)
    blocks = assemble_blocks(mesh, lambda x: np.zeros((len(x), 2)), None,
                             np.zeros(mesh.n_triangles))
    return mesh, space, blocks


def test_init_from_modes_preserves_field():
    mesh, space, blocks = setup()
    rng = np.random.default_rng(1)
    U0 = rng.standard_normal(mesh.n_vertices)
    U = rng.standard_normal((mesh.n_vertices, 3))
    Y = rng.standard_normal((space.count, 3))
    dense = U0[:, None] + U @ Y.T
    state = init_from_modes(U0, U, Y, space)
    assert np.max(np.abs(state.dense() - dense)) <= 1e-12
    check_invariants(state, space, blocks.mass)


def test_evaluate_realization_matches_dense():
    mesh, space, _ = setup()
    rng = np.random.default_rng(2)
    state = init_from_modes(rng.standard_normal(mesh.n_vertices),
                            rng.standard_normal((mesh.n_vertices, 2)),
                            rng.standard_normal((space.count, 2)), space)
    dense = state.dense()
    for i in (0, space.count - 1):
        assert np.max(np.abs(evaluate_realization(state, i)
                             - dense[:, i])) <= 1e-14
    with pytest.raises(ConfigError):
        evaluate_realization(state, space.count)


def test_snapshot_full_rank_reconstructs():
    mesh, space, blocks = setup(n=3, n_samples=6)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((mesh.n_vertices, space.count))
    state = init_from_snapshot(X, blocks.mass, space, R=space.count - 1)
    assert np.max(np.abs(state.dense() - X)) <= 1e-10
    check_invariants(state, space, blocks.mass)


def test_snapshot_truncation_error_matches_svd_tail():
    mesh, space, blocks = setup(n=4, n_samples=12, seed=5)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((mesh.n_vertices, space.count))
    R = 3
    state = init_from_snapshot(X, blocks.mass, space, R=R)
    assert state.rank == R

    # independent weighted SVD oracle for the truncation error
    M = blocks.mass.toarray()
    w = space.weights
    mean = X @ w
    Xc = X - mean[:, None]
    L = np.linalg.cholesky(M)
    s = np.linalg.svd(L.T @ (Xc * np.sqrt(w)[None, :]),
                      compute_uv=False)
    tail = np.sqrt(np.sum(s[R:] ** 2))
    diff = state.dense() - X
    err = np.sqrt(float(w @ np.einsum("ki,ki->i", diff, M @ diff)))
    assert abs(err - tail) <= 1e-10 * max(tail, 1.0)


def test_snapshot_tolerance_selects_minimal_rank():
    mesh, space, blocks = setup(n=3, n_samples=8, seed=7)
    rng = np.random.default_rng(8)
    # rank-2 data plus noise far below the tolerance
    U = rng.standard_normal((mesh.n_vertices, 2))
    Y = rng.standard_normal((space.count, 2))
    X = U @ Y.T + 1e-12 * rng.standard_normal((mesh.n_vertices,
                                               space.count))
    state = init_from_snapshot(X, blocks.mass, space, tol=1e-6)
    assert state.rank <= 2
    assert np.max(np.abs(state.dense() - X)) <= 1e-8


def test_snapshot_needs_rank_or_tol():
    mesh, space, blocks = setup(n=2, n_samples=4)
    X = np.zeros((mesh.n_vertices, space.count))
    with pytest.raises(ConfigError):
        init_from_snapshot(X, blocks.mass, space)


def test_validate_rejects_broken_invariants():
    mesh, space, blocks = setup()
    rng = np.random.default_rng(9)
    state = init_from_modes(rng.standard_normal(mesh.n_vertices),
                            rng.standard_normal((mesh.n_vertices, 2)),
                            rng.standard_normal((space.count, 2)), space)
    bad = DlrState(state.U0, state.U, state.Y + 0.5, t=0.0)
    with pytest.raises(AssertionError, match="not orthonormal"):
        check_invariants(bad, space, blocks.mass)


def test_transposed_factors_rejected():
    # a (R, N_h) deterministic factor is refused, not reshaped
    mesh, space, _ = setup(n=1, n_samples=3)
    rng = np.random.default_rng(10)
    U0 = rng.standard_normal(mesh.n_vertices)
    U = rng.standard_normal((mesh.n_vertices, 2))
    Y = rng.standard_normal((space.count, 2))
    with pytest.raises(ConfigError):
        DlrState(U0, U.T, Y)
    with pytest.raises(ConfigError):
        init_from_modes(U0, U.T, Y, space)
    with pytest.raises(ConfigError):
        init_from_modes(U0, U, Y.T, space)

