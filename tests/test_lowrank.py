"""Low-rank state construction and factorization."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import aslinearoperator

from supgdlr import (
    ConfigError, DlrState, SampleSpace, assemble_blocks,
    build_problem,
    build_structured_mesh, evaluate_realization, init_from_modes,
    init_from_snapshot, make_monte_carlo, preset_boundary_layer, runner,
)

from conftest import check_invariants


def setup(n=4, n_samples=10, seed=0):
    mesh = build_structured_mesh(n)
    space = make_monte_carlo([(-1.0, 1.0)] * 2, n_samples, seed=seed)
    blocks = assemble_blocks(mesh, np.zeros(mesh.quad_points.shape), None,
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
    state = init_from_snapshot(X, np.arange(space.count), blocks.mass,
                               space, R=space.count - 1)
    assert np.max(np.abs(state.dense() - X)) <= 1e-10
    check_invariants(state, space, blocks.mass)


def test_snapshot_truncation_error_matches_svd_tail():
    mesh, space, blocks = setup(n=4, n_samples=12, seed=5)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((mesh.n_vertices, space.count))
    R = 3
    state = init_from_snapshot(X, np.arange(space.count), blocks.mass,
                               space, R=R)
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


def dense_snapshot_svd(X, M, w, R=None, tol=None):
    """Rank, singular values and truncated field of the weighted SVD
    taken the dense way: Cholesky of M, SVD of every scaled column."""
    mean = X @ w
    L = np.linalg.cholesky(M)
    P, s, QT = np.linalg.svd(L.T @ ((X - mean[:, None]) * np.sqrt(w)),
                             full_matrices=False)
    nnz = int(np.sum(s > 1e-14 * s[0]))
    if R is not None:
        r = min(R, nnz)
    else:
        tails = np.sqrt(np.cumsum((s ** 2)[::-1])[::-1] / np.sum(s ** 2))
        r = next(k for k in range(nnz + 1)
                 if k == len(s) or tails[k] <= tol)
    core = (P[:, :r] * s[:r]) @ QT[:r] / np.sqrt(w)
    return r, s, mean[:, None] + np.linalg.solve(L.T, core)


def repeated_column_snapshot(n_vertices, rng):
    # 5 distinct columns, each repeated, on unequal weights
    which = np.array([0, 1, 2, 0, 3, 1, 4, 0, 2, 2, 3, 1, 0])
    base = rng.standard_normal((n_vertices, 5)) \
        * np.array([3.0, 1.0, 0.3, 1e-2, 1e-5])
    weights = rng.uniform(0.2, 1.0, len(which))
    space = SampleSpace(rng.standard_normal((len(which), 2)),
                        weights / weights.sum())
    return base, which, space


@pytest.mark.parametrize("rule", [{"R": 2}, {"R": 4}, {"tol": 1e-3},
                                  {"tol": 1e-9}],
                         ids=["R2", "R4", "tol1e-3", "tol1e-9"])
@pytest.mark.parametrize("n", [4, 1], ids=["tall", "wide"])
def test_snapshot_with_repeated_columns_matches_dense_svd(n, rule):
    # 25 vertices, or 4: fewer than the 5 distinct columns
    mesh, _, blocks = setup(n=n)
    base, which, space = repeated_column_snapshot(
        mesh.n_vertices, np.random.default_rng(11))
    X = base[:, which]
    M, w = blocks.mass.toarray(), space.weights
    state = init_from_snapshot(base, which, blocks.mass, space, **rule)
    rank, s, field = dense_snapshot_svd(X, M, w, **rule)
    assert state.rank == rank <= 4            # centered: rank 4 at most
    check_invariants(state, space, blocks.mass)
    diff = state.dense() - X
    err = np.sqrt(float(w @ np.einsum("ki,ki->i", diff, M @ diff)))
    tail = np.sqrt(np.sum(s[rank:] ** 2))
    assert abs(err - tail) <= 1e-10 * s[0]
    assert np.max(np.abs(state.dense() - field)) \
        <= 1e-12 * np.max(np.abs(field))


def test_snapshot_only_multiplies_the_mass_matrix():
    mesh, _, blocks = setup(n=4)
    base, which, space = repeated_column_snapshot(
        mesh.n_vertices, np.random.default_rng(12))
    want = init_from_snapshot(base, which, blocks.mass, space, tol=1e-6)
    got = init_from_snapshot(base, which, aslinearoperator(blocks.mass),
                             space, tol=1e-6)
    assert got.rank == want.rank == 4
    assert np.max(np.abs(got.dense() - want.dense())) <= 1e-13


def test_boundary_layer_snapshot_matches_dense_svd(monkeypatch):
    # the desk snapshot on a 6^4 tensor grid: it depends only on two of
    # the four parameters, so its 1296 samples share 36 pair columns, 34
    # of them distinct
    seen = []

    def capture(columns, which, mass, space, R=None, tol=None):
        seen.append((columns, which, mass, space, R, tol))
        return init_from_snapshot(columns, which, mass, space, R=R, tol=tol)

    monkeypatch.setattr(runner, "init_from_snapshot", capture)
    cfg = replace(preset_boundary_layer("desk"), n_per_side=10,
                  sampler={"kind": "tensor_grid",
                           "intervals": [(5000.0, 6000.0, 6)]
                           + [(-1.0, 1.0, 6)] * 3})
    state = build_problem(cfg)[-1]
    (columns, which, mass, space, R, tol), = seen
    assert columns.shape == (121, 36) and R is None and tol == 1e-4
    X = columns[:, which]
    assert X.shape == (121, 1296) and len(np.unique(X, axis=1).T) == 34
    rank, _, field = dense_snapshot_svd(X, mass.toarray(), space.weights,
                                        tol=tol)
    assert state.rank == rank == 11
    check_invariants(state, space, mass)
    assert np.max(np.abs(state.dense() - field)) \
        <= 1e-12 * np.max(np.abs(field))


def test_paper_boundary_layer_snapshot_is_never_dense():
    # 2601 vertices x 10^4 samples: one dense snapshot is 208 MB
    cfg = preset_boundary_layer("paper")
    mesh = build_structured_mesh(cfg.n_per_side)
    space = runner.build_space(cfg)
    mass = mesh.mass
    tracemalloc.start()
    try:
        state = runner.build_initial(cfg, mesh, space, mass)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.rank == 34
    assert peak < mesh.n_vertices * space.count * 8


@pytest.mark.parametrize("which, match", [
    ([0, 1, 2, 0, 3, 1, 4, 0, 2, 2, 3, 1], "one column index per sample"),
    ([0, 1, 2, 0, 3, 1, 4, 0, 2, 2, 3, 1, 0, 4], "one column index"),
    ([0.0, 1, 2, 0, 3, 1, 4, 0, 2, 2, 3, 1, 0], "one column index"),
    ([0, 1, 2, 0, 3, 1, 5, 0, 2, 2, 3, 1, 0], "outside the columns"),
    ([0, 1, 2, 0, 3, 1, -1, 0, 2, 2, 3, 1, 0], "outside the columns"),
    ([0, 1, 2, 0, 3, 1, 1, 0, 2, 2, 3, 1, 0], "belong to a sample"),
], ids=["short", "long", "float", "past_end", "negative", "unused"])
def test_snapshot_refuses_a_bad_which(which, match):
    mesh, _, blocks = setup(n=2)
    base, _, space = repeated_column_snapshot(mesh.n_vertices,
                                              np.random.default_rng(13))
    with pytest.raises(ConfigError, match=match):
        init_from_snapshot(base, which, blocks.mass, space, R=2)


def test_snapshot_tolerance_selects_minimal_rank():
    mesh, space, blocks = setup(n=3, n_samples=8, seed=7)
    rng = np.random.default_rng(8)
    # rank-2 data plus noise far below the tolerance
    U = rng.standard_normal((mesh.n_vertices, 2))
    Y = rng.standard_normal((space.count, 2))
    X = U @ Y.T + 1e-12 * rng.standard_normal((mesh.n_vertices,
                                               space.count))
    state = init_from_snapshot(X, np.arange(space.count), blocks.mass,
                               space, tol=1e-6)
    assert state.rank <= 2
    assert np.max(np.abs(state.dense() - X)) <= 1e-8


def test_snapshot_refuses_a_negative_rank():
    # unchecked, R = -1 keeps all but the last mode, P[:, :-1]
    mesh, space, blocks = setup(n=2, n_samples=4)
    X = np.random.default_rng(3).standard_normal((mesh.n_vertices,
                                                  space.count))
    with pytest.raises(ConfigError, match="rank must be non-negative"):
        init_from_snapshot(X, np.arange(space.count), blocks.mass, space,
                           R=-1)
    assert init_from_snapshot(X, np.arange(space.count), blocks.mass,
                              space, R=0).rank == 0


def test_snapshot_needs_rank_or_tol():
    mesh, space, blocks = setup(n=2, n_samples=4)
    X = np.zeros((mesh.n_vertices, space.count))
    with pytest.raises(ConfigError):
        init_from_snapshot(X, np.arange(space.count), blocks.mass, space)


def test_validate_rejects_broken_invariants():
    mesh, space, blocks = setup()
    rng = np.random.default_rng(9)
    state = init_from_modes(rng.standard_normal(mesh.n_vertices),
                            rng.standard_normal((mesh.n_vertices, 2)),
                            rng.standard_normal((space.count, 2)), space)
    bad = DlrState(state.U_full, state.Y + 0.5, t=0.0)
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
        DlrState(np.column_stack([U0, U]).T, Y)
    with pytest.raises(ConfigError):
        init_from_modes(U0, U.T, Y, space)
    with pytest.raises(ConfigError):
        init_from_modes(U0, U, Y.T, space)

