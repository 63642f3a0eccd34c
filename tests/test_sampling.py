"""Sample spaces, weighted algebra and orthonormalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supgdlr import (
    ConfigError, RankLossError, SampleSpace, expectation, inner,
    make_monte_carlo, make_tensor_grid, project_complement,
    weighted_orthonormalize,
)


def small_space():
    return SampleSpace([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5])


def test_expectation_hand_oracle():
    # 0.2*2 + 0.3*4 + 0.5*6 = 4.6
    assert abs(expectation(np.array([2.0, 4.0, 6.0]), small_space())
               - 4.6) <= 1e-15


def test_inner_hand_oracle():
    # 0.2*1*0.5 + 0.3*(-1)*1 + 0.5*2*(-1) = -1.2
    val = inner(np.array([1.0, -1.0, 2.0]),
                np.array([0.5, 1.0, -1.0]), small_space())
    assert abs(val - (-1.2)) <= 1e-15


def test_expectation_trailing_axes():
    space = small_space()
    Z = np.arange(12.0).reshape(3, 2, 2)
    out = expectation(Z, space)
    assert out.shape == (2, 2)
    want = 0.2 * Z[0] + 0.3 * Z[1] + 0.5 * Z[2]
    assert np.allclose(out, want, atol=1e-15)


def test_space_validation():
    with pytest.raises(ConfigError):
        SampleSpace([[0.0], [1.0]], [0.5, 0.6])
    with pytest.raises(ConfigError):
        SampleSpace([[0.0], [1.0]], [1.1, -0.1])
    with pytest.raises(ConfigError):
        SampleSpace([[0.0]], [0.5, 0.5])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_orthonormalize_properties(n, r, seed):
    rng = np.random.default_rng(seed)
    r = min(r, n - 1)
    w = rng.uniform(0.1, 1.0, n)
    space = SampleSpace(rng.standard_normal((n, 1)), w / w.sum())
    Yt = rng.standard_normal((n, r))
    Y, T = weighted_orthonormalize(Yt, space)
    # reconstruction, orthonormality, triangular positive-diagonal factor
    assert np.max(np.abs(Y @ T - Yt)) <= 1e-10 * max(np.max(np.abs(Yt)), 1)
    g = (Y * space.weights[:, None]).T @ Y
    assert np.max(np.abs(g - np.eye(r))) <= 1e-12
    assert np.max(np.abs(np.tril(T, -1))) == 0.0
    assert np.all(np.diag(T) > 0)


def test_orthonormalize_rank_loss():
    space = make_monte_carlo([(-1.0, 1.0)], 6, seed=0)
    v = np.arange(6.0)
    Yt = np.column_stack([v, 2.0 * v])
    with pytest.raises(RankLossError) as err:
        weighted_orthonormalize(Yt, space)
    assert err.value.numerical_rank == 1


def mgs_reference(Yt, space):
    """Weighted modified Gram-Schmidt with one reorthogonalization pass."""
    w = space.weights
    n, r = Yt.shape
    Y = np.empty((n, r))
    T = np.zeros((r, r))
    for j in range(r):
        v = Yt[:, j].copy()
        for _ in range(2):
            for i in range(j):
                h = float(np.dot(w * Y[:, i], v))
                T[i, j] += h
                v -= h * Y[:, i]
        T[j, j] = np.sqrt(float(np.dot(w * v, v)))
        Y[:, j] = v / T[j, j]
    return Y, T


@pytest.mark.parametrize("n, r", [(256, 7), (7000, 2)])
def test_orthonormalize_matches_gram_schmidt(n, r):
    rng = np.random.default_rng(n + r)
    w = rng.uniform(0.5, 1.5, n)
    space = SampleSpace(rng.standard_normal((n, 1)), w / w.sum())
    Yt = rng.standard_normal((n, r))
    Yt -= expectation(Yt, space)
    Y, T = weighted_orthonormalize(Yt, space)
    Y_ref, T_ref = mgs_reference(Yt, space)
    assert np.max(np.abs(Y - Y_ref)) <= 1e-13 * np.max(np.abs(Y_ref))
    assert np.max(np.abs(T - T_ref)) <= 1e-14 * np.max(np.abs(T_ref))


def test_orthonormalize_dependent_column_rank():
    space = make_monte_carlo([(-1.0, 1.0)], 20, seed=2)
    rng = np.random.default_rng(4)
    Yt = rng.standard_normal((20, 4))
    Yt[:, 2] = 0.5 * Yt[:, 0] - 3.0 * Yt[:, 1]
    with pytest.raises(RankLossError) as err:
        weighted_orthonormalize(Yt, space)
    assert err.value.numerical_rank == 2


def test_orthonormalize_zero_column():
    space = make_monte_carlo([(-1.0, 1.0)], 8, seed=3)
    Yt = np.random.default_rng(5).standard_normal((8, 3))
    Yt[:, 1] = 0.0
    with pytest.raises(RankLossError) as err:
        weighted_orthonormalize(Yt, space)
    assert err.value.numerical_rank == 1


def test_orthonormalize_rank_zero():
    space = make_monte_carlo([(-1.0, 1.0)], 5, seed=1)
    Y, T = weighted_orthonormalize(np.zeros((5, 0)), space)
    assert Y.shape == (5, 0)
    assert T.shape == (0, 0)


def test_project_complement_properties():
    rng = np.random.default_rng(3)
    space = make_monte_carlo([(-1.0, 1.0)] * 2, 12, seed=5)
    Yraw = rng.standard_normal((12, 3))
    Yraw -= expectation(Yraw, space)
    Y, _ = weighted_orthonormalize(Yraw, space)
    z = rng.standard_normal(12)
    p = project_complement(z, Y, space)
    assert abs(expectation(p, space)) <= 1e-12
    for j in range(3):
        assert abs(inner(p, Y[:, j], space)) <= 1e-12
    # idempotent
    assert np.max(np.abs(project_complement(p, Y, space) - p)) <= 1e-12
    # a matrix is projected column by column
    Z = np.column_stack([z, rng.standard_normal((12, 2))])
    P = project_complement(Z, Y, space)
    assert np.max(np.abs(P[:, 0] - p)) <= 1e-14
    assert np.max(np.abs(expectation(P, space))) <= 1e-12
    assert np.max(np.abs((Y * space.weights[:, None]).T @ P)) <= 1e-12


def test_project_complement_rejects_bad_basis():
    space = make_monte_carlo([(-1.0, 1.0)], 5, seed=1)
    bad = np.ones((5, 1))                  # not zero-mean
    with pytest.raises(ConfigError):
        project_complement(np.arange(5.0), bad, space)


def test_tensor_grid_counts_and_midpoint():
    space = make_tensor_grid([(0.0, 2.0, 3), (-1.0, 1.0, 1)])
    assert space.count == 3
    assert space.dim == 2
    assert np.allclose(space.samples[:, 1], 0.0)       # midpoint axis
    assert np.allclose(sorted(space.samples[:, 0]), [0.0, 1.0, 2.0])
    assert np.allclose(space.weights, 1.0 / 3.0)


def test_monte_carlo_reproducible_and_bounded():
    a = make_monte_carlo([(-1.0, 1.0), (2.0, 3.0)], 50, seed=42)
    b = make_monte_carlo([(-1.0, 1.0), (2.0, 3.0)], 50, seed=42)
    assert np.array_equal(a.samples, b.samples)
    assert np.all(a.samples[:, 0] >= -1.0) and np.all(a.samples[:, 0] <= 1.0)
    assert np.all(a.samples[:, 1] >= 2.0) and np.all(a.samples[:, 1] <= 3.0)
    assert abs(a.weights.sum() - 1.0) <= 1e-14

