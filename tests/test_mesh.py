"""Mesh, quadrature and assembly against closed-form oracles."""

import numpy as np
import pytest

from supgdlr import (
    ConfigError, DirichletCondition, assemble_blocks, assemble_load,
    assemble_skewed, assemble_streamline, build_structured_mesh,
    default_quadrature, tag_boundary_layer,
)


def exact_ref_integral(i, j):
    """Integral of x^i y^j over the reference triangle: i! j! / (i+j+2)!."""
    from math import factorial
    return factorial(i) * factorial(j) / factorial(i + j + 2)


def test_quadrature_weights_sum_to_half():
    quad = default_quadrature()
    assert quad.n_points == 6
    assert abs(quad.weights.sum() - 0.5) <= 1e-15


def test_quadrature_monomial_exactness():
    quad = default_quadrature()
    # physical coordinates on the reference triangle (0,0),(1,0),(0,1)
    x = quad.points[:, 1]
    y = quad.points[:, 2]
    for i in range(5):
        for j in range(5 - i):
            val = float(np.sum(quad.weights * x ** i * y ** j))
            assert abs(val - exact_ref_integral(i, j)) <= 1e-13, (i, j)


def test_basis_values_are_barycentric():
    quad = default_quadrature()
    phi = quad.basis_values()
    assert phi.shape == (6, 3)
    assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-15)


@pytest.mark.parametrize("n,nv,ne", [(1, 4, 2), (2, 9, 8), (128, 16641, 32768)])
def test_structured_mesh_counts(n, nv, ne):
    mesh = build_structured_mesh(n)
    assert mesh.n_vertices == nv
    assert mesh.n_triangles == ne
    assert abs(mesh.signed_areas.sum() - 1.0) <= 1e-14
    assert np.all(mesh.signed_areas > 0)


def test_mesh_h_is_diagonal_length():
    mesh = build_structured_mesh(4)
    assert abs(mesh.h - np.sqrt(2.0) / 4.0) <= 1e-15
    assert np.allclose(mesh.h_K, mesh.h)


def test_gradients_reproduce_linear_fields():
    mesh = build_structured_mesh(3)
    # nodal values of u = 2x - 3y + 1 have element gradient (2, -3)
    u = 2.0 * mesh.vertices[:, 0] - 3.0 * mesh.vertices[:, 1] + 1.0
    g = np.einsum("ead,ea->ed", mesh.grads, u[mesh.triangles])
    assert np.allclose(g, [2.0, -3.0], atol=1e-13)
    # partition of unity: basis gradients sum to zero
    assert np.max(np.abs(mesh.grads.sum(axis=1))) <= 1e-13


def element_oracle_matrices(mesh, b_fn, c_fn, delta):
    """Dense brute-force assembly with an independent quadrature loop."""
    # degree-5 seven-point rule, distinct from the production rule
    a1 = 0.059715871789770
    b1 = 0.470142064105115
    a2 = 0.797426985353087
    b2 = 0.101286507323456
    w0, w1, w2 = 9.0 / 80.0, 0.066197076394253, 0.062969590272414
    bary = np.array([
        (1 / 3, 1 / 3, 1 / 3),
        (a1, b1, b1), (b1, a1, b1), (b1, b1, a1),
        (a2, b2, b2), (b2, a2, b2), (b2, b2, a2),
    ])
    wts = np.array([w0, w1, w1, w1, w2, w2, w2])

    n = mesh.n_vertices
    M = np.zeros((n, n))
    A = np.zeros((n, n))
    C = np.zeros((n, n))
    SM = np.zeros((n, n))
    SC = np.zeros((n, n))
    R = np.zeros((n, n))
    SR = np.zeros((n, n))
    for e, tri in enumerate(mesh.triangles):
        pts = mesh.vertices[tri]
        area = mesh.signed_areas[e]
        g = mesh.grads[e]
        for lam, wt in zip(bary, wts):
            x = (lam[:, None] * pts).sum(axis=0)
            bv = b_fn(x[None, :])[0]
            cv = c_fn(x[None, :])[0] if c_fn else 0.0
            bg = g @ bv
            wq = 2.0 * area * wt
            for ia, va in enumerate(tri):
                for ib, vb in enumerate(tri):
                    M[va, vb] += wq * lam[ia] * lam[ib]
                    C[va, vb] += wq * lam[ia] * bg[ib]
                    SM[va, vb] += delta[e] * wq * bg[ia] * lam[ib]
                    SC[va, vb] += delta[e] * wq * bg[ia] * bg[ib]
                    R[va, vb] += wq * cv * lam[ia] * lam[ib]
                    SR[va, vb] += delta[e] * wq * cv * bg[ia] * lam[ib]
        for ia, va in enumerate(tri):
            for ib, vb in enumerate(tri):
                A[va, vb] += area * float(g[ia] @ g[ib])
    return M, A, C, SM, SC, R, SR


def test_assembled_blocks_match_bruteforce():
    mesh = build_structured_mesh(2)
    rng = np.random.default_rng(7)
    delta = rng.uniform(0.01, 0.2, mesh.n_triangles)
    zero = np.zeros(mesh.n_triangles)

    def b_fn(x):
        return np.column_stack([0.5 - x[:, 1], x[:, 0] - 0.5])

    def c_fn(x):
        return 1.0 + x[:, 0]

    M, A, C, SM, SC, R, SR = element_oracle_matrices(mesh, b_fn, c_fn, delta)
    full = assemble_blocks(mesh, b_fn, c_fn, delta)
    # assembling without reaction or without delta pins C, SM, R and SR
    # each on its own
    no_c = assemble_blocks(mesh, b_fn, None, delta)
    no_delta = assemble_blocks(mesh, b_fn, c_fn, zero)
    plain = assemble_blocks(mesh, b_fn, None, zero)
    pairs = [
        (full.mass, M), (full.stiffness, A), (full.supg_conv, SC),
        (full.skewed_mass, M + SM), (full.transport, C + SC + R + SR),
        (no_c.skewed_mass, M + SM), (no_c.transport, C + SC),
        (no_delta.skewed_mass, M), (no_delta.transport, C + R),
        (plain.transport, C),
    ]
    for got, want in pairs:
        assert np.max(np.abs(got.toarray() - want)) <= 1e-13


def test_skewed_and_streamline_reproduce_blocks():
    mesh = build_structured_mesh(3)
    delta = np.random.default_rng(8).uniform(0.01, 0.2, mesh.n_triangles)

    def b_fn(x):
        return np.column_stack([0.5 - x[:, 1], x[:, 0] - 0.5])

    blocks = assemble_blocks(mesh, b_fn, None, delta)
    bg = blocks.bg_at_qp
    skewed = assemble_skewed(blocks, bg)
    assert abs(skewed - blocks.transport).max() == 0.0
    streamline = assemble_streamline(blocks, bg, bg)
    assert abs(streamline - blocks.supg_conv).max() == 0.0


def test_element_mass_closed_form():
    # one element of area 1/2: (area/12) * [[2,1,1],[1,2,1],[1,1,2]]
    mesh = build_structured_mesh(1)
    blocks = assemble_blocks(mesh, lambda x: np.zeros((len(x), 2)), None,
                             np.zeros(mesh.n_triangles))
    tri = mesh.triangles[0]
    area = mesh.signed_areas[0]
    oracle = (area / 12.0) * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    Mfull = blocks.mass.toarray()
    # subtract the second element's contribution on the shared edge
    other = mesh.triangles[1]
    shared = set(tri) & set(other)
    sub = Mfull[np.ix_(tri, tri)]
    for ia, va in enumerate(tri):
        for ib, vb in enumerate(tri):
            if va in shared and vb in shared:
                continue
            assert abs(sub[ia, ib] - oracle[ia, ib]) <= 1e-15


def test_mass_total_is_domain_area():
    mesh = build_structured_mesh(5)
    blocks = assemble_blocks(mesh, lambda x: np.zeros((len(x), 2)), None,
                             np.zeros(mesh.n_triangles))
    ones = np.ones(mesh.n_vertices)
    assert abs(ones @ (blocks.mass @ ones) - 1.0) <= 1e-13


def test_assemble_load_constant_matches_mass():
    mesh = build_structured_mesh(3)
    blocks = assemble_blocks(mesh, lambda x: np.zeros((len(x), 2)), None,
                             np.zeros(mesh.n_triangles))
    quad = blocks.quad
    vals = np.ones((mesh.n_triangles, quad.n_points))
    load = assemble_load(blocks, vals)
    want = blocks.mass @ np.ones(mesh.n_vertices)
    assert np.max(np.abs(load - want)) <= 1e-14


def test_assemble_load_skew_adds_streamline_term():
    mesh = build_structured_mesh(3)
    delta = np.full(mesh.n_triangles, 0.1)

    def b_fn(x):
        return np.column_stack([np.ones(len(x)), -np.ones(len(x))])

    blocks = assemble_blocks(mesh, b_fn, None, delta)
    vals = np.ones((mesh.n_triangles, blocks.quad.n_points))
    plain = assemble_load(blocks, vals)
    skew = assemble_load(blocks, vals, skew=True)
    # (1, phi_i + delta_K b.grad phi_i) is skewed_mass applied to ones
    assert np.max(np.abs(skew - plain)) > 0.0
    want = blocks.skewed_mass @ np.ones(mesh.n_vertices)
    assert np.max(np.abs(skew - want)) <= 1e-14


def test_assemble_load_multiple_columns():
    mesh = build_structured_mesh(2)
    blocks = assemble_blocks(mesh, lambda x: np.zeros((len(x), 2)), None,
                             np.zeros(mesh.n_triangles))
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((mesh.n_triangles, blocks.quad.n_points, 3))
    out = assemble_load(blocks, vals)
    assert out.shape == (mesh.n_vertices, 3)
    for k in range(3):
        single = assemble_load(blocks, vals[:, :, k])
        assert np.max(np.abs(out[:, k] - single)) <= 1e-15


def test_dirichlet_solves_linear_exactly():
    # -div(grad u) = 0 with u = x on the boundary has solution u = x
    mesh = build_structured_mesh(6)
    blocks = assemble_blocks(mesh, lambda x: np.zeros((len(x), 2)), None,
                             np.zeros(mesh.n_triangles))
    bc = DirichletCondition(blocks.stiffness, mesh,
                            {"boundary": lambda p: p[:, 0]})
    rhs = bc.constrain_rhs(np.zeros(mesh.n_vertices))
    import scipy.sparse.linalg as spla
    u = spla.spsolve(bc.matrix.tocsc(), rhs)
    assert np.max(np.abs(u - mesh.vertices[:, 0])) <= 1e-12


def test_dirichlet_matrix_rows_are_identity():
    mesh = build_structured_mesh(3)
    blocks = assemble_blocks(mesh, lambda x: np.zeros((len(x), 2)), None,
                             np.zeros(mesh.n_triangles))
    bc = DirichletCondition(blocks.mass, mesh, {"boundary": 2.5})
    dense = bc.matrix.toarray()
    for d in bc.dofs:
        row = np.zeros(mesh.n_vertices)
        row[d] = 1.0
        assert np.allclose(dense[d], row)
        assert np.allclose(dense[:, d], row)
    rhs = bc.constrain_rhs(np.zeros(mesh.n_vertices))
    assert np.allclose(rhs[bc.dofs], 2.5)


def test_dirichlet_matrix_rhs_2d():
    mesh = build_structured_mesh(3)
    blocks = assemble_blocks(mesh, lambda x: np.zeros((len(x), 2)), None,
                             np.zeros(mesh.n_triangles))
    bc = DirichletCondition(blocks.mass, mesh, {"boundary": 1.0})
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal((mesh.n_vertices, 4))
    out = bc.constrain_rhs(rhs)
    for k in range(4):
        single = bc.constrain_rhs(rhs[:, k])
        assert np.max(np.abs(out[:, k] - single)) <= 1e-15


def test_dirichlet_unknown_tag_raises():
    mesh = build_structured_mesh(2)
    blocks = assemble_blocks(mesh, lambda x: np.zeros((len(x), 2)), None,
                             np.zeros(mesh.n_triangles))
    with pytest.raises(ConfigError):
        DirichletCondition(blocks.mass, mesh, {"nope": 0.0})


def test_tag_boundary_layer_partition():
    mesh = tag_boundary_layer(build_structured_mesh(10))
    d1 = set(mesh.boundary_tags["d1"])
    d2 = set(mesh.boundary_tags["d2"])
    assert not d1 & d2
    assert d1 | d2 == set(build_structured_mesh(10).boundary_index())
    # the whole bottom edge is inflow
    bottom = np.nonzero(mesh.vertices[:, 1] == 0.0)[0]
    assert set(bottom) <= d1
    # the top edge is outflow
    top = np.nonzero(mesh.vertices[:, 1] == 1.0)[0]
    assert set(top) <= d2


def test_delta_shape_validation():
    mesh = build_structured_mesh(2)
    with pytest.raises(ConfigError):
        assemble_blocks(mesh, lambda x: np.zeros((len(x), 2)), None,
                        np.zeros(3))
    with pytest.raises(ConfigError):
        assemble_blocks(mesh, lambda x: np.zeros((len(x), 2)), None,
                        -np.ones(mesh.n_triangles))
