"""Mesh, quadrature and assembly against closed-form oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from supgdlr import (
    QUAD_POINTS, QUAD_WEIGHTS, ConfigError, DirichletCondition,
    assemble_blocks, assemble_load, assemble_skewed, assemble_streamline,
    build_structured_mesh, directional_gradients, tag_boundary_layer,
)
from supgdlr.mesh import Mesh, _form
from supgdlr.runner import build_problem, preset_boundary_layer, \
    preset_rotating_body

from conftest import at_points


def pattern_arrays(mesh):
    """Every array of mesh.form_pattern, flat."""
    return list(mesh.form_pattern)


def relabelled_mesh(n, seed):
    """A structured mesh with shuffled vertex numbers, shuffled triangles
    and rotated vertex order within each triangle: no row of its forms
    comes in the order of the structured builder."""
    grid = build_structured_mesh(n)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(grid.n_vertices)
    vertices = np.empty_like(grid.vertices)
    vertices[perm] = grid.vertices
    triangles = perm[grid.triangles][rng.permutation(grid.n_triangles)]
    triangles = np.roll(triangles, 1, axis=1)
    return Mesh(n, vertices, triangles,
                {"boundary": perm[grid.boundary_tags["boundary"]]})


def scipy_form(mesh, test, trial, weight=None):
    """_form the way scipy builds it: the einsum over (element, point,
    vertex, component) and a COO matrix with its duplicates summed.

    The einsum's order of summation follows the layout of its operands,
    so they are element-first C arrays: the reference sums in the order
    of that layout."""
    pw = mesh.quad_weights if weight is None else mesh.quad_weights * weight
    pw = np.ascontiguousarray(pw)
    test, trial = (np.ascontiguousarray(f if f.ndim == 4 else f[..., None])
                   for f in (test, trial))
    elem = np.einsum("eq,eqac,eqbc->eab", pw, test, trial)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_vertices
    mat = sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def assert_same_csr(got, want):
    """Same pattern and the same data, bit for bit."""
    assert got.shape == want.shape
    for name in ("indptr", "indices"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


def exact_ref_integral(i, j):
    """Integral of x^i y^j over the reference triangle: i! j! / (i+j+2)!."""
    from math import factorial
    return factorial(i) * factorial(j) / factorial(i + j + 2)


def test_quadrature_weights_sum_to_half():
    assert QUAD_WEIGHTS.shape == (6,)
    assert np.all(QUAD_WEIGHTS > 0)
    assert abs(QUAD_WEIGHTS.sum() - 0.5) <= 1e-15


def test_quadrature_monomial_exactness():
    # physical coordinates on the reference triangle (0,0),(1,0),(0,1)
    x = QUAD_POINTS[:, 1]
    y = QUAD_POINTS[:, 2]
    for i in range(5):
        for j in range(5 - i):
            val = float(np.sum(QUAD_WEIGHTS * x ** i * y ** j))
            assert abs(val - exact_ref_integral(i, j)) <= 1e-13, (i, j)


def test_basis_values_are_barycentric():
    # the P1 basis values at the points are their barycentric coordinates
    assert QUAD_POINTS.shape == (6, 3)
    assert np.all(QUAD_POINTS > 0)
    assert np.allclose(QUAD_POINTS.sum(axis=1), 1.0, atol=1e-15)
    for arr in (QUAD_POINTS, QUAD_WEIGHTS):
        assert not arr.flags.writeable


@pytest.mark.parametrize("n,nv,ne", [(1, 4, 2), (2, 9, 8), (128, 16641, 32768)])
def test_structured_mesh_counts(n, nv, ne):
    mesh = build_structured_mesh(n)
    assert mesh.n_vertices == nv
    assert mesh.n_triangles == ne
    assert abs(mesh.signed_areas.sum() - 1.0) <= 1e-14
    assert np.all(mesh.signed_areas > 0)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_structured_mesh_triangles_match_cell_loop(n):
    # the cell-by-cell construction the vectorized builder replaces
    def vid(ix, iy):
        return iy * (n + 1) + ix

    tris = []
    for iy in range(n):
        for ix in range(n):
            v00, v10 = vid(ix, iy), vid(ix + 1, iy)
            v01, v11 = vid(ix, iy + 1), vid(ix + 1, iy + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    triangles = build_structured_mesh(n).triangles
    assert triangles.dtype == np.int64
    assert np.array_equal(triangles, np.array(tris, dtype=np.int64))


def test_quadrature_arrays_are_cached_and_read_only():
    mesh = build_structured_mesh(3)
    points, weights = mesh.quad_points, mesh.quad_weights
    assert mesh.quad_points is points
    assert mesh.quad_weights is weights
    tri = mesh.vertices[mesh.triangles]
    assert np.array_equal(points,
                          np.einsum("qa,eai->eqi", QUAD_POINTS, tri))
    assert np.array_equal(
        weights, 2.0 * mesh.signed_areas[:, None] * QUAD_WEIGHTS[None, :])
    # the pattern's indptr and indices stay writeable: scipy copies
    # read-only index arrays on every sparse product
    for arr in (points, weights, *pattern_arrays(mesh)[2:]):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_directional_gradients_are_the_einsum_bit_for_bit():
    mesh = build_structured_mesh(5)
    rng = np.random.default_rng(0)
    fields = [
        lambda x: np.column_stack([0.5 - x[:, 1], x[:, 0] - 0.5]),
        lambda x: rng.standard_normal((len(x), 2)),
        # negative zeros, whose products a sum from +0.0 turns positive
        lambda x: np.column_stack([-np.zeros(len(x)), x[:, 0] - 0.5]),
    ]
    xq = mesh.quad_points
    for v in fields:
        vq = v(xq.reshape(-1, 2)).reshape(xq.shape)
        got = directional_gradients(mesh, vq)
        want = np.einsum("eqi,eai->eqa", vq, mesh.grads)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def element_first_geometry(mesh):
    """signed_areas, h_K, grads, quad_points and quad_weights by the
    element-first formulas on an (ne, 3, 2) gather of the vertices."""
    tri = mesh.vertices[mesh.triangles]
    e1, e2 = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    edges = np.stack([tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 1],
                      tri[:, 0] - tri[:, 2]], axis=1)
    h_K = np.linalg.norm(edges, axis=2).max(axis=1)
    grads = np.empty((len(tri), 3, 2))
    for a, (i, j) in enumerate([(1, 2), (2, 0), (0, 1)]):
        d = tri[:, j] - tri[:, i]
        grads[:, a, 0] = -d[:, 1] / (2.0 * areas)
        grads[:, a, 1] = d[:, 0] / (2.0 * areas)
    points = np.einsum("qa,eai->eqi", QUAD_POINTS, tri)
    weights = 2.0 * areas[:, None] * QUAD_WEIGHTS[None, :]
    return {"signed_areas": areas, "h_K": h_K, "grads": grads,
            "quad_points": points, "quad_weights": weights}


def shaken_mesh(n, seed):
    """A structured mesh's connectivity on random vertices over six
    decades, negative coordinates and both orientations included."""
    grid = build_structured_mesh(n)
    xy = np.random.default_rng(seed).standard_normal(grid.vertices.shape)
    return Mesh(n, xy * np.array([1e-3, 1e3]), grid.triangles,
                grid.boundary_tags)


@pytest.mark.parametrize("make_mesh", [
    lambda: build_structured_mesh(1),
    lambda: tag_boundary_layer(build_structured_mesh(20)),
    lambda: relabelled_mesh(5, 3),
    lambda: shaken_mesh(7, 1),
], ids=["n1", "boundary_layer_desk", "relabelled5", "shaken7"])
def test_element_last_geometry_is_element_first_bit_for_bit(make_mesh):
    mesh = make_mesh()
    for name, want in element_first_geometry(mesh).items():
        got = getattr(mesh, name)
        assert got.shape == want.shape, name
        # signed zeros included
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
    # the element-first arrays are views of the element-last ones
    assert mesh.dphi.shape == (2, 3, mesh.n_triangles)
    assert mesh.weights.shape == (len(QUAD_WEIGHTS), mesh.n_triangles)
    assert mesh.dphi.flags.c_contiguous and mesh.weights.flags.c_contiguous
    assert mesh.grads.base is mesh.dphi
    assert mesh.quad_weights.base is mesh.weights
    assert np.array_equal(mesh.coords(), mesh.vertices[mesh.triangles].T)
    grads = element_first_geometry(mesh)["grads"]
    xq = mesh.quad_points
    rng = np.random.default_rng(mesh.n_triangles)
    for vq in (rng.standard_normal(xq.shape),
               np.where(rng.random(xq.shape) < 0.5, -0.0, xq)):
        want = np.einsum("eqi,eai->eqa", vq, grads)
        got = directional_gradients(mesh, vq)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_quad_points_are_the_einsum_bit_for_bit():
    for mesh in (build_structured_mesh(7), shaken_mesh(7, 1)):
        want = np.einsum("qa,eai->eqi", QUAD_POINTS,
                         mesh.vertices[mesh.triangles])
        got = mesh.quad_points
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_assemble_load_reuses_its_test_functions():
    mesh = build_structured_mesh(3)
    blocks = assemble_blocks(
        mesh, at_points(mesh, lambda x: np.column_stack([1.0 + x[:, 1],
                                                         -x[:, 0]])), None,
        np.linspace(0.05, 0.2, mesh.n_triangles))
    vals = np.random.default_rng(0).standard_normal(
        (mesh.n_triangles, len(QUAD_WEIGHTS)))
    assert blocks.load_test is None
    first = assemble_load(blocks, vals)
    kept = blocks.load_test
    assert not kept.flags.writeable
    assert np.array_equal(assemble_load(blocks, vals), first)
    assert blocks.load_test is kept


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
    bq, cq = at_points(mesh, b_fn), at_points(mesh, c_fn)
    full = assemble_blocks(mesh, bq, cq, delta)
    # assembling without reaction or without delta pins C, SM, R and SR
    # each on its own
    no_c = assemble_blocks(mesh, bq, None, delta)
    no_delta = assemble_blocks(mesh, bq, cq, zero)
    plain = assemble_blocks(mesh, bq, None, zero)
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

    blocks = assemble_blocks(mesh, at_points(mesh, b_fn), None, delta)
    bg = blocks.bg_at_qp
    skewed = assemble_skewed(blocks, bg)
    assert abs(skewed - blocks.transport).max() == 0.0
    streamline = assemble_streamline(blocks, bg, bg)
    assert abs(streamline - blocks.supg_conv).max() == 0.0


def test_element_mass_closed_form():
    # one element of area 1/2: (area/12) * [[2,1,1],[1,2,1],[1,1,2]]
    mesh = build_structured_mesh(1)
    blocks = assemble_blocks(mesh, np.zeros(mesh.quad_points.shape), None,
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
    blocks = assemble_blocks(mesh, np.zeros(mesh.quad_points.shape), None,
                             np.zeros(mesh.n_triangles))
    ones = np.ones(mesh.n_vertices)
    assert abs(ones @ (blocks.mass @ ones) - 1.0) <= 1e-13


def test_assemble_load_constant_matches_mass():
    mesh = build_structured_mesh(3)
    blocks = assemble_blocks(mesh, np.zeros(mesh.quad_points.shape), None,
                             np.zeros(mesh.n_triangles))
    vals = np.ones((mesh.n_triangles, len(QUAD_WEIGHTS)))
    load = assemble_load(blocks, vals)
    want = blocks.mass @ np.ones(mesh.n_vertices)
    assert np.max(np.abs(load - want)) <= 1e-14


def test_assemble_load_skew_adds_streamline_term():
    mesh = build_structured_mesh(3)
    delta = np.full(mesh.n_triangles, 0.1)

    def b_fn(x):
        return np.column_stack([np.ones(len(x)), -np.ones(len(x))])

    blocks = assemble_blocks(mesh, at_points(mesh, b_fn), None, delta)
    vals = np.ones((mesh.n_triangles, len(QUAD_WEIGHTS)))
    skew = assemble_load(blocks, vals)
    # (1, phi_i + delta_K b.grad phi_i) is skewed_mass applied to ones,
    # and differs from the plain load (1, phi_i)
    ones = np.ones(mesh.n_vertices)
    assert np.max(np.abs(skew - blocks.mass @ ones)) > 0.0
    want = blocks.skewed_mass @ ones
    assert np.max(np.abs(skew - want)) <= 1e-14


def test_assemble_load_multiple_columns():
    mesh = build_structured_mesh(2)
    blocks = assemble_blocks(mesh, np.zeros(mesh.quad_points.shape), None,
                             np.zeros(mesh.n_triangles))
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((mesh.n_triangles, len(QUAD_WEIGHTS), 3))
    out = assemble_load(blocks, vals)
    assert out.shape == (mesh.n_vertices, 3)
    for k in range(3):
        single = assemble_load(blocks, vals[:, :, k])
        assert np.max(np.abs(out[:, k] - single)) <= 1e-15


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("skew", [False, True])
def test_assemble_load_matches_element_loop(k, skew):
    # skew False: delta = 0, whose streamline test is the plain phi_i
    mesh = build_structured_mesh(3)
    delta = np.linspace(0.05, 0.2, mesh.n_triangles) if skew \
        else np.zeros(mesh.n_triangles)
    blocks = assemble_blocks(
        mesh, at_points(mesh, lambda x: np.column_stack([1.0 + x[:, 1],
                                                         -x[:, 0]])), None,
        delta)
    phi = QUAD_POINTS
    pw = mesh.quad_weights
    rng = np.random.default_rng(k)
    vals = rng.standard_normal((mesh.n_triangles, len(QUAD_WEIGHTS), k))
    want = np.zeros((mesh.n_vertices, k))
    for e, tri in enumerate(mesh.triangles):
        test = phi + delta[e] * blocks.bg_at_qp[e]
        for a in range(3):
            want[tri[a]] += (pw[e, :, None] * test[:, a, None]
                             * vals[e]).sum(axis=0)
    got = assemble_load(blocks, vals)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    if k == 1:
        single = assemble_load(blocks, vals[:, :, 0])
        assert np.max(np.abs(single - want[:, 0])) \
            <= 1e-14 * np.max(np.abs(want))


def test_scatter_is_element_to_node_incidence():
    mesh = build_structured_mesh(3)
    S = mesh.scatter
    assert S.shape == (mesh.n_vertices, 3 * mesh.n_triangles)
    counts = np.bincount(mesh.triangles.ravel(),
                         minlength=mesh.n_vertices)
    assert np.array_equal(np.asarray(S.sum(axis=1)).ravel(), counts)
    assert mesh.scatter is S


def test_dirichlet_solves_linear_exactly():
    # -div(grad u) = 0 with u = x on the boundary has solution u = x
    mesh = build_structured_mesh(6)
    blocks = assemble_blocks(mesh, np.zeros(mesh.quad_points.shape), None,
                             np.zeros(mesh.n_triangles))
    bc = DirichletCondition(blocks.stiffness, mesh,
                            {"boundary": lambda p: p[:, 0]})
    rhs = bc.constrain_rhs(np.zeros(mesh.n_vertices))
    import scipy.sparse.linalg as spla
    u = spla.spsolve(bc.matrix.tocsc(), rhs)
    assert np.max(np.abs(u - mesh.vertices[:, 0])) <= 1e-12


def test_dirichlet_matrix_rows_are_identity():
    mesh = build_structured_mesh(3)
    blocks = assemble_blocks(mesh, np.zeros(mesh.quad_points.shape), None,
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
    blocks = assemble_blocks(mesh, np.zeros(mesh.quad_points.shape), None,
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
    blocks = assemble_blocks(mesh, np.zeros(mesh.quad_points.shape), None,
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
        assemble_blocks(mesh, np.zeros(mesh.quad_points.shape), None,
                        np.zeros(3))
    with pytest.raises(ConfigError):
        assemble_blocks(mesh, np.zeros(mesh.quad_points.shape), None,
                        -np.ones(mesh.n_triangles))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_assemble_blocks_rejects_non_finite_delta(bad):
    mesh = build_structured_mesh(3)
    delta = np.full(mesh.n_triangles, 0.1)
    delta[4] = bad
    with pytest.raises(ConfigError, match="non-finite"):
        assemble_blocks(mesh, np.ones(mesh.quad_points.shape), None, delta)


@pytest.mark.parametrize("make_mesh", [
    lambda: build_structured_mesh(1),
    lambda: build_structured_mesh(20),
    lambda: build_structured_mesh(32),
    lambda: relabelled_mesh(5, 3),
    lambda: relabelled_mesh(9, 4),
], ids=["n1", "boundary_layer_desk", "rotating_body_desk", "relabelled5",
        "relabelled9"])
def test_form_matches_scipy_coo_bit_for_bit(make_mesh):
    mesh = make_mesh()
    ne, nq = mesh.n_triangles, len(QUAD_WEIGHTS)
    rng = np.random.default_rng(mesh.n_vertices)
    phi, grads = QUAD_POINTS[None], mesh.grads[:, None]
    rand = rng.standard_normal((ne, nq, 3))
    # negative zeros, which a sum from +0.0 would turn positive
    signed = np.where(rng.random((ne, nq, 3)) < 0.5, -0.0, rand)
    cases = [
        (phi, phi, None), (grads, grads, None),
        (rand, phi, None), (phi, rand, rng.standard_normal((ne, nq))),
        (rand, rng.standard_normal((ne, nq, 3)), rng.random((ne, 1))),
        (signed, signed, None),
        (rng.standard_normal((ne, 1, 3, 2)), grads, None),
    ]
    for test, trial, weight in cases:
        assert_same_csr(_form(mesh, test, trial, weight),
                        scipy_form(mesh, test, trial, weight))


@pytest.mark.parametrize("n", [1, 4, 20])
def test_form_pattern_is_scipys_pattern(n):
    mesh = build_structured_mesh(n)
    indptr, indices, order, slot = mesh.form_pattern
    ones = scipy_form(mesh, QUAD_POINTS[None], QUAD_POINTS[None])
    assert indptr.dtype == indices.dtype == np.int32
    assert np.array_equal(indptr, ones.indptr)
    assert np.array_equal(indices, ones.indices)
    # each element entry lands in exactly one slot
    assert np.array_equal(np.sort(order), np.arange(9 * mesh.n_triangles))
    assert np.array_equal(np.unique(slot), np.arange(len(indices)))
    assert mesh.form_pattern is mesh.form_pattern


def test_blocks_share_one_pattern():
    mesh = build_structured_mesh(4)
    blocks = assemble_blocks(
        mesh, at_points(mesh, lambda x: np.column_stack([1.0 + x[:, 1],
                                                         -x[:, 0]])),
        at_points(mesh, lambda x: 1.0 + x[:, 0]),
        np.full(mesh.n_triangles, 0.05))
    indptr, indices, _, _ = mesh.form_pattern
    for mat in (blocks.mass, blocks.stiffness, blocks.supg_conv,
                blocks.skewed_mass, blocks.transport):
        assert np.shares_memory(mat.indices, indices)
        assert np.shares_memory(mat.indptr, indptr)


def reference_dirichlet(matrix, dofs, values):
    """D A D + diag(boundary indicator) and the column-slice lift."""
    boundary = np.zeros(matrix.shape[0])
    boundary[dofs] = 1.0
    interior = sp.diags(1.0 - boundary)
    constrained = (interior @ matrix @ interior + sp.diags(boundary)).tocsr()
    constrained.sort_indices()
    lift = matrix.tocsc()[:, dofs].tocsr() @ values
    return constrained, lift


@pytest.mark.parametrize("make_cfg", [
    lambda: preset_boundary_layer("desk"),
    lambda: preset_rotating_body("desk"),
], ids=["boundary_layer", "rotating_body"])
def test_braw_and_constraint_match_scipy_bit_for_bit(make_cfg):
    cfg = make_cfg()
    mesh, *_, ws, _ = build_problem(cfg)
    blocks = ws.blocks
    want = (blocks.skewed_mass / cfg.dt
            + ws.analysis.eps_bar * blocks.stiffness + blocks.transport)
    got = ws.Braw.copy()
    got.eliminate_zeros()
    assert_same_csr(got, want)
    matrix, lift = reference_dirichlet(ws.Braw, ws.bc.dofs, ws.bc.values)
    assert_same_csr(ws.bc.matrix, matrix)
    assert np.array_equal(ws.bc._lift.view(np.int64), lift.view(np.int64))


@pytest.mark.parametrize("form", ["mass", "stiffness"])
def test_dirichlet_matches_scipy_bit_for_bit(form):
    # the stiffness holds exact zeros (the diagonal edges), which the
    # constrained matrix drops as the sparse products do
    mesh = tag_boundary_layer(build_structured_mesh(7))
    blocks = assemble_blocks(mesh, np.zeros(mesh.quad_points.shape), None,
                             np.zeros(mesh.n_triangles))
    bc = DirichletCondition(getattr(blocks, form), mesh,
                            {"d1": lambda p: 1.0 + p[:, 0], "d2": -0.5})
    matrix, lift = reference_dirichlet(getattr(blocks, form), bc.dofs,
                                       bc.values)
    assert_same_csr(bc.matrix, matrix)
    assert np.array_equal(bc._lift.view(np.int64), lift.view(np.int64))


def test_tag_boundary_layer_reuses_the_geometry():
    mesh = build_structured_mesh(6)
    points, pattern = mesh.quad_points, mesh.form_pattern
    tagged = tag_boundary_layer(mesh)
    for name in ("vertices", "triangles", "signed_areas", "h_K", "grads"):
        assert getattr(tagged, name) is getattr(mesh, name)
    assert tagged.h == mesh.h
    assert tagged.quad_points is points
    assert tagged.form_pattern is pattern
    assert mesh.boundary_tags.keys() == {"boundary"}
    assert tagged.boundary_tags.keys() == {"d1", "d2"}
