"""Structured P1 triangular finite elements on the unit square.

Provides the mesh, a symmetric triangle quadrature rule, assembly of all
sparse bilinear-form blocks used by the Galerkin and streamline-upwind
terms (including the skewed and streamline blocks of advection modes),
and Dirichlet boundary handling.
"""

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError

__all__ = [
    "Mesh",
    "QuadratureRule",
    "FemBlocks",
    "build_structured_mesh",
    "default_quadrature",
    "assemble_blocks",
    "assemble_load",
    "assemble_skewed",
    "assemble_streamline",
    "directional_gradients",
    "DirichletCondition",
    "tag_boundary_layer",
]


class QuadratureRule:
    """Symmetric quadrature on the reference triangle.

    points are barycentric coordinates, weights sum to the reference
    triangle area 1/2.
    """

    def __init__(self, points, weights, degree):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.degree = degree
        if np.any(self.weights <= 0):
            raise ConfigError("quadrature weights must be positive")

    @property
    def n_points(self):
        return len(self.weights)

    def basis_values(self):
        """P1 basis values at the quadrature points, shape (nq, 3).

        For P1 the nodal basis functions are the barycentric coordinates.
        """
        return self.points.copy()


def default_quadrature():
    """Degree-4 six-point symmetric rule (exact for quartics)."""
    a, wa = 0.445948490915965, 0.223381589678011
    b, wb = 0.091576213509771, 0.109951743655322
    pts = [
        (1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a),
        (1 - 2 * b, b, b), (b, 1 - 2 * b, b), (b, b, 1 - 2 * b),
    ]
    wts = [wa, wa, wa, wb, wb, wb]
    return QuadratureRule(pts, 0.5 * np.array(wts), degree=4)


class Mesh:
    """Uniform triangulation of the unit square with P1 connectivity.

    Each grid cell is split along the lower-left to upper-right diagonal.
    boundary_tags maps a tag name to an array of boundary vertex indices.
    """

    def __init__(self, n_per_side, vertices, triangles, boundary_tags):
        self.n_per_side = n_per_side
        self.vertices = vertices
        self.triangles = triangles
        self.boundary_tags = boundary_tags

        tri = vertices[triangles]                      # (ne, 3, 2)
        e1 = tri[:, 1] - tri[:, 0]
        e2 = tri[:, 2] - tri[:, 0]
        self.signed_areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        edges = np.stack([tri[:, 1] - tri[:, 0],
                          tri[:, 2] - tri[:, 1],
                          tri[:, 0] - tri[:, 2]], axis=1)
        self.h_K = np.linalg.norm(edges, axis=2).max(axis=1)
        self.h = float(self.h_K.max())

        # Constant P1 basis gradients per element, shape (ne, 3, 2).
        # For vertices p0,p1,p2 the gradient of the barycentric coordinate
        # lambda_a is the rotated opposite edge over twice the area.
        grads = np.empty((len(triangles), 3, 2))
        twoA = 2.0 * self.signed_areas
        opp = [(1, 2), (2, 0), (0, 1)]
        for a, (i, j) in enumerate(opp):
            d = tri[:, j] - tri[:, i]
            grads[:, a, 0] = -d[:, 1] / twoA
            grads[:, a, 1] = d[:, 0] / twoA
        self.grads = grads

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def quad_points(self, quad):
        """Physical quadrature point coordinates, shape (ne, nq, 2)."""
        tri = self.vertices[self.triangles]
        return np.einsum("qa,eai->eqi", quad.points, tri)

    def quad_weights(self, quad):
        """Physical quadrature weights per element, shape (ne, nq)."""
        return 2.0 * self.signed_areas[:, None] * quad.weights[None, :]

    def boundary_index(self, tags=None):
        """All boundary vertex indices (optionally only the given tags)."""
        names = self.boundary_tags if tags is None else tags
        idx = np.concatenate([self.boundary_tags[t] for t in names])
        return np.unique(idx)

    def interior_index(self):
        mask = np.ones(self.n_vertices, dtype=bool)
        mask[self.boundary_index()] = False
        return np.nonzero(mask)[0]


def build_structured_mesh(n_per_side):
    """Uniform triangulation of (0,1)^2 with 2*n^2 elements."""
    n = int(n_per_side)
    if n < 1:
        raise ConfigError("n_per_side must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    def vid(ix, iy):
        return iy * (n + 1) + ix

    tris = []
    for iy in range(n):
        for ix in range(n):
            v00 = vid(ix, iy)
            v10 = vid(ix + 1, iy)
            v01 = vid(ix, iy + 1)
            v11 = vid(ix + 1, iy + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    triangles = np.array(tris, dtype=np.int64)

    on_bdry = (
        (vertices[:, 0] == 0.0) | (vertices[:, 0] == 1.0)
        | (vertices[:, 1] == 0.0) | (vertices[:, 1] == 1.0)
    )
    tags = {"boundary": np.nonzero(on_bdry)[0]}
    return Mesh(n, vertices, triangles, tags)


def tag_boundary_layer(mesh, inflow_left_y=0.2, inflow_right_y=0.02):
    """Split the boundary into inflow ('d1') and outflow ('d2') parts.

    'd1' covers the left edge up to y=inflow_left_y, the whole bottom
    edge and the right edge up to y=inflow_right_y; 'd2' is the rest.
    Returns a new Mesh sharing geometry with the retagged boundary.
    """
    all_bdry = mesh.boundary_index()
    x = mesh.vertices[all_bdry, 0]
    y = mesh.vertices[all_bdry, 1]
    tol = 1e-12
    d1 = (
        ((x < tol) & (y <= inflow_left_y + tol))
        | (y < tol)
        | ((x > 1.0 - tol) & (y <= inflow_right_y + tol))
    )
    tags = {"d1": all_bdry[d1], "d2": all_bdry[~d1]}
    return Mesh(mesh.n_per_side, mesh.vertices, mesh.triangles, tags)


class FemBlocks:
    """Assembled global sparse matrices for a fixed stabilizing field.

    mass          (phi_j, phi_i)
    stiffness     (grad phi_j, grad phi_i)
    convection    (b . grad phi_j, phi_i)
    supg_mass     sum_K delta_K (phi_j, b . grad phi_i)_K
    supg_conv     sum_K delta_K (b . grad phi_j, b . grad phi_i)_K
    reaction      (cbar phi_j, phi_i)
    supg_reaction sum_K delta_K (cbar phi_j, b . grad phi_i)_K

    The stabilized test-function index is always i (rows).  bg_at_qp
    holds b . grad phi_a at the quadrature points, shape (ne, nq, 3).
    """

    def __init__(self, mesh, quad, delta, mass, stiffness, convection,
                 supg_mass, supg_conv, reaction, supg_reaction,
                 bg_at_qp, c_at_qp):
        self.mesh = mesh
        self.quad = quad
        self.delta = delta
        self.mass = mass
        self.stiffness = stiffness
        self.convection = convection
        self.supg_mass = supg_mass
        self.supg_conv = supg_conv
        self.reaction = reaction
        self.supg_reaction = supg_reaction
        self.bg_at_qp = bg_at_qp        # (ne, nq, 3), stabilizing field
        self.c_at_qp = c_at_qp          # (ne, nq), mean reaction


def _scatter(mesh, elem_mats):
    """Sum element 3x3 matrices into a global CSR matrix."""
    ne = mesh.n_triangles
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    data = elem_mats.reshape(ne, 9).ravel()
    n = mesh.n_vertices
    mat = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def _gradients_along(mesh, xq, v):
    """v . grad phi_a at the points xq (ne, nq, 2), shape (ne, nq, 3)."""
    vq = np.asarray(v(xq.reshape(-1, 2)), dtype=float).reshape(xq.shape)
    if not np.all(np.isfinite(vq)):
        raise ConfigError("advection field evaluated to non-finite values")
    return np.einsum("eqi,eai->eqa", vq, mesh.grads)


def assemble_blocks(mesh, b, c_bar, delta, quad=None):
    """Assemble all deterministic blocks for stabilizing field b.

    b : callable (n,2)->(n,2); c_bar : callable (n,2)->(n,) or None;
    delta : per-element array (>= 0), one entry per triangle.

    For P1 elements the -eps*Laplacian part of the element residual
    vanishes identically, so no Laplacian block exists.
    """
    quad = quad or default_quadrature()
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (mesh.n_triangles,):
        raise ConfigError(
            "delta must have one entry per triangle "
            f"(got {delta.shape}, expected ({mesh.n_triangles},))")
    if np.any(delta < 0):
        raise ConfigError("delta entries must be >= 0")

    xq = mesh.quad_points(quad)                        # (ne, nq, 2)
    pw = mesh.quad_weights(quad)                       # (ne, nq)
    phi = quad.basis_values()                          # (nq, 3)
    g = mesh.grads                                     # (ne, 3, 2)

    bg = _gradients_along(mesh, xq, b)
    if c_bar is None:
        cq = np.zeros(pw.shape)
    else:
        cq = c_bar(xq.reshape(-1, 2)).reshape(pw.shape)
        if not np.all(np.isfinite(cq)):
            raise ConfigError("reaction field evaluated to non-finite values")

    area = mesh.signed_areas
    mass_e = np.einsum("eq,qa,qb->eab", pw, phi, phi)
    stiff_e = np.einsum("e,eai,ebi->eab", area, g, g)
    conv_e = np.einsum("eq,qa,eqb->eab", pw, phi, bg)
    sm_e = np.einsum("e,eq,eqa,qb->eab", delta, pw, bg, phi)
    sc_e = np.einsum("e,eq,eqa,eqb->eab", delta, pw, bg, bg)
    reac_e = np.einsum("eq,eq,qa,qb->eab", pw, cq, phi, phi)
    sr_e = np.einsum("e,eq,eq,eqa,qb->eab", delta, pw, cq, bg, phi)

    return FemBlocks(
        mesh, quad, delta,
        mass=_scatter(mesh, mass_e),
        stiffness=_scatter(mesh, stiff_e),
        convection=_scatter(mesh, conv_e),
        supg_mass=_scatter(mesh, sm_e),
        supg_conv=_scatter(mesh, sc_e),
        reaction=_scatter(mesh, reac_e),
        supg_reaction=_scatter(mesh, sr_e),
        bg_at_qp=bg, c_at_qp=cq,
    )


def directional_gradients(blocks, v):
    """v . grad phi_a at the quadrature points of blocks, (ne, nq, 3).

    v is a callable (n,2) -> (n,2), such as an advection mode.
    """
    mesh = blocks.mesh
    return _gradients_along(mesh, mesh.quad_points(blocks.quad), v)


def _skewed_test(blocks):
    """Streamline test functions phi_a + delta_K b . grad phi_a at the
    quadrature points, shape (ne, nq, 3)."""
    return blocks.quad.basis_values()[None] \
        + blocks.delta[:, None, None] * blocks.bg_at_qp


def assemble_skewed(blocks, vg):
    """(v . grad phi_j, phi_i + delta_K b . grad phi_i) for a field v.

    vg is directional_gradients(blocks, v) and b the stabilizing field
    of blocks; with vg = blocks.bg_at_qp this is convection + supg_conv.
    """
    mesh = blocks.mesh
    pw = mesh.quad_weights(blocks.quad)
    elem = np.einsum("eq,eqa,eqb->eab", pw, _skewed_test(blocks), vg)
    return _scatter(mesh, elem)


def assemble_streamline(blocks, vg_test, vg_trial):
    """sum_K delta_K (v_trial . grad phi_j, v_test . grad phi_i)_K.

    The arguments are the fields' directional_gradients; with both
    blocks.bg_at_qp this is supg_conv.
    """
    mesh = blocks.mesh
    dpw = blocks.delta[:, None] * mesh.quad_weights(blocks.quad)
    elem = np.einsum("eq,eqa,eqb->eab", dpw, vg_test, vg_trial)
    return _scatter(mesh, elem)


def assemble_load(blocks, values_at_qp, skew=False):
    """Assemble load vector(s) from quadrature-point data.

    values_at_qp : (ne, nq) or (ne, nq, k) scalar source g; the result
    holds (g, phi_i) plus, when skew is True, the stabilized companion
    sum_K delta_K (g, b.grad phi_i)_K.

    Returns (N_h,) or (N_h, k).
    """
    mesh, quad = blocks.mesh, blocks.quad
    pw = mesh.quad_weights(quad)
    vals = np.asarray(values_at_qp, dtype=float)
    squeeze = vals.ndim == 2
    if squeeze:
        vals = vals[..., None]
    k = vals.shape[-1]

    test = _skewed_test(blocks) if skew else quad.basis_values()[None]
    contrib = np.einsum("eq,eqk,eqak->eak", pw, vals, test[..., None])

    out = np.zeros((mesh.n_vertices, k))
    np.add.at(out, mesh.triangles.ravel(),
              contrib.reshape(-1, k))
    return out[:, 0] if squeeze else out


class DirichletCondition:
    """Row-replacement Dirichlet constraint with symmetric elimination.

    Stores the constrained dof indices, their values and the eliminated
    columns of the original operator so repeated right-hand sides can be
    constrained cheaply.
    """

    def __init__(self, matrix, mesh, boundary_values):
        dofs = []
        vals = []
        for tag, value in boundary_values.items():
            if tag not in mesh.boundary_tags:
                raise ConfigError(f"unknown boundary tag {tag!r}")
            idx = mesh.boundary_tags[tag]
            dofs.append(idx)
            if callable(value):
                vals.append(np.asarray(value(mesh.vertices[idx]), float))
            else:
                vals.append(np.full(len(idx), float(value)))
        self.dofs = np.concatenate(dofs) if dofs else np.array([], dtype=int)
        self.values = np.concatenate(vals) if vals else np.array([])
        order = np.argsort(self.dofs)
        self.dofs = self.dofs[order]
        self.values = self.values[order]
        self._cols = matrix.tocsc()[:, self.dofs].tocsr()

        n = matrix.shape[0]
        mask = np.ones(n, dtype=bool)
        mask[self.dofs] = False
        diag = sp.diags(mask.astype(float))
        constrained = (diag @ matrix @ diag).tolil()
        constrained[self.dofs, self.dofs] = 1.0
        self.matrix = constrained.tocsr()
        self.matrix.sort_indices()

    def constrain_rhs(self, rhs):
        """Return the rhs consistent with the constrained matrix."""
        out = np.array(rhs, dtype=float, copy=True)
        if out.ndim == 1:
            out -= self._cols @ self.values
            out[self.dofs] = self.values
        else:
            out -= (self._cols @ self.values)[:, None]
            out[self.dofs, :] = self.values[:, None]
        return out
