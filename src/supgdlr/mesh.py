"""Structured P1 triangular finite elements on the unit square.

Provides the mesh, a symmetric triangle quadrature rule, one assembler
for the sparse bilinear forms of the Galerkin and streamline-upwind
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

    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
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
    return QuadratureRule(pts, 0.5 * np.array(wts))


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


def tag_boundary_layer(mesh):
    """Split the boundary into inflow ('d1') and outflow ('d2') parts.

    'd1' covers the left edge up to y=0.2, the whole bottom edge and the
    right edge up to y=0.02; 'd2' is the rest.
    Returns a new Mesh sharing geometry with the retagged boundary.
    """
    all_bdry = mesh.boundary_index()
    x = mesh.vertices[all_bdry, 0]
    y = mesh.vertices[all_bdry, 1]
    tol = 1e-12
    d1 = (
        ((x < tol) & (y <= 0.2 + tol))
        | (y < tol)
        | ((x > 1.0 - tol) & (y <= 0.02 + tol))
    )
    tags = {"d1": all_bdry[d1], "d2": all_bdry[~d1]}
    return Mesh(mesh.n_per_side, mesh.vertices, mesh.triangles, tags)


class FemBlocks:
    """Assembled global sparse matrices for a fixed stabilizing field b.

    mass         (phi_j, phi_i)
    stiffness    (grad phi_j, grad phi_i)
    supg_conv    sum_K delta_K (b . grad phi_j, b . grad phi_i)_K
    skewed_mass  (phi_j, phi_i + delta_K b . grad phi_i)
    transport    (b . grad phi_j + cbar phi_j, phi_i + delta_K b . grad phi_i)

    Each is one _form; the test index is always i (rows).  bg_at_qp
    holds b . grad phi_a at the quadrature points, shape (ne, nq, 3).
    """

    def __init__(self, mesh, quad, delta, bg_at_qp):
        self.mesh = mesh
        self.quad = quad
        self.delta = delta
        self.bg_at_qp = bg_at_qp        # (ne, nq, 3), stabilizing field


def _form(blocks, test, trial, weight=None):
    """sum_K (weight trial_j, test_i)_K as a global CSR matrix.

    test and trial hold the basis functions at the quadrature points of
    blocks, broadcastable to (ne, nq, 3), or to (ne, nq, 3, 2) for vector
    values, whose components the product contracts; weight is None or
    broadcastable to (ne, nq).
    """
    mesh = blocks.mesh
    pw = mesh.quad_weights(blocks.quad)
    if weight is not None:
        pw = pw * weight
    test, trial = (f if f.ndim == 4 else f[..., None]
                   for f in (test, trial))
    elem = np.einsum("eq,eqac,eqbc->eab", pw, test, trial)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_vertices
    mat = sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(n, n)).tocsr()
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
    phi = quad.basis_values()[None]                    # (1, nq, 3)
    grads = mesh.grads[:, None]                        # (ne, 1, 3, 2)
    blocks = FemBlocks(mesh, quad, delta, _gradients_along(mesh, xq, b))
    bg = blocks.bg_at_qp
    transported = bg                   # b . grad phi_j + cbar phi_j
    if c_bar is not None:
        cq = c_bar(xq.reshape(-1, 2)).reshape(xq.shape[:2])
        if not np.all(np.isfinite(cq)):
            raise ConfigError("reaction field evaluated to non-finite values")
        transported = bg + cq[..., None] * phi

    test = _skewed_test(blocks)
    blocks.mass = _form(blocks, phi, phi)
    blocks.stiffness = _form(blocks, grads, grads)
    blocks.supg_conv = assemble_streamline(blocks, bg, bg)
    blocks.skewed_mass = _form(blocks, test, phi)
    blocks.transport = _form(blocks, test, transported)
    return blocks


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
    of blocks; with vg = blocks.bg_at_qp and no reaction this is
    blocks.transport.
    """
    return _form(blocks, _skewed_test(blocks), vg)


def assemble_streamline(blocks, vg_test, vg_trial):
    """sum_K delta_K (v_trial . grad phi_j, v_test . grad phi_i)_K.

    The arguments are the fields' directional_gradients; with both
    blocks.bg_at_qp this is supg_conv.
    """
    return _form(blocks, vg_test, vg_trial, blocks.delta[:, None])


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

        # D A D + diag(boundary indicator), D the interior indicator
        boundary = np.zeros(matrix.shape[0])
        boundary[self.dofs] = 1.0
        interior = sp.diags(1.0 - boundary)
        self.matrix = (interior @ matrix @ interior
                       + sp.diags(boundary)).tocsr()
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
