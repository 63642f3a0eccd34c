"""Structured P1 triangular finite elements on the unit square.

Provides the mesh, a symmetric triangle quadrature rule, one assembler
for the sparse bilinear forms of the Galerkin and streamline-upwind
terms (including the skewed and streamline blocks of advection modes),
and Dirichlet boundary handling.  Every form of a mesh is a CSR matrix
on the one pattern of Mesh.form_pattern; the mesh keeps two, its mass
and stiffness.
"""

import copy
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, SolverError

__all__ = [
    "Mesh",
    "QUAD_POINTS",
    "QUAD_WEIGHTS",
    "FemBlocks",
    "build_structured_mesh",
    "assemble_blocks",
    "assemble_load",
    "assemble_skewed",
    "assemble_streamline",
    "directional_gradients",
    "DirichletCondition",
    "tag_boundary_layer",
]


def _degree4_rule():
    """Degree-4 six-point symmetric rule (exact for quartics): barycentric
    points, which are also the P1 basis values there, and weights that
    sum to the reference triangle area 1/2."""
    a, wa = 0.445948490915965, 0.223381589678011
    b, wb = 0.091576213509771, 0.109951743655322
    pts = [
        (1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a),
        (1 - 2 * b, b, b), (b, 1 - 2 * b, b), (b, b, 1 - 2 * b),
    ]
    wts = [wa, wa, wa, wb, wb, wb]
    points, weights = np.array(pts), 0.5 * np.array(wts)
    points.flags.writeable = False
    weights.flags.writeable = False
    return points, weights


# the one quadrature rule of every form, load and coefficient scan
QUAD_POINTS, QUAD_WEIGHTS = _degree4_rule()


class Mesh:
    """Uniform triangulation of the unit square with P1 connectivity.

    Each grid cell is split along the lower-left to upper-right diagonal.
    boundary_tags maps a tag name to an array of boundary vertex indices.
    Element geometry is element-last (the element index the last,
    contiguous axis): coords() and the P1 basis gradients dphi are
    (component, vertex, element), the read-only quadrature weights
    (point, element); grads and quad_weights are their transposed views.
    """

    def __init__(self, n_per_side, vertices, triangles, boundary_tags):
        self.n_per_side = n_per_side
        self.vertices = vertices
        self.triangles = triangles
        self.boundary_tags = boundary_tags

        xy = self.coords()
        # the edge opposite each vertex a, p_{a+2} - p_{a+1}
        opp = xy[:, [2, 0, 1]] - xy[:, [1, 2, 0]]
        e2 = xy[:, 2] - xy[:, 0]
        self.signed_areas = 0.5 * (opp[0, 2] * e2[1] - opp[1, 2] * e2[0])
        self.h_K = np.sqrt((opp * opp).sum(axis=0).max(axis=0))
        self.h = float(self.h_K.max())

        # Constant P1 basis gradients per element: the gradient of the
        # barycentric coordinate lambda_a is the rotated opposite edge
        # over twice the area.
        self.dphi = np.stack((-opp[1], opp[0])) / (2.0 * self.signed_areas)
        self.grads = self.dphi.T
        self.weights = 2.0 * self.signed_areas * QUAD_WEIGHTS[:, None]
        self.weights.flags.writeable = False
        self.quad_weights = self.weights.T

    def coords(self):
        """Vertex coordinates of each element, (2, 3, ne)."""
        return np.take(self.vertices.T, self.triangles.T, axis=1)

    @cached_property
    def scatter(self):
        """Element-to-node incidence, CSR (N_h, 3 n_e): column 3 e + a
        holds a one in the row of vertex a of element e."""
        n = self.triangles.size
        return sp.csr_matrix(
            (np.ones(n), (self.triangles.ravel(), np.arange(n))),
            shape=(self.n_vertices, n))

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @cached_property
    def quad_points(self):
        """Physical quadrature point coordinates, shape (ne, nq, 2).

        Computed once per mesh and read-only, like quad_weights.
        """
        # einsum("qa,eai->eqi", QUAD_POINTS, vertices[triangles]) term by
        # term from +0.0, the same sum in the same order, off NumPy's
        # generic einsum loop; summed element-last, laid out (ne, nq, 2)
        xy = self.coords()
        points = np.zeros((2, len(QUAD_POINTS), self.n_triangles))
        for a in range(3):
            points += QUAD_POINTS[None, :, a, None] * xy[:, None, a]
        points = np.ascontiguousarray(points.T)
        points.flags.writeable = False
        return points

    @cached_property
    def form_pattern(self):
        """CSR pattern of every P1 form on this mesh and the order in
        which _form sums element entries into it; computed once.

        Returns int32 (indptr, indices, order) and slot, of the intp
        type that bincount takes uncast.  Element matrices are flattened
        element-last, entry (a, b) of element e at (3 a + b) n_e + e.
        Entry order[k] is added to slot slot[k] of a form's data, for k
        in turn from zero.  That is the order of scipy's
        coo_matrix((elem, (rows, cols))).tocsr() with the entries in
        (element, test, trial) order: it buckets them by row in input
        order, sorts each row by column alone (a permutation that
        depends only on the columns) and adds each run of one column
        left to right.

        order and slot are read-only.  indptr and indices, which every
        form shares, stay writeable, as scipy copies read-only index
        arrays in every product: copy a form before changing its pattern
        in place (eliminate_zeros, prune).
        """
        n, ne = self.n_vertices, self.n_triangles
        tri = self.triangles.astype(np.int32)
        # scipy buckets the entries (e, a, b) by their row tri[e, a] in
        # input order: the (e, a) pairs in stable row order, each followed
        # by its three trial vertices b
        ea = np.argsort(tri.ravel(), kind="stable")
        e, a = ea // 3, ea % 3
        src = (3 * a[:, None] + np.arange(3)) * ne + e[:, None]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(3 * np.bincount(tri.ravel(), minlength=n),
                  out=indptr[1:])
        # then sorts each row by column: scipy's own sort, carrying the
        # element-last index of each entry as the data
        probe = sp.csr_matrix((src.ravel().astype(float), tri[e].ravel(),
                               indptr), shape=(n, n))
        probe.sort_indices()
        src, col = probe.data.astype(np.int32), probe.indices
        # and adds each run of one column in a row, left to right
        head = np.ones(len(col), dtype=bool)
        np.not_equal(col[1:], col[:-1], out=head[1:])
        head[indptr[:-1][np.diff(indptr) > 0]] = True
        slot = np.cumsum(head) - 1
        indptr = np.append(0, slot + 1)[indptr].astype(np.int32)
        for arr in (src, slot):
            arr.flags.writeable = False
        return indptr, col[head], src, slot

    @cached_property
    def mass(self):
        """Mass matrix (phi_j, phi_i), assembled once."""
        return _form(self, QUAD_POINTS[None], QUAD_POINTS[None])

    @cached_property
    def stiffness(self):
        """Stiffness matrix (grad phi_j, grad phi_i), assembled once."""
        return _form(self, self.grads[:, None], self.grads[:, None])

    @cached_property
    def inverse_constant(self):
        """Inverse-inequality constant C_I, grad-norm <= (C_I/h) L2-norm
        on the P1 functions that vanish on the boundary; computed once.

        C_I = h sqrt(lambda_max) where lambda_max is the largest generalized
        eigenvalue of (stiffness, mass) restricted to interior nodes, found
        by Lanczos iteration on the mass-preconditioned stiffness from a
        fixed random start, so C_I is reproducible.  Refuses (ConfigError)
        a mesh with fewer than two interior vertices.
        """
        interior = self.interior_index()
        if len(interior) < 2:
            raise ConfigError("the inverse constant needs at least two "
                              "interior vertices: n_per_side >= 3")
        A = self.stiffness[np.ix_(interior, interior)].tocsc()
        M = self.mass[np.ix_(interior, interior)].tocsc()
        v0 = np.random.default_rng(0).standard_normal(len(interior))
        try:
            lam = spla.eigsh(A, k=1, M=M, which="LA", v0=v0,
                             maxiter=5000, tol=1e-10,
                             return_eigenvectors=False)
        except spla.ArpackNoConvergence as err:
            raise SolverError("largest generalized eigenvalue for the "
                              "inverse constant did not converge") from err
        # small inflation so random Rayleigh quotients stay below
        return self.h * np.sqrt(float(lam[0]) * (1.0 + 1e-6))

    def boundary_index(self):
        """All boundary vertex indices, sorted."""
        return np.unique(np.concatenate(list(self.boundary_tags.values())))

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

    # lower-left vertex of each cell, cells row by row from y = 0; each
    # cell gives the triangles (v00, v10, v11) and (v00, v11, v01)
    cell = np.arange(n, dtype=np.int64)
    v00 = (cell[:, None] * (n + 1) + cell).ravel()
    v10, v01 = v00 + 1, v00 + n + 1
    v11 = v01 + 1
    triangles = np.stack([v00, v10, v11, v00, v11, v01],
                         axis=1).reshape(-1, 3)

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
    Returns a new Mesh with the retagged boundary that shares the
    geometry, and every per-mesh array computed so far, with mesh; the
    boundary vertex set is unchanged, so the inverse constant holds too.
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
    retagged = copy.copy(mesh)
    retagged.boundary_tags = {"d1": all_bdry[d1], "d2": all_bdry[~d1]}
    return retagged


class FemBlocks:
    """Assembled global sparse matrices for a fixed stabilizing field b.

    mass         (phi_j, phi_i)
    stiffness    (grad phi_j, grad phi_i)
    supg_conv    sum_K delta_K (b . grad phi_j, b . grad phi_i)_K
    skewed_mass  (phi_j, phi_i + delta_K b . grad phi_i)
    transport    (b . grad phi_j + cbar phi_j, phi_i + delta_K b . grad phi_i)

    Each is one _form; the test index is always i (rows).  mass and
    stiffness are the mesh's own.  bg_at_qp holds b . grad phi_a at the
    quadrature points, shape (ne, nq, 3).  load_test keeps the weighted
    streamline test functions of assemble_load, read-only, once it has
    run.
    """

    def __init__(self, mesh, delta, bg_at_qp, supg_conv, skewed_mass,
                 transport):
        self.mesh, self.delta, self.bg_at_qp = mesh, delta, bg_at_qp
        self.mass, self.stiffness = mesh.mass, mesh.stiffness
        self.supg_conv, self.skewed_mass = supg_conv, skewed_mass
        self.transport, self.load_test = transport, None


def _form(mesh, test, trial, weight=None):
    """sum_K (weight trial_j, test_i)_K as a global CSR matrix.

    test and trial hold the basis functions at the quadrature points of
    mesh, broadcastable to (ne, nq, 3), or to (ne, nq, 3, 2) for vector
    values, whose components the product contracts; weight is None or
    broadcastable to (ne, nq).  The matrix shares the indptr and
    indices of mesh.form_pattern, and equals scipy's COO-to-CSR
    conversion of the element matrices bit for bit: bincount adds in
    scipy's order from +0.0, and einsum yields no -0.0.
    """
    pw = mesh.weights
    if weight is not None:
        pw = np.ascontiguousarray(pw * weight.T)
    # element-last (component, point, vertex, element) arrays, views of
    # mesh.grads and directional_gradients values, copies otherwise: the
    # sums of einsum("eq,eqac,eqbc->eab"), bit for bit, on long loops
    test, trial = (np.ascontiguousarray(
        (f if f.ndim == 4 else f[..., None]).transpose(3, 1, 2, 0))
        for f in (test, trial))
    elem = np.einsum("qe,cqae,cqbe->abe", pw, test, trial).ravel()
    indptr, indices, order, slot = mesh.form_pattern
    data = np.bincount(slot, weights=elem[order], minlength=len(indices))
    n = mesh.n_vertices
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def assemble_blocks(mesh, bq, cq, delta):
    """Assemble all deterministic blocks for the stabilizing field b.

    bq : b at the quadrature points, (ne, nq, 2); cq : the reaction
    cbar there, (ne, nq), or None; delta : per-element array, one
    finite entry >= 0 per triangle.  analyze_reaction samples both
    fields (ReactionAnalysis.b_mean and c_mean).

    For P1 elements the -eps*Laplacian part of the element residual
    vanishes identically, so no Laplacian block exists.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (mesh.n_triangles,):
        raise ConfigError(
            "delta must have one entry per triangle "
            f"(got {delta.shape}, expected ({mesh.n_triangles},))")
    if not np.all(np.isfinite(delta)):
        raise ConfigError("delta contains non-finite entries")
    if np.any(delta < 0):
        raise ConfigError("delta entries must be >= 0")

    phi = QUAD_POINTS[None]                            # (1, nq, 3)
    bg = directional_gradients(mesh, bq)
    # b . grad phi_j + cbar phi_j
    transported = bg if cq is None else bg + cq[..., None] * phi
    test = _skewed_test(delta, bg)
    return FemBlocks(mesh, delta, bg,
                     supg_conv=_form(mesh, bg, bg, delta[:, None]),
                     skewed_mass=_form(mesh, test, phi),
                     transport=_form(mesh, test, transported))


def directional_gradients(mesh, vq):
    """v . grad phi_a at the quadrature points of mesh, (ne, nq, 3), for
    the values vq of a field v there, (ne, nq, 2)."""
    # einsum("eqi,eai->eqa", vq, grads) term by term from +0.0, the same
    # sum in the same order (signed zeros included), summed element-last;
    # the (ne, nq, 3) result is a view of that (nq, 3, ne) array
    vq = np.ascontiguousarray(vq.T)                    # (2, nq, ne)
    out = np.zeros((vq.shape[1], 3, mesh.n_triangles))
    for i in range(2):
        out += vq[i, :, None] * mesh.dphi[i]
    return out.transpose(2, 0, 1)


def _skewed_test(delta, bg):
    """Streamline test functions phi_a + delta_K b . grad phi_a at the
    quadrature points, shape (ne, nq, 3), for bg = b . grad phi_a."""
    return QUAD_POINTS[None] + delta[:, None, None] * bg


def assemble_skewed(blocks, vg):
    """(v . grad phi_j, phi_i + delta_K b . grad phi_i) for a field v.

    vg is directional_gradients(blocks.mesh, v at the points) and b the
    stabilizing field of blocks; with vg = blocks.bg_at_qp and no
    reaction this is blocks.transport.
    """
    return _form(blocks.mesh, _skewed_test(blocks.delta, blocks.bg_at_qp),
                 vg)


def assemble_streamline(blocks, vg_test, vg_trial):
    """sum_K delta_K (v_trial . grad phi_j, v_test . grad phi_i)_K.

    The arguments are the fields' directional_gradients; with both
    blocks.bg_at_qp this is supg_conv.
    """
    return _form(blocks.mesh, vg_test, vg_trial, blocks.delta[:, None])


def assemble_load(blocks, values_at_qp):
    """Streamline-tested load vector(s) from quadrature-point data.

    values_at_qp : (ne, nq) or (ne, nq, k) scalar source g; the result
    holds (g, phi_i + delta_K b.grad phi_i), the Galerkin load plus its
    stabilized companion.  The element vectors are one batched matmul,
    summed into the nodes by the sparse mesh.scatter; the weighted test
    functions are computed once and kept, read-only, in
    blocks.load_test.

    Returns (N_h,) or (N_h, k).
    """
    mesh = blocks.mesh
    vals = np.asarray(values_at_qp, dtype=float)
    squeeze = vals.ndim == 2
    if squeeze:
        vals = vals[..., None]

    weighted = blocks.load_test
    if weighted is None:
        weighted = np.ascontiguousarray(
            mesh.quad_weights[..., None]
            * _skewed_test(blocks.delta, blocks.bg_at_qp))
        weighted.flags.writeable = False                # (ne, nq, 3)
        blocks.load_test = weighted
    contrib = np.matmul(weighted.transpose(0, 2, 1), vals)   # (ne, 3, k)
    out = mesh.scatter @ contrib.reshape(-1, vals.shape[-1])
    return out[:, 0] if squeeze else out


class DirichletCondition:
    """Row-replacement Dirichlet constraint with symmetric elimination.

    Stores the constrained dof indices, their values and the lift (the
    eliminated columns of the original operator times the values), so
    repeated right-hand sides can be constrained cheaply.  matrix is a
    CSR matrix with sorted indices that stores the diagonal entry of
    every constrained dof, as every form of the mesh does.
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
        n = matrix.shape[0]
        lifted = np.zeros(n)
        lifted[self.dofs] = self.values
        self._lift = matrix @ lifted

        # D A D + diag(boundary indicator), D the interior indicator, on
        # a copy of the data: boundary rows and columns zeroed, their
        # diagonal set to one, and zeros dropped as the products drop them
        boundary = np.zeros(n, dtype=bool)
        boundary[self.dofs] = True
        indptr, indices = matrix.indptr, matrix.indices
        rows = np.repeat(np.arange(n), np.diff(indptr))
        data = np.where(boundary[rows] | boundary[indices], 0.0,
                        matrix.data)
        data[(rows == indices) & boundary[rows]] = 1.0
        self.matrix = sp.csr_matrix((data, indices.copy(), indptr.copy()),
                                    shape=matrix.shape)
        self.matrix.eliminate_zeros()

    def constrain_rhs(self, rhs):
        """Return the rhs consistent with the constrained matrix."""
        out = np.array(rhs, dtype=float, copy=True)
        if out.ndim == 1:
            out -= self._lift
            out[self.dofs] = self.values
        else:
            out -= self._lift[:, None]
            out[self.dofs, :] = self.values[:, None]
        return out
