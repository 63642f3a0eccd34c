"""Per-sample full-order reference solver.

Collocation decouples the full-order problem into independent PDE
solves, one per sample, advanced with the same semi-implicit splitting,
stabilization, implicit operator and boundary handling as the low-rank
path.  The explicit advection fluctuation, however, is evaluated
independently: by quadrature of each sample's own field (`b_fluct`,
called once per sample and step), not through the assembled affine-mode
blocks the low-rank step uses.  That makes the full-order step the
oracle that checks those blocks.

One step is one pass over chunks of CHUNK samples.  Each chunk's whole
right-hand side (skewed mass over dt, the forcing load assembled once
per step, explicit diffusion and the per-sample advection load) is
built, constrained and solved into its columns of the preallocated
output while it is in cache.  Beyond the input and output fields the
loop's temporaries are O(N_h CHUNK + CHUNK n_e n_q) whatever the
sample count.  The step also takes its own weighted L2 norm,
FomState.l2, which `fom_run` returns: the mass quadratic form of each
solved chunk's columns, weighted over the samples once all are solved,
which is `l2_norm` of the fields without its mass product the size of
the fields.
"""

import numpy as np

from .errors import ConfigError, SolverError
from .mesh import assemble_load
from .integrator import _time_loop
from .diagnostics import _colwise, l2_norm

__all__ = ["FomState", "fom_step", "fom_run"]


class FomState:
    """All sample fields as columns of one (N_h, N_C) matrix.

    l2 is the weighted L2 norm of the fields when the step that made
    them measured it, else None.
    """

    def __init__(self, fields, t=0.0, l2=None):
        self.fields = np.asarray(fields, dtype=float)
        if self.fields.ndim != 2:
            raise ConfigError("fields must be a nodes-by-samples matrix")
        self.t = float(t)
        self.l2 = l2

    @property
    def n_samples(self):
        return self.fields.shape[1]


CHUNK = 32      # samples per chunk of the step's right-hand side and solve


def _subtract_advection(rhs, ws, fields, samples):
    """rhs[:, i] -= the skewed load of b_expl(omega_i) . grad u_i, with
    each sample's advection at its own parameters."""
    mesh = ws.mesh
    ne, nq = ws.pw.shape
    Gq = np.matmul(mesh.grads.transpose(0, 2, 1),
                   fields[mesh.triangles])          # (ne, 2, c)
    Gq = Gq.transpose(2, 1, 0).copy()               # (c, 2, ne)
    val = np.empty((len(Gq), ne, nq))
    for g, v, omega in zip(Gq, val, samples):
        bf = np.asarray(ws.b_expl(ws.xq_flat, omega),
                        dtype=float).reshape(ne, nq, 2)
        np.multiply(bf[..., 0], g[0, :, None], out=v)
        v += bf[..., 1] * g[1, :, None]
    rhs -= assemble_load(ws.blocks, val.transpose(1, 2, 0))


def fom_step(state, ws):
    """Advance every sample by one semi-implicit step."""
    fields = state.fields
    if fields.shape[1] != ws.space.count:
        raise ConfigError("field columns must match the sample count")

    fqp = ws.forcing_qp(state.t)
    load = None if fqp is None \
        else assemble_load(ws.blocks, fqp)[:, None]

    out = np.empty_like(fields)
    colM = np.empty(fields.shape[1])
    for start in range(0, fields.shape[1], CHUNK):
        cols = slice(start, start + CHUNK)
        u = fields[:, cols]
        rhs = ws.blocks.skewed_mass @ u
        rhs /= ws.dt
        if load is not None:
            rhs += load
        if ws.has_explicit_eps:
            eps = ws.analysis.eps_star[None, cols]
            rhs -= ws.blocks.stiffness @ (u * eps)
        if ws.has_sample_loop:
            _subtract_advection(rhs, ws, u, ws.space.samples[cols])
        out[:, cols] = ws.lu.solve(ws.bc.constrain_rhs(rhs))
        colM[cols] = _colwise(ws.blocks.mass, out[:, cols])

    if not np.all(np.isfinite(out)):
        raise SolverError("full-order solve returned non-finite values")
    # the sum l2_norm takes, from the same column values
    sq = float(ws.space.weights @ colM)
    return FomState(out, t=state.t + ws.dt,
                    l2=float(np.sqrt(max(sq, 0.0))))


def fom_run(initial, ws, T, callbacks=()):
    """Time loop; returns (state, list of weighted space-time L2 norms).

    Each callback is called as cb(state, norm).
    """
    def advance(state):
        state = fom_step(state, ws)   # looked up per call: wrappers apply
        return state, state.l2

    return _time_loop(initial, ws, T, advance,
                      lambda state: l2_norm(state.fields, ws.blocks.mass,
                                            ws.space),
                      float, callbacks)
