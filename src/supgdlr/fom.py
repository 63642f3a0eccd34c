"""Per-sample full-order reference solver.

Collocation decouples the full-order problem into independent PDE
solves, one per sample, advanced with the same semi-implicit splitting,
stabilization, implicit operator and boundary handling as the low-rank
path.  The explicit advection fluctuation, however, is evaluated
independently: by quadrature of each sample's own field (`b_fluct`,
called once per sample and step), not through the assembled affine-mode
blocks the low-rank step uses.  That makes the full-order step the
oracle that checks those blocks.  The samples are taken in chunks of a
fixed size, so the per-step temporaries are O(CHUNK n_e n_q) whatever
the sample count.
"""

import numpy as np

from .errors import ConfigError
from .mesh import assemble_load
from .integrator import _time_loop
from .diagnostics import l2_norm

__all__ = ["FomState", "fom_step", "fom_run"]


class FomState:
    """All sample fields as columns of one (N_h, N_C) matrix."""

    def __init__(self, fields, t=0.0):
        self.fields = np.asarray(fields, dtype=float)
        if self.fields.ndim != 2:
            raise ConfigError("fields must be a nodes-by-samples matrix")
        self.t = float(t)

    @property
    def n_samples(self):
        return self.fields.shape[1]


CHUNK = 32      # samples per chunk of the explicit advection residual


def _subtract_advection(rhs, ws, fields):
    """rhs[:, i] -= the skewed load of b_expl(omega_i) . grad u_i, with
    each sample's advection at its own parameters, CHUNK at a time."""
    mesh = ws.mesh
    ne, nq = ws.pw.shape
    for start in range(0, fields.shape[1], CHUNK):
        cols = slice(start, start + CHUNK)
        Gq = np.matmul(mesh.grads.transpose(0, 2, 1),
                       fields[mesh.triangles, cols])   # (ne, 2, c)
        Gq = Gq.transpose(2, 1, 0).copy()               # (c, 2, ne)
        val = np.empty((len(Gq), ne, nq))
        for g, v, omega in zip(Gq, val, ws.space.samples[cols]):
            bf = np.asarray(ws.b_expl(ws.xq_flat, omega),
                            dtype=float).reshape(ne, nq, 2)
            np.multiply(bf[..., 0], g[0, :, None], out=v)
            v += bf[..., 1] * g[1, :, None]
        rhs[:, cols] -= assemble_load(ws.blocks, val.transpose(1, 2, 0),
                                      skew=True)


def fom_step(state, ws):
    """Advance every sample by one semi-implicit step."""
    fields = state.fields
    if fields.shape[1] != ws.space.count:
        raise ConfigError("field columns must match the sample count")

    rhs = ws.blocks.skewed_mass @ fields
    rhs /= ws.cfg.dt

    fqp = ws.forcing_qp(state.t)
    if fqp is not None:
        rhs += assemble_load(ws.blocks, fqp, skew=True)[:, None]

    if ws.has_explicit_eps:
        rhs -= ws.blocks.stiffness @ (fields * ws.eps_expl[None, :])

    if ws.has_sample_loop:
        _subtract_advection(rhs, ws, fields)

    rhs = ws.bc.constrain_rhs(rhs)   # frees the unconstrained copy
    out = ws.lu.solve(rhs)
    if not np.all(np.isfinite(out)):
        raise ConfigError("full-order solve returned non-finite values")
    return FomState(out, t=state.t + ws.cfg.dt)


def fom_run(initial, ws, T, callbacks=()):
    """Time loop; returns (state, list of weighted space-time L2 norms).

    Each callback is called as cb(state, norm).
    """
    def measure(state):
        return l2_norm(state, ws.blocks.mass, ws.space)

    def advance(state):
        state = fom_step(state, ws)   # looked up per call: wrappers apply
        return state, measure(state)

    return _time_loop(initial, ws, T, advance, measure, float, callbacks)
