"""Per-sample full-order reference solver.

Collocation decouples the full-order problem into independent PDE
solves, one per sample, advanced with the same semi-implicit splitting,
stabilization, implicit operator and boundary handling as the low-rank
path.  The explicit advection fluctuation, however, is evaluated
independently: by quadrature of each sample's own field (`b_fluct`),
not through the assembled affine-mode blocks the low-rank step uses.
That makes the full-order step the oracle that checks those blocks.
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


def _sample_residual_qp(ws, fields):
    """Explicit advection residual of every sample.

    Returns (ne, nq, N_C) values of b_expl . grad u at the quadrature
    points, with the advection of each sample evaluated at that
    sample's parameters.
    """
    elem = fields[ws.mesh.triangles]                   # (ne, 3, N_C)
    Gq = np.einsum("ead,eai->edi", ws.mesh.grads, elem)
    ne, nq = ws.pw.shape
    val = np.zeros((ne, nq, fields.shape[1]))
    for i, omega in enumerate(ws.space.samples):
        bf = np.asarray(ws.b_expl(ws.xq_flat, omega),
                        dtype=float).reshape(ne, nq, 2)
        val[:, :, i] += np.einsum("eqd,ed->eq", bf, Gq[:, :, i])
    return val


def fom_step(state, ws):
    """Advance every sample by one semi-implicit step."""
    fields = state.fields
    if fields.shape[1] != ws.space.count:
        raise ConfigError("field columns must match the sample count")

    rhs = ws.time_matrix @ fields / ws.cfg.dt

    fqp = ws.forcing_qp(state.t)
    if fqp is not None:
        rhs += assemble_load(ws.blocks, fqp, skew=True)[:, None]

    if ws.has_explicit_eps:
        rhs -= ws.blocks.stiffness @ (fields * ws.eps_expl[None, :])

    if ws.has_sample_loop:
        rhs -= assemble_load(ws.blocks, _sample_residual_qp(ws, fields),
                             skew=True)

    constrained = ws.bc.constrain_rhs(rhs)
    out = ws.lu.solve(constrained)
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
