"""Per-sample full-order reference solver.

Collocation decouples the full-order problem into independent PDE
solves, one per sample, advanced with the identical assembly, time
splitting, stabilization and boundary handling as the low-rank path so
the two are directly comparable.
"""

import numpy as np

from .errors import ConfigError
from .mesh import assemble_load
from .integrator import _deterministic_forcing_qp, _sample_residual_qp, \
    _time_loop
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


def fom_step(state, ws):
    """Advance every sample by one step of the configured scheme."""
    fields = state.fields
    if fields.shape[1] != ws.space.count:
        raise ConfigError("field columns must match the sample count")

    rhs = ws.time_matrix @ fields / ws.cfg.dt

    fqp = _deterministic_forcing_qp(ws, state.t)
    if fqp is not None:
        rhs += assemble_load(ws.blocks, fqp, skew=True)[:, None]

    if ws.has_explicit_eps:
        rhs -= ws.blocks.stiffness @ (fields * ws.eps_expl[None, :])

    if ws.has_sample_loop:
        elem = fields[ws.mesh.triangles]               # (ne, 3, N_C)
        Vq = np.einsum("qa,eai->eqi", ws.phi, elem)
        Gq = np.einsum("ead,eai->edi", ws.mesh.grads, elem)
        val = _sample_residual_qp(
            ws, state.t,
            u_qp_of=lambda i: Vq[:, :, i],
            grad_of=lambda i: Gq[:, :, i],
            n_samples=state.n_samples)
        rhs -= assemble_load(ws.blocks, val, skew=True)

    constrained = ws.bc0.constrain_rhs(rhs)
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
