"""Stabilized dynamical low-rank solver for random transport problems.

Library layout:

mesh          structured P1 elements, quadrature, sparse assembly
sampling      collocation sample spaces and weighted orthonormalization
coefficients  random coefficient models and stabilization parameters
lowrank       the two-factor low-rank state and its factorizations
integrator    staggered semi-implicit time stepping
fom           per-sample full-order reference solver
diagnostics   norms, coercivity/tangent checks, stability-bound ledgers
runner        experiment presets and configuration-driven batch runs
"""

__version__ = "0.1.0"

from .errors import (
    SupgDlrError, ConfigError, RankLossError, NearSingularError,
    BlowupError, SolverError,
)
from .mesh import (
    Mesh, QUAD_POINTS, QUAD_WEIGHTS, FemBlocks, build_structured_mesh,
    assemble_blocks, assemble_load,
    assemble_skewed, assemble_streamline, directional_gradients,
    DirichletCondition, tag_boundary_layer,
)
from .sampling import (
    SampleSpace, expectation, project_complement,
    weighted_orthonormalize, make_tensor_grid, make_monte_carlo,
)
from .coefficients import (
    CoefficientModel, ReactionAnalysis, rotating_body, boundary_layer,
    constant_adr, analyze_reaction, delta_coercivity, delta_semi_implicit,
    delta_experiment, local_peclet, check_moderate_stochasticity,
)
from .lowrank import (
    DlrState, init_from_modes, init_from_snapshot, evaluate_realization,
)
from .integrator import (
    StepWorkspace, prepare_workspace,
    step_deterministic_modes, step_stochastic_modes, step, run,
)
from .fom import FomState, fom_step, fom_run
from .diagnostics import (
    StepReport, BoundLedger, l2_norm, md_metric, range_excess,
    check_coercivity, check_tangent_residual, evaluate_bounds,
    forcing_norms, step_report, write_reports_csv, write_ledgers_csv,
)
from .runner import (
    RunConfig, preset_rotating_body, preset_boundary_layer,
    run_from_config, build_problem, write_config, load_config,
    write_field_dump,
)
