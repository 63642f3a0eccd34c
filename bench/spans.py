"""Spans recorded around calls into supgdlr, from outside the package.

`instrument(tracer)` replaces public functions at the module attribute
their caller looks up (for example `supgdlr.integrator.step` inside
`run`) with wrappers that record one span per call: name, start, end
and parent span.  Spans stay in memory; `summarize` turns them into the
per-layer metrics after the solve.  Nothing under `src/` changes.
"""

import contextlib
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

import scipy.sparse.linalg

# Spans that delimit one time step of the low-rank and full-order loops.
STEP_SPANS = ("integrator.step", "fom.fom_step")

# (module, attribute looked up by the caller, span name)
PATCHES = (
    ("supgdlr.runner", "build_problem", "runner.build_problem"),
    ("supgdlr.runner", "analyze_reaction", "coefficients.analyze_reaction"),
    ("supgdlr.runner", "prepare_workspace", "integrator.prepare_workspace"),
    ("supgdlr.runner", "init_from_snapshot", "lowrank.init_from_snapshot"),
    ("supgdlr.runner", "run", "integrator.run"),
    ("supgdlr.runner", "write_reports_csv", "diagnostics.write_reports_csv"),
    ("supgdlr.runner", "local_peclet", "coefficients.local_peclet"),
    ("supgdlr.integrator", "assemble_blocks", "mesh.assemble_blocks"),
    ("supgdlr.integrator", "step", "integrator.step"),
    ("supgdlr.integrator", "step_deterministic_modes",
     "integrator.step_deterministic_modes"),
    ("supgdlr.integrator", "step_stochastic_modes",
     "integrator.step_stochastic_modes"),
    ("supgdlr.integrator", "assemble_load", "mesh.assemble_load"),
    ("supgdlr.integrator", "weighted_orthonormalize",
     "sampling.weighted_orthonormalize"),
    ("supgdlr.integrator", "project_complement",
     "sampling.project_complement"),
    ("supgdlr.diagnostics", "step_report", "diagnostics.step_report"),
    ("supgdlr.fom", "fom_run", "fom.fom_run"),
    ("supgdlr.fom", "fom_step", "fom.fom_step"),
    ("supgdlr.fom", "assemble_load", "mesh.assemble_load"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a root
    in_step: bool        # opened while a step span was open


class Tracer:
    """In-memory span and counter store for one solve."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(int)    # counted inside steps only
        self._stack = []
        self._step_depth = 0

    def wrap(self, name, fn):
        is_step = name in STEP_SPANS

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self._step_depth > 0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._step_depth += is_step
            span.start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._step_depth -= is_step
                self._stack.pop()

        return traced

    def count(self, name, n=1):
        if self._step_depth:
            self.counts[name] += n

    def counted(self, name, fn):
        """Wrap a callable so that calls made inside a step are counted."""
        if fn is None:
            return None

        def counting(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counting


def self_times(spans):
    """Duration of each span minus the part its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        pieces = sorted((max(spans[c].start, s.start),
                         min(spans[c].end, s.end)) for c in children[i])
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in pieces:
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append((s.end - s.start) - covered)
    return out


class _TracedLU:
    """Proxy around the workspace's SuperLU: spans and column counts."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer
        self._solve = tracer.wrap("integrator.lu_solve", lu.solve)

    def solve(self, rhs, *args, **kwargs):
        self._tracer.count("integrator.lu_solve.cols",
                           1 if rhs.ndim == 1 else rhs.shape[1])
        return self._solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TracedSpla:
    """Stand-in for `scipy.sparse.linalg` as seen by the integrator."""

    def __init__(self, tracer):
        self._tracer = tracer
        self._splu = tracer.wrap("integrator.splu", scipy.sparse.linalg.splu)

    def splu(self, *args, **kwargs):
        return _TracedLU(self._splu(*args, **kwargs), self._tracer)

    def __getattr__(self, name):
        return getattr(scipy.sparse.linalg, name)


COEFFICIENT_COUNTER = "coefficients.evals"


def count_coefficient_calls(tracer, problem):
    """Count calls of the random-coefficient, forcing and mu callables.

    Wraps them on the objects `build_problem` returned; the workspace
    holds its own references to the explicit coefficient callables.
    """
    _, _, model, analysis, _, ws, _ = problem
    wrapped = {}

    def counted(fn):
        if fn is None:
            return None
        if id(fn) not in wrapped:
            wrapped[id(fn)] = tracer.counted(COEFFICIENT_COUNTER, fn)
        return wrapped[id(fn)]

    model.b_fluct = counted(model.b_fluct)
    model.c_fluct = counted(model.c_fluct)
    model.forcing = counted(model.forcing)
    analysis.mu = counted(analysis.mu)
    ws.b_expl = counted(ws.b_expl)
    ws.c_expl = counted(ws.c_expl)


@contextlib.contextmanager
def patched(module, attr, value):
    old = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, old)


@contextlib.contextmanager
def instrument(tracer):
    """Record spans for every call listed in PATCHES while active."""
    with contextlib.ExitStack() as stack:
        for mod_name, attr, name in PATCHES:
            mod = importlib.import_module(mod_name)
            traced = tracer.wrap(name, getattr(mod, attr))
            if name == "runner.build_problem":
                traced = _counting_build(tracer, traced)
            stack.enter_context(patched(mod, attr, traced))
        integrator = importlib.import_module("supgdlr.integrator")
        stack.enter_context(patched(integrator, "spla", _TracedSpla(tracer)))
        yield tracer


def _counting_build(tracer, build):
    def build_and_count(*args, **kwargs):
        problem = build(*args, **kwargs)
        count_coefficient_calls(tracer, problem)
        return problem
    return build_and_count


# Per-step busy time (ms) of these spans, and self time where named.
STEP_MS = (
    "integrator.step", "integrator.step_deterministic_modes",
    "integrator.step_stochastic_modes", "integrator.lu_solve",
    "mesh.assemble_load", "diagnostics.step_report",
    "sampling.weighted_orthonormalize", "sampling.project_complement",
    "fom.fom_step",
)
STEP_SELF_MS = ("integrator.step", "integrator.step_deterministic_modes",
                "fom.fom_step")
STEP_CALLS = ("mesh.assemble_load", "sampling.project_complement")
# Total seconds of these spans outside the steps (setup and post-run).
TOTAL_S = (
    "mesh.assemble_blocks", "integrator.splu", "lowrank.init_from_snapshot",
    "coefficients.analyze_reaction", "runner.build_problem",
    "coefficients.local_peclet", "diagnostics.write_reports_csv",
)
TOTAL_SELF_S = ("integrator.prepare_workspace",)
METRIC_NAMES = (
    tuple(f"{n}.ms" for n in STEP_MS)
    + tuple(f"{n}.self_ms" for n in STEP_SELF_MS)
    + tuple(f"{n}.calls" for n in STEP_CALLS)
    + tuple(f"{n}.s" for n in TOTAL_S)
    + tuple(f"{n}.self_s" for n in TOTAL_SELF_S)
    + ("integrator.lu_solve.cols", "coefficients.evals_per_step",
       "diagnostics.step_report.share"))


def summarize(tracer):
    """Per-layer metrics of one traced solve, keyed by metric name."""
    spans = tracer.spans
    selfs = self_times(spans)
    busy, busy_self, calls = defaultdict(float), defaultdict(float), \
        defaultdict(int)
    total, total_self = defaultdict(float), defaultdict(float)
    n_steps = 0
    for s, own in zip(spans, selfs):
        if s.in_step or s.name in STEP_SPANS:
            busy[s.name] += s.end - s.start
            busy_self[s.name] += own
            calls[s.name] += 1
        else:
            total[s.name] += s.end - s.start
            total_self[s.name] += own
        n_steps += s.name in STEP_SPANS and not s.in_step
    if n_steps == 0:
        raise ValueError("no step spans were recorded")

    out = {}
    for name in STEP_MS:
        out[f"{name}.ms"] = 1e3 * busy[name] / n_steps
    for name in STEP_SELF_MS:
        out[f"{name}.self_ms"] = 1e3 * busy_self[name] / n_steps
    for name in STEP_CALLS:
        out[f"{name}.calls"] = calls[name] / n_steps
    for name in TOTAL_S:
        out[f"{name}.s"] = total[name]
    for name in TOTAL_SELF_S:
        out[f"{name}.self_s"] = total_self[name]
    out["integrator.lu_solve.cols"] = \
        tracer.counts["integrator.lu_solve.cols"] / n_steps
    out["coefficients.evals_per_step"] = \
        tracer.counts[COEFFICIENT_COUNTER] / n_steps
    step_ms = sum(1e3 * busy[name] for name in STEP_SPANS) / n_steps
    out["diagnostics.step_report.share"] = \
        out["diagnostics.step_report.ms"] / step_ms
    return out, {"steps": n_steps, "step_ms": step_ms}
