"""Tests of the benchmark itself: output checks, spans, trace fidelity.

Run with `python3 -m pytest bench/test_bench.py`.
"""

import json
import math

import pytest

import run as bench_run

bench_run.import_package()

from supgdlr import runner  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, instrument, self_times, summarize  # noqa: E402
from workloads import Workload, check_outputs, solve  # noqa: E402


def _mini_rotating_body(seed):
    """A rotating-body run small enough for a unit test."""
    return runner.RunConfig(
        name="mini", n_per_side=6, dt=0.02, T=0.1, rank=1,
        model="rotating_body",
        sampler={"kind": "monte_carlo", "count": 8, "seed": seed,
                 "intervals": [(-1.0, 1.0)] * 3},
        initial="rotating_body_shapes", bc={"boundary": 0.0})


def _short_boundary_layer(seed):
    cfg = runner.preset_boundary_layer("desk")
    cfg.T = 3 * cfg.dt
    return cfg


MINI = Workload("mini", "lowrank", _mini_rotating_body, seeded=True)


# -- output check and failure accounting ----------------------------------

def _reference_for(tmp_path, seed):
    res = solve(MINI, MINI.config(seed), str(tmp_path))
    assert res.error is None
    return {"mini": {"seed": seed, "l2": res.final["l2"],
                     "grad": res.final["grad"], "supg": res.final["supg"]}}


def test_matching_reference_passes(tmp_path):
    reference = _reference_for(tmp_path, seed=3)
    run = bench_run.measure(MINI, 3, 0.0, False, reference, str(tmp_path),
                            log=lambda msg: None)
    # the untimed warm-up, then MIN_SOLVES timed solves
    assert run.attempted == 1 + bench_run.MIN_SOLVES and run.failed == 0
    # each solve's own setup and at least one standalone setup after it
    assert len(run.setups) >= 2 * bench_run.MIN_SOLVES


@pytest.mark.parametrize("key", ["l2", "grad", "supg"])
def test_tampered_reference_is_a_failure(tmp_path, key):
    reference = _reference_for(tmp_path, seed=3)
    reference["mini"][key] *= 1.0 + 1e-9
    messages = []
    run = bench_run.measure(MINI, 3, 0.0, False, reference, str(tmp_path),
                            log=messages.append)
    # the untimed warm-up runs fewer steps and is not compared
    n = bench_run.MIN_SOLVES
    assert run.attempted == 1 + n and len(run.untraced) == n
    assert run.failed == n
    assert len(messages) == n
    assert all(f"final {key}" in msg for msg in messages)
    assert not bench_run.result_line(run.attempted, run.failed,
                                     {})["correct"]


def test_reference_applies_only_at_its_seed_for_seeded_inputs(tmp_path):
    reference = _reference_for(tmp_path, seed=3)
    reference["mini"]["l2"] *= 2.0
    final = {"l2": 1.0, "grad": 1.0, "supg": 1.0, "finite": True,
             "defect_gram": 0.0, "defect_mean": 0.0}
    assert check_outputs(MINI, 4, final, reference) == []
    assert check_outputs(MINI, 3, final, reference) != []


def test_committed_reference_is_checked_on_every_seed():
    with open(bench_run.BENCH / "reference.json") as fh:
        reference = json.load(fh)
    wl = workloads.WORKLOADS["boundary_layer"]
    final = dict(reference["boundary_layer"], finite=True,
                 defect_gram=0.0, defect_mean=0.0)
    assert check_outputs(wl, 99, final, reference) == []
    final["supg"] *= 1.0 + 1e-10
    assert check_outputs(wl, 99, final, reference) != []


@pytest.mark.parametrize("bad", [
    {"finite": False},
    {"defect_gram": 1e-8},
    {"defect_mean": 1e-8},
])
def test_unchecked_seed_still_needs_finite_norms_and_small_defects(bad):
    final = {"l2": 1.0, "grad": 1.0, "supg": 1.0, "finite": True,
             "defect_gram": 0.0, "defect_mean": 0.0}
    final.update(bad)
    assert check_outputs(MINI, 5, final, {}) != []


def test_result_line_reports_failures():
    line = bench_run.result_line(attempted=3, failed=1,
                                 values={"solve_s": 1.5})
    assert line == {"correct": False, "attempted": 3, "failed": 1,
                    "metrics": {"solve_s": {"value": 1.5, "unit": "s"}}}


# -- spans and self time ---------------------------------------------------

def test_self_time_on_synthetic_span_tree():
    tree = [
        Span("root", 0.0, 10.0, -1, False),
        Span("a", 1.0, 4.0, 0, False),
        Span("a1", 2.0, 3.0, 1, False),
        Span("b", 5.0, 6.5, 0, False),
        Span("c", 8.0, 12.0, 0, False),    # clipped to the parent's end
        Span("d", 3.0, 5.5, 0, False),     # overlaps a and b
    ]
    got = self_times(tree)
    # root is covered on [1, 6.5] and [8, 10]
    assert got == pytest.approx([10.0 - 5.5 - 2.0, 2.0, 1.0, 1.5, 4.0, 2.5])


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_nests_spans_and_partitions_the_step():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.wrap("mesh.assemble_load", lambda: tracer.count("x"))
    inner = tracer.wrap("integrator.step_deterministic_modes",
                        lambda: (leaf(), leaf()))
    step = tracer.wrap("integrator.step", lambda: inner())
    outside = tracer.wrap("mesh.assemble_blocks", lambda: tracer.count("x"))
    outside()
    step()
    step()

    names = [s.name for s in tracer.spans]
    assert names[:5] == ["mesh.assemble_blocks", "integrator.step",
                         "integrator.step_deterministic_modes",
                         "mesh.assemble_load", "mesh.assemble_load"]
    assert tracer.spans[3].parent == 2 and tracer.spans[2].parent == 1
    assert not tracer.spans[0].in_step and tracer.spans[3].in_step
    assert tracer.counts["x"] == 4            # the call outside a step is not

    out, check = summarize(tracer)
    # The clock ticks once per span edge: a step lasts 7 ticks, its
    # child 5, each leaf 1.
    assert check["steps"] == 2
    assert out["integrator.step.ms"] == pytest.approx(7e3)
    assert out["integrator.step.self_ms"] == pytest.approx(2e3)
    assert out["integrator.step_deterministic_modes.self_ms"] == \
        pytest.approx(3e3)
    assert out["mesh.assemble_load.ms"] == pytest.approx(2e3)
    assert out["mesh.assemble_load.calls"] == 2
    assert out["mesh.assemble_blocks.s"] == pytest.approx(1.0)
    assert check["step_ms"] == pytest.approx(7e3)


@pytest.mark.parametrize("stamped_s, steps, ok", [
    ([7.2, 7.2], 2, True),        # spans cover 7 of 7.2 s per step
    ([7.0, 7.0], 2, True),        # the loop did nothing else
    ([6.5, 6.5], 2, False),       # spans longer than their interval
    ([10.0, 10.0], 2, False),     # three tenths of the step untraced
    ([7.2, 7.2, 7.2], 2, False),  # a step without a span
])
def test_step_spans_are_checked_against_step_callbacks(stamped_s, steps,
                                                       ok):
    check = {"steps": steps, "step_ms": 7e3}
    problems = bench_run.check_step_cover(check, stamped_s)
    assert (problems == []) == ok


def test_instrument_restores_every_patched_attribute():
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a)
              for m, a, _ in spans.PATCHES}
    integrator = importlib.import_module("supgdlr.integrator")
    spla = integrator.spla
    with instrument(Tracer()):
        assert integrator.spla is not spla
    assert integrator.spla is spla
    for (m, a), fn in before.items():
        assert getattr(importlib.import_module(m), a) is fn


# -- tracing does not change results ---------------------------------------

@pytest.mark.parametrize("make_config", [_mini_rotating_body,
                                         _short_boundary_layer])
def test_traced_norms_csv_is_byte_identical(tmp_path, make_config):
    wl = Workload("t", "lowrank", make_config, True)
    plain = solve(wl, make_config(0), str(tmp_path / "plain"))
    tracer = Tracer()
    with instrument(tracer):
        traced = solve(wl, make_config(0), str(tmp_path / "traced"))
    assert plain.error is None and traced.error is None
    assert traced.output == plain.output
    assert (tmp_path / "traced" / "norms.csv").read_bytes() == \
        (tmp_path / "plain" / "norms.csv").read_bytes()
    out, check = summarize(tracer)
    assert bench_run.check_step_cover(check, traced.step_s) == []
    assert out["integrator.lu_solve.cols"] >= 2            # R + 1 columns


def test_traced_fom_counts_columns_and_coefficient_calls(tmp_path):
    wl = Workload("f", "fom", _short_boundary_layer, False)
    plain = solve(wl, _short_boundary_layer(0), str(tmp_path))
    tracer = Tracer()
    with instrument(tracer):
        traced = solve(wl, _short_boundary_layer(0), str(tmp_path))
    assert traced.output == plain.output
    out, check = summarize(tracer)
    assert bench_run.check_step_cover(check, traced.step_s) == []
    assert out["integrator.lu_solve.cols"] == 256
    assert out["coefficients.evals_per_step"] == 256    # b_fluct per sample
    assert out["fom.fom_step.ms"] > 0
    assert out["integrator.step.ms"] == 0


# -- the contract with BENCHMARK.json ---------------------------------------

def test_metric_names_and_units_match_benchmark_json():
    with open(bench_run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == bench_run.END_TO_END
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = spans.METRIC_NAMES + bench_run.RUN_LAYER_METRICS
    assert layers == {n: bench_run.unit_of(n) for n in names}
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    assert bench["run_seconds"] == bench_run.DEFAULT_SECONDS


def test_tail_percentile_leaves_ten_steps_beyond():
    for min_steps in (200, 400, 1000):
        pct = bench_run.tail_percentile(min_steps)
        assert math.isclose(min_steps * (1 - pct / 100.0), 10.0)


def test_layer_map_names_every_per_layer_metric():
    with open(bench_run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(bench_run.BENCH / "layers.json") as fh:
        layers = json.load(fh)
    mapped = [name for row in layers["map"] for name in row["layer"]]
    assert sorted(mapped) == sorted(m["name"] for m in bench["per_layer"])
    e2e = {m["name"] for m in bench["end_to_end"]} | set(bench_run.REPORTED)
    names = {w["name"] for w in bench["workloads"]}
    for row in layers["map"]:
        assert set(row["moves"]) <= e2e
        assert set(row["mostly_on"]) | set(row["little_on"]) <= names
