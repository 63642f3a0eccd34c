"""Presets, config round trips and the batch runner."""

import csv
import json
import os
from dataclasses import asdict, replace
from functools import cached_property

import numpy as np
import pytest

from supgdlr import (
    CoefficientModel, ConfigError, DlrState, FomState, NearSingularError,
    RunConfig, SolverError, analyze_reaction, assemble_load,
    build_problem, build_structured_mesh, constant_adr, delta_coercivity,
    delta_semi_implicit, evaluate_realization, fom_step, load_config,
    local_peclet, make_monte_carlo, preset_boundary_layer,
    preset_rotating_body, range_excess, run, run_from_config,
    write_config, write_field_dump,
)
from supgdlr import integrator, mesh as mesh_module, runner
from supgdlr.runner import resolve_delta

from conftest import check_invariants


def tiny_config(out_dir, **overrides):
    cfg = RunConfig(
        name="tiny", n_per_side=8, dt=0.01, T=0.1,
        delta_policy="experiment", rank=2, model="rotating_body",
        sampler={"kind": "monte_carlo", "count": 20, "seed": 3,
                 "intervals": [(-1.0, 1.0)] * 3},
        initial="rotating_body_shapes", bc={"boundary": 0.0},
        out_dir=out_dir)
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg


def test_preset_desk_scales():
    rb = preset_rotating_body("desk")
    assert rb.n_dof == 1089
    assert rb.n_samples == 200
    assert rb.T == 0.5 and rb.dt == 0.5 / 800.0
    bl = preset_boundary_layer("desk")
    assert bl.n_dof == 441
    assert bl.n_samples == 256
    assert bl.snapshot_tol == 1e-4 and bl.rank is None


def test_preset_rejects_unknown_scale():
    with pytest.raises(ConfigError):
        preset_rotating_body("huge")
    with pytest.raises(ConfigError):
        preset_boundary_layer("huge")


def every_field_config(out_dir):
    # every RunConfig field away from its default
    return RunConfig(
        name="every_field", n_per_side=6, dt=0.025, T=0.3,
        delta_policy="semi_implicit", rank=3,
        snapshot_tol=1e-5, model="constant_adr",
        model_params={"eps_value": 0.1, "b": (1.0, 0.0), "c": 0.5,
                      "f": 2.0},
        sampler={"kind": "tensor_grid",
                 "intervals": [(0.5, 1.5, 3), (-1.0, 1.0, 2)]},
        initial="boundary_layer_snapshot", bc={"d1": 1.0, "d2": 0.0},
        out_dir=out_dir, track_md_samples=(0, 3), dump_times=(0.05,),
        dump_samples=(1,), bounds=(("si_stab", "ii"), ("im_stab", "iii")),
        tangent_residual=True, scale="paper")


@pytest.mark.parametrize("make_cfg", [
    lambda d: tiny_config(d, track_md_samples=(0, 3), dump_times=(0.05,),
                          dump_samples=(1,), bounds=(("si_stab", "ii"),),
                          tangent_residual=True),
    lambda d: preset_rotating_body("desk"),
    lambda d: preset_rotating_body("paper"),
    lambda d: preset_boundary_layer("desk"),
    lambda d: preset_boundary_layer("paper"),
    every_field_config,
], ids=["tiny", "rotating_body-desk", "rotating_body-paper",
        "boundary_layer-desk", "boundary_layer-paper", "every_field"])
def test_config_round_trip(tmp_path, make_cfg):
    cfg = make_cfg(str(tmp_path / "out"))
    path = tmp_path / "config.ini"
    write_config(cfg, path)
    assert asdict(load_config(path)) == asdict(cfg)


def test_boundary_layer_config_round_trip(tmp_path):
    cfg = preset_boundary_layer("desk")
    path = tmp_path / "config.ini"
    write_config(cfg, path)
    back = load_config(path)
    assert back.sampler == cfg.sampler
    assert back.bc == cfg.bc
    assert back.snapshot_tol == cfg.snapshot_tol


def test_load_missing_config_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


def test_load_config_refuses_removed_run_keys(tmp_path, capsys):
    from supgdlr.cli import main

    path = tmp_path / "config.ini"
    write_config(tiny_config(str(tmp_path / "out")), path)
    text, head = path.read_text(), "[run]\n"
    # older files named the one scheme and chose delta_K with two keys
    for line in ("scheme = semi_implicit", "stabilization = supg",
                 "stabilization = none"):
        key = line.split()[0]
        path.write_text(text.replace(head, f"{head}{line}\n"))
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_config(path)
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and f"'{key}'" in err


def test_load_config_parses_tangent_residual_as_a_boolean(tmp_path,
                                                           capsys):
    from supgdlr.cli import main

    path = tmp_path / "config.ini"
    write_config(tiny_config(str(tmp_path / "out")), path)
    text, line = path.read_text(), "tangent_residual = False\n"
    assert line in text
    for value, want in (("true", True), ("yes", True), ("0", False),
                        ("False", False)):
        path.write_text(text.replace(line, f"tangent_residual = {value}\n"))
        assert load_config(path).tangent_residual is want
    path.write_text(text.replace(line, "tangent_residual = yes please\n"))
    with pytest.raises(ConfigError, match="yes please"):
        load_config(path)
    assert main(["solve", "--config", str(path)]) == 1
    assert "configuration error" in capsys.readouterr().err


def _edited_config(tmp_path, old, new):
    """The tiny config file, written and then edited: old -> new."""
    path = tmp_path / "config.ini"
    write_config(tiny_config(str(tmp_path / "out")), path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return path


@pytest.mark.parametrize("old, new, message", [
    ("delta_policy = experiment\n", "delta_polciy = coercivity\n",
     "unknown key 'delta_polciy' in [run]"),
    ("[diagnostics]\n", "[diagnostic]\n", "unknown section [diagnostic]"),
    ("[output]\n", "[output]\nbounds = si_stab:ii\n",
     "unknown key 'bounds' in [output]"),
    ("kind = monte_carlo\n", "kind = montecarlo\n",
     "unknown sampler kind 'montecarlo'"),
    ("kind = monte_carlo\n", "kind = tensor_grid\n",
     "unknown key 'count' in [sampling]"),
    ("count = 20\n", "", "'count'"),
    ("seed = 3\n", "", "'seed'"),
], ids=["misspelt_run_key", "unknown_section", "key_in_wrong_section",
        "unknown_sampler_kind", "count_on_a_tensor_grid", "no_count",
        "no_seed"])
def test_load_config_refuses_unknown_and_missing_keys(tmp_path, capsys, old,
                                                      new, message):
    from supgdlr.cli import main

    path = _edited_config(tmp_path, old, new)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert message in str(info.value)
    assert main(["solve", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("make_cfg", [
    tiny_config, lambda d: replace(every_field_config(d), initial="zero"),
], ids=["monte_carlo", "tensor_grid"])
def test_every_misspelt_key_is_a_configuration_error(tmp_path, make_cfg):
    import configparser

    path = tmp_path / "config.ini"
    write_config(make_cfg(str(tmp_path / "out")), path)
    sections = configparser.ConfigParser()
    sections.read(path)
    for section in sections.sections():
        for key in sections[section]:
            cp = configparser.ConfigParser()
            cp.read(path)
            cp[section][key + "x"] = cp[section].pop(key)
            misspelt = tmp_path / "misspelt.ini"
            with open(misspelt, "w") as fh:
                cp.write(fh)
            # [model] keys and [boundary] tags are checked at build time;
            # the boundary message names no tag
            with pytest.raises(ConfigError,
                               match=None if section == "boundary" else key):
                build_problem(load_config(misspelt))


def test_empty_output_dir_is_a_configuration_error(tmp_path, capsys):
    from supgdlr.cli import main

    path = _edited_config(tmp_path, f"dir = {tmp_path / 'out'}\n",
                          "dir = \n")
    assert load_config(path).out_dir == ""
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "cannot create the output directory ''" in err


@pytest.mark.parametrize("time", [5.0, -1.0], ids=["past_T", "below_0"])
def test_dump_time_outside_the_run_is_a_configuration_error(tmp_path, time):
    status, manifest = run_from_config(tiny_config(
        str(tmp_path), dump_times=(0.05, time), dump_samples=(0,)))
    assert status == 1
    assert manifest["status"] == "config_error"
    assert "dump times must lie in [0, T] = [0, 0.1]" in manifest["error"]
    assert not (tmp_path / "norms.csv").exists()


def test_dt_beyond_T_is_a_configuration_error(tmp_path):
    # a dt longer than the whole interval does not divide it: no step
    # is taken past T
    cfg = preset_boundary_layer("desk")
    cfg.dt, cfg.out_dir = 5e9, str(tmp_path)
    status, manifest = run_from_config(cfg)
    assert status == 1
    assert manifest["status"] == "config_error"
    assert "dt does not divide the time interval" in manifest["error"]


@pytest.mark.parametrize("key, index", [
    ("track_md_samples", 999), ("dump_samples", 999),
    ("track_md_samples", -1), ("dump_samples", -1)],
    ids=["track_past_end", "dump_past_end", "track_negative",
         "dump_negative"])
def test_sample_index_outside_the_set_is_refused_before_the_run(
        tmp_path, monkeypatch, key, index):
    def refuse(*args, **kwargs):
        raise AssertionError("the problem was built")

    monkeypatch.setattr(runner, "prepare_workspace", refuse)
    status, manifest = run_from_config(tiny_config(
        str(tmp_path), dump_times=(0.05,), **{key: (0, index)}))
    assert status == 1
    assert manifest["status"] == "config_error"
    assert manifest["failing_step"] is None
    assert f"{key} must lie in [0, 20)" in manifest["error"]
    assert not (tmp_path / "norms.csv").exists()


def test_field_dump_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    values = rng.standard_normal(25)
    path = tmp_path / "dump.txt"
    write_field_dump(path, 0.125, 2, 4, 100, values)
    assert path.read_text().splitlines()[0].split() == \
        ["0.125", "2", "4", "100"]
    assert np.array_equal(np.loadtxt(path, skiprows=1), values)


def test_build_problem_shapes():
    cfg = tiny_config(".")
    mesh, space, model, analysis, delta, ws, state = build_problem(cfg)
    assert mesh.n_vertices == 81
    assert space.count == 20
    assert state.rank == 2
    assert delta.shape == (mesh.n_triangles,)
    assert ws.blocks.delta is delta
    check_invariants(state, space, ws.blocks.mass)


def test_run_from_config_outputs(tmp_path):
    out = tmp_path / "run1"
    cfg = tiny_config(str(out), track_md_samples=(0, 1),
                      bounds=(("si_stab", "ii"),))
    status, manifest = run_from_config(cfg)
    assert status == 0
    assert manifest["status"] == "ok"
    assert manifest["n_steps"] == 10
    assert (out / "norms.csv").exists()
    assert (out / "md.csv").exists()
    assert (out / "ledger.csv").exists()
    with open(out / "run.json") as fh:
        echoed = json.load(fh)
    assert echoed["config"]["n_per_side"] == 8
    assert echoed["version"]


def test_run_from_config_ledger_estimates_C_I(tmp_path):
    # the h_K/4 policy carries no C_I; the ledger estimates it, so it
    # reports the violated semi-implicit bound, not the missing constant
    out = tmp_path / "ledger"
    cfg = tiny_config(str(out), model="constant_adr",
                      model_params={"eps_value": 1.0, "b": 1.0},
                      initial="zero", dt=0.2, T=0.4, rank=None,
                      bounds=(("si_stab", "ii"),))
    status, _ = run_from_config(cfg)
    assert status == 0
    with open(out / "ledger.csv") as fh:
        row = list(csv.DictReader(fh))[0]
    assert row["applicable"] == "False"
    assert "semi-implicit bound" in row["reason"]
    assert "diffusion" in row["reason"]


def test_failed_bound_is_exit_status_3(tmp_path, monkeypatch):
    evaluate = runner.evaluate_bounds

    def failing(reports, ws, bounds):
        return [replace(led, applicable=True, passed=False)
                for led in evaluate(reports, ws, bounds)]

    monkeypatch.setattr(runner, "evaluate_bounds", failing)
    out = tmp_path / "failed_bound"
    status, manifest = run_from_config(
        tiny_config(str(out), bounds=(("si_stab", "ii"),)))
    assert status == 3
    assert manifest["status"] == "bound_failed"
    with open(out / "run.json") as fh:
        assert json.load(fh)["status"] == "bound_failed"
    with open(out / "ledger.csv") as fh:
        row = list(csv.DictReader(fh))[0]
    assert row["applicable"] == "True" and row["passed"] == "False"


def test_md_csv_reports_range_excess(tmp_path):
    out = tmp_path / "md"
    cfg = tiny_config(str(out), track_md_samples=(0, 1))
    status, _ = run_from_config(cfg)
    assert status == 0
    with open(out / "md.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "sample", "md", "excess"]
    body = rows[1:]
    assert len(body) == 2 * 11                  # t0 + 10 steps, 2 samples
    assert [r[3] for r in body[:2]] == ["0", "0"]
    assert all(float(r[3]) >= 0.0 for r in body)
    assert any(float(r[3]) > 0.0 for r in body)

    _, _, _, _, _, ws, state = build_problem(cfg)
    u0 = evaluate_realization(state, 1)
    final, _ = run(state, ws, cfg.T)
    want = range_excess(evaluate_realization(final, 1), u0.min(), u0.max())
    assert body[-1][1] == "1"
    assert float(body[-1][3]) == want


def test_run_from_config_is_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        status, _ = run_from_config(tiny_config(str(out)))
        assert status == 0
        with open(out / "norms.csv", "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("make_cfg", [
    lambda: preset_rotating_body("desk"),
    lambda: preset_boundary_layer("desk"),
    # more than 1000 samples, on a small mesh
    lambda: replace(preset_boundary_layer("desk"), n_per_side=4,
                    sampler={"kind": "tensor_grid",
                             "intervals": [(5000.0, 6000.0, 6)]
                             + [(-1.0, 1.0, 6)] * 3}),
], ids=["rotating_body", "boundary_layer", "boundary_layer_1296"])
def test_run_json_records_the_peclet_flag(tmp_path, make_cfg):
    # one step: the flag depends only on the mesh, model and samples
    cfg = make_cfg()
    cfg = replace(cfg, T=cfg.dt, out_dir=str(tmp_path))
    status, _ = run_from_config(cfg)
    assert status == 0
    with open(tmp_path / "run.json") as fh:
        flag = json.load(fh)["peclet_flag"]
    mesh, _, _, analysis = build_problem(cfg)[:4]
    assert flag is True
    assert flag == (local_peclet(mesh, analysis) > 1.0)


@pytest.mark.parametrize("bound", [("si_stab", "typo"), ("typo", "ii")])
def test_unknown_bound_is_refused_before_the_run(tmp_path, monkeypatch,
                                                 bound):
    def never(*args, **kwargs):
        raise AssertionError("the problem was built or run")

    monkeypatch.setattr(runner, "build_problem", never)
    monkeypatch.setattr(runner, "run", never)
    status, manifest = run_from_config(
        tiny_config(str(tmp_path), bounds=(("si_stab", "ii"), bound)))
    assert status == 1
    assert "typo" in manifest["error"]
    assert not (tmp_path / "norms.csv").exists()


@pytest.mark.parametrize("bound", [("si_stab",), ("si_stab", "ii", "x"),
                                   "si_stab:ii"],
                         ids=["single", "triple", "string"])
def test_bound_that_is_not_a_pair_is_a_configuration_error(tmp_path,
                                                           bound):
    status, _ = run_from_config(tiny_config(str(tmp_path),
                                            bounds=(bound,)))
    assert status == 1
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["status"] == "config_error"
    assert "not a (theorem, case) pair" in manifest["error"]


def test_load_config_strips_bound_entries(tmp_path):
    path = tmp_path / "config.ini"
    write_config(tiny_config(str(tmp_path / "out"),
                             bounds=(("si_stab", "ii"),)), path)
    path.write_text(path.read_text().replace(
        "bounds = si_stab:ii\n", "bounds = si_stab:ii, im_stab : iii ,\n"))
    assert load_config(path).bounds == (("si_stab", "ii"),
                                        ("im_stab", "iii"))


@pytest.mark.parametrize("key, value, policy", [
    ("dt", float("nan"), "experiment"), ("dt", float("inf"), "experiment"),
    ("T", float("inf"), "experiment"), ("T", float("nan"), "experiment"),
    ("dt", float("nan"), "semi_implicit"),
    ("dt", float("inf"), "semi_implicit")],
    ids=["dt_nan", "dt_inf", "T_inf", "T_nan", "dt_nan_semi_implicit",
         "dt_inf_semi_implicit"])
def test_non_finite_time_is_a_configuration_error(tmp_path, key, value,
                                                  policy):
    status, _ = run_from_config(tiny_config(
        str(tmp_path), delta_policy=policy, **{key: value}))
    assert status == 1
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["status"] == "config_error"
    assert "finite" in manifest["error"]
    # the semi-implicit policy reads dt first and names it
    if key == "dt":
        assert "dt" in manifest["error"]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("policy, bounds", [
    ("coercivity", ()), ("experiment", (("si_stab", "iii"),))],
    ids=["coercivity", "experiment_bounds"])
def test_inverse_constant_on_a_tiny_mesh_is_a_configuration_error(
        tmp_path, n, policy, bounds):
    # fewer than two interior vertices leave no eigenvalue to estimate
    cfg = RunConfig(
        name="tiny_mesh", n_per_side=n, dt=0.05, T=0.1,
        delta_policy=policy, bounds=bounds, model="constant_adr",
        model_params={"f": 1.0},
        sampler={"kind": "monte_carlo", "count": 4, "seed": 0,
                 "intervals": [(-1.0, 1.0)]},
        out_dir=str(tmp_path))
    status, manifest = run_from_config(cfg)
    assert status == 1
    assert manifest["status"] == "config_error"
    assert "n_per_side >= 3" in manifest["error"]
    # the ledger's C_I is read after the run, whose rows are kept
    assert (tmp_path / "norms.csv").exists() == bool(bounds)
    assert not (tmp_path / "ledger.csv").exists()


def test_bound_without_a_case_is_a_configuration_error(tmp_path, capsys):
    from supgdlr.cli import main

    path = tmp_path / "config.ini"
    write_config(tiny_config(str(tmp_path / "out"),
                             bounds=(("si_stab", "ii"),)), path)
    text = path.read_text()
    assert "bounds = si_stab:ii\n" in text
    path.write_text(text.replace("si_stab:ii", "si_stab"))
    assert load_config(path).bounds == (("si_stab", ""),)
    assert main(["solve", "--config", str(path)]) == 1
    assert "unknown case ''" in capsys.readouterr().err
    assert not (tmp_path / "out" / "norms.csv").exists()


def test_the_coefficients_are_sampled_once_per_run(tmp_path, monkeypatch):
    calls = {"eps": 0, "theta": 0}
    build_model = runner.build_model

    def counted(key, fn):
        def wrapper(samples):
            calls[key] += 1
            return fn(samples)
        return wrapper

    def counting_model(cfg, space):
        model = build_model(cfg, space)
        (theta, beta), = model.b_modes
        return replace(model, eps=counted("eps", model.eps),
                       b_modes=((counted("theta", theta), beta),))

    monkeypatch.setattr(runner, "build_model", counting_model)
    cfg = replace(preset_boundary_layer("desk"), out_dir=str(tmp_path))
    status, _ = run_from_config(cfg)
    assert status == 0
    assert calls == {"eps": 1, "theta": 1}
    # the analysis owns the samples; the model keeps no re-sampler
    for name in ("eps_values", "eps_split", "eps_bounds",
                 "advection_modes", "c_at", "has_random_advection",
                 "validate", "div_b"):
        assert not hasattr(CoefficientModel, name)


def reaction_forcing_config(out_dir):
    """constant_adr with reaction and forcing under the coercivity
    policy, whose delta reads the mesh's inverse constant."""
    return tiny_config(
        out_dir, model="constant_adr", delta_policy="coercivity",
        model_params={"eps_value": 0.05, "b": (1.0, 1.0), "c": 2.0,
                      "f": 1.0},
        sampler={"kind": "monte_carlo", "count": 8, "seed": 2,
                 "intervals": [(-1.0, 1.0)]},
        initial="zero", rank=None, T=0.05)


@pytest.mark.parametrize("make_cfg, want", [
    (lambda out: replace(preset_boundary_layer("desk"), out_dir=out),
     {"b_mean": 1, "theta_0": 1, "beta_0": 1}),
    # the second c_mean call is the mu-weighted mass, through analysis.mu
    (reaction_forcing_config, {"b_mean": 1, "c_mean": 2}),
], ids=["boundary_layer", "reaction_forcing"])
def test_each_coefficient_field_is_evaluated_once_per_run(
        tmp_path, monkeypatch, make_cfg, want):
    calls = {}
    build_model = runner.build_model

    def counted(key, fn):
        if fn is None:
            return None

        def wrapper(*args):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args)
        return wrapper

    def counting_model(cfg, space):
        model = build_model(cfg, space)
        return replace(
            model, b_mean=counted("b_mean", model.b_mean),
            c_mean=counted("c_mean", model.c_mean),
            b_modes=tuple((counted(f"theta_{k}", theta),
                           counted(f"beta_{k}", beta))
                          for k, (theta, beta) in enumerate(model.b_modes)))

    monkeypatch.setattr(runner, "build_model", counting_model)
    status, _ = run_from_config(make_cfg(str(tmp_path)))
    assert status == 0
    assert calls == want


def test_bound_policy_assembles_mass_and_stiffness_once(monkeypatch):
    form, calls = mesh_module._form, []

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return form(*args, **kwargs)

    monkeypatch.setattr(mesh_module, "_form", counting)
    mesh, *_, ws, _ = build_problem(reaction_forcing_config("."))
    # mass and stiffness, shared by C_I and the blocks, and the three
    # stabilized forms (the mu-weighted mass is diagnostics' own call)
    assert len(calls) == 5
    assert ws.blocks.mass is mesh.mass
    assert ws.blocks.stiffness is mesh.stiffness
    assert mesh.inverse_constant > 0
    # no half-built blocks, and one DlrState constructor
    assert not hasattr(mesh_module, "assemble_galerkin")
    assert not hasattr(DlrState, "from_full")
    assert not hasattr(DlrState, "_own")


def test_run_from_config_bad_model(tmp_path):
    cfg = tiny_config(str(tmp_path / "bad"), model="nope")
    status, manifest = run_from_config(cfg)
    assert status == 1
    assert manifest["status"] == "config_error"


def test_run_from_config_bad_delta_policy(tmp_path):
    cfg = tiny_config(str(tmp_path / "bad"), delta_policy="gls")
    status, manifest = run_from_config(cfg)
    assert status == 1
    assert "gls" in manifest["error"]


def test_field_dump_written_at_requested_time(tmp_path):
    out = tmp_path / "dumps"
    cfg = tiny_config(str(out), dump_times=(0.1,), dump_samples=(0,))
    status, _ = run_from_config(cfg)
    assert status == 0
    files = [f for f in os.listdir(out) if f.startswith("field_")]
    assert len(files) == 1
    path = out / files[0]
    t = float(path.read_text().split()[0])
    assert abs(t - 0.1) <= 0.5 * cfg.dt
    assert len(np.loadtxt(path, skiprows=1)) == cfg.n_dof


@pytest.mark.parametrize("make_cfg", [
    lambda: tiny_config("."),
    lambda: preset_boundary_layer("desk"),
], ids=["rotating_body", "boundary_layer"])
def test_build_problem_computes_quadrature_points_once(make_cfg,
                                                       monkeypatch):
    compute, calls = mesh_module.Mesh.quad_points.func, []

    def spy(mesh):
        calls.append(mesh)
        return compute(mesh)

    counted = cached_property(spy)
    counted.__set_name__(mesh_module.Mesh, "quad_points")
    monkeypatch.setattr(mesh_module.Mesh, "quad_points", counted)
    # nor are they formed outside the property, by the einsum it replaced
    einsum, formed = np.einsum, []

    def einsum_spy(subscripts, *operands, **kwargs):
        if subscripts == "qa,eai->eqi":
            formed.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", einsum_spy)
    mesh, *_, ws, _ = build_problem(make_cfg())
    assert len(calls) == 1
    assert formed == []
    assert np.shares_memory(ws.xq_flat, mesh.quad_points)


def test_build_problems_share_no_cached_array():
    cfg = tiny_config(".")
    arrays = []
    for _ in range(2):
        mesh, _, _, _, _, ws, _ = build_problem(cfg)
        assemble_load(ws.blocks, np.ones(ws.pw.shape))
        arrays.append([mesh.quad_points, mesh.quad_weights,
                       *mesh.form_pattern, ws.pw, ws.xq_flat,
                       ws.blocks.load_test])
    for a, b in zip(*arrays):
        assert np.array_equal(a, b)
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("policy", ["coercivity", "semi_implicit"])
def test_resolve_delta_assembles_only_mass_and_stiffness(policy,
                                                         monkeypatch):
    mesh = build_structured_mesh(8)
    space = make_monte_carlo([(-1.0, 1.0)], 4, seed=0)
    model = constant_adr(eps_value=0.01, b=(1.0, 1.0), c=0.5)
    analysis = analyze_reaction(model, mesh, space)
    dt = 0.01

    # the reference on a twin mesh, whose C_I is computed before counting
    twin = build_structured_mesh(8)
    C_I = twin.inverse_constant
    want = np.minimum(delta_coercivity(twin, analysis, C_I), twin.h_K / 4.0) \
        if policy == "coercivity" \
        else delta_semi_implicit(twin, analysis, C_I, dt)

    form, calls = mesh_module._form, []

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return form(*args, **kwargs)

    monkeypatch.setattr(mesh_module, "_form", counting)
    got = resolve_delta(policy, mesh, analysis, dt)
    assert len(calls) == 2
    assert np.array_equal(got, want)
    # the mesh keeps its C_I: a second policy assembles nothing
    assert np.array_equal(resolve_delta(policy, mesh, analysis, dt), want)
    assert len(calls) == 2


def test_delta_policy_none_is_standard_galerkin():
    mesh, *_, delta, ws, _ = build_problem(tiny_config(".",
                                                       delta_policy="none"))
    assert np.array_equal(delta, np.zeros(mesh.n_triangles))
    assert not np.any(ws.blocks.delta)
    assert np.array_equal(ws.blocks.skewed_mass.data, mesh.mass.data)


def test_non_finite_solve_is_a_numerical_failure(tmp_path, monkeypatch):
    splu = integrator.spla.splu

    class NanLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            out = self.lu.solve(rhs)
            out[...] = np.nan
            return out

    monkeypatch.setattr(integrator.spla, "splu",
                        lambda *args, **kw: NanLU(splu(*args, **kw)))
    out = tmp_path / "nan"
    status, _ = run_from_config(tiny_config(str(out)))
    assert status == 2
    with open(out / "run.json") as fh:
        echoed = json.load(fh)
    assert echoed["status"] == "numerical_failure"
    assert echoed["failing_step"] == 1
    assert "non-finite" in echoed["error"]

    _, _, _, _, _, ws, state = build_problem(tiny_config(str(out)))
    with pytest.raises(SolverError, match="non-finite"):
        fom_step(FomState(state.dense(), t=state.t), ws)


def test_failing_step_is_reported_for_any_numerical_error(tmp_path,
                                                          monkeypatch):
    step, calls = integrator.step, []

    def failing(state, ws):
        calls.append(state.t)
        if len(calls) == 3:
            raise NearSingularError("forced at the third step",
                                    condition=1e16)
        return step(state, ws)

    ok = tmp_path / "ok"
    assert run_from_config(tiny_config(str(ok), track_md_samples=(0,)))[0] \
        == 0
    monkeypatch.setattr(integrator, "step", failing)
    out = tmp_path / "near_singular"
    status, _ = run_from_config(tiny_config(str(out),
                                            track_md_samples=(0,)))
    assert status == 2
    with open(out / "run.json") as fh:
        echoed = json.load(fh)
    assert echoed["status"] == "numerical_failure"
    assert echoed["failing_step"] == 3
    # the rows of t0 and steps 1-2, as the successful run wrote them
    for name in ("norms.csv", "md.csv"):
        kept = (out / name).read_bytes().splitlines(keepends=True)
        assert kept == (ok / name).read_bytes().splitlines(
            keepends=True)[:4]


def test_unexpected_error_is_recorded_in_run_json_and_raised(tmp_path,
                                                             monkeypatch):
    step, calls = integrator.step, []

    def failing(state, ws):
        calls.append(state.t)
        if len(calls) == 2:
            raise RuntimeError("forced at the second step")
        return step(state, ws)

    # an earlier run's run.json in the same directory is replaced
    assert run_from_config(tiny_config(str(tmp_path)))[0] == 0
    monkeypatch.setattr(integrator, "step", failing)
    with pytest.raises(RuntimeError, match="forced at the second step"):
        run_from_config(tiny_config(str(tmp_path)))
    with open(tmp_path / "run.json") as fh:
        echoed = json.load(fh)
    assert echoed["status"] == "internal_error"
    assert echoed["error"] == "RuntimeError: forced at the second step"
    assert "final_l2" not in echoed
    # the rows of t0 and step 1 are kept, as for a numerical failure
    assert len((tmp_path / "norms.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("make_cfg,want", [
    (lambda: preset_boundary_layer("desk"), 7),
    # 81 samples, but the snapshot depends on (y3, y4) alone and is even
    # in them: 5 distinct columns, so a centered rank of 4
    (lambda: replace(preset_boundary_layer("desk"), n_per_side=4,
                     rank=9, snapshot_tol=None,
                     sampler={"kind": "tensor_grid",
                              "intervals": [(5000.0, 6000.0, 3)]
                              + [(-1.0, 1.0, 3)] * 3}), 4),
], ids=["boundary_layer", "rank_above_distinct_columns"])
def test_run_json_records_the_initial_rank(tmp_path, make_cfg, want):
    cfg = make_cfg()
    cfg = replace(cfg, T=cfg.dt, out_dir=str(tmp_path))
    status, _ = run_from_config(cfg)
    assert status == 0
    with open(tmp_path / "run.json") as fh:
        assert json.load(fh)["initial_rank"] == want
    assert build_problem(cfg)[-1].rank == want


def test_run_json_holds_numpy_config_values(tmp_path):
    # an np.int64 rank passes the checks; run.json holds it as a number
    status, _ = run_from_config(tiny_config(str(tmp_path),
                                            rank=np.int64(2)))
    assert status == 0
    with open(tmp_path / "run.json") as fh:
        manifest = json.load(fh)
    assert manifest["config"]["rank"] == 2
    assert manifest["status"] == "ok"


def test_callable_boundary_value_is_config_error(tmp_path):
    def ramp(x):
        return x[:, 0]

    status, _ = run_from_config(tiny_config(str(tmp_path),
                                            bc={"boundary": ramp}))
    assert status == 1
    with open(tmp_path / "run.json") as fh:
        manifest = json.load(fh)
    assert manifest["status"] == "config_error"
    assert "'boundary' must be a real number" in manifest["error"]
    assert manifest["config"]["bc"]["boundary"] == repr(ramp)
    assert not (tmp_path / "norms.csv").exists()
