"""Presets, config round trips and the batch runner."""

import csv
import json
import os

import numpy as np
import pytest

from supgdlr import (
    ConfigError, RunConfig, build_problem, evaluate_realization,
    load_config, preset_boundary_layer, preset_rotating_body,
    range_excess, run, run_from_config, write_config, write_field_dump,
)

from conftest import check_invariants


def tiny_config(out_dir, **overrides):
    cfg = RunConfig(
        name="tiny", n_per_side=8, dt=0.01, T=0.1,
        stabilization="supg", delta_policy="experiment", rank=2,
        model="rotating_body",
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


def test_config_round_trip(tmp_path):
    cfg = tiny_config(str(tmp_path), track_md_samples=(0, 3),
                      dump_times=(0.05,), dump_samples=(1,),
                      bounds=(("si_stab", "ii"),), tangent_residual=True)
    path = tmp_path / "config.ini"
    write_config(cfg, path)
    back = load_config(path)
    assert back.name == cfg.name
    assert back.n_per_side == cfg.n_per_side
    assert back.dt == cfg.dt and back.T == cfg.T
    assert back.rank == cfg.rank
    assert back.sampler == cfg.sampler
    assert back.bc == cfg.bc
    assert back.track_md_samples == cfg.track_md_samples
    assert back.dump_times == cfg.dump_times
    assert back.dump_samples == cfg.dump_samples
    assert back.bounds == cfg.bounds
    assert back.tangent_residual is True


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


def test_load_config_rejects_removed_scheme(tmp_path, capsys):
    from supgdlr.cli import main

    path = tmp_path / "config.ini"
    write_config(tiny_config(str(tmp_path / "out")), path)
    text, head = path.read_text(), "[run]\n"
    # an old file naming the one remaining scheme still loads
    path.write_text(text.replace(head, head + "scheme = semi_implicit\n"))
    assert load_config(path).n_per_side == 8
    path.write_text(text.replace(head, head + "scheme = explicit\n"))
    with pytest.raises(ConfigError, match="explicit"):
        load_config(path)
    assert main(["solve", "--config", str(path)]) == 1
    assert "configuration error" in capsys.readouterr().err


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
    assert ws.delta.shape == (mesh.n_triangles,)
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
    # the h_K/4 policy carries no C_I; the runner estimates it, so the
    # ledger reports the violated semi-implicit bound, not the missing
    # constant
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


def test_run_from_config_bad_model(tmp_path):
    cfg = tiny_config(str(tmp_path / "bad"), model="nope")
    status, manifest = run_from_config(cfg)
    assert status == 1
    assert manifest["status"] == "config_error"


def test_run_from_config_bad_stabilization(tmp_path):
    cfg = tiny_config(str(tmp_path / "bad"), stabilization="gls")
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
