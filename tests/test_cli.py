"""Command line interface."""

import numpy as np
import pytest

from supgdlr.cli import main
from supgdlr.runner import load_config


def test_preset_writes_config_and_echoes(tmp_path, capsys):
    out = tmp_path / "preset"
    code = main(["preset", "rotating-body", "--scale", "desk",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    lines = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert lines["N_h"] == "1089"
    assert lines["N_C"] == "200"
    assert lines["delta_K"] == "h_K/4"
    cfg = load_config(out / "config.ini")
    assert cfg.n_per_side == 32


def test_preset_to_an_uncreatable_directory_is_config_error(tmp_path,
                                                            capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "preset"
    assert main(["preset", "boundary-layer", "--out", str(out)]) == 1
    assert "configuration error: cannot create the output directory" \
        in capsys.readouterr().err


def test_solve_runs_written_config(tmp_path, capsys):
    from supgdlr.runner import RunConfig, write_config

    cfg = RunConfig(
        name="mini", n_per_side=6, dt=0.02, T=0.1, rank=1,
        model="rotating_body",
        sampler={"kind": "monte_carlo", "count": 8, "seed": 0,
                 "intervals": [(-1.0, 1.0)] * 3},
        initial="rotating_body_shapes", bc={"boundary": 0.0},
        out_dir=str(tmp_path / "out"))
    path = tmp_path / "config.ini"
    write_config(cfg, path)
    code = main(["solve", "--config", str(path)])
    assert code == 0
    assert "status=ok" in capsys.readouterr().out
    assert (tmp_path / "out" / "norms.csv").exists()


def test_solve_runs_the_paper_boundary_layer_preset(tmp_path):
    # the paper's second experiment at full size, rank 34 on 10^4
    # samples: its modes' mass norms span 0.70 down to 3.7e-9.  Solved
    # with one BLAS thread, as the values were recorded: the mode system
    # reaches a condition of 3.3e7, so other summation orders move the
    # final norms by about 1e-10 relative
    import csv
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    out = tmp_path / "paper"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep
               .join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    for args in (["preset", "boundary-layer", "--scale", "paper",
                  "--out", str(out)],
                 ["solve", "--config", str(out / "config.ini")]):
        proc = subprocess.run([sys.executable, "-m", "supgdlr.cli", *args],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["status"] == "ok" and manifest["n_steps"] == 50
    with open(out / "norms.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 51
    for key, want in (("l2", 0.8052567194305363),
                      ("grad", 10.726836957347162),
                      ("supg", 0.8125591676054811)):
        assert float(rows[-1][key]) == pytest.approx(want, rel=1e-12)
    for key in ("defect_gram", "defect_mean"):
        assert max(float(row[key]) for row in rows) <= 1e-10


def test_solve_missing_config_is_config_error(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path / "absent.ini")])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("model, key", [("constant_adr", "bogus"),
                                        ("rotating_body", "eps_value")])
def test_solve_unknown_model_key_is_config_error(tmp_path, capsys, model,
                                                 key):
    from supgdlr.runner import RunConfig, write_config

    cfg = RunConfig(
        name="mini", n_per_side=4, dt=0.05, T=0.1, model=model,
        model_params={key: 1.0},
        sampler={"kind": "monte_carlo", "count": 4, "seed": 0,
                 "intervals": [(-1.0, 1.0)] * 3},
        out_dir=str(tmp_path / "out"))
    path = tmp_path / "config.ini"
    write_config(cfg, path)
    code = main(["solve", "--config", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err


def test_check_oracle_suite(capsys):
    code = main(["check", "--suite", "oracle"])
    assert code == 0
    out = capsys.readouterr().out
    assert "oracle" in out


def test_check_bounds_suite(capsys):
    # one decay run, both theorems of case ii
    code = main(["check", "--suite", "bounds"])
    assert code == 0
    out = capsys.readouterr().out
    assert "bounds[im_stab case ii]: PASS" in out
    assert "bounds[si_stab case ii]: PASS" in out


def test_check_coercivity_suite(capsys):
    code = main(["check", "--suite", "coercivity"])
    assert code == 0
    assert "0/100 violations" in capsys.readouterr().out


def test_check_numerical_failure_is_exit_status_2(capsys, monkeypatch):
    from supgdlr import cli
    from supgdlr.errors import SolverError

    def failing(state, ws):
        raise SolverError("forced step failure")

    monkeypatch.setattr(cli, "step", failing)
    code = main(["check", "--suite", "oracle"])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "forced step failure" in err


def test_unknown_preset_choice_rejected():
    with pytest.raises(SystemExit):
        main(["preset", "mystery", "--out", "x"])


def _constant_adr_config(tmp_path, b):
    """A constant_adr config file whose [model] b line reads b."""
    import configparser
    from supgdlr.runner import RunConfig, write_config

    cfg = RunConfig(
        name="mini", n_per_side=4, dt=0.05, T=0.1, rank=1,
        model="constant_adr", model_params={"eps_value": 0.1},
        sampler={"kind": "monte_carlo", "count": 4, "seed": 0,
                 "intervals": [(-1.0, 1.0)]},
        out_dir=str(tmp_path / "out"))
    path = tmp_path / "config.ini"
    write_config(cfg, path)
    cp = configparser.ConfigParser()
    cp.read(path)
    cp["model"]["b"] = b
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def test_solve_constant_adr_advection_pair(tmp_path, capsys):
    from supgdlr.runner import build_model, build_space, write_config

    path = _constant_adr_config(tmp_path, "1,0")
    cfg = load_config(path)
    assert cfg.model_params["b"] == (1.0, 0.0)
    model = build_model(cfg, build_space(cfg))
    x = np.array([[0.2, 0.7], [0.9, 0.1]])
    assert np.array_equal(model.b_mean(x), [[1.0, 0.0], [1.0, 0.0]])
    assert main(["solve", "--config", str(path)]) == 0
    assert "status=ok" in capsys.readouterr().out

    cfg.model_params["b"] = (0.25, -3.0)
    write_config(cfg, path)
    assert load_config(path).model_params["b"] == (0.25, -3.0)


def test_solve_constant_adr_advection_triple_is_config_error(tmp_path,
                                                             capsys):
    path = _constant_adr_config(tmp_path, "1,2,3")
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "pair of numbers" in err


def _tiny_rotating_body_config(tmp_path, section, key, value):
    """A small rotating-body config file with one key set to value."""
    import configparser
    from supgdlr.runner import RunConfig, write_config

    cfg = RunConfig(
        name="mini", n_per_side=4, dt=0.05, T=0.1, rank=2,
        model="rotating_body",
        sampler={"kind": "monte_carlo", "count": 4, "seed": 0,
                 "intervals": [(-1.0, 1.0)] * 3},
        initial="rotating_body_shapes", bc={"boundary": 0.0},
        out_dir=str(tmp_path / "out"))
    path = tmp_path / "config.ini"
    write_config(cfg, path)
    cp = configparser.ConfigParser()
    cp.read(path)
    cp[section][key] = value
    with open(path, "w") as fh:
        cp.write(fh)
    return path


@pytest.mark.parametrize("section, key, value, message", [
    ("sampling", "intervals", "1,-1;1,-1;1,-1", "the lower one first"),
    ("sampling", "intervals", "-1,1", "reads 3 random variables"),
    ("sampling", "seed", "-5", "seed must be a non-negative integer"),
    ("boundary", "boundary", "nan", "must be finite"),
    ("run", "rank", "-1", "rank must be a non-negative integer"),
    ("run", "rank", "500", "rank 500 cannot be honoured"),
    ("run", "rank", "3", "rank 3 cannot be honoured"),
    ("sampling", "count", "2", "needs at least 3 samples for its two "
     "stochastic modes (got 2)"),
    ("run", "delta_policy", "abc", "unknown delta_policy 'abc'"),
], ids=["reversed_interval", "too_few_intervals", "negative_seed",
        "nan_boundary", "negative_rank", "rank_500", "rank_3",
        "two_samples", "unknown_delta_policy"])
def test_solve_refuses_bad_input_as_config_error(tmp_path, capsys, section,
                                                 key, value, message):
    import json

    path = _tiny_rotating_body_config(tmp_path, section, key, value)
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    manifest = json.loads((tmp_path / "out" / "run.json").read_text())
    assert manifest["status"] == "config_error"
    assert message in manifest["error"]
    assert not (tmp_path / "out" / "norms.csv").exists()


def test_solve_records_delta_policy_none(tmp_path):
    import json

    path = _tiny_rotating_body_config(tmp_path, "run", "delta_policy",
                                      "none")
    assert main(["solve", "--config", str(path)]) == 0
    manifest = json.loads((tmp_path / "out" / "run.json").read_text())
    assert manifest["config"]["delta_policy"] == "none"
    assert "stabilization" not in manifest["config"]


def test_solve_refuses_the_desk_rotating_body_on_two_samples(tmp_path,
                                                            capsys):
    from supgdlr.runner import preset_rotating_body, write_config

    cfg = preset_rotating_body("desk")
    cfg.sampler["count"] = 2
    cfg.out_dir = str(tmp_path / "out")
    path = tmp_path / "config.ini"
    write_config(cfg, path)
    assert main(["solve", "--config", str(path)]) == 1
    assert "(got 2)" in capsys.readouterr().err


def test_write_config_refuses_a_bound_that_is_not_a_pair(tmp_path):
    from supgdlr.errors import ConfigError
    from supgdlr.runner import RunConfig, write_config

    cfg = RunConfig(name="mini", n_per_side=4, dt=0.05, T=0.1,
                    sampler={"kind": "monte_carlo", "count": 4, "seed": 0,
                             "intervals": [(-1.0, 1.0)]},
                    bounds=(("si_stab",),))
    with pytest.raises(ConfigError, match="not a .theorem, case. pair"):
        write_config(cfg, tmp_path / "config.ini")
    assert not (tmp_path / "config.ini").exists()


def test_solve_refuses_a_negative_boundary_layer_rank(tmp_path, capsys):
    # unchecked, rank -1 runs to a NearSingularError at step 1 (exit 2)
    import configparser
    import json

    assert main(["preset", "boundary-layer", "--scale", "desk",
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "config.ini"
    cp = configparser.ConfigParser()
    cp.read(path)
    cp["run"]["rank"] = "-1"
    cp["output"]["dir"] = str(tmp_path / "out")
    with open(path, "w") as fh:
        cp.write(fh)
    capsys.readouterr()
    assert main(["solve", "--config", str(path)]) == 1
    assert "rank must be a non-negative integer" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "run.json").read_text())
    assert manifest["status"] == "config_error"
    assert manifest["config"]["rank"] == -1


@pytest.mark.parametrize("middle, last, status", [
    ((-1.0, 1.0, 1), (-1.0, 1.0, 3), 1),
    ((-1.0, 1.0, 3), (-1.0, 1.0, 1), 1),
    ((0.5, 0.5, 1), (-1.0, 1.0, 3), 0),
], ids=["y2_one_point", "y3_one_point", "y2_constant_rank_2"])
def test_solve_refuses_rotating_body_modes_that_lose_rank(
        tmp_path, capsys, middle, last, status):
    # one point on an axis the modes read leaves fewer than two centered
    # stochastic modes: a configuration error, not a numerical failure
    import json

    from supgdlr.runner import preset_rotating_body, write_config

    cfg = preset_rotating_body("desk")
    cfg.n_per_side = 8
    cfg.sampler = {"kind": "tensor_grid",
                   "intervals": [(-1.0, 1.0, 3), middle, last]}
    cfg.out_dir = str(tmp_path / "out")
    path = tmp_path / "config.ini"
    write_config(cfg, path)
    assert main(["solve", "--config", str(path)]) == status
    manifest = json.loads((tmp_path / "out" / "run.json").read_text())
    if status:
        err = capsys.readouterr().err
        grid = ";".join(",".join(f"{v:g}" for v in iv)
                        for iv in cfg.sampler["intervals"])
        assert "configuration error: initial condition " \
            f"'rotating_body_shapes' loses rank on the tensor_grid " \
            f"sample set {grid}: rank deficiency at column" in err
        assert manifest["status"] == "config_error"
        assert manifest["failing_step"] is None
    else:
        assert manifest["status"] == "ok"
        assert manifest["initial_rank"] == 2
