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


def test_unknown_preset_choice_rejected():
    with pytest.raises(SystemExit):
        main(["preset", "mystery", "--out", "x"])
