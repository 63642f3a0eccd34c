"""The solver outputs, pinned.

A fresh `scripts/compare_outputs.py` tree, written with one BLAS thread,
must agree with the committed tree `tests/data/outputs/` under
`scripts/diff_outputs.py`'s rule.  A change that moves the arithmetic
on purpose re-records the committed tree (see that script's docstring).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "data" / "outputs"


def test_outputs_agree_with_the_pinned_tree(tmp_path):
    fresh = tmp_path / "outputs"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    written = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"),
         str(fresh)], env=env, capture_output=True, text=True)
    assert written.returncode == 0, written.stderr
    diff = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "diff_outputs.py"),
         str(PINNED), str(fresh)], capture_output=True, text=True)
    assert diff.returncode == 0, diff.stdout + diff.stderr


def test_compare_outputs_lists_a_failed_full_order_run(tmp_path,
                                                        monkeypatch, capsys):
    import importlib.util

    from supgdlr import BlowupError

    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def blows_up(*args, **kwargs):
        raise BlowupError("norm 1e+30 at step 3 indicates blow-up",
                          step_index=3)

    def suite(argv):
        print(f"suite {argv[-1]}")
        return 0

    monkeypatch.chdir(tmp_path)   # the script changes into its OUT_DIR
    monkeypatch.setattr(script.runner, "run_from_config",
                        lambda cfg: (0, {}))
    monkeypatch.setattr(script.fom, "fom_run", blows_up)
    monkeypatch.setattr(script.cli, "main", suite)
    assert script.main([str(tmp_path / "out")]) == 1
    assert "failed: fom_boundary_layer (BlowupError: norm 1e+30 at step " \
        "3" in capsys.readouterr().err
    for name in script.SUITES:
        assert (tmp_path / "out" / f"check_{name}.txt").read_text() \
            == f"suite {name}\nexit 0\n"
    assert not (tmp_path / "out" / "fom_boundary_layer.txt").exists()
