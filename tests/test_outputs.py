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
