"""The desk-scale demos run end to end as scripts."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env,
                          timeout=300)


def test_boundary_layer_demo_exits_zero():
    proc = run_demo("demo_boundary_layer.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("range excess over samples") == 2
