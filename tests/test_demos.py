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


def test_stability_bounds_demo_exits_zero():
    proc = run_demo("demo_stability_bounds.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for theorem in ("im_stab", "si_stab"):
        for case in ("i", "ii", "iii"):
            assert sum(line.strip().startswith(
                f"{theorem} case {case}: PASS") for line in lines) == 1
    assert ("si_stab case ii: not applicable (moderate-stochasticity "
            "conditions violated") in proc.stdout


def test_rotating_body_demo_exits_zero():
    proc = run_demo("demo_rotating_body.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("final L2 norm") == 2
    assert "advection dominated: True" in proc.stdout
    assert "stabilized at or below standard in max excess" in proc.stdout
