"""The desk-scale demos, and the output-comparison script, run end to
end as scripts."""

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


def test_compare_outputs_writes_every_output(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"),
         str(tmp_path)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = ("rotating_body_desk", "boundary_layer_desk",
            "rotating_body_paper_100")
    suites = ("oracle", "coercivity", "bounds")
    want = {f"{run}/{name}" for run in runs
            for name in ("norms.csv", "md.csv", "run.json")}
    want |= {"fom_boundary_layer.txt"} | {f"check_{s}.txt" for s in suites}
    got = {p.relative_to(tmp_path).as_posix()
           for p in tmp_path.rglob("*") if p.is_file()}
    assert got == want
    for suite in suites:
        assert (tmp_path / f"check_{suite}.txt").read_text().endswith(
            "exit 0\n")
    norms = tmp_path / "rotating_body_paper_100" / "norms.csv"
    assert len(norms.read_text().splitlines()) == 1 + 101
    md = (tmp_path / "boundary_layer_desk" / "md.csv").read_text()
    assert {row.split(",")[1] for row in md.splitlines()[1:]} \
        == {"0", "1", "2"}
    assert len((tmp_path / "fom_boundary_layer.txt").read_text()
               .splitlines()) == 51
