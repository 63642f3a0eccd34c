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
    want |= {f"reaction_forcing_desk/{name}" for name in
             ("norms.csv", "md.csv", "run.json", "ledger.csv")}
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
    # both stability ledgers of the reaction-forcing run apply and pass
    ledger = (tmp_path / "reaction_forcing_desk" / "ledger.csv").read_text()
    assert [row.split(",")[:3] + row.split(",")[-1:]
            for row in ledger.splitlines()[1:]] \
        == [["im_stab", "i", "True", "True"], ["si_stab", "i", "True", "True"]]


def diff_outputs(parent, change):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "diff_outputs.py"),
         str(parent), str(change)], capture_output=True, text=True,
        timeout=60)


def test_diff_outputs_flags_text_and_numbers_beyond_tolerance(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "run").mkdir(parents=True)
        (root / "check.txt").write_text("R2 ok, version 0.1.0\nexit 0\n")
    (parent / "run" / "norms.csv").write_text("t,l2\n0,0.5\n0.1,-2e-3\n")
    (change / "run" / "norms.csv").write_text(
        "t,l2\n0,0.50000000000000011\n0.1,-2e-3\n")
    proc = diff_outputs(parent, change)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines() == [
        "check.txt: identical",
        "run/norms.csv: max relative difference 2.22e-16 "
        "(0.5 vs 0.5000000000000001)"]

    for text, verdict in (("t,l2\n0,0.5\n0.1,-2.001e-3\n",
                           "max relative difference 0.0005"),
                          ("t,l1\n0,0.5\n0.1,-2e-3\n",
                           "non-numeric text differs")):
        (change / "run" / "norms.csv").write_text(text)
        proc = diff_outputs(parent, change)
        assert proc.returncode == 1
        assert f"run/norms.csv: {verdict}" in proc.stdout
    # round-off-level numbers agree to ATOL absolute, whatever their
    # ratio; a norm is still held to the relative rule
    (parent / "run" / "norms.csv").write_text(
        "t,l2,defect_gram\n0,0.5,2.220446049250313e-16\n")
    (change / "run" / "norms.csv").write_text(
        "t,l2,defect_gram\n0,0.5,4.440892098500626e-16\n")
    proc = diff_outputs(parent, change)
    assert proc.returncode == 0, proc.stdout
    assert ("run/norms.csv: max relative difference 0.5 "
            "(2.220446049250313e-16 vs 4.440892098500626e-16), "
            "within 1e-13 absolute") in proc.stdout
    (change / "run" / "norms.csv").write_text(
        "t,l2,defect_gram\n0,0.500000000001,4.440892098500626e-16\n")
    proc = diff_outputs(parent, change)
    assert proc.returncode == 1
    assert ("run/norms.csv: max relative difference 2e-12 "
            "(0.5 vs 0.500000000001)  FAIL") in proc.stdout

    (parent / "run" / "norms.csv").write_text("t,l2\n0,0.5\n0.1,-2e-3\n")
    (change / "run" / "norms.csv").write_text("t,l2\n0,0.5\n0.1,-2e-3\n")
    (change / "check.txt").write_text("R2 ok, version 0.1.1\nexit 0\n")
    (change / "extra.txt").write_text("1\n")
    proc = diff_outputs(parent, change)
    assert proc.returncode == 1
    assert "check.txt: non-numeric text differs  FAIL" in proc.stdout
    assert f"extra.txt: only in {change}  FAIL" in proc.stdout
