"""Write the solver outputs a refactor must leave byte-identical.

    python3 scripts/compare_outputs.py OUT_DIR

supgdlr is imported from the src/ of the checkout this script is in.  To
check a change against its parent, copy this script into a checkout of
the parent, run each copy into its own directory and compare the two:

    python3 scripts/compare_outputs.py /tmp/change
    python3 ../parent/scripts/compare_outputs.py /tmp/parent
    diff -r /tmp/parent /tmp/change
    python3 scripts/diff_outputs.py /tmp/parent /tmp/change

diff_outputs.py names, for each file that is not byte-identical, its
largest relative numeric difference.

OUT_DIR receives:
- rotating_body_desk/, boundary_layer_desk/ and rotating_body_paper_100/:
  norms.csv, md.csv (tracked samples 0-2) and run.json of one
  run_from_config each; the paper rotating body is cut to 100 steps
- fom_boundary_layer.txt: the full-order L2 norm of every step of the
  desk boundary layer, one repr per line
- check_<suite>.txt: what `supgdlr check --suite <suite>` prints, and its
  exit code, for the oracle, coercivity and bounds suites

The runs write into directories named relative to OUT_DIR, so run.json
records the same out_dir on every checkout.  Exit status 0 when every
run and suite succeeded, 1 otherwise (the outputs are written either
way).
"""

import argparse
import contextlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from supgdlr import cli, fom, runner  # noqa: E402

PAPER_STEPS = 100
TRACKED = (0, 1, 2)
SUITES = ("oracle", "coercivity", "bounds")


def lowrank_configs():
    paper = runner.preset_rotating_body("paper")
    paper.T = PAPER_STEPS * paper.dt
    return {"rotating_body_desk": runner.preset_rotating_body("desk"),
            "boundary_layer_desk": runner.preset_boundary_layer("desk"),
            "rotating_body_paper_100": paper}


def write_fom_norms(path):
    cfg = runner.preset_boundary_layer("desk")
    *_, ws, state = runner.build_problem(cfg)
    _, norms = fom.fom_run(fom.FomState(state.dense(), t=state.t), ws, cfg.T)
    Path(path).write_text("".join(f"{v!r}\n" for v in norms))


def write_check(suite, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(["check", "--suite", suite])
    Path(path).write_text(f"{out.getvalue()}exit {code}\n")
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    out_dir = parser.parse_args(argv).out_dir
    os.makedirs(out_dir, exist_ok=True)
    os.chdir(out_dir)
    failed = []
    for name, cfg in lowrank_configs().items():
        cfg.out_dir = name
        cfg.track_md_samples = TRACKED
        status, _ = runner.run_from_config(cfg)
        if status:
            failed.append(f"{name} (status {status})")
    write_fom_norms("fom_boundary_layer.txt")
    for suite in SUITES:
        code = write_check(suite, f"check_{suite}.txt")
        if code:
            failed.append(f"check {suite} (exit {code})")
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
