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

tests/data/outputs/ holds this tree as written with one BLAS thread,
and tests/test_outputs.py requires a fresh tree to agree with it under
diff_outputs.py.  A change that moves the arithmetic on purpose
re-records it:

    OPENBLAS_NUM_THREADS=1 python3 scripts/compare_outputs.py /tmp/new
    python3 scripts/diff_outputs.py tests/data/outputs /tmp/new
    rm -r tests/data/outputs && mv /tmp/new tests/data/outputs

and the change lists that diff_outputs.py report in CHANGES.md.

OUT_DIR receives:
- rotating_body_desk/, boundary_layer_desk/ and rotating_body_paper_100/:
  norms.csv, md.csv (tracked samples 0-2) and run.json of one
  run_from_config each; the paper rotating body is cut to 100 steps
- reaction_forcing_desk/: norms.csv, md.csv (tracked sample 0), run.json
  and ledger.csv of a constant_adr run with reaction and forcing under
  the semi_implicit delta policy, with the im_stab:i and si_stab:i
  bounds: the reaction and forcing terms, the mu-weighted mass, the
  inverse constant and the ledger
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


def reaction_forcing_desk():
    return runner.RunConfig(
        name="reaction_forcing", n_per_side=12, dt=0.01, T=0.5,
        delta_policy="semi_implicit", model="constant_adr",
        model_params={"eps_value": 0.05, "b": (1.0, 1.0), "c": 2.0,
                      "f": 1.0},
        sampler={"kind": "monte_carlo", "count": 8, "seed": 2,
                 "intervals": [(-1.0, 1.0)]},
        bounds=(("im_stab", "i"), ("si_stab", "i")),
        track_md_samples=(0,))


def lowrank_configs():
    """{name: config} of the low-rank runs, with their tracked samples."""
    paper = runner.preset_rotating_body("paper")
    paper.T = PAPER_STEPS * paper.dt
    configs = {"rotating_body_desk": runner.preset_rotating_body("desk"),
               "boundary_layer_desk": runner.preset_boundary_layer("desk"),
               "rotating_body_paper_100": paper}
    for cfg in configs.values():
        cfg.track_md_samples = TRACKED
    configs["reaction_forcing_desk"] = reaction_forcing_desk()
    return configs


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
