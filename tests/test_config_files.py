"""Property test of `supgdlr solve` on drawn config files.

Small configs are drawn over every model, initial condition and sampler
kind; half of the files then get one value replaced by junk.  Whatever
the file, `solve` either succeeds with finite norms and orthonormal,
centered stochastic modes, or fails typed: exit 1, 2 or 3 with a
run.json whose status names the error, or, when the file cannot be
loaded or its output directory made, exit 1 with "configuration error"
on stderr.  No file may end in an untyped exception.  Ranks 0 and 1 on
rotating_body_shapes still run, at the shapes' rank 2, and exit 0.
"""

import configparser
import contextlib
import csv
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from supgdlr import ConfigError, RunConfig, load_config, write_config
from supgdlr.cli import main
from supgdlr.runner import INITIAL_VARIABLES, MODEL_VARIABLES

JUNK = ("", "nan", "-1", "abc", "1e400", "2.5", "1,2")
INTERVALS = ((-1.0, 1.0), (0.5, 1.5), (5000.0, 6000.0))
STATUS = {1: "config_error", 2: "numerical_failure", 3: "bound_failed"}


@st.composite
def config_files(draw):
    """(RunConfig, junk): junk is None or (i, value), value replacing
    the i-th key of the written file (modulo the number of keys)."""
    model = draw(st.sampled_from(list(MODEL_VARIABLES)))
    initial = draw(st.sampled_from(list(INITIAL_VARIABLES)))
    needed = max(MODEL_VARIABLES[model], INITIAL_VARIABLES[initial], 1)
    intervals = [draw(st.sampled_from(INTERVALS))
                 for _ in range(draw(st.integers(needed, 4)))]
    if model == "boundary_layer":
        # its diffusion is 1/y1
        intervals[0] = draw(st.sampled_from(INTERVALS[1:]))
    if draw(st.booleans()):
        count = draw(st.integers(1, 8))
        sampler = {"kind": "monte_carlo", "count": count,
                   "seed": draw(st.integers(0, 3)), "intervals": intervals}
    else:
        # at most 8 samples: 2 points on at most three axes
        ns = [draw(st.integers(1, 2)) for _ in intervals]
        ns[-1] = 1 if math.prod(ns) > 8 else ns[-1]
        count = math.prod(ns)
        sampler = {"kind": "tensor_grid",
                   "intervals": [iv + (n,) for iv, n in zip(intervals, ns)]}
    params = {"eps_value": 0.05, "b": (1.0, 0.5), "c": 0.5, "f": 1.0}
    dt = draw(st.sampled_from([0.05, 0.1]))
    T = draw(st.integers(1, 3)) * dt
    samples = st.lists(st.integers(0, count - 1), max_size=2,
                       unique=True).map(tuple)
    cfg = RunConfig(
        name="drawn", n_per_side=draw(st.integers(2, 6)), dt=dt, T=T,
        delta_policy=draw(st.sampled_from(
            ["experiment", "coercivity", "semi_implicit", "none"])),
        rank=draw(st.one_of(st.none(), st.integers(0, 3))),
        snapshot_tol=draw(st.sampled_from([None, 1e-4])),
        model=model,
        model_params=draw(st.sampled_from(
            [{}, {"eps_value": 0.05}, params]))
        if model == "constant_adr" else {},
        sampler=sampler,
        initial=initial,
        bc=draw(st.sampled_from([{"boundary": 0.0},
                                 {"d1": 1.0, "d2": 0.0}])),
        out_dir="out",
        track_md_samples=draw(samples),
        dump_times=draw(st.sampled_from([(), (0.0,), (T,)])),
        dump_samples=draw(samples),
        bounds=draw(st.sampled_from(
            [(), (("si_stab", "ii"),), (("im_stab", "iii"),)])),
        tangent_residual=draw(st.booleans()))
    junk = (draw(st.integers(0, 63)), draw(st.sampled_from(JUNK))) \
        if draw(st.booleans()) else None
    return cfg, junk


@contextlib.contextmanager
def _in_new_directory():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def _solve(cfg, junk):
    """Write cfg (with its junk value) in a new directory and solve it
    there; returns (exit status, stderr, loaded config or None)."""
    write_config(cfg, "config.ini")
    if junk is not None:
        cp = configparser.ConfigParser()
        cp.read("config.ini")
        keys = [(section, key) for section in cp.sections()
                for key in cp[section]]
        section, key = keys[junk[0] % len(keys)]
        cp[section][key] = junk[1]
        with open("config.ini", "w") as fh:
            cp.write(fh)
    try:
        loaded = load_config("config.ini")
    except ConfigError:
        loaded = None
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        status = main(["solve", "--config", "config.ini"])
    return status, err.getvalue(), loaded


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config_files())
def test_every_config_file_runs_or_fails_typed(drawn):
    cfg, junk = drawn
    with _in_new_directory():
        status, err, loaded = _solve(cfg, junk)
        manifest_path = os.path.join(loaded.out_dir, "run.json") \
            if loaded is not None else None
        if manifest_path is None or not os.path.exists(manifest_path):
            # not loaded, or the output directory could not be made
            assert status == 1 and "configuration error" in err
            return
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        if status:
            assert manifest["status"] == STATUS[status]
            assert status == 3 or manifest["error"]
            return
        assert manifest["status"] == "ok"
        with open(os.path.join(loaded.out_dir, "norms.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == manifest["n_steps"] + 1
        for row in rows:
            assert all(math.isfinite(float(row[k]))
                       for k in ("l2", "grad", "supg"))
            assert all(float(row[k]) <= 1e-10 for k in (
                "defect_gram", "defect_mean", "defect_cross"))
