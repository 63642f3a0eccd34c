"""Benchmark of `supgdlr solve`: end-to-end and per-layer metrics.

One workload, measured in this process:

    python3 bench/run.py --workload rotating_body --seed 1234 \
        --seconds 35 --trace 0

Every workload, each in a fresh process, with a table at the end:

    python3 bench/run.py --workload all --trace 0

Steadiness: repeat each workload N times, alternating workloads, seeds
seed .. seed+N-1, and print each metric's median and quartiles:

    python3 bench/run.py --workload all --repeat 10

A run first makes an untimed setup (problem sizes) and a short untimed
solve (library warm-up), then repeats the workload's solve for
--seconds, at least MIN_SOLVES times.  With --trace 0 it prints the
end-to-end metrics, those BENCHMARK.json gates and those only
reported; with --trace 1 it alternates traced and untraced solves and
prints the per-layer metrics of the traced ones, checks their step
spans against the step callbacks, and prints the tracing overhead.  Every solve's outputs
are checked; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0
only when every solve passed its checks.
"""

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 1234          # the seed preset_rotating_body uses by default
DEFAULT_SECONDS = 35         # run_seconds in BENCHMARK.json
BLAS_THREADS = 1
HARD_LIMIT_S = 120.0         # start no solve after this, to end within 180 s
WARMUP_STEPS = 2             # steps of the untimed warm-up solve
MIN_SOLVES = 4               # timed solves per run (of each kind), at least
# After each untraced solve, standalone setups for this share of the
# solve's time: a setup lasts 0.04-0.5 s, so setup_s is a median of
# 20-200 samples spread over the run.
SETUP_SHARE = 0.25
# The step spans of a traced solve must cover at least this share of
# the time between step callbacks; the rest is the loop's own work.
STEP_COVER = 0.95

# Gated by BENCHMARK.json.  Step times are upper quantiles: the machine
# drifts between speed states that last minutes, and a run's median
# step moves with the state while the upper quartile and the tail stay.
END_TO_END = {
    "setup_s": "s",
    "step_ms_p75": "ms",
    "step_ms_tail": "ms",
    "peak_rss_mb": "MiB",
}
# Printed beside them but not gated: over ten runs their spread
# (IQR / median) reached 0.31, above the largest bound allowed.
REPORTED = {
    "solve_s": "s",
    "step_ms_p50": "ms",
    "failed_frac": "ratio",
}
# Per-layer metrics measured here rather than from the spans.
RUN_LAYER_METRICS = ("runner.build_problem.peak_rss_mb", "trace.overhead_s")
PER_LAYER_UNITS = {"ms": "ms", "self_ms": "ms", "s": "s", "self_s": "s",
                   "calls": "count", "cols": "count",
                   "evals_per_step": "count", "share": "ratio",
                   "peak_rss_mb": "MiB", "overhead_s": "s"}


def pin_threads():
    """One BLAS/OpenMP thread; must run before numpy is imported.

    On a shared 2-core machine a second BLAS thread mostly adds wake-up
    jitter: the boundary-layer setup (small dense Cholesky and SVD) took
    0.065-0.12 s with two threads and a steady 0.043-0.049 s with one.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import supgdlr from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import supgdlr
    except ImportError as err:
        raise SystemExit(f"cannot import supgdlr from {src}: {err}")
    if not Path(supgdlr.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"supgdlr was imported from {supgdlr.__file__}, "
                         f"not from {src}")


def git_commit():
    """HEAD of this checkout, or 'unknown' outside a git repository."""
    if not (ROOT / ".git").exists():     # never report an enclosing repo
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment():
    import numpy
    import scipy

    def cache(level_const):
        try:
            return os.sysconf(level_const)
        except (ValueError, OSError):
            return None

    # glibc _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": git_commit(),
        "l2_bytes_per_core": cache(191), "llc_bytes": cache(194),
    }


def _mib(n):
    return "unknown" if n is None else f"{n / 2**20:g} MiB"


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def tail_percentile(min_steps):
    """Highest percentile with at least ten of min_steps beyond it."""
    return 100.0 * (1.0 - 10.0 / min_steps)


# -- one workload, in this process ----------------------------------------

class Run:
    """The solves of one benchmark run and their checks."""

    def __init__(self, workload, seed, reference, out_dir, log):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.out_dir = out_dir
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.first_output = None
        self.untraced = []          # SolveResult of timed untraced solves
        self.traced = []            # (SolveResult, per-layer, check)
        self.setups = []            # setup_s samples
        self.cold_setup_s = None    # set by warm_up
        self.setup_rss_mb = None
        self.problem = None

    def fail(self, problems):
        self.failed += 1
        self.log(f"solve {self.attempted} FAILED: " + "; ".join(problems))

    def warm_up(self):
        """Untimed: the process's first setup (problem sizes, resident
        memory after setup), then a short solve (library initialization).
        """
        from supgdlr import runner
        from workloads import max_rss_mb, problem_size, solve

        cfg = self.workload.config(self.seed)
        t0 = time.perf_counter()
        problem = runner.build_problem(cfg)
        self.cold_setup_s = time.perf_counter() - t0
        self.setup_rss_mb = max_rss_mb()
        self.problem = problem_size(self.workload, problem)
        del problem
        cfg.T = cfg.dt * WARMUP_STEPS
        res = solve(self.workload, cfg, self.out_dir)
        self.attempted += 1
        if res.error:
            self.fail([res.error])

    def solve(self, traced=False):
        from spans import Tracer, instrument, summarize
        from workloads import check_outputs, solve

        cfg = self.workload.config(self.seed)
        if traced:
            tracer = Tracer()
            with instrument(tracer):
                res = solve(self.workload, cfg, self.out_dir)
        else:
            res = solve(self.workload, cfg, self.out_dir)
        gc.collect()                # the next solve starts from a clean heap
        self.attempted += 1
        problems = [res.error] if res.error else check_outputs(
            self.workload, self.seed, res.final, self.reference)
        if self.first_output is None:
            self.first_output = res.output
        elif not res.error and res.output != self.first_output:
            problems.append("outputs differ from the first solve's "
                            "(tracing or repetition changed the result)")
        if traced and not res.error:
            layers, check = summarize(tracer)
            problems += check_step_cover(check, res.step_s)
            self.traced.append((res, layers, check))
        elif not traced:
            self.untraced.append(res)
            self.setups.append(res.setup_s)
        if problems:
            self.fail(problems)
        return res

    def setups_for(self, budget_s):
        """Standalone setups until they have taken budget_s, at least one."""
        from workloads import time_setup

        spent = 0.0
        while spent == 0.0 or spent < budget_s:
            self.setups.append(time_setup(self.workload.config(self.seed)))
            spent += self.setups[-1]
        gc.collect()


def check_step_cover(check, step_s):
    """Problems with a traced solve's step spans; empty when they agree
    with the step callbacks of the same solve.

    The callbacks stamp the end of every step, so the time between two
    stamps holds one step span plus the loop's own work: the spans may
    not exceed it, and must cover at least STEP_COVER of it.
    """
    if check["steps"] != len(step_s):
        return [f"{check['steps']} step spans but {len(step_s)} step "
                f"callbacks"]
    check["stamped_ms"] = 1e3 * sum(step_s) / len(step_s)
    check["cover"] = check["step_ms"] / check["stamped_ms"]
    if not STEP_COVER <= check["cover"] <= 1.0 + 1e-9:
        return [f"step spans cover {check['cover']:.4f} of the time between "
                f"step callbacks, outside [{STEP_COVER}, 1]"]
    return []


def measure(workload, seed, seconds, trace, reference, out_dir, log):
    """Warm up, then solve repeatedly for `seconds`; returns the Run.

    Untraced solves are each followed by standalone setups for
    SETUP_SHARE of the solve's time, so that setup_s is a median of
    many samples spread over the run.  With `trace`, traced and
    untraced solves alternate, a traced one first.
    """
    run = Run(workload, seed, reference, out_dir, log)
    run.warm_up()
    durations = []
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = len(run.untraced) >= MIN_SOLVES and (
            not trace or len(run.traced) >= MIN_SOLVES)
        if elapsed > HARD_LIMIT_S or (
                enough and elapsed + median(durations) > seconds):
            break
        t0 = time.perf_counter()
        traced = trace and k % 2 == 0
        run.solve(traced=traced)
        if not trace:
            run.setups_for(SETUP_SHARE * (time.perf_counter() - t0))
        durations.append(time.perf_counter() - t0)
        k += 1
    return run


def end_to_end(run):
    """Gated metrics, reported-only metrics, and a note on each."""
    import numpy as np

    from workloads import max_rss_mb

    steps = [s for r in run.untraced for s in r.step_s]
    steps_per_solve = len(run.untraced[0].step_s)
    pct = tail_percentile(MIN_SOLVES * steps_per_solve)
    values = {
        "setup_s": median(run.setups),
        "step_ms_p75": 1e3 * float(np.percentile(steps, 75)),
        "step_ms_tail": 1e3 * float(np.percentile(steps, pct)),
        "peak_rss_mb": max_rss_mb(),
    }
    reported = {
        "solve_s": median(r.solve_s for r in run.untraced),
        "step_ms_p50": 1e3 * median(steps),
        "failed_frac": run.failed / run.attempted,
    }
    beyond = sum(s * 1e3 > values["step_ms_tail"] for s in steps)
    notes = {
        "solve_s": f"median of {len(run.untraced)} solves",
        "setup_s": f"median of {len(run.setups)} setups; first setup "
                   f"in the process {run.cold_setup_s:.4f} s, untimed",
        "step_ms_p50": f"median of {len(steps)} steps",
        "step_ms_p75": f"p75 of {len(steps)} steps",
        "step_ms_tail": f"p{pct:g} of {len(steps)} steps, {beyond} beyond",
        "peak_rss_mb": "ru_maxrss of this process",
        "failed_frac": f"{run.failed} of {run.attempted} solves failed a "
                       f"typed error or the output check",
    }
    return values, reported, notes


def per_layer(run):
    rows = [layers for _, layers, _ in run.traced]
    values = {name: median(r[name] for r in rows) for name in rows[0]}
    values["runner.build_problem.peak_rss_mb"] = run.setup_rss_mb
    # Each traced solve is paired with the untraced solve right after it.
    values["trace.overhead_s"] = median(
        traced.solve_s - plain.solve_s
        for (traced, _, _), plain in zip(run.traced, run.untraced))
    checks = [check for _, _, check in run.traced]
    return values, checks


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name in REPORTED:
        return REPORTED[name]
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def run_one(args, workload):
    reference = load_json(BENCH / "reference.json")
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_",
                                     dir=ROOT) as out_dir:
        run = measure(workload, args.seed, args.seconds, bool(args.trace),
                      reference, out_dir, print)

    env = environment()
    first = (run.untraced or [res for res, _, _ in run.traced])[0]
    problem = dict(run.problem, steps=len(first.step_s))
    print(f"workload {workload.name}  seed {args.seed}  "
          f"{run.attempted} solves, the first an untimed "
          f"{WARMUP_STEPS}-step warm-up")
    print("  problem " + "  ".join(f"{k} {v}" for k, v in problem.items()
                                   if k != "array_bytes"))
    print("  largest per-step arrays: " + ", ".join(
        f"{k} {v / 2**20:.2f} MiB" for k, v in problem["array_bytes"].items())
        + f" (L2 {_mib(env['l2_bytes_per_core'])} per core, "
          f"LLC {_mib(env['llc_bytes'])})")
    if args.trace:
        values, checks = per_layer(run)
        for name, v in values.items():
            print(f"  {name:44s} {v:12.6g} {unit_of(name)}")
        for c in checks:
            print(f"  traced solve: step spans {c['step_ms']:.4f} ms per "
                  f"step over {c['steps']} steps, {c['cover']:.4f} of the "
                  f"{c['stamped_ms']:.4f} ms between step callbacks")
        print(f"  tracing overhead {values['trace.overhead_s']:+.4f} s "
              f"per solve (median over pairs of a traced solve and the "
              f"untraced one after it)")
    else:
        values, reported, notes = end_to_end(run)
        for name in ("solve_s", "setup_s", "step_ms_p50", "step_ms_p75",
                     "step_ms_tail", "peak_rss_mb", "failed_frac"):
            v = values.get(name, reported.get(name))
            gate = "" if name in values else ", not gated"
            print(f"  {name:14s} {v:12.6g} {unit_of(name):5s} "
                  f"({notes[name]}{gate})")
    print(json.dumps({"env": env, "seed": args.seed, "problem": problem,
                      "reported": {} if args.trace else _metric_map(reported)}))
    print(json.dumps(result_line(run.attempted, run.failed, values)))
    return 0 if run.failed == 0 else 1


def _metric_map(values):
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def result_line(attempted, failed, values):
    """The last line of a run's output."""
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": _metric_map(values)}


# -- several workloads, each in a fresh process ----------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_many(args, names):
    rounds = max(args.repeat, 1)
    results = {name: [] for name in names}
    status = 0
    for i in range(rounds):
        for name in names:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed + i),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if rounds == 1:
                print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
                info = json.loads(lines[-2])     # env, problem, reported
            except (IndexError, json.JSONDecodeError):
                print(f"{name} seed {args.seed + i}: no result "
                      f"(exit {proc.returncode})")
                status = 1
                continue
            status = status or proc.returncode
            result["metrics"].update(info["reported"])
            results[name].append(result)
            if rounds > 1:
                vals = "  ".join(f"{k} {m['value']:.6g}"
                                 for k, m in result["metrics"].items())
                print(f"{name} seed {args.seed + i} correct "
                      f"{result['correct']}: {vals}", flush=True)

    bench = load_json(ROOT / "BENCHMARK.json") \
        if (ROOT / "BENCHMARK.json").exists() else {}
    bounds = {m["name"]: m.get("bound") for m in bench.get("end_to_end", [])}
    summary = {}
    print(f"\n{'workload':20s} {'metric':34s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, runs in results.items():
        if not runs:
            continue
        summary[name] = {}
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else None
            bound = bounds.get(metric)
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": spread, "n": len(vals),
                                     "unit": runs[0]["metrics"][metric]["unit"]}
            print(f"{name:20s} {metric:34s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {'-' if spread is None else f'{spread:.4f}':>8s} "
                  f"{'-' if bound is None else format(bound, 'g'):>6s}")
    for name, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{name:20s} failed_frac {failed / max(attempted, 1):g} "
              f"({failed} of {attempted} solves)")
    failed = sum(r["failed"] for runs in results.values() for r in runs)
    attempted = sum(r["attempted"] for runs in results.values() for r in runs)
    print(json.dumps({"correct": status == 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "summary": summary}))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="runs per workload in fresh processes, "
                             "alternating workloads")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    pin_threads()
    import_package()
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    if args.workload == "all" or args.repeat:
        names = list(WORKLOADS) if args.workload == "all" \
            else [args.workload]
        return run_many(args, names)
    return run_one(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
