"""Alternated parent/change runs of bench/run.py, recorded in one BENCH file.

    python3 scripts/bench_pairs.py --parent ../parent --label weighted_qr \
        --pairs 8 -- --workload boundary_layer

Each pair runs `python3 bench/run.py <args after -->` once in the parent
checkout and once in the change checkout (the repository this script is
in), one after the other.  Pairs are numbered on from the ones already in
the record; odd pairs start with the parent, even pairs with the change.
The final JSON line of every run is appended to BENCH_<label>.json at the
change checkout's root as {side, pair, command, env, result}, and the
file is rewritten after each run, so an interrupted series keeps the runs
that finished.  A run that prints no final JSON line is recorded as not
correct, with its exit code.
"""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOTE = ("final JSON line of each run of python3 bench/run.py; parent and "
        "change alternate which side runs first (odd pairs the parent), "
        "each in its own checkout, one after the other on the same "
        "machine; 'pair' groups the runs of one comparison")
RUN_TIMEOUT_S = 3600


def run_bench(checkout, bench_args):
    """Run bench/run.py in checkout; returns (exit code, stdout)."""
    proc = subprocess.run([sys.executable, "bench/run.py", *bench_args],
                          cwd=checkout, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def describe_commit(checkout):
    """HEAD of checkout, marked when its working tree differs from it."""
    def git(*args):
        out = subprocess.run(["git", *args], cwd=checkout,
                             capture_output=True, text=True, timeout=60)
        return out.stdout.strip() if out.returncode == 0 else None

    if not (Path(checkout) / ".git").exists():
        return "unknown"
    head = git("rev-parse", "HEAD")
    if head is None:
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return f"working tree on top of {head}" if dirty else head


def parse_run(code, stdout):
    """(result, env) of one run's output.

    result is the final JSON line; env is the last `env` object the run
    printed, or None (`--workload all --repeat N` prints none).
    """
    lines = stdout.strip().splitlines()
    env = None
    for line in lines:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and "env" in obj:
            env = obj["env"]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        result = {"correct": False, "failed": None, "exit_code": code}
    return result, env


def load_record(path):
    if Path(path).exists():
        return json.loads(Path(path).read_text())
    return {"note": NOTE, "runs": []}


def record_pairs(parent, change, path, pairs, bench_args, run=run_bench):
    """Run `pairs` alternated pairs and append them to the record at path."""
    record = load_record(path)
    first = 1 + max((r["pair"] for r in record["runs"]
                     if isinstance(r["pair"], int)), default=0)
    command = shlex.join(["python3", "bench/run.py", *bench_args])
    commits = {"parent": describe_commit(parent),
               "change": describe_commit(change)}
    fallback_env = {"nproc": len(os.sched_getaffinity(0)),
                    "python": sys.version.split()[0],
                    "numpy": version("numpy"), "scipy": version("scipy")}
    for pair in range(first, first + pairs):
        order = [("parent", parent), ("change", change)]
        if pair % 2 == 0:
            order.reverse()
        for side, checkout in order:
            result, env = parse_run(*run(checkout, bench_args))
            env = dict(env or fallback_env, commit=commits[side])
            record["runs"].append({"side": side, "pair": pair,
                                   "command": command, "env": env,
                                   "result": result})
            Path(path).write_text(json.dumps(record, indent=1) + "\n")
            print(f"pair {pair} {side}: {json.dumps(result)}", flush=True)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--label", required=True,
                        help="record name: writes BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("bench_args", nargs=argparse.REMAINDER,
                        help="-- then the arguments of bench/run.py")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_]+", args.label):
        parser.error("--label takes letters, digits and underscores")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not (Path(args.parent) / "bench" / "run.py").exists():
        parser.error(f"{args.parent} has no bench/run.py")
    bench_args = args.bench_args[1:] if args.bench_args[:1] == ["--"] \
        else args.bench_args
    record = record_pairs(Path(args.parent).resolve(), ROOT,
                          ROOT / f"BENCH_{args.label}.json", args.pairs,
                          bench_args)
    return 0 if all(r["result"]["correct"] for r in record["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
