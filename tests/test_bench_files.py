"""Committed benchmark records: every BENCH_*.json at the repository root
parses and records passing parent and change runs, and the record writer
scripts/bench_pairs.py writes files that keep those rules."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_record(record):
    runs = record["runs"]
    assert {"parent", "change"} <= {run["side"] for run in runs}
    for run in runs:
        assert run["result"]["correct"] is True
        assert run["result"]["failed"] == 0


def test_benchmark_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_benchmark_record_runs_pass(path):
    check_record(json.loads(path.read_text()))


def canned_output(side, value):
    env = {"nproc": 2, "blas_threads": 1, "commit": "unknown"}
    result = {"correct": True, "attempted": 5, "failed": 0,
              "metrics": {"step_ms_p75": {"value": value, "unit": "ms"}}}
    return "\n".join([f"workload boundary_layer ({side})",
                      json.dumps({"env": env, "seed": 1234}),
                      json.dumps(result)])


def test_bench_pairs_writes_passing_alternated_record(tmp_path):
    bench_pairs = load_bench_pairs()
    parent, change = tmp_path / "parent", tmp_path / "change"
    calls = []

    def fake_run(checkout, args):
        side = "parent" if checkout == parent else "change"
        calls.append(side)
        return 0, canned_output(side, 1.0 if side == "parent" else 0.8)

    path = tmp_path / "BENCH_test.json"
    args = ["--workload", "boundary_layer"]
    bench_pairs.record_pairs(parent, change, path, 2, args, run=fake_run)
    bench_pairs.record_pairs(parent, change, path, 1, args, run=fake_run)
    record = json.loads(path.read_text())
    check_record(record)
    assert calls == ["parent", "change", "change", "parent",
                     "parent", "change"]
    runs = record["runs"]
    assert [r["pair"] for r in runs] == [1, 1, 2, 2, 3, 3]
    assert {r["command"] for r in runs} == \
        {"python3 bench/run.py --workload boundary_layer"}
    assert all(set(r) == {"side", "pair", "command", "env", "result"}
               for r in runs)
    assert runs[0]["env"]["blas_threads"] == 1
    assert runs[0]["result"]["metrics"]["step_ms_p75"]["value"] == 1.0


def test_bench_pairs_records_a_run_without_result_as_failed(tmp_path):
    bench_pairs = load_bench_pairs()
    path = tmp_path / "BENCH_test.json"
    bench_pairs.record_pairs(tmp_path, tmp_path, path, 1,
                             ["--workload", "all"],
                             run=lambda checkout, args: (1, "Traceback\n"))
    runs = json.loads(path.read_text())["runs"]
    assert [r["result"]["correct"] for r in runs] == [False, False]
    assert runs[0]["result"]["exit_code"] == 1
    assert "nproc" in runs[0]["env"]
    with pytest.raises(AssertionError):
        check_record(json.loads(path.read_text()))
