"""Committed benchmark records: every BENCH_*.json at the repository root
parses and records passing parent and change runs."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_benchmark_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_benchmark_record_runs_pass(path):
    runs = json.loads(path.read_text())["runs"]
    assert {"parent", "change"} <= {run["side"] for run in runs}
    for run in runs:
        assert run["result"]["correct"] is True
        assert run["result"]["failed"] == 0
