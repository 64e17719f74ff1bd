"""The benchmark records at the root of the repository.

Each `BENCH_*.json` reports a measured claim: parent and change runs of
`perfbench/run.py` on the workloads that `BENCHMARK.json` declares.  A
record must parse, say what was measured and how, and name only
declared workloads and end-to-end metrics, from runs whose outputs were
all correct.
"""
from __future__ import annotations

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"] for m in BENCHMARK["end_to_end"]}
FIELDS = ("what", "parent", "host", "command", "method", "claim")
#: A side's op count, reported beside its metrics (peak RSS grows with
#: it); not a metric.
COUNTS = {"ops_median"}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for name in FIELDS:
        assert record.get(name), f"{path.name}: no {name!r}"
    claim = record["claim"]
    assert claim["workload"] in WORKLOADS
    assert claim["metric"] in METRICS
    assert claim["correct"] is True
    assert record["workloads"], f"{path.name}: no workloads"
    for workload, result in record["workloads"].items():
        assert workload in WORKLOADS
        assert result["correct"] is True, (path.name, workload)
        for side in ("parent", "change"):
            assert set(result[side]) <= METRICS | COUNTS, (
                path.name, workload, side)
