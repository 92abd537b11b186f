"""Self-test of the benchmark: every workload at its minimal size (one cycle).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that an untraced run emits every end-to-end metric and a traced run
every per-layer metric, each with the unit ``BENCHMARK.json`` declares, and
that both runs put every operation in the same outcome class.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((HERE / "results" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return final, report


def classes(records):
    return [(r["kind"], r["outcome"]) for r in records if r["cycle"] == 0]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload):
    untraced, untraced_report = run(workload, 0)
    traced, traced_report = run(workload, 1)
    for final, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {name: m["unit"] for name, m in final["metrics"].items()} == expected
    assert classes(untraced_report["records"]) == classes(traced_report["records"])
