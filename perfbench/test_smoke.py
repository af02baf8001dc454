"""Self-test: reduced-size runs of every workload print every metric.

    python3 -m pytest -q perfbench/test_smoke.py

For each workload and each of ``--trace 0`` / ``--trace 1``, runs
``run.py --smoke`` (small campaigns) and checks that the last line is
the result object with ``correct`` true, and that every metric
``BENCHMARK.json`` names for that mode is printed with its unit, both
in the human-readable table and in the result object.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> str:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_printed_with_unit(workload: str, trace: int) -> None:
    stdout = _run(workload, trace)
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    table = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and not line.startswith("{"):
            table[fields[0]] = fields[2]
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]
        assert table.get(metric["name"]) == metric["unit"], metric["name"]


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
