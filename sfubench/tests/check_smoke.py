"""One short run of every workload, untraced, through the real command.

Run with ``python3 -m pytest sfubench/tests/check_smoke.py -q`` from the
repository root; takes about a minute and a half on a 2-core box.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[2]


def _run(workload: str, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "sfubench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=str(_ROOT), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload",
                         ["fit-sweep", "batch-infer", "serve-infer"])
def test_one_round(workload):
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text())
    res = _run(workload)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    for metric in spec["end_to_end"]:
        got = res["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "sfubench"
    bench.mkdir()
    (bench / "run.py").write_text((_ROOT / "sfubench" / "run.py").read_text())
    proc = subprocess.run(
        [sys.executable, "sfubench/run.py", "--workload", "fit-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
