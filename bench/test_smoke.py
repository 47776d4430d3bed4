"""Smoke test of the benchmark itself: every workload at tiny sizes, both passes.

    python3 -m pytest bench/test_smoke.py

Checks that each run is correct and reports every metric BENCHMARK.json
names, with the unit it states, and that the human-readable lines give
op_p50_s and fail_frac for every workload.  Takes well under a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_tiny_run_reports_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--size", "tiny", "--seconds", "1"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    workloads = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            for name in workloads:
                got = result["metrics"][f"{name}.{metric['name']}"]
                assert got["unit"] == metric["unit"]
                assert isinstance(got["value"], float)
    expected = {f"{w}.{m['name']}" for w in workloads
                for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(result["metrics"]) == expected
    for name in workloads:
        for metric in ("op_p50_s", "fail_frac"):
            assert any(ln.startswith(f"{name} {metric} = ") for ln in lines)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.iterdir():
        if path.is_file():
            (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ie-dss947", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
