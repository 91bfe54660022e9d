"""Self-tests of the benchmark gate.

    python3 -m pytest bench/test_bench.py

Each workload's tiny instance must print every metric of BENCHMARK.json with
its unit, and corrupted artifacts must be caught by the checks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from worker import compare, judge, run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_dropped_root_is_caught(tmp_path):
    wl = WORKLOADS["allroots-hubbard3"](3, tiny=True)
    record = run_pass(wl, tmp_path / "pass0")
    assert record["ok"]
    assert wl.check(tmp_path / "pass0") == (0, [])
    sol_path = tmp_path / "pass0" / "sol.json"
    sol = json.loads(sol_path.read_text())
    sol["solutions"].pop()
    sol_path.write_text(json.dumps(sol))
    attempted, failed, problems = judge(wl, tmp_path / "pass0", [record])
    assert problems and failed == attempted == wl.ops_per_pass()


def test_flipped_ppm_byte_is_caught(tmp_path):
    wl = WORKLOADS["basins-slice"](3, tiny=True)
    (tmp_path / "inputs").mkdir()
    from ccroots.cli import main as cli_main
    wl.prepare(tmp_path / "inputs", cli_main)
    records = [run_pass(wl, tmp_path / "pass0"), run_pass(wl, tmp_path / "pass1")]
    compare(tmp_path / "pass0", tmp_path / "pass1", records[1])
    assert judge(wl, tmp_path / "pass0", records)[1:] == (0, [])

    ppm = tmp_path / "pass1" / "poly.ppm"
    data = bytearray(ppm.read_bytes())
    data[-7] ^= 0x01
    ppm.write_bytes(bytes(data))
    compare(tmp_path / "pass0", tmp_path / "pass1", records[1])
    attempted, failed, problems = judge(wl, tmp_path / "pass0", records)
    assert records[1]["diff"] == ["poly.ppm"]
    assert problems and failed == wl.ops_per_pass()


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "kp-pairing", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
