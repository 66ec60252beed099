"""Smoke tests for the benchmark itself (a few minutes; not part of tier 1).

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs a seconds-long profile untraced and traced; every
metric ``BENCHMARK.json`` names must come out with its unit, the outputs
must check as correct, and one flipped byte in one reply must fail the
run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# serve is not gated (see run.py) but must keep working.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["serve"]
# Seconds-long profiles: the movie is cut to its first two frames.
PROFILE = ["--seconds", "2", "--frames", "2"]


def bench(*args: str) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, result, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_profile_emits_every_metric_with_its_unit(workload, trace):
    rc, result, log = bench("--workload", workload, "--seed", "3",
                            "--trace", trace, *PROFILE)
    assert rc == 0, log
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    units = {m["name"]: m["unit"] for m in spec}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, float), (name, value)
        # The wire is a call minus the replayed server layers, so it can
        # dip below zero when the replay ran slower than the server did.
        wire = name in ("rpc.wire_ms", "rpc.share_pct")
        assert value > 0 if trace == "0" else value >= 0 or wire, (name, value)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reply_fails_the_run(workload):
    rc, result, log = bench("--workload", workload, "--seed", "3", "--trace", "0",
                            "--corrupt-reply", "1", *PROFILE)
    assert rc != 0, log
    assert result["correct"] is False
    assert "MISMATCH" in log


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
