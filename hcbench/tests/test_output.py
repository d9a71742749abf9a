"""Output self-test of the benchmark.

Runs every workload at smoke length, untraced and traced, and checks
that the last stdout line parses as the result contract (exactly
``correct``, ``attempted``, ``failed``, ``metrics``), that every metric
``BENCHMARK.json`` names is present with its unit, and that
``BENCHMARK.json`` itself is well-formed.  Run from the repository root:

    python3 -m pytest hcbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = json.loads((ROOT / "hcbench" / "workloads.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    """One smoke-length run (``--seconds 1``)."""
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_is_well_formed():
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    command = SPEC["command"]
    assert 1 <= len(command) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in command)
    assert not any(a.startswith("/") or ".." in a.split("/") for a in command)
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60

    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS["workloads"])

    assert 1 <= len(SPEC["end_to_end"]) <= 16
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])

    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}

    names = [item["name"] for key in ("workloads", "end_to_end", "per_layer") for item in SPEC[key]]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def _check_line(proc: subprocess.CompletedProcess, metrics: list[dict], nonzero: bool) -> None:
    assert proc.returncode == 0, proc.stderr[-3000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True, proc.stdout[-3000:]
    for key in ("attempted", "failed"):
        assert isinstance(doc[key], int) and not isinstance(doc[key], bool)
    assert doc["attempted"] >= 1 and doc["failed"] == 0
    assert set(doc["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = doc["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"], m["name"]
        value = got["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value), m["name"]
        assert value > 0 if nonzero else value >= 0, (m["name"], value)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    _check_line(_run(ROOT, workload, 0), SPEC["end_to_end"], nonzero=True)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_per_layer_metric(workload):
    _check_line(_run(ROOT, workload, 1), SPEC["per_layer"], nonzero=False)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
