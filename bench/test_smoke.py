"""Seconds-long check of the benchmark's output shape on tiny seeded inputs.

    python3 -m pytest bench/test_smoke.py

Kept out of the repository's test suite, whose `testpaths` is `tests/`.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = {k: v for k, v in json.loads((BENCH / "layers.json").read_text(encoding="utf-8")).items()
          if not k.startswith("_")}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# End-to-end metrics the report prints but BENCHMARK.json does not gate.
REPORTED = {"wall_s", "train_tokens_per_s", "load_s", "requests_per_s", "request_p50_ms",
            "g2p_train_s", "g2p_words_per_s"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_layer_map_covers_every_per_layer_metric():
    assert set(LAYERS) == {m["name"] for m in SPEC["per_layer"]}
    gated = {m["name"] for m in SPEC["end_to_end"]}
    for entry in LAYERS.values():
        assert set(entry["on"]) <= set(WORKLOADS)
        assert set(entry["moves"]) <= gated | REPORTED


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
        if not trace:
            assert value > 0, name
        elif workload in LAYERS[name]["on"] and not LAYERS[name].get("may_be_zero"):
            assert value > 0, name
        elif workload not in LAYERS[name]["on"]:
            assert value == 0, name


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
