"""The benchmark's tracer still installs on the package and records a stage's spans.

`perfbench/tracer.py` wraps library functions and methods by name, so a rename
in `src/` breaks the traced benchmark run; this test finds that in tier-1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import tomtrace
from conftest import CONFIG

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_the_benchmark_tracer_runs_ingest_and_extract_and_records_their_spans(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(tomtrace.__file__).parents[1]), "TOMTRACE_API_TOKEN": "test-token"}
    names = set()
    for stage in ("ingest", "extract"):
        spans = tmp_path / f"{stage}.spans.json"
        result = subprocess.run(
            [sys.executable, str(TRACER), str(spans), "-c", str(CONFIG), "--out", str(tmp_path / "out"), stage],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        recorded = json.loads(spans.read_text(encoding="utf-8"))
        names |= {recorded["names"][span[1]] for span in recorded["spans"]}
    assert {"cli.ingest", "cli.extract", "llmgate.Gateway.complete"} <= names
