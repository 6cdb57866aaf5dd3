from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import tomtrace


def test_importing_the_package_loads_no_pipeline_module():
    code = "import sys, tomtrace; print(sorted({'tomtrace.tkg', 'tomtrace.triples'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(tomtrace.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"
