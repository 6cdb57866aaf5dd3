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


def test_importing_the_gateway_loads_neither_the_config_module_nor_yaml():
    code = "import sys, tomtrace.llmgate; print(sorted({'tomtrace.config', 'yaml'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(tomtrace.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"
