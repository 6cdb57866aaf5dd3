"""Outputs and request counts do not depend on `backend.max_in_flight`.

The fixture pipeline runs through the live gateway path (cache, retries,
limiter) against a transport that answers from the fixture replay script
after a random 0-5 ms delay, so concurrent requests finish out of order.
"""

from __future__ import annotations

import random
import threading
import time
from pathlib import Path

import pytest
import yaml

from conftest import CONFIG, DATA, run_cli
from tomtrace import cli, llmgate
from tomtrace.llmgate import ChatRequest, ReplayScript

STAGES = ("ingest", "extract", "build-kg", "genqa", "verify", "eval", "report")


@pytest.fixture()
def live_config(tmp_path) -> Path:
    raw = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
    raw["corpus"]["input"] = str(DATA / "books")
    raw["corpus"]["alias_tables"] = {"king-lear": str(DATA / "king-lear-aliases.txt")}
    raw["replay"] = {}
    raw["backend"]["retry_base_backoff_s"] = 0.0
    path = tmp_path / "config" / "live.yaml"  # apart from the out trees, so manifests name inputs alike
    path.parent.mkdir()
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return path


def _run_pipeline(monkeypatch, config: Path, out: Path, max_in_flight: int) -> int:
    """Run every stage with the given pool size; returns the transport call count."""
    script = ReplayScript.load(DATA / "replay.jsonl")
    rng = random.Random(max_in_flight)
    lock = threading.Lock()
    calls = {"n": 0}

    def transport(url, payload, headers):
        request = ChatRequest(
            model_id=payload["model"],
            messages=tuple((m["role"], m["content"]) for m in payload["messages"]),
        )
        with lock:
            calls["n"] += 1
            delay = rng.uniform(0.0, 0.005)
        time.sleep(delay)
        return 200, {"choices": [{"message": {"content": script.lookup(request)}}]}

    load_config = cli.load_config

    def sized_config(path):
        config = load_config(path)
        config.backend.max_in_flight = max_in_flight
        return config

    monkeypatch.setattr(llmgate, "_http_transport", transport)
    monkeypatch.setattr(cli, "load_config", sized_config)
    monkeypatch.setenv("TOMTRACE_API_TOKEN", "test-token")
    for stage in STAGES:
        run_cli(out, stage, config=config)
    return calls["n"]


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_outputs_and_request_counts_identical_at_one_and_eight_in_flight(monkeypatch, tmp_path, live_config):
    serial_calls = _run_pipeline(monkeypatch, live_config, tmp_path / "serial", 1)
    parallel_calls = _run_pipeline(monkeypatch, live_config, tmp_path / "parallel", 8)
    serial, parallel = _tree_bytes(tmp_path / "serial"), _tree_bytes(tmp_path / "parallel")
    assert serial.keys() == parallel.keys()
    assert [name for name in serial if serial[name] != parallel[name]] == []
    assert any(name.startswith("cache/") for name in serial)  # the live path was taken
    assert serial_calls == parallel_calls > 0
