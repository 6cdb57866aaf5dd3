"""A stage killed with SIGKILL leaves a state that a rerun resumes from.

Each stage runs as a child process that is killed at a fixed point: inside
the rewrite of `questions.jsonl` (review-import), between the two output
files (verify), while a local HTTP backend
stalls after a few answers (extract), right after the first, a middle or the
last response-cache put (extract), or halfway through writing a cache line
(extract). A killed writer may leave its `.NAME.PID.TID.tmp` file behind;
trees are compared without those.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

import tomtrace
from conftest import CONFIG, DATA, http_backend, run_cli, send_reply
from test_cli import _mark_all_pass
from test_concurrency import _scripted_answer, _write_config
from tomtrace.llmgate import ReplayScript

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")

# review-import that kills itself while serializing the third question record
DIE_ON_THIRD_RECORD = """
import os, signal, sys
from tomtrace import qagen
from tomtrace.cli import main

real, calls = qagen.question_to_record, []

def dying(question):
    calls.append(question)
    if len(calls) == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(question)

qagen.question_to_record = dying
main(sys.argv[1:], prog_name="tomtrace")
"""

# A stage that kills itself right after the first file it replaces whole, before the second.
DIE_AFTER_FIRST_REPLACE = """
import os, signal, sys
from tomtrace.cli import main

real = os.replace

def dying(*args, **kwargs):
    real(*args, **kwargs)
    os.kill(os.getpid(), signal.SIGKILL)

os.replace = dying
main(sys.argv[1:], prog_name="tomtrace")
"""

# A stage that kills itself right after its N-th response-cache put (N is the first argument):
# that put's line is whole on disk, and the log is not sealed.
DIE_AFTER_NTH_PUT = """
import os, signal, sys
from tomtrace import llmgate
from tomtrace.cli import main

real, puts, kill_at = llmgate.ResponseCache.put, [], int(sys.argv.pop(1))

def dying(self, *args):
    real(self, *args)
    puts.append(1)
    if len(puts) == kill_at:
        os.kill(os.getpid(), signal.SIGKILL)

llmgate.ResponseCache.put = dying
main(sys.argv[1:], prog_name="tomtrace")
"""

# A stage that kills itself halfway through the third write to the cache log's append handle.
DIE_MID_LINE = """
import builtins, os, signal, sys
from tomtrace import llmgate
from tomtrace.cli import main

class Dying:
    def __init__(self, log):
        self.log, self.writes = log, 0

    def write(self, data):
        self.writes += 1
        if self.writes == 3:
            self.log.write(data[: len(data) // 2])
            self.log.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        return self.log.write(data)

    def __getattr__(self, name):
        return getattr(self.log, name)

def opening(path, mode="r"):
    log = builtins.open(path, mode)
    return Dying(log) if mode == "a+b" else log

llmgate.open = opening
main(sys.argv[1:], prog_name="tomtrace")
"""


def _child_env() -> dict[str, str]:
    return {
        **os.environ,
        "PYTHONPATH": str(Path(tomtrace.__file__).parents[1]),
        "TOMTRACE_API_TOKEN": "test-token",
    }


def _tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under root but a killed writer's temporary file."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and not (p.name.startswith(".") and p.name.endswith(".tmp"))
    }


def test_review_import_killed_mid_write_keeps_the_old_questions(pipeline_out, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    run_cli(out, "review-export")
    review = out / "review.csv"
    _mark_all_pass(review)
    before = _tree_bytes(out)
    assert len(before["questions.jsonl"].splitlines()) > 3

    args = ["-c", str(CONFIG), "--out", str(out), "review-import", str(review)]
    child = subprocess.run(
        [sys.executable, "-c", DIE_ON_THIRD_RECORD, *args], env=_child_env(), capture_output=True, timeout=120
    )
    assert child.returncode == -signal.SIGKILL, child.stderr
    assert _tree_bytes(out) == before

    reference = tmp_path / "reference"
    shutil.copytree(pipeline_out, reference)
    run_cli(reference, "review-export")
    _mark_all_pass(reference / "review.csv")
    run_cli(reference, f"review-import {reference / 'review.csv'}")
    run_cli(out, f"review-import {review}")
    assert _tree_bytes(out) == _tree_bytes(reference)


def test_verify_killed_between_its_two_writes_resumes_to_the_same_bytes(tmp_path):
    reference = tmp_path / "reference"
    run_cli(reference, "ingest", "extract", "build-kg", "genqa")
    out = tmp_path / "out"
    shutil.copytree(reference, out)
    run_cli(reference, "verify")

    args = ["-c", str(CONFIG), "--out", str(out), "verify"]
    child = subprocess.run(
        [sys.executable, "-c", DIE_AFTER_FIRST_REPLACE, *args], env=_child_env(), capture_output=True, timeout=120
    )
    assert child.returncode == -signal.SIGKILL, child.stderr
    run_cli(out, "verify")
    assert _tree_bytes(out) == _tree_bytes(reference)


def test_extract_killed_while_the_backend_stalls_resumes_to_the_same_bytes(tmp_path, monkeypatch):
    script = ReplayScript.load(DATA / "replay.jsonl")
    answered = 3
    stall = {"on": False}

    def answer(handler, n, payload):
        if stall["on"] and n >= answered:
            handler.server.release.wait(timeout=60)
            return
        send_reply(handler, 200, _scripted_answer(script, payload))

    with http_backend(answer) as server:
        config = _write_config(tmp_path, endpoint=server.url)
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        raw["backend"]["max_in_flight"] = 1  # each request waits for the one before it to be cached
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
        monkeypatch.setenv("TOMTRACE_API_TOKEN", "test-token")

        reference = tmp_path / "reference"
        run_cli(reference, "ingest", "extract", config=config)
        uninterrupted = len(server.requests)
        assert uninterrupted > answered + 1

        out = tmp_path / "resumed"
        run_cli(out, "ingest", config=config)
        del server.requests[:]
        stall["on"] = True
        child = subprocess.Popen(
            [sys.executable, "-m", "tomtrace.cli", "-c", str(config), "--out", str(out), "extract"],
            env=_child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while len(server.requests) <= answered and time.monotonic() < deadline and child.poll() is None:
                time.sleep(0.01)
            assert len(server.requests) == answered + 1  # the stalled request is in flight
        finally:
            child.kill()
            child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
        assert not (out / "triples").exists()

        stall["on"] = False
        del server.requests[:]
        run_cli(out, "extract", config=config)
        assert len(server.requests) == uninterrupted - answered

    assert _tree_bytes(out) == _tree_bytes(reference)


@pytest.fixture()
def live_extract(tmp_path, monkeypatch):
    """A scripted local backend, its config at one request in flight, and an uninterrupted ingest and extract.

    Yields (server, config, reference out tree, requests the uninterrupted extract sent).
    """
    script = ReplayScript.load(DATA / "replay.jsonl")
    monkeypatch.setenv("TOMTRACE_API_TOKEN", "test-token")
    with http_backend(lambda handler, n, payload: send_reply(handler, 200, _scripted_answer(script, payload))) as server:
        config = _write_config(tmp_path, endpoint=server.url, backend={"max_in_flight": 1})
        reference = tmp_path / "reference"
        run_cli(reference, "ingest", "extract", config=config)
        sent = len(server.requests)
        del server.requests[:]
        yield server, config, reference, sent


def _killed_extract(code: str, config: Path, out: Path, *args: str) -> subprocess.CompletedProcess:
    child = subprocess.run(
        [sys.executable, "-c", code, *args, "-c", str(config), "--out", str(out), "extract"],
        env=_child_env(),
        capture_output=True,
        timeout=120,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr
    assert not (out / "triples").exists()
    return child


@pytest.mark.parametrize("point", ["first", "middle", "last"])
def test_extract_killed_after_a_cache_put_resumes_to_the_same_bytes(point, live_extract, tmp_path):
    server, config, reference, sent = live_extract
    kill_at = {"first": 1, "middle": sent // 2, "last": sent}[point]
    out = tmp_path / "resumed"
    run_cli(out, "ingest", config=config)
    _killed_extract(DIE_AFTER_NTH_PUT, config, out, str(kill_at))
    assert len(server.requests) == kill_at
    assert len((out / "cache" / "responses.jsonl").read_bytes().splitlines()) == kill_at

    del server.requests[:]
    run_cli(out, "extract", config=config)
    assert len(server.requests) == sent - kill_at
    assert _tree_bytes(out) == _tree_bytes(reference)  # the sealed cache included


def test_a_cache_line_torn_by_a_kill_is_a_miss_and_the_next_process_ends_it(live_extract, tmp_path):
    server, config, reference, sent = live_extract
    out = tmp_path / "resumed"
    run_cli(out, "ingest", config=config)
    _killed_extract(DIE_MID_LINE, config, out)
    log = out / "cache" / "responses.jsonl"
    torn = log.read_bytes()
    assert len(torn.splitlines()) == 3 and not torn.endswith(b"\n")

    # The next process reads the two whole lines as hits and the torn one as a miss, whose
    # request it sends again; its first put ends the torn line with a newline.
    del server.requests[:]
    child = _killed_extract(DIE_AFTER_NTH_PUT, config, out, "1")
    assert len(server.requests) == 1
    assert b"treated as miss" in child.stderr
    resumed = log.read_bytes()
    assert resumed.startswith(torn + b"\n")
    assert resumed[len(torn) + 1 :].count(b"\n") == 1 and resumed.endswith(b"\n")

    del server.requests[:]
    run_cli(out, "extract", config=config)
    assert len(server.requests) == sent - 3
    assert _tree_bytes(out) == _tree_bytes(reference)
