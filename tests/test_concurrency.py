"""Outputs and request counts do not depend on how requests reach the backend.

The fixture pipeline runs through the live gateway path (cache, retries,
limiter) against a transport that answers from the fixture replay script
after a random 0-5 ms delay, so concurrent requests finish out of order, and
through the real HTTP transport against a local server that answers from the
same script. A failed backend fails `eval` like every other model stage, and
a rerun sends only what the failed run left unanswered.
"""

from __future__ import annotations

import json
import logging
import random
import shutil
import threading
import time
from pathlib import Path

import pytest
import yaml

from conftest import CONFIG, DATA, fake_backend, http_backend, run_cli, run_entry_point, send_reply, tree_bytes
from test_llmgate import _refused_url
from tomtrace import cli
from tomtrace.llmgate import ReplayScript, user_request
from tomtrace.qagen import QuestionState, load_questions

STAGES = ("ingest", "extract", "build-kg", "genqa", "verify", "eval", "report")


def _write_config(tmp_path: Path, endpoint: str = "", **sections: dict) -> Path:
    """The live-path fixture config, with each of `sections` updated, written under `tmp_path`."""
    raw = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
    raw["corpus"]["input"] = str(DATA / "books")
    raw["corpus"]["alias_tables"] = {"king-lear": str(DATA / "king-lear-aliases.txt")}
    raw["replay"] = {}
    raw["backend"]["endpoint"] = endpoint
    raw["backend"]["retry_base_backoff_s"] = 0.0
    for name, values in sections.items():
        raw[name].update(values)
    path = tmp_path / "config" / "live.yaml"  # apart from the out trees, so manifests name inputs alike
    path.parent.mkdir()
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return path


@pytest.fixture()
def live_config(tmp_path) -> Path:
    return _write_config(tmp_path)


def _scripted_answer(script: ReplayScript, payload: dict) -> dict:
    [message] = payload["messages"]
    request = user_request(payload["model"], message["content"], max_output_tokens=payload["max_tokens"])
    return {"choices": [{"message": {"content": script.lookup(request)}}]}


def _run_pipeline(monkeypatch, config: Path, out: Path, max_in_flight: int | None = None) -> int:
    """Run every stage in memory, at `max_in_flight` if given; returns the transport call count."""
    script = ReplayScript.load(DATA / "replay.jsonl")
    rng = random.Random(max_in_flight)
    lock = threading.Lock()
    calls = {"n": 0}

    def transport(url, payload, headers):
        with lock:
            calls["n"] += 1
            delay = rng.uniform(0.0, 0.005)
        time.sleep(delay)
        return 200, _scripted_answer(script, payload), {}

    load_config = cli.load_config

    def sized_config(path):
        config = load_config(path)
        config.backend.max_in_flight = max_in_flight
        return config

    fake_backend(monkeypatch, transport)
    if max_in_flight is not None:
        monkeypatch.setattr(cli, "load_config", sized_config)
    monkeypatch.setenv("TOMTRACE_API_TOKEN", "test-token")
    for stage in STAGES:
        run_cli(out, stage, config=config)
    return calls["n"]


def test_outputs_and_request_counts_identical_at_one_and_eight_in_flight(monkeypatch, tmp_path, live_config):
    serial_calls = _run_pipeline(monkeypatch, live_config, tmp_path / "serial", 1)
    parallel_calls = _run_pipeline(monkeypatch, live_config, tmp_path / "parallel", 8)
    serial, parallel = tree_bytes(tmp_path / "serial"), tree_bytes(tmp_path / "parallel")
    assert serial.keys() == parallel.keys()
    assert [name for name in serial if serial[name] != parallel[name]] == []
    assert any(name.startswith("cache/") for name in serial)  # the live path was taken
    assert serial_calls == parallel_calls > 0


def test_pipeline_over_http_matches_in_memory_and_resumes_after_an_abort(monkeypatch, tmp_path):
    """The real transport writes the in-memory run's bytes, also after a 503 burst aborts extract."""
    script = ReplayScript.load(DATA / "replay.jsonl")
    fail_from = {"n": None}

    def answer(handler, n, payload):
        if fail_from["n"] is not None and n >= fail_from["n"]:
            send_reply(handler, 503, {"error": {"message": "overloaded"}})
        else:
            send_reply(handler, 200, _scripted_answer(script, payload))

    with http_backend(answer) as server:
        config = _write_config(tmp_path, endpoint=server.url)
        monkeypatch.setenv("TOMTRACE_API_TOKEN", "test-token")
        run_cli(tmp_path / "http", *STAGES, config=config)
        http_requests = len(server.requests)

        resumed_out = tmp_path / "resumed"
        run_cli(resumed_out, "ingest", config=config)
        fail_from["n"] = len(server.requests) + 2  # two extraction answers, then 503s
        [aborted] = run_cli(resumed_out, "extract", config=config, expect=2)
        assert "HTTP 503" in aborted.output
        assert len(server.requests) > fail_from["n"]
        assert not (resumed_out / "triples").exists()
        fail_from["n"] = None
        run_cli(resumed_out, *STAGES[1:], config=config)

    in_memory_requests = _run_pipeline(monkeypatch, config, tmp_path / "memory")
    http, memory, resumed = (tree_bytes(tmp_path / name) for name in ("http", "memory", "resumed"))
    assert http.keys() == memory.keys() == resumed.keys()
    assert any(name.startswith("cache/") for name in http)
    assert [name for name in http if http[name] != memory[name]] == []
    assert [name for name in http if http[name] != resumed[name]] == []
    assert http_requests == in_memory_requests


def test_an_unusable_question_reply_is_skipped_with_one_warning_on_every_run(
    monkeypatch, tmp_path, caplog, live_config
):
    """Goneril's generation reply and the one regeneration reply cannot be parsed: genqa skips
    Goneril at plot 1, verify leaves the Fool's desire question rejected, and each warns once and
    exits 0. Those replies are cached, so a rerun sends no request, warns the same and writes the
    same bytes."""
    script = ReplayScript.load(DATA / "replay.jsonl")
    sent = []

    def transport(url, payload, headers):
        [message] = payload["messages"]
        prompt = message["content"]
        sent.append(prompt)
        if "was rejected during review" in prompt or (
            "generate one multiple choice question" in prompt and "Target Character: Goneril" in prompt
        ):
            return 200, {"choices": [{"message": {"content": "Sorry, I cannot help with that."}}]}, {}
        return 200, _scripted_answer(script, payload), {}

    fake_backend(monkeypatch, transport)
    monkeypatch.setenv("TOMTRACE_API_TOKEN", "test-token")
    runs = []
    for out in (tmp_path / "first", tmp_path / "rerun"):
        if runs:
            shutil.copytree(tmp_path / "first" / "cache", out / "cache")
        run_cli(out, "ingest", "extract", "build-kg", config=live_config)
        sent.clear()
        warnings = {}
        for stage in ("genqa", "verify"):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="tomtrace.qagen"):
                run_cli(out, stage, config=live_config)
            warnings[stage] = [r.getMessage() for r in caplog.records if r.name == "tomtrace.qagen"]
        runs.append((len(sent), warnings))
        run_cli(out, "eval", "report", config=live_config)
    (first_sent, warnings), (rerun_sent, rerun_warnings) = runs
    assert warnings == rerun_warnings
    [genqa_warning], [verify_warning] = warnings["genqa"], warnings["verify"]
    assert genqa_warning == "king-lear/Goneril/p1: generation response is not JSON; skipped"
    assert verify_warning.endswith(": regeneration reply unusable: generation response is not JSON, left rejected")
    assert first_sent > 0 and rerun_sent == 0
    questions = load_questions(tmp_path / "first" / "questions.jsonl")
    assert len(questions) == 16 and "Goneril" not in {q.character for q in questions}
    [rejected] = [q for q in questions if q.state is QuestionState.REJECTED]
    assert verify_warning.startswith(f"{rejected.id}: ") and rejected.character == "Fool"
    first, rerun = tree_bytes(tmp_path / "first"), tree_bytes(tmp_path / "rerun")
    assert first.keys() == rerun.keys()
    assert [name for name in first if first[name] != rerun[name]] == []


def test_a_regeneration_reply_without_the_rejected_dimension_leaves_the_question_rejected(
    monkeypatch, tmp_path, caplog, live_config
):
    """The fixture's one regeneration replaces the Fool's rejected desire question. A reply that holds
    only a Belief block cannot replace it: verify leaves the question rejected with its verdict, warns
    once and exits 0. The reply is cached, so a rerun sends no request, warns the same and writes the
    same bytes."""
    script = ReplayScript.load(DATA / "replay.jsonl")
    sent = []

    def transport(url, payload, headers):
        [message] = payload["messages"]
        sent.append(message["content"])
        answer = _scripted_answer(script, payload)
        if "was rejected during review" in message["content"]:
            [choice] = answer["choices"]
            text = choice["message"]["content"]
            assert "Desire Multiple Choice Question" in text
            choice["message"]["content"] = text.replace("Desire Multiple", "Belief Multiple")
        return 200, answer, {}

    fake_backend(monkeypatch, transport)
    monkeypatch.setenv("TOMTRACE_API_TOKEN", "test-token")
    runs = []
    for out in (tmp_path / "first", tmp_path / "rerun"):
        if runs:
            shutil.copytree(tmp_path / "first" / "cache", out / "cache")
        run_cli(out, "ingest", "extract", "build-kg", "genqa", config=live_config)
        sent.clear()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="tomtrace.qagen"):
            run_cli(out, "verify", config=live_config)
        runs.append((len(sent), [r.getMessage() for r in caplog.records if r.name == "tomtrace.qagen"]))
    (first_sent, warnings), (rerun_sent, rerun_warnings) = runs
    assert first_sent > 0 and rerun_sent == 0
    [rejected] = [q for q in load_questions(tmp_path / "first" / "questions.jsonl") if q.state is QuestionState.REJECTED]
    assert (rejected.character, rejected.dimension.label, rejected.attempt) == ("Fool", "Desire", 1)
    assert warnings == rerun_warnings == [
        f"{rejected.id}: regeneration reply unusable: regeneration response has no Desire question block, "
        "left rejected"
    ]
    verdicts = [json.loads(line) for line in (tmp_path / "first" / "verdicts.jsonl").read_text().splitlines()]
    assert [v["passed"] for v in verdicts if v["question_id"] == rejected.id] == [False]
    first, rerun = tree_bytes(tmp_path / "first"), tree_bytes(tmp_path / "rerun")
    assert first.keys() == rerun.keys()
    assert [name for name in first if first[name] != rerun[name]] == []


def _ready_for_eval(pipeline_out: Path, out: Path) -> Path:
    """A copy of the fixture pipeline's tree without eval's outputs."""
    shutil.copytree(pipeline_out, out)
    (out / "predictions.jsonl").unlink()
    (out / "report.txt").unlink()
    return out


@pytest.mark.parametrize("failure", ["unset-token", "refused"])
def test_eval_backend_failure_exits_two_and_writes_no_predictions(pipeline_out, tmp_path, monkeypatch, failure):
    out = _ready_for_eval(pipeline_out, tmp_path / "out")
    config = _write_config(tmp_path, endpoint=_refused_url())
    if failure == "unset-token":
        monkeypatch.delenv("TOMTRACE_API_TOKEN", raising=False)
    else:
        monkeypatch.setenv("TOMTRACE_API_TOKEN", "test-token")
    [result] = run_cli(out, "eval", config=config, expect=2)
    reason = "TOMTRACE_API_TOKEN not set" if failure == "unset-token" else "retries exhausted: transport"
    assert result.stderr.startswith("backend error: ") and reason in result.stderr
    assert not (out / "predictions.jsonl").exists() and not (out / "report.txt").exists()


def test_eval_rerun_sends_only_the_unanswered_requests(pipeline_out, tmp_path, monkeypatch):
    """After eval fails part-way, a rerun resends nothing answered and writes an uninterrupted run's bytes."""
    script = ReplayScript.load(DATA / "replay.jsonl")
    fail_from = {"n": None}

    def answer(handler, n, payload):
        if fail_from["n"] is not None and n >= fail_from["n"]:
            send_reply(handler, 503, {"error": {"message": "overloaded"}})
        else:
            send_reply(handler, 200, _scripted_answer(script, payload))

    whole = _ready_for_eval(pipeline_out, tmp_path / "whole")
    resumed = _ready_for_eval(pipeline_out, tmp_path / "resumed")
    monkeypatch.setenv("TOMTRACE_API_TOKEN", "test-token")
    with http_backend(answer) as server:
        config = _write_config(tmp_path, endpoint=server.url)
        run_cli(whole, "eval", config=config)
        whole_requests = len(server.requests)
        fail_from["n"] = whole_requests + 10  # ten answers, then 503s
        [aborted] = run_cli(resumed, "eval", config=config, expect=2)
        assert aborted.stderr.startswith("backend error: retries exhausted: HTTP 503")
        assert not (resumed / "predictions.jsonl").exists()
        answered = [payload for _, payload in server.requests[whole_requests:fail_from["n"]]]
        fail_from["n"] = None
        rerun_from = len(server.requests)
        run_cli(resumed, "eval", config=config)
        rerun = [payload for _, payload in server.requests[rerun_from:]]
    assert len(rerun) == whole_requests - len(answered)
    assert not [payload for payload in rerun if payload in answered]
    whole_bytes, resumed_bytes = tree_bytes(whole), tree_bytes(resumed)
    assert whole_bytes.keys() == resumed_bytes.keys()
    assert [name for name in whole_bytes if whole_bytes[name] != resumed_bytes[name]] == []


# The entry point with a live transport that answers after a random 0-5 ms delay: every
# verification fails, the Fool's extractions cannot be parsed, and the rest comes from the
# replay script named by the first argument. So diagnostics arise on chains that finish out of order.
DELAYED_ENTRY_POINT = """\
import random, sys, threading, time
from tomtrace import llmgate
from tomtrace.cli import main

script = llmgate.ReplayScript.load(sys.argv.pop(1))
rng, lock = random.Random(4), threading.Lock()


def transport(url, payload, headers):
    with lock:
        delay = rng.uniform(0.0, 0.005)
    time.sleep(delay)
    [message] = payload["messages"]
    prompt = message["content"]
    if prompt.startswith("You are reviewing"):
        text = '{"verdict": "fail", "notes": "ambiguous"}'
    elif "# Target Character: Fool\\n" in prompt:
        text = "no triples"
    else:
        text = script.lookup(llmgate.user_request(payload["model"], prompt, max_output_tokens=payload["max_tokens"]))
    return 200, {"choices": [{"message": {"content": text}}]}, {}


llmgate._Route.send = lambda route, payload, headers: transport(route.url, payload, headers)
sys.exit(main())
"""


def test_diagnostics_are_logged_in_input_order_at_any_max_in_flight(tmp_path, monkeypatch):
    """extract's and verify's records come out on the calling thread, so their stderr does not depend on timing."""
    monkeypatch.setenv("TOMTRACE_API_TOKEN", "test-token")
    stderr = {}
    for in_flight in (1, 4):
        (tmp_path / str(in_flight)).mkdir()
        config = _write_config(
            tmp_path / str(in_flight), backend={"max_in_flight": in_flight}, verification={"max_attempts": 1}
        )

        def stage(*args: str) -> str:
            result = run_entry_point(
                str(DATA / "replay.jsonl"), "-c", str(config), "--out", str(tmp_path / str(in_flight) / "out"),
                *args, code=DELAYED_ENTRY_POINT,
            )
            assert result.returncode == 0, result.stderr
            return result.stderr

        stage("ingest")
        stderr[in_flight] = stage("--verbose", "extract"), stage("build-kg"), stage("genqa"), stage("verify")
        assert stage("verify") == ""  # every question was verified before, so none is warned of again
    assert stderr[4] == stderr[1]
    extract, verify = stderr[1][0].splitlines(), stderr[1][3].splitlines()
    assert sum("kept triple with violations" in line for line in extract) > 1
    assert sum("no triple entries found" in line for line in extract) == 1
    assert len(verify) == 20 and all(line.endswith(": attempts exhausted, left rejected") for line in verify)
