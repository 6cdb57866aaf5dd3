from __future__ import annotations

import base64
import gc
import io
import json
import logging
import os
import re
import signal
import subprocess
import sys
import socket
import threading
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from conftest import TLS_CERT, fake_backend, http_backend, http_proxy, replace, send_reply
import tomtrace
from tomtrace import llmgate
from tomtrace.config import BackendSection
from tomtrace.errors import (
    AuthMissing,
    RateLimitedExhausted,
    ScriptMiss,
    TransportError,
)
from tomtrace.llmgate import (
    ChatRequest,
    ChatResponse,
    Gateway,
    RateLimiter,
    ReplayScript,
    ResponseCache,
    estimate_tokens,
    user_request,
)

BACKEND = BackendSection(name="test-backend", endpoint="https://example.invalid/v1", auth_env_var="TT_TOKEN")


def test_estimate_tokens_ceil():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2


def test_request_digest_stable_and_sensitive():
    a = user_request("m", "hello")
    b = user_request("m", "hello")
    c = user_request("m", "hello!")
    assert a.digest == b.digest
    assert a.digest != c.digest
    assert a.digest != user_request("m", "hello", max_output_tokens=7).digest


# Digests computed by earlier releases: a change to them orphans every cached answer.
@pytest.mark.parametrize("budget, digest", [
    (2048, "d6e7ad7e83ae5cffdfc6d3e34f6bd97c94418a9b8e335dd0afa929afe6d2175e"),  # extraction and eval
    (3072, "c4c8bb48f802d84814a8306a080d278b6689b09b94f2e5046ded048170932974"),  # question generation
    (512, "39973e0332fa4160d9b8eff8ab3d2c3e117ddf353234d624e7528e86b2b8e166"),  # verification
    (1024, "33aa8c8013ea4ebf4ffbf21675ab1dfb8c5994e982dd68672b11b3611f52c7b1"),  # regeneration
])
def test_request_digest_is_pinned(budget, digest):
    assert user_request("replay-gpt", "hello", max_output_tokens=budget).digest == digest


def test_cache_key_is_pinned():
    """Computed by earlier releases: a changed key turns every existing cache into misses."""
    digest = user_request("replay-gpt", "hello").digest
    assert ResponseCache.key_for(digest, BACKEND) == "d77493328d06a57ee4064fed471496ceb5e51ef033a3e0d6fc1f6d84be9f5367"


def test_request_is_frozen_and_validated():
    with pytest.raises(ValueError):
        ChatRequest(model_id="", text="x")
    with pytest.raises(ValueError):
        user_request("m", "x", max_output_tokens=0)


# --- replay ----------------------------------------------------------------------

def _write_script(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(json.dumps(e) + "\n")
    return path


def test_replay_digest_beats_patterns(tmp_path):
    req = user_request("m", "the prompt")
    script = _write_script(tmp_path / "s.jsonl", [
        {"prompt_pattern": "prompt", "response_text": "pattern"},
        {"digest": req.digest, "response_text": "exact"},
    ])
    replay = ReplayScript.load(script)
    assert replay.lookup(req) == "exact"


def test_replay_patterns_in_file_order(tmp_path):
    script = _write_script(tmp_path / "s.jsonl", [
        {"prompt_pattern": "specific prompt", "response_text": "first"},
        {"prompt_pattern": "prompt", "response_text": "second"},
    ])
    replay = ReplayScript.load(script)
    assert replay.lookup(user_request("m", "a specific prompt here")) == "first"
    assert replay.lookup(user_request("m", "another prompt")) == "second"


def test_replay_duplicate_digest_rejected(tmp_path):
    script = _write_script(tmp_path / "s.jsonl", [
        {"digest": "d1", "response_text": "a"},
        {"digest": "d1", "response_text": "b"},
    ])
    with pytest.raises(ValueError):
        ReplayScript.load(script)


def test_replay_miss_policies(tmp_path):
    script = _write_script(tmp_path / "s.jsonl", [{"prompt_pattern": "nope", "response_text": "x"}])
    strict = ReplayScript.load(script)
    with pytest.raises(ScriptMiss):
        strict.lookup(user_request("m", "unmatched"))
    lenient = ReplayScript.load(script, default_policy="fixed", default_text="fallback")
    assert lenient.lookup(user_request("m", "unmatched")) == "fallback"


# --- cache -----------------------------------------------------------------------

def test_cache_round_trip_and_no_token_leak(tmp_path, monkeypatch):
    monkeypatch.setenv("TT_TOKEN", "secret-token-value")
    cache = ResponseCache(tmp_path)
    req = user_request("m", "cache me")

    def transport(url, payload, headers):
        return 200, {"choices": [{"message": {"content": "live answer"}}],
                     "usage": {"prompt_tokens": 3, "completion_tokens": 2}}, {}

    fake_backend(monkeypatch, transport)
    first = Gateway(BACKEND).complete(req)
    cache.put(req, BACKEND, first, req.digest)
    hit = cache.get(req.digest, BACKEND)
    cache.close()
    assert hit is not None and hit.text == "live answer"
    # the stored entry must never contain the auth token
    log = tmp_path / "responses.jsonl"
    assert log.is_file() and "secret-token-value" not in log.read_text()


def test_cache_entry_with_the_former_error_field_is_still_a_hit(tmp_path):
    """Entries once stored `"error": null` in the response body; those caches stay warm."""
    cache = ResponseCache(tmp_path)
    req = user_request("m", "old entry")
    body = {"text": "kept", "prompt_tokens": 2, "output_tokens": 1, "backend_id": BACKEND.name, "error": None}
    entry = {
        "request": {"digest": req.digest, "model_id": "m"},
        "response": body,
        "integrity": llmgate.sha256_text(llmgate.canonical_json(body)),
    }
    key = cache.key_for(req.digest, BACKEND)
    (tmp_path / "responses.jsonl").write_text(f"{key} {json.dumps(entry)}\n", encoding="utf-8")
    hit = cache.get(req.digest, BACKEND)
    assert hit is not None and hit.text == "kept"
    fresh = user_request("m", "new entry")
    cache.put(fresh, BACKEND, _answer("new"), fresh.digest)
    cache.close()
    last = (tmp_path / "responses.jsonl").read_text(encoding="utf-8").splitlines()[-1]
    assert "error" not in json.loads(last.split(" ", 1)[1])["response"]


def test_cache_corrupt_entry_is_miss(tmp_path, caplog):
    cache = ResponseCache(tmp_path)
    req = user_request("m", "x")

    key = cache.key_for(req.digest, BACKEND)
    (tmp_path / "responses.jsonl").write_text(f"{key} {{not json\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        assert cache.get(req.digest, BACKEND) is None
    cache.close()
    assert any("corrupt" in r.message for r in caplog.records)


def test_cache_integrity_check(tmp_path):
    cache = ResponseCache(tmp_path)
    req = user_request("m", "x")
    script = ReplayScript.load(_write_script(tmp_path / "s.jsonl", [{"prompt_pattern": ".", "response_text": "ok"}]))
    resp = Gateway(BACKEND, replay=script).complete(req)
    cache.put(req, BACKEND, resp, req.digest)
    log = tmp_path / "responses.jsonl"
    key, raw = log.read_text().rstrip("\n").split(" ", 1)
    entry = json.loads(raw)
    entry["response"]["text"] = "tampered"
    log.write_text(f"{key} {json.dumps(entry)}\n")
    assert cache.get(req.digest, BACKEND) is None
    cache.close()


# --- rate limiting ------------------------------------------------------------------

def test_rate_limiter_sliding_window():
    clock = {"t": 0.0}
    sleeps = []

    def fake_time():
        return clock["t"]

    def fake_sleep(s):
        sleeps.append(s)
        clock["t"] += s

    limiter = RateLimiter(2, time_fn=fake_time, sleep_fn=fake_sleep)
    limiter.acquire()
    limiter.acquire()
    limiter.acquire()  # must wait for the first slot to expire
    assert sleeps and abs(sum(sleeps) - 60.0) < 1.0


# --- retries ------------------------------------------------------------------------

def _flaky_transport(failures, status=429):
    calls = {"n": 0}

    def transport(url, payload, headers):
        calls["n"] += 1
        if calls["n"] <= failures:
            return status, {}, {}
        return 200, {"choices": [{"message": {"content": "ok"}}],
                     "usage": {"prompt_tokens": 1, "completion_tokens": 1}}, {}

    return transport, calls


def test_retry_then_success(monkeypatch):
    monkeypatch.setenv("TT_TOKEN", "t")
    transport, calls = _flaky_transport(2)
    sleeps = []
    backend = replace(BACKEND, retry_max_attempts=3, retry_base_backoff_s=0.5)
    fake_backend(monkeypatch, transport)
    resp = Gateway(backend, sleep_fn=sleeps.append).complete(user_request("m", "x"))
    assert resp.text == "ok" and calls["n"] == 3
    assert sleeps == [0.5, 1.0]  # exponential backoff


def test_rate_limit_exhaustion(monkeypatch):
    monkeypatch.setenv("TT_TOKEN", "t")
    transport, _ = _flaky_transport(99, status=429)
    backend = replace(BACKEND, retry_max_attempts=2, retry_base_backoff_s=0)
    fake_backend(monkeypatch, transport)
    with pytest.raises(RateLimitedExhausted):
        Gateway(backend, sleep_fn=lambda s: None).complete(user_request("m", "x"))


def test_server_error_exhaustion_is_transport_error(monkeypatch):
    monkeypatch.setenv("TT_TOKEN", "t")
    transport, _ = _flaky_transport(99, status=503)
    backend = replace(BACKEND, retry_max_attempts=2, retry_base_backoff_s=0)
    fake_backend(monkeypatch, transport)
    with pytest.raises(TransportError):
        Gateway(backend, sleep_fn=lambda s: None).complete(user_request("m", "x"))


def _replying(*replies):
    """A transport answering each call with the next of `replies`, each (status, body, headers)."""
    answers = iter(replies)
    return lambda url, payload, headers: next(answers)


OK = (200, {"choices": [{"message": {"content": "ok"}}]}, {})


@pytest.mark.parametrize("status", [429, 503])
@pytest.mark.parametrize(
    "retry_after, slept",
    [
        ("7", 7.0),
        ("0", 0.5),
        ("Fri, 01 Jan 2100 00:00:00 GMT", llmgate.MAX_BACKOFF_S),
        ("Sun, 06 Nov 1994 08:49:37 GMT", 0.5),
        ("soon", 0.5),
        ("-3", 0.5),
    ],
    ids=["seconds", "zero", "far-future-date", "past-date", "bogus", "negative"],
)
def test_retry_after_lengthens_the_backoff_up_to_the_cap(monkeypatch, status, retry_after, slept):
    monkeypatch.setenv("TT_TOKEN", "t")
    sleeps = []
    backend = replace(BACKEND, retry_max_attempts=2, retry_base_backoff_s=0.5)
    transport = _replying((status, {}, {"retry-after": retry_after}), OK)
    fake_backend(monkeypatch, transport)
    assert Gateway(backend, sleep_fn=sleeps.append).complete(user_request("m", "x")).text == "ok"
    assert sleeps == [slept]


def test_retry_after_holds_for_one_retry_and_only_after_429_or_503(monkeypatch):
    monkeypatch.setenv("TT_TOKEN", "t")
    sleeps = []
    backend = replace(BACKEND, retry_max_attempts=4, retry_base_backoff_s=0.5)
    transport = _replying((429, {}, {"retry-after": "9"}), (500, {}, {"retry-after": "9"}), (503, {}, {}), OK)
    fake_backend(monkeypatch, transport)
    assert Gateway(backend, sleep_fn=sleeps.append).complete(user_request("m", "x")).text == "ok"
    assert sleeps == [9.0, 1.0, 2.0]


def test_client_error_fails_fast(monkeypatch):
    monkeypatch.setenv("TT_TOKEN", "t")
    calls = {"n": 0}

    def transport(url, payload, headers):
        calls["n"] += 1
        return 400, {"error": "bad request"}, {}

    fake_backend(monkeypatch, transport)
    with pytest.raises(TransportError):
        Gateway(BACKEND, sleep_fn=lambda s: None).complete(user_request("m", "x"))
    assert calls["n"] == 1


@pytest.mark.parametrize("content", ["", None, 42], ids=["empty", "null", "number"])
def test_empty_or_non_text_completion_is_a_transport_error_and_not_cached(tmp_path, monkeypatch, content):
    monkeypatch.setenv("TT_TOKEN", "t")

    def transport(url, payload, headers):
        return 200, {"choices": [{"message": {"content": content}}]}, {}

    fake_backend(monkeypatch, transport)
    gw = Gateway(BACKEND, cache=ResponseCache(tmp_path))
    with pytest.raises(TransportError, match="empty or not text"):
        gw.complete(user_request("m", "x"))
    with pytest.raises(TransportError, match="empty or not text"):
        gw.submit_batch([user_request("m", "a"), user_request("m", "b")])
    assert not (tmp_path / "responses.jsonl").exists()


def test_auth_missing(monkeypatch):
    monkeypatch.delenv("TT_TOKEN", raising=False)
    with pytest.raises(AuthMissing):
        Gateway(BACKEND).complete(user_request("m", "x"))


def test_auth_read_at_call_time(monkeypatch):
    """The token is read from the environment per call, never stored."""
    monkeypatch.setenv("TT_TOKEN", "tok-123")
    seen = {}

    def transport(url, payload, headers):
        seen["auth"] = headers["Authorization"]
        return 200, {"choices": [{"message": {"content": "ok"}}]}, {}

    fake_backend(monkeypatch, transport)
    Gateway(BACKEND).complete(user_request("m", "x"))
    assert seen["auth"] == "Bearer tok-123"


# --- gateway ---------------------------------------------------------------------------

def test_gateway_batch_raises_the_first_failure(tmp_path):
    script = ReplayScript.load(
        _write_script(tmp_path / "s.jsonl", [{"prompt_pattern": "good", "response_text": "fine"}])
    )
    gw = Gateway(BACKEND, replay=script)
    results = gw.submit_batch([user_request("m", "a good prompt"), user_request("m", "good too")])
    assert [r.text for r in results] == ["fine", "fine"]
    with pytest.raises(ScriptMiss):
        gw.submit_batch([user_request("m", "a good prompt"), user_request("m", "no match")])


def _live_transport(answer, delay_s=0.0):
    calls = {"n": 0}
    lock = threading.Lock()

    def transport(url, payload, headers):
        with lock:
            calls["n"] += 1
        time.sleep(delay_s)
        return 200, {"choices": [{"message": {"content": answer}}]}, {}

    return transport, calls


def test_gateway_run_returns_results_in_input_order():
    gw = Gateway(replace(BACKEND, max_in_flight=4))

    def slow_square(n):
        time.sleep(0.001 * (5 - n))
        return n * n

    assert gw.run(slow_square, range(5)) == [0, 1, 4, 9, 16]
    assert gw.run(slow_square, []) == []


def test_gateway_run_bounds_concurrency_by_max_in_flight():
    gw = Gateway(replace(BACKEND, max_in_flight=3))
    lock = threading.Lock()
    barrier = threading.Barrier(3)  # breaks unless three items run at once
    state = {"now": 0, "peak": 0}

    def work(_):
        with lock:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
        barrier.wait(timeout=10)
        with lock:
            state["now"] -= 1

    gw.run(work, range(6))
    assert state["peak"] == 3


def test_gateway_run_raises_the_first_failing_item_in_input_order():
    gw = Gateway(replace(BACKEND, max_in_flight=8))

    def work(n):
        if n == 2:
            time.sleep(0.02)  # fails last in time, first in input order
            raise TransportError("item 2")
        if n == 4:
            raise ScriptMiss("item 4")
        return n

    with pytest.raises(TransportError, match="item 2"):
        gw.run(work, range(5))


def test_gateway_run_starts_no_item_after_one_has_failed():
    gw = Gateway(replace(BACKEND, max_in_flight=1))
    calls, raised = [], threading.Event()

    def work(n):
        calls.append(n)
        raised.set()
        raise TransportError(f"item {n}")

    def items():  # item 1 is ready once item 0 has failed, and the one worker could draw it
        yield 0
        raised.wait(timeout=10)
        yield 1
        time.sleep(0.05)
        yield 2

    with pytest.raises(TransportError, match="item 0"):
        gw.run(work, items())
    assert calls == [0]


def test_gateway_run_draws_at_most_a_window_of_items_before_the_first_result():
    gw = Gateway(replace(BACKEND, max_in_flight=2))
    window = 2  # max_in_flight
    drawn, at_first_return, release = [], [], threading.Event()

    def items():
        for n in range(10 * window):
            drawn.append(n)
            yield n

    def work(n):
        release.wait(timeout=10)
        if not at_first_return:
            at_first_return.append(len(drawn))
        return n

    timer = threading.Timer(0.2, release.set)  # the runner draws all it may long before this
    timer.start()
    try:
        assert gw.run(work, items()) == list(range(10 * window))
    finally:
        timer.cancel()
        timer.join(timeout=10)
    assert at_first_return[0] <= window
    assert len(drawn) == 10 * window


def test_gateway_run_draws_no_item_after_one_has_failed_and_seals_the_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("TT_TOKEN", "t")
    transport, _ = _live_transport("answer")
    cache = ResponseCache(tmp_path)
    seals = []
    real_seal = cache.seal
    monkeypatch.setattr(cache, "seal", lambda: seals.append(real_seal()))
    fake_backend(monkeypatch, transport)
    gw = Gateway(replace(BACKEND, max_in_flight=1), cache=cache)
    drawn, raised = [], threading.Event()

    def ask(n):
        if n == 1:
            raised.set()
            raise TransportError("item 1")
        return gw.complete(user_request("m", f"prompt {n}"))

    def items():
        for n in range(100):
            if n == 2:  # asked for before item 1 fails; handed over after it has failed
                raised.wait(timeout=10)
                time.sleep(0.05)
            drawn.append(n)
            yield n

    with pytest.raises(TransportError, match="item 1"):
        gw.run(ask, items())
    assert drawn in ([0, 1], [0, 1, 2])
    assert seals == [None]
    assert len(cache.path.read_bytes().splitlines()) == 1


@pytest.mark.parametrize("max_in_flight", [1, 2, 4])
def test_gateway_run_keeps_input_order_while_drawing_a_bounded_window(max_in_flight):
    gw = Gateway(replace(BACKEND, max_in_flight=max_in_flight))
    count = 80 * max_in_flight
    lock = threading.Lock()
    drawn, finished, open_at_draw = [], set(), []

    def items():
        for n in range(count):
            with lock:
                drawn.append(n)
                open_at_draw.append(len(drawn) - len(finished))  # drawn and unfinished, this one included
            yield n

    def work(n):
        time.sleep(0.0001 * (n % 7))
        with lock:
            finished.add(n)
        return n * n

    assert gw.run(work, items()) == [n * n for n in range(count)]
    assert len(drawn) == count
    assert max(open_at_draw) <= max_in_flight


def test_gateway_run_calls_fn_once_per_item_under_contention():
    """Stress: 16 workers share the items and the results, the interpreter switching threads as often as it can."""
    gw = Gateway(replace(BACKEND, max_in_flight=16))
    calls = [0] * 3000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(n):
            calls[n] += 1
            return n * n

        results = gw.run(work, iter(range(3000)))
    finally:
        sys.setswitchinterval(interval)
    assert results == [n * n for n in range(3000)]
    assert calls == [1] * 3000


def test_gateway_run_raises_what_the_items_raise_once_the_drawn_items_finish(tmp_path, monkeypatch):
    monkeypatch.setenv("TT_TOKEN", "t")
    transport, calls = _live_transport("answer", delay_s=0.01)
    cache = ResponseCache(tmp_path)
    seals = []
    real_seal = cache.seal
    monkeypatch.setattr(cache, "seal", lambda: seals.append(real_seal()))
    fake_backend(monkeypatch, transport)
    gw = Gateway(replace(BACKEND, max_in_flight=4), cache=cache)
    finished = []

    def ask(n):
        response = gw.complete(user_request("m", f"prompt {n}"))
        finished.append(n)
        return response

    def items():
        yield from range(3)
        raise ValueError("the source broke")

    threads = threading.enumerate()
    with pytest.raises(ValueError, match="the source broke"):
        gw.run(ask, items())
    assert threading.enumerate() == threads
    assert sorted(finished) == [0, 1, 2] and calls["n"] == 3
    assert seals == [None]
    assert len(cache.path.read_bytes().splitlines()) == 3


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs a signal sent to the main thread")
def test_gateway_run_stops_drawing_joins_and_seals_after_an_interrupt(tmp_path, monkeypatch):
    cache = ResponseCache(tmp_path)
    seals = []
    real_seal = cache.seal
    monkeypatch.setattr(cache, "seal", lambda: seals.append(real_seal()))
    gw = Gateway(replace(BACKEND, max_in_flight=2), cache=cache)
    drawn = []

    def items():
        for n in range(1000):
            drawn.append(n)
            yield n

    def work(n):
        if n == 20:  # Ctrl-C while the main thread waits for the workers, long after it started them
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        time.sleep(0.001)
        return n

    threads = threading.enumerate()
    with pytest.raises(KeyboardInterrupt):
        gw.run(work, items())
    assert threading.enumerate() == threads
    assert len(drawn) < 500
    assert seals == [None]


def test_gateway_cache_single_flight_per_key(tmp_path, monkeypatch):
    """Stress: 16 workers, 20 prompts asked 10 times each, one backend call per prompt."""
    monkeypatch.setenv("TT_TOKEN", "t")
    transport, calls = _live_transport("shared", delay_s=0.001)
    fake_backend(monkeypatch, transport)
    gw = Gateway(replace(BACKEND, max_in_flight=16), cache=ResponseCache(tmp_path))
    prompts = [user_request("m", f"prompt {n % 20}") for n in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        responses = gw.run(gw.complete, prompts)
    finally:
        sys.setswitchinterval(interval)
    assert calls["n"] == 20
    assert [r.text for r in responses] == ["shared"] * 200
    assert gw._in_flight == {}


def test_gateway_computes_the_request_digest_once_per_call(tmp_path, monkeypatch):
    monkeypatch.setenv("TT_TOKEN", "t")
    transport, calls = _live_transport("answer")
    fake_backend(monkeypatch, transport)
    gw = Gateway(BACKEND, cache=ResponseCache(tmp_path / "gateway"))
    req = user_request("m", "digest me")
    digest = ChatRequest.digest
    evaluations = []
    counted = property(lambda self: evaluations.append(1) or digest.fget(self))
    with monkeypatch.context() as patch:
        patch.setattr(ChatRequest, "digest", counted)
        fresh = gw.complete(req)  # miss: cache read, request, cache write
        assert gw.complete(req).text == fresh.text  # hit: cache read only
    gw.cache.close()
    assert len(evaluations) == 2 and calls["n"] == 1
    # The entry has the layout and bytes of a direct put.
    plain = ResponseCache(tmp_path / "plain")
    plain.put(req, BACKEND, fresh, req.digest)
    plain.close()
    assert [p.name for p in (tmp_path / "gateway").iterdir()] == ["responses.jsonl"]
    assert (tmp_path / "gateway" / "responses.jsonl").read_bytes() == (tmp_path / "plain" / "responses.jsonl").read_bytes()


def test_replay_neither_reads_nor_writes_the_cache(tmp_path):
    script = ReplayScript.load(
        _write_script(tmp_path / "s.jsonl", [{"prompt_pattern": "prompt", "response_text": "scripted"}])
    )
    cache = ResponseCache(tmp_path / "cache")
    req = user_request("m", "a prompt")
    cache.put(req, BACKEND, _answer("stale"), req.digest)
    before = sorted(p.name for p in (tmp_path / "cache").rglob("*"))
    gw = Gateway(BACKEND, replay=script, cache=cache)
    assert gw.complete(req).text == "scripted"
    assert gw.complete(user_request("m", "another prompt")).text == "scripted"
    cache.close()
    assert sorted(p.name for p in (tmp_path / "cache").rglob("*")) == before


def test_cache_put_never_leaves_a_partial_entry(tmp_path, monkeypatch):
    cache = ResponseCache(tmp_path)
    req = user_request("m", "x")
    resp = ChatResponse(text="answer", prompt_tokens=1, output_tokens=1, backend_id="b")

    class Killed(io.FileIO):
        """A log whose writer dies halfway through its first line."""

        def write(self, data):
            super().write(data[: len(data) // 2])
            raise KeyboardInterrupt

    monkeypatch.setattr(llmgate, "open", lambda path, mode: Killed(path, mode), raising=False)
    with pytest.raises(KeyboardInterrupt):
        cache.put(req, BACKEND, resp, req.digest)
    monkeypatch.undo()
    assert cache.get(req.digest, BACKEND) is None
    cache.put(req, BACKEND, resp, req.digest)
    assert cache.get(req.digest, BACKEND).text == "answer"
    cache.seal()
    assert [p.name for p in tmp_path.iterdir()] == ["responses.jsonl"]
    assert len((tmp_path / "responses.jsonl").read_bytes().splitlines()) == 1


def _answer(text: str) -> ChatResponse:
    return ChatResponse(text=text, prompt_tokens=1, output_tokens=1, backend_id="b")


def test_cache_torn_last_line_is_a_miss_and_the_next_put_starts_a_line(tmp_path, caplog):
    """The torn line of a writer killed mid-append is ended when a cache next opens the log to append."""
    before, torn, after = (user_request("m", name) for name in ("before", "torn", "after"))
    other = ResponseCache(tmp_path / "other")
    other.put(torn, BACKEND, _answer("lost"), torn.digest)
    other.close()
    torn_line = other.path.read_bytes()
    cache = ResponseCache(tmp_path / "cache")
    cache.put(before, BACKEND, _answer("kept"), before.digest)
    cache.close()
    with open(cache.path, "ab") as log:  # a writer killed mid-append
        log.write(torn_line[: len(torn_line) // 2])
    torn_log = cache.path.read_bytes()
    cache.put(after, BACKEND, _answer("appended"), after.digest)
    cache.close()
    assert cache.path.read_bytes().startswith(torn_log + b"\n")

    fresh = ResponseCache(tmp_path / "cache")
    assert fresh.get(before.digest, BACKEND).text == "kept"
    assert fresh.get(after.digest, BACKEND).text == "appended"
    with caplog.at_level(logging.WARNING):
        assert fresh.get(torn.digest, BACKEND) is None
    fresh.close()
    assert any("corrupt" in r.message for r in caplog.records)


def test_cache_keeps_one_append_handle_and_one_read_handle_until_sealed(tmp_path, monkeypatch):
    opened = []
    real_open = open
    monkeypatch.setattr(llmgate, "open", lambda path, mode: opened.append(mode) or real_open(path, mode), raising=False)
    cache = ResponseCache(tmp_path)
    requests = [user_request("m", f"prompt {n}") for n in range(5)]
    for n, req in enumerate(requests):
        cache.put(req, BACKEND, _answer(f"answer {n}"), req.digest)
        assert cache.get(req.digest, BACKEND).text == f"answer {n}"
    assert opened == ["a+b", "rb"]
    cache.seal()  # closes both, then reads the log once to rewrite it
    assert opened == ["a+b", "rb", "rb"]
    assert [cache.get(req.digest, BACKEND).text for req in requests] == [f"answer {n}" for n in range(5)]
    assert opened == ["a+b", "rb", "rb", "rb"]
    cache.close()


def test_cache_never_answers_for_another_key(tmp_path):
    """A reader whose offsets went stale, because another instance sealed, rescans."""
    requests = [user_request("m", f"prompt {n}") for n in range(8)]
    writer = ResponseCache(tmp_path)
    for n, req in enumerate(requests):
        writer.put(req, BACKEND, _answer(f"answer {n}"), req.digest)
    reader = ResponseCache(tmp_path)
    assert reader.get(requests[0].digest, BACKEND).text == "answer 0"  # builds the reader's index
    unsealed = writer.path.read_bytes()
    writer.seal()
    assert writer.path.read_bytes() != unsealed  # the lines moved
    for n, req in enumerate(requests):
        assert reader.get(req.digest, BACKEND).text == f"answer {n}"
    # The reader's own put lands in the sealed log, at an offset its read handle on the old log
    # does not hold: the get rescans the log once and finds it.
    late = user_request("m", "late")
    reader.put(late, BACKEND, _answer("late answer"), late.digest)
    assert reader.get(late.digest, BACKEND).text == "late answer"
    reader.close()
    assert ResponseCache.key_for(late.digest, BACKEND).encode() in writer.path.read_bytes()

    # A line under the right key whose entry answers another request is a miss.
    key = ResponseCache.key_for(requests[0].digest, BACKEND)
    other = next(line for line in writer.path.read_text().splitlines() if not line.startswith(key))
    forged = ResponseCache(tmp_path / "forged")
    forged.root.mkdir()
    forged.path.write_text(f"{key} {other.split(' ', 1)[1]}\n")
    assert forged.get(requests[0].digest, BACKEND) is None
    forged.close()


def test_sealed_cache_bytes_do_not_depend_on_put_order_or_repeats(tmp_path):
    one, two, three = (user_request("m", name) for name in ("one", "two", "three"))
    in_order = ResponseCache(tmp_path / "in-order")
    for req, text in ((one, "new"), (two, "2"), (three, "3")):
        in_order.put(req, BACKEND, _answer(text), req.digest)
    shuffled = ResponseCache(tmp_path / "shuffled")
    for req, text in ((three, "3"), (one, "old"), (two, "2"), (one, "new")):
        shuffled.put(req, BACKEND, _answer(text), req.digest)
    in_order.seal()
    shuffled.seal()
    assert shuffled.path.read_bytes() == in_order.path.read_bytes()
    keys = [line.split(b" ", 1)[0] for line in shuffled.path.read_bytes().splitlines()]
    assert keys == sorted(set(keys)) and len(keys) == 3
    assert shuffled.get(one.digest, BACKEND).text == "new"  # the last line for a key wins
    shuffled.close()
    fresh = ResponseCache(tmp_path / "shuffled")
    assert fresh.get(one.digest, BACKEND).text == "new"
    fresh.close()


def test_gateway_run_seals_the_cache_when_an_item_raises(tmp_path, monkeypatch):
    monkeypatch.setenv("TT_TOKEN", "t")
    transport, _ = _live_transport("answer")
    cache = ResponseCache(tmp_path)
    fake_backend(monkeypatch, transport)
    gw = Gateway(replace(BACKEND, max_in_flight=1), cache=cache)
    prompts = sorted((user_request("m", f"prompt {n}") for n in range(6)),
                     key=lambda req: cache.key_for(req.digest, BACKEND), reverse=True)

    def ask(req):
        if req is prompts[-1]:
            raise TransportError("backend gone")
        return gw.complete(req)

    with pytest.raises(TransportError):
        gw.run(ask, prompts)
    keys = [line.split(b" ", 1)[0].decode() for line in cache.path.read_bytes().splitlines()]
    assert keys == sorted(cache.key_for(req.digest, BACKEND) for req in prompts[:-1])
    assert [p.name for p in tmp_path.iterdir()] == ["responses.jsonl"]


def test_importing_the_cli_does_not_import_requests():
    code = "import sys, tomtrace.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(llmgate.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"


def test_importing_the_cli_imports_no_http_client():
    code = "import sys, tomtrace.cli; print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(llmgate.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


# --- HTTP transport over a real socket -------------------------------------------------

ANSWER = {"choices": [{"message": {"role": "assistant", "content": "live answer"}}],
          "usage": {"prompt_tokens": 7, "completion_tokens": 3}}


@pytest.fixture()
def no_resource_warnings():
    """Fails the test if a socket or response was left for the collector to close."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def _live(url: str, attempts: int = 3) -> BackendSection:
    return replace(BACKEND, endpoint=url, retry_max_attempts=attempts, retry_base_backoff_s=0)


def _call(url: str, request: ChatRequest | None = None, attempts: int = 3) -> ChatResponse:
    return Gateway(_live(url, attempts), sleep_fn=lambda s: None).complete(request or user_request("m", "hello"))


def _replies(*replies):
    """Answer the n-th request with replies[n]; the last one repeats."""

    def answer(handler, n, payload):
        send_reply(handler, *replies[min(n, len(replies) - 1)])

    return answer


def test_http_request_carries_headers_and_payload(monkeypatch, no_resource_warnings):
    monkeypatch.setenv("TT_TOKEN", "tok-http")
    request = user_request("m", "héllo")
    with http_backend(_replies((200, ANSWER))) as server:
        response = _call(server.url, request)
    assert (response.text, response.prompt_tokens, response.output_tokens) == ("live answer", 7, 3)
    [(headers, payload)] = server.requests
    assert headers["Authorization"] == "Bearer tok-http"
    assert headers["Content-Type"] == "application/json"
    assert payload == {
        "model": "m",
        "messages": [{"role": "user", "content": "héllo"}],
        "temperature": 0.0,
        "max_tokens": 2048,
    }


def test_http_answer_without_usage_falls_back_to_estimates(monkeypatch, no_resource_warnings):
    monkeypatch.setenv("TT_TOKEN", "t")
    request = user_request("m", "a prompt of some length")
    with http_backend(_replies((200, {"choices": [{"message": {"content": "five!"}}]}))) as server:
        response = _call(server.url, request)
    assert response.text == "five!"
    assert response.prompt_tokens == estimate_tokens(request.prompt_text())
    assert response.output_tokens == estimate_tokens("five!")


@pytest.mark.parametrize("status, exhausted", [(429, RateLimitedExhausted), (503, TransportError)])
def test_http_transient_status_is_retried_then_exhausted(monkeypatch, no_resource_warnings, status, exhausted):
    monkeypatch.setenv("TT_TOKEN", "t")
    error = (status, {"error": {"message": "try later"}})
    with http_backend(_replies(error, (200, ANSWER))) as server:
        assert _call(server.url).text == "live answer"
    assert len(server.requests) == 2
    with http_backend(_replies(error)) as server:
        with pytest.raises(exhausted, match=f"HTTP {status}"):
            _call(server.url)
    assert len(server.requests) == 3


def test_http_non_json_answer_cannot_be_extracted(monkeypatch, no_resource_warnings):
    monkeypatch.setenv("TT_TOKEN", "t")
    with http_backend(_replies((200, b"<html>gateway page</html>"))) as server:
        with pytest.raises(TransportError, match="cannot extract"):
            _call(server.url)
    assert len(server.requests) == 1


def test_http_transport_returns_error_status_and_text_body(no_resource_warnings):
    with http_backend(_replies((400, b"bad request"))) as server:
        assert llmgate._Route(server.url).send({"x": 1}, {})[:2] == (400, "bad request")


def test_http_client_error_fails_fast(monkeypatch, no_resource_warnings):
    monkeypatch.setenv("TT_TOKEN", "t")
    with http_backend(_replies((400, {"error": {"message": "bad request"}}))) as server:
        with pytest.raises(TransportError, match="HTTP 400"):
            _call(server.url)
    assert len(server.requests) == 1


def _refused_url() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/v1/chat"


@pytest.mark.parametrize("url", [_refused_url, lambda: "", lambda: "http://"], ids=["refused", "empty", "no-host"])
def test_http_unreachable_endpoint_is_a_transport_error(monkeypatch, no_resource_warnings, url):
    monkeypatch.setenv("TT_TOKEN", "t")
    with pytest.raises(TransportError, match="retries exhausted: transport"):
        _call(url())


def test_http_truncated_body_is_retried_then_a_transport_error(monkeypatch, no_resource_warnings):
    monkeypatch.setenv("TT_TOKEN", "t")
    data = json.dumps(ANSWER).encode("utf-8")

    def cut_short(handler, n, payload):
        send_reply(handler, 200, data[:-10], length=len(data))

    with http_backend(cut_short) as server:
        with pytest.raises(TransportError, match="retries exhausted: transport"):
            _call(server.url)
    assert len(server.requests) == 3


def test_http_read_timeout_is_retried_then_a_transport_error(monkeypatch, no_resource_warnings):
    monkeypatch.setenv("TT_TOKEN", "t")
    monkeypatch.setattr(llmgate, "HTTP_TIMEOUT_S", 0.2)

    def stall(handler, n, payload):
        handler.server.release.wait(timeout=10)

    start = time.monotonic()
    with http_backend(stall) as server:
        with pytest.raises(TransportError, match="retries exhausted: transport.*timed out"):
            _call(server.url, attempts=2)
    assert len(server.requests) == 2
    assert time.monotonic() - start < 5


def test_http_retry_after_reaches_the_gateway(monkeypatch, no_resource_warnings):
    monkeypatch.setenv("TT_TOKEN", "t")

    def busy_then_answer(handler, n, payload):
        if n == 0:
            handler.send_response(503)
            handler.send_header("Retry-After", "3")
            handler.send_header("Content-Length", "0")
            handler.end_headers()
        else:
            send_reply(handler, 200, ANSWER)

    sleeps = []
    with http_backend(busy_then_answer) as server:
        gateway = Gateway(_live(server.url), sleep_fn=sleeps.append)
        assert gateway.complete(user_request("m", "hello")).text == "live answer"
    assert sleeps == [3.0]


def test_http_redirect_is_not_followed(monkeypatch, no_resource_warnings):
    """A 302 is the backend's answer: the token never goes to the host `Location` names."""
    monkeypatch.setenv("TT_TOKEN", "secret-token")
    with http_backend(_replies((200, ANSWER))) as elsewhere:

        def redirect(handler, n, payload):
            handler.send_response(302)
            handler.send_header("Location", elsewhere.url)
            handler.send_header("Content-Length", "0")
            handler.end_headers()

        with http_backend(redirect) as server:
            with pytest.raises(TransportError, match="HTTP 302"):
                _call(server.url)
    assert len(server.requests) == 1
    assert elsewhere.requests == []


# --- HTTP/1.1 framing of a reply -----------------------------------------------------------

def _raw(*chunks: bytes):
    """Answer every request by writing `chunks` as they are, then closing the connection."""

    def answer(handler, n, payload):
        for chunk in chunks:
            handler.wfile.write(chunk)

    return answer


BODY = json.dumps(ANSWER).encode("utf-8")


@pytest.mark.parametrize(
    "reply",
    [
        [b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\nX-Extra: a\r\nx-extra: b\r\n\r\n" % len(BODY), BODY],
        [b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nX-Extra: a, b\r\n\r\n",
         b"%x;ext=1\r\n%s\r\n" % (10, BODY[:10]), b"%x\r\n%s\r\n" % (len(BODY) - 10, BODY[10:]),
         b"0\r\nTrailer-Field: t\r\n\r\n"],
        [b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: </x>\r\n\r\n",
         b"HTTP/1.1 200 OK\r\nX-Extra: a, b\r\n\r\n", BODY],
        [b"HTTP/1.0 200\nX-Extra:a, b\n\n", BODY],
    ],
    ids=["content-length", "chunked", "interim-then-to-eof", "bare-lf-no-reason"],
)
def test_http_transport_frames_the_reply(reply, no_resource_warnings):
    with http_backend(_raw(*reply)) as server:
        status, body, headers = llmgate._Route(server.url).send({"x": 1}, {})
    assert (status, body, headers["x-extra"]) == (200, ANSWER, "a, b")


def test_http_transport_sends_one_http11_request(no_resource_warnings):
    with http_backend(_replies((204, b""))) as server:
        assert llmgate._Route(server.url).send({"x": "é"}, {"Authorization": "Bearer t"})[:2] == (204, "")
    [(headers, payload)] = server.requests
    assert payload == {"x": "é"}
    assert headers["Host"] == server.url.split("/")[2]
    assert (headers["Accept-Encoding"], headers["Connection"], headers["Authorization"]) == ("identity", "close", "Bearer t")
    assert headers["User-Agent"] == f"tomtrace/{tomtrace.__version__}"


@pytest.mark.parametrize(
    "reply, message",
    [
        ([b"HTTP/1.1 2OO OK\r\n\r\n"], "malformed status line"),
        ([b"<html>hello</html>\r\n"], "malformed status line"),
        ([b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n"], "malformed header line"),
        ([b"HTTP/1.1 200 OK\r\n folded: x\r\n\r\n"], "malformed header line"),
        ([b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n"], "malformed Content-Length"),
        ([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"], "malformed chunk size"),
        ([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x5\r\nhello\r\n0\r\n\r\n"], "malformed chunk size"),
        ([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel"], "cut short"),
        ([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n"], "cut short"),
        ([b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n"], "cut short"),
        ([b""], "cut short"),
        ([b"HTTP/1.1 200 OK\r\n", b"X: y\r\n" * 101, b"\r\n"], "more than 100 header fields"),
    ],
    ids=["status-code", "not-http", "header", "folded-header", "content-length", "chunk-size",
         "chunk-size-prefix", "chunk-data", "last-chunk", "head", "empty", "too-many-headers"],
)
def test_http_transport_raises_connection_error_for_a_malformed_or_short_reply(reply, message, no_resource_warnings):
    with http_backend(_raw(*reply)) as server:
        with pytest.raises(ConnectionError, match=message):
            llmgate._Route(server.url).send({"x": 1}, {})


@pytest.mark.parametrize(
    "url", ["ftp://127.0.0.1/v1", "http://127.0.0.1:port/v1", "http://127.0.0.1/a b"], ids=["scheme", "port", "space"]
)
def test_http_transport_rejects_a_malformed_endpoint(url, no_resource_warnings):
    with pytest.raises(ConnectionError):
        llmgate._Route(url).send({}, {})


def test_http_transport_rejects_a_header_that_would_split_the_request(no_resource_warnings):
    with http_backend(_replies((200, ANSWER))) as server:
        with pytest.raises(ConnectionError, match="control character"):
            llmgate._Route(server.url).send({}, {"Authorization": "Bearer t\r\nX-Injected: 1"})
    assert server.requests == []


def test_posting_loads_no_urllib_http_client_email_or_ssl(no_resource_warnings):
    """A stage process that posts to a plain-HTTP backend without a proxy loads none of them."""
    code = (
        "import sys, tomtrace.cli; from tomtrace import llmgate; "
        "status, body, headers = llmgate._Route(sys.argv[1]).send({'x': 1}, {}); "
        "print(status, body, sorted({'urllib.request', 'http.client', 'email', 'ssl'} & set(sys.modules)))"
    )
    env = {name: value for name, value in os.environ.items() if not name.lower().endswith("_proxy")}
    env["PYTHONPATH"] = str(Path(llmgate.__file__).parents[1])
    with http_backend(_replies((200, {"ok": 1}))) as server:
        result = subprocess.run(
            [sys.executable, "-c", code, server.url], capture_output=True, text=True, env=env, timeout=60
        )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "200 {'ok': 1} []"


# --- TLS and proxies ------------------------------------------------------------------------

@pytest.fixture()
def proxy_env(monkeypatch):
    """The caller's `*_proxy` variables and TLS trust settings removed; the test sets its own."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy") or name in ("SSL_CERT_FILE", "SSL_CERT_DIR"):
            monkeypatch.delenv(name)
    monkeypatch.setenv("TT_TOKEN", "t")
    return monkeypatch


def test_https_needs_a_trusted_certificate_for_the_host(proxy_env, no_resource_warnings):
    with http_backend(_replies((200, ANSWER)), tls=True) as server:
        with pytest.raises(TransportError, match="retries exhausted: transport"):
            _call(server.url, attempts=1)
        proxy_env.setenv("SSL_CERT_FILE", str(TLS_CERT))
        assert _call(server.url).text == "live answer"
    assert len(server.requests) == 1


def test_https_builds_one_tls_context_per_trust_setting(proxy_env, no_resource_warnings):
    import ssl

    builds = []
    build = ssl.create_default_context
    proxy_env.setattr(ssl, "create_default_context", lambda: builds.append(1) or build())
    proxy_env.setattr(llmgate, "_TLS_CONTEXTS", {})
    proxy_env.setenv("SSL_CERT_FILE", str(TLS_CERT))
    with http_backend(_replies((200, ANSWER)), tls=True) as server:
        for _ in range(3):
            assert _call(server.url).text == "live answer"
        assert len(builds) == 1
        proxy_env.setenv("SSL_CERT_DIR", str(TLS_CERT.parent))
        assert _call(server.url).text == "live answer"
    assert len(builds) == 2
    assert len(server.requests) == 4


def test_concurrent_requests_build_one_tls_context(monkeypatch):
    """Stress: 8 threads ask for the context at once; one is built and all share it."""
    import ssl

    builds = []

    def build():
        builds.append(1)
        time.sleep(0.001)  # a real build takes tens of milliseconds
        return object()

    monkeypatch.setattr(ssl, "create_default_context", build)
    monkeypatch.setattr(llmgate, "_TLS_CONTEXTS", {})
    got = []
    start = threading.Barrier(8)

    def ask():
        start.wait(timeout=10)
        got.extend(llmgate._tls_context() for _ in range(50))

    threads = [threading.Thread(target=ask) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert len(got) == 400 and len({id(c) for c in got}) == 1


def test_https_refuses_a_trusted_certificate_for_another_host(proxy_env, no_resource_warnings):
    proxy_env.setenv("SSL_CERT_FILE", str(TLS_CERT))
    with http_backend(_replies((200, ANSWER)), tls=True, host="127.0.0.2") as server:
        with pytest.raises(TransportError, match="retries exhausted: transport"):
            _call(server.url, attempts=1)
    assert server.requests == []


def test_http_proxy_gets_the_absolute_url_and_its_credentials(proxy_env, no_resource_warnings):
    with http_backend(_replies((200, ANSWER))) as server, http_proxy() as proxy:
        proxy_env.setenv("HTTP_PROXY", proxy.url.replace("//", "//user:p%40ss@"))
        assert _call(server.url).text == "live answer"
    [(method, target, headers)] = proxy.requests
    assert (method, target) == ("POST", server.url)
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()
    [(headers, _)] = server.requests
    assert headers["Authorization"] == "Bearer t"


def test_no_proxy_bypasses_the_proxy(proxy_env, no_resource_warnings):
    with http_backend(_replies((200, ANSWER))) as server, http_proxy() as proxy:
        proxy_env.setenv("HTTP_PROXY", proxy.url)
        proxy_env.setenv("NO_PROXY", "127.0.0.1")
        assert _call(server.url).text == "live answer"
    assert proxy.requests == []
    assert len(server.requests) == 1


def test_https_proxy_tunnels_with_connect(proxy_env, no_resource_warnings):
    proxy_env.setenv("SSL_CERT_FILE", str(TLS_CERT))
    with http_backend(_replies((200, ANSWER)), tls=True) as server, http_proxy() as proxy:
        proxy_env.setenv("HTTPS_PROXY", proxy.url.replace("//", "//user:pw@"))
        assert _call(server.url).text == "live answer"
    [(method, target, headers)] = proxy.requests
    assert (method, target) == ("CONNECT", server.url.split("/")[2])
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()
    [(headers, _)] = server.requests
    assert "Proxy-Authorization" not in headers and headers["Authorization"] == "Bearer t"


# --- a Gateway's route ----------------------------------------------------------------------

def test_a_gateway_resolves_its_route_once_for_all_its_requests(proxy_env, no_resource_warnings):
    """Four workers, twelve requests: one host lookup and one proxy check, on the first request."""
    lookups, proxy_checks = [], []
    getaddrinfo, proxy_for = socket.getaddrinfo, llmgate._proxy_for
    proxy_env.setattr(socket, "getaddrinfo", lambda *args: lookups.append(args[:2]) or getaddrinfo(*args))
    proxy_env.setattr(llmgate, "_proxy_for", lambda *args: proxy_checks.append(args) or proxy_for(*args))
    with http_backend(_replies((200, ANSWER))) as server:
        gateway = Gateway(replace(_live(server.url), max_in_flight=4), sleep_fn=lambda s: None)
        requests = [user_request("m", f"prompt {n}") for n in range(12)]
        assert [r.text for r in gateway.run(gateway.complete, requests)] == ["live answer"] * 12
    port = server.server_address[1]
    assert len(server.requests) == 12
    assert lookups == [("127.0.0.1", port)]
    assert proxy_checks == [("http", f"127.0.0.1:{port}")]


def test_a_refused_connect_makes_the_next_attempt_look_the_host_up_again(proxy_env, no_resource_warnings):
    refused_port = urlsplit(_refused_url()).port
    lookups = []
    getaddrinfo = socket.getaddrinfo

    def lookup(host, port, *rest):
        lookups.append(port)
        return getaddrinfo(host, refused_port if len(lookups) == 1 else port, *rest)  # the first answer is stale

    proxy_env.setattr(socket, "getaddrinfo", lookup)
    with http_backend(_replies((200, ANSWER))) as server:
        gateway = Gateway(_live(server.url), sleep_fn=lambda s: None)
        assert gateway.complete(user_request("m", "one")).text == "live answer"
        assert gateway.complete(user_request("m", "two")).text == "live answer"
    port = server.server_address[1]
    assert lookups == [port, port]  # the refused attempt's, then the one both requests used
    assert len(server.requests) == 2


def test_a_gateway_reads_the_proxy_settings_when_it_first_sends(proxy_env, no_resource_warnings):
    with http_backend(_replies((200, ANSWER))) as server, http_proxy() as proxy:

        def send(gateway: Gateway) -> None:
            assert gateway.complete(user_request("m", "hello")).text == "live answer"

        direct = Gateway(_live(server.url), sleep_fn=lambda s: None)
        send(direct)
        proxy_env.setenv("HTTP_PROXY", proxy.url)
        send(direct)
        assert proxy.requests == []
        proxied = Gateway(_live(server.url), sleep_fn=lambda s: None)
        send(proxied)
        proxy_env.setenv("NO_PROXY", "127.0.0.1")
        send(proxied)
        assert len(proxy.requests) == 2
        send(Gateway(_live(server.url), sleep_fn=lambda s: None))
        assert len(proxy.requests) == 2
    assert len(server.requests) == 5


@contextmanager
def _raw_server(reply: bytes):
    """A server on 127.0.0.1 that keeps the bytes of each request (head and Content-Length body), answers `reply` and closes.

    Yields (port, requests).
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    requests, stop = [], threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(10)
                requests.append(_read_request(conn))
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1], requests
    finally:
        stop.set()
        thread.join(timeout=10)
        listener.close()
        assert not thread.is_alive()


def _read_request(conn: socket.socket) -> bytes:
    """One request's bytes: its head, then as many body bytes as its Content-Length names."""
    data = b""
    while True:
        head, blank, body = data.partition(b"\r\n\r\n")
        if blank:
            length = re.search(rb"\r\ncontent-length: *(\d+)", head, re.IGNORECASE)
            if len(body) >= (int(length[1]) if length else 0):
                return data
        chunk = conn.recv(65536)
        if not chunk:
            return data
        data += chunk


BODY_BYTES = (
    b'{"model": "m", "messages": [{"role": "user", "content": "h\\u00e9llo"}], "temperature": 0.0, "max_tokens": 2048}'
)


def test_the_request_bytes_on_the_wire_are_pinned(proxy_env, no_resource_warnings):
    """A direct POST, a POST through a forwarding proxy, and the CONNECT of a tunnel, byte for byte."""
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(BODY), BODY)
    with _raw_server(reply) as (port, requests):
        assert _call(f"http://127.0.0.1:{port}/v1/chat?x=1", user_request("m", "héllo")).text == "live answer"
    assert requests == [
        b"POST /v1/chat?x=1 HTTP/1.1\r\n"
        b"Host: 127.0.0.1:%d\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: 111\r\n"
        b"Accept-Encoding: identity\r\n"
        b"Connection: close\r\n"
        b"User-Agent: tomtrace/0.1.0\r\n"
        b"Authorization: Bearer t\r\n"
        b"\r\n" % port + BODY_BYTES
    ]

    with _raw_server(reply) as (port, requests):
        proxy_env.setenv("HTTP_PROXY", f"http://user:pw@127.0.0.1:{port}")
        assert _call("http://backend.invalid:8080/v1/chat", user_request("m", "héllo")).text == "live answer"
    assert requests == [
        b"POST http://backend.invalid:8080/v1/chat HTTP/1.1\r\n"
        b"Host: backend.invalid:8080\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: 111\r\n"
        b"Accept-Encoding: identity\r\n"
        b"Connection: close\r\n"
        b"User-Agent: tomtrace/0.1.0\r\n"
        b"Authorization: Bearer t\r\n"
        b"Proxy-Authorization: Basic dXNlcjpwdw==\r\n"
        b"\r\n" + BODY_BYTES
    ]

    with _raw_server(b"HTTP/1.1 403 Forbidden\r\nContent-Length: 0\r\n\r\n") as (port, requests):
        proxy_env.setenv("HTTPS_PROXY", f"http://user:pw@127.0.0.1:{port}")
        with pytest.raises(TransportError, match="CONNECT with HTTP 403"):
            _call("https://backend.invalid/v1/chat", attempts=1)
    assert requests == [
        b"CONNECT backend.invalid:443 HTTP/1.1\r\n"
        b"Host: backend.invalid:443\r\n"
        b"Proxy-Authorization: Basic dXNlcjpwdw==\r\n"
        b"\r\n"
    ]
