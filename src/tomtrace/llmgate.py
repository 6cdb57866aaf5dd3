"""Chat-backend gateway: digested requests, replay scripts, caching, limits.

Every request has a stable content digest, which keys both the replay script
used in tests and the on-disk response cache. Auth material is read from the
environment at call time and never serialized into logs or cache entries.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Mapping, TypeVar

from .errors import (
    AuthMissing,
    GatewayError,
    RateLimitedExhausted,
    ScriptMiss,
    TransportError,
)
from .util import canonical_json, read_jsonl, sha256_text

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

_ROLES = ("system", "user", "assistant")


def estimate_tokens(text: str) -> int:
    """Character-count heuristic: one token per four characters, rounded up."""
    return math.ceil(len(text) / 4)


@dataclass(frozen=True)
class ChatRequest:
    model_id: str
    messages: tuple[tuple[str, str], ...]
    temperature: float = 0.0
    max_output_tokens: int = 2048
    seed: int | None = None

    def __post_init__(self):
        if not self.model_id:
            raise ValueError("model_id must be non-empty")
        if not self.messages:
            raise ValueError("at least one message required")
        for role, _ in self.messages:
            if role not in _ROLES:
                raise ValueError(f"unknown role {role!r}")
        if not any(role == "user" for role, _ in self.messages):
            raise ValueError("at least one user message required")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature out of range [0, 2]")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be positive")

    @property
    def digest(self) -> str:
        payload = {
            "model_id": self.model_id,
            "messages": [[role, text] for role, text in self.messages],
            "temperature": self.temperature,
            "max_output_tokens": self.max_output_tokens,
            "seed": self.seed,
        }
        return sha256_text(canonical_json(payload))

    def prompt_text(self) -> str:
        return "\n\n".join(text for _, text in self.messages)


def user_request(model_id: str, text: str, **kwargs) -> ChatRequest:
    """Convenience builder for a single-user-message request."""
    return ChatRequest(model_id=model_id, messages=(("user", text),), **kwargs)


@dataclass
class ChatResponse:
    text: str
    prompt_tokens: int
    output_tokens: int
    backend_id: str
    cached: bool = False
    error: str | None = None

    def __post_init__(self):
        # Empty text is only legal when an error record explains it.
        if not self.text and self.error is None:
            raise ValueError("empty response text without an error record")


@dataclass
class RetryPolicy:
    max_attempts: int = 3
    base_backoff_s: float = 0.5


@dataclass
class BackendConfig:
    name: str
    endpoint: str
    auth_env_var: str
    max_in_flight: int = 4
    requests_per_minute: int = 60
    retry: RetryPolicy = field(default_factory=RetryPolicy)


# --- replay -----------------------------------------------------------------

@dataclass
class ReplayEntry:
    response_text: str
    digest: str | None = None
    prompt_pattern: str | None = None


class ReplayScript:
    """Scripted responses keyed by request digest or prompt regex.

    Digest entries match exactly; pattern entries are tried in file order
    against the request's prompt text. `default_policy` decides what a miss
    does: "error" raises ScriptMiss, "fixed" returns `default_text`.
    """

    def __init__(
        self,
        entries: list[ReplayEntry],
        default_policy: str = "error",
        default_text: str = "",
    ) -> None:
        if default_policy not in ("error", "fixed"):
            raise ValueError(f"unknown replay policy {default_policy!r}")
        self.default_policy = default_policy
        self.default_text = default_text
        self._by_digest: dict[str, str] = {}
        self._patterns: list[tuple[re.Pattern, str]] = []
        for entry in entries:
            if entry.digest:
                if entry.digest in self._by_digest:
                    raise ValueError(f"duplicate digest in replay script: {entry.digest}")
                self._by_digest[entry.digest] = entry.response_text
            elif entry.prompt_pattern:
                self._patterns.append((re.compile(entry.prompt_pattern), entry.response_text))
            else:
                raise ValueError("replay entry needs a digest or a prompt_pattern")

    @classmethod
    def load(
        cls,
        path: Path | str,
        default_policy: str = "error",
        default_text: str = "",
    ) -> "ReplayScript":
        entries = [
            ReplayEntry(
                response_text=rec["response_text"],
                digest=rec.get("digest"),
                prompt_pattern=rec.get("prompt_pattern"),
            )
            for rec in read_jsonl(path)
        ]
        return cls(entries, default_policy=default_policy, default_text=default_text)

    def lookup(self, request: ChatRequest) -> str:
        hit = self._by_digest.get(request.digest)
        if hit is not None:
            return hit
        prompt = request.prompt_text()
        for pattern, text in self._patterns:
            if pattern.search(prompt):
                return text
        if self.default_policy == "fixed":
            return self.default_text
        raise ScriptMiss(f"no replay entry for digest {request.digest[:12]}…")


# --- cache --------------------------------------------------------------------

class ResponseCache:
    """Content-addressed response log, `responses.jsonl` under the cache directory.

    Each line is `<key> <entry JSON>`. The key covers the request digest and
    the backend name, so the same prompt against two backends never collides.
    `put` appends a line; `get` reads the line that an index of key -> byte
    offset names (built by one scan on first use; the last line for a key
    wins). `seal` rewrites the log sorted by key, one line per key, so its
    bytes do not depend on the order of the puts. Corrupt lines, such as the
    torn last line of a killed writer, are misses with a warning.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.path = self.root / "responses.jsonl"
        self._lock = threading.Lock()
        self._index: dict[str, int] | None = None
        self._unsealed = False

    @staticmethod
    def key_for(request: ChatRequest, backend: BackendConfig, digest: str | None = None) -> str:
        """The entry key; pass `digest` when the caller already has `request.digest`."""
        return sha256_text(f"{digest or request.digest}:{backend.name}")

    def get(
        self, request: ChatRequest, backend: BackendConfig, digest: str | None = None
    ) -> ChatResponse | None:
        digest = digest or request.digest
        key = self.key_for(request, backend, digest)
        try:
            with self._lock:
                entry = self._entry(key, digest)
            if entry is None:
                return None
            body = entry["response"]
            if entry["integrity"] != sha256_text(canonical_json(body)):
                raise ValueError("integrity hash mismatch")
            return ChatResponse(
                text=body["text"],
                prompt_tokens=body["prompt_tokens"],
                output_tokens=body["output_tokens"],
                backend_id=body["backend_id"],
                cached=True,
                error=body.get("error"),
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            logger.warning("corrupt cache entry %s in %s treated as miss: %s", key, self.path, exc)
            return None

    def _entry(self, key: str, digest: str) -> dict | None:
        """The entry logged under `key`, or None. Call with the lock held.

        When the line at the indexed offset belongs to another request,
        another process has sealed the log since the index was built: the
        log is scanned once more, and a second mismatch is a miss.
        """
        prefix = f"{key} ".encode()
        for rescan in (False, True):
            if rescan or self._index is None:
                self._index = self._scan()
            offset = self._index.get(key)
            if offset is None:
                return None
            try:
                with open(self.path, "rb") as fh:
                    fh.seek(offset)
                    line = fh.readline()
            except FileNotFoundError:
                line = b""
            if line.startswith(prefix):
                entry = json.loads(line[len(prefix):])
                if entry["request"]["digest"] == digest:
                    return entry
        return None

    def _scan(self) -> dict[str, int]:
        try:
            with open(self.path, "rb") as log:
                return self._offsets(log)
        except FileNotFoundError:
            return {}

    @staticmethod
    def _offsets(log: BinaryIO) -> dict[str, int]:
        """Key -> byte offset of its last line in `log`; offsets only, never the lines."""
        index: dict[str, int] = {}
        offset = 0
        for line in log:
            index[line.split(b" ", 1)[0].decode("ascii", "replace")] = offset
            offset += len(line)
        return index

    def put(
        self,
        request: ChatRequest,
        backend: BackendConfig,
        response: ChatResponse,
        digest: str | None = None,
    ) -> None:
        digest = digest or request.digest
        key = self.key_for(request, backend, digest)
        body = {
            "text": response.text,
            "prompt_tokens": response.prompt_tokens,
            "output_tokens": response.output_tokens,
            "backend_id": response.backend_id,
            "error": response.error,
        }
        entry = {
            "request": {"digest": digest, "model_id": request.model_id},
            "response": body,
            "integrity": sha256_text(canonical_json(body)),
        }
        line = f"{key} {json.dumps(entry, ensure_ascii=False, separators=(',', ':'))}\n".encode("utf-8")
        with self._lock:
            try:
                log = open(self.path, "a+b")
            except FileNotFoundError:
                self.root.mkdir(parents=True, exist_ok=True)
                log = open(self.path, "a+b")
            with log:
                end = log.seek(0, os.SEEK_END)
                if end:
                    log.seek(end - 1)
                    if log.read(1) != b"\n":
                        log.write(b"\n")  # a killed writer's torn line stays a line of its own
                log.write(line)
                log.flush()
                offset = log.tell() - len(line)
            if self._index is not None:
                self._index[key] = offset
            self._unsealed = True

    def seal(self) -> None:
        """Rewrite the log sorted by key, one line per key; the last line for a key wins.

        Runs only if this cache appended since its last seal. The rewrite goes
        through a temporary file and a rename, so a reader sees the old log
        or the new one.
        """
        with self._lock:
            if not self._unsealed:
                return
            self._index = None  # the old offsets die here, so one index is alive at a time
            partial = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
            offset = 0
            with open(self.path, "rb") as log, open(partial, "wb") as out:
                index = self._offsets(log)
                for key in sorted(index):
                    log.seek(index[key])
                    line = log.readline()
                    if not line.endswith(b"\n"):
                        line += b"\n"
                    out.write(line)
                    index[key] = offset
                    offset += len(line)
            os.replace(partial, self.path)
            self._index = index
            self._unsealed = False


# --- rate limiting -------------------------------------------------------------

class RateLimiter:
    """Sliding-window limiter: at most `per_minute` acquisitions per 60s."""

    def __init__(
        self,
        per_minute: int,
        time_fn: Callable[[], float] = time.monotonic,
        sleep_fn: Callable[[float], None] = time.sleep,
    ) -> None:
        self.per_minute = per_minute
        self._time = time_fn
        self._sleep = sleep_fn
        self._issued: deque[float] = deque()
        self._lock = threading.Lock()

    def acquire(self) -> float:
        """Block until a slot is free; returns the issue timestamp."""
        while True:
            with self._lock:
                now = self._time()
                while self._issued and self._issued[0] <= now - 60.0:
                    self._issued.popleft()
                if len(self._issued) < self.per_minute:
                    self._issued.append(now)
                    return now
                wait = self._issued[0] + 60.0 - now
            self._sleep(max(wait, 0.001))


# --- transport and completion ---------------------------------------------------

# Seconds a backend request may wait to connect or between received bytes.
HTTP_TIMEOUT_S = 120

# Dotted paths into the provider response body.
TEXT_PATH = "choices.0.message.content"
PROMPT_TOKENS_PATH = "usage.prompt_tokens"
OUTPUT_TOKENS_PATH = "usage.completion_tokens"


def _http_transport(url: str, payload: dict, headers: dict) -> tuple[int, object]:
    """POST `payload` as JSON; returns (status, parsed JSON body or its text).

    An HTTP error status is returned like a success, so retries stay in
    complete(). A request that gets no whole response (refused, timed out,
    cut short, malformed endpoint) raises ConnectionError. Proxies come from
    HTTP(S)_PROXY/NO_PROXY and TLS is verified against the system store.
    """
    # Imported here, not at module level: replayed and cache-served runs
    # send no request, and these imports would add to every stage's start-up.
    import http.client
    import urllib.error
    import urllib.request

    try:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={**headers, "Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as resp:
                status, raw = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            with exc:
                status, raw = exc.code, exc.read()
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise ConnectionError(str(exc)) from exc
    try:
        return status, json.loads(raw)
    except ValueError:
        return status, raw.decode("utf-8", errors="replace")


def _dig(body: object, dotted: str):
    cur = body
    for part in dotted.split("."):
        if isinstance(cur, list):
            cur = cur[int(part)]
        elif isinstance(cur, dict):
            cur = cur[part]
        else:
            raise KeyError(dotted)
    return cur


def complete(
    request: ChatRequest,
    backend: BackendConfig,
    *,
    replay: ReplayScript | None = None,
    transport: Callable | None = None,
    limiter: RateLimiter | None = None,
    sleep_fn: Callable[[float], None] = time.sleep,
) -> ChatResponse:
    """Run one request against the replay script or the live backend."""
    if replay is not None:
        text = replay.lookup(request)
        return ChatResponse(
            text=text,
            prompt_tokens=estimate_tokens(request.prompt_text()),
            output_tokens=estimate_tokens(text),
            backend_id=backend.name,
        )

    token = os.environ.get(backend.auth_env_var, "")
    if not token:
        raise AuthMissing(f"environment variable {backend.auth_env_var} not set")
    transport = transport or _http_transport
    payload = {
        "model": request.model_id,
        "messages": [{"role": role, "content": text} for role, text in request.messages],
        "temperature": request.temperature,
        "max_tokens": request.max_output_tokens,
    }
    if request.seed is not None:
        payload["seed"] = request.seed
    headers = {"Authorization": f"Bearer {token}"}

    attempts = max(1, backend.retry.max_attempts)
    last_failure = ""
    rate_limited = False
    for attempt in range(attempts):
        if attempt:
            sleep_fn(backend.retry.base_backoff_s * (2 ** (attempt - 1)))
        if limiter is not None:
            limiter.acquire()
        try:
            status, body = transport(backend.endpoint, payload, headers)
        except ConnectionError as exc:
            last_failure = f"transport: {exc}"
            continue
        if status == 429 or status >= 500:
            rate_limited = status == 429
            last_failure = f"HTTP {status}"
            continue
        if status != 200:
            raise TransportError(f"HTTP {status}: {str(body)[:200]}")
        try:
            text = str(_dig(body, TEXT_PATH))
        except (KeyError, IndexError, ValueError) as exc:
            raise TransportError(f"cannot extract response text: {exc}") from exc
        try:
            prompt_tokens = int(_dig(body, PROMPT_TOKENS_PATH))
        except (KeyError, IndexError, ValueError, TypeError):
            prompt_tokens = estimate_tokens(request.prompt_text())
        try:
            output_tokens = int(_dig(body, OUTPUT_TOKENS_PATH))
        except (KeyError, IndexError, ValueError, TypeError):
            output_tokens = estimate_tokens(text)
        return ChatResponse(
            text=text,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            backend_id=backend.name,
        )
    if rate_limited:
        raise RateLimitedExhausted(f"retries exhausted: {last_failure}")
    raise TransportError(f"retries exhausted: {last_failure}")


class Gateway:
    """Bounded-parallel, rate-limited front end over one backend.

    Wraps complete() with the replay script or a read-through response cache,
    and shares limiter state so that callers running on `run` cannot exceed
    `max_in_flight` or `requests_per_minute`.
    """

    def __init__(
        self,
        backend: BackendConfig,
        *,
        replay: ReplayScript | None = None,
        cache: ResponseCache | None = None,
        transport: Callable | None = None,
        time_fn: Callable[[], float] = time.monotonic,
        sleep_fn: Callable[[float], None] = time.sleep,
    ) -> None:
        self.backend = backend
        self.replay = replay
        self.cache = cache
        self._transport = transport
        self._sleep = sleep_fn
        self._limiter = RateLimiter(backend.requests_per_minute, time_fn, sleep_fn)
        self._in_flight: dict[ChatRequest, threading.Lock] = {}
        self._in_flight_guard = threading.Lock()

    def complete(self, request: ChatRequest) -> ChatResponse:
        # A replay script is already in memory and deterministic; its answers
        # must neither come from nor go to the cache a live backend reads.
        if self.replay is not None:
            return complete(request, self.backend, replay=self.replay)
        if self.cache is None:
            return self._request(request)
        # Single flight: a call for a request already in flight waits for its
        # cache entry instead of sending it again.
        with self._in_flight_guard:
            lock = self._in_flight.setdefault(request, threading.Lock())
        with lock:
            try:
                digest = request.digest  # once per call: it hashes the whole prompt
                response = self.cache.get(request, self.backend, digest)
                if response is None:
                    response = self._request(request)
                    self.cache.put(request, self.backend, response, digest)
                return response
            finally:
                with self._in_flight_guard:
                    if self._in_flight.get(request) is lock:
                        del self._in_flight[request]

    def _request(self, request: ChatRequest) -> ChatResponse:
        return complete(
            request,
            self.backend,
            transport=self._transport,
            limiter=self._limiter,
            sleep_fn=self._sleep,
        )

    def run(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """fn over items on `max_in_flight` threads; results in input order.

        Results are read in input order, so a failure raises the exception of
        the first failing item, as a serial loop would; items not yet started
        are then cancelled. The cache is sealed at the end, also after a
        failure, so its bytes do not depend on the order the items finished.
        """
        pool = ThreadPoolExecutor(max_workers=max(1, self.backend.max_in_flight))
        try:
            futures = [pool.submit(fn, item) for item in items]
            return [future.result() for future in futures]
        finally:
            pool.shutdown(cancel_futures=True)
            if self.cache is not None:
                self.cache.seal()

    def submit_batch(self, requests_by_key: Mapping[object, ChatRequest]) -> dict:
        """Run independent requests concurrently; failures come back per key."""

        def attempt(request: ChatRequest):
            try:
                return self.complete(request)
            except GatewayError as exc:
                return exc

        return dict(zip(requests_by_key, self.run(attempt, requests_by_key.values())))
