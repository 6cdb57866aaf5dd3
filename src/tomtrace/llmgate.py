"""Chat-backend gateway: the one way a model request reaches a backend.

Stages build requests with `user_request` and send them through a `Gateway`,
which holds the config's `backend:` settings (`config.BackendSection`).
`Gateway.complete` answers from a replay script when one is loaded, else from
a read-through response cache in front of `Gateway._request`, which sends the
request with retries, backoff and the rate limiter. Every request has a
stable content digest, which keys the replay script, the cache and the
in-flight table. Auth material is read from the environment at call time and
never serialized into logs or cache entries. An empty completion is a backend
failure and is never cached.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, Mapping, TypeVar
from urllib.parse import unquote, urlsplit

from . import __version__
from .errors import (
    AuthMissing,
    ConfigInvalid,
    MalformedRecord,
    RateLimitedExhausted,
    ScriptMiss,
    TransportError,
    UnreadableSource,
)
from .util import LazyLogger, canonical_json, decode_json, read_jsonl, sha256_text, write_atomic

if TYPE_CHECKING:  # annotations only: no gateway user needs these modules loaded
    import socket
    import ssl

    from .config import BackendSection

logger = LazyLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

def estimate_tokens(text: str) -> int:
    """Character-count heuristic: one token per four characters, rounded up."""
    return math.ceil(len(text) / 4)


class ChatRequest:
    """One user message to `model_id`, sent at temperature 0 with no seed."""

    __slots__ = ("model_id", "messages", "max_output_tokens")

    def __init__(self, model_id: str, text: str, max_output_tokens: int = 2048) -> None:
        if not model_id:
            raise ValueError("model_id must be non-empty")
        if max_output_tokens < 1:
            raise ValueError("max_output_tokens must be positive")
        self.model_id = model_id
        self.messages = (("user", text),)
        self.max_output_tokens = max_output_tokens

    @property
    def digest(self) -> str:
        payload = {
            "model_id": self.model_id,
            "messages": [[role, text] for role, text in self.messages],
            "temperature": 0.0,
            "max_output_tokens": self.max_output_tokens,
            "seed": None,
        }
        return sha256_text(canonical_json(payload))

    def prompt_text(self) -> str:
        return self.messages[0][1]


def user_request(model_id: str, text: str, max_output_tokens: int = 2048) -> ChatRequest:
    """The request every pipeline stage sends: `text` as one user message."""
    return ChatRequest(model_id, text, max_output_tokens)


class ChatResponse:
    __slots__ = ("text", "prompt_tokens", "output_tokens", "backend_id")

    def __init__(self, text: str, prompt_tokens: int, output_tokens: int, backend_id: str) -> None:
        if not text:
            raise ValueError("empty response text")
        self.text = text
        self.prompt_tokens = prompt_tokens
        self.output_tokens = output_tokens
        self.backend_id = backend_id


# --- replay -----------------------------------------------------------------

class ReplayScript:
    """Scripted responses keyed by request digest or prompt regex.

    Digest entries match exactly; pattern entries are tried in file order
    against the request's prompt text. `default_policy` decides what a miss
    does: "error" raises ScriptMiss, "fixed" returns `default_text`.
    """

    # A line of a replay script (see util.encode_record): a response and the digest or the pattern it answers.
    ENTRY = (("response_text", str), ("digest", str, None), ("prompt_pattern", str, None))

    def __init__(self, default_policy: str = "error", default_text: str = "") -> None:
        self.default_policy = default_policy
        self.default_text = default_text
        self._by_digest: dict[str, str] = {}
        self._patterns: list[tuple[re.Pattern, str]] = []

    def _add(self, response_text: str, digest: str | None = None, prompt_pattern: str | None = None) -> None:
        """Add one entry, the fields of its `ENTRY` record."""
        if not response_text:
            raise ValueError("response_text must be non-empty")
        if digest:
            if digest in self._by_digest:
                raise ValueError(f"duplicate digest in replay script: {digest}")
            self._by_digest[digest] = response_text
        elif prompt_pattern:
            try:
                self._patterns.append((re.compile(prompt_pattern), response_text))
            except re.error as exc:
                raise ValueError(f"bad prompt_pattern: {exc}") from exc
        else:
            raise ValueError("replay entry needs a digest or a prompt_pattern")

    @classmethod
    def load(
        cls,
        path: Path | str,
        default_policy: str = "error",
        default_text: str = "",
    ) -> "ReplayScript":
        """Read a JSONL script; a malformed one raises ConfigInvalid naming the file and line."""
        script = cls(default_policy=default_policy, default_text=default_text)
        try:
            read_jsonl(path, cls.ENTRY, script._add)
        except (MalformedRecord, UnreadableSource) as exc:
            raise ConfigInvalid(f"replay script {exc}") from exc
        return script

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
    Callers pass the digest they already computed: `put(request, backend,
    response, request.digest)` appends a line, and `get(request.digest,
    backend)` reads the line that an index of key -> byte offset names (built
    by one scan on first use; the last line for a key wins). `seal` rewrites
    the log sorted by key, one line per key, so its bytes do not depend on the
    order of the puts, nor on where a killed run stopped: a log that the scan
    finds unsealed is rewritten too. Corrupt lines, such as the torn last line
    of a killed writer, are misses with a warning.

    The log stays open between calls: `put` keeps one append handle from its
    first call, which is when it ends a torn last line with a newline, and
    `get` keeps one read handle. `seal` closes both; a caller that never
    seals closes them with `close`.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.path = self.root / "responses.jsonl"
        self._lock = threading.Lock()
        self._index: dict[str, int] | None = None
        self._unsealed = False
        self._log: BinaryIO | None = None  # the append handle
        self._reader: BinaryIO | None = None

    @staticmethod
    def key_for(digest: str, backend: BackendSection) -> str:
        """The entry key of the request whose `ChatRequest.digest` is `digest`."""
        return sha256_text(f"{digest}:{backend.name}")

    def get(self, digest: str, backend: BackendSection) -> ChatResponse | None:
        key = self.key_for(digest, backend)
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
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            logger.warning("corrupt cache entry %s in %s treated as miss: %s", key, self.path, exc)
            return None

    def _entry(self, key: str, digest: str) -> dict | None:
        """The entry logged under `key`, or None. Call with the lock held.

        When the line at the indexed offset belongs to another request,
        another process has sealed the log since the index was built: the
        log is opened and scanned once more, and a second mismatch is a miss.
        """
        prefix = f"{key} ".encode()
        for rescan in (False, True):
            if rescan or self._index is None:
                if self._reader is not None:
                    self._reader.close()
                    self._reader = None
                reader = self._read_handle()
                self._index, sealed = ({}, True) if reader is None else self._offsets(reader)
                self._unsealed = self._unsealed or not sealed  # a killed run's log is sealed by the next
            offset = self._index.get(key)
            if offset is None:
                return None
            reader = self._read_handle()
            line = b""
            if reader is not None:
                reader.seek(offset)
                line = reader.readline()
            if line.startswith(prefix):
                entry = decode_json(line[len(prefix):])
                if entry["request"]["digest"] == digest:
                    return entry
        return None

    def _read_handle(self) -> BinaryIO | None:
        """The kept read handle, opened at its first use; None while there is no log."""
        if self._reader is None:
            try:
                self._reader = open(self.path, "rb")
            except FileNotFoundError:
                return None
        return self._reader

    @staticmethod
    def _offsets(log: BinaryIO) -> tuple[dict[str, int], bool]:
        """Key -> byte offset of its last line in `log` (offsets only, never the lines), and
        whether `log` is sealed: one whole line per key, sorted by key."""
        index: dict[str, int] = {}
        offset = 0
        key, sealed, line = "", True, b"\n"
        for line in log:
            previous, key = key, line.split(b" ", 1)[0].decode("ascii", "replace")
            sealed = sealed and key > previous
            index[key] = offset
            offset += len(line)
        return index, sealed and line.endswith(b"\n")

    def put(self, request: ChatRequest, backend: BackendSection, response: ChatResponse, digest: str) -> None:
        """Log `response` for `request`, whose `ChatRequest.digest` is `digest`."""
        key = self.key_for(digest, backend)
        body = {
            "text": response.text,
            "prompt_tokens": response.prompt_tokens,
            "output_tokens": response.output_tokens,
            "backend_id": response.backend_id,
        }
        entry = {
            "request": {"digest": digest, "model_id": request.model_id},
            "response": body,
            "integrity": sha256_text(canonical_json(body)),
        }
        line = f"{key} {json.dumps(entry, ensure_ascii=False, separators=(',', ':'))}\n".encode("utf-8")
        with self._lock:
            log = self._log
            try:
                if log is None:
                    try:
                        log = open(self.path, "a+b")
                    except FileNotFoundError:
                        self.root.mkdir(parents=True, exist_ok=True)
                        log = open(self.path, "a+b")
                    self._log = log
                    end = log.seek(0, os.SEEK_END)
                    if end:
                        log.seek(end - 1)
                        if log.read(1) != b"\n":
                            log.write(b"\n")  # a killed writer's torn line stays a line of its own
                log.write(line)
                log.flush()
            except BaseException:
                if log is not None:  # the next put opens the log again and checks its last line
                    self._log = None
                    log.close()
                raise
            offset = log.tell() - len(line)
            if self._index is not None:
                self._index[key] = offset
            self._unsealed = True

    def close(self) -> None:
        """Close the handles `get` and `put` keep; a later call opens them again."""
        with self._lock:
            self._close_handles()

    def _close_handles(self) -> None:
        for handle in (self._log, self._reader):
            if handle is not None:
                handle.close()
        self._log = self._reader = None

    def seal(self) -> None:
        """Rewrite the log sorted by key, one line per key; the last line for a key wins.

        Closes the kept handles first. The rewrite runs only if this cache
        appended since its last seal or its scan found the log unsealed, and
        goes through `write_atomic`, so a reader sees the old log or the new
        one.
        """
        with self._lock:
            self._close_handles()
            if not self._unsealed:
                return
            self._index = None  # the old offsets die here, so one index is alive at a time
            with open(self.path, "rb") as log:
                index, _ = self._offsets(log)
                write_atomic(self.path, self._sorted_lines(log, index))
            self._index = index
            self._unsealed = False

    @staticmethod
    def _sorted_lines(log: BinaryIO, index: dict[str, int]) -> Iterator[bytes]:
        """The lines `index` names, sorted by key; rewrites `index` to their new offsets."""
        offset = 0
        for key in sorted(index):
            log.seek(index[key])
            line = log.readline()
            if not line.endswith(b"\n"):
                line += b"\n"
            yield line
            index[key] = offset
            offset += len(line)


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


# --- transport and gateway -------------------------------------------------------

# Seconds a backend request may wait to connect or between received bytes.
HTTP_TIMEOUT_S = 120
# Longest sleep between two attempts of one request, whatever the base backoff.
MAX_BACKOFF_S = 60.0


class _Route:
    """How requests to one endpoint URL travel, resolved on the first send and reused by every later one.

    Resolving parses the endpoint, picks the proxy from the environment's
    `*_proxy` variables (HTTP(S)_PROXY/NO_PROXY, matched as urllib matches
    them), takes the TLS context and encodes the fixed fields of the request
    head; a failure is raised and nothing is kept, so the next send tries
    again. The host's `getaddrinfo` address list is kept too and tried in
    order, as `socket.create_connection` tries it; a send that connects to
    none of the addresses drops the list, so the next send looks the host up
    again. A `Gateway` keeps one route, so it reads the proxy settings when it
    first sends.
    """

    def __init__(self, url: str) -> None:
        self.url = url
        self._lock = threading.Lock()
        self._head: tuple[bytes, bytes, bytes] | None = None  # the request head around its per-call fields
        self._addresses: list | None = None

    def _resolve(self) -> None:
        """Fix everything a request to the endpoint repeats. Call with the lock held."""
        endpoint = urlsplit(self.url)
        scheme, host = endpoint.scheme, endpoint.hostname
        if scheme not in ("http", "https") or not host:
            raise ValueError(f"malformed endpoint {self.url!r}")
        port = endpoint.port or (443 if scheme == "https" else 80)
        host_port = endpoint.netloc.rpartition("@")[2]
        target = (endpoint.path or "/") + (f"?{endpoint.query}" if endpoint.query else "")
        proxy = _proxy_for(scheme, host_port)
        address, proxy_headers = proxy or ((host, port), {})
        tunnel = proxy is not None and scheme == "https"
        if proxy is not None and not tunnel:
            target = f"http://{host_port}{target}"  # a forwarding proxy takes the absolute URL
        authority = host_port if endpoint.port else f"{host_port}:{port}"
        self._connect_head = (
            _request_line(f"CONNECT {authority} HTTP/1.1") + _header_lines({"Host": authority, **proxy_headers}) + b"\r\n"
            if tunnel
            else None
        )
        self._tls = _tls_context() if scheme == "https" else None
        self._host, self._address = host, address
        self._head = (
            _request_line(f"POST {target} HTTP/1.1") + _header_lines({"Host": host_port, "Content-Type": "application/json"}),
            _header_lines(
                {"Accept-Encoding": "identity", "Connection": "close", "User-Agent": f"tomtrace/{__version__}"}
            ),
            _header_lines({} if tunnel else proxy_headers) + b"\r\n",
        )

    def send(self, payload: dict, headers: dict) -> tuple[int, object, dict[str, str]]:
        """POST `payload` as JSON over HTTP/1.1; returns (status, parsed JSON body or its text, headers).

        `headers` join the route's fixed fields and must not repeat one. An
        HTTP error status, a redirect included, is returned like a success, so
        retries stay in Gateway._request; a redirect is never followed. Header
        names are lower-cased. A request that gets no whole response (refused,
        timed out, cut short, malformed status line, header or chunk size,
        malformed endpoint) raises ConnectionError. HTTP_TIMEOUT_S bounds the
        connect and each read. Each call opens one connection and closes it.
        TLS is verified against the system store (SSL_CERT_FILE/SSL_CERT_DIR)
        with a context built once per process for each setting of those
        variables.
        """
        import socket  # only here: replayed and cache-served runs send no request

        try:
            with self._lock:
                if self._head is None:
                    self._resolve()
                addresses = self._addresses
                if addresses is None:
                    addresses = self._addresses = socket.getaddrinfo(*self._address, 0, socket.SOCK_STREAM)
            start, middle, end = self._head
            data = json.dumps(payload).encode("utf-8")
            head = b"%sContent-Length: %d\r\n%s%s%s" % (start, len(data), middle, _header_lines(headers), end)
            sock = self._connect(addresses)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if self._connect_head is not None:
                    _tunnel(sock, self._connect_head)
                if self._tls is not None:
                    sock = self._tls.wrap_socket(sock, server_hostname=self._host)
                sock.sendall(head + data)
                with sock.makefile("rb") as reply:
                    status, reply_headers = _read_head(reply)
                    while 100 <= status < 200:  # interim replies precede the final one
                        status, reply_headers = _read_head(reply)
                    raw = _read_body(reply, status, reply_headers)
            finally:
                sock.close()
        except (OSError, ValueError) as exc:
            raise ConnectionError(str(exc)) from exc
        try:
            return status, decode_json(raw), reply_headers
        except ValueError:
            return status, raw.decode("utf-8", errors="replace"), reply_headers

    def _connect(self, addresses: list) -> socket.socket:
        """A socket connected to the first of `addresses` that accepts; if none does, the list is dropped."""
        import socket

        error: OSError = OSError("getaddrinfo returns an empty list")
        for family, kind, proto, _, address in addresses:
            sock = socket.socket(family, kind, proto)
            try:
                sock.settimeout(HTTP_TIMEOUT_S)
                sock.connect(address)
                return sock
            except OSError as exc:
                sock.close()
                error = exc
        with self._lock:
            if self._addresses is addresses:
                self._addresses = None
        raise error


# Verifying TLS contexts by (SSL_CERT_FILE, SSL_CERT_DIR): building one loads the CA store.
_TLS_CONTEXTS: dict[tuple[str | None, str | None], ssl.SSLContext] = {}
_TLS_LOCK = threading.Lock()


def _tls_context() -> ssl.SSLContext:
    """The default verifying context for the trust settings in the environment now."""
    import ssl  # only here: plain-HTTP stages never load it

    key = (os.environ.get("SSL_CERT_FILE"), os.environ.get("SSL_CERT_DIR"))
    with _TLS_LOCK:
        if key not in _TLS_CONTEXTS:
            _TLS_CONTEXTS[key] = ssl.create_default_context()
        return _TLS_CONTEXTS[key]


# Longest status, header or chunk-size line a reply may send, and most header
# fields in one reply; past either the reply is malformed.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_CONTROL = re.compile(r"[\x00-\x1f\x7f]")
_HEX_DIGITS = b"0123456789abcdefABCDEF"


def _proxy_for(scheme: str, host_port: str) -> tuple[tuple[str, int], dict[str, str]] | None:
    """The address of the proxy urllib's opener picks for an endpoint, and its headers; None for none.

    The proxy is reached over plain TCP. The user info of its URL becomes a
    Proxy-Authorization header, as urllib sends it. urllib is imported only
    when a `*_proxy` variable is set: it loads http.client and email, which
    a stage would otherwise never need.
    """
    if not any(name.lower().endswith("_proxy") for name in os.environ):
        return None
    import urllib.request

    url = urllib.request.getproxies().get(scheme)
    if not url or urllib.request.proxy_bypass(host_port):
        return None
    proxy = urlsplit(url if "://" in url else f"http://{url}")
    if not proxy.hostname:
        raise ValueError(f"malformed {scheme} proxy {url!r}")
    headers = {}
    if proxy.username and proxy.password:
        import base64

        credentials = f"{unquote(proxy.username)}:{unquote(proxy.password)}".encode()
        headers["Proxy-Authorization"] = f"Basic {base64.b64encode(credentials).decode('ascii')}"
    return (proxy.hostname, proxy.port or 80), headers


def _request_line(line: str) -> bytes:
    """A request line and its CRLF (RFC 9112 §3); a space in the target or a control character raises."""
    if line.count(" ") != 2 or _CONTROL.search(line):
        raise ValueError(f"space or control character in the request line: {line[:80]!r}")
    return f"{line}\r\n".encode("latin-1")


def _header_lines(fields: Mapping[str, str]) -> bytes:
    """Header field lines, each ended by CRLF; a control character raises without echoing the value."""
    for name, value in fields.items():
        if _CONTROL.search(name) or _CONTROL.search(value):
            raise ValueError(f"control character in the request header field {name[:80]!r}")
    return "".join(f"{name}: {value}\r\n" for name, value in fields.items()).encode("latin-1")


def _tunnel(sock: socket.socket, connect_head: bytes) -> None:
    """Send the proxy on `sock` a CONNECT request's head; a non-2xx reply raises."""
    sock.sendall(connect_head)
    # Unbuffered: a buffered reader could swallow the first bytes of the tunnel.
    with sock.makefile("rb", buffering=0) as reply:
        status, _ = _read_head(reply)
    if not 200 <= status < 300:
        raise ConnectionError(f"proxy answered CONNECT with HTTP {status}")


def _read_line(reply: BinaryIO) -> bytes:
    line = reply.readline(_MAX_LINE + 1)
    if not line.endswith(b"\n"):
        raise ConnectionError("reply line too long" if len(line) > _MAX_LINE else "reply cut short")
    return line


def _read_head(reply: BinaryIO) -> tuple[int, dict[str, str]]:
    """A reply's status code and header fields, keyed by lower-cased name (RFC 9112 §§4-5)."""
    line = _read_line(reply)
    version, _, rest = line.rstrip(b"\r\n").partition(b" ")
    code = rest[:3]
    if not version.startswith(b"HTTP/1.") or not (code.isdigit() and len(code) == 3) or rest[3:4] not in (b"", b" "):
        raise ConnectionError(f"malformed status line {line[:80]!r}")
    fields: dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reply)
        if line in (b"\r\n", b"\n"):
            return int(code), fields
        name, colon, value = line.partition(b":")
        if not colon or not name or name != name.strip():
            raise ConnectionError(f"malformed header line {line[:80]!r}")
        key, text = name.decode("latin-1").lower(), value.strip().decode("latin-1")
        fields[key] = f"{fields[key]}, {text}" if key in fields else text
    raise ConnectionError(f"more than {_MAX_HEADERS} header fields")


def _read_body(reply: BinaryIO, status: int, fields: Mapping[str, str]) -> bytes:
    """The body after the head: chunked, by Content-Length, or to EOF (RFC 9112 §6.3)."""
    if status in (204, 304):
        return b""
    if "transfer-encoding" in fields:
        if fields["transfer-encoding"].rsplit(",", 1)[-1].strip().lower() != "chunked":
            return reply.read()
        chunks = []
        while True:
            line = _read_line(reply)
            digits = line.split(b";", 1)[0].strip()
            if not digits or digits.strip(_HEX_DIGITS):
                raise ConnectionError(f"malformed chunk size {line[:80]!r}")
            size = int(digits, 16)
            if size == 0:
                break
            chunks.append(_read_exactly(reply, size))
            if _read_line(reply).strip():
                raise ConnectionError("chunk not followed by CRLF")
        while _read_line(reply).strip():  # trailer fields
            pass
        return b"".join(chunks)
    if "content-length" in fields:
        length = fields["content-length"]
        if not (length.isascii() and length.isdigit()):
            raise ConnectionError(f"malformed Content-Length {length[:80]!r}")
        return _read_exactly(reply, int(length))
    return reply.read()


def _read_exactly(reply: BinaryIO, size: int) -> bytes:
    data = reply.read(size)
    if len(data) < size:
        raise ConnectionError(f"reply cut short: {len(data)} of {size} body bytes")
    return data


def _retry_after(fields: Mapping[str, str]) -> float:
    """Seconds a `Retry-After` field asks to wait (RFC 9110 §10.2.3); 0 when absent, bogus or past."""
    value = fields.get("retry-after", "").strip()
    if not value:
        return 0.0
    if value.isascii() and value.isdigit():
        return float(value)
    # Only here: email costs every stage start-up, and only a date needs it.
    from datetime import timezone
    from email.utils import parsedate_to_datetime

    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return 0.0
    if when.tzinfo is None:  # "-0000": UTC, by RFC 5322
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, when.timestamp() - time.time())


def _usage(body: dict, key: str, text: str) -> int:
    """The token count `usage[key]` reports, else the estimate for `text`."""
    try:
        return int(body["usage"][key])
    except (KeyError, TypeError, ValueError):
        return estimate_tokens(text)


class Gateway:
    """Bounded-parallel, rate-limited front end over one backend.

    `complete` answers from the replay script or a read-through response
    cache; `_request` sends the request. Callers running on `run` share the
    limiter, so they cannot exceed `max_in_flight` or `requests_per_minute`.
    """

    def __init__(
        self,
        backend: BackendSection,
        *,
        replay: ReplayScript | None = None,
        cache: ResponseCache | None = None,
        sleep_fn: Callable[[float], None] = time.sleep,
    ) -> None:
        self.backend = backend
        self.replay = replay
        self.cache = cache
        self._route = _Route(backend.endpoint)  # resolved on the first live request
        self._sleep = sleep_fn
        self._limiter = RateLimiter(backend.requests_per_minute, sleep_fn=sleep_fn)
        self._in_flight: dict[str, threading.Lock] = {}  # by request digest
        self._in_flight_guard = threading.Lock()

    def complete(self, request: ChatRequest) -> ChatResponse:
        # A replay script is already in memory and deterministic; its answers
        # must neither come from nor go to the cache a live backend reads.
        if self.replay is not None:
            text = self.replay.lookup(request)
            return ChatResponse(
                text=text,
                prompt_tokens=estimate_tokens(request.prompt_text()),
                output_tokens=estimate_tokens(text),
                backend_id=self.backend.name,
            )
        if self.cache is None:
            return self._request(request)
        # Single flight: a call for a request already in flight waits for its
        # cache entry instead of sending it again.
        digest = request.digest  # once per call: it hashes the whole prompt
        with self._in_flight_guard:
            lock = self._in_flight.setdefault(digest, threading.Lock())
        with lock:
            try:
                response = self.cache.get(digest, self.backend)
                if response is None:
                    response = self._request(request)
                    self.cache.put(request, self.backend, response, digest)
                return response
            finally:
                with self._in_flight_guard:
                    if self._in_flight.get(digest) is lock:
                        del self._in_flight[digest]

    def _request(self, request: ChatRequest) -> ChatResponse:
        """Send `request`; 429s, 5xx and lost connections are retried with exponential backoff.

        The sleep before a retry is the backoff, or longer when a 429 or 503
        carried a `Retry-After`, and never more than MAX_BACKOFF_S.
        """
        backend = self.backend
        token = os.environ.get(backend.auth_env_var, "")
        if not token:
            raise AuthMissing(f"environment variable {backend.auth_env_var} not set")
        payload = {
            "model": request.model_id,
            "messages": [{"role": role, "content": text} for role, text in request.messages],
            "temperature": 0.0,
            "max_tokens": request.max_output_tokens,
        }
        headers = {"Authorization": f"Bearer {token}"}

        last_failure = ""
        rate_limited = False
        backoff = backend.retry_base_backoff_s
        retry_after = 0.0
        for attempt in range(max(1, backend.retry_max_attempts)):
            if attempt:
                self._sleep(min(max(backoff, retry_after), MAX_BACKOFF_S))
                backoff *= 2  # never raises: a float doubles up to inf
                retry_after = 0.0
            self._limiter.acquire()
            try:
                status, body, reply_headers = self._route.send(payload, headers)
            except ConnectionError as exc:
                last_failure = f"transport: {exc}"
                continue
            if status == 429 or status >= 500:
                rate_limited = status == 429
                last_failure = f"HTTP {status}"
                if status in (429, 503):
                    retry_after = _retry_after(reply_headers)
                continue
            if status != 200:
                raise TransportError(f"HTTP {status}: {str(body)[:200]}")
            try:
                text = body["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError) as exc:
                raise TransportError(f"cannot extract response text: {exc}") from exc
            if not isinstance(text, str) or not text:
                raise TransportError(f"completion is empty or not text: {text!r:.80}")
            return ChatResponse(
                text=text,
                prompt_tokens=_usage(body, "prompt_tokens", request.prompt_text()),
                output_tokens=_usage(body, "completion_tokens", text),
                backend_id=backend.name,
            )
        if rate_limited:
            raise RateLimitedExhausted(f"retries exhausted: {last_failure}")
        raise TransportError(f"retries exhausted: {last_failure}")

    def run(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """fn over items on `max_in_flight` threads; results in input order.

        Each worker draws the next item under one lock, calls `fn` on it and
        keeps the result by index, so at most `max_in_flight` items are drawn
        and unfinished at any time: a caller that builds each item as it is
        drawn holds no more than that. Once an item has failed or `items` has
        raised, no item is drawn; those already drawn finish. The exception of
        the first failing item in input order is raised, as a serial loop
        would raise it, else that of `items`. A `KeyboardInterrupt` while
        waiting also stops the drawing. The workers are joined and the cache is
        sealed before `run` returns or raises, so the cache's bytes do not
        depend on the order the items finished.
        """
        draw = enumerate(items).__next__
        lock = threading.Lock()
        ended = threading.Semaphore(0)  # released by each worker as it returns
        results: dict[int, R] = {}
        failures: dict[int, BaseException] = {}  # by item index
        draw_failure: BaseException | None = None  # raised by `items`
        stop = False

        def work() -> None:
            nonlocal draw_failure, stop
            try:
                while True:
                    with lock:
                        if stop:
                            return
                        try:
                            index, item = draw()
                        except StopIteration:
                            return
                        except BaseException as exc:
                            draw_failure, stop = exc, True
                            return
                    try:
                        results[index] = fn(item)
                    except BaseException as exc:
                        failures[index] = exc
                        stop = True
            finally:
                ended.release()

        workers = [threading.Thread(target=work) for _ in range(max(1, self.backend.max_in_flight))]
        started = 0
        try:
            for worker in workers:
                worker.start()
                started += 1
            # Not Thread.join: on Python 3.11 an interrupt inside join marks a running thread as ended.
            for _ in range(started):
                ended.acquire()
        finally:
            stop = True
            for worker in workers[:started]:
                worker.join()
            if self.cache is not None:
                self.cache.seal()
        if failures:
            raise failures[min(failures)]
        if draw_failure is not None:
            raise draw_failure
        return [results[index] for index in range(len(results))]

    def submit_batch(self, requests: Iterable[ChatRequest]) -> list[ChatResponse]:
        """`complete` over the requests on `run`, in their order; the first failure raises."""
        return self.run(self.complete, requests)
