from __future__ import annotations

import http.client
import io
import json
import os
import select
import socket
import ssl
import subprocess
import sys
import threading
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

import pytest
import yaml

import tomtrace
from tomtrace.cli import main
from tomtrace.config import BackendSection, Section
from tomtrace.corpus import ingest_corpus
from tomtrace.llmgate import Gateway, ReplayScript, _Route

DATA = Path(__file__).parent / "data"
CONFIG = DATA / "pipeline.yaml"
# A self-signed certificate for localhost and 127.0.0.1, valid until 2076.
TLS_CERT = DATA / "localhost-cert.pem"

PIPELINE = ("ingest", "extract", "build-kg", "genqa", "verify", "eval", "report")

# How the `tomtrace` console script starts the CLI.
ENTRY_POINT = "import sys; from tomtrace.cli import main; sys.exit(main())"


class CliResult:
    """One in-process CLI run: its exit code, what it wrote, and the exception that ended it.

    `output` is stdout and stderr interleaved in the order written. `exception`
    is the SystemExit of a non-zero exit or any other uncaught exception, and
    `exc_info` is the exception that ended the run, a SystemExit included.
    """

    def __init__(self, exit_code: int, stdout: str, stderr: str, output: str, exception, exc_info):
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.output = output
        self.exception = exception
        self.exc_info = exc_info


class _Capture(io.StringIO):
    """A stream that also copies each write to `shared`."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text: str) -> int:
        self.shared.write(text)
        return super().write(text)


def invoke_cli(*args: str) -> CliResult:
    """Run the CLI in this process with `args`, capturing its streams and its exit."""
    output = io.StringIO()
    stdout, stderr = _Capture(output), _Capture(output)
    exit_code, exception, exc_info = 0, None, None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            main(list(args), prog_name="tomtrace")
        except SystemExit as exc:
            exit_code, exc_info = exc.code or 0, sys.exc_info()
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception, exc_info = 1, exc, sys.exc_info()
    return CliResult(exit_code, stdout.getvalue(), stderr.getvalue(), output.getvalue(), exception, exc_info)


def run_cli(out_dir: Path, *commands: str, expect: int = 0, config: Path = CONFIG) -> list[CliResult]:
    """Run CLI subcommands against the fixture config (or `config`) into out_dir."""
    results = []
    for command in commands:
        result = invoke_cli("-c", str(config), "--out", str(out_dir), *command.split())
        if result.exit_code != expect:
            raise AssertionError(
                f"{command!r} exited {result.exit_code}, expected {expect}\n{result.output}"
                + ("".join(traceback.format_exception(*result.exc_info)) if result.exc_info else "")
            )
        results.append(result)
    return results


def replay_script(*records: dict) -> ReplayScript:
    """A replay script of `records`, each added as a line of a script file is."""
    script = ReplayScript()
    for record in records:
        script._add(record)
    return script


def as_dict(obj) -> dict:
    """The fields of a config section by name, each nested section a dict too."""
    return {name: as_dict(v) if isinstance(v, Section) else v for name, v in vars(obj).items()}


def replace(obj, **changes):
    """A copy of a config section with `changes` made to its fields."""
    return type(obj)(**{**as_dict(obj), **changes})


def derived_config(directory: Path, **sections: dict) -> Path:
    """The fixture config with each of `sections` updated, written as `directory`/pipeline.yaml.

    Its input paths are absolute, so the fixture data is read wherever the copy lives.
    """
    raw = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
    corpus = raw["corpus"]
    corpus["input"] = str(DATA / corpus["input"])
    corpus["alias_tables"] = {book: str(DATA / table) for book, table in corpus["alias_tables"].items()}
    raw["replay"]["script"] = str(DATA / raw["replay"]["script"])
    for name, values in sections.items():
        raw[name].update(values)
    config = directory / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return config


def run_entry_point(*args: str, code: str = ENTRY_POINT) -> subprocess.CompletedProcess:
    """Run the CLI with `args` in a fresh interpreter, through `code`, and return the finished process.

    Unlike `run_cli`, the process exits the way a user's does: through
    `sys.exit`, the atexit handlers and interpreter finalization.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(tomtrace.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under root, keyed by its path relative to root."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="session", autouse=True)
def user_cache(tmp_path_factory) -> Path:
    """XDG_CACHE_HOME for the whole session, so no test writes the config memo under ~/.cache."""
    cache = tmp_path_factory.mktemp("xdg-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(cache))
        yield cache


@pytest.fixture(scope="session")
def fixture_corpus():
    return ingest_corpus(
        DATA / "books",
        format="coser",
        alias_tables={"king-lear": DATA / "king-lear-aliases.txt"},
    )


@pytest.fixture()
def replay_gateway(tmp_path):
    from tomtrace.llmgate import ResponseCache

    backend = BackendSection(name="replay-gpt", endpoint="", auth_env_var="TOMTRACE_API_TOKEN")
    script = ReplayScript.load(DATA / "replay.jsonl")
    return Gateway(backend, replay=script, cache=ResponseCache(tmp_path / "cache"))


@pytest.fixture(scope="session")
def pipeline_out(tmp_path_factory) -> Path:
    """One full fixture-pipeline run shared by read-only tests."""
    out = tmp_path_factory.mktemp("pipeline") / "out"
    run_cli(out, *PIPELINE)
    return out


def send_reply(handler: BaseHTTPRequestHandler, status: int, body, *, length: int | None = None) -> None:
    """Write one HTTP reply; `body` is bytes or JSON, `length` overrides Content-Length."""
    data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    handler.send_response(status)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(data) if length is None else length))
    handler.end_headers()
    handler.wfile.write(data)


def fake_backend(monkeypatch, transport) -> None:
    """Answer every live request with `transport(url, payload, headers)` -> (status, body, headers).

    It stands in for `llmgate._Route.send`, the one call a `Gateway` makes per
    attempt, so retries, the rate limiter and the cache run as in production.
    `http_backend` serves the real wire instead.
    """
    monkeypatch.setattr(_Route, "send", lambda route, payload, headers: transport(route.url, payload, headers))


@contextmanager
def _serving(handler: type[BaseHTTPRequestHandler], host: str, tls: bool):
    """Serve `handler` on `host` (TLS with the test certificate if `tls`); skips if it cannot bind.

    Yields the server: `url` (scheme, host and port), `requests` and its
    `lock`, and `release`, set on exit to free handlers that stall on it.
    """

    class Server(ThreadingHTTPServer):
        daemon_threads = True

        def handle_error(self, request, client_address):
            pass  # a client that gave up (timeout, truncated reply, refused certificate) is expected

    try:
        server = Server((host, 0), handler)
    except OSError as exc:
        pytest.skip(f"cannot bind a local HTTP server on {host}: {exc}")
    if tls:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(TLS_CERT, DATA / "localhost-key.pem")
        server.socket = context.wrap_socket(server.socket, server_side=True)
    server.url = f"{'https' if tls else 'http'}://{host}:{server.server_address[1]}"
    server.requests = []
    server.lock = threading.Lock()
    server.release = threading.Event()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@contextmanager
def http_backend(answer, *, host: str = "127.0.0.1", tls: bool = False):
    """A chat backend on `host` for the real HTTP transport; skips if it cannot bind.

    `answer(handler, n, payload)` writes the reply to the n-th request (from 0).
    Yields the server: `url`, `requests` as (headers, payload) in arrival
    order (a GET's payload is None), and `release`, set on exit to free
    answers that stall on it. With `tls` it serves `TLS_CERT`.
    """

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):  # noqa: N802 (http.server naming)
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length)) if length else None
            with self.server.lock:
                n = len(self.server.requests)
                self.server.requests.append((self.headers, payload))
            answer(self, n, payload)

        do_GET = do_POST  # a client that follows a redirect turns the POST into a GET

        def log_message(self, format, *args):
            pass

    with _serving(Handler, host, tls) as server:
        server.url += "/v1/chat"
        yield server


@contextmanager
def http_proxy():
    """A forwarding proxy on 127.0.0.1 for absolute-URL POSTs and CONNECT tunnels.

    Yields the server: `url`, and `requests` as (method, target, headers) in
    arrival order. A POST is sent on to its origin without the proxy's own
    headers; a CONNECT relays bytes both ways until one side closes.
    """

    class Handler(BaseHTTPRequestHandler):
        def _record(self):
            with self.server.lock:
                self.server.requests.append((self.command, self.path, self.headers))

        def do_POST(self):  # noqa: N802 (http.server naming)
            self._record()
            origin = urlsplit(self.path)
            body = self.rfile.read(int(self.headers["Content-Length"]))
            hop_by_hop = {"host", "connection", "content-length", "proxy-authorization"}
            headers = {k: v for k, v in self.headers.items() if k.lower() not in hop_by_hop}
            upstream = http.client.HTTPConnection(origin.hostname, origin.port, timeout=10)
            try:
                upstream.request("POST", origin.path, body, headers)
                reply = upstream.getresponse()
                send_reply(self, reply.status, reply.read())
            finally:
                upstream.close()

        def do_CONNECT(self):  # noqa: N802
            self._record()
            host, _, port = self.path.rpartition(":")
            with socket.create_connection((host, int(port)), timeout=10) as upstream:
                self.send_response(200, "Connection established")
                self.end_headers()
                ends = [self.connection, upstream]
                while True:
                    readable, _, _ = select.select(ends, [], [], 10)
                    data = readable[0].recv(65536) if readable else b""
                    if not data:
                        break
                    ends[readable[0] is ends[0]].sendall(data)

        def log_message(self, format, *args):
            pass

    with _serving(Handler, "127.0.0.1", tls=False) as server:
        yield server
