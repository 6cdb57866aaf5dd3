from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from click.testing import CliRunner

import tomtrace
from tomtrace.cli import main
from tomtrace.config import BackendSection
from tomtrace.corpus import ingest_corpus
from tomtrace.llmgate import Gateway, ReplayScript

DATA = Path(__file__).parent / "data"
CONFIG = DATA / "pipeline.yaml"

PIPELINE = ("ingest", "extract", "build-kg", "genqa", "verify", "eval", "report")

# How the `tomtrace` console script starts the CLI.
ENTRY_POINT = "import sys; from tomtrace.cli import main; sys.exit(main())"


def run_cli(out_dir: Path, *commands: str, expect: int = 0, config: Path = CONFIG) -> list:
    """Run CLI subcommands against the fixture config (or `config`) into out_dir."""
    runner = CliRunner()
    results = []
    for command in commands:
        args = ["-c", str(config), "--out", str(out_dir)] + command.split()
        result = runner.invoke(main, args)
        if result.exit_code != expect:
            raise AssertionError(
                f"{command!r} exited {result.exit_code}, expected {expect}\n{result.output}"
                + ("".join(__import__('traceback').format_exception(*result.exc_info)) if result.exc_info else "")
            )
        results.append(result)
    return results


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


@contextmanager
def http_backend(answer):
    """A chat backend on 127.0.0.1 for the real HTTP transport; skips if it cannot bind.

    `answer(handler, n, payload)` writes the reply to the n-th POST (from 0).
    Yields the server: `url`, `requests` as (headers, payload) in arrival
    order, and `release`, set on exit to free answers that stall on it.
    """

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):  # noqa: N802 (http.server naming)
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            with server.lock:
                n = len(server.requests)
                server.requests.append((self.headers, payload))
            answer(self, n, payload)

        def log_message(self, format, *args):
            pass

    class Server(ThreadingHTTPServer):
        daemon_threads = True

        def handle_error(self, request, client_address):
            pass  # a client that gave up (timeout, truncated reply) is expected

    try:
        server = Server(("127.0.0.1", 0), Handler)
    except OSError as exc:
        pytest.skip(f"cannot bind a local HTTP server: {exc}")
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
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
