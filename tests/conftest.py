from __future__ import annotations

from pathlib import Path

import pytest
from click.testing import CliRunner

from tomtrace.cli import main
from tomtrace.corpus import ingest_corpus
from tomtrace.llmgate import BackendConfig, Gateway, ReplayScript

DATA = Path(__file__).parent / "data"
CONFIG = DATA / "pipeline.yaml"

PIPELINE = ("ingest", "extract", "build-kg", "genqa", "verify", "eval", "report")


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

    backend = BackendConfig(name="replay-gpt", endpoint="", auth_env_var="TOMTRACE_API_TOKEN")
    script = ReplayScript.load(DATA / "replay.jsonl")
    return Gateway(backend, replay=script, cache=ResponseCache(tmp_path / "cache"))


@pytest.fixture(scope="session")
def pipeline_out(tmp_path_factory) -> Path:
    """One full fixture-pipeline run shared by read-only tests."""
    out = tmp_path_factory.mktemp("pipeline") / "out"
    run_cli(out, *PIPELINE)
    return out
