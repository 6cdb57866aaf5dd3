from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import tomtrace
from conftest import CONFIG, ENTRY_POINT, derived_config, run_entry_point
from tomtrace.config import load_config


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


def test_no_class_of_the_package_is_a_dataclass():
    """A dataclass compiles its generated methods when its module is imported, in every stage process.

    So the config sections, the record types, Corpus and ChatRequest are plain classes.
    """
    code = (
        "import dataclasses, importlib, pkgutil, sys, tomtrace\n"
        "for info in pkgutil.iter_modules(tomtrace.__path__):\n"
        "    importlib.import_module(f'tomtrace.{info.name}')\n"
        "print(*sorted(f'{name}.{obj.__name__}' for name, module in list(sys.modules.items())\n"
        "              if name.startswith('tomtrace') for obj in vars(module).values()\n"
        "              if isinstance(obj, type) and obj.__module__ == name and dataclasses.is_dataclass(obj)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tomtrace.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.split() == []


# The entry point, reporting every loaded module on its last stderr line as the process exits.
MODULES_AT_EXIT = (
    "import atexit, sys\n"
    "atexit.register(lambda: print('modules:', *sorted(sys.modules), file=sys.stderr))\n" + ENTRY_POINT
)
PIPELINE_MODULES = {f"tomtrace.{m}" for m in ("llmgate", "triples", "tkg", "qagen", "evalharness", "ftemit")}
REQUEST_MODULES = {"concurrent.futures", "http.client", "urllib.request"}
OFFLINE_COMMANDS = ("ingest", "build-kg", "report", "review-export", "review-import", "emit-ft", "stats")
MODEL_COMMANDS = ("extract", "genqa", "verify", "eval")


@pytest.fixture(scope="module")
def stage_processes(tmp_path_factory) -> dict[str, tuple[set[str], list[str]]]:
    """Per command, the modules loaded when its process exits and the stderr lines before them.

    `--version` and every command of the pipeline run on the fixture in a
    fresh interpreter. emit-ft waives the human-verification gate, so every
    question goes through emit_example. Each config has been parsed once
    before any of them starts.
    """
    out = tmp_path_factory.mktemp("imports") / "out"
    runs: dict[str, tuple[set[str], list[str]]] = {}
    unverified = derived_config(out.parent, ft={"require_human_verified": False})
    for config in (CONFIG, unverified):
        load_config(config)

    def run(name: str, *args: str) -> None:
        result = run_entry_point(*args, code=MODULES_AT_EXIT)
        assert result.returncode == 0, result.stderr
        *stderr, last = result.stderr.splitlines()
        label, *modules = last.split()
        assert label == "modules:", result.stderr
        runs[name] = (set(modules), stderr)

    run("--version", "--version")
    steps = ["ingest", "extract", "build-kg", "genqa", "verify", "eval", "report", "review-export",
             f"review-import {out / 'review.csv'}", "emit-ft", "stats"]
    for step in steps:
        name = step.split()[0]
        config = unverified if name == "emit-ft" else CONFIG
        run(name, "-c", str(config), "--out", str(out), *step.split())
    return runs


@pytest.fixture(scope="module")
def modules_at_exit(stage_processes) -> dict[str, set[str]]:
    """Per command, the modules loaded when its process exits."""
    return {name: modules for name, (modules, _) in stage_processes.items()}


def test_version_and_ingest_load_no_module_of_the_later_stages(modules_at_exit):
    for command in ("--version", "ingest"):
        assert modules_at_exit[command] & PIPELINE_MODULES == set(), command
    assert "tomtrace.corpus" in modules_at_exit["ingest"]


def test_no_offline_command_loads_a_thread_pool_or_an_http_client(modules_at_exit):
    assert set(modules_at_exit) == {"--version", *OFFLINE_COMMANDS, *MODEL_COMMANDS}
    for command in OFFLINE_COMMANDS:
        assert modules_at_exit[command] & REQUEST_MODULES == set(), command
    assert {"tomtrace.evalharness", "tomtrace.qagen"} <= modules_at_exit["report"]


def test_no_model_stage_loads_a_thread_pool(modules_at_exit):
    """`Gateway.run` works on plain threads, so a stage answered from its replay script or a warm cache loads no executor."""
    for command in MODEL_COMMANDS:
        assert "concurrent.futures" not in modules_at_exit[command], command


def test_a_command_that_logs_nothing_loads_no_logging(stage_processes):
    """`logging` is imported at the first record a stage emits; on the fixture only ingest warns."""
    warned = {name for name, (_, stderr) in stage_processes.items() if any("WARNING" in line for line in stderr)}
    assert warned == {"ingest"}
    for command, (modules, _) in stage_processes.items():
        if command not in warned:
            assert "logging" not in modules, command


def test_ingest_warns_on_stderr_in_the_configured_format(stage_processes):
    _, stderr = stage_processes["ingest"]
    assert stderr == [
        "WARNING tomtrace.corpus: king-lear:plot[1]:conv[1]: skipping line without speaker prefix:"
        " 'A hush falls over the assembled court.'",
    ]


def test_verbose_extract_reports_a_triple_kept_with_violations(tmp_path):
    """A record below WARNING is emitted, in the configured format, once `--verbose` asks for it."""
    config = derived_config(tmp_path, triples={"strict_perspective": False})
    out = tmp_path / "out"
    assert run_entry_point("-c", str(config), "--out", str(out), "ingest").returncode == 0
    quiet = run_entry_point("-c", str(config), "--out", str(out), "extract")
    verbose = run_entry_point("-c", str(config), "--out", str(out), "--verbose", "extract")
    assert quiet.returncode == verbose.returncode == 0, verbose.stderr
    kept = [line for line in verbose.stderr.splitlines() if "kept triple with violations" in line]
    assert kept and all(line.startswith("INFO tomtrace.triples: ") for line in kept), verbose.stderr
    assert "kept triple with violations" not in quiet.stderr


def test_no_offline_command_loads_yaml_once_the_config_was_parsed(modules_at_exit):
    for command in ("--version", *OFFLINE_COMMANDS):
        assert not {m for m in modules_at_exit[command] if m == "yaml" or m.startswith("yaml.")}, command


def test_no_command_loads_click(modules_at_exit):
    """The CLI parses its arguments with the standard library's argparse."""
    for command, modules in modules_at_exit.items():
        assert not {m for m in modules if m == "click" or m.startswith("click.")}, command


def test_no_command_loads_dataclasses_inspect_or_decimal(modules_at_exit):
    """The config sections, Corpus and ChatRequest are plain classes, and reports round in integers."""
    for command, modules in modules_at_exit.items():
        assert modules & {"dataclasses", "inspect", "decimal"} == set(), command


def test_no_command_loads_fractions(modules_at_exit):
    """Corpus and first-pass rates and report cells are rounded from their integer counts."""
    assert {"--version", "ingest", "build-kg", "review-export", "review-import"} <= set(modules_at_exit)
    for command, modules in modules_at_exit.items():
        assert "fractions" not in modules, command


def test_only_the_first_parse_of_a_config_loads_yaml(tmp_path, monkeypatch):
    """A fresh cache directory makes the first stage parse the config; the next one reads the memo."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    loaded = []
    for _ in range(2):
        result = run_entry_point("-c", str(CONFIG), "--out", str(tmp_path / "out"), "ingest", code=MODULES_AT_EXIT)
        assert result.returncode == 0, result.stderr
        loaded.append(set(result.stderr.splitlines()[-1].split()[1:]))
    assert {"yaml", "tomtrace.config"} <= loaded[0]
    assert "yaml" not in loaded[1] and "tomtrace.config" in loaded[1]


class _FileWrites(ast.NodeVisitor):
    """Each call that writes or replaces a file, as (enclosing qualified name, call)."""

    def __init__(self) -> None:
        self.scope: list[str] = []
        self.found: list[tuple[str, str]] = []

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else ""
        call = None
        if name == "open" and owner != "os":
            # open(path, mode) or path.open(mode); a mode that is not a literal counts as a write
            position = 0 if isinstance(func, ast.Attribute) else 1
            mode = node.args[position] if len(node.args) > position else None
            mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
            if mode is not None and not (isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+")):
                call = f"open {ast.unparse(mode)}"
        elif (name, owner) in {("open", "os"), ("replace", "os"), ("rename", "os"), ("move", "shutil")}:
            call = f"{owner}.{name}"
        elif name in {"write_text", "write_bytes", "rename"}:
            call = f".{name}"
        if call:
            self.found.append((".".join(self.scope), call))
        self.generic_visit(node)


def test_write_atomic_is_the_only_code_that_writes_a_file():
    """Every artifact is replaced whole through util.write_atomic; the cache log append is the one other write.

    The CLI opens /dev/null for writing only to put it under a stdout whose reader has left.
    """
    found = []
    for path in sorted(Path(tomtrace.__file__).parent.glob("*.py")):
        visitor = _FileWrites()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += [(path.name, scope, call) for scope, call in visitor.found]
    assert found == [
        ("cli.py", "CommandTable.__call__", "os.open"),
        ("llmgate.py", "ResponseCache.put", "open 'a+b'"),
        ("llmgate.py", "ResponseCache.put", "open 'a+b'"),
        ("util.py", "write_atomic", "open 'wb'"),
        ("util.py", "write_atomic", "os.replace"),
    ]


class _CallSites(ast.NodeVisitor):
    """The enclosing qualified name of each call node that `match` accepts."""

    def __init__(self, match) -> None:
        self.match = match
        self.scope: list[str] = []
        self.found: list[str] = []

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node: ast.Call) -> None:
        if self.match(node):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def _call_sites(match) -> list[tuple[str, str]]:
    """(file name, enclosing qualified name) of each matching call in the package."""
    found = []
    for path in sorted(Path(tomtrace.__file__).parent.glob("*.py")):
        visitor = _CallSites(match)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += [(path.name, scope) for scope in visitor.found]
    return found


def test_read_jsonl_is_the_only_code_that_decodes_record_lines():
    """Record files go through util.read_jsonl; the graph file and the cache log keep their own loops."""
    def json_parse(call) -> bool:
        func = call.func
        return isinstance(func, ast.Attribute) and func.attr in {"load", "loads"} and getattr(func.value, "id", "") == "json"

    assert _call_sites(json_parse) == [
        ("config.py", "_recall"),  # a memoized config tree ...
        ("config.py", "_memoize"),  # ... and the check that JSON holds it unchanged
        ("corpus.py", "_parse_coser_book"),  # one whole JSON document per source book
        ("llmgate.py", "ResponseCache._entry"),  # one cache log line, read at an indexed byte offset
        ("llmgate.py", "_Route.send"),  # a backend's response body
        ("tkg.py", "load_kg"),  # the graph file's integrity-hashed header ...
        ("tkg.py", "load_kg"),  # ... and the records it covers
        ("util.py", "read_jsonl"),
        ("util.py", "load_json_reply"),  # a model's response text ...
        ("util.py", "load_json_reply"),  # ... and the same with doubled braces collapsed
    ]


def test_run_context_is_the_only_code_that_hashes_files():
    """Manifest inputs are hashed as the stage reads them, never from a list a command keeps."""
    def hashing(call) -> bool:
        return getattr(call.func, "attr", getattr(call.func, "id", "")) == "sha256_file"

    assert _call_sites(hashing) == [
        ("cli.py", "RunContext.read"),  # an input, as the stage opens it
        ("cli.py", "RunContext.write_manifest"),  # the outputs; the config's digest is of the bytes parsed
    ]


def test_ingest_corpus_is_the_only_code_that_sorts_books():
    """A corpus's books come in book id order from `ingest_corpus`; no stage sorts them again."""
    def named_books(node) -> bool:
        return getattr(node, "attr", getattr(node, "id", "")) == "books"

    def sorts_books(call) -> bool:
        func = call.func
        if getattr(func, "id", "") == "sorted":
            return bool(call.args) and named_books(call.args[0])
        return getattr(func, "attr", "") == "sort" and named_books(func.value)

    assert _call_sites(sorts_books) == [("corpus.py", "ingest_corpus")]


# Public names that no other file of src/ or perfbench/ names, each kept for a reason.
UNREFERENCED_ALLOWED = {
    "timeline": "criterion 3's oracle and the README use it",
    # argparse dispatches to each command's callback through the command table, not by name.
    "build_kg": "the `build-kg` command's callback",
    "review_export": "the `review-export` command's callback",
    "review_import": "the `review-import` command's callback",
    "eval_cmd": "the `eval` command's callback",
    "emit_ft": "the `emit-ft` command's callback",
}


def _public_definitions(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and constants, and the methods of top-level classes, not named `_...`."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [m.name for m in node.body if isinstance(m, ast.FunctionDef)]
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_of_the_package_is_named_elsewhere():
    """A public name that only its own definition mentions serves the tests alone, or nothing.

    Counts whole-word matches in src/ and in perfbench/'s non-test files; each
    definition of a name accounts for one of them.
    """
    package = Path(tomtrace.__file__).parent
    root = package.parents[1]
    benchmark = [path for path in sorted((root / "perfbench").glob("*.py")) if not path.name.startswith("test_")]
    words: Counter[str] = Counter()
    for path in [*sorted((root / "src").rglob("*.py")), *benchmark]:
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    definitions: Counter[str] = Counter()
    for path in sorted(package.glob("*.py")):
        definitions.update(_public_definitions(ast.parse(path.read_text(encoding="utf-8"))))
    unreferenced = sorted(name for name, count in definitions.items() if words[name] <= count)
    assert unreferenced == sorted(UNREFERENCED_ALLOWED)


def test_every_imported_name_is_used_in_its_module():
    """An import that its module never names is a leftover of deleted code.

    A name counts as used where the module's code (annotations included) refers
    to it; a mention in a docstring or comment does not count.
    """
    unused = []
    for path in sorted(Path(tomtrace.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                imported.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert unused == []
