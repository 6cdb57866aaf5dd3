"""Span recording around tomtrace's public functions, from outside `src/`.

As a launcher it runs one CLI stage with every layer wrapped:

    python3 perfbench/tracer.py SPANS.json -c pipeline.yaml --out out extract

Each public function defined in a pipeline module is wrapped once, and the
wrapper is bound in every module namespace that holds the original (so the
`from .tkg import state_at` copies in cli, evalharness and ftemit are timed
too). Gateway and ResponseCache methods, the ChatRequest.digest property,
RunContext.write_manifest and each click command callback are wrapped as
well. Spans (name, start, end, parent, extra) stay in memory and are written
to SPANS.json when the process exits. Spans opened on a worker thread with
no open span of their own are parented to the open submit_batch span.
"""

from __future__ import annotations

import atexit
import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

MODULES = ("cli", "config", "corpus", "triples", "tkg", "qagen", "evalharness", "ftemit", "llmgate")


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [seq, name_id, start, end, parent_seq, extra]
        self._seq = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self.batch_parent: int | None = None

    def wrap(self, fn, name: str, extra=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, seq, local, main = self.spans, self._seq, self._local, self._main
        is_batch = name.endswith(".submit_batch")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1][0]
            else:
                parent = None if threading.current_thread() is main else self.batch_parent
            span = [next(seq), name_id, 0.0, 0.0, parent, None]
            stack.append(span)
            if is_batch:
                self.batch_parent = span[0]
            span[2] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    span[5] = extra(result)
                return result
            finally:
                span[3] = time.monotonic()
                stack.pop()
                spans.append(span)
                if is_batch:
                    self.batch_parent = None

        return traced

    def dump(self, path: str) -> None:
        Path(path).write_text(json.dumps({"names": self.names, "spans": self.spans}), encoding="utf-8")


def _parse_entries(batch) -> int:
    return len(batch.triples) + len(batch.rejects)


def install(recorder: Recorder) -> None:
    import importlib

    modules = {m: importlib.import_module(f"tomtrace.{m}") for m in MODULES}
    extras = {"triples.parse_triple_response": _parse_entries}
    wrappers: dict[int, object] = {}
    for short, module in modules.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            span_name = f"{short}.{name}"
            wrappers[id(obj)] = recorder.wrap(obj, span_name, extras.get(span_name))
    for module in modules.values():
        for name, obj in list(vars(module).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                setattr(module, name, wrappers[id(obj)])

    llmgate, cli = modules["llmgate"], modules["cli"]
    for cls, attr, extra in (
        (llmgate.Gateway, "complete", None),
        (llmgate.Gateway, "submit_batch", None),
        (llmgate.ResponseCache, "get", lambda hit: int(hit is not None)),
        (llmgate.ResponseCache, "put", None),
        (cli.RunContext, "write_manifest", None),
    ):
        setattr(cls, attr, recorder.wrap(getattr(cls, attr), f"{cls.__module__[9:]}.{cls.__name__}.{attr}", extra))
    digest = llmgate.ChatRequest.digest
    llmgate.ChatRequest.digest = property(recorder.wrap(digest.fget, "llmgate.ChatRequest.digest", lambda d: d))
    for name, command in cli.main.commands.items():
        command.callback = recorder.wrap(command.callback, f"cli.{name}")


def main(argv: list[str]) -> None:
    # The launcher's own directory must not shadow anything the stage imports.
    if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
        sys.path.pop(0)
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    atexit.register(recorder.dump, spans_path)
    from tomtrace.cli import main as cli_main

    cli_main(cli_args, prog_name="tomtrace")


# --- reading spans back ----------------------------------------------------------------

@dataclass
class Span:
    seq: int
    name: str
    start: float
    end: float
    parent: int | None
    extra: object
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part of it that child spans cover."""
        covered, reach = 0.0, self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered

    def descendants(self):
        for child in self.children:
            yield child
            yield from child.descendants()


def load_spans(path: Path) -> list[Span]:
    """Spans of one process with their children attached."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    names = data["names"]
    spans = {s[0]: Span(s[0], names[s[1]], s[2], s[3], s[4], s[5]) for s in data["spans"]}
    for span in spans.values():
        if span.parent is not None and span.parent in spans:
            spans[span.parent].children.append(span)
    return sorted(spans.values(), key=lambda s: s.start)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered) + 0.5) - 1))]


class SpanIndex:
    """Spans of a whole traced pipeline, grouped by name."""

    def __init__(self, spans: list[Span]) -> None:
        self.by_name: dict[str, list[Span]] = {}
        for span in spans:
            self.by_name.setdefault(span.name, []).append(span)

    def get(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.get(name))

    def self_total(self, name: str) -> float:
        return sum(s.self_time for s in self.get(name))

    def calls(self, name: str) -> int:
        return len(self.get(name))

    def median_us(self, name: str) -> float:
        durations = [s.duration * 1e6 for s in self.get(name)]
        return statistics.median(durations) if durations else 0.0


if __name__ == "__main__":
    main(sys.argv[1:])
