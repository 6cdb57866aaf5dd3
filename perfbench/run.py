#!/usr/bin/env python3
"""Offline end-to-end benchmark of the tomtrace pipeline.

    python3 perfbench/run.py --workload long-books --seed 1 --seconds 20 --trace 0

Each stage runs as a fresh `tomtrace` process against a simulated HTTP
backend (perfbench/backend.py) on 127.0.0.1, the way a user runs it, with a
fixed minimal environment. The whole pipeline is repeated until `--seconds`
is used up; every metric is the median over those repetitions, with times
scaled to a reference host speed (see "host speed" below). The output
checks run after timing. `--trace 1` runs one untraced and one traced
pipeline and reports per-layer metrics from the traced one instead.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import csv
import gc
import inspect
import json
import marshal
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from backend import unit as backend_unit  # noqa: E402
import corpusgen  # noqa: E402
import tracer  # noqa: E402

TOKEN_VAR = "PERFBENCH_TOKEN"
MODEL = "sim-model"
CLI_CODE = "import sys; from tomtrace.cli import main; sys.exit(main())"
MODEL_STAGES = ("extract", "genqa", "verify", "eval")
OFFLINE_STAGES = ("ingest", "build-kg", "report", "review-export", "review-import", "emit-ft")
# Documented stage order; report renders CSV so the recount check can read it.
PIPELINE = (
    ("ingest",),
    ("extract",),
    ("build-kg",),
    ("genqa",),
    ("verify",),
    ("eval",),
    ("report", "--layout", "csv"),
    ("review-export",),
    ("review-import", "out/review.csv"),
    ("emit-ft",),
)
STAGE_NAMES = tuple(stage[0] for stage in PIPELINE)
FILL_STAGES = 6  # ingest .. eval: the stages a warm cache serves
MAX_ATTEMPTS = 3
HUMAN_FAIL_SHARE = 0.1

# Metric names and units come from BENCHMARK.json. Per-stage walls, their
# offline sum and pipeline_cpu_s are printed but not listed there: even at the
# reference speed a sub-second stage spread by up to 0.32 over ten runs on a
# noisy 2-core host, above the largest bound allowed, and pipeline_cpu_s by
# 0.17 on many-books-latency, whose long stages leave few calibrations.
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict
    plan: dict
    merge: str
    context: str
    triples: str
    fill_cache: bool = False
    # setup_s sums per-step medians over this many set-ups; a cold set-up is
    # mostly one interpreter start, whose time varies by up to 2x on a noisy host.
    setup_repeats: int = 15


MANY_BOOKS = dict(books=20, plots=2, cast=3, speakers=2, turns=4)
LATENCY_PLAN = dict(latency_s=0.02, error_rate=0.03, review_failures=(0, 0, 0, 1), triples_per_batch=4)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long-books",
            # state_at scans every supersede link of the book, so its cost
            # grows with plots per book times triples per batch. 16 plots of
            # 36 triples gather as many links as 24 plots of 24, with a third
            # fewer model calls, so that three or more repetitions fit in a run.
            corpus=dict(books=1, plots=16, cast=3, speakers=2, turns=4),
            plan=dict(latency_s=0.0, error_rate=0.0, review_failures=(0, 0, 0, 1), triples_per_batch=36,
                      keep=0.2, refine=0.3, negate=0.2),
            merge="trust_llm_diff",
            context="both",
            triples="both",
        ),
        Workload(
            "many-books-latency",
            corpus=MANY_BOOKS,
            plan=LATENCY_PLAN,
            merge="deterministic_merge",
            context="current",
            triples="on",
        ),
        Workload(
            "warm-rerun",
            corpus=MANY_BOOKS,
            plan=LATENCY_PLAN,
            merge="deterministic_merge",
            context="current",
            triples="on",
            fill_cache=True,
            setup_repeats=3,
        ),
    )
}


# --- processes ---------------------------------------------------------------------------

# CPUs this run may use, read before run.py pins itself. Stage processes
# and the backend get the last one, run.py the first. Pinning keeps stage
# processes from migrating, which roughly halves the run-to-run spread of
# process start-up on a 2-core machine. Sharing one CPU with the backend
# hands it straight from client to backend and back on each request; on
# separate CPUs each request woke an idle vCPU twice, which on a contended
# virtual machine added up to a few ms per call, varying from run to run.
# With one CPU everything shares it. Where the platform cannot pin, nothing
# is pinned.
CAN_PIN = hasattr(os, "sched_setaffinity")
ALLOWED_CPUS = sorted(os.sched_getaffinity(0)) if CAN_PIN else list(range(os.cpu_count() or 1))
STAGE_CPUS, HOST_CPUS = {ALLOWED_CPUS[-1]}, {ALLOWED_CPUS[0]}


def nproc() -> int:
    return len(ALLOWED_CPUS)


def pin(cpus: set[int]):
    """A preexec_fn that pins the child to `cpus`, or None where pinning is unavailable."""
    return (lambda: os.sched_setaffinity(0, cpus)) if CAN_PIN else None


# --- host speed --------------------------------------------------------------------------

# On a shared virtual machine the CPU speed of every process drifts, on both
# vCPUs at once, by up to 1.5x for seconds to minutes at a time. A run of
# tens of seconds cannot average that out, so ten runs of the same code
# spread by about 0.2. The benchmark therefore times a fixed piece of
# interpreter work on the stage CPU between timed steps and scales each
# step's CPU time, and the backend's, to a reference speed; time spent waiting
# is kept as measured.
# The calibration is benchmark code, so a change to tomtrace cannot move it.
REFERENCE_CALIBRATION_S = 0.020  # CPU time of calibrate() on a 2-vCPU Xeon VM in a fast phase
SPEED_WINDOW_S = 5.0
_CALIBRATION_CODE = marshal.dumps(compile(inspect.getsource(argparse), "argparse", "exec"))


def calibrate() -> float:
    """CPU seconds a fixed mix of unmarshalling, exec, arithmetic and allocation takes now.

    The cyclic collector is off while it runs, so the size of run.py's own
    heap does not count, and one untimed pass warms the caches first.
    """
    if CAN_PIN:
        os.sched_setaffinity(0, STAGE_CPUS)
    gc.disable()
    try:
        exec(marshal.loads(_CALIBRATION_CODE), {"__name__": "calibration"})
        start = time.thread_time()
        for _ in range(6):
            exec(marshal.loads(_CALIBRATION_CODE), {"__name__": "calibration"})
        total = 0
        for i in range(100_000):
            total += i * i
        table = {str(i): [i] for i in range(25_000)}
        del table
        return time.thread_time() - start
    finally:
        gc.enable()
        if CAN_PIN:
            os.sched_setaffinity(0, HOST_CPUS)


class HostSpeed:
    """Calibrations taken between timed steps, with the time each was taken."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.sample()

    def sample(self) -> None:
        self.samples.append((time.monotonic(), calibrate()))

    def factor(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran from `start` to `end`:
        the median of the calibrations taken within SPEED_WINDOW_S of that span,
        so one disturbed calibration does not move it."""
        near = [c for t, c in self.samples if start - SPEED_WINDOW_S <= t <= end + SPEED_WINDOW_S]
        return statistics.median(near) / REFERENCE_CALIBRATION_S


def stage_env(work: Path) -> dict[str, str]:
    """Fixed, minimal environment: no proxies, no caller shell state."""
    return {
        "PATH": f"{Path(sys.executable).parent}:/usr/bin:/bin",
        "PYTHONPATH": str(SRC),
        "HOME": str(work),
        "LANG": "C.UTF-8",
        "PYTHONHASHSEED": "0",
        TOKEN_VAR: "perfbench-dummy-token",
    }


class BackendProcess:
    """The simulated backend, in its own process."""

    def __init__(self, plan: dict, work: Path) -> None:
        self._stderr = open(work / "backend.stderr", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "backend.py"), "--plan", json.dumps(plan)],
            preexec_fn=pin(STAGE_CPUS),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env={"PATH": stage_env(work)["PATH"], "LANG": "C.UTF-8"},
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("ready "):
            self.stop()
            raise RuntimeError(f"backend did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def _call(self, path: str, body: dict | None = None) -> dict:
        data = None if body is None else json.dumps(body).encode("utf-8")
        with urllib.request.urlopen(urllib.request.Request(self.url + path, data=data), timeout=30) as resp:
            return json.loads(resp.read())

    def log(self) -> tuple[list[dict], float]:
        """Requests served since the last reset, and the server's CPU seconds so far."""
        reply = self._call("/log")
        return reply["log"], reply["cpu_s"]

    def reset(self) -> float:
        """Clears the request log; returns the server's CPU seconds so far."""
        return self._call("/reset", {})["cpu_s"]

    def configure(self, **changes) -> None:
        self._call("/configure", changes)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


@dataclass
class StageRun:
    name: str
    code: int
    wall: float
    cpu: float
    rss_mb: float
    start: float
    end: float
    stdout: str
    stderr: str
    log: list[dict] = field(default_factory=list)
    backend_cpu: float = 0.0  # CPU seconds the backend spent meanwhile
    speed: float = 1.0  # HostSpeed factor over the run, set by set_speeds

    @property
    def ref_wall(self) -> float:
        """Wall time with the CPU time of the stage and of the backend scaled to
        the reference speed. The two overlap when the stage has several requests
        in flight, so `busy` can exceed `wall`; the result stays positive."""
        busy = self.cpu + self.backend_cpu
        return self.wall - busy + busy / self.speed


def run_process(argv: list[str], work: Path, tag: str) -> StageRun:
    """Run one process to completion; wall, CPU and max RSS come from wait4."""
    logs = work / "logs"
    logs.mkdir(exist_ok=True)
    out_path, err_path = logs / f"{tag}.stdout", logs / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=work, env=stage_env(work), stdout=out, stderr=err,
                                preexec_fn=pin(STAGE_CPUS))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: do not leave the stage running
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(
        name=tag,
        code=proc.returncode,
        wall=end - start,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        start=start,
        end=end,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


# --- set-up ------------------------------------------------------------------------------

@dataclass
class Setup:
    wl: Workload
    seed: int
    work: Path
    spec: corpusgen.CorpusSpec
    backend: BackendProcess
    ood_books: set[str]
    speed: HostSpeed
    steps: dict[str, float] = field(default_factory=dict)  # at reference speed
    raw_steps: dict[str, float] = field(default_factory=dict)
    fill: list[StageRun] = field(default_factory=list)
    fill_digests: dict[str, str] = field(default_factory=dict)


def write_config(work: Path, wl: Workload, spec: corpusgen.CorpusSpec, seed: int, endpoint: str) -> None:
    config = {
        "seed": seed,
        "out_dir": "out",
        "cache_dir": "cache",
        "corpus": {
            "input": "corpus/books",
            "format": "coser",
            "alias_tables": {b.book_id: f"corpus/aliases/{b.book_id}.txt" for b in spec.books},
        },
        "backend": {
            "name": "simulated",
            "endpoint": endpoint,
            "auth_env_var": TOKEN_VAR,
            "model": MODEL,
            "max_in_flight": min(2, nproc()),
            "requests_per_minute": 1_000_000,
            "retry_max_attempts": 3,
            "retry_base_backoff_s": 0.02,
        },
        "merge": {"mode": wl.merge, "antonym_pairs": [["hopeful", "grim"]]},
        "triples": {"strict_perspective": False},
        "qagen": {"shuffle_options": False},
        "verification": {"question_sample_rate": 1.0, "triple_sample_rate": 1.0, "max_attempts": MAX_ATTEMPTS},
        "eval": {"models": [MODEL], "context": wl.context, "triples": wl.triples},
        "ft": {"ood_books": [spec.books[-1].title], "require_human_verified": True, "with_triples": "both"},
    }
    # JSON is valid YAML.
    (work / "pipeline.yaml").write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")


def set_up(wl: Workload, seed: int, work: Path, trace_fill: bool = False) -> Setup:
    """Corpus, config and backend; for a warm workload also the cache-filling run.

    The fill runs at 0 ms latency without transient errors: answers do not
    depend on either, so the cache holds what a slow fill would store.
    `Setup.steps` times corpus generation, backend start-up and each fill
    stage; the first two are all CPU work.
    """
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    speed = HostSpeed()
    start = time.monotonic()
    spec = corpusgen.generate(work / "corpus", seed=seed, **wl.corpus)
    generated = time.monotonic()
    speed.sample()
    plan = {**wl.plan, "seed": seed}
    if wl.fill_cache:
        plan.update(latency_s=0.0, error_rate=0.0)
    started = time.monotonic()
    backend = BackendProcess(plan, work)
    ready = time.monotonic()
    speed.sample()
    write_config(work, wl, spec, seed, backend.url + "/v1/chat")
    setup = Setup(wl, seed, work, spec, backend, {spec.books[-1].book_id}, speed,
                  raw_steps={"corpus": generated - start, "backend": ready - started})
    if wl.fill_cache:
        setup.fill = run_pipeline(setup, cold=True, stages=PIPELINE[:FILL_STAGES], tag="fill",
                                  spans=work / "fill-spans" if trace_fill else None)
        set_speeds(setup, [setup.fill])
        setup.raw_steps.update({f"fill.{r.name}": r.wall for r in setup.fill})
        setup.fill_digests = fill_digests(work / "out")
        backend.configure(latency_s=wl.plan["latency_s"], error_rate=wl.plan["error_rate"])
    setup.steps = {
        # corpus generation and backend start-up are all CPU work
        "corpus": (generated - start) / speed.factor(start, generated),
        "backend": (ready - started) / speed.factor(started, ready),
        **{f"fill.{r.name}": r.ref_wall for r in setup.fill},
    }
    return setup


def timed_setups(wl: Workload, seed: int, work: Path, repeats: int,
                 trace_fill: bool = False) -> tuple[Setup, list[Setup]]:
    """Set up `repeats` times and keep the last; returns it with every set-up (their backends stopped)."""
    setups = []
    for _ in range(repeats):
        if setups:
            setups[-1].backend.stop()
        setups.append(set_up(wl, seed, work, trace_fill))
    return setups[-1], setups


def setup_seconds(steps: list[dict[str, float]]) -> float:
    """Sum of per-step medians, so a slow moment in one set-up moves one step only."""
    names = dict.fromkeys(name for s in steps for name in s)
    return sum(statistics.median(s[name] for s in steps if name in s) for name in names)


def fill_digests(out: Path) -> dict[str, str]:
    """Digests of the files the cache-served stages write and later stages keep."""
    names = [p for p in sorted(out.rglob("*")) if p.is_file()
             and (p.parts[-2] in ("triples", "kg") or p.name in ("verdicts.jsonl", "predictions.jsonl", "report.txt"))]
    return {p.relative_to(out).as_posix(): checks.file_digest(p) for p in names}


# --- one pipeline ------------------------------------------------------------------------

def fill_review(path: Path, seed: int) -> None:
    """Fill the verdict column as a human would: pass all but a seeded share."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    qid, verdict = rows[0].index("question_id"), rows[0].index("verdict")
    for row in rows[1:]:
        row[verdict] = "fail" if backend_unit(seed, row[qid], "human") < HUMAN_FAIL_SHARE else "pass"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def run_pipeline(setup: Setup, *, cold: bool, stages=PIPELINE, tag: str = "rep", spans: Path | None = None) -> list[StageRun]:
    """Run the stages in order from an empty out/ (and, if cold, an empty cache)."""
    work = setup.work
    shutil.rmtree(work / "out", ignore_errors=True)
    if cold:
        shutil.rmtree(work / "cache", ignore_errors=True)
    runs = []
    for stage in stages:
        name = stage[0]
        if spans is None:
            argv = [sys.executable, "-c", CLI_CODE]
        else:
            spans.mkdir(parents=True, exist_ok=True)
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans / f"{name}.json")]
        argv += ["-c", "pipeline.yaml", *stage]
        backend_cpu = setup.backend.reset()
        run = run_process(argv, work, f"{tag}.{name}")
        setup.speed.sample()
        run.name = name
        run.log, now = setup.backend.log()
        run.backend_cpu = now - backend_cpu
        runs.append(run)
        if run.code != 0:
            break
        if name == "review-export":
            fill_review(work / "out" / "review.csv", setup.seed)
    return runs


def set_speeds(setup: Setup, reps: list[list[StageRun]]) -> None:
    for rep in reps:
        for run in rep:
            run.speed = setup.speed.factor(run.start, run.end)


# --- expectations and checks --------------------------------------------------------------

@dataclass
class Expected:
    pairs: int
    questions: int
    verify_calls: int
    regen_calls: int
    verified: int
    first_pass: int
    predictions: int

    @property
    def model_calls(self) -> int:
        return 2 * self.pairs + self.verify_calls + self.regen_calls + self.predictions


def expected_counts(setup: Setup) -> Expected:
    """What the generator's shape and the backend's review plan imply."""
    pairs = setup.spec.speaking_pairs
    plan = setup.wl.plan["review_failures"]
    rounds = [min(f, MAX_ATTEMPTS - 1) for f in plan]
    conditions = (2 if setup.wl.context == "both" else 1) * (2 if setup.wl.triples == "both" else 1)
    return Expected(
        pairs=pairs,
        questions=4 * pairs,
        verify_calls=pairs * sum(r + 1 for r in rounds),
        regen_calls=pairs * sum(rounds),
        verified=pairs * sum(1 for f in plan if f < MAX_ATTEMPTS),
        first_pass=pairs * plan.count(0),
        predictions=4 * pairs * conditions,
    )


def served(runs: list[StageRun], stage: str, kind: str) -> list[dict]:
    return [e for r in runs if r.name == stage for e in r.log if e["kind"] == kind and e["status"] == 200]


def check_rep(setup: Setup, runs: list[StageRun], exp: Expected) -> list[str]:
    """Exit codes, printed counts and backend counts of one pipeline run."""
    if len(runs) != len(PIPELINE) or any(r.code != 0 for r in runs):
        failed = [f"{r.name} exited {r.code}: {r.stderr.strip()[-300:]}" for r in runs if r.code != 0]
        return failed or ["pipeline stopped early"]
    out = setup.work / "out"
    by = {r.name: r.stdout for r in runs}
    problems = []
    spec = setup.spec
    problems += checks.check_stdout(
        "ingest", by["ingest"],
        f"ingested {len(spec.books)} book(s): {spec.total_plots} plots, {spec.total_plots} conversations\n")
    fill = setup.fill or runs
    triples = sum(e["triples"] for e in served(fill, "extract", "extract"))
    problems += checks.check_stdout("extract", by["extract"], f"extracted {triples} triples (0 rejected)\n")
    problems += checks.check_kg_counts(out, by["build-kg"])
    problems += checks.check_stdout("genqa", by["genqa"], f"generated {exp.questions} questions\n")
    problems += checks.check_stdout(
        "verify", by["verify"],
        re.compile(rf"verified {exp.verified}/{exp.questions} questions; first-pass rate [0-9.]+ "
                   rf"\({exp.first_pass}/{exp.questions}\)\n"))
    problems += checks.check_stdout("eval", by["eval"], (out / "report.txt").read_text(encoding="utf-8"))
    problems += checks.check_stdout("report", by["report"], (out / "report.csv").read_text(encoding="utf-8"))
    problems += checks.check_stdout(
        "review-export", by["review-export"], f"exported {exp.verified} question(s) to out/review.csv\n")
    problems += checks.check_stdout(
        "review-import", by["review-import"], f"applied {exp.verified} verdict(s), skipped 0 blank row(s)\n")
    passes = checks.review_counts(out / "review.csv", setup.ood_books)
    problems += checks.check_stdout("emit-ft", by["emit-ft"], "".join(
        f"out/ft/{split}_{variant}_triples.jsonl: {passes[split]} example(s)\n"
        for split in ("train", "ood_test") for variant in ("with", "without")))
    predictions = (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
    if len(predictions) != exp.predictions:
        problems.append(f"{len(predictions)} predictions, expected {exp.predictions}")
    backend_counts = {
        "extract": (len(served(fill, "extract", "extract")), exp.pairs),
        "genqa": (len(served(fill, "genqa", "genqa")), exp.pairs),
        "verify": (len(served(fill, "verify", "verify")), exp.verify_calls),
        "regenerate": (len(served(fill, "verify", "regenerate")), exp.regen_calls),
    }
    for kind, (got, want) in backend_counts.items():
        if got != want:
            problems.append(f"backend answered {got} {kind} requests, expected {want}")
    evals = len(served(fill, "eval", "eval"))
    if not 0 < evals <= exp.predictions:
        problems.append(f"backend answered {evals} eval requests for {exp.predictions} predictions")
    if setup.fill:
        requests = sum(len(r.log) for r in runs)
        if requests:
            problems.append(f"warm rerun sent {requests} backend requests, expected 0")
        for name, digest in setup.fill_digests.items():
            if checks.file_digest(out / name) != digest:
                problems.append(f"out/{name} differs from the cache-filling run")
    return problems


def check_tree(setup: Setup) -> list[str]:
    """Checks on the final out/ tree (every run's tree has the same digest)."""
    out = setup.work / "out"
    return (
        checks.check_report_csv(out)
        + checks.check_ft_triples(out, setup.ood_books)
        + checks.check_no_timing(out)
    )


def eval_errors(setup: Setup) -> int:
    """Predictions whose model call still failed after retries."""
    path = setup.work / "out" / "predictions.jsonl"
    if not path.is_file():
        return 0
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if json.loads(line).get("error"))


# --- metrics ------------------------------------------------------------------------------

def pipeline_metrics(reps: list[list[StageRun]], exp: Expected) -> dict[str, float]:
    """End-to-end metrics from per-stage medians over the repetitions.

    Summing per-stage medians keeps a burst of machine noise in one stage of
    one repetition out of the totals. Times are at the reference speed except
    `pipeline_wall_raw_s`, the sum of the per-stage medians as measured.
    """
    def median(value) -> dict[str, float]:
        return {name: statistics.median(value(r) for rep in reps for r in rep if r.name == name)
                for name in STAGE_NAMES}

    wall = median(lambda r: r.ref_wall)
    return {
        "pipeline_wall_s": sum(wall.values()),
        "llm_calls_per_s": exp.model_calls / sum(wall[s] for s in MODEL_STAGES),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in rep) for rep in reps),
        # printed, not bounded
        "pipeline_cpu_s": sum(median(lambda r: r.cpu / r.speed).values()),
        "pipeline_wall_raw_s": sum(median(lambda r: r.wall).values()),
        "host_speed_factor": statistics.median(r.speed for rep in reps for r in rep),
        "offline_wall_s": sum(wall[s] for s in OFFLINE_STAGES),
        **{f"{name}_wall_s": wall[name] for name in STAGE_NAMES},
    }


def _first(span: tracer.Span, name: str):
    return next((d for d in span.descendants() if d.name == name), None)


def gateway_layer(spans_by_stage: dict[str, list[tracer.Span]], runs: list[StageRun]) -> dict[str, float]:
    """Client overhead per Gateway.complete and batch queue wait.

    Overhead is the call's duration minus the backend service time of the
    requests it caused, joined by request digest and time containment. A
    cache hit causes none, so on warm-rerun this is the cost of a cache read.
    """
    overheads, waits = [], []
    logs = {r.name: r.log for r in runs}
    for stage, spans in spans_by_stage.items():
        for span in spans:
            if span.name == "llmgate.Gateway.submit_batch":
                waits += [(c.start - span.start) * 1e3 for c in span.children if c.name == "llmgate.Gateway.complete"]
            if span.name != "llmgate.Gateway.complete":
                continue
            digest = _first(span, "llmgate.ChatRequest.digest")
            entries = [e for e in logs.get(stage, []) if digest is not None and e["digest"] == digest.extra
                       and span.start <= e["arrival"] <= span.end]
            overheads.append((span.duration - sum(e["end"] - e["arrival"] for e in entries)) * 1e3)
    return {
        "llmgate.client_overhead.p50_ms": tracer.quantile(overheads, 0.5),
        "llmgate.client_overhead.p99_ms": tracer.quantile(overheads, 0.99),
        "llmgate.submit_batch.queue_wait.p50_ms": tracer.quantile(waits, 0.5),
    }


def backend_layer(runs: list[StageRun], fill: list[StageRun]) -> dict[str, float]:
    """Backend-side numbers from the untraced run: service time, retries, occupancy.

    A warm rerun sends no requests, so its service time comes from the
    cache-filling run that answered the same prompts.
    """
    entries = [e for r in runs for e in r.log]
    served_entries = entries or [e for r in fill for e in r.log]
    metrics = {
        "llmgate.backend_requests": float(len(entries)),
        "llmgate.service.p50_ms": tracer.quantile([(e["end"] - e["arrival"]) * 1e3 for e in served_entries], 0.5),
        "llmgate.retries": float(sum(1 for e in entries if e["status"] in (429, 503))),
    }
    for r in runs:
        if r.name not in MODEL_STAGES:
            continue
        busy, reach = 0.0, r.start
        for lo, hi in sorted((e["arrival"], e["end"]) for e in r.log):
            lo = max(lo, reach)
            if hi > lo:
                busy += hi - lo
                reach = hi
        metrics[f"llmgate.in_flight_mean.{r.name}"] = sum(e["end"] - e["arrival"] for e in r.log) / r.wall
        metrics[f"llmgate.backend_idle_share.{r.name}"] = 1.0 - busy / r.wall
    return metrics


def fill_index(setup: Setup) -> tracer.SpanIndex:
    """Spans of the traced cache-filling run (warm workloads only)."""
    files = sorted((setup.work / "fill-spans").glob("*.json")) if setup.fill else []
    return tracer.SpanIndex([s for f in files for s in tracer.load_spans(f)])


def layer_metrics(setup: Setup, plain: list[StageRun], traced: list[StageRun], spans_dir: Path,
                  startup: list[float]) -> dict[str, float]:
    spans_by_stage = {r.name: tracer.load_spans(spans_dir / f"{r.name}.json") for r in traced}
    ix = tracer.SpanIndex([s for spans in spans_by_stage.values() for s in spans])
    out = setup.work / "out"
    by = {r.name: r.stdout for r in traced}
    kg = [tuple(map(int, m)) for m in re.findall(r"(\d+) edges, (\d+) supersede links, (\d+) retirements",
                                                 by["build-kg"])]
    first, total = map(int, re.search(r"\((\d+)/(\d+)\)", by["verify"]).groups())
    kept = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (out / "triples").glob("*.jsonl")
               if not p.name.endswith(".rejects.jsonl"))
    parsed = sum(s.extra for s in ix.get("triples.parse_triple_response"))
    predictions = [json.loads(line) for line in (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()]
    completes = ix.calls("llmgate.Gateway.complete")
    hits = sum(s.extra for s in ix.get("llmgate.ResponseCache.get"))
    metrics = {
        "cli.startup_s": statistics.median(startup),
        "cli.manifest_s": ix.total("cli.RunContext.write_manifest"),
        **{f"cli.{r.name}.wall_s": r.wall for r in plain},
        **{f"cli.{s}.self_s": ix.self_total(f"cli.{s}") for s in STAGE_NAMES},
        "config.load_config_s": ix.total("config.load_config"),
        "corpus.ingest_corpus_s": ix.total("corpus.ingest_corpus"),
        "corpus.ingest_corpus.calls": ix.calls("corpus.ingest_corpus"),
        "corpus.serialize_corpus_s": ix.total("corpus.serialize_corpus"),
        "triples.build_extraction_prompt_s": ix.total("triples.build_extraction_prompt"),
        "triples.parse_triple_response_s": ix.total("triples.parse_triple_response"),
        "triples.validate_triple_s": ix.total("triples.validate_triple"),
        "triples.kept_ratio": kept / parsed if parsed else 0.0,
        "tkg.state_at_s": ix.total("tkg.state_at"),
        "tkg.state_at.calls": ix.calls("tkg.state_at"),
        "tkg.state_at.p50_us": tracer.quantile([s.duration * 1e6 for s in ix.get("tkg.state_at")], 0.5),
        "tkg.state_at.p99_us": tracer.quantile([s.duration * 1e6 for s in ix.get("tkg.state_at")], 0.99),
        "tkg.insert_batch_s": ix.total("tkg.insert_batch"),
        "tkg.insert_batch.calls": ix.calls("tkg.insert_batch"),
        "tkg.save_kg_s": ix.total("tkg.save_kg"),
        "tkg.load_kg_s": ix.total("tkg.load_kg"),
        "tkg.edges": sum(k[0] for k in kg),
        "tkg.links": sum(k[1] for k in kg),
        "tkg.retirements": sum(k[2] for k in kg),
        "qagen.build_question_prompt_s": ix.total("qagen.build_question_prompt"),
        "qagen.parse_question_response_s": ix.total("qagen.parse_question_response"),
        "qagen.llm_verify.calls": ix.calls("qagen.llm_verify"),
        "qagen.regenerate.calls": ix.calls("qagen.regenerate"),
        "qagen.first_pass_ratio": first / total if total else 0.0,
        "qagen.question_io_s": ix.total("qagen.save_questions") + ix.total("qagen.load_questions"),
        "evalharness.assemble_context.self_s": ix.self_total("evalharness.assemble_context"),
        "evalharness.assemble_context.calls": ix.calls("evalharness.assemble_context"),
        "evalharness.parse_answer_s": ix.total("evalharness.parse_answer"),
        "evalharness.score_s": ix.total("evalharness.score"),
        "evalharness.render_report_s": ix.total("evalharness.render_report"),
        "evalharness.parsed_ratio": sum(1 for p in predictions if p["letter"]) / len(predictions),
        "ftemit.emit_example.self_s": ix.self_total("ftemit.emit_example"),
        "ftemit.write_training_file_s": ix.total("ftemit.write_training_file"),
        "llmgate.complete.calls": completes,
        "llmgate.cache_hit_ratio": hits / completes if completes else 0.0,
        "llmgate.cache_get.p50_us": ix.median_us("llmgate.ResponseCache.get"),
        "llmgate.cache_put.p50_us": (ix if ix.calls("llmgate.ResponseCache.put") else fill_index(setup))
        .median_us("llmgate.ResponseCache.put"),
        "llmgate.digest_per_call": ix.calls("llmgate.ChatRequest.digest") / completes if completes else 0.0,
        **gateway_layer(spans_by_stage, traced),
        **backend_layer(plain, setup.fill),
        "trace.overhead_s": sum(r.wall for r in traced) - sum(r.wall for r in plain),
    }
    return {k: float(v) for k, v in metrics.items()}


# --- main ---------------------------------------------------------------------------------

def environment() -> dict[str, object]:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "src_digest": checks.tree_digest(SRC / "tomtrace")[:16],
        "python": platform.python_version(),
        "nproc": nproc(),
    }


def measure(setup: Setup, seconds: float, trace: bool) -> tuple[dict[str, float], int, int, list[str], dict]:
    """Timed repetitions (or one untraced and one traced run) plus every check."""
    exp = expected_counts(setup)
    problems: list[str] = []
    reps: list[list[StageRun]] = []
    digests: list[str] = []
    start = time.monotonic()
    cold = not setup.wl.fill_cache
    if trace:
        spans_dir = setup.work / "spans"
        for spans in (None, spans_dir):
            reps.append(run_pipeline(setup, cold=cold, spans=spans, tag="traced" if spans else "rep"))
            problems += check_rep(setup, reps[-1], exp)
            digests.append(checks.tree_digest(setup.work / "out"))
        startup = [run_process([sys.executable, "-c", CLI_CODE, "--version"], setup.work, "version").wall
                   for _ in range(5)]
    else:
        while True:
            reps.append(run_pipeline(setup, cold=cold, tag=f"rep{len(reps)}"))
            problems += check_rep(setup, reps[-1], exp)
            digests.append(checks.tree_digest(setup.work / "out"))
            elapsed = time.monotonic() - start
            # Stop when another repetition would end more than half of
            # itself past `seconds`, so runs measure `seconds` on average.
            if problems or elapsed + elapsed / len(reps) / 2 > seconds:
                break
    set_speeds(setup, reps)
    if len(set(digests)) != 1:
        problems.append(f"out/ trees differ across {len(digests)} runs of one seed")
    complete = not any(len(r) != len(PIPELINE) or r[-1].code != 0 for r in reps)
    if complete:
        problems += check_tree(setup)
    stage_failures = sum(1 for rep in reps for r in rep if r.code != 0)
    attempted = len(reps) * (exp.model_calls + len(PIPELINE))
    failed = stage_failures + eval_errors(setup) * len(reps) + len(problems)
    if not complete:
        return {}, attempted, failed, problems, {}
    if trace:
        metrics = layer_metrics(setup, reps[0], reps[1], spans_dir, startup)
    else:
        metrics = pipeline_metrics(reps, exp)
    detail = {"reps": len(reps), "stage_walls": [{r.name: r.wall for r in rep} for rep in reps],
              "stage_cpus": [{r.name: r.cpu for r in rep} for rep in reps],
              "stage_backend_cpus": [{r.name: r.backend_cpu for r in rep} for rep in reps],
              "stage_spans": [{r.name: (r.start, r.end) for r in rep} for rep in reps],
              "calibrations": setup.speed.samples,
              "expected": exp.__dict__}
    return metrics, attempted, failed, problems, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="tomtrace offline pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tomtrace" / "cli.py").is_file():
        print(f"error: no tomtrace sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    table = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    # Turn SIGTERM into SystemExit so the backend is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if CAN_PIN:
        os.sched_setaffinity(0, HOST_CPUS)
    work = WORK / f"{wl.name}-s{args.seed}-t{args.trace}"
    setup = None
    try:
        if args.trace:
            # The traced fill supplies cache-write samples a warm rerun never makes.
            setup, setups = timed_setups(wl, args.seed, work, 1, trace_fill=True)
        else:
            setup, setups = timed_setups(wl, args.seed, work, wl.setup_repeats)
        fill_problems = []
        if setup.fill and (len(setup.fill) != FILL_STAGES or any(r.code for r in setup.fill)):
            fill_problems = ["cache-filling run failed"]
        metrics, attempted, failed, problems, detail = measure(setup, args.seconds, bool(args.trace))
    finally:
        if setup is not None:
            setup.backend.stop()
    problems = fill_problems + problems
    failed += len(fill_problems)
    if not args.trace:
        metrics["setup_s"] = setup_seconds([s.steps for s in setups])
        metrics["setup_raw_s"] = setup_seconds([s.raw_steps for s in setups])
    if metrics:
        missing = [name for name in table if name not in metrics]
        problems += [f"metric {name} listed in BENCHMARK.json but not measured" for name in missing]
        failed += len(missing)
    env = environment()
    print(f"workload={wl.name} seed={args.seed} trace={args.trace} reps={detail.get('reps', 0)} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {table.get(name, '(not bounded)')}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table.items() if name in metrics},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{work.name}.json").write_text(
        json.dumps({**result, "all_metrics": metrics, "environment": env,
                    "setup_steps": [s.steps for s in setups], "setup_raw_steps": [s.raw_steps for s in setups],
                    "detail": detail}, indent=1),
        encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
