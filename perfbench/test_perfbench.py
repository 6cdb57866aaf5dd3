"""Tests of the benchmark itself: generator, simulated backend, output checks.

Run with `PYTHONPATH=src python3 -m pytest perfbench`.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import backend  # noqa: E402
import checks  # noqa: E402
import corpusgen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tomtrace.corpus import corpus_stats, ingest_corpus  # noqa: E402
from tomtrace.evalharness import ContextMode, EvalCondition, assemble_context, parse_answer  # noqa: E402
from tomtrace.llmgate import ChatResponse  # noqa: E402
from tomtrace.qagen import (  # noqa: E402
    QuestionState,
    build_question_prompt,
    build_verification_prompt,
    parse_question_response,
    parse_verdict_response,
    regenerate,
)
from tomtrace.triples import build_extraction_prompt, parse_triple_response  # noqa: E402


def _loopback_available() -> bool:
    try:
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
        return True
    except OSError:
        return False


# --- corpus generator -------------------------------------------------------------------

@pytest.mark.parametrize("shape", [
    dict(books=2, plots=5, cast=3, speakers=2, turns=4),
    dict(books=3, plots=4, cast=5, speakers=3, turns=7),
])
def test_generated_books_ingest_with_matching_stats(tmp_path, shape):
    spec = corpusgen.generate(tmp_path, seed=5, **shape)
    corpus = ingest_corpus(spec.books_dir, "coser", alias_tables=spec.alias_tables())
    stats = corpus_stats(corpus)
    assert len(corpus.books) == shape["books"]
    assert stats.total_plots == shape["books"] * shape["plots"]
    assert stats.total_conversations == shape["books"] * shape["plots"]
    assert stats.avg_speakers == f"{shape['speakers']}.00"
    for book, book_spec in zip(sorted(corpus.books, key=lambda b: b.id), sorted(spec.books, key=lambda b: b.book_id)):
        assert book.id == book_spec.book_id
        for plot in book.plots:
            speakers = sorted({t.speaker for c in plot.conversations for t in c.turns})
            assert speakers == book_spec.speakers[plot.index]  # aliases resolved to canonical names
            assert plot.conversations[0].environment.count("Rain drums") == 1  # Environment turn folded in
    assert spec.speaking_pairs == shape["books"] * shape["plots"] * shape["speakers"]
    raw = (spec.books_dir / f"{spec.books[0].book_id}.json").read_text(encoding="utf-8")
    assert "[" in raw and "(" in raw and "A long silence" in raw


def test_generator_is_deterministic_per_seed(tmp_path):
    shape = dict(books=2, plots=3, cast=3, speakers=2, turns=4)
    a = corpusgen.generate(tmp_path / "a", seed=9, **shape)
    b = corpusgen.generate(tmp_path / "b", seed=9, **shape)
    c = corpusgen.generate(tmp_path / "c", seed=10, **shape)
    assert checks.tree_digest(a.books_dir) == checks.tree_digest(b.books_dir)
    assert checks.tree_digest(a.books_dir) != checks.tree_digest(c.books_dir)


# --- simulated backend against the real parsers ----------------------------------------------

@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    spec = corpusgen.generate(tmp_path_factory.mktemp("corpus"), seed=3, books=1, plots=30, cast=3,
                              speakers=2, turns=4)
    return ingest_corpus(spec.books_dir, "coser", alias_tables=spec.alias_tables())


def test_every_extraction_response_style_parses(small_corpus):
    plan = backend.Plan(seed=1, triples_per_batch=6)
    book = small_corpus.books[0]
    styles, previous = set(), {}
    for plot in book.plots:
        for character in sorted({t.speaker for t in plot.conversations[0].turns}):
            request = build_extraction_prompt(plot, plot.conversations, character, previous.get(character, []),
                                              model_id="m")
            text, info = backend.extraction_response(request.messages[0][1], plan)
            styles.add("fenced" if text.startswith("```") else "json" if text.startswith("{") else "tuples")
            batch = parse_triple_response(text, character, plot.index, book_id=book.id)
            assert not batch.rejects
            assert len(batch.triples) == info["triples"] == plan.triples_per_batch
            if character in previous:
                assert info["kept"] + info["refined"] + info["negated"] + info["dropped"] == len(previous[character])
            previous[character] = batch.triples
    assert styles == {"fenced", "json", "tuples"}


def _generated_questions(corpus, plan):
    plot = corpus.books[0].plots[0]
    character = plot.conversations[0].turns[0].speaker
    request = build_question_prompt(plot, plot.conversations, character, [], model_id="m")
    text, _ = backend.generation_response(request.messages[0][1], plan)
    return parse_question_response(text, book_id=corpus.books[0].id, plot_index=1, character=character)


def test_generation_verification_and_regeneration_responses_parse(small_corpus):
    plan = backend.Plan(seed=2, review_failures=(0, 0, 1, 2))
    questions = _generated_questions(small_corpus, plan)
    assert len(questions) == 4

    class OneShotGateway:
        def complete(self, request):
            text, _ = backend.regeneration_response(request.messages[0][1], plan)
            return ChatResponse(text=text, prompt_tokens=1, output_tokens=1, backend_id="sim")

    rounds = []
    for question in questions:
        count = 0
        while True:
            prompt = build_verification_prompt(question, model_id="m").messages[0][1]
            text, info = backend.verification_response(prompt, plan)
            passed, _ = parse_verdict_response(text)
            assert passed == info["passed"]
            if passed:
                break
            question.state = QuestionState.REJECTED
            question = regenerate(question, OneShotGateway(), 5, model_id="m", notes="overlap")
            count += 1
        rounds.append(count)
    assert sorted(rounds) == [0, 0, 1, 2]


def test_every_eval_response_style_parses(small_corpus):
    corpus = small_corpus
    seen = set()
    for seed in range(40):
        plan = backend.Plan(seed=seed, malformed_share=0.2)
        for question in _generated_questions(corpus, plan):
            prompt = assemble_context(question, corpus, None, EvalCondition(ContextMode.CURRENT_PLOT, False))
            text, info = backend.eval_response(prompt.text, plan)
            assert parse_answer(text) == info["answer"]
            seen.add(text.splitlines()[0][:12] if info["answer"] else "malformed")
    assert "malformed" in seen and len(seen) >= 5


def test_request_digest_matches_chat_request():
    from tomtrace.llmgate import user_request

    request = user_request("m", "hello", max_output_tokens=7)
    payload = {"model": "m", "messages": [{"role": "user", "content": "hello"}], "temperature": 0.0,
               "max_tokens": 7}
    assert backend.request_digest(payload) == request.digest


def test_transient_errors_depend_on_content_and_attempt_only():
    sim = backend.Backend(backend.Plan(seed=1, error_rate=0.5))
    payload = {"model": "m", "messages": [{"role": "user", "content": "CANDIDATE CHOICES:\nA. x as the scene shows\nB. y\n\n"}],
               "temperature": 0.0, "max_tokens": 9}
    first = [sim.serve(payload, 0.0)[0] for _ in range(3)]
    sim.reset()
    assert [sim.serve(payload, 0.0)[0] for _ in range(3)] == first
    assert first[2] == 200  # a third attempt always succeeds


# --- spans --------------------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    parent = tracer.Span(0, "p", 0.0, 10.0, None, None)
    parent.children = [tracer.Span(1, "a", 1.0, 4.0, 0, None), tracer.Span(2, "b", 3.0, 6.0, 0, None),
                       tracer.Span(3, "c", 8.0, 9.0, 0, None)]
    assert parent.self_time == pytest.approx(4.0)


# --- host speed ---------------------------------------------------------------------------

def test_reference_speed_scales_busy_time_and_keeps_waiting():
    speed = run.HostSpeed()
    ref = run.REFERENCE_CALIBRATION_S
    # one disturbed calibration near the step, one far from it
    speed.samples = [(0.0, 2 * ref), (1.0, 2 * ref), (2.0, 9 * ref), (3.0, 2 * ref), (60.0, 5 * ref)]
    factor = speed.factor(1.0, 2.0)
    assert factor == pytest.approx(2.0)
    stage = run.StageRun("eval", 0, wall=5.0, cpu=2.0, rss_mb=1.0, start=1.0, end=2.0, stdout="", stderr="",
                         backend_cpu=1.0, speed=factor)
    assert stage.ref_wall == pytest.approx(2.0 + 3.0 / 2.0)


# --- output checks on a real run, and on tampered copies -------------------------------------

TINY = run.Workload(
    "tiny", corpus=dict(books=2, plots=2, cast=2, speakers=2, turns=3),
    plan=dict(latency_s=0.0, error_rate=0.2, review_failures=(0, 0, 0, 1), triples_per_batch=3),
    merge="trust_llm_diff", context="both", triples="both",
)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    if not _loopback_available():
        pytest.skip("cannot listen on 127.0.0.1")
    if not hasattr(os, "wait4"):
        pytest.skip("stage processes are timed with os.wait4")
    work = tmp_path_factory.mktemp("run") / "work"
    setup = run.set_up(TINY, 7, work)
    try:
        runs = run.run_pipeline(setup, cold=True)
        digest = checks.tree_digest(work / "out")
    finally:
        setup.backend.stop()
    return setup, runs, digest


def _copy(setup, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(setup.work / "out", out)
    return out


def test_untampered_run_passes_every_check(finished_run):
    setup, runs, digest = finished_run
    exp = run.expected_counts(setup)
    assert run.check_rep(setup, runs, exp) == []
    assert run.check_tree(setup) == []
    assert sum(1 for r in runs for e in r.log if e["status"] != 200) > 0  # retry path exercised
    assert checks.tree_digest(setup.work / "out") == digest


def test_check_rep_catches_exit_codes_counts_and_warm_requests(finished_run, monkeypatch):
    setup, runs, _ = finished_run
    exp = run.expected_counts(setup)
    failed = [run.StageRun(**{**r.__dict__, "code": 2}) if r.name == "verify" else r for r in runs]
    assert run.check_rep(setup, failed[:5], exp)
    wrong = [run.StageRun(**{**r.__dict__, "stdout": r.stdout.replace("generated", "generated 1")})
             if r.name == "genqa" else r for r in runs]
    assert any("genqa" in p for p in run.check_rep(setup, wrong, exp))
    monkeypatch.setattr(setup, "fill", runs)  # pretend these requests were a warm rerun
    assert any("warm rerun" in p for p in run.check_rep(setup, runs, exp))


def test_report_recount_catches_a_changed_cell(finished_run, tmp_path):
    setup, _, _ = finished_run
    out = _copy(setup, tmp_path)
    text = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    cells = text[1].split(",")
    cells[3] = "0.00" if cells[3] != "0.00" else "100.00"
    (out / "report.csv").write_text("\n".join([text[0], ",".join(cells), *text[2:]]) + "\n", encoding="utf-8")
    assert checks.check_report_csv(out)


def test_ft_fold_catches_a_missing_triple(finished_run, tmp_path):
    setup, _, _ = finished_run
    out = _copy(setup, tmp_path)
    path = out / "ft" / "train_with_triples.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    for n, line in enumerate(lines):
        rec = json.loads(line)
        block = rec["output"].split("\n")
        if len(block) > 3:  # header, at least one triple, Answer:, answer object
            rec["output"] = "\n".join(block[:1] + block[2:])
            lines[n] = json.dumps(rec)
            break
    else:
        pytest.fail("no example with triples")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert checks.check_ft_triples(out, setup.ood_books)


def test_kg_count_check_catches_a_wrong_printed_count(finished_run):
    setup, runs, _ = finished_run
    stdout = next(r.stdout for r in runs if r.name == "build-kg")
    assert checks.check_kg_counts(setup.work / "out", stdout) == []
    tampered = stdout.replace(" edges,", "1 edges,", 1)
    assert checks.check_kg_counts(setup.work / "out", tampered)


def test_digest_and_timing_checks_catch_changes(finished_run, tmp_path):
    setup, _, digest = finished_run
    out = _copy(setup, tmp_path)
    assert checks.tree_digest(out) == digest and checks.check_no_timing(out) == []
    manifest = out / "manifests" / "eval.json"
    data = json.loads(manifest.read_text(encoding="utf-8"))
    data["latency_ms"] = 12.5
    manifest.write_text(json.dumps(data), encoding="utf-8")
    assert checks.tree_digest(out) != digest
    assert checks.check_no_timing(out)

