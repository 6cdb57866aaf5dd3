"""End-to-end CLI coverage on the shipped fixture corpus.

One module-scoped chain runs every subcommand in dependency order; the
tests below make read-only assertions against its stdout and artifacts.
Error-path tests use their own scratch directories.
"""

from __future__ import annotations

import ast
import builtins
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml
from hypothesis import event, given, settings
from hypothesis import strategies as st

import tomtrace
from conftest import (
    CONFIG, ENTRY_POINT, PIPELINE, derived_config, http_backend, invoke_cli, run_cli, run_entry_point, send_reply,
    tree_bytes,
)
from test_llmgate import _refused_url
from tomtrace.cli import REPORT_SUFFIXES, RunContext, main
from tomtrace.config import load_config
from tomtrace.evalharness import TRIPLE_BLOCK_HEADER, ReportLayout
from tomtrace.llmgate import MAX_BACKOFF_S, Gateway
from tomtrace.qagen import REVIEW_COLUMNS, QuestionState, load_questions, save_questions
from tomtrace.tkg import check_invariants, load_kg

HEX64 = set("0123456789abcdef")


def _mark_all_pass(path: Path) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    verdict_col = header.index("verdict")
    for row in body:
        row[verdict_col] = "pass"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(body)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Full pipeline plus review round-trip, ft emission, stats, re-renders."""
    out = tmp_path_factory.mktemp("cli") / "out"
    results = dict(zip(PIPELINE, run_cli(out, *PIPELINE)))
    results["review-export"] = run_cli(out, "review-export")[0]
    _mark_all_pass(out / "review.csv")
    results["review-import"] = run_cli(out, f"review-import {out / 'review.csv'}")[0]
    results["review-export-triples"] = run_cli(out, "review-export --kind triples")[0]
    results["emit-ft"] = run_cli(out, "emit-ft")[0]
    results["stats"] = run_cli(out, "stats")[0]
    results["report-markdown"] = run_cli(out, "report --layout markdown")[0]
    results["report-csv"] = run_cli(out, "report --layout csv")[0]
    return out, results


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


# --- happy-path stage assertions ---------------------------------------------------


def test_ingest_reports_corpus_shape(chain):
    out, results = chain
    assert results["ingest"].stdout == "ingested 1 book(s): 2 plots, 2 conversations\n"
    assert (out / "corpus" / "king-lear.jsonl").is_file()


def test_extract_counts_and_record_shape(chain):
    out, results = chain
    assert results["extract"].stdout == "extracted 17 triples (0 rejected)\n"
    records = _jsonl(out / "triples" / "king-lear.jsonl")
    assert len(records) == 17
    assert (out / "triples" / "king-lear.rejects.jsonl").read_text(encoding="utf-8") == ""
    for rec in records:
        assert set(rec) == {
            "book_id", "character", "plot_index", "id",
            "subject", "predicate", "dimension", "target", "object",
        }
        assert rec["book_id"] == "king-lear"


def test_build_kg_summary_matches_saved_graph(chain):
    out, results = chain
    assert results["build-kg"].stdout == "king-lear: 16 edges, 2 supersede links, 1 retirements\n"
    kg = load_kg(out / "kg" / "king-lear.kg.jsonl")
    assert (len(kg.edges), len(kg.supersede_links), len(kg.retirements)) == (16, 2, 1)
    check_invariants(kg)


def test_changelog_accounts_for_every_edge(chain):
    out, _ = chain
    log = _jsonl(out / "kg" / "king-lear.changelog.jsonl")
    added = [edge_id for entry in log for edge_id in entry["added"]]
    assert len(added) == 16
    assert sum(len(entry["contradicted"]) + len(entry["refined"]) for entry in log) == 2
    assert sum(len(entry["retired"]) for entry in log) == 1
    kg = load_kg(out / "kg" / "king-lear.kg.jsonl")
    assert sorted(added) == sorted(kg.edges)


def test_genqa_emits_balanced_question_set(chain):
    out, results = chain
    assert results["genqa"].stdout == "generated 20 questions\n"
    questions = load_questions(out / "questions.jsonl")
    assert len(questions) == 20
    assert len({q.id for q in questions}) == 20
    assert Counter(q.dimension.label for q in questions) == {
        "Belief": 5, "Desire": 5, "Emotion": 5, "Intention": 5,
    }


def test_verify_reports_first_pass_rate(chain):
    out, results = chain
    assert results["verify"].stdout == (
        "verified 20/20 questions; first-pass rate 0.95 (19/20)\n"
    )
    verdicts = _jsonl(out / "verdicts.jsonl")
    assert len(verdicts) == 21
    assert sum(1 for v in verdicts if not v["passed"]) == 1
    counts = Counter(v["question_id"] for v in verdicts)
    assert sorted(counts.values()) == [1] * 19 + [2]
    assert {v["stage"] for v in verdicts} == {"llm"}


def test_eval_prints_the_stored_report(chain):
    out, results = chain
    text = results["eval"].stdout
    assert text == (out / "report.txt").read_text(encoding="utf-8")
    assert "Context: current\n" in text
    assert "Context: current+prev\n" in text
    rows = [line.split() for line in text.splitlines()]
    base = ["replay-gpt", "80.00", "80.00", "100.00", "80.00", "85.00"]
    triple = ["w", "Triple", "100.00", "80.00", "100.00", "80.00", "90.00"]
    assert rows.count(base) == 2
    assert rows.count(triple) == 2
    assert len(_jsonl(out / "predictions.jsonl")) == 80  # 20 questions x 4 conditions


def test_report_rescores_predictions_to_the_same_table(chain):
    _, results = chain
    assert results["report"].stdout == results["eval"].stdout


def test_report_markdown_layout(chain):
    out, results = chain
    text = (out / "report.md").read_text(encoding="utf-8")
    assert results["report-markdown"].stdout == text
    assert "### Context: current\n" in text
    assert "### Context: current+prev\n" in text
    assert "| Models | Belief | Desire | Emotion | Intention | Avg |" in text
    assert "| replay-gpt | 80.00 | 80.00 | 100.00 | 80.00 | 85.00 |" in text
    assert "| w Triple | 100.00 | 80.00 | 100.00 | 80.00 | 90.00 |" in text


def test_report_layout_choices_are_the_report_layouts():
    assert list(REPORT_SUFFIXES) == [layout.value for layout in ReportLayout]


def test_stage_options_only_pick_where_output_goes():
    """Only the config, whose digest the manifest records, decides what a stage computes.

    An option that set a stage setting would change a run without changing its
    manifest, and a rerun from the recorded config could not reproduce it. The
    options left pick the output directory, the logging, or which file is written.
    """
    stage_options = {
        "ingest": set(), "extract": set(), "build-kg": set(), "genqa": set(), "verify": set(),
        "review-export": {"kind", "output_path"}, "review-import": {"csv_path"}, "eval": set(),
        "report": {"layout"}, "emit-ft": set(), "stats": set(),
    }
    assert {name: set(command.params) for name, command in main.commands.items()} == stage_options
    assert set(main.params) == {"config_path", "out_override", "verbose", "version"}


def test_report_csv_layout(chain):
    out, results = chain
    expected = (
        "model,context,condition,belief,desire,emotion,intention,avg\n"
        "replay-gpt,current,base,80.00,80.00,100.00,80.00,85.00\n"
        "replay-gpt,current,w Triple,100.00,80.00,100.00,80.00,90.00\n"
        "replay-gpt,current+prev,base,80.00,80.00,100.00,80.00,85.00\n"
        "replay-gpt,current+prev,w Triple,100.00,80.00,100.00,80.00,90.00\n"
    )
    assert (out / "report.csv").read_text(encoding="utf-8") == expected
    assert results["report-csv"].stdout == expected


def test_review_round_trip_promotes_questions(chain):
    out, results = chain
    assert results["review-export"].stdout == (
        f"exported 20 question(s) to {out / 'review.csv'}\n"
    )
    with open(out / "review.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == REVIEW_COLUMNS
    assert len(rows) == 21
    assert results["review-import"].stdout == (
        "applied 20 verdict(s), skipped 0 blank row(s)\n"
    )
    questions = load_questions(out / "questions.jsonl")
    assert all(q.state is QuestionState.HUMAN_VERIFIED for q in questions)


def test_triples_review_export_samples_per_config(chain):
    out, results = chain
    # 17 extracted triples at the configured 40% rate round to 7
    assert results["review-export-triples"].stdout == (
        f"exported 7 triple(s) to {out / 'triples_review.csv'}\n"
    )
    with open(out / "triples_review.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 8
    extracted = {rec["id"] for rec in _jsonl(out / "triples" / "king-lear.jsonl")}
    sampled = {row[0] for row in rows[1:]}
    assert sampled < extracted


def test_emit_ft_writes_all_variant_files(chain):
    out, results = chain
    ft = out / "ft"
    lines = results["emit-ft"].stdout.splitlines()
    assert lines == [
        f"{ft / 'train_with_triples.jsonl'}: 20 example(s)",
        f"{ft / 'train_without_triples.jsonl'}: 20 example(s)",
        f"{ft / 'ood_test_with_triples.jsonl'}: 0 example(s)",
        f"{ft / 'ood_test_without_triples.jsonl'}: 0 example(s)",
    ]
    with_triples = _jsonl(ft / "train_with_triples.jsonl")
    without = _jsonl(ft / "train_without_triples.jsonl")
    assert len(with_triples) == len(without) == 20
    for rec_with, rec_without in zip(with_triples, without):
        assert set(rec_with) == set(rec_without) == {"input", "output"}
        assert rec_with["input"] == rec_without["input"]
        assert rec_with["output"].startswith("Relevant mental state triples:\n")
        assert rec_without["output"].startswith("Answer:\n{answer: ")
    manifest = json.loads((ft / "split_manifest.json").read_text(encoding="utf-8"))
    assert manifest == {"king-lear": "train"}


def test_stats_table_and_json(chain):
    out, results = chain
    lines = results["stats"].stdout.splitlines()
    assert lines[1].split() == ["King", "Lear", "2", "2", "2.50"]
    assert lines[2].split() == ["TOTAL", "2", "2", "2.50"]
    assert lines[3] == "questions: 20 (correct 20, distractors 60)"
    payload = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert payload["corpus"]["total_plots"] == 2
    assert payload["corpus"]["total_conversations"] == 2
    assert payload["corpus"]["avg_speakers"] == "2.50"
    assert payload["corpus"]["books"][0]["title"] == "King Lear"
    assert payload["questions"]["questions"] == 20
    assert payload["questions"]["distractors"] == 60
    assert payload["questions"]["per_dimension"] == {
        "Belief": 5, "Desire": 5, "Emotion": 5, "Intention": 5,
    }
    assert payload["questions"]["per_book"] == {"king-lear": 20}


def test_every_command_writes_a_manifest(chain):
    out, _ = chain
    expected = {
        "ingest", "extract", "build-kg", "genqa", "verify", "eval",
        "report", "review-export", "review-import", "emit-ft", "stats",
    }
    found = {p.stem for p in (out / "manifests").glob("*.json")}
    assert found == expected
    for name in sorted(expected):
        manifest = json.loads((out / "manifests" / f"{name}.json").read_text(encoding="utf-8"))
        assert set(manifest) == {
            "command", "config_sha256", "inputs", "outputs",
            "package_version", "python_version",
        }
        assert manifest["command"] == name
        for digest in list(manifest["inputs"].values()) + list(manifest["outputs"].values()):
            assert len(digest) == 64 and set(digest) <= HEX64


def test_model_stage_manifests_list_the_replay_script(chain):
    out, _ = chain
    script = CONFIG.parent / "replay.jsonl"
    digest = hashlib.sha256(script.read_bytes()).hexdigest()
    for name in ("extract", "genqa", "verify", "eval"):
        manifest = json.loads((out / "manifests" / f"{name}.json").read_text(encoding="utf-8"))
        assert manifest["inputs"]["replay.jsonl"] == digest, name
    for name in ("build-kg", "report"):
        manifest = json.loads((out / "manifests" / f"{name}.json").read_text(encoding="utf-8"))
        assert "replay.jsonl" not in manifest["inputs"], name


def test_manifest_records_the_config_bytes_the_stage_parsed(tmp_path, monkeypatch):
    """A config edited while a stage runs is recorded with the bytes the stage parsed."""
    shutil.copytree(CONFIG.parent, tmp_path / "data")
    config = tmp_path / "data" / "pipeline.yaml"
    original = config.read_bytes()
    out = tmp_path / "out"
    run_cli(out, "ingest", config=config)
    load_corpus = RunContext.load_corpus

    def edit_then_load_corpus(self):
        config.write_bytes(original + b"# edited mid-stage\n")
        return load_corpus(self)

    monkeypatch.setattr(RunContext, "load_corpus", edit_then_load_corpus)
    run_cli(out, "stats", config=config)
    manifest = json.loads((out / "manifests" / "stats.json").read_text(encoding="utf-8"))
    assert config.read_bytes() != original
    assert manifest["config_sha256"] == hashlib.sha256(original).hexdigest()


def test_manifests_carry_no_absolute_paths(chain):
    out, _ = chain
    for path in (out / "manifests").glob("*.json"):
        assert str(out) not in path.read_text(encoding="utf-8")


def _manifest_key(path: Path, out: Path) -> str:
    """The manifest key rule: relative to the out dir, else to the config's directory, else the name."""
    for base in (out, CONFIG.parent):
        if path.resolve().is_relative_to(base.resolve()):
            return path.resolve().relative_to(base.resolve()).as_posix()
    return path.name


@pytest.fixture(scope="module")
def opened_and_recorded(tmp_path_factory):
    """Per command: its manifest and the keys of the files it opened for reading.

    Opens made while RunContext records an input or writes the manifest are
    not counted, nor are the config and its parsed-tree memo, the response
    cache and the packaged prompt templates.
    """
    out = tmp_path_factory.mktemp("opens") / "out"
    memo = Path(os.environ["XDG_CACHE_HOME"], "tomtrace", "config").resolve()
    # emit-ft waives the human-verification gate, so every question goes through emit_example.
    unverified = derived_config(tmp_path_factory.mktemp("unverified"), ft={"require_human_verified": False})
    skipped = (
        CONFIG.resolve(), unverified.resolve(), memo, (out / "cache").resolve(),
        Path(tomtrace.__file__).parent.resolve() / "templates",
    )
    opened: set[str] = set()
    paused = [0]

    def recording(real_open):
        def open_(file, mode="r", *args, **kwargs):
            if not paused[0] and isinstance(file, (str, Path)) and not set(mode) & set("wax+"):
                path = Path(file).resolve()
                if not any(path == s or path.is_relative_to(s) for s in skipped):
                    opened.add(_manifest_key(path, out))
            return real_open(file, mode, *args, **kwargs)

        return open_

    def unrecorded(method):
        def call(*args, **kwargs):
            paused[0] += 1
            try:
                return method(*args, **kwargs)
            finally:
                paused[0] -= 1

        return call

    commands = [
        *PIPELINE, "review-export", f"review-import {out / 'review.csv'}", "review-export --kind triples",
        "emit-ft", "stats", "report --layout markdown",
    ]
    steps = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builtins, "open", recording(builtins.open))
        mp.setattr(io, "open", recording(io.open))
        for name in ("read", "write_manifest"):
            if hasattr(RunContext, name):  # a RunContext without read() is still compared, and fails
                mp.setattr(RunContext, name, unrecorded(getattr(RunContext, name)))
        for command in commands:
            opened.clear()
            run_cli(out, command, config=unverified if command == "emit-ft" else CONFIG)
            keys = set(opened)  # before the manifest is read back below
            manifest = json.loads((out / "manifests" / f"{command.split()[0]}.json").read_text(encoding="utf-8"))
            steps.append((command, manifest, keys))
    return out, steps


def test_manifest_inputs_are_the_files_each_command_opened(opened_and_recorded):
    _, steps = opened_and_recorded
    for command, manifest, opened in steps:
        assert set(manifest["inputs"]) == opened, command
    by_command = {command: set(manifest["inputs"]) for command, manifest, _ in steps}
    for command in ("build-kg", "emit-ft"):
        assert "corpus/king-lear.jsonl" in by_command[command]
    for command in ("extract", "build-kg", "genqa", "eval", "emit-ft", "stats"):
        assert "king-lear-aliases.txt" in by_command[command], command


def test_each_input_under_out_carries_the_digest_its_writer_recorded(opened_and_recorded):
    out, steps = opened_and_recorded
    written: dict[str, str] = {}
    for command, manifest, _ in steps:
        for key, digest in manifest["inputs"].items():
            if (out / key).is_file():
                assert written.get(key) == digest, (command, key)
        written.update(manifest["outputs"])
    verify = next(manifest for command, manifest, _ in steps if command == "verify")
    genqa = next(manifest for command, manifest, _ in steps if command == "genqa")
    assert verify["inputs"]["questions.jsonl"] == genqa["outputs"]["questions.jsonl"]
    assert verify["inputs"]["questions.jsonl"] != verify["outputs"]["questions.jsonl"]


def test_duplicate_import_collects_row_errors(chain):
    out, _ = chain
    result = run_cli(out, f"review-import {out / 'review.csv'}", expect=1)[0]
    assert "applied 0 verdict(s), skipped 0 blank row(s)" in result.stdout
    assert result.stderr.count("row error:") == 20
    questions = load_questions(out / "questions.jsonl")
    assert all(q.state is QuestionState.HUMAN_VERIFIED for q in questions)


# --- error paths -------------------------------------------------------------------


def test_eval_without_corpus_exits_one(tmp_path):
    result = run_cli(tmp_path / "out", "eval", expect=1)[0]
    assert result.stderr.startswith("error:")
    assert "run ingest" in result.stderr


def test_report_without_predictions_exits_one(tmp_path):
    result = run_cli(tmp_path / "out", "report", expect=1)[0]
    assert "run eval" in result.stderr


def test_unknown_config_key_exits_one(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: 1\nbogus_top: true\n", encoding="utf-8")
    result = invoke_cli("-c", str(bad), "stats")
    assert result.exit_code == 1
    assert "bogus_top" in result.stderr


def test_replay_miss_exits_two(tmp_path):
    out = tmp_path / "out"
    run_cli(out, "ingest")
    empty_script = tmp_path / "empty.jsonl"
    empty_script.write_text("", encoding="utf-8")
    config = derived_config(tmp_path, replay={"script": str(empty_script)})
    result = run_cli(out, "extract", expect=2, config=config)[0]
    assert result.stderr.startswith("backend error:")


def test_replay_miss_after_a_full_run_exits_two(tmp_path):
    """Replayed answers are never cached, so an earlier run cannot answer for the script."""
    out = tmp_path / "out"
    run_cli(out, "ingest", "extract")
    empty_script = tmp_path / "empty.jsonl"
    empty_script.write_text("", encoding="utf-8")
    config = derived_config(tmp_path, replay={"script": str(empty_script)})
    result = run_cli(out, "extract", expect=2, config=config)[0]
    assert result.stderr.startswith("backend error: no replay entry for digest")
    assert not (out / "cache").exists()


def test_an_empty_eval_model_exits_one_without_a_traceback(tmp_path):
    config = derived_config(tmp_path, eval={"models": [""]})
    result = run_entry_point("-c", str(config), "--out", str(tmp_path / "out"), "eval")
    assert result.returncode == 1
    assert result.stderr == "error: eval.models[0] must be non-empty\n"


def test_two_books_with_one_id_exit_one_before_writing(tmp_path):
    """Both titles slugify to king-lear: ingesting both would keep one book and drop the other."""
    fixture = json.loads((CONFIG.parent / "books" / "king-lear.json").read_text(encoding="utf-8"))
    books = tmp_path / "books"
    books.mkdir()
    first, second = books / "a.json", books / "b.json"
    first.write_text(json.dumps({"title": "King Lear", "plots": fixture["plots"][:2]}), encoding="utf-8")
    second.write_text(json.dumps({"title": "King  LEAR!", "plots": fixture["plots"][:1]}), encoding="utf-8")
    config = derived_config(tmp_path, corpus={"input": str(books)})
    out = tmp_path / "out"
    result = run_entry_point("-c", str(config), "--out", str(out), "ingest")
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1] == f"error: {first} and {second} both give book id 'king-lear'"
    assert "Traceback" not in result.stderr
    assert not (out / "corpus").exists()


def _first_conversation(book: dict) -> dict:
    return book["plots"][0]["conversations"][0]


@pytest.mark.parametrize("edit, where, reason", [
    (lambda book: book.update(title=1984), "", "title 1984 is not a string"),
    (lambda book: book["plots"][0].update(summary=5), "king-lear:plot[1]: ", "summary 5 is not a string"),
    (lambda book: _first_conversation(book).update(key_characters="Lear"), "king-lear:plot[1]:conv[1]: ",
     "key_characters 'Lear' is not a list"),
    (lambda book: _first_conversation(book).update(key_characters=["Lear", 7]), "king-lear:plot[1]:conv[1]: ",
     "key_characters[1] 7 is not a string"),
    (lambda book: _first_conversation(book)["dialogues"][1].update(character=["Lear"]),
     "king-lear:plot[1]:conv[1]: ", "character ['Lear'] is not a string"),
    (lambda book: _first_conversation(book)["dialogues"].append(5), "king-lear:plot[1]:conv[1]: ",
     "dialogue line 5 is neither a string nor an object"),
], ids=["title", "summary", "cast-string", "cast-number", "speaker", "dialogue-line"])
def test_a_wrong_typed_source_field_exits_one_naming_the_book_file_and_the_field(tmp_path, edit, where, reason):
    """A source field is taken as it is typed, or refused: `str()` would turn a cast "Lear" into L, e, a, r."""
    book = json.loads((CONFIG.parent / "books" / "king-lear.json").read_text(encoding="utf-8"))
    edit(book)
    path = tmp_path / "books" / "king-lear.json"
    path.parent.mkdir()
    path.write_text(json.dumps(book), encoding="utf-8")
    config = derived_config(tmp_path, corpus={"input": str(path.parent)})
    result = invoke_cli("-c", str(config), "--out", str(tmp_path / "out"), "ingest")
    assert (result.exit_code, type(result.exception)) == (1, SystemExit), result.output
    assert result.stderr.splitlines()[-1] == f"error: {path}: {where}{reason}"
    assert not (tmp_path / "out" / "corpus").exists()


@pytest.mark.parametrize("lines, line_number", [
    (['{"prompt_pattern": "x", "respo'], 1),
    (['{"prompt_pattern": "x", "response_text": "ok"}', '{"prompt_pattern": "x"}'], 2),
    (['{"prompt_pattern": "(", "response_text": "ok"}'], 1),
    (['{"digest": "d", "response_text": "a"}', "", '{"digest": "d", "response_text": "b"}'], 3),
    (['{"prompt_pattern": "x", "response_text": ""}'], 1),
], ids=["truncated", "no-response-text", "bad-pattern", "duplicate-digest", "empty-response-text"])
def test_malformed_replay_script_exits_one_without_a_traceback(tmp_path, lines, line_number):
    out = tmp_path / "out"
    run_cli(out, "ingest")
    script = tmp_path / "bad.jsonl"
    script.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = derived_config(tmp_path, replay={"script": str(script)})
    result = run_cli(out, "extract", expect=1, config=config)[0]
    assert isinstance(result.exception, SystemExit)  # an uncaught exception would be a traceback
    assert result.stderr.startswith("error: replay script")
    assert f"bad.jsonl:{line_number}:" in result.stderr


@pytest.mark.parametrize("content, reason", [
    (None, "cannot read template"),
    (b"\xff$plot_summary\n", "cannot read template"),
    (b"$plot_summary for $character: $bogus\n", "unknown placeholder $bogus"),
], ids=["missing", "not-utf8", "unknown-placeholder"])
def test_bad_template_override_exits_one_naming_the_file(tmp_path, content, reason):
    shutil.copytree(CONFIG.parent, tmp_path / "data")
    config = tmp_path / "data" / "pipeline.yaml"
    raw = yaml.safe_load(config.read_text(encoding="utf-8"))
    raw["triples"]["template"] = "extract.txt"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    template = tmp_path / "data" / "extract.txt"
    if content is not None:
        template.write_bytes(content)
    out = tmp_path / "out"
    run_cli(out, "ingest", config=config)
    [result] = run_cli(out, "extract", expect=1, config=config)
    assert isinstance(result.exception, SystemExit)  # an uncaught exception would be a traceback
    assert result.stderr.startswith("error: ")
    assert str(template) in result.stderr and reason in result.stderr
    assert not (out / "triples").exists()


def _fixture_copy(tmp_path: Path, edit) -> Path:
    """A copy of the fixture data whose config `edit(raw)` has changed; returns the config path."""
    shutil.copytree(CONFIG.parent, tmp_path / "data")
    config = tmp_path / "data" / "pipeline.yaml"
    raw = yaml.safe_load(config.read_text(encoding="utf-8"))
    edit(raw)
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return config


def test_a_template_override_is_read_once_per_stage(tmp_path):
    """Every prompt and the manifest's digest come from one read of the file."""
    config = _fixture_copy(tmp_path, lambda raw: raw["triples"].update(template="extract.txt"))
    template = tmp_path / "data" / "extract.txt"
    # The packaged text, so that the replay script answers the prompts.
    template.write_bytes((Path(tomtrace.__file__).parent / "templates" / "triple_extraction.txt").read_bytes())
    out = tmp_path / "out"
    run_cli(out, "ingest", config=config)
    opens = []

    def counting(real_open):
        def open_(file, *args, **kwargs):
            if isinstance(file, (str, Path)) and Path(file).resolve() == template.resolve():
                opens.append(file)
            return real_open(file, *args, **kwargs)

        return open_

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builtins, "open", counting(builtins.open))
        mp.setattr(io, "open", counting(io.open))
        [result] = run_cli(out, "extract", config=config)
    assert len(opens) == 1
    assert result.stdout.startswith("extracted ") and not result.stdout.startswith("extracted 0 ")
    manifest = json.loads((out / "manifests" / "extract.json").read_text(encoding="utf-8"))
    assert manifest["inputs"]["extract.txt"] == hashlib.sha256(template.read_bytes()).hexdigest()


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_a_template_override_reads_newlines_as_a_text_file_does(tmp_path, newline):
    template = tmp_path / "prompt.txt"
    template.write_bytes("$plot_summary\nfor $character\n".replace("\n", newline).encode("utf-8"))
    override = RunContext(load_config(CONFIG), str(tmp_path / "out")).template(str(template))
    assert override.text == template.read_text(encoding="utf-8") == "$plot_summary\nfor $character\n"


@pytest.mark.parametrize("section, packaged, command", [
    ("triples", "triple_extraction.txt", "extract"),
    ("qagen", "question_generation.txt", "genqa"),
    ("verification", "question_verification.txt", "verify"),
    ("eval", "eval_question.txt", "eval"),
])
def test_a_template_override_reaches_every_prompt_of_its_stage(tmp_path, monkeypatch, section, packaged, command):
    config = _fixture_copy(tmp_path, lambda raw: raw[section].update(template="override.txt"))
    template = tmp_path / "data" / "override.txt"
    marker = f"OVERRIDE FOR {section}\n"
    # The packaged text after the marker, so that the replay script still answers the prompts.
    packaged_text = (Path(tomtrace.__file__).parent / "templates" / packaged).read_text(encoding="utf-8")
    template.write_text(marker + packaged_text, encoding="utf-8")
    out = tmp_path / "out"
    run_cli(out, *PIPELINE[:PIPELINE.index(command)])
    prompts = []
    real_complete = Gateway.complete
    monkeypatch.setattr(Gateway, "complete", lambda self, request: prompts.append(request.messages[-1][1]) or real_complete(self, request))
    run_cli(out, command, config=config)
    # verify also regenerates rejected questions, from a template that no setting overrides.
    own = [p for p in prompts if "was rejected during review" not in p]
    assert own and all(p.startswith(marker) for p in own)
    manifest = json.loads((out / "manifests" / f"{command}.json").read_text(encoding="utf-8"))
    assert manifest["inputs"]["override.txt"] == hashlib.sha256(template.read_bytes()).hexdigest()


def test_each_kind_of_request_keeps_its_output_budget(tmp_path, monkeypatch):
    """The budget enters the request digest, so a changed value orphans every cached answer."""
    sent = []
    real_complete = Gateway.complete
    monkeypatch.setattr(Gateway, "complete", lambda self, request: sent.append(request) or real_complete(self, request))
    out = tmp_path / "out"
    seen: dict[str, set] = {}
    for command in PIPELINE:
        sent.clear()
        run_cli(out, command)
        for request in sent:
            kind = "regenerate" if "was rejected during review" in request.prompt_text() else command
            seen.setdefault(kind, set()).add(request.max_output_tokens)
    assert seen == {
        "extract": {2048},
        "genqa": {3072},
        "verify": {512},
        "regenerate": {1024},
        "eval": {2048},
    }


def test_a_speaker_with_no_graph_node_is_asked_with_an_empty_triple_block(tmp_path, monkeypatch):
    """Fool's every extraction dropped, as if each was rejected: Fool gets no node in the graph."""
    out = tmp_path / "out"
    run_cli(out, "ingest", "extract")
    triples = out / "triples" / "king-lear.jsonl"
    lines = triples.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in lines if json.loads(line)["character"] != "Fool"]
    assert len(kept) < len(lines)
    triples.write_text("".join(kept), encoding="utf-8")
    run_cli(out, "build-kg", "genqa", "verify")
    fool = {q.id for q in load_questions(out / "questions.jsonl") if q.character == "Fool"}
    assert fool

    prompts = []
    real_complete = Gateway.complete
    monkeypatch.setattr(Gateway, "complete", lambda self, request: prompts.append(request.prompt_text()) or real_complete(self, request))
    run_cli(out, "eval")
    predictions = _jsonl(out / "predictions.jsonl")
    assert [p for p in predictions if p["error"] is not None] == []
    asked = [p for p in prompts if "For the character Fool in the book" in p and TRIPLE_BLOCK_HEADER in p]
    assert len(asked) == sum(1 for p in predictions if p["question_id"] in fool and p["triples"]) > 0
    assert all(f"{TRIPLE_BLOCK_HEADER}\n\n" in p and "(Fool," not in p for p in asked)

    run_cli(out, "review-export")
    _mark_all_pass(out / "review.csv")
    run_cli(out, f"review-import {out / 'review.csv'}", "emit-ft")
    examples = _jsonl(out / "ft" / "train_with_triples.jsonl")
    fool_outputs = [e["output"] for e in examples if "For the character Fool in the book" in e["input"]]
    assert fool_outputs and all(o.startswith(f"{TRIPLE_BLOCK_HEADER}\nAnswer:\n") for o in fool_outputs)


def test_config_backend_keys_reach_the_gateway(tmp_path, monkeypatch):
    book = {"title": "Storm", "plots": [{
        "summary": "Kent waits out the storm.",
        "scenario": "A hovel on the heath.",
        "conversations": [{"environment": "The heath.", "key_characters": ["Kent"],
                           "dialogues": [{"character": "Kent", "message": "Here is better than the open air."}]}],
    }]}
    (tmp_path / "books").mkdir()
    (tmp_path / "books" / "storm.json").write_text(json.dumps(book), encoding="utf-8")

    def overloaded(handler, n, payload):
        send_reply(handler, 503, {"error": {"message": "overloaded"}})

    monkeypatch.delenv("TOMTRACE_API_TOKEN", raising=False)
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    monkeypatch.setenv("STORM_TOKEN", "storm-secret")
    with http_backend(overloaded) as server:
        config = tmp_path / "live.yaml"
        config.write_text(yaml.safe_dump({
            "seed": 1,
            "corpus": {"input": "books", "format": "coser"},
            "backend": {
                "name": "live",
                "endpoint": server.url,
                "auth_env_var": "STORM_TOKEN",
                "model": "m",
                "max_in_flight": 1,
                "retry_max_attempts": 2,
                "retry_base_backoff_s": 0,
            },
        }), encoding="utf-8")
        out = tmp_path / "out"
        run_cli(out, "ingest", config=config)
        [result] = run_cli(out, "extract", config=config, expect=2)
    assert result.stderr.startswith("backend error: retries exhausted: HTTP 503")
    assert len(server.requests) == 2
    assert [headers["Authorization"] for headers, _ in server.requests] == ["Bearer storm-secret"] * 2


def test_review_export_writes_only_llm_verified_questions(pipeline_out, tmp_path):
    """review-export samples from the llm_verified questions alone; human-verified, rejected
    and generated ones are not offered for review."""
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    questions = load_questions(out / "questions.jsonl")
    assert all(q.state is QuestionState.LLM_VERIFIED for q in questions)
    others = [QuestionState.HUMAN_VERIFIED, QuestionState.REJECTED, QuestionState.GENERATED]
    for question, state in zip(questions, others):
        question.state = state
    save_questions(questions, out / "questions.jsonl")
    [result] = run_cli(out, "review-export")
    assert result.stdout == f"exported {len(questions) - 3} question(s) to {out / 'review.csv'}\n"
    with open(out / "review.csv", encoding="utf-8", newline="") as fh:
        exported = [row["question_id"] for row in csv.DictReader(fh)]
    assert sorted(exported) == sorted(q.id for q in questions[3:])


def test_truncated_question_file_exits_one_without_a_traceback(pipeline_out, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    questions = out / "questions.jsonl"
    questions.write_bytes(questions.read_bytes()[:-40])
    [result] = run_cli(out, "verify", expect=1)
    assert isinstance(result.exception, SystemExit)  # an uncaught exception would be a traceback
    assert result.stderr.startswith("error: ")
    assert f"questions.jsonl:{len(questions.read_bytes().splitlines())}: invalid JSON" in result.stderr


@pytest.mark.parametrize("column, misspelled", [("verdict", "verdikt"), ("question_id", "question id")])
def test_review_csv_without_a_needed_column_exits_one_before_writing(pipeline_out, tmp_path, column, misspelled):
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    run_cli(out, "review-export")
    review = out / "review.csv"
    _mark_all_pass(review)
    header, body = review.read_text(encoding="utf-8").split("\n", 1)
    review.write_text(header.replace(column, misspelled) + "\n" + body, encoding="utf-8")
    questions = (out / "questions.jsonl").read_bytes()
    [result] = run_cli(out, f"review-import {review}", expect=1)
    assert isinstance(result.exception, SystemExit)  # an uncaught exception would be a traceback
    assert result.stderr.startswith("error: ") and f"no {column} column" in result.stderr
    assert (out / "questions.jsonl").read_bytes() == questions
    assert not (out / "manifests" / "review-import.json").exists()


@pytest.mark.parametrize("damage", ["missing-field", "not-utf8"])
@pytest.mark.parametrize("artifact, command, field", [
    ("questions.jsonl", "verify", "stem"),
    ("questions.jsonl", "report", "dimension"),
    ("predictions.jsonl", "report", "model"),
    ("triples/king-lear.jsonl", "build-kg", "character"),
    ("triples/king-lear.jsonl", "review-export --kind triples", "id"),
], ids=["questions-verify", "questions-report", "predictions-report", "triples-build-kg", "triples-review-export"])
def test_bad_first_record_exits_one_naming_file_and_line(pipeline_out, tmp_path, artifact, command, field, damage):
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    target = out / artifact
    first, rest = target.read_bytes().split(b"\n", 1)
    if damage == "missing-field":
        record = json.loads(first)
        del record[field]
        first = json.dumps(record, ensure_ascii=False).encode("utf-8")
        reason = f"missing field '{field}'"
    else:
        first = first[:1] + b"\xff" + first[1:]
        reason = "'utf-8' codec can't decode byte 0xff"
    target.write_bytes(first + b"\n" + rest)
    [result] = run_cli(out, command, expect=1)
    assert isinstance(result.exception, SystemExit)  # an uncaught exception would be a traceback
    assert result.stderr.startswith(f"error: {target}:1: {reason}")


@pytest.mark.parametrize("line, plot_index, reason", [
    (1, "2", "plot_index '2' is not an integer"),
    (1, None, "plot_index None is not an integer"),
    (17, 99, "plot_index 99 is not a plot of the book (1..2)"),  # the last record
    (10, 99, "plot_index 99 is not a plot of the book (1..2)"),  # King Lear's plot-1 batch, before his plot-2 one
    (4, 0, "plot_index 0 is not a plot of the book (1..2)"),
], ids=["string", "null", "past-the-end-last", "past-the-end-before-a-later-batch", "zero"])
def test_a_triple_outside_the_book_exits_one_naming_file_and_line(pipeline_out, tmp_path, line, plot_index, reason):
    """build-kg reads each record's plot as an integer plot of the book, before it builds the graph."""
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    target = out / "triples" / "king-lear.jsonl"
    lines = target.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 17
    record = json.loads(lines[line - 1])
    record["plot_index"] = plot_index
    lines[line - 1] = json.dumps(record, ensure_ascii=False)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    [result] = run_cli(out, "build-kg", expect=1)
    assert isinstance(result.exception, SystemExit)  # an uncaught exception would be a traceback
    assert result.stderr == f"error: {target}:{line}: {reason}\n"


@pytest.mark.parametrize("header, reason", [
    ({"plot_count": 1}, "header gives 1 plot(s), but book 'king-lear' has 2"),
    ({"book_id": "queen-lear"}, "header gives book 'queen-lear', not 'king-lear'"),
], ids=["plot-count", "book-id"])
@pytest.mark.parametrize("command", ["genqa", "eval", "emit-ft"])
def test_a_graph_header_that_disagrees_with_its_book_exits_one_naming_the_file(
    pipeline_out, tmp_path, command, header, reason
):
    """The integrity hash covers a graph's records, not its header, so each stage that reads graphs checks it."""
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    target = out / "kg" / "king-lear.kg.jsonl"
    first, rest = target.read_text(encoding="utf-8").split("\n", 1)
    target.write_text(json.dumps({**json.loads(first), **header}) + "\n" + rest, encoding="utf-8")
    config = derived_config(tmp_path, ft={"require_human_verified": False})
    [result] = run_cli(out, command, expect=1, config=config)
    assert isinstance(result.exception, SystemExit)  # an uncaught exception would be a traceback
    assert result.stderr == f"error: {target}: {reason}\n"


@pytest.mark.parametrize("target, command", [
    ("data/pipeline.yaml", "stats"),
    ("data/books/king-lear.json", "ingest"),
    ("data/king-lear-aliases.txt", "ingest"),
    ("out/review.csv", "review-import {target}"),
    ("out/kg/king-lear.kg.jsonl", "emit-ft"),
], ids=["config", "coser-book", "alias-table", "review-csv", "graph"])
def test_user_input_that_is_not_utf8_exits_one_naming_the_file(pipeline_out, tmp_path, target, command):
    shutil.copytree(CONFIG.parent, tmp_path / "data")
    shutil.copytree(pipeline_out, tmp_path / "out")
    target = tmp_path / target
    if target.name == "review.csv":
        target.write_text(",".join(REVIEW_COLUMNS) + "\n", encoding="utf-8")
    target.write_bytes(b"\xff" + target.read_bytes())
    [result] = run_cli(tmp_path / "out", command.format(target=target), expect=1, config=tmp_path / "data/pipeline.yaml")
    assert isinstance(result.exception, SystemExit)  # an uncaught exception would be a traceback
    assert result.stderr.startswith("error: ")
    assert str(target) in result.stderr


def test_unwritable_output_exits_one_without_a_traceback(pipeline_out, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    (out / "predictions.jsonl").unlink()
    (out / "predictions.jsonl").mkdir()
    [result] = run_cli(out, "eval", expect=1)
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: cannot write ")
    assert "predictions.jsonl" in result.stderr
    assert not list(out.glob(".*.tmp"))


def test_version_flag():
    result = invoke_cli("--version")
    assert result.exit_code == 0
    assert "version" in result.stdout


# --- the hooks a tracer uses: the command table, each command's callback, and the exit --------


def test_the_command_table_holds_every_command():
    assert list(main.commands) == [
        "ingest", "extract", "build-kg", "genqa", "verify", "review-export", "review-import", "eval", "report",
        "emit-ft", "stats",
    ]


def test_a_callback_put_in_place_of_a_command_is_the_code_that_runs(tmp_path, monkeypatch):
    calls = []
    command = main.commands["stats"]
    monkeypatch.setattr(command, "callback", lambda ctx, **options: calls.append((ctx.out_dir, options)))
    result = invoke_cli("-c", str(CONFIG), "--out", str(tmp_path / "out"), "stats")
    assert (result.exit_code, result.stdout) == (0, "")
    assert calls == [(tmp_path / "out", {})]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, code", [("stats", 1), ("ingest", 0)])
def test_main_ends_in_system_exit_with_the_stage_exit_code(tmp_path, command, code):
    with pytest.raises(SystemExit) as raised:
        main(["-c", str(CONFIG), "--out", str(tmp_path / "out"), command], prog_name="tomtrace")
    assert raised.value.code == code  # stats on an empty out/ has no corpus to read


# --- usage errors and the program's name --------------------------------------------------------


@pytest.mark.parametrize("missing", ["nope.yaml", "."], ids=["no-file", "directory"])
def test_a_config_that_cannot_be_read_exits_one_naming_it(tmp_path, missing):
    result = run_entry_point("-c", missing, "--out", str(tmp_path / "out"), "ingest")
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: cannot read config {missing}: ")


@pytest.mark.parametrize("args, message", [
    (["-c", str(CONFIG), "bogus"], "argument COMMAND: invalid choice: 'bogus'"),
    (["ingest"], "the following arguments are required: -c/--config"),
    (["-c", str(CONFIG), "report", "--layout", "html"], "argument --layout: invalid choice: 'html'"),
    (["-c", str(CONFIG), "review-export", "--kind", "plots"], "argument --kind: invalid choice: 'plots'"),
    (["-c", str(CONFIG), "ingest", "--out", "elsewhere"], "unrecognized arguments: --out elsewhere"),
    ([f"--conf={CONFIG}", "ingest"], "the following arguments are required: -c/--config"),
], ids=["unknown-command", "no-config", "bad-layout", "bad-kind", "option-after-command", "abbreviation"])
def test_a_usage_error_exits_one_with_the_usage_on_stderr(tmp_path, args, message):
    result = run_entry_point(*args)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("usage: tomtrace")
    assert message in result.stderr


@pytest.mark.parametrize("args", [["-c", str(CONFIG), "bogus"], ["-c", "report", "bogus"]],
                         ids=["unknown-command", "config-named-like-a-command"])
def test_an_unknown_command_is_reported_with_every_command(args):
    result = run_entry_point(*args)
    assert result.returncode == 1
    message = result.stderr.splitlines()[-1]
    assert "argument COMMAND: invalid choice: 'bogus' (choose from " in message
    listed = message.split("(choose from ", 1)[1].rstrip(")").split(", ")
    assert [name.strip("'") for name in listed] == list(main.commands)


@pytest.mark.parametrize("args", [["--help"], ["--help", "report"]], ids=["alone", "before-a-command"])
def test_help_lists_every_command(args):
    result = run_entry_point(*args)
    assert result.returncode == 0
    assert result.stdout.startswith("usage: tomtrace [--help] -c FILE")
    assert re.findall(r"^    (\S+)", result.stdout, re.MULTILINE) == list(main.commands)


@pytest.mark.parametrize("args, options", [
    (["-c", "pipeline.yaml", "ingest"],
     {"config_path": "pipeline.yaml", "out_override": None, "verbose": False, "command": "ingest"}),
    (["-v", "--out", "out", "-c", "pipeline.yaml", "review-export", "--kind", "triples", "--output", "t.csv"],
     {"config_path": "pipeline.yaml", "out_override": "out", "verbose": True, "command": "review-export",
      "kind": "triples", "output_path": "t.csv"}),
    (["-c", "pipeline.yaml", "review-import", "report"],
     {"config_path": "pipeline.yaml", "out_override": None, "verbose": False, "command": "review-import",
      "csv_path": "report"}),
    (["-c", "report", "ingest"],
     {"config_path": "report", "out_override": None, "verbose": False, "command": "ingest"}),
    (["--out", "stats", "-c", "eval", "report", "--layout", "csv"],
     {"config_path": "eval", "out_override": "stats", "verbose": False, "command": "report", "layout": "csv"}),
], ids=["stage", "options", "command-named-argument", "config-named-like-a-command", "two-options-named-so"])
def test_parsing_for_the_named_command_alone_gives_the_full_parsers_options(args, options):
    """Every run parses with the one parser of every command; a value named like a command stays a value."""
    assert vars(main._parser("tomtrace").parse_args(args)) == options


# --- the quick parse of a stage line, against argparse --------------------------------------

ROOT = Path(__file__).resolve().parents[1]
# Values a stage line may hold, and ones argparse reads otherwise or rejects.
_VALUES = ["pipeline.yaml", "out", "r.csv", "", "a b", "ingest", "report", "csv", "triples", "html"]
_ODD_VALUES = ["-x", "-1", "--", "-", "--out", "-c", "=x"]
_STRAYS = ["--help", "--version", "--", "-", "-v", "-cv", "--verb", "--conf", "bogus", *_VALUES, *_ODD_VALUES]


def _draw_options(draw, params) -> list[list[str]]:
    """Options of `params` in any order, as their tokens: every positional and required one, and some others."""
    pieces = []
    for flags, keywords in params.values():
        if keywords.get("action") not in (None, "store_true"):
            continue  # --version
        if flags and not keywords.get("required") and not draw(st.booleans()):
            continue
        value = draw(st.sampled_from([*keywords.get("choices", ()), *_VALUES]))
        if not flags:
            pieces.append([value])
        else:
            flag = draw(st.sampled_from(flags))
            pieces.append([flag] if keywords.get("action") else [flag, value])
    return draw(st.permutations(pieces))


def _mutate(draw, pieces: list[list[str]]) -> None:
    """Change one piece of a stage line into a form argparse reads otherwise or rejects, or move, repeat,
    drop or add one."""
    at = draw(st.integers(0, len(pieces) - 1))
    piece = pieces[at]
    mutation = draw(st.sampled_from(["odd value", "joined", "attached", "abbreviated", "value missing",
                                     "repeated", "moved", "dropped", "added"]))
    if mutation == "odd value":
        piece[-1] = draw(st.sampled_from(_ODD_VALUES))
    elif mutation == "joined" and len(piece) == 2:
        pieces[at] = [f"{piece[0]}={piece[1]}"]
    elif mutation == "attached" and len(piece) == 2:
        pieces[at] = [piece[0] + piece[1]]
    elif mutation == "abbreviated" and piece[0].startswith("--"):
        piece[0] = piece[0][:-1]
    elif mutation == "value missing" and len(piece) == 2:
        del piece[1]
    elif mutation == "repeated":
        pieces.insert(draw(st.integers(0, len(pieces))), list(piece))
    elif mutation == "moved":
        del pieces[at]
        pieces.insert(draw(st.integers(0, len(pieces))), piece)
    elif mutation == "dropped":
        del pieces[at]
    elif mutation == "added":
        pieces.insert(draw(st.integers(0, len(pieces))), [draw(st.sampled_from([*_STRAYS, *main.commands]))])


@st.composite
def _stage_lines(draw) -> list[str]:
    """A stage line of global options, a command ("bogus" for none) and its options, changed at up to 3 places."""
    name = draw(st.sampled_from([*main.commands, "bogus"]))
    command = main.commands.get(name)
    pieces = [*_draw_options(draw, main.params), [name], *_draw_options(draw, command.params if command else {})]
    for _ in range(draw(st.integers(0, 3))):
        if pieces:
            _mutate(draw, pieces)
    args = [token for piece in pieces for token in piece]
    return draw(st.permutations(args)) if args and draw(st.integers(0, 9)) == 0 else args


def _argparse_options(args: list[str]) -> dict | str:
    """What the argparse parser makes of `args`: its options, or how it exits (help, version, usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(main._parser("tomtrace").parse_args(args))
        except SystemExit as exc:
            return f"exit {exc.code}"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_stage_lines())
def test_the_quick_parse_gives_argparses_options_or_leaves_the_line_to_argparse(args):
    quick = main._quick_parse(args)
    event("read without argparse" if quick is not None else "left to argparse")
    if quick is not None:
        assert quick == _argparse_options(args)


@pytest.mark.parametrize("args", [
    ["-c", "pipeline.yaml", "ingest"],
    ["--verbose", "--config", "p.yaml", "--out", "o", "review-export", "--output", "t.csv", "--kind", "triples"],
    ["-c", "report", "--out", "eval", "-v", "review-import", "stats"],
    ["-c", "p.yaml", "report", "--layout", "plain", "--layout", "csv"],
    ["-c", "", "--out", "", "review-import", ""],
], ids=["stage", "every-option", "values-named-like-commands", "repeated-option", "empty-values"])
def test_the_quick_parse_reads_each_plain_stage_line_as_argparse_does(args):
    assert main._quick_parse(args) == _argparse_options(args)


def _benchmark_stage_lines() -> list[list[str]]:
    """perfbench/run.py's stage lines, each after the `-c pipeline.yaml` it is given."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    (pipeline,) = [node.value for node in tree.body
                   if isinstance(node, ast.Assign) and [getattr(t, "id", "") for t in node.targets] == ["PIPELINE"]]
    return [["-c", "pipeline.yaml", *stage] for stage in ast.literal_eval(pipeline)]


def _ci_package_lines() -> list[list[str]]:
    """The arguments of each `tomtrace` call in CI's package job, each `$stage` of its loop spelled out."""
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))
    lines = []
    for step in workflow["jobs"]["package"]["steps"]:
        script = step.get("run", "").replace("\\\n", " ")
        loop = re.search(r"for stage in (.*?); do", script)
        stages = [shlex.split(stage) for stage in shlex.split(loop.group(1))] if loop else []
        for call in re.findall(r"(?:^|\s)tomtrace (-.*?)(?: [0-9]?>| \|\||$)", script, re.MULTILINE):
            args = shlex.split(call)
            if args[-1] == "$stage":
                lines += [[*args[:-1], *stage] for stage in stages]
            else:
                lines.append(args)
    return lines


def test_the_quick_parse_reads_every_stage_line_of_the_benchmark_and_of_ci():
    """Every stage the benchmark times, and every stage CI's package job runs, starts without argparse."""
    benchmark = _benchmark_stage_lines()
    ci = _ci_package_lines()
    assert len(benchmark) == 10 and ["-c", "pipeline.yaml", "review-import", "out/review.csv"] in benchmark
    # The job's calls for help, the version and an unknown command are meant for argparse.
    meant_for_argparse = [args for args in ci if {"--help", "--version", "no-such-command"} & set(args)]
    stages = [args for args in ci if args not in meant_for_argparse]
    assert len(meant_for_argparse) == 4 and len(stages) >= 18, ci
    for args in benchmark + stages:
        options = main._quick_parse(args)
        assert options is not None and options == _argparse_options(args), args


def test_the_program_is_named_tomtrace_however_it_is_started():
    result = run_entry_point("--version")
    assert (result.returncode, result.stdout) == (0, "tomtrace, version 0.1.0\n")


def test_nothing_is_frozen_while_a_command_runs_in_process(tmp_path):
    run_cli(tmp_path / "out", "ingest")
    assert gc.get_freeze_count() == 0


# --- the real entry point: a fresh interpreter that exits through atexit ----------------


def test_stages_run_through_the_entry_point_write_the_bytes_of_an_in_process_run(tmp_path):
    in_process = run_cli(tmp_path / "in-process", "ingest", "extract")
    for command, expected in zip(("ingest", "extract"), in_process):
        result = run_entry_point("-c", str(CONFIG), "--out", str(tmp_path / "process"), command)
        assert (result.returncode, result.stdout) == (0, expected.stdout), result.stderr
    assert tree_bytes(tmp_path / "process") == tree_bytes(tmp_path / "in-process")


def test_the_entry_point_freezes_the_collector_only_at_exit():
    code = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('at exit', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "from tomtrace.cli import main\n"
        "try:\n"
        "    main()\n"
        "finally:\n"
        "    print('in run', gc.get_freeze_count() > 0, file=sys.stderr)\n"
    )
    result = run_entry_point("--version", code=code)
    assert result.returncode == 0
    assert result.stderr == "in run False\nat exit True\n"


def test_a_reader_that_closes_stdout_early_ends_the_stage_with_one_and_no_traceback(pipeline_out, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    env = {**os.environ, "PYTHONPATH": str(Path(tomtrace.__file__).parents[1])}
    args = [sys.executable, "-c", ENTRY_POINT, "-c", str(CONFIG), "--out", str(out), "report"]
    with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
        child.stdout.close()  # before the stage prints its table
        stderr = child.stderr.read()
    assert (child.returncode, stderr) == (1, b"")


def test_a_bad_config_through_the_entry_point_exits_one(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text("seed: 1\nbogus: true\n", encoding="utf-8")
    result = run_entry_point("-c", str(config), "--out", str(tmp_path / "out"), "ingest")
    assert (result.returncode, result.stderr) == (1, "error: unknown key bogus\n")


def test_an_unset_token_through_the_entry_point_exits_two(tmp_path, monkeypatch):
    def live(raw):
        raw["replay"] = {}
        raw["backend"]["endpoint"] = _refused_url()

    config = _fixture_copy(tmp_path, live)
    out = tmp_path / "out"
    run_cli(out, "ingest", config=config)
    monkeypatch.delenv("TOMTRACE_API_TOKEN", raising=False)
    result = run_entry_point("-c", str(config), "--out", str(out), "extract")
    assert result.returncode == 2
    assert result.stderr == "backend error: environment variable TOMTRACE_API_TOKEN not set\n"
    assert not (out / "triples").exists()


@pytest.mark.parametrize("section, key, value, command", [
    ("backend", "requests_per_minute", 0, "extract"),
    ("backend", "max_in_flight", "two", "extract"),
    ("backend", "retry_base_backoff_s", -1, "extract"),
    ("eval", "models", "replay-gpt", "eval"),
    ("corpus", "alias_tables", ["king-lear-aliases.txt"], "ingest"),
], ids=["rate-zero", "in-flight-word", "negative-backoff", "models-scalar", "alias-tables-list"])
def test_a_mistyped_setting_through_the_entry_point_exits_one_naming_its_key(
    tmp_path, monkeypatch, section, key, value, command
):
    """Each value once passed the loader and failed later: most in a worker's traceback, and a scalar
    `eval.models` was read as one model per letter."""

    def live(raw):
        del raw["replay"]
        raw["backend"]["endpoint"] = _refused_url()
        raw[section][key] = value

    config = _fixture_copy(tmp_path, live)
    out = tmp_path / "out"
    run_cli(out, *PIPELINE[:PIPELINE.index(command)])
    monkeypatch.setenv("TOMTRACE_API_TOKEN", "t")
    result = run_entry_point("-c", str(config), "--out", str(out), command)
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith(f"error: {section}.{key} must be ") and "Traceback" not in result.stderr


@pytest.mark.parametrize("backoff", [float("inf"), 1.0e300], ids=["inf", "1e300"])
def test_an_unbounded_retry_backoff_through_the_entry_point_sleeps_at_most_the_cap(tmp_path, monkeypatch, backoff):
    """Each sleep between attempts is capped, so a huge base neither overflows `sleep` nor waits for days."""

    def live(raw):
        del raw["replay"]
        raw["backend"]["endpoint"] = _refused_url()
        raw["backend"].update(retry_max_attempts=3, retry_base_backoff_s=backoff)

    config = _fixture_copy(tmp_path, live)
    out = tmp_path / "out"
    run_cli(out, "ingest", config=config)
    monkeypatch.setenv("TOMTRACE_API_TOKEN", "t")
    # Record the sleeps instead of taking them; the gateway binds `time.sleep` when it is imported.
    code = ("import atexit, sys, time; sleeps = []; time.sleep = sleeps.append; "
            "atexit.register(lambda: print('sleeps', *sleeps)); " + ENTRY_POINT)
    result = run_entry_point("-c", str(config), "--out", str(out), "extract", code=code)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("backend error: retries exhausted") and "Traceback" not in result.stderr
    label, *sleeps = result.stdout.splitlines()[-1].split()
    assert label == "sleeps"
    sleeps = [float(s) for s in sleeps]
    assert sleeps and all(s == MAX_BACKOFF_S for s in sleeps)


def test_a_misspelled_alias_table_book_exits_one_before_writing(tmp_path):
    """Ignoring `king-lare` would split King Lear/Lear and Fool/The Fool into separate characters."""
    table = str(CONFIG.parent / "king-lear-aliases.txt")
    config = derived_config(tmp_path, corpus={"alias_tables": {"king-lare": table}})
    out = tmp_path / "out"
    result = run_entry_point("-c", str(config), "--out", str(out), "ingest")
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1] == "error: alias tables name books not in corpus: ['king-lare']"
    assert "Traceback" not in result.stderr
    assert not (out / "corpus").exists()


def test_verify_rerun_keeps_the_verdicts_it_does_not_redo(tmp_path):
    """A second verify writes the verdicts of the questions it skips as the first run wrote them."""
    out = tmp_path / "out"
    first = run_cli(out, *PIPELINE[:PIPELINE.index("verify") + 1])[-1]
    verdicts = (out / "verdicts.jsonl").read_bytes()
    [again] = run_cli(out, "verify")
    assert (again.stdout, (out / "verdicts.jsonl").read_bytes()) == (first.stdout, verdicts)
    # One question back in the generated state is verified again, in its place among the kept ones.
    questions = load_questions(out / "questions.jsonl")
    counts = Counter(v["question_id"] for v in _jsonl(out / "verdicts.jsonl"))
    redo = next(q for q in questions[1:] if counts[q.id] == 1)
    redo.state = QuestionState.GENERATED
    save_questions(questions, out / "questions.jsonl")
    [partial] = run_cli(out, "verify")
    assert (partial.stdout, (out / "verdicts.jsonl").read_bytes()) == (first.stdout, verdicts)


@pytest.mark.parametrize(
    ("merge", "stdout", "lear_plot_2"),
    [
        ({}, "king-lear: 16 edges, 2 supersede links, 1 retirements\n", (0, 2)),
        ({"antonym_pairs": []}, "king-lear: 16 edges, 2 supersede links, 1 retirements\n", (1, 1)),
        ({"mode": "deterministic_merge"}, "king-lear: 16 edges, 0 supersede links, 0 retirements\n", (0, 0)),
    ],
    ids=["fixture", "no-antonyms", "deterministic"],
)
def test_build_kg_follows_the_merge_section(pipeline_out, tmp_path, merge, stdout, lear_plot_2):
    out = tmp_path / "out"
    for stage_dir in ("corpus", "triples"):
        shutil.copytree(pipeline_out / stage_dir, out / stage_dir)
    [result] = run_cli(out, "build-kg", config=derived_config(tmp_path, merge=merge))
    assert result.stdout == stdout
    [entry] = [e for e in _jsonl(out / "kg" / "king-lear.changelog.jsonl")
               if (e["character"], e["plot_index"]) == ("King Lear", 2)]
    assert (len(entry["refined"]), len(entry["contradicted"])) == lear_plot_2
