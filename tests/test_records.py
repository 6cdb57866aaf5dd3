"""The record codec: each record type's declared fields, one writer and one reader.

Round trips write objects, read them back and write them again; the bytes
must not change. The table tests damage one field of one record of the
fixture pipeline's output and run the first stage that reads the file: it
must exit 1 with an `error:` line naming the file, the line and the field,
and print no traceback. JSON from outside the package (model replies, source
books, backend bodies, record lines) goes through `util.decode_json`, so an
integer past the digit limit or nesting deeper than the stack is an error the
caller reports, not a crash.
"""

from __future__ import annotations

import json
import re
import shutil
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA, derived_config, http_backend, run_cli, send_reply
from tomtrace.config import BackendSection
from tomtrace.corpus import PLOT_RECORD, Conversation, Plot, SegmentKind, Turn, UtteranceSegment, ingest_corpus
from tomtrace.errors import MalformedRecord, TransportError, UnparseableResponse
from tomtrace.evalharness import ContextMode, Prediction, load_predictions
from tomtrace.llmgate import Gateway, ReplayScript, ResponseCache, user_request
from tomtrace.qagen import (
    LETTERS, QuestionState, TomQuestion, VerificationStage, VerificationVerdict, load_questions, load_verdicts,
    parse_question_response, save_questions, save_verdicts,
)
from tomtrace.tkg import GRAPH_RECORDS, RetireRecord, SupersedeLink, SupersedeReason, TemporalKG, load_kg, save_kg
from tomtrace.triples import TRIPLE_RECORD, Dimension, MentalStateTriple, load_triples, parse_triple_response
from tomtrace.util import (
    decode_json, encode_record, load_json_reply, read_jsonl, sha256_text, write_jsonl,
)

ROUND_TRIP = settings(max_examples=25, deadline=None, derandomize=True)
TEXT = st.text(max_size=12)
IDS = st.text(string.ascii_lowercase + string.digits, min_size=1, max_size=8)
COUNTS = st.integers(min_value=0, max_value=10**6)
PLOTS = st.integers(min_value=1, max_value=50)

HUGE = "7" * 5000  # an integer past the interpreter's 4300-digit limit for int()
DEEP = "[" * 100_000 + "]" * 100_000  # nested deeper than the interpreter's stack allows


def _rewritten(path: Path, save, load) -> None:
    """`save` of `load(path)` writes the bytes `path` holds."""
    first = path.read_bytes()
    assert save(load(path), path).read_bytes() == first


# --- round trips ------------------------------------------------------------------

_OPTIONS = st.lists(TEXT, min_size=4, max_size=4, unique_by=lambda o: " ".join(o.split()).casefold())
_QUESTIONS = st.builds(
    TomQuestion, id=IDS, book_id=IDS, plot_index=PLOTS, character=TEXT, dimension=st.sampled_from(Dimension),
    scenario=TEXT, reasoning=TEXT, stem=TEXT, options=_OPTIONS, correct=st.sampled_from(LETTERS),
    state=st.sampled_from(QuestionState), attempt=st.integers(min_value=1, max_value=9),
    permutation=st.none() | st.permutations(range(4)),
)


@ROUND_TRIP
@given(st.lists(_QUESTIONS, max_size=5))
def test_questions_round_trip(tmp_path_factory, questions):
    path = save_questions(questions, tmp_path_factory.mktemp("q") / "questions.jsonl")
    assert [encode_record(q, TomQuestion.FIELDS) for q in load_questions(path)] == [
        encode_record(q, TomQuestion.FIELDS) for q in questions
    ]
    _rewritten(path, save_questions, load_questions)


def test_a_stem_naming_an_environment_variable_round_trips(tmp_path, monkeypatch):
    """Record fields are read as written: no `${VAR}` interpolation, as the config reader does."""
    monkeypatch.setenv("HOME", "/somewhere")
    question = TomQuestion("q1", "b", 1, "Lear", Dimension.BELIEF, "", "", "Why ${HOME}?", list("wxyz"), "A")
    [loaded] = load_questions(save_questions([question], tmp_path / "questions.jsonl"))
    assert loaded.stem == "Why ${HOME}?"


@ROUND_TRIP
@given(st.lists(st.builds(VerificationVerdict, IDS, st.sampled_from(VerificationStage), st.booleans(), TEXT),
                max_size=5))
def test_verdicts_round_trip(tmp_path_factory, verdicts):
    path = save_verdicts(verdicts, tmp_path_factory.mktemp("v") / "verdicts.jsonl")
    _rewritten(path, save_verdicts, load_verdicts)


def _save_predictions(predictions: list[Prediction], path: Path) -> Path:
    return write_jsonl(path, (encode_record(p, Prediction.FIELDS) for p in predictions))


@ROUND_TRIP
@given(st.lists(st.builds(
    Prediction, IDS, TEXT, st.sampled_from(ContextMode), st.booleans(), st.none() | st.sampled_from(LETTERS), TEXT,
    COUNTS, st.none() | TEXT,
), max_size=5))
def test_predictions_round_trip(tmp_path_factory, predictions):
    path = _save_predictions(predictions, tmp_path_factory.mktemp("p") / "predictions.jsonl")
    _rewritten(path, _save_predictions, load_predictions)


_TRIPLES = st.builds(
    MentalStateTriple, IDS, TEXT, TEXT, st.sampled_from(Dimension), st.none() | TEXT, TEXT, PLOTS,
)


def _save_triples(records: list[dict], path: Path) -> Path:
    return write_jsonl(path, (encode_record(None, TRIPLE_RECORD, **record) for record in records))


@ROUND_TRIP
@given(st.lists(st.tuples(IDS, TEXT, _TRIPLES), max_size=5))
def test_kept_triples_round_trip(tmp_path_factory, kept):
    records = [encode_record(t, TRIPLE_RECORD, book_id=book, character=c) for book, c, t in kept]
    path = write_jsonl(tmp_path_factory.mktemp("t") / "book.jsonl", records)
    _rewritten(path, _save_triples, load_triples)


_SEGMENTS = st.builds(UtteranceSegment, st.sampled_from(SegmentKind), TEXT)
_TURNS = st.builds(Turn, TEXT, st.lists(_SEGMENTS, max_size=3))
_CONVERSATIONS = st.builds(Conversation, TEXT, st.lists(TEXT, max_size=3), st.lists(_TURNS, min_size=1, max_size=3))
_PLOTS = st.builds(Plot, IDS, PLOTS, TEXT, TEXT, st.lists(_CONVERSATIONS, max_size=2))


def _save_plots(records: list[tuple[Plot, str]], path: Path) -> Path:
    return write_jsonl(path, (encode_record(plot, PLOT_RECORD, title=title) for plot, title in records))


def _load_plots(path: Path) -> list[tuple[Plot, str]]:
    return read_jsonl(path, PLOT_RECORD, lambda title, **fields: (Plot(**fields), title))


@ROUND_TRIP
@given(st.lists(st.tuples(_PLOTS, TEXT), max_size=3))
def test_plot_records_round_trip(tmp_path_factory, plots):
    path = _save_plots(plots, tmp_path_factory.mktemp("c") / "book.jsonl")
    _rewritten(path, _save_plots, _load_plots)


@st.composite
def _graphs(draw) -> TemporalKG:
    """A graph of every record kind whose links and retirements name its edges."""
    kg = TemporalKG(draw(IDS), draw(st.none() | PLOTS))
    kg.nodes = draw(st.dictionaries(TEXT, PLOTS, min_size=1, max_size=3))
    for triple in draw(st.lists(_TRIPLES, max_size=5, unique_by=lambda t: t.id)):
        kg.edges[triple.id] = triple
        kg.index.setdefault(draw(st.sampled_from(sorted(kg.nodes))), []).append(triple.id)
    if kg.edges:
        ids = st.sampled_from(sorted(kg.edges))
        kg.supersede_links = draw(st.lists(st.builds(SupersedeLink, ids, ids, st.sampled_from(SupersedeReason)),
                                           max_size=3))
        kg.retirements = draw(st.lists(st.builds(RetireRecord, ids, PLOTS), max_size=3))
    return kg


@ROUND_TRIP
@given(_graphs())
def test_graph_records_round_trip(tmp_path_factory, kg):
    path = save_kg(kg, tmp_path_factory.mktemp("g") / "book.kg.jsonl")
    kinds = [json.loads(line)["record"] for line in path.read_text(encoding="utf-8").splitlines()]
    assert set(kinds) - {"header"} <= set(GRAPH_RECORDS)
    _rewritten(path, save_kg, load_kg)


@ROUND_TRIP
@given(st.dictionaries(TEXT, TEXT.filter(bool), max_size=4), TEXT.filter(bool))
def test_replay_entries_round_trip(tmp_path_factory, answers, fallback):
    """Each prompt's entry answers it by digest; a pattern entry answers a prompt no digest names."""
    entries = [{"digest": user_request("m", prompt).digest, "response_text": text} for prompt, text in answers.items()]
    entries.append({"prompt_pattern": "(?s).*", "response_text": fallback})
    path = write_jsonl(tmp_path_factory.mktemp("r") / "replay.jsonl", entries)
    script = ReplayScript.load(path)
    for prompt, text in answers.items():
        assert script.lookup(user_request("m", prompt)) == text
    assert script.lookup(user_request("m", "a prompt longer than any drawn")) == fallback
    assert read_jsonl(path, ReplayScript.ENTRY) == [
        {"response_text": e["response_text"], "digest": e.get("digest"), "prompt_pattern": e.get("prompt_pattern")}
        for e in entries
    ]


# --- damaged records, through the CLI -----------------------------------------------

def _field_name(path: tuple) -> str:
    """A field's name as an error gives it: `conversations[0].turns[0].speaker`."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def _wrong_value(kind) -> object:
    """A JSON value of another type than `kind`, or outside its enum."""
    if kind in (str, int, bool):
        return {str: 5, int: "2", bool: 1}[kind]
    if getattr(kind, "__origin__", None) is list:
        return "abcd"
    return "x" if hasattr(kind, "FIELDS") else "Z"


def _fields(fields: tuple, prefix: tuple = ()):
    """(path, type) of each declared field, nested records' fields included (first item of a list)."""
    for key, kind, *_ in fields:
        yield prefix + (key,), kind
        item = getattr(kind, "__args__", [None])[0]
        if hasattr(item, "FIELDS"):
            yield from _fields(item.FIELDS, prefix + (key, 0))


# (artifact under out/, or the replay script; its declaration; the line to damage; the stage that reads it)
RECORD_FILES = [
    ("corpus/king-lear.jsonl", PLOT_RECORD, 1, "stats"),
    ("triples/king-lear.jsonl", TRIPLE_RECORD, 1, "build-kg"),
    *[("kg/king-lear.kg.jsonl", fields, kind, "genqa") for kind, fields in GRAPH_RECORDS.items()],
    ("questions.jsonl", TomQuestion.FIELDS, 1, "review-export"),
    ("verdicts.jsonl", VerificationVerdict.FIELDS, 1, "verify"),
    ("predictions.jsonl", Prediction.FIELDS, 1, "report"),
    ("replay.jsonl", ReplayScript.ENTRY, 1, "extract"),
]
FIELD_CASES = [
    pytest.param(artifact, line, path, _wrong_value(kind), stage, id=f"{artifact}:{line}:{_field_name(path)}")
    for artifact, fields, line, stage in RECORD_FILES
    for path, kind in _fields(fields)
]


def _set(record: dict, path: tuple, value: object) -> None:
    for step in path[:-1]:
        record = record[step]
    record[path[-1]] = value


def _damaged_run(pipeline_out: Path, tmp_path: Path, artifact: str, line, edit, stage: str):
    """Copy the fixture output, pass one line of `artifact` (a number, or a graph record kind) through
    `edit`, and run `stage` on it; returns the run, the file and the line number."""
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    config = None
    if artifact == "replay.jsonl":
        target = tmp_path / artifact
        shutil.copy(DATA / artifact, target)
        config = derived_config(tmp_path, replay={"script": str(target)})
    else:
        target = out / artifact
    lines = target.read_text(encoding="utf-8").splitlines()
    if isinstance(line, str):  # the first graph record of that kind
        line = next(n for n, text in enumerate(lines, start=1) if json.loads(text)["record"] == line)
    lines[line - 1] = edit(lines[line - 1])
    if target.name.endswith(".kg.jsonl"):  # keep the integrity hash whole, so the record itself is read
        header = {**json.loads(lines[0]), "integrity": sha256_text("\n".join(lines[1:]))}
        lines[0] = json.dumps(header)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    [result] = run_cli(out, stage, expect=1, **({"config": config} if config else {}))
    return result, target, line


def _assert_error_line(result, target: Path, line: int, field: str) -> None:
    assert isinstance(result.exception, SystemExit), result.output  # anything else would be a traceback
    assert "Traceback" not in result.output
    pattern = rf"^error: .*{re.escape(target.name)}:{line}: .*{re.escape(field)}"
    assert re.search(pattern, result.stderr, re.MULTILINE), result.stderr


@pytest.mark.parametrize("artifact, line, path, value, stage", FIELD_CASES)
def test_a_wrong_typed_field_exits_one_naming_file_line_and_field(pipeline_out, tmp_path, artifact, line, path,
                                                                  value, stage):
    def edit(text: str) -> str:
        record = json.loads(text)
        _set(record, path, value)
        return json.dumps(record, ensure_ascii=False)

    result, target, number = _damaged_run(pipeline_out, tmp_path, artifact, line, edit, stage)
    _assert_error_line(result, target, number, _field_name(path))


def test_the_table_covers_every_declared_record_type():
    declared = {id(fields) for _, fields, _, _ in RECORD_FILES}
    for fields in (PLOT_RECORD, TRIPLE_RECORD, *GRAPH_RECORDS.values(), TomQuestion.FIELDS,
                   VerificationVerdict.FIELDS, Prediction.FIELDS, ReplayScript.ENTRY):
        assert id(fields) in declared
    assert len(FIELD_CASES) == sum(len(list(_fields(fields))) for _, fields, _, _ in RECORD_FILES)


SPEAKER = ("conversations", 0, "turns", 0, "speaker")


@pytest.mark.parametrize("artifact, path, value, stage", [
    ("questions.jsonl", ("plot_index",), "2", "eval"),
    ("triples/king-lear.jsonl", ("object",), 5, "build-kg"),
    ("triples/king-lear.jsonl", ("subject",), None, "build-kg"),
    *[("corpus/king-lear.jsonl", SPEAKER, None, stage)
      for stage in ("extract", "build-kg", "genqa", "eval", "emit-ft", "stats")],
    ("corpus/king-lear.jsonl", ("title",), 3, "stats"),
    ("questions.jsonl", ("options",), "abcd", "eval"),
    ("questions.jsonl", ("stem",), 5, "eval"),
    ("predictions.jsonl", ("letter",), "Z", "report"),
    ("triples/king-lear.jsonl", ("id",), 9, "build-kg"),
])
def test_a_record_that_used_to_crash_or_pass_exits_one(pipeline_out, tmp_path, artifact, path, value, stage):
    """Each of these once printed a traceback or went into a prompt or a report as is."""
    def edit(text: str) -> str:
        record = json.loads(text)
        _set(record, path, value)
        return json.dumps(record, ensure_ascii=False)

    result, target, number = _damaged_run(pipeline_out, tmp_path, artifact, 1, edit, stage)
    _assert_error_line(result, target, number, _field_name(path))


@pytest.mark.parametrize("artifact, line, stage", [
    ("questions.jsonl", 1, "review-export"),
    ("corpus/king-lear.jsonl", 2, "stats"),
    ("kg/king-lear.kg.jsonl", "edge", "genqa"),
    ("predictions.jsonl", 3, "report"),
])
def test_a_record_line_nested_too_deep_exits_one(pipeline_out, tmp_path, artifact, line, stage):
    result, target, number = _damaged_run(pipeline_out, tmp_path, artifact, line, lambda text: DEEP, stage)
    _assert_error_line(result, target, number, "nested too deeply")


# --- JSON from outside the package ----------------------------------------------------

@pytest.mark.parametrize("text", [HUGE, DEEP], ids=["huge-integer", "deep-nesting"])
def test_decode_json_raises_value_error_past_the_decoders_limits(text):
    with pytest.raises(ValueError):
        decode_json(text)


@pytest.mark.parametrize("payload", [HUGE, DEEP], ids=["huge-integer", "deep-nesting"])
def test_a_model_reply_past_the_limits_is_unusable(payload):
    """`load_json_reply`: the reply parsers reject it as they reject any reply that is not JSON."""
    with pytest.raises(ValueError):
        load_json_reply(payload)
    with pytest.raises(UnparseableResponse):
        parse_question_response(f'{{"Target Character": {payload}}}', book_id="b", plot_index=1, character="c")
    with pytest.raises(UnparseableResponse):
        parse_triple_response(f'{{"Target Character": {payload}}}', "c", 1)


def test_genqa_skips_a_reply_nested_too_deep_with_a_warning(pipeline_out, tmp_path, caplog):
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    script = tmp_path / "replay.jsonl"
    deep = json.dumps({"prompt_pattern": "generate one multiple choice question", "response_text": DEEP})
    script.write_text(deep + "\n" + (DATA / "replay.jsonl").read_text(encoding="utf-8"), encoding="utf-8")
    [result] = run_cli(out, "genqa", config=derived_config(tmp_path, replay={"script": str(script)}))
    assert result.stdout == "generated 0 questions\n"
    warnings = [r.getMessage() for r in caplog.records if r.name == "tomtrace.qagen"]
    assert warnings and all(w.endswith(": generation response is not JSON; skipped") for w in warnings), warnings


@pytest.mark.parametrize("payload", [HUGE, DEEP], ids=["huge-integer", "deep-nesting"])
def test_a_source_book_past_the_limits_exits_one_naming_it(tmp_path, payload):
    book = tmp_path / "book.json"
    book.write_text(f'{{"title": "T", "plots": [{{"summary": "s"}}], "n": {payload}}}', encoding="utf-8")
    with pytest.raises(MalformedRecord, match="unreadable JSON"):
        ingest_corpus(book)
    config = derived_config(tmp_path, corpus={"input": str(book), "alias_tables": {}})
    [result] = run_cli(tmp_path / "out", "ingest", expect=1, config=config)
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: {book}: unreadable JSON")


@pytest.mark.parametrize("body", [HUGE.encode(), DEEP.encode()], ids=["huge-integer", "deep-nesting"])
def test_a_backend_body_past_the_limits_is_a_backend_error(monkeypatch, body):
    monkeypatch.setenv("TT_TOKEN", "t")
    backend_answer = lambda handler, n, payload: send_reply(handler, 200, body)  # noqa: E731
    with http_backend(backend_answer) as server:
        backend = BackendSection(name="live", endpoint=server.url, auth_env_var="TT_TOKEN", retry_max_attempts=1)
        with pytest.raises(TransportError, match="cannot extract"):
            Gateway(backend).complete(user_request("m", "hello"))


def test_a_cache_line_nested_too_deep_is_a_miss(tmp_path):
    backend = BackendSection(name="live")
    digest = user_request("m", "hello").digest
    (tmp_path / "responses.jsonl").write_text(f"{ResponseCache.key_for(digest, backend)} {DEEP}\n", encoding="utf-8")
    cache = ResponseCache(tmp_path)
    assert cache.get(digest, backend) is None
    cache.close()


def test_a_record_line_past_the_limits_names_its_file_and_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n' + f'{{"n": {HUGE}}}\n' + DEEP + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match=f"records.jsonl:2: invalid JSON: Exceeds the limit"):
        read_jsonl(path)
    path.write_text('{"a": 1}\n' + DEEP + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match="records.jsonl:2: invalid JSON: JSON nested too deeply"):
        read_jsonl(path)
