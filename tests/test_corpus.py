from __future__ import annotations

import copy
import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomtrace.corpus import (
    Book,
    CharacterRegistry,
    Corpus,
    Plot,
    SegmentKind,
    corpus_stats,
    ingest_corpus,
    load_alias_table,
    parse_turn,
    reconstruct_utterance,
    render_turn,
    segment_utterance,
    serialize_corpus,
)
from tomtrace.errors import (
    AmbiguousAlias,
    DuplicateBookId,
    DuplicatePlotIndex,
    MalformedRecord,
    NoSpeaker,
    UnreadableSource,
)

from conftest import DATA
from tomtrace.util import clean_name, normalize_name


# --- tripartite segmentation -------------------------------------------------

def test_segment_kinds_golden():
    segs = segment_utterance(
        "(slams fist) Nothing will come of nothing. [He watches Cordelia closely.] Speak again."
    )
    assert [(s.kind, s.text) for s in segs] == [
        (SegmentKind.ACTION, "slams fist"),
        (SegmentKind.SPEECH, "Nothing will come of nothing."),
        (SegmentKind.THOUGHT, "He watches Cordelia closely."),
        (SegmentKind.SPEECH, "Speak again."),
    ]


def test_segment_speech_only():
    segs = segment_utterance("Blow, winds, and crack your cheeks!")
    assert len(segs) == 1 and segs[0].kind is SegmentKind.SPEECH


def test_segment_round_trip():
    line = "King Lear: (rises) I did her wrong. [A shadow crosses his face.] Who is it that can tell me who I am?"
    turn = parse_turn(line)
    assert render_turn(turn) == line


def test_unbalanced_delimiter_degrades_to_speech(caplog):
    with caplog.at_level(logging.WARNING):
        segs = segment_utterance("He said (and never closed it")
    assert [s.kind for s in segs] == [SegmentKind.SPEECH]
    assert segs[0].text == "He said (and never closed it"
    assert any("unbalanced" in r.message for r in caplog.records)


def test_parse_turn_requires_speaker():
    with pytest.raises(NoSpeaker):
        parse_turn("no speaker prefix here")
    with pytest.raises(NoSpeaker):
        parse_turn(": leading colon")


def test_parse_turn_rejects_empty_utterance():
    with pytest.raises(MalformedRecord):
        parse_turn("King Lear:   ")


def test_parse_turn_unwraps_quotes():
    turn = parse_turn('"Fool: He wears cruel garters."')
    assert turn.speaker == "Fool"
    assert reconstruct_utterance(turn) == "He wears cruel garters."


# --- registry ------------------------------------------------------------------

def test_alias_table_resolution():
    registry = load_alias_table(DATA / "king-lear-aliases.txt")
    assert registry.resolve("Lear") == "King Lear"
    assert registry.resolve("the king") == "King Lear"
    assert registry.resolve("The Fool") == "Fool"


def test_unknown_name_self_registers():
    registry = CharacterRegistry()
    assert registry.resolve("Kent") == "Kent"
    assert "Kent" in registry.known_names()


def test_ambiguous_alias_raises():
    registry = CharacterRegistry()
    registry.add("Goneril", ["the daughter"])
    registry.add("Regan", ["The Daughter"])
    with pytest.raises(AmbiguousAlias):
        registry.resolve("the daughter")


class _ScanRegistry:
    """CharacterRegistry as it was before its alias index: `resolve` scans every alias of every name."""

    def __init__(self) -> None:
        self._aliases: dict[str, set[str]] = {}

    def add(self, canonical, aliases=()):
        canonical = clean_name(canonical)
        bucket = self._aliases.setdefault(canonical, set())
        bucket.add(canonical)
        for alias in aliases:
            bucket.add(clean_name(alias))

    def known_names(self):
        return set().union(*self._aliases.values())

    def resolve(self, name):
        wanted = normalize_name(name)
        if not wanted:
            raise NoSpeaker("empty character name")
        hits = [
            canonical
            for canonical, aliases in self._aliases.items()
            if any(normalize_name(a) == wanted for a in aliases)
        ]
        if len(hits) > 1:
            raise AmbiguousAlias(f"{name!r} matches {sorted(hits)}")
        if hits:
            return hits[0]
        canonical = clean_name(name)
        self.add(canonical)
        return canonical


# Spellings that differ in case, inner and outer whitespace and casefolding (ß, É), and blank ones.
_NAMES = st.sampled_from([
    "Lear", "lear", "King Lear", "king  lear", " KING LEAR ", "the king", "Fool", "the Fool", "Kent",
    "Goneril", "Regan", "the daughter", "The  Daughter", "Édgar", "ÉDGAR", "Straße", "STRASSE", "", "  ",
])


def _outcome(resolve, name):
    try:
        return "resolved", resolve(name)
    except (AmbiguousAlias, NoSpeaker) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_NAMES, st.none() | st.lists(_NAMES, max_size=3)), max_size=30))
def test_resolve_agrees_with_a_scan_of_every_alias(steps):
    """Each step adds a name with its aliases, or (aliases None) resolves it, on both registries."""
    registry, scan = CharacterRegistry(), _ScanRegistry()
    for name, aliases in steps:
        if aliases is None:
            assert _outcome(registry.resolve, name) == _outcome(scan.resolve, name)
        else:
            registry.add(name, aliases)
            scan.add(name, aliases)
        assert registry.known_names() == scan.known_names()


# --- ingestion -------------------------------------------------------------------

def test_fixture_book_shape(fixture_corpus):
    book = fixture_corpus.book("king-lear")
    assert book is not None and book.title == "King Lear"
    assert [p.index for p in book.plots] == [1, 2]
    conv = book.plots[0].conversations[0]
    # the raw file used "Lear" and "The Fool"; both canonicalize
    assert [t.speaker for t in conv.turns] == ["King Lear", "Goneril", "Cordelia", "King Lear"]
    assert conv.cast == ["King Lear", "Goneril", "Cordelia"]
    assert [t.speaker for t in book.plots[1].conversations[0].turns] == ["King Lear", "Fool", "King Lear"]


def test_environment_lines_merge(fixture_corpus):
    conv = fixture_corpus.book("king-lear").plots[0].conversations[0]
    assert conv.environment.endswith("Trumpets sound as the court assembles beneath the high stone arches.")
    # narration line without a speaker prefix was dropped, not turned into a turn
    assert all("hush falls" not in reconstruct_utterance(t) for t in conv.turns)


def test_missing_path_raises():
    with pytest.raises(UnreadableSource):
        ingest_corpus(DATA / "does-not-exist")


def test_serialize_round_trip(fixture_corpus, tmp_path):
    serialize_corpus(fixture_corpus, tmp_path)
    again = ingest_corpus(tmp_path, format="jsonl")
    orig = fixture_corpus.book("king-lear")
    loaded = again.book("king-lear")
    assert loaded.title == orig.title
    for p_orig, p_load in zip(orig.plots, loaded.plots):
        assert p_load.summary == p_orig.summary
        assert p_load.scenario == p_orig.scenario
        for c_orig, c_load in zip(p_orig.conversations, p_load.conversations):
            assert [render_turn(t) for t in c_load.turns] == [render_turn(t) for t in c_orig.turns]


def test_serialize_round_trip_keeps_unicode_line_separators(fixture_corpus, tmp_path):
    corpus = copy.deepcopy(fixture_corpus)
    plot = corpus.book("king-lear").plots[0]
    plot.summary = "one\u2028two\u2029three\x85four"
    serialize_corpus(corpus, tmp_path)
    assert ingest_corpus(tmp_path, format="jsonl").book("king-lear").plots[0].summary == plot.summary


def test_noncontiguous_indices_rejected(tmp_path):
    target = tmp_path / "gap.jsonl"
    rec = {"book_id": "gap", "title": "Gap", "summary": "s", "conversations": [
        {"environment": "", "cast": [], "turns": [
            {"speaker": "A", "segments": [{"kind": "speech", "text": "hi"}]}]}]}
    with open(target, "w") as fh:
        fh.write(json.dumps({**rec, "index": 1}) + "\n")
        fh.write(json.dumps({**rec, "index": 3}) + "\n")
    with pytest.raises(MalformedRecord):
        ingest_corpus(target, format="jsonl")


def test_duplicate_indices_rejected(tmp_path):
    target = tmp_path / "dup.jsonl"
    rec = {"book_id": "dup", "title": "Dup", "summary": "s", "conversations": [
        {"environment": "", "cast": [], "turns": [
            {"speaker": "A", "segments": [{"kind": "speech", "text": "hi"}]}]}]}
    with open(target, "w") as fh:
        fh.write(json.dumps({**rec, "index": 1}) + "\n")
        fh.write(json.dumps({**rec, "index": 1}) + "\n")
    with pytest.raises(DuplicatePlotIndex):
        ingest_corpus(target, format="jsonl")


def test_two_normalized_books_with_one_id_rejected(tmp_path):
    rec = {"book_id": "dup", "title": "Dup", "summary": "s", "index": 1, "conversations": [
        {"environment": "", "cast": [], "turns": [
            {"speaker": "A", "segments": [{"kind": "speech", "text": "hi"}]}]}]}
    for name in ("a.jsonl", "b.jsonl"):
        (tmp_path / name).write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(DuplicateBookId, match="a.jsonl and .*b.jsonl both give book id 'dup'"):
        ingest_corpus(tmp_path, format="jsonl")


@pytest.mark.parametrize("change, reason", [
    ({"segments": [{"kind": "speech"}]}, "missing field 'text'"),
    ({"segments": [{"kind": "narration", "text": "hi"}]}, "'narration' is not a valid SegmentKind"),
    ({"index": "second"}, "invalid literal for int"),
], ids=["segment-without-text", "unknown-segment-kind", "non-integer-index"])
def test_normalized_reader_names_the_line_of_a_malformed_plot(tmp_path, change, reason):
    turn = {"speaker": "A", "segments": [{"kind": "speech", "text": "hi"}]}
    rec = {"book_id": "bad", "title": "Bad", "summary": "s", "index": 1,
           "conversations": [{"environment": "", "cast": [], "turns": [turn]}]}
    second = {**rec, "index": 2}
    if "segments" in change:
        second["conversations"] = [{"environment": "", "cast": [], "turns": [{**turn, **change}]}]
    else:
        second.update(change)
    target = tmp_path / "bad.jsonl"
    target.write_text(json.dumps(rec) + "\n" + json.dumps(second) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match=f"bad.jsonl:2: {reason}"):
        ingest_corpus(target, format="jsonl")


# --- statistics -----------------------------------------------------------------

def test_stats_golden(fixture_corpus):
    report = corpus_stats(fixture_corpus)
    assert report.total_plots == 2
    assert report.total_conversations == 2
    # conversation 1 has 3 distinct speakers, conversation 2 has 2
    assert report.avg_speakers == "2.50"
    assert report.per_book[0].book_id == "king-lear"


def test_stats_of_a_sub_corpus_count_its_books_alone(fixture_corpus):
    """A sub-corpus derived as release criterion 10 derives the out-of-domain books of the public one."""
    for titles, expected in (({"KING  lear"}, (2, 2, "2.50")), (set(), (0, 0, "0.00"))):
        wanted = {normalize_name(t) for t in titles}
        books = [b for b in fixture_corpus.books if normalize_name(b.title) in wanted]
        sub = Corpus(books=books, registries=fixture_corpus.registries)
        stats = corpus_stats(sub)
        assert (stats.total_plots, stats.total_conversations, stats.avg_speakers) == expected
        assert [b.book_id for b in stats.per_book] == [b.id for b in books]
        assert sub.registries is fixture_corpus.registries


def test_stats_empty_book_flagged():
    book = Book(id="empty", title="Empty", plots=[
        Plot(book_id="empty", index=1, summary="s", scenario="", conversations=[])
    ])
    report = corpus_stats(Corpus(books=[book]))
    assert report.total_conversations == 0
    assert report.avg_speakers == "0.00"
    assert report.per_book[0].conversation_count == 0
    assert report.per_book[0].avg_speakers == "0.00"
