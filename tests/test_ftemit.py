from __future__ import annotations

import json

import pytest

from tomtrace.config import FtSection
from tomtrace.errors import IoError, MissingKg, UnknownBook
from tomtrace.evalharness import TRIPLE_BLOCK_HEADER
from tomtrace.ftemit import book_splits, emit_example, emit_training_files, write_training_file
from tomtrace.qagen import QuestionState, TomQuestion, question_id
from tomtrace.tkg import TemporalKG, insert_batch
from tomtrace.triples import Dimension, TripleBatch, make_triple


# The fine-tune settings of a run that writes only the variant without triples.
OFF = FtSection(with_triples="off")


def verified_question(plot_index=1, character="Cordelia", dimension=Dimension.BELIEF,
                      correct="B", state=QuestionState.HUMAN_VERIFIED):
    return TomQuestion(
        id=question_id("king-lear", plot_index, character, dimension),
        book_id="king-lear",
        plot_index=plot_index,
        character=character,
        dimension=dimension,
        scenario="",
        reasoning="",
        stem="What does Cordelia believe?",
        options=["one", "two", "three", "four"],
        correct=correct,
        state=state,
    )


def lear_kg():
    kg = TemporalKG(book_id="king-lear", plot_count=2)
    triples = [
        make_triple("Cordelia", "BelievesTowardsKingLear", "his demand confuses love with flattery", 1),
        make_triple("Cordelia", "Desires", "to love and be silent", 1, ordinal=1),
    ]
    insert_batch(kg, TripleBatch(character="Cordelia", plot_index=1, triples=triples))
    return kg


def test_output_with_triples_verbatim(fixture_corpus):
    example = emit_example(verified_question(), lear_kg(), True, corpus=fixture_corpus)
    assert example.output == (
        "Relevant mental state triples:\n"
        "(Cordelia, BelievesTowardsKingLear, his demand confuses love with flattery)\n"
        "(Cordelia, Desires, to love and be silent)\n"
        "Answer:\n"
        "{answer: B}"
    )


def test_output_without_triples_verbatim(fixture_corpus):
    example = emit_example(verified_question(), None, False, corpus=fixture_corpus)
    assert example.output == "Answer:\n{answer: B}"


def test_output_with_empty_triple_state(fixture_corpus):
    kg = lear_kg()
    insert_batch(kg, TripleBatch(character="Fool", plot_index=2, triples=[]))
    q = verified_question(plot_index=2, character="Fool")
    example = emit_example(q, kg, True, corpus=fixture_corpus)
    assert example.output == f"{TRIPLE_BLOCK_HEADER}\nAnswer:\n{{answer: B}}"


def test_input_is_current_plot_without_triples(fixture_corpus):
    book = fixture_corpus.books[0]
    example = emit_example(verified_question(plot_index=2, character="King Lear"),
                           lear_kg(), False, corpus=fixture_corpus)
    assert book.plots[1].summary in example.input
    assert book.plots[0].summary not in example.input
    assert TRIPLE_BLOCK_HEADER not in example.input


def test_both_variants_share_the_same_input(fixture_corpus):
    q = verified_question()
    kg = lear_kg()
    with_triples = emit_example(q, kg, True, corpus=fixture_corpus)
    without = emit_example(q, kg, False, corpus=fixture_corpus)
    assert with_triples.input == without.input


def test_unverified_question_rejected_unless_waived(fixture_corpus, tmp_path):
    """The human-verification gate is `emit_training_files`'s filter."""
    questions = [verified_question(), verified_question(dimension=Dimension.DESIRE, state=QuestionState.LLM_VERIFIED)]
    splits = book_splits(fixture_corpus, [])
    gated = emit_training_files(fixture_corpus, {}, questions, splits, OFF, tmp_path / "gated")
    waived = emit_training_files(fixture_corpus, {}, questions, splits,
                                 FtSection(with_triples="off", require_human_verified=False), tmp_path / "waived")
    assert [count for _, count in gated] == [1, 0] and [count for _, count in waived] == [2, 0]
    [record] = [json.loads(line) for line in gated[0][0].read_text().splitlines()]
    assert record["output"] == emit_example(questions[0], None, False, corpus=fixture_corpus).output


def test_missing_kg_for_triple_variant(fixture_corpus):
    with pytest.raises(MissingKg):
        emit_example(verified_question(), None, True, corpus=fixture_corpus)


# --- splits ---------------------------------------------------------------------------

def _split_files(corpus, questions, ood_titles, out_dir):
    """Each training file's question count, keyed by its split, with questions bucketed by `book_splits`."""
    written = emit_training_files(corpus, {}, questions, book_splits(corpus, ood_titles), OFF, out_dir)
    return {path.name.split("_without")[0]: count for path, count in written}


def test_split_ood_partitions_by_title(fixture_corpus, tmp_path):
    questions = [verified_question(), verified_question(dimension=Dimension.DESIRE)]
    assert _split_files(fixture_corpus, questions, ["King Lear"], tmp_path / "ood") == {"train": 0, "ood_test": 2}
    assert _split_files(fixture_corpus, questions, [], tmp_path / "train") == {"train": 2, "ood_test": 0}


def test_split_title_match_is_normalized(fixture_corpus):
    assert book_splits(fixture_corpus, ["  king   LEAR "]) == {"king-lear": "ood_test"}


def test_split_rejects_unknown_book_title(fixture_corpus):
    with pytest.raises(UnknownBook, match="hamlet"):
        book_splits(fixture_corpus, ["Hamlet"])


def test_split_rejects_question_with_unknown_book(fixture_corpus, tmp_path):
    stray = verified_question()
    stray.book_id = "hamlet"
    with pytest.raises(UnknownBook, match="unknown book 'hamlet'"):
        emit_training_files(fixture_corpus, {}, [stray], book_splits(fixture_corpus, []), OFF, tmp_path)


# --- file output ------------------------------------------------------------------------

def test_training_file_sorted_and_two_fields(fixture_corpus, tmp_path):
    examples = [
        emit_example(verified_question(dimension=d), lear_kg(), False, corpus=fixture_corpus)
        for d in (Dimension.INTENTION, Dimension.BELIEF, Dimension.EMOTION)
    ]
    path = tmp_path / "train.jsonl"
    assert write_training_file(examples, path) == 3
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert all(set(r) == {"input", "output"} for r in records)
    sorted_ids = sorted(e.question_id for e in examples)
    by_id = {e.question_id: e.output for e in examples}
    assert [r["output"] for r in records] == [by_id[i] for i in sorted_ids]


def test_training_file_write_failure(fixture_corpus, tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    with pytest.raises(IoError):
        write_training_file([], target / "train.jsonl")


def test_split_manifest(fixture_corpus):
    """`split_manifest.json` is this table; the emit-ft walkthrough in test_cli checks the file."""
    assert book_splits(fixture_corpus, ["King Lear"]) == {"king-lear": "ood_test"}
    assert book_splits(fixture_corpus, []) == {"king-lear": "train"}
