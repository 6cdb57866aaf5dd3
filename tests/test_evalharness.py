from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest

from tomtrace.errors import MissingKg, MissingPlot, UnknownQuestionId
from tomtrace.evalharness import (
    ALL_CONDITIONS,
    TRIPLE_BLOCK_HEADER,
    ContextMode,
    EvalCondition,
    Prediction,
    ReportLayout,
    ScoreRow,
    ScoreTable,
    assemble_context,
    conditions,
    load_predictions,
    parse_answer,
    prediction_from_record,
    prediction_to_record,
    render_report,
    run_eval,
    score,
)
from tomtrace.llmgate import BackendConfig, Gateway, ReplayEntry, ReplayScript, estimate_tokens
from tomtrace.qagen import QuestionState, TomQuestion, question_id
from tomtrace.tkg import TemporalKG, insert_batch
from tomtrace.triples import Dimension, TripleBatch, make_triple

CURRENT = EvalCondition(ContextMode.CURRENT_PLOT, False)
CURRENT_T = EvalCondition(ContextMode.CURRENT_PLOT, True)
EXTENDED = EvalCondition(ContextMode.CURRENT_PLUS_PREV, False)
EXTENDED_T = EvalCondition(ContextMode.CURRENT_PLUS_PREV, True)


def question_at(plot_index=1, character="Cordelia", dimension=Dimension.BELIEF,
                correct="B", book_id="king-lear", stem="What does Cordelia believe?"):
    return TomQuestion(
        id=question_id(book_id, plot_index, character, dimension),
        book_id=book_id,
        plot_index=plot_index,
        character=character,
        dimension=dimension,
        scenario="",
        reasoning="",
        stem=stem,
        options=["one", "two", "three", "four"],
        correct=correct,
        state=QuestionState.HUMAN_VERIFIED,
    )


def lear_kg():
    kg = TemporalKG(book_id="king-lear", plot_count=2)
    triples = [
        make_triple("Cordelia", "BelievesTowardsKingLear", "his demand confuses love with flattery", 1),
        make_triple("Cordelia", "Desires", "to love and be silent", 1, ordinal=1),
    ]
    insert_batch(kg, TripleBatch(character="Cordelia", plot_index=1, triples=triples))
    return kg


# --- context assembly -------------------------------------------------------------

def test_current_context_uses_only_that_plot(fixture_corpus):
    book = fixture_corpus.books[0]
    prompt = assemble_context(question_at(plot_index=2, character="King Lear"),
                              fixture_corpus, None, CURRENT)
    assert book.plots[1].summary in prompt.text
    assert book.plots[0].summary not in prompt.text
    assert f"SCENARIO:\n{book.plots[1].scenario}" in prompt.text
    assert book.title in prompt.text


def test_extended_context_joins_summaries_in_order(fixture_corpus):
    book = fixture_corpus.books[0]
    prompt = assemble_context(question_at(plot_index=2, character="King Lear"),
                              fixture_corpus, None, EXTENDED)
    joined = book.plots[0].summary + "\n\n" + book.plots[1].summary
    assert joined in prompt.text


def test_extended_context_at_plot_one_equals_current(fixture_corpus):
    a = assemble_context(question_at(), fixture_corpus, None, CURRENT)
    b = assemble_context(question_at(), fixture_corpus, None, EXTENDED)
    assert a.text == b.text


def test_triple_block_lists_active_state(fixture_corpus):
    prompt = assemble_context(question_at(), fixture_corpus, lear_kg(), CURRENT_T)
    expected = (
        f"{TRIPLE_BLOCK_HEADER}\n"
        "(Cordelia, BelievesTowardsKingLear, his demand confuses love with flattery)\n"
        "(Cordelia, Desires, to love and be silent)\n\n"
    )
    assert expected in prompt.text


def test_triple_block_header_only_when_state_empty(fixture_corpus):
    kg = lear_kg()
    q = question_at(plot_index=2, character="Fool")
    insert_batch(kg, TripleBatch(character="Fool", plot_index=2, triples=[]))
    prompt = assemble_context(q, fixture_corpus, kg, EvalCondition(ContextMode.CURRENT_PLOT, True))
    assert f"{TRIPLE_BLOCK_HEADER}\n\n" in prompt.text


def test_no_triple_block_when_disabled(fixture_corpus):
    prompt = assemble_context(question_at(), fixture_corpus, lear_kg(), CURRENT)
    assert TRIPLE_BLOCK_HEADER not in prompt.text


def test_instructions_unescaped_and_personalized(fixture_corpus):
    prompt = assemble_context(question_at(), fixture_corpus, None, CURRENT)
    assert "{answer: X}" in prompt.text
    assert "Cordelia's psychology" in prompt.text
    assert "{{" not in prompt.text


def test_answer_only_style(fixture_corpus):
    prompt = assemble_context(question_at(), fixture_corpus, None, CURRENT,
                              answer_style="answer_only")
    assert "First, identify" not in prompt.text
    assert "{answer: X}" in prompt.text
    with pytest.raises(ValueError):
        assemble_context(question_at(), fixture_corpus, None, CURRENT, answer_style="essay")


def test_token_estimate_matches_text(fixture_corpus):
    prompt = assemble_context(question_at(), fixture_corpus, None, CURRENT)
    assert prompt.token_estimate == estimate_tokens(prompt.text)


def test_missing_book_and_plot(fixture_corpus):
    with pytest.raises(MissingPlot):
        assemble_context(question_at(book_id="hamlet"), fixture_corpus, None, CURRENT)
    with pytest.raises(MissingPlot):
        assemble_context(question_at(plot_index=9), fixture_corpus, None, CURRENT)


def test_missing_kg_when_triples_requested(fixture_corpus):
    with pytest.raises(MissingKg):
        assemble_context(question_at(), fixture_corpus, None, CURRENT_T)


# --- answer parsing -------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("{answer: C}", "C"),
    ('{"answer": "b"}', "B"),
    ("{ Answer : A }", "A"),
    ("{answer: D.}", "D"),
    ("{answer = C}", "C"),
    ("Reasoning first.\n\n{answer: B}", "B"),
    ("C", "C"),
    ("c.", "C"),
    ("(b)", "B"),
    (" D)\n", "D"),
    ("", None),
    ("The answer could be A or B.", None),
    ("I refuse to answer.", None),
])
def test_parse_answer(text, expected):
    assert parse_answer(text) == expected


def test_prediction_record_round_trip_has_no_timing_key():
    pred = Prediction(
        question_id="q1", model_id="m", condition=CURRENT_T,
        letter="A", raw_text="{answer: A}", prompt_tokens_est=42,
    )
    rec = prediction_to_record(pred)
    # Timings would differ between two runs of one config (criterion 6).
    timing = re.compile(r"latency|elapsed|duration|wall|timestamp|seconds|_ms$|_s$")
    assert [key for key in rec if timing.search(key)] == []
    back = prediction_from_record(rec)
    assert back.letter == "A" and back.condition == CURRENT_T
    assert back.prompt_tokens_est == 42


# --- scoring -----------------------------------------------------------------------------

def hand_fixture():
    dims = [Dimension.BELIEF] * 3 + [Dimension.DESIRE] * 2 + [Dimension.EMOTION] * 3 + [Dimension.INTENTION] * 2
    questions = {}
    predictions = []
    letters = ["A", "A", "B", "A", "A", "A", "A", None, "A", "B"]
    for i, (dim, letter) in enumerate(zip(dims, letters)):
        q = question_at(dimension=dim, correct="A", stem=f"q{i}?")
        q.id = f"q{i}"
        questions[q.id] = q
        predictions.append(Prediction(
            question_id=q.id, model_id="m", condition=CURRENT,
            letter=letter, raw_text=letter or "no idea",
        ))
    return questions, predictions


def test_score_hand_recount():
    questions, predictions = hand_fixture()
    table = score(predictions, questions)
    [row] = table.rows
    assert row.cell(Dimension.BELIEF) == Fraction(200, 3)
    assert row.cell(Dimension.DESIRE) == Fraction(100)
    assert row.cell(Dimension.EMOTION) == Fraction(200, 3)
    assert row.cell(Dimension.INTENTION) == Fraction(50)
    assert row.avg() == Fraction(70)  # 7 of 10


def test_unparseable_prediction_counts_wrong():
    questions, predictions = hand_fixture()
    parseable_correct = sum(1 for p in predictions if p.letter == "A")
    table = score(predictions, questions)
    assert sum(table.rows[0].correct.values()) == parseable_correct == 7


def test_score_rejects_unknown_question():
    pred = Prediction(question_id="ghost", model_id="m", condition=CURRENT, letter="A", raw_text="A")
    with pytest.raises(UnknownQuestionId):
        score([pred], {})


def test_from_percentages_average():
    row = ScoreRow.from_percentages("m", CURRENT, {
        Dimension.BELIEF: "66.61",
        Dimension.DESIRE: "70.06",
        Dimension.EMOTION: "69.61",
        Dimension.INTENTION: "71.81",
    })
    assert row.avg() == Fraction("69.5225")


def test_empty_cells_render_as_dash():
    table = ScoreTable()
    table.row("m", CURRENT).total[Dimension.BELIEF] = 1
    text = render_report(table)
    assert "-" in text


# --- report rendering ----------------------------------------------------------------------

def table_70():
    questions, predictions = hand_fixture()
    return score(predictions, questions)


def test_plain_report_golden():
    text = render_report(table_70(), ReportLayout.PLAIN)
    assert text == (
        "Models    Belief    Desire   Emotion Intention       Avg\n"
        "m          66.67    100.00     66.67     50.00     70.00\n"
    )


def test_plain_report_context_headers_appear_with_two_modes():
    questions, predictions = hand_fixture()
    extended = [
        Prediction(question_id=p.question_id, model_id="m", condition=EXTENDED,
                   letter=p.letter, raw_text=p.raw_text)
        for p in predictions
    ]
    text = render_report(score(predictions + extended, questions))
    assert "Context: current\n" in text
    assert "Context: current+prev\n" in text


def test_plain_report_triples_row_label():
    questions, predictions = hand_fixture()
    with_triples = [
        Prediction(question_id=p.question_id, model_id="m", condition=CURRENT_T,
                   letter="A", raw_text="{answer: A}")
        for p in predictions
    ]
    text = render_report(score(predictions + with_triples, questions))
    lines = text.splitlines()
    assert lines[1].startswith("m ")
    assert lines[2].startswith("w Triple")
    assert lines[2].endswith("100.00")


def test_markdown_report_golden():
    text = render_report(table_70(), ReportLayout.MARKDOWN)
    assert text == (
        "| Models | Belief | Desire | Emotion | Intention | Avg |\n"
        "| --- | ---: | ---: | ---: | ---: | ---: |\n"
        "| m | 66.67 | 100.00 | 66.67 | 50.00 | 70.00 |\n"
    )


def test_csv_report_golden():
    text = render_report(table_70(), ReportLayout.CSV)
    assert text == (
        "model,context,condition,belief,desire,emotion,intention,avg\n"
        "m,current,base,66.67,100.00,66.67,50.00,70.00\n"
    )


def test_rows_ordered_mode_then_model_then_triples():
    table = ScoreTable()
    for model in ("beta", "alpha"):
        for condition in ALL_CONDITIONS:
            row = table.row(model, condition)
            row.total[Dimension.BELIEF] = 1
            row.correct[Dimension.BELIEF] = 1
    text = render_report(table)
    labels = [line.split()[0] for line in text.splitlines() if line and not line.startswith(("Models", "Context"))]
    assert labels == ["beta", "w", "alpha", "w", "beta", "w", "alpha", "w"]


# --- full loop -----------------------------------------------------------------------------

def catch_all_gateway(answer="A"):
    script = ReplayScript([ReplayEntry(prompt_pattern="CANDIDATE CHOICES",
                                       response_text=f"{{answer: {answer}}}")])
    return Gateway(BackendConfig(name="replay-gpt", endpoint="", auth_env_var="X"), replay=script)


def test_run_eval_end_to_end(fixture_corpus, tmp_path):
    questions = [question_at(correct="A"), question_at(dimension=Dimension.DESIRE, correct="B")]
    table, path = run_eval(
        fixture_corpus, {"king-lear": lear_kg()}, questions,
        models=["replay-gpt"], conditions=[CURRENT, CURRENT_T],
        gateway=catch_all_gateway("A"), predictions_path=tmp_path / "predictions.jsonl",
    )
    loaded = load_predictions(path)
    assert len(loaded) == 4  # 2 questions x 2 conditions
    assert all(p.letter == "A" for p in loaded)
    for condition in (CURRENT, CURRENT_T):
        row = table.row("replay-gpt", condition)
        assert row.cell(Dimension.BELIEF) == Fraction(100)
        assert row.cell(Dimension.DESIRE) == Fraction(0)


def test_run_eval_degrades_per_item(fixture_corpus, tmp_path, caplog):
    questions = [question_at(correct="A"), question_at(book_id="hamlet")]
    table, path = run_eval(
        fixture_corpus, {}, questions,
        models=["replay-gpt"], conditions=[CURRENT],
        gateway=catch_all_gateway("A"), predictions_path=tmp_path / "predictions.jsonl",
    )
    records = [json.loads(line) for line in path.read_text().splitlines()]
    degraded = [r for r in records if r["error"]]
    assert len(degraded) == 1 and degraded[0]["letter"] is None
    assert "hamlet" in degraded[0]["error"]
    # degraded item still counted, as wrong
    [row] = table.rows
    assert sum(row.total.values()) == 2 and sum(row.correct.values()) == 1


def test_run_eval_orders_items_deterministically(fixture_corpus, tmp_path):
    questions = [
        question_at(plot_index=2, character="King Lear", dimension=Dimension.EMOTION),
        question_at(plot_index=1),
    ]
    _, path = run_eval(
        fixture_corpus, {}, questions,
        models=["replay-gpt"], conditions=[CURRENT, EXTENDED],
        gateway=catch_all_gateway(), predictions_path=tmp_path / "p.jsonl",
    )
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["question_id"] for r in records] == (
        [questions[1].id] * 2 + [questions[0].id] * 2
    )
    assert [r["context"] for r in records] == ["current", "current+prev"] * 2


@pytest.mark.parametrize(
    "context, triples, expected",
    [
        ("current", "off", [CURRENT]),
        ("current", "on", [CURRENT_T]),
        ("current", "both", [CURRENT, CURRENT_T]),
        ("extended", "off", [EXTENDED]),
        ("extended", "on", [EXTENDED_T]),
        ("extended", "both", [EXTENDED, EXTENDED_T]),
        ("both", "off", [CURRENT, EXTENDED]),
        ("both", "on", [CURRENT_T, EXTENDED_T]),
        ("both", "both", [CURRENT, CURRENT_T, EXTENDED, EXTENDED_T]),
    ],
)
def test_conditions_for_each_context_and_triples_choice(context, triples, expected):
    assert conditions(context, triples) == expected
