from __future__ import annotations

import csv
import json
import random

import pytest

from conftest import replay_script
from tomtrace.config import BackendSection
from tomtrace.errors import (
    AmbiguousCorrect,
    AttemptsExhausted,
    BadOptionCount,
    InvalidState,
    MissingDimension,
    UnparseableResponse,
    UnreadableSource,
)
from tomtrace.llmgate import Gateway
from tomtrace.qagen import (
    LETTERS,
    QuestionState,
    TomQuestion,
    VerificationStage,
    VerificationVerdict,
    apply_verdict,
    build_question_prompt,
    dataset_stats,
    dimension_key,
    export_review,
    first_pass_stats,
    import_review,
    llm_verify,
    load_questions,
    parse_question_response,
    parse_verdict_response,
    question_id,
    question_to_record,
    regenerate,
    save_questions,
    shuffle_options,
)
from tomtrace.triples import DIMENSIONS, Dimension


def make_question(dimension=Dimension.BELIEF, correct="B", state=QuestionState.GENERATED, attempt=1):
    return TomQuestion(
        id=question_id("king-lear", 1, "Cordelia", dimension),
        book_id="king-lear",
        plot_index=1,
        character="Cordelia",
        dimension=dimension,
        scenario="The court assembles for the love test.",
        reasoning="Cordelia refuses to flatter.",
        stem="What does Cordelia believe about the love test?",
        options=[
            "It rewards honesty",
            "It confuses love with flattery",
            "It favors the youngest",
            "It is a harmless game",
        ],
        correct=correct,
        state=state,
        attempt=attempt,
    )


def block(stem="What?", correct="A"):
    return {
        "Scenario": "s",
        "Reasoning": "r",
        "Question": stem,
        "Options": ["A.first", "B.second", "C.third", "D.fourth"],
        "Correct Answer": correct,
    }


def wrapped_response(**blocks_by_label):
    items = [{f"{label} Multiple Choice Question": b} for label, b in blocks_by_label.items()]
    return json.dumps({"Target Character": items})


def full_response():
    return wrapped_response(
        Belief=block("b?"), Desire=block("d?"), Emotion=block("e?"), Intention=block("i?")
    )


# --- question model ---------------------------------------------------------------

def test_option_count_enforced():
    with pytest.raises(BadOptionCount):
        TomQuestion(
            id="q1", book_id="b", plot_index=1, character="c",
            dimension=Dimension.BELIEF, scenario="", reasoning="", stem="?",
            options=["one", "two", "three"], correct="A",
        )


def test_duplicate_options_rejected():
    with pytest.raises(BadOptionCount):
        TomQuestion(
            id="q1", book_id="b", plot_index=1, character="c",
            dimension=Dimension.BELIEF, scenario="", reasoning="", stem="?",
            options=["same", "Same ", "three", "four"], correct="A",
        )


def test_correct_letter_enforced():
    with pytest.raises(AmbiguousCorrect):
        TomQuestion(
            id="q1", book_id="b", plot_index=1, character="c",
            dimension=Dimension.BELIEF, scenario="", reasoning="", stem="?",
            options=["one", "two", "three", "four"], correct="E",
        )


def test_attempt_starts_at_one():
    with pytest.raises(ValueError):
        make_question(attempt=0)


def test_option_lines_add_letters():
    q = make_question()
    assert q.option_lines()[0] == "A. It rewards honesty"
    assert q.option_lines()[3] == "D. It is a harmless game"


def test_question_id_stable_and_scoped():
    a = question_id("king-lear", 1, "Cordelia", Dimension.BELIEF)
    assert a == question_id("king-lear", 1, "  cordelia ", Dimension.BELIEF)
    assert a.startswith("q")
    assert a != question_id("king-lear", 1, "Cordelia", Dimension.DESIRE)
    assert a != question_id("king-lear", 2, "Cordelia", Dimension.BELIEF)


# --- generation parsing ---------------------------------------------------------------

def test_parse_wrapped_response_in_dimension_order():
    questions = parse_question_response(
        full_response(), book_id="king-lear", plot_index=1, character="Cordelia"
    )
    assert [q.dimension for q in questions] == list(DIMENSIONS)
    assert [q.stem for q in questions] == ["b?", "d?", "e?", "i?"]
    assert all(q.state is QuestionState.GENERATED for q in questions)
    # Of two keys that casefold to "target character", the first is read.
    reply = json.loads(full_response())
    reply["TARGET CHARACTER"] = [{"Belief Multiple Choice Question": block("other?")}]
    questions = parse_question_response(json.dumps(reply), book_id="b", plot_index=1, character="c")
    assert [q.stem for q in questions] == ["b?", "d?", "e?", "i?"]


def test_parse_flat_response():
    flat = json.dumps({
        "Belief Multiple Choice Question": block("b?"),
        "Desire Multiple Choice Question": block("d?"),
        "Emotion Multiple Choice Question": block("e?"),
        "Intention Multiple Choice Question": block("i?"),
    })
    questions = parse_question_response(flat, book_id="b", plot_index=1, character="c")
    assert len(questions) == 4


def test_a_target_character_block_replaces_a_top_level_block_of_its_dimension():
    reply = json.loads(full_response())
    reply["Belief Multiple Choice Question"] = block("top?")
    questions = parse_question_response(json.dumps(reply), book_id="b", plot_index=1, character="c")
    assert [q.stem for q in questions] == ["b?", "d?", "e?", "i?"]


def test_parse_strips_option_letter_prefixes():
    [q, *_] = parse_question_response(
        full_response(), book_id="b", plot_index=1, character="c"
    )
    assert q.options == ["first", "second", "third", "fourth"]


@pytest.mark.parametrize("raw,expected", [
    ("B", "B"), ("B.", "B"), ("(b)", "B"), ("Answer: C", "C"), ("d", "D"),
])
def test_correct_answer_tolerances(raw, expected):
    response = wrapped_response(
        Belief=block(correct=raw), Desire=block(), Emotion=block(), Intention=block()
    )
    [q, *_] = parse_question_response(response, book_id="b", plot_index=1, character="c")
    assert q.correct == expected


def test_multi_letter_correct_rejected():
    response = wrapped_response(
        Belief=block(correct="A or B"), Desire=block(), Emotion=block(), Intention=block()
    )
    with pytest.raises(AmbiguousCorrect):
        parse_question_response(response, book_id="b", plot_index=1, character="c")


def test_missing_dimension_rejected():
    response = wrapped_response(Belief=block(), Desire=block(), Emotion=block())
    with pytest.raises(MissingDimension):
        parse_question_response(response, book_id="b", plot_index=1, character="c")


def test_bad_option_count_in_block():
    bad = block()
    bad["Options"] = ["A.only", "B.two"]
    response = wrapped_response(Belief=bad, Desire=block(), Emotion=block(), Intention=block())
    with pytest.raises(BadOptionCount):
        parse_question_response(response, book_id="b", plot_index=1, character="c")


def test_unparseable_generation_response():
    with pytest.raises(UnparseableResponse):
        parse_question_response("no json here", book_id="b", plot_index=1, character="c")
    with pytest.raises(UnparseableResponse):
        parse_question_response("[1, 2]", book_id="b", plot_index=1, character="c")


def test_parse_accepts_doubled_braces_and_fences():
    text = "```json\n" + full_response().replace("{", "{{").replace("}", "}}") + "\n```"
    assert len(parse_question_response(text, book_id="b", plot_index=1, character="c")) == 4


# --- option shuffling ------------------------------------------------------------------

def test_shuffle_records_permutation_and_remaps_correct():
    q = make_question(correct="B", state=QuestionState.REJECTED, attempt=2)
    shuffled = shuffle_options(q, random.Random("fixed-seed"))
    moved = ("options", "correct", "permutation")
    assert {k: v for k, v in question_to_record(shuffled).items() if k not in moved} == {
        k: v for k, v in question_to_record(q).items() if k not in moved
    }
    assert sorted(shuffled.options) == sorted(q.options)
    assert shuffled.permutation is not None
    # the letter moved with its text
    assert shuffled.options[LETTERS.index(shuffled.correct)] == q.options[LETTERS.index(q.correct)]
    # recorded permutation maps new position -> original index
    assert [q.options[i] for i in shuffled.permutation] == shuffled.options
    assert q.options[LETTERS.index(q.correct)] == "It confuses love with flattery"  # original untouched


@pytest.mark.parametrize("seed", range(25))
def test_shuffle_correctness_property(seed):
    q = make_question(correct=random.Random(seed).choice(LETTERS))
    shuffled = shuffle_options(q, random.Random(seed))
    assert shuffled.options[LETTERS.index(shuffled.correct)] == q.options[LETTERS.index(q.correct)]


# --- state machine ----------------------------------------------------------------------

def verdict(stage, passed):
    return VerificationVerdict(question_id="q", stage=stage, passed=passed)


def test_legal_transitions():
    q = make_question()
    apply_verdict(q, verdict(VerificationStage.LLM, True))
    assert q.state is QuestionState.LLM_VERIFIED
    apply_verdict(q, verdict(VerificationStage.HUMAN, True))
    assert q.state is QuestionState.HUMAN_VERIFIED

    q = make_question()
    apply_verdict(q, verdict(VerificationStage.LLM, False))
    assert q.state is QuestionState.REJECTED

    q = make_question(state=QuestionState.LLM_VERIFIED)
    apply_verdict(q, verdict(VerificationStage.HUMAN, False))
    assert q.state is QuestionState.REJECTED


@pytest.mark.parametrize("state,stage,passed", [
    (QuestionState.GENERATED, VerificationStage.HUMAN, True),
    (QuestionState.GENERATED, VerificationStage.HUMAN, False),
    (QuestionState.LLM_VERIFIED, VerificationStage.LLM, True),
    (QuestionState.HUMAN_VERIFIED, VerificationStage.HUMAN, True),
    (QuestionState.HUMAN_VERIFIED, VerificationStage.LLM, False),
    (QuestionState.REJECTED, VerificationStage.LLM, True),
    (QuestionState.REJECTED, VerificationStage.HUMAN, False),
])
def test_illegal_transitions_raise(state, stage, passed):
    q = make_question(state=state)
    with pytest.raises(InvalidState):
        apply_verdict(q, verdict(stage, passed))


def test_state_machine_random_sequences():
    """Replay random verdict streams against an independent transition table."""
    legal = {
        ("generated", "llm", True): "llm_verified",
        ("generated", "llm", False): "rejected",
        ("llm_verified", "human", True): "human_verified",
        ("llm_verified", "human", False): "rejected",
    }
    rng = random.Random(4242)
    for _ in range(200):
        q = make_question()
        expected = "generated"
        for _ in range(rng.randint(1, 6)):
            stage = rng.choice([VerificationStage.LLM, VerificationStage.HUMAN])
            passed = rng.random() < 0.5
            want = legal.get((expected, stage.value, passed))
            if want is None:
                with pytest.raises(InvalidState):
                    apply_verdict(q, verdict(stage, passed))
                assert q.state.value == expected  # failed transition leaves state alone
            else:
                apply_verdict(q, verdict(stage, passed))
                expected = want
                assert q.state.value == expected


# --- verdict parsing -----------------------------------------------------------------

@pytest.mark.parametrize("text,passed", [
    ('{"verdict": "pass"}', True),
    ('{"verdict": "fail", "notes": "two right answers"}', False),
    ('{"verdict":"PASS"}', True),
    ("Verdict: fail", False),
    ("I think this should pass.", True),
    ("completely unrelated text", False),
])
def test_parse_verdict_response(text, passed):
    assert parse_verdict_response(text)[0] is passed


def test_verdict_notes_extracted():
    passed, notes = parse_verdict_response('{"verdict": "fail", "notes": "two right answers"}')
    assert not passed and notes == "two right answers"


def test_unparseable_verdict_fails_closed():
    passed, notes = parse_verdict_response("???")
    assert passed is False and "unparseable" in notes


# --- model verification and regeneration ----------------------------------------------

BACKEND = BackendSection(name="replay-gpt", endpoint="", auth_env_var="X")


def gateway_with(*records):
    return Gateway(BACKEND, replay=replay_script(*records))


def test_llm_verify_pass_and_fail():
    gw = gateway_with(
        {"prompt_pattern": r"(?s)believe about the love test.*Marked correct",
         "response_text": '{"verdict": "fail", "notes": "ambiguous"}'},
        {"prompt_pattern": "You are reviewing", "response_text": '{"verdict": "pass"}'},
    )
    q = make_question()
    q.stem = "How does Cordelia feel?"
    v = llm_verify(q, gw, model_id="replay-gpt")
    assert v.passed and q.state is QuestionState.LLM_VERIFIED

    rejected = make_question()
    v = llm_verify(rejected, gw, model_id="replay-gpt")
    assert not v.passed and v.notes == "ambiguous"
    assert rejected.state is QuestionState.REJECTED


def test_llm_verify_requires_generated_state():
    gw = gateway_with({"prompt_pattern": ".", "response_text": '{"verdict": "pass"}'})
    with pytest.raises(InvalidState):
        llm_verify(make_question(state=QuestionState.LLM_VERIFIED), gw, model_id="m")


REGEN_BLOCK = json.dumps({
    "Belief Multiple Choice Question": {
        "Scenario": "s", "Reasoning": "r", "Question": "A sharper question?",
        "Options": ["A.w", "B.x", "C.y", "D.z"], "Correct Answer": "C",
    }
})


def test_regenerate_bumps_attempt_same_id():
    gw = gateway_with({"prompt_pattern": "was rejected during review", "response_text": REGEN_BLOCK})
    q = make_question(state=QuestionState.REJECTED)
    replacement = regenerate(q, gw, max_attempts=3, model_id="m", notes="ambiguous")
    assert replacement.id == q.id
    assert replacement.attempt == 2
    assert replacement.state is QuestionState.GENERATED
    assert replacement.stem == "A sharper question?"
    assert replacement.correct == "C"


@pytest.mark.parametrize("reply", [
    {"Belief Multiple Choice Question": block("b?"), "Desire Multiple Choice Question": block("d?")},
    {"Target Character": [{"Belief Multiple Choice Question": block("b?")},
                          {"Desire Multiple Choice Question": block("d?")}]},
], ids=["top-level", "target-character"])
def test_regenerate_takes_the_block_of_the_rejected_dimension(reply):
    gw = gateway_with({"prompt_pattern": ".", "response_text": json.dumps(reply)})
    q = make_question(dimension=Dimension.DESIRE, state=QuestionState.REJECTED)
    replacement = regenerate(q, gw, max_attempts=3, model_id="m")
    assert (replacement.dimension, replacement.stem) == (Dimension.DESIRE, "d?")


def test_regenerate_rejects_a_reply_without_the_rejected_dimension():
    gw = gateway_with({"prompt_pattern": ".", "response_text": REGEN_BLOCK})
    q = make_question(dimension=Dimension.DESIRE, state=QuestionState.REJECTED)
    with pytest.raises(UnparseableResponse, match="no Desire question block"):
        regenerate(q, gw, max_attempts=3, model_id="m")


def test_regenerate_attempt_budget():
    gw = gateway_with({"prompt_pattern": ".", "response_text": REGEN_BLOCK})
    q = make_question(state=QuestionState.REJECTED, attempt=3)
    with pytest.raises(AttemptsExhausted):
        regenerate(q, gw, max_attempts=3, model_id="m")


def test_question_prompt_fills_placeholders(fixture_corpus):
    plot = fixture_corpus.books[0].plots[0]
    request = build_question_prompt(plot, plot.conversations, "Cordelia", [], model_id="m")
    prompt = request.prompt_text()
    assert plot.summary in prompt
    assert "Cordelia" in prompt
    assert "$" not in prompt


# --- review round trip --------------------------------------------------------------

def verified_set():
    questions = []
    for dimension in DIMENSIONS:
        q = make_question(dimension=dimension, state=QuestionState.LLM_VERIFIED)
        questions.append(q)
    return questions


def test_review_round_trip(tmp_path):
    questions = verified_set()
    path = tmp_path / "review.csv"
    assert export_review(questions, path) == 4

    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert rows[0]["option_b"] == "It confuses love with flattery"
    rows[0]["verdict"] = "pass"
    rows[1]["verdict"] = "fail"
    rows[1]["notes"] = "poor distractors"
    rows[2]["verdict"] = ""          # left blank: skipped
    rows[3]["verdict"] = "maybe"     # malformed
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=rows[0].keys())
        writer.writeheader()
        writer.writerows(rows)

    by_id = {q.id: q for q in questions}
    report = import_review(path, by_id)
    assert len(report.applied) == 2
    assert report.skipped_blank == 1
    assert len(report.errors) == 1 and "maybe" in report.errors[0]
    assert questions[0].state is QuestionState.HUMAN_VERIFIED
    assert questions[1].state is QuestionState.REJECTED
    assert questions[2].state is QuestionState.LLM_VERIFIED
    assert report.applied[1].notes == "poor distractors"


def test_import_review_unknown_id(tmp_path):
    questions = verified_set()
    path = tmp_path / "review.csv"
    export_review(questions, path)
    text = path.read_text().replace(questions[0].id, "qdoesnotexist")
    path.write_text(text.replace('"",""', '"pass",""'))  # no-op if quoting differs

    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["verdict"] = "pass"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=rows[0].keys())
        writer.writeheader()
        writer.writerows(rows)

    report = import_review(path, {q.id: q for q in questions})
    assert len(report.applied) == 3
    assert len(report.errors) == 1 and "qdoesnotexist" in report.errors[0]


def test_import_review_applies_every_verdict_of_a_csv_saved_with_a_byte_order_mark(tmp_path):
    """Spreadsheet tools save "CSV UTF-8" with a BOM before the first header."""
    questions = verified_set()
    path = tmp_path / "review.csv"
    export_review(questions, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["verdict"] = "pass"
    with open(path, "w", encoding="utf-8-sig", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=rows[0].keys())
        writer.writeheader()
        writer.writerows(rows)
    assert path.read_bytes().startswith(b"\xef\xbb\xbfquestion_id,")
    report = import_review(path, {q.id: q for q in questions})
    assert (len(report.applied), report.errors) == (4, [])
    assert all(q.state is QuestionState.HUMAN_VERIFIED for q in questions)


def test_import_review_of_an_unparseable_csv_is_an_unreadable_source(tmp_path):
    path = tmp_path / "review.csv"
    path.write_text('question_id,verdict\n"' + "x" * (csv.field_size_limit() + 1) + '",pass\n', encoding="utf-8")
    with pytest.raises(UnreadableSource, match="field larger than field limit"):
        import_review(path, {})


def test_import_review_double_apply_collected_as_error(tmp_path):
    questions = verified_set()
    path = tmp_path / "review.csv"
    export_review(questions, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["verdict"] = "pass"
    rows.append(dict(rows[0]))  # duplicate row: second apply is illegal
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=rows[0].keys())
        writer.writeheader()
        writer.writerows(rows)
    report = import_review(path, {q.id: q for q in questions})
    assert len(report.applied) == 4
    assert len(report.errors) == 1


# --- statistics ------------------------------------------------------------------------

def test_dataset_stats():
    questions = verified_set() + [make_question(dimension=Dimension.BELIEF)]
    stats = dataset_stats(questions)
    assert stats.questions == 5
    assert stats.correct_answers == 5
    assert stats.distractors == 15
    assert stats.per_dimension == {"Belief": 2, "Desire": 1, "Emotion": 1, "Intention": 1}
    assert stats.per_book == {"king-lear": 5}


def test_first_pass_stats():
    verdicts = [
        VerificationVerdict("q1", VerificationStage.LLM, True),
        VerificationVerdict("q2", VerificationStage.LLM, False),
        VerificationVerdict("q2", VerificationStage.LLM, True),   # retry: not first-pass
        VerificationVerdict("q3", VerificationStage.LLM, True),
        VerificationVerdict("q3", VerificationStage.HUMAN, True),  # human stage ignored
    ]
    report = first_pass_stats(verdicts)
    assert report.verified_questions == 3
    assert report.first_attempt_passes == 2
    assert report.rate == "0.67"


def test_first_pass_stats_empty():
    assert first_pass_stats([]).rate == "0.00"


# --- persistence -------------------------------------------------------------------------

def test_question_save_load_round_trip(tmp_path):
    questions = verified_set()
    questions[0].permutation = [2, 0, 3, 1]
    path = save_questions(questions, tmp_path / "questions.jsonl")
    loaded = load_questions(path)
    assert len(loaded) == 4
    for before, after in zip(questions, loaded):
        assert question_id(before.book_id, before.plot_index, before.character, before.dimension) == after.id
        assert before.options == after.options
        assert before.state is after.state
        assert before.permutation == after.permutation


def test_dimension_key_round_trip():
    assert dimension_key(Dimension.EMOTION) == "Emotion Multiple Choice Question"
