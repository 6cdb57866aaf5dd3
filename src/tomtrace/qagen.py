"""Multiple-choice question generation, verification, and human review.

Questions move through a small state machine:

    Generated -> LlmVerified | Rejected      (model verification)
    LlmVerified -> HumanVerified | Rejected  (human review round-trip)
    Rejected -> Generated(attempt+1)         (regeneration)

Human verdicts only ever apply to LlmVerified questions.
"""

from __future__ import annotations

import random
import re
from enum import Enum
from pathlib import Path
from typing import Iterator

from .corpus import Conversation, Corpus, Plot
from .errors import (
    AmbiguousCorrect,
    AttemptsExhausted,
    BadOptionCount,
    InvalidState,
    MalformedVerdictRow,
    MissingDimension,
    UnknownQuestionId,
    UnparseableResponse,
    UnreadableSource,
)
from .llmgate import ChatRequest, Gateway, user_request
from .tkg import TemporalKG, state_at
from .triples import DIMENSIONS, Dimension, MentalStateTriple, TemplateOverride, plot_prompt, render_template
from .util import (
    LazyLogger, encode_record, format_half_up, load_json_reply, normalize_name, read_jsonl, reply_payload,
    stable_hash, strip_code_fences, write_csv, write_jsonl,
)

logger = LazyLogger(__name__)

LETTERS = ("A", "B", "C", "D")


class QuestionState(Enum):
    GENERATED = "generated"
    LLM_VERIFIED = "llm_verified"
    HUMAN_VERIFIED = "human_verified"
    REJECTED = "rejected"


class VerificationStage(Enum):
    LLM = "llm"
    HUMAN = "human"


class TomQuestion:
    __slots__ = ("id", "book_id", "plot_index", "character", "dimension", "scenario", "reasoning", "stem",
                 "options", "correct", "state", "attempt", "permutation")
    # A record of questions.jsonl (see util.encode_record); the constructor checks the options and the letter.
    FIELDS = (
        ("id", str), ("book_id", str), ("plot_index", int), ("character", str), ("dimension", Dimension),
        ("scenario", str, ""), ("reasoning", str, ""), ("stem", str), ("options", list[str]), ("correct", str),
        ("state", QuestionState, QuestionState.GENERATED), ("attempt", int, 1), ("permutation", list[int], None),
    )

    def __init__(
        self,
        id: str,
        book_id: str,
        plot_index: int,
        character: str,
        dimension: Dimension,
        scenario: str,
        reasoning: str,
        stem: str,
        options: list[str],
        correct: str,
        state: QuestionState = QuestionState.GENERATED,
        attempt: int = 1,
        permutation: list[int] | None = None,
    ) -> None:
        if len(options) != 4:
            raise BadOptionCount(f"{id or stem!r}: {len(options)} options")
        normalized = {" ".join(o.split()).casefold() for o in options}
        if len(normalized) != 4:
            raise BadOptionCount(f"{id or stem!r}: options not pairwise distinct")
        if correct not in LETTERS:
            raise AmbiguousCorrect(f"{id or stem!r}: correct={correct!r}")
        if attempt < 1:
            raise ValueError("attempt starts at 1")
        self.id = id
        self.book_id = book_id
        self.plot_index = plot_index
        self.character = character
        self.dimension = dimension
        self.scenario = scenario
        self.reasoning = reasoning
        self.stem = stem
        self.options = options  # texts without letter labels, positions are A-D
        self.correct = correct
        self.state = state
        self.attempt = attempt
        self.permutation = permutation  # new position -> original index

    def option_lines(self) -> list[str]:
        return [f"{letter}. {text}" for letter, text in zip(LETTERS, self.options)]


class VerificationVerdict:
    __slots__ = ("question_id", "stage", "passed", "notes")
    FIELDS = (("question_id", str), ("stage", VerificationStage), ("passed", bool), ("notes", str))

    def __init__(self, question_id: str, stage: VerificationStage, passed: bool, notes: str = "") -> None:
        self.question_id = question_id
        self.stage = stage
        self.passed = passed
        self.notes = notes


_LEGAL_TRANSITIONS = {
    (QuestionState.GENERATED, VerificationStage.LLM, True): QuestionState.LLM_VERIFIED,
    (QuestionState.GENERATED, VerificationStage.LLM, False): QuestionState.REJECTED,
    (QuestionState.LLM_VERIFIED, VerificationStage.HUMAN, True): QuestionState.HUMAN_VERIFIED,
    (QuestionState.LLM_VERIFIED, VerificationStage.HUMAN, False): QuestionState.REJECTED,
}


def apply_verdict(question: TomQuestion, verdict: VerificationVerdict) -> TomQuestion:
    """Advance the state machine; illegal transitions raise InvalidState."""
    nxt = _LEGAL_TRANSITIONS.get((question.state, verdict.stage, verdict.passed))
    if nxt is None:
        raise InvalidState(
            f"{question.id}: {verdict.stage.value} verdict not legal in state {question.state.value}"
        )
    question.state = nxt
    return question


# --- generation ----------------------------------------------------------------

def question_id(book_id: str, plot_index: int, character: str, dimension: Dimension) -> str:
    return "q" + stable_hash(book_id, plot_index, normalize_name(character), dimension.value)


def build_question_prompt(
    plot: Plot,
    conversations: list[Conversation],
    character: str,
    previous_triples: list[MentalStateTriple],
    *,
    model_id: str,
    template_override: TemplateOverride | None = None,
) -> ChatRequest:
    """Instantiate the generation template: one question per dimension."""
    return plot_prompt(
        "question_generation.txt",
        plot,
        conversations,
        character,
        previous_triples,
        model_id=model_id,
        template_override=template_override,
        max_output_tokens=3072,
    )


_OPTION_PREFIX_RE = re.compile(r"^\s*\(?([A-Da-d])[\.\):\-]?\s*")
_DIM_KEY_RE = re.compile(r"^(Belief|Emotion|Intention|Desire)\s+Multiple\s+Choice\s+Question$", re.IGNORECASE)


def dimension_key(dimension: Dimension) -> str:
    return f"{dimension.label} Multiple Choice Question"


def _normalize_option(text: str) -> str:
    return _OPTION_PREFIX_RE.sub("", str(text)).strip()


def _correct_letter(value: object, context: str) -> str:
    letters = re.findall(r"\b([A-Da-d])\b", str(value))
    distinct = {letter.upper() for letter in letters}
    if len(distinct) != 1:
        raise AmbiguousCorrect(f"{context}: correct answer {value!r} names {sorted(distinct)}")
    return distinct.pop()


def _question_from_block(
    dimension: Dimension,
    block: dict,
    *,
    book_id: str,
    plot_index: int,
    character: str,
    attempt: int,
) -> TomQuestion:
    context = f"{character}/{dimension.label}"
    options_raw = block.get("Options")
    if not isinstance(options_raw, list) or len(options_raw) != 4:
        count = len(options_raw) if isinstance(options_raw, list) else 0
        raise BadOptionCount(f"{context}: expected 4 options, got {count}")
    options = [_normalize_option(o) for o in options_raw]
    correct = _correct_letter(block.get("Correct Answer", ""), context)
    return TomQuestion(
        id=question_id(book_id, plot_index, character, dimension),
        book_id=book_id,
        plot_index=plot_index,
        character=character,
        dimension=dimension,
        scenario=str(block.get("Scenario", "")).strip(),
        reasoning=str(block.get("Reasoning", "")).strip(),
        stem=str(block.get("Question", "")).strip(),
        options=options,
        correct=correct,
        attempt=attempt,
    )


def _question_blocks(text: str) -> dict[Dimension, dict]:
    """Each dimension's question block in a generation or regeneration reply.

    Blocks are read from the reply object's top level, then from the list (or
    object) it wraps (`reply_payload`); a later block of a dimension replaces
    an earlier one.
    """
    try:
        data = load_json_reply(strip_code_fences(text).strip())
    except ValueError:
        raise UnparseableResponse("generation response is not JSON") from None
    if not isinstance(data, dict):
        raise UnparseableResponse("generation response is not an object")
    nested = reply_payload(data)
    blocks: dict[Dimension, dict] = {}
    for item in [data, *(nested if isinstance(nested, list) else [nested])]:
        if isinstance(item, dict):
            for key, block in item.items():
                m = _DIM_KEY_RE.match(key.strip())
                if m and isinstance(block, dict):
                    blocks[Dimension(m.group(1).casefold())] = block
    return blocks


def parse_question_response(
    text: str,
    *,
    book_id: str,
    plot_index: int,
    character: str,
) -> list[TomQuestion]:
    """Parse a four-dimension generation response, in report-column order."""
    blocks = _question_blocks(text)
    questions = []
    for dimension in DIMENSIONS:
        if dimension not in blocks:
            raise MissingDimension(f"no {dimension.label} question block in response")
        questions.append(
            _question_from_block(
                dimension,
                blocks[dimension],
                book_id=book_id,
                plot_index=plot_index,
                character=character,
                attempt=1,
            )
        )
    return questions


def shuffle_options(question: TomQuestion, rng: random.Random) -> TomQuestion:
    """Permute options with a recorded permutation and remapped correct letter."""
    perm = list(range(4))
    rng.shuffle(perm)
    old_correct = LETTERS.index(question.correct)
    new_options = [question.options[i] for i in perm]
    new_correct = LETTERS[perm.index(old_correct)]
    q = question
    return TomQuestion(
        q.id, q.book_id, q.plot_index, q.character, q.dimension, q.scenario, q.reasoning, q.stem,
        new_options, new_correct, q.state, q.attempt, perm,
    )


# --- verification -----------------------------------------------------------------

_VERDICT_RE = re.compile(r"verdict\\?\"?\s*[:=]\s*\\?\"?\s*(pass|fail)", re.IGNORECASE)
_NOTES_RE = re.compile(r"\"notes\"\s*:\s*\"([^\"]*)\"", re.IGNORECASE)


def parse_verdict_response(text: str) -> tuple[bool, str]:
    """(passed, notes) from a verification response; unparseable fails closed."""
    m = _VERDICT_RE.search(text)
    if m is None:
        word = re.search(r"\b(pass|fail)\b", text, re.IGNORECASE)
        if word is None:
            return False, f"unparseable verdict: {text[:120]!r}"
        return word.group(1).casefold() == "pass", ""
    notes = _NOTES_RE.search(text)
    return m.group(1).casefold() == "pass", notes.group(1) if notes else ""


def build_verification_prompt(
    question: TomQuestion,
    *,
    model_id: str,
    template_override: TemplateOverride | None = None,
) -> ChatRequest:
    prompt = render_template(
        "question_verification.txt",
        template_override,
        dimension=question.dimension.label,
        scenario=question.scenario,
        stem=question.stem,
        options="\n".join(question.option_lines()),
        correct=question.correct,
    )
    return user_request(model_id, prompt, max_output_tokens=512)


def llm_verify(question, gateway, *, model_id: str, template_override: TemplateOverride | None = None):
    """Run model verification on a Generated question and apply the verdict."""
    request = build_verification_prompt(
        question, model_id=model_id, template_override=template_override
    )
    response = gateway.complete(request)
    passed, notes = parse_verdict_response(response.text)
    verdict = VerificationVerdict(
        question_id=question.id,
        stage=VerificationStage.LLM,
        passed=passed,
        notes=notes,
    )
    apply_verdict(question, verdict)
    return verdict


def regenerate(
    question: TomQuestion,
    gateway,
    max_attempts: int,
    *,
    model_id: str,
    notes: str = "",
) -> TomQuestion:
    """Produce a replacement for a rejected question (state Generated, attempt+1).

    The reply must hold a block for the question's own dimension; without one
    it raises UnparseableResponse.
    """
    if question.attempt >= max_attempts:
        raise AttemptsExhausted(f"{question.id}: attempt {question.attempt} hit budget {max_attempts}")
    prompt = render_template(
        "question_regeneration.txt",
        dimension=question.dimension.label,
        dimension_key=dimension_key(question.dimension),
        scenario=question.scenario,
        stem=question.stem,
        options="\n".join(question.option_lines()),
        correct=question.correct,
        notes=notes or "(none)",
    )
    response = gateway.complete(user_request(model_id, prompt, max_output_tokens=1024))
    block = _question_blocks(response.text).get(question.dimension)
    if block is None:
        raise UnparseableResponse(f"regeneration response has no {question.dimension.label} question block")
    return _question_from_block(
        question.dimension,
        block,
        book_id=question.book_id,
        plot_index=question.plot_index,
        character=question.character,
        attempt=question.attempt + 1,
    )


# --- the generation and verification stages -------------------------------------------

# What parsing a generation or regeneration reply raises when the model's text
# cannot be used. It is not a backend failure, and a cached reply raises it on
# every rerun, so the stages skip the item and warn instead.
_UNUSABLE_REPLY = (UnparseableResponse, MissingDimension, BadOptionCount, AmbiguousCorrect)


def generate_questions(
    corpus: Corpus,
    kgs: dict[str, TemporalKG],
    gateway: Gateway,
    *,
    model_id: str,
    template_override: TemplateOverride | None = None,
    shuffle: bool,
    seed: int | None,
) -> list[TomQuestion]:
    """Four questions for every speaking character of every plot, in book -> plot -> speaker order.

    Prompts, with their graph lookups, are built on the gateway runner's
    workers as each draws its next item, under the runner's lock, so one is
    built at a time and in input order; the requests run on the same workers.
    A (book, plot, character) whose reply is unusable gets no questions and
    one warning, logged on the calling thread in input order.
    """

    def jobs() -> Iterator[tuple[str, int, str, ChatRequest]]:
        for book in corpus.books:
            kg = kgs.get(book.id)
            for plot in book.plots:
                for character in plot.speakers():
                    previous: list[MentalStateTriple] = []
                    if kg is not None and plot.index > 1:
                        previous = state_at(kg, character, plot.index - 1)
                    request = build_question_prompt(
                        plot,
                        plot.conversations_of(character),
                        character,
                        previous,
                        model_id=model_id,
                        template_override=template_override,
                    )
                    yield book.id, plot.index, character, request

    def ask(job: tuple[str, int, str, ChatRequest]) -> tuple[list[TomQuestion], str]:
        book_id, plot_index, character, request = job
        response = gateway.complete(request)
        try:
            four = parse_question_response(
                response.text, book_id=book_id, plot_index=plot_index, character=character
            )
        except _UNUSABLE_REPLY as exc:
            return [], f"{book_id}/{character}/p{plot_index}: {exc}; skipped"
        if shuffle:
            four = [shuffle_options(q, random.Random(f"{seed}:{q.id}")) for q in four]
        return four, ""

    results = gateway.run(ask, jobs())
    for _, problem in results:  # on the calling thread, so in input order
        if problem:
            logger.warning("%s", problem)
    return [q for four, _ in results for q in four]


def verify_questions(
    questions: list[TomQuestion],
    gateway: Gateway,
    *,
    model_id: str,
    max_attempts: int,
    template_override: TemplateOverride | None = None,
    shuffle: bool,
    seed: int | None,
) -> tuple[list[TomQuestion], list[VerificationVerdict]]:
    """Model-verify Generated questions, regenerating rejects up to the budget.

    Each question is one verify -> regenerate -> verify chain; chains run on
    the gateway's runner. Returns the final questions and every verdict, both
    in question order. A question this run left rejected, because its attempts
    ran out or a regeneration reply was unusable, is logged once, in the same
    order.
    """

    def chain(question: TomQuestion) -> tuple[TomQuestion, list[VerificationVerdict], str]:
        if question.state is not QuestionState.GENERATED:
            return question, [], ""
        verdicts = []
        current = question
        while True:
            verdict = llm_verify(
                current, gateway, model_id=model_id, template_override=template_override
            )
            verdicts.append(verdict)
            if current.state is QuestionState.LLM_VERIFIED:
                return current, verdicts, ""
            try:
                current = regenerate(
                    current, gateway, max_attempts, model_id=model_id, notes=verdict.notes
                )
            except AttemptsExhausted:
                return current, verdicts, "attempts exhausted"
            except _UNUSABLE_REPLY as exc:
                return current, verdicts, f"regeneration reply unusable: {exc}"
            if shuffle:
                current = shuffle_options(current, random.Random(f"{seed}:{current.id}:{current.attempt}"))

    results = gateway.run(chain, questions)
    for question, _, problem in results:  # on the calling thread, so in question order
        if problem:
            logger.warning("%s: %s, left rejected", question.id, problem)
    return [q for q, _, _ in results], [v for _, verdicts, _ in results for v in verdicts]


def carry_verdicts(
    questions: list[TomQuestion],
    redone: set[str],
    verdicts: list[VerificationVerdict],
    earlier: list[VerificationVerdict],
) -> list[VerificationVerdict]:
    """In question order, `verdicts` for each question whose id is in `redone` and
    `earlier`'s for every other one: a rerun keeps the verdicts of what it did not verify."""
    by_id: dict[str, list[VerificationVerdict]] = {}
    for verdict in verdicts + [v for v in earlier if v.question_id not in redone]:
        by_id.setdefault(verdict.question_id, []).append(verdict)
    return [v for q in questions for v in by_id.pop(q.id, [])]


# --- human review round-trip ---------------------------------------------------------

REVIEW_COLUMNS = (
    "question_id",
    "book_id",
    "plot_index",
    "character",
    "dimension",
    "stem",
    "option_a",
    "option_b",
    "option_c",
    "option_d",
    "correct",
    "verdict",
    "notes",
)


def export_review(questions: list[TomQuestion], path: Path | str) -> int:
    """Write a review CSV with blank verdict columns; the caller passes LlmVerified questions."""
    rows = [
        [
            q.id,
            q.book_id,
            q.plot_index,
            q.character,
            q.dimension.label,
            q.stem,
            q.options[0],
            q.options[1],
            q.options[2],
            q.options[3],
            q.correct,
            "",
            "",
        ]
        for q in questions
    ]
    write_csv(path, [REVIEW_COLUMNS, *rows])
    return len(rows)


class ReviewImportReport:
    __slots__ = ("applied", "skipped_blank", "errors")

    def __init__(self) -> None:
        self.applied: list[VerificationVerdict] = []
        self.skipped_blank = 0
        self.errors: list[str] = []


def import_review(path: Path | str, questions: dict[str, TomQuestion]) -> ReviewImportReport:
    """Apply pass/fail verdicts from a review CSV.

    Rows with problems are reported, not fatal: remaining rows still apply.
    A file without a `question_id` or a `verdict` column raises
    UnreadableSource, since none of its rows could apply.
    """
    import csv  # only here: the stages that read no review CSV do not load it

    report = ReviewImportReport()
    try:
        # utf-8-sig: spreadsheet tools save "CSV UTF-8" with a byte order mark.
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except (OSError, UnicodeError, csv.Error) as exc:
        raise UnreadableSource(f"cannot read review CSV {path}: {exc}") from exc
    missing = [column for column in ("question_id", "verdict") if column not in (reader.fieldnames or ())]
    if missing:
        raise UnreadableSource(f"review CSV {path} has no {' or '.join(missing)} column")
    for row_num, row in enumerate(rows, start=2):
        raw_verdict = (row.get("verdict") or "").strip().casefold()
        qid = (row.get("question_id") or "").strip()
        if not raw_verdict:
            report.skipped_blank += 1
            continue
        try:
            if raw_verdict not in ("pass", "fail"):
                raise MalformedVerdictRow(f"row {row_num}: verdict {raw_verdict!r}")
            if qid not in questions:
                raise UnknownQuestionId(f"row {row_num}: unknown question id {qid!r}")
            verdict = VerificationVerdict(
                question_id=qid,
                stage=VerificationStage.HUMAN,
                passed=raw_verdict == "pass",
                notes=(row.get("notes") or "").strip(),
            )
            apply_verdict(questions[qid], verdict)
            report.applied.append(verdict)
        except (MalformedVerdictRow, UnknownQuestionId, InvalidState) as exc:
            report.errors.append(str(exc))
    return report


# --- statistics ---------------------------------------------------------------------

class QuestionSetStats:
    __slots__ = ("questions", "correct_answers", "distractors", "per_dimension", "per_book")
    # The question set's entry in stats.json (see util.encode_record).
    FIELDS = (("questions", int), ("correct_answers", int), ("distractors", int), ("per_dimension", dict),
              ("per_book", dict))

    def __init__(
        self,
        questions: int,
        correct_answers: int,
        distractors: int,
        per_dimension: dict[str, int],
        per_book: dict[str, int],
    ) -> None:
        self.questions = questions
        self.correct_answers = correct_answers
        self.distractors = distractors
        self.per_dimension = per_dimension
        self.per_book = per_book


def dataset_stats(questions: list[TomQuestion]) -> QuestionSetStats:
    per_dimension = {d.label: 0 for d in DIMENSIONS}
    per_book: dict[str, int] = {}
    for q in questions:
        per_dimension[q.dimension.label] += 1
        per_book[q.book_id] = per_book.get(q.book_id, 0) + 1
    n = len(questions)
    return QuestionSetStats(
        questions=n,
        correct_answers=n,
        distractors=3 * n,
        per_dimension=per_dimension,
        per_book=dict(sorted(per_book.items())),
    )


class FirstPassReport:
    __slots__ = ("verified_questions", "first_attempt_passes", "rate")

    def __init__(self, verified_questions: int, first_attempt_passes: int, rate: str) -> None:
        self.verified_questions = verified_questions
        self.first_attempt_passes = first_attempt_passes
        self.rate = rate  # 2-decimal fraction string, half-up


def first_pass_stats(verdicts: list[VerificationVerdict]) -> FirstPassReport:
    """Share of model-verified questions whose first model verdict passed."""
    first_seen: dict[str, VerificationVerdict] = {}
    for verdict in verdicts:
        if verdict.stage is VerificationStage.LLM and verdict.question_id not in first_seen:
            first_seen[verdict.question_id] = verdict
    total = len(first_seen)
    passes = sum(1 for verdict in first_seen.values() if verdict.passed)
    rate = "0.00" if total == 0 else format_half_up(passes, total)
    return FirstPassReport(verified_questions=total, first_attempt_passes=passes, rate=rate)


# --- question persistence --------------------------------------------------------------

def save_questions(questions: list[TomQuestion], path: Path | str) -> Path:
    return write_jsonl(path, (encode_record(q, TomQuestion.FIELDS) for q in questions))


def load_questions(path: Path | str) -> list[TomQuestion]:
    return read_jsonl(path, TomQuestion.FIELDS, TomQuestion)


def save_verdicts(verdicts: list[VerificationVerdict], path: Path | str) -> Path:
    return write_jsonl(path, (encode_record(v, VerificationVerdict.FIELDS) for v in verdicts))


def load_verdicts(path: Path | str) -> list[VerificationVerdict]:
    return read_jsonl(path, VerificationVerdict.FIELDS, VerificationVerdict)
