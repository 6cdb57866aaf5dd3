"""Multiple-choice question generation, verification, and human review.

Questions move through a small state machine:

    Generated -> LlmVerified | Rejected      (model verification)
    LlmVerified -> HumanVerified | Rejected  (human review round-trip)
    Rejected -> Generated(attempt+1)         (regeneration)

Human verdicts only ever apply to LlmVerified questions.
"""

from __future__ import annotations

import csv
import json
import logging
import random
import re
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from fractions import Fraction
from pathlib import Path

from .corpus import Conversation, Corpus, Plot
from .errors import (
    AmbiguousCorrect,
    AttemptsExhausted,
    BadOptionCount,
    CharacterAbsent,
    InvalidState,
    MalformedVerdictRow,
    MissingDimension,
    TomtraceError,
    UnknownQuestionId,
    UnparseableResponse,
)
from .llmgate import ChatRequest, Gateway
from .tkg import TemporalKG, state_at
from .triples import (
    DIMENSIONS,
    Dimension,
    MentalStateTriple,
    character_speaks,
    load_template,
    render_dialogues,
    render_triple,
)
from .util import format_half_up, normalize_name, read_jsonl, stable_hash, strip_code_fences, write_jsonl

logger = logging.getLogger(__name__)

LETTERS = ("A", "B", "C", "D")


class QuestionState(Enum):
    GENERATED = "generated"
    LLM_VERIFIED = "llm_verified"
    HUMAN_VERIFIED = "human_verified"
    REJECTED = "rejected"


class VerificationStage(Enum):
    LLM = "llm"
    HUMAN = "human"


@dataclass
class TomQuestion:
    id: str
    book_id: str
    plot_index: int
    character: str
    dimension: Dimension
    scenario: str
    reasoning: str
    stem: str
    options: list[str]  # texts without letter labels, positions are A-D
    correct: str
    state: QuestionState = QuestionState.GENERATED
    attempt: int = 1
    permutation: list[int] | None = None  # new position -> original index

    def __post_init__(self):
        if len(self.options) != 4:
            raise BadOptionCount(f"{self.id or self.stem!r}: {len(self.options)} options")
        normalized = {" ".join(o.split()).casefold() for o in self.options}
        if len(normalized) != 4:
            raise BadOptionCount(f"{self.id or self.stem!r}: options not pairwise distinct")
        if self.correct not in LETTERS:
            raise AmbiguousCorrect(f"{self.id or self.stem!r}: correct={self.correct!r}")
        if self.attempt < 1:
            raise ValueError("attempt starts at 1")

    def option_lines(self) -> list[str]:
        return [f"{letter}. {text}" for letter, text in zip(LETTERS, self.options)]


@dataclass
class VerificationVerdict:
    question_id: str
    stage: VerificationStage
    passed: bool
    notes: str = ""


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
    template_override: str | None = None,
    temperature: float = 0.0,
    max_output_tokens: int = 3072,
) -> ChatRequest:
    """Instantiate the generation template: one question per dimension."""
    if not character_speaks(character, conversations):
        raise CharacterAbsent(f"{character!r} speaks in no conversation of plot {plot.index}")
    ordered = sorted(previous_triples, key=lambda t: t.plot_index)
    prompt = load_template("question_generation.txt", template_override).substitute(
        plot_summary=plot.summary,
        scenario=plot.scenario,
        dialogues=render_dialogues(conversations),
        character=character,
        previous_triples="\n".join(render_triple(t) for t in ordered),
    )
    return ChatRequest(
        model_id=model_id,
        messages=(("user", prompt),),
        temperature=temperature,
        max_output_tokens=max_output_tokens,
    )


_OPTION_PREFIX_RE = re.compile(r"^\s*\(?([A-Da-d])[\.\):\-]?\s*")
_DIM_KEY_RE = re.compile(r"^(Belief|Emotion|Intention|Desire)\s+Multiple\s+Choice\s+Question$", re.IGNORECASE)

_DIM_BY_NAME = {
    "belief": Dimension.BELIEF,
    "emotion": Dimension.EMOTION,
    "intention": Dimension.INTENTION,
    "desire": Dimension.DESIRE,
}


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


def _load_response_json(text: str) -> object:
    body = strip_code_fences(text).strip()
    for candidate in (body, body.replace("{{", "{").replace("}}", "}")):
        try:
            return json.loads(candidate)
        except json.JSONDecodeError:
            continue
    raise UnparseableResponse("generation response is not JSON")


def parse_question_response(
    text: str,
    *,
    book_id: str,
    plot_index: int,
    character: str,
    attempt: int = 1,
) -> list[TomQuestion]:
    """Parse a four-dimension generation response, in report-column order."""
    data = _load_response_json(text)
    if not isinstance(data, dict):
        raise UnparseableResponse("generation response is not an object")
    blocks_raw = None
    for key, value in data.items():
        if key.casefold() == "target character":
            blocks_raw = value
            break
    if blocks_raw is None:
        # tolerate dimension blocks at top level, or a single unnamed wrapper
        blocks_raw = data if len(data) > 1 else next(iter(data.values()), data)
    if isinstance(blocks_raw, dict):
        blocks_raw = [blocks_raw]
    if not isinstance(blocks_raw, list):
        raise UnparseableResponse("no question list under 'Target Character'")

    by_dimension: dict[Dimension, dict] = {}
    for item in blocks_raw:
        if not isinstance(item, dict):
            continue
        for key, block in item.items():
            m = _DIM_KEY_RE.match(key.strip())
            if m and isinstance(block, dict):
                by_dimension[_DIM_BY_NAME[m.group(1).casefold()]] = block
    questions = []
    for dimension in DIMENSIONS:
        if dimension not in by_dimension:
            raise MissingDimension(f"no {dimension.label} question block in response")
        questions.append(
            _question_from_block(
                dimension,
                by_dimension[dimension],
                book_id=book_id,
                plot_index=plot_index,
                character=character,
                attempt=attempt,
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
    return replace(question, options=new_options, correct=new_correct, permutation=perm)


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
    template_override: str | None = None,
    temperature: float = 0.0,
) -> ChatRequest:
    prompt = load_template("question_verification.txt", template_override).substitute(
        dimension=question.dimension.label,
        scenario=question.scenario,
        stem=question.stem,
        options="\n".join(question.option_lines()),
        correct=question.correct,
    )
    return ChatRequest(
        model_id=model_id,
        messages=(("user", prompt),),
        temperature=temperature,
        max_output_tokens=512,
    )


def llm_verify(question, gateway, *, model_id: str, template_override: str | None = None):
    """Run model verification on a Generated question and apply the verdict."""
    if question.state is not QuestionState.GENERATED:
        raise InvalidState(f"{question.id}: llm_verify needs state generated, not {question.state.value}")
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
    template_override: str | None = None,
) -> TomQuestion:
    """Produce a replacement for a rejected question (state Generated, attempt+1)."""
    if question.state is not QuestionState.REJECTED:
        raise InvalidState(f"{question.id}: regenerate needs state rejected")
    if question.attempt >= max_attempts:
        raise AttemptsExhausted(f"{question.id}: attempt {question.attempt} hit budget {max_attempts}")
    prompt = load_template("question_regeneration.txt", template_override).substitute(
        dimension=question.dimension.label,
        dimension_key=dimension_key(question.dimension),
        scenario=question.scenario,
        stem=question.stem,
        options="\n".join(question.option_lines()),
        correct=question.correct,
        notes=notes or "(none)",
    )
    request = ChatRequest(
        model_id=model_id,
        messages=(("user", prompt),),
        temperature=0.0,
        max_output_tokens=1024,
    )
    response = gateway.complete(request)
    data = _load_response_json(response.text)
    if not isinstance(data, dict):
        raise UnparseableResponse("regeneration response is not an object")
    block = None
    for key, value in data.items():
        if _DIM_KEY_RE.match(key.strip()) and isinstance(value, dict):
            block = value
            break
    if block is None:
        raise UnparseableResponse("regeneration response has no question block")
    return _question_from_block(
        question.dimension,
        block,
        book_id=question.book_id,
        plot_index=question.plot_index,
        character=question.character,
        attempt=question.attempt + 1,
    )


# --- the generation and verification stages -------------------------------------------

def generate_questions(
    corpus: Corpus,
    kgs: dict[str, TemporalKG],
    gateway: Gateway,
    *,
    model_id: str,
    template_override: str | None = None,
    shuffle: bool = False,
    seed: int | None = None,
) -> list[TomQuestion]:
    """Four questions for every speaking character of every plot, in book -> plot -> speaker order.

    Prompts, with their graph lookups, are built on the calling thread; the
    requests run on the gateway's runner.
    """
    jobs: list[tuple[str, int, str, ChatRequest]] = []
    for book in sorted(corpus.books, key=lambda b: b.id):
        kg = kgs.get(book.id)
        for plot in book.plots:
            for character in plot.speakers():
                previous: list[MentalStateTriple] = []
                if kg is not None and plot.index > 1:
                    try:
                        previous = state_at(kg, character, plot.index - 1)
                    except TomtraceError:
                        previous = []
                request = build_question_prompt(
                    plot,
                    plot.conversations_of(character),
                    character,
                    previous,
                    model_id=model_id,
                    template_override=template_override,
                )
                jobs.append((book.id, plot.index, character, request))

    def ask(job: tuple[str, int, str, ChatRequest]) -> list[TomQuestion]:
        book_id, plot_index, character, request = job
        response = gateway.complete(request)
        four = parse_question_response(
            response.text, book_id=book_id, plot_index=plot_index, character=character
        )
        if shuffle:
            four = [shuffle_options(q, random.Random(f"{seed}:{q.id}")) for q in four]
        return four

    return [q for four in gateway.run(ask, jobs) for q in four]


def verify_questions(
    questions: list[TomQuestion],
    gateway: Gateway,
    *,
    model_id: str,
    max_attempts: int,
    template_override: str | None = None,
    shuffle: bool = False,
    seed: int | None = None,
) -> tuple[list[TomQuestion], list[VerificationVerdict]]:
    """Model-verify Generated questions, regenerating rejects up to the budget.

    Each question is one verify -> regenerate -> verify chain; chains run on
    the gateway's runner. Returns the final questions and every verdict, both
    in question order.
    """

    def chain(question: TomQuestion) -> tuple[TomQuestion, list[VerificationVerdict]]:
        if question.state is not QuestionState.GENERATED:
            return question, []
        verdicts = []
        current = question
        while True:
            verdict = llm_verify(
                current, gateway, model_id=model_id, template_override=template_override
            )
            verdicts.append(verdict)
            if current.state is QuestionState.LLM_VERIFIED:
                break
            try:
                current = regenerate(
                    current, gateway, max_attempts, model_id=model_id, notes=verdict.notes
                )
                if shuffle:
                    current = shuffle_options(
                        current, random.Random(f"{seed}:{current.id}:{current.attempt}")
                    )
            except AttemptsExhausted:
                logger.warning("%s: attempts exhausted, left rejected", current.id)
                break
        return current, verdicts

    results = gateway.run(chain, questions)
    return [q for q, _ in results], [v for _, verdicts in results for v in verdicts]


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
    """Write a review CSV with blank verdict columns; LlmVerified input only."""
    for question in questions:
        if question.state is not QuestionState.LLM_VERIFIED:
            raise InvalidState(
                f"{question.id}: only llm_verified questions are exportable, got {question.state.value}"
            )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REVIEW_COLUMNS)
        for q in questions:
            writer.writerow(
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
            )
    return len(questions)


@dataclass
class ReviewImportReport:
    applied: list[VerificationVerdict] = field(default_factory=list)
    skipped_blank: int = 0
    errors: list[str] = field(default_factory=list)


def import_review(path: Path | str, questions: dict[str, TomQuestion]) -> ReviewImportReport:
    """Apply pass/fail verdicts from a review CSV.

    Rows with problems are reported, not fatal: remaining rows still apply.
    """
    report = ReviewImportReport()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row_num, row in enumerate(reader, start=2):
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

@dataclass
class QuestionSetStats:
    questions: int
    correct_answers: int
    distractors: int
    per_dimension: dict[str, int]
    per_book: dict[str, int]


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


def dataset_stats_to_record(stats: QuestionSetStats) -> dict:
    return asdict(stats)


@dataclass
class FirstPassReport:
    verified_questions: int
    first_attempt_passes: int
    rate: str  # 2-decimal fraction string, half-up


def first_pass_stats(verdicts: list[VerificationVerdict], attempts: dict[str, int]) -> FirstPassReport:
    """Share of questions whose first model verdict passed on attempt 1."""
    first_seen: dict[str, VerificationVerdict] = {}
    for verdict in verdicts:
        if verdict.stage is VerificationStage.LLM and verdict.question_id not in first_seen:
            first_seen[verdict.question_id] = verdict
    total = len(first_seen)
    passes = sum(
        1
        for qid, verdict in first_seen.items()
        if verdict.passed and attempts.get(qid, 1) == 1
    )
    rate = "0.00" if total == 0 else format_half_up(Fraction(passes, total))
    return FirstPassReport(verified_questions=total, first_attempt_passes=passes, rate=rate)


# --- question persistence --------------------------------------------------------------

def question_to_record(q: TomQuestion) -> dict:
    return {
        "id": q.id,
        "book_id": q.book_id,
        "plot_index": q.plot_index,
        "character": q.character,
        "dimension": q.dimension.value,
        "scenario": q.scenario,
        "reasoning": q.reasoning,
        "stem": q.stem,
        "options": list(q.options),
        "correct": q.correct,
        "state": q.state.value,
        "attempt": q.attempt,
        "permutation": q.permutation,
    }


def question_from_record(rec: dict) -> TomQuestion:
    return TomQuestion(
        id=rec["id"],
        book_id=rec["book_id"],
        plot_index=rec["plot_index"],
        character=rec["character"],
        dimension=Dimension(rec["dimension"]),
        scenario=rec.get("scenario", ""),
        reasoning=rec.get("reasoning", ""),
        stem=rec["stem"],
        options=list(rec["options"]),
        correct=rec["correct"],
        state=QuestionState(rec.get("state", "generated")),
        attempt=rec.get("attempt", 1),
        permutation=rec.get("permutation"),
    )


def save_questions(questions: list[TomQuestion], path: Path | str) -> Path:
    return write_jsonl(path, (question_to_record(q) for q in questions))


def save_verdicts(verdicts: list[VerificationVerdict], path: Path | str) -> Path:
    return write_jsonl(
        path,
        (
            {"question_id": v.question_id, "stage": v.stage.value, "passed": v.passed, "notes": v.notes}
            for v in verdicts
        ),
    )


def load_questions(path: Path | str) -> list[TomQuestion]:
    return [question_from_record(rec) for rec in read_jsonl(path)]
