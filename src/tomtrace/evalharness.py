"""Question answering harness: context assembly, scoring, report rendering.

Conditions form a 2x2 grid: context covers the current plot summary alone or
all summaries up to it, and the prompt either includes the character's active
mental-state triples or not. Accuracies are kept as integer counts and only
rounded (half up, two decimals, in integer arithmetic) at display time.
"""

from __future__ import annotations

import csv
import io
import re
from enum import Enum
from itertools import groupby, product
from pathlib import Path
from typing import Iterator

from .corpus import Corpus
from .errors import ConfigInvalid, MissingKg, MissingPlot, UnknownQuestionId
from .llmgate import ChatRequest, estimate_tokens, user_request
from .qagen import TomQuestion
from .tkg import TemporalKG, state_at
from .triples import DIMENSIONS, Dimension, TemplateOverride, render_template, render_triple
from .util import LazyLogger, format_half_up, read_jsonl, write_jsonl

logger = LazyLogger(__name__)


class ContextMode(Enum):
    CURRENT_PLOT = "current"
    CURRENT_PLUS_PREV = "current+prev"


class EvalCondition:
    """One cell of the condition grid; equal conditions share a report row."""

    __slots__ = ("context_mode", "triples_enabled")

    def __init__(self, context_mode: ContextMode, triples_enabled: bool) -> None:
        self.context_mode = context_mode
        self.triples_enabled = triples_enabled

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.context_mode, self.triples_enabled) == (other.context_mode, other.triples_enabled)

    def __repr__(self) -> str:
        return f"EvalCondition(context_mode={self.context_mode.value!r}, triples_enabled={self.triples_enabled})"


def conditions(context: str, triples: str) -> list[EvalCondition]:
    """Conditions for a context choice (current/extended/both) and a triples choice (on/off/both)."""
    modes = {
        "current": [ContextMode.CURRENT_PLOT],
        "extended": [ContextMode.CURRENT_PLUS_PREV],
        "both": list(ContextMode),
    }[context]
    flags = {"on": [True], "off": [False], "both": [False, True]}[triples]
    return [EvalCondition(m, t) for m in modes for t in flags]


_INSTRUCTIONS_TRIPLES_FIRST = (
    "First, identify the relevant mental state triples (beliefs, emotions, intentions, "
    "or desires) that explain {character}'s psychology in this scenario.\n"
    "Then, based on these mental states, select the most appropriate answer from the "
    "choices above.\n\n"
    "Format your response as:\n"
    "1. List the relevant mental state triples\n"
    "2. Provide your answer as a JSON object: {{answer: X}} where X is the letter "
    "(A, B, C, or D) of the correct choice."
)

_INSTRUCTIONS_ANSWER_ONLY = (
    "Select the most appropriate answer from the choices above.\n\n"
    "Provide your answer as a JSON object: {{answer: X}} where X is the letter "
    "(A, B, C, or D) of the correct choice."
)

TRIPLE_BLOCK_HEADER = "Relevant mental state triples:"


def render_triple_block(question: TomQuestion, kg: TemporalKG | None) -> str:
    """The header, then one line per triple active for the question's character at its plot
    (none for a character with no node in the graph)."""
    if kg is None:
        raise MissingKg(f"condition needs triples but no graph given for {question.book_id}")
    triples = state_at(kg, question.character, question.plot_index)
    return "\n".join([TRIPLE_BLOCK_HEADER, *map(render_triple, triples)])


class EvalPrompt:
    __slots__ = ("text", "token_estimate")

    def __init__(self, text: str, token_estimate: int) -> None:
        self.text = text
        self.token_estimate = token_estimate


def assemble_context(
    question: TomQuestion,
    corpus: Corpus,
    kg: TemporalKG | None,
    condition: EvalCondition,
    *,
    answer_style: str = "triples_then_answer",
    template_override: TemplateOverride | None = None,
) -> EvalPrompt:
    """Build the standardized question prompt for one condition."""
    book = corpus.book(question.book_id)
    if book is None:
        raise MissingPlot(f"book {question.book_id!r} not in corpus")
    if not 1 <= question.plot_index <= len(book.plots):
        raise MissingPlot(f"{question.book_id}: no plot {question.plot_index}")
    plot = book.plots[question.plot_index - 1]

    if condition.context_mode is ContextMode.CURRENT_PLUS_PREV:
        story_plot = "\n\n".join(p.summary for p in book.plots[: question.plot_index])
    else:
        story_plot = plot.summary

    triple_block = render_triple_block(question, kg) + "\n\n" if condition.triples_enabled else ""

    instructions_tpl = (
        _INSTRUCTIONS_TRIPLES_FIRST if answer_style == "triples_then_answer" else _INSTRUCTIONS_ANSWER_ONLY
    )
    instructions = instructions_tpl.format(character=question.character)
    text = render_template(
        "eval_question.txt",
        template_override,
        character=question.character,
        book_title=book.title,
        story_plot=story_plot,
        scenario=plot.scenario,
        question=question.stem,
        choices="\n".join(question.option_lines()),
        triple_block=triple_block,
        instructions=instructions,
    )
    return EvalPrompt(text, estimate_tokens(text))


# --- answer parsing ---------------------------------------------------------------

_ANSWER_RE = re.compile(
    r"\{\s*[\"']?answer[\"']?\s*\\?[:=]\s*[\"']?\s*([A-Da-d])\s*[\"']?\s*\.?\s*\}",
    re.IGNORECASE,
)
_BARE_LETTER_RE = re.compile(r"^\s*\(?([A-Da-d])[\.\)]?\s*$")


def parse_answer(text: str) -> str | None:
    """Extract the chosen letter; None means unparseable (scored as wrong)."""
    m = _ANSWER_RE.search(text)
    if m:
        return m.group(1).upper()
    for line in text.splitlines():
        m = _BARE_LETTER_RE.match(line)
        if m:
            return m.group(1).upper()
    return None


class Prediction:
    __slots__ = ("question_id", "model_id", "condition", "letter", "raw_text", "prompt_tokens_est", "error")

    def __init__(
        self,
        question_id: str,
        model_id: str,
        condition: EvalCondition,
        letter: str | None,
        raw_text: str,
        prompt_tokens_est: int = 0,
        error: str | None = None,
    ) -> None:
        self.question_id = question_id
        self.model_id = model_id
        self.condition = condition
        self.letter = letter
        self.raw_text = raw_text
        self.prompt_tokens_est = prompt_tokens_est
        self.error = error


# --- scoring -----------------------------------------------------------------------

class ScoreRow:
    """Correct and asked counts per dimension for one (model, condition)."""

    __slots__ = ("model", "condition", "correct", "total")

    def __init__(self, model: str, condition: EvalCondition) -> None:
        self.model = model
        self.condition = condition
        self.correct: dict[Dimension, int] = {}
        self.total: dict[Dimension, int] = {}


class ScoreTable:
    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: list[ScoreRow] = []

    def row(self, model: str, condition: EvalCondition) -> ScoreRow:
        for row in self.rows:
            if row.model == model and row.condition == condition:
                return row
        row = ScoreRow(model=model, condition=condition)
        self.rows.append(row)
        return row


def score(predictions: list[Prediction], questions: dict[str, TomQuestion]) -> ScoreTable:
    """Per-dimension accuracy per (model, condition); unparseable counts wrong."""
    table = ScoreTable()
    for pred in predictions:
        question = questions.get(pred.question_id)
        if question is None:
            raise UnknownQuestionId(f"prediction references unknown question {pred.question_id!r}")
        row = table.row(pred.model_id, pred.condition)
        dim = question.dimension
        row.total[dim] = row.total.get(dim, 0) + 1
        if pred.letter is not None and pred.letter == question.correct:
            row.correct[dim] = row.correct.get(dim, 0) + 1
    return table


# --- report rendering -----------------------------------------------------------------

class ReportLayout(Enum):
    PLAIN = "plain"
    MARKDOWN = "markdown"
    CSV = "csv"


REPORT_COLUMNS = ("Belief", "Desire", "Emotion", "Intention", "Avg")


def _row_cells(row: ScoreRow) -> list[str]:
    counts = [(row.correct.get(d, 0), row.total.get(d, 0)) for d in DIMENSIONS]
    counts.append((sum(row.correct.values()), sum(row.total.values())))
    return ["-" if total == 0 else format_half_up(100 * correct, total) for correct, total in counts]


def _row_label(row: ScoreRow) -> str:
    return "w Triple" if row.condition.triples_enabled else row.model


def render_report(table: ScoreTable, layout: ReportLayout = ReportLayout.PLAIN) -> str:
    """Rows by context mode, then model in first-seen order, the base row before `w Triple`."""
    modes = list(ContextMode)
    models = {model: rank for rank, model in enumerate(dict.fromkeys(row.model for row in table.rows))}
    rows = sorted(
        table.rows,
        key=lambda r: (modes.index(r.condition.context_mode), models[r.model], r.condition.triples_enabled),
    )
    if layout is ReportLayout.CSV:
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(["model", "context", "condition", "belief", "desire", "emotion", "intention", "avg"])
        for row in rows:
            condition = "w Triple" if row.condition.triples_enabled else "base"
            writer.writerow([row.model, row.condition.context_mode.value, condition, *_row_cells(row)])
        return text.getvalue()

    markdown = layout is ReportLayout.MARKDOWN
    groups = [(mode, list(group)) for mode, group in groupby(rows, key=lambda r: r.condition.context_mode)]
    label_width = max([len("Models")] + [len(_row_label(row)) for row in rows])
    lines = []
    for mode, group in groups:
        if len(groups) > 1:
            lines.extend([f"### Context: {mode.value}", ""] if markdown else [f"Context: {mode.value}"])
        if markdown:
            lines.append("| Models | " + " | ".join(REPORT_COLUMNS) + " |")
            lines.append("| --- | " + " | ".join("---:" for _ in REPORT_COLUMNS) + " |")
            for row in group:
                lines.append("| " + " | ".join([_row_label(row).replace("|", "\\|"), *_row_cells(row)]) + " |")
        else:
            lines.append("Models".ljust(label_width) + "".join(c.rjust(10) for c in REPORT_COLUMNS))
            for row in group:
                lines.append(_row_label(row).ljust(label_width) + "".join(c.rjust(10) for c in _row_cells(row)))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


# --- full evaluation loop ----------------------------------------------------------------

def prediction_to_record(pred: Prediction) -> dict:
    return {
        "question_id": pred.question_id,
        "model": pred.model_id,
        "context": pred.condition.context_mode.value,
        "triples": pred.condition.triples_enabled,
        "raw_text": pred.raw_text,
        "letter": pred.letter,
        "prompt_tokens_est": pred.prompt_tokens_est,
        "error": pred.error,
    }


def prediction_from_record(rec: dict) -> Prediction:
    model, triples = rec["model"], rec["triples"]
    if not isinstance(model, str) or not isinstance(triples, bool):
        raise TypeError(f"model must be a string and triples true or false, not {model!r} and {triples!r}")
    return Prediction(
        question_id=rec["question_id"],
        model_id=model,
        condition=EvalCondition(ContextMode(rec["context"]), triples),
        letter=rec.get("letter"),
        raw_text=rec.get("raw_text", ""),
        prompt_tokens_est=rec.get("prompt_tokens_est", 0),
        error=rec.get("error"),
    )


def run_eval(
    corpus: Corpus,
    kgs: dict[str, TemporalKG],
    questions: list[TomQuestion],
    models: list[str],
    conditions: list[EvalCondition],
    gateway,
    predictions_path: Path | str,
    *,
    answer_style: str = "triples_then_answer",
    template_override: TemplateOverride | None = None,
) -> tuple[ScoreTable, Path]:
    """Evaluate every question under every model and condition.

    Iteration order is deterministic: (book, plot, question id, model,
    condition). Each prompt is assembled when a worker of the gateway's
    runner draws its item, so at most `max_in_flight` prompts are alive at a
    time, and answers are parsed once the runner returns. An
    item whose prompt cannot be assembled degrades to an unparseable
    prediction with no request; a backend failure or a bad template fails the
    run before any prediction is written.
    """
    ordered_questions = sorted(questions, key=lambda q: (q.book_id, q.plot_index, q.id))

    def items() -> Iterator[tuple[Prediction, ChatRequest | None]]:
        for question, model, condition in product(ordered_questions, models, conditions):
            prediction = Prediction(question.id, model, condition, letter=None, raw_text="")
            try:
                prompt = assemble_context(
                    question,
                    corpus,
                    kgs.get(question.book_id),
                    condition,
                    answer_style=answer_style,
                    template_override=template_override,
                )
            except ConfigInvalid:
                raise
            except Exception as exc:  # degraded item, run continues
                logger.warning("item %s/%s/%s failed assembly: %s", question.id, model, condition, exc)
                prediction.error = str(exc)
                yield prediction, None
            else:
                prediction.prompt_tokens_est = prompt.token_estimate
                yield prediction, user_request(model, prompt.text)

    def answer(item: tuple[Prediction, ChatRequest | None]) -> Prediction:
        prediction, request = item
        if request is not None:
            prediction.raw_text = gateway.complete(request).text
        return prediction

    predictions = gateway.run(answer, items())
    for prediction in predictions:
        if prediction.error is None:
            prediction.letter = parse_answer(prediction.raw_text)

    predictions_path = write_jsonl(predictions_path, (prediction_to_record(p) for p in predictions))
    table = score(predictions, {q.id: q for q in questions})
    return table, predictions_path


def load_predictions(path: Path | str) -> list[Prediction]:
    return read_jsonl(path, prediction_from_record)
