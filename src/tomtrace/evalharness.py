"""Question answering harness: context assembly, scoring, report rendering.

Conditions form a 2x2 grid: context covers the current plot summary alone or
all summaries up to it, and the prompt either includes the character's active
mental-state triples or not. Accuracies are kept as exact rationals and only
rounded (half up, two decimals) at display time.
"""

from __future__ import annotations

import logging
import math
import re
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .corpus import Corpus
from .errors import ConfigInvalid, MissingKg, MissingPlot, UnknownQuestionId
from .llmgate import ChatRequest, estimate_tokens, user_request
from .qagen import TomQuestion
from .tkg import TemporalKG, state_at
from .triples import DIMENSIONS, Dimension, TemplateOverride, render_template, render_triple
from .util import format_half_up, read_jsonl, write_jsonl

logger = logging.getLogger(__name__)


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


ALL_CONDITIONS = tuple(conditions("both", "both"))

ANSWER_STYLES = ("triples_then_answer", "answer_only")

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


class EvalPrompt:
    __slots__ = ("question_id", "condition", "text", "token_estimate")

    def __init__(self, question_id: str, condition: EvalCondition, text: str, token_estimate: int) -> None:
        self.question_id = question_id
        self.condition = condition
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
    if answer_style not in ANSWER_STYLES:
        raise ValueError(f"unknown answer style {answer_style!r}")
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

    if condition.triples_enabled:
        if kg is None:
            raise MissingKg(f"condition needs triples but no graph given for {question.book_id}")
        triples = state_at(kg, question.character, question.plot_index)
        lines = "\n".join(render_triple(t) for t in triples)
        triple_block = f"{TRIPLE_BLOCK_HEADER}\n{lines}\n\n" if lines else f"{TRIPLE_BLOCK_HEADER}\n\n"
    else:
        triple_block = ""

    instructions_tpl = (
        _INSTRUCTIONS_TRIPLES_FIRST if answer_style == "triples_then_answer" else _INSTRUCTIONS_ANSWER_ONLY
    )
    instructions = instructions_tpl.format(character=question.character).replace("{{", "{").replace("}}", "}")
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
    return EvalPrompt(
        question_id=question.id,
        condition=condition,
        text=text,
        token_estimate=estimate_tokens(text),
    )


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
    __slots__ = ("model", "condition", "correct", "total")

    def __init__(
        self,
        model: str,
        condition: EvalCondition,
        correct: dict[Dimension, int] | None = None,
        total: dict[Dimension, int] | None = None,
    ) -> None:
        self.model = model
        self.condition = condition
        self.correct = {} if correct is None else correct
        self.total = {} if total is None else total

    @classmethod
    def from_percentages(
        cls,
        model: str,
        condition: EvalCondition,
        cells: dict[Dimension, str],
    ) -> "ScoreRow":
        """Row whose cells are the given percentages (already 0-100), held as counts.

        Every dimension gets the same total, so the average is the mean of the cells.
        """
        fixed = {d: Fraction(cells[d]) for d in cells}
        scale = math.lcm(*(f.denominator for f in fixed.values()))
        correct = {d: int(f * scale) for d, f in fixed.items()}
        return cls(model=model, condition=condition, correct=correct, total=dict.fromkeys(fixed, 100 * scale))

    def cell(self, dimension: Dimension) -> Fraction | None:
        total = self.total.get(dimension, 0)
        if total == 0:
            return None
        return Fraction(100 * self.correct.get(dimension, 0), total)

    def avg(self) -> Fraction | None:
        total = sum(self.total.values())
        if total == 0:
            return None
        return Fraction(100 * sum(self.correct.values()), total)


class ScoreTable:
    __slots__ = ("rows",)

    def __init__(self, rows: list[ScoreRow] | None = None) -> None:
        self.rows = [] if rows is None else rows

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


def _cell_text(value: Fraction | None) -> str:
    return "-" if value is None else format_half_up(value)


def _row_cells(row: ScoreRow) -> list[str]:
    cells = [_cell_text(row.cell(d)) for d in DIMENSIONS]
    cells.append(_cell_text(row.avg()))
    return cells


def _ordered_rows(table: ScoreTable) -> list[tuple[ContextMode, ScoreRow]]:
    models: list[str] = []
    for row in table.rows:
        if row.model not in models:
            models.append(row.model)
    ordered = []
    for mode in ContextMode:
        for model in models:
            for triples in (False, True):
                for row in table.rows:
                    if (
                        row.model == model
                        and row.condition.context_mode is mode
                        and row.condition.triples_enabled is triples
                    ):
                        ordered.append((mode, row))
    return ordered


def _row_label(row: ScoreRow) -> str:
    return "w Triple" if row.condition.triples_enabled else row.model


def render_report(table: ScoreTable, layout: ReportLayout = ReportLayout.PLAIN) -> str:
    ordered = _ordered_rows(table)
    modes = {mode for mode, _ in ordered}
    if layout is ReportLayout.CSV:
        lines = ["model,context,condition,belief,desire,emotion,intention,avg"]
        for _, row in ordered:
            cells = ",".join(_row_cells(row))
            condition = "w Triple" if row.condition.triples_enabled else "base"
            lines.append(f"{row.model},{row.condition.context_mode.value},{condition},{cells}")
        return "\n".join(lines) + "\n"

    if layout is ReportLayout.MARKDOWN:
        lines = []
        for mode in ContextMode:
            group = [row for m, row in ordered if m is mode]
            if not group:
                continue
            if len(modes) > 1:
                lines.append(f"### Context: {mode.value}")
                lines.append("")
            lines.append("| Models | " + " | ".join(REPORT_COLUMNS) + " |")
            lines.append("| --- | " + " | ".join("---:" for _ in REPORT_COLUMNS) + " |")
            for row in group:
                lines.append("| " + " | ".join([_row_label(row)] + _row_cells(row)) + " |")
            lines.append("")
        return "\n".join(lines).rstrip("\n") + "\n"

    # plain table
    labels = [_row_label(row) for _, row in ordered]
    label_width = max([len("Models")] + [len(l) for l in labels]) if labels else len("Models")
    col_width = 10
    out_lines = []
    for mode in ContextMode:
        group = [row for m, row in ordered if m is mode]
        if not group:
            continue
        if len(modes) > 1:
            out_lines.append(f"Context: {mode.value}")
        header = "Models".ljust(label_width) + "".join(c.rjust(col_width) for c in REPORT_COLUMNS)
        out_lines.append(header)
        for row in group:
            cells = _row_cells(row)
            out_lines.append(_row_label(row).ljust(label_width) + "".join(c.rjust(col_width) for c in cells))
        out_lines.append("")
    return "\n".join(out_lines).rstrip("\n") + "\n"


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
    return Prediction(
        question_id=rec["question_id"],
        model_id=rec["model"],
        condition=EvalCondition(ContextMode(rec["context"]), rec["triples"]),
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
    condition). Each prompt is assembled when the gateway's runner draws its
    request, so only a bounded window of prompts is alive at a time. An item
    whose prompt cannot be assembled degrades to an unparseable prediction; a
    backend failure or a bad template fails the run before any prediction is
    written.
    """
    ordered_questions = sorted(questions, key=lambda q: (q.book_id, q.plot_index, q.id))
    items: list[tuple[TomQuestion, str, EvalCondition]] = [
        (question, model, condition)
        for question in ordered_questions
        for model in models
        for condition in conditions
    ]
    token_estimates = [0] * len(items)
    failures: dict[int, Exception] = {}  # assembly errors, which stand in for responses

    def requests() -> Iterator[ChatRequest]:
        for idx, (question, model, condition) in enumerate(items):
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
                failures[idx] = exc
                continue
            token_estimates[idx] = prompt.token_estimate
            yield user_request(model, prompt.text)

    responses = iter(gateway.submit_batch(requests()))
    predictions: list[Prediction] = []
    for idx, (question, model, condition) in enumerate(items):
        if idx in failures:
            letter, raw_text, error = None, "", str(failures[idx])
        else:
            raw_text = next(responses).text
            letter, error = parse_answer(raw_text), None
        predictions.append(
            Prediction(
                question_id=question.id,
                model_id=model,
                condition=condition,
                letter=letter,
                raw_text=raw_text,
                prompt_tokens_est=token_estimates[idx],
                error=error,
            )
        )

    predictions_path = write_jsonl(predictions_path, (prediction_to_record(p) for p in predictions))
    table = score(predictions, {q.id: q for q in questions})
    return table, predictions_path


def load_predictions(path: Path | str) -> list[Prediction]:
    return read_jsonl(path, prediction_from_record)
