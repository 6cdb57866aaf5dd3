"""Question answering harness: context assembly, scoring, report rendering.

Conditions form a 2x2 grid: context covers the current plot summary alone or
all summaries up to it, and the prompt either includes the character's active
mental-state triples or not. Accuracies are kept as exact rationals and only
rounded (half up, two decimals) at display time.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path

from .corpus import Corpus
from .errors import MissingKg, MissingPlot, UnknownQuestionId
from .llmgate import ChatRequest, estimate_tokens
from .qagen import TomQuestion
from .tkg import TemporalKG, state_at
from .triples import DIMENSIONS, Dimension, load_template, render_triple
from .util import format_half_up, read_jsonl, write_jsonl

logger = logging.getLogger(__name__)


class ContextMode(Enum):
    CURRENT_PLOT = "current"
    CURRENT_PLUS_PREV = "current+prev"


@dataclass(frozen=True)
class EvalCondition:
    context_mode: ContextMode
    triples_enabled: bool


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


@dataclass
class EvalPrompt:
    question_id: str
    condition: EvalCondition
    text: str
    token_estimate: int


def assemble_context(
    question: TomQuestion,
    corpus: Corpus,
    kg: TemporalKG | None,
    condition: EvalCondition,
    *,
    answer_style: str = "triples_then_answer",
    template_override: str | None = None,
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
    text = load_template("eval_question.txt", template_override).substitute(
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


@dataclass
class Prediction:
    question_id: str
    model_id: str
    condition: EvalCondition
    letter: str | None
    raw_text: str
    prompt_tokens_est: int = 0
    error: str | None = None


# --- scoring -----------------------------------------------------------------------

@dataclass
class ScoreRow:
    model: str
    condition: EvalCondition
    correct: dict[Dimension, int] = field(default_factory=dict)
    total: dict[Dimension, int] = field(default_factory=dict)
    fixed_cells: dict[Dimension, Fraction] | None = None
    fixed_avg: Fraction | None = None

    @classmethod
    def from_percentages(
        cls,
        model: str,
        condition: EvalCondition,
        cells: dict[Dimension, str],
    ) -> "ScoreRow":
        """Row with externally supplied percentage cells (already 0-100)."""
        fixed = {d: Fraction(cells[d]) for d in cells}
        avg = sum(fixed.values(), Fraction(0)) / len(fixed) if fixed else None
        return cls(model=model, condition=condition, fixed_cells=fixed, fixed_avg=avg)

    def cell(self, dimension: Dimension) -> Fraction | None:
        if self.fixed_cells is not None:
            return self.fixed_cells.get(dimension)
        total = self.total.get(dimension, 0)
        if total == 0:
            return None
        return Fraction(100 * self.correct.get(dimension, 0), total)

    def avg(self) -> Fraction | None:
        if self.fixed_avg is not None:
            return self.fixed_avg
        total = sum(self.total.values())
        if total == 0:
            return None
        return Fraction(100 * sum(self.correct.values()), total)


@dataclass
class ScoreTable:
    rows: list[ScoreRow] = field(default_factory=list)

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
    template_override: str | None = None,
) -> tuple[ScoreTable, Path]:
    """Evaluate every question under every model and condition.

    Iteration order is deterministic: (book, plot, question id, model,
    condition). Per-item failures degrade to unparseable predictions; the
    run itself completes.
    """
    ordered_questions = sorted(questions, key=lambda q: (q.book_id, q.plot_index, q.id))
    items: list[tuple[TomQuestion, str, EvalCondition]] = [
        (question, model, condition)
        for question in ordered_questions
        for model in models
        for condition in conditions
    ]
    requests: dict[int, ChatRequest] = {}
    prompts: dict[int, EvalPrompt] = {}
    failures: dict[int, str] = {}
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
            prompts[idx] = prompt
            requests[idx] = ChatRequest(model_id=model, messages=(("user", prompt.text),))
        except Exception as exc:  # degraded item, run continues
            logger.warning("item %s/%s/%s failed assembly: %s", question.id, model, condition, exc)
            failures[idx] = str(exc)

    responses = gateway.submit_batch(requests)
    predictions: list[Prediction] = []
    for idx, (question, model, condition) in enumerate(items):
        if idx in failures:
            predictions.append(
                Prediction(
                    question_id=question.id,
                    model_id=model,
                    condition=condition,
                    letter=None,
                    raw_text="",
                    error=failures[idx],
                )
            )
            continue
        result = responses[idx]
        if isinstance(result, Exception):
            predictions.append(
                Prediction(
                    question_id=question.id,
                    model_id=model,
                    condition=condition,
                    letter=None,
                    raw_text="",
                    prompt_tokens_est=prompts[idx].token_estimate,
                    error=str(result),
                )
            )
            continue
        predictions.append(
            Prediction(
                question_id=question.id,
                model_id=model,
                condition=condition,
                letter=parse_answer(result.text),
                raw_text=result.text,
                prompt_tokens_est=prompts[idx].token_estimate,
            )
        )

    predictions_path = write_jsonl(predictions_path, (prediction_to_record(p) for p in predictions))
    table = score(predictions, {q.id: q for q in questions})
    return table, predictions_path


def load_predictions(path: Path | str) -> list[Prediction]:
    return [prediction_from_record(rec) for rec in read_jsonl(path)]
