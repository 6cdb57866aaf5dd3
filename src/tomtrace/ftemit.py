"""Fine-tune data emission: training examples and book-level OOD splits.

Both output variants share the same input prompt (current plot, no triple
block). The completion either lists the character's active triples before
the answer object, or answers directly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .corpus import Corpus
from .errors import IoError, MissingKg, UnknownBook, UnverifiedQuestion
from .evalharness import (
    ContextMode,
    EvalCondition,
    TRIPLE_BLOCK_HEADER,
    assemble_context,
)
from .qagen import QuestionState, TomQuestion
from .tkg import TemporalKG, state_at
from .triples import render_triple
from .util import normalize_name, write_json, write_jsonl

logger = logging.getLogger(__name__)


class Split(Enum):
    TRAIN = "train"
    OOD_TEST = "ood_test"


@dataclass
class TrainingExample:
    input: str
    output: str
    with_triples: bool
    question_id: str
    split: Split = Split.TRAIN


@dataclass
class SplitSpec:
    ood_book_titles: frozenset[str]


def emit_example(
    question: TomQuestion,
    kg: TemporalKG | None,
    with_triples: bool,
    *,
    corpus: Corpus,
    waive_verification: bool = False,
    split: Split = Split.TRAIN,
) -> TrainingExample:
    """One supervised example for a human-verified question."""
    if question.state is not QuestionState.HUMAN_VERIFIED and not waive_verification:
        raise UnverifiedQuestion(f"{question.id} is {question.state.value}, not human_verified")
    condition = EvalCondition(ContextMode.CURRENT_PLOT, triples_enabled=False)
    prompt = assemble_context(question, corpus, kg, condition)
    answer_obj = "{answer: %s}" % question.correct
    if with_triples:
        if kg is None:
            raise MissingKg(f"{question.id}: triples requested but no graph given")
        triples = state_at(kg, question.character, question.plot_index)
        lines = "\n".join(render_triple(t) for t in triples)
        parts = [TRIPLE_BLOCK_HEADER]
        if lines:
            parts.append(lines)
        parts.append("Answer:")
        parts.append(answer_obj)
        output = "\n".join(parts)
    else:
        output = f"Answer:\n{answer_obj}"
    return TrainingExample(
        input=prompt.text,
        output=output,
        with_triples=with_triples,
        question_id=question.id,
        split=split,
    )


@dataclass
class SplitResult:
    train: list[TomQuestion] = field(default_factory=list)
    ood: list[TomQuestion] = field(default_factory=list)
    counts: dict[str, dict[str, int]] = field(default_factory=dict)


def split_ood(corpus: Corpus, questions: list[TomQuestion], spec: SplitSpec) -> SplitResult:
    """Partition questions by book membership; splits are disjoint by construction."""
    titles_by_id = {book.id: normalize_name(book.title) for book in corpus.books}
    known_titles = set(titles_by_id.values())
    ood_titles = {normalize_name(t) for t in spec.ood_book_titles}
    missing = ood_titles - known_titles
    if missing:
        raise UnknownBook(f"split names books not in corpus: {sorted(missing)}")
    result = SplitResult(counts={"train": {}, "ood_test": {}})
    for question in questions:
        title = titles_by_id.get(question.book_id)
        if title is None:
            raise UnknownBook(f"question {question.id} references unknown book {question.book_id!r}")
        bucket, key = (result.ood, "ood_test") if title in ood_titles else (result.train, "train")
        bucket.append(question)
        dim = question.dimension.label
        result.counts[key][dim] = result.counts[key].get(dim, 0) + 1
    return result


def write_training_file(examples: list[TrainingExample], path: Path | str) -> int:
    """Write {input, output} JSONL sorted by question id; returns the count."""
    ordered = sorted(examples, key=lambda e: e.question_id)
    try:
        write_jsonl(path, ({"input": e.input, "output": e.output} for e in ordered))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return len(ordered)


def emit_training_files(
    corpus: Corpus,
    kgs: dict[str, TemporalKG],
    questions: list[TomQuestion],
    spec: SplitSpec,
    with_triples: str,
    out_dir: Path,
    *,
    waive_verification: bool = False,
) -> list[tuple[Path, int]]:
    """Write one file per split and triple variant ("on", "off" or "both").

    Without the waiver only human-verified questions are emitted. Returns
    (path, example count) in write order.
    """
    if not waive_verification:
        questions = [q for q in questions if q.state is QuestionState.HUMAN_VERIFIED]
    result = split_ood(corpus, questions, spec)
    variants = {"on": [True], "off": [False], "both": [True, False]}[with_triples]
    written = []
    for split, bucket in ((Split.TRAIN, result.train), (Split.OOD_TEST, result.ood)):
        for triples in variants:
            examples = [
                emit_example(
                    q,
                    kgs.get(q.book_id),
                    triples,
                    corpus=corpus,
                    waive_verification=waive_verification,
                    split=split,
                )
                for q in bucket
            ]
            target = out_dir / f"{split.value}_{'with' if triples else 'without'}_triples.jsonl"
            written.append((target, write_training_file(examples, target)))
    return written


def write_split_manifest(corpus: Corpus, spec: SplitSpec, path: Path | str) -> Path:
    """Record which books feed which split."""
    ood_titles = {normalize_name(t) for t in spec.ood_book_titles}
    manifest = {
        book.id: ("ood_test" if normalize_name(book.title) in ood_titles else "train")
        for book in sorted(corpus.books, key=lambda b: b.id)
    }
    return write_json(path, manifest)
