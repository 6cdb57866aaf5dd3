"""Fine-tune data emission: training examples and book-level OOD splits.

Both output variants share the same input prompt (current plot, no triple
block). The completion either lists the character's active triples before
the answer object, or answers directly.
"""

from __future__ import annotations

from pathlib import Path

from .config import FtSection
from .corpus import Corpus
from .errors import UnknownBook
from .evalharness import ContextMode, EvalCondition, assemble_context, render_triple_block
from .qagen import QuestionState, TomQuestion
from .tkg import TemporalKG
from .util import normalize_name, write_jsonl


# A book's split, as `split_manifest.json` and the training file names spell it.
_TRAIN, _OOD_TEST = "train", "ood_test"


class TrainingExample:
    __slots__ = ("input", "output", "question_id")

    def __init__(self, input: str, output: str, question_id: str) -> None:
        self.input = input
        self.output = output
        self.question_id = question_id


def emit_example(
    question: TomQuestion,
    kg: TemporalKG | None,
    with_triples: bool,
    *,
    corpus: Corpus,
) -> TrainingExample:
    """One supervised example; `emit_training_files` decides which questions get one."""
    condition = EvalCondition(ContextMode.CURRENT_PLOT, triples_enabled=False)
    prompt = assemble_context(question, corpus, kg, condition)
    output = "Answer:\n{answer: %s}" % question.correct
    if with_triples:
        output = render_triple_block(question, kg) + "\n" + output
    return TrainingExample(input=prompt.text, output=output, question_id=question.id)


def book_splits(corpus: Corpus, ood_titles: list[str]) -> dict[str, str]:
    """Each book id's split, "ood_test" for a book titled in `ood_titles` and "train" for the rest.

    Titles match after `normalize_name`; a title no book has raises UnknownBook.
    """
    wanted = {normalize_name(t) for t in ood_titles}
    titles = {book.id: normalize_name(book.title) for book in corpus.books}
    missing = wanted - set(titles.values())
    if missing:
        raise UnknownBook(f"split names books not in corpus: {sorted(missing)}")
    return {book_id: _OOD_TEST if title in wanted else _TRAIN for book_id, title in titles.items()}


def write_training_file(examples: list[TrainingExample], path: Path | str) -> int:
    """Write {input, output} JSONL sorted by question id; returns the count."""
    ordered = sorted(examples, key=lambda e: e.question_id)
    write_jsonl(path, ({"input": e.input, "output": e.output} for e in ordered))
    return len(ordered)


def emit_training_files(
    corpus: Corpus,
    kgs: dict[str, TemporalKG],
    questions: list[TomQuestion],
    splits: dict[str, str],
    ft: FtSection,
    out_dir: Path,
) -> list[tuple[Path, int]]:
    """Write one file per split and per triple variant that `ft.with_triples` names.

    `splits` is `book_splits`' table; a question of a book it lacks raises
    UnknownBook. This is the human-verification gate: with
    `ft.require_human_verified` only human-verified questions are emitted.
    Returns (path, example count) in write order.
    """
    if ft.require_human_verified:
        questions = [q for q in questions if q.state is QuestionState.HUMAN_VERIFIED]
    buckets: dict[str, list[TomQuestion]] = {_TRAIN: [], _OOD_TEST: []}
    for question in questions:
        if question.book_id not in splits:
            raise UnknownBook(f"question {question.id} references unknown book {question.book_id!r}")
        buckets[splits[question.book_id]].append(question)
    variants = {"on": [True], "off": [False], "both": [True, False]}[ft.with_triples]
    written = []
    for split, bucket in buckets.items():
        for triples in variants:
            examples = [emit_example(q, kgs.get(q.book_id), triples, corpus=corpus) for q in bucket]
            target = out_dir / f"{split}_{'with' if triples else 'without'}_triples.jsonl"
            written.append((target, write_training_file(examples, target)))
    return written
