"""Fine-tune data emission: training examples and book-level OOD splits.

Both output variants share the same input prompt (current plot, no triple
block). The completion either lists the character's active triples before
the answer object, or answers directly.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path

from .corpus import Corpus
from .errors import UnknownBook
from .evalharness import ContextMode, EvalCondition, assemble_context, render_triple_block
from .qagen import QuestionState, TomQuestion
from .tkg import TemporalKG
from .util import normalize_name, write_json, write_jsonl


class Split(Enum):
    TRAIN = "train"
    OOD_TEST = "ood_test"


class TrainingExample:
    __slots__ = ("input", "output", "question_id")

    def __init__(self, input: str, output: str, question_id: str) -> None:
        self.input = input
        self.output = output
        self.question_id = question_id


class SplitSpec:
    __slots__ = ("ood_book_titles",)

    def __init__(self, ood_book_titles: frozenset[str]) -> None:
        self.ood_book_titles = ood_book_titles


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


class SplitResult:
    __slots__ = ("train", "ood")

    def __init__(self) -> None:
        self.train: list[TomQuestion] = []
        self.ood: list[TomQuestion] = []


def split_ood(corpus: Corpus, questions: list[TomQuestion], spec: SplitSpec) -> SplitResult:
    """Partition questions by book membership; splits are disjoint by construction."""
    titles_by_id = {book.id: normalize_name(book.title) for book in corpus.books}
    known_titles = set(titles_by_id.values())
    ood_titles = {normalize_name(t) for t in spec.ood_book_titles}
    missing = ood_titles - known_titles
    if missing:
        raise UnknownBook(f"split names books not in corpus: {sorted(missing)}")
    result = SplitResult()
    for question in questions:
        title = titles_by_id.get(question.book_id)
        if title is None:
            raise UnknownBook(f"question {question.id} references unknown book {question.book_id!r}")
        (result.ood if title in ood_titles else result.train).append(question)
    return result


def write_training_file(examples: list[TrainingExample], path: Path | str) -> int:
    """Write {input, output} JSONL sorted by question id; returns the count."""
    ordered = sorted(examples, key=lambda e: e.question_id)
    write_jsonl(path, ({"input": e.input, "output": e.output} for e in ordered))
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

    This is the human-verification gate: without the waiver only
    human-verified questions are emitted. Returns (path, example count) in
    write order.
    """
    if not waive_verification:
        questions = [q for q in questions if q.state is QuestionState.HUMAN_VERIFIED]
    result = split_ood(corpus, questions, spec)
    variants = {"on": [True], "off": [False], "both": [True, False]}[with_triples]
    written = []
    for split, bucket in ((Split.TRAIN, result.train), (Split.OOD_TEST, result.ood)):
        for triples in variants:
            examples = [emit_example(q, kgs.get(q.book_id), triples, corpus=corpus) for q in bucket]
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
