"""Release checklist: one test per acceptance criterion.

Each test prints a single `[criterion NN] ...: PASS/FAIL` line so a
`pytest tests/test_acceptance.py -s` run doubles as the sign-off log.
Criteria 10 and 11 need the public CoSER-Gutenberg book files; point
TOMTRACE_COSER_DATA at that directory to enable them, otherwise they skip.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import run_cli, tree_bytes
from kg_oracle import run_random_case
from tomtrace.config import MergeSection
from tomtrace.corpus import Book, Corpus, SegmentKind, StatsReport, corpus_stats, ingest_corpus, parse_turn
from tomtrace.evalharness import (
    ContextMode,
    EvalCondition,
    Prediction,
    ReportLayout,
    ScoreTable,
    assemble_context,
    parse_answer,
    render_report,
    score,
)
from tomtrace.ftemit import emit_example
from tomtrace.qagen import (
    QuestionState,
    TomQuestion,
    VerificationStage,
    VerificationVerdict,
    apply_verdict,
    dataset_stats,
    load_questions,
    question_id,
)
from tomtrace.errors import InvalidState
from tomtrace.tkg import (
    SupersedeReason,
    TemporalKG,
    check_invariants,
    insert_batch,
)
from tomtrace.triples import Dimension, TripleBatch, make_triple, parse_triple_response
from tomtrace.util import normalize_name

COSER_ENV = "TOMTRACE_COSER_DATA"

SIX_TRIPLE_RESPONSE = """{{
    "Target Character":
        [
            (King Lear, DesiresToKnow, which daughter loves King Lear most),
            (King Lear, IntendsTo, divide the kingdom based on his daughters' declarations of love),
            (King Lear, BelievesAboutCordelia, Cordelia's silence is a sign of defiance and disrespect),
            (King Lear, FeelsTowardsCordelia, wounded and betrayed by Cordelia's refusal to flatter King Lear),
            (King Lear, BelievesAboutGoneril, Goneril speaks well and expresses her love convincingly),
            (King Lear, FeelsTowardsCordelia, disappointed and shocked by Cordelia's honesty)
        ]
}}"""


@contextmanager
def criterion(number: int, title: str):
    """Print the sign-off line for one criterion; failures still propagate."""
    note: dict[str, str] = {}
    try:
        yield note
    except pytest.skip.Exception:
        print(f"[criterion {number:02d}] {title}: SKIPPED (data not supplied)")
        raise
    except BaseException:
        detail = f" ({note['detail']})" if "detail" in note else ""
        print(f"[criterion {number:02d}] {title}: FAIL{detail}")
        raise
    detail = f" ({note['detail']})" if "detail" in note else ""
    print(f"[criterion {number:02d}] {title}: PASS{detail}")


def test_criterion_01_dialogue_segmentation_goldens():
    with criterion(1, "dialogue segmentation goldens") as note:
        started = time.perf_counter()
        turn = parse_turn(
            "King Lear: [I must know which daughter loves me most.] "
            "Tell me, my daughters, which of you shall we say doth love us most?"
        )
        assert turn.speaker == "King Lear"
        assert [(s.kind, s.text) for s in turn.segments] == [
            (SegmentKind.THOUGHT, "I must know which daughter loves me most."),
            (SegmentKind.SPEECH, "Tell me, my daughters, which of you shall we say doth love us most?"),
        ]
        turn = parse_turn("Cordelia: (remains silent)")
        assert turn.speaker == "Cordelia"
        assert [(s.kind, s.text) for s in turn.segments] == [(SegmentKind.ACTION, "remains silent")]
        turn = parse_turn("Kent: My lord.")
        assert turn.speaker == "Kent"
        assert [(s.kind, s.text) for s in turn.segments] == [(SegmentKind.SPEECH, "My lord.")]
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        note["detail"] = f"{elapsed:.3f}s"


def test_criterion_02_six_triple_example_parses_exactly():
    with criterion(2, "six-triple example parse and classification") as note:
        started = time.perf_counter()
        batch = parse_triple_response(SIX_TRIPLE_RESPONSE, "King Lear", 1, book_id="king-lear")
        assert len(batch.triples) == 6
        assert not batch.rejects
        assert Counter(t.dimension.label for t in batch.triples) == {
            "Belief": 2, "Emotion": 2, "Desire": 1, "Intention": 1,
        }
        assert all(t.subject == "King Lear" for t in batch.triples)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        note["detail"] = f"{elapsed:.3f}s"


def test_criterion_03_kg_agrees_with_brute_force_oracle():
    with criterion(3, "temporal graph vs brute-force oracle, 1000 cases") as note:
        started = time.perf_counter()
        for case_id in range(1000):
            run_random_case(case_id)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
        note["detail"] = f"{elapsed:.2f}s"


def _assert_links_time_increasing_and_acyclic(kg: TemporalKG) -> None:
    # independent of check_invariants: direct scan over the link list
    successor: dict[str, str] = {}
    for link in kg.supersede_links:
        old, new = kg.edges[link.old_id], kg.edges[link.new_id]
        assert old.plot_index < new.plot_index, (link.old_id, link.new_id)
        successor[link.old_id] = link.new_id
    for start in successor:
        seen = {start}
        current = start
        while current in successor:
            current = successor[current]
            assert current not in seen, f"supersession cycle through {start}"
            seen.add(current)


def test_criterion_04_supersession_links_ordered_and_acyclic():
    with criterion(4, "supersession links time-increasing and acyclic"):
        merge = MergeSection(antonym_pairs=[["warm", "cold"]])
        kg = TemporalKG(book_id="fixture", plot_count=3)
        first = [
            make_triple("Kent", "FeelsTowardsLear", "warm affection for the king", 1),
            make_triple("Kent", "BelievesAboutLear", "the king trusts him", 1, ordinal=1),
        ]
        insert_batch(kg, TripleBatch(character="Kent", plot_index=1, triples=first), merge)
        second = [
            make_triple("Kent", "FeelsTowardsLear", "cold affection for the king", 2),
            make_triple("Kent", "BelievesAboutLear", "the king trusts him completely", 2, ordinal=1),
        ]
        log = insert_batch(kg, TripleBatch(character="Kent", plot_index=2, triples=second), merge)
        assert [l.reason for l in log.contradicted] == [SupersedeReason.CONTRADICTED]
        assert [l.reason for l in log.refined] == [SupersedeReason.REFINED]
        _assert_links_time_increasing_and_acyclic(kg)
        check_invariants(kg)
        for case_id in range(0, 1000, 20):
            sampled = run_random_case(case_id)
            _assert_links_time_increasing_and_acyclic(sampled)
            check_invariants(sampled)


def _scoring_question(qid: str, dimension: Dimension, correct: str) -> TomQuestion:
    return TomQuestion(
        id=qid,
        book_id="king-lear",
        plot_index=1,
        character="Cordelia",
        dimension=dimension,
        scenario="",
        reasoning="",
        stem=f"Stem for {qid}?",
        options=[f"{qid} a", f"{qid} b", f"{qid} c", f"{qid} d"],
        correct=correct,
        state=QuestionState.HUMAN_VERIFIED,
    )


def test_criterion_05_score_cells_match_hand_recount():
    with criterion(5, "scoring matches hand recount; unparseable is wrong"):
        condition = EvalCondition(ContextMode.CURRENT_PLOT, False)
        questions: dict[str, TomQuestion] = {}
        predictions: list[Prediction] = []
        belief_letters = ["A", "A", "A", "A", "A", "A", "A", "B", "B", None]
        for i, letter in enumerate(belief_letters):
            q = _scoring_question(f"b{i}", Dimension.BELIEF, "A")
            questions[q.id] = q
            predictions.append(
                Prediction(q.id, "m", condition.context_mode, False, letter, raw_text=letter or "no letter here")
            )
        desire_letters = ["C", None, "D"]
        for i, letter in enumerate(desire_letters):
            q = _scoring_question(f"d{i}", Dimension.DESIRE, "C")
            questions[q.id] = q
            predictions.append(
                Prediction(q.id, "m", condition.context_mode, False, letter, raw_text=letter or "garbled")
            )
        # the unparseable belief answer names the right letter in prose
        unparseable = "I think the answer is A"
        assert parse_answer(unparseable) is None
        table = score(predictions, questions)
        header, printed = render_report(table, ReportLayout.CSV).splitlines()
        cells = dict(zip(header.split(","), printed.split(",")))
        assert cells["belief"] == "70.00"  # 7/10 by hand
        assert cells["desire"] == "33.33"  # 1/3 by hand
        assert cells["emotion"] == "-"
        assert cells["avg"] == "61.54"  # 8/13 by hand
        assert table.row("m", condition).total[Dimension.BELIEF] == 10  # None-letter rows stay in the denominator


def test_criterion_06_two_runs_are_byte_identical(tmp_path, monkeypatch):
    with criterion(6, "end-to-end determinism under the replay backend") as note:
        sequence = ("ingest", "extract", "build-kg", "genqa", "eval", "report")
        # The first run parses the config, the second reads its memoized tree.
        memos = tmp_path / "xdg" / "tomtrace" / "config"
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        started = time.perf_counter()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(out_a, *sequence)
        assert len(list(memos.glob("*.json"))) == 1
        run_cli(out_b, *sequence)
        elapsed = time.perf_counter() - started
        tree_a, tree_b = tree_bytes(out_a), tree_bytes(out_b)
        assert tree_a.keys() == tree_b.keys()
        different = [name for name in tree_a if tree_a[name] != tree_b[name]]
        assert different == []
        assert elapsed < 120.0
        note["detail"] = f"{len(tree_a)} files, {elapsed:.2f}s"


def _row_from_cells(table: ScoreTable, model: str, condition: EvalCondition, cells: dict[Dimension, str]) -> None:
    """Counts that print as the given two-place percentages: 10000 asked per dimension."""
    row = table.row(model, condition)
    for dimension, cell in cells.items():
        row.total[dimension] = 10000
        row.correct[dimension] = int(cell.replace(".", ""))  # "66.61" -> 6661


def test_criterion_07_report_reproduces_fixture_rows():
    with criterion(7, "report fidelity on fixture percentages"):
        base = EvalCondition(ContextMode.CURRENT_PLOT, False)
        enhanced = EvalCondition(ContextMode.CURRENT_PLOT, True)
        base_cells = dict(zip(Dimension, ["66.61", "70.06", "69.61", "71.81"]))
        enhanced_cells = dict(zip(Dimension, ["71.65", "73.06", "74.02", "74.80"]))
        table = ScoreTable()
        _row_from_cells(table, "GPT-4o-mini", base, base_cells)
        _row_from_cells(table, "GPT-4o-mini", enhanced, enhanced_cells)
        rendered = render_report(table, ReportLayout.PLAIN)
        assert rendered == (
            "Models         Belief    Desire   Emotion Intention       Avg\n"
            "GPT-4o-mini     66.61     70.06     69.61     71.81     69.52\n"
            "w Triple        71.65     73.06     74.02     74.80     73.38\n"
        )
        header, base_row, enhanced_row = rendered.splitlines()
        assert header.split() == ["Models", "Belief", "Desire", "Emotion", "Intention", "Avg"]
        assert base_row.split()[0] == "GPT-4o-mini"
        assert enhanced_row.split()[:2] == ["w", "Triple"]


def test_criterion_08_training_example_block_verbatim(fixture_corpus):
    with criterion(8, "fine-tune output block verbatim"):
        batch = parse_triple_response(SIX_TRIPLE_RESPONSE, "King Lear", 1, book_id="king-lear")
        kg = TemporalKG(book_id="king-lear", plot_count=2)
        insert_batch(kg, batch)
        question = TomQuestion(
            id=question_id("king-lear", 1, "King Lear", Dimension.BELIEF),
            book_id="king-lear",
            plot_index=1,
            character="King Lear",
            dimension=Dimension.BELIEF,
            scenario="",
            reasoning="",
            stem="What does King Lear believe about Cordelia's profession of love?",
            options=[
                "He believes she is jesting and will eventually flatter him.",
                "He believes she is being honest and true to herself.",
                "He believes she is intentionally defying him out of spite.",
                "He believes she is confused and doesn't understand the situation.",
            ],
            correct="B",
            state=QuestionState.HUMAN_VERIFIED,
        )
        with_triples = emit_example(question, kg, True, corpus=fixture_corpus)
        assert with_triples.output == (
            "Relevant mental state triples:\n"
            "(King Lear, DesiresToKnow, which daughter loves King Lear most)\n"
            "(King Lear, IntendsTo, divide the kingdom based on his daughters' declarations of love)\n"
            "(King Lear, BelievesAboutCordelia, Cordelia's silence is a sign of defiance and disrespect)\n"
            "(King Lear, FeelsTowardsCordelia, wounded and betrayed by Cordelia's refusal to flatter King Lear)\n"
            "(King Lear, BelievesAboutGoneril, Goneril speaks well and expresses her love convincingly)\n"
            "(King Lear, FeelsTowardsCordelia, disappointed and shocked by Cordelia's honesty)\n"
            "Answer:\n"
            "{answer: B}"
        )
        without = emit_example(question, kg, False, corpus=fixture_corpus)
        assert without.output == "Answer:\n{answer: B}"
        assert with_triples.input == without.input
        assert with_triples.input.startswith(
            "You are an expert in narrative analysis and character psychology"
        )
        assert "CANDIDATE CHOICES:" in with_triples.input


def test_criterion_09_benchmark_invariants_hold(pipeline_out):
    with criterion(9, "question-set shape and verification state machine") as note:
        questions = load_questions(pipeline_out / "questions.jsonl")
        assert questions
        for q in questions:
            assert len(q.options) == 4
            assert q.correct in "ABCD"
        stats = dataset_stats(questions)
        assert stats.correct_answers == stats.questions
        assert stats.distractors == 3 * stats.questions

        legal = {
            ("generated", "llm", True): "llm_verified",
            ("generated", "llm", False): "rejected",
            ("llm_verified", "human", True): "human_verified",
            ("llm_verified", "human", False): "rejected",
        }
        rng = random.Random(2026)
        for case in range(300):
            q = _scoring_question(f"s{case}", Dimension.BELIEF, "A")
            q.state = QuestionState.GENERATED
            expected = "generated"
            for _ in range(rng.randint(1, 6)):
                stage = rng.choice(["llm", "human"])
                passed = rng.random() < 0.5
                verdict = VerificationVerdict(
                    question_id=q.id, stage=VerificationStage(stage), passed=passed
                )
                next_state = legal.get((expected, stage, passed))
                if next_state is None:
                    with pytest.raises(InvalidState):
                        apply_verdict(q, verdict)
                else:
                    apply_verdict(q, verdict)
                    expected = next_state
                assert q.state.value == expected
        note["detail"] = f"{stats.questions} questions, 300 verdict sequences"


OOD_TITLES = frozenset({
    "The Hound of the Baskervilles",
    "Notes from Underground",
    "The Turn of the Screw",
    "Jude the Obscure",
    "Siddhartha",
})


def _public_corpus():
    root = os.environ.get(COSER_ENV)
    if not root:
        pytest.skip(f"set {COSER_ENV} to the public 20-book directory to run this check")
    return ingest_corpus(root, format="coser")


def public_corpus_stats(corpus: Corpus, ood_titles: frozenset[str]) -> tuple[StatsReport, list[Book], StatsReport]:
    """Criterion 10's figures: the corpus's statistics, its books titled in `ood_titles`, and theirs."""
    stats = corpus_stats(corpus)
    ood_norms = {normalize_name(t) for t in ood_titles}
    ood_books = [b for b in corpus.books if normalize_name(b.title) in ood_norms]
    ood_stats = corpus_stats(Corpus(books=ood_books, registries=corpus.registries))
    return stats, ood_books, ood_stats


def prompt_token_means(corpus: Corpus) -> tuple[float, float]:
    """Criterion 11's figures: the mean token estimate of a probe question's prompt at every
    plot, with the current plot's context and with the extended one."""
    standard: list[int] = []
    extended: list[int] = []
    for book in corpus.books:
        for plot in book.plots:
            speakers = sorted(
                {t.speaker for conv in plot.conversations for t in conv.turns}
            )
            character = speakers[0] if speakers else "The Narrator"
            probe = TomQuestion(
                id=question_id(book.id, plot.index, character, Dimension.BELIEF),
                book_id=book.id,
                plot_index=plot.index,
                character=character,
                dimension=Dimension.BELIEF,
                scenario="",
                reasoning="",
                stem=f"What does {character} believe about the unfolding scene?",
                options=[
                    "They believe the moment rewards honest speech.",
                    "They believe silence will be read as defiance.",
                    "They believe flattery will be found out in time.",
                    "They believe the outcome is already decided.",
                ],
                correct="A",
                state=QuestionState.HUMAN_VERIFIED,
            )
            for mode, sink in (
                (ContextMode.CURRENT_PLOT, standard),
                (ContextMode.CURRENT_PLUS_PREV, extended),
            ):
                prompt = assemble_context(
                    probe, corpus, None, EvalCondition(mode, False)
                )
                sink.append(prompt.token_estimate)
    return statistics.mean(standard), statistics.mean(extended)


def test_criterion_10_public_corpus_statistics():
    with criterion(10, "public 20-book corpus statistics") as note:
        started = time.perf_counter()
        corpus = _public_corpus()
        stats, ood_books, ood_stats = public_corpus_stats(corpus, OOD_TITLES)
        assert (stats.total_plots, stats.total_conversations) == (258, 599)
        assert stats.avg_speakers == "2.47"
        assert len(ood_books) == 5
        assert (ood_stats.total_plots, ood_stats.total_conversations) == (93, 204)
        assert ood_stats.avg_speakers == "2.19"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        note["detail"] = f"{elapsed:.2f}s"


@pytest.mark.xfail(strict=False, reason="advisory band: the reference tokenizer is unspecified")
def test_criterion_11_prompt_token_means_advisory():
    with criterion(11, "prompt token means within advisory band") as note:
        corpus = _public_corpus()
        standard_mean, extended_mean = prompt_token_means(corpus)
        note["detail"] = (
            f"standard mean {standard_mean:.0f} vs 2109, extended mean {extended_mean:.0f} vs 4524"
        )
        assert abs(standard_mean - 2109) <= 0.15 * 2109
        assert abs(extended_mean - 4524) <= 0.15 * 4524
