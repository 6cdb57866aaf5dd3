"""Command line pipeline: ingest -> extract -> build-kg -> genqa -> verify
-> eval -> report, plus review round-trip, fine-tune emission, and stats.

Every subcommand writes a run manifest (input hashes, config hash, versions)
so a run under the replay backend can be reproduced byte for byte. Exit
codes: 0 success, 1 user or config error, 2 backend failure.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import random
import sys
from pathlib import Path

import click

from . import __version__
from .config import PipelineConfig, load_config
from .corpus import Corpus, corpus_stats, ingest_corpus, serialize_corpus
from .errors import GatewayError, MissingUpstreamArtifact, TomtraceError
from .evalharness import (
    ContextMode,
    EvalCondition,
    ReportLayout,
    load_predictions,
    render_report,
    run_eval,
    score,
)
from .ftemit import SplitSpec, emit_example, split_ood, write_split_manifest, write_training_file
from .llmgate import BackendConfig, Gateway, ReplayScript, ResponseCache, RetryPolicy
from .qagen import (
    QuestionState,
    dataset_stats,
    export_review,
    first_pass_stats,
    generate_questions,
    import_review,
    load_questions,
    save_questions,
    save_verdicts,
    verify_questions,
)
from .tkg import (
    ContradictionRules,
    MergeMode,
    TemporalKG,
    changelog_to_record,
    check_invariants,
    insert_batch,
    load_kg,
    save_kg,
)
from .triples import MentalStateTriple, TripleBatch, extract_triples, triple_from_record
from .util import sha256_file


def _guarded(fn):
    """Map library errors to exit codes: gateway failures 2, the rest 1."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except GatewayError as exc:
            click.echo(f"backend error: {exc}", err=True)
            sys.exit(2)
        except TomtraceError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


class RunContext:
    def __init__(self, config: PipelineConfig, out_override: str | None):
        self.config = config
        self.out_dir = Path(out_override or config.out_dir)
        # Set by gateway(): a loaded replay script is an input of the stage.
        self.replay_script: Path | None = None

    # --- artifact layout ---
    @property
    def corpus_dir(self) -> Path:
        return self.out_dir / "corpus"

    @property
    def triples_dir(self) -> Path:
        return self.out_dir / "triples"

    @property
    def kg_dir(self) -> Path:
        return self.out_dir / "kg"

    @property
    def questions_path(self) -> Path:
        return self.out_dir / "questions.jsonl"

    @property
    def verdicts_path(self) -> Path:
        return self.out_dir / "verdicts.jsonl"

    @property
    def predictions_path(self) -> Path:
        return self.out_dir / "predictions.jsonl"

    @property
    def cache_dir(self) -> Path:
        return Path(self.config.cache_dir) if self.config.cache_dir else self.out_dir / "cache"

    def load_corpus(self) -> Corpus:
        if not self.corpus_dir.is_dir() or not any(self.corpus_dir.glob("*.jsonl")):
            raise MissingUpstreamArtifact(f"no normalized corpus under {self.corpus_dir}; run ingest")
        alias = {k: Path(v) for k, v in self.config.corpus.alias_tables.items() if v}
        return ingest_corpus(self.corpus_dir, format="jsonl", alias_tables=alias)

    def load_kgs(self) -> dict[str, TemporalKG]:
        if not self.kg_dir.is_dir():
            raise MissingUpstreamArtifact(f"no graphs under {self.kg_dir}; run build-kg")
        kgs = {}
        for path in sorted(self.kg_dir.glob("*.kg.jsonl")):
            kg = load_kg(path)
            kgs[kg.book_id] = kg
        if not kgs:
            raise MissingUpstreamArtifact(f"no graphs under {self.kg_dir}; run build-kg")
        return kgs

    def load_question_file(self) -> list:
        if not self.questions_path.is_file():
            raise MissingUpstreamArtifact(f"{self.questions_path} missing; run genqa")
        return load_questions(self.questions_path)

    def gateway(self, *, replay_override: str | None = None, cache_override: str | None = None) -> Gateway:
        backend = BackendConfig(
            name=self.config.backend.name,
            endpoint=self.config.backend.endpoint,
            auth_env_var=self.config.backend.auth_env_var,
            max_in_flight=self.config.backend.max_in_flight,
            requests_per_minute=self.config.backend.requests_per_minute,
            retry=RetryPolicy(
                max_attempts=self.config.backend.retry_max_attempts,
                base_backoff_s=self.config.backend.retry_base_backoff_s,
            ),
        )
        replay = None
        script = replay_override or self.config.replay.script
        if script:
            self.replay_script = Path(script)
            replay = ReplayScript.load(
                script,
                default_policy=self.config.replay.default_policy,
                default_text=self.config.replay.default_text,
            )
        cache_dir = Path(cache_override) if cache_override else self.cache_dir
        return Gateway(backend, replay=replay, cache=ResponseCache(cache_dir))

    def model_id(self) -> str:
        return self.config.backend.model or "default-model"

    def merge_rules(self) -> ContradictionRules:
        return ContradictionRules(
            antonym_pairs=[tuple(p) for p in self.config.merge.antonym_pairs],
            negation_cues=tuple(self.config.merge.negation_cues),
        )

    def write_manifest(self, command: str, inputs: list[Path], outputs: list[Path]) -> Path:
        config_path = Path(self.config.source_path)
        if self.replay_script is not None:
            inputs = [*inputs, self.replay_script]

        def key_for(path: Path, base: Path) -> str:
            try:
                return path.resolve().relative_to(base.resolve()).as_posix()
            except ValueError:
                return path.name

        manifest = {
            "command": command,
            "config_sha256": sha256_file(config_path) if config_path.is_file() else None,
            "inputs": {
                key_for(p, config_path.parent): sha256_file(p)
                for p in sorted(set(inputs))
                if p.is_file()
            },
            "outputs": {
                key_for(p, self.out_dir): sha256_file(p)
                for p in sorted(set(outputs))
                if p.is_file()
            },
            "package_version": __version__,
            "python_version": "%d.%d.%d" % sys.version_info[:3],
        }
        target = self.out_dir / "manifests" / f"{command}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return target


pass_ctx = click.make_pass_decorator(RunContext)


@click.group()
@click.option("--config", "-c", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_override", default=None, help="Override the configured output directory.")
@click.option("--verbose", "-v", is_flag=True, help="Chatty logging.")
@click.version_option(version=__version__)
@click.pass_context
def main(ctx: click.Context, config_path: str, out_override: str | None, verbose: bool):
    """Mental-state pipeline over plot-segmented narrative corpora."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config(config_path)
    except TomtraceError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    ctx.obj = RunContext(config, out_override)


# --- ingest -----------------------------------------------------------------

@main.command()
@pass_ctx
@_guarded
def ingest(ctx: RunContext):
    """Parse source books into the normalized plot-per-line corpus."""
    cfg = ctx.config.corpus
    if not cfg.input:
        raise MissingUpstreamArtifact("corpus.input is not configured")
    alias = {k: Path(v) for k, v in cfg.alias_tables.items() if v}
    corpus = ingest_corpus(cfg.input, format=cfg.format, alias_tables=alias)
    written = serialize_corpus(corpus, ctx.corpus_dir)
    stats = corpus_stats(corpus)
    click.echo(
        f"ingested {len(corpus.books)} book(s): {stats.total_plots} plots, "
        f"{stats.total_conversations} conversations"
    )
    inputs = [Path(cfg.input)] if Path(cfg.input).is_file() else sorted(Path(cfg.input).glob("*"))
    inputs += [Path(v) for v in cfg.alias_tables.values() if v]
    ctx.write_manifest("ingest", inputs, written)


# --- extract ----------------------------------------------------------------

@main.command()
@click.option("--replay", "replay_override", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--cache-dir", "cache_override", default=None, type=click.Path(file_okay=False))
@pass_ctx
@_guarded
def extract(ctx: RunContext, replay_override: str | None, cache_override: str | None):
    """Extract mental-state triples per character and plot."""
    corpus = ctx.load_corpus()
    books = sorted(corpus.books, key=lambda b: b.id)
    extractions = extract_triples(
        books,
        corpus.registries,
        ctx.gateway(replay_override=replay_override, cache_override=cache_override),
        model_id=ctx.model_id(),
        strict=ctx.config.triples.strict_perspective,
        template_override=ctx.config.triples.template,
    )
    ctx.triples_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[Path] = []
    for book_id, extraction in extractions.items():
        triples_path = ctx.triples_dir / f"{book_id}.jsonl"
        rejects_path = ctx.triples_dir / f"{book_id}.rejects.jsonl"
        triples_path.write_text("".join(extraction.triple_lines), encoding="utf-8")
        rejects_path.write_text("".join(extraction.reject_lines), encoding="utf-8")
        outputs += [triples_path, rejects_path]
    total = sum(len(e.triple_lines) for e in extractions.values())
    rejected = sum(e.rejected for e in extractions.values())
    click.echo(f"extracted {total} triples ({rejected} rejected)")
    inputs = sorted(ctx.corpus_dir.glob("*.jsonl"))
    ctx.write_manifest("extract", inputs, outputs)


# --- build-kg -----------------------------------------------------------------

@main.command("build-kg")
@pass_ctx
@_guarded
def build_kg(ctx: RunContext):
    """Fold extracted triple batches into per-book temporal graphs."""
    corpus = ctx.load_corpus()
    if not ctx.triples_dir.is_dir():
        raise MissingUpstreamArtifact(f"no triples under {ctx.triples_dir}; run extract")
    mode = MergeMode(ctx.config.merge.mode)
    rules = ctx.merge_rules()
    threshold = ctx.config.merge.jaccard_threshold
    outputs: list[Path] = []
    inputs: list[Path] = []
    for book in sorted(corpus.books, key=lambda b: b.id):
        triples_path = ctx.triples_dir / f"{book.id}.jsonl"
        if not triples_path.is_file():
            raise MissingUpstreamArtifact(f"{triples_path} missing; run extract")
        inputs.append(triples_path)
        batches: dict[tuple[str, int], list[MentalStateTriple]] = {}
        order: list[tuple[str, int]] = []
        for line in triples_path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["character"], rec["plot_index"])
            if key not in batches:
                batches[key] = []
                order.append(key)
            batches[key].append(triple_from_record(rec))
        kg = TemporalKG(book_id=book.id, plot_count=len(book.plots))
        changelog_path = ctx.kg_dir / f"{book.id}.changelog.jsonl"
        ctx.kg_dir.mkdir(parents=True, exist_ok=True)
        with open(changelog_path, "w", encoding="utf-8") as cfh:
            for character, plot_index in order:
                batch = TripleBatch(
                    character=character,
                    plot_index=plot_index,
                    triples=batches[(character, plot_index)],
                )
                log = insert_batch(kg, batch, mode, rules=rules, jaccard_threshold=threshold)
                cfh.write(json.dumps(changelog_to_record(log), ensure_ascii=False) + "\n")
        check_invariants(kg)
        kg_path = save_kg(kg, ctx.kg_dir / f"{book.id}.kg.jsonl")
        outputs += [kg_path, changelog_path]
        click.echo(
            f"{book.id}: {len(kg.edges)} edges, {len(kg.supersede_links)} supersede links, "
            f"{len(kg.retirements)} retirements"
        )
    ctx.write_manifest("build-kg", inputs, outputs)


# --- genqa ---------------------------------------------------------------------

@main.command()
@click.option("--replay", "replay_override", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--cache-dir", "cache_override", default=None, type=click.Path(file_okay=False))
@pass_ctx
@_guarded
def genqa(ctx: RunContext, replay_override: str | None, cache_override: str | None):
    """Generate one question per dimension per speaking character per plot."""
    questions = generate_questions(
        ctx.load_corpus(),
        ctx.load_kgs(),
        ctx.gateway(replay_override=replay_override, cache_override=cache_override),
        model_id=ctx.model_id(),
        template_override=ctx.config.qagen.template,
        shuffle=ctx.config.qagen.shuffle_options,
        seed=ctx.config.seed,
    )
    path = save_questions(questions, ctx.questions_path)
    click.echo(f"generated {len(questions)} questions")
    ctx.write_manifest(
        "genqa",
        sorted(ctx.corpus_dir.glob("*.jsonl")) + sorted(ctx.kg_dir.glob("*.kg.jsonl")),
        [path],
    )


# --- verify ----------------------------------------------------------------------

@main.command()
@click.option("--replay", "replay_override", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--cache-dir", "cache_override", default=None, type=click.Path(file_okay=False))
@pass_ctx
@_guarded
def verify(ctx: RunContext, replay_override: str | None, cache_override: str | None):
    """Model-verify generated questions, regenerating rejects up to the budget."""
    final, verdicts = verify_questions(
        ctx.load_question_file(),
        ctx.gateway(replay_override=replay_override, cache_override=cache_override),
        model_id=ctx.model_id(),
        max_attempts=ctx.config.verification.max_attempts,
        template_override=ctx.config.verification.template,
        shuffle=ctx.config.qagen.shuffle_options,
        seed=ctx.config.seed,
    )
    save_questions(final, ctx.questions_path)
    save_verdicts(verdicts, ctx.verdicts_path)
    attempts = {q.id: q.attempt for q in final}
    report = first_pass_stats(verdicts, attempts)
    verified = sum(1 for q in final if q.state is QuestionState.LLM_VERIFIED)
    click.echo(
        f"verified {verified}/{len(final)} questions; first-pass rate {report.rate} "
        f"({report.first_attempt_passes}/{report.verified_questions})"
    )
    ctx.write_manifest("verify", [ctx.questions_path], [ctx.questions_path, ctx.verdicts_path])


# --- human review -------------------------------------------------------------------

@main.command("review-export")
@click.option("--kind", type=click.Choice(["questions", "triples"]), default="questions")
@click.option("--output", "output_path", default=None, type=click.Path(dir_okay=False))
@pass_ctx
@_guarded
def review_export(ctx: RunContext, kind: str, output_path: str | None):
    """Export a review CSV (sampled per config) for human verdicts."""
    if kind == "questions":
        questions = [
            q for q in ctx.load_question_file() if q.state is QuestionState.LLM_VERIFIED
        ]
        rate = ctx.config.verification.question_sample_rate
        chosen = _sample(questions, rate, ctx.config.seed, key=lambda q: q.id)
        target = Path(output_path) if output_path else ctx.out_dir / "review.csv"
        count = export_review(chosen, target)
        click.echo(f"exported {count} question(s) to {target}")
        ctx.write_manifest("review-export", [ctx.questions_path], [target])
        return
    # triples audit sample: export-only, verdicts feed no importer
    if not ctx.triples_dir.is_dir():
        raise MissingUpstreamArtifact(f"no triples under {ctx.triples_dir}; run extract")
    records = []
    for path in sorted(ctx.triples_dir.glob("*.jsonl")):
        if path.name.endswith(".rejects.jsonl"):
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                records.append(json.loads(line))
    rate = ctx.config.verification.triple_sample_rate
    chosen = _sample(records, rate, ctx.config.seed, key=lambda r: r["id"])
    target = Path(output_path) if output_path else ctx.out_dir / "triples_review.csv"
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["triple_id", "book_id", "character", "plot_index", "subject", "predicate", "object", "verdict", "notes"]
        )
        for rec in chosen:
            writer.writerow(
                [
                    rec["id"],
                    rec["book_id"],
                    rec["character"],
                    rec["plot_index"],
                    rec["subject"],
                    rec["predicate"],
                    rec["object"],
                    "",
                    "",
                ]
            )
    click.echo(f"exported {len(chosen)} triple(s) to {target}")
    ctx.write_manifest("review-export", sorted(ctx.triples_dir.glob("*.jsonl")), [target])


def _sample(items: list, rate: float, seed: int | None, *, key):
    ordered = sorted(items, key=key)
    if rate >= 1.0:
        return ordered
    count = round(len(ordered) * rate)
    rng = random.Random(seed)
    picked = rng.sample(range(len(ordered)), count)
    return [ordered[i] for i in sorted(picked)]


@main.command("review-import")
@click.argument("csv_path", type=click.Path(exists=True, dir_okay=False))
@pass_ctx
@_guarded
def review_import(ctx: RunContext, csv_path: str):
    """Apply human pass/fail verdicts from a review CSV."""
    questions = ctx.load_question_file()
    by_id = {q.id: q for q in questions}
    report = import_review(csv_path, by_id)
    save_questions(questions, ctx.questions_path)
    click.echo(
        f"applied {len(report.applied)} verdict(s), skipped {report.skipped_blank} blank row(s)"
    )
    for err in report.errors:
        click.echo(f"row error: {err}", err=True)
    ctx.write_manifest("review-import", [Path(csv_path)], [ctx.questions_path])
    if report.errors:
        sys.exit(1)


# --- eval and report ------------------------------------------------------------------

def _conditions_from(context: str, triples: str) -> list[EvalCondition]:
    modes = {
        "current": [ContextMode.CURRENT_PLOT],
        "extended": [ContextMode.CURRENT_PLUS_PREV],
        "both": list(ContextMode),
    }[context]
    flags = {"on": [True], "off": [False], "both": [False, True]}[triples]
    return [EvalCondition(m, t) for m in modes for t in flags]


@main.command("eval")
@click.option("--models", "models_override", default=None, help="Comma-separated model ids.")
@click.option("--context", "context_override", type=click.Choice(["current", "extended", "both"]), default=None)
@click.option("--triples", "triples_override", type=click.Choice(["on", "off", "both"]), default=None)
@click.option("--replay", "replay_override", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--cache-dir", "cache_override", default=None, type=click.Path(file_okay=False))
@pass_ctx
@_guarded
def eval_cmd(
    ctx: RunContext,
    models_override: str | None,
    context_override: str | None,
    triples_override: str | None,
    replay_override: str | None,
    cache_override: str | None,
):
    """Answer every question under each model and condition, then score."""
    corpus = ctx.load_corpus()
    questions = ctx.load_question_file()
    context = context_override or ctx.config.eval.context
    triples = triples_override or ctx.config.eval.triples
    conditions = _conditions_from(context, triples)
    kgs: dict[str, TemporalKG] = {}
    if any(c.triples_enabled for c in conditions):
        kgs = ctx.load_kgs()
    models = (
        [m.strip() for m in models_override.split(",") if m.strip()]
        if models_override
        else (ctx.config.eval.models or [ctx.model_id()])
    )
    gateway = ctx.gateway(replay_override=replay_override, cache_override=cache_override)
    table, predictions_path = run_eval(
        corpus,
        kgs,
        questions,
        models,
        conditions,
        gateway,
        ctx.predictions_path,
        answer_style=ctx.config.eval.answer_style,
        template_override=ctx.config.eval.template,
    )
    rendered = render_report(table, ReportLayout.PLAIN)
    report_path = ctx.out_dir / "report.txt"
    report_path.write_text(rendered, encoding="utf-8")
    click.echo(rendered, nl=False)
    inputs = [ctx.questions_path] + sorted(ctx.corpus_dir.glob("*.jsonl"))
    inputs += sorted(ctx.kg_dir.glob("*.kg.jsonl")) if kgs else []
    ctx.write_manifest("eval", inputs, [predictions_path, report_path])


@main.command()
@click.option("--layout", type=click.Choice([l.value for l in ReportLayout]), default="plain")
@pass_ctx
@_guarded
def report(ctx: RunContext, layout: str):
    """Re-render the score table from stored predictions."""
    if not ctx.predictions_path.is_file():
        raise MissingUpstreamArtifact(f"{ctx.predictions_path} missing; run eval")
    questions = {q.id: q for q in ctx.load_question_file()}
    predictions = load_predictions(ctx.predictions_path)
    table = score(predictions, questions)
    chosen = ReportLayout(layout)
    rendered = render_report(table, chosen)
    suffix = {"plain": "txt", "markdown": "md", "csv": "csv"}[layout]
    target = ctx.out_dir / f"report.{suffix}"
    target.write_text(rendered, encoding="utf-8")
    click.echo(rendered, nl=False)
    ctx.write_manifest("report", [ctx.predictions_path, ctx.questions_path], [target])


# --- fine-tune emission -----------------------------------------------------------------

@main.command("emit-ft")
@click.option("--allow-unverified", is_flag=True, help="Waive the human-verification gate.")
@pass_ctx
@_guarded
def emit_ft(ctx: RunContext, allow_unverified: bool):
    """Emit supervised fine-tune JSONL files with the book-level OOD split."""
    corpus = ctx.load_corpus()
    kgs = ctx.load_kgs()
    questions = ctx.load_question_file()
    waive = allow_unverified or not ctx.config.ft.require_human_verified
    if not waive:
        questions = [q for q in questions if q.state is QuestionState.HUMAN_VERIFIED]
    spec = SplitSpec(ood_book_titles=frozenset(ctx.config.ft.ood_books))
    result = split_ood(corpus, questions, spec)
    variants = {"on": [True], "off": [False], "both": [True, False]}[ctx.config.ft.with_triples]
    ft_dir = ctx.out_dir / "ft"
    outputs = []
    from .ftemit import Split

    for split, bucket in ((Split.TRAIN, result.train), (Split.OOD_TEST, result.ood)):
        for with_triples in variants:
            examples = [
                emit_example(
                    q,
                    kgs.get(q.book_id),
                    with_triples,
                    corpus=corpus,
                    waive_verification=waive,
                    split=split,
                )
                for q in bucket
            ]
            name = f"{split.value}_{'with' if with_triples else 'without'}_triples.jsonl"
            target = ft_dir / name
            count = write_training_file(examples, target)
            outputs.append(target)
            click.echo(f"{target}: {count} example(s)")
    manifest_path = write_split_manifest(corpus, spec, ft_dir / "split_manifest.json")
    outputs.append(manifest_path)
    ctx.write_manifest(
        "emit-ft",
        [ctx.questions_path] + sorted(ctx.kg_dir.glob("*.kg.jsonl")),
        outputs,
    )


# --- stats ---------------------------------------------------------------------------------

@main.command()
@pass_ctx
@_guarded
def stats(ctx: RunContext):
    """Corpus and question-set statistics."""
    corpus = ctx.load_corpus()
    report = corpus_stats(corpus)
    payload: dict = {
        "corpus": {
            "books": [
                {
                    "book_id": b.book_id,
                    "title": b.title,
                    "plots": b.plot_count,
                    "conversations": b.conversation_count,
                    "avg_speakers": b.avg_speakers,
                }
                for b in report.per_book
            ],
            "total_plots": report.total_plots,
            "total_conversations": report.total_conversations,
            "avg_speakers": report.avg_speakers,
        }
    }
    click.echo(f"{'book':30} {'plots':>6} {'convs':>6} {'avg speakers':>13}")
    for b in report.per_book:
        click.echo(f"{b.title[:30]:30} {b.plot_count:>6} {b.conversation_count:>6} {b.avg_speakers:>13}")
    click.echo(f"{'TOTAL':30} {report.total_plots:>6} {report.total_conversations:>6} {report.avg_speakers:>13}")
    inputs = sorted(ctx.corpus_dir.glob("*.jsonl"))
    if ctx.questions_path.is_file():
        qstats = dataset_stats(ctx.load_question_file())
        payload["questions"] = {
            "questions": qstats.questions,
            "correct_answers": qstats.correct_answers,
            "distractors": qstats.distractors,
            "per_dimension": qstats.per_dimension,
            "per_book": qstats.per_book,
        }
        click.echo(
            f"questions: {qstats.questions} (correct {qstats.correct_answers}, "
            f"distractors {qstats.distractors})"
        )
        inputs.append(ctx.questions_path)
    target = ctx.out_dir / "stats.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    ctx.write_manifest("stats", inputs, [target])


if __name__ == "__main__":
    main()
