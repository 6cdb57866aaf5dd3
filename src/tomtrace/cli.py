"""Command line pipeline: ingest -> extract -> build-kg -> genqa -> verify
-> eval -> report, plus review round-trip, fine-tune emission, and stats.

Every subcommand writes a run manifest (input hashes, config hash, versions)
so a run under the replay backend can be reproduced byte for byte. Exit
codes: 0 success, 1 user or config error, 2 backend failure.
"""

from __future__ import annotations

import functools
import logging
import sys
from pathlib import Path

import click

from . import __version__
from .config import PipelineConfig, load_config
from .corpus import Corpus, corpus_stats, corpus_stats_to_record, ingest_corpus, serialize_corpus
from .errors import GatewayError, MissingUpstreamArtifact, TomtraceError
from .evalharness import ReportLayout, conditions, load_predictions, render_report, run_eval, score
from .ftemit import SplitSpec, emit_training_files, write_split_manifest
from .llmgate import BackendConfig, Gateway, ReplayScript, ResponseCache, RetryPolicy
from .qagen import (
    QuestionState,
    dataset_stats,
    dataset_stats_to_record,
    export_review,
    first_pass_stats,
    generate_questions,
    import_review,
    load_questions,
    save_questions,
    save_verdicts,
    verify_questions,
)
from .tkg import ContradictionRules, MergeMode, TemporalKG, build_graph, load_kg, save_kg
from .triples import export_triple_review, extract_triples, load_kept_triples, write_extractions
from .util import read_jsonl, sample, sha256_file, write_json, write_jsonl


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
        # artifact layout
        self.corpus_dir = self.out_dir / "corpus"
        self.triples_dir = self.out_dir / "triples"
        self.kg_dir = self.out_dir / "kg"
        self.questions_path = self.out_dir / "questions.jsonl"
        self.verdicts_path = self.out_dir / "verdicts.jsonl"
        self.predictions_path = self.out_dir / "predictions.jsonl"
        self.cache_dir = Path(config.cache_dir) if config.cache_dir else self.out_dir / "cache"
        self.alias_tables = {k: Path(v) for k, v in config.corpus.alias_tables.items() if v}

    def load_corpus(self) -> Corpus:
        if not self.corpus_dir.is_dir() or not any(self.corpus_dir.glob("*.jsonl")):
            raise MissingUpstreamArtifact(f"no normalized corpus under {self.corpus_dir}; run ingest")
        return ingest_corpus(self.corpus_dir, format="jsonl", alias_tables=self.alias_tables)

    def load_kgs(self) -> dict[str, TemporalKG]:
        kgs = {kg.book_id: kg for kg in map(load_kg, sorted(self.kg_dir.glob("*.kg.jsonl")))}
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
        return write_json(self.out_dir / "manifests" / f"{command}.json", manifest)


pass_ctx = click.make_pass_decorator(RunContext)


def _command(name: str | None = None):
    """Register a subcommand that takes the RunContext and maps library errors to exit codes."""
    return lambda fn: main.command(name)(pass_ctx(_guarded(fn)))


@click.group()
@click.option("--config", "-c", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_override", default=None, help="Override the configured output directory.")
@click.option("--verbose", "-v", is_flag=True, help="Chatty logging.")
@click.version_option(version=__version__)
@click.pass_context
@_guarded
def main(ctx: click.Context, config_path: str, out_override: str | None, verbose: bool):
    """Mental-state pipeline over plot-segmented narrative corpora."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    ctx.obj = RunContext(load_config(config_path), out_override)


@_command()
def ingest(ctx: RunContext):
    """Parse source books into the normalized plot-per-line corpus."""
    cfg = ctx.config.corpus
    if not cfg.input:
        raise MissingUpstreamArtifact("corpus.input is not configured")
    corpus = ingest_corpus(cfg.input, format=cfg.format, alias_tables=ctx.alias_tables)
    written = serialize_corpus(corpus, ctx.corpus_dir)
    stats = corpus_stats(corpus)
    click.echo(
        f"ingested {len(corpus.books)} book(s): {stats.total_plots} plots, "
        f"{stats.total_conversations} conversations"
    )
    inputs = [Path(cfg.input)] if Path(cfg.input).is_file() else sorted(Path(cfg.input).glob("*"))
    inputs += ctx.alias_tables.values()
    ctx.write_manifest("ingest", inputs, written)


@_command()
@click.option("--replay", "replay_override", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--cache-dir", "cache_override", default=None, type=click.Path(file_okay=False))
def extract(ctx: RunContext, replay_override: str | None, cache_override: str | None):
    """Extract mental-state triples per character and plot."""
    corpus = ctx.load_corpus()
    extractions = extract_triples(
        sorted(corpus.books, key=lambda b: b.id),
        corpus.registries,
        ctx.gateway(replay_override=replay_override, cache_override=cache_override),
        model_id=ctx.model_id(),
        strict=ctx.config.triples.strict_perspective,
        template_override=ctx.config.triples.template,
    )
    outputs = write_extractions(extractions, ctx.triples_dir)
    total = sum(len(e.triples) for e in extractions.values())
    rejected = sum(e.rejected for e in extractions.values())
    click.echo(f"extracted {total} triples ({rejected} rejected)")
    ctx.write_manifest("extract", sorted(ctx.corpus_dir.glob("*.jsonl")), outputs)


@_command("build-kg")
def build_kg(ctx: RunContext):
    """Fold extracted triple batches into per-book temporal graphs."""
    corpus = ctx.load_corpus()
    if not ctx.triples_dir.is_dir():
        raise MissingUpstreamArtifact(f"no triples under {ctx.triples_dir}; run extract")
    merge = ctx.config.merge
    rules = ContradictionRules(
        antonym_pairs=[tuple(p) for p in merge.antonym_pairs], negation_cues=tuple(merge.negation_cues)
    )
    outputs: list[Path] = []
    inputs: list[Path] = []
    for book in sorted(corpus.books, key=lambda b: b.id):
        triples_path = ctx.triples_dir / f"{book.id}.jsonl"
        if not triples_path.is_file():
            raise MissingUpstreamArtifact(f"{triples_path} missing; run extract")
        inputs.append(triples_path)
        kg, changelog = build_graph(
            book.id,
            len(book.plots),
            read_jsonl(triples_path),
            MergeMode(merge.mode),
            rules=rules,
            jaccard_threshold=merge.jaccard_threshold,
        )
        outputs += [
            save_kg(kg, ctx.kg_dir / f"{book.id}.kg.jsonl"),
            write_jsonl(ctx.kg_dir / f"{book.id}.changelog.jsonl", changelog),
        ]
        click.echo(
            f"{book.id}: {len(kg.edges)} edges, {len(kg.supersede_links)} supersede links, "
            f"{len(kg.retirements)} retirements"
        )
    ctx.write_manifest("build-kg", inputs, outputs)


@_command()
@click.option("--replay", "replay_override", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--cache-dir", "cache_override", default=None, type=click.Path(file_okay=False))
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


@_command()
@click.option("--replay", "replay_override", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--cache-dir", "cache_override", default=None, type=click.Path(file_okay=False))
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


@_command("review-export")
@click.option("--kind", type=click.Choice(["questions", "triples"]), default="questions")
@click.option("--output", "output_path", default=None, type=click.Path(dir_okay=False))
def review_export(ctx: RunContext, kind: str, output_path: str | None):
    """Export a review CSV (sampled per config) for human verdicts."""
    seed = ctx.config.seed
    if kind == "questions":
        verified = [q for q in ctx.load_question_file() if q.state is QuestionState.LLM_VERIFIED]
        chosen = sample(verified, ctx.config.verification.question_sample_rate, seed, key=lambda q: q.id)
        target = Path(output_path or ctx.out_dir / "review.csv")
        count = export_review(chosen, target)
        inputs = [ctx.questions_path]
    else:
        records = load_kept_triples(ctx.triples_dir)
        chosen = sample(records, ctx.config.verification.triple_sample_rate, seed, key=lambda r: r["id"])
        target = Path(output_path or ctx.out_dir / "triples_review.csv")
        count = export_triple_review(chosen, target)
        inputs = sorted(ctx.triples_dir.glob("*.jsonl"))
    noun = "question" if kind == "questions" else "triple"
    click.echo(f"exported {count} {noun}(s) to {target}")
    ctx.write_manifest("review-export", inputs, [target])


@_command("review-import")
@click.argument("csv_path", type=click.Path(exists=True, dir_okay=False))
def review_import(ctx: RunContext, csv_path: str):
    """Apply human pass/fail verdicts from a review CSV."""
    questions = ctx.load_question_file()
    report = import_review(csv_path, {q.id: q for q in questions})
    save_questions(questions, ctx.questions_path)
    click.echo(
        f"applied {len(report.applied)} verdict(s), skipped {report.skipped_blank} blank row(s)"
    )
    for err in report.errors:
        click.echo(f"row error: {err}", err=True)
    ctx.write_manifest("review-import", [Path(csv_path)], [ctx.questions_path])
    if report.errors:
        sys.exit(1)


@_command("eval")
@click.option("--models", "models_override", default=None, help="Comma-separated model ids.")
@click.option("--context", "context_override", type=click.Choice(["current", "extended", "both"]), default=None)
@click.option("--triples", "triples_override", type=click.Choice(["on", "off", "both"]), default=None)
@click.option("--replay", "replay_override", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--cache-dir", "cache_override", default=None, type=click.Path(file_okay=False))
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
    chosen = conditions(context_override or ctx.config.eval.context, triples_override or ctx.config.eval.triples)
    kgs = ctx.load_kgs() if any(c.triples_enabled for c in chosen) else {}
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
        chosen,
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


@_command()
@click.option("--layout", type=click.Choice([l.value for l in ReportLayout]), default="plain")
def report(ctx: RunContext, layout: str):
    """Re-render the score table from stored predictions."""
    if not ctx.predictions_path.is_file():
        raise MissingUpstreamArtifact(f"{ctx.predictions_path} missing; run eval")
    questions = {q.id: q for q in ctx.load_question_file()}
    predictions = load_predictions(ctx.predictions_path)
    table = score(predictions, questions)
    rendered = render_report(table, ReportLayout(layout))
    suffix = {"plain": "txt", "markdown": "md", "csv": "csv"}[layout]
    target = ctx.out_dir / f"report.{suffix}"
    target.write_text(rendered, encoding="utf-8")
    click.echo(rendered, nl=False)
    ctx.write_manifest("report", [ctx.predictions_path, ctx.questions_path], [target])


@_command("emit-ft")
@click.option("--allow-unverified", is_flag=True, help="Waive the human-verification gate.")
def emit_ft(ctx: RunContext, allow_unverified: bool):
    """Emit supervised fine-tune JSONL files with the book-level OOD split."""
    corpus = ctx.load_corpus()
    kgs = ctx.load_kgs()
    questions = ctx.load_question_file()
    spec = SplitSpec(ood_book_titles=frozenset(ctx.config.ft.ood_books))
    ft_dir = ctx.out_dir / "ft"
    written = emit_training_files(
        corpus,
        kgs,
        questions,
        spec,
        ctx.config.ft.with_triples,
        ft_dir,
        waive_verification=allow_unverified or not ctx.config.ft.require_human_verified,
    )
    for target, count in written:
        click.echo(f"{target}: {count} example(s)")
    outputs = [target for target, _ in written]
    outputs.append(write_split_manifest(corpus, spec, ft_dir / "split_manifest.json"))
    ctx.write_manifest(
        "emit-ft",
        [ctx.questions_path] + sorted(ctx.kg_dir.glob("*.kg.jsonl")),
        outputs,
    )


@_command()
def stats(ctx: RunContext):
    """Corpus and question-set statistics."""
    report = corpus_stats(ctx.load_corpus())
    payload = {"corpus": corpus_stats_to_record(report)}
    click.echo(f"{'book':30} {'plots':>6} {'convs':>6} {'avg speakers':>13}")
    for b in report.per_book:
        click.echo(f"{b.title[:30]:30} {b.plot_count:>6} {b.conversation_count:>6} {b.avg_speakers:>13}")
    click.echo(f"{'TOTAL':30} {report.total_plots:>6} {report.total_conversations:>6} {report.avg_speakers:>13}")
    inputs = sorted(ctx.corpus_dir.glob("*.jsonl"))
    if ctx.questions_path.is_file():
        qstats = dataset_stats(ctx.load_question_file())
        payload["questions"] = dataset_stats_to_record(qstats)
        click.echo(
            f"questions: {qstats.questions} (correct {qstats.correct_answers}, "
            f"distractors {qstats.distractors})"
        )
        inputs.append(ctx.questions_path)
    ctx.write_manifest("stats", inputs, [write_json(ctx.out_dir / "stats.json", payload)])


if __name__ == "__main__":
    main()
