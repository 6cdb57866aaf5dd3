"""Command line pipeline: ingest -> extract -> build-kg -> genqa -> verify
-> eval -> report, plus review round-trip, fine-tune emission, and stats.

Every subcommand writes a run manifest (input hashes, config hash, versions)
so a run under the replay backend can be reproduced byte for byte. Stage
settings come only from the config, whose digest the manifest records; an
option only picks where output goes or which file is written. Exit codes: 0
success, 1 user, usage or config error, 2 backend failure.

Each stage runs in a process of its own, so start-up is paid per stage: the
command table reads a stage line (global options, a command and its options,
each value a token of its own) itself, and leaves any other line to the
standard library's argparse, which alone prints help, the version and usage
errors, so only those load argparse, gettext and locale; a command imports
the pipeline modules it runs inside its body, and at exit the collector's
passes over objects that die with the process are skipped. No stage loads
`dataclasses`, `inspect`, `decimal`, `fractions`, `concurrent.futures` or
`csv` (but the ones that read or write a CSV file), and `logging` is loaded
only by a stage that emits a record.
"""

from __future__ import annotations

import atexit
import gc
import hashlib
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .config import PipelineConfig, load_config
from .errors import ConfigInvalid, CorruptGraphFile, GatewayError, MissingUpstreamArtifact, TomtraceError
from .util import (
    INFO, WARNING, decode_text, defer_basic_config, encode_record, sample, sha256_file, write_atomic, write_json,
    write_jsonl,
)

if TYPE_CHECKING:
    from .corpus import Corpus
    from .llmgate import Gateway
    from .tkg import TemporalKG
    from .triples import TemplateOverride

# Finalization would run full collections over objects that die with the process
# anyway. Frozen only at exit: while a command runs, the collector works as before.
atexit.register(gc.freeze)

# Report layouts (evalharness.ReportLayout values) and the suffix of each one's file.
REPORT_SUFFIXES = {"plain": "txt", "markdown": "md", "csv": "csv"}


def _echo(text: str, *, err: bool = False, end: str = "\n") -> None:
    """Write `text` to stdout, or stderr if `err`, and flush, so a pipe gets lines in the order written."""
    print(text, end=end, file=sys.stderr if err else None, flush=True)


class RunContext:
    def __init__(self, config: PipelineConfig, out_override: str | None):
        self.config = config
        self.out_dir = Path(out_override or config.out_dir)
        # Manifest key -> SHA-256 of each file the stage has read, filled by read().
        self.inputs: dict[str, str] = {}
        self._key_bases = (self.out_dir.resolve(), Path(config.source_path).parent.resolve())
        # artifact layout
        self.corpus_dir = self.out_dir / "corpus"
        self.triples_dir = self.out_dir / "triples"
        self.kg_dir = self.out_dir / "kg"
        self.questions_path = self.out_dir / "questions.jsonl"
        self.verdicts_path = self.out_dir / "verdicts.jsonl"
        self.predictions_path = self.out_dir / "predictions.jsonl"
        self.cache_dir = Path(config.cache_dir) if config.cache_dir else self.out_dir / "cache"
        self.alias_tables = {k: Path(v) for k, v in config.corpus.alias_tables.items() if v}

    def _key(self, path: Path) -> str:
        """A file's manifest key: relative to out_dir, else to the config's directory, else its name."""
        resolved = path.resolve()
        for base in self._key_bases:
            if resolved.is_relative_to(base):
                return resolved.relative_to(base).as_posix()
        return path.name

    def read(self, path: Path | str) -> Path:
        """`path`, recorded as an input of the stage with the digest of its bytes now.

        Call it just before the file is opened, so a stage that later replaces
        its own input still records what it read. A file that cannot be read
        is not recorded: its reader reports the failure.
        """
        path = Path(path)
        key = self._key(path)
        if key not in self.inputs:
            try:
                self.inputs[key] = sha256_file(path)
            except OSError:
                pass
        return path

    def template(self, override: str | None) -> TemplateOverride | None:
        """A configured prompt-template override, read once; None keeps the packaged one.

        The manifest records the digest of the bytes read here, and every
        prompt of the stage comes from them, even if the file changes mid-stage.
        """
        if not override:
            return None
        from .triples import TemplateOverride

        path = Path(override)
        try:
            data = path.read_bytes()
            text = decode_text(data)
        except (OSError, UnicodeError) as exc:
            raise ConfigInvalid(f"cannot read template {override}: {exc}") from exc
        self.inputs.setdefault(self._key(path), hashlib.sha256(data).hexdigest())
        return TemplateOverride(override, text)

    def load_corpus(self) -> Corpus:
        from .corpus import ingest_corpus

        if not self.corpus_dir.is_dir() or not any(self.corpus_dir.glob("*.jsonl")):
            raise MissingUpstreamArtifact(f"no normalized corpus under {self.corpus_dir}; run ingest")
        return ingest_corpus(self.corpus_dir, format="jsonl", alias_tables=self.alias_tables, read=self.read)

    def load_kgs(self, corpus: Corpus) -> dict[str, TemporalKG]:
        """Every graph under kg/ by book id, each checked against the corpus book its file is named for.

        A graph file's integrity hash covers its records, not its header: a
        header whose book id is not its file's, or whose plot count is not its
        corpus book's, raises CorruptGraphFile before any query reads the graph.
        """
        from .tkg import load_kg

        paths = sorted(self.kg_dir.glob("*.kg.jsonl"))
        if not paths:
            raise MissingUpstreamArtifact(f"no graphs under {self.kg_dir}; run build-kg")
        kgs = {}
        for path in paths:
            kg = load_kg(self.read(path))
            book_id = path.name.removesuffix(".kg.jsonl")
            if kg.book_id != book_id:
                raise CorruptGraphFile(f"{path}: header gives book {kg.book_id!r}, not {book_id!r}")
            book = corpus.book(book_id)
            if book is not None and kg.plot_count != len(book.plots):
                raise CorruptGraphFile(
                    f"{path}: header gives {kg.plot_count} plot(s), but book {book_id!r} has {len(book.plots)}"
                )
            kgs[book_id] = kg
        return kgs

    def load_question_file(self) -> list:
        from .qagen import load_questions

        if not self.questions_path.is_file():
            raise MissingUpstreamArtifact(f"{self.questions_path} missing; run genqa")
        return load_questions(self.read(self.questions_path))

    def gateway(self) -> Gateway:
        from .llmgate import Gateway, ReplayScript, ResponseCache

        replay = None
        settings = self.config.replay
        if settings.script:
            replay = ReplayScript.load(
                self.read(settings.script),
                default_policy=settings.default_policy,
                default_text=settings.default_text,
            )
        return Gateway(self.config.backend, replay=replay, cache=ResponseCache(self.cache_dir))

    def model_id(self) -> str:
        return self.config.backend.model or "default-model"

    def write_manifest(self, command: str, outputs: list[Path]) -> Path:
        """Record the config as parsed, the files read through read() and the `outputs`, each by digest."""
        manifest = {
            "command": command,
            "config_sha256": self.config.config_sha256 or None,
            "inputs": self.inputs,
            "outputs": {self._key(p): sha256_file(p) for p in outputs if p.is_file()},
            "package_version": __version__,
            "python_version": "%d.%d.%d" % sys.version_info[:3],
        }
        return write_json(self.out_dir / "manifests" / f"{command}.json", manifest)


# An option's flags (none for a positional argument) and its other `add_argument` keywords.
Option = tuple[tuple[str, ...], dict]


def _option(*flags: str, **keywords) -> Option:
    return flags, keywords


def _add_options(parser, params: dict[str, Option]) -> None:
    for dest, (flags, keywords) in params.items():
        if flags:
            parser.add_argument(*flags, dest=dest, **keywords)
        else:
            parser.add_argument(dest, **keywords)


def _read_options(args: list[str], start: int, params: dict[str, Option], options: dict) -> int | None:
    """Read the options of `params` from `args[start:]` into `options`, as argparse would store them.

    Each flag is a token of its own. A flag with `action="store_true"` sets
    True, any other flag of an option without an action takes the next token
    as its value, and each other token fills the next positional argument.
    Options not given get their defaults. Returns the index of the first token
    left over once every positional argument is filled, or None for a line
    left to argparse: one with a token that starts with "-" and is not a flag
    (`--help`, `--version`, `--flag=value`, `-cFILE`, `--`), a value that
    starts with "-" or is not one of its option's choices, or a missing
    value, required option or positional argument.
    """
    flags: dict[str, tuple[str, dict]] = {}
    positionals: list[str] = []
    required = set()
    for dest, (names, keywords) in params.items():
        action = keywords.get("action")
        if not names:
            positionals.append(dest)
        elif action in (None, "store_true"):  # other actions, such as --version, exit in argparse
            flags.update(dict.fromkeys(names, (dest, keywords)))
            options[dest] = False if action else keywords.get("default")
            if keywords.get("required"):
                required.add(dest)
    position = start
    while position < len(args):
        token = args[position]
        if token in flags:
            dest, keywords = flags[token]
            required.discard(dest)
            if keywords.get("action"):
                options[dest] = True
                position += 1
                continue
            if position + 1 == len(args):
                return None
            value = args[position + 1]
            choices = keywords.get("choices")
            if value.startswith("-") or (choices is not None and value not in choices):
                return None
            options[dest] = value
            position += 2
        elif token.startswith("-"):
            return None
        elif positionals:
            options[positionals.pop(0)] = token
            position += 1
        else:
            break
    return None if required or positionals else position


class Command:
    """A subcommand: `callback(ctx, **options)` and, by name, the options it takes."""

    def __init__(self, callback, params: dict[str, Option]):
        self.callback = callback
        self.params = params


class CommandTable:
    """The command line: the global options in `params`, then one of `commands` with its own options.

    Calling it parses `args` (sys.argv[1:] by default), runs the command's
    current `callback` with a RunContext, and ends in SystemExit with the exit
    code, as a console script's entry point does: gateway failures exit 2;
    other library errors, usage errors, an interrupt and a closed stdout 1.
    """

    def __init__(self, **params: Option):
        self.params = params
        self.commands: dict[str, Command] = {}

    def command(self, name: str | None = None, **params: Option):
        """Register a function taking the RunContext and `params` as the command `name` (default its own)."""

        def register(fn):
            self.commands[name or fn.__name__] = Command(fn, params)
            return fn

        return register

    def _parser(self, prog: str):
        """The argparse parser of the global options and of every command.

        It is the one definition of help, `--version` and every usage message,
        and the reference that `_quick_parse` is tested against. Only a line
        the quick parse leaves to it loads argparse, and with it gettext.
        """
        import argparse

        class _Parser(argparse.ArgumentParser):
            """An argument parser that takes no abbreviated option, offers `--help`, and exits 1 on a usage error."""

            def __init__(self, **kwargs):
                super().__init__(allow_abbrev=False, add_help=False, **kwargs)
                self.add_argument("--help", action="help", help="Show this message and exit.")

            def error(self, message):
                self.print_usage(sys.stderr)
                self.exit(1, f"{self.prog}: error: {message}\n")

        parser = _Parser(prog=prog, description="Mental-state pipeline over plot-segmented narrative corpora.")
        _add_options(parser, self.params)
        choices = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
        for name, command in self.commands.items():
            summary = (command.callback.__doc__ or "").strip()
            _add_options(choices.add_parser(name, help=summary, description=summary), command.params)
        return parser

    def _quick_parse(self, args: list[str]) -> dict | None:
        """What `_parser` makes of a plain stage line `args`, read without argparse; None for any other line.

        A plain line is the global options, then a command, then the command's
        own options and positional argument, each read by `_read_options`.
        """
        options: dict = {}
        position = _read_options(args, 0, self.params, options)
        if position is None or position == len(args) or args[position] not in self.commands:
            return None
        options["command"] = args[position]
        if _read_options(args, position + 1, self.commands[args[position]].params, options) != len(args):
            return None
        return options

    def __call__(self, args: list[str] | None = None, prog_name: str | None = None):
        args = sys.argv[1:] if args is None else args
        options = self._quick_parse(args)
        if options is None:
            options = vars(self._parser(prog_name or "tomtrace").parse_args(args))
        command = self.commands[options.pop("command")]
        defer_basic_config(  # logging is loaded at the first record a stage emits, if any
            level=INFO if options.pop("verbose") else WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        try:
            ctx = RunContext(load_config(options.pop("config_path")), options.pop("out_override"))
            command.callback(ctx, **options)
        except GatewayError as exc:
            _echo(f"backend error: {exc}", err=True)
            sys.exit(2)
        except TomtraceError as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(1)
        except KeyboardInterrupt:
            _echo("Aborted!", err=True)
            sys.exit(1)
        except BrokenPipeError:
            # The reader of stdout left early, as `| head` does. Point stdout at
            # /dev/null so the flush at exit cannot fail again, and exit quietly.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        sys.exit(0)


main = CommandTable(
    config_path=_option("-c", "--config", required=True, metavar="FILE"),
    out_override=_option("--out", metavar="DIR", help="Override the configured output directory."),
    verbose=_option("-v", "--verbose", action="store_true", help="Chatty logging."),
    version=_option("--version", action="version", version=f"%(prog)s, version {__version__}",
                    help="Show the version and exit."),
)


@main.command()
def ingest(ctx: RunContext):
    """Parse source books into the normalized plot-per-line corpus."""
    from .corpus import corpus_stats, ingest_corpus, serialize_corpus

    cfg = ctx.config.corpus
    if not cfg.input:
        raise MissingUpstreamArtifact("corpus.input is not configured")
    corpus = ingest_corpus(cfg.input, format=cfg.format, alias_tables=ctx.alias_tables, read=ctx.read)
    written = serialize_corpus(corpus, ctx.corpus_dir)
    stats = corpus_stats(corpus)
    _echo(
        f"ingested {len(corpus.books)} book(s): {stats.total_plots} plots, "
        f"{stats.total_conversations} conversations"
    )
    ctx.write_manifest("ingest", written)


@main.command()
def extract(ctx: RunContext):
    """Extract mental-state triples per character and plot."""
    from .triples import extract_triples, write_extractions

    corpus = ctx.load_corpus()
    extractions = extract_triples(
        corpus.books,
        corpus.registries,
        ctx.gateway(),
        model_id=ctx.model_id(),
        strict=ctx.config.triples.strict_perspective,
        template_override=ctx.template(ctx.config.triples.template),
    )
    outputs = write_extractions(extractions, ctx.triples_dir)
    total = sum(len(e.triples) for e in extractions.values())
    rejected = sum(e.rejected for e in extractions.values())
    _echo(f"extracted {total} triples ({rejected} rejected)")
    ctx.write_manifest("extract", outputs)


@main.command("build-kg")
def build_kg(ctx: RunContext):
    """Fold extracted triple batches into per-book temporal graphs."""
    from .tkg import build_graph, save_kg
    from .triples import load_triples

    corpus = ctx.load_corpus()
    if not ctx.triples_dir.is_dir():
        raise MissingUpstreamArtifact(f"no triples under {ctx.triples_dir}; run extract")
    outputs: list[Path] = []
    for book in corpus.books:
        triples_path = ctx.triples_dir / f"{book.id}.jsonl"
        if not triples_path.is_file():
            raise MissingUpstreamArtifact(f"{triples_path} missing; run extract")
        kg, changelog = build_graph(
            book.id,
            len(book.plots),
            load_triples(ctx.read(triples_path), len(book.plots)),
            ctx.config.merge,
        )
        outputs += [
            save_kg(kg, ctx.kg_dir / f"{book.id}.kg.jsonl"),
            write_jsonl(ctx.kg_dir / f"{book.id}.changelog.jsonl", changelog),
        ]
        _echo(
            f"{book.id}: {len(kg.edges)} edges, {len(kg.supersede_links)} supersede links, "
            f"{len(kg.retirements)} retirements"
        )
    ctx.write_manifest("build-kg", outputs)


@main.command()
def genqa(ctx: RunContext):
    """Generate one question per dimension per speaking character per plot."""
    from .qagen import generate_questions, save_questions

    corpus = ctx.load_corpus()
    questions = generate_questions(
        corpus,
        ctx.load_kgs(corpus),
        ctx.gateway(),
        model_id=ctx.model_id(),
        template_override=ctx.template(ctx.config.qagen.template),
        shuffle=ctx.config.qagen.shuffle_options,
        seed=ctx.config.seed,
    )
    path = save_questions(questions, ctx.questions_path)
    _echo(f"generated {len(questions)} questions")
    ctx.write_manifest("genqa", [path])


@main.command()
def verify(ctx: RunContext):
    """Model-verify generated questions, regenerating rejects up to the budget."""
    from .qagen import (
        QuestionState, carry_verdicts, first_pass_stats, load_verdicts, save_questions, save_verdicts,
        verify_questions,
    )

    questions = ctx.load_question_file()
    redone = {q.id for q in questions if q.state is QuestionState.GENERATED}
    final, verdicts = verify_questions(
        questions,
        ctx.gateway(),
        model_id=ctx.model_id(),
        max_attempts=ctx.config.verification.max_attempts,
        template_override=ctx.template(ctx.config.verification.template),
        shuffle=ctx.config.qagen.shuffle_options,
        seed=ctx.config.seed,
    )
    if len(redone) < len(final):
        earlier = load_verdicts(ctx.read(ctx.verdicts_path)) if ctx.verdicts_path.is_file() else []
        verdicts = carry_verdicts(final, redone, verdicts, earlier)
    # Verdicts first: a rerun verifies only questions still in the generated
    # state, so questions.jsonl is replaced last.
    save_verdicts(verdicts, ctx.verdicts_path)
    save_questions(final, ctx.questions_path)
    report = first_pass_stats(verdicts)
    verified = sum(1 for q in final if q.state is QuestionState.LLM_VERIFIED)
    _echo(
        f"verified {verified}/{len(final)} questions; first-pass rate {report.rate} "
        f"({report.first_attempt_passes}/{report.verified_questions})"
    )
    ctx.write_manifest("verify", [ctx.questions_path, ctx.verdicts_path])


@main.command(
    "review-export",
    kind=_option("--kind", choices=["questions", "triples"], default="questions"),
    output_path=_option("--output", metavar="FILE"),
)
def review_export(ctx: RunContext, kind: str, output_path: str | None):
    """Export a review CSV (sampled per config) for human verdicts."""
    from .qagen import QuestionState, export_review
    from .triples import export_triple_review, load_kept_triples

    seed = ctx.config.seed
    if kind == "questions":
        verified = [q for q in ctx.load_question_file() if q.state is QuestionState.LLM_VERIFIED]
        chosen = sample(verified, ctx.config.verification.question_sample_rate, seed, key=lambda q: q.id)
        target = Path(output_path or ctx.out_dir / "review.csv")
        count = export_review(chosen, target)
    else:
        records = load_kept_triples(ctx.triples_dir, read=ctx.read)
        chosen = sample(records, ctx.config.verification.triple_sample_rate, seed, key=lambda r: r["id"])
        target = Path(output_path or ctx.out_dir / "triples_review.csv")
        count = export_triple_review(chosen, target)
    noun = "question" if kind == "questions" else "triple"
    _echo(f"exported {count} {noun}(s) to {target}")
    ctx.write_manifest("review-export", [target])


@main.command("review-import", csv_path=_option(metavar="CSV"))
def review_import(ctx: RunContext, csv_path: str):
    """Apply human pass/fail verdicts from a review CSV."""
    from .qagen import import_review, save_questions

    questions = ctx.load_question_file()
    report = import_review(ctx.read(csv_path), {q.id: q for q in questions})
    save_questions(questions, ctx.questions_path)
    _echo(
        f"applied {len(report.applied)} verdict(s), skipped {report.skipped_blank} blank row(s)"
    )
    for err in report.errors:
        _echo(f"row error: {err}", err=True)
    ctx.write_manifest("review-import", [ctx.questions_path])
    if report.errors:
        sys.exit(1)


@main.command("eval")
def eval_cmd(ctx: RunContext):
    """Answer every question under each model and condition, then score."""
    from .evalharness import ReportLayout, conditions, render_report, run_eval

    corpus = ctx.load_corpus()
    questions = ctx.load_question_file()
    settings = ctx.config.eval
    chosen = conditions(settings.context, settings.triples)
    kgs = ctx.load_kgs(corpus) if any(c.triples_enabled for c in chosen) else {}
    table, predictions_path = run_eval(
        corpus,
        kgs,
        questions,
        settings.models or [ctx.model_id()],
        chosen,
        ctx.gateway(),
        ctx.predictions_path,
        answer_style=settings.answer_style,
        template_override=ctx.template(settings.template),
    )
    rendered = render_report(table, ReportLayout.PLAIN)
    report_path = ctx.out_dir / "report.txt"
    write_atomic(report_path, [rendered.encode("utf-8")])
    _echo(rendered, end="")
    ctx.write_manifest("eval", [predictions_path, report_path])


@main.command(layout=_option("--layout", choices=list(REPORT_SUFFIXES), default="plain"))
def report(ctx: RunContext, layout: str):
    """Re-render the score table from stored predictions."""
    from .evalharness import ReportLayout, load_predictions, render_report, score

    if not ctx.predictions_path.is_file():
        raise MissingUpstreamArtifact(f"{ctx.predictions_path} missing; run eval")
    questions = {q.id: q for q in ctx.load_question_file()}
    predictions = load_predictions(ctx.read(ctx.predictions_path))
    table = score(predictions, questions)
    rendered = render_report(table, ReportLayout(layout))
    target = ctx.out_dir / f"report.{REPORT_SUFFIXES[layout]}"
    write_atomic(target, [rendered.encode("utf-8")])
    _echo(rendered, end="")
    ctx.write_manifest("report", [target])


@main.command("emit-ft")
def emit_ft(ctx: RunContext):
    """Emit supervised fine-tune JSONL files with the book-level OOD split."""
    from .ftemit import book_splits, emit_training_files

    corpus = ctx.load_corpus()
    kgs = ctx.load_kgs(corpus)
    questions = ctx.load_question_file()
    splits = book_splits(corpus, ctx.config.ft.ood_books)
    ft_dir = ctx.out_dir / "ft"
    written = emit_training_files(corpus, kgs, questions, splits, ctx.config.ft, ft_dir)
    for target, count in written:
        _echo(f"{target}: {count} example(s)")
    outputs = [target for target, _ in written]
    outputs.append(write_json(ft_dir / "split_manifest.json", splits))
    ctx.write_manifest("emit-ft", outputs)


@main.command()
def stats(ctx: RunContext):
    """Corpus and question-set statistics."""
    from .corpus import StatsReport, corpus_stats

    report = corpus_stats(ctx.load_corpus())
    payload = {"corpus": encode_record(report, StatsReport.FIELDS)}
    _echo(f"{'book':30} {'plots':>6} {'convs':>6} {'avg speakers':>13}")
    for b in report.books:
        _echo(f"{b.title[:30]:30} {b.plots:>6} {b.conversations:>6} {b.avg_speakers:>13}")
    _echo(f"{'TOTAL':30} {report.total_plots:>6} {report.total_conversations:>6} {report.avg_speakers:>13}")
    if ctx.questions_path.is_file():
        from .qagen import QuestionSetStats, dataset_stats

        qstats = dataset_stats(ctx.load_question_file())
        payload["questions"] = encode_record(qstats, QuestionSetStats.FIELDS)
        _echo(
            f"questions: {qstats.questions} (correct {qstats.correct_answers}, "
            f"distractors {qstats.distractors})"
        )
    ctx.write_manifest("stats", [write_json(ctx.out_dir / "stats.json", payload)])


if __name__ == "__main__":
    main()
