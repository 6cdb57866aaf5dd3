"""Narrative corpus model: books split into plots, plots into conversations.

Dialogue turns use a tripartite convention: square brackets mark inner
thoughts, parentheses mark physical actions, everything else is speech.
Parsing strips the delimiters; rendering puts them back, so a turn can be
reconstructed modulo surrounding whitespace.
"""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path
from typing import Callable

from .errors import (
    AmbiguousAlias,
    DuplicateBookId,
    DuplicatePlotIndex,
    MalformedRecord,
    NoSpeaker,
    UnknownBook,
    UnreadableSource,
)
from .util import LazyLogger, clean_name, format_half_up, normalize_name, read_jsonl, slugify, write_jsonl

logger = LazyLogger(__name__)

# Pseudo-speaker used by some sources for scene description lines.
ENVIRONMENT_SPEAKER = "environment"


class SegmentKind(Enum):
    SPEECH = "speech"
    ACTION = "action"
    THOUGHT = "thought"


# The record types are plain classes with slots: a dataclass compiles its
# methods when its module is imported, which every stage process pays again.
class UtteranceSegment:
    __slots__ = ("kind", "text")

    def __init__(self, kind: SegmentKind, text: str) -> None:
        self.kind = kind
        self.text = text  # delimiters already stripped


class Turn:
    __slots__ = ("speaker", "segments")

    def __init__(self, speaker: str, segments: list[UtteranceSegment]) -> None:
        self.speaker = speaker
        self.segments = segments


class Conversation:
    __slots__ = ("environment", "cast", "turns")

    def __init__(self, environment: str, cast: list[str], turns: list[Turn]) -> None:
        self.environment = environment
        self.cast = cast
        self.turns = turns


class Plot:
    __slots__ = ("book_id", "index", "summary", "scenario", "conversations")

    def __init__(
        self, book_id: str, index: int, summary: str, scenario: str, conversations: list[Conversation]
    ) -> None:
        self.book_id = book_id
        self.index = index  # 1-based position in the book
        self.summary = summary
        self.scenario = scenario
        self.conversations = conversations

    def speakers(self) -> list[str]:
        return sorted({t.speaker for conv in self.conversations for t in conv.turns})

    def conversations_of(self, character: str) -> list[Conversation]:
        """The conversations in which the character speaks."""
        wanted = normalize_name(character)
        return [
            conv
            for conv in self.conversations
            if any(normalize_name(t.speaker) == wanted for t in conv.turns)
        ]


class Book:
    __slots__ = ("id", "title", "plots")

    def __init__(self, id: str, title: str, plots: list[Plot]) -> None:
        self.id = id
        self.title = title
        self.plots = plots

    def speakers(self) -> list[str]:
        return sorted({name for plot in self.plots for name in plot.speakers()})


class Corpus:
    """Books and each book's character registry. `ingest_corpus` gives the books in book id order."""

    __slots__ = ("books", "registries")

    def __init__(self, books: list[Book], registries: dict[str, CharacterRegistry] | None = None) -> None:
        self.books = books
        self.registries = {} if registries is None else registries

    def book(self, book_id: str) -> Book | None:
        for b in self.books:
            if b.id == book_id:
                return b
        return None


class CharacterRegistry:
    """Alias to canonical-name mapping, scoped to one book.

    Matching is case-insensitive and whitespace-normalized. Unknown names
    self-register as new canonical entries; a name that matches aliases of
    several canonical entries is an error, never a silent pick.
    """

    def __init__(self) -> None:
        self._aliases: dict[str, set[str]] = {}
        # normalize_name(alias) -> the canonical names that alias belongs to, for resolve
        self._canonicals: dict[str, set[str]] = {}

    def add(self, canonical: str, aliases: tuple[str, ...] | list[str] = ()) -> None:
        canonical = clean_name(canonical)
        bucket = self._aliases.setdefault(canonical, set())
        for alias in (canonical, *aliases):
            alias = clean_name(alias)
            bucket.add(alias)
            self._canonicals.setdefault(normalize_name(alias), set()).add(canonical)

    def known_names(self) -> set[str]:
        out: set[str] = set()
        for aliases in self._aliases.values():
            out.update(aliases)
        return out

    def resolve(self, name: str) -> str:
        wanted = normalize_name(name)
        if not wanted:
            raise NoSpeaker("empty character name")
        hits = self._canonicals.get(wanted, ())
        if len(hits) > 1:
            raise AmbiguousAlias(f"{name!r} matches {sorted(hits)}")
        if hits:
            return next(iter(hits))
        canonical = clean_name(name)
        self.add(canonical)
        return canonical


def load_alias_table(path: Path | str) -> CharacterRegistry:
    """Read a stanza-per-character alias file.

    Each stanza starts with the canonical name; following non-blank lines
    are aliases. Stanzas are separated by blank lines.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise UnreadableSource(f"cannot read alias table {path}: {exc}") from exc
    registry = CharacterRegistry()
    stanza: list[str] = []
    for raw in text.splitlines() + [""]:
        line = raw.strip()
        if line:
            stanza.append(line)
            continue
        if stanza:
            registry.add(stanza[0], stanza[1:])
            stanza = []
    return registry


# --- turn parsing -----------------------------------------------------------

_DELIMS = {
    "[": ("]", SegmentKind.THOUGHT),
    "(": (")", SegmentKind.ACTION),
}


def segment_utterance(text: str, *, origin: str = "") -> list[UtteranceSegment]:
    """Split an utterance into speech, action, and thought spans.

    Nesting is not supported; an unclosed delimiter degrades the rest of
    the line to speech with a warning.
    """
    segments: list[UtteranceSegment] = []
    buf: list[str] = []

    def flush() -> None:
        speech = "".join(buf).strip()
        buf.clear()
        if speech:
            segments.append(UtteranceSegment(SegmentKind.SPEECH, speech))

    i = 0
    while i < len(text):
        ch = text[i]
        if ch in _DELIMS:
            closer, kind = _DELIMS[ch]
            end = text.find(closer, i + 1)
            if end == -1:
                logger.warning(
                    "unbalanced %r in %s; rest of line treated as speech", ch, origin or "utterance"
                )
                buf.append(text[i:])
                break
            flush()
            inner = text[i + 1 : end].strip()
            if inner:
                segments.append(UtteranceSegment(kind, inner))
            i = end + 1
        else:
            buf.append(ch)
            i += 1
    flush()
    return segments


def parse_turn(raw: str) -> Turn:
    """Parse one 'Speaker: utterance' line into a segmented turn."""
    line = raw.strip()
    if len(line) >= 2 and line[0] == '"' and line[-1] == '"':
        line = line[1:-1].strip()
    sep = line.find(":")
    if sep <= 0:
        raise NoSpeaker(f"no speaker prefix in {raw!r}")
    speaker = clean_name(line[:sep])
    if not speaker:
        raise NoSpeaker(f"empty speaker in {raw!r}")
    segments = segment_utterance(line[sep + 1 :], origin=speaker)
    if not segments:
        raise MalformedRecord(raw.strip(), "empty utterance")
    return Turn(speaker=speaker, segments=segments)


def render_segment(segment: UtteranceSegment) -> str:
    if segment.kind is SegmentKind.ACTION:
        return f"({segment.text})"
    if segment.kind is SegmentKind.THOUGHT:
        return f"[{segment.text}]"
    return segment.text


def reconstruct_utterance(turn: Turn) -> str:
    """Re-render a turn's segments with their original delimiters."""
    return " ".join(render_segment(s) for s in turn.segments)


def render_turn(turn: Turn) -> str:
    return f"{turn.speaker}: {reconstruct_utterance(turn)}"


# --- ingestion ---------------------------------------------------------------

# Logical field -> candidate source keys, tried in order; sources disagree on naming.
DEFAULT_ADAPTER: dict[str, list[str]] = {
    "title": ["title", "book_title", "book"],
    "plots": ["plots", "chapters"],
    "summary": ["summary", "plot_summary"],
    "scenario": ["scenario", "current_scenario"],
    "conversations": ["conversations"],
    "environment": ["environment", "setting", "scene"],
    "cast": ["key_characters", "characters", "cast", "speakers"],
    "dialogues": ["dialogues", "dialogue", "lines", "utterances"],
    "dialogue_speaker": ["speaker", "character", "name", "role"],
    "dialogue_text": ["message", "text", "content", "utterance"],
}


def _pick(record: dict, logical: str, default=None):
    for key in DEFAULT_ADAPTER[logical]:
        if key in record:
            return record[key]
    return default


def ingest_corpus(
    path: Path | str,
    format: str = "coser",
    *,
    alias_tables: dict[str, Path | str] | None = None,
    read: Callable[[Path], Path] = Path,
) -> Corpus:
    """Load one book file or a directory of book files, and give the books in book id order.

    `format` is either "coser" (nested per-book JSON) or "jsonl" (the
    normalized plot-per-line layout this package writes). Each book file and
    alias table goes through `read` before it is opened; the CLI passes one
    that records the file as an input of the stage. An alias table keyed by
    no book's id raises UnknownBook.
    """
    path = Path(path)
    alias_tables = alias_tables or {}
    if not path.exists():
        raise UnreadableSource(f"no such path: {path}")
    if path.is_dir():
        suffix = "*.jsonl" if format == "jsonl" else "*.json"
        files = sorted(path.glob(suffix))
        if not files:
            raise UnreadableSource(f"no {suffix} files under {path}")
    else:
        files = [path]

    books: list[Book] = []
    registries: dict[str, CharacterRegistry] = {}
    sources: dict[str, Path] = {}  # book id -> the file that gave it
    for file in files:
        book = _parse_normalized_book(read(file)) if format == "jsonl" else _parse_coser_book(read(file))
        first = sources.setdefault(book.id, file)
        if first != file:
            raise DuplicateBookId(f"{first} and {file} both give book id {book.id!r}")
        registry = CharacterRegistry()
        if book.id in alias_tables:
            registry = load_alias_table(read(alias_tables[book.id]))
        _canonicalize_book(book, registry)
        books.append(book)
        registries[book.id] = registry
    unknown = sorted(alias_tables.keys() - sources.keys())
    if unknown:
        raise UnknownBook(f"alias tables name books not in corpus: {unknown}")
    books.sort(key=lambda b: b.id)
    return Corpus(books=books, registries=registries)


def _canonicalize_book(book: Book, registry: CharacterRegistry) -> None:
    # Speakers and casts are rewritten to canonical names so every later
    # stage can compare names directly.
    for plot in book.plots:
        for conv in plot.conversations:
            for turn in conv.turns:
                turn.speaker = registry.resolve(turn.speaker)
            resolved = [registry.resolve(name) for name in conv.cast]
            for turn in conv.turns:
                if turn.speaker not in resolved:
                    resolved.append(turn.speaker)
            conv.cast = resolved


def _parse_coser_book(file: Path) -> Book:
    try:
        data = json.loads(file.read_text(encoding="utf-8"))
    except (OSError, UnicodeError, json.JSONDecodeError) as exc:
        raise MalformedRecord(str(file), f"unreadable JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedRecord(str(file), "top-level value is not an object")
    title = _pick(data, "title")
    if not title:
        raise MalformedRecord(str(file), "missing book title")
    book_id = slugify(str(title))
    raw_plots = _pick(data, "plots")
    if not isinstance(raw_plots, list) or not raw_plots:
        raise MalformedRecord(str(file), "book has no plots")

    plots: list[Plot] = []
    for pos, raw_plot in enumerate(raw_plots, start=1):
        record_id = f"{book_id}:plot[{pos}]"
        if not isinstance(raw_plot, dict):
            raise MalformedRecord(record_id, "plot record is not an object")
        summary = str(_pick(raw_plot, "summary", "") or "").strip()
        if not summary:
            raise MalformedRecord(record_id, "empty plot summary")
        scenario = str(_pick(raw_plot, "scenario", "") or "").strip()
        raw_convs = _pick(raw_plot, "conversations", []) or []
        conversations = [
            _parse_conversation(c, f"{record_id}:conv[{n}]")
            for n, c in enumerate(raw_convs, start=1)
        ]
        if not scenario and conversations:
            scenario = conversations[0].environment
        plots.append(
            Plot(
                book_id=book_id,
                index=pos,
                summary=summary,
                scenario=scenario,
                conversations=conversations,
            )
        )
    return Book(id=book_id, title=str(title), plots=plots)


def _parse_conversation(raw: dict, record_id: str) -> Conversation:
    if not isinstance(raw, dict):
        raise MalformedRecord(record_id, "conversation record is not an object")
    environment = str(_pick(raw, "environment", "") or "").strip()
    cast_raw = _pick(raw, "cast", []) or []
    cast = [clean_name(str(c)) for c in cast_raw if clean_name(str(c))]
    lines = _pick(raw, "dialogues", []) or []
    turns: list[Turn] = []
    env_extra: list[str] = []
    for line in lines:
        turn = _parse_dialogue_entry(line, record_id)
        if turn is None:
            continue
        if normalize_name(turn.speaker) == ENVIRONMENT_SPEAKER:
            env_extra.append(reconstruct_utterance(turn))
            continue
        turns.append(turn)
    if env_extra:
        environment = " ".join(filter(None, [environment] + env_extra))
    if not turns:
        raise MalformedRecord(record_id, "conversation has no turns")
    return Conversation(environment=environment, cast=cast, turns=turns)


def _parse_dialogue_entry(line, record_id: str) -> Turn | None:
    if isinstance(line, dict):
        speaker = _pick(line, "dialogue_speaker")
        text = _pick(line, "dialogue_text")
        if speaker is None or text is None:
            raise MalformedRecord(record_id, f"dialogue object missing speaker or text: {line!r}")
        speaker = clean_name(str(speaker))
        segments = segment_utterance(str(text), origin=speaker)
        if not speaker or not segments:
            logger.warning("%s: skipping empty dialogue entry", record_id)
            return None
        return Turn(speaker=speaker, segments=segments)
    try:
        return parse_turn(str(line))
    except NoSpeaker:
        # Narration lines without a speaker prefix are common in the wild;
        # dropping one keeps ingestion total.
        logger.warning("%s: skipping line without speaker prefix: %.60r", record_id, line)
        return None
    except MalformedRecord:
        logger.warning("%s: skipping empty utterance line: %.60r", record_id, line)
        return None


def _parse_normalized_book(file: Path) -> Book:
    records = read_jsonl(file, plot_from_record)
    if not records:
        raise UnreadableSource(f"no records in {file}")
    plots = [plot for plot, _ in records]
    book_id = plots[0].book_id
    if any(plot.book_id != book_id for plot in plots):
        raise MalformedRecord(str(file), "mixed book ids in one file")
    _validate_plot_indices(book_id, plots)
    plots.sort(key=lambda p: p.index)
    return Book(id=book_id, title=next((title for _, title in records if title), ""), plots=plots)


def _validate_plot_indices(book_id: str, plots: list[Plot]) -> None:
    seen: set[int] = set()
    for plot in plots:
        if plot.index in seen:
            raise DuplicatePlotIndex(f"{book_id}: plot index {plot.index} repeats")
        seen.add(plot.index)
    expected = set(range(1, len(plots) + 1))
    if seen != expected:
        missing = sorted(expected - seen)
        raise MalformedRecord(book_id, f"plot indices not contiguous, missing {missing}")


# --- serialization -----------------------------------------------------------

def plot_to_record(plot: Plot, title: str) -> dict:
    return {
        "book_id": plot.book_id,
        "title": title,
        "index": plot.index,
        "summary": plot.summary,
        "scenario": plot.scenario,
        "conversations": [
            {
                "environment": c.environment,
                "cast": list(c.cast),
                "turns": [
                    {
                        "speaker": t.speaker,
                        "segments": [{"kind": s.kind.value, "text": s.text} for s in t.segments],
                    }
                    for t in c.turns
                ],
            }
            for c in plot.conversations
        ],
    }


def plot_from_record(rec: dict) -> tuple[Plot, str]:
    """The inverse of `plot_to_record`: the plot and the book title it carries."""
    book_id, index = rec["book_id"], int(rec["index"])
    conversations = []
    for n, conv in enumerate(rec.get("conversations", []), start=1):
        turns = [
            Turn(
                speaker=t["speaker"],
                segments=[UtteranceSegment(SegmentKind(s["kind"]), s["text"]) for s in t["segments"]],
            )
            for t in conv.get("turns", [])
        ]
        if not turns:
            raise ValueError(f"conversation {n} has no turns")
        conversations.append(
            Conversation(conv.get("environment", ""), list(conv.get("cast", [])), turns)
        )
    plot = Plot(book_id, index, rec["summary"], rec.get("scenario", ""), conversations)
    return plot, rec.get("title", book_id)


def serialize_corpus(corpus: Corpus, out_dir: Path | str) -> list[Path]:
    """Write one JSONL file per book, one plot per line."""
    out_dir = Path(out_dir)
    return [
        write_jsonl(out_dir / f"{book.id}.jsonl", (plot_to_record(plot, book.title) for plot in book.plots))
        for book in corpus.books
    ]


# --- statistics --------------------------------------------------------------

class BookStats:
    __slots__ = ("book_id", "title", "plot_count", "conversation_count", "avg_speakers")

    def __init__(
        self,
        book_id: str,
        title: str,
        plot_count: int,
        conversation_count: int,
        avg_speakers: str,
    ) -> None:
        self.book_id = book_id
        self.title = title
        self.plot_count = plot_count
        self.conversation_count = conversation_count
        self.avg_speakers = avg_speakers  # 2-decimal string, half-up


class StatsReport:
    __slots__ = ("per_book", "total_plots", "total_conversations", "avg_speakers")

    def __init__(
        self,
        per_book: list[BookStats],
        total_plots: int,
        total_conversations: int,
        avg_speakers: str,
    ) -> None:
        self.per_book = per_book
        self.total_plots = total_plots
        self.total_conversations = total_conversations
        self.avg_speakers = avg_speakers


def _distinct_speakers(conversation: Conversation) -> int:
    return len({turn.speaker for turn in conversation.turns})


def corpus_stats(corpus: Corpus) -> StatsReport:
    """Plot/conversation counts and mean distinct speakers per conversation."""
    per_book: list[BookStats] = []
    total_plots = 0
    total_convs = 0
    total_speakers = 0
    for book in corpus.books:
        plots = len(book.plots)
        convs = 0
        speakers = 0
        for plot in book.plots:
            for conv in plot.conversations:
                convs += 1
                speakers += _distinct_speakers(conv)
        total_plots += plots
        total_convs += convs
        total_speakers += speakers
        avg = format_half_up(speakers, convs) if convs else "0.00"
        per_book.append(
            BookStats(
                book_id=book.id,
                title=book.title,
                plot_count=plots,
                conversation_count=convs,
                avg_speakers=avg,
            )
        )
    avg_total = format_half_up(total_speakers, total_convs) if total_convs else "0.00"
    return StatsReport(
        per_book=per_book,
        total_plots=total_plots,
        total_conversations=total_convs,
        avg_speakers=avg_total,
    )


def corpus_stats_to_record(report: StatsReport) -> dict:
    return {
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
