"""Narrative corpus model: books split into plots, plots into conversations.

Dialogue turns use a tripartite convention: square brackets mark inner
thoughts, parentheses mark physical actions, everything else is speech.
Parsing strips the delimiters; rendering puts them back, so a turn can be
reconstructed modulo surrounding whitespace.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path

from .errors import (
    AmbiguousAlias,
    DuplicatePlotIndex,
    MalformedRecord,
    NoSpeaker,
    UnreadableSource,
)
from .util import clean_name, format_half_up, normalize_name, slugify, write_jsonl

logger = logging.getLogger(__name__)

# Pseudo-speaker used by some sources for scene description lines.
ENVIRONMENT_SPEAKER = "environment"


class SegmentKind(Enum):
    SPEECH = "speech"
    ACTION = "action"
    THOUGHT = "thought"


@dataclass
class UtteranceSegment:
    kind: SegmentKind
    text: str  # delimiters already stripped


@dataclass
class Turn:
    speaker: str
    segments: list[UtteranceSegment]


@dataclass
class Conversation:
    plot_ref: tuple[str, int]  # (book_id, plot index)
    environment: str
    cast: list[str]
    turns: list[Turn]


@dataclass
class Plot:
    book_id: str
    index: int  # 1-based position in the book
    summary: str
    scenario: str
    conversations: list[Conversation]

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


@dataclass
class Book:
    id: str
    title: str
    plots: list[Plot]

    def speakers(self) -> list[str]:
        return sorted({name for plot in self.plots for name in plot.speakers()})


@dataclass
class Corpus:
    books: list[Book]
    registries: dict[str, "CharacterRegistry"] = field(default_factory=dict)

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

    def add(self, canonical: str, aliases: tuple[str, ...] | list[str] = ()) -> None:
        canonical = clean_name(canonical)
        bucket = self._aliases.setdefault(canonical, set())
        bucket.add(canonical)
        for alias in aliases:
            bucket.add(clean_name(alias))

    def known_names(self) -> set[str]:
        out: set[str] = set()
        for aliases in self._aliases.values():
            out.update(aliases)
        return out

    def resolve(self, name: str) -> str:
        wanted = normalize_name(name)
        if not wanted:
            raise NoSpeaker("empty character name")
        hits = [
            canonical
            for canonical, aliases in self._aliases.items()
            if any(normalize_name(a) == wanted for a in aliases)
        ]
        if len(hits) > 1:
            raise AmbiguousAlias(f"{name!r} matches {sorted(hits)}")
        if hits:
            return hits[0]
        canonical = clean_name(name)
        self.add(canonical)
        return canonical


def load_alias_table(path: Path | str) -> CharacterRegistry:
    """Read a stanza-per-character alias file.

    Each stanza starts with the canonical name; following non-blank lines
    are aliases. Stanzas are separated by blank lines.
    """
    path = Path(path)
    if not path.is_file():
        raise UnreadableSource(f"alias table not found: {path}")
    registry = CharacterRegistry()
    stanza: list[str] = []
    for raw in path.read_text(encoding="utf-8").splitlines() + [""]:
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

# Logical field -> candidate source keys, tried in order. Sources disagree on
# naming, so the adapter table is part of the public surface and can be
# overridden per run.
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


def _pick(record: dict, logical: str, adapter: dict[str, list[str]], default=None):
    for key in adapter.get(logical, ()):
        if key in record:
            return record[key]
    return default


def ingest_corpus(
    path: Path | str,
    format: str = "coser",
    *,
    adapter: dict[str, list[str]] | None = None,
    alias_tables: dict[str, Path | str] | None = None,
) -> Corpus:
    """Load one book file or a directory of book files.

    `format` is either "coser" (nested per-book JSON) or "jsonl" (the
    normalized plot-per-line layout this package writes).
    """
    path = Path(path)
    if not path.exists():
        raise UnreadableSource(f"no such path: {path}")
    if path.is_dir():
        suffix = "*.jsonl" if format == "jsonl" else "*.json"
        files = sorted(path.glob(suffix))
        if not files:
            raise UnreadableSource(f"no {suffix} files under {path}")
    else:
        files = [path]

    adapter = adapter or DEFAULT_ADAPTER
    books: list[Book] = []
    registries: dict[str, CharacterRegistry] = {}
    for file in files:
        if format == "coser":
            book = _parse_coser_book(file, adapter)
        elif format == "jsonl":
            book = _parse_normalized_book(file)
        else:
            raise UnreadableSource(f"unknown corpus format: {format!r}")
        registry = CharacterRegistry()
        if alias_tables and book.id in alias_tables:
            registry = load_alias_table(alias_tables[book.id])
        _canonicalize_book(book, registry)
        books.append(book)
        registries[book.id] = registry
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


def _parse_coser_book(file: Path, adapter: dict[str, list[str]]) -> Book:
    try:
        data = json.loads(file.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedRecord(str(file), f"unreadable JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedRecord(str(file), "top-level value is not an object")
    title = _pick(data, "title", adapter)
    if not title:
        raise MalformedRecord(str(file), "missing book title")
    book_id = slugify(str(title))
    raw_plots = _pick(data, "plots", adapter)
    if not isinstance(raw_plots, list) or not raw_plots:
        raise MalformedRecord(str(file), "book has no plots")

    plots: list[Plot] = []
    for pos, raw_plot in enumerate(raw_plots, start=1):
        record_id = f"{book_id}:plot[{pos}]"
        if not isinstance(raw_plot, dict):
            raise MalformedRecord(record_id, "plot record is not an object")
        summary = str(_pick(raw_plot, "summary", adapter, "") or "").strip()
        if not summary:
            raise MalformedRecord(record_id, "empty plot summary")
        scenario = str(_pick(raw_plot, "scenario", adapter, "") or "").strip()
        raw_convs = _pick(raw_plot, "conversations", adapter, []) or []
        conversations = [
            _parse_conversation(book_id, pos, c, f"{record_id}:conv[{n}]", adapter)
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


def _parse_conversation(
    book_id: str,
    plot_index: int,
    raw: dict,
    record_id: str,
    adapter: dict[str, list[str]],
) -> Conversation:
    if not isinstance(raw, dict):
        raise MalformedRecord(record_id, "conversation record is not an object")
    environment = str(_pick(raw, "environment", adapter, "") or "").strip()
    cast_raw = _pick(raw, "cast", adapter, []) or []
    cast = [clean_name(str(c)) for c in cast_raw if clean_name(str(c))]
    lines = _pick(raw, "dialogues", adapter, []) or []
    turns: list[Turn] = []
    env_extra: list[str] = []
    for line in lines:
        turn = _parse_dialogue_entry(line, record_id, adapter)
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
    return Conversation(
        plot_ref=(book_id, plot_index),
        environment=environment,
        cast=cast,
        turns=turns,
    )


def _parse_dialogue_entry(line, record_id: str, adapter: dict[str, list[str]]) -> Turn | None:
    if isinstance(line, dict):
        speaker = _pick(line, "dialogue_speaker", adapter)
        text = _pick(line, "dialogue_text", adapter)
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
    plots: list[Plot] = []
    title = ""
    book_id = ""
    try:
        lines = file.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise UnreadableSource(f"cannot read {file}: {exc}") from exc
    for n, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        record_id = f"{file.name}:{n}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(record_id, f"invalid JSON: {exc}") from exc
        for key in ("book_id", "index", "summary"):
            if key not in rec:
                raise MalformedRecord(record_id, f"missing field {key!r}")
        book_id = book_id or rec["book_id"]
        title = title or rec.get("title", rec["book_id"])
        if rec["book_id"] != book_id:
            raise MalformedRecord(record_id, "mixed book ids in one file")
        conversations = []
        for cn, conv in enumerate(rec.get("conversations", []), start=1):
            turns = [
                Turn(
                    speaker=t["speaker"],
                    segments=[
                        UtteranceSegment(SegmentKind(s["kind"]), s["text"])
                        for s in t["segments"]
                    ],
                )
                for t in conv.get("turns", [])
            ]
            if not turns:
                raise MalformedRecord(f"{record_id}:conv[{cn}]", "conversation has no turns")
            conversations.append(
                Conversation(
                    plot_ref=(book_id, rec["index"]),
                    environment=conv.get("environment", ""),
                    cast=list(conv.get("cast", [])),
                    turns=turns,
                )
            )
        plots.append(
            Plot(
                book_id=book_id,
                index=int(rec["index"]),
                summary=rec["summary"],
                scenario=rec.get("scenario", ""),
                conversations=conversations,
            )
        )
    if not plots:
        raise UnreadableSource(f"no records in {file}")
    _validate_plot_indices(book_id, plots)
    plots.sort(key=lambda p: p.index)
    return Book(id=book_id, title=title, plots=plots)


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


def serialize_corpus(corpus: Corpus, out_dir: Path | str) -> list[Path]:
    """Write one JSONL file per book, one plot per line."""
    out_dir = Path(out_dir)
    return [
        write_jsonl(out_dir / f"{book.id}.jsonl", (plot_to_record(plot, book.title) for plot in book.plots))
        for book in corpus.books
    ]


# --- statistics --------------------------------------------------------------

@dataclass
class BookStats:
    book_id: str
    title: str
    plot_count: int
    conversation_count: int
    avg_speakers: str  # 2-decimal string, half-up
    undefined_mean: bool


@dataclass
class StatsReport:
    per_book: list[BookStats]
    total_plots: int
    total_conversations: int
    avg_speakers: str
    undefined_mean: bool


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
        undefined = convs == 0
        avg = "0.00" if undefined else format_half_up(Fraction(speakers, convs))
        per_book.append(
            BookStats(
                book_id=book.id,
                title=book.title,
                plot_count=plots,
                conversation_count=convs,
                avg_speakers=avg,
                undefined_mean=undefined,
            )
        )
    undefined = total_convs == 0
    avg_total = "0.00" if undefined else format_half_up(Fraction(total_speakers, total_convs))
    return StatsReport(
        per_book=per_book,
        total_plots=total_plots,
        total_conversations=total_convs,
        avg_speakers=avg_total,
        undefined_mean=undefined,
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
