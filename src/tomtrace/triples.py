"""Mental-state triples: extraction prompts, response parsing, validation.

A triple is (Subject, Predicate, Object). The predicate starts with a stem
naming one of the four mental-state dimensions (Believes, Feels, Intends,
Desires) and may continue with a linking particle plus a target name, e.g.
BelievesAboutCordelia. Objects carry the mental-state content as free text.
"""

from __future__ import annotations

import functools
import re
from enum import Enum
from importlib import resources
from pathlib import Path
from string import Template
from typing import Callable

from .corpus import Book, CharacterRegistry, Conversation, Plot, render_turn
from .errors import (
    ConfigInvalid,
    ForeignSubject,
    MissingUpstreamArtifact,
    UnknownPredicate,
    UnparseableResponse,
)
from .llmgate import ChatRequest, Gateway, user_request
from .util import (
    LazyLogger, encode_record, load_json_reply, normalize_name, read_jsonl, reply_payload, stable_hash,
    strip_code_fences, write_csv, write_jsonl,
)

logger = LazyLogger(__name__)


class Dimension(Enum):
    # Declaration order is the fixed report-column order.
    BELIEF = "belief"
    DESIRE = "desire"
    EMOTION = "emotion"
    INTENTION = "intention"

    @property
    def label(self) -> str:
        return self.value.capitalize()


DIMENSIONS = tuple(Dimension)

# Predicate stem -> dimension; matched case-insensitively, longest stem wins.
PREDICATE_STEMS: dict[str, Dimension] = {
    "believes": Dimension.BELIEF,
    "feels": Dimension.EMOTION,
    "intends": Dimension.INTENTION,
    "desires": Dimension.DESIRE,
}

# Linking particles between the stem and a target name, longest first.
# Compound forms like ToKnow absorb verb continuations so they are not
# mistaken for names.
TARGET_PARTICLES = ("Towards", "ToKnow", "Toward", "About", "For", "To")

_NAME_RE = re.compile(r"^[A-Z][A-Za-z]*(?: [A-Z][A-Za-z]*)*$")

PRONOUN_TOKENS = ("he", "she", "his", "her", "him", "they", "them", "their")
_PRONOUN_RE = re.compile(r"\b(?:%s)\b" % "|".join(PRONOUN_TOKENS), re.IGNORECASE)


class MentalStateTriple:
    __slots__ = ("id", "subject", "predicate", "dimension", "target", "object", "plot_index", "valid_to")

    def __init__(
        self,
        id: str,
        subject: str,
        predicate: str,
        dimension: Dimension,
        target: str | None,
        object: str,
        plot_index: int,
    ) -> None:
        self.id = id
        self.subject = subject
        self.predicate = predicate  # as the model wrote it
        self.dimension = dimension
        self.target = target
        self.object = object
        self.plot_index = plot_index
        # First plot at which a later batch superseded or retired this edge; the
        # edge holds over [plot_index, valid_to). None while it is still active.
        self.valid_to: int | None = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


def _stem_match(predicate_raw: str) -> tuple[int, Dimension] | None:
    """(length, dimension) of the longest stem the predicate starts with, if any."""
    lowered = predicate_raw.strip().casefold()
    matches = [(len(stem), dimension) for stem, dimension in PREDICATE_STEMS.items() if lowered.startswith(stem)]
    return max(matches, key=lambda match: match[0]) if matches else None


def classify_dimension(predicate_raw: str) -> Dimension:
    """Dimension from the predicate's leading stem; unknown stems raise."""
    match = _stem_match(predicate_raw)
    if match is None:
        raise UnknownPredicate(f"predicate {predicate_raw!r} matches no dimension stem")
    return match[1]


def extract_target(predicate_raw: str) -> str | None:
    """Target character named in the predicate suffix, if any.

    The suffix after the stem and its linking particle counts as a target
    only when it looks like a capitalized name; camel-case runs are split
    ("KingLear" -> "King Lear"). Absence is a valid result.
    """
    predicate = predicate_raw.strip()
    match = _stem_match(predicate)
    if match is None:
        return None
    rest = predicate[match[0]:].lstrip(" _-")
    if not rest:
        return None
    suffix = None
    for particle in TARGET_PARTICLES:
        if rest.casefold().startswith(particle.casefold()):
            suffix = rest[len(particle):].strip(" _-")
            break
    if not suffix:
        return None
    suffix = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", suffix)
    if not _NAME_RE.match(suffix):
        return None
    return suffix


def make_triple(
    subject: str,
    predicate_raw: str,
    obj: str,
    plot_index: int,
    *,
    ordinal: int = 0,
    book_id: str = "",
) -> MentalStateTriple:
    dimension = classify_dimension(predicate_raw)
    return MentalStateTriple(
        id=stable_hash(book_id, subject, predicate_raw, obj, plot_index, ordinal),
        subject=subject,
        predicate=predicate_raw,
        dimension=dimension,
        target=extract_target(predicate_raw),
        object=obj,
        plot_index=plot_index,
    )


def render_triple(triple: MentalStateTriple) -> str:
    return f"({triple.subject}, {triple.predicate}, {triple.object})"


class RejectedEntry:
    __slots__ = ("raw", "reason")

    def __init__(self, raw: str, reason: str) -> None:
        self.raw = raw
        self.reason = reason


class TripleBatch:
    """One extraction result: all triples for one character at one plot."""

    __slots__ = ("character", "plot_index", "triples", "rejects")

    def __init__(
        self,
        character: str,
        plot_index: int,
        triples: list[MentalStateTriple],
        rejects: list[RejectedEntry] | None = None,
    ) -> None:
        self.character = character
        self.plot_index = plot_index
        self.triples = triples
        self.rejects = [] if rejects is None else rejects
        for triple in triples:
            if normalize_name(triple.subject) != normalize_name(self.character):
                raise ForeignSubject(
                    f"triple subject {triple.subject!r} in a {self.character!r} batch"
                )


# --- response parsing --------------------------------------------------------

def _split_triple_entry(entry: str) -> tuple[str, str, str] | None:
    """Split '(S, P, O)' on its first two depth-0 commas."""
    inner = entry.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    depth = 0
    cuts: list[int] = []
    for pos, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch == "," and depth == 0:
            cuts.append(pos)
            if len(cuts) == 2:
                break
    if len(cuts) < 2:
        return None
    subject = inner[: cuts[0]].strip().strip('"').strip()
    predicate = inner[cuts[0] + 1 : cuts[1]].strip().strip('"').strip()
    obj = inner[cuts[1] + 1 :].strip().strip('"').strip()
    if not subject or not predicate or not obj:
        return None
    return subject, predicate, obj


def _tuple_entries_from_text(text: str) -> list[str]:
    """Scan free text for balanced parenthesized groups with two commas."""
    entries: list[str] = []
    i = 0
    while i < len(text):
        if text[i] == "(":
            depth = 1
            j = i + 1
            while j < len(text) and depth:
                if text[j] == "(":
                    depth += 1
                elif text[j] == ")":
                    depth -= 1
                j += 1
            if depth == 0:
                candidate = text[i:j]
                if candidate.count(",") >= 2:
                    entries.append(candidate)
                i = j
                continue
        i += 1
    return entries


def _json_entries(body: str) -> list[str] | None:
    try:
        data = load_json_reply(body)
    except ValueError:
        return None
    if isinstance(data, dict):
        data = reply_payload(data)
    return [str(v) for v in data] if isinstance(data, list) else None


def parse_triple_response(
    text: str,
    character: str,
    plot_index: int,
    *,
    book_id: str = "",
) -> TripleBatch:
    """Parse a model extraction response into a batch.

    Accepts strict JSON ({"Target Character": ["(S, P, O)", ...]}) and
    degrades to scanning for parenthesized tuples. Entries that do not split
    into three parts, carry an unknown predicate, or name a foreign subject
    are quarantined into `rejects` rather than dropped.
    """
    body = strip_code_fences(text).strip()
    if not body:
        raise UnparseableResponse("empty response")
    entries = _json_entries(body)
    if entries is None:
        entries = _tuple_entries_from_text(body)
    if not entries:
        raise UnparseableResponse("no triple entries found in response")

    triples: list[MentalStateTriple] = []
    rejects: list[RejectedEntry] = []
    wanted = normalize_name(character)
    for ordinal, entry in enumerate(entries):
        parts = _split_triple_entry(entry)
        if parts is None:
            rejects.append(RejectedEntry(entry, "malformed triple: need (subject, predicate, object)"))
            continue
        subject, predicate, obj = parts
        if normalize_name(subject) != wanted:
            rejects.append(RejectedEntry(entry, f"foreign subject {subject!r}"))
            continue
        try:
            triple = make_triple(
                subject, predicate, obj, plot_index, ordinal=ordinal, book_id=book_id
            )
        except UnknownPredicate as exc:
            rejects.append(RejectedEntry(entry, str(exc)))
            continue
        triples.append(triple)
    return TripleBatch(
        character=character,
        plot_index=plot_index,
        triples=triples,
        rejects=rejects,
    )


# --- validation ----------------------------------------------------------------

class ViolationKind(Enum):
    PRONOUN_IN_OBJECT = "pronoun_in_object"
    UNKNOWN_TARGET = "unknown_target"


class Violation:
    __slots__ = ("kind", "detail")

    def __init__(self, kind: ViolationKind, detail: str) -> None:
        self.kind = kind
        self.detail = detail


def validate_triple(
    triple: MentalStateTriple,
    visible_cast: set[str] | list[str],
    known_names: set[str] | None = None,
) -> list[Violation]:
    """Perspective checks on an object and a target; returns all violations found.

    The subject and the dimension need no check: `parse_triple_response`
    rejects a subject other than the batch's character, and `make_triple`
    takes the dimension from the predicate.
    """
    violations: list[Violation] = []
    pronouns = sorted({m.group(0).casefold() for m in _PRONOUN_RE.finditer(triple.object)})
    if pronouns:
        violations.append(
            Violation(ViolationKind.PRONOUN_IN_OBJECT, f"object uses pronoun(s) {pronouns}")
        )
    if triple.target is not None:
        allowed = {normalize_name(n) for n in visible_cast}
        if known_names:
            allowed.update(normalize_name(n) for n in known_names)
        if normalize_name(triple.target) not in allowed:
            violations.append(
                Violation(ViolationKind.UNKNOWN_TARGET, f"target {triple.target!r} not in cast")
            )
    return violations


# --- prompt building -------------------------------------------------------------

@functools.cache
def _packaged_template(name: str) -> Template:
    return Template(resources.files("tomtrace.templates").joinpath(name).read_text(encoding="utf-8"))


class TemplateOverride:
    """A prompt-template file used in place of a packaged template: its text, read once, and its path."""

    __slots__ = ("path", "text")

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text


def render_template(name: str, override: TemplateOverride | None = None, **fields: str) -> str:
    """The packaged prompt template `name`, or the `override` in its place, filled with `fields`.

    A packaged template is read once per process. An override that holds a
    placeholder `fields` does not fill raises ConfigInvalid naming its file.
    """
    template, label = (Template(override.text), override.path) if override else (_packaged_template(name), name)
    try:
        return template.substitute(**fields)
    except KeyError as exc:
        raise ConfigInvalid(f"template {label}: unknown placeholder ${exc.args[0]}") from exc
    except ValueError as exc:
        raise ConfigInvalid(f"template {label}: {exc}") from exc


def render_dialogues(conversations: list[Conversation]) -> str:
    blocks = []
    for conv in conversations:
        lines = []
        if conv.environment:
            lines.append(f"Environment: {conv.environment}")
        lines.extend(render_turn(turn) for turn in conv.turns)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def plot_prompt(
    template_name: str,
    plot: Plot,
    conversations: list[Conversation],
    character: str,
    previous_triples: list[MentalStateTriple],
    *,
    model_id: str,
    template_override: TemplateOverride | None,
    max_output_tokens: int,
) -> ChatRequest:
    """Instantiate a per-character plot template: extraction and question generation share it."""
    ordered = sorted(previous_triples, key=lambda t: t.plot_index)
    prompt = render_template(
        template_name,
        template_override,
        plot_summary=plot.summary,
        scenario=plot.scenario,
        dialogues=render_dialogues(conversations),
        character=character,
        previous_triples="\n".join(render_triple(t) for t in ordered),
    )
    return user_request(model_id, prompt, max_output_tokens=max_output_tokens)


def build_extraction_prompt(
    plot: Plot,
    conversations: list[Conversation],
    character: str,
    previous_triples: list[MentalStateTriple],
    *,
    model_id: str,
    template_override: TemplateOverride | None = None,
) -> ChatRequest:
    """Instantiate the extraction template for one character and plot."""
    return plot_prompt(
        "triple_extraction.txt",
        plot,
        conversations,
        character,
        previous_triples,
        model_id=model_id,
        template_override=template_override,
        max_output_tokens=2048,
    )


# --- records and the extraction stage ----------------------------------------------

# A triple's fields in the order its record and a graph edge record give them (see util.encode_record).
TRIPLE_FIELDS = (
    ("id", str), ("subject", str), ("predicate", str), ("dimension", Dimension), ("target", str, None), ("object", str),
)
# A kept triple, one line of triples/<book>.jsonl.
TRIPLE_RECORD = (("book_id", str), ("character", str), ("plot_index", int), *TRIPLE_FIELDS)


def _reject_record(book_id: str, character: str, plot_index: int, raw: str, reason: str) -> dict:
    return {"book_id": book_id, "character": character, "plot_index": plot_index, "raw": raw, "reason": reason}


class Extraction:
    """Extraction output records, in character -> plot order."""

    __slots__ = ("triples", "rejects", "rejected", "log")

    def __init__(self) -> None:
        self.triples: list[dict] = []
        self.rejects: list[dict] = []
        self.rejected = 0  # entries rejected from parsed responses; unparseable responses are not counted
        # One chain's diagnostics as (logger method, arguments), emitted on the calling thread in input order.
        self.log: list[tuple[Callable, tuple]] = []

    def extend(self, other: "Extraction") -> None:
        self.triples += other.triples
        self.rejects += other.rejects
        self.rejected += other.rejected


def _extract_chain(
    book: Book,
    character: str,
    known_names: set[str],
    gateway: Gateway,
    *,
    model_id: str,
    strict: bool,
    template_override: TemplateOverride | None,
) -> Extraction:
    """One character through one book; each prompt carries the previous plot's kept triples."""
    out = Extraction()
    rolling: list[MentalStateTriple] = []
    for plot in book.plots:
        convs = plot.conversations_of(character)
        if not convs:
            continue
        request = build_extraction_prompt(
            plot, convs, character, rolling, model_id=model_id, template_override=template_override
        )
        response = gateway.complete(request)
        try:
            batch = parse_triple_response(response.text, character, plot.index, book_id=book.id)
        except UnparseableResponse as exc:
            out.log.append((logger.warning, ("%s/%s/p%d: %s", book.id, character, plot.index, exc)))
            out.rejects.append(_reject_record(book.id, character, plot.index, response.text, str(exc)))
            continue
        visible_cast = sorted({name for conv in convs for name in conv.cast})
        kept: list[MentalStateTriple] = []
        for triple in batch.triples:
            violations = validate_triple(triple, visible_cast, known_names)
            if violations and strict:
                reason = "; ".join(v.detail for v in violations)
                batch.rejects.append(RejectedEntry(raw=render_triple(triple), reason=reason))
                continue
            if violations:
                kinds = [v.kind.value for v in violations]
                out.log.append((logger.info, ("%s/%s/p%d: kept triple with violations: %s",
                                              book.id, character, plot.index, kinds)))
            kept.append(triple)
        out.triples += [encode_record(t, TRIPLE_RECORD, book_id=book.id, character=character) for t in kept]
        out.rejects += [_reject_record(book.id, character, plot.index, r.raw, r.reason) for r in batch.rejects]
        out.rejected += len(batch.rejects)
        rolling = kept
    return out


def extract_triples(
    books: list[Book],
    registries: dict[str, CharacterRegistry],
    gateway: Gateway,
    *,
    model_id: str,
    strict: bool,
    template_override: TemplateOverride | None = None,
) -> dict[str, Extraction]:
    """Extract every speaker's triples through every book, keyed by book id.

    Each (book, character) chain is sequential; chains run concurrently on
    the gateway's runner and are merged back, and their diagnostics logged,
    in book -> character order.
    """
    chains = [(book, character) for book in books for character in book.speakers()]

    def run_chain(chain: tuple[Book, str]) -> Extraction:
        book, character = chain
        registry = registries.get(book.id)
        known = registry.known_names() if registry else set()
        return _extract_chain(
            book,
            character,
            known,
            gateway,
            model_id=model_id,
            strict=strict,
            template_override=template_override,
        )

    results = {book.id: Extraction() for book in books}
    for (book, _), extraction in zip(chains, gateway.run(run_chain, chains)):
        for emit, args in extraction.log:
            emit(*args)
        results[book.id].extend(extraction)
    return results


def write_extractions(extractions: dict[str, Extraction], triples_dir: Path) -> list[Path]:
    """Write `<book>.jsonl` and `<book>.rejects.jsonl` per book; returns the paths written."""
    written: list[Path] = []
    for book_id, extraction in extractions.items():
        written.append(write_jsonl(triples_dir / f"{book_id}.jsonl", extraction.triples))
        written.append(write_jsonl(triples_dir / f"{book_id}.rejects.jsonl", extraction.rejects))
    return written


# --- triple audit export -------------------------------------------------------------

TRIPLE_REVIEW_COLUMNS = (
    "triple_id", "book_id", "character", "plot_index", "subject", "predicate", "object", "verdict", "notes"
)


def load_triples(path: Path, plot_count: int | None = None) -> list[dict]:
    """One book's kept triple records, each at a plot within 1..`plot_count` when that is given."""

    def placed(**record) -> dict:
        if not 1 <= record["plot_index"] <= plot_count:
            raise ValueError(f"plot_index {record['plot_index']} is not a plot of the book (1..{plot_count})")
        return record

    return read_jsonl(path, TRIPLE_RECORD, None if plot_count is None else placed)


def load_kept_triples(triples_dir: Path, read: Callable[[Path], Path] = Path) -> list[dict]:
    """Every book's kept triple records; reject files are skipped. Each file goes through `read` first."""
    if not triples_dir.is_dir():
        raise MissingUpstreamArtifact(f"no triples under {triples_dir}; run extract")
    return [
        rec
        for path in sorted(triples_dir.glob("*.jsonl"))
        if not path.name.endswith(".rejects.jsonl")
        for rec in load_triples(read(path))
    ]


def export_triple_review(records: list[dict], path: Path) -> int:
    """Write an audit CSV with blank verdict columns; returns the row count.

    Export only: no importer reads the verdicts back.
    """
    rows = [
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
        for rec in records
    ]
    write_csv(path, [TRIPLE_REVIEW_COLUMNS, *rows])
    return len(rows)
