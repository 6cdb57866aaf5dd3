"""Mental-state triples: extraction prompts, response parsing, validation.

A triple is (Subject, Predicate, Object). The predicate starts with a stem
naming one of the four mental-state dimensions (Believes, Feels, Intends,
Desires) and may continue with a linking particle plus a target name, e.g.
BelievesAboutCordelia. Objects carry the mental-state content as free text.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from string import Template

from .corpus import Book, CharacterRegistry, Conversation, Plot, render_turn
from .errors import (
    CharacterAbsent,
    ForeignSubject,
    MissingUpstreamArtifact,
    UnknownPredicate,
    UnparseableResponse,
)
from .llmgate import ChatRequest, Gateway
from .util import normalize_name, read_jsonl, stable_hash, write_jsonl

logger = logging.getLogger(__name__)


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


@dataclass
class MentalStateTriple:
    id: str
    subject: str
    predicate_raw: str
    dimension: Dimension
    target: str | None
    object: str
    plot_index: int
    # First plot at which a later batch superseded or retired this edge; the
    # edge holds over [plot_index, valid_to). None while it is still active.
    valid_to: int | None = None
    supersedes: str | None = None


def classify_dimension(predicate_raw: str) -> Dimension:
    """Dimension from the predicate's leading stem; unknown stems raise."""
    lowered = predicate_raw.strip().casefold()
    best: tuple[int, Dimension] | None = None
    for stem, dimension in PREDICATE_STEMS.items():
        if lowered.startswith(stem) and (best is None or len(stem) > best[0]):
            best = (len(stem), dimension)
    if best is None:
        raise UnknownPredicate(f"predicate {predicate_raw!r} matches no dimension stem")
    return best[1]


def _matched_stem_length(predicate_raw: str) -> int | None:
    lowered = predicate_raw.strip().casefold()
    lengths = [len(s) for s in PREDICATE_STEMS if lowered.startswith(s)]
    return max(lengths) if lengths else None


def extract_target(predicate_raw: str) -> str | None:
    """Target character named in the predicate suffix, if any.

    The suffix after the stem and its linking particle counts as a target
    only when it looks like a capitalized name; camel-case runs are split
    ("KingLear" -> "King Lear"). Absence is a valid result.
    """
    predicate = predicate_raw.strip()
    stem_len = _matched_stem_length(predicate)
    if stem_len is None:
        return None
    rest = predicate[stem_len:].lstrip(" _-")
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
        predicate_raw=predicate_raw,
        dimension=dimension,
        target=extract_target(predicate_raw),
        object=obj,
        plot_index=plot_index,
    )


def render_triple(triple: MentalStateTriple) -> str:
    return f"({triple.subject}, {triple.predicate_raw}, {triple.object})"


@dataclass
class RejectedEntry:
    raw: str
    reason: str


@dataclass
class TripleBatch:
    """One extraction result: all triples for one character at one plot."""

    character: str
    plot_index: int
    triples: list[MentalStateTriple]
    raw_response: str = ""
    rejects: list[RejectedEntry] = field(default_factory=list)

    def __post_init__(self):
        for triple in self.triples:
            if normalize_name(triple.subject) != normalize_name(self.character):
                raise ForeignSubject(
                    f"triple subject {triple.subject!r} in a {self.character!r} batch"
                )
            if triple.plot_index != self.plot_index:
                raise ValueError(
                    f"triple plot {triple.plot_index} in a plot-{self.plot_index} batch"
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
    for candidate in (body, body.replace("{{", "{").replace("}}", "}")):
        try:
            data = json.loads(candidate)
        except json.JSONDecodeError:
            continue
        if isinstance(data, dict):
            for key, value in data.items():
                if key.casefold() == "target character" and isinstance(value, list):
                    return [str(v) for v in value]
            # Single-key object with a list payload counts too.
            if len(data) == 1:
                value = next(iter(data.values()))
                if isinstance(value, list):
                    return [str(v) for v in value]
        if isinstance(data, list):
            return [str(v) for v in data]
    return None


def parse_triple_response(
    text: str,
    character: str | None = None,
    plot_index: int = 1,
    *,
    book_id: str = "",
) -> TripleBatch:
    """Parse a model extraction response into a batch.

    Accepts strict JSON ({"Target Character": ["(S, P, O)", ...]}) and
    degrades to scanning for parenthesized tuples. Entries that do not split
    into three parts, carry an unknown predicate, or name a foreign subject
    are quarantined into `rejects` rather than dropped.
    """
    from .util import strip_code_fences

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
    batch_character = character
    for ordinal, entry in enumerate(entries):
        parts = _split_triple_entry(entry)
        if parts is None:
            rejects.append(RejectedEntry(entry, "malformed triple: need (subject, predicate, object)"))
            continue
        subject, predicate, obj = parts
        if batch_character is None:
            batch_character = subject
        if normalize_name(subject) != normalize_name(batch_character):
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
    if batch_character is None:
        raise UnparseableResponse("no well-formed triple entries in response")
    return TripleBatch(
        character=batch_character,
        plot_index=plot_index,
        triples=triples,
        raw_response=text,
        rejects=rejects,
    )


# --- validation ----------------------------------------------------------------

class ViolationKind(Enum):
    PRONOUN_IN_OBJECT = "pronoun_in_object"
    SUBJECT_MISMATCH = "subject_mismatch"
    UNKNOWN_TARGET = "unknown_target"
    DIMENSION_MISMATCH = "dimension_mismatch"


@dataclass
class Violation:
    kind: ViolationKind
    detail: str


def validate_triple(
    triple: MentalStateTriple,
    character: str,
    visible_cast: set[str] | list[str],
    known_names: set[str] | None = None,
) -> list[Violation]:
    """Perspective and well-formedness checks; returns all violations found."""
    violations: list[Violation] = []
    pronouns = sorted({m.group(0).casefold() for m in _PRONOUN_RE.finditer(triple.object)})
    if pronouns:
        violations.append(
            Violation(ViolationKind.PRONOUN_IN_OBJECT, f"object uses pronoun(s) {pronouns}")
        )
    if normalize_name(triple.subject) != normalize_name(character):
        violations.append(
            Violation(
                ViolationKind.SUBJECT_MISMATCH,
                f"subject {triple.subject!r} is not {character!r}",
            )
        )
    if triple.target is not None:
        allowed = {normalize_name(n) for n in visible_cast}
        if known_names:
            allowed.update(normalize_name(n) for n in known_names)
        if normalize_name(triple.target) not in allowed:
            violations.append(
                Violation(ViolationKind.UNKNOWN_TARGET, f"target {triple.target!r} not in cast")
            )
    try:
        expected = classify_dimension(triple.predicate_raw)
        if expected is not triple.dimension:
            violations.append(
                Violation(
                    ViolationKind.DIMENSION_MISMATCH,
                    f"predicate classifies as {expected.label}, triple says {triple.dimension.label}",
                )
            )
    except UnknownPredicate:
        violations.append(
            Violation(ViolationKind.DIMENSION_MISMATCH, "predicate matches no dimension stem")
        )
    return violations


# --- prompt building -------------------------------------------------------------

def load_template(name: str, override: str | None = None) -> Template:
    """Load a prompt template asset, or a caller-supplied override file."""
    if override:
        return Template(Path(override).read_text(encoding="utf-8"))
    text = resources.files("tomtrace.templates").joinpath(name).read_text(encoding="utf-8")
    return Template(text)


def character_speaks(character: str, conversations: list[Conversation]) -> bool:
    wanted = normalize_name(character)
    return any(
        normalize_name(turn.speaker) == wanted
        for conv in conversations
        for turn in conv.turns
    )


def render_dialogues(conversations: list[Conversation]) -> str:
    blocks = []
    for conv in conversations:
        lines = []
        if conv.environment:
            lines.append(f"Environment: {conv.environment}")
        lines.extend(render_turn(turn) for turn in conv.turns)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def build_extraction_prompt(
    plot: Plot,
    conversations: list[Conversation],
    character: str,
    previous_triples: list[MentalStateTriple],
    *,
    model_id: str,
    template_override: str | None = None,
    temperature: float = 0.0,
    max_output_tokens: int = 2048,
) -> ChatRequest:
    """Instantiate the extraction template for one character and plot."""
    if not character_speaks(character, conversations):
        raise CharacterAbsent(f"{character!r} speaks in no conversation of plot {plot.index}")
    ordered = sorted(previous_triples, key=lambda t: t.plot_index)
    prompt = load_template("triple_extraction.txt", template_override).substitute(
        plot_summary=plot.summary,
        scenario=plot.scenario,
        dialogues=render_dialogues(conversations),
        character=character,
        previous_triples="\n".join(render_triple(t) for t in ordered),
    )
    return ChatRequest(
        model_id=model_id,
        messages=(("user", prompt),),
        temperature=temperature,
        max_output_tokens=max_output_tokens,
    )


# --- records and the extraction stage ----------------------------------------------

def triple_to_record(book_id: str, character: str, triple: MentalStateTriple) -> dict:
    return {
        "book_id": book_id,
        "character": character,
        "plot_index": triple.plot_index,
        "id": triple.id,
        "subject": triple.subject,
        "predicate": triple.predicate_raw,
        "dimension": triple.dimension.value,
        "target": triple.target,
        "object": triple.object,
    }


def triple_from_record(rec: dict) -> MentalStateTriple:
    return MentalStateTriple(
        id=rec["id"],
        subject=rec["subject"],
        predicate_raw=rec["predicate"],
        dimension=Dimension(rec["dimension"]),
        target=rec.get("target"),
        object=rec["object"],
        plot_index=rec["plot_index"],
    )


def _reject_record(book_id: str, character: str, plot_index: int, raw: str, reason: str) -> dict:
    return {"book_id": book_id, "character": character, "plot_index": plot_index, "raw": raw, "reason": reason}


@dataclass
class Extraction:
    """Extraction output records, in character -> plot order."""

    triples: list[dict] = field(default_factory=list)
    rejects: list[dict] = field(default_factory=list)
    rejected: int = 0  # entries rejected from parsed responses; unparseable responses are not counted

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
    template_override: str | None,
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
            logger.warning("%s/%s/p%d: %s", book.id, character, plot.index, exc)
            out.rejects.append(_reject_record(book.id, character, plot.index, response.text, str(exc)))
            continue
        visible_cast = sorted({name for conv in convs for name in conv.cast})
        kept: list[MentalStateTriple] = []
        for triple in batch.triples:
            violations = validate_triple(triple, character, visible_cast, known_names)
            if violations and strict:
                reason = "; ".join(v.detail for v in violations)
                batch.rejects.append(RejectedEntry(raw=render_triple(triple), reason=reason))
                continue
            if violations:
                logger.info(
                    "%s/%s/p%d: kept triple with violations: %s",
                    book.id,
                    character,
                    plot.index,
                    [v.kind.value for v in violations],
                )
            kept.append(triple)
        out.triples += [triple_to_record(book.id, character, t) for t in kept]
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
    strict: bool = False,
    template_override: str | None = None,
) -> dict[str, Extraction]:
    """Extract every speaker's triples through every book, keyed by book id.

    Each (book, character) chain is sequential; chains run concurrently on
    the gateway's runner and are merged back in book -> character order.
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


def load_kept_triples(triples_dir: Path) -> list[dict]:
    """Every book's kept triple records; reject files are skipped."""
    if not triples_dir.is_dir():
        raise MissingUpstreamArtifact(f"no triples under {triples_dir}; run extract")
    return [
        rec
        for path in sorted(triples_dir.glob("*.jsonl"))
        if not path.name.endswith(".rejects.jsonl")
        for rec in read_jsonl(path)
    ]


def export_triple_review(records: list[dict], path: Path) -> int:
    """Write an audit CSV with blank verdict columns; returns the row count.

    Export only: no importer reads the verdicts back.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIPLE_REVIEW_COLUMNS)
        for rec in records:
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
    return len(records)
