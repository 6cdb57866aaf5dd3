"""Perspective-aware temporal knowledge graph over mental-state triples.

Each edge holds over one validity interval [plot_index, valid_to): it is
believed from its own plot until the plot of the batch that superseded or
retired it (valid_to is None while it is active). `state_at(character, t)`
is one filter over that character's edges. The supersede links (Refined or
Contradicted) and the retirement records are the history that explains why
an interval closed; `load_kg` rebuilds valid_to from them, so it is never
written to disk. Supersede links always run from an earlier plot to a
strictly later one and never form cycles. Batches for one character must
arrive in non-decreasing plot order.

The config's `merge` section (`config.MergeSection`), taken as is, picks
the merge mode and holds the threshold and the contradiction rules. The
modes' semantics, pinned here because they drive every historical query:

trust_llm_diff - the batch (produced by a model that already saw the
previous triples) becomes the character's new active set. Diffing against
the prior active set records: unchanged (exact normalized predicate+object
match; the old edge is kept), refined/contradicted (same dimension and
target, different object; old edge superseded with a link to the new edge),
and retired (old active with no counterpart in the batch; recorded with the
batch plot, no link). A link is only legal when the old edge's plot index is
strictly lower than the new one's; a same-plot replacement is recorded as a
retirement plus an addition.

deterministic_merge - exact duplicates are skipped; a batch triple with the
same dimension and target as an active edge supersedes it (Refined) when
the Jaccard overlap of the lowercased object tokens reaches
`jaccard_threshold` and the old edge is strictly earlier; otherwise both
stay active. Nothing is ever retired in this mode.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from pathlib import Path

from .config import MergeSection
from .errors import (
    CorruptGraphFile,
    NonMonotoneInsert,
    UnknownCharacter,
)
from .triples import Dimension, MentalStateTriple, TripleBatch, triple_fields, triple_from_record
from .util import normalize_name, sha256_text, write_atomic


class SupersedeReason(Enum):
    REFINED = "refined"
    CONTRADICTED = "contradicted"


class SupersedeLink:
    __slots__ = ("old_id", "new_id", "reason")

    def __init__(self, old_id: str, new_id: str, reason: SupersedeReason) -> None:
        self.old_id = old_id
        self.new_id = new_id
        self.reason = reason


class RetireRecord:
    __slots__ = ("triple_id", "plot_index")

    def __init__(self, triple_id: str, plot_index: int) -> None:
        self.triple_id = triple_id
        self.plot_index = plot_index


_TOKEN_RE = re.compile(r"[a-z']+")


def _tokens(text: str) -> set[str]:
    return set(_TOKEN_RE.findall(text.casefold()))


def jaccard(a: str, b: str) -> float:
    ta, tb = _tokens(a), _tokens(b)
    if not ta and not tb:
        return 1.0
    union = ta | tb
    return len(ta & tb) / len(union)


def _has_negation(text: str, cues: list[str]) -> bool:
    lowered = " " + " ".join(_TOKEN_RE.findall(text.casefold())) + " "
    for cue in cues:
        if f" {cue} " in lowered:
            return True
    return "n't" in text.casefold()


def is_contradiction(old_obj: str, new_obj: str, merge: MergeSection) -> bool:
    """Polarity flip (by `merge.negation_cues`) or one of `merge.antonym_pairs` between two objects.

    With no antonym pairs a same-key update is a contradiction only when a negation cue flips.
    """
    if _has_negation(old_obj, merge.negation_cues) != _has_negation(new_obj, merge.negation_cues):
        return True
    old_tokens, new_tokens = _tokens(old_obj), _tokens(new_obj)
    for a, b in merge.antonym_pairs:
        a, b = a.casefold(), b.casefold()
        if (a in old_tokens and b in new_tokens) or (b in old_tokens and a in new_tokens):
            return True
    return False


class ChangeLog:
    __slots__ = ("character", "plot_index", "unchanged", "added", "refined", "contradicted", "retired")

    def __init__(self, character: str, plot_index: int) -> None:
        self.character = character
        self.plot_index = plot_index
        self.unchanged: list[str] = []
        self.added: list[str] = []
        self.refined: list[SupersedeLink] = []
        self.contradicted: list[SupersedeLink] = []
        self.retired: list[str] = []


def changelog_to_record(log: ChangeLog) -> dict:
    """One changelog line: edge ids per outcome, links as [old, new] pairs."""
    return {
        "character": log.character,
        "plot_index": log.plot_index,
        "unchanged": log.unchanged,
        "added": log.added,
        "refined": [[l.old_id, l.new_id] for l in log.refined],
        "contradicted": [[l.old_id, l.new_id] for l in log.contradicted],
        "retired": log.retired,
    }


class TemporalKG:
    __slots__ = ("book_id", "plot_count", "nodes", "edges", "supersede_links", "retirements", "index")

    def __init__(self, book_id: str, plot_count: int | None = None) -> None:
        self.book_id = book_id
        self.plot_count = plot_count
        # character -> the last plot inserted for it
        self.nodes: dict[str, int] = {}
        self.edges: dict[str, MentalStateTriple] = {}
        self.supersede_links: list[SupersedeLink] = []
        self.retirements: list[RetireRecord] = []
        # character -> edge ids in insertion order
        self.index: dict[str, list[str]] = {}

    def name_for(self, character: str) -> str:
        """The node name that `character` matches after `normalize_name`."""
        wanted = normalize_name(character)
        for name in self.nodes:
            if normalize_name(name) == wanted:
                return name
        raise UnknownCharacter(f"{character!r} has no node in graph for {self.book_id!r}")


def _content_key(predicate: str, obj: str) -> tuple[str, str]:
    return (normalize_name(predicate), normalize_name(obj))


def _group_key(triple: MentalStateTriple) -> tuple[Dimension, str | None]:
    target = normalize_name(triple.target) if triple.target else None
    return (triple.dimension, target)


def _active_edges(kg: TemporalKG, character: str) -> list[MentalStateTriple]:
    return [kg.edges[i] for i in kg.index.get(character, []) if kg.edges[i].valid_to is None]


def _register_edge(kg: TemporalKG, character: str, triple: MentalStateTriple) -> str:
    edge_id = triple.id
    while edge_id in kg.edges:  # same-content reinsert after retirement
        edge_id = f"{edge_id}+"
    triple.id = edge_id
    kg.edges[edge_id] = triple
    kg.index.setdefault(character, []).append(edge_id)
    return edge_id


def insert_batch(kg: TemporalKG, batch: TripleBatch, merge: MergeSection | None = None) -> ChangeLog:
    """Insert one extraction batch under `merge` (None: the section's defaults); mutates the graph, returns the diff."""
    if merge is None:
        merge = MergeSection()
    character = batch.character
    last_plot = kg.nodes.setdefault(character, 0)
    if batch.plot_index < last_plot:
        raise NonMonotoneInsert(
            f"{character!r}: batch plot {batch.plot_index} precedes already inserted plot {last_plot}"
        )

    # Dedupe within the batch on normalized content, keeping first occurrences.
    incoming: list[MentalStateTriple] = []
    seen_content: set[tuple[str, str]] = set()
    for triple in batch.triples:
        key = _content_key(triple.predicate_raw, triple.object)
        if key in seen_content:
            continue
        seen_content.add(key)
        incoming.append(triple)

    log = ChangeLog(character=character, plot_index=batch.plot_index)
    if merge.mode == "trust_llm_diff":
        _insert_trust_llm_diff(kg, character, batch.plot_index, incoming, merge, log)
    else:
        _insert_deterministic(kg, character, batch.plot_index, incoming, merge.jaccard_threshold, log)
    kg.nodes[character] = batch.plot_index
    return log


def _insert_trust_llm_diff(
    kg: TemporalKG,
    character: str,
    plot_index: int,
    incoming: list[MentalStateTriple],
    merge: MergeSection,
    log: ChangeLog,
) -> None:
    active = _active_edges(kg, character)
    old_by_content: dict[tuple[str, str], MentalStateTriple] = {}
    for edge in active:
        old_by_content.setdefault(_content_key(edge.predicate_raw, edge.object), edge)

    remaining_new: list[MentalStateTriple] = []
    matched_old_ids: set[str] = set()
    for triple in incoming:
        hit = old_by_content.get(_content_key(triple.predicate_raw, triple.object))
        if hit is not None and hit.id not in matched_old_ids:
            matched_old_ids.add(hit.id)
            log.unchanged.append(hit.id)
        else:
            remaining_new.append(triple)

    new_by_group: dict[tuple, list[MentalStateTriple]] = {}
    for triple in remaining_new:
        new_by_group.setdefault(_group_key(triple), []).append(triple)

    # Insert surviving batch triples first so links can point at real edges.
    for triple in remaining_new:
        triple.plot_index = plot_index
        _register_edge(kg, character, triple)
        log.added.append(triple.id)

    for edge in active:
        if edge.id in matched_old_ids:
            continue
        successors = new_by_group.get(_group_key(edge), [])
        linkable = [n for n in successors if edge.plot_index < n.plot_index]
        if linkable:
            successor = linkable[0]
            reason = (
                SupersedeReason.CONTRADICTED
                if is_contradiction(edge.object, successor.object, merge)
                else SupersedeReason.REFINED
            )
            link = SupersedeLink(old_id=edge.id, new_id=successor.id, reason=reason)
            kg.supersede_links.append(link)
            edge.valid_to = plot_index
            (log.contradicted if reason is SupersedeReason.CONTRADICTED else log.refined).append(link)
        else:
            # No strictly-later same-key successor: the batch dropped it.
            kg.retirements.append(RetireRecord(triple_id=edge.id, plot_index=plot_index))
            edge.valid_to = plot_index
            log.retired.append(edge.id)


def _insert_deterministic(
    kg: TemporalKG,
    character: str,
    plot_index: int,
    incoming: list[MentalStateTriple],
    threshold: float,
    log: ChangeLog,
) -> None:
    for triple in incoming:
        active = _active_edges(kg, character)
        exact = next(
            (
                e
                for e in active
                if _content_key(e.predicate_raw, e.object)
                == _content_key(triple.predicate_raw, triple.object)
            ),
            None,
        )
        if exact is not None:
            log.unchanged.append(exact.id)
            continue
        to_supersede = [
            e
            for e in active
            if _group_key(e) == _group_key(triple)
            and e.plot_index < plot_index
            and jaccard(e.object, triple.object) >= threshold
        ]
        triple.plot_index = plot_index
        _register_edge(kg, character, triple)
        log.added.append(triple.id)
        for edge in to_supersede:
            link = SupersedeLink(old_id=edge.id, new_id=triple.id, reason=SupersedeReason.REFINED)
            kg.supersede_links.append(link)
            edge.valid_to = plot_index
            log.refined.append(link)


# --- queries -------------------------------------------------------------------

def state_at(kg: TemporalKG, character: str, plot_t: int) -> list[MentalStateTriple]:
    """Triples believed active at plot_t, ordered by (plot, insertion).

    A character with no node has none: one whose every extraction was
    rejected or unparseable never entered the graph.
    """
    try:
        name = kg.name_for(character)
    except UnknownCharacter:
        return []
    if plot_t < 1:
        raise ValueError(f"plot_t must be >= 1, got {plot_t}")
    if kg.plot_count is not None and plot_t > kg.plot_count:
        raise ValueError(f"plot_t {plot_t} beyond book plot count {kg.plot_count}")
    edges = (kg.edges[i] for i in kg.index.get(name, []))
    chosen = [e for e in edges if e.plot_index <= plot_t and (e.valid_to is None or plot_t < e.valid_to)]
    return sorted(chosen, key=lambda t: t.plot_index)  # stable: keeps insertion order


class TimelineEntry:
    __slots__ = ("plot_index", "triple", "supersede_reason", "superseded_id")

    def __init__(
        self,
        plot_index: int,
        triple: MentalStateTriple,
        supersede_reason: SupersedeReason | None = None,
        superseded_id: str | None = None,
    ) -> None:
        self.plot_index = plot_index
        self.triple = triple
        self.supersede_reason = supersede_reason
        self.superseded_id = superseded_id


def timeline(
    kg: TemporalKG,
    character: str,
    dimension: Dimension | None = None,
) -> list[TimelineEntry]:
    """Chronological list of a character's edges with supersede annotations."""
    name = kg.name_for(character)
    by_new_id = {link.new_id: link for link in kg.supersede_links}
    entries = []
    for edge_id in kg.index.get(name, []):
        edge = kg.edges[edge_id]
        if dimension is not None and edge.dimension is not dimension:
            continue
        link = by_new_id.get(edge_id)
        entries.append(
            TimelineEntry(
                plot_index=edge.plot_index,
                triple=edge,
                supersede_reason=link.reason if link else None,
                superseded_id=link.old_id if link else None,
            )
        )
    return sorted(entries, key=lambda e: e.plot_index)


def check_invariants(kg: TemporalKG) -> None:
    """Raise AssertionError when structural graph invariants do not hold."""
    # Links that strictly increase the plot index cannot form a cycle.
    for link in kg.supersede_links:
        assert link.old_id in kg.edges, f"dangling old_id {link.old_id}"
        assert link.new_id in kg.edges, f"dangling new_id {link.new_id}"
        old, new = kg.edges[link.old_id], kg.edges[link.new_id]
        assert old.plot_index < new.plot_index, (
            f"link {link.old_id}->{link.new_id} not time-increasing "
            f"({old.plot_index} !< {new.plot_index})"
        )
    for character, ids in kg.index.items():
        assert character in kg.nodes, f"index references unknown character {character!r}"
        for edge_id in ids:
            edge = kg.edges[edge_id]
            assert normalize_name(edge.subject) == normalize_name(character)
            if kg.plot_count is not None:
                assert 1 <= edge.plot_index <= kg.plot_count


def build_graph(
    book_id: str,
    plot_count: int,
    records: list[dict],
    merge: MergeSection,
) -> tuple[TemporalKG, list[dict]]:
    """Fold a book's triple records into a graph under `merge`, one batch per (character, plot).

    Batches are inserted in the order their first record appears. Returns the
    checked graph and one changelog record per batch.
    """
    batches: dict[tuple[str, int], list[MentalStateTriple]] = {}
    for rec in records:
        batches.setdefault((rec["character"], rec["plot_index"]), []).append(triple_from_record(rec))
    kg = TemporalKG(book_id=book_id, plot_count=plot_count)
    changelog = [
        changelog_to_record(
            insert_batch(kg, TripleBatch(character=character, plot_index=plot_index, triples=triples), merge)
        )
        for (character, plot_index), triples in batches.items()
    ]
    check_invariants(kg)
    return kg, changelog


# --- persistence ------------------------------------------------------------------

def save_kg(kg: TemporalKG, path: Path | str) -> Path:
    """Write the graph as JSONL with an integrity-hashed header."""
    records = [
        {"record": "node", "name": name, "last_insert_plot": last_plot}
        for name, last_plot in kg.nodes.items()
    ]
    for character, ids in kg.index.items():
        for edge_id in ids:
            edge = kg.edges[edge_id]
            records.append(
                {
                    "record": "edge",
                    **triple_fields(edge),
                    "plot_index": edge.plot_index,
                    "character": character,
                }
            )
    records += [
        {"record": "link", "old_id": link.old_id, "new_id": link.new_id, "reason": link.reason.value}
        for link in kg.supersede_links
    ]
    records += [
        {"record": "retire", "triple_id": retire.triple_id, "plot_index": retire.plot_index}
        for retire in kg.retirements
    ]
    body = [json.dumps(rec, ensure_ascii=False) for rec in records]
    header = {
        "record": "header",
        "book_id": kg.book_id,
        "plot_count": kg.plot_count,
        "edge_count": len(kg.edges),
        "integrity": sha256_text("\n".join(body)),
    }
    lines = [json.dumps(header, ensure_ascii=False), *body]
    return write_atomic(path, ((line + "\n").encode("utf-8") for line in lines))


def load_kg(path: Path | str) -> TemporalKG:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise CorruptGraphFile(f"cannot read {path}: {exc}") from exc
    # "\n" only: splitlines() would also split at U+2028 and the like, which records keep raw.
    lines = text.removesuffix("\n").split("\n") if text else []
    if not lines:
        raise CorruptGraphFile(f"{path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CorruptGraphFile(f"{path}: bad header: {exc}") from exc
    if not isinstance(header, dict) or header.get("record") != "header":
        raise CorruptGraphFile(f"{path}: first record is not a header")
    book_id, plot_count = header.get("book_id"), header.get("plot_count")
    if not isinstance(book_id, str):
        raise CorruptGraphFile(f"{path}: header book_id {book_id!r} is not a string")
    if plot_count is not None and type(plot_count) is not int:
        raise CorruptGraphFile(f"{path}: header plot_count {plot_count!r} is not an integer or null")
    body_lines = lines[1:]
    if sha256_text("\n".join(body_lines)) != header.get("integrity"):
        raise CorruptGraphFile(f"{path}: integrity hash mismatch")
    kg = TemporalKG(book_id=book_id, plot_count=plot_count)
    for n, line in enumerate(body_lines, start=2):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorruptGraphFile(f"{path}:{n}: bad record: {exc}") from exc
        if not isinstance(rec, dict):
            raise CorruptGraphFile(f"{path}:{n}: record is not a JSON object")
        kind = rec.get("record")
        try:
            if kind == "node":
                name = rec["name"]  # read before the plot, so a record lacking both names "name"
                kg.nodes[name] = rec["last_insert_plot"]
            elif kind == "edge":
                triple = triple_from_record(rec)
                kg.edges[triple.id] = triple
                kg.index.setdefault(rec["character"], []).append(triple.id)
            elif kind == "link":
                kg.supersede_links.append(
                    SupersedeLink(
                        old_id=rec["old_id"],
                        new_id=rec["new_id"],
                        reason=SupersedeReason(rec["reason"]),
                    )
                )
            elif kind == "retire":
                kg.retirements.append(RetireRecord(triple_id=rec["triple_id"], plot_index=rec["plot_index"]))
            else:
                raise CorruptGraphFile(f"{path}:{n}: unknown record kind {kind!r}")
        except KeyError as exc:
            raise CorruptGraphFile(f"{path}:{n}: {kind} record lacks field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise CorruptGraphFile(f"{path}:{n}: bad {kind} record: {exc}") from exc
    if len(kg.edges) != header.get("edge_count"):
        raise CorruptGraphFile(
            f"{path}: edge count {len(kg.edges)} does not match header {header.get('edge_count')}"
        )
    try:
        for link in kg.supersede_links:
            kg.edges[link.old_id].valid_to = kg.edges[link.new_id].plot_index
        for retire in kg.retirements:
            kg.edges[retire.triple_id].valid_to = retire.plot_index
    except KeyError as exc:
        raise CorruptGraphFile(f"{path}: link or retirement names unknown edge {exc}") from exc
    return kg

