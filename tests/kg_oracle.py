"""Brute-force reference model for the temporal graph merge semantics.

Used by the graph tests: random batches are fed both to the real TemporalKG
and to this flat-list simulation, then states, timelines, and change counts
are compared. Kept deliberately dumb (linear scans, plain dicts) so a bug in
the real implementation cannot hide here too.
"""

from __future__ import annotations

import random
import re

from tomtrace.config import MergeSection
from tomtrace.tkg import (
    TemporalKG,
    check_invariants,
    insert_batch,
    state_at,
    timeline,
)
from tomtrace.triples import Dimension, TripleBatch, make_triple

# Fixed pool: predicate -> (dimension value, target). Dimensions and targets
# are hand-assigned so the oracle never calls the real classifier.
PREDICATES = {
    "Believes": ("belief", None),
    "BELIEVES": ("belief", None),
    "BelievesAboutCordelia": ("belief", "Cordelia"),
    "Feels": ("emotion", None),
    "FeelsTowardsCordelia": ("emotion", "Cordelia"),
    "FeelsTowardsKent": ("emotion", "Kent"),
    "Desires": ("desire", None),
    "DesiresFor Kent": ("desire", "Kent"),
    "desiresFor  Kent": ("desire", "Kent"),
    "Intends": ("intention", None),
    "IntendsTo": ("intention", None),
}
PREDICATE_LIST = sorted(PREDICATES)

# Objects engineered for collisions: negation flips, a warm/cold antonym
# pair, high token overlap, case/space duplicates, and token-free strings.
OBJECTS = [
    "trusts the king",
    "does not trust the king",
    "doesn't trust the king",
    "no longer trusts the king",
    "feels warm affection for the king",
    "feels cold contempt for the king",
    "seeks shelter from the storm",
    "seeks shelter from storm",
    "watches the gathering storm",
    "rest",
    "Rest ",
    "!!!",
    "???",
]

CHARACTERS = ("Kent", "Cordelia", "The Fool")
ANTONYMS = [("warm", "cold")]
NEGATION_CUES = ("not", "never", "no longer")

_WORD = re.compile(r"[a-z']+")


def norm(text: str) -> str:
    return " ".join(text.split()).casefold()


def words(text: str) -> set[str]:
    return set(_WORD.findall(text.casefold()))


def overlap(a: str, b: str) -> float:
    wa, wb = words(a), words(b)
    if not wa and not wb:
        return 1.0
    return len(wa & wb) / len(wa | wb)


def negated(text: str) -> bool:
    padded = " " + " ".join(_WORD.findall(text.casefold())) + " "
    if any(f" {cue} " in padded for cue in NEGATION_CUES):
        return True
    return "n't" in text.casefold()


def contradicts(old_obj: str, new_obj: str) -> bool:
    if negated(old_obj) != negated(new_obj):
        return True
    wo, wn = words(old_obj), words(new_obj)
    for a, b in ANTONYMS:
        if (a in wo and b in wn) or (b in wo and a in wn):
            return True
    return False


class OracleState:
    def __init__(self):
        self.chars: dict[str, dict] = {}
        self.links: list[tuple[int, int, str]] = []
        self.retires: list[tuple[int, int]] = []
        self.by_seq: dict[int, dict] = {}
        self._seq = 0

    def _char(self, name: str) -> dict:
        return self.chars.setdefault(norm(name), {"order": []})

    def _new_edge(self, plot: int, predicate: str, obj: str) -> dict:
        dim, target = PREDICATES[predicate]
        self._seq += 1
        edge = {
            "seq": self._seq,
            "plot": plot,
            "predicate": predicate,
            "object": obj,
            "dim": dim,
            "group": (dim, norm(target) if target else None),
            "active": True,
        }
        self.by_seq[edge["seq"]] = edge
        return edge

    def insert(self, character: str, plot: int, items, mode: str, threshold: float) -> dict:
        ch = self._char(character)
        counts = {"unchanged": 0, "added": 0, "refined": 0, "contradicted": 0, "retired": 0}

        deduped = []
        seen = set()
        for predicate, obj in items:
            key = (norm(predicate), norm(obj))
            if key not in seen:
                seen.add(key)
                deduped.append((predicate, obj))

        if mode == "trust":
            self._insert_trust(ch, plot, deduped, counts)
        else:
            self._insert_deterministic(ch, plot, deduped, counts, threshold)
        return counts

    def _insert_trust(self, ch, plot, deduped, counts):
        active = [e for e in ch["order"] if e["active"]]
        old_by_content = {}
        for e in active:
            old_by_content.setdefault((norm(e["predicate"]), norm(e["object"])), e)

        matched = set()
        remaining = []
        for predicate, obj in deduped:
            hit = old_by_content.get((norm(predicate), norm(obj)))
            if hit is not None and hit["seq"] not in matched:
                matched.add(hit["seq"])
                counts["unchanged"] += 1
            else:
                remaining.append((predicate, obj))

        new_edges = []
        for predicate, obj in remaining:
            edge = self._new_edge(plot, predicate, obj)
            ch["order"].append(edge)
            new_edges.append(edge)
            counts["added"] += 1
        by_group = {}
        for edge in new_edges:
            by_group.setdefault(edge["group"], []).append(edge)

        for e in active:
            if e["seq"] in matched:
                continue
            successors = [n for n in by_group.get(e["group"], []) if e["plot"] < n["plot"]]
            if successors:
                new = successors[0]
                reason = "contradicted" if contradicts(e["object"], new["object"]) else "refined"
                self.links.append((e["seq"], new["seq"], reason))
                e["active"] = False
                counts[reason] += 1
            else:
                self.retires.append((e["seq"], plot))
                e["active"] = False
                counts["retired"] += 1

    def _insert_deterministic(self, ch, plot, deduped, counts, threshold):
        for predicate, obj in deduped:
            active = [e for e in ch["order"] if e["active"]]
            key = (norm(predicate), norm(obj))
            if any((norm(e["predicate"]), norm(e["object"])) == key for e in active):
                counts["unchanged"] += 1
                continue
            dim, target = PREDICATES[predicate]
            group = (dim, norm(target) if target else None)
            losers = [
                e for e in active
                if e["group"] == group and e["plot"] < plot and overlap(e["object"], obj) >= threshold
            ]
            edge = self._new_edge(plot, predicate, obj)
            ch["order"].append(edge)
            counts["added"] += 1
            for e in losers:
                self.links.append((e["seq"], edge["seq"], "refined"))
                e["active"] = False
                counts["refined"] += 1

    def state_at(self, character: str, plot_t: int) -> list[tuple]:
        ch = self.chars[norm(character)]
        hidden = {old for old, new, _ in self.links if self.by_seq[new]["plot"] <= plot_t}
        hidden |= {seq for seq, plot in self.retires if plot <= plot_t}
        rows = [e for e in ch["order"] if e["plot"] <= plot_t and e["seq"] not in hidden]
        rows.sort(key=lambda e: e["plot"])
        return [(e["plot"], e["predicate"], e["object"]) for e in rows]

    def timeline(self, character: str, dim: str | None = None) -> list[tuple]:
        ch = self.chars[norm(character)]
        annotation = {}
        for old, new, reason in self.links:
            annotation[new] = (old, reason)
        rows = [e for e in ch["order"] if dim is None or e["dim"] == dim]
        rows.sort(key=lambda e: e["plot"])
        out = []
        for e in rows:
            old_seq, reason = annotation.get(e["seq"], (None, None))
            old = self.by_seq[old_seq] if old_seq is not None else None
            out.append((
                e["plot"], e["predicate"], e["object"], reason,
                (old["plot"], old["predicate"], old["object"]) if old else None,
            ))
        return out


def real_state(kg: TemporalKG, character: str, plot_t: int) -> list[tuple]:
    return [(t.plot_index, t.predicate, t.object) for t in state_at(kg, character, plot_t)]


def real_timeline(kg: TemporalKG, character: str, dim: Dimension | None = None) -> list[tuple]:
    out = []
    for entry in timeline(kg, character, dim):
        old = kg.edges[entry.superseded_id] if entry.superseded_id else None
        out.append((
            entry.plot_index,
            entry.triple.predicate,
            entry.triple.object,
            entry.supersede_reason.value if entry.supersede_reason else None,
            (old.plot_index, old.predicate, old.object) if old else None,
        ))
    return out


def run_random_case(case_id: int) -> TemporalKG:
    """One randomized scenario; asserts real graph == oracle at every step."""
    rng = random.Random(91200 + case_id)
    plot_count = rng.randint(2, 10)
    mode = rng.choice(["trust_llm_diff", "deterministic_merge"])
    mode_name = "trust" if mode == "trust_llm_diff" else "det"
    threshold = rng.choice([0.3, 0.5, 0.8])
    merge = MergeSection(mode=mode, jaccard_threshold=threshold, antonym_pairs=[list(p) for p in ANTONYMS])

    kg = TemporalKG(book_id=f"case-{case_id}", plot_count=plot_count)
    oracle = OracleState()

    characters = rng.sample(CHARACTERS, rng.randint(1, len(CHARACTERS)))
    schedule = []
    for character in characters:
        plots = sorted(rng.randint(1, plot_count) for _ in range(rng.randint(1, 4)))
        for plot in plots:
            items = [
                (rng.choice(PREDICATE_LIST), rng.choice(OBJECTS))
                for _ in range(rng.randint(0, 4))
            ]
            schedule.append((character, plot, items))
    schedule.sort(key=lambda entry: entry[1])  # stable: per-character order kept

    seen_chars = []
    for character, plot, items in schedule:
        if character not in seen_chars:
            seen_chars.append(character)
        triples = [
            make_triple(character, predicate, obj, plot, ordinal=i, book_id=kg.book_id)
            for i, (predicate, obj) in enumerate(items)
        ]
        batch = TripleBatch(character=character, plot_index=plot, triples=triples)
        log = insert_batch(kg, batch, merge)
        expected = oracle.insert(character, plot, items, mode_name, threshold)
        got = {
            "unchanged": len(log.unchanged),
            "added": len(log.added),
            "refined": len(log.refined),
            "contradicted": len(log.contradicted),
            "retired": len(log.retired),
        }
        assert got == expected, f"case {case_id}: changelog {got} != {expected}"
        check_invariants(kg)
        for t in range(1, plot_count + 1):
            assert real_state(kg, character, t) == oracle.state_at(character, t), (
                f"case {case_id}: state({character!r}, {t}) diverged after plot {plot}"
            )

    for character in seen_chars:
        for t in range(1, plot_count + 1):
            assert real_state(kg, character, t) == oracle.state_at(character, t)
        assert real_timeline(kg, character) == oracle.timeline(character)
        for dim in Dimension:
            assert real_timeline(kg, character, dim) == oracle.timeline(character, dim.value)
    return kg
