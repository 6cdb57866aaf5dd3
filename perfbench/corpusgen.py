"""Seeded generator of coser-format books for the benchmark.

A book has `plots` plots drawn from a cast of `cast` characters. Each plot
holds one conversation in which exactly `speakers` characters speak, chosen
by sliding a window over a seeded permutation of the cast, so the number of
(plot, speaker) pairs is the same for every seed. Dialogue lines mix the
object and the "Name: text" forms, use alias names, carry [thought] and
(action) markup, and are interleaved with Environment turns and narration
lines that have no speaker.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

_ONSETS = ("b", "br", "c", "d", "dr", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "io")
_CODAS = ("", "n", "r", "l", "s", "th", "nd", "m")

PLACES = ("harbor", "mill", "chapel", "orchard", "market", "bridge", "tower", "garden", "quarry", "manor")
TOPICS = (
    "inheritance", "ledger", "letter", "wager", "betrothal", "debt", "voyage", "harvest", "feud",
    "promise", "secret", "alliance", "lawsuit", "fever", "rumor", "bargain", "election", "duel",
)
MOODS = ("uneasy", "hopeful", "bitter", "restless", "wary", "elated", "grim", "tender", "anxious")
ACTIONS = ("paces the floor", "folds a letter", "glances at the door", "taps the table", "lowers the lamp")
THOUGHTS = ("This cannot last", "Patience wins", "Trust nobody tonight", "The truth will out")


@dataclass
class BookSpec:
    book_id: str
    title: str
    # plot index (1-based) -> canonical names speaking in that plot, sorted
    speakers: dict[int, list[str]] = field(default_factory=dict)


@dataclass
class CorpusSpec:
    books_dir: Path
    aliases_dir: Path
    books: list[BookSpec]
    plots_per_book: int

    @property
    def total_plots(self) -> int:
        return len(self.books) * self.plots_per_book

    @property
    def speaking_pairs(self) -> int:
        """(book, plot, speaker) triples: one extraction and one genqa call each."""
        return sum(len(names) for book in self.books for names in book.speakers.values())

    def alias_tables(self) -> dict[str, str]:
        return {b.book_id: str(self.aliases_dir / f"{b.book_id}.txt") for b in self.books}


def _word(rng: random.Random, syllables: int) -> str:
    parts = [rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables)]
    return ("".join(parts) + rng.choice(_CODAS)).capitalize()


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.casefold()).strip("-")


def _unique(rng: random.Random, taken: set[str], make) -> str:
    while True:
        value = make()
        if value.casefold() not in taken:
            taken.add(value.casefold())
            return value


def _utterance(rng: random.Random, listener: str) -> str:
    topic, place, mood = rng.choice(TOPICS), rng.choice(PLACES), rng.choice(MOODS)
    speech = f"{listener}, the {topic} at the {place} leaves me {mood}."
    kind = rng.randrange(4)
    if kind == 0:
        return f"({rng.choice(ACTIONS)}) {speech}"
    if kind == 1:
        return f"{speech} [{rng.choice(THOUGHTS)}.]"
    if kind == 2:
        return f"({rng.choice(ACTIONS)}) {speech} [{rng.choice(THOUGHTS)}.]"
    return speech


def generate(
    out_dir: Path | str,
    *,
    seed: int,
    books: int,
    plots: int,
    cast: int,
    speakers: int,
    turns: int,
) -> CorpusSpec:
    """Write `books` coser JSON books plus alias tables under out_dir."""
    if not 2 <= speakers <= cast:
        raise ValueError("need 2 <= speakers <= cast")
    if turns < speakers:
        raise ValueError("every speaker needs a turn: turns >= speakers")
    rng = random.Random(f"corpus:{seed}")
    out_dir = Path(out_dir)
    books_dir, aliases_dir = out_dir / "books", out_dir / "aliases"
    books_dir.mkdir(parents=True, exist_ok=True)
    aliases_dir.mkdir(parents=True, exist_ok=True)
    titles: set[str] = set()
    specs: list[BookSpec] = []
    for _ in range(books):
        title = _unique(rng, titles, lambda: f"The {_word(rng, 2)} of {_word(rng, 2)}")
        first_names: set[str] = set()
        firsts = [_unique(rng, first_names, lambda: _word(rng, 2)) for _ in range(cast)]
        people = [f"{first} {_word(rng, 2)}" for first in firsts]
        spec = BookSpec(book_id=_slug(title), title=title)
        alias_of = dict(zip(people, firsts))
        order = people[:]
        rng.shuffle(order)
        raw_plots = []
        for p in range(1, plots + 1):
            speaking = [order[(p * speakers + j) % cast] for j in range(speakers)]
            spec.speakers[p] = sorted(speaking)
            lines: list = [{"character": "Environment", "message": f"Rain drums on the {rng.choice(PLACES)} roof."}]
            for t in range(turns):
                who = speaking[t % speakers]
                listener = speaking[(t + 1) % speakers]
                name = alias_of[who] if rng.random() < 0.3 else who
                text = _utterance(rng, alias_of[listener])
                if rng.random() < 0.5:
                    lines.append({"character": name, "message": text})
                else:
                    lines.append(f"{name}: {text}")
                if t == turns // 2:
                    lines.append(f"A long silence settles over the {rng.choice(PLACES)}.")
            focus = speaking[0]
            raw_plots.append(
                {
                    "summary": (
                        f"{focus} confronts {speaking[1]} over the {rng.choice(TOPICS)} "
                        f"while the {rng.choice(TOPICS)} at the {rng.choice(PLACES)} hangs unresolved."
                    ),
                    "scenario": f"Evening at the {rng.choice(PLACES)}; the mood is {rng.choice(MOODS)}.",
                    "conversations": [
                        {
                            "environment": f"The {rng.choice(PLACES)} of {title}.",
                            "key_characters": speaking,
                            "dialogues": lines,
                        }
                    ],
                }
            )
        (books_dir / f"{spec.book_id}.json").write_text(
            json.dumps({"title": title, "plots": raw_plots}, indent=1), encoding="utf-8"
        )
        stanzas = [f"{person}\n{alias_of[person]}" for person in people]
        (aliases_dir / f"{spec.book_id}.txt").write_text("\n\n".join(stanzas) + "\n", encoding="utf-8")
        specs.append(spec)
    return CorpusSpec(
        books_dir=books_dir,
        aliases_dir=aliases_dir,
        books=specs,
        plots_per_book=plots,
    )
