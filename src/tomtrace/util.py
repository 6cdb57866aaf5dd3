"""Small shared helpers: hashing, rounding, name normalization, record files."""

from __future__ import annotations

import hashlib
import json
import random
import re
from decimal import Decimal, ROUND_HALF_UP
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable


def normalize_name(name: str) -> str:
    """Collapse whitespace and casefold, for name comparison only."""
    return " ".join(name.split()).casefold()


def clean_name(name: str) -> str:
    """Collapse whitespace but keep the original casing."""
    return " ".join(name.split())


def slugify(text: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", text.casefold()).strip("-")
    return slug or "untitled"


def stable_hash(*parts: object, length: int = 12) -> str:
    """Deterministic short id from the given parts."""
    payload = "\x1f".join(str(p) for p in parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:length]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def canonical_json(obj: object) -> str:
    """Stable serialization used for digests and integrity hashes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def write_jsonl(path: Path | str, records: Iterable[dict]) -> Path:
    """Write one JSON object per line, non-ASCII kept as is; creates the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")
    return path


def read_jsonl(path: Path | str) -> list[dict]:
    """Records of a file written by `write_jsonl`; blank lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_json(path: Path | str, obj: object) -> Path:
    """Write one indented, key-sorted JSON document (manifests, statistics)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def sample(items: list, rate: float, seed: int | None, *, key: Callable) -> list:
    """A seeded share of `items`, in `key` order; rate 1.0 keeps every item."""
    ordered = sorted(items, key=key)
    if rate >= 1.0:
        return ordered
    count = round(len(ordered) * rate)
    rng = random.Random(seed)
    picked = rng.sample(range(len(ordered)), count)
    return [ordered[i] for i in sorted(picked)]


def round_half_up(value: Fraction | int | float, places: int = 2) -> Decimal:
    """Round with ties away from zero, the convention used in every report."""
    if isinstance(value, Fraction):
        dec = Decimal(value.numerator) / Decimal(value.denominator)
    else:
        dec = Decimal(str(value))
    quantum = Decimal(1).scaleb(-places)
    return dec.quantize(quantum, rounding=ROUND_HALF_UP)


def format_half_up(value: Fraction | int | float, places: int = 2) -> str:
    return str(round_half_up(value, places))


_FENCE_RE = re.compile(r"^```[a-zA-Z0-9_-]*\s*\n(.*)\n?```\s*$", re.DOTALL)


def strip_code_fences(text: str) -> str:
    """Drop one enclosing markdown fence if the whole payload is fenced."""
    m = _FENCE_RE.match(text.strip())
    return m.group(1) if m else text
