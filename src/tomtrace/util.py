"""Small shared helpers: hashing, rounding, name normalization, record files, logging."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import re
import sys
import threading
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from .errors import IoError, MalformedRecord, TomtraceError, UnreadableSource

T = TypeVar("T")

# `logging`'s level numbers, so a record's level is known before it is loaded.
INFO, WARNING = 20, 30
# `logging.basicConfig` arguments the CLI asked for, applied at the first record that goes through `logging`.
_basic_config: dict = {}
_basic_config_lock = threading.Lock()


def defer_basic_config(**kwargs: object) -> None:
    """Have the first record a `LazyLogger` emits call `logging.basicConfig(**kwargs)` first.

    `kwargs["level"]` (WARNING if not given) is also the least level of a
    record that loads `logging` while nothing else has loaded it.
    """
    global _basic_config
    _basic_config = kwargs


class LazyLogger:
    """`logging.getLogger(name)`, with `logging` imported at the first record it will emit.

    While `logging` is not loaded, nothing can have set a level or added a
    handler, so a record below the deferred level (else WARNING, as for an
    unconfigured root logger) would be dropped, and is dropped without loading
    it. Once anything has loaded `logging`, every record goes through it.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._logger = None

    def info(self, msg: str, *args: object) -> None:
        self._log(INFO, msg, args)

    def warning(self, msg: str, *args: object) -> None:
        self._log(WARNING, msg, args)

    def _log(self, level: int, msg: str, args: tuple) -> None:
        logger = self._logger
        if logger is None:
            if "logging" not in sys.modules and level < _basic_config.get("level", WARNING):
                return
            import logging

            logger = self._logger = logging.getLogger(self.name)
        if _basic_config:
            _apply_basic_config()
        logger.log(level, msg, *args, stacklevel=3)  # the caller's file and line, not this method's


def _apply_basic_config() -> None:
    global _basic_config
    import logging

    with _basic_config_lock:
        if _basic_config:  # cleared only once applied, so no record overtakes the configuration
            logging.basicConfig(**_basic_config)
            _basic_config = {}


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


def decode_text(data: bytes) -> str:
    """UTF-8 `data` with universal newlines, as a file opened for text reads it."""
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def canonical_json(obj: object) -> str:
    """Stable serialization used for digests and integrity hashes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def write_atomic(path: Path | str, chunks: Iterable[bytes]) -> Path:
    """Replace `path` whole with the chunks; creates the parent directory.

    The chunks go to `.NAME.PID.TID.tmp` beside `path`, which `os.replace` then moves
    over it, so a killed writer leaves the old file or the new one, never a truncated
    one (no fsync: a power loss is not covered). A filesystem failure raises `IoError`.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(partial, "wb") as fh:
                fh.writelines(chunks)
            os.replace(partial, path)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def write_jsonl(path: Path | str, records: Iterable[dict]) -> Path:
    """Write one JSON object per line, non-ASCII kept as is."""
    return write_atomic(path, ((json.dumps(r, ensure_ascii=False) + "\n").encode("utf-8") for r in records))


def read_jsonl(path: Path | str, decode: Callable[[dict], T] = dict) -> list[T]:
    """`decode` of each record of a file written by `write_jsonl`; blank lines are skipped.

    Lines end at b"\\n" only, so a record keeps a raw U+2028 and the like. A line
    that is not UTF-8, not one JSON object, or that `decode` rejects (`KeyError`,
    `TypeError`, `ValueError`, `AttributeError` or a `TomtraceError`) raises
    `MalformedRecord` naming `file:line`; a file that cannot be read raises `UnreadableSource`.
    """
    records = []
    try:
        with open(path, "rb") as fh:
            for n, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                    if not isinstance(record, dict):
                        raise TypeError("not a JSON object")
                    records.append(decode(record))
                except KeyError as exc:
                    raise MalformedRecord(f"{path}:{n}", f"missing field {exc}") from exc
                except json.JSONDecodeError as exc:
                    raise MalformedRecord(f"{path}:{n}", f"invalid JSON: {exc}") from exc
                except (TypeError, ValueError, AttributeError, TomtraceError) as exc:
                    raise MalformedRecord(f"{path}:{n}", str(exc)) from exc
    except OSError as exc:
        raise UnreadableSource(f"cannot read {path}: {exc}") from exc
    return records


def write_json(path: Path | str, obj: object) -> Path:
    """Write one indented, key-sorted JSON document (manifests, statistics)."""
    return write_atomic(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def write_csv(path: Path | str, rows: Iterable[Iterable]) -> Path:
    """Write rows, the header first, in the `csv` module's default dialect (review exports)."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return write_atomic(path, [text.getvalue().encode("utf-8")])


def sample(items: list, rate: float, seed: int | None, *, key: Callable) -> list:
    """A seeded share of `items`, in `key` order; rate 1.0 keeps every item."""
    ordered = sorted(items, key=key)
    if rate >= 1.0:
        return ordered
    count = round(len(ordered) * rate)
    rng = random.Random(seed)
    picked = rng.sample(range(len(ordered)), count)
    return [ordered[i] for i in sorted(picked)]


def format_half_up(p: int, q: int) -> str:
    """`p / q` (a positive `q`) to two places with ties away from zero, the convention
    used in every report. Integer arithmetic: the ratio is never a float."""
    hundredths = (200 * abs(p) + q) // (2 * q)  # floor(100 * |p/q| + 1/2)
    return f"{'-' if p < 0 else ''}{hundredths // 100}.{hundredths % 100:02d}"


_FENCE_RE = re.compile(r"^```[a-zA-Z0-9_-]*\s*\n(.*)\n?```\s*$", re.DOTALL)


def strip_code_fences(text: str) -> str:
    """Drop one enclosing markdown fence if the whole payload is fenced."""
    m = _FENCE_RE.match(text.strip())
    return m.group(1) if m else text


def load_json_reply(body: str) -> object:
    """A model reply as JSON, or else the reply with `{{`/`}}` collapsed (a template's braces echoed back).

    Raises `json.JSONDecodeError` when neither parses. Collapsing a `}}` outside
    a string unbalances valid JSON, so the two readings never parse to different shapes.
    """
    try:
        return json.loads(body)
    except json.JSONDecodeError:
        return json.loads(body.replace("{{", "{").replace("}}", "}"))


def reply_payload(reply: dict) -> object:
    """What a reply object wraps: the value under its first key that casefolds to
    "target character", else the value under its only key; None without either."""
    payload = next((value for key, value in reply.items() if key.casefold() == "target character"), None)
    if payload is None and len(reply) == 1:
        payload = next(iter(reply.values()))
    return payload
