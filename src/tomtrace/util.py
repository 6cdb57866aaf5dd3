"""Small shared helpers: hashing, rounding, name normalization, record files and their codec, logging."""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import random
import re
import sys
import threading
from enum import Enum, EnumMeta
from pathlib import Path
from types import GenericAlias
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


def decode_json(text: str | bytes) -> object:
    """`text` as JSON: the one decoder of JSON that comes from outside the package.

    Whatever cannot be decoded raises ValueError: invalid JSON, an integer past
    the interpreter's digit limit, and nesting too deep for its stack.
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


# A record type is declared once, as a tuple of fields in file order: (key, type) for
# a required field, (key, type, default) for one a record may leave out; a field whose
# default is None may also be null. A type is str, int, bool or dict; an Enum of strings;
# a tuple of the strings allowed; list[T]; or a class with FIELDS of its own, nested. A
# class whose records are its instances declares FIELDS with its `__init__` parameters
# and attributes as keys.
_KINDS = {str: "a string", int: "an integer", bool: "true or false", list: "a list", dict: "an object"}
_PLAIN = {str, int, bool, dict, type(None)}
_ABSENT = object()  # the value of a key a record does not have


def encode_record(obj: object, fields: tuple, **given: object) -> dict:
    """`obj` as a record of `fields`: each key's value from `given`, else `obj`'s attribute of that name."""
    record = {}
    for field in fields:
        key = field[0]
        value = given[key] if key in given else getattr(obj, key)
        record[key] = value if type(value) in _PLAIN else _encode(value)
    return record


def _encode(value: object) -> object:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, list):
        return [v if type(v) in _PLAIN else _encode(v) for v in value]
    return encode_record(value, value.FIELDS)


class _Invalid(ValueError):
    """A field that `decode_record` rejects: `problem` of its name, whose steps (keys and
    indices) each enclosing record and list puts at the front of `path`."""

    def __init__(self, problem: Callable[[str], str], *path: str | int) -> None:
        self.problem, self.path = problem, list(path)

    def __str__(self) -> str:
        return self.problem("".join(f"[{s}]" if type(s) is int else f".{s}" for s in self.path)[1:])


def decode_record(record: dict, fields: tuple) -> dict:
    """Each of `fields`' values in `record`, by key, checked and decoded; keys it does not declare are ignored.

    A missing required field, a value of the wrong type or one outside its enum
    raises ValueError naming the field, a nested one by its path.
    """
    values = {}
    for field in fields:
        value = record.get(field[0], _ABSENT)
        values[field[0]] = value if type(value) is field[1] else _field(value, field)
    return values


def _field(value: object, field: tuple) -> object:
    """The value of `field` when `value`, what the record holds under its key (or _ABSENT), is not of its type."""
    if value is _ABSENT or (value is None and len(field) == 3 and field[2] is None):
        if len(field) == 2:
            raise _Invalid(lambda name: f"missing field {name!r}", field[0])
        return list(field[2]) if type(field[2]) is list else field[2]
    try:
        return _decode(value, field[1])
    except _Invalid as exc:
        exc.path.insert(0, field[0])
        raise


def _decode(value: object, kind: object) -> object:
    if type(kind) is EnumMeta:
        members = _members(kind)
        if type(value) is str and value in members:
            return members[value]
        expected = "one of " + ", ".join(members)
    elif type(kind) is GenericAlias:  # list[T]
        if type(value) is list:
            [item] = kind.__args__
            decoded = []
            for i, v in enumerate(value):
                try:
                    decoded.append(v if type(v) is item else _decode(v, item))
                except _Invalid as exc:
                    exc.path.insert(0, i)
                    raise
            return decoded
        expected = _KINDS[list]
    elif isinstance(kind, tuple):
        if type(value) is str and value in kind:
            return value
        expected = "one of " + ", ".join(kind)
    elif hasattr(kind, "FIELDS"):
        if type(value) is dict:
            return kind(**decode_record(value, kind.FIELDS))
        expected = _KINDS[dict]
    else:
        expected = _KINDS[kind]
    raise _Invalid(lambda name: f"{name} {value!r} is not {expected}")


@functools.cache
def _members(kind: type[Enum]) -> dict[str, Enum]:
    return {member.value: member for member in kind}


def read_jsonl(path: Path | str, fields: tuple | None = None, make: Callable[..., T] | None = None) -> list[T]:
    """Each record of a file written by `write_jsonl`; blank lines are skipped.

    With `fields`, a record is the dict of `decode_record`'s values, or `make`
    called with them as keywords; without, the JSON object as is. Lines
    end at b"\\n" only, so a record keeps a raw U+2028 and the like. A line that
    is not UTF-8 or not one JSON object, a field `decode_record` rejects, or a
    ValueError or TomtraceError from `make` raises `MalformedRecord` naming
    `file:line`; a file that cannot be read raises `UnreadableSource`.
    """
    records = []
    try:
        with open(path, "rb") as fh:
            for n, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = decode_json(line.decode("utf-8"))
                except UnicodeError as exc:
                    raise MalformedRecord(f"{path}:{n}", str(exc)) from exc
                except ValueError as exc:
                    raise MalformedRecord(f"{path}:{n}", f"invalid JSON: {exc}") from exc
                if type(record) is not dict:
                    raise MalformedRecord(f"{path}:{n}", "not a JSON object")
                if fields is not None:
                    try:
                        record = decode_record(record, fields)
                        if make is not None:
                            record = make(**record)
                    except (ValueError, TomtraceError) as exc:
                        raise MalformedRecord(f"{path}:{n}", str(exc)) from exc
                records.append(record)
    except OSError as exc:
        raise UnreadableSource(f"cannot read {path}: {exc}") from exc
    return records


def write_json(path: Path | str, obj: object) -> Path:
    """Write one indented, key-sorted JSON document (manifests, statistics)."""
    return write_atomic(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def write_csv(path: Path | str, rows: Iterable[Iterable]) -> Path:
    """Write rows, the header first, in the `csv` module's default dialect (review exports)."""
    import csv  # only here: a stage that reads or writes no CSV does not load it

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

    Raises ValueError when neither decodes (`decode_json`). Collapsing a `}}` outside
    a string unbalances valid JSON, so the two readings never parse to different shapes.
    """
    try:
        return decode_json(body)
    except ValueError:
        return decode_json(body.replace("{{", "{").replace("}}", "}"))


def reply_payload(reply: dict) -> object:
    """What a reply object wraps: the value under its first key that casefolds to
    "target character", else the value under its only key; None without either."""
    payload = next((value for key, value in reply.items() if key.casefold() == "target character"), None)
    if payload is None and len(reply) == 1:
        payload = next(iter(reply.values()))
    return payload
