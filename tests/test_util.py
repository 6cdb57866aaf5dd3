from __future__ import annotations

import json
import os
import threading
from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal, localcontext
from itertools import repeat
from operator import methodcaller

import pytest

from tomtrace.errors import IoError, MalformedRecord
from tomtrace.evalharness import Prediction
from tomtrace.qagen import TomQuestion
from tomtrace.util import (
    canonical_json,
    clean_name,
    format_half_up,
    normalize_name,
    read_jsonl,
    sample,
    slugify,
    stable_hash,
    strip_code_fences,
    write_atomic,
    write_jsonl,
)


def test_normalize_name_collapses_and_casefolds():
    assert normalize_name("  King   LEAR ") == "king lear"
    assert normalize_name("Fool") == normalize_name("fool")


def test_clean_name_keeps_case():
    assert clean_name("  King   Lear  ") == "King Lear"


def test_slugify():
    assert slugify("King Lear!") == "king-lear"
    assert slugify("A  Tale of Two Cities") == "a-tale-of-two-cities"


def test_stable_hash_separator_resistance():
    # "a","b" and "ab" must not collide: parts are joined with a separator.
    assert stable_hash("a", "b") != stable_hash("ab")
    assert stable_hash("x", 1) == stable_hash("x", 1)
    assert len(stable_hash("x")) == 12
    assert len(stable_hash("x", length=8)) == 8


def test_canonical_json_sorted_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_half_up_rounding():
    """Ties round away from zero, not to even."""
    assert format_half_up(125, 1000) == "0.13"
    assert format_half_up(1, 3) == "0.33"
    assert format_half_up(169, 2) == "84.50"
    assert format_half_up(100, 1) == "100.00"


def test_half_up_rounding_matches_an_exact_decimal_quantize():
    """Every ratio p/q with q <= 400 in [0, 100], the range of a percentage, ties included.

    The oracle divides with ROUND_DOWN at 28 digits. Every tie, k/100 + 1/200,
    is a multiple of the last digit kept, so the truncated quotient reaches a tie
    exactly when the ratio does, and it rounds as the ratio does.
    """
    cent = Decimal("0.01")
    half_up = methodcaller("quantize", cent, rounding=ROUND_HALF_UP)
    with localcontext() as context:
        context.rounding = ROUND_DOWN
        for q in range(1, 401):
            ps = range(100 * q + 1)
            exact = list(map(str, map(half_up, map(Decimal(q).__rtruediv__, map(Decimal, ps)))))
            assert list(map(format_half_up, ps, repeat(q))) == exact, q


def test_strip_code_fences():
    assert strip_code_fences('```json\n{"a":1}\n```').strip() == '{"a":1}'
    assert strip_code_fences("plain") == "plain"


def test_jsonl_round_trip_keeps_text_and_skips_blank_lines(tmp_path):
    records = [{"text": "Gloucester’s “eyes” — ça"}, {"text": "one\u2028two\nthree", "n": 1}, {}]
    path = write_jsonl(tmp_path / "sub" / "records.jsonl", iter(records))
    lines = [json.dumps(r, ensure_ascii=False) + "\n" for r in records]
    assert path.read_bytes() == "".join(lines).encode("utf-8")
    path.write_text("\n" + lines[0] + "  \n" + "".join(lines[1:]) + "\n", encoding="utf-8")
    assert read_jsonl(path) == records


def test_sample_full_rate_sorts_and_a_seed_fixes_the_pick():
    items = [5, 3, 9, 1, 7, 2, 8]
    assert sample(items, 1.0, None, key=lambda x: x) == [1, 2, 3, 5, 7, 8, 9]
    for _ in range(3):
        assert sample(items, 0.4, 13, key=lambda x: x) == [2, 3, 9]
        assert sample(items[::-1], 0.4, 13, key=lambda x: x) == [2, 3, 9]


_QUESTION = {"id": "q1", "book_id": "b", "plot_index": 1, "character": "Lear", "dimension": "belief",
             "stem": "Why?", "options": ["w", "x", "y", "z"], "correct": "A"}
_PREDICTION = {"question_id": "q1", "model": "m", "context": "current", "triples": True, "letter": "A"}


_AS_QUESTION = (TomQuestion.FIELDS, TomQuestion)
_AS_PREDICTION = (Prediction.FIELDS, Prediction)


@pytest.mark.parametrize("text, decode, line, reason", [
    ('{"a": 1}\n{"a": \n', (), 2, "invalid JSON"),
    ('{"a": 1}\n\n[1, 2]\n', (), 3, "not a JSON object"),
    (json.dumps({**_QUESTION, "options": ["w", "x", "y"]}) + "\n", _AS_QUESTION, 1, "'q1': 3 options"),
    (json.dumps(_QUESTION) + "\n" + json.dumps({**_QUESTION, "correct": "E"}) + "\n", _AS_QUESTION, 2,
     "correct='E'"),
    (json.dumps(_PREDICTION) + "\n" + json.dumps({**_PREDICTION, "triples": 1}) + "\n", _AS_PREDICTION, 2,
     "triples 1 is not true or false"),
], ids=["truncated", "not-an-object", "three-options", "correct-e", "triples-one"])
def test_read_jsonl_names_the_file_and_line_of_a_malformed_record(tmp_path, text, decode, line, reason):
    path = tmp_path / "questions.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedRecord) as caught:
        read_jsonl(path, *decode)
    assert caught.value.record_id == f"{path}:{line}"
    assert reason in caught.value.reason and str(path) not in caught.value.reason


def test_write_atomic_replaces_the_file_through_a_hidden_temporary(tmp_path):
    target = tmp_path / "deep" / "book.jsonl"
    write_atomic(target, [b"old\n"])
    during = []

    def chunks():
        during.extend(sorted(p.name for p in target.parent.iterdir()))
        during.extend(p.name for p in target.parent.glob("*.jsonl"))
        yield b"new "
        yield b"text\n"

    assert write_atomic(target, chunks()) == target
    temporary = f".book.jsonl.{os.getpid()}.{threading.get_ident()}.tmp"
    assert during == [temporary, "book.jsonl", "book.jsonl"]
    assert target.read_bytes() == b"new text\n"
    assert [p.name for p in target.parent.iterdir()] == ["book.jsonl"]


def test_write_atomic_keeps_the_old_file_when_the_chunks_fail(tmp_path):
    target = tmp_path / "questions.jsonl"
    target.write_bytes(b"old\n")

    def chunks():
        yield b"partial"
        raise RuntimeError("serializer failed")

    with pytest.raises(RuntimeError, match="serializer failed"):
        write_atomic(target, chunks())
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["questions.jsonl"]


def test_write_atomic_failure_is_an_io_error_and_leaves_no_temporary(tmp_path):
    taken = tmp_path / "predictions.jsonl"
    taken.mkdir()
    with pytest.raises(IoError, match="cannot write .*predictions.jsonl: "):
        write_atomic(taken, [b"{}\n"])
    assert [p.name for p in tmp_path.iterdir()] == ["predictions.jsonl"]
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    with pytest.raises(IoError, match="cannot write "):
        write_atomic(blocker / "out.json", [b"{}"])
