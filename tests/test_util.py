from __future__ import annotations

import json
from fractions import Fraction

from tomtrace.util import (
    canonical_json,
    clean_name,
    format_half_up,
    normalize_name,
    read_jsonl,
    round_half_up,
    sample,
    slugify,
    stable_hash,
    strip_code_fences,
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
    assert format_half_up(Fraction(125, 1000)) == "0.13"
    assert format_half_up(Fraction(1, 3)) == "0.33"
    assert format_half_up(Fraction(169, 2)) == "84.50"
    assert format_half_up(Fraction(100)) == "100.00"
    assert str(round_half_up(Fraction(125, 1000))) == "0.13"


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
