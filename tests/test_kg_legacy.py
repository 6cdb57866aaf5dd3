"""Graph files written before edges carried a validity interval still load.

`data/legacy.kg.jsonl` is `_sample_graph()` saved by the earlier format, whose
edge records carry a `status` key and whose node records carry `plots_seen`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from test_tkg import _sample_graph
from tomtrace.errors import CorruptGraphFile
from tomtrace.tkg import check_invariants, load_kg, state_at
from tomtrace.util import sha256_text

LEGACY = Path(__file__).parent / "data" / "legacy.kg.jsonl"


def test_legacy_file_has_the_old_keys():
    records = [json.loads(line) for line in LEGACY.read_text(encoding="utf-8").splitlines()]
    assert all("status" in r for r in records if r["record"] == "edge")
    assert all("plots_seen" in r for r in records if r["record"] == "node")


def test_legacy_graph_answers_like_a_fresh_build():
    legacy, fresh = load_kg(LEGACY), _sample_graph()
    check_invariants(legacy)
    assert set(legacy.edges) == set(fresh.edges)
    for character in fresh.index:
        for t in range(1, fresh.plot_count + 1):
            assert [e.id for e in state_at(legacy, character, t)] == [
                e.id for e in state_at(fresh, character, t)
            ], (character, t)
    assert {i: e.valid_to for i, e in legacy.edges.items()} == {
        i: e.valid_to for i, e in fresh.edges.items()
    }


def test_history_naming_an_unknown_edge_is_corrupt(tmp_path):
    header, *body = LEGACY.read_text(encoding="utf-8").splitlines()
    body.append(json.dumps({"record": "retire", "triple_id": "nosuchedge", "plot_index": 2}))
    header = json.loads(header)
    header["integrity"] = sha256_text("\n".join(body))
    path = tmp_path / "dangling.kg.jsonl"
    path.write_text("\n".join([json.dumps(header)] + body) + "\n", encoding="utf-8")
    with pytest.raises(CorruptGraphFile, match="nosuchedge"):
        load_kg(path)


@pytest.mark.parametrize(
    "edit, complaint",
    [
        (lambda header: [1], "not a header"),
        (lambda header: {k: v for k, v in header.items() if k != "book_id"}, "missing field 'book_id'"),
        (lambda header: {**header, "book_id": 7}, "book_id 7 is not a string"),
        (lambda header: {**header, "plot_count": "2"}, "plot_count '2' is not an integer"),
        (lambda header: {**header, "plot_count": True}, "plot_count True is not an integer"),
    ],
    ids=["list", "no-book-id", "numeric-book-id", "text-plot-count", "boolean-plot-count"],
)
def test_a_malformed_header_is_corrupt_naming_the_file(tmp_path, edit, complaint):
    header, *body = LEGACY.read_text(encoding="utf-8").splitlines()
    path = tmp_path / "bad-header.kg.jsonl"
    path.write_text("\n".join([json.dumps(edit(json.loads(header)))] + body) + "\n", encoding="utf-8")
    with pytest.raises(CorruptGraphFile, match=complaint) as caught:
        load_kg(path)
    assert str(path) in str(caught.value)
