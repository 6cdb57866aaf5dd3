from __future__ import annotations

import json

import pytest
from conftest import CONFIG
from kg_oracle import run_random_case

from tomtrace.config import MergeSection, load_config

from tomtrace.errors import (
    CorruptGraphFile,
    NonMonotoneInsert,
    UnknownCharacter,
)
from tomtrace.tkg import (
    SupersedeReason,
    TemporalKG,
    build_graph,
    check_invariants,
    insert_batch,
    is_contradiction,
    jaccard,
    load_kg,
    save_kg,
    state_at,
    timeline,
)
from tomtrace.triples import Dimension, TripleBatch, make_triple
from tomtrace.util import read_jsonl, sha256_text, write_jsonl


def batch_for(character, plot, *pairs):
    triples = [
        make_triple(character, predicate, obj, plot, ordinal=i)
        for i, (predicate, obj) in enumerate(pairs)
    ]
    return TripleBatch(character=character, plot_index=plot, triples=triples)


def fresh_kg(plot_count=5):
    return TemporalKG(book_id="test-book", plot_count=plot_count)


DETERMINISTIC = MergeSection(mode="deterministic_merge")


# --- similarity and contradiction heuristics -----------------------------------

def test_jaccard_goldens():
    assert jaccard("seeks shelter from the storm", "seeks shelter from storm") == 4 / 5
    assert jaccard("", "") == 1.0
    assert jaccard("alpha", "beta") == 0.0
    assert jaccard("the king's men", "king's") == 1 / 3
    assert jaccard("Rest", "rest!") == 1.0


def test_contradiction_negation_xor():
    merge = MergeSection()
    assert is_contradiction("trusts the king", "does not trust the king", merge)
    assert is_contradiction("never yields", "yields", merge)
    assert is_contradiction("trusts the king", "doesn't trust the king", merge)
    assert not is_contradiction("does not trust", "never trusts", merge)  # both negated
    assert not is_contradiction("trusts the king", "fears the king", merge)
    # cue must match a whole word: "knot" is not "not"
    assert not is_contradiction("ties a knot", "ties a rope", merge)


def test_contradiction_antonym_pairs_both_directions():
    merge = MergeSection(antonym_pairs=[["warm", "cold"]])
    assert is_contradiction("a warm welcome", "a cold shoulder", merge)
    assert is_contradiction("a cold shoulder", "a warm welcome", merge)
    assert not is_contradiction("a warm welcome", "a warm bed", merge)


# --- trust-the-model merge -------------------------------------------------------

def test_unchanged_keeps_old_edge():
    kg = fresh_kg()
    log1 = insert_batch(kg, batch_for("Kent", 1, ("Desires", "to serve the king")))
    [edge_id] = log1.added
    log2 = insert_batch(kg, batch_for("Kent", 2, ("Desires", "to serve the king")))
    assert log2.unchanged == [edge_id]
    assert not log2.added and not log2.retired
    assert len(kg.edges) == 1
    assert kg.edges[edge_id].plot_index == 1  # original plot survives


def test_refinement_links_old_to_new():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 1, ("Desires", "to serve the king")))
    log = insert_batch(kg, batch_for("Kent", 2, ("Desires", "to serve the king in disguise")))
    [link] = log.refined
    assert link.reason is SupersedeReason.REFINED
    assert state_at(kg, "Kent", 1)[0].id == link.old_id
    assert state_at(kg, "Kent", 2)[0].id == link.new_id


def test_contradiction_via_negation():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 1, ("Believes", "the king is just")))
    log = insert_batch(kg, batch_for("Kent", 3, ("Believes", "the king is not just")))
    [link] = log.contradicted
    assert link.reason is SupersedeReason.CONTRADICTED


def test_contradiction_via_antonym_rules():
    merge = MergeSection(antonym_pairs=[["pleased", "betrayed"]])
    kg = fresh_kg()
    insert_batch(kg, batch_for("King Lear", 1, ("FeelsTowardsGoneril", "pleased by her devotion")), merge)
    log = insert_batch(
        kg, batch_for("King Lear", 2, ("FeelsTowardsGoneril", "betrayed by her ingratitude")),
        merge,
    )
    assert len(log.contradicted) == 1


def test_retirement_hides_only_from_batch_plot_onward():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 1, ("Desires", "to serve the king")))
    log = insert_batch(kg, batch_for("Kent", 3))  # empty batch drops everything
    assert len(log.retired) == 1
    assert kg.retirements[0].plot_index == 3
    assert len(state_at(kg, "Kent", 1)) == 1
    assert len(state_at(kg, "Kent", 2)) == 1
    assert state_at(kg, "Kent", 3) == []


def test_supersession_preserves_history():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 1, ("Believes", "the king is just")))
    insert_batch(kg, batch_for("Kent", 4, ("Believes", "the king is mad")))
    for t in (1, 2, 3):
        [triple] = state_at(kg, "Kent", t)
        assert triple.object == "the king is just"
    [triple] = state_at(kg, "Kent", 4)
    assert triple.object == "the king is mad"


def test_different_groups_do_not_interact():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 1, ("FeelsTowardsCordelia", "sympathy")))
    log = insert_batch(kg, batch_for("Kent", 2, ("FeelsTowardsKent", "doubt")))
    # different target: old edge is retired, not refined
    assert not log.refined and len(log.retired) == 1


def test_same_plot_replacement_is_retire_plus_add():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 2, ("Desires", "rest")))
    log = insert_batch(kg, batch_for("Kent", 2, ("Desires", "shelter")))
    assert len(log.added) == 1 and len(log.retired) == 1
    assert not log.refined and not kg.supersede_links
    check_invariants(kg)
    [triple] = state_at(kg, "Kent", 2)
    assert triple.object == "shelter"


def test_batch_deduped_on_normalized_content():
    kg = fresh_kg()
    log = insert_batch(
        kg, batch_for("Kent", 1, ("Desires", "rest"), ("Desires", "Rest "), ("desires", "rest"))
    )
    assert len(log.added) == 1


def test_reinserting_retired_content_gets_fresh_id():
    kg = fresh_kg()
    [old_id] = insert_batch(kg, batch_for("Kent", 1, ("Desires", "rest"))).added
    insert_batch(kg, batch_for("Kent", 2))
    [new_id] = insert_batch(kg, batch_for("Kent", 3, ("Desires", "rest"))).added
    assert new_id != old_id and len(kg.edges) == 2
    [triple] = state_at(kg, "Kent", 3)
    assert triple.id == new_id
    check_invariants(kg)


# --- deterministic merge ------------------------------------------------------------

def test_deterministic_exact_duplicate_skipped():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 1, ("Desires", "rest")), DETERMINISTIC)
    log = insert_batch(kg, batch_for("Kent", 2, ("Desires", "rest")), DETERMINISTIC)
    assert len(log.unchanged) == 1 and not log.added
    assert len(kg.edges) == 1


def test_deterministic_supersedes_above_threshold():
    kg = fresh_kg()
    insert_batch(
        kg, batch_for("Kent", 1, ("Desires", "seeks shelter from the storm")),
        DETERMINISTIC,
    )
    log = insert_batch(
        kg, batch_for("Kent", 2, ("Desires", "seeks shelter from storm")),
        MergeSection(mode="deterministic_merge", jaccard_threshold=0.5),
    )
    [link] = log.refined
    assert link.reason is SupersedeReason.REFINED
    assert len(state_at(kg, "Kent", 2)) == 1


def test_deterministic_keeps_both_below_threshold():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 1, ("Desires", "rest")), DETERMINISTIC)
    log = insert_batch(
        kg, batch_for("Kent", 2, ("Desires", "a fast horse")),
        MergeSection(mode="deterministic_merge", jaccard_threshold=0.5),
    )
    assert log.added and not log.refined
    assert len(state_at(kg, "Kent", 2)) == 2


def test_deterministic_never_retires():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 1, ("Desires", "rest")), DETERMINISTIC)
    log = insert_batch(kg, batch_for("Kent", 3), DETERMINISTIC)
    assert not log.retired and not kg.retirements
    assert len(state_at(kg, "Kent", 3)) == 1


def test_deterministic_supersedes_all_matching_actives():
    kg = fresh_kg()
    insert_batch(
        kg,
        batch_for("Kent", 1, ("Desires", "seeks shelter from the storm"),
                  ("Desires", "seeks shelter from storm")),
        MergeSection(mode="deterministic_merge", jaccard_threshold=0.9),
    )
    log = insert_batch(
        kg, batch_for("Kent", 2, ("Desires", "seeks shelter from the gathering storm")),
        MergeSection(mode="deterministic_merge", jaccard_threshold=0.5),
    )
    assert len(log.refined) == 2
    [survivor] = state_at(kg, "Kent", 2)
    assert survivor.object == "seeks shelter from the gathering storm"


# --- guards --------------------------------------------------------------------------

def test_non_monotone_insert_rejected():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 3, ("Desires", "rest")))
    with pytest.raises(NonMonotoneInsert):
        insert_batch(kg, batch_for("Kent", 2, ("Desires", "haste")))


def test_monotonicity_is_per_character():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 3, ("Desires", "rest")))
    insert_batch(kg, batch_for("Cordelia", 1, ("Desires", "honesty")))  # fine


def test_state_at_bounds():
    kg = fresh_kg(plot_count=2)
    insert_batch(kg, batch_for("Kent", 1, ("Desires", "rest")))
    with pytest.raises(ValueError):
        state_at(kg, "Kent", 0)
    with pytest.raises(ValueError):
        state_at(kg, "Kent", 3)


def test_unknown_character():
    """A character with no node has no triples at any plot; its timeline is an error."""
    kg = fresh_kg(plot_count=2)
    insert_batch(kg, batch_for("Kent", 1, ("Desires", "rest")))
    assert state_at(kg, "Oswald", 1) == state_at(kg, "Oswald", 3) == []
    with pytest.raises(UnknownCharacter):
        timeline(kg, "Oswald")


def test_character_lookup_is_normalized():
    kg = fresh_kg()
    insert_batch(kg, batch_for("King Lear", 1, ("Desires", "rest")))
    assert len(state_at(kg, "  king   lear ", 1)) == 1


# --- timeline ---------------------------------------------------------------------

def test_timeline_annotates_supersessions():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 1, ("Believes", "the king is just")))
    insert_batch(kg, batch_for("Kent", 2, ("Believes", "the king is not just")))
    entries = timeline(kg, "Kent")
    assert [e.plot_index for e in entries] == [1, 2]
    assert entries[0].supersede_reason is None
    assert entries[1].supersede_reason is SupersedeReason.CONTRADICTED
    assert entries[1].superseded_id == entries[0].triple.id


def test_timeline_dimension_filter():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 1, ("Believes", "the king is just"), ("Desires", "rest")))
    beliefs = timeline(kg, "Kent", Dimension.BELIEF)
    assert len(beliefs) == 1 and beliefs[0].triple.dimension is Dimension.BELIEF


# --- invariants -------------------------------------------------------------------

def test_invariants_reject_backwards_link():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 2, ("Believes", "the king is just")))
    insert_batch(kg, batch_for("Kent", 3, ("Believes", "the king is mad")))
    [link] = kg.supersede_links
    link.old_id, link.new_id = link.new_id, link.old_id
    with pytest.raises(AssertionError):
        check_invariants(kg)


def test_invariants_reject_cycle():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 1, ("Believes", "a")))
    insert_batch(kg, batch_for("Kent", 2, ("Believes", "b")))
    [link] = kg.supersede_links
    import copy

    back = copy.copy(link)
    back.old_id, back.new_id = link.new_id, link.old_id
    kg.supersede_links.append(back)
    with pytest.raises(AssertionError):
        check_invariants(kg)


# --- persistence ---------------------------------------------------------------------

def _sample_graph():
    kg = fresh_kg()
    merge = MergeSection(antonym_pairs=[["warm", "cold"]])
    insert_batch(kg, batch_for("Kent", 1, ("Believes", "the king is just"), ("Desires", "rest")), merge)
    insert_batch(kg, batch_for("Cordelia", 1, ("FeelsTowardsKent", "warm regard")), merge)
    insert_batch(kg, batch_for("Kent", 3, ("Believes", "the king is not just")), merge)
    insert_batch(kg, batch_for("Cordelia", 4, ("FeelsTowardsKent", "cold distance")), merge)
    insert_batch(kg, batch_for("Kent", 5))
    return kg


def test_save_load_round_trip(tmp_path):
    kg = _sample_graph()
    path = save_kg(kg, tmp_path / "g.kg.jsonl")
    loaded = load_kg(path)
    assert loaded.book_id == kg.book_id and loaded.plot_count == kg.plot_count
    assert set(loaded.edges) == set(kg.edges)
    for character in ("Kent", "Cordelia"):
        for t in range(1, 6):
            assert [e.id for e in state_at(loaded, character, t)] == [
                e.id for e in state_at(kg, character, t)
            ]
    assert len(loaded.supersede_links) == len(kg.supersede_links)
    assert len(loaded.retirements) == len(kg.retirements)
    check_invariants(loaded)


def test_save_load_round_trip_keeps_unicode_line_separators(tmp_path):
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 1, ("Believes", "one\u2028two\u2029three\x85four")))
    loaded = load_kg(save_kg(kg, tmp_path / "g.kg.jsonl"))
    assert [e.object for e in state_at(loaded, "Kent", 1)] == ["one\u2028two\u2029three\x85four"]


def test_load_rejects_tampered_body(tmp_path):
    path = save_kg(_sample_graph(), tmp_path / "g.kg.jsonl")
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace("Kent", "Bent")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptGraphFile):
        load_kg(path)


def test_load_rejects_edge_count_mismatch(tmp_path):
    path = save_kg(_sample_graph(), tmp_path / "g.kg.jsonl")
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["edge_count"] += 1
    path.write_text("\n".join([json.dumps(header, ensure_ascii=False)] + lines[1:]) + "\n")
    with pytest.raises(CorruptGraphFile):
        load_kg(path)


def test_load_rejects_empty_and_headerless(tmp_path):
    empty = tmp_path / "empty.kg.jsonl"
    empty.write_text("")
    with pytest.raises(CorruptGraphFile):
        load_kg(empty)
    headerless = tmp_path / "h.kg.jsonl"
    headerless.write_text('{"record": "node", "name": "Kent"}\n')
    with pytest.raises(CorruptGraphFile):
        load_kg(headerless)
    with pytest.raises(CorruptGraphFile):
        load_kg(tmp_path / "missing.kg.jsonl")


def test_load_keeps_every_edge_field(tmp_path):
    kg = _sample_graph()
    assert any(edge.valid_to is not None for edge in kg.edges.values())
    assert load_kg(save_kg(kg, tmp_path / "g.kg.jsonl")).edges == kg.edges


def _edge_dimension(line: str) -> str:
    rec = json.loads(line)
    return json.dumps({**rec, "dimension": "envy"}) if rec["record"] == "edge" else line


@pytest.mark.parametrize("edit, message", [
    (_edge_dimension, "bad edge record: 'envy' is not a valid Dimension"),
    (lambda line: "[1, 2]", "record is not a JSON object"),
    (lambda line: json.dumps({**json.loads(line), "record": "link"}), "link record lacks field 'old_id'"),
], ids=["unknown-dimension", "not-an-object", "missing-field"])
def test_load_rejects_a_malformed_record_naming_its_line(tmp_path, edit, message):
    path = save_kg(_sample_graph(), tmp_path / "g.kg.jsonl")
    lines = path.read_text(encoding="utf-8").splitlines()
    edge_line = next(n for n, line in enumerate(lines) if json.loads(line)["record"] == "edge")
    lines[edge_line] = edit(lines[edge_line])
    header = {**json.loads(lines[0]), "integrity": sha256_text("\n".join(lines[1:]))}
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n", encoding="utf-8")
    with pytest.raises(CorruptGraphFile, match=f"g.kg.jsonl:{edge_line + 1}: {message}"):
        load_kg(path)


# --- randomized comparison against the oracle ----------------------------------------

@pytest.mark.parametrize("case_id", range(200))
def test_merge_matches_oracle(case_id):
    kg = run_random_case(case_id)
    check_invariants(kg)


def test_oracle_cases_round_trip_through_disk(tmp_path):
    from kg_oracle import real_state

    for case_id in (7, 42, 123):
        kg = run_random_case(case_id)
        loaded = load_kg(save_kg(kg, tmp_path / f"case-{case_id}.kg.jsonl"))
        for character in loaded.index:
            for t in range(1, (kg.plot_count or 1) + 1):
                assert real_state(loaded, character, t) == real_state(kg, character, t)


def test_build_graph_writes_the_same_bytes_as_the_build_kg_command(pipeline_out, fixture_corpus, tmp_path):
    (book,) = fixture_corpus.books
    merge = load_config(CONFIG).merge

    def build(records):
        return build_graph(book.id, len(book.plots), records, merge)

    records = read_jsonl(pipeline_out / "triples" / f"{book.id}.jsonl")
    kg, changelog = build(records)
    kg_dir = pipeline_out / "kg"
    assert save_kg(kg, tmp_path / "g.kg.jsonl").read_bytes() == (kg_dir / f"{book.id}.kg.jsonl").read_bytes()
    assert write_jsonl(tmp_path / "c.jsonl", changelog).read_bytes() == (
        kg_dir / f"{book.id}.changelog.jsonl"
    ).read_bytes()
    # batches fold in first-seen order, not sorted order
    by_character = sorted(records, key=lambda r: r["character"], reverse=True)
    _, reordered = build(by_character)
    first_seen = list(dict.fromkeys((r["character"], r["plot_index"]) for r in by_character))
    assert [(c["character"], c["plot_index"]) for c in reordered] == first_seen != sorted(first_seen)
