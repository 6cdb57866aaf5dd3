from __future__ import annotations

import json

import pytest
from conftest import CONFIG
from kg_oracle import run_random_case

from tomtrace.config import load_config

from tomtrace.errors import (
    CorruptGraphFile,
    ForeignSubject,
    NonMonotoneInsert,
    UnknownCharacter,
)
from tomtrace.tkg import (
    ContradictionRules,
    MergeMode,
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
from tomtrace.util import read_jsonl, write_jsonl


def batch_for(character, plot, *pairs):
    triples = [
        make_triple(character, predicate, obj, plot, ordinal=i)
        for i, (predicate, obj) in enumerate(pairs)
    ]
    return TripleBatch(character=character, plot_index=plot, triples=triples)


def fresh_kg(plot_count=5):
    return TemporalKG(book_id="test-book", plot_count=plot_count)


# --- similarity and contradiction heuristics -----------------------------------

def test_jaccard_goldens():
    assert jaccard("seeks shelter from the storm", "seeks shelter from storm") == 4 / 5
    assert jaccard("", "") == 1.0
    assert jaccard("alpha", "beta") == 0.0
    assert jaccard("the king's men", "king's") == 1 / 3
    assert jaccard("Rest", "rest!") == 1.0


def test_contradiction_negation_xor():
    rules = ContradictionRules()
    assert is_contradiction("trusts the king", "does not trust the king", rules)
    assert is_contradiction("never yields", "yields", rules)
    assert is_contradiction("trusts the king", "doesn't trust the king", rules)
    assert not is_contradiction("does not trust", "never trusts", rules)  # both negated
    assert not is_contradiction("trusts the king", "fears the king", rules)
    # cue must match a whole word: "knot" is not "not"
    assert not is_contradiction("ties a knot", "ties a rope", rules)


def test_contradiction_antonym_pairs_both_directions():
    rules = ContradictionRules(antonym_pairs=[("warm", "cold")])
    assert is_contradiction("a warm welcome", "a cold shoulder", rules)
    assert is_contradiction("a cold shoulder", "a warm welcome", rules)
    assert not is_contradiction("a warm welcome", "a warm bed", rules)


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
    assert kg.edges[link.new_id].supersedes == link.old_id
    assert state_at(kg, "Kent", 1)[0].id == link.old_id
    assert state_at(kg, "Kent", 2)[0].id == link.new_id


def test_contradiction_via_negation():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 1, ("Believes", "the king is just")))
    log = insert_batch(kg, batch_for("Kent", 3, ("Believes", "the king is not just")))
    [link] = log.contradicted
    assert link.reason is SupersedeReason.CONTRADICTED


def test_contradiction_via_antonym_rules():
    rules = ContradictionRules(antonym_pairs=[("pleased", "betrayed")])
    kg = fresh_kg()
    insert_batch(kg, batch_for("King Lear", 1, ("FeelsTowardsGoneril", "pleased by her devotion")), rules=rules)
    log = insert_batch(
        kg, batch_for("King Lear", 2, ("FeelsTowardsGoneril", "betrayed by her ingratitude")),
        rules=rules,
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
    insert_batch(kg, batch_for("Kent", 1, ("Desires", "rest")), MergeMode.DETERMINISTIC_MERGE)
    log = insert_batch(kg, batch_for("Kent", 2, ("Desires", "rest")), MergeMode.DETERMINISTIC_MERGE)
    assert len(log.unchanged) == 1 and not log.added
    assert len(kg.edges) == 1


def test_deterministic_supersedes_above_threshold():
    kg = fresh_kg()
    insert_batch(
        kg, batch_for("Kent", 1, ("Desires", "seeks shelter from the storm")),
        MergeMode.DETERMINISTIC_MERGE,
    )
    log = insert_batch(
        kg, batch_for("Kent", 2, ("Desires", "seeks shelter from storm")),
        MergeMode.DETERMINISTIC_MERGE, jaccard_threshold=0.5,
    )
    [link] = log.refined
    assert link.reason is SupersedeReason.REFINED
    assert len(state_at(kg, "Kent", 2)) == 1


def test_deterministic_keeps_both_below_threshold():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 1, ("Desires", "rest")), MergeMode.DETERMINISTIC_MERGE)
    log = insert_batch(
        kg, batch_for("Kent", 2, ("Desires", "a fast horse")),
        MergeMode.DETERMINISTIC_MERGE, jaccard_threshold=0.5,
    )
    assert log.added and not log.refined
    assert len(state_at(kg, "Kent", 2)) == 2


def test_deterministic_never_retires():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 1, ("Desires", "rest")), MergeMode.DETERMINISTIC_MERGE)
    log = insert_batch(kg, batch_for("Kent", 3), MergeMode.DETERMINISTIC_MERGE)
    assert not log.retired and not kg.retirements
    assert len(state_at(kg, "Kent", 3)) == 1


def test_deterministic_supersedes_all_matching_actives():
    kg = fresh_kg()
    insert_batch(
        kg,
        batch_for("Kent", 1, ("Desires", "seeks shelter from the storm"),
                  ("Desires", "seeks shelter from storm")),
        MergeMode.DETERMINISTIC_MERGE, jaccard_threshold=0.9,
    )
    log = insert_batch(
        kg, batch_for("Kent", 2, ("Desires", "seeks shelter from the gathering storm")),
        MergeMode.DETERMINISTIC_MERGE, jaccard_threshold=0.5,
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


def test_foreign_subject_rejected_at_insert():
    kg = fresh_kg()
    batch = batch_for("Kent", 1, ("Desires", "rest"))
    batch.triples[0].subject = "Oswald"
    with pytest.raises(ForeignSubject):
        insert_batch(kg, batch)


def test_state_at_bounds():
    kg = fresh_kg(plot_count=2)
    insert_batch(kg, batch_for("Kent", 1, ("Desires", "rest")))
    with pytest.raises(ValueError):
        state_at(kg, "Kent", 0)
    with pytest.raises(ValueError):
        state_at(kg, "Kent", 3)


def test_unknown_character():
    kg = fresh_kg()
    insert_batch(kg, batch_for("Kent", 1, ("Desires", "rest")))
    with pytest.raises(UnknownCharacter):
        state_at(kg, "Oswald", 1)
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
    rules = ContradictionRules(antonym_pairs=[("warm", "cold")])
    insert_batch(kg, batch_for("Kent", 1, ("Believes", "the king is just"), ("Desires", "rest")), rules=rules)
    insert_batch(kg, batch_for("Cordelia", 1, ("FeelsTowardsKent", "warm regard")), rules=rules)
    insert_batch(kg, batch_for("Kent", 3, ("Believes", "the king is not just")), rules=rules)
    insert_batch(kg, batch_for("Cordelia", 4, ("FeelsTowardsKent", "cold distance")), rules=rules)
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
    rules = ContradictionRules(
        antonym_pairs=[tuple(p) for p in merge.antonym_pairs], negation_cues=tuple(merge.negation_cues)
    )

    def build(records):
        return build_graph(
            book.id, len(book.plots), records, MergeMode(merge.mode), rules=rules,
            jaccard_threshold=merge.jaccard_threshold,
        )

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
