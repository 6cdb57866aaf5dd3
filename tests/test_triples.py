from __future__ import annotations

from collections import Counter

import pytest

from tomtrace.errors import ForeignSubject, UnknownPredicate, UnparseableResponse
from tomtrace.triples import (
    Dimension,
    TripleBatch,
    ViolationKind,
    build_extraction_prompt,
    classify_dimension,
    extract_target,
    make_triple,
    parse_triple_response,
    render_triple,
    validate_triple,
)

SIX_TRIPLE_RESPONSE = """{{
    "Target Character":
        [
            (King Lear, DesiresToKnow, which daughter loves King Lear most),
            (King Lear, IntendsTo, divide the kingdom based on his daughters' declarations of love),
            (King Lear, BelievesAboutCordelia, Cordelia's silence is a sign of defiance and disrespect),
            (King Lear, FeelsTowardsCordelia, wounded and betrayed by Cordelia's refusal to flatter King Lear),
            (King Lear, BelievesAboutGoneril, Goneril speaks well and expresses her love convincingly),
            (King Lear, FeelsTowardsCordelia, disappointed and shocked by Cordelia's honesty)
        ]
}}"""


# --- dimension classification ------------------------------------------------------

@pytest.mark.parametrize("predicate,expected", [
    ("BelievesAboutCordelia", Dimension.BELIEF),
    ("IntendsTo", Dimension.INTENTION),
    ("FeelsTowardsCordelia", Dimension.EMOTION),
    ("DesiresFor", Dimension.DESIRE),
    ("believesabout", Dimension.BELIEF),
    ("  Desires  ", Dimension.DESIRE),
])
def test_classify_dimension(predicate, expected):
    assert classify_dimension(predicate) is expected


def test_classify_dimension_unknown():
    with pytest.raises(UnknownPredicate):
        classify_dimension("Wants")
    with pytest.raises(UnknownPredicate):
        classify_dimension("")


def test_dimension_order_and_labels():
    assert [d.label for d in Dimension] == ["Belief", "Desire", "Emotion", "Intention"]


# --- target extraction -------------------------------------------------------------

@pytest.mark.parametrize("predicate,expected", [
    ("FeelsTowardsCordelia", "Cordelia"),
    ("DesiresToKnow", None),
    ("Believes", None),
    ("IntendsTo", None),
    ("BelievesAboutKingLear", "King Lear"),
    ("IntendsToward King Lear", "King Lear"),
    ("DesiresFor Cordelia", "Cordelia"),
    ("FeelsTowards the storm", None),
    ("BelievesCordelia", None),
    ("FeelsAboutGoneril", "Goneril"),
    ("Wants", None),
])
def test_extract_target(predicate, expected):
    assert extract_target(predicate) == expected


def test_toknow_absorbs_before_to():
    # "To" alone would leave "Know" looking like a name.
    assert extract_target("DesiresToKnowCordelia") == "Cordelia"
    assert extract_target("DesiresToKnow") is None


# --- parsing -----------------------------------------------------------------------

def test_six_triple_example():
    batch = parse_triple_response(SIX_TRIPLE_RESPONSE, "King Lear", 1)
    assert len(batch.triples) == 6
    assert not batch.rejects
    assert all(t.subject == "King Lear" for t in batch.triples)
    counts = Counter(t.dimension for t in batch.triples)
    assert counts == {
        Dimension.BELIEF: 2,
        Dimension.EMOTION: 2,
        Dimension.DESIRE: 1,
        Dimension.INTENTION: 1,
    }
    assert batch.triples[0].object == "which daughter loves King Lear most"
    assert batch.triples[0].target is None
    assert batch.triples[3].target == "Cordelia"
    assert batch.triples[4].target == "Goneril"


def test_parse_strict_json():
    text = '{"Target Character": ["(Kent, Believes, the king wronged Cordelia)"]}'
    batch = parse_triple_response(text, "Kent", 2)
    assert len(batch.triples) == 1
    assert batch.triples[0].predicate == "Believes"
    assert batch.triples[0].plot_index == 2


def test_parse_json_key_case_insensitive():
    text = '{"target character": ["(Kent, Desires, to serve the king)"]}'
    assert len(parse_triple_response(text, "Kent", 1).triples) == 1
    # Of two keys that casefold to "target character", the first is read.
    text = '{"Target Character": ["(Kent, Desires, rest)"], "TARGET CHARACTER": ["(Kent, Feels, a), (Kent, Feels, b)"]}'
    assert [t.object for t in parse_triple_response(text, "Kent", 1).triples] == ["rest"]


def test_parse_single_key_fallback():
    text = '{"Kent": ["(Kent, Desires, to serve the king)"]}'
    assert len(parse_triple_response(text, "Kent", 1).triples) == 1


def test_parse_with_code_fences():
    text = '```json\n{"Target Character": ["(Kent, Desires, rest)"]}\n```'
    assert len(parse_triple_response(text, "Kent", 1).triples) == 1


def test_extra_commas_absorbed_into_object():
    text = "(King Lear, FeelsTowardsCordelia, wounded, betrayed)"
    batch = parse_triple_response(text, "King Lear", 1)
    assert batch.triples[0].object == "wounded, betrayed"


def test_unknown_predicate_quarantined_not_dropped():
    text = (
        '{"Target Character": ["(Kent, Believes, the storm will pass", '
        '"(Kent, Wants, shelter)", "(Kent, Desires, rest)"]}'
    )
    batch = parse_triple_response(text, "Kent", 1)
    assert [t.predicate for t in batch.triples] == ["Desires"]
    assert len(batch.rejects) == 2
    reasons = "\n".join(r.reason for r in batch.rejects)
    assert "Wants" in reasons


def test_foreign_subject_quarantined():
    text = '{"Target Character": ["(Kent, Desires, rest)", "(Oswald, Desires, favor)"]}'
    batch = parse_triple_response(text, "Kent", 1)
    assert len(batch.triples) == 1
    assert len(batch.rejects) == 1
    assert "Oswald" in batch.rejects[0].reason


def test_unparseable_responses():
    with pytest.raises(UnparseableResponse):
        parse_triple_response("", "Kent", 1)
    with pytest.raises(UnparseableResponse):
        parse_triple_response("I could not find any triples.", "Kent", 1)


def test_triple_ids_distinguish_duplicates():
    text = '{"Target Character": ["(Kent, Desires, rest)", "(Kent, Desires, rest)"]}'
    batch = parse_triple_response(text, "Kent", 1)
    ids = [t.id for t in batch.triples]
    assert len(set(ids)) == 2


def test_render_round_trip():
    triple = make_triple("Kent", "FeelsTowardsOswald", "contempt for the steward", 3)
    reparsed = parse_triple_response(render_triple(triple), "Kent", 3).triples[0]
    assert (reparsed.subject, reparsed.predicate, reparsed.object) == (
        "Kent", "FeelsTowardsOswald", "contempt for the steward",
    )


# --- batch construction ------------------------------------------------------------

def test_batch_rejects_foreign_subject():
    triple = make_triple("Oswald", "Desires", "favor", 1)
    with pytest.raises(ForeignSubject):
        TripleBatch(character="Kent", plot_index=1, triples=[triple])


def test_batch_subject_match_is_normalized():
    triple = make_triple("KENT", "Desires", "rest", 1)
    TripleBatch(character="kent", plot_index=1, triples=[triple])


# --- validation --------------------------------------------------------------------

CAST = {"King Lear", "Cordelia", "Goneril", "Regan"}


def test_validate_clean_triple():
    triple = make_triple(
        "King Lear", "FeelsTowardsCordelia",
        "wounded and betrayed by Cordelia's refusal to flatter King Lear", 1,
    )
    assert validate_triple(triple, CAST) == []


def test_validate_pronoun_in_object():
    triple = make_triple("King Lear", "Believes", "his daughters adore him", 1)
    kinds = [v.kind for v in validate_triple(triple, CAST)]
    assert kinds == [ViolationKind.PRONOUN_IN_OBJECT]


def test_pronoun_matches_whole_words_only():
    # "them" inside "theme" or "she" inside "shelter" must not trip the check.
    triple = make_triple("Kent", "Believes", "the theme of shelter recurs", 1)
    assert validate_triple(triple, {"Kent"}) == []


def test_validate_unknown_target():
    triple = make_triple("King Lear", "FeelsTowardsFrance", "suspicion of the suitor", 1)
    kinds = [v.kind for v in validate_triple(triple, CAST)]
    assert kinds == [ViolationKind.UNKNOWN_TARGET]


def test_known_names_waive_unknown_target():
    triple = make_triple("King Lear", "FeelsTowardsFrance", "suspicion of the suitor", 1)
    assert validate_triple(triple, CAST, known_names={"France"}) == []


# --- prompt building ----------------------------------------------------------------

def test_extraction_prompt_fills_placeholders(fixture_corpus):
    book = fixture_corpus.books[0]
    plot = book.plots[0]
    previous = [make_triple("King Lear", "Desires", "professions of love", 1)]
    request = build_extraction_prompt(
        plot, plot.conversations, "King Lear", previous, model_id="test-model",
    )
    prompt = request.prompt_text()
    assert plot.summary in prompt
    assert plot.scenario in prompt
    assert "# Target Character: King Lear" in prompt
    assert "(King Lear, Desires, professions of love)" in prompt
    assert "Nothing will come of nothing." in prompt
    assert "$" not in prompt  # every placeholder substituted


def test_extraction_prompt_orders_previous_triples(fixture_corpus):
    book = fixture_corpus.books[0]
    plot = book.plots[1]
    previous = [
        make_triple("King Lear", "Feels", "later state", 2),
        make_triple("King Lear", "Desires", "earlier state", 1),
    ]
    request = build_extraction_prompt(
        plot, plot.conversations, "King Lear", previous, model_id="m",
    )
    prompt = request.prompt_text()
    assert prompt.index("earlier state") < prompt.index("later state")
