"""Model replies drawn from a grammar never raise past the package's errors.

A reply is a tree of objects (whose keys may repeat), lists and scalars,
rendered as JSON text. The grammar holds the wrapper keys each parser looks
for, in other cases too, every shape of value where a parser expects another,
integers of 5000 digits, nesting deeper than the interpreter's stack, doubled
braces, code fences and truncation at any point. Each parser either returns
or raises a TomtraceError: a reply it cannot use takes the documented path
(reject, retry or skip), never a traceback.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tomtrace.errors import TomtraceError
from tomtrace.qagen import parse_question_response
from tomtrace.triples import parse_triple_response

FUZZ = settings(max_examples=100, deadline=None, derandomize=True)

KEYS = [
    "Target Character", "target character", "TARGET CHARACTER", "King Lear",
    "Belief Multiple Choice Question", "emotion multiple choice question", "  Desire Multiple Choice Question ",
    "Intention  Multiple Choice Question", "Options", "Correct Answer", "Question", "Scenario", "Reasoning", "",
]
TEXTS = [
    "(King Lear, BelievesAboutCordelia, Cordelia is false)", "(King Lear, FeelsTowards, (wounded, betrayed))",
    "(Fool, DesiresFor, shelter)", "(King Lear, Ponders, the storm)", "King Lear, IntendsTo", "A", "b) two", "C.",
    "B and D", "(A)", "", " ", "{{", "}}", "\u2028", "\ud800",
]
HUGE = "9" * 5000  # past the interpreter's default limit on integer digits


def _object(pairs) -> str:
    """A JSON object of (key, JSON text) pairs; a key may repeat."""
    return "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in pairs) + "}"


scalars = st.one_of(
    st.sampled_from(TEXTS),
    st.text(max_size=12),
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(),
).map(json.dumps)
raw_numbers = st.sampled_from([HUGE, "-" + HUGE, "1e999", "NaN", "-Infinity", "0." + HUGE])
trees = st.recursive(
    scalars | raw_numbers,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5).map(lambda items: "[" + ", ".join(items) + "]"),
        st.lists(st.tuples(st.sampled_from(KEYS), inner), max_size=5).map(_object),
    ),
    max_leaves=24,
)


@st.composite
def question_replies(draw) -> str:
    """Four dimension blocks, as genqa asks for them or near it, at the top level or wrapped in a list."""
    value = scalars | trees
    letters = st.sampled_from(['"A"', '"(b)"', '"d."'])
    well_formed = draw(st.booleans())  # four options, and one letter for the answer, in every block
    blocks = []
    for label in ("Belief", "Emotion", "Intention", "Desire"):
        count = 4 if well_formed else draw(st.sampled_from([3, 4, 5]))
        options = draw(st.lists(value, min_size=count, max_size=count))
        correct = draw(letters if well_formed else letters | st.sampled_from(['"C or D"', "3", "null"]) | value)
        block = [("Question", draw(value)), ("Options", "[" + ", ".join(options) + "]"), ("Correct Answer", correct)]
        key = draw(st.sampled_from([str.title, str.upper, str.lower]))(f"{label} Multiple Choice Question")
        blocks.append((key, _object(draw(st.permutations(block)))))
    if draw(st.booleans()):
        return _object(blocks)
    return _object([("Target Character", "[" + ", ".join(_object([block]) for block in blocks) + "]")])


@st.composite
def deep(draw) -> str:
    """Arrays or objects nested up to 3000 levels, the innermost value a tree."""
    depth = draw(st.sampled_from([50, 900, 1000, 3000]))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"Target Character": ', "}")]))
    return opener * depth + draw(trees) + closer * depth


@st.composite
def replies(draw) -> str:
    text = draw(st.one_of(trees, question_replies(), deep(), st.lists(st.sampled_from(TEXTS)).map(" ".join)))
    if draw(st.booleans()):
        text = text.replace("{", "{{").replace("}", "}}")  # a template's braces echoed back
    if draw(st.booleans()):
        text = draw(st.sampled_from(["```json\n{}\n```", "```\n{}```", "Here you go:\n{}"])).format(text)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


@FUZZ
@given(replies())
def test_a_triple_reply_parses_or_raises_a_package_error(reply):
    try:
        parse_triple_response(reply, "King Lear", 1, book_id="king-lear")
    except TomtraceError:
        pass


@FUZZ
@given(replies())
def test_a_question_reply_parses_or_raises_a_package_error(reply):
    try:
        parse_question_response(reply, book_id="king-lear", plot_index=1, character="King Lear")
    except TomtraceError:
        pass
