"""Property tests: the reply parsers are total, the input cap holds for any cap,
a saved index keeps its documents and ranks like the one it was saved from, and
the vectors file parses to the rows json.loads gives, whatever its values."""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import orjson
from hypothesis import example, given, settings
from hypothesis import strategies as st

from respqa.agents import (
    SLOT_DOCS,
    assemble_prompt,
    parse_judgement,
    parse_local_answer,
    parse_plan_surface,
)
from respqa.errors import CorpusError, PromptTooLargeError
from respqa.llm import truncate_to_token_estimate, whitespace_token_estimate
from respqa.memory import NO_ANSWER_MARKER
from respqa.retrieval import BM25Index, Document, load_vectors

from helpers import bm25_brute_force

# Replies near the parsers' prefixes are where a parse could go wrong.
replies = st.one_of(
    st.text(),
    st.builds(
        "".join,
        st.lists(
            st.sampled_from(["Yes", "no", " ", "\n", ":", ",", "Thought:", "QUESTION :", "x", "{"]),
            max_size=12,
        ),
    ),
)

_PLAN_PREFIX = re.compile(r"(?:thought|question)\s*:", re.IGNORECASE)


@given(replies)
def test_judgement_parse_is_total(raw):
    judgement = parse_judgement(raw)
    assert judgement.raw_text == raw
    assert not (judgement.sufficient and judgement.anomaly)


@given(replies)
def test_unanswered_local_answer_carries_the_marker(raw):
    local = parse_local_answer(raw)
    assert local.raw_text == raw
    if not local.answered:
        assert local.answer == NO_ANSWER_MARKER
    assert not (local.answered and local.anomaly)


@given(replies)
def test_plan_surface_keeps_no_leading_prefix(raw):
    surface = parse_plan_surface(raw)
    assert surface == surface.strip()
    assert not _PLAN_PREFIX.match(surface)


TEMPLATE = "Question: {q}\nReference:\n{docs}\nAnswer:"
words = st.text(alphabet="ab{}", min_size=1, max_size=3)
documents = st.lists(st.builds(" ".join, st.lists(words, max_size=12)), max_size=8)


# A cap equal to a prompt's estimate needs a word count divisible by ten;
# the extra examples make that case come up.
@settings(max_examples=400)
@given(
    question=st.builds(" ".join, st.lists(words, min_size=1, max_size=8)),
    docs=documents,
    data=st.data(),
)
def test_assembled_prompt_fits_the_cap_with_a_ranked_prefix(question, docs, data):
    bindings = {"q": question}

    def with_first(count: int) -> str:
        return assemble_prompt(TEMPLATE, bindings, docs=docs[:count], doc_slot=SLOT_DOCS)

    # Any cap, or one within two tokens of the size of some prefix, where an
    # off-by-one in the fit test would show.
    anchor = whitespace_token_estimate(with_first(data.draw(st.integers(0, len(docs)))))
    near = st.integers(-2, 2).map(lambda delta: max(1, math.ceil(anchor) + delta))
    cap = data.draw(st.one_of(st.integers(min_value=1, max_value=120), near))
    try:
        prompt = assemble_prompt(TEMPLATE, bindings, docs=docs, max_input_tokens=cap)
    except PromptTooLargeError as exc:
        floor = 1 if docs else 0
        assert whitespace_token_estimate(with_first(floor)) > cap
        assert exc.cap == cap
        return
    assert whitespace_token_estimate(prompt) <= cap
    kept = [n for n in range(len(docs) + 1) if with_first(n) == prompt]
    assert kept, "the prompt is not the template over a prefix of the ranked docs"
    # The prefix is the longest one that fits: one more document would not.
    if kept[-1] < len(docs):
        assert whitespace_token_estimate(with_first(kept[-1] + 1)) > cap


@settings(max_examples=400)
@given(text=st.text(alphabet="ab \n\t\u2003", max_size=60), cap=st.integers(0, 60))
def test_truncation_keeps_the_longest_word_prefix_that_fits(text, cap):
    # Brute force: the whole text, then each word-end prefix from the longest down.
    ends = [0] + [match.end() for match in re.finditer(r"\S+", text)]
    prefixes = [text] + [text[:end] for end in reversed(ends)]
    longest = next(prefix for prefix in prefixes if whitespace_token_estimate(prefix) <= cap)
    assert truncate_to_token_estimate(text, cap) == longest


# Few distinct words make repeated terms, shared document frequencies and tied scores common.
index_words = st.sampled_from(["ab", "cd", "ef", "gh", "Ab!", "x"])
index_texts = st.builds(" ".join, st.lists(index_words, min_size=1, max_size=40))


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(index_texts, min_size=1, max_size=12),
    queries=st.lists(st.builds(" ".join, st.lists(index_words, max_size=4)), min_size=1, max_size=4),
    k=st.integers(1, 12),
)
def test_reopened_index_ranks_like_the_fresh_build(texts, queries, k):
    docs = [Document(f"d{i:02d}", "", text) for i, text in enumerate(texts)]
    fresh = BM25Index.build(docs)
    with tempfile.TemporaryDirectory() as tmp:
        fresh.save(f"{tmp}/idx")
        reopened = BM25Index.open(f"{tmp}/idx")
    for query in queries:
        want = [(hit.doc_id, hit.score) for hit in fresh.retrieve(query, k)]
        assert [(hit.doc_id, hit.score) for hit in reopened.retrieve(query, k)] == want


# Words from one-, two-, three- and four-byte UTF-8, astral-plane letters and emoji included.
unicode_words = st.sampled_from(
    ["ab", "Ab!", "caf\u00e9", "\u6771\u4eac", "\U0001d518\U0001d52b", "\U0001f600", "x\u00ad"]
)
unicode_texts = st.builds(
    lambda words, tail: " ".join(words) + tail,
    st.lists(unicode_words, min_size=1, max_size=30),
    st.text(max_size=20),
)


@settings(max_examples=60, deadline=None)
@given(
    fields=st.lists(
        st.tuples(st.text(min_size=1, max_size=8), st.text(max_size=12), unicode_texts),
        min_size=1,
        max_size=10,
        unique_by=lambda row: row[0],
    ),
    queries=st.lists(
        st.builds(" ".join, st.lists(unicode_words, max_size=4)), min_size=1, max_size=4
    ),
    k=st.integers(1, 12),
)
def test_saved_index_keeps_unicode_documents_and_rankings(fields, queries, k):
    docs = [Document(*row) for row in fields]
    fresh = BM25Index.build(docs)
    with tempfile.TemporaryDirectory() as tmp:
        fresh.save(f"{tmp}/idx")
        reopened = BM25Index.open(f"{tmp}/idx")
    assert reopened.documents == fresh.documents == docs
    for query in queries:
        want = [(hit.doc_id, hit.score) for hit in fresh.retrieve(query, k)]
        assert [(hit.doc_id, hit.score) for hit in reopened.retrieve(query, k)] == want
        # Ties fall in str order of the doc ids, which the index sorts as UTF-8 bytes.
        assert want == bm25_brute_force(docs, query, k)


finite_doubles = st.floats(allow_nan=False, allow_infinity=False)
# JSON number literals: doubles in their shortest round-trip form (subnormals and
# -0.0 come up) and with more digits than a double holds, integers past 64 bits and
# around the float range's end, and free-form literals whose long mantissas and
# exponents round, overflow or underflow.
number_literals = st.one_of(
    finite_doubles.map(repr),
    finite_doubles.map(lambda x: f"{x:.25e}"),
    st.integers().map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.integers(2**1023, 2**1025).map(lambda n: str(n if n % 2 else -n)),
    st.from_regex(r"-?(0|[1-9][0-9]{0,30})(\.[0-9]{1,30})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
)


def stdlib_vector(line: bytes) -> bytes | str:
    """The row json.loads gives, as float64 bytes, or the message refusing it."""
    values = json.loads(line.decode("utf-8"))["vector"]
    try:
        vector = np.array(values, dtype=np.float64)  # float() per component
    except OverflowError as exc:
        return f"vector has a component out of range ({exc})"
    if not np.isfinite(vector).all():
        return "vector has a non-finite component"
    return vector.tobytes()


@settings(max_examples=400, deadline=None)
@given(st.lists(number_literals, min_size=1, max_size=8))
def test_vectors_parse_to_the_rows_json_loads_gives(literals):
    line = ('{"id": "a", "vector": [' + ", ".join(literals) + "]}\n").encode()
    expected = stdlib_vector(line)
    try:
        fast = orjson.loads(line)["vector"]
    except orjson.JSONDecodeError:
        pass  # load_vectors leaves the line to json.loads
    else:
        # orjson accepts only rows that json.loads accepts, with the same doubles.
        assert np.array(fast, dtype=np.float64).tobytes() == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors.jsonl"
        path.write_bytes(line)
        try:
            got = load_vectors(path)["a"].tobytes()
        except CorpusError as exc:
            got = str(exc).removeprefix(f"{path}:1: ")
    assert got == expected


def stdlib_row(line: bytes) -> bytes | str:
    """stdlib_vector, for a vector that may hold any JSON value: a component
    that json.loads does not give as an int or a float is named first."""
    for value in json.loads(line.decode("utf-8"))["vector"]:
        if type(value) not in (int, float):
            return f"vector component {value!r} is not a number"
    return stdlib_vector(line)


def _json_string(text: str) -> str:
    return json.dumps(text, ensure_ascii=False)


# Strings holding the bytes the one-call test looks for, or closing a row early,
# and strings that float() would take.
tricky_strings = st.one_of(
    st.text(st.sampled_from('[]}ul"\\a 1,'), max_size=6), number_literals
).map(_json_string)
# Values that must keep a vector off the one-call conversion: keywords, strings,
# empty objects and arrays nested to any depth, of numbers among the rest.
odd_scalars = st.one_of(st.sampled_from(["true", "false", "null", "{}"]), tricky_strings)
json_values = st.recursive(
    st.one_of(number_literals, odd_scalars),
    lambda inner: st.lists(inner, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]"),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(
    components=st.one_of(
        st.lists(number_literals, max_size=6),
        # One value among numbers, where it is hardest to see.
        st.builds(
            lambda numbers, value, at: numbers[:at] + [value] + numbers[at:],
            st.lists(number_literals, max_size=5),
            st.one_of(odd_scalars, json_values),
            st.integers(0, 5),
        ),
        st.lists(json_values, min_size=1, max_size=6),
    ),
    doc_id=st.text(st.sampled_from('[u"l]a'), max_size=4),
    vector_first=st.booleans(),
    compact=st.booleans(),
    ending=st.sampled_from(["\n", "\r\n", " \n", "  \r\n", "", " "]),
)
# Each of ", u and l alone keeps one of these off the one-call conversion.
@example(components=["1.5", "true"], doc_id="a", vector_first=False, compact=False, ending="\n")
@example(components=["false", "2"], doc_id="a", vector_first=False, compact=True, ending="\n")
@example(components=['"3"'], doc_id="a", vector_first=False, compact=False, ending="\r\n")
def test_vectors_with_any_values_parse_to_the_rows_json_loads_gives(
    components, doc_id, vector_first, compact, ending
):
    comma, colon = (",", ":") if compact else (", ", ": ")
    members = [
        f'"id"{colon}{_json_string(doc_id)}',
        f'"vector"{colon}[{comma.join(components)}]',
    ]
    if vector_first:
        members.reverse()
    line = ("{" + comma.join(members) + "}" + ending).encode()
    expected = stdlib_row(line)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors.jsonl"
        path.write_bytes(line)
        try:
            loaded = load_vectors(path)
        except CorpusError as exc:
            got = str(exc).removeprefix(f"{path}:1: ")
        else:
            assert list(loaded) == [doc_id]
            got = loaded[doc_id].tobytes()
    assert got == expected
