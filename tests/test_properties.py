"""Property tests: the reply parsers are total, the input cap holds for any cap,
a saved index keeps its documents and ranks like the one it was saved from,
its UTF-8 check accepts and refuses what bytes.decode does,
the vectors file parses to the rows json.loads gives, whatever its values,
token F1 scores the tokens of the normalized answers, and a question's loop
sends each document to the summarizer once without losing evidence."""

import itertools
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
from hypothesis import example, given, settings
from hypothesis import strategies as st

import respqa.retrieval
from respqa.agents import (
    SLOT_DOCS,
    SLOT_OVERARCHING,
    Judgement,
    PipelineAgents,
    assemble_prompt,
    parse_judgement,
    parse_local_answer,
    parse_plan_surface,
    render_docs,
    render_template,
)
from respqa.errors import CorpusError, PromptTooLargeError
from respqa.evaluation import normalize_answer, token_f1
from respqa.llm import (
    ROLE_TAGS,
    BackendRouter,
    LlmResponse,
    truncate_to_token_estimate,
    whitespace_token_estimate,
)
from respqa.memory import NO_ANSWER_MARKER
from respqa.pipeline import PipelineConfig, run_resp
from respqa.retrieval import BM25Index, Document, _check_utf8, load_vectors, tokenize

from helpers import JUDGE_MARKER, LOCAL_MARKER, bm25_brute_force, f1_brute_force, summarized_titles

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


def three_way_judgement(raw: str) -> Judgement:
    """A reference judge parse: Yes is sufficient, No is not, else an anomaly."""
    text = raw.strip()
    if re.match(r"yes\b", text, re.IGNORECASE):
        return Judgement(sufficient=True, raw_text=raw)
    if re.match(r"no\b", text, re.IGNORECASE):
        return Judgement(sufficient=False, raw_text=raw)
    return Judgement(sufficient=False, raw_text=raw, anomaly=True)


@given(replies)
def test_judgement_is_the_three_way_yes_no_parse(raw):
    assert parse_judgement(raw) == three_way_judgement(raw)


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
        return render_template(TEMPLATE, {**bindings, SLOT_DOCS: "\n\n".join(docs[:count])})

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
    # Both hold their documents in doc_id order, whatever order they came in.
    assert reopened.documents == fresh.documents == sorted(docs, key=lambda doc: doc.doc_id)
    for query in queries:
        want = [(hit.doc_id, hit.score) for hit in fresh.retrieve(query, k)]
        assert [(hit.doc_id, hit.score) for hit in reopened.retrieve(query, k)] == want
        # Ties fall in str order of the doc ids, which the index sorts as UTF-8 bytes.
        assert want == bm25_brute_force(docs, query, k)


# UTF-8 pieces: whole characters of one to four bytes, and the sequences a
# decoder must refuse, which chunk edges may split.
utf8_pieces = st.one_of(
    # Any code points, lone surrogates too, which "surrogatepass" writes as ED xx xx.
    st.text(st.characters(exclude_categories=()), min_size=1, max_size=3).map(
        lambda text: text.encode("utf-8", "surrogatepass")
    ),
    st.sampled_from(["a", "\u00e9", "\u20ac", "\U0001f600", "\U0010ffff"]).map(str.encode),
    st.sampled_from([
        b"\xed\xa0\x80",  # a surrogate, U+D800
        b"\xc0\xaf",  # an overlong "/"
        b"\xe0\x80\xaf",  # an overlong three-byte "/"
        b"\xf4\x90\x80\x80",  # above U+10FFFF
        b"\xff",
        b"\x80",  # a continuation byte with no lead
        b"\xe2\x82",  # a truncated three-byte character
        b"\xf0\x9f\x98",  # a truncated four-byte character
    ]),
)


@settings(max_examples=400, deadline=None)
@given(
    head=st.lists(st.sampled_from([b"a", "\u00e9".encode()]), max_size=12).map(b"".join),
    pieces=st.lists(utf8_pieces, max_size=10).map(b"".join),
    chunk=st.integers(1, 7),
)
@example(head=b"abc", pieces="\u00e9".encode()[:1], chunk=1)  # a truncated tail
@example(head=b"abcdefgh", pieces=b"\xed\xa0\x80", chunk=3)  # a surrogate past the first chunk
def test_utf8_check_refuses_what_bytes_decode_refuses(head, pieces, chunk):
    data = head + pieces
    try:
        data.decode("utf-8")
        expected = None
    except UnicodeDecodeError as exc:
        expected = str(exc)
    with mock.patch.object(respqa.retrieval, "_UTF8_CHUNK", chunk):
        try:
            _check_utf8(data)
            message = None
        except UnicodeDecodeError as exc:
            message = str(exc)
    assert message == expected


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


# Case pairs that change length or context (İ, ß, final sigma), articles and
# punctuation are where skipping tokenize could change the tokens.
answers = st.one_of(
    st.text(),
    st.builds(
        "".join,
        st.lists(
            st.sampled_from(
                ["İ", "ß", "Σ", "ς", "The", " a ", "an", "-", "!", "\u00a0", "x", " "]
            ),
            max_size=10,
        ),
    ),
)


@given(prediction=answers, gold=answers)
@example(prediction="no", gold="no x")
def test_token_f1_scores_the_tokenized_normalized_answers(prediction, gold):
    prediction_norm, gold_norm = normalize_answer(prediction), normalize_answer(gold)
    # HotpotQA's rule: a bare yes, no or noanswer scores only against itself.
    if prediction_norm != gold_norm and {prediction_norm, gold_norm} & {"yes", "no", "noanswer"}:
        expected = 0.0
    else:
        expected = f1_brute_force(tokenize(prediction_norm), tokenize(gold_norm))
    assert token_f1(prediction, [gold]) == expected


class RoleBackend:
    """Replies by role, never by the documents a prompt carries: the judge and
    the planner cycle through their scripted replies, the summarizer and the
    generator give fixed ones. So a run takes the same rounds, and retrieves
    the same hits, whichever of them reach the summarizer."""

    backend_id = "roles"
    order_dependent = True

    def __init__(self, judgements: list[str], plans: list[str]) -> None:
        self.judgements, self.plans = itertools.cycle(judgements), itertools.cycle(plans)

    def complete(self, request):
        if request.role_tag == "reasoner":
            text = next(self.judgements if JUDGE_MARKER in request.prompt else self.plans)
        elif request.role_tag == "summarizer":
            text = "No" if LOCAL_MARKER in request.prompt else "Evidence. [DONE]"
        else:
            text = "answer"
        return LlmResponse(text=text, backend_id=self.backend_id, latency=0.0)


class RecordingRetriever:
    """A retriever that keeps the hits of each call."""

    def __init__(self, inner) -> None:
        self.inner, self.hits = inner, []

    def retrieve(self, query, k):
        self.hits.append(self.inner.retrieve(query, k))
        return self.hits[-1]


# A few words, so that the sub-questions of a question retrieve overlapping
# hits. The other agents' prompts stay under 150 tokens; the summarizer's
# reaches 88 with no document, so a document can overflow the cap alone.
topic_words = st.sampled_from(["alpha", "beta", "gamma", "delta", "omega"])
topic_questions = st.lists(topic_words, min_size=1, max_size=4).map(" ".join)
topic_texts = st.builds(
    lambda words, repeats: " ".join(words * repeats),
    st.lists(topic_words, min_size=1, max_size=8),
    st.sampled_from([1, 4, 16]),
)


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(topic_texts, min_size=1, max_size=12),
    question=topic_questions,
    judgements=st.lists(st.sampled_from(["Yes", "No"]), min_size=1, max_size=4),
    plans=st.lists(topic_questions, min_size=1, max_size=4),
    k=st.integers(1, 6),
    rounds=st.integers(1, 4),
    cap=st.integers(160, 500),
)
# Round 1's first new hit overflows the cap alone, behind a hit round 0 sent.
@example(
    texts=["alpha " * 4, "alpha beta beta beta " * 16], question="alpha", judgements=["No"],
    plans=["alpha alpha"], k=2, rounds=2, cap=160,
)
# The cap cuts d1 from round 0's prompt; round 1 retrieves it again.
@example(
    texts=["gamma " * 8, "alpha gamma " * 40, "alpha " * 2], question="gamma", judgements=["No"],
    plans=["alpha"], k=2, rounds=2, cap=192,
)
def test_each_document_is_summarized_once_and_no_evidence_is_lost(
    texts, question, judgements, plans, k, rounds, cap
):
    retriever = RecordingRetriever(BM25Index.build(
        [Document(f"d{i}", f"d{i}", text) for i, text in enumerate(texts)]
    ))
    backend = RoleBackend(judgements, plans)
    agents = PipelineAgents(BackendRouter(dict.fromkeys(ROLE_TAGS, backend)))
    config = PipelineConfig(top_k=k, max_iterations=rounds, max_input_tokens=cap, log_prompts=True)

    def fitting(hits) -> list[str]:
        """The ids of the longest prefix of ``hits`` whose summarizer prompt fits the cap."""
        def fits(count):
            docs = "\n\n".join(render_docs(hits[:count]))
            bindings = {SLOT_OVERARCHING: question, SLOT_DOCS: docs}
            return whitespace_token_estimate(render_template(agents.templates.global_evidence, bindings)) <= cap
        return [hit.doc_id for hit in hits[: max(n for n in range(len(hits) + 1) if fits(n))]]

    try:
        trace = run_resp(question, retriever, agents, config)
    except PromptTooLargeError:
        # The round fails without the rule too: its top hit overflows the cap alone.
        assert not fitting(retriever.hits[-1])
        return
    earlier: set[str] = set()
    for record in trace.iterations:
        if not record.retrieved:
            assert "global_summary" not in record.prompts
            continue
        sent = summarized_titles(record.prompts["global_summary"])
        full = fitting(record.retrieved)  # what the round would send without the rule
        assert set(full) <= set(sent) | earlier
        new = [hit for hit in record.retrieved if hit.doc_id not in earlier]
        if not new or not fitting(new):
            assert sent == full
        else:
            assert not earlier.intersection(sent)
        earlier.update(sent)
