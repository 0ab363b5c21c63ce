import io
import json
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from respqa.errors import CorpusError, RetrieverError
from respqa.retrieval import (
    BM25Index,
    Document,
    EmbeddingRetriever,
    _posting_arrays,
    _POSTING_ARRAYS,
    read_corpus,
    tokenize,
)

from helpers import (
    bm25_brute_force,
    cosine_brute_force,
    edit_postings_array,
    point_past_the_documents,
    rewrite_index_file,
    swap_second_and_third,
)


def doc(i: int, text: str) -> Document:
    return Document(doc_id=f"d{i}", title=f"Title {i}", text=text)


TEN_DOCS = [
    doc(0, "the cat sat on the mat"),
    doc(1, "a dog chased the cat across the yard"),
    doc(2, "quantum mechanics explains particle behavior"),
    doc(3, "the dog barked at the quantum cat"),
    doc(4, "particles and waves and fields"),
    doc(5, "yard work requires a rake and patience"),
    doc(6, "cat cat cat cat"),
    doc(7, "waves crash on the shore"),
    doc(8, "patience is a virtue the cat lacks"),
    doc(9, "fields of wheat under a blue sky"),
]


class TestTokenize:
    def test_punctuation_and_case(self):
        assert tokenize("The quick, brown fox.") == ["the", "quick", "brown", "fox"]

    def test_empty(self):
        assert tokenize("") == []

    def test_name(self):
        assert tokenize("Charlie Murphy") == ["charlie", "murphy"]

    def test_punctuation_only(self):
        assert tokenize("?!... ---") == []

    def test_unicode(self):
        assert tokenize("¿Qué pasa?") == ["qué", "pasa"]

    def test_deterministic(self):
        text = "Some; odd -- text, with.lots of 'punctuation'!"
        assert tokenize(text) == tokenize(text)

    def test_unicode_punctuation_categories(self):
        # Em dash (Pd), guillemets (Pi, Pf) and the ideographic comma (Po).
        assert tokenize("well\u2014known \u00abBon\u00bb \u6771\u4eac\u3001\u5927\u962a") == [
            "wellknown",
            "bon",
            "\u6771\u4eac\u5927\u962a",
        ]

    def test_soft_hyphen_is_not_punctuation(self):
        # U+00AD is a format character (Cf), so it stays inside the token.
        assert tokenize("Co\u00adoperate now") == ["co\u00adoperate", "now"]


class TestBuildIndex:
    def test_stats_three_doc_fixture(self):
        # Hand-counted: lengths 4, 4, 5; ten distinct terms overall.
        docs = [doc(0, "alpha beta gamma delta"), doc(1, "beta gamma eps zeta"), doc(2, "gamma eta theta iota kappa")]
        index = BM25Index.build(docs)
        stats = index.stats
        assert stats.num_documents == 3
        assert stats.num_terms == 10
        assert stats.avg_doc_length == pytest.approx(13 / 3)

    def test_single_doc(self):
        index = BM25Index.build([doc(0, "a b c")])
        assert index.stats.num_documents == 1
        assert index.stats.avg_doc_length == pytest.approx(3.0)

    def test_duplicate_doc_id(self):
        docs = [Document("same", "t", "x y"), Document("same", "t", "z w")]
        with pytest.raises(CorpusError, match="same"):
            BM25Index.build(docs)

    def test_empty_stream(self):
        with pytest.raises(CorpusError, match="empty"):
            BM25Index.build([])

    def test_blank_text(self):
        with pytest.raises(CorpusError, match="d0"):
            BM25Index.build([doc(0, "   ")])

    def test_lone_surrogate(self):
        with pytest.raises(CorpusError, match="'d0' is not UTF-8 text"):
            BM25Index.build([doc(0, "half a pair \ud800 here")])


class TestRetrieve:
    def test_unique_match(self):
        docs = TEN_DOCS[:5]
        hits = BM25Index.build(docs).retrieve("quantum mechanics", 3)
        assert hits[0].doc_id == "d2"
        assert hits[0].rank == 1

    def test_matches_brute_force(self):
        index = BM25Index.build(TEN_DOCS)
        for query in ["the cat", "dog yard", "quantum particles", "patience", "cat cat dog"]:
            expected = bm25_brute_force(TEN_DOCS, query, 5)
            hits = index.retrieve(query, 5)
            assert [(h.doc_id, pytest.approx(h.score, abs=1e-9)) for h in hits] == expected

    def test_tie_broken_by_doc_id(self):
        docs = [Document("b", "t", "same words here"), Document("a", "t", "same words here"),
                Document("c", "t", "other content entirely")]
        hits = BM25Index.build(docs).retrieve("same words", 2)
        assert [h.doc_id for h in hits] == ["a", "b"]
        assert hits[0].score == pytest.approx(hits[1].score)

    def test_deterministic(self):
        index = BM25Index.build(TEN_DOCS)
        assert index.retrieve("the cat dog", 5) == index.retrieve("the cat dog", 5)

    def test_empty_query(self):
        index = BM25Index.build(TEN_DOCS)
        assert index.retrieve("", 5) == []
        assert index.retrieve("?!.", 5) == []

    def test_k_must_be_positive(self):
        index = BM25Index.build(TEN_DOCS)
        with pytest.raises(ValueError):
            index.retrieve("cat", 0)

    def test_fewer_than_k_when_few_match(self):
        index = BM25Index.build(TEN_DOCS)
        hits = index.retrieve("rake", 5)
        assert len(hits) == 1
        assert hits[0].doc_id == "d5"

    def test_unknown_terms_only(self):
        index = BM25Index.build(TEN_DOCS)
        assert index.retrieve("zebra xylophone", 5) == []

    def test_rank_and_score_invariants(self):
        index = BM25Index.build(TEN_DOCS)
        hits = index.retrieve("the cat on the yard", 10)
        assert [h.rank for h in hits] == list(range(1, len(hits) + 1))
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)
        assert all(score > 0 for score in scores)


def shorten_the_last(bounds):
    bounds[-1] -= 1


def start_after_zero(offsets):
    offsets[0] = 1


def step_back_into_the_title(bounds):
    # The first title ends in a two-byte character; the text now starts inside it.
    bounds[2] -= 1


def break_the_utf8(index_dir):
    data = (index_dir / "documents.txt").read_bytes()
    rewrite_index_file(index_dir, "documents.txt", data.replace(b"cat", b"c\xfft", 1))


def duplicate_the_first_term(index_dir):
    terms = (index_dir / "terms.txt").read_text(encoding="utf-8").split("\n")
    terms[1] = terms[0]
    rewrite_index_file(index_dir, "terms.txt", "\n".join(terms).encode("utf-8"))


class TestPersistence:
    def test_round_trip_identical_results(self, tmp_path):
        index = BM25Index.build(TEN_DOCS)
        queries = ["the cat", "dog yard patience", "quantum", "wheat sky"]
        before = [index.retrieve(q, 4) for q in queries]
        index.save(tmp_path / "idx")
        reopened = BM25Index.open(tmp_path / "idx")
        after = [reopened.retrieve(q, 4) for q in queries]
        assert before == after
        assert reopened.stats == index.stats

    def test_open_missing_manifest(self, tmp_path):
        with pytest.raises(CorpusError, match="manifest"):
            BM25Index.open(tmp_path)

    def test_save_replaces_an_existing_index(self, tmp_path):
        BM25Index.build(TEN_DOCS).save(tmp_path / "idx")
        BM25Index.build(TEN_DOCS[:3]).save(tmp_path / "idx")
        assert BM25Index.open(tmp_path / "idx").stats.num_documents == 3
        assert [p.name for p in tmp_path.iterdir()] == ["idx"]

    def test_failed_save_keeps_the_previous_index(self, tmp_path, monkeypatch):
        BM25Index.build(TEN_DOCS).save(tmp_path / "idx")

        def fail(self, data):
            raise OSError("disk full")

        monkeypatch.setattr("pathlib.Path.write_bytes", fail)
        with pytest.raises(OSError, match="disk full"):
            BM25Index.build(TEN_DOCS[:3]).save(tmp_path / "idx")
        monkeypatch.undo()
        assert BM25Index.open(tmp_path / "idx").stats.num_documents == 10
        assert [p.name for p in tmp_path.iterdir()] == ["idx"]

    def test_save_refuses_a_directory_that_is_not_an_index(self, tmp_path):
        keep = tmp_path / "notes.txt"
        keep.write_text("mine")
        with pytest.raises(CorpusError, match="not an index"):
            BM25Index.build(TEN_DOCS).save(tmp_path)
        assert keep.read_text() == "mine"

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("postings.bin", lambda data: data[:-3]),
            ("documents.txt", lambda data: data.replace(b"cat", b"cot", 1)),
            ("terms.txt", None),
            ("manifest.json", lambda data: data[: len(data) // 2]),
        ],
        ids=["truncated-postings", "modified-documents", "missing-terms", "truncated-manifest"],
    )
    def test_open_rejects_damaged_files(self, tmp_path, name, damage):
        BM25Index.build(TEN_DOCS).save(tmp_path / "idx")
        path = tmp_path / "idx" / name
        if damage is None:
            path.unlink()
        else:
            path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(CorpusError, match=name):
            BM25Index.open(tmp_path / "idx")

    def test_open_cross_checks_manifest_counts(self, tmp_path):
        BM25Index.build(TEN_DOCS).save(tmp_path / "idx")
        manifest = tmp_path / "idx" / "manifest.json"
        data = json.loads(manifest.read_text())
        data["num_documents"] = 9
        manifest.write_text(json.dumps(data))
        with pytest.raises(CorpusError, match="counts"):
            BM25Index.open(tmp_path / "idx")

    def test_open_rejects_version_1_with_rebuild_hint(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format_tag": "respqa-bm25", "format_version": 1, "num_documents": 1})
        )
        with pytest.raises(CorpusError, match=r"version 1 .*rebuild the index with `respqa index`"):
            BM25Index.open(tmp_path)

    @pytest.mark.parametrize(
        "edit, fragment",
        [
            (lambda dtypes: dtypes.update(term_freqs="<i4"), "'term_freqs' has dtype '<i4'"),
            (lambda dtypes: dtypes.update(offsets=">u8"), "'offsets' has dtype '>u8'"),
            (lambda dtypes: dtypes.pop("doc_indices"), "'doc_indices' has dtype None"),
            (lambda dtypes: dtypes.clear(), "'doc_lengths' has dtype None"),
            (lambda dtypes: dtypes.update(doc_lengths="<u2"), "postings.bin holds .* add up to"),
            (None, "postings_dtypes must be a mapping, got None"),
        ],
        ids=["signed", "eight-byte", "one-missing", "all-missing", "lengths-disagree", "no-dtypes"],
    )
    def test_open_rejects_bad_postings_dtypes(self, tmp_path, edit, fragment):
        BM25Index.build(TEN_DOCS).save(tmp_path / "idx")
        manifest = tmp_path / "idx" / "manifest.json"
        data = json.loads(manifest.read_text())
        if edit is None:
            del data["postings_dtypes"]
        else:
            edit(data["postings_dtypes"])
        manifest.write_text(json.dumps(data))
        with pytest.raises(CorpusError, match=f"{fragment}.*rebuild it with `respqa index`"):
            BM25Index.open(tmp_path / "idx")

    @pytest.mark.parametrize(
        "docs, dtypes",
        [
            (
                [doc(0, "cat " * 255), doc(1, "cat dog"), doc(2, "dog bird")],
                {"doc_lengths": "|u1", "offsets": "|u1", "doc_indices": "|u1", "term_freqs": "|u1",
                 "doc_fields": "<u2"},
            ),
            (
                [doc(0, "cat " * 256), doc(1, "cat dog"), doc(2, "dog bird")],
                {"doc_lengths": "<u2", "offsets": "|u1", "doc_indices": "|u1", "term_freqs": "<u2",
                 "doc_fields": "<u2"},
            ),
            (
                [doc(0, "cat " * 65_536 + "dog"), doc(1, "cat dog"), doc(2, "dog bird")],
                {"doc_lengths": "<u4", "offsets": "|u1", "doc_indices": "|u1", "term_freqs": "<u4",
                 "doc_fields": "<u4"},
            ),
            (
                [doc(i, f"cat w{i} w{i % 7} w{i % 11}") for i in range(300)],
                {"doc_lengths": "|u1", "offsets": "<u2", "doc_indices": "<u2", "term_freqs": "|u1",
                 "doc_fields": "<u2"},
            ),
        ],
        ids=["tf-255", "tf-256", "tf-65536", "300-docs"],
    )
    def test_round_trip_at_the_dtype_edges(self, tmp_path, docs, dtypes):
        index = BM25Index.build(docs)
        index.save(tmp_path / "idx")
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
        assert manifest["postings_dtypes"] == dtypes
        reopened = BM25Index.open(tmp_path / "idx")
        for query in ["cat", "dog", "cat dog bird", "w3 w5 cat", "w299"]:
            fresh = [(h.doc_id, h.score) for h in index.retrieve(query, 10)]
            assert [(h.doc_id, h.score) for h in reopened.retrieve(query, 10)] == fresh
            assert fresh == bm25_brute_force(docs, query, 10)
        assert reopened.stats == index.stats

    @pytest.mark.parametrize(
        "docs, damage, fragment",
        [
            (
                TEN_DOCS,
                lambda idx: edit_postings_array(idx, "doc_fields", swap_second_and_third),
                "field offsets decrease",
            ),
            (
                TEN_DOCS,
                lambda idx: edit_postings_array(idx, "doc_fields", shorten_the_last),
                "field offsets decrease or do not span documents.txt",
            ),
            (
                [Document("d0", "Caf\u00e9", "cr\u00e8me br\u00fbl\u00e9e"), doc(1, "cat")],
                lambda idx: edit_postings_array(idx, "doc_fields", step_back_into_the_title),
                "offset falls inside a UTF-8 character",
            ),
            (TEN_DOCS, break_the_utf8, "can't decode byte 0xff"),
            (TEN_DOCS, duplicate_the_first_term, "terms.txt lists a term more than once"),
            (
                TEN_DOCS,
                lambda idx: edit_postings_array(idx, "doc_indices", point_past_the_documents),
                "a posting's document index is not below 10 documents",
            ),
            (
                TEN_DOCS,
                lambda idx: edit_postings_array(idx, "offsets", swap_second_and_third),
                "term offsets decrease",
            ),
            (
                TEN_DOCS,
                lambda idx: edit_postings_array(idx, "offsets", start_after_zero),
                "term offsets decrease or do not span",
            ),
            (
                TEN_DOCS,
                lambda idx: edit_postings_array(idx, "offsets", shorten_the_last),
                r"term offsets decrease or do not span the \d+ postings",
            ),
        ],
        ids=["fields-decrease", "fields-end-short", "field-inside-a-character", "invalid-utf8",
             "duplicate-term", "doc-index-past-the-end", "offsets-decrease", "offsets-start-late",
             "offsets-end-short"],
    )
    def test_open_rejects_files_that_disagree(self, tmp_path, docs, damage, fragment):
        BM25Index.build(docs).save(tmp_path / "idx")
        damage(tmp_path / "idx")
        with pytest.raises(CorpusError, match=f"{fragment}.*rebuild it with `respqa index`"):
            BM25Index.open(tmp_path / "idx")

    def test_eight_byte_arrays_round_trip(self):
        # A corpus of 4 GiB or more of UTF-8 needs eight-byte field offsets.
        arrays = [
            np.array([3], dtype="|u1"),
            np.array([0, 1], dtype="<u2"),
            np.array([0], dtype="<u4"),
            np.array([3], dtype="|u1"),
            np.array([0, 2, 7, 2**32 + 5], dtype="<u8"),
        ]
        dtypes = dict(zip(_POSTING_ARRAYS, (a.dtype.str for a in arrays)))
        assert dtypes["doc_fields"] == np.min_scalar_type(2**32).newbyteorder("<").str
        data = b"".join(a.tobytes() for a in arrays)
        read = _posting_arrays(data, dtypes, tuple(map(len, arrays)))
        for got, want in zip(read, arrays, strict=True):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("retriever", ["bm25", "dense"])
    def test_reopened_ties_follow_doc_id_code_points(self, tmp_path, retriever):
        # UTF-16 would put U+10000 before U+FF61; code-point order puts it after.
        ids = ["\U00010000", "\uff61", "\u00e9", "z", "Z"]
        docs = [Document(doc_id, "", "same words") for doc_id in ids]
        if retriever == "bm25":
            BM25Index.build(docs).save(tmp_path / "idx")
            ranker = BM25Index.open(tmp_path / "idx")
        else:  # every vector equal, so every score ties
            ranker = EmbeddingRetriever(docs, dict.fromkeys(ids, [1.0, 2.0]), lambda _: [1.0, 2.0])
        hits = ranker.retrieve("same", 5)
        assert [hit.doc_id for hit in hits] == sorted(ids)

    def test_open_rejects_wrong_format_tag(self, tmp_path):
        index = BM25Index.build(TEN_DOCS[:2])
        index.save(tmp_path / "idx")
        manifest = tmp_path / "idx" / "manifest.json"
        data = json.loads(manifest.read_text())
        data["format_tag"] = "something-else"
        manifest.write_text(json.dumps(data))
        with pytest.raises(CorpusError, match="format tag"):
            BM25Index.open(tmp_path / "idx")


class TestReadCorpus:
    def write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_valid(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                json.dumps({"id": "a", "title": "A", "contents": "alpha text"}),
                json.dumps({"id": "b", "title": "B", "contents": "beta text"}),
            ],
        )
        docs = list(read_corpus(path))
        assert [d.doc_id for d in docs] == ["a", "b"]
        assert docs[0].text == "alpha text"

    def test_invalid_json_names_line(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"id": "a", "title": "", "contents": "x"}), "{broken"])
        with pytest.raises(CorpusError, match=":2:"):
            list(read_corpus(path))

    def test_missing_key_names_line(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"id": "a", "contents": "x"})])
        with pytest.raises(CorpusError, match="title"):
            list(read_corpus(path))

    def test_blank_contents_rejected(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"id": "a", "title": "t", "contents": "  "})])
        with pytest.raises(CorpusError, match="contents"):
            list(read_corpus(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            list(read_corpus(tmp_path / "nope.jsonl"))

    @pytest.mark.parametrize("key", ["id", "title", "contents"])
    def test_lone_surrogate_names_line(self, tmp_path, key):
        row = {"id": "a", "title": "t", "contents": "text"}
        row[key] += "\ud800"
        first = {"id": "z", "title": "", "contents": "x"}
        path = self.write(tmp_path, [json.dumps(first), json.dumps(row)])
        with pytest.raises(CorpusError, match=f":2: '{key}' holds a lone surrogate"):
            list(read_corpus(path))

    def test_crlf_endings_and_blank_lines(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        row = {"id": "a", "title": "A", "contents": "alpha"}
        path.write_bytes(b"\r\n" + json.dumps(row).encode() + b"\r\n  \r\n{broken\r\n")
        with pytest.raises(CorpusError, match=":4: not UTF-8 JSON"):
            list(read_corpus(path))
        path.write_bytes(b"\r\n" + json.dumps(row).encode() + b"\r\n")
        assert list(read_corpus(path)) == [Document("a", "A", "alpha")]


class TestEmbeddingRetriever:
    DOCS = [Document("a", "A", "alpha"), Document("b", "B", "beta"), Document("c", "C", "gamma")]
    VECTORS = {"a": [1.0, 0.0], "b": [0.7, 0.7], "c": [0.0, 1.0]}

    def test_cosine_ranking(self):
        retriever = EmbeddingRetriever(self.DOCS, self.VECTORS, embed=lambda q: [1.0, 0.0])
        hits = retriever.retrieve("anything", 3)
        assert [h.doc_id for h in hits] == ["a", "b"]  # c has cosine 0, dropped
        assert hits[0].score == pytest.approx(1.0)
        assert hits[0].rank == 1

    def test_negative_cosine_clamped_out(self):
        retriever = EmbeddingRetriever(
            self.DOCS, {"a": [-1.0, 0.0], "b": [-0.5, -0.5], "c": [-0.1, -0.9]},
            embed=lambda q: [1.0, 0.0],
        )
        assert retriever.retrieve("anything", 3) == []

    def test_empty_document_list(self):
        with pytest.raises(CorpusError, match="empty"):
            EmbeddingRetriever([], {}, embed=lambda q: [1.0, 0.0])

    def test_missing_vector(self):
        with pytest.raises(CorpusError, match="c"):
            EmbeddingRetriever(self.DOCS, {"a": [1.0], "b": [1.0]}, embed=lambda q: [1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_query_vector(self, bad):
        retriever = EmbeddingRetriever(self.DOCS, self.VECTORS, embed=lambda q: [1.0, bad])
        with pytest.raises(RetrieverError, match="query vector has a non-finite component"):
            retriever.retrieve("anything", 3)

    @pytest.mark.parametrize(
        "reply, message",
        [
            ([[1.0], [2.0, 3.0]], "component \\[1.0\\] is not a number"),
            ([[1.0, 0.0]], "is not a number"),
            (["1.5", True], "component '1.5' is not a number"),
            ([1.0, None], "component None is not a number"),
            ([True, 0.0], "component True is not a number"),
            ([np.bool_(True), 0.0], "is not a number"),
            (np.array([True, False]), "dtype bool"),
            (np.array(["1", "0"]), "dtype <U1"),
            ([10**400, 0.0], "overflows a float"),
            (None, "NoneType, not a sequence"),
            (b"\x01\x02", "bytes, not a sequence of numbers"),
        ],
        ids=["ragged", "nested", "string", "none", "bool", "numpy-bool", "bool-array",
             "string-array", "huge-int", "none-reply", "bytes-reply"],
    )
    def test_bad_query_vector(self, reply, message):
        retriever = EmbeddingRetriever(self.DOCS, self.VECTORS, embed=lambda q: reply)
        with pytest.raises(RetrieverError, match=message):
            retriever.retrieve("anything", 3)

    @pytest.mark.parametrize(
        "reply",
        [
            [1, 0],
            (1.0, 0),
            [np.float32(1.0), np.int64(0)],
            np.array([1, 0], dtype=np.int32),
            np.array([1.0, 0.0], dtype=np.float32),
        ],
        ids=["ints", "tuple", "numpy-scalars", "int-array", "float32-array"],
    )
    def test_query_vector_of_ints_and_floats(self, reply):
        retriever = EmbeddingRetriever(self.DOCS, self.VECTORS, embed=lambda q: reply)
        assert [h.doc_id for h in retriever.retrieve("anything", 3)] == ["a", "b"]
        if isinstance(reply, np.ndarray):
            assert reply.tolist() == [1, 0]  # the caller's array is not scaled in place

    def test_vector_lengths_must_agree(self):
        with pytest.raises(CorpusError, match="one length"):
            EmbeddingRetriever(self.DOCS, {"a": [1.0], "b": [1.0, 0.0], "c": [0.0]}, lambda q: [1.0])
        retriever = EmbeddingRetriever(self.DOCS, self.VECTORS, embed=lambda q: [1.0, 0.0, 0.0])
        with pytest.raises(RetrieverError, match="shape"):
            retriever.retrieve("anything", 3)


class TestEmbeddingEndpointClient:
    class FakeSession:
        def __init__(self, outcome):
            self.outcome = outcome
            self.calls = []

        def post(self, url, json=None, headers=None, timeout=None):
            self.calls.append({"url": url, "json": json, "headers": headers})
            if isinstance(self.outcome, Exception):
                raise self.outcome
            return self.outcome

    class FakeResponse:
        status_code = 200

        def __init__(self, payload):
            self.payload = payload

        def json(self):
            return self.payload

    def test_success_and_wire_shape(self):
        from respqa.retrieval import EmbeddingEndpointClient

        session = self.FakeSession(self.FakeResponse({"data": [{"embedding": [0.1, 0.2]}]}))
        client = EmbeddingEndpointClient(
            "http://emb.test/v1", model="embed-model", api_key="key", session=session
        )
        assert client("hello") == [0.1, 0.2]
        call = session.calls[0]
        assert call["url"] == "http://emb.test/v1/embeddings"
        assert call["json"] == {"model": "embed-model", "input": ["hello"]}
        assert call["headers"]["Authorization"] == "Bearer key"

    @pytest.mark.parametrize(
        "embedding, fragment",
        [
            (["1.5", 2.0], "embedding component '1.5' is not a number"),
            ([1.5, True], "embedding component True is not a number"),
            ([1.5, None], "embedding component None is not a number"),
            ("12", "embedding is str, not an array"),
            ([1, 10**400], "too large"),
        ],
        ids=["string", "bool", "null", "a-string-not-an-array", "integer-past-the-float-range"],
    )
    def test_components_must_be_json_numbers(self, embedding, fragment):
        from respqa.retrieval import EmbeddingEndpointClient

        session = self.FakeSession(self.FakeResponse({"data": [{"embedding": embedding}]}))
        client = EmbeddingEndpointClient("http://emb.test/v1", model="m", session=session)
        with pytest.raises(RetrieverError, match=f"embedding endpoint failed: .*{fragment}"):
            client("hello")

    def test_malformed_payload(self):
        from respqa.errors import RetrieverError
        from respqa.retrieval import EmbeddingEndpointClient

        session = self.FakeSession(self.FakeResponse({"data": []}))
        client = EmbeddingEndpointClient("http://emb.test/v1", model="m", session=session)
        with pytest.raises(RetrieverError):
            client("hello")

    @pytest.mark.parametrize("payload", [[1, 2], {"data": [{"embedding": None}]}])
    def test_reply_of_the_wrong_type(self, payload):
        from respqa.errors import RetrieverError
        from respqa.retrieval import EmbeddingEndpointClient

        session = self.FakeSession(self.FakeResponse(payload))
        client = EmbeddingEndpointClient("http://emb.test/v1", model="m", session=session)
        with pytest.raises(RetrieverError, match="embedding endpoint failed"):
            client("hello")


def test_load_vectors(tmp_path):
    from respqa.retrieval import load_vectors

    path = tmp_path / "vectors.jsonl"
    path.write_text(
        json.dumps({"id": "a", "vector": [1, 2]}) + "\n" + json.dumps({"id": "b", "vector": [3]}) + "\n"
    )
    loaded = load_vectors(path)
    assert {doc_id: v.tolist() for doc_id, v in loaded.items()} == {"a": [1.0, 2.0], "b": [3.0]}
    assert {v.dtype for v in loaded.values()} == {np.dtype(np.float64)}
    # Finite components are accepted even when their sum overflows.
    path.write_text(json.dumps({"id": "a", "vector": [1.7e308, 1.7e308]}) + "\n")
    assert {doc_id: v.tolist() for doc_id, v in load_vectors(path).items()} == {
        "a": [1.7e308, 1.7e308]
    }
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"id": "a"}) + "\n")
    with pytest.raises(CorpusError, match=":1:"):
        load_vectors(bad)


@pytest.mark.parametrize(
    "rows, fragment",
    [
        ([{"id": "d1", "vector": [3.0]}, {"id": "d1", "vector": [1.0]}], ":2: duplicate id 'd1'"),
        ([{"id": "d1", "vector": [3.0]}, {"id": 5, "vector": [1.0]}], ":2: 'id' must be a string"),
        ([{"id": "d1", "vector": "123"}], ":1: 'vector' must be a JSON array, got str"),
        ([{"id": "d1", "vector": 7}], ":1: 'vector' must be a JSON array, got int"),
        (
            [{"id": "d1", "vector": [1.0]}, {"id": "d2", "vector": [float("nan")]}],
            ":2: vector has a non-finite",
        ),
        ([{"id": "d1", "vector": [1.0, float("-inf")]}], ":1: vector has a non-finite"),
        ([{"id": "d1", "vector": ["1.5", 2.0]}], ":1: vector component '1.5' is not a number"),
        ([{"id": "d1", "vector": [1.5, True]}], ":1: vector component True is not a number"),
        ([{"id": "d1", "vector": [None]}], ":1: vector component None is not a number"),
        ([{"id": "d1", "vector": [1, 10**400]}], ":1: vector has a component out of range"),
    ],
)
def test_load_vectors_rejects_bad_ids(tmp_path, rows, fragment):
    from respqa.retrieval import load_vectors

    path = tmp_path / "vectors.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(CorpusError, match=fragment):
        load_vectors(path)


# Lines that orjson refuses or reads otherwise than json.loads, each with the
# rows, or the message after the path, that the json.loads parse gives.
STDLIB_PARSE_CASES = {
    "nan": (b'{"id": "a", "vector": [NaN]}\n', ":1: vector has a non-finite component"),
    "infinity": (
        b'{"id": "a", "vector": [1.0, -Infinity]}\n',
        ":1: vector has a non-finite component",
    ),
    "1e400": (b'{"id": "a", "vector": [1e400]}\n', ":1: vector has a non-finite component"),
    "integer-past-the-float-range": (
        b'{"id": "a", "vector": [1' + b"0" * 400 + b"]}\n",
        ":1: vector has a component out of range (int too large to convert to float)",
    ),
    "lone-surrogate-escape": (b'{"id": "\\ud800", "vector": [1.0]}\n', {"\ud800": [1.0]}),
    "surrogate-bytes": (
        b'{"id": "\xed\xa0\x80", "vector": [1.0]}\n',
        ":1: not UTF-8 JSON ('utf-8' codec can't decode byte 0xed in position 8: "
        "invalid continuation byte)",
    ),
    "bom": (
        b'\xef\xbb\xbf{"id": "a", "vector": [1.0]}\n',
        ":1: not UTF-8 JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0))",
    ),
    "blank-lines": (
        b'\n{"id": "a", "vector": [1.0]}\n   \n\t\r\n{"id": "b", "vector": [2]}\n\n',
        {"a": [1.0], "b": [2.0]},
    ),
    "blank-lines-then-a-duplicate": (
        b'{"id": "a", "vector": [1]}\n \n{"id": "a", "vector": [2]}\n',
        ":3: duplicate id 'a'",
    ),
    "crlf": (
        b'{"id": "a", "vector": [1.0]}\r\n{"id": "b", "vector": [-0.0, 5e-324]}\r\n',
        {"a": [1.0], "b": [-0.0, 5e-324]},
    ),
    "integer-id-past-64-bits": (
        b'{"id": 18446744073709551616, "vector": [1.0]}\n',
        ":1: 'id' must be a string, got 18446744073709551616",
    ),
    "integer-vector-past-64-bits": (
        b'{"id": "a", "vector": 18446744073709551616}\n',
        ":1: 'vector' must be a JSON array, got int",
    ),
    "nested-integer-past-64-bits": (
        b'{"id": "a", "vector": [[18446744073709551616]]}\n',
        ":1: vector component [18446744073709551616] is not a number",
    ),
    "components-past-64-bits": (
        b'{"id": "a", "vector": [18446744073709551616, -9223372036854775809]}\n',
        {"a": [18446744073709551616.0, -9223372036854775809.0]},
    ),
    "duplicate-key": (b'{"id": "a", "vector": [1], "vector": [2]}\n', {"a": [2.0]}),
    "another-key": (b'{"id": "a", "vector": [1], "title": "x"}\n', {"a": [1.0]}),
}


@pytest.mark.parametrize(
    "content, expected", STDLIB_PARSE_CASES.values(), ids=STDLIB_PARSE_CASES.keys()
)
def test_load_vectors_keeps_the_stdlib_parse(tmp_path, content, expected):
    from respqa.retrieval import load_vectors

    path = tmp_path / "vectors.jsonl"
    path.write_bytes(content)
    if isinstance(expected, str):
        with pytest.raises(CorpusError) as caught:
            load_vectors(path)
        assert str(caught.value) == f"{path}{expected}"
    else:
        loaded = load_vectors(path)
        assert {doc_id: v.tobytes() for doc_id, v in loaded.items()} == {
            doc_id: np.array(v, dtype=np.float64).tobytes() for doc_id, v in expected.items()
        }


@pytest.mark.parametrize(
    "line",
    [
        b'{"id": "a", "vector": ' + b"[" * 100_000 + b"]" * 100_000 + b"}\n",
        b'{"id": ' + b"[" * 100_000 + b"]" * 100_000 + b', "vector": [1.0]}\n',
        b'{"id": "a", "vector": [1.0], "x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}\n",
    ],
    ids=["vector", "id", "another-key"],
)
def test_load_vectors_refuses_deep_nesting(tmp_path, line):
    # orjson parses these lines; json.loads runs out of recursion depth.
    from respqa.retrieval import load_vectors

    path = tmp_path / "vectors.jsonl"
    path.write_bytes(b'{"id": "b", "vector": [1.0]}\n' + line)
    with pytest.raises(CorpusError, match=r":2: JSON nested too deeply to parse$"):
        load_vectors(path)


class CheckReached(Exception):
    pass


def test_load_vectors_converts_number_rows_in_one_call(tmp_path, monkeypatch):
    from respqa import retrieval

    def refuse(values, name):
        raise CheckReached

    monkeypatch.setattr(retrieval, "_check_numbers", refuse)
    rng = random.Random(7)
    rows = {f"d{i}": [rng.uniform(-1.0, 1.0) for _ in range(8)] + [i, -0.0] for i in range(20)}
    path = tmp_path / "vectors.jsonl"
    # json.dumps's layout ends each line with the vector, and the id is a string.
    path.write_text("".join(json.dumps({"id": k, "vector": v}) + "\n" for k, v in rows.items()))
    loaded = retrieval.load_vectors(path)
    assert {k: v.tobytes() for k, v in loaded.items()} == {
        k: np.array(v, dtype=np.float64).tobytes() for k, v in rows.items()
    }
    # With the vector first, the line cannot prove its vector holds only numbers.
    path.write_text(json.dumps({"vector": [1.0, 2.0], "id": "a"}) + "\n")
    with pytest.raises(CheckReached):
        retrieval.load_vectors(path)


@pytest.mark.parametrize(
    "content",
    [
        b'{"id": "a"}\n' + b"x" * 200_000 + b"\n\n" + b"y" * 70_000 + b"\r\nlast\n",
        b"first\n" + b"z" * 200_000,
    ],
    ids=["200-kb-line", "no-final-newline"],
)
def test_jsonl_lines_yields_each_line_and_its_number(tmp_path, content):
    from respqa.jsonl import jsonl_lines

    path = tmp_path / "rows.jsonl"
    path.write_bytes(content)
    lines = io.BytesIO(content).readlines()
    assert list(jsonl_lines(path, CorpusError)) == [
        (f"{path}:{lineno}", line) for lineno, line in enumerate(lines, start=1)
    ]


def test_bm25_runs_do_not_import_orjson(tmp_path):
    import os
    import subprocess
    import sys

    import respqa

    path = tmp_path / "vectors.jsonl"
    path.write_text(json.dumps({"id": "d0", "vector": [1.0]}) + "\n")
    src = os.path.dirname(os.path.dirname(respqa.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, respqa.cli\n"
        "from respqa.retrieval import BM25Index, Document, load_vectors\n"
        "BM25Index.build([Document('d0', 't', 'cat')]).retrieve('cat', 1)\n"
        "print('orjson' in sys.modules)\n"
        f"load_vectors({str(path)!r})\n"
        "print('orjson' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


def test_random_corpora_against_brute_force_smoke():
    rng = random.Random(20240817)
    vocab = [f"w{i}" for i in range(30)]
    for _ in range(5):
        docs = [
            Document(f"doc{i:03d}", "t", " ".join(rng.choices(vocab, k=rng.randint(3, 25))))
            for i in range(rng.randint(2, 40))
        ]
        index = BM25Index.build(docs)
        for _ in range(5):
            query = " ".join(rng.choices(vocab + ["missing"], k=rng.randint(1, 4)))
            k = rng.randint(1, 8)
            expected = bm25_brute_force(docs, query, k)
            hits = index.retrieve(query, k)
            assert [h.doc_id for h in hits] == [doc_id for doc_id, _ in expected]
            for hit, (_, score) in zip(hits, expected):
                assert hit.score == pytest.approx(score, abs=1e-9)


def tied_corpus(rng: random.Random, vocab: list[str]) -> list[Document]:
    """Documents drawn from a few distinct texts, so many scores tie
    exactly; doc_ids are inserted out of sorted order."""
    texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 6))) for _ in range(rng.randint(1, 8))]
    ids = [f"doc{i:03d}" for i in range(rng.randint(1, 50))]
    rng.shuffle(ids)
    return [Document(doc_id, "t", rng.choice(texts)) for doc_id in ids]


def test_bm25_equals_brute_force_exactly_on_tied_random_corpora(tmp_path):
    rng = random.Random(20241017)
    vocab = [f"w{i}" for i in range(12)]
    seen = {"tie": False, "repeated_term": False, "k_above_matches": False}
    for trial in range(30):
        docs = tied_corpus(rng, vocab)
        index = BM25Index.build(docs)
        index.save(tmp_path / f"idx{trial}")
        reopened = BM25Index.open(tmp_path / f"idx{trial}")
        for _ in range(10):
            terms = rng.choices(vocab + ["absent"], k=rng.randint(1, 6))
            query, k = " ".join(terms), rng.randint(1, len(docs) + 5)
            expected = bm25_brute_force(docs, query, k)
            hits = index.retrieve(query, k)
            assert [(h.doc_id, h.score) for h in hits] == expected
            assert reopened.retrieve(query, k) == hits
            scores = [score for _, score in expected]
            seen["tie"] |= len(set(scores)) < len(scores)
            seen["repeated_term"] |= len(set(terms)) < len(terms)
            seen["k_above_matches"] |= 0 < len(expected) < k
    assert all(seen.values()), seen


def zipf_corpus(n_docs: int, seed: int, vocab_size: int = 600) -> list[Document]:
    """Documents of 20-80 words from a Zipf-weighted vocabulary; ids out of order."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(vocab_size)]
    weights = [1.0 / (rank + 1) for rank in range(vocab_size)]
    ids = [f"doc{i:05d}" for i in range(n_docs)]
    rng.shuffle(ids)
    return [
        Document(doc_id, "t", " ".join(rng.choices(vocab, weights, k=rng.randint(20, 80))))
        for doc_id in ids
    ]


def zipf_queries(count: int, seed: int, vocab_size: int = 600) -> list[str]:
    """Queries of 1-6 Zipf-weighted words, as in the documents, plus the word "absent"."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(vocab_size)] + ["absent"]
    weights = [1.0 / (rank + 1) for rank in range(vocab_size + 1)]
    return [" ".join(rng.choices(vocab, weights, k=rng.randint(1, 6))) for _ in range(count)]


def exact_hits(index: BM25Index, queries: list[str]) -> list[list[tuple[str, str]]]:
    """Each query's (doc_id, score as hex) at k = 1, 5 and 40."""
    return [
        [(hit.doc_id, hit.score.hex()) for hit in index.retrieve(query, k)]
        for query in queries
        for k in (1, 5, 40)
    ]


def test_open_allocates_under_eight_bytes_a_posting_beyond_its_files(tmp_path):
    BM25Index.build(zipf_corpus(3000, seed=1)).save(tmp_path / "idx")
    manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
    file_bytes = sum(entry["bytes"] for entry in manifest["files"].values())
    postings = manifest["num_postings"]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = BM25Index.open(tmp_path / "idx")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert index.stats.num_documents == 3000 and postings > 50_000
    # Open keeps its files' bytes; an intp document index and a float64 gain
    # for every posting would add 16 B a posting.
    assert held - file_bytes < 8 * postings


def test_concurrent_first_queries_equal_a_sequential_run(tmp_path):
    BM25Index.build(zipf_corpus(2000, seed=2)).save(tmp_path / "idx")
    queries = zipf_queries(50, seed=3)
    expected = exact_hits(BM25Index.open(tmp_path / "idx"), queries)
    workers = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            index = BM25Index.open(tmp_path / "idx")  # no term queried yet
            start = threading.Barrier(workers, timeout=30)
            results: list[object] = [None] * workers

            def work(slot: int) -> None:
                start.wait()
                results[slot] = exact_hits(index, queries)

            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert all(result == expected for result in results)
    finally:
        sys.setswitchinterval(interval)


def test_built_and_reopened_indexes_rank_alike_in_any_query_order(tmp_path):
    built = BM25Index.build(zipf_corpus(1500, seed=4))
    built.save(tmp_path / "before")
    queries = zipf_queries(150, seed=5)
    from_build = exact_hits(built, queries)
    built.save(tmp_path / "after")  # the kept gains never reach the files
    for name in ("manifest.json", "documents.txt", "terms.txt", "postings.bin"):
        assert (tmp_path / "before" / name).read_bytes() == (tmp_path / "after" / name).read_bytes()
    reopened = BM25Index.open(tmp_path / "after")
    assert exact_hits(reopened, queries[::-1]) == exact_hits(built, queries[::-1])
    assert exact_hits(reopened, queries) == from_build


def test_k1_and_b_are_read_at_construction():
    expected = BM25Index.build(TEN_DOCS, k1=0.9, b=0.4).retrieve("the quantum cat", 5)
    index = BM25Index.build(TEN_DOCS, k1=0.9, b=0.4)
    index.k1, index.b = 2.0, 1.0  # before any term's gains are computed
    assert index.retrieve("the quantum cat", 5) == expected


def test_dense_equals_brute_force_cosine():
    rng = random.Random(7)
    dim = 64
    shared = [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(5)]
    shared.append([0.0] * dim)
    # 43 rows, not a multiple of 4: blocked mat-vec kernels round their tail
    # rows differently, which would split tied vectors out of doc-id order.
    ids = [f"d{i:02d}" for i in range(43)]
    rng.shuffle(ids)
    docs = [Document(doc_id, "t", "x") for doc_id in ids]
    vectors = {doc_id: list(rng.choice(shared)) for doc_id in ids}
    queries = [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(20)]
    queries += [[0.0] * dim] + [[-x for x in shared[0]]]
    for query in queries:
        retriever = EmbeddingRetriever(docs, vectors, embed=lambda _: query)
        for k in (1, 3, len(docs) + 2):
            expected = cosine_brute_force(docs, vectors, query, k)
            hits = retriever.retrieve("q", k)
            assert [h.doc_id for h in hits] == [doc_id for doc_id, _ in expected]
            for hit, (_, score) in zip(hits, expected):
                assert hit.score == pytest.approx(score, rel=1e-12)


def test_dense_all_negative_cosines_return_nothing():
    docs = [Document(f"d{i}", "t", "x") for i in range(3)]
    vectors = {"d0": [1.0, 2.0], "d1": [3.0, 0.5], "d2": [0.0, 0.0]}
    retriever = EmbeddingRetriever(docs, vectors, embed=lambda _: [-1.0, -1.0])
    assert retriever.retrieve("q", 3) == []


def test_load_vectors_holds_eight_bytes_a_component(tmp_path):
    from respqa.retrieval import load_vectors

    rng = random.Random(500)
    path = tmp_path / "vectors.jsonl"
    path.write_text(
        "".join(
            json.dumps({"id": f"d{i}", "vector": [rng.uniform(-1.0, 1.0) for _ in range(64)]}) + "\n"
            for i in range(500)
        )
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        vectors = load_vectors(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(vectors) == 500
    # 8 B per component is 256 kB; a Python float in a list costs 32 B.
    assert held < 2 * 500 * 64 * 8


def test_dense_retriever_holds_its_documents_as_utf8():
    def corpus() -> list[Document]:
        # An accented title keeps the text from being ASCII.
        return [
            Document(f"doc-{i:04d}", f"Tïtle {i}", " ".join(f"w{i * j % 97}" for j in range(120)))
            for i in range(1000)
        ]

    utf8_bytes = sum(len(field.encode()) for d in corpus() for field in d)
    vectors = {d.doc_id: np.array([1.0, 0.0]) for d in corpus()}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        docs = corpus()  # strings that only the retriever holds once docs is gone
        retriever = EmbeddingRetriever(docs, vectors, embed=lambda _: [1.0, 0.0])
        del docs
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(retriever.retrieve("q", 3)) == 3
    # A list of decoded Documents held ~1.57 times their UTF-8 size; the store
    # holds the bytes plus their offsets, the tie-break ranks and the unit rows.
    assert held < 1.25 * utf8_bytes


def test_dense_from_a_vectors_file_equals_brute_force_cosine(tmp_path):
    from respqa.retrieval import load_vectors

    rng = random.Random(1e-200)
    dim = 16
    raw = {f"d{i:02d}": [rng.uniform(-1.0, 1.0) for _ in range(dim)] for i in range(30)}
    raw["d30"] = [0.0] * dim
    raw["d31"] = [1e-200] * dim  # the squares underflow: norm 0
    raw["d32"] = [-1e-200, 1e-200] * (dim // 2)
    raw["d33"] = list(raw["d05"])  # an exact tie with d05
    rows = [{"id": doc_id, "vector": vector} for doc_id, vector in raw.items()]
    rows.append({"id": "not-in-corpus", "vector": [1.0, 2.0, 3.0]})  # another length
    path = tmp_path / "vectors.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    docs = [Document(doc_id, "t", "x") for doc_id in raw]
    vectors = load_vectors(path)
    # The unit rows equal the former out-of-place formula bit for bit; the
    # zero-norm rows come out as +0.0.
    matrix = np.array(list(raw.values()))
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    expected_units = np.divide(matrix, norms, out=np.zeros_like(matrix), where=norms > 0.0)
    queries = [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(10)] + [raw["d05"]]
    for query in queries:
        retriever = EmbeddingRetriever(docs, vectors, embed=lambda _: query)
        assert retriever._units.tobytes() == expected_units.tobytes()
        for k in (1, 5, len(docs)):
            expected = cosine_brute_force(docs, raw, query, k)
            hits = retriever.retrieve("q", k)
            assert [h.doc_id for h in hits] == [doc_id for doc_id, _ in expected]
            for hit, (_, score) in zip(hits, expected):
                assert hit.score == pytest.approx(score, rel=1e-12)
        hit_ids = {h.doc_id for h in retriever.retrieve("q", len(docs))}
        assert hit_ids.isdisjoint({"d30", "d31", "d32"})
    with pytest.raises(CorpusError, match="one length"):
        EmbeddingRetriever([*docs, Document("not-in-corpus", "t", "x")], vectors, lambda _: query)


def test_unit_rows_build_no_matrix_sized_temporary():
    from respqa.retrieval import _unit_rows

    matrix = np.random.default_rng(7).standard_normal((1000, 384))
    expected = matrix / np.linalg.norm(matrix, axis=-1, keepdims=True)
    tracemalloc.start()
    try:
        units = _unit_rows(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert units is matrix and units.tobytes() == expected.tobytes()
    # Squaring the whole matrix at once would peak at its own size, 2.9 MiB.
    assert peak < matrix.nbytes / 8
