import json
import random

import pytest

from respqa.errors import CorpusError, RetrieverError
from respqa.retrieval import (
    BM25Index,
    Document,
    EmbeddingRetriever,
    build_index,
    read_corpus,
    tokenize,
)

from helpers import bm25_brute_force, cosine_brute_force


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

    def test_build_index_helper_persists(self, tmp_path):
        _, stats = build_index(TEN_DOCS, index_dir=tmp_path / "idx")
        assert stats.num_documents == 10
        assert BM25Index.open(tmp_path / "idx").stats == stats

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
            ("documents.json", lambda data: data.replace(b"cat", b"cot", 1)),
            ("terms.json", None),
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

    def test_missing_vector(self):
        with pytest.raises(CorpusError, match="c"):
            EmbeddingRetriever(self.DOCS, {"a": [1.0], "b": [1.0]}, embed=lambda q: [1.0])

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
        def __init__(self, payload):
            self.payload = payload

        def raise_for_status(self):
            pass

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

    def test_malformed_payload(self):
        from respqa.errors import RetrieverError
        from respqa.retrieval import EmbeddingEndpointClient

        session = self.FakeSession(self.FakeResponse({"data": []}))
        client = EmbeddingEndpointClient("http://emb.test/v1", model="m", session=session)
        with pytest.raises(RetrieverError):
            client("hello")


def test_load_vectors(tmp_path):
    from respqa.retrieval import load_vectors

    path = tmp_path / "vectors.jsonl"
    path.write_text(
        json.dumps({"id": "a", "vector": [1, 2]}) + "\n" + json.dumps({"id": "b", "vector": [3]}) + "\n"
    )
    assert load_vectors(path) == {"a": [1.0, 2.0], "b": [3.0]}
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"id": "a"}) + "\n")
    with pytest.raises(CorpusError, match=":1:"):
        load_vectors(bad)


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
