"""Corpus ingestion, a persistent BM25 inverted index, and top-k retrieval.

The corpus is JSONL with keys ``id``, ``title``, ``contents`` (one document
per line). The index lives in a directory: a JSON manifest tagged with a
format version, the documents and the vocabulary as JSON, and the postings as
little-endian int32 arrays. A rebuilt or reopened index returns
byte-identical rankings.

An alternative dense retriever (cosine over externally computed vectors) is
provided behind the same ``retrieve(query, k)`` surface.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import unicodedata
import uuid
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Protocol

import numpy as np

from .errors import CorpusError, RetrieverError

if TYPE_CHECKING:
    import requests

INDEX_FORMAT_TAG = "respqa-bm25"
INDEX_FORMAT_VERSION = 2

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_MANIFEST_FILE = "manifest.json"
_DOCUMENTS_FILE = "documents.json"
_TERMS_FILE = "terms.json"
_POSTINGS_FILE = "postings.bin"
_DATA_FILES = (_DOCUMENTS_FILE, _TERMS_FILE, _POSTINGS_FILE)
_INT32 = np.dtype("<i4")


class _PunctuationTable(dict):
    """``str.translate`` table that deletes Unicode punctuation (category P).

    Each code point is classified the first time a text contains it.
    """

    def __missing__(self, code: int) -> int | None:
        value = None if unicodedata.category(chr(code)).startswith("P") else code
        self[code] = value
        return value


_PUNCTUATION = _PunctuationTable()


def is_punctuation_char(ch: str) -> bool:
    """True for characters in any Unicode punctuation category."""
    return _PUNCTUATION[ord(ch)] is None


def strip_punctuation(text: str) -> str:
    """Remove all Unicode punctuation characters."""
    return text.translate(_PUNCTUATION)


def tokenize(text: str) -> list[str]:
    """Lowercased tokens: strip punctuation, then split on whitespace.

    Deterministic; shared by the index and the answer-overlap metric.
    Empty or punctuation-only input yields an empty list.
    """
    return strip_punctuation(text).lower().split()


@dataclass(frozen=True)
class Document:
    """A corpus unit: unique id, title, and plain-text passage."""

    doc_id: str
    title: str
    text: str


@dataclass(frozen=True)
class RetrievedDocument:
    """A scored retrieval hit; ranks are 1-based and dense."""

    doc_id: str
    title: str
    text: str
    score: float
    rank: int

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "title": self.title,
            "text": self.text,
            "score": self.score,
            "rank": self.rank,
        }


@dataclass(frozen=True)
class IndexStats:
    num_documents: int
    num_terms: int
    avg_doc_length: float


class Retriever(Protocol):
    """Anything that can serve ranked hits for a query string."""

    def retrieve(self, query: str, k: int) -> list[RetrievedDocument]: ...


def read_corpus(path: str | Path) -> Iterator[Document]:
    """Yield documents from a JSONL corpus file.

    Each line must be an object with non-empty string values for ``id``,
    ``title`` may be empty, and ``contents`` must be non-empty after
    trimming. Malformed lines raise CorpusError naming the line number.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"corpus file not found: {path}")
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(row, dict):
                raise CorpusError(f"{path}:{lineno}: expected an object")
            missing = [key for key in ("id", "title", "contents") if key not in row]
            if missing:
                raise CorpusError(f"{path}:{lineno}: missing key(s): {', '.join(missing)}")
            doc_id = row["id"]
            if not isinstance(doc_id, str) or not doc_id:
                raise CorpusError(f"{path}:{lineno}: 'id' must be a non-empty string")
            text = row["contents"]
            if not isinstance(text, str) or not text.strip():
                raise CorpusError(f"{path}:{lineno}: 'contents' must be non-empty")
            yield Document(doc_id=doc_id, title=str(row["title"]), text=text)


class BM25Index:
    """Inverted index with BM25 ranking (k1/b configurable, Lucene-style IDF).

    Postings are flat int32 arrays (document index and term frequency)
    grouped by term through per-term offsets. Each posting's BM25 gain is
    computed once, at build and at open, so a query only adds gains into a
    score vector. Immutable after build; concurrent retrieval is safe.
    Scores are always non-negative because the IDF uses
    log(1 + (N - df + 0.5) / (df + 0.5)). Ties are broken by ascending doc_id
    so rankings are deterministic.
    """

    def __init__(
        self,
        documents: list[Document],
        doc_lengths: np.ndarray,
        terms: list[str],
        offsets: np.ndarray,
        doc_indices: np.ndarray,
        term_freqs: np.ndarray,
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
    ) -> None:
        self._documents = documents
        self._doc_lengths = doc_lengths
        self._term_ids = dict(zip(terms, range(len(terms))))
        self._offsets = offsets
        self._doc_indices = doc_indices
        self._term_freqs = term_freqs
        self._avgdl = int(doc_lengths.sum()) / len(documents) if documents else 0.0
        self.k1 = k1
        self.b = b
        self._weights = self._posting_weights()
        self._id_ranks = _id_ranks(documents)

    @property
    def stats(self) -> IndexStats:
        return IndexStats(
            num_documents=len(self._documents),
            num_terms=len(self._term_ids),
            avg_doc_length=self._avgdl,
        )

    @property
    def documents(self) -> list[Document]:
        return list(self._documents)

    @classmethod
    def build(
        cls,
        documents: Iterable[Document],
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
    ) -> "BM25Index":
        """Build an in-memory index from a document stream.

        Raises CorpusError for duplicate doc_ids, empty passages, or an
        empty stream.
        """
        docs: list[Document] = []
        seen_ids: set[str] = set()
        vocabulary = _Vocabulary()
        lengths = array("i")
        distinct_terms = array("i")
        # One entry per (document, term) pair, in document order.
        term_ids = array("i")
        term_freqs = array("i")
        for doc in documents:
            if doc.doc_id in seen_ids:
                raise CorpusError(f"duplicate doc_id in corpus: {doc.doc_id!r}")
            if not doc.text.strip():
                raise CorpusError(f"document {doc.doc_id!r} has empty text")
            seen_ids.add(doc.doc_id)
            docs.append(doc)
            tokens = tokenize(doc.text)
            counts = Counter(tokens)
            lengths.append(len(tokens))
            distinct_terms.append(len(counts))
            term_ids.extend(map(vocabulary.__getitem__, counts))
            term_freqs.extend(counts.values())
        if not docs:
            raise CorpusError("corpus is empty: at least one document is required")
        term_of_pair = np.array(term_ids, dtype=np.int32)
        # A stable sort groups pairs by term and keeps document order within a term.
        order = np.argsort(term_of_pair, kind="stable")
        doc_of_pair = np.repeat(np.arange(len(docs), dtype=np.int32), distinct_terms)
        offsets = np.zeros(len(vocabulary) + 1, dtype=np.int64)
        np.cumsum(np.bincount(term_of_pair, minlength=len(vocabulary)), out=offsets[1:])
        return cls(
            docs,
            np.array(lengths, dtype=np.int32),
            list(vocabulary),
            offsets,
            doc_of_pair[order],
            np.array(term_freqs, dtype=np.int32)[order],
            k1=k1,
            b=b,
        )

    def _posting_weights(self) -> np.ndarray:
        """BM25 gain of every posting.

        The IDF uses ``math.log`` and the gain keeps the scalar formula's
        operation order, so each weight, and each query's sum of weights in
        query-term order, equals the scalar computation bit for bit.
        """
        n = len(self._documents)
        df = np.diff(self._offsets)
        idf = np.array([math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in df.tolist()])
        avgdl = self._avgdl or 1.0
        norm = 1.0 - self.b + self.b * self._doc_lengths / avgdl
        tf = self._term_freqs
        norm = norm[self._doc_indices]
        return np.repeat(idf, df) * (tf * (self.k1 + 1.0)) / (tf + self.k1 * norm)

    def retrieve(self, query: str, k: int) -> list[RetrievedDocument]:
        """Top-k documents by BM25 score over the tokenized query.

        Query term repetitions contribute once per occurrence. Only documents
        with nonzero score are returned, so the result may be shorter than k.
        A query that tokenizes to nothing yields an empty list.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        scores = np.zeros(len(self._documents))
        for term in tokenize(query):
            term_id = self._term_ids.get(term)
            if term_id is None:
                continue
            start, end = self._offsets[term_id], self._offsets[term_id + 1]
            # A term lists each document once, so this fancy-indexed add is exact.
            scores[self._doc_indices[start:end]] += self._weights[start:end]
        return _ranked_hits(self._documents, self._id_ranks, scores, k)

    def save(self, index_dir: str | Path) -> None:
        """Persist to a directory (manifest, documents, vocabulary, postings).

        The files are written to a sibling temporary directory that then
        replaces ``index_dir``, so a failed save never leaves a directory that
        opens as an index. A non-empty ``index_dir`` without a manifest is
        refused rather than replaced.
        """
        target = Path(os.path.abspath(index_dir))
        if target.exists() and not (
            (target / _MANIFEST_FILE).is_file() or (target.is_dir() and not any(target.iterdir()))
        ):
            raise CorpusError(f"refusing to replace {target}: not empty and not an index directory")
        payloads = {
            _DOCUMENTS_FILE: json.dumps(
                [[doc.doc_id, doc.title, doc.text] for doc in self._documents], ensure_ascii=False
            ).encode("utf-8"),
            _TERMS_FILE: json.dumps(list(self._term_ids), ensure_ascii=False).encode("utf-8"),
            _POSTINGS_FILE: b"".join(
                part.astype(_INT32).tobytes()
                for part in (self._doc_lengths, self._offsets, self._doc_indices, self._term_freqs)
            ),
        }
        manifest = {
            "format_tag": INDEX_FORMAT_TAG,
            "format_version": INDEX_FORMAT_VERSION,
            "num_documents": len(self._documents),
            "num_terms": len(self._term_ids),
            "num_postings": len(self._doc_indices),
            "avg_doc_length": self._avgdl,
            "files": {
                name: {"bytes": len(data), "crc32": zlib.crc32(data)}
                for name, data in payloads.items()
            },
        }
        payloads[_MANIFEST_FILE] = json.dumps(manifest, indent=2).encode("utf-8")
        target.parent.mkdir(parents=True, exist_ok=True)
        staging = target.with_name(f".{target.name}.{uuid.uuid4().hex}.tmp")
        retired = staging.with_suffix(".old")
        staging.mkdir()
        try:
            for name, data in payloads.items():
                (staging / name).write_bytes(data)
            if target.exists():
                os.replace(target, retired)
            os.replace(staging, target)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        shutil.rmtree(retired, ignore_errors=True)

    @classmethod
    def open(
        cls,
        index_dir: str | Path,
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
    ) -> "BM25Index":
        """Open a persisted index.

        Validates the format tag and version, each data file's size and
        CRC-32 against the manifest, and the manifest's counts. Any missing,
        truncated or malformed file raises CorpusError.
        """
        index_dir = Path(index_dir)
        manifest_path = index_dir / _MANIFEST_FILE
        if not manifest_path.exists():
            raise CorpusError(f"not an index directory (no manifest): {index_dir}")
        try:
            manifest = json.loads(manifest_path.read_bytes())
            if not isinstance(manifest, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as exc:
            raise CorpusError(f"unreadable index manifest {manifest_path}: {exc}") from exc
        if manifest.get("format_tag") != INDEX_FORMAT_TAG:
            raise CorpusError(f"unrecognized index format tag: {manifest.get('format_tag')!r}")
        version = manifest.get("format_version")
        if version != INDEX_FORMAT_VERSION:
            raise CorpusError(
                f"unsupported index format version {version!r} in {index_dir} (this version "
                f"reads {INDEX_FORMAT_VERSION}); rebuild the index with `respqa index`"
            )
        try:
            files = manifest["files"]
            data = {name: _read_checked(index_dir / name, files[name]) for name in _DATA_FILES}
            n, t, p = (int(manifest[key]) for key in ("num_documents", "num_terms", "num_postings"))
            documents = [
                Document(doc_id=doc_id, title=title, text=text)
                for doc_id, title, text in json.loads(data[_DOCUMENTS_FILE])
            ]
            terms = json.loads(data[_TERMS_FILE])
            arrays = np.frombuffer(data[_POSTINGS_FILE], dtype=_INT32)
            if (len(documents), len(terms), arrays.size) != (n, t, n + t + 1 + 2 * p):
                raise ValueError("document, term or posting counts disagree with the manifest")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CorpusError(
                f"corrupt index in {index_dir}: {exc}; rebuild it with `respqa index`"
            ) from exc
        lengths, offsets, doc_indices, term_freqs = np.split(arrays, [n, n + t + 1, n + t + 1 + p])
        return cls(documents, lengths, terms, offsets, doc_indices, term_freqs, k1=k1, b=b)


class _Vocabulary(dict):
    """Term -> term id; an unseen term gets the next id."""

    def __missing__(self, term: str) -> int:
        term_id = self[term] = len(self)
        return term_id


def _read_checked(path: Path, expected: dict) -> bytes:
    """File contents, or ValueError when size or CRC-32 differ from the manifest."""
    data = path.read_bytes()
    if len(data) != expected["bytes"] or zlib.crc32(data) != expected["crc32"]:
        raise ValueError(f"{path.name} does not match the manifest (truncated or modified)")
    return data


def _id_ranks(documents: list[Document]) -> np.ndarray:
    """Each document's position in ascending doc_id order: the tie-break key."""
    order = sorted(range(len(documents)), key=lambda i: documents[i].doc_id)
    ranks = np.empty(len(documents), dtype=np.int64)
    ranks[order] = np.arange(len(documents))
    return ranks


def _ranked_hits(
    documents: list[Document], id_ranks: np.ndarray, scores: np.ndarray, k: int
) -> list[RetrievedDocument]:
    """Hits for the k highest positive scores, ties by ascending doc_id."""
    candidates = np.flatnonzero(scores > 0.0)
    if len(candidates) > k:
        kth = np.partition(scores[candidates], len(candidates) - k)[len(candidates) - k]
        # Keep every candidate tied with the k-th score; the sort settles them.
        candidates = candidates[scores[candidates] >= kth]
    order = np.lexsort((id_ranks[candidates], -scores[candidates]))
    hits = []
    for rank, idx in enumerate(candidates[order[:k]].tolist(), start=1):
        doc = documents[idx]
        score = float(scores[idx])
        hits.append(
            RetrievedDocument(
                doc_id=doc.doc_id, title=doc.title, text=doc.text, score=score, rank=rank
            )
        )
    return hits


def build_index(
    documents: Iterable[Document],
    index_dir: str | Path | None = None,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> tuple[BM25Index, IndexStats]:
    """Build (and optionally persist) an index; returns it with its stats."""
    index = BM25Index.build(documents, k1=k1, b=b)
    if index_dir is not None:
        index.save(index_dir)
    return index, index.stats


class EmbeddingEndpointClient:
    """Minimal client for an external embeddings endpoint.

    POSTs ``{"model": ..., "input": [text]}`` and expects the de-facto
    ``{"data": [{"embedding": [...]}]}`` response shape.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 30.0,
        session: requests.Session | None = None,
    ) -> None:
        endpoint = endpoint.rstrip("/")
        if not endpoint.endswith("/embeddings"):
            endpoint = endpoint + "/embeddings"
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        if session is None:
            import requests  # deferred: offline runs never load the HTTP stack

            session = requests.Session()
        self._session = session

    def __call__(self, text: str) -> list[float]:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            response = self._session.post(
                self.endpoint,
                json={"model": self.model, "input": [text]},
                headers=headers,
                timeout=self.timeout,
            )
            response.raise_for_status()
            payload = response.json()
            return [float(x) for x in payload["data"][0]["embedding"]]
        except (requests.RequestException, KeyError, IndexError, ValueError) as exc:
            raise RetrieverError(f"embedding endpoint failed: {exc}") from exc


def load_vectors(path: str | Path) -> dict[str, list[float]]:
    """Load per-document vectors from JSONL rows {"id": ..., "vector": [...]}."""
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"vectors file not found: {path}")
    vectors: dict[str, list[float]] = {}
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                vectors[row["id"]] = [float(x) for x in row["vector"]]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise CorpusError(f"{path}:{lineno}: invalid vector row ({exc})") from exc
    return vectors


class EmbeddingRetriever:
    """Exact cosine-similarity retrieval over precomputed document vectors.

    The pluggable dense alternative to BM25: query vectors come from an
    external embedding callable, document vectors are supplied up front and
    kept as one matrix of unit rows. Cosine scores are clamped at zero: only
    documents with a positive cosine are returned.
    """

    def __init__(
        self,
        documents: list[Document],
        vectors: dict[str, list[float]],
        embed: Callable[[str], list[float]],
    ) -> None:
        missing = [doc.doc_id for doc in documents if doc.doc_id not in vectors]
        if missing:
            raise CorpusError(f"missing vectors for document(s): {', '.join(missing[:5])}")
        self._documents = list(documents)
        try:
            matrix = np.array([vectors[doc.doc_id] for doc in self._documents], dtype=np.float64)
        except ValueError as exc:
            raise CorpusError(f"document vectors must all have one length: {exc}") from exc
        self._units = _unit_rows(matrix)
        self._id_ranks = _id_ranks(self._documents)
        self._embed = embed

    def retrieve(self, query: str, k: int) -> list[RetrievedDocument]:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        query_unit = _unit_rows(np.asarray(self._embed(query), dtype=np.float64))
        if query_unit.shape != self._units.shape[1:]:
            raise RetrieverError(
                f"query vector has shape {query_unit.shape}, "
                f"document vectors {self._units.shape[1:]}"
            )
        # einsum, not BLAS gemv: gemv may round identical rows differently by
        # their position, which would break the doc-id tie-break.
        scores = np.einsum("ij,j->i", self._units, query_unit)
        return _ranked_hits(self._documents, self._id_ranks, scores, k)


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Scale each vector along the last axis to unit length; zero vectors stay zero."""
    norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
    return np.divide(vectors, norms, out=np.zeros_like(vectors), where=norms > 0.0)
