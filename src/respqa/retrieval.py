"""Corpus ingestion, a persistent BM25 inverted index, and top-k retrieval.

The corpus is JSONL with keys ``id``, ``title``, ``contents`` (one document
per line). The index lives in a directory (format v4): a JSON manifest tagged
with a format version; ``documents.txt``, every document's id, title and text
concatenated as UTF-8; ``terms.txt``, the vocabulary joined by newlines; and
``postings.bin``, little-endian unsigned arrays, each in the narrowest of 1, 2,
4 or 8 bytes that holds its largest value: the postings and the byte offsets
of the document fields. Opening an index parses no document: it keeps
``documents.txt`` as bytes and decodes a document only when a query returns
it. Nor does it score any posting: a term's BM25 gains are computed by the
first query that uses the term. A rebuilt or reopened index returns
byte-identical rankings.

An alternative dense retriever (cosine over externally computed vectors) is
provided behind the same ``retrieve(query, k)`` surface. It holds its
documents in the same UTF-8 store as the index, which owns the top-k and
the doc_id tie-break for both; its embeddings client goes through
``llm.JsonEndpoint``, so it retries as the chat client does.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
import unicodedata
import uuid
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Protocol,
    Sequence,
)

import numpy as np

from .errors import CorpusError, RetrieverError
from .jsonl import jsonl_lines, parse_row, read_jsonl
from .llm import HTTP_POOL_SIZE, JsonEndpoint

if TYPE_CHECKING:
    from .llm import Session

INDEX_FORMAT_TAG = "respqa-bm25"
INDEX_FORMAT_VERSION = 4

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

# Seconds EmbeddingEndpointClient waits for one embeddings request.
EMBEDDING_TIMEOUT_S = 30.0

_MANIFEST_FILE = "manifest.json"
_DOCUMENTS_FILE = "documents.txt"
_TERMS_FILE = "terms.txt"
_POSTINGS_FILE = "postings.bin"
_DATA_FILES = (_DOCUMENTS_FILE, _TERMS_FILE, _POSTINGS_FILE)
# postings.bin holds these arrays back to back; the manifest records the dtype
# of each, the narrowest of _POSTING_DTYPES that holds its largest value.
_POSTING_ARRAYS = ("doc_lengths", "offsets", "doc_indices", "term_freqs", "doc_fields")
_POSTING_DTYPES = ("|u1", "<u2", "<u4", "<u8")


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


class Document(NamedTuple):
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
    trimming. No field may hold a lone surrogate (a JSON ``\\ud800``
    escape), which UTF-8 cannot encode. Malformed lines raise CorpusError
    naming the line number.
    """
    keys = ("id", "title", "contents")
    for where, row in read_jsonl(path, CorpusError, keys):
        doc_id = row["id"]
        if not isinstance(doc_id, str) or not doc_id:
            raise CorpusError(f"{where}: 'id' must be a non-empty string")
        text = row["contents"]
        if not isinstance(text, str) or not text.strip():
            raise CorpusError(f"{where}: 'contents' must be non-empty")
        doc = Document(doc_id=doc_id, title=str(row["title"]), text=text)
        for key, field in zip(keys, doc):
            if field.isascii():  # no surrogate; CPython reads this from a flag
                continue
            try:
                field.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise CorpusError(
                    f"{where}: {key!r} holds a lone surrogate {exc.object[exc.start]!r}, "
                    "which UTF-8 cannot encode"
                ) from None
        yield doc


class _DocumentStore:
    """The documents' fields as UTF-8 bytes, back to back, cut at 3n + 1 byte offsets.

    Document i's id, title and text lie between offsets 3i and 3i + 3. Both
    retrievers hold their documents here and decode only the hits they
    return. The store owns the tie-break: ``id_ranks`` gives each document
    its position in ascending doc_id order, sorted from the undecoded ids
    (UTF-8 bytes sort in code-point order, as ``str`` does).
    """

    def __init__(self, data: bytes, bounds: np.ndarray) -> None:
        self.data = data
        self.bounds = bounds
        ids = [data[i:j] for i, j in zip(bounds[0:-1:3].tolist(), bounds[1::3].tolist())]
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.id_ranks = np.empty(len(ids), dtype=np.int64)
        self.id_ranks[order] = np.arange(len(ids))

    @classmethod
    def pack(cls, documents: Iterable[Document]) -> "_DocumentStore":
        """Encode a document stream; CorpusError if it is empty or a field is not UTF-8."""
        # One growing buffer: a bytes object per field, then their join, put
        # ~2 MB more on the peak RSS of a 5k-document build.
        data = bytearray()
        bounds = array("q", [0])
        for doc in documents:
            try:
                for field in doc:
                    data += field.encode("utf-8")
                    bounds.append(len(data))
            except UnicodeEncodeError as exc:
                raise CorpusError(f"document {doc.doc_id!r} is not UTF-8 text: {exc}") from None
        if len(bounds) == 1:
            raise CorpusError("corpus is empty: at least one document is required")
        return cls(bytes(data), np.array(bounds, dtype=np.int64))

    @classmethod
    def read(cls, data: bytes, bounds: np.ndarray) -> "_DocumentStore":
        """The store over a saved index's bytes.

        Raises ValueError unless the offsets cut the data into whole UTF-8 fields.
        """
        if bounds[0] != 0 or bounds[-1] != len(data) or (bounds[1:] < bounds[:-1]).any():
            raise ValueError(
                f"the document field offsets decrease or do not span {_DOCUMENTS_FILE}"
            )
        data.decode("utf-8")
        # No field may start on a UTF-8 continuation byte (0b10xxxxxx).
        starts = bounds[bounds < len(data)]
        if (np.frombuffer(data, dtype=np.uint8)[starts] & 0xC0 == 0x80).any():
            raise ValueError("a document field offset falls inside a UTF-8 character")
        return cls(data, bounds)

    def documents(self) -> list[Document]:
        """Every document, in corpus order."""
        bounds = self.bounds.tolist()
        fields = [self.data[start:end].decode() for start, end in zip(bounds, bounds[1:])]
        return list(map(Document._make, zip(fields[0::3], fields[1::3], fields[2::3])))

    def ranked_hits(self, scores: np.ndarray, k: int) -> list[RetrievedDocument]:
        """Hits for the k highest positive scores, ties by ascending doc_id.

        One gather reads the hits' offsets; only the hits are decoded.
        """
        candidates = np.flatnonzero(scores > 0.0)
        if len(candidates) > k:
            kth = np.partition(scores[candidates], len(candidates) - k)[len(candidates) - k]
            # Keep every candidate tied with the k-th score; the sort settles them.
            candidates = candidates[scores[candidates] >= kth]
        order = np.lexsort((self.id_ranks[candidates], -scores[candidates]))
        top = candidates[order[:k]]
        data, cuts = self.data, self.bounds[3 * top[:, np.newaxis] + np.arange(4)].tolist()
        hits = zip(cuts, scores[top].tolist())
        return [
            RetrievedDocument(
                data[start:title].decode(), data[title:text].decode(), data[text:end].decode(),
                score, rank,
            )
            for rank, ((start, title, text, end), score) in enumerate(hits, start=1)
        ]


class BM25Index:
    """Inverted index with BM25 ranking (k1/b configurable, Lucene-style IDF).

    Postings are flat integer arrays (document index and term frequency)
    grouped by term through per-term offsets; a saved index stores each array
    in the narrowest unsigned dtype that holds it, and ``open`` keeps them so.
    Build and open compute one value per document, its length norm
    ``k1 * (1 - b + b * dl / avgdl)``; a term's BM25 gains are computed by its
    first query and kept for later ones. The documents sit in a
    ``_DocumentStore`` and are built only for the hits.

    Concurrent retrieval is safe: the postings never change after build, and
    two queries that meet a new term at once compute equal arrays, of which
    ``dict.setdefault`` keeps the first stored. The kept gains never exceed
    16 B per posting (an intp document index and a float64 gain), the cost of
    computing every term's gains up front. Scores are always non-negative
    because the IDF uses log(1 + (N - df + 0.5) / (df + 0.5)). Ties are
    broken by ascending doc_id so rankings are deterministic.
    """

    def __init__(
        self,
        store: _DocumentStore,
        doc_lengths: np.ndarray,
        term_ids: dict[str, int],
        offsets: np.ndarray,
        doc_indices: np.ndarray,
        term_freqs: np.ndarray,
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
    ) -> None:
        self._store = store
        self._doc_lengths = doc_lengths
        self._term_ids = term_ids
        self._offsets = offsets
        self._doc_indices = doc_indices
        self._term_freqs = term_freqs
        n = len(doc_lengths)
        self._avgdl = int(doc_lengths.sum()) / n if n else 0.0
        self.k1 = k1
        self.b = b
        # k1 and b are read here only, so every term's gains use the same values.
        self._k1_plus_1 = k1 + 1.0
        self._k1_norms = k1 * (1.0 - b + b * doc_lengths / (self._avgdl or 1.0))
        self._gains: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def stats(self) -> IndexStats:
        return IndexStats(
            num_documents=len(self._doc_lengths),
            num_terms=len(self._term_ids),
            avg_doc_length=self._avgdl,
        )

    @property
    def documents(self) -> list[Document]:
        return self._store.documents()

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
        doc_ids: set[str] = set()
        vocabulary = _Vocabulary()
        lengths = array("i")
        distinct_terms = array("i")
        # One entry per (document, term) pair, in document order.
        term_ids = array("i")
        term_freqs = array("i")

        def add(doc: Document) -> Document:
            if doc.doc_id in doc_ids:
                raise CorpusError(f"duplicate doc_id in corpus: {doc.doc_id!r}")
            if not doc.text.strip():
                raise CorpusError(f"document {doc.doc_id!r} has empty text")
            doc_ids.add(doc.doc_id)
            tokens = tokenize(doc.text)
            counts = Counter(tokens)
            lengths.append(len(tokens))
            distinct_terms.append(len(counts))
            term_ids.extend(map(vocabulary.__getitem__, counts))
            term_freqs.extend(counts.values())
            return doc

        # The store encodes each document as add has checked and counted it.
        store = _DocumentStore.pack(map(add, documents))
        term_of_pair = np.array(term_ids, dtype=np.int32)
        # A stable sort groups pairs by term and keeps document order within a term.
        order = np.argsort(term_of_pair, kind="stable")
        doc_of_pair = np.repeat(np.arange(len(lengths), dtype=np.int32), distinct_terms)
        offsets = np.zeros(len(vocabulary) + 1, dtype=np.int64)
        np.cumsum(np.bincount(term_of_pair, minlength=len(vocabulary)), out=offsets[1:])
        return cls(
            store,
            np.array(lengths, dtype=np.int32),
            dict(vocabulary),
            offsets,
            doc_of_pair[order],
            np.array(term_freqs, dtype=np.int32)[order],
            k1=k1,
            b=b,
        )

    def _term_gains(self, term_id: int) -> tuple[np.ndarray, np.ndarray]:
        """The term's document indices, as intp, and the BM25 gain of each.

        Computed at the term's first query. The IDF uses ``math.log`` and the
        gain keeps the scalar formula's operation order, so each gain, and
        each query's sum of gains in query-term order, equals the scalar
        computation bit for bit.
        """
        cached = self._gains.get(term_id)
        if cached is not None:
            return cached
        start, end = self._offsets[term_id : term_id + 2].tolist()
        df, n = end - start, len(self._doc_lengths)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        # Fancy indexing casts any other index dtype to intp on every call.
        doc_indices = self._doc_indices[start:end].astype(np.intp)
        tf = self._term_freqs[start:end]
        # idf * (tf * (k1 + 1)) / (tf + k1 * norm), in place. Swapping the two
        # operands of a * or a + leaves an IEEE result unchanged.
        gains = tf * self._k1_plus_1
        gains *= idf
        denominators = self._k1_norms[doc_indices]
        denominators += tf
        gains /= denominators
        return self._gains.setdefault(term_id, (doc_indices, gains))

    def retrieve(self, query: str, k: int) -> list[RetrievedDocument]:
        """Top-k documents by BM25 score over the tokenized query.

        Query term repetitions contribute once per occurrence. Only documents
        with nonzero score are returned, so the result may be shorter than k.
        A query that tokenizes to nothing yields an empty list.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        scores = np.zeros(len(self._doc_lengths))
        for term in tokenize(query):
            term_id = self._term_ids.get(term)
            if term_id is None:
                continue
            doc_indices, gains = self._term_gains(term_id)
            # A term lists each document once, so this fancy-indexed add is exact.
            scores[doc_indices] += gains
        return self._store.ranked_hits(scores, k)

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
        arrays = (
            self._doc_lengths,
            self._offsets,
            self._doc_indices,
            self._term_freqs,
            self._store.bounds,
        )
        dtypes = [np.min_scalar_type(part.max(initial=0)).newbyteorder("<") for part in arrays]
        payloads = {
            _DOCUMENTS_FILE: self._store.data,
            # tokenize splits on whitespace, so no term holds a newline.
            _TERMS_FILE: "\n".join(self._term_ids).encode("utf-8"),
            _POSTINGS_FILE: b"".join(
                part.astype(dtype).tobytes() for part, dtype in zip(arrays, dtypes)
            ),
        }
        manifest = {
            "format_tag": INDEX_FORMAT_TAG,
            "format_version": INDEX_FORMAT_VERSION,
            "num_documents": len(self._doc_lengths),
            "num_terms": len(self._term_ids),
            "num_postings": len(self._doc_indices),
            "avg_doc_length": self._avgdl,
            "postings_dtypes": dict(zip(_POSTING_ARRAYS, (dtype.str for dtype in dtypes))),
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
        CRC-32 against the manifest, the manifest's counts, the postings
        dtypes and byte lengths, the postings' document indices and term
        offsets, the document field offsets and the vocabulary. Any missing,
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
            lengths, offsets, doc_indices, term_freqs, bounds = _posting_arrays(
                data[_POSTINGS_FILE],
                manifest.get("postings_dtypes"),
                (n, t + 1, p, p, 3 * n + 1),
            )
            if p and doc_indices.max() >= n:
                raise ValueError(f"a posting's document index is not below {n} documents")
            if offsets[0] != 0 or offsets[-1] != p or (offsets[1:] < offsets[:-1]).any():
                raise ValueError(f"the term offsets decrease or do not span the {p} postings")
            store = _DocumentStore.read(data[_DOCUMENTS_FILE], bounds)
            vocabulary = data[_TERMS_FILE].decode("utf-8")
            terms = vocabulary.split("\n") if vocabulary else []
            if len(terms) != t:
                raise ValueError("term counts disagree with the manifest")
            term_ids = dict(zip(terms, range(t)))
            if len(term_ids) != t:
                raise ValueError(f"{_TERMS_FILE} lists a term more than once")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CorpusError(
                f"corrupt index in {index_dir}: {exc}; rebuild it with `respqa index`"
            ) from exc
        return cls(store, lengths, term_ids, offsets, doc_indices, term_freqs, k1=k1, b=b)


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


def _posting_arrays(data: bytes, dtypes: object, counts: tuple[int, ...]) -> list[np.ndarray]:
    """Views of the postings arrays stored back to back in ``data``.

    Raises ValueError unless the manifest gives each array one of
    ``_POSTING_DTYPES`` and the arrays' byte lengths add up to ``len(data)``.
    """
    if not isinstance(dtypes, dict):
        raise ValueError(f"the manifest's postings_dtypes must be a mapping, got {dtypes!r}")
    for name in _POSTING_ARRAYS:
        if dtypes.get(name) not in _POSTING_DTYPES:
            raise ValueError(
                f"postings array {name!r} has dtype {dtypes.get(name)!r}, "
                f"not one of {', '.join(_POSTING_DTYPES)}"
            )
    sizes = [count * np.dtype(dtypes[n]).itemsize for n, count in zip(_POSTING_ARRAYS, counts)]
    if sum(sizes) != len(data):
        raise ValueError(
            f"{_POSTINGS_FILE} holds {len(data)} bytes, but the manifest's posting counts "
            f"and dtypes add up to {sum(sizes)}"
        )
    starts = np.cumsum([0, *sizes[:-1]]).tolist()
    return [
        np.frombuffer(data, dtype=dtypes[name], count=count, offset=start)
        for name, count, start in zip(_POSTING_ARRAYS, counts, starts)
    ]


class EmbeddingEndpointClient:
    """Minimal client for an external embeddings endpoint, over ``JsonEndpoint``.

    POSTs ``{"model": ..., "input": [text]}`` and expects the de-facto
    ``{"data": [{"embedding": [...]}]}`` response shape, the embedding an
    array of JSON numbers. Every failure is a RetrieverError.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        session: Session | None = None,
        pool_size: int = HTTP_POOL_SIZE,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.model = model
        self._http = JsonEndpoint(
            endpoint, "/embeddings", api_key, EMBEDDING_TIMEOUT_S, session, pool_size, sleep
        )

    def __call__(self, text: str) -> list[float]:
        reply = self._http.send({"model": self.model, "input": [text]}, _embedding_failure)
        try:
            embedding = reply["data"][0]["embedding"]
            if not isinstance(embedding, list):
                raise TypeError(f"embedding is {type(embedding).__name__}, not an array")
            _check_numbers(embedding, "embedding")
            return [float(x) for x in embedding]
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise _embedding_failure(str(exc)) from exc


def _embedding_failure(message: str) -> RetrieverError:
    return RetrieverError(f"embedding endpoint failed: {message}")


# The exact types json.loads and orjson give a JSON number. Types are compared
# exactly, so a bool, an int subclass that float() would take, is refused.
_JSON_NUMBERS = frozenset((int, float))
_VECTOR_KEYS = ("id", "vector")
_VECTOR_KEY_SET = frozenset(_VECTOR_KEYS)


def _check_numbers(values: list, name: str) -> None:
    """Raise ValueError unless every item of ``values`` is a JSON number.

    A string or a boolean, which ``float`` would take, is refused.
    """
    if not _JSON_NUMBERS.issuperset(map(type, values)):
        bad = next(x for x in values if type(x) not in _JSON_NUMBERS)
        raise ValueError(f"{name} component {bad!r} is not a number")


def load_vectors(path: str | Path) -> dict[str, np.ndarray]:
    """Load per-document vectors from JSONL rows {"id": <unique str>, "vector": [...]}.

    Each vector must be a JSON array of finite numbers (not strings or
    booleans, which ``float`` would take); a bad row raises CorpusError
    naming its line. Each row is held as a float64 array, 8 B per component,
    as soon as it has passed these checks; rows may differ in length.

    Each line is parsed first with orjson, which is faster than
    ``json.loads``. A line orjson refuses (NaN, Infinity, a number beyond the
    float range, a lone surrogate, a BOM, a blank line), a row with keys
    other than ``id`` and ``vector``, and a row that fails a check are parsed
    again with ``json.loads``, and that parse decides: orjson reads an
    integer beyond 64 bits as a float and takes nesting of any depth. So
    every row accepted and every message are the ones ``json.loads`` gives.
    A row whose line ends in ``]}`` with no ``"``, ``u`` or ``l`` after its
    last ``[`` holds only numbers or containers: one ``np.array`` call
    converts it if that gives 1-D. Other rows are checked component by component.
    """
    import orjson  # deferred: BM25-only runs never load it

    vectors: dict[str, np.ndarray] = {}
    for where, line in jsonl_lines(path, CorpusError):
        try:
            row = orjson.loads(line)
            if type(row) is dict and row.keys() == _VECTOR_KEY_SET:
                vectors[row["id"]] = _checked_vector(where, row, vectors, _numbers_only(line))
                continue
        except (orjson.JSONDecodeError, CorpusError, RecursionError):
            # RecursionError: the repr, for a message, of a value nested
            # deeper than json.loads reaches; the stdlib parse refuses it.
            pass
        row = parse_row(where, line, CorpusError, _VECTOR_KEYS)
        if row is not None:
            vectors[row["id"]] = _checked_vector(where, row, vectors)
    return vectors


def _numbers_only(line: bytes) -> bool:
    """Whether an orjson-parsed {"id": str, "vector": list} row's line proves
    that the vector holds no string, boolean or null."""
    # As id is a string, a line ending in ]} ends with the vector array, the
    # value both parsers keep of a duplicated key (the last); its last [ lies
    # within that array. Every string, true, false and null holds a ", u or l.
    # A nested array or an object makes np.array raise or give ndim != 1.
    if not line.rstrip().endswith(b"]}"):
        return False
    start = line.rfind(b"[")
    return line.find(b'"', start) < 0 and line.find(b"u", start) < 0 and line.find(b"l", start) < 0


def _checked_vector(
    where: str, row: dict, vectors: Mapping[str, np.ndarray], numbers_only: bool = False
) -> np.ndarray:
    """The row's vector as float64, or CorpusError naming the line and what is wrong."""
    doc_id = row["id"]
    if not isinstance(doc_id, str):
        raise CorpusError(f"{where}: 'id' must be a string, got {doc_id!r}")
    if doc_id in vectors:
        raise CorpusError(f"{where}: duplicate id {doc_id!r}")
    raw = row["vector"]
    if not isinstance(raw, list):
        raise CorpusError(f"{where}: 'vector' must be a JSON array, got {type(raw).__name__}")
    try:  # one call when the line proves it; float() per component either way
        vector = np.array(raw, dtype=np.float64) if numbers_only else None
    except (ValueError, TypeError, OverflowError, RecursionError):
        vector = None
    if vector is None or vector.ndim != 1:
        try:
            _check_numbers(raw, "vector")
            # Converts each component as float() does, so each value is unchanged.
            vector = np.fromiter(raw, dtype=np.float64, count=len(raw))
        except ValueError as exc:
            raise CorpusError(f"{where}: {exc}") from None
        except OverflowError as exc:  # an integer beyond the float range
            raise CorpusError(f"{where}: vector has a component out of range ({exc})") from None
    if not np.isfinite(vector).all():
        raise CorpusError(f"{where}: vector has a non-finite component")
    return vector


class EmbeddingRetriever:
    """Exact cosine-similarity retrieval over precomputed document vectors.

    The pluggable dense alternative to BM25: query vectors come from an
    external embedding callable, document vectors are supplied up front as
    any mapping of doc_id to a sequence of numbers (``load_vectors`` gives
    float64 arrays). The documents' rows are stacked, in document order, into
    one n x d float64 matrix (8 B per component), which is scaled to unit rows
    in place; vectors of ids outside the corpus are ignored. The documents
    themselves sit in the same UTF-8 ``_DocumentStore`` as the index's, with
    its doc_id tie-break, and only the hits are decoded. Cosine scores are
    clamped at zero: only documents with a positive cosine are returned. An
    empty document list raises CorpusError.
    """

    def __init__(
        self,
        documents: list[Document],
        vectors: Mapping[str, Sequence[float]],
        embed: Callable[[str], Sequence[float]],
    ) -> None:
        missing = [doc.doc_id for doc in documents if doc.doc_id not in vectors]
        if missing:
            raise CorpusError(f"missing vectors for document(s): {', '.join(missing[:5])}")
        try:
            matrix = np.array([vectors[doc.doc_id] for doc in documents], dtype=np.float64)
        except ValueError as exc:
            raise CorpusError(f"document vectors must all have one length: {exc}") from exc
        self._units = _unit_rows(matrix)
        self._store = _DocumentStore.pack(documents)
        self._embed = embed

    def retrieve(self, query: str, k: int) -> list[RetrievedDocument]:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        query_vector = _query_vector(self._embed(query))
        if query_vector.shape != self._units.shape[1:]:
            raise RetrieverError(
                f"query vector has shape {query_vector.shape}, "
                f"document vectors {self._units.shape[1:]}"
            )
        if not np.isfinite(query_vector).all():
            raise RetrieverError("query vector has a non-finite component")
        query_unit = _unit_rows(query_vector)
        # einsum, not BLAS gemv: gemv may round identical rows differently by
        # their position, which would break the doc-id tie-break.
        scores = np.einsum("ij,j->i", self._units, query_unit)
        return self._store.ranked_hits(scores, k)


def _query_vector(reply: Sequence[float]) -> np.ndarray:
    """A float64 copy of an ``embed`` reply (_unit_rows scales in place, and
    the caller may keep the reply).

    RetrieverError unless the reply is a flat sequence of Python or numpy
    ints and floats: a bool, a string, None, a nested sequence or ``bytes``
    (a sequence of ints to Python, a string to numpy), which numpy would
    convert or fail on, is refused.
    """
    if isinstance(reply, np.ndarray):
        if reply.dtype.kind not in "iuf":
            raise RetrieverError(f"query vector has dtype {reply.dtype}, not a number type")
    elif not isinstance(reply, Sequence) or isinstance(reply, (str, bytes)):
        raise RetrieverError(f"query vector is {type(reply).__name__}, not a sequence of numbers")
    elif not _JSON_NUMBERS.issuperset(map(type, reply)):
        for x in reply:
            if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
                raise RetrieverError(f"query vector component {x!r} is not a number")
    try:
        return np.array(reply, dtype=np.float64)
    except OverflowError as exc:
        raise RetrieverError(f"query vector component overflows a float: {exc}") from exc


_NORM_BLOCK_ROWS = 64  # _unit_rows' block: 192 KiB of squares at 384-d


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Scale each vector along the last axis to unit length, in place, and return it.

    A vector whose norm is not positive (all zeros, or components so small
    that their squares underflow) becomes all zeros. The norms are taken
    ``_NORM_BLOCK_ROWS`` rows at a time, so the squares of one block are the
    largest temporary; each row's norm is the same, bit for bit, as over the
    whole matrix.
    """
    rows = np.atleast_2d(vectors)  # a view: a single vector is one row
    for start in range(0, len(rows), _NORM_BLOCK_ROWS):
        block = rows[start : start + _NORM_BLOCK_ROWS]
        norms = np.linalg.norm(block, axis=-1, keepdims=True)
        positive = norms > 0.0
        np.divide(block, norms, out=block, where=positive)
        np.copyto(block, 0.0, where=~positive)
    return vectors
