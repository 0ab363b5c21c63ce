"""Corpus ingestion, a persistent BM25 inverted index, and top-k retrieval.

The corpus is JSONL with keys ``id``, ``title``, ``contents`` (one document
per line). The index lives in a directory (format v6): a JSON manifest tagged
with a format version; ``documents.txt``, every document's id, title and text
concatenated as UTF-8, in ascending doc_id order; ``terms.txt``, the
vocabulary in ascending UTF-8 byte order joined by newlines, a term's id being
its place in that order; and ``postings.bin``, little-endian unsigned arrays,
each in the narrowest of 1, 2, 4 or 8 bytes that holds its largest value: the
postings (document lengths, term offsets, document indices and term
frequencies) and the byte offsets of the document fields. Opening an index
builds no Python object per document or per term, and copies no file: it maps
the data files read-only, checks that ``documents.txt`` and ``terms.txt`` are
UTF-8 without decoding either whole, decodes a document only when a query
returns it and finds a query term by binary search. Nor does it score any
posting: a term's BM25 gains are computed by the first query that uses the
term. A rebuilt or reopened index returns byte-identical rankings.

An alternative dense retriever (cosine over externally computed vectors) is
provided behind the same ``retrieve(query, k)`` surface. It holds its
documents in the same UTF-8 store as the index, which owns the top-k and
the doc_id tie-break for both; its embeddings client goes through
``llm.JsonEndpoint``, so it retries as the chat client does.
"""

from __future__ import annotations

import codecs
import itertools
import json
import math
import mmap
import os
import shutil
import time
import unicodedata
import uuid
import zlib
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from operator import attrgetter
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
INDEX_FORMAT_VERSION = 6

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

# Seconds EmbeddingEndpointClient waits for one embeddings request.
EMBEDDING_TIMEOUT_S = 30.0

_MANIFEST_FILE = "manifest.json"
_DOCUMENTS_FILE = "documents.txt"
_TERMS_FILE = "terms.txt"
_POSTINGS_FILE = "postings.bin"
_DATA_FILES = (_DOCUMENTS_FILE, _TERMS_FILE, _POSTINGS_FILE)
_POSTING_DTYPES = ("|u1", "<u2", "<u4", "<u8")
# A data file's contents: built in memory, or an opened file's read-only map
# (b"" for an empty file, which cannot be mapped). Slices decode as bytes do.
_FileData = bytes | bytearray | mmap.mmap


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

    Each line must be an object with string values for ``id`` (non-empty),
    ``title`` (may be empty) and ``contents`` (non-empty after trimming). No
    field may hold a lone surrogate (a JSON ``\\ud800`` escape), which UTF-8
    cannot encode. Malformed lines raise CorpusError naming the line number.
    """
    for where, (doc_id, title, text) in read_jsonl(path, CorpusError, ("id", "title", "contents")):
        if not isinstance(doc_id, str) or not doc_id:
            raise CorpusError(f"{where}: 'id' must be a non-empty string")
        if not isinstance(title, str):
            raise CorpusError(f"{where}: 'title' must be a string")
        if not isinstance(text, str) or not text.strip():
            raise CorpusError(f"{where}: 'contents' must be non-empty")
        yield Document(doc_id=doc_id, title=title, text=text)


class _DocumentStore:
    """The documents' fields as UTF-8 bytes, back to back, cut at 3n + 1 byte offsets.

    Document i's id, title and text lie between offsets 3i and 3i + 3. Both
    retrievers hold their documents here and decode only the hits they
    return. ``pack`` encodes a stream in its own order; an index build then
    copies it once into doc_id order with ``by_id``, whose offsets carry the
    dtype ``save`` writes, and an opened index's store holds the read-only
    map of its ``documents.txt``, not a copy. A retriever's documents lie in
    ascending doc_id order (UTF-8 byte order, which is code-point order, as
    ``str`` sorts), so a document's index is its place in id order, and the
    tie-break by ascending doc_id is a stable sort by score.
    """

    def __init__(self, data: _FileData, bounds: np.ndarray) -> None:
        self.data = data
        self.bounds = bounds

    @classmethod
    def pack(cls, documents: Iterable[Document]) -> "_DocumentStore":
        """Encode a document stream into a buffer and offsets that the store
        holds as filled, uncopied; CorpusError if it is empty, if a document
        has the id of the one before it or if a field is not UTF-8."""
        # One growing buffer: a bytes object per field, then their join, put
        # ~2 MB more on the peak RSS of a 5k-document build.
        data = bytearray()
        bounds = array("q", [0])
        previous = None
        for doc in documents:
            if doc.doc_id == previous:
                raise CorpusError(f"duplicate doc_id in corpus: {doc.doc_id!r}")
            previous = doc.doc_id
            try:
                for field in doc:
                    data += field.encode("utf-8")
                    bounds.append(len(data))
            except UnicodeEncodeError as exc:
                raise CorpusError(f"document {doc.doc_id!r} is not UTF-8 text: {exc}") from None
        if len(bounds) == 1:
            raise CorpusError("corpus is empty: at least one document is required")
        return cls(data, np.frombuffer(bounds, dtype=np.int64))

    @classmethod
    def read(cls, data: _FileData, bounds: np.ndarray) -> "_DocumentStore":
        """The store over a saved index's bytes.

        Raises ValueError unless the offsets cut the data into whole UTF-8
        fields and the ids strictly ascend. The UTF-8 check builds no ``str``.
        """
        if bounds[0] != 0 or bounds[-1] != len(data) or (bounds[1:] < bounds[:-1]).any():
            raise ValueError(
                f"the document field offsets decrease or do not span {_DOCUMENTS_FILE}"
            )
        _check_utf8(data)
        # No field may start on a UTF-8 continuation byte (0b10xxxxxx).
        starts = bounds[bounds < len(data)]
        if (np.frombuffer(data, dtype=np.uint8)[starts] & 0xC0 == 0x80).any():
            raise ValueError("a document field offset falls inside a UTF-8 character")
        # Signed: a saved index's offsets may be narrow unsigned ints.
        ids = bounds.astype(np.int64)
        _check_ascending(data, ids[:-1:3], ids[1::3], _DOCUMENTS_FILE, "doc_id")
        return cls(data, bounds)

    def documents(self) -> list[Document]:
        """Every document, in doc_id order."""
        bounds = self.bounds.tolist()
        fields = [self.data[start:end].decode() for start, end in zip(bounds, bounds[1:])]
        return list(map(Document._make, zip(fields[0::3], fields[1::3], fields[2::3])))

    def by_id(self) -> "_DocumentStore":
        """The documents in ascending doc_id order, equal ids in stream order.

        Nothing is decoded: each document's bytes are copied once, straight
        into a buffer of the store's size. The field offsets are held in the
        dtype ``save`` writes.
        """
        data, cuts = self.data, memoryview(self.bounds)
        ids = [data[start:end] for start, end in zip(cuts[:-1:3], cuts[1::3])]
        order = sorted(range(len(ids)), key=ids.__getitem__)
        del ids
        ordered, end = bytearray(len(data)), 0
        with memoryview(data) as view:
            for i in order:
                first, last = cuts[3 * i], cuts[3 * i + 3]
                start, end = end, end + last - first
                ordered[start:end] = view[first:last]
        bounds = np.zeros(len(cuts), dtype=np.int64)
        np.cumsum(np.diff(self.bounds).reshape(-1, 3)[order], out=bounds[1:])
        return _DocumentStore(ordered, _narrowed(bounds))

    def ranked_hits(self, scores: np.ndarray, k: int) -> list[RetrievedDocument]:
        """Hits for the k highest positive scores, ties by ascending doc_id.

        The documents lie in doc_id order, so a stable sort by descending
        score leaves tied candidates in id order; only the k hits are decoded.
        """
        candidates = np.flatnonzero(scores > 0.0)
        if len(candidates) > k:
            kth = np.partition(scores[candidates], len(candidates) - k)[len(candidates) - k]
            candidates = candidates[scores[candidates] >= kth]
        hits = candidates[np.argsort(-scores[candidates], kind="stable")[:k]]
        data, cuts = self.data, self.bounds[3 * hits[:, np.newaxis] + np.arange(4)].tolist()
        return [
            RetrievedDocument(*(data[a:b].decode() for a, b in zip(cut, cut[1:])), score, rank)
            for rank, (cut, score) in enumerate(zip(cuts, scores[hits].tolist()), start=1)
        ]


def _narrowed(values: np.ndarray) -> np.ndarray:
    """Non-negative integers in the narrowest unsigned dtype of 1, 2, 4 or 8
    bytes that holds the largest; the array itself if it has that dtype.
    ``build`` applies it to every stored array of an index; ``save`` does not."""
    return values.astype(np.min_scalar_type(values.max(initial=0)), copy=False)


def _check_ascending(
    data: _FileData, starts: np.ndarray, ends: np.ndarray, file: str, item: str
) -> None:
    """Raise ValueError unless the byte strings ``data[starts[i]:ends[i]]`` strictly ascend.

    Their first 8 bytes are compared as words in one pass; only neighbours
    whose words are equal are compared byte by byte.
    """
    words = _prefix_words(np.frombuffer(data, dtype=np.uint8), starts, ends)
    order = f"{file} does not list its {item}s in ascending byte order"
    if (words[1:] < words[:-1]).any():
        raise ValueError(order)
    for i in np.flatnonzero(words[1:] == words[:-1]).tolist():
        first, second = data[starts[i] : ends[i]], data[starts[i + 1] : ends[i + 1]]
        if first == second:
            raise ValueError(f"{file} lists a {item} more than once")
        if first > second:
            raise ValueError(order)


# _LEADING_BYTES[n] keeps the first n bytes of a big-endian word.
_LEADING_BYTES = np.array(
    [((1 << 8 * n) - 1) << (64 - 8 * n) for n in range(9)], dtype=np.uint64
)


def _prefix_words(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The 8 bytes of ``buf`` from each start, zero past its end, as big-endian uint64.

    Two byte strings whose words differ sort as their words do; equal words
    leave them to their later bytes, or to their lengths.
    """
    if len(buf) < 8:
        buf = np.concatenate((buf, np.zeros(8 - len(buf), dtype=np.uint8)))
    last = len(buf) - 8
    # A view: the big-endian word at each byte offset of buf that has 8 bytes.
    at_offset = np.ndarray((last + 1,), dtype=">u8", buffer=buf, strides=(1,))
    words = at_offset[np.minimum(starts, last)].astype(np.uint64)
    # A start past the last full word was read from there: shift its extra bytes
    # out. A start past the end keeps none, as the length mask below takes them all.
    late = np.flatnonzero(starts > last)
    words[late] <<= np.minimum(starts[late] - last, 7).astype(np.uint64) * np.uint64(8)
    words &= _LEADING_BYTES[np.clip(ends - starts, 0, 8)]
    return words


class _Lexicon:
    """The vocabulary: its terms as UTF-8 in ascending byte order, joined by newlines.

    A term's id is its place in that order. The lexicon holds the bytes (an
    opened index's read-only map of ``terms.txt``) and each term's start
    offset, in a numpy array: no Python object per term. ``find`` bisects the
    terms by their bytes.
    """

    def __init__(self, data: _FileData) -> None:
        self.data = data
        # Term i spans starts[i] to starts[i + 1] - 1, as if data ended in a newline.
        cuts = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n")) + 1
        self._starts = (
            np.concatenate(([0], cuts, [len(data) + 1])) if data else np.zeros(1, dtype=np.int64)
        )
        # Python ints on indexing, for a bisection per new query term.
        self._start_at = memoryview(self._starts)

    @classmethod
    def read(cls, data: _FileData, count: int) -> "_Lexicon":
        """The lexicon of a saved index's terms.txt.

        Raises ValueError unless the data is UTF-8 (checked without building
        a ``str``) and lists ``count`` terms in strictly ascending byte order,
        which rules out duplicates.
        """
        _check_utf8(data)
        lexicon = cls(data)
        if len(lexicon) != count:
            raise ValueError("term counts disagree with the manifest")
        _check_ascending(data, lexicon._starts[:-1], lexicon._starts[1:] - 1, _TERMS_FILE, "term")
        return lexicon

    def __len__(self) -> int:
        return len(self._starts) - 1

    def _term(self, term_id: int) -> bytes:
        return self.data[self._start_at[term_id] : self._start_at[term_id + 1] - 1]

    def find(self, term: str) -> int | None:
        """The term's id, or None if the vocabulary lacks it."""
        key = term.encode("utf-8")
        term_id = bisect_left(range(len(self)), key, key=self._term)
        return term_id if term_id < len(self) and self._term(term_id) == key else None


class _Postings(NamedTuple):
    """The arrays ``postings.bin`` holds back to back, in field order; the
    manifest records the dtype of each, the narrowest of ``_POSTING_DTYPES``
    that holds its largest value."""

    doc_lengths: np.ndarray
    # Term i's postings lie between offsets[i] and offsets[i + 1].
    offsets: np.ndarray
    doc_indices: np.ndarray
    term_freqs: np.ndarray
    # The document store's field offsets: the index's _DocumentStore.bounds.
    doc_fields: np.ndarray


_POSTING_ARRAYS = _Postings._fields


class BM25Index:
    """Inverted index with BM25 ranking (k1/b configurable, Lucene-style IDF).

    The postings are a ``_Postings`` record of flat arrays, each in the
    narrowest unsigned dtype that holds it: ``build`` makes them so, ``save``
    writes them as they are and ``open`` keeps them so.
    Build and open compute one value per document, its length norm
    ``k1 * (1 - b + b * dl / avgdl)``; a term's BM25 gains are computed by its
    first query and kept for later ones, keyed by the term. The vocabulary
    sits in a ``_Lexicon`` and the documents in a ``_DocumentStore``, which
    builds only the hits.

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
        lexicon: _Lexicon,
        postings: _Postings,
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
    ) -> None:
        self._store = store
        self._lexicon = lexicon
        self._postings = postings
        n = len(postings.doc_lengths)
        self._avgdl = int(postings.doc_lengths.sum()) / n if n else 0.0
        # k1 and b are read here only, so every term's gains use the same values.
        self._k1_plus_1 = k1 + 1.0
        self._k1_norms = k1 * (1.0 - b + b * postings.doc_lengths / (self._avgdl or 1.0))
        self._gains: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def stats(self) -> IndexStats:
        return IndexStats(
            num_documents=len(self._postings.doc_lengths),
            num_terms=len(self._lexicon),
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

        Documents are held in ascending doc_id order. Raises CorpusError for
        duplicate doc_ids, empty passages, or an empty stream.

        The stream is encoded once; each document's bytes are then copied
        once into doc_id order, and each text is decoded from that store
        only to be tokenized. Each intermediate is freed as soon as the next
        exists, and every stored array is ``_narrowed`` here, once, so a built
        index holds what ``open`` returns, dtypes too. The traced peak is about
        twice the saved files' bytes (7 MB at 5,000 documents of ~80 tokens).
        """
        store = _DocumentStore.pack(documents).by_id()
        # Term -> term id; an unseen term gets the next id.
        vocabulary = defaultdict(itertools.count().__next__)
        lengths = array("i")
        distinct_terms = array("i")
        # One entry per (document, term) pair, in document order.
        term_ids = array("i")
        term_freqs = array("i")
        data, cuts = store.data, memoryview(store.bounds)
        previous = None
        for start, id_end, text_start, end in zip(cuts[:-1:3], cuts[1::3], cuts[2::3], cuts[3::3]):
            doc_id, text = data[start:id_end], data[text_start:end].decode()
            if not text.strip():
                raise CorpusError(f"document {doc_id.decode()!r} has empty text")
            if doc_id == previous:
                raise CorpusError(f"duplicate doc_id in corpus: {doc_id.decode()!r}")
            previous = doc_id
            tokens = tokenize(text)
            counts = Counter(tokens)
            lengths.append(len(tokens))
            distinct_terms.append(len(counts))
            term_ids.extend(map(vocabulary.__getitem__, counts))
            term_freqs.extend(counts.values())
        freqs = _narrowed(np.frombuffer(term_freqs, dtype=np.intc))
        del term_freqs
        # Term ids become places in byte order (code-point order, as str sorts).
        terms = sorted(vocabulary)
        places = np.empty(len(terms), dtype=np.min_scalar_type(len(terms)))
        first_seen = np.fromiter(map(vocabulary.__getitem__, terms), dtype=np.intp, count=len(terms))
        places[first_seen] = np.arange(len(terms), dtype=places.dtype)
        del vocabulary, first_seen
        # tokenize splits on whitespace, so no term holds a newline.
        lexicon = _Lexicon("\n".join(terms).encode("utf-8"))
        del terms
        term_of_pair = places[np.frombuffer(term_ids, dtype=np.intc)]
        del places, term_ids
        offsets = np.zeros(len(lexicon) + 1, dtype=np.int64)
        np.cumsum(np.bincount(term_of_pair, minlength=len(lexicon)), out=offsets[1:])
        # A stable sort groups pairs by term and keeps document order within a term.
        order = np.argsort(term_of_pair, kind="stable")
        del term_of_pair
        freqs = freqs[order]
        doc_of_pair = np.repeat(
            np.arange(len(lengths), dtype=np.min_scalar_type(len(lengths) - 1)),
            np.frombuffer(distinct_terms, dtype=np.intc),
        )
        doc_indices = _narrowed(doc_of_pair[order])
        del doc_of_pair, order
        lengths = _narrowed(np.frombuffer(lengths, dtype=np.intc))
        postings = _Postings(lengths, _narrowed(offsets), doc_indices, freqs, store.bounds)
        return cls(store, lexicon, postings, k1=k1, b=b)

    def _term_gains(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The term's document indices, as intp, and the BM25 gain of each;
        None if the vocabulary lacks the term.

        Computed at the term's first query. The IDF uses ``math.log`` and the
        gain keeps the scalar formula's operation order, so each gain, and
        each query's sum of gains in query-term order, equals the scalar
        computation bit for bit.
        """
        term_id = self._lexicon.find(term)
        if term_id is None:
            return None
        postings = self._postings
        start, end = postings.offsets[term_id : term_id + 2].tolist()
        df, n = end - start, len(postings.doc_lengths)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        # Fancy indexing casts any other index dtype to intp on every call.
        doc_indices = postings.doc_indices[start:end].astype(np.intp)
        tf = postings.term_freqs[start:end]
        # idf * (tf * (k1 + 1)) / (tf + k1 * norm), in place. Swapping the two
        # operands of a * or a + leaves an IEEE result unchanged.
        gains = tf * self._k1_plus_1
        gains *= idf
        denominators = self._k1_norms[doc_indices]
        denominators += tf
        gains /= denominators
        return self._gains.setdefault(term, (doc_indices, gains))

    def retrieve(self, query: str, k: int) -> list[RetrievedDocument]:
        """Top-k documents by BM25 score over the tokenized query.

        Query term repetitions contribute once per occurrence. Only documents
        with nonzero score are returned, so the result may be shorter than k.
        A query that tokenizes to nothing yields an empty list.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        scores = np.zeros(len(self._postings.doc_lengths))
        for term in tokenize(query):
            kept = self._gains.get(term) or self._term_gains(term)
            if kept is None:
                continue
            doc_indices, gains = kept
            # A term lists each document once, so this fancy-indexed add is exact.
            scores[doc_indices] += gains
        return self._store.ranked_hits(scores, k)

    def save(self, index_dir: str | Path) -> None:
        """Persist to a directory (manifest, documents, vocabulary, postings).

        Each data file is written from the buffers the index holds, its CRC-32
        run across them. The files are written to a sibling temporary
        directory that then replaces ``index_dir``, so a failed save never
        leaves a directory that opens as an index. A non-empty ``index_dir``
        without a manifest is refused rather than replaced.
        """
        target = Path(os.path.abspath(index_dir))
        if target.exists() and not (
            (target / _MANIFEST_FILE).is_file() or (target.is_dir() and not any(target.iterdir()))
        ):
            raise CorpusError(f"refusing to replace {target}: not empty and not an index directory")
        # As held: an array is copied only on a big-endian machine, to swap its bytes.
        arrays = [part.astype(part.dtype.newbyteorder("<"), copy=False) for part in self._postings]
        files = {}
        target.parent.mkdir(parents=True, exist_ok=True)
        staging = target.with_name(f".{target.name}.{uuid.uuid4().hex}.tmp")
        retired = staging.with_suffix(".old")
        staging.mkdir()
        try:
            for name, parts in zip(_DATA_FILES, ([self._store.data], [self._lexicon.data], arrays)):
                crc = 0
                with open(staging / name, "wb") as file:
                    for part in parts:
                        file.write(part)
                        crc = zlib.crc32(part, crc)
                    files[name] = {"bytes": file.tell(), "crc32": crc}
            manifest = {
                "format_tag": INDEX_FORMAT_TAG,
                "format_version": INDEX_FORMAT_VERSION,
                "num_documents": len(self._postings.doc_lengths),
                "num_terms": len(self._lexicon),
                "num_postings": len(self._postings.doc_indices),
                "avg_doc_length": self._avgdl,
                "postings_dtypes": dict(zip(_POSTING_ARRAYS, (part.dtype.str for part in arrays))),
                "files": files,
            }
            (staging / _MANIFEST_FILE).write_bytes(json.dumps(manifest, indent=2).encode("utf-8"))
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
        offsets, the document field offsets, and the order of the doc ids and
        of the vocabulary. Any missing, truncated or malformed file raises
        CorpusError.

        Nothing is copied or decoded whole: each data file is mapped
        read-only, and the documents, the vocabulary and the postings arrays
        are views of the maps. Index files are write-once (``save`` swaps in
        a new directory, which leaves an opened index intact on POSIX);
        editing or truncating a file of an opened index in place is
        unsupported, and may change the text it returns or kill the process
        with SIGBUS.
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
            counts = (n, t + 1, p, p, 3 * n + 1)
            dtypes = manifest.get("postings_dtypes")
            postings = _posting_arrays(data[_POSTINGS_FILE], dtypes, counts)
            if p and postings.doc_indices.max() >= n:
                raise ValueError(f"a posting's document index is not below {n} documents")
            offsets = postings.offsets
            if offsets[0] != 0 or offsets[-1] != p or (offsets[1:] < offsets[:-1]).any():
                raise ValueError(f"the term offsets decrease or do not span the {p} postings")
            store = _DocumentStore.read(data[_DOCUMENTS_FILE], postings.doc_fields)
            lexicon = _Lexicon.read(data[_TERMS_FILE], t)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CorpusError(
                f"corrupt index in {index_dir}: {exc}; rebuild it with `respqa index`"
            ) from exc
        return cls(store, lexicon, postings, k1=k1, b=b)


def _read_checked(path: Path, expected: dict) -> _FileData:
    """The file mapped read-only, or ValueError when its size or CRC-32 differ
    from the manifest, or CorpusError when it cannot be mapped.

    Nothing is copied: the size is compared before mapping, so a truncated
    file is refused unread, and the CRC-32 is taken over the map, whose pages
    are the file cache's, shared with other readers and reclaimable. An empty
    file, which cannot be mapped, is ``b""``. A mapped file must not be
    edited in place: see ``BM25Index.open``.
    """
    mismatch = f"{path.name} does not match the manifest (truncated or modified)"
    with open(path, "rb") as file:
        size = os.fstat(file.fileno()).st_size
        if size != expected["bytes"]:
            raise ValueError(mismatch)
        try:
            data = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ) if size else b""
        except OSError as exc:
            raise CorpusError(f"cannot map {path} read-only: {exc}") from exc
    if zlib.crc32(data) != expected["crc32"]:
        raise ValueError(mismatch)
    return data


# _check_utf8 decodes data this many bytes at a time.
_UTF8_CHUNK = 1 << 16


def _check_utf8(data: _FileData) -> None:
    """Raise UnicodeDecodeError, with the message ``bytes.decode`` gives,
    unless the data is UTF-8; no ``str`` of the whole data is built.

    The data is decoded ``_UTF8_CHUNK`` bytes at a time; only data that
    fails is decoded whole, for the error's position.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    with memoryview(data) as view:
        try:
            for start in range(0, len(view), _UTF8_CHUNK):
                decoder.decode(view[start : start + _UTF8_CHUNK])
            decoder.decode(b"", final=True)
        except UnicodeDecodeError:
            str(view, "utf-8")  # raises with the position in the whole data
            raise


def _posting_arrays(data: _FileData, dtypes: object, counts: tuple[int, ...]) -> _Postings:
    """Views of the postings arrays stored back to back in ``data``, of ``counts`` items each.

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
    return _Postings._make(
        np.frombuffer(data, dtype=dtypes[name], count=count, offset=start)
        for name, count, start in zip(_POSTING_ARRAYS, counts, starts)
    )


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
    A row whose line has no ``"``, ``u`` or ``l`` from its last ``[`` on
    ends with its vector, which holds only numbers or containers: one
    ``np.array`` call converts it if that gives 1-D. Other rows are checked
    component by component.
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
    # Every string, true, false and null holds a ", u or l. A member after the
    # vector holds a " (its key), so a line with none of the three from its
    # last [ on ends with the vector array, the value both parsers keep of a
    # duplicated key (the last), and that [ lies within it. A nested array or
    # an object makes np.array raise or give ndim != 1.
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
    float64 arrays). The documents' rows are stacked, in doc_id order, into
    one n x d float64 matrix (8 B per component), which is scaled to unit rows
    in place; vectors of ids outside the corpus are ignored. The documents
    themselves sit in the same UTF-8 ``_DocumentStore`` as the index's, with
    its doc_id tie-break, and only the hits are decoded. Cosine scores are
    clamped at zero: only documents with a positive cosine are returned. An
    empty document list, or two documents with one id, raise CorpusError.
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
        # O(n) for index.documents, which is already in doc_id order.
        documents = sorted(documents, key=attrgetter("doc_id"))
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
