"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately re-derive results from raw inputs (no inverted
index, no Counter-intersection shortcut) so they stay independent of the
code paths they check.
"""

from __future__ import annotations

import json
import math
import zlib

import numpy as np

from respqa.agents import PipelineAgents, PipelineConfig, PromptTemplateSet
from respqa.llm import ROLE_TAGS, BackendRouter, LlmResponse, ScriptedBackend, ScriptedRule
from respqa.retrieval import Document, tokenize

GOLDEN_EVIDENCE = (
    "Victor Varnado directed the black comedy Twisted Fortune, "
    "which starred Charlie Murphy, a brother of Eddie Murphy."
)
OVERPLANNING_QUESTION = (
    "Victor Varnado directed Twisted Fortune, which starred which brother of Eddie Murphy?"
)
REPETITIVE_QUESTION = (
    "What is Rachelle Amy Beinart's role in the film that follows a group of rebels on a mission?"
)
REPETITIVE_SUBQ_1 = "Who is Rachelle Amy Beinart?"
REPETITIVE_SUBQ_2 = (
    "What film mentioned in the provided passages features a group of rebels on a mission?"
)

# Substrings unique to one template each; safe scripted-rule matchers.
JUDGE_MARKER = "are you able to completely and accurately respond"
LOCAL_MARKER = "are you able to respond completely and accurately"
PLAN_MARKER = "[You Thought]:"
PLAN_RETRY_MARKER = "Do not repeat any of these questions"
SUMMARIZER_MARKER = "act as a professional writer"
GENERATE_MARKER = "Only give me the answer"


def film_corpus() -> list[Document]:
    """Documents that the over-planning question retrieves."""
    return [
        Document(
            "film-1",
            "Twisted Fortune",
            "Twisted Fortune is a black comedy film directed by Victor Varnado, "
            "starring Charlie Murphy.",
        ),
        Document(
            "film-2",
            "Charlie Murphy",
            "Charlie Murphy was an American actor and comedian, the older brother "
            "of Eddie Murphy.",
        ),
        Document(
            "film-3",
            "Eddie Murphy",
            "Eddie Murphy is an American actor and comedian known for stand-up "
            "specials and films.",
        ),
        Document(
            "film-4",
            "Victor Varnado",
            "Victor Varnado is a director and performer who directed Twisted Fortune.",
        ),
        Document(
            "film-5",
            "Unrelated comedy",
            "An unrelated comedy special features neither brother nor director.",
        ),
    ]


def offtopic_corpus() -> list[Document]:
    """Documents sharing no token with the repetitive-planning questions,
    so every retrieval in that case study comes back empty."""
    return [
        Document(
            "chem-1",
            "Superfluidity",
            "Helium atoms exhibit superfluid behavior near absolute zero temperatures.",
        ),
        Document(
            "chem-2",
            "Tunneling",
            "Quantum tunneling enables electron transport across thin insulating barriers.",
        ),
        Document(
            "chem-3",
            "Phonons",
            "Crystalline lattices vibrate; phonons carry thermal energy through solids.",
        ),
    ]


def overplanning_rules() -> list[ScriptedRule]:
    return [
        ScriptedRule(SUMMARIZER_MARKER, GOLDEN_EVIDENCE + " [DONE]"),
        ScriptedRule(JUDGE_MARKER, "Yes"),
        ScriptedRule(GENERATE_MARKER, "Charlie Murphy"),
    ]


def repetitive_rules() -> list[ScriptedRule]:
    # Retry rule first: the retry prompt also contains the base plan marker.
    return [
        ScriptedRule(PLAN_RETRY_MARKER, REPETITIVE_SUBQ_2),
        ScriptedRule(PLAN_MARKER, REPETITIVE_SUBQ_1),
        ScriptedRule(JUDGE_MARKER, "No"),
        ScriptedRule(LOCAL_MARKER, "No"),
        ScriptedRule(GENERATE_MARKER, "no answer found"),
    ]


def scripted_agents(
    rules: list[ScriptedRule], **config_kwargs
) -> tuple[PipelineAgents, ScriptedBackend]:
    """One scripted conversation bound to all three roles; ``config_kwargs``
    are PipelineConfig settings for calling the agent methods directly."""
    backend = ScriptedBackend(rules)
    router = BackendRouter({role: backend for role in ROLE_TAGS})
    config = PipelineConfig(**config_kwargs)
    return PipelineAgents(router, PromptTemplateSet.load_default(), config), backend


class CaptureBackend:
    """Answers every request with one fixed reply and keeps the requests."""

    backend_id = "capture"

    def __init__(self, reply: str = "No") -> None:
        self.reply = reply
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return LlmResponse(text=self.reply, backend_id=self.backend_id, latency=0.0)


def capture_router(reply: str = "No") -> tuple[BackendRouter, CaptureBackend]:
    """One CaptureBackend bound to all three roles."""
    backend = CaptureBackend(reply)
    return BackendRouter({role: backend for role in ROLE_TAGS}), backend


def bm25_brute_force(
    docs: list[Document], query: str, k: int, k1: float = 1.2, b: float = 0.75
) -> list[tuple[str, float]]:
    """Score every document straight from its raw text and sort.

    Independent of BM25Index: no inverted index, term frequencies counted
    per query term by scanning the token list.
    """
    token_lists = [tokenize(doc.text) for doc in docs]
    n = len(docs)
    avgdl = sum(len(tokens) for tokens in token_lists) / n if n else 0.0
    avgdl = avgdl or 1.0
    query_tokens = tokenize(query)
    results = []
    for doc, tokens in zip(docs, token_lists):
        score = 0.0
        for term in query_tokens:
            tf = sum(1 for tok in tokens if tok == term)
            if tf == 0:
                continue
            df = sum(1 for other in token_lists if term in other)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            norm = 1.0 - b + b * len(tokens) / avgdl
            score += idf * (tf * (k1 + 1.0)) / (tf + k1 * norm)
        if score > 0.0:
            results.append((doc.doc_id, score))
    results.sort(key=lambda item: (-item[1], item[0]))
    return results[:k]


def cosine_brute_force(
    docs: list[Document], vectors: dict[str, list[float]], query: list[float], k: int
) -> list[tuple[str, float]]:
    """Cosine of every document straight from its raw vector and sort.

    Dot product over the product of norms; zero vectors and non-positive
    cosines are left out, ties go to the smaller doc_id.
    """
    qnorm = math.sqrt(sum(x * x for x in query))
    results = []
    for doc in docs:
        vec = vectors[doc.doc_id]
        dnorm = math.sqrt(sum(x * x for x in vec))
        if qnorm and dnorm:
            cos = sum(a * b for a, b in zip(query, vec)) / (qnorm * dnorm)
            if cos > 0.0:
                results.append((doc.doc_id, cos))
    results.sort(key=lambda item: (-item[1], item[0]))
    return results[:k]


def f1_brute_force(prediction_tokens: list[str], gold_tokens: list[str]) -> float:
    """Two-pointer multiset overlap on sorted token lists."""
    if not prediction_tokens and not gold_tokens:
        return 1.0
    pred = sorted(prediction_tokens)
    gold = sorted(gold_tokens)
    overlap = 0
    i = j = 0
    while i < len(pred) and j < len(gold):
        if pred[i] == gold[j]:
            overlap += 1
            i += 1
            j += 1
        elif pred[i] < gold[j]:
            i += 1
        else:
            j += 1
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(gold)
    return 2 * precision * recall / (precision + recall)


def rewrite_index_file(index_dir, name, data):
    """Replace one index file and record its new size and CRC-32 in the manifest."""
    (index_dir / name).write_bytes(data)
    manifest_path = index_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["files"][name] = {"bytes": len(data), "crc32": zlib.crc32(data)}
    manifest_path.write_text(json.dumps(manifest))


def edit_postings_array(index_dir, name, edit):
    """Apply ``edit`` to one array of postings.bin, keeping its dtype and the CRC-32 right."""
    manifest = json.loads((index_dir / "manifest.json").read_text())
    n, t, p = (manifest[key] for key in ("num_documents", "num_terms", "num_postings"))
    counts = {"doc_lengths": n, "offsets": t + 1, "doc_indices": p, "term_freqs": p,
              "doc_fields": 3 * n + 1}
    data = (index_dir / "postings.bin").read_bytes()
    arrays, start = {}, 0
    for key, count in counts.items():
        dtype = np.dtype(manifest["postings_dtypes"][key])
        arrays[key] = np.frombuffer(data, dtype=dtype, count=count, offset=start).copy()
        start += count * dtype.itemsize
    edit(arrays[name])
    rewrite_index_file(index_dir, "postings.bin", b"".join(a.tobytes() for a in arrays.values()))


def swap_terms(index_dir, first, second):
    """Swap two lines of terms.txt, keeping its CRC-32 right."""
    terms = (index_dir / "terms.txt").read_bytes().split(b"\n")
    terms[first], terms[second] = terms[second], terms[first]
    rewrite_index_file(index_dir, "terms.txt", b"\n".join(terms))


def swap_second_and_third(bounds):
    bounds[[1, 2]] = bounds[[2, 1]]


def point_past_the_documents(doc_indices):
    doc_indices[0] = np.iinfo(doc_indices.dtype).max
