"""Independent reference rankers for the benchmark's output checks.

Both score every document straight from the raw corpus rows; they share no
code with ``respqa.retrieval`` beyond the documented formulas.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter


def _tokens(text: str) -> list[str]:
    return "".join(ch for ch in text if not unicodedata.category(ch).startswith("P")).lower().split()


class BruteBM25:
    """BM25 (Lucene IDF, k1=1.2, b=0.75); ties by ascending doc id."""

    def __init__(self, corpus: list[dict], k1: float = 1.2, b: float = 0.75) -> None:
        self.ids = [row["id"] for row in corpus]
        self.counts = [Counter(_tokens(row["contents"])) for row in corpus]
        self.lengths = [sum(c.values()) for c in self.counts]
        self.df: Counter = Counter()
        for counts in self.counts:
            self.df.update(counts.keys())
        self.n = len(corpus)
        self.avgdl = (sum(self.lengths) / self.n) or 1.0
        self.k1, self.b = k1, b

    def top(self, query: str, k: int) -> list[tuple[str, float]]:
        terms = _tokens(query)
        results = []
        for doc_id, counts, length in zip(self.ids, self.counts, self.lengths):
            score = 0.0
            for term in terms:
                tf = counts.get(term, 0)
                if tf == 0:
                    continue
                df = self.df[term]
                idf = math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))
                norm = 1.0 - self.b + self.b * length / self.avgdl
                score += idf * (tf * (self.k1 + 1.0)) / (tf + self.k1 * norm)
            if score > 0.0:
                results.append((doc_id, score))
        results.sort(key=lambda item: (-item[1], item[0]))
        return results[:k]


def brute_cosine(
    vectors: dict[str, list[float]], query: list[float], k: int
) -> list[tuple[str, float]]:
    """Cosine from raw vectors (dot over the norm product), clamped at 0."""
    qnorm = math.sqrt(sum(x * x for x in query))
    results = []
    for doc_id, vec in vectors.items():
        dnorm = math.sqrt(sum(x * x for x in vec))
        cos = sum(a * b for a, b in zip(query, vec)) / (qnorm * dnorm) if qnorm and dnorm else 0.0
        if cos > 0.0:
            results.append((doc_id, cos))
    results.sort(key=lambda item: (-item[1], item[0]))
    return results[:k]


def same_ranking(
    got: list[tuple[str, float]],
    want: list[tuple[str, float]],
    tol: float = 1e-9,
    float_ties: bool = False,
) -> bool:
    """Same ids in the same order, scores equal within ``tol`` (relative).

    With ``float_ties`` two ids may trade places where the reference scores
    them within ``tol`` of each other: two computations of the same cosine
    may round differently. Without it the order must match exactly, which
    checks the doc-id tie-break.
    """
    if len(got) != len(want):
        return False
    ref = dict(want)

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= tol * max(1.0, abs(b))

    for (gid, gscore), (wid, wscore) in zip(got, want):
        if not close(gscore, wscore):
            return False
        if gid != wid and not (float_ties and gid in ref and close(ref[gid], wscore)):
            return False
    return True
