"""Seeded synthetic corpus, multi-hop dataset and document vectors.

The corpus is Zipf-distributed filler over a pseudo-word vocabulary whose
most frequent ranks are real English stop words (the head terms), plus one
planted fact document per hop of every question's bridge-entity chain:

    "<E_j> ... <E_j> <relation>-link <E_j+1>. ..."

A question asks for the end of a chain, naming the relations and only the
first entity: "In the end, what is the r2 of the r1 of <E_0>?". An
unanswerable question has the last fact of its chain left out of the corpus.

Two properties make every run's expected answers exact:

- Entity names are unique tokens, so the hop-j sub-question retrieves the
  documents of E_j (its own and the one naming it as object) at ranks 1-2.
- Documents of non-head entities (E_j, j >= 1) share no token with any
  question: their filler excludes the head terms and relation words, and
  the fact writes the relation as "<r>-link", which tokenizes to "<r>link".
  A single retrieval with the question therefore never reaches past E_0,
  so the one-shot baseline answers exactly the 1-hop answerable questions.

The same seed and parameters give byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path

# Head terms: the most frequent ranks of the Zipf vocabulary.
HEAD_WORDS = (
    "the", "of", "and", "in", "to", "a", "is", "was", "for", "on", "as", "by",
    "with", "that", "at", "from", "it", "his", "an", "which", "what", "who",
)
# Question openers; every word is a head term or absent from the corpus.
QUESTION_PREFIXES = (
    "In the end, ",
    "As it was noted by the archive, ",
    "For the record, ",
    "With all that is known, ",
)
UNKNOWN_ANSWER = "unknown"
EMBED_STOP_RANKS = 300  # the embedding ignores this many most frequent words
LINK_SUFFIX = "-link"

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_NAME_CONSONANTS = "bcdfghjklmnprstvwxz"
_NAME_VOWELS = "aeiouy"


@dataclass(frozen=True)
class GenParams:
    """Everything the generator draws from, besides the seed."""

    n_docs: int
    n_questions: int
    doc_words_min: int = 40
    doc_words_max: int = 120
    vocab_size: int = 20_000
    zipf_s: float = 1.07
    n_relations: int = 40
    # 1-, 2-, 3-hop shares. With 20% unanswerable, the median question is a
    # 2-hop answerable one well inside its group (cumulative 20%-60%), so
    # question_p50_ms does not sit on the edge between two call counts.
    hop_mix: tuple[float, float, float] = (0.25, 0.5, 0.25)
    unanswerable_share: float = 0.2
    embed_dim: int = 0  # 0: no vectors file

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Expected:
    """What the simulated LLM must produce for one question."""

    hops: int
    answerable: bool
    resp_answer: str
    resp_rounds: int
    resp_stop: str
    standard_answer: str


@dataclass
class World:
    corpus: list[dict]
    dataset: list[dict]
    expected: dict[str, Expected]
    vectors: dict[str, list[float]] | None
    embedder: "HashEmbedder | None"


def _pseudo_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        syllables = rng.randint(2, 4)
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _names(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    """Two-token capitalized names whose tokens are globally unique."""
    names: list[str] = []
    while len(names) < count:
        parts = []
        for _ in range(2):
            while True:
                token = "".join(
                    rng.choice(_NAME_CONSONANTS) + rng.choice(_NAME_VOWELS) for _ in range(3)
                )
                if token not in taken:
                    taken.add(token)
                    parts.append(token.capitalize())
                    break
        names.append(" ".join(parts))
    return names


def _hop_counts(params: GenParams) -> list[tuple[int, bool]]:
    """Exact composition (largest remainder), so every seed has the same mix."""
    raw = [share * params.n_questions for share in params.hop_mix]
    counts = [int(x) for x in raw]
    order = sorted(range(3), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[: params.n_questions - sum(counts)]:
        counts[i] += 1
    kinds: list[tuple[int, bool]] = []
    for hops, n in zip((1, 2, 3), counts):
        unanswerable = int(n * params.unanswerable_share + 0.5)
        kinds += [(hops, False)] * unanswerable + [(hops, True)] * (n - unanswerable)
    return kinds


def _expected(hops: int, answerable: bool, answer: str) -> Expected:
    """Trajectory of run_resp (max_iterations 3) under the simulated LLM.

    Answerable: one round per hop, then the judge says Yes. Unanswerable
    1- and 2-hop: the planner repeats the missing hop and the retry repeats
    it too (duplicate_plan after round 1). Unanswerable 3-hop: the third
    round is the last one allowed (max_iterations).
    """
    if answerable:
        rounds, stop = hops, "judged_sufficient"
    elif hops == 3:
        rounds, stop = 3, "max_iterations"
    else:
        rounds, stop = 2, "duplicate_plan"
    return Expected(
        hops=hops,
        answerable=answerable,
        resp_answer=answer if answerable else UNKNOWN_ANSWER,
        resp_rounds=rounds,
        resp_stop=stop,
        standard_answer=answer if answerable and hops == 1 else UNKNOWN_ANSWER,
    )


def fact_sentence(subject: str, relation: str, obj: str) -> str:
    return f"{subject} {relation}{LINK_SUFFIX} {obj}."


def question_text(prefix: str, relations: list[str], head: str) -> str:
    chain = " of the ".join(reversed(relations))
    return f"{prefix}what is the {chain} of {head}?"


def make_world(params: GenParams, seed: int) -> World:
    rng = random.Random(seed)
    taken: set[str] = set(HEAD_WORDS)
    vocab = list(HEAD_WORDS) + _pseudo_words(rng, params.vocab_size - len(HEAD_WORDS), taken)
    relations = vocab[200 : 200 + params.n_relations]
    weights = [1.0 / (rank + 1) ** params.zipf_s for rank in range(len(vocab))]
    cum_all = list(accumulate(weights))
    excluded = set(HEAD_WORDS) | set(relations)
    quiet_vocab = [w for w in vocab if w not in excluded]
    cum_quiet = list(accumulate(weights[i] for i, w in enumerate(vocab) if w not in excluded))

    def filler(count: int, quiet: bool) -> list[str]:
        if quiet:
            return rng.choices(quiet_vocab, cum_weights=cum_quiet, k=count)
        return rng.choices(vocab, cum_weights=cum_all, k=count)

    # (hops, answerable, prefix): the same multiset for every seed
    kinds = [
        (hops, answerable, QUESTION_PREFIXES[i % len(QUESTION_PREFIXES)])
        for i, (hops, answerable) in enumerate(_hop_counts(params))
    ]
    rng.shuffle(kinds)
    n_entities = sum(hops + 1 for hops, _, _ in kinds)
    names = _names(rng, n_entities, set(taken))

    fact_docs: list[tuple[str, str]] = []  # (title, contents)
    dataset: list[dict] = []
    expected: dict[str, Expected] = {}
    cursor = 0
    for qnum, (hops, answerable, prefix) in enumerate(kinds):
        chain = names[cursor : cursor + hops + 1]
        cursor += hops + 1
        rels = rng.sample(relations, hops)
        planted = hops if answerable else hops - 1
        for j in range(planted):
            n_words = rng.randint(params.doc_words_min, params.doc_words_max) - 6
            before = rng.randint(0, n_words)
            words = filler(n_words, quiet=j > 0)
            text = (
                f"{chain[j]} {' '.join(words[:before])}. "
                f"{fact_sentence(chain[j], rels[j], chain[j + 1])} "
                f"{' '.join(words[before:])}."
            )
            fact_docs.append((chain[j], " ".join(text.split())))
        qid = f"q{qnum:05d}"
        question = question_text(prefix, rels, chain[0])
        question = question[0].upper() + question[1:]
        dataset.append({"id": qid, "question": question, "golden_answers": [chain[hops]]})
        expected[qid] = _expected(hops, answerable, chain[hops])

    n_filler = params.n_docs - len(fact_docs)
    if n_filler < 0:
        raise ValueError(f"n_docs={params.n_docs} is below the {len(fact_docs)} fact documents")
    docs: list[tuple[str, str]] = list(fact_docs)
    for _ in range(n_filler):
        n_words = rng.randint(params.doc_words_min, params.doc_words_max)
        docs.append((" ".join(filler(2, quiet=True)), " ".join(filler(n_words, quiet=False)) + "."))
    rng.shuffle(docs)
    corpus = [
        {"id": f"d{i:06d}", "title": title, "contents": contents}
        for i, (title, contents) in enumerate(docs)
    ]
    vectors = embedder = None
    if params.embed_dim:
        embedder = HashEmbedder(params.embed_dim, frozenset(vocab[:EMBED_STOP_RANKS]))
        vectors = {row["id"]: embedder(row["contents"]) for row in corpus}
    return World(corpus, dataset, expected, vectors, embedder)


def _write_jsonl(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


def write_world(world: World, directory: Path) -> dict[str, Path]:
    """corpus.jsonl, dataset.jsonl and (with embed_dim) vectors.jsonl."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {"corpus": directory / "corpus.jsonl", "dataset": directory / "dataset.jsonl"}
    _write_jsonl(paths["corpus"], world.corpus)
    _write_jsonl(paths["dataset"], world.dataset)
    if world.vectors is not None:
        paths["vectors"] = directory / "vectors.jsonl"
        _write_jsonl(paths["vectors"], ({"id": k, "vector": v} for k, v in world.vectors.items()))
    return paths


# Question openers carry no meaning for the embedding.
_OPENER_WORDS = frozenset(
    word.strip(",").lower() for prefix in QUESTION_PREFIXES for word in prefix.split()
)


class HashEmbedder:
    """Deterministic bag-of-words embedding: a pure function of the text.

    Each distinct token hashes (blake2b, stable across processes) to
    ``probes`` signed dimensions with weights in [0.5, 1.5), so one unlucky
    collision cannot erase it; capitalized tokens (entity
    names) weigh ``name_weight`` times more, and the ``stop`` words (the
    most frequent vocabulary ranks) and question openers nothing, the way a
    learned embedding discounts frequent words. No state, so it is safe to
    call from any number of threads.
    """

    def __init__(
        self, dim: int, stop: frozenset[str], name_weight: float = 8.0, probes: int = 5
    ) -> None:
        self.dim = dim
        self.probes = probes
        self.stop = stop | _OPENER_WORDS
        self.name_weight = name_weight

    def __call__(self, text: str) -> list[float]:
        vec = [0.0] * self.dim
        for token in {raw.strip(".,?!;:") for raw in text.split()}:
            low = token.lower()
            if not token or low in self.stop:
                continue
            scale = self.name_weight if token[0].isupper() else 1.0
            digest = hashlib.blake2b(low.encode("utf-8"), digest_size=4 * self.probes).digest()
            for probe in range(self.probes):
                h = int.from_bytes(digest[4 * probe : 4 * probe + 4], "little")
                weight = (0.5 + ((h >> 20) & 0xFFF) / 4096.0) * scale
                vec[h % self.dim] += weight if (h >> 16) & 1 else -weight
        return vec
